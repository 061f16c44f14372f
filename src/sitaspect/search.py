"""Bounded model search: counterexample hunting and the commutativity trap.

The exhaustive layer enumerates every semantically distinct small structure
a formalism's axioms and conclusion can observe: the relation (or function)
behind the checked aspect, the action map, and the fluent valuation, with
witnesses searched over all predicates. Relations behind unrelated aspect
labels never enter any axiom, and composed relations range over the full
relation space (the identity is an admissible factor), so this enumeration
covers all factored models of the same size. A function is searched as a
relation whose rows are singletons, so every premise test reads rows only.

A level is counted by row classes, the situations that share a row. An
action map passes stability iff it keeps each situation in its class, and
a valuation separates s from act[s] iff it cuts s's class. A structure no
definable valuation cuts holds no counterexample, so its maps and
valuations are counted in closed form, once per row multiset; a structure
some definable valuation cuts is searched map by map, in product order.

The random layer samples larger structures, biased so that a useful share
of them satisfies the premises instead of being vacuous.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional

from .disjoint import CommutativeCanonical, d_eval
from .errors import ModelError
from .finite import FiniteModel, compose_rows
from .terms import AspectPath, path
from .validator import (
    FORMALISMS,
    _defined,
    _first_witness,
    check_commutativity,
    is_collective,
    is_functional,
    is_universal,
    verify_theorem,
)


@dataclass(frozen=True)
class SearchResult:
    formalism: str
    counterexample: Optional[FiniteModel]
    exhaustive_models: int
    exhaustive_premise_models: int
    random_models: int
    random_premise_models: int
    scope: tuple[str, ...]


def search_counterexample(formalism: str, max_situations: int = 3, seed: int = 0,
                          random_samples: int = 0,
                          random_max_situations: int = 6) -> SearchResult:
    """Exhaust small structures, then sample seeded random larger ones.

    Returns the first structure where the premises hold and the
    non-interference conclusion fails; the expected result is none.
    """
    if formalism not in FORMALISMS:
        raise ModelError(f"unknown formalism '{formalism}'")
    _at_least("exhaustive situations", max_situations, 1)
    _at_least("random samples", random_samples, 0)
    if random_samples:
        _at_least("random situations", random_max_situations, 2)
    scope = [
        f"exhaustive over 1..{max_situations} situations, one checked aspect, "
        f"one action, all valuations, witnesses searched over all predicates",
    ]
    if is_collective(formalism):
        scope.append("collective layout: two elements, fluent aspect {x1}, "
                     "action aspect {x2}; wider aspects are sampled randomly")
    found = None
    exhaustive_models = 0
    exhaustive_premise = 0
    for n in range(1, max_situations + 1):
        found, checked, premise = _exhaustive_level(formalism, n)
        exhaustive_models += checked
        exhaustive_premise += premise
        if found is not None:
            break
    random_models = 0
    random_premise = 0
    if found is None and random_samples:
        scope.append(f"random sampling: {random_samples} models with up to "
                     f"{random_max_situations} situations, premise-biased")
        found, random_models, random_premise = _random_sweep(
            formalism, random_samples, seed, random_max_situations)
    return SearchResult(formalism, found, exhaustive_models, exhaustive_premise,
                        random_models, random_premise, tuple(scope))


def _at_least(what: str, value: int, low: int) -> None:
    if value < low:
        raise ModelError(f"{what} must be at least {low}, got {value}")


def _exhaustive_level(formalism: str, n: int):
    """One exhaustive level: every relation (or function) on n situations,
    then every action map, then every valuation, each a product with the
    first position slowest. Returns the first counterexample or None, the
    models checked and those whose premises hold.

    A structure no definable valuation cuts a row class of is counted in
    closed form: every map times every valuation checked, and the product
    of the class sizes (the maps that pass stability) times the definable
    valuations with their premises holding. `_defined` reads situation s
    only through rows[s], so permuting the rows permutes every definable
    valuation: that count is taken once per row multiset, at its first
    structure. A cut structure is searched map by map, so the first
    counterexample and every count are those of the full product order."""
    universal = is_universal(formalism)
    checked = 0
    premise_models = 0
    acts = list(itertools.product(range(n), repeat=n))
    if is_functional(formalism):
        structures = ([1 << t for t in vec] for vec in acts)
    else:
        structures = itertools.product(range(1 << n), repeat=n)
    closed: dict[tuple, int] = {}  # row multiset -> premise models of each structure
    for rows in structures:
        key = tuple(sorted(rows))
        if key not in closed:
            definable = {_defined(rows, q, universal) for q in range(1 << n)}
            classes: dict[int, int] = {}
            for s in range(n):
                classes[rows[s]] = classes.get(rows[s], 0) | 1 << s
            if not any(0 < val & members != members
                       for val in definable for members in classes.values()):
                passing = 1
                for s in range(n):
                    passing *= classes[rows[s]].bit_count()
                closed[key] = passing * len(definable)
        if key in closed:
            checked += len(acts) << n
            premise_models += closed[key]
            continue
        for act in acts:
            if any(rows[s] != rows[act[s]] for s in range(n)):
                checked += 1 << n  # every valuation of this structure is vacuous
                continue
            for val in range(1 << n):
                checked += 1
                if val not in definable:
                    continue  # fluent-factorization premise fails
                premise_models += 1
                if any((val >> s & 1) != (val >> act[s] & 1) for s in range(n)):
                    model = _materialize(formalism, n, rows, act, val)
                    return model, checked, premise_models
    return None, checked, premise_models


def _materialize(formalism: str, n: int, rows, act, val) -> FiniteModel:
    sits = tuple(f"s{i}" for i in range(n))
    rel = frozenset((sits[s], sits[t]) for s in range(n)
                    for t in range(n) if rows[s] >> t & 1)
    action_map = {sits[s]: sits[act[s]] for s in range(n)}
    valuation = frozenset(sits[s] for s in range(n) if val >> s & 1)
    if is_collective(formalism):
        alpha, beta = AspectPath.of({"x1"}), AspectPath.of({"x2"})
        rels = {"collective_rels": {"x1": rel, "x2": rel}}
    else:
        alpha, beta = path("a1"), path("a2")
        rels = {"aspect_rels": {"a1": rel, "a2": frozenset()},
                "functional": frozenset(("a1",) if is_functional(formalism) else ())}
    return FiniteModel(
        name=f"{formalism}-counterexample", situations=sits,
        action_maps={"act": action_map}, valuations={"p": valuation},
        fluent_aspects={"p": alpha}, action_aspects={"act": beta},
        d_table=frozenset({(alpha, beta)}), **rels)


def _random_sweep(formalism: str, samples: int, seed: int, max_n: int):
    rng = random.Random(f"{formalism}/{seed}")
    randrange, coin, choice = rng.randrange, rng.random, rng.choice
    functional = is_functional(formalism)
    universal = is_universal(formalism)
    premise_models = 0
    for checked in range(1, samples + 1):
        n = randrange(2, max_n + 1)
        # A function's rows are singletons, so its draws are successor indices.
        draws = ([1 << randrange(n) for _ in range(2 * n)] if functional
                 else [randrange(1 << n) for _ in range(2 * n)])
        rows = compose_rows(draws[:n], draws[n:])
        if coin() < 0.5:
            act = [randrange(n) for _ in range(n)]
        else:
            classes: dict[int, list[int]] = {}
            for s in range(n):
                classes.setdefault(rows[s], []).append(s)
            act = [choice(classes[row]) for row in rows]
        q = randrange(1 << n)
        val = None if coin() < 0.5 else randrange(1 << n)  # None: the one q defines
        if [rows[t] for t in act] != rows:
            continue
        if val is None:  # q is its witness
            val = _defined(rows, q, universal)
        elif _first_witness(rows, val, universal) is None:
            continue
        premise_models += 1
        if any((val >> s & 1) != (val >> act[s] & 1) for s in range(n)):
            return _materialize(formalism, n, rows, act, val), checked, premise_models
    return None, samples, premise_models


# ---------------------------------------------------------------------------
# The commutativity trap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PitfallFirstHalf:
    """Under the naive exists-a-difference d plus commutativity, every
    premise-satisfying action of aspect (0,1) is effect-free on all four
    two-step aspects."""

    pairs_checked: int
    commuting_pairs: int
    violations: int
    scope: tuple[str, ...]

    @property
    def effect_free_everywhere(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class PitfallSecondHalf:
    """Under the canonical commutative d, a commuting model exists whose
    premises all hold while the action changes a (0,1)-aspect fluent."""

    model: FiniteModel
    commutativity_holds: bool
    premises_hold: bool
    changed_fluent: str
    changed_at: str
    naive_premises_hold: bool


@dataclass(frozen=True)
class PitfallReport:
    first: PitfallFirstHalf
    second: PitfallSecondHalf
    corrected_d_rejects_swap: bool  # d((0,1),(1,0)) is False under the corrected spec

    @property
    def reproduced(self) -> bool:
        return (self.first.effect_free_everywhere
                and self.second.premises_hold
                and self.second.commutativity_holds
                and not self.second.naive_premises_hold
                and self.corrected_d_rejects_swap)


def reproduce_commutative_pitfall(seed: int = 0, exhaustive_max: int = 3,
                                  functional_situations: int = 4,
                                  random_samples: int = 20000) -> PitfallReport:
    """Reproduce both halves of the commutativity trap.

    First half: sweep commuting relation pairs (exhaustively up to
    `exhaustive_max` situations, exhaustively over function pairs at
    `functional_situations`, plus seeded random commuting pairs) and confirm
    that whenever the naive premises hold for an action of aspect (0,1), the
    rows of all four composed aspects are preserved, i.e. the action cannot
    change any witness-definable fluent. Second half: exhibit a commuting
    model that satisfies every premise of the corrected regime while the
    action does change a (0,1)-aspect fluent.
    """
    _at_least("exhaustive situations", exhaustive_max, 1)
    _at_least("functional situations", functional_situations, 1)
    _at_least("random samples", random_samples, 0)
    pairs_checked = 0
    commuting = 0
    violations = 0
    scope = [f"all relation pairs on 1..{exhaustive_max} situations",
             f"all function pairs on {functional_situations} situations",
             f"{random_samples} seeded random commuting pairs on "
             f"{functional_situations} situations"]
    for n, r0, r1 in _trap_pairs(seed, exhaustive_max, functional_situations,
                                 random_samples):
        pairs_checked += 1
        if _commutes(r0, r1):
            commuting += 1
            violations += _naive_trap_violations(n, r0, r1)

    first = PitfallFirstHalf(pairs_checked=pairs_checked, commuting_pairs=commuting,
                             violations=violations, scope=tuple(scope))

    model = build_pitfall_witness()
    verdict = verify_theorem("seq-rel-exists", model)
    comm = check_commutativity(model)
    avec = model.act_vec("flip")
    p01 = model.val_mask("p01")
    changed_at = ""
    for s in range(len(model.situations)):
        if (p01 >> s & 1) != (p01 >> avec[s] & 1):
            changed_at = model.situations[s]
            break
    naive = verify_theorem("seq-rel-exists", _with_naive_dtable(model))
    second = PitfallSecondHalf(
        model=model, commutativity_holds=comm.holds,
        premises_hold=verdict.premises.all_hold, changed_fluent="p01",
        changed_at=changed_at, naive_premises_hold=naive.premises.all_hold)

    rejects = not d_eval(CommutativeCanonical(), path("0", "1"), path("1", "0"))
    return PitfallReport(first=first, second=second,
                         corrected_d_rejects_swap=rejects)


def _trap_pairs(seed: int, exhaustive_max: int, nf: int, random_samples: int):
    """The (n, r0, r1) relation pairs of the first half, in order: every
    relation pair on 1..exhaustive_max situations, every function pair on
    nf situations, then seeded random partners on nf situations, which are
    unions of powers of r0 and so commute with it."""
    for n in range(1, exhaustive_max + 1):
        rows = itertools.product(range(1 << n), repeat=n)
        for r0, r1 in itertools.product(rows, repeat=2):
            yield n, r0, r1
    funcs = ([1 << t for t in vec] for vec in itertools.product(range(nf), repeat=nf))
    for r0, r1 in itertools.product(funcs, repeat=2):
        yield nf, r0, r1
    rng = random.Random(seed)
    for _ in range(random_samples):
        r0 = [rng.randrange(1 << nf) for _ in range(nf)]
        yield nf, r0, _random_commuting_partner(rng, r0, nf)


def _commutes(r0: list[int], r1: list[int]) -> bool:
    return compose_rows(r0, r1) == compose_rows(r1, r0)


def _naive_trap_violations(n: int, r0: list[int], r1: list[int]) -> int:
    """Count ways an action could satisfy the naive premises yet change a
    definable fluent of some two-step aspect; the caller passes commuting
    pairs only.

    The naive d relates aspects (0,0), (1,0), (1,1) to the action aspect
    (0,1), so premise-satisfying actions preserve those three composed rows;
    the action is free on a (0,1)-aspect fluent iff the (0,1) rows are not
    constant on the preservation classes. Quantifying over actions reduces
    to that class check, because a premise-satisfying action may map a
    situation anywhere inside its class.
    """
    r00 = compose_rows(r0, r0)
    r10 = compose_rows(r1, r0)
    r11 = compose_rows(r1, r1)
    r01 = compose_rows(r0, r1)
    sig = [(r00[s], r10[s], r11[s]) for s in range(n)]
    classes: dict[tuple, set[int]] = {}
    for s in range(n):
        classes.setdefault(sig[s], set()).add(s)
    bad = 0
    for members in classes.values():
        rows01 = {r01[s] for s in members}
        if len(rows01) > 1:
            bad += 1
    return bad


def _random_commuting_partner(rng: random.Random, r0: list[int], n: int) -> list[int]:
    """A random polynomial in r0 (union of powers, optionally the identity);
    such relations always commute with r0."""
    powers = [[1 << s for s in range(n)]]  # identity
    cur = powers[0]
    for _ in range(3):
        cur = compose_rows(cur, r0)
        powers.append(cur)
    keep = [p for p in powers if rng.random() < 0.5]
    if not keep:
        keep = [powers[1]]
    out = [0] * n
    for p in keep:
        for s in range(n):
            out[s] |= p[s]
    return out


def build_pitfall_witness() -> FiniteModel:
    """A commuting model whose flip action changes a (0,1)-aspect fluent.

    Two world situations w0/w1 with distinct (0,1) components d0/d1; the
    two-step aspects (0,0) and (1,1) are empty, so the corrected-d premises
    hold, while flip swaps the worlds.
    """
    sits = ("w0", "w1", "m0", "m1", "n0", "n1", "d0", "d1")
    rel0 = frozenset({("w0", "m0"), ("w1", "m1"), ("n0", "d0"), ("n1", "d1")})
    rel1 = frozenset({("w0", "n0"), ("w1", "n1"), ("m0", "d0"), ("m1", "d1")})
    flip = {s: s for s in sits}
    flip["w0"] = "w1"
    flip["w1"] = "w0"
    paths = {name: path(*name[1:]) for name in ("p00", "p01", "p10", "p11")}
    witnesses = {
        ("p00", "seq-rel-exists"): frozenset(),
        ("p01", "seq-rel-exists"): frozenset({"d0"}),
        ("p10", "seq-rel-exists"): frozenset({"d0"}),
        ("p11", "seq-rel-exists"): frozenset(),
    }
    return FiniteModel(
        name="mesh-witness",
        situations=sits,
        aspect_rels={"0": rel0, "1": rel1},
        action_maps={"flip": flip},
        valuations={"p00": frozenset(), "p01": frozenset({"w0"}),
                    "p10": frozenset({"w0"}), "p11": frozenset()},
        fluent_aspects=paths,
        action_aspects={"flip": path("0", "1")},
        witnesses=witnesses,
        d_table=frozenset({(path("0", "0"), path("0", "1")),
                           (path("1", "1"), path("0", "1"))}),
    )


def _with_naive_dtable(model: FiniteModel) -> FiniteModel:
    """The same model under the naive exists-a-difference d: the (1,0) vs
    (0,1) pair is additionally declared disjoint."""
    naive = set(model.d_table)
    naive.add((path("1", "0"), path("0", "1")))
    return replace(model, name=model.name + "-naive", d_table=frozenset(naive))
