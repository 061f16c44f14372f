"""Premise and conclusion checking for the thirteen formalism variants.

Each variant pairs a component-stability axiom (actions declared
non-interfering with an aspect leave that aspect's relation or function
unchanged) with a fluent-factorization axiom (the fluent's valuation factors
through a witness predicate over the aspect). The non-interference
conclusion is then checked model-wide: declared-disjoint action/fluent pairs
must never change the fluent's value. Functional formalisms are checked as
relational ones over the rows of total functions, one successor per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ModelError
from .finite import FiniteModel, compose_rows
from .terms import AspectAtom, AspectPath, AspectSet

FORMALISMS = (
    "rel-exists", "rel-forall",
    "seq-rel-exists", "seq-rel-forall",
    "fun", "seq-fun",
    "coll-rel-exists", "coll-rel-forall", "coll-fun",
    "modal-box", "modal-diamond",
    "seq-modal-box", "seq-modal-diamond",
)

STABILITY = "component-stability"
FACTORIZATION = "fluent-factorization"
PRESERVATION = "aspect-preservation"


def is_collective(formalism: str) -> bool:
    return formalism.startswith("coll-")


def is_functional(formalism: str) -> bool:
    return formalism in ("fun", "seq-fun", "coll-fun")


def is_universal(formalism: str) -> bool:
    return formalism in ("rel-forall", "seq-rel-forall", "coll-rel-forall",
                         "modal-box", "seq-modal-box")


def is_modal(formalism: str) -> bool:
    return formalism.startswith("modal-") or formalism.startswith("seq-modal-")


def is_sequential(formalism: str) -> bool:
    return formalism.startswith("seq-")


@dataclass(frozen=True)
class PremiseCheck:
    axiom: str
    subject: str
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class PremiseReport:
    formalism: str
    checks: tuple[PremiseCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


@dataclass(frozen=True)
class NonInterferenceReport:
    pairs_checked: int
    counterexamples: tuple[tuple[str, str, str], ...]  # (fluent, action, situation)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class TheoremVerdict:
    formalism: str
    verdict: str  # "pass" | "vacuous" | "counterexample"
    premises: PremiseReport
    conclusion: Optional[NonInterferenceReport]


def _shape_check(model: FiniteModel, formalism: str) -> None:
    for kind, aspects in (("fluent", model.fluent_aspects),
                          ("action", model.action_aspects)):
        for name, path in aspects.items():
            if is_collective(formalism):
                if len(path) != 1 or not isinstance(path[0], AspectSet):
                    raise ModelError(
                        f"collective formalisms need set aspects; {kind} "
                        f"'{name}' has {path}")
            elif is_sequential(formalism):
                if not path.is_atomic():
                    raise ModelError(
                        f"sequential formalisms need atom paths; {kind} "
                        f"'{name}' has {path}")
            else:
                if len(path) != 1 or not isinstance(path[0], AspectAtom):
                    raise ModelError(
                        f"simple formalisms need single-atom aspects; {kind} "
                        f"'{name}' has {path}")


def check_premises(model: FiniteModel, formalism: str) -> PremiseReport:
    """Universally check the formalism's premise axioms over the model.

    Witness axioms use the stored witness when one is declared; otherwise
    the least witness predicate is computed directly, on a model of any
    size. A collective fluent's witness family is decided element by
    element: each element without a stored witness contributes its least
    definable supersets of the valuation, and some choice of them must meet
    in it. No limit ends the search.
    """
    if formalism not in FORMALISMS:
        raise ModelError(f"unknown formalism '{formalism}'")
    model.validate()
    _shape_check(model, formalism)
    checks = _stability(model, formalism)
    notes: list[str] = []
    if is_collective(formalism):
        checks += _collective_factorization(model, formalism)
        notes.append(
            "collective d(alpha,beta) is validated under the empty-intersection "
            "reading; a nonempty-intersection reading would contradict "
            "element stability and is not used")
    else:
        checks += _factorization(model, formalism)
    if is_sequential(formalism):
        notes.append("relations over aspect sequences are expanded by "
                     "composition, first element first")
    if is_modal(formalism):
        notes.append("modal schema variables range over all subset "
                     "valuations of the situation set")
    checks.append(PremiseCheck(
        axiom=PRESERVATION, subject="all fluents and actions", holds=True,
        note="aspect assignments are fixed maps, independent of the situation"))
    return PremiseReport(formalism=formalism, checks=tuple(checks),
                         notes=tuple(notes))


def _stability(model: FiniteModel, formalism: str) -> list[PremiseCheck]:
    """Each action keeps the rows of every relation its aspect is declared
    independent of: under a collective formalism, the element relations
    outside the aspect; otherwise, the path relations that d pairs with it."""
    collective = is_collective(formalism)
    if collective and not model.collective_rels:
        raise ModelError("collective formalisms need per-element relations")
    checks = []
    for act in sorted(model.action_maps):
        beta = model.action_aspects.get(act)
        if beta is None:
            raise ModelError(f"action '{act}' has no aspect assignment")
        avec = model.act_vec(act)
        if collective:
            inside = {a.name for a in beta[0].atoms}
            rels = ((f"R_{x}", _element_rows(model, x, formalism))
                    for x in sorted(model.collective_rels) if x not in inside)
        else:
            rels = ((f"R{alpha}", _path_rows(model, alpha, formalism))
                    for alpha, beta2 in sorted(model.d_table, key=str) if beta2 == beta)
        for name, rows in rels:
            bad = next((s for s, row in enumerate(rows) if row != rows[avec[s]]), None)
            note = "" if bad is None else f"changes at situation {model.situations[bad]}"
            checks.append(PremiseCheck(STABILITY, f"{name} under {act}", bad is None, note))
    return checks


def _path_rows(model: FiniteModel, path: AspectPath, formalism: str) -> list[int]:
    """Rows of the relation composed along an atom path; a functional
    formalism first checks that each atom's relation is a total function."""
    if is_functional(formalism):
        for elem in path:
            if not isinstance(elem, AspectAtom):
                raise ModelError(f"functional composition needs atom paths, got {path}")
            _total(model, f"relation '{elem.name}'", model.rel_rows(elem.name))
    return model.path_rows(path)


def _element_rows(model: FiniteModel, elem: str, formalism: str) -> list[int]:
    rows = model.element_rows(elem)
    if is_functional(formalism):
        _total(model, f"element relation '{elem}'", rows)
    return rows


def _total(model: FiniteModel, what: str, rows: list[int]) -> None:
    """A total function's rows are singletons: one successor per situation."""
    for i, row in enumerate(rows):
        if row == 0 or row & (row - 1):
            raise ModelError(f"{what} is not a total function at {model.situations[i]}")


def _defined(rows: list[int], q: int, universal: bool) -> int:
    """The valuation the witness predicate q defines over the aspect rows:
    s is in it when all (universal) or some of s's successors are in q."""
    out = 0
    for s, row in enumerate(rows):
        if (row & ~q) == 0 if universal else row & q:
            out |= 1 << s
    return out


def _first_witness(rows: list[int], val: int, universal: bool) -> Optional[int]:
    """The least predicate q, read as an integer, that defines val over the
    aspect rows, or None when there is none.

    Both readings are monotone in q. A universal witness contains the rows
    of every situation in val, so their union is the least candidate. An
    existential witness misses the rows of every situation outside val, so
    it lies inside the complement of their union; from there, clearing bits
    from the top while the witness still works reaches the least one. When
    bit t comes up, the bits below it are all still set, so t must stay
    exactly when some row's lowest bit in q is t and no bit kept above t
    meets that row: one pass over the rows by falling lowest bit decides
    every bit.
    """
    inside = outside = 0
    for s, row in enumerate(rows):
        if val >> s & 1:
            inside |= row
        else:
            outside |= row
    q = inside if universal else ((1 << len(rows)) - 1) & ~outside
    if _defined(rows, q, universal) != val:
        return None
    if not universal:
        hits = [row & q for row in rows]
        hits.sort(key=lambda h: h & -h, reverse=True)
        q = 0
        for h in hits:
            if not h & q:
                q |= h & -h
    return q


def _factorization(model: FiniteModel, formalism: str) -> list[PremiseCheck]:
    checks = []
    n = len(model.situations)
    universal = is_universal(formalism)
    for p in sorted(model.valuations):
        alpha = model.fluent_aspects.get(p)
        if alpha is None:
            raise ModelError(f"fluent '{p}' has no aspect assignment")
        val = model.val_mask(p)
        rows = _path_rows(model, alpha, formalism)
        stored = model.witnesses.get((p, formalism))
        subject = f"{p} over {alpha}"
        if stored is not None:
            holds = _defined(rows, _to_mask(model, stored), universal) == val
            note = "" if holds else "stored witness does not reproduce the valuation"
            checks.append(PremiseCheck(FACTORIZATION, subject, holds, note))
        else:
            found = _first_witness(rows, val, universal)
            if found is None:
                checks.append(PremiseCheck(FACTORIZATION, subject, False,
                                           "no witness predicate exists"))
            else:
                names = [model.situations[s] for s in range(n) if found >> s & 1]
                checks.append(PremiseCheck(
                    FACTORIZATION, subject, True,
                    "witness found by search: {" + ",".join(names) + "}"))
    return checks


def _least_supersets(rows: list[int], val: int, universal: bool) -> list[int]:
    """The inclusion-minimal valuations that some predicate defines over the
    aspect rows and that contain val; _defined grows with q under both
    readings, so under the universal one exactly one is left. A witness
    family works when its valuations meet in val, and keeps working when one
    shrinks to a smaller superset of val. The product of these lists is
    still exponential in the number of elements at worst; it has no bound.
    """
    least: list[int] = []
    # Fewest bits first, so every kept subset of d is seen before d.
    for d in sorted({_defined(rows, q, universal) for q in range(1 << len(rows))},
                    key=int.bit_count):
        if d & val == val and not any(m & d == m for m in least):
            least.append(d)
    return least


def _collective_factorization(model: FiniteModel, formalism: str) -> list[PremiseCheck]:
    checks = []
    full = (1 << len(model.situations)) - 1
    universal = is_universal(formalism)
    for p in sorted(model.valuations):
        alpha = model.fluent_aspects.get(p)
        if alpha is None:
            raise ModelError(f"fluent '{p}' has no aspect assignment")
        elems = sorted(a.name for a in alpha[0].atoms)
        val = model.val_mask(p)
        rows = [_element_rows(model, x, formalism) for x in elems]
        stored = [model.collective_witnesses.get((p, formalism, x)) for x in elems]
        options = [_least_supersets(r, val, universal) if q is None
                   else [_defined(r, _to_mask(model, q), universal)]
                   for r, q in zip(rows, stored)]
        meets = {full}  # what each choice from the options so far meets in
        for option in options:
            meets = {m & d for m in meets for d in option}
        holds = val in meets
        searched = stored.count(None)
        if searched == 0 or searched < len(stored) and not holds:
            note = "" if holds else "stored witnesses do not reproduce the valuation"
        else:
            note = "witness family found by exhaustive search" if holds else \
                "no witness family exists"
        checks.append(PremiseCheck(FACTORIZATION, f"{p} over {alpha}", holds, note))
    return checks


def _to_mask(model: FiniteModel, subset: frozenset[str]) -> int:
    idx = model.index()
    out = 0
    for s in subset:
        if s not in idx:
            raise ModelError(f"witness situation '{s}' is not in the model")
        out |= 1 << idx[s]
    return out


def check_noninterference(model: FiniteModel) -> NonInterferenceReport:
    """For every pair the d table declares disjoint: p(s) must equal p(a(s))."""
    model.validate()
    counterexamples = []
    pairs = 0
    for p in sorted(model.valuations):
        alpha = model.fluent_aspects.get(p)
        if alpha is None:
            continue
        val = model.val_mask(p)
        for act in sorted(model.action_maps):
            beta = model.action_aspects.get(act)
            if beta is None or (alpha, beta) not in model.d_table:
                continue
            pairs += 1
            avec = model.act_vec(act)
            for s in range(len(model.situations)):
                if (val >> s & 1) != (val >> avec[s] & 1):
                    counterexamples.append((p, act, model.situations[s]))
    return NonInterferenceReport(pairs_checked=pairs,
                                 counterexamples=tuple(counterexamples))


def verify_theorem(formalism: str, model: FiniteModel) -> TheoremVerdict:
    """pass = premises and conclusion hold; vacuous = premises fail;
    counterexample = premises hold but the conclusion fails."""
    if is_collective(formalism):
        model = model.with_derived_dtable()
    premises = check_premises(model, formalism)
    conclusion = check_noninterference(model)
    if not premises.all_hold:
        return TheoremVerdict(formalism, "vacuous", premises, conclusion)
    if conclusion.holds:
        return TheoremVerdict(formalism, "pass", premises, conclusion)
    return TheoremVerdict(formalism, "counterexample", premises, conclusion)


@dataclass(frozen=True)
class CommutativityReport:
    pairs_checked: int
    violations: tuple[tuple[str, str, str], ...]  # (atom1, atom2, situation)

    @property
    def holds(self) -> bool:
        return not self.violations


def check_commutativity(model: FiniteModel) -> CommutativityReport:
    """R_{a,b} must equal R_{b,a} for every pair of aspect atoms.

    The relational, functional, and modal readings of the constraint all
    reduce to equality of the composed rows, so one check covers them.
    """
    model.validate()
    atoms = sorted(model.aspect_rels)
    violations = []
    pairs = 0
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            pairs += 1
            r1 = model.rel_rows(atoms[i])
            r2 = model.rel_rows(atoms[j])
            ab = compose_rows(r1, r2)
            ba = compose_rows(r2, r1)
            for s in range(len(ab)):
                if ab[s] != ba[s]:
                    violations.append((atoms[i], atoms[j], model.situations[s]))
                    break
    return CommutativityReport(pairs_checked=pairs, violations=tuple(violations))
