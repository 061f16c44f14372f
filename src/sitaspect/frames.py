"""Frame reasoning from aspect annotations.

Given a domain whose fluents and actions carry aspect rules, this module
computes aspects of ground atoms, derives frame axioms (both schematic and
ground) together with axiom-economy figures, simulates progression, and
answers queries by aspect-based regression with recorded proof traces.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .disjoint import (
    CommutativeCanonical,
    ExplicitTable,
    SeqExistsDiff,
    SimpleInequality,
    d_eval,
)
from .domain import (
    AspectRule,
    Domain,
    GuardLiteral,
    MemberGuard,
    Precondition,
    SetTemplate,
    Var,
    _render_guard_atom,
    _static_rows,
    _template_members,
    arg_candidates,
    check_ground_action,
    check_ground_fluent,
    ground_fluents,
    instantiate_pat,
    instantiate_template,
    match_args,
    solve_guard,
)
from .errors import (
    AmbiguousAspectError,
    InapplicableActionError,
    MissingAspectError,
    NoProofError,
    SchemaError,
    UndefinedActionError,
)
from .state import WorldState, build_state, eval_fluent, home_of, with_fluent
from .terms import AspectAtom, AspectPath, AspectSet, GroundAction, GroundFluent

# Proof trace step kinds.
D_EVALUATION = "d-evaluation"
EFFECT_APPLICATION = "effect-application"
EQUALITY_CHECK = "equality-check"
AXIOM_INSTANTIATION = "axiom-instantiation"
ASPECT_LOOKUP = "aspect-lookup"
INIT_LOOKUP = "init-lookup"
NO_AXIOM = "no-axiom"


@dataclass(frozen=True)
class TraceStep:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass(frozen=True)
class ProofTrace:
    steps: tuple[TraceStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def count(self, kind: str) -> int:
        return sum(1 for s in self.steps if s.kind == kind)


@dataclass(frozen=True)
class FrameAxiom:
    """A ground frame assertion: under `guard`, `action` leaves `fluent` unchanged."""

    action: GroundAction
    fluent: GroundFluent
    guard: tuple[str, ...] = ()

    def render(self) -> str:
        parts = list(self.guard) + [f"holds({self.fluent}, s)"]
        return " & ".join(parts) + f" -> holds({self.fluent}, do({self.action}, s))"


@dataclass(frozen=True)
class SchematicFrameAxiom:
    """A frame axiom schema over variables, one per (fluent rule, action rule)."""

    fluent_head: str
    action_head: str
    conditions: tuple[str, ...]  # disjointness conditions, then rule guards

    def render(self) -> str:
        parts = list(self.conditions) + [f"holds({self.fluent_head}, s)"]
        return (" & ".join(parts)
                + f" -> holds({self.fluent_head}, do({self.action_head}, s))")


@dataclass(frozen=True)
class EconomyReport:
    fluent_aspect: AspectPath
    action_aspect: AspectPath
    m: int
    n: int
    derived_frame_axioms: int
    source_axioms: int


@dataclass(frozen=True)
class FrameDerivation:
    """`ground` and `errors` read the domain's static aspect table, which is
    built on first read; the other fields are derived at once."""

    domain: Domain = field(repr=False, compare=False)
    schematic: tuple[SchematicFrameAxiom, ...]
    economy: tuple[EconomyReport, ...]
    notes: tuple[str, ...] = ()

    @cached_property
    def ground(self) -> tuple[FrameAxiom, ...]:
        return _ground_axioms(self.domain)

    @property
    def errors(self) -> tuple[str, ...]:
        return self.domain.static_aspects.errors


def aspect_of_fluent(domain: Domain, state: WorldState, p: GroundFluent) -> AspectPath:
    check_ground_fluent(domain, p)
    return _aspect_of(domain, state, "fluent", p)


def aspect_of_action(domain: Domain, state: WorldState, a: GroundAction) -> AspectPath:
    check_ground_action(domain, a)
    return _aspect_of(domain, state, "action", a)


def _aspect_of(domain: Domain, state: WorldState, kind: str, atom) -> AspectPath:
    matched: list[tuple[AspectRule, list[AspectPath]]] = []
    for rule, env0 in domain.bound(kind, atom):
        sols = solve_guard(domain, state, rule.guard, env0)
        if not sols:
            continue
        aspects = []
        for sol in sols:
            asp = instantiate_template(rule.template, sol)
            if asp not in aspects:
                aspects.append(asp)
        matched.append((rule, aspects))
    if not matched:
        if not any(r.kind == kind and r.target.schema == atom.schema
                   for r in domain.aspect_rules):
            raise MissingAspectError(f"no aspect rule declared for {kind} '{atom.schema}'")
        raise MissingAspectError(f"no aspect rule applies to {atom} in this state")
    if len(matched) > 1:
        raise AmbiguousAspectError(f"multiple aspect rules apply to {atom}: "
                                   + "; ".join(str(r) for r, _ in matched))
    aspects = matched[0][1]
    if len(aspects) > 1:
        raise AmbiguousAspectError(f"aspect rule for {atom} yields several "
                                   "aspects: " + ", ".join(map(str, aspects)))
    return aspects[0]


def intersects(domain: Domain, state: WorldState, a: GroundAction, p: GroundFluent) -> bool:
    """Whether a and p intersect (are not declared non-interfering) in `state`."""
    alpha = aspect_of_fluent(domain, state, p)
    beta = aspect_of_action(domain, state, a)
    return not d_eval(domain.disjointness, alpha, beta)


# ---------------------------------------------------------------------------
# Progression
# ---------------------------------------------------------------------------

def progress(domain: Domain, state: WorldState, a: GroundAction) -> WorldState:
    """Apply a's firing effects; every untouched fluent keeps its value.

    Each step is computed once per Domain (see `_step`)."""
    return _step(domain, state, a)[1]


def _step(domain: Domain, state: WorldState,
          a: GroundAction) -> tuple[list[tuple[GroundFluent, bool]], WorldState]:
    """a's net effects in `state` and its successor, computed once per Domain.

    Only successes are stored, so a failed step raises afresh on each call.
    """
    hit = domain._steps.get((state, a))
    if hit is not None:
        return hit
    check_ground_action(domain, a)
    _check_applicable(domain, state, a)
    changes = _net_effects(domain, state, a)
    new_state = state
    for f, v in changes:
        if home_of(state, f) is None:
            try:
                check_ground_fluent(domain, f)
            except SchemaError as exc:  # an ill-sorted effect target
                raise SchemaError(f"{a} affects {exc}") from exc
            raise UndefinedActionError(
                f"{a} affects {f}, which is outside the modeled portion")
        if eval_fluent(new_state, f) != v:
            new_state = with_fluent(new_state, f, v)
    hit = domain._steps[state, a] = (changes, new_state)
    return hit


def _check_applicable(domain: Domain, state: WorldState, a: GroundAction) -> None:
    """Raise unless a is applicable in `state` (see `applicable_actions`).

    This is the only place that tells the two failures apart: a failed
    precondition whose literals reach a fluent outside the modeled portion
    raises UndefinedActionError, any other failed precondition raises
    InapplicableActionError.
    """
    failed = _failed_precondition(domain, state, a)
    if failed is None:
        return
    pre, env0 = failed
    if _touches_unmodeled(domain, state, pre.guard, env0):
        raise UndefinedActionError(
            f"{a}: precondition refers outside the modeled portion")
    raise InapplicableActionError(f"{a}: precondition does not hold")


def _failed_precondition(domain: Domain, state: WorldState,
                         a: GroundAction) -> Optional[tuple[Precondition, dict]]:
    """The first precondition of a whose guard has no solution in `state`,
    with its argument binding, or None when every precondition holds."""
    for pre, env0 in domain.bound("pre", a):
        if not solve_guard(domain, state, pre.guard, env0):
            return pre, env0
    return None


def _touches_unmodeled(domain: Domain, state: WorldState, guard, env0) -> bool:
    """Whether the guard reads a fluent outside the modeled portion. An
    instance with an argument outside its parameter's sort names no fluent
    of the domain, so it is passed over."""
    return any(eval_fluent(state, f) is None
               for f in _compiled(domain, guard, env0).fluents
               if all(arg in arg_candidates(domain, ref) for arg, ref
                      in zip(f.args, domain.fluents[f.schema].params)))


class _CompiledGuard(NamedTuple):
    """A guard under one binding, as `_compile_guard` grounds it."""

    names: list[str]
    rows: list[tuple]
    reads: list[tuple[bool, list, dict]]
    fluents: frozenset[GroundFluent]


def _compiled(domain: Domain, guard, env0: dict) -> _CompiledGuard:
    """`_compile_guard` of the guard under `env0`, once per Domain."""
    key = (guard, frozenset(env0.items()))
    hit = domain._guards.get(key)
    if hit is None:
        hit = domain._guards[key] = _compile_guard(domain, guard, env0)
    return hit


def _compile_guard(domain: Domain, guard, env: dict) -> _CompiledGuard:
    """The guard's static groundings under `env`, as the names of its
    variables and their value rows (`_static_rows`), the ground fluents each
    literal reads at each row, and every fluent it reads at any.

    A positive literal reads its instance. A negated one reads as
    `solve_guard` does: its variables that the atoms before it leave free
    run over their sort pools, the first slowest. `reads` holds per literal,
    in guard order, (positive, keys, by_key), where `keys[r]` is row r's
    binding of the literal's bound variables, and `by_key` maps each
    distinct key, in first-seen order, to the tuple of fluents read under it.
    """
    names, rows = _static_rows(domain, guard, env)
    if not rows:
        return _CompiledGuard(names, rows, [], frozenset())
    bound = set(env)
    reads = []
    for atom in guard:
        if isinstance(atom, MemberGuard):
            if isinstance(atom.member, Var):
                bound.add(atom.member.name)
            continue
        pat = atom.fluent
        variables = dict.fromkeys(v.name for v in pat.variables())
        if atom.positive:
            bound.update(variables)
        own = [n for n in variables if n in bound and n not in env]
        # Only the keys of the binding matter to the literal's own grounding.
        free, combos = _static_rows(domain, (GuardLiteral(pat),),
                                    dict.fromkeys([*env, *own]))
        at = [names.index(n) for n in own]
        # One value per key when the literal binds one variable, else a tuple.
        keys = list(map(operator.itemgetter(*at), rows)) if at else [()] * len(rows)
        by_key = dict.fromkeys(keys)
        for key in by_key:
            values = key if len(at) != 1 else (key,)
            binding = {**env, **dict(zip(own, values))}
            by_key[key] = tuple(instantiate_pat(pat, {**binding, **dict(zip(free, c))})
                                for c in combos)
        reads.append((atom.positive, keys, by_key))
    fluents = frozenset(f for _, _, by_key in reads for read in by_key.values() for f in read)
    return _CompiledGuard(names, rows, reads, fluents)


def _net_effects(domain: Domain, state: WorldState,
                 a: GroundAction) -> list[tuple[GroundFluent, bool]]:
    """Firing effects of a in `state`, delete-then-add (adds win)."""
    adds: list[GroundFluent] = []
    dels: list[GroundFluent] = []
    for rule, env0 in domain.bound("effect", a):
        for sol in solve_guard(domain, state, rule.guard, env0):
            target = instantiate_pat(rule.fluent, sol)
            (adds if rule.add else dels).append(target)
    changes: dict[GroundFluent, bool] = {}
    for f in dels:
        changes[f] = False
    for f in adds:
        changes[f] = True
    return sorted(changes.items(), key=lambda fv: fv[0].sort_key())


def applicable_actions(domain: Domain, state: WorldState) -> list[GroundAction]:
    """The ground actions applicable in `state`, in `ground_actions` order.

    An action is applicable iff the guard of every precondition matching it
    has a solution in `state`. Whether a left-out action is undefined here
    or merely inapplicable is told only by `progress`.
    """
    return [a for a in domain.ground_action_list
            if _failed_precondition(domain, state, a) is None]


# ---------------------------------------------------------------------------
# Frame axiom derivation
# ---------------------------------------------------------------------------

_FLUENT_VAR_NAMES = ("w", "v", "u")


def derive_frame_axioms(domain: Domain) -> FrameDerivation:
    """Schematic axioms per rule pair, economy per aspect pair, ground axioms per pair.

    A ground pair (a, p) yields an axiom only when every satisfiable
    combination of aspect-rule groundings leaves the two aspects disjoint;
    the recorded guard is the conjunction of the aspect-rule guards used.
    """
    schematic, notes = _schematic_axioms(domain)
    return FrameDerivation(domain=domain, schematic=tuple(schematic),
                           economy=frame_economy(domain), notes=tuple(notes))


def _schematic_axioms(domain: Domain) -> tuple[list[SchematicFrameAxiom], list[str]]:
    notes: list[str] = []
    spec = domain.disjointness
    if not isinstance(spec, (SeqExistsDiff, SimpleInequality)):
        notes.append("schematic axioms are derived for element-difference "
                     "specifications only; ground listing still applies")
        return [], notes
    axioms = []
    fluent_rules = [r for r in domain.aspect_rules if r.kind == "fluent"]
    action_rules = [r for r in domain.aspect_rules if r.kind == "action"]
    for fr in fluent_rules:
        for ar in action_rules:
            mapping = _rename_apart(fr, ar)
            fset = _set_valued_vars(domain.fluents[fr.target.schema].params,
                                    fr.target.args)
            aset = _set_valued_vars(domain.actions[ar.target.schema].params,
                                    ar.target.args)
            set_vars = {mapping.get(v, v) for v in fset} | aset
            condition = _symbolic_disjoint(_renamed_template(fr.template, mapping),
                                           ar.template, spec, set_vars)
            if condition is None:
                continue  # the two aspects can never be disjoint
            conds = list(condition)
            conds += [_render_guard_atom(g, mapping) for g in fr.guard]
            conds += [str(g) for g in ar.guard]
            axioms.append(SchematicFrameAxiom(
                fluent_head=_render_guard_atom(GuardLiteral(fr.target), mapping),
                action_head=str(ar.target),
                conditions=tuple(conds)))
    return axioms, notes


def _set_valued_vars(params, args) -> set[str]:
    return {a.name for a, ref in zip(args, params)
            if isinstance(a, Var) and ref.is_set}


def _rename_apart(fr: AspectRule, ar: AspectRule) -> dict[str, str]:
    """Rename the fluent rule's variables away from the action rule's."""
    def names(rule: AspectRule) -> dict[str, None]:
        pats = [rule.target, *(g.fluent for g in rule.guard if isinstance(g, GuardLiteral))]
        return dict.fromkeys(v.name for pat in pats for v in pat.variables())

    taken = names(ar)
    fresh = (c for c in itertools.chain(_FLUENT_VAR_NAMES,
                                        (f"w{i}" for i in itertools.count(1)))
             if c not in taken)
    return dict(zip(names(fr), fresh))


def _renamed_template(template, mapping: dict[str, str]) -> tuple:
    """The aspect template with its variables renamed by `mapping`."""
    def sub(t):
        if isinstance(t, Var):
            return Var(mapping.get(t.name, t.name))
        if isinstance(t, SetTemplate):
            return SetTemplate(frozenset(map(sub, t.members)))
        return t
    return tuple(map(sub, template))


def _symbolic_disjoint(t_fluent, t_action, spec,
                       set_vars: set[str]) -> Optional[tuple[str, ...]]:
    """Conditions under which two aspect templates are disjoint.

    Returns None when no position can ever be disjoint; returns () when
    disjointness is unconditional. Each position contributes a conjunction of
    pairwise difference conditions; positions combine as a disjunction.
    """
    if isinstance(spec, SimpleInequality) and (len(t_fluent) != 1 or len(t_action) != 1):
        return None
    disjuncts: list[list[str]] = []
    for ef, ea in zip(t_fluent, t_action):
        conjuncts: list[str] = []
        possible = True
        for mf in _template_members(ef):
            for ma in _template_members(ea):
                if isinstance(mf, AspectAtom) and isinstance(ma, AspectAtom):
                    if mf.name == ma.name:
                        possible = False
                elif isinstance(mf, Var) and isinstance(ma, Var) and mf.name == ma.name:
                    possible = False
                else:
                    conjuncts.append(_member_condition(mf, ma, set_vars))
            if not possible:
                break
        if possible:
            if not conjuncts:
                return ()  # statically disjoint at this position
            disjuncts.append(conjuncts)
    if not disjuncts:
        return None
    if len(disjuncts) == 1:
        return tuple(disjuncts[0])
    return ("(" + ") | (".join(" & ".join(c) for c in disjuncts) + ")",)


def _member_condition(mf, ma, set_vars: set[str]) -> str:
    """Render one member-pair difference; set-valued variables read as sets."""
    f_is_set = isinstance(mf, Var) and mf.name in set_vars
    a_is_set = isinstance(ma, Var) and ma.name in set_vars
    if f_is_set and a_is_set:
        return f"disjoint({mf},{ma})"
    if a_is_set:
        return f"{mf} not in {ma}"
    if f_is_set:
        return f"{ma} not in {mf}"
    return f"{mf} != {ma}"


def _path_id(domain: Domain, path: AspectPath) -> int:
    """`path` interned to an int in the domain's memo of d."""
    ids, paths, _ = domain._d_memo
    x = ids.setdefault(path, len(ids))
    if x == len(paths):
        paths.append(path)
    return x


def _disjoint(domain: Domain, x: int, y: int) -> bool:
    """d of the interned fluent path x and action path y, once per Domain."""
    _, paths, memo = domain._d_memo
    hit = memo.get((x, y))
    if hit is None:
        hit = memo[x, y] = d_eval(domain.disjointness, paths[x], paths[y])
    return hit


def _static_pairs(domain: Domain):
    """Every (action row, fluent row, always disjoint) of the domain's
    `StaticAspects` table, action-major. A pair is always disjoint when every
    static aspect of the fluent is disjoint from every one of the action.

    Atoms with equal aspect lists share one answer. d is asked in the order
    of the plain loop over the fluent's aspects, then the action's, and the
    loop stops at the first pair that is not disjoint, so each pair the
    domain's memo lacks is first evaluated where that loop would evaluate
    it, and a DisjointnessSpecError surfaces on its input.
    """
    table = domain.static_aspects
    fluents = [(row, tuple(_path_id(domain, path) for path in row[1]))
               for row in table.fluents]
    always: dict[tuple, bool] = {}  # (fluent path ids, action path ids) -> answer
    for arow in table.actions:
        ys = tuple(_path_id(domain, path) for path in arow[1])
        for frow, xs in fluents:
            hit = always.get((xs, ys))
            if hit is None:
                hit = always[xs, ys] = all(_disjoint(domain, x, y) for x in xs for y in ys)
            yield arow, frow, hit


def _ground_axioms(domain: Domain) -> tuple[FrameAxiom, ...]:
    return tuple(FrameAxiom(action=a, fluent=p, guard=tuple(dict.fromkeys(fguard + aguard)))
                 for (a, _, aguard), (p, _, fguard), disjoint in _static_pairs(domain)
                 if disjoint)


def frame_economy(domain: Domain) -> tuple[EconomyReport, ...]:
    """One report per disjoint pair of economy groups, by the renderings of
    the fluent, then the action aspect: m * n frame axioms from m + n + 2
    source axioms. An atom enters the group of its aspect when its guard-free
    rules give that one aspect and none of its guarded rules has a static
    grounding (`_static_rows`); the static aspect table is not built."""
    fluent_groups, action_groups = Counter(), Counter()  # aspect -> atoms
    for kind, atoms, group in (("fluent", ground_fluents(domain), fluent_groups),
                               ("action", domain.ground_action_list, action_groups)):
        for x in atoms:
            bound = domain.bound(kind, x)
            aspects = {instantiate_template(rule.template, env0)
                       for rule, env0 in bound if not rule.guard}
            if len(aspects) == 1 and not any(
                    rule.guard and _static_rows(domain, rule.guard, env0)[1]
                    for rule, env0 in bound):
                group[aspects.pop()] += 1
    fluents, actions = ([(path, count, _path_id(domain, path)) for path, count
                         in sorted(groups.items(), key=lambda item: str(item[0]))]
                        for groups in (fluent_groups, action_groups))
    economy = []
    for alpha, m, x in fluents:
        for beta, n, y in actions:
            if _disjoint(domain, x, y):
                economy.append(EconomyReport(
                    fluent_aspect=alpha, action_aspect=beta, m=m, n=n,
                    derived_frame_axioms=m * n, source_axioms=m + n + 2))
    return tuple(economy)


# ---------------------------------------------------------------------------
# Annotation soundness
# ---------------------------------------------------------------------------

# The soundness lint covers every truth valuation of an action's guard
# fluents, 2**n of them, in three stages that skip the valuations a failed
# precondition or action aspect decides (see `check_aspect_soundness`).
# Actions with more than this many fluents are skipped.
_GUARD_FLUENT_LIMIT = 14


@dataclass(frozen=True)
class SoundnessViolation:
    action: GroundAction
    fluent: GroundFluent
    fluent_aspect: AspectPath
    action_aspect: AspectPath

    def __str__(self) -> str:
        return (f"{self.action} changes {self.fluent} although "
                f"d({self.fluent_aspect},{self.action_aspect}) declares them disjoint")


@dataclass(frozen=True)
class SoundnessReport:
    violations: tuple[SoundnessViolation, ...]
    unresolved: tuple[str, ...]
    actions_checked: int
    valuations_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations


def check_aspect_soundness(domain: Domain) -> SoundnessReport:
    """Verify that every fluent an action can change intersects the action.

    For each ground action all 2**n truth valuations of its n guard-relevant
    ground fluents are covered and counted, in three nested stages, each
    over the valuations of its own fluents in ascending order. The guards
    are decided on their clauses (`_guard_clauses`):
    - over the fluents the preconditions read, a valuation where some
      precondition is false is skipped silently;
    - over the fluents the action's aspect guards read besides, a valuation
      where the action aspect is missing or ambiguous counts, with every
      value of the remaining fluents, under that reason in `unresolved`;
    - over the remaining fluents, each whole valuation is built as a state
      and, where the preconditions hold in it, linted with the action aspect
      that stage 2 found (`_check_valuation`).
    Violations come in `itertools.product` order: by the least valuation
    that shows them, then by their position in it. Actions with more than
    _GUARD_FLUENT_LIMIT guard fluents are skipped and named in `unresolved`.
    Effect targets absent from the guard set are given the change-revealing
    prior value.

    Actions that a renaming of interchangeable objects maps onto each other
    form an orbit (`_orbit_of`). Only the first action of an orbit is
    linted, and its counts carry over to the others with the objects
    renamed. Violations do not carry over, since their order follows each
    action's own valuations: where the first action shows one, every
    member of its orbit is linted itself.
    """
    violations: list[SoundnessViolation] = []
    skipped: dict[tuple, int] = {}  # (subject, reason) -> count
    actions_checked = 0
    valuations_checked = 0
    classes = _interchangeable(domain)
    clean: dict[tuple, tuple] = {}  # orbit key -> (first action's objects, lint)
    for a in domain.ground_action_list:
        key, objects = _orbit_of(a, classes)
        if key in clean:
            first, lint = clean[key]
            renaming = dict(zip(first, objects))
        else:
            lint, renaming = _lint_action(domain, a), None
            if not lint[2]:  # no violation: the other members are counted
                clean[key] = objects, lint
        valuations, counts, found = lint
        if valuations is not None:
            actions_checked += 1
            valuations_checked += valuations
        for (subject, reason), count in counts.items():
            _bump(skipped, (_renamed(subject, renaming), reason), count)
        violations += found
    unresolved = tuple(f"{key} ({count} skipped)" for key, count in sorted(
        (f"{subject}: {reason}", count) for (subject, reason), count in skipped.items()))
    return SoundnessReport(violations=tuple(violations), unresolved=unresolved,
                           actions_checked=actions_checked,
                           valuations_checked=valuations_checked)


def _lint_action(domain: Domain, a: GroundAction) -> tuple[
        Optional[int], dict[tuple, int], list[SoundnessViolation]]:
    """a's valuation count (None past _GUARD_FLUENT_LIMIT), its skip counts
    by (subject, reason), and its violations."""
    skipped: dict[tuple, int] = {}
    relevant = _relevant_fluents(domain, a)
    if len(relevant) > _GUARD_FLUENT_LIMIT:
        skipped[a, f"guard fluent count {len(relevant)} exceeds the "
                   f"enumeration bound {_GUARD_FLUENT_LIMIT}"] = 1
        return None, skipped, []
    return 2 ** len(relevant), skipped, _search_valuations(domain, a, relevant, skipped)


def _interchangeable(domain: Domain) -> dict[str, int]:
    """Each object that another object can replace, with its class.

    Two objects are interchangeable when they belong to the same sorts and
    nothing in the domain names either one (`_named_objects`). Swapping them
    then maps the domain onto itself, and an action's lint onto the lint of
    the renamed action. Under `commutative` no object is, because canonical
    order compares atom names.
    """
    if isinstance(domain.disjointness, CommutativeCanonical):
        return {}
    named = _named_objects(domain)
    sorts_of: dict[str, set[str]] = {}
    for sort, objs in domain.sorts.items():
        for o in objs:
            sorts_of.setdefault(o, set()).add(sort)
    groups: dict[frozenset, list[str]] = {}
    for o, sorts in sorts_of.items():
        if o not in named:
            groups.setdefault(frozenset(sorts), []).append(o)
    return {o: i for i, group in enumerate(groups.values()) if len(group) > 1
            for o in group}


def _named_objects(domain: Domain) -> set[str]:
    """Every name that the arguments of rule heads, guards, effects and
    preconditions, the constants of aspect templates or a `table` spec spell
    out. `home` and `frame` lines are left out: the soundness lint reads
    neither."""
    rules = (*domain.aspect_rules, *domain.effects, *domain.preconditions)
    pats = [r.target for r in domain.aspect_rules]
    pats += [p for r in domain.effects for p in (r.action, r.fluent)]
    pats += [r.action for r in domain.preconditions]
    pats += [g.fluent for r in rules for g in r.guard if isinstance(g, GuardLiteral)]
    args = [arg for pat in pats for arg in pat.args]
    args += [arg for r in rules for g in r.guard if isinstance(g, MemberGuard)
             for arg in (g.member, g.collection)]
    names: set[str] = set()
    for arg in args:
        if isinstance(arg, frozenset):
            names |= arg
        elif isinstance(arg, str):
            names.add(arg)
    atoms = [m for r in domain.aspect_rules for t in r.template
             for m in _template_members(t) if isinstance(m, AspectAtom)]
    if isinstance(domain.disjointness, ExplicitTable):
        atoms += [atom for pair in domain.disjointness.pairs for path in pair
                  for e in path for atom in (e.atoms if isinstance(e, AspectSet) else (e,))]
    names.update(atom.name for atom in atoms)
    return names


def _orbit_of(a: GroundAction, classes: dict[str, int]) -> tuple[tuple, tuple[str, ...]]:
    """The orbit key of a, and the objects of `classes` in key order.

    The key is a's schema, its arguments with the objects of `classes` left
    out, and per such object its class and the argument positions where it
    is the argument or a member of it. Actions with equal keys are mapped
    onto each other by a renaming within the classes, and zipping their
    objects gives it.
    """
    places: dict[str, list[int]] = {}
    named = []
    for i, arg in enumerate(a.args):
        for m in arg if isinstance(arg, frozenset) else (arg,):
            if m in classes:
                places.setdefault(m, []).append(i)
        named.append(frozenset(m for m in arg if m not in classes)
                     if isinstance(arg, frozenset) else None if arg in classes else arg)
    objects = tuple(sorted(classes, key=lambda o: (classes[o], places.get(o, []))))
    return ((a.schema, tuple(named),
             tuple((classes[o], tuple(places.get(o, ()))) for o in objects)), objects)


def _renamed(atom, renaming: Optional[dict[str, str]]):
    """The ground atom with its objects renamed."""
    if not renaming:
        return atom
    return type(atom)(atom.schema, tuple(
        frozenset(renaming.get(m, m) for m in arg) if isinstance(arg, frozenset)
        else renaming.get(arg, arg) for arg in atom.args))


def _search_valuations(domain: Domain, a: GroundAction, relevant: list[GroundFluent],
                       skipped: dict[tuple, int]) -> list[SoundnessViolation]:
    """The violations a shows over the valuations of `relevant`, in the three
    stages of `check_aspect_soundness`; skip reasons go to `skipped`.

    Fluent i is bit 2**(k-1-i) of a valuation, so a whole valuation, read as
    a number, is its index in `itertools.product` order.
    """
    k = len(relevant)
    bits = {f: 1 << (k - 1 - i) for i, f in enumerate(relevant)}
    pres = [_guard_clauses(domain, pre.guard, env0, bits)[1]
            for pre, env0 in domain.bound("pre", a)]
    rules = []
    for rule, env0 in domain.bound("action", a):
        names, clauses = _guard_clauses(domain, rule.guard, env0, bits)
        rules.append((rule.template, env0, names, clauses, {}))
    pre_mask = _mask_of(pres)
    guard_mask = _mask_of(clauses for _, _, _, clauses, _ in rules) & ~pre_mask
    rest_mask = ((1 << k) - 1) & ~(pre_mask | guard_mask)
    missing = (a, "valuations where no aspect rule applies")
    ambiguous = (a, "valuations with ambiguous aspects")
    schemas = frozenset(domain.fluents)
    first: dict[SoundnessViolation, tuple[int, int]] = {}

    def aspect_failure(truth: int):
        """The action aspect where the fluents the rules read take the values
        of `truth`, or the skip reason where it is missing or ambiguous."""
        beta = None  # the aspect of the one rule that applies
        for template, env0, names, clauses, aspects in rules:
            aspect = None  # the aspect of the first clause that holds
            for i, (mask, want, row) in enumerate(clauses):
                if truth & mask != want:
                    continue
                if i not in aspects:
                    aspects[i] = instantiate_template(
                        template, {**env0, **dict(zip(names, row))})
                if aspect is None:
                    aspect = aspects[i]
                elif aspects[i] != aspect:
                    return ambiguous
            if aspect is not None:
                if beta is not None:
                    return ambiguous
                beta = aspect
        return missing if beta is None else beta

    for pre in _submasks(pre_mask):
        if not all(any(pre & mask == want for mask, want, _ in clauses)
                   for clauses in pres):
            continue
        for guard in _submasks(guard_mask):
            beta = aspect_failure(pre | guard)
            if isinstance(beta, tuple):  # a skip reason
                _bump(skipped, beta, 2 ** rest_mask.bit_count())
                continue
            for rest in _submasks(rest_mask):
                truth = pre | guard | rest
                base = {f: bool(truth & b) for f, b in bits.items()}
                state = build_state({(): base}, schemas=schemas)
                # A leaf's effects and fluent aspects are decided on its
                # state, as the flat enumeration decides them; its action
                # aspect is beta. The preconditions, which stage 1 decided,
                # are read again: on `check blocks-3` every `eval_fluent`
                # call comes from here, and bench/tests/test_bench.py::
                # test_count_pass_counts_and_samples_leaf_calls samples it.
                if _failed_precondition(domain, state, a) is not None:
                    continue
                found: list[SoundnessViolation] = []
                _check_valuation(domain, a, beta, base, state, found, skipped)
                for position, violation in enumerate(found):
                    first[violation] = min(first.get(violation, (truth, position)),
                                           (truth, position))
    return sorted(first, key=first.__getitem__)


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of `mask`, ascending."""
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        if not sub:
            return


def _guard_clauses(domain: Domain, guard, env0: dict,
                   bits: dict[GroundFluent, int]) -> tuple[list[str], list[tuple]]:
    """The guard as a disjunction over its static groundings, each the
    conjunction of the literals it reads (`_compile_guard`), over the fluents
    numbered by `bits`.

    `bits` must number every fluent the guard reads. The soundness lint
    numbers an action's `_relevant_fluents`, which takes the fluents of its
    precondition and aspect guards compiled under the same bindings, so it
    does; a fluent outside `bits` raises KeyError rather than drop a clause.

    Returns the grounded variables and the clauses (mask, want, row): a clause
    holds where the fluents of `mask` take the values of `want`. The
    disjunction holds in a state exactly where `solve_guard` has a solution,
    and a clause's row gives that solution. Self-contradictory clauses are
    left out: a row the clash filter drops would give only such clauses.
    """
    names, rows, reads, _ = _compiled(domain, guard, env0)
    literals = []
    for positive, keys, by_key in reads:
        parts = {}
        for key, fluents in by_key.items():
            mask = sum(bits[f] for f in fluents)
            parts[key] = (mask, mask if positive else 0)
        literals.append(list(map(parts.__getitem__, keys)))
    clauses = []
    for row, row_parts in zip(rows, zip(*literals) if literals else [()] * len(rows)):
        mask = want = 0
        for part_mask, part_want in row_parts:
            if mask & part_mask & (want ^ part_want):
                break
            mask |= part_mask
            want |= part_want
        else:
            clauses.append((mask, want, row))
    return names, clauses


def _mask_of(guards: Iterable[list[tuple]]) -> int:
    """The fluents some clause of the guards reads."""
    out = 0
    for clauses in guards:
        for mask, _, _ in clauses:
            out |= mask
    return out


def _check_valuation(domain: Domain, a: GroundAction, beta: AspectPath, base: dict,
                     state: WorldState, violations: list[SoundnessViolation],
                     skipped: dict[tuple, int]) -> None:
    """Record the violations a, of aspect beta, shows in `state`, the state
    of valuation `base` where a's preconditions hold, and the reasons it is
    skipped."""
    for f, v in _net_effects(domain, state, a):
        # A target outside the valuation is given the change-revealing prior
        # value. Its aspect guards read only fluents of the valuation (see
        # `_relevant_fluents`), so `state` decides its aspect either way.
        if base.get(f, not v) == v:
            continue
        try:
            alpha = aspect_of_fluent(domain, state, f)
        except (MissingAspectError, AmbiguousAspectError):
            _bump(skipped, (f, "valuations where the fluent aspect does not resolve"))
            continue
        except SchemaError as exc:  # an ill-sorted effect target
            raise SchemaError(f"{a} affects {exc}") from exc
        if d_eval(domain.disjointness, alpha, beta):
            violation = SoundnessViolation(action=a, fluent=f,
                                           fluent_aspect=alpha, action_aspect=beta)
            if violation not in violations:
                violations.append(violation)


def _bump(counter: dict, key, count: int = 1) -> None:
    counter[key] = counter.get(key, 0) + count


def _relevant_fluents(domain: Domain, a: GroundAction) -> list[GroundFluent]:
    """Ground guard/precondition fluents that bear on a's firing and aspects."""
    out: set[GroundFluent] = set()
    for table in ("action", "pre", "effect"):
        for rule, env0 in domain.bound(table, a):
            out.update(_compiled(domain, rule.guard, env0).fluents)
    for eff, env0 in domain.bound("effect", a):
        names, rows, _, _ = _compiled(domain, eff.guard, env0)
        for row in rows:
            target = instantiate_pat(eff.fluent, {**env0, **dict(zip(names, row))})
            for frule, fenv in domain.bound("fluent", target):
                out.update(_compiled(domain, frule.guard, fenv).fluents)
    return sorted(out, key=lambda f: f.sort_key())


# ---------------------------------------------------------------------------
# Regression and persistence proofs
# ---------------------------------------------------------------------------

def regress_query(domain: Domain, states: Sequence[WorldState],
                  acts: Sequence[GroundAction], p: GroundFluent):
    """Evaluate p after `acts` by regressing through the non-interference axiom.

    `states` is the progression of `acts`, `progression(domain, init, acts)`;
    each step reads the state before its action, and a step that resolves
    reads the effects that progression stored. Returns (True|False|None,
    ProofTrace). A step either persists by one d-evaluation, resolves through
    an effect rule, persists by an explicitly declared frame axiom, or leaves
    the query undefined.
    """
    check_ground_fluent(domain, p)
    steps: list[TraceStep] = []
    i = len(acts)
    while i > 0:
        a = acts[i - 1]
        pre = states[i - 1]
        alpha = aspect_of_fluent(domain, pre, p)
        beta = aspect_of_action(domain, pre, a)
        disjoint = d_eval(domain.disjointness, alpha, beta)
        steps.append(TraceStep(
            D_EVALUATION, f"d({alpha},{beta}) = {disjoint} for {p} vs {a}"))
        if disjoint:
            i -= 1
            continue
        resolved = dict(_step(domain, pre, a)[0]).get(p)
        if resolved is not None:
            steps.append(TraceStep(
                EFFECT_APPLICATION, f"{a} sets {p} to {resolved}"))
            return resolved, ProofTrace(tuple(steps))
        if _names_fluent(domain.bound("frame", a), p):
            steps.append(TraceStep(
                AXIOM_INSTANTIATION, f"declared frame axiom for ({a}, {p})"))
            i -= 1
            continue
        steps.append(TraceStep(
            NO_AXIOM, f"{p} intersects {a} and no axiom resolves it"))
        return None, ProofTrace(tuple(steps))
    value = eval_fluent(states[0], p)
    steps.append(TraceStep(INIT_LOOKUP, f"{p} = {value} in the initial state"))
    return value, ProofTrace(tuple(steps))


def progression(domain: Domain, init: WorldState,
                acts: Sequence[GroundAction]) -> list[WorldState]:
    """init and the state after each of `acts`, progressed one by one; a
    failed step raises with its 1-based index and action."""
    states = [init]
    for idx, a in enumerate(acts):
        try:
            states.append(progress(domain, states[-1], a))
        except (InapplicableActionError, UndefinedActionError, SchemaError) as exc:
            raise type(exc)(f"step {idx + 1} ({a}): {exc}") from exc
    return states


def _names_fluent(bound: Sequence[tuple[object, dict]], p: GroundFluent) -> bool:
    """Whether some effect or frame entry of `bound`, an action's entries as
    `Domain.bound` gives them, names fluent p."""
    return any(rule.fluent.schema == p.schema
               and match_args(rule.fluent.args, p.args, env0) is not None
               for rule, env0 in bound)


def persistence_proof(domain: Domain, state: WorldState, a: GroundAction,
                      p: GroundFluent, mode: str = "aspect",
                      classical_axioms: Optional[Iterable[tuple[GroundAction, GroundFluent]]] = None) -> ProofTrace:
    """A persistence proof for p across a.

    Aspect mode always takes four steps: two aspect lookups, one
    d-evaluation, one axiom instantiation. Classical mode is a single lookup
    in the explicit frame-axiom list (by default: the pairs disjoint in
    `state`).
    """
    if mode == "aspect":
        alpha = aspect_of_fluent(domain, state, p)
        beta = aspect_of_action(domain, state, a)
        if not d_eval(domain.disjointness, alpha, beta):
            raise NoProofError(f"{p} and {a} intersect; no aspect persistence proof")
        steps = (
            TraceStep(ASPECT_LOOKUP, f"{p} : {alpha}"),
            TraceStep(ASPECT_LOOKUP, f"{a} : {beta}"),
            TraceStep(D_EVALUATION, f"d({alpha},{beta}) = True"),
            TraceStep(AXIOM_INSTANTIATION,
                      f"non-interference yields holds({p},s) = holds({p},do({a},s))"),
        )
        return ProofTrace(steps)
    if mode == "classical":
        if classical_axioms is not None:
            present = (a, p) in set(classical_axioms)
        else:
            present = not intersects(domain, state, a, p)
        if not present:
            raise NoProofError(f"no frame axiom listed for ({a}, {p})")
        return ProofTrace((TraceStep(AXIOM_INSTANTIATION,
                                     f"frame axiom F[{a},{p}] found in the list"),))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Completeness lint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompletenessReport:
    uncovered: tuple[tuple[GroundAction, GroundFluent], ...]

    @property
    def clean(self) -> bool:
        return not self.uncovered


def completeness_lint(domain: Domain) -> CompletenessReport:
    """Pairs that may intersect yet have no effect rule or declared frame axiom.

    Regression returns `undefined` on such pairs; progression persists them.
    A pair that is always disjoint is covered by non-interference.
    """
    uncovered, named_by = [], None
    for (a, _, _), (p, _, _), disjoint in _static_pairs(domain):
        if not disjoint:
            if named_by is not a:  # the pairs come action-major
                named_by, named = a, domain.bound("frame", a) + domain.bound("effect", a)
            if not _names_fluent(named, p):
                uncovered.append((a, p))
    return CompletenessReport(uncovered=tuple(uncovered))


_ASPECT_SAMPLE_LIMIT = 400


def static_aspect_samples(domain: Domain) -> list[tuple[AspectPath, AspectPath]]:
    """Distinct (fluent aspect, action aspect) pairs the domain can produce.

    Aspects are instantiated over all static guard groundings, so conditional
    rules contribute every aspect they might assign. Used as the sample set
    for monotonicity lints; only the first _ASPECT_SAMPLE_LIMIT pairs, in
    first-seen order of both aspects, are returned.
    """
    table = domain.static_aspects
    # Dicts dedupe in first-seen order.
    fluent_paths = dict.fromkeys(path for _, paths, _ in table.fluents for path in paths)
    action_paths = dict.fromkeys(path for _, paths, _ in table.actions for path in paths)
    pairs = itertools.product(fluent_paths, action_paths)
    return list(itertools.islice(pairs, _ASPECT_SAMPLE_LIMIT))
