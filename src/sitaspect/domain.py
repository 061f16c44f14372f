"""Domain descriptions: schemas, aspect rules, effects, and preconditions.

A Domain declares fluent/action schemas over sorted object universes,
assigns aspects to ground fluents and actions through (possibly guarded)
rules, and lists conditional add/delete effects per action. Guards are
conjunctions of fluent literals evaluated against the current state; a
variable that first appears in a guard is existentially bound by it.
`Domain.bound` is the one place where rules meet ground atoms: it finds the
aspect rules, preconditions, effects and frame axioms whose head matches an
atom, with the head's binding.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .disjoint import DisjointnessSpec, SeqExistsDiff
from .errors import SchemaError, SitAspectError
from .state import WorldState, build_state, eval_fluent
from .terms import (
    AspectAtom,
    AspectElem,
    AspectPath,
    AspectSet,
    GroundAction,
    GroundFluent,
    GroundTerm,
    term_str,
)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


PatArg = Union[Var, str]


@dataclass(frozen=True)
class SortRef:
    """A parameter type: objects of a sort, or finite sets of them."""

    name: str
    is_set: bool = False

    def __str__(self) -> str:
        return f"set of {self.name}" if self.is_set else self.name


@dataclass(frozen=True)
class FluentSchema:
    name: str
    params: tuple[SortRef, ...] = ()


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[SortRef, ...] = ()


@dataclass(frozen=True)
class Pat:
    """A fluent or action schema applied to variables and object constants."""

    schema: str
    args: tuple[PatArg, ...] = ()

    def variables(self) -> tuple[Var, ...]:
        return tuple(a for a in self.args if isinstance(a, Var))

    def __str__(self) -> str:
        return f"{self.schema}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class GuardLiteral:
    fluent: Pat
    positive: bool = True

    def __str__(self) -> str:
        return ("" if self.positive else "!") + str(self.fluent)


@dataclass(frozen=True)
class MemberGuard:
    """`x in S`: binds or tests x over the members of a set-valued term."""

    member: PatArg
    collection: PatArg

    def __str__(self) -> str:
        return f"{self.member} in {self.collection}"


GuardAtom = Union[GuardLiteral, MemberGuard]
Guard = tuple[GuardAtom, ...]


# Aspect templates: path elements over variables and constant atoms.
@dataclass(frozen=True)
class SetTemplate:
    members: frozenset[Union[Var, AspectAtom]]

    def __str__(self) -> str:
        return "{" + ",".join(sorted(str(m) for m in self.members)) + "}"


ElemTemplate = Union[Var, AspectAtom, SetTemplate]


@dataclass(frozen=True)
class AspectRule:
    kind: str  # "fluent" or "action"
    target: Pat
    template: tuple[ElemTemplate, ...]
    guard: Guard = ()

    def __str__(self) -> str:
        head = f"aspect {self.target} ({','.join(str(t) for t in self.template)})"
        if self.guard:
            head += " if " + " & ".join(str(g) for g in self.guard)
        return head


@dataclass(frozen=True)
class EffectRule:
    action: Pat
    add: bool
    fluent: Pat
    guard: Guard = ()

    def __str__(self) -> str:
        op = "add" if self.add else "del"
        s = f"effect {self.action} {op} {self.fluent}"
        if self.guard:
            s += " if " + " & ".join(str(g) for g in self.guard)
        return s


@dataclass(frozen=True)
class Precondition:
    action: Pat
    guard: Guard


@dataclass(frozen=True)
class FrameDecl:
    """An explicitly declared frame axiom for an intersecting pair."""

    action: Pat
    fluent: Pat


@dataclass(frozen=True)
class StaticAspects:
    """One row `(atom, paths, guard)` per ground fluent and action, in
    `ground_fluents` and `ground_actions` order: `paths` are the atom's
    distinct static aspects in first-seen order, and `guard` the distinct
    rendered guard items of its rules that have a static grounding, in rule
    order. Atoms without a static aspect are named in `errors` instead."""

    fluents: tuple[tuple[GroundFluent, tuple[AspectPath, ...], tuple[str, ...]], ...]
    actions: tuple[tuple[GroundAction, tuple[AspectPath, ...], tuple[str, ...]], ...]
    errors: tuple[str, ...]


@dataclass(frozen=True)
class Domain:
    name: str
    sorts: dict[str, tuple[str, ...]]
    fluents: dict[str, FluentSchema]
    actions: dict[str, ActionSchema]
    aspect_rules: tuple[AspectRule, ...]
    effects: tuple[EffectRule, ...]
    preconditions: tuple[Precondition, ...] = ()
    frame_decls: tuple[FrameDecl, ...] = ()
    disjointness: DisjointnessSpec = field(default_factory=SeqExistsDiff)
    homes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def bound(self, table: str, atom) -> tuple[tuple[object, dict], ...]:
        """The rules of `table` whose head matches the ground `atom`, in
        declaration order, each with its head binding.

        `table` is "fluent" or "action" (aspect rules, by their target), or
        "pre", "effect" or "frame" (by their action). Results are memoised
        per Domain object, so the bindings are shared between calls and are
        read-only: copy one before extending it.
        """
        key = (table, atom)
        hit = self._bound.get(key)
        if hit is None:
            hit = self._bound[key] = tuple(
                (rule, env0) for rule, head in self._heads.get((table, atom.schema), ())
                if (env0 := match_args(head, atom.args)) is not None)
        return hit

    # Built once per Domain object; dataclasses.replace makes a fresh one.
    @cached_property
    def _heads(self) -> dict[tuple[str, str], tuple]:
        """(table, schema) -> every (rule, head args) of `bound`'s tables."""
        heads = [(r.kind, r, r.target) for r in self.aspect_rules]
        heads += [(table, r, r.action) for table, rules in (
            ("pre", self.preconditions), ("effect", self.effects),
            ("frame", self.frame_decls)) for r in rules]
        out: dict[tuple[str, str], tuple] = {}
        for table, rule, head in heads:
            key = (table, head.schema)
            out[key] = out.get(key, ()) + ((rule, head.args),)
        return out

    @cached_property
    def _bound(self) -> dict:
        return {}

    @cached_property
    def _pools(self) -> dict:
        return {}

    @cached_property
    def _guards(self) -> dict:
        """frames' compiled guards: (guard, binding items) -> compiled."""
        return {}

    @cached_property
    def _steps(self) -> dict:
        """frames' progressed steps: (state, action) -> (changes, successor)."""
        return {}

    @cached_property
    def _d_memo(self) -> tuple[dict, list, dict]:
        """frames' memo of d: path -> id, the paths by id, (id, id) -> d."""
        return {}, [], {}

    @cached_property
    def ground_action_list(self) -> tuple:
        """`ground_actions(self)`, enumerated once per Domain object."""
        return tuple(ground_actions(self))

    @cached_property
    def static_aspects(self) -> StaticAspects:
        """Every ground atom's static aspects, built once per Domain object."""
        errors: list[str] = []

        def table(kind, atoms):
            rows = (_static_row(self, kind, x, errors) for x in atoms)
            return tuple(row for row in rows if row[1])

        fluents = table("fluent", ground_fluents(self))
        actions = table("action", self.ground_action_list)
        return StaticAspects(fluents=fluents, actions=actions, errors=tuple(errors))

    def objects(self, sort: str) -> tuple[str, ...]:
        if sort not in self.sorts:
            raise SchemaError(f"unknown sort '{sort}' in domain '{self.name}'")
        return self.sorts[sort]


def arg_candidates(domain: Domain, ref: SortRef) -> dict[GroundTerm, int]:
    """All ground terms a parameter can take, each mapped to its rank: the
    sort's objects, or its nonempty object subsets by size, then by object
    order. The keys come in rank order.

    Memoised per Domain object, like `bound`, so the dict is shared between
    calls and is read-only.
    """
    pool = domain._pools.get(ref)
    if pool is None:
        terms = objs = domain.objects(ref.name)
        if ref.is_set:
            terms = [frozenset(combo) for size in range(1, len(objs) + 1)
                     for combo in itertools.combinations(objs, size)]
        pool = domain._pools[ref] = {t: i for i, t in enumerate(terms)}
    return pool


def ground_fluents(domain: Domain) -> list[GroundFluent]:
    return _ground_atoms(domain, domain.fluents, GroundFluent)


def ground_actions(domain: Domain) -> list[GroundAction]:
    return _ground_atoms(domain, domain.actions, GroundAction)


def _ground_atoms(domain: Domain, schemas: dict, make) -> list:
    """Every ground atom of the schemas, by schema name, then argument order."""
    out = []
    for name in sorted(schemas):
        pools = [arg_candidates(domain, p) for p in schemas[name].params]
        out += (make(name, args) for args in itertools.product(*pools))
    return out


def match_args(pat_args: Sequence[PatArg], terms: Sequence[GroundTerm],
               binding: Optional[dict] = None) -> Optional[dict]:
    """Match pattern args against ground terms, extending `binding`."""
    if len(pat_args) != len(terms):
        return None
    env = dict(binding) if binding else {}
    for pa, t in zip(pat_args, terms):
        if isinstance(pa, Var):
            if pa.name in env:
                if env[pa.name] != t:
                    return None
            else:
                env[pa.name] = t
        else:
            if pa != t:
                return None
    return env


def instantiate_pat(pat: Pat, env: dict) -> GroundFluent:
    args = []
    for a in pat.args:
        if isinstance(a, Var):
            if a.name not in env:
                raise SitAspectError(f"unbound variable {a.name} in {pat}")
            args.append(env[a.name])
        else:
            args.append(a)
    return GroundFluent(pat.schema, tuple(args))


def instantiate_template(template: tuple[ElemTemplate, ...], env: dict) -> AspectPath:
    elems: list[AspectElem] = []
    for t in template:
        if isinstance(t, AspectAtom):
            elems.append(t)
        elif isinstance(t, Var):
            val = env.get(t.name)
            if val is None:
                raise SitAspectError(f"unbound variable {t.name} in aspect template")
            if isinstance(val, frozenset):
                elems.append(AspectSet(frozenset(AspectAtom(v) for v in val)))
            else:
                elems.append(AspectAtom(val))
        else:
            atoms: set[AspectAtom] = set()
            for m in t.members:
                if isinstance(m, AspectAtom):
                    atoms.add(m)
                else:
                    val = env.get(m.name)
                    if val is None:
                        raise SitAspectError(f"unbound variable {m.name} in aspect template")
                    if isinstance(val, frozenset):
                        atoms |= {AspectAtom(v) for v in val}
                    else:
                        atoms.add(AspectAtom(val))
            elems.append(AspectSet(frozenset(atoms)))
    return AspectPath(tuple(elems))


def _template_members(t: ElemTemplate) -> list:
    if isinstance(t, SetTemplate):
        return sorted(t.members, key=str)
    return [t]


def _static_row(domain: Domain, kind: str, atom, errors: list[str]) -> tuple:
    """The `StaticAspects` row of a ground atom, from its rules in rule and
    static-grounding order. A template position's element depends only on
    its key (`_key_column`) in the grounding's row: each distinct key tuple
    is kept at its first row, and each element and path is built once.
    """
    # Dicts keep first-seen order and find duplicates in constant time.
    paths: dict[AspectPath, None] = {}
    guard: dict[str, None] = {}
    bound = domain.bound(kind, atom)
    for rule, env0 in bound:
        names, rows = _static_rows(domain, rule.guard, env0)
        if rows:
            # The rendering shows the guard under the argument binding only.
            guard.update(dict.fromkeys(_render_guard_atom(g, env0) for g in rule.guard))
        columns = [_key_column(t, names, rows) for t in rule.template]
        memos: list[dict] = [{} for _ in columns]
        # Each distinct key tuple, first-seen order, with a row that has it.
        for keys, row in dict(zip(zip(*columns) if columns else [()], rows)).items():
            elems = []
            for t, memo, key in zip(rule.template, memos, keys):
                elem = memo.get(key)
                if elem is None:
                    env = {**env0, **dict(zip(names, row))}
                    elem = memo[key] = instantiate_template((t,), env).elems[0]
                elems.append(elem)
            paths[AspectPath(tuple(elems))] = None
    if not bound:
        errors.append(f"no aspect rule matches {kind} {atom}")
    elif not paths:
        errors.append(f"aspect rules for {kind} {atom} have unsatisfiable guards")
    return atom, tuple(paths), tuple(guard)


def _key_column(t: ElemTemplate, names: list[str], rows: list[tuple]) -> list:
    """Per row, the key of template position `t`: its variable's value, or
    the set of the values of its free variables (a set template's constants
    and head-bound members are fixed per rule)."""
    read = [names.index(m.name) for m in _template_members(t)
            if isinstance(m, Var) and m.name in names]
    if not read:
        return [()] * len(rows)
    column = list(map(operator.itemgetter(*read), rows))
    return column if len(read) == 1 else list(map(frozenset, column))


def _render_guard_atom(atom: GuardAtom, env: dict) -> str:
    def sub(a):
        if isinstance(a, Var) and a.name in env:
            return term_str(env[a.name])
        return str(a)

    if isinstance(atom, MemberGuard):
        return f"{sub(atom.member)} in {sub(atom.collection)}"
    args = ",".join(sub(a) for a in atom.fluent.args)
    return ("" if atom.positive else "!") + f"{atom.fluent.schema}({args})"


def _guard_schema(domain: Domain, lit_pat: Pat) -> FluentSchema:
    schema = domain.fluents.get(lit_pat.schema)
    if schema is None:
        raise SchemaError(f"guard refers to unknown fluent '{lit_pat.schema}'")
    if len(schema.params) != len(lit_pat.args):
        raise SchemaError(f"arity mismatch in guard literal {lit_pat}")
    return schema


def _true_groundings(domain: Domain, lit_pat: Pat, env: dict,
                     state: WorldState) -> list[dict]:
    """The extensions of `env` over the literal's free variables whose fluent
    is true in `state`, bound from the state's true facts of the schema.

    They come in sort-product order: each free variable runs over
    `arg_candidates` of its first position's sort, the first one slowest.
    """
    schema = _guard_schema(domain, lit_pat)
    # Each argument under env; a variable env leaves free stays a Var.
    values = tuple([env.get(a.name, a) if isinstance(a, Var) else a
                    for a in lit_pat.args])
    free = [i for i, v in enumerate(values) if isinstance(v, Var)]
    if not free:
        true = eval_fluent(state, GroundFluent(lit_pat.schema, values)) is True
        return [env] if true else []
    if lit_pat.schema not in state.schemas:
        raise SchemaError(f"unknown fluent schema '{lit_pat.schema}'")
    first: dict[str, int] = {}  # free variable -> its first position
    for i in free:
        first.setdefault(values[i].name, i)
    fixed = [(i, v) for i, v in enumerate(values) if not isinstance(v, Var)]
    same = [(i, first[values[i].name]) for i in free if first[values[i].name] != i]
    pools = [(i, arg_candidates(domain, schema.params[i])) for i in first.values()]
    rows = []
    for args in state.facts_index.get(lit_pat.schema, ()):
        if any(args[i] != v for i, v in fixed) or any(args[i] != args[j] for i, j in same):
            continue
        # A fact with an argument outside its variable's pool is no candidate.
        ranks = tuple(pool.get(args[i]) for i, pool in pools)
        if None not in ranks:
            rows.append((ranks, args))
    # Pool positions order the solutions as the sort product does.
    rows.sort(key=lambda row: row[0])
    return [{**env, **{name: args[i] for name, i in first.items()}} for _, args in rows]


def solve_guard(domain: Domain, state: WorldState, guard: Guard,
                env: dict) -> list[dict]:
    """All extensions of `env` satisfying the guard conjunction in `state`.

    A positive literal binds its free variables from the state's true facts
    of its schema that match it (see `WorldState.facts_index`); a fact with
    an argument outside its variable's sort is no solution. A negated
    literal with unbound variables reads as a negated existential: no
    matching true fact. Solutions come out in sort-product order, as if
    each free variable ran over `arg_candidates` of its sort, the first one
    slowest, and are duplicate-free.
    """
    # Duplicate-free: each step filters bindings or extends them over distinct values.
    envs = [dict(env)]
    for atom in guard:
        nxt: list[dict] = []
        if isinstance(atom, MemberGuard):
            for e in envs:
                coll = _members(_resolve_arg(atom.collection, e))
                if isinstance(atom.member, Var) and atom.member.name not in e:
                    nxt += ({**e, atom.member.name: m} for m in sorted(coll))
                elif _resolve_arg(atom.member, e) in coll:
                    nxt.append(e)
        elif atom.positive:
            for e in envs:
                nxt += _true_groundings(domain, atom.fluent, e, state)
        else:
            nxt = [e for e in envs if not _true_groundings(domain, atom.fluent, e, state)]
        envs = nxt
    return envs


def static_guard_groundings(domain: Domain, guard: Guard, env: dict) -> list[dict]:
    """State-independent groundings of a guard's free variables: the rows
    of `_static_rows` as extensions of `env`, in their order.

    Used for whole-universe analyses: every grounding that is not internally
    contradictory counts as satisfiable in some state.
    """
    names, rows = _static_rows(domain, guard, env)
    return [{**env, **dict(zip(names, row))} for row in rows]


def _static_rows(domain: Domain, guard: Guard,
                 env: dict) -> tuple[list[str], list[tuple]]:
    """The static groundings of `guard` under `env`, as value rows.

    `names` are the guard's free variables in binding order, and each row
    holds their values. Every literal counts as satisfiable: a positive one
    extends each row over the sort pools of its new variables, the first
    slowest, a member guard binds over the sorted collection or filters,
    and a negated one keeps every row. Rows where a fully bound negated
    literal is also a positive one are then dropped. Duplicate-free.
    """
    names: list[str] = []
    rows: list[tuple] = [()]

    def binding(row):
        return {**env, **dict(zip(names, row))}

    for atom in guard:
        if not rows:
            return names, rows
        if isinstance(atom, MemberGuard):
            colls = [_members(_resolve_arg(atom.collection, binding(row))) for row in rows]
            member = atom.member
            if isinstance(member, Var) and member.name not in env and member.name not in names:
                names.append(member.name)
                rows = [row + (m,) for row, coll in zip(rows, colls) for m in sorted(coll)]
            else:
                rows = [row for row, coll in zip(rows, colls)
                        if _resolve_arg(member, binding(row)) in coll]
        elif atom.positive:
            schema = _guard_schema(domain, atom.fluent)
            pools = []
            for pa, ref in zip(atom.fluent.args, schema.params):
                if isinstance(pa, Var) and pa.name not in env and pa.name not in names:
                    names.append(pa.name)
                    pools.append(arg_candidates(domain, ref))
            if pools:
                combos = list(itertools.product(*pools))
                rows = [row + combo for row in rows for combo in combos]
    literals = [g for g in guard if isinstance(g, GuardLiteral)]
    bound = set(env).union(names)
    if any(not g.positive and _fully_bound(g.fluent, bound) for g in literals):
        rows = [row for row in rows if not _clashes(literals, binding(row))]
    return names, rows


def _clashes(literals: list[GuardLiteral], env: dict) -> bool:
    """Whether some fully bound negated literal is also a positive one."""
    negated = {instantiate_pat(g.fluent, env) for g in literals
               if not g.positive and _fully_bound(g.fluent, env)}
    return any(instantiate_pat(g.fluent, env) in negated for g in literals if g.positive)


def _members(coll) -> frozenset:
    if not isinstance(coll, frozenset):
        raise SitAspectError(
            f"membership guard needs a set-valued collection, got {coll!r}")
    return coll


def _fully_bound(pat: Pat, env) -> bool:
    return all(not isinstance(a, Var) or a.name in env for a in pat.args)


def _resolve_arg(arg: PatArg, env: dict):
    if isinstance(arg, Var):
        if arg.name not in env:
            raise SitAspectError(f"unbound variable {arg.name}")
        return env[arg.name]
    return arg


def initial_state(domain: Domain, true_fluents: Iterable[GroundFluent],
                  only: Optional[Iterable[tuple[str, ...]]] = None) -> WorldState:
    """Build a total state: every ground fluent placed at its home component.

    `only` restricts the state to the given component subtrees, leaving
    everything else (including root-homed fluents) unmodeled.
    """
    truths = set(true_fluents)
    for f in truths:
        check_ground_fluent(domain, f)
    prefixes = [tuple(p) for p in only] if only is not None else None
    placements: dict[tuple, dict[GroundFluent, bool]] = {(): {}}
    for f in ground_fluents(domain):
        home = domain.homes.get(f.schema, ())
        if prefixes is not None and not any(home[:len(p)] == p for p in prefixes):
            continue
        placements.setdefault(home, {})[f] = f in truths
    return build_state(placements, schemas=frozenset(domain.fluents))


def check_ground_fluent(domain: Domain, f: GroundFluent) -> None:
    schema = domain.fluents.get(f.schema)
    if schema is None:
        raise SchemaError(f"unknown fluent schema '{f.schema}'")
    _check_args(domain, schema.params, f.args, str(f))


def check_ground_action(domain: Domain, a) -> None:
    schema = domain.actions.get(a.schema)
    if schema is None:
        raise SchemaError(f"unknown action schema '{a.schema}'")
    _check_args(domain, schema.params, a.args, str(a))


def _check_args(domain: Domain, params: tuple[SortRef, ...],
                args: tuple[GroundTerm, ...], what: str) -> None:
    if len(params) != len(args):
        raise SchemaError(f"{what}: expected {len(params)} args, got {len(args)}")
    for ref, arg in zip(params, args):
        objs = domain.objects(ref.name)
        if ref.is_set:
            if not isinstance(arg, frozenset) or not arg:
                raise SchemaError(f"{what}: parameter of sort 'set of {ref.name}' "
                                  f"needs a nonempty set, got {arg!r}")
            bad = [m for m in arg if m not in objs]
        else:
            if isinstance(arg, frozenset):
                raise SchemaError(f"{what}: parameter of sort '{ref.name}' "
                                  f"got a set argument")
            bad = [] if arg in objs else [arg]
        if bad:
            raise SchemaError(f"{what}: {bad[0]!r} is not an object of sort '{ref.name}'")


def check_rule_exclusivity(domain: Domain) -> list[str]:
    """Static mutual-exclusivity check over aspect rules of the same schema.

    Two rules are accepted as exclusive when their pattern constants already
    clash, or when one guard contains a literal whose complement appears in
    the other (after positional renaming of pattern variables and canonical
    renaming of guard-bound variables). Anything weaker is reported.
    """
    problems = []
    for (kind, schema), heads in sorted(domain._heads.items()):
        if kind not in ("fluent", "action"):
            continue
        for (r1, _), (r2, _) in itertools.combinations(heads, 2):
            if not _statically_exclusive(r1, r2):
                problems.append(f"aspect rules for {kind} '{schema}' may overlap: "
                                f"[{r1}] vs [{r2}]")
    return problems


def _statically_exclusive(r1: AspectRule, r2: AspectRule) -> bool:
    for a1, a2 in zip(r1.target.args, r2.target.args):
        if isinstance(a1, str) and isinstance(a2, str) and a1 != a2:
            return True
    lits1 = {_canonical_literal(r1, g) for g in r1.guard if isinstance(g, GuardLiteral)}
    for g in r2.guard:
        if not isinstance(g, GuardLiteral):
            continue
        schema, args, sign = _canonical_literal(r2, g)
        if (schema, args, not sign) in lits1:
            return True
    return False


def _canonical_literal(rule: AspectRule, lit: GuardLiteral):
    pattern_pos = {a.name: f"p{i}" for i, a in enumerate(rule.target.args)
                   if isinstance(a, Var)}
    fresh: dict[str, str] = {}
    args = []
    for a in lit.fluent.args:
        if isinstance(a, Var):
            if a.name in pattern_pos:
                args.append(pattern_pos[a.name])
            else:
                fresh.setdefault(a.name, f"g{len(fresh)}")
                args.append(fresh[a.name])
        else:
            args.append(f"c:{a}")
    return (lit.fluent.schema, tuple(args), lit.positive)
