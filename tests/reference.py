"""The one reference layer of the equivalence tests.

Every test that checks the program against a second implementation checks
it against the functions here, which share none of the program's code.
From `sitaspect` this module may import only data and report types, the
exception types, the DSL parsers, `disjoint.d_eval` (which
`tests/test_disjoint.py` checks against its definitions) and the soundness
lint's bound `frames._GUARD_FLUENT_LIMIT`; `tests/test_reference.py` pins
that list.

A state is the frozenset of its true ground fluents. One naive grounder,
`solutions`, runs every variable over its `conftest.sort_pool`, the first
variable slowest. In a state, a positive literal keeps the groundings whose
instance is true, and a negated literal reads the variables still unbound
at its place as "no matching true fact". Without a state, every literal
counts as satisfiable, and a grounding is dropped where a fully bound
negated literal is also one of its positive literals. A member guard binds
its variable over the sorted set, or filters.

On the grounder: the step of an action, aspects in a state, the static
aspect table with its error texts, the fluents a guard reads, ground frame
axioms, uncovered pairs, the axiom economy and the soundness report.
"""

from __future__ import annotations

import itertools

from sitaspect.disjoint import d_eval
from sitaspect.domain import GuardLiteral, MemberGuard, StaticAspects, Var
from sitaspect.errors import SchemaError, SitAspectError
from sitaspect.frames import (_GUARD_FLUENT_LIMIT, EconomyReport, FrameAxiom,
                              SoundnessReport, SoundnessViolation)
from sitaspect.terms import AspectAtom, AspectPath, AspectSet, GroundAction, GroundFluent
from tests.conftest import sort_pool

MISSING, AMBIGUOUS = "missing", "ambiguous"  # aspect lookups that fail


# -- ground atoms and rule heads -----------------------------------------------

def _atoms(domain, schemas: dict, make) -> list:
    """Every ground atom of the schemas, by schema name, then sort pools."""
    return [make(name, args) for name in sorted(schemas)
            for args in itertools.product(*(sort_pool(domain, ref)
                                            for ref in schemas[name].params))]


def fluents(domain) -> list[GroundFluent]:
    return _atoms(domain, domain.fluents, GroundFluent)


def actions(domain) -> list[GroundAction]:
    return _atoms(domain, domain.actions, GroundAction)


def _match(args, terms, env=None):
    """The binding extending env under which pattern args equal the terms."""
    if len(args) != len(terms):
        return None
    env = dict(env or {})
    for arg, term in zip(args, terms):
        if isinstance(arg, Var):
            if env.setdefault(arg.name, term) != term:
                return None
        elif arg != term:
            return None
    return env


def rules_for(domain, table: str, atom) -> tuple:
    """(rule, head binding) for every rule of `table` whose head matches the
    ground atom, in declaration order: "fluent" and "action" are the aspect
    rules of that kind, "pre", "effect" and "frame" the rules on an action."""
    if table in ("fluent", "action"):
        heads = [(r, r.target) for r in domain.aspect_rules if r.kind == table]
    else:
        rules = {"pre": domain.preconditions, "effect": domain.effects,
                 "frame": domain.frame_decls}[table]
        heads = [(r, r.action) for r in rules]
    return tuple((r, env) for r, head in heads if head.schema == atom.schema
                 and (env := _match(head.args, atom.args)) is not None)


def guarded_matches(domain) -> list:
    """(guard, head binding) for every aspect rule, precondition and effect
    that matches some ground fluent or action."""
    out = [(r.guard, env) for p in fluents(domain) for r, env in rules_for(domain, "fluent", p)]
    for a in actions(domain):
        out += [(r.guard, env) for table in ("action", "pre", "effect")
                for r, env in rules_for(domain, table, a)]
    return out


def _sort_error(domain, f):
    """The text of the error naming f's first argument outside its sort."""
    for ref, arg in zip(domain.fluents[f.schema].params, f.args):
        objs = domain.sorts[ref.name]
        bad = [m for m in arg if m not in objs] if ref.is_set else \
            [] if arg in objs else [arg]
        if bad:
            return f"{f}: {bad[0]!r} is not an object of sort '{ref.name}'"
    return None


# -- the grounder ----------------------------------------------------------------

def _value(arg, env):
    if isinstance(arg, Var):
        if arg.name not in env:
            raise SitAspectError(f"unbound variable {arg.name}")
        return env[arg.name]
    return arg


def instance(pat, env) -> GroundFluent:
    return GroundFluent(pat.schema, tuple([_value(a, env) for a in pat.args]))


def _extend(domain, pat, env):
    """Every extension of env over the sort pools of the literal's variables
    that env leaves free, each over its first position's sort."""
    schema = domain.fluents.get(pat.schema)
    if schema is None:
        raise SchemaError(f"guard refers to unknown fluent '{pat.schema}'")
    if len(schema.params) != len(pat.args):
        raise SchemaError(f"arity mismatch in guard literal {pat}")
    free: dict[str, list] = {}
    for arg, ref in zip(pat.args, schema.params):
        if isinstance(arg, Var) and arg.name not in env and arg.name not in free:
            free[arg.name] = sort_pool(domain, ref)
    if not free:
        return [env]
    return [{**env, **dict(zip(free, values))} for values in itertools.product(*free.values())]


def _bound_in(pat, env) -> bool:
    return all(not isinstance(a, Var) or a.name in env for a in pat.args)


def solutions(domain, guard, env, facts=None) -> list[dict]:
    """The extensions of env that satisfy the guard in the state `facts`, or
    its static groundings when `facts` is None, in sort-product order."""
    envs = [dict(env)]
    for atom in guard:
        if isinstance(atom, MemberGuard):
            nxt = []
            for e in envs:
                coll = _value(atom.collection, e)
                if not isinstance(coll, frozenset):
                    raise SitAspectError(
                        f"membership guard needs a set-valued collection, got {coll!r}")
                if isinstance(atom.member, Var) and atom.member.name not in e:
                    nxt += [{**e, atom.member.name: m} for m in sorted(coll)]
                elif _value(atom.member, e) in coll:
                    nxt.append(e)
            envs = nxt
        elif facts is None:
            if atom.positive:
                envs = [e2 for e in envs for e2 in _extend(domain, atom.fluent, e)]
        elif atom.positive:
            envs = [e2 for e in envs for e2 in _extend(domain, atom.fluent, e)
                    if instance(atom.fluent, e2) in facts]
        else:
            envs = [e for e in envs if not any(instance(atom.fluent, e2) in facts
                                               for e2 in _extend(domain, atom.fluent, e))]
    if facts is None:
        literals = [g for g in guard if isinstance(g, GuardLiteral)]

        def clashes(e):
            negated = {instance(g.fluent, e) for g in literals
                       if not g.positive and _bound_in(g.fluent, e)}
            return bool(negated) and any(instance(g.fluent, e) in negated
                                         for g in literals if g.positive)

        envs = [e for e in envs if not clashes(e)]
    return envs


def guard_fluents(domain, guard, env) -> set[GroundFluent]:
    """The fluents a guard's literals read at its static groundings: a
    positive literal its instance, a negated one every instance over the
    variables the atoms before it leave free."""
    out: set[GroundFluent] = set()
    seen: set[tuple] = set()  # (literal position, its fixed binding)
    for g in solutions(domain, guard, env):
        bound = set(env)
        for i, atom in enumerate(guard):
            if isinstance(atom, MemberGuard):
                if isinstance(atom.member, Var):
                    bound.add(atom.member.name)
                continue
            if atom.positive:
                bound.update(a.name for a in atom.fluent.args if isinstance(a, Var))
            fixed = {n: v for n, v in g.items() if n in bound}
            key = (i, *fixed.items())
            if key not in seen:
                seen.add(key)
                out.update(instance(atom.fluent, e) for e in _extend(domain, atom.fluent, fixed))
    return out


# -- aspects and the step --------------------------------------------------------

def _term(t) -> str:
    return "{" + ",".join(sorted(t)) + "}" if isinstance(t, frozenset) else t


def _sort_key(atom):
    return atom.schema, tuple((1, tuple(sorted(a))) if isinstance(a, frozenset)
                              else (0, (a,)) for a in atom.args)


def instantiate(template, env) -> AspectPath:
    """The aspect path of a template under env."""
    def value(var):
        if env.get(var.name) is None:
            raise SitAspectError(f"unbound variable {var.name} in aspect template")
        return env[var.name]

    elems = []
    for t in template:
        if isinstance(t, AspectAtom):
            elems.append(t)
        elif isinstance(t, Var):
            v = value(t)
            elems.append(AspectSet(frozenset(map(AspectAtom, v)))
                         if isinstance(v, frozenset) else AspectAtom(v))
        else:
            names: set = set()
            for m in t.members:
                v = m.name if isinstance(m, AspectAtom) else value(m)
                names |= v if isinstance(v, frozenset) else {v}
            elems.append(AspectSet(frozenset(map(AspectAtom, names))))
    return AspectPath(tuple(elems))


def aspect(domain, facts, rules):
    """The aspect that `rules`, an atom's `rules_for` its kind, give in the
    state `facts`: the path of the one rule that applies, if it gives one
    path, else MISSING or AMBIGUOUS."""
    found = []
    for rule, env in rules:
        paths = list(dict.fromkeys(instantiate(rule.template, e)
                                   for e in solutions(domain, rule.guard, env, facts)))
        if paths:
            found.append(paths)
    if not found:
        return MISSING
    return found[0][0] if len(found) == 1 and len(found[0]) == 1 else AMBIGUOUS


def changes(domain, facts, effects) -> list[tuple[GroundFluent, bool]]:
    """The changes the firing `effects`, an action's `rules_for` "effect",
    make in `facts`: deletes, then adds (adds win), sorted by fluent."""
    fired = [(rule.add, instance(rule.fluent, e)) for rule, env in effects
             for e in solutions(domain, rule.guard, env, facts)]
    out = {f: add for add, f in sorted(fired, key=lambda af: af[0])}  # deletes first
    return sorted(out.items(), key=lambda fv: _sort_key(fv[0]))


def applicable(domain, facts, pres) -> bool:
    """Whether every guard of `pres`, an action's `rules_for` "pre", has a
    solution in `facts`."""
    return all(solutions(domain, pre.guard, env, facts) for pre, env in pres)


def step(domain, facts, a):
    """The true atoms after a, or None when a precondition fails."""
    if not applicable(domain, facts, rules_for(domain, "pre", a)):
        return None
    effects = changes(domain, facts, rules_for(domain, "effect", a))
    return (facts - {f for f, v in effects if not v}) | {f for f, v in effects if v}


# -- the static aspect table and what is built on it -------------------------------

def render(atom, env) -> str:
    """A guard item with the variables env binds replaced by their values."""
    def sub(arg):
        return _term(env[arg.name]) if isinstance(arg, Var) and arg.name in env else str(arg)

    if isinstance(atom, MemberGuard):
        return f"{sub(atom.member)} in {sub(atom.collection)}"
    return ("" if atom.positive else "!") + \
        f"{atom.fluent.schema}({','.join(sub(a) for a in atom.fluent.args)})"


def static_row(domain, kind: str, atom) -> tuple:
    """The atom's `StaticAspects` row: every rule's whole template at each
    static grounding, and the guard items of each rule that has one."""
    paths: dict = {}
    guard: dict = {}
    for rule, env in rules_for(domain, kind, atom):
        groundings = solutions(domain, rule.guard, env)
        if groundings:
            guard.update(dict.fromkeys(render(g, env) for g in rule.guard))
        paths.update(dict.fromkeys(instantiate(rule.template, g) for g in groundings))
    return atom, tuple(paths), tuple(guard)


def static_table(domain) -> StaticAspects:
    """The rows with a static aspect, fluents then actions, and an error
    text for each atom without one."""
    errors: list[str] = []

    def table(kind, atoms):
        rows = []
        for x in atoms:
            row = static_row(domain, kind, x)
            if row[1]:
                rows.append(row)
            elif rules_for(domain, kind, x):
                errors.append(f"aspect rules for {kind} {x} have unsatisfiable guards")
            else:
                errors.append(f"no aspect rule matches {kind} {x}")
        return tuple(rows)

    fluent_rows = table("fluent", fluents(domain))
    return StaticAspects(fluents=fluent_rows, actions=table("action", actions(domain)),
                         errors=tuple(errors))


def _pairs(domain, table):
    """(action row, fluent row, always disjoint) for every pair, action-major."""
    for arow in table.actions:
        for frow in table.fluents:
            yield arow, frow, all(d_eval(domain.disjointness, x, y)
                                  for x in frow[1] for y in arow[1])


def ground_axioms(domain, table=None) -> tuple[FrameAxiom, ...]:
    return tuple(FrameAxiom(action=a, fluent=p, guard=tuple(dict.fromkeys(fguard + aguard)))
                 for (a, _, aguard), (p, _, fguard), disjoint
                 in _pairs(domain, table or static_table(domain)) if disjoint)


def uncovered(domain, table=None) -> tuple:
    """The pairs that may intersect and that no effect or frame entry names."""
    def named(a, p):
        return any(rule.fluent.schema == p.schema
                   and _match(rule.fluent.args, p.args, env) is not None
                   for kind in ("frame", "effect") for rule, env in rules_for(domain, kind, a))

    return tuple((a, p) for (a, _, _), (p, _, _), disjoint
                 in _pairs(domain, table or static_table(domain))
                 if not disjoint and not named(a, p))


def aspect_samples(domain, table=None) -> list[tuple[AspectPath, AspectPath]]:
    """Every (fluent aspect, action aspect) pair, both in first-seen order."""
    table = table or static_table(domain)
    return list(itertools.product(*(dict.fromkeys(path for _, paths, _ in rows for path in paths)
                                    for rows in (table.fluents, table.actions))))


def economy(domain) -> tuple[EconomyReport, ...]:
    """The economy groups: an atom whose guard-free rules give one aspect and
    whose guarded rules have no static grounding counts under that aspect."""
    groups = []
    for kind, atoms in (("fluent", fluents(domain)), ("action", actions(domain))):
        counts: dict = {}
        for x in atoms:
            rules = rules_for(domain, kind, x)
            aspects = {instantiate(rule.template, env) for rule, env in rules if not rule.guard}
            if len(aspects) == 1 and not any(
                    rule.guard and solutions(domain, rule.guard, env) for rule, env in rules):
                path = aspects.pop()
                counts[path] = counts.get(path, 0) + 1
        groups.append(sorted(counts.items(), key=lambda item: str(item[0])))
    return tuple(EconomyReport(fluent_aspect=alpha, action_aspect=beta, m=m, n=n,
                               derived_frame_axioms=m * n, source_axioms=m + n + 2)
                 for alpha, m in groups[0] for beta, n in groups[1]
                 if d_eval(domain.disjointness, alpha, beta))


# -- the soundness report ----------------------------------------------------------

def _relevant(domain, a) -> list[GroundFluent]:
    """The fluents a's precondition, aspect and effect guards read, and the
    aspect guards of every fluent an effect may target, sorted."""
    out: set[GroundFluent] = set()
    for table in ("action", "pre", "effect"):
        for rule, env in rules_for(domain, table, a):
            out |= guard_fluents(domain, rule.guard, env)
    for rule, env in rules_for(domain, "effect", a):
        for e in solutions(domain, rule.guard, env):
            for frule, fenv in rules_for(domain, "fluent", instance(rule.fluent, e)):
                out |= guard_fluents(domain, frule.guard, fenv)
    return sorted(out, key=_sort_key)


def soundness(domain) -> SoundnessReport:
    """Every valuation of each action's guard fluents, in product order, where
    its preconditions hold: each fluent the action changes must intersect it."""
    violations: dict[SoundnessViolation, None] = {}
    skipped: dict[str, int] = {}
    actions_checked = valuations_checked = 0

    def bump(key):
        skipped[key] = skipped.get(key, 0) + 1

    fluent_rules: dict = {}  # target -> its `rules_for` "fluent"
    for a in actions(domain):
        relevant = _relevant(domain, a)
        if len(relevant) > _GUARD_FLUENT_LIMIT:
            skipped[f"{a}: guard fluent count {len(relevant)} exceeds the "
                    f"enumeration bound {_GUARD_FLUENT_LIMIT}"] = 1
            continue
        actions_checked += 1
        pres, rules, effects = (rules_for(domain, table, a)
                                for table in ("pre", "action", "effect"))
        for bits in itertools.product((False, True), repeat=len(relevant)):
            valuations_checked += 1
            facts = frozenset(itertools.compress(relevant, bits))
            if not applicable(domain, facts, pres):
                continue
            beta = aspect(domain, facts, rules)
            if beta in (MISSING, AMBIGUOUS):
                bump(f"{a}: valuations where no aspect rule applies" if beta == MISSING
                     else f"{a}: valuations with ambiguous aspects")
                continue
            fired = changes(domain, facts, effects)
            # A target outside the valuation takes its change-revealing prior value.
            facts |= {f for f, v in fired if not v and f not in relevant}
            for f, v in fired:
                if (f in facts) == v:
                    continue
                error = _sort_error(domain, f)
                if error:
                    raise SchemaError(f"{a} affects {error}")
                if f not in fluent_rules:
                    fluent_rules[f] = rules_for(domain, "fluent", f)
                alpha = aspect(domain, facts, fluent_rules[f])
                if alpha in (MISSING, AMBIGUOUS):
                    bump(f"{f}: valuations where the fluent aspect does not resolve")
                elif d_eval(domain.disjointness, alpha, beta):
                    violations[SoundnessViolation(action=a, fluent=f, fluent_aspect=alpha,
                                                  action_aspect=beta)] = None
    return SoundnessReport(
        violations=tuple(violations),
        unresolved=tuple(f"{key} ({count} skipped)" for key, count in sorted(skipped.items())),
        actions_checked=actions_checked, valuations_checked=valuations_checked)
