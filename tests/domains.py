"""The one generator of small domains for the property tests.

`domains(*wanted)` is a Hypothesis strategy. It writes a domain in the DSL
with the parts of the grammar that the features asked for (`FEATURES`)
turn on, parses it and returns the Domain. `features(domain)` reads
features back off the parsed domain, so a test floors what its domains
have, not what was drawn: it asks for the features it needs, counts
`features(domain)` and what its outcomes show over the `examples`, and
asserts a floor on each count. `domain_states(*wanted)` adds a state.

Relational domains have objects of sort obj, places (floor and at times
objects of obj), the fluents on(obj, place) and mark(obj), the action
move(obj, place) and at times paint(set of obj); their rules name objects
at times. "free guards" draws guards mixing positive literals, negated
ones and member guards over a fluent tag(set of obj), and at times a
second aspect rule of an action that may overlap its first; such a guard
makes a lint read more fluents, so those domains keep two objects, the
first of them a place too. The others have three, or four under `commutative`.
"propositional" draws nullary fluents and actions whose aspects cover
their effects' fluents, so every such domain is sound by construction.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sitaspect.disjoint import (CommutativeCanonical, ExplicitTable, SeqExistsDiff,
                                SimpleInequality)
from sitaspect.domain import EffectRule, GuardLiteral, MemberGuard, SetTemplate, Var, \
    ground_fluents, initial_state
from sitaspect.dsl import parse_domain
from sitaspect.terms import AspectAtom

# No object shares a name with a rule variable (u, v, w, x, y, z, S, T) or
# an atom (k, m, r); n and o sort after the atoms k and m.
OBJECTS = ("a", "b", "n", "o")
SPECS = ("seq-diff", "simple", "table", "commutative")
FEATURES = frozenset((
    *SPECS, "free guards", "negation before its binder",
    "negation before its binder in an effect", "precondition", "home", "frame", "lone",
    "commutative(all) over sets", "propositional", "error state"))

# What the tests of the soundness lint ask for.
LINT = ("free guards", "negation before its binder", "precondition")
# What its orbits read: objects named by a rule, a template, a `home` line or
# a `table` spec, or left interchangeable, under each of the four specs.
ORBITS = (*SPECS, "home", "precondition", "commutative(all) over sets")

# Fixed aspect templates of each schema: the one-element ones of ONE under
# `simple`, ONE and MIXED under `seq-diff` and `table`, and under
# `commutative` paths that mix objects with the atoms m and k, whose
# canonical order a renaming changes.
ONE = {"on": ("(v)", "(u)", "(m)", "({u,v})"), "mark": ("(u)", "(m)", "(u) if !on(u,floor)"),
       "move": ("(x)", "(y)", "({x,y})", "(m)",
                "(x) if mark(x)\naspect move(x,y) (y) if !mark(x)"),
       "paint": ("(S)", "({S})", "(m)")}
MIXED = {"on": ("(v,m)",), "mark": ("(m,u)", "(u,k)"),
         "move": ("(x,m)", "(m,y)", "(k,x,y)", "({y,z}) if on(x,z)"), "paint": ("(m,S)",)}
BOTH = {name: ONE[name] + MIXED[name] for name in ONE}
COMMUTATIVE = {"on": ("(m)", "(v,m)"), "mark": ("(m)", "(m,u)"),
               "move": ("(x,m)", "(m,y)", "(k,x,y)"), "paint": BOTH["paint"]}
TEMPLATES = {"seq-diff": BOTH, "table": BOTH, "simple": ONE, "commutative": COMMUTATIVE}
# With free guards on(u,v)'s aspect may read mark(u), which makes the lint
# read mark(u) with every on fluent: only two objects keep that small.
GUARDED_ON = ("(v) if mark(u)", "(v) if mark(u)\naspect on(u,v) (u) if !mark(u)")
MOVE_PRES = ("!on(y,x)", "mark(x)", "mark(x) & on(x,z)", "!mark(x) & on(x,z)")
# Move's and paint's effects, besides one that names an object.
MOVE_EFFECTS = ("add on(x,y)", "del on(x,z) if on(x,z)", "add mark(x)",
                "add mark(x) if !mark(x)", "del mark(x) if mark(x)", "del mark(z) if on(z,y)")
# A guard that reads !on(z,y) before mark(z) binds z: with "negation before
# its binder", one move in three gets it as a precondition, and with "...
# in an effect" one in three as an effect guard.
BEFORE_BINDER = ("!on(z,y) & mark(z)", "add mark(z) if !on(z,y) & mark(z)")
PAINT_EFFECTS = ("add mark(w) if w in S", "del mark(w) if mark(w) & w in S")
TAG_EFFECTS = ("del tag(S)", "del mark(z) if tag(T) & z in T",
               "add on(z,floor) if z in S & !mark(z)")
# With "free guards", one draw in four plants these: move then adds
# on(x,y), whose aspect (v) is disjoint from move's at the leaves of both of
# its exclusive rules, so violations at several leaves do not hang on the
# examples drawn.
PLANTED = ("aspect on(u,v) (v)",
           "aspect move(x,y) (k) if mark(x)\naspect move(x,y) (r) if !mark(x)")
# With "lone", one draw in four appends this rule, whose member guard reads
# an object as a set: the DSL rejects it where lone takes an object.
BROKEN = "domain broken\nobjects obj: a\nfluent lone(set of obj)\naspect lone(u) (k) if z in u\n"


def examples(count: int, *strategies):
    """`given(*strategies)` over `count` derandomized examples, with no
    deadline: a test's draws depend on its source alone."""
    return lambda test: settings(
        max_examples=count, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow])(given(*strategies)(test))


def _pick(draw, options):
    """One of `options`; the integers strategy is cached, where a new
    `sampled_from` would be built and validated for every draw."""
    return options[draw(st.integers(0, len(options) - 1))]


def _one_in(draw, n: int) -> bool:
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def domains(draw, *wanted: str):
    """A domain written from the features in `wanted`."""
    want = frozenset(wanted)
    assert want <= FEATURES, want - FEATURES
    if "propositional" in want:
        return _propositional(draw, want)
    specs = [s for s in SPECS if s in want] or ["seq-diff"]
    # `commutative` twice as often: a violation past the first action of an
    # orbit shows only under it, and only in some draws.
    if "commutative" in specs:
        specs.append("commutative")
    spec = _pick(draw, specs)
    simple, commutative = spec == "simple", spec == "commutative"
    guarded = "free guards" in want
    if guarded:
        # The first object is a place too, so no renaming of objects maps
        # one action onto another: the lint searches each action itself.
        objs = draw(st.permutations(OBJECTS[:2]))
        shared = objs[:1]
    else:
        # Under `commutative` a fourth object, so that two sort on each side
        # of the atom m and a renaming across m changes canonical paths; no
        # aspect rule there has a guard that would make the lint read more.
        objs = draw(st.permutations(OBJECTS if commutative else OBJECTS[:3]))
        shared = [o for o in objs if _one_in(draw, 2)][:2]
    sorts = {"obj": objs, "place": shared + ["floor"]}

    # Half the domains declare their sorts, and each sort's objects, in reverse.
    order = list(sorts.items())
    if _one_in(draw, 2):
        order = [(s, names[::-1]) for s, names in reversed(order)]
    lines = ["domain generated", *(f"objects {s}: {', '.join(names)}" for s, names in order),
             "fluent on(obj, place)", "fluent mark(obj)", "action move(obj, place)"]
    heads = {"move": {"x": "obj", "y": "place"}}
    if _one_in(draw, 2):
        lines.append("action paint(set of obj)")
        heads["paint"] = {"S": "set"}
    params = {"on": ("obj", "place"), "mark": ("obj",)}
    if guarded:
        params["tag"] = ("set",)
        tag = _pick(draw, ("(T)", "({T})", "(k)"))
        lines += ["fluent tag(set of obj)", f"aspect tag(T) {tag}"]
    lone = draw(st.integers(0, 3)) if "lone" in want else 0
    if lone:
        params["lone"] = ("obj",)
        # lone(a) has an aspect, lone(b) only a rule whose guard clashes, and
        # any other lone atom no rule: the table names both kinds of error.
        lines += ["fluent lone(obj)", f"aspect lone({objs[0]}) (k)",
                  f"aspect lone({objs[1]}) (k) if mark({objs[1]}) & !mark({objs[1]})"]
    if "home" in want and _one_in(draw, 4):
        lines.append(f"home mark (k, {_pick(draw, objs)})")

    fixed = TEMPLATES[spec]
    on = fixed["on"]
    if guarded:
        on += GUARDED_ON
    planted = guarded and _one_in(draw, 4)
    if planted:
        lines.append(PLANTED[0])
    else:
        lines.append(f"aspect on(u,v) {_pick(draw, on)}")
    lines.append(f"aspect mark(u) {_pick(draw, fixed['mark'])}")

    firsts, seconds = [], []
    for name, head in heads.items():
        text = f"{name}({','.join(head)})"
        rules = []
        for _ in range(draw(st.integers(1, 2)) if guarded else 1):
            if guarded and not _one_in(draw, 4):
                guard, bound = _guard(draw, head, sorts)
                rules.append(f"aspect {text} {_template(draw, bound, spec)}"
                             + (f" if {guard}" if guard else ""))
            elif name == "move" and _one_in(draw, 5):
                # A template constant that is an object.
                o = _pick(draw, objs)
                rules.append(f"aspect {text} ({o})" if simple else f"aspect {text} ({o},x)")
            else:
                rules.append(f"aspect {text} {_pick(draw, fixed[name])}")
        if planted and name == "move":
            rules = [PLANTED[1]]
        firsts.append(rules[0])
        seconds.append(rules[-1])

        # A free guard reads more fluents than a fixed precondition: domains
        # with free guards get a precondition half the time, half of them one.
        if "precondition" in want and not _one_in(draw, 2 if guarded else 5):
            pre = ""
            if guarded and _one_in(draw, 2):
                pre = _guard(draw, head, sorts)[0]
            elif name == "move":
                o = _pick(draw, objs)
                pre = _pick(draw, (*MOVE_PRES, f"!mark({o})"))
            if pre:
                lines.append(f"pre {text} {pre}")
        if name == "move" and "negation before its binder" in want and _one_in(draw, 3):
            lines.append(f"pre {text} {BEFORE_BINDER[0]}")
        o = _pick(draw, objs)
        effects = [*MOVE_EFFECTS, f"del mark({o})"] if name == "move" else [
            *PAINT_EFFECTS, f"add mark({o}) if {o} in S"]
        if guarded and name == "paint":
            effects += TAG_EFFECTS
        chosen = _some(draw, effects, 3)
        if name == "move" and "negation before its binder in an effect" in want and \
                _one_in(draw, 3):
            chosen.append(BEFORE_BINDER[1])
        if planted and name == "move":
            chosen.insert(0, "add on(x,y)")
        lines += [f"effect {text} {e}" for e in dict.fromkeys(chosen)]

    if "frame" in want:
        lines += _frames(draw, heads, params, objs)
    full_over_sets = False
    if spec == "table":
        paths = [_pick(draw, ["(m)", "(k)"] + [f"({o})" for o in objs])
                 for _ in range(2 * draw(st.integers(1, 3)))]
        lines.append("disjoint by table " + ", ".join(
            f"{p}{q}" for p, q in zip(paths[::2], paths[1::2])))
    elif commutative:
        # Full commutativity reads atoms only: the DSL rejects it where a path
        # may hold a set, and d raises on such a path. Only "commutative(all)
        # over sets" draws it there, one time in three, set after parsing.
        sets = "tag" in params or "paint" in heads
        full = False
        if sets and "commutative(all) over sets" in want:
            full_over_sets = _one_in(draw, 3)
        elif not sets:
            full = _one_in(draw, 4)
        pairs = "all" if full else "a m, b m, m n, m o, k m"
        lines.append(f"disjoint by commutative({pairs})")
    else:
        lines.append(f"disjoint by {spec}")

    # An action's second rule may overlap its first: it is parsed in a copy of
    # the text that has it in place of the first, and appended.
    domain = parse_domain("\n".join(lines + firsts) + "\n", file="generated")
    extra = []
    if seconds != firsts:
        second = parse_domain("\n".join(lines + seconds) + "\n", file="generated")
        extra = [r for r in second.aspect_rules if r not in domain.aspect_rules]
    if lone == 3:
        extra += parse_domain(BROKEN).aspect_rules
    domain = dataclasses.replace(domain, aspect_rules=domain.aspect_rules + tuple(extra))
    if full_over_sets:
        domain = dataclasses.replace(domain, disjointness=CommutativeCanonical())
    return domain


def _some(draw, options, most: int) -> list:
    """One to `most` distinct options."""
    return list(dict.fromkeys(_pick(draw, options) for _ in range(draw(st.integers(1, most)))))


def _guard(draw, head: dict[str, str], sorts):
    """Guard text over the head's variables, and the variables its positive
    literals and member guards bind."""
    atoms: list[str] = []
    bound = [v for v, sort in head.items() if sort != "set"]
    sets = [v for v, sort in head.items() if sort == "set"]
    choices = {sort: [v for v, s in head.items() if s == sort] + ["z", "w"] + names
               for sort, names in sorts.items()}
    for _ in range(draw(st.integers(1, 3))):
        kind = _pick(draw, ("on", "on", "mark", "tag", "in"))
        sign = "!" if _one_in(draw, 3) else ""
        if kind == "in" and sets:
            member = _pick(draw, ["z", "w", sorts["obj"][0]])
            atoms.append(f"{member} in {_pick(draw, sets)}")
            if member in ("z", "w"):
                bound.append(member)
        elif kind == "tag":
            arg = _pick(draw, sets + ["T"])
            atoms.append(f"{sign}tag({arg})")
            if not sign and arg == "T":
                sets.append("T")
        elif kind != "in":
            arg_sorts = ("obj",) if kind == "mark" else ("obj", "place")
            args = [_pick(draw, choices[sort]) for sort in arg_sorts]
            atoms.append(f"{sign}{kind}({','.join(args)})")
            if not sign:
                bound += [a for a in args if a in ("z", "w")]
    return " & ".join(atoms), list(dict.fromkeys(bound)) + sets


def _template(draw, names: list[str], spec: str) -> str:
    """An aspect template over bound variables and the atom r: one element
    under `simple`, and no set element under `commutative`."""
    elems = []
    for _ in range(1 if spec == "simple" else draw(st.integers(1, 2))):
        picked = _some(draw, names + ["r"], 1 if spec == "commutative" else 2)
        if len(picked) == 1 and (spec == "commutative" or _one_in(draw, 2)):
            elems.append(picked[0])
        else:
            elems.append("{" + ",".join(picked) + "}")
    return "(" + ",".join(elems) + ")"


def _frames(draw, heads, params, objs) -> list[str]:
    """At times a `frame` line whose fluent repeats a free variable, and up
    to two over the domain's schemas whose arguments may be ill-sorted."""
    lines = ["frame move(x,y) on(z,z)"] if _one_in(draw, 2) else []
    for _ in range(draw(st.integers(0, 2))):
        name = _pick(draw, sorted(heads))
        head = ((_pick(draw, ["x", objs[0]]), _pick(draw, ["y", "floor"]))
                if name == "move" else ("S",))
        schema = _pick(draw, sorted(params))
        args = [_pick(draw, ("x", "y", "S", "z", "z", "w", objs[0], "floor"))
                for _ in params[schema]]
        lines.append(f"frame {name}({','.join(head)}) {schema}({','.join(args)})")
    return lines


def _propositional(draw, want):
    """Fluents p0..p3 with aspect atoms from u, v, w, and actions a0..a2
    with add and del effects on random fluents, at times guarded by one
    literal. Each action's aspect is the set of its effect targets' atoms
    (or one atom when it has no effect), so the domain is sound; with
    "precondition", most actions get one or two random literals."""
    fluents = [f"p{i}" for i in range(4)]
    atom = {p: _pick(draw, "uvw") for p in fluents}
    lines = ["domain random", *(f"fluent {p}()" for p in fluents),
             *(f"action a{i}()" for i in range(3)),
             *(f"aspect {p}() ({atom[p]})" for p in fluents)]
    for i in range(3):
        touched = set()
        for _ in range(draw(st.integers(0, 3))):
            target = _pick(draw, fluents)
            touched.add(atom[target])
            effect = f"effect a{i}() {_pick(draw, ('add', 'del'))} {target}()"
            # Two effects in five are guarded, one guard in five negated.
            if draw(st.integers(0, 4)) < 2:
                sign = "!" if _one_in(draw, 5) else ""
                effect += f" if {sign}{_pick(draw, fluents)}()"
            lines.append(effect)
        touched = sorted(touched) or [_pick(draw, "uvw")]
        lines.append(f"aspect a{i}() ({{{','.join(touched)}}})")
        # Seven actions in ten get a precondition, two literals in five negated.
        if "precondition" in want and draw(st.integers(0, 9)) < 7:
            literals = []
            for p in _some(draw, fluents, 2):
                sign = "!" if draw(st.integers(0, 4)) < 2 else ""
                literals.append(f"{sign}{p}()")
            lines.append(f"pre a{i}() " + " & ".join(literals))
    lines.append("disjoint by seq-diff")
    return parse_domain("\n".join(lines) + "\n", file="generated")


@st.composite
def domain_states(draw, *wanted: str):
    """A domain drawn from `wanted`, a state of it, and the random fluents
    true in the state. With "error state", half the states model nothing
    or do not know a schema that a precondition reads, so reading it
    raises."""
    domain = draw(domains(*wanted))
    fluents = ground_fluents(domain)
    bits = draw(st.integers(0, 2 ** len(fluents) - 1))
    truths = frozenset(f for i, f in enumerate(fluents) if bits >> i & 1)
    shape = "total"
    if "error state" in wanted:
        shape = _pick(draw, ("total", "total", "unmodeled", "unknown schema"))
    state = initial_state(domain, truths, only=[] if shape == "unmodeled" else None)
    if shape == "unknown schema":
        read = {g.fluent.schema for pre in domain.preconditions for g in pre.guard
                if isinstance(g, GuardLiteral)}
        state = dataclasses.replace(state, schemas=state.schemas - {
            _pick(draw, sorted(read or domain.fluents))})
    return domain, state, truths


def features(domain) -> set[str]:
    """What the tests floor, read off `domain`: its spec, its sorts and
    schemas, the objects its text names, and what its guards do."""
    spec = domain.disjointness
    objects = [o for names in domain.sorts.values() for o in names]
    # floor, the one object outside obj, is in no orbit: naming it breaks none.
    interchangeable = set(domain.sorts.get("obj", ()))
    out = {dict(zip((SeqExistsDiff, SimpleInequality, ExplicitTable, CommutativeCanonical),
                    SPECS))[type(spec)]}
    if len(set(objects)) < len(objects):
        out.add("object of two sorts")
    if list(domain.sorts) != sorted(domain.sorts):
        out.add("reordered sorts")
    if any(ref.is_set for schema in domain.actions.values() for ref in schema.params):
        out.add("set-valued parameter")
    if domain.homes:
        out.add("home")
    if any(o in objects for home in domain.homes.values() for o in home):
        out.add("named by home")
    if isinstance(spec, ExplicitTable) and any(
            str(e) in objects for pair in spec.pairs for path in pair for e in path):
        out.add("named by table")
    for entry in domain.frame_decls + domain.effects:
        free = [a for a in entry.fluent.args if isinstance(a, Var)]
        if len(set(free)) < len(free):
            out.add("repeated variable in an entry")
    for rule in (*domain.aspect_rules, *domain.preconditions, *domain.effects,
                 *domain.frame_decls):
        if any(isinstance(m, AspectAtom) and m.name in objects
               for elem in getattr(rule, "template", ())
               for m in (elem.members if isinstance(elem, SetTemplate) else (elem,))):
            out.add("named by template")
        head = getattr(rule, "target", None) or rule.action
        guard = getattr(rule, "guard", ())
        found = guard_features(guard, {v.name for v in head.variables()})
        if isinstance(rule, EffectRule) and "negation before its binder" in found:
            out.add("negation before its binder in an effect")
        out |= found
        # The DSL reads a pattern's argument as a constant only if it is an
        # object of the parameter's sort.
        named = [*head.args, *getattr(rule, "fluent", head).args]
        for g in guard:
            named += [g.member] if isinstance(g, MemberGuard) else g.fluent.args
        if interchangeable & set(named):
            out.add("named by rule")
    return out


def guard_features(guard, bound) -> set[str]:
    """What `guard` does with the variables `bound` before it: member
    guards ("x in S" over a bound set S), repeated variables and constant
    arguments in a literal, and negated literals, some over a variable
    nothing binds yet (negated existentials) that a later literal binds."""
    out = set()
    bound = set(bound)
    for i, atom in enumerate(guard):
        if isinstance(atom, MemberGuard):
            out.add("member guard")
            if atom.collection.name in bound:
                out.add(f"x in {atom.collection.name}")
            bound.add(getattr(atom.member, "name", ""))
            continue
        names = [a.name for a in atom.fluent.args if isinstance(a, Var)]
        if len(names) > len(set(names)):
            out.add("repeated variable")
        if len(names) < len(atom.fluent.args):
            out.add("constant argument")
        if atom.positive:
            bound.update(names)
            continue
        out.add("negated literal")
        if set(names) - bound:
            out.add("negated existential")
            later = set()
            for g in guard[i + 1:]:
                if isinstance(g, MemberGuard):
                    later.add(getattr(g.member, "name", ""))
                elif g.positive:
                    later.update(v.name for v in g.fluent.variables())
            if (set(names) - bound) & later:
                out.add("negation before its binder")
    return out
