"""Lookups the query path relies on, checked against `tests/reference.py`.

Guard grounding must be duplicate-free, static aspect rows must match a
whole-template instantiation at every grounding of the reference's static
grounder, a state must place each fluent at the home its domain declares,
and a domain's rule lookups, sort pools and static-aspect tables must equal
the reference's filtered rule tuples and the test-side pools and be built
once per Domain object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

import sitaspect.cli
import sitaspect.domain
import sitaspect.frames
from sitaspect.domain import (
    AspectRule,
    Domain,
    GuardLiteral,
    MemberGuard,
    Pat,
    Schema,
    SetTemplate,
    SortRef,
    Var,
    arg_candidates,
    ground_actions,
    ground_fluents,
    initial_state,
    solve_guard,
    static_guard_groundings,
)
from sitaspect.dsl import parse_domain, parse_state, unparse_domain
from sitaspect.frames import (
    _compiled,
    applicable_actions,
    check_aspect_soundness,
    completeness_lint,
    derive_frame_axioms,
    frame_economy,
    static_aspect_samples,
)
from sitaspect.reiter import compare_modes, random_workload
from sitaspect.state import eval_fluent, home_of, with_fluent
from sitaspect.terms import AspectAtom, action, fluent
from tests import reference
from tests.conftest import (
    BLOCKS_INIT,
    DISPLAY_INIT,
    FIXTURES,
    ROOMS_INIT,
    depth2,
    fixture_text,
    load_domain,
    outcome,
    record_calls,
    sort_pool,
)

FIXTURE_DOMAINS = ("blocks.dom", "blocks_nosupport.dom", "rooms.dom",
                   "display.dom", "economy.dom")


def _scaled(fixture, **objects):
    """A fixture's text with the `objects` lines of the given sorts replaced."""
    lines = fixture_text(fixture).splitlines()
    for i, line in enumerate(lines):
        sort = line.removeprefix("objects ").partition(":")[0]
        if line.startswith("objects ") and sort in objects:
            lines[i] = f"objects {sort}: {', '.join(objects[sort])}"
    return parse_domain("\n".join(lines) + "\n", file=fixture)


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


# blocks-N, rooms-N (N blocks in two rooms) and display-k, built here.
GENERATED = {
    **{f"blocks-{n}": ("blocks.dom", {"block": _names("b", n),
                                      "place": _names("b", n) + ["floor"]})
       for n in (2, 4, 5)},
    **{f"rooms-{n}": ("rooms.dom", {"block": _names("b", n),
                                    "place": _names("b", n) + ["f1", "f2"]})
       for n in (2, 4)},
    **{f"display-{k}": ("display.dom", {"pixel": _names("p", k)}) for k in (1, 4)},
}

# Empty templates, constant set members, and set-valued variables inside
# set templates, bound by the head and by the guard; lone(b) has no rule,
# and never's guard always clashes.
SHAPES = """domain shapes
objects obj: a, b, c
fluent on(obj, obj)
fluent mark(set of obj)
fluent lone(obj)
action act(set of obj, obj)
action noop()
action blank(obj)
action never(obj)
aspect on(x,y) ({x,y,k})
aspect mark(S) ({S,z,k}) if z in S
aspect lone(a) (a)
aspect act(S,x) ({T,x,z}, T, {S}, z) if mark(T) & x in T & z in T
aspect noop() ()
aspect blank(x) () if on(x,y)
aspect never(x) (x) if on(x,y) & !on(x,y)
"""


def _domain(name):
    if name in GENERATED:
        return _scaled(*GENERATED[name][:1], **GENERATED[name][1])
    if name == "shapes":
        return parse_domain(SHAPES, file=name)
    return load_domain(name)


# -- duplicate-free guard groundings ----------------------------------------

def _assert_distinct(envs, what):
    keys = [frozenset(e.items()) for e in envs]
    assert len(set(keys)) == len(keys), f"duplicate bindings for {what}"


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_guard_groundings_are_duplicate_free(request, name):
    domain, states = depth2(request, name)
    matches = reference.guarded_matches(domain)
    assert matches
    for guard, env in matches:
        _assert_distinct(static_guard_groundings(domain, guard, env), guard)
    for state in states:
        for guard, env in matches:
            _assert_distinct(solve_guard(domain, state, guard, env), guard)


@pytest.mark.parametrize("name", [*FIXTURE_DOMAINS, *GENERATED, "shapes"])
def test_static_groundings_match_the_dict_chain(name):
    domain = _domain(name)
    matches = reference.guarded_matches(domain)
    assert matches
    for guard, env in matches:
        got = static_guard_groundings(domain, guard, env)
        # Equal bindings, in the same order, each with the same key order.
        assert [list(e.items()) for e in got] == [
            list(e.items()) for e in reference.solutions(domain, guard, env)]


@pytest.mark.parametrize("name", [*FIXTURE_DOMAINS, *GENERATED, "shapes"])
def test_guard_fluents_match_the_literal_grounder(name):
    domain = _domain(name)
    for guard, env in reference.guarded_matches(domain):
        assert _compiled(domain, guard, env).fluents == \
            reference.guard_fluents(domain, guard, env), guard


def test_static_groundings_raise_as_the_dict_chain():
    x, y, T = Var("x"), Var("y"), Var("T")
    domain = Domain(
        name="hand", sorts={"s": ("a", "b")}, actions={}, aspect_rules=(), effects=(),
        fluents={"f": Schema("f", (SortRef("s"),)),
                 "g": Schema("g", (SortRef("s"), SortRef("s"))),
                 "h": Schema("h", (SortRef("nowhere"),))})
    nothing = MemberGuard(x, Var("E"))  # E is the empty set: no grounding
    cases = {
        "unknown schema": (GuardLiteral(Pat("nope", (x,))),),
        "arity": (GuardLiteral(Pat("f", (x, y))),),
        "unknown sort": (GuardLiteral(Pat("h", (x,))),),
        "constant collection": (MemberGuard(x, "a"),),
        "object collection": (GuardLiteral(Pat("f", (T,))), MemberGuard(x, T)),
        "unbound collection": (MemberGuard(x, Var("U")),),
        "negated unknown schema": (GuardLiteral(Pat("nope", (x,)), False),),
        "negated arity": (GuardLiteral(Pat("f", ("a", "b")), False),),
    }
    for what, guard in cases.items():
        for guard in (guard, (nothing,) + guard):
            env = {"E": frozenset()}
            got = outcome(static_guard_groundings, domain, guard, env)
            assert got == outcome(reference.solutions, domain, guard, env), what
            if guard[0] is nothing:
                assert got == [], what
            elif not what.startswith("negated"):
                assert isinstance(got, tuple), what


# -- static aspect rows against a whole-template reference -------------------

@pytest.mark.parametrize("name", [*FIXTURE_DOMAINS, *GENERATED, "shapes"])
def test_static_aspects_match_the_reference_table(name):
    domain = _domain(name)
    assert domain.static_aspects == reference.static_table(domain)


def test_static_aspects_match_the_reference_table_on_random_domains():
    gen = pytest.importorskip("tests.domains")

    @gen.examples(40, gen.domains("propositional"))
    def check(domain):
        assert domain.static_aspects == reference.static_table(domain)

    check()


def test_shapes_cover_the_template_edge_cases():
    table = _domain("shapes").static_aspects
    paths = {x: paths for x, paths, _ in table.fluents + table.actions}
    assert [str(p) for p in paths[action("noop")]] == ["()"]
    assert [str(p) for p in paths[action("blank", "a")]] == ["()"]
    assert [str(p) for p in paths[fluent("mark", {"a", "b"})]] == ["({a,b,k})"]
    assert "({a,b},{a,b},{a},a)" in {str(p) for p in paths[action("act", {"a"}, "a")]}
    assert "aspect rules for action never(a) have unsatisfiable guards" in table.errors
    assert "no aspect rule matches fluent lone(b)" in table.errors


# p(x)'s one aspect comes from a guard-free rule and from a guarded rule with
# a static grounding; r(x)'s from two rules under different guards; the
# guarded rule of s(x) has no static grounding. The DSL rejects such
# overlapping rules, so they are added to the parsed domain.
ROW_GUARDS = """domain row_guards
objects obj: a, b
fluent p(obj)
fluent q(obj)
fluent r(obj)
fluent s(obj)
action act(obj)
aspect p(x) (alpha)
aspect q(x) (delta)
aspect r(x) (beta) if q(x)
aspect s(x) (gamma)
aspect act(x) (omega)
disjoint by seq-diff
"""


def test_static_rows_keep_the_guards_of_statically_grounded_rules():
    x = Var("x")
    base = parse_domain(ROW_GUARDS)
    extra = (
        AspectRule("fluent", Pat("p", (x,)), (AspectAtom("alpha"),),
                   (GuardLiteral(Pat("q", (x,))),)),
        AspectRule("fluent", Pat("r", (x,)), (AspectAtom("beta"),),
                   (GuardLiteral(Pat("p", (x,)), False),)),
        AspectRule("fluent", Pat("s", (x,)), (AspectAtom("delta"),),
                   (GuardLiteral(Pat("q", (x,))), GuardLiteral(Pat("q", (x,)), False))),
    )
    domain = replace(base, aspect_rules=base.aspect_rules + extra)
    assert domain.static_aspects == reference.static_table(domain)
    rows = {str(x): ([str(p) for p in paths], guard)
            for x, paths, guard in domain.static_aspects.fluents}
    assert rows["p(a)"] == (["(alpha)"], ("q(a)",))
    assert rows["r(b)"] == (["(beta)"], ("q(b)", "!p(b)"))
    assert rows["s(a)"] == (["(gamma)"], ())
    ground = derive_frame_axioms(domain).ground
    assert ground == reference.ground_axioms(domain)
    guards = {(str(ax.action), str(ax.fluent)): ax.guard for ax in ground}
    assert guards["act(a)", "p(b)"] == ("q(b)",)
    assert guards["act(a)", "r(a)"] == ("q(a)", "!p(a)")
    assert guards["act(b)", "s(a)"] == ()
    # p's guarded rule has a static grounding, so no p atom enters a group.
    assert [(str(r.fluent_aspect), r.m, r.n) for r in frame_economy(domain)] == [
        ("(delta)", 2, 2), ("(gamma)", 2, 2)]


def test_static_aspects_build_each_element_once_per_key(monkeypatch):
    domain = load_domain("rooms.dom")
    # The distinct (atom, rule, position, key) of the reference groundings:
    # a position's key is its variable's value, or the set of the values of
    # the variables of its set template that the head leaves free.
    keys = set()
    for kind, atoms in (("fluent", ground_fluents(domain)),
                        ("action", ground_actions(domain))):
        for x in atoms:
            for rule, env0 in reference.rules_for(domain, kind, x):
                for g in reference.solutions(domain, rule.guard, env0):
                    for i, t in enumerate(rule.template):
                        members = t.members if isinstance(t, SetTemplate) else [t]
                        free = frozenset(g[m.name] for m in members
                                         if isinstance(m, Var) and m.name not in env0)
                        key = free if isinstance(t, SetTemplate) else tuple(free)
                        keys.add((x, rule, i, key))
    table = reference.static_table(load_domain("rooms.dom"))
    made, instantiated = (record_calls(monkeypatch, sitaspect.domain, name)
                          for name in ("AspectSet", "instantiate_template"))
    assert domain.static_aspects == table
    assert 0 < len(made) <= len(instantiated) <= len(keys)


@pytest.mark.parametrize("name", FIXTURE_DOMAINS)
def test_aspect_combos_match_whole_template_reference(name):
    domain = load_domain(name)
    table = reference.static_table(domain)
    uncovered, samples = (reference.uncovered(domain, table),
                          reference.aspect_samples(domain, table))
    assert derive_frame_axioms(domain).ground == reference.ground_axioms(domain, table)
    assert completeness_lint(domain).uncovered == uncovered
    assert static_aspect_samples(domain) == samples[:400]
    if name == "rooms.dom":
        assert len(samples) > 400  # the cap keeps a prefix, so order counts
    if name == "blocks.dom":
        assert uncovered  # the blocks gaps: a nonempty reference


def test_completeness_lint_counts_declared_frame_axioms():
    display = load_domain("display.dom")
    # Without its conditional deletes, the meteorite's pairs with the pixels
    # and cells are covered by the declared frame axioms alone.
    bare = replace(display, effects=tuple(
        e for e in display.effects if e.action.schema != "meteorite" or not e.guard))
    undeclared = replace(bare, frame_decls=())
    for domain in (bare, undeclared):
        assert completeness_lint(domain).uncovered == reference.uncovered(domain)
    gained = set(completeness_lint(undeclared).uncovered) - set(completeness_lint(bare).uncovered)
    assert {(str(a), str(p)) for a, p in gained} >= {
        ("meteorite()", "pixel_lit(p1)"), ("meteorite()", "cell_set(m1)")}


def test_static_aspects_are_built_once_per_domain(monkeypatch):
    domain = load_domain("rooms.dom")
    calls = record_calls(monkeypatch, sitaspect.domain, "_static_row", lambda *args: args[2])
    derive_frame_axioms(domain)
    completeness_lint(domain)
    static_aspect_samples(domain)
    table = domain.static_aspects
    assert calls == ground_fluents(domain) + ground_actions(domain)
    assert domain.static_aspects is table
    assert isinstance(table.fluents, tuple) and isinstance(table.actions, tuple)


@pytest.mark.parametrize("name", FIXTURE_DOMAINS)
def test_static_aspects_follow_a_replaced_universe(name):
    domain = load_domain(name)
    table = domain.static_aspects
    smaller = replace(domain, sorts={k: tuple(reversed(v[:2]))
                                     for k, v in domain.sorts.items()})
    assert smaller.static_aspects is not table
    for kind, atoms, rows in (
            ("fluent", ground_fluents(smaller), smaller.static_aspects.fluents),
            ("action", ground_actions(smaller), smaller.static_aspects.actions)):
        expected = [reference.static_row(smaller, kind, x) for x in atoms]
        assert list(rows) == [row for row in expected if row[1]]
    assert derive_frame_axioms(smaller).ground == reference.ground_axioms(smaller)
    assert completeness_lint(smaller).uncovered == reference.uncovered(smaller)
    assert domain.static_aspects is table


# -- the axiom economy -------------------------------------------------------

def _assert_economy_matches_the_reference(domain):
    economy = frame_economy(domain)
    assert "static_aspects" not in vars(domain)
    assert economy == reference.economy(domain)
    return economy


@pytest.mark.parametrize("name", [*FIXTURE_DOMAINS, *GENERATED, "shapes"])
def test_frame_economy_matches_the_table_reference(name):
    economy = _assert_economy_matches_the_reference(_domain(name))
    if name == "economy.dom":
        assert [(r.m, r.n) for r in economy] == [(5, 7)]


def test_frame_economy_matches_the_table_reference_on_random_domains():
    gen = pytest.importorskip("tests.domains")
    reports = []

    @gen.examples(40, gen.domains("propositional"))
    def check(domain):
        reports.extend(_assert_economy_matches_the_reference(domain))

    check()
    assert reports  # some random domain has a nonempty economy


# p(b) has a second guard-free rule with p(x)'s aspect, p(c) one with another
# aspect, and every static grounding of p(x)'s guarded rule clashes; q(a)'s
# guarded rule has a static grounding.
ECONOMY_GROUPS = """domain groups
objects obj: a, b, c
fluent p(obj)
fluent q(obj)
action act(obj)
aspect p(x) (alpha)
aspect q(x) (delta)
aspect act(x) (omega)
disjoint by seq-diff
"""


def test_frame_economy_groups_by_the_one_guard_free_aspect():
    x = Var("x")
    base = parse_domain(ECONOMY_GROUPS)
    extra = (
        AspectRule("fluent", Pat("p", ("b",)), (AspectAtom("alpha"),)),
        AspectRule("fluent", Pat("p", ("c",)), (AspectAtom("beta"),)),
        AspectRule("fluent", Pat("p", (x,)), (AspectAtom("gamma"),),
                   (GuardLiteral(Pat("q", (x,))), GuardLiteral(Pat("q", (x,)), False))),
        AspectRule("fluent", Pat("q", ("a",)), (AspectAtom("alpha"),),
                   (GuardLiteral(Pat("p", ("a",))),)),
    )
    domain = replace(base, aspect_rules=base.aspect_rules + extra)
    economy = _assert_economy_matches_the_reference(domain)
    assert [(str(r.fluent_aspect), str(r.action_aspect), r.m, r.n) for r in economy] == [
        ("(alpha)", "(omega)", 2, 3), ("(delta)", "(omega)", 2, 3)]
    # Without the extra rules every p and q atom counts.
    assert [(r.m, r.n) for r in frame_economy(base)] == [(3, 3), (3, 3)]


@pytest.mark.parametrize("name, init", [("rooms.dom", ROOMS_INIT),
                                        ("display.dom", DISPLAY_INIT)])
def test_compare_reads_the_economy_without_the_static_aspect_table(
        monkeypatch, name, init):
    domain = load_domain(name)
    workload = random_workload(domain, parse_state(init, domain), 20, 1)
    schematic = record_calls(monkeypatch, sitaspect.frames, "_schematic_axioms", lambda d: d)
    compare_modes(domain, workload)
    assert "static_aspects" not in vars(domain) and schematic == []
    derivation = derive_frame_axioms(domain)
    assert derivation.economy == reference.economy(load_domain(name))
    assert "static_aspects" not in vars(domain)
    assert derivation.schematic is derivation.schematic and schematic == [domain]
    calls = record_calls(monkeypatch, sitaspect.domain, "_static_row", lambda *args: args[2])
    ground = derivation.ground
    assert derivation.ground is ground
    assert derivation.errors == domain.static_aspects.errors
    assert calls == ground_fluents(domain) + ground_actions(domain)


# -- the fluent home index --------------------------------------------------

def _reference_home(domain, p, only=None):
    """p's home path by `domain.homes`, or None when `only` leaves it out."""
    names = domain.homes.get(p.schema, ())
    if only is not None and not any(names[:len(c)] == c for c in only):
        return None
    return tuple(AspectAtom(n) for n in names)


def _assert_index_agrees(domain, state, only=None):
    homes = {p: _reference_home(domain, p, only) for p in ground_fluents(domain)}
    for p, home in homes.items():
        assert home_of(state, p) == home, p
        assert (eval_fluent(state, p) is None) is (home is None), p
    assert {f: home for f, _, home in state.fluents()} == {
        p: home for p, home in homes.items() if home is not None}


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_home_index_agrees_with_tree_walk_on_reachable_states(request, name):
    domain, states = depth2(request, name)
    for state in states:
        _assert_index_agrees(domain, state)


def test_home_index_agrees_along_with_fluent_chain(display, display_init):
    state = display_init
    for p in ground_fluents(display):
        state = with_fluent(state, p, not eval_fluent(state, p))
        _assert_index_agrees(display, state)
    for p in ground_fluents(display):
        assert eval_fluent(state, p) is not eval_fluent(display_init, p)


def test_home_index_on_restricted_state(display):
    only = [("computer", "display")]
    state = initial_state(display, [fluent("pixel_lit", "p1"), fluent("door_open")],
                          only=only)
    _assert_index_agrees(display, state, only)
    assert home_of(state, fluent("door_open")) is None
    state2 = with_fluent(state, fluent("pixel_lit", "p2"), True)
    _assert_index_agrees(display, state2, only)


def test_with_fluent_derived_states_compare_by_value(blocks, blocks_init):
    p = fluent("clear", "a")
    there = with_fluent(blocks_init, p, False)
    back = with_fluent(there, p, True)
    assert there != blocks_init
    assert back == blocks_init and hash(back) == hash(blocks_init)


# -- rule lookups per ground atom ---------------------------------------------

_BOUND_TABLES = ("fluent", "action", "pre", "effect", "frame")


def _assert_bound_matches(domain):
    atoms = {"fluent": ground_fluents(domain)}
    for table in _BOUND_TABLES[1:]:
        atoms[table] = ground_actions(domain)
    hits = 0
    for table in _BOUND_TABLES:
        for atom in atoms[table]:
            got = domain.bound(table, atom)
            assert got == reference.rules_for(domain, table, atom), (table, atom)
            hits += len(got)
    assert hits


@pytest.mark.parametrize("name", FIXTURE_DOMAINS)
def test_domain_tables_equal_filtered_rules(name):
    domain = load_domain(name)
    _assert_bound_matches(domain)
    reordered = replace(domain, sorts={k: tuple(reversed(v))
                                       for k, v in domain.sorts.items()})
    _assert_bound_matches(reordered)


def test_bound_returns_one_tuple_per_atom(blocks):
    a = ground_actions(blocks)[0]
    first = blocks.bound("effect", a)
    assert first
    assert blocks.bound("effect", a) is first
    assert blocks.bound("effect", type(a)(a.schema, a.args)) is first
    assert replace(blocks).bound("effect", a) is not first


def _recorded_pools(monkeypatch) -> list:
    """Every (domain, ref, pool) that `arg_candidates` returns from now on."""
    seen = []
    build = sitaspect.domain.arg_candidates

    def recording(domain, ref):
        pool = build(domain, ref)
        seen.append((domain, ref, pool))
        return pool

    monkeypatch.setattr(sitaspect.domain, "arg_candidates", recording)
    return seen


def _assert_one_pool_each(seen) -> None:
    """One pool object per (Domain object, ref), ranking the ref's
    `sort_pool` in its order."""
    first = {}
    for domain, ref, pool in seen:
        assert first.setdefault((id(domain), ref), pool) is pool, ref
    for domain, ref, pool in seen:
        assert list(pool.items()) == [(t, i) for i, t in enumerate(sort_pool(domain, ref))]


_FIXTURE_INITS = {"blocks.dom": BLOCKS_INIT, "rooms.dom": ROOMS_INIT,
                  "display.dom": DISPLAY_INIT}


@pytest.mark.parametrize("argv", [
    *(["check", name] for name in FIXTURE_DOMAINS),
    *(["frames", name] for name in FIXTURE_DOMAINS),
    *(["compare", name, "--random", "20", "--init", init]
      for name, init in _FIXTURE_INITS.items()),
], ids=lambda argv: " ".join(argv[:2]))
def test_commands_leave_memoised_bindings_unchanged(monkeypatch, capsys, argv):
    # The bindings `bound` returns and the pools `arg_candidates` returns are
    # shared between calls; a consumer that changed one in place would change
    # every later lookup of that atom or sort.
    loaded = []

    def recording(text, file):
        loaded.append(parse_domain(text, file=file))
        return loaded[-1]

    monkeypatch.setattr(sitaspect.cli, "parse_domain", recording)
    pools = _recorded_pools(monkeypatch)
    argv = [str(FIXTURES / a) if a.endswith(".dom") else a for a in argv]
    assert sitaspect.cli.main(argv) == 0, capsys.readouterr().err
    [domain] = loaded
    assert domain._bound
    for (table, atom), hits in domain._bound.items():
        assert hits == reference.rules_for(domain, table, atom), (table, atom)
    schemas = [*domain.fluents.values(), *domain.actions.values()]
    assert bool(pools) == any(schema.params for schema in schemas)
    assert all(d is domain for d, _, _ in pools)
    _assert_one_pool_each(pools)


def test_universe_domains_get_pools_in_their_own_order(monkeypatch, capsys):
    [pinned] = [p for p in json.loads(fixture_text("report_digests.json"))["reports"]
                if p["argv"][:3] == ["frames", "display.dom", "--universe"]]
    assert pinned["argv"][3].startswith("pixel: p3, p1, p2;")
    seen = _recorded_pools(monkeypatch)
    argv = [str(FIXTURES / a) if a.endswith(".dom") else a for a in pinned["argv"]]
    assert sitaspect.cli.main(argv) == pinned["exit"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pinned["sha256"]
    _assert_one_pool_each(seen)
    assert {domain.sorts["pixel"] for domain, _, _ in seen} == {("p3", "p1", "p2")}
    [pixels] = {id(pool): pool for _, ref, pool in seen
                if ref == SortRef("pixel", is_set=True)}.values()
    assert list(pixels)[:4] == [frozenset({"p3"}), frozenset({"p1"}),
                                frozenset({"p2"}), frozenset({"p3", "p1"})]


def test_replaced_domains_build_their_own_pools(display):
    ref = SortRef("pixel", is_set=True)
    pool = arg_candidates(display, ref)
    swapped = replace(display, sorts={**display.sorts, "pixel": ("p2", "p1")})
    assert list(arg_candidates(swapped, ref)) == [
        frozenset({"p2"}), frozenset({"p1"}), frozenset({"p1", "p2"})]
    assert arg_candidates(display, ref) is pool
    assert list(pool) == sort_pool(display, ref)


MEMO_TABLES = ("_bound", "_pools", "_guards", "_steps", "_d_memo")


def test_memo_tables_start_empty_in_a_replaced_domain_and_are_not_compared():
    domain = load_domain("display.dom")
    check_aspect_soundness(domain)
    init = parse_state(DISPLAY_INIT, domain)
    assert compare_modes(domain, workload=random_workload(domain, init, 10, 1)).all_agree
    assert all(getattr(domain, t) for t in MEMO_TABLES[:-1])
    assert all(domain._d_memo)  # path -> id, the paths by id, (id, id) -> d
    fresh = replace(domain)
    assert [getattr(fresh, t) for t in MEMO_TABLES] == [{}, {}, {}, {}, ({}, [], {})]
    assert parse_domain(unparse_domain(domain)) == domain
    assert not any(t in repr(domain) for t in MEMO_TABLES)


def test_applicable_actions_follow_a_replaced_universe(blocks, blocks_init):
    assert applicable_actions(blocks, blocks_init)[0] == ground_actions(blocks)[0]
    smaller = replace(blocks, sorts={"block": ("b", "a"),
                                     "place": ("floor", "b", "a")})
    init = initial_state(smaller, [fluent("on", "a", "floor"), fluent("on", "b", "floor"),
                                   fluent("clear", "a"), fluent("clear", "b"),
                                   fluent("clear", "floor")])
    assert [str(a) for a in applicable_actions(smaller, init)] == [
        "move(b,floor)", "move(b,b)", "move(b,a)",
        "move(a,floor)", "move(a,b)", "move(a,a)"]
