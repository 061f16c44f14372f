"""Aspect resolution, frame derivation, progression, and regression."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from sitaspect.domain import (
    ActionSchema,
    AspectRule,
    Domain,
    FluentSchema,
    GuardLiteral,
    Pat,
    SortRef,
    Var,
    ground_actions,
    initial_state,
)
from sitaspect.dsl import parse_domain, parse_state
from sitaspect.errors import (
    AmbiguousAspectError,
    InapplicableActionError,
    MissingAspectError,
    NoProofError,
    UndefinedActionError,
)
from sitaspect.frames import (
    D_EVALUATION,
    applicable_actions,
    aspect_of_action,
    aspect_of_fluent,
    check_aspect_soundness,
    completeness_lint,
    derive_frame_axioms,
    intersects,
    persistence_proof,
    progress,
    progression,
    regress_query,
)
from sitaspect.state import eval_fluent
from sitaspect.terms import AspectAtom, action, fluent, path
from tests.conftest import fixture_text, reachable_states


# -- aspects of ground atoms -------------------------------------------------

def test_blocks_fluent_aspects(blocks, blocks_init):
    assert aspect_of_fluent(blocks, blocks_init, fluent("on", "a", "floor")) == path("floor")
    assert aspect_of_fluent(blocks, blocks_init, fluent("clear", "b")) == path("b")


def test_blocks_action_aspect_is_old_and_new_location(blocks, blocks_init):
    state = progress(blocks, blocks_init, action("move", "a", "c"))
    # a now rests on c: moving it to b touches both b and c.
    assert aspect_of_action(blocks, state, action("move", "a", "b")) == path({"b", "c"})


def test_rooms_clear_aspect_is_room_and_support(rooms, rooms_init):
    # c sits in room r2; move b onto c, transfer b... simpler: build directly.
    state = parse_state(
        "on(a,f1); on(b,c); on(c,f2); clear(a); clear(b); clear(f1); "
        "at_room(a,r1); at_room(b,r2); at_room(c,r2); "
        "at_room(f1,r1); at_room(f2,r2)", rooms)
    assert aspect_of_fluent(rooms, state, fluent("clear", "b")) == path("r2", "c")


def test_display_action_aspects(display, display_init):
    assert aspect_of_action(display, display_init,
                            action("light_pixels", {"p1", "p2"})) == \
        path("computer", "display", {"p1", "p2"})
    assert aspect_of_action(display, display_init, action("meteorite")) == path()


def test_ambiguous_aspect_is_an_error(blocks):
    state = parse_state("on(a,b); on(a,c); clear(a)", blocks)
    with pytest.raises(AmbiguousAspectError) as exc:
        aspect_of_action(blocks, state, action("move", "a", "floor"))
    text = ("aspect rule for move(a,floor) yields several aspects: "
            "({b,floor}), ({c,floor})")
    assert str(exc.value) == str(pickle.loads(pickle.dumps(exc.value))) == text


def test_rival_aspect_rules_are_named_in_the_error(blocks):
    rival = AspectRule("fluent", Pat("clear", (Var("x"),)), (Var("x"), Var("x")),
                       (GuardLiteral(Pat("on", (Var("x"), Var("y")))),))
    domain = replace(blocks, aspect_rules=blocks.aspect_rules + (rival,))
    state = parse_state("on(a,b); clear(a)", domain)
    with pytest.raises(AmbiguousAspectError) as exc:
        aspect_of_fluent(domain, state, fluent("clear", "a"))
    rules = "; ".join(str(r) for r in domain.aspect_rules if r.target.schema == "clear")
    assert str(exc.value) == f"multiple aspect rules apply to clear(a): {rules}"
    assert rules.endswith("; aspect clear(x) (x,x) if on(x,y)")


def test_missing_aspect_errors_name_their_cause():
    obj = (SortRef("obj"),)
    x = Var("x")
    domain = Domain(
        name="hand", sorts={"obj": ("a", "b")},
        fluents={"f": FluentSchema("f", obj), "g": FluentSchema("g", obj)},
        actions={"go": ActionSchema("go", obj)},
        aspect_rules=(AspectRule("fluent", Pat("f", ("a",)), (AspectAtom("a"),),
                                 (GuardLiteral(Pat("g", (x,))),)),
                      AspectRule("action", Pat("go", (x,)), (x,))),
        effects=())
    state = initial_state(domain, [])
    with pytest.raises(MissingAspectError) as exc:
        aspect_of_fluent(domain, state, fluent("g", "a"))
    assert str(exc.value) == "no aspect rule declared for fluent 'g'"
    for f in (fluent("f", "a"), fluent("f", "b")):  # guard fails; no rule matches
        with pytest.raises(MissingAspectError) as exc:
            aspect_of_fluent(domain, state, f)
        assert str(exc.value) == f"no aspect rule applies to {f} in this state"
    assert aspect_of_fluent(domain, initial_state(domain, [fluent("g", "b")]),
                            fluent("f", "a")) == path("a")
    assert aspect_of_action(domain, state, action("go", "b")) == path("b")


def test_nosupport_rule_covers_unsupported_blocks(blocks_nosupport):
    state = parse_state("clear(a); clear(b)", blocks_nosupport)
    assert aspect_of_action(blocks_nosupport, state,
                            action("move", "a", "b")) == path({"b"})


# -- intersects --------------------------------------------------------------

def test_intersects_blocks_cases(blocks, blocks_init):
    state = progress(blocks, blocks_init, action("move", "a", "c"))
    move_ab = action("move", "a", "b")
    assert intersects(blocks, state, move_ab, fluent("clear", "floor")) is False
    assert intersects(blocks, state, move_ab, fluent("clear", "b")) is True
    assert intersects(blocks, state, move_ab, fluent("clear", "c")) is True


def test_intersects_display_pixels(display, display_init):
    assert intersects(display, display_init, action("light_pixels", {"p1"}),
                      fluent("pixel_lit", "p2")) is False
    assert intersects(display, display_init, action("light_pixels", {"p1"}),
                      fluent("pixel_lit", "p1")) is True


# -- frame derivation ---------------------------------------------------------

def test_blocks_schematic_axioms_shapes(blocks):
    result = derive_frame_axioms(blocks)
    rendered = [ax.render() for ax in result.schematic]
    assert rendered == [
        "v != y & v != z & on(x,z) & holds(on(w,v), s)"
        " -> holds(on(w,v), do(move(x,y), s))",
        "w != y & w != z & on(x,z) & holds(clear(w), s)"
        " -> holds(clear(w), do(move(x,y), s))",
    ]
    assert not result.errors


def test_economy_domain_counts(economy):
    result = derive_frame_axioms(economy)
    assert len(result.economy) == 1
    report = result.economy[0]
    assert (report.m, report.n) == (5, 7)
    assert report.derived_frame_axioms == 35
    assert report.source_axioms == 14
    # All 35 pairs are unconditionally disjoint, so the ground list has them.
    assert len(result.ground) == 35


def test_same_aspect_yields_no_frame_axioms():
    text = ("domain tiny\n"
            "fluent p()\n"
            "action act()\n"
            "aspect p() (alpha)\n"
            "aspect act() (alpha)\n"
            "disjoint by simple\n")
    result = derive_frame_axioms(parse_domain(text))
    assert result.ground == ()
    assert result.economy == ()


# -- annotation soundness ------------------------------------------------------

def test_blocks_soundness_clean(blocks):
    report = check_aspect_soundness(blocks)
    assert report.clean
    assert report.actions_checked == 12


def test_fixture_domains_soundness_clean(rooms, display, blocks_nosupport):
    for domain in (rooms, display, blocks_nosupport):
        report = check_aspect_soundness(domain)
        assert report.clean, report.violations


def test_altered_move_aspect_is_flagged(blocks):
    text = fixture_text("blocks.dom").replace(
        "aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) ({y})")
    broken = parse_domain(text)
    report = check_aspect_soundness(broken)
    assert not report.clean
    schemas = {v.fluent.schema for v in report.violations}
    assert "clear" in schemas and "on" in schemas


def test_soundness_vacuous_without_effects(economy):
    assert check_aspect_soundness(economy).clean


# -- progression ---------------------------------------------------------------

def test_progress_blocks_move(blocks, blocks_init):
    state = progress(blocks, blocks_init, action("move", "a", "b"))
    assert eval_fluent(state, fluent("on", "a", "b")) is True
    assert eval_fluent(state, fluent("on", "a", "floor")) is False
    assert eval_fluent(state, fluent("clear", "b")) is False
    assert eval_fluent(state, fluent("clear", "c")) is True
    assert eval_fluent(state, fluent("clear", "floor")) is True


def test_progress_no_change_when_no_effect_fires(display, display_init):
    # Darkening an already dark pixel leaves the state equal.
    state = progress(display, display_init, action("dark_pixels", {"p2"}))
    assert state == display_init


def test_progress_precondition_failure(blocks, blocks_init):
    s1 = progress(blocks, blocks_init, action("move", "a", "b"))
    with pytest.raises(InapplicableActionError):
        progress(blocks, s1, action("move", "c", "b"))  # b is covered


def test_progress_outside_modeled_portion_is_undefined(display):
    from sitaspect.domain import initial_state
    from sitaspect.errors import UndefinedActionError

    only_display = initial_state(display, [fluent("pixel_lit", "p1")],
                                 only=[("computer", "display")])
    # Pixel actions stay inside the modeled portion...
    progress(display, only_display, action("dark_pixels", {"p1"}))
    # ...but the meteorite touches the window, which is not modeled here.
    with pytest.raises(UndefinedActionError):
        progress(display, only_display, action("meteorite"))


# A lamp whose switch needs power from the cellar, a separate component.
LAMP_DOMAIN = """\
domain lamp
objects lamp: l1
fluent lit(lamp)
fluent powered()
action switch_on(lamp)
home lit (room)
home powered (cellar)
aspect lit(x) (room, x)
aspect powered() (cellar)
aspect switch_on(x) (room, x)
pre switch_on(x) powered()
effect switch_on(x) add lit(x)
"""


def test_precondition_outside_modeled_portion_is_undefined():
    lamp = parse_domain(LAMP_DOMAIN)
    switch = action("switch_on", "l1")
    room_only = initial_state(lamp, [], only=[("room",)])
    assert eval_fluent(room_only, fluent("powered")) is None
    with pytest.raises(UndefinedActionError,
                       match="precondition refers outside the modeled portion"):
        progress(lamp, room_only, switch)
    assert switch not in applicable_actions(lamp, room_only)
    # Modeled but false, the same precondition makes the action inapplicable.
    unpowered = initial_state(lamp, [])
    with pytest.raises(InapplicableActionError, match="precondition does not hold"):
        progress(lamp, unpowered, switch)
    assert applicable_actions(lamp, initial_state(lamp, [fluent("powered")])) == [switch]


def test_failed_negated_existential_precondition_is_inapplicable():
    grab = parse_domain("""\
domain grab
objects thing: a, b
fluent holding(thing)
action grab(thing)
aspect holding(x) (x)
aspect grab(x) (x)
pre grab(x) !holding(y)
effect grab(x) add holding(x)
""")
    # y is bound by no positive literal: grab(a) needs no thing to be held.
    state = initial_state(grab, [fluent("holding", "b")])
    assert applicable_actions(grab, state) == []
    with pytest.raises(InapplicableActionError, match="precondition does not hold"):
        progress(grab, state, action("grab", "a"))


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_actions_left_out_are_the_ones_progress_refuses(request, name):
    domain = request.getfixturevalue(name)
    init = request.getfixturevalue(f"{name}_init")
    for state in reachable_states(domain, init, 2):
        applicable = applicable_actions(domain, state)
        for a in ground_actions(domain):
            if a in applicable:
                continue
            with pytest.raises((InapplicableActionError, UndefinedActionError)):
                progress(domain, state, a)


def test_transfer_moves_room_membership(rooms, rooms_init):
    state = progress(rooms, rooms_init, action("transfer", "a", "c"))
    assert eval_fluent(state, fluent("on", "a", "c")) is True
    assert eval_fluent(state, fluent("at_room", "a", "r2")) is True
    assert eval_fluent(state, fluent("at_room", "a", "r1")) is False


def test_a_step_is_stored_once_per_domain(blocks, blocks_init):
    domain = replace(blocks)  # a fresh Domain starts with an empty table
    assert domain._steps == {}
    a = action("move", "a", "b")
    after = progress(domain, blocks_init, a)
    assert progress(domain, blocks_init, a) is after
    assert list(domain._steps) == [(blocks_init, a)]
    assert replace(domain)._steps == {}


def test_a_failed_step_is_not_stored(blocks, blocks_init):
    domain = replace(blocks)
    state = progress(domain, blocks_init, action("move", "a", "b"))
    covered = action("move", "b", "c")  # a now rests on b
    messages = []
    for _ in range(2):
        with pytest.raises(InapplicableActionError) as exc:
            progress(domain, state, covered)
        messages.append(str(exc.value))
    assert messages == ["move(b,c): precondition does not hold"] * 2
    assert (state, covered) not in domain._steps


# -- regression -----------------------------------------------------------------

def _regress(domain, init, acts, p):
    return regress_query(domain, progression(domain, init, acts), acts, p)


def test_regress_empty_sequence(blocks, blocks_init):
    value, trace = _regress(blocks, blocks_init, [], fluent("clear", "c"))
    assert value is True
    assert len(trace) == 1


def test_regress_persistence_one_d_evaluation(blocks, blocks_init):
    value, trace = _regress(blocks, blocks_init,
                            [action("move", "a", "b")], fluent("clear", "c"))
    assert value is True
    assert trace.count(D_EVALUATION) == 1
    assert len(trace) == 2


def test_regress_matches_progression_oracle(blocks, blocks_init):
    acts = [action("move", "a", "b"), action("move", "c", "a")]
    final = blocks_init
    for a in acts:
        final = progress(blocks, final, a)
    for p in (fluent("on", "a", "b"), fluent("on", "c", "a"),
              fluent("clear", "b"), fluent("clear", "floor")):
        value, _ = _regress(blocks, blocks_init, acts, p)
        if value is not None:
            assert value is eval_fluent(final, p)


def test_regress_display_repeated_actions(display, display_init):
    acts = [action("light_pixels", {"p1"})] * 3
    value, trace = _regress(display, display_init, acts,
                            fluent("pixel_lit", "p2"))
    assert value is False  # initial value: p2 is dark
    assert trace.count(D_EVALUATION) == 3


def test_regress_undefined_on_uncovered_intersection(blocks, blocks_init):
    # on(c,floor) intersects move(a,b) via the shared floor aspect, and no
    # effect rule of the move resolves it: the axioms say nothing.
    value, trace = _regress(blocks, blocks_init,
                            [action("move", "a", "b")],
                            fluent("on", "c", "floor"))
    assert value is None
    assert trace.steps[-1].kind == "no-axiom"


def test_regress_uses_declared_frame_axiom(display, display_init):
    value, trace = _regress(display, display_init, [action("meteorite")],
                            fluent("pixel_lit", "p2"))
    assert value is False
    assert any(s.kind == "axiom-instantiation" for s in trace.steps)
    # A lit pixel is resolved by the effect instead.
    value, trace = _regress(display, display_init, [action("meteorite")],
                            fluent("pixel_lit", "p1"))
    assert value is False
    assert any(s.kind == "effect-application" for s in trace.steps)


def test_regress_inapplicable_action_identifies_step(blocks, blocks_init):
    with pytest.raises(InapplicableActionError, match="step 2"):
        _regress(blocks, blocks_init,
                 [action("move", "a", "b"), action("move", "c", "b")],
                 fluent("clear", "c"))


# -- persistence proofs -----------------------------------------------------------

def test_persistence_proof_aspect_mode_is_four_steps(blocks, blocks_init):
    trace = persistence_proof(blocks, blocks_init, action("move", "a", "b"),
                              fluent("clear", "c"), mode="aspect")
    assert len(trace) == 4
    assert [s.kind for s in trace.steps] == [
        "aspect-lookup", "aspect-lookup", "d-evaluation", "axiom-instantiation"]


def test_persistence_proof_classical_mode_is_one_step(blocks, blocks_init):
    pair = (action("move", "a", "b"), fluent("clear", "c"))
    trace = persistence_proof(blocks, blocks_init, *pair, mode="classical",
                              classical_axioms=[pair])
    assert len(trace) == 1


def test_persistence_proof_intersecting_pair_fails(blocks, blocks_init):
    with pytest.raises(NoProofError):
        persistence_proof(blocks, blocks_init, action("move", "a", "b"),
                          fluent("clear", "b"), mode="aspect")


def test_persistence_trace_length_independent_of_domain_size(blocks, display,
                                                             blocks_init, display_init):
    t1 = persistence_proof(blocks, blocks_init, action("move", "a", "b"),
                           fluent("clear", "c"))
    t2 = persistence_proof(display, display_init, action("light_pixels", {"p1"}),
                           fluent("pixel_lit", "p2"))
    assert len(t1) == len(t2) == 4


# -- the non-interference property, exhaustively ----------------------------------

def test_disjoint_pairs_never_change_blocks(blocks, blocks_init):
    from sitaspect.domain import ground_fluents
    from sitaspect.frames import applicable_actions

    for state in reachable_states(blocks, blocks_init, 2):
        for a in applicable_actions(blocks, state):
            after = progress(blocks, state, a)
            for p in ground_fluents(blocks):
                if not intersects(blocks, state, a, p):
                    assert eval_fluent(after, p) == eval_fluent(state, p)


def test_rule_exclusivity_exhaustive_over_small_states(blocks_nosupport):
    # At most one move aspect rule fires in any truth assignment of the
    # guard-relevant fluents, for every ground move action.
    import itertools

    from sitaspect.domain import match_args, solve_guard
    from sitaspect.state import build_state
    from sitaspect.terms import GroundFluent

    domain = blocks_nosupport
    a = action("move", "a", "b")
    on_a = [GroundFluent("on", ("a", place)) for place in ("a", "b", "c", "floor")]
    for bits in itertools.product((False, True), repeat=len(on_a)):
        state = build_state({(): dict(zip(on_a, bits))},
                            schemas=frozenset(domain.fluents))
        firing = 0
        for rule in domain.aspect_rules:
            if rule.kind != "action" or rule.target.schema != "move":
                continue
            env0 = match_args(rule.target.args, a.args)
            if env0 is not None and solve_guard(domain, state, rule.guard, env0):
                firing += 1
        assert firing <= 1


def test_completeness_lint_reports_blocks_gaps(blocks):
    report = completeness_lint(blocks)
    assert not report.clean  # the classic annotation is weaker than necessary
    pairs = {(str(a), str(p)) for a, p in report.uncovered}
    assert ("move(a,b)", "on(c,floor)") in pairs


def test_completeness_lint_display_clean(display):
    assert completeness_lint(display).clean


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_every_guard_solution_is_a_static_grounding(request, name):
    # The static grounder over-approximates the state solver: whatever
    # solves a guard in a reachable state is one of its static groundings.
    from sitaspect.domain import (
        ground_fluents,
        match_args,
        solve_guard,
        static_guard_groundings,
    )

    domain = request.getfixturevalue(name)
    init = request.getfixturevalue(f"{name}_init")
    matched = []
    for p in ground_fluents(domain):
        matched += [(r.guard, match_args(r.target.args, p.args))
                    for r in domain.aspect_rules
                    if r.kind == "fluent" and r.target.schema == p.schema]
    for a in ground_actions(domain):
        matched += [(r.guard, match_args(r.target.args, a.args))
                    for r in domain.aspect_rules
                    if r.kind == "action" and r.target.schema == a.schema]
        matched += [(r.guard, match_args(r.action.args, a.args))
                    for r in domain.preconditions + domain.effects
                    if r.action.schema == a.schema]
    statics = [(guard, env0, {frozenset(g.items())
                              for g in static_guard_groundings(domain, guard, env0)})
               for guard, env0 in matched if env0 is not None]
    solved = 0
    for state in reachable_states(domain, init, 2):
        for guard, env0, static in statics:
            for sol in solve_guard(domain, state, guard, env0):
                assert frozenset(sol.items()) in static, (guard, sol)
                solved += 1
    assert solved > 0, solved
