"""The whole-universe frame tables against the per-atom references.

`Domain.static_aspects` builds each aspect rule's paths once per value of
the head variables the rule reads (`domain._rule_paths`), `_static_pairs`
decides each distinct action aspect list once, and `completeness_lint`
finds the fluents an action's effect and frame entries name through an
index of the ground fluents by argument. `tests/reference.py` does the
per-atom work instead: every rule is grounded for every atom, d is asked
for every (action, fluent) pair in a flat loop, every pair is matched
against the action's entries, and the economy instantiates each guard-free
template per atom. On domains drawn by the soundness generators of
`tests/test_soundness_properties.py` and `tests/test_soundness_orbits.py`,
with `frame` lines and at times a fluent without aspects added, the table,
the ground axioms, the uncovered pairs and the economy must be equal, or
the same SitAspectError must be raised.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import sitaspect.domain  # noqa: E402
from sitaspect.domain import (  # noqa: E402
    AspectRule,
    FrameDecl,
    GuardLiteral,
    MemberGuard,
    Pat,
    Schema,
    SortRef,
    StaticAspects,
    Var,
    _static_rows,
)
from sitaspect.dsl import parse_state  # noqa: E402
from sitaspect.frames import (  # noqa: E402
    FrameDerivation,
    completeness_lint,
    derive_frame_axioms,
    frame_economy,
)
from sitaspect.reiter import compare_modes, random_workload  # noqa: E402
from sitaspect.terms import AspectAtom  # noqa: E402
from tests import reference, test_soundness_orbits, test_soundness_properties  # noqa: E402
from tests.conftest import ROOMS_INIT, load_domain, outcome  # noqa: E402


def _reference(domain):
    return (outcome(reference.economy, domain), outcome(reference.static_table, domain),
            outcome(reference.ground_axioms, domain), outcome(reference.uncovered, domain))


def _program(domain):
    """The four parts in the order the `frames` and `check` commands read
    them, on a fresh copy of the domain's memo tables."""
    domain = dataclasses.replace(domain)
    return (outcome(frame_economy, domain),
            outcome(lambda d: d.static_aspects, domain),
            outcome(lambda d: FrameDerivation(domain=d, economy=()).ground, domain),
            outcome(lambda d: completeness_lint(d).uncovered, domain))


# -- generated domains --------------------------------------------------------

# Arguments of a `frame` line's fluent: the heads' variables, free ones (z
# twice makes a repeated free variable), and objects of both generators.
FRAME_ARGS = (Var("x"), Var("y"), Var("S"), Var("z"), Var("z"), Var("w"), "a", "floor")
# A frame line whose fluent repeats a free variable, drawn half the time.
REPEATED = FrameDecl(Pat("move", (Var("x"), Var("y"))), Pat("on", (Var("z"), Var("z"))))


# lone(a) has an aspect, lone(b) only a rule whose guard clashes, and any
# other lone atom no rule: the table names both kinds of error. BROKEN's
# member guard reads an object as a set, which raises.
LONE = (AspectRule("fluent", Pat("lone", ("a",)), (AspectAtom("k"),)),
        AspectRule("fluent", Pat("lone", ("b",)), (AspectAtom("k"),),
                   (GuardLiteral(Pat("mark", ("b",))),
                    GuardLiteral(Pat("mark", ("b",)), False))))
BROKEN = (AspectRule("fluent", Pat("lone", (Var("u"),)), (AspectAtom("k"),),
                     (MemberGuard(Var("z"), Var("u")),)),)


@st.composite
def extended(draw, domain):
    """The domain with up to two `frame` lines drawn over its schemas, at
    times REPEATED, and at times the fluent lone(obj) of LONE, or of LONE
    and BROKEN."""
    extra = draw(st.integers(0, 3))
    if extra:
        domain = dataclasses.replace(
            domain, fluents={**domain.fluents, "lone": Schema("lone", (SortRef("obj"),))},
            aspect_rules=domain.aspect_rules + LONE + (BROKEN if extra == 3 else ()))
    decls = [REPEATED] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(domain.actions)))
        head = ((draw(st.sampled_from((Var("x"), "a"))), draw(st.sampled_from(
            (Var("y"), "floor")))) if name == "move" else (Var("S"),))
        schema = draw(st.sampled_from(sorted(domain.fluents)))
        args = tuple(draw(st.sampled_from(FRAME_ARGS))
                     for _ in domain.fluents[schema].params)
        decls.append(FrameDecl(Pat(name, head), Pat(schema, args)))
    return dataclasses.replace(domain, frame_decls=domain.frame_decls + tuple(decls))


def _features(domain, outcome) -> set[str]:
    out = set()
    guards = [g for r in domain.aspect_rules for g in r.guard]
    if any(isinstance(g, GuardLiteral) and not g.positive for g in guards):
        out.add("negated literal")
    if any(isinstance(g, MemberGuard) for g in guards):
        out.add("member guard")
    for rule in domain.frame_decls + domain.effects:
        free = [a for a in rule.fluent.args if isinstance(a, Var)]
        if len(set(free)) < len(free):
            out.add("repeated variable in an entry")
    economy, table, ground, uncovered = outcome
    if any(isinstance(part, tuple) and part and isinstance(part[0], type)
           for part in outcome):
        out.add("error")
    if isinstance(table, StaticAspects) and table.errors:
        out.add("table errors")
    if ground and not isinstance(ground[0], type):
        out.add("ground axioms")
    if uncovered and not isinstance(uncovered[0], type):
        out.add("uncovered pairs")
    if economy and not isinstance(economy[0], type):
        out.add("economy")
    return out


def _check_generated(drawn, seen):
    got = _program(drawn)
    assert got == _reference(drawn)
    seen.update(_features(drawn, got))


FLOORS = ("negated literal", "member guard", "repeated variable in an entry", "error",
          "table errors", "ground axioms", "uncovered pairs", "economy")


def test_tables_match_the_per_atom_references_on_soundness_domains():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(test_soundness_properties.domains().flatmap(extended))
    def check(domain):
        _check_generated(domain, seen)

    check()
    for feature in FLOORS:
        assert seen[feature] >= 10, seen


def test_tables_match_the_per_atom_references_on_orbit_domains():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(test_soundness_orbits.domains().flatmap(lambda drawn: extended(drawn[0])))
    def check(domain):
        _check_generated(domain, seen)

    check()
    for feature in FLOORS:
        assert seen[feature] >= 10, seen


# -- the shape of the memo ----------------------------------------------------

def test_blocks_grounds_the_move_rule_once_per_destination(monkeypatch):
    domain = load_domain("blocks.dom")
    calls = Counter()

    def counted(domain, guard, env, _real=_static_rows):
        calls[guard] += 1
        return _real(domain, guard, env)

    monkeypatch.setattr(sitaspect.domain, "_static_rows", counted)
    table = domain.static_aspects
    move = next(r for r in domain.aspect_rules if r.target.schema == "move")
    # Its template ({y,z}) reads y of the head, and its guard on(x,z) has no
    # negated literal or member guard: one grounding per place, not per move.
    assert calls[move.guard] == len(domain.sorts["place"]) == 4
    assert len(table.actions) == len(domain.sorts["block"]) * 4 == 12
    # on(x,y) (y) and clear(x) (x): one path per place each.
    assert calls[()] == 8


def test_the_rule_memo_is_private_to_one_domain():
    domain = load_domain("blocks.dom")
    domain.static_aspects
    assert domain._rule_paths
    assert "_rule_paths" not in repr(domain)
    fresh = load_domain("blocks.dom")
    assert fresh == domain and not fresh._rule_paths
    # `frames --universe` replaces the sorts: the copy starts with no paths.
    smaller = dataclasses.replace(domain, sorts={**domain.sorts, "place": ("floor",)})
    assert not smaller._rule_paths
    assert {p.args[1] for p, _, _ in smaller.static_aspects.fluents
            if p.schema == "on"} == {"floor"}


def test_compare_grounds_no_guarded_rule():
    domain = load_domain("rooms.dom")
    workload = random_workload(domain, parse_state(ROOMS_INIT, domain), 20, 3)
    assert compare_modes(domain, workload).all_agree
    # Every rooms.dom aspect rule is guarded, and the economy only asks
    # whether each has a static grounding.
    assert all(rule.guard for rule in domain.aspect_rules)
    assert domain._rule_paths == {}
    derive_frame_axioms(domain).ground
    assert len(domain._rule_paths) == len(domain.aspect_rules)
