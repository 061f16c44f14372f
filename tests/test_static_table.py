"""The whole-universe frame tables against the per-atom references.

`Domain.static_aspects` builds each aspect rule's paths once per value of
the head variables the rule reads (`domain._rule_paths`), `_static_pairs`
decides each distinct action aspect list once, and `completeness_lint`
finds the fluents an action's effect and frame entries name through an
index of the ground fluents by argument. `tests/reference.py` does the
per-atom work instead: every rule is grounded for every atom, d is asked
for every (action, fluent) pair in a flat loop, every pair is matched
against the action's entries, and the economy instantiates each guard-free
template per atom. On the domains `tests/domains.py` draws for the
soundness lint and for its orbits, with `frame` lines and at times the
lone(obj) rows, the table, the ground axioms, the uncovered pairs and the
economy must be equal, or the same SitAspectError must be raised.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")


import sitaspect.domain  # noqa: E402
from sitaspect.domain import StaticAspects  # noqa: E402
from sitaspect.dsl import parse_state  # noqa: E402
from sitaspect.frames import (  # noqa: E402
    FrameDerivation,
    completeness_lint,
    derive_frame_axioms,
    frame_economy,
)
from sitaspect.reiter import compare_modes, random_workload  # noqa: E402
from tests import reference  # noqa: E402
from tests.conftest import ROOMS_INIT, load_domain, outcome, record_calls  # noqa: E402
from tests.domains import (  # noqa: E402
    LINT, ORBITS, domains, examples, features, guard_features)


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

def _features(domain, outcome) -> set[str]:
    # The table reads the guards of aspect rules only.
    out = {f for rule in domain.aspect_rules for f in guard_features(rule.guard, ())
           if f in ("negated literal", "member guard")}
    out |= features(domain) & {"repeated variable in an entry"}
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


def _check_generated(*wanted):
    seen = Counter()

    @examples(400, domains(*wanted, "frame", "lone"))
    def check(domain):
        got = _program(domain)
        assert got == _reference(domain)
        seen.update(_features(domain, got))

    check()
    for feature in ("negated literal", "member guard", "repeated variable in an entry",
                    "error", "table errors", "ground axioms", "uncovered pairs", "economy"):
        assert seen[feature] >= 10, seen


def test_tables_match_the_per_atom_references_on_soundness_domains():
    _check_generated(*LINT, "negation before its binder in an effect")


def test_tables_match_the_per_atom_references_on_orbit_domains():
    _check_generated(*ORBITS)


# -- the shape of the memo ----------------------------------------------------

def test_blocks_grounds_the_move_rule_once_per_destination(monkeypatch):
    domain = load_domain("blocks.dom")
    guards = record_calls(monkeypatch, sitaspect.domain, "_static_rows",
                          lambda domain, guard, env: guard)
    table = domain.static_aspects
    calls = Counter(guards)
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
