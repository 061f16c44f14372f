"""Fluent lookups, persistent updates and state values."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from sitaspect.domain import GuardLiteral, Pat, ground_fluents, initial_state, solve_guard
from sitaspect.dsl import parse_state
from sitaspect.errors import SchemaError, UndefinedPortionError
from sitaspect.state import build_state, eval_fluent, with_fluent
from sitaspect.terms import fluent
from tests.conftest import BLOCKS_INIT, reachable_states


def test_eval_fluent_direct_lookup(blocks, blocks_init):
    assert eval_fluent(blocks_init, fluent("on", "a", "floor")) is True
    assert eval_fluent(blocks_init, fluent("on", "a", "b")) is False


def test_eval_fluent_outside_modeled_portion(display):
    only_display = initial_state(display, [fluent("pixel_lit", "p1")],
                                 only=[("computer", "display")])
    assert eval_fluent(only_display, fluent("pixel_lit", "p1")) is True
    assert eval_fluent(only_display, fluent("window_open")) is None


def test_eval_fluent_unknown_schema_errors(blocks_init):
    with pytest.raises(SchemaError):
        eval_fluent(blocks_init, fluent("heater_on", "h1"))


def test_holds_reads_the_facts_index_and_rejects_an_unknown_schema(blocks, blocks_init):
    assert blocks_init.holds("on", ("a", "floor"))
    assert not blocks_init.holds("on", ("a", "b"))
    narrowed = dataclasses.replace(blocks_init, schemas=frozenset({"on"}))
    with pytest.raises(SchemaError, match="unknown fluent schema 'clear'"):
        narrowed.holds("clear", ("a",))
    # A fully bound guard literal is read through holds, so it raises alike.
    with pytest.raises(SchemaError, match="unknown fluent schema 'clear'"):
        solve_guard(blocks, narrowed, (GuardLiteral(Pat("clear", ("a",))),), {})


def test_with_fluent_read_after_write(blocks_init):
    s2 = with_fluent(blocks_init, fluent("clear", "a"), False)
    assert eval_fluent(s2, fluent("clear", "a")) is False
    s3 = with_fluent(s2, fluent("on", "a", "b"), True)
    assert eval_fluent(s3, fluent("on", "a", "b")) is True


def test_with_fluent_identity_rewrite_preserves_equality(blocks_init):
    v = eval_fluent(blocks_init, fluent("clear", "a"))
    assert with_fluent(blocks_init, fluent("clear", "a"), v) == blocks_init


def test_with_fluent_is_persistent(blocks_init):
    before = eval_fluent(blocks_init, fluent("clear", "a"))
    with_fluent(blocks_init, fluent("clear", "a"), not before)
    assert eval_fluent(blocks_init, fluent("clear", "a")) is before


def test_fluent_cannot_live_in_two_components():
    with pytest.raises(ValueError):
        build_state({("a",): {fluent("p"): True}, ("b",): {fluent("p"): False}},
                    schemas=frozenset({"p"}))


def test_with_fluent_outside_portion_errors(display):
    only_display = initial_state(display, [], only=[("computer", "display")])
    with pytest.raises(UndefinedPortionError):
        with_fluent(only_display, fluent("window_open"), True)


def test_with_fluent_locality_exhaustive(blocks, blocks_init):
    # Flipping one fluent changes eval_fluent at exactly that fluent,
    # checked over every ground fluent of the three-block world.
    universe = ground_fluents(blocks)
    for target in universe:
        flipped = with_fluent(blocks_init, target,
                              not eval_fluent(blocks_init, target))
        for other in universe:
            expected = (eval_fluent(blocks_init, other)
                        if other != target
                        else not eval_fluent(blocks_init, other))
            assert eval_fluent(flipped, other) is expected



@pytest.mark.parametrize("name, count, digest", [
    ("blocks", 36, "da2817c673975389"),
    ("rooms", 147, "b1ea21f49529de60"),
    ("display", 70, "03cbaa228a5bcf65"),
])
def test_reachable_states_are_pinned(request, name, count, digest):
    # Count, order and true fluents of every state within three steps.
    domain = request.getfixturevalue(name)
    states = reachable_states(domain, request.getfixturevalue(f"{name}_init"), 3)
    text = "\n".join(" ".join(str(p) for p in ground_fluents(domain)
                              if eval_fluent(s, p)) for s in states)
    assert len(states) == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_equal_states_hash_equal(blocks, blocks_init):
    again = parse_state(BLOCKS_INIT, blocks)
    assert again == blocks_init and hash(again) == hash(blocks_init)


def test_states_are_set_members(blocks, blocks_init):
    flipped = [with_fluent(blocks_init, p, not eval_fluent(blocks_init, p))
               for p in ground_fluents(blocks)]
    again = [with_fluent(s, p, eval_fluent(s, p))
             for s, p in zip(flipped, ground_fluents(blocks))]
    members = {blocks_init, *flipped}
    assert len(members) == len(flipped) + 1
    assert all(s in members for s in again)
