"""Guard solving against the sort-product grounder of `tests/reference.py`.

`solve_guard` binds a positive literal's free variables from the state's
true facts. The reference grounds each literal over its variables' whole
sorts and keeps the groundings whose fluent is one of the true facts, as
the solver did before the facts index. The two must return the same list:
the same bindings, in the same order, without duplicates, because that
order reaches aspect combinations, effects and reports.
"""

from __future__ import annotations

import pytest

from sitaspect.domain import MemberGuard, initial_state, solve_guard
from sitaspect.state import eval_fluent
from sitaspect.terms import GroundFluent
from tests import reference
from tests.conftest import depth2, reachable_states


def assert_solves_as_reference(domain, state, guard, env):
    got = solve_guard(domain, state, guard, env)
    assert got == reference.solutions(domain, guard, env, state.facts), (guard, env)
    keys = [frozenset(e.items()) for e in got]
    assert len(set(keys)) == len(keys), (guard, env)


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_solve_guard_matches_the_sort_product_on_reachable_states(request, name):
    domain, states = depth2(request, name)
    matches = reference.guarded_matches(domain)
    assert matches
    for state in states:
        for guard, env in matches:
            assert_solves_as_reference(domain, state, guard, env)


def test_solve_guard_matches_the_sort_product_with_unmodeled_fluents(display):
    # Only the display is modeled: cell_set, window_open and door_open are
    # not, so guards reading them find no true fact.
    init = initial_state(display, [GroundFluent("pixel_lit", ("p1",)),
                                   GroundFluent("pixel_lit", ("p3",))],
                         only=[("computer", "display")])
    assert eval_fluent(init, GroundFluent("cell_set", ("m1",))) is None
    matches = reference.guarded_matches(display)
    assert any(g.fluent.schema == "cell_set" for guard, _ in matches for g in guard
               if not isinstance(g, MemberGuard))
    for state in reachable_states(display, init, 2):
        for guard, env in matches:
            assert_solves_as_reference(display, state, guard, env)
