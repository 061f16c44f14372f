"""Guard solving against the sort-product grounder it replaced.

`solve_guard` binds a positive literal's free variables from the state's
true facts. The reference below grounds each literal over its variables'
whole sorts and keeps the groundings whose fluent `eval_fluent` finds True,
which was the solver before the facts index. The two must return the same
list: the same bindings, in the same order, without duplicates, because
that order reaches aspect combinations, effects and reports.
"""

from __future__ import annotations

import itertools

import pytest

from sitaspect.domain import MemberGuard, Var, initial_state, solve_guard
from sitaspect.errors import SitAspectError
from sitaspect.state import eval_fluent
from sitaspect.terms import GroundFluent
from tests.conftest import reachable_states, sort_pool
from tests.test_lookups import _depth2, _guarded_matches


def _arg(arg, env):
    if isinstance(arg, Var):
        if arg.name not in env:
            raise SitAspectError(f"unbound variable {arg.name}")
        return env[arg.name]
    return arg


def _ground(pat, env):
    return GroundFluent(pat.schema, tuple(_arg(a, env) for a in pat.args))


def _sort_product(domain, pat, env):
    """Every extension of env over the `sort_pool`s of pat's unbound
    variables, the first variable varying slowest."""
    free: list[str] = []
    pools = []
    for pa, ref in zip(pat.args, domain.fluents[pat.schema].params):
        if isinstance(pa, Var) and pa.name not in env and pa.name not in free:
            free.append(pa.name)
            pools.append(sort_pool(domain, ref))
    for combo in itertools.product(*pools):
        yield {**env, **dict(zip(free, combo))}


def _true_in(domain, state, pat, env):
    return [e for e in _sort_product(domain, pat, env)
            if eval_fluent(state, _ground(pat, e)) is True]


def reference_solve(domain, state, guard, env):
    """The guard's solutions in `state`, by the sort-product grounder."""
    envs = [dict(env)]
    for atom in guard:
        if isinstance(atom, MemberGuard):
            nxt = []
            for e in envs:
                coll = _arg(atom.collection, e)
                if not isinstance(coll, frozenset):
                    raise SitAspectError(
                        f"membership guard needs a set-valued collection, got {coll!r}")
                if isinstance(atom.member, Var) and atom.member.name not in e:
                    nxt += [{**e, atom.member.name: m} for m in sorted(coll)]
                elif _arg(atom.member, e) in coll:
                    nxt.append(e)
            envs = nxt
        elif atom.positive:
            envs = [e2 for e in envs for e2 in _true_in(domain, state, atom.fluent, e)]
        else:
            envs = [e for e in envs if not _true_in(domain, state, atom.fluent, e)]
    return envs


def assert_solves_as_reference(domain, state, guard, env):
    got = solve_guard(domain, state, guard, env)
    assert got == reference_solve(domain, state, guard, env), (guard, env)
    keys = [frozenset(e.items()) for e in got]
    assert len(set(keys)) == len(keys), (guard, env)


@pytest.mark.parametrize("name", ["blocks", "rooms", "display"])
def test_solve_guard_matches_the_sort_product_on_reachable_states(request, name):
    domain, states = _depth2(request, name)
    matches = _guarded_matches(domain)
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
    matches = _guarded_matches(display)
    assert any(g.fluent.schema == "cell_set" for guard, _ in matches for g in guard
               if not isinstance(g, MemberGuard))
    for state in reachable_states(display, init, 2):
        for guard, env in matches:
            assert_solves_as_reference(display, state, guard, env)
