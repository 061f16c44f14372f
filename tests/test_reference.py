"""Progression and all three query modes against a naive reference interpreter.

The reference keeps a state as the set of true ground atoms. It grounds
preconditions and effect guards by enumerating every variable over its
whole sort, and applies an action's deletes, then its adds. It reads no
`WorldState` and calls none of the guard solver, `eval_fluent`,
`with_fluent` or `progress`, so a bug in those shows up as a mismatch.
The walks run on the fixtures, on `_random_domain` and on the generated
domains of `tests/test_soundness_properties.py`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from sitaspect.domain import MemberGuard, Var, ground_fluents, initial_state
from sitaspect.dsl import parse_ground_fluent
from sitaspect.frames import (ASPECT_LOOKUP, check_aspect_soundness, progression,
                              regress_query)
from sitaspect.reiter import _oracle, compare_modes, compile_ssa, random_workload, ssa_query
from sitaspect.terms import GroundFluent
from tests.conftest import BLOCKS_INIT, DISPLAY_INIT, ROOMS_INIT, sort_pool
from tests.test_random_domains import _random_domain


def _match(pat_args, terms):
    """The binding under which pattern args equal the ground terms, or None."""
    env = {}
    for pa, t in zip(pat_args, terms):
        if isinstance(pa, Var):
            if env.setdefault(pa.name, t) != t:
                return None
        elif pa != t:
            return None
    return env


def _ground(pat, env):
    return GroundFluent(pat.schema, tuple(env[a.name] if isinstance(a, Var) else a
                                          for a in pat.args))


def _value(arg, env):
    return env[arg.name] if isinstance(arg, Var) else arg


def _holds(domain, facts, guard, env):
    """Every binding extending env under which the guard holds in `facts`.

    A variable is bound by the first positive literal or membership test
    that names it. A negative literal reads "no grounding is true" over the
    variables that no earlier atom binds.
    """
    pools, bound, checks = {}, set(env), []
    everything = sorted({o for objs in domain.sorts.values() for o in objs})
    for atom in guard:
        checks.append((atom, frozenset(bound)))
        if isinstance(atom, MemberGuard):
            if isinstance(atom.member, Var) and atom.member.name not in bound:
                pools[atom.member.name] = everything
                bound.add(atom.member.name)
        elif atom.positive:
            params = domain.fluents[atom.fluent.schema].params
            for pa, ref in zip(atom.fluent.args, params):
                if isinstance(pa, Var) and pa.name not in bound:
                    pools[pa.name] = sort_pool(domain, ref)
                    bound.add(pa.name)
    out = []
    for values in itertools.product(*pools.values()):
        e = {**env, **dict(zip(pools, values))}
        if all(_atom_holds(domain, facts, atom, e, before) for atom, before in checks):
            out.append(e)
    return out


def _atom_holds(domain, facts, atom, env, before):
    """Whether one guard atom holds under env; a negative literal leaves the
    variables outside `before` free."""
    if isinstance(atom, MemberGuard):
        return _value(atom.member, env) in _value(atom.collection, env)
    if atom.positive:
        return _ground(atom.fluent, env) in facts
    params = domain.fluents[atom.fluent.schema].params
    free = {pa.name: sort_pool(domain, ref)
            for pa, ref in zip(atom.fluent.args, params)
            if isinstance(pa, Var) and pa.name not in before}
    return not any(_ground(atom.fluent, {**env, **dict(zip(free, values))}) in facts
                   for values in itertools.product(*free.values()))


def _matching(rules, a):
    """(rule, head binding) for each rule whose action head matches a."""
    for rule in rules:
        env = _match(rule.action.args, a.args) if rule.action.schema == a.schema else None
        if env is not None:
            yield rule, env


def reference_step(domain, facts, a):
    """The true atoms after a; None when a precondition fails."""
    if any(not _holds(domain, facts, pre.guard, env)
           for pre, env in _matching(domain.preconditions, a)):
        return None
    adds, dels = set(), set()
    for rule, env in _matching(domain.effects, a):
        for e in _holds(domain, facts, rule.guard, env):
            (adds if rule.add else dels).add(_ground(rule.fluent, e))
    return frozenset((facts - dels) | adds)


def _check_walks(domain, init, init_facts, count, seed):
    workload = random_workload(domain, init, count, seed)
    report = compare_modes(domain, workload=workload)
    for (_, acts, p), record in zip(workload, report.queries):
        facts = init_facts
        for a in acts:
            facts = reference_step(domain, facts, a)
            assert facts is not None, (acts, a)
        final = progression(domain, init, acts)[-1]
        assert {f for f, value, _ in final.fluents() if value} == facts, acts
        defined = [v for v in (record.aspect_value, record.ssa_value,
                               record.oracle_value) if isinstance(v, bool)]
        assert defined and all(v is (p in facts) for v in defined), (acts, p)


_INITS = {"blocks": BLOCKS_INIT, "rooms": ROOMS_INIT, "display": DISPLAY_INIT}


@pytest.mark.parametrize("name", sorted(_INITS))
@pytest.mark.parametrize("seed", [1, 2])
def test_fixture_walks_match_the_reference(request, name, seed):
    domain = request.getfixturevalue(name)
    init_facts = frozenset(parse_ground_fluent(item.strip(), domain)
                           for item in _INITS[name].split(";"))
    _check_walks(domain, request.getfixturevalue(f"{name}_init"), init_facts, 30, seed)


def test_random_domain_walks_match_the_reference():
    rng = random.Random(311)
    for trial in range(20):
        domain = _random_domain(rng)
        true = frozenset(p for p in ground_fluents(domain) if rng.random() < 0.5)
        _check_walks(domain, initial_state(domain, true), true, 20, trial)


def test_generated_domain_walks_match_the_reference():
    # The generated aspects need not be sound, so an aspect answer that
    # differs from the reference must be a violation the soundness lint
    # reports for the query's fluent and an action of the walk. A step whose
    # aspect does not resolve is recorded as an aspect lookup and falls
    # through to the effects and the declared frame axioms.
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from tests.test_soundness_properties import _domain_features, domains

    seen = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domains(), st.integers(0, 2 ** 32))
    def check(domain, seed):
        rng = random.Random(seed)
        true = frozenset(p for p in ground_fluents(domain) if rng.random() < 0.5)
        init = initial_state(domain, true)
        ssas = compile_ssa(domain)
        report = None
        for _, acts, p in random_workload(domain, init, 10, seed):
            facts = true
            for a in acts:
                facts = reference_step(domain, facts, a)
                assert facts is not None, (acts, a)
            oracle_value, states = _oracle(domain, init, acts, p)
            assert {f for f, value, _ in states[-1].fluents() if value} == facts, acts
            truth = p in facts
            assert oracle_value is truth and ssa_query(ssas, states, acts, p)[0] is truth, \
                (acts, p)
            seen[f"walk of {len(acts)}"] += 1
            aspect_value, trace = regress_query(domain, states, acts, p)
            seen["aspect-lookup"] += trace.count(ASPECT_LOOKUP)
            if not isinstance(aspect_value, bool):
                seen["undefined aspect answer"] += 1
            elif aspect_value is truth:
                seen["aspect answer"] += 1
            else:
                report = report or check_aspect_soundness(domain)
                assert any(v.fluent == p and v.action in acts
                           for v in report.violations), (acts, p)
                seen["unsound aspect answer"] += 1
        seen.update(_domain_features(domain))

    check()
    for feature in ("negated existential", "negation before its binder", "member guard",
                    "set-valued parameter", "aspect-lookup", "undefined aspect answer",
                    "walk of 4"):
        assert seen[feature] >= 10, seen
    assert seen["aspect answer"] >= 100 and seen["unsound aspect answer"], seen
