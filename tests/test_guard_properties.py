"""Guard solving on generated domains, against the sort-product grounder.

Hypothesis draws small domains (object sorts, a set sort, fluent schemas of
up to three parameters), states that hold stray facts outside every sort
and leave some fluents unmodeled, and guards mixing positive and negated
literals, repeated variables, constant arguments and `x in S` membership.
`solve_guard` must return the reference's list, or raise its error, and so
must `static_guard_groundings` against the dict-chain static grounder, and
the fluents a guard reads against the dict chain's literal grounder.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sitaspect.domain import (  # noqa: E402
    Domain,
    FluentSchema,
    GuardLiteral,
    MemberGuard,
    Pat,
    SortRef,
    Var,
    solve_guard,
    static_guard_groundings,
)
from sitaspect.errors import SitAspectError  # noqa: E402
from sitaspect.frames import _compiled  # noqa: E402
from sitaspect.state import build_state  # noqa: E402
from sitaspect.terms import GroundFluent  # noqa: E402
from tests.test_guard_solving import reference_solve  # noqa: E402
from tests.test_lookups import (  # noqa: E402
    _reference_guard_fluents,
    _reference_static_groundings,
)

OBJECTS = ("a", "b", "c")
STRAY = "d"  # an object of no sort
SUBSETS = tuple(frozenset(c) for n in range(len(OBJECTS) + 1)
                for c in itertools.combinations(OBJECTS, n))  # the empty set too
REFS = (SortRef("s"), SortRef("t"), SortRef("s", is_set=True))
VARS = ("x", "y", "z", "T")  # T also names a set


def _values(ref):
    """Argument values a fact may hold at a parameter, in and out of its pool."""
    return SUBSETS if ref.is_set else OBJECTS + (STRAY,)


@st.composite
def cases(draw):
    objects = st.lists(st.sampled_from(OBJECTS), min_size=1, unique=True)
    sorts = {"s": tuple(sorted(draw(objects))), "t": tuple(sorted(draw(objects)))}
    # g's set parameter gives `x in T` a set to bind T from.
    fluents = {"g": FluentSchema("g", (REFS[2], REFS[1]))}
    for i in range(draw(st.integers(0, 2))):
        params = tuple(draw(st.lists(st.sampled_from(REFS), max_size=3)))
        fluents[f"f{i}"] = FluentSchema(f"f{i}", params)
    domain = Domain(name="generated", sorts=sorts, fluents=fluents, actions={},
                    aspect_rules=(), effects=())

    atoms = [GroundFluent(name, args) for name, schema in fluents.items()
             for args in itertools.product(*map(_values, schema.params))]
    true = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=12))
    false = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=12))
    # Atoms in neither list are unmodeled.
    placed = {f: False for f in false} | {f: True for f in true}
    state = build_state({(): placed}, schemas=frozenset(fluents))

    def literal(name, positive):
        args = tuple(draw(st.one_of(st.sampled_from(VARS).map(Var),
                                    st.sampled_from(_values(ref))))
                     for ref in fluents[name].params)
        return GuardLiteral(Pat(name, args), positive)

    guard = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)):
            name = draw(st.sampled_from(sorted(fluents)))
            guard.append(literal(name, draw(st.booleans())))
            continue
        member = draw(st.one_of(st.sampled_from(("x", "y", "z")).map(Var),
                                st.sampled_from(OBJECTS)))
        collection = draw(st.sampled_from(("S", "T")))
        if collection == "T" and draw(st.booleans()):
            guard.append(GuardLiteral(Pat("g", (Var("T"), Var("y"))), True))
        guard.append(MemberGuard(member, Var(collection)))

    env = {"S": draw(st.sampled_from(SUBSETS[1:]))}
    for name in ("x", "y"):
        if draw(st.booleans()):
            env[name] = draw(st.sampled_from(OBJECTS + (STRAY,)))
    return domain, state, tuple(guard), env


def _outcome(solve, *args):
    try:
        return solve(*args)
    except SitAspectError as exc:
        return type(exc), str(exc)


def _features(guard, env):
    """What the guard exercises, for the coverage check."""
    out = set()
    bound = set(env)
    for atom in guard:
        if isinstance(atom, MemberGuard):
            if atom.collection.name in bound:
                out.add("x in S" if atom.collection.name == "S" else "x in T")
            if isinstance(atom.member, Var):
                bound.add(atom.member.name)
            continue
        names = [a.name for a in atom.fluent.args if isinstance(a, Var)]
        if len(names) > len(set(names)):
            out.add("repeated variable")
        if len(names) < len(atom.fluent.args):
            out.add("constant argument")
        if not atom.positive and set(names) - bound:
            out.add("negated existential")
        if atom.positive:
            bound.update(names)
    return out


def test_solve_guard_matches_the_sort_product_on_generated_domains():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cases())
    def check(case):
        domain, state, guard, env = case
        before = dict(env)
        got = _outcome(solve_guard, domain, state, guard, env)
        assert got == _outcome(reference_solve, domain, state, guard, env)
        assert env == before
        seen.update(_features(guard, env))
        seen["error" if isinstance(got, tuple) else
             "solved" if got else "no solution"] += 1

    check()
    for feature in ("repeated variable", "constant argument", "negated existential",
                    "x in S", "x in T", "solved", "no solution"):
        assert seen[feature] >= 10, seen


@st.composite
def static_cases(draw):
    """`cases` without the state; half of the guards with a positive literal
    also get a negated copy of one, some variables fixed to a value, which
    clashes in the groundings that agree with those values."""
    domain, _, guard, env = draw(cases())
    positives = [g.fluent for g in guard if isinstance(g, GuardLiteral) and g.positive]
    if positives and draw(st.booleans()):
        lit = draw(st.sampled_from(positives))
        args = tuple(draw(st.sampled_from(_values(ref)))
                     if isinstance(a, Var) and draw(st.booleans()) else a
                     for a, ref in zip(lit.args, domain.fluents[lit.schema].params))
        guard += (GuardLiteral(Pat(lit.schema, args), False),)
    return domain, guard, env


def _static_features(domain, guard, env, got):
    out = _features(guard, env) - {"negated existential"}
    for atom in guard:
        if isinstance(atom, MemberGuard):
            out.add("member guard")
        elif any(isinstance(a, Var) and ref.is_set for a, ref in
                 zip(atom.fluent.args, domain.fluents[atom.fluent.schema].params)):
            out.add("set-valued parameter")
    if isinstance(got, tuple):
        out.add("error")
        return out
    out.add("grounded" if got else "unsatisfiable")
    positive = tuple(g for g in guard if isinstance(g, MemberGuard) or g.positive)
    if len(static_guard_groundings(domain, positive, env)) > len(got):
        out.add("clash")
    return out


def test_static_groundings_match_the_dict_chain_on_generated_domains():
    seen = Counter()

    def listed(outcome):
        return outcome if isinstance(outcome, tuple) else [list(e.items()) for e in outcome]

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(static_cases())
    def check(case):
        domain, guard, env = case
        before = dict(env)
        got = _outcome(static_guard_groundings, domain, guard, env)
        assert listed(got) == listed(
            _outcome(_reference_static_groundings, domain, guard, env))
        assert env == before
        seen.update(_static_features(domain, guard, env, got))

    check()
    for feature in ("member guard", "set-valued parameter", "repeated variable",
                    "constant argument", "clash", "unsatisfiable", "grounded", "error"):
        assert seen[feature] >= 10, seen


def test_guard_fluents_match_the_literal_grounder_on_generated_domains():
    seen = Counter()

    def distinct_reference(domain, guard, env):
        return set(_reference_guard_fluents(domain, guard, env))

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(static_cases())
    def check(case):
        domain, guard, env = case
        got = _outcome(lambda *args: _compiled(*args).fluents, domain, guard, env)
        assert got == _outcome(distinct_reference, domain, guard, env)
        seen.update(_features(guard, env))
        seen["error" if isinstance(got, tuple) else "read" if got else "nothing"] += 1

    check()
    for feature in ("negated existential", "repeated variable", "read", "nothing", "error"):
        assert seen[feature] >= 10, seen
