"""Guard solving on generated domains, against `tests/reference.py`.

Hypothesis draws small domains (object sorts, a set sort, fluent schemas of
up to three parameters), states that hold stray facts outside every sort
and leave some fluents unmodeled, and guards mixing positive and negated
literals, repeated variables, constant arguments and `x in S` membership.
`solve_guard` must return the list of the reference's sort-product
grounder, or raise its error, and so must `static_guard_groundings`
against its static groundings, and the fluents a guard reads against its
`guard_fluents`.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from sitaspect.domain import (  # noqa: E402
    Domain,
    GuardLiteral,
    MemberGuard,
    Pat,
    Schema,
    SortRef,
    Var,
    solve_guard,
    static_guard_groundings,
)
from sitaspect.frames import _compiled  # noqa: E402
from sitaspect.state import build_state  # noqa: E402
from sitaspect.terms import GroundFluent  # noqa: E402
from tests import reference  # noqa: E402
from tests.conftest import outcome  # noqa: E402
from tests.domains import examples, guard_features  # noqa: E402

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
    fluents = {"g": Schema("g", (REFS[2], REFS[1]))}
    for i in range(draw(st.integers(0, 2))):
        params = tuple(draw(st.lists(st.sampled_from(REFS), max_size=3)))
        fluents[f"f{i}"] = Schema(f"f{i}", params)
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
        # One literal in four ends with its first variable again, so that
        # repeated variables do not hang on the examples drawn.
        first = next((a for a in args[:-1] if isinstance(a, Var)), None)
        if first is not None and draw(st.integers(0, 3)) == 0:
            args = args[:-1] + (first,)
        return GuardLiteral(Pat(name, args), positive)

    guard = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)):
            name = draw(st.sampled_from(sorted(fluents)))
            guard.append(literal(name, draw(st.booleans())))
            continue
        member = draw(st.one_of(st.sampled_from(("x", "y", "z")).map(Var),
                                st.sampled_from(OBJECTS)))
        # T two times in three: half of them bound by g(T,y), half left to an
        # earlier literal or unbound.
        collection = draw(st.sampled_from(("S", "T", "T")))
        if collection == "T" and draw(st.booleans()):
            guard.append(GuardLiteral(Pat("g", (Var("T"), Var("y"))), True))
        guard.append(MemberGuard(member, Var(collection)))

    env = {"S": draw(st.sampled_from(SUBSETS[1:]))}
    for name in ("x", "y"):
        if draw(st.booleans()):
            env[name] = draw(st.sampled_from(OBJECTS + (STRAY,)))
    return domain, state, tuple(guard), env


def test_solve_guard_matches_the_sort_product_on_generated_domains():
    seen = Counter()

    @examples(300, cases())
    def check(case):
        domain, state, guard, env = case
        before = dict(env)
        got = outcome(solve_guard, domain, state, guard, env)
        assert got == outcome(reference.solutions, domain, guard, env, state.facts)
        assert env == before
        seen.update(guard_features(guard, env))
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
    out = guard_features(guard, env) - {"negated existential"}
    for atom in guard:
        if isinstance(atom, GuardLiteral) and any(
                isinstance(a, Var) and ref.is_set for a, ref in
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

    @examples(300, static_cases())
    def check(case):
        domain, guard, env = case
        before = dict(env)
        got = outcome(static_guard_groundings, domain, guard, env)
        assert listed(got) == listed(outcome(reference.solutions, domain, guard, env))
        assert env == before
        seen.update(_static_features(domain, guard, env, got))

    check()
    for feature in ("member guard", "set-valued parameter", "repeated variable",
                    "constant argument", "clash", "unsatisfiable", "grounded", "error"):
        assert seen[feature] >= 10, seen


def test_guard_fluents_match_the_literal_grounder_on_generated_domains():
    seen = Counter()

    @examples(300, static_cases())
    def check(case):
        domain, guard, env = case
        got = outcome(lambda *args: _compiled(*args).fluents, domain, guard, env)
        assert got == outcome(reference.guard_fluents, domain, guard, env)
        seen.update(guard_features(guard, env))
        seen["error" if isinstance(got, tuple) else "read" if got else "nothing"] += 1

    check()
    for feature in ("negated existential", "repeated variable", "read", "nothing", "error"):
        assert seen[feature] >= 10, seen
