"""The soundness lint by orbits of ground actions against the flat enumeration.

`check_aspect_soundness` lints the first action of each orbit, the actions
a renaming of interchangeable objects maps onto each other, and carries its
counts over to the rest. Hypothesis writes small domains in the DSL whose
objects are interchangeable or named: by a guard, an effect, a
precondition, an aspect template or a `table` spec. A `home` line names an
object too, but the lint never reads it, so it breaks no orbit. Some
objects belong to two sorts, some actions take a set of objects, and some
domains get their sorts reordered. Each of the four disjointness specs is
drawn. The whole report must equal `tests/test_soundness.py::
_reference_soundness`, which lints every action on its own, or raise its
error.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sitaspect import frames  # noqa: E402
from sitaspect.disjoint import CommutativeCanonical, SeqExistsDiff  # noqa: E402
from sitaspect.dsl import parse_domain  # noqa: E402
from sitaspect.frames import check_aspect_soundness  # noqa: E402
from tests.test_soundness import _reference_soundness  # noqa: E402
from tests.test_soundness_properties import _outcome  # noqa: E402

OBJECTS = ("a", "b", "y", "z")
SPECS = ("seq-diff", "simple", "table", "commutative")


@st.composite
def domains(draw):
    """A generated domain and the features its text was drawn with."""
    features: set[str] = set()
    objs = draw(st.permutations(OBJECTS))
    places = [o for o in objs if draw(st.booleans())][:2] + ["floor"]
    if len(places) > 1:
        features.add("object of two sorts")
    spec = draw(st.sampled_from(SPECS))
    features.add(spec)
    simple = spec == "simple"

    def named(where: str) -> str:
        features.add(f"named by {where}")
        return draw(st.sampled_from(objs))

    lines = ["domain orbits", f"objects obj: {', '.join(objs)}",
             f"objects place: {', '.join(places)}",
             "fluent on(obj, place)", "fluent mark(obj)", "action move(obj, place)"]
    paint = draw(st.booleans())
    if paint:
        features.add("set-valued parameter")
        lines.append("action paint(set of obj)")
    if draw(st.integers(0, 3)) == 0:
        lines.append(f"home mark (k, {named('home')})")
    # Under `commutative`, paths that mix objects with the atoms m and k,
    # whose canonical order a renaming changes.
    commutative = spec == "commutative"
    on_paths = (["(m)", "(v,m)"] if commutative else
                ["(v)", "(u)", "(m)"] + ([] if simple else ["({u,v})", "(v,m)"]))
    lines.append(f"aspect on(u,v) {draw(st.sampled_from(on_paths))}")
    mark = draw(st.sampled_from(
        ["(m)", "(m,u)"] if commutative else
        ["(u)", "(m)", "(u) if !on(u,floor)"] + ([] if simple else ["(m,u)", "(u,k)"])))
    lines.append(f"aspect mark(u) {mark}")

    move = ["(x,m)", "(m,y)", "(k,x,y)"]
    if not commutative:
        move = ["(x)", "(y)", "({x,y})", "(m)",
                "(x) if mark(x)\naspect move(x,y) (y) if !mark(x)"] + (
            [] if simple else move + ["({y,z}) if on(x,z)"])
    body = draw(st.sampled_from(move))
    if draw(st.integers(0, 4)) == 0:
        # A template constant that is an object.
        body = f"({named('template')})" if simple else f"({named('template')},x)"
    lines.append(f"aspect move(x,y) {body}")
    if paint:
        lines.append("aspect paint(S) " + draw(st.sampled_from(
            ["(S)", "({S})", "(m)"] + ([] if simple else ["(m,S)"]))))

    pre = draw(st.sampled_from(["", "!on(y,x)", "mark(x)", "!mark(x) & on(x,z)", "rule"]))
    if pre == "rule":
        pre = f"!mark({named('rule')})"
    if pre:
        lines.append(f"pre move(x,y) {pre}")
    effects = ["add on(x,y)", "del on(x,z) if on(x,z)", "add mark(x)",
               "del mark(z) if on(z,y)", "del mark(x) if mark(x)", "rule"]
    for effect in draw(st.lists(st.sampled_from(effects), min_size=1, max_size=3,
                                unique=True)):
        if effect == "rule":
            effect = f"del mark({named('rule')})"
        lines.append(f"effect move(x,y) {effect}")
    if paint:
        for effect in draw(st.lists(st.sampled_from(
                ["add mark(w) if w in S", "del mark(w) if mark(w) & w in S", "rule"]),
                min_size=1, max_size=2, unique=True)):
            if effect == "rule":
                o = named("rule")
                effect = f"add mark({o}) if {o} in S"
            lines.append(f"effect paint(S) {effect}")

    if spec == "table":
        paths = [draw(st.sampled_from(["(m)", "(k)", "object"]))
                 for _ in range(2 * draw(st.integers(1, 3)))]
        paths = [f"({named('table')})" if p == "object" else p for p in paths]
        lines.append("disjoint by table " + ", ".join(
            f"{p}{q}" for p, q in zip(paths[::2], paths[1::2])))
    elif spec == "commutative":
        lines.append("disjoint by commutative(" + draw(st.sampled_from(
            ["all"] + ["a m, b m, m y, m z, k m"] * 3)) + ")")
    else:
        lines.append(f"disjoint by {spec}")
    domain = parse_domain("\n".join(lines) + "\n", file="generated")
    if draw(st.booleans()):
        features.add("reordered sorts")
        domain = dataclasses.replace(domain, sorts={
            sort: tuple(reversed(objects))
            for sort, objects in reversed(domain.sorts.items())})
    return domain, features


def _orbit_features(domain, report) -> set[str]:
    """Whether some orbit has several actions, and whether the first action
    of such an orbit shows a violation. Under `commutative` the orbits are
    those the domain would have under `seq-diff`: a violation past the first
    action of one shows that renaming would change the report."""
    commutative = isinstance(domain.disjointness, CommutativeCanonical)
    classes = frames._interchangeable(
        dataclasses.replace(domain, disjointness=SeqExistsDiff()) if commutative
        else domain)
    orbits: dict = {}
    for a in domain.ground_action_list:
        orbits.setdefault(frames._orbit_of(a, classes)[0], []).append(a)
    shared = [actions for actions in orbits.values() if len(actions) > 1]
    if isinstance(report, tuple) or not shared:
        return set()
    if commutative:
        flagged = {v.action for v in report.violations}
        return ({"commutative: violation past the first action"}
                if any(actions[0] not in flagged and flagged & set(actions[1:])
                       for actions in shared) else set())
    out = {"shared orbit"}
    if any(actions[0] == v.action for actions in shared for v in report.violations):
        out.add("violation in a shared orbit")
    return out


def test_orbits_match_the_flat_enumeration_on_generated_domains():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domains())
    def check(drawn):
        domain, features = drawn
        got = _outcome(check_aspect_soundness, domain)
        assert got == _outcome(_reference_soundness, domain)
        seen.update(features | _orbit_features(domain, got))

    check()
    for feature in (*SPECS, "object of two sorts", "set-valued parameter",
                    "reordered sorts", "named by rule", "named by template",
                    "named by home", "named by table", "shared orbit",
                    "violation in a shared orbit",
                    "commutative: violation past the first action"):
        assert seen[feature] >= 5, seen
