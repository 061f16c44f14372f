"""The soundness lint by orbits of ground actions against the flat enumeration.

`check_aspect_soundness` lints the first action of each orbit, the actions
a renaming of interchangeable objects maps onto each other, and carries its
counts over to the rest. On the domains `tests/domains.py` draws under
each of the four specs (`ORBITS`), whose objects are interchangeable or
named by a rule, a template, a `table` spec or a `home` line (which the
lint never reads, so it breaks no orbit), the whole report must equal
`tests/reference.py::soundness`, which lints every action on its own, or
raise its error.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from sitaspect import frames  # noqa: E402
from sitaspect.disjoint import CommutativeCanonical, SeqExistsDiff  # noqa: E402
from sitaspect.errors import DisjointnessSpecError  # noqa: E402
from sitaspect.frames import check_aspect_soundness  # noqa: E402
from tests import reference  # noqa: E402
from tests.conftest import outcome  # noqa: E402
from tests.domains import ORBITS, SPECS, domains, examples, features  # noqa: E402


def _orbit_features(domain, report) -> set[str]:
    """Whether some orbit has several actions, and whether the first action
    of such an orbit shows a violation. Under `commutative` the orbits are
    those the domain would have under `seq-diff`: a violation past the first
    action of one shows that renaming would change the report. Full
    commutativity over a path that holds a set raises."""
    if isinstance(report, tuple) and report[0] is DisjointnessSpecError:
        return {"commutative(all) error"}
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

    @examples(300, domains(*ORBITS))
    def check(domain):
        got = outcome(check_aspect_soundness, domain)
        assert got == outcome(reference.soundness, domain)
        seen.update(features(domain) | _orbit_features(domain, got))

    check()
    for feature in (*SPECS, "object of two sorts", "set-valued parameter",
                    "reordered sorts", "named by rule", "named by template", "named by home",
                    "named by table", "shared orbit", "violation in a shared orbit",
                    "commutative: violation past the first action", "commutative(all) error"):
        assert seen[feature] >= 5, seen
