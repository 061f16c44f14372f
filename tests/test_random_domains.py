"""Differential checks over randomly generated domains.

Two cross-checks that pit independent machinery against each other, on the
sound-by-construction propositional domains of `tests/domains.py`:

* If the static annotation soundness check is clean, no reachable state may
  show a disjoint pair whose fluent the action changes (the static check
  enumerates a superset of the reachable guard valuations).
* Aspect regression, SSA evaluation, and the progression oracle must agree
  on every defined query, whatever the (possibly badly annotated) domain's
  effects look like, as long as the annotations are sound.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from sitaspect.disjoint import d_eval  # noqa: E402
from sitaspect.domain import AspectRule, ground_fluents  # noqa: E402
from sitaspect.frames import (  # noqa: E402
    applicable_actions,
    aspect_of_action,
    aspect_of_fluent,
    check_aspect_soundness,
    progress,
)
from sitaspect.reiter import compare_modes, random_workload  # noqa: E402
from sitaspect.state import eval_fluent  # noqa: E402
from sitaspect.terms import AspectAtom  # noqa: E402
from tests.conftest import reachable_states  # noqa: E402
from tests.domains import domain_states, domains, examples  # noqa: E402


@examples(60, domain_states("propositional"))
def test_sound_domains_never_violate_noninterference(case):
    domain, init, _ = case
    assert not check_aspect_soundness(domain).violations
    fluents = ground_fluents(domain)
    for state in reachable_states(domain, init, 3):
        for a in applicable_actions(domain, state):
            beta = aspect_of_action(domain, state, a)
            after = progress(domain, state, a)
            for p in fluents:
                alpha = aspect_of_fluent(domain, state, p)
                if d_eval(domain.disjointness, alpha, beta):
                    assert eval_fluent(after, p) == eval_fluent(state, p), (str(a), str(p))


@examples(30, domain_states("propositional"), st.integers(0, 2 ** 32))
def test_modes_agree_on_random_domains(case, seed):
    domain, init, _ = case
    workload = random_workload(domain, init, 25, seed=seed)
    report = compare_modes(domain, workload=workload)  # raises on mismatch
    assert report.all_agree


def test_planted_overreach_is_caught():
    # Shrink one action's aspect below its effect targets: the static check
    # must notice.
    seen = Counter()

    @examples(40, domains("propositional"))
    def check(domain):
        widest = max(domain.actions,
                     key=lambda n: sum(e.action.schema == n for e in domain.effects))
        if not any(e.action.schema == widest for e in domain.effects):
            return
        narrowed = tuple(
            AspectRule(kind="action", target=rule.target, template=(AspectAtom("elsewhere"),))
            if rule.kind == "action" and rule.target.schema == widest else rule
            for rule in domain.aspect_rules)
        report = check_aspect_soundness(dataclasses.replace(domain, aspect_rules=narrowed))
        if any(v.action.schema == widest for v in report.violations):
            seen["caught"] += 1

    check()
    assert seen["caught"] > 20, seen
