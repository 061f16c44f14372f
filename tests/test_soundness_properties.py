"""The soundness lint's search against the flat enumeration, on generated domains.

On the domains `tests/domains.py` draws with free guards (`LINT`),
`check_aspect_soundness` must return the report of
`tests/reference.py::soundness`, or raise its error. Stage 1's
precondition clauses must hold exactly where the guard solver finds every
precondition solvable, and the preconditions split into looked-up facts
and a solved rest must decide, on random states, as the solver does on
every whole guard.
"""

from __future__ import annotations

from collections import Counter

import pytest

pytest.importorskip("hypothesis")


from sitaspect.domain import solve_guard  # noqa: E402
from sitaspect.errors import SitAspectError  # noqa: E402
from sitaspect import frames  # noqa: E402
from sitaspect.frames import check_aspect_soundness  # noqa: E402
from tests import reference  # noqa: E402
from tests.conftest import assert_stage_one_decides_as_the_solver, outcome  # noqa: E402
from tests.domains import (  # noqa: E402
    LINT, domain_states, domains, examples, features)


def _features(domain, report) -> set[str]:
    """What the domain and its report exercise, for the coverage check."""
    out = features(domain)
    if isinstance(report, tuple):
        out.add("error")
        return out
    if any("no aspect rule applies" in u for u in report.unresolved):
        out.add("missing aspect")
    if any("ambiguous aspects" in u for u in report.unresolved):
        out.add("ambiguous aspect")
        heads = [r.target.schema for r in domain.aspect_rules if r.kind == "action"]
        if len(heads) > len(set(heads)):
            out.add("overlapping rules")
    # One action aspect per valuation: violations of one action under two
    # aspects were found at two leaves.
    per_action: dict = {}
    for v in report.violations:
        per_action.setdefault(v.action, set()).add(v.action_aspect)
    if any(len(aspects) > 1 for aspects in per_action.values()):
        out.add("violations at several leaves")
    return out


def test_search_matches_the_flat_enumeration_on_generated_domains(monkeypatch):
    seen = Counter()
    calls = Counter()
    for module, name in ((frames, "build_state"), (frames, "_net_effects"),
                         (reference, "changes")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    @examples(100, domains(*LINT, "negation before its binder in an effect"))
    def check(domain):
        calls.clear()
        got = outcome(check_aspect_soundness, domain)
        searched = dict(calls)
        calls.clear()
        assert got == outcome(reference.soundness, domain)
        if not isinstance(got, tuple):
            # The search builds one state per valuation whose effects the
            # flat enumeration reads, and no other.
            assert searched.get("build_state", 0) == searched.get("_net_effects", 0) \
                == calls["changes"]
        seen.update(_features(domain, got))

    check()
    for feature in ("negated existential", "negation before its binder",
                    "negation before its binder in an effect", "member guard",
                    "set-valued parameter", "missing aspect", "ambiguous aspect",
                    "overlapping rules", "violations at several leaves"):
        assert seen[feature] >= 10, seen


def test_stage_one_decides_the_preconditions_as_the_solver_on_generated_domains():
    seen = Counter()

    @examples(100, domains(*LINT))
    def check(domain):
        outcomes = assert_stage_one_decides_as_the_solver(domain)
        seen["a valuation fails" if outcomes[False] else "no valuation fails"] += 1

    check()
    assert seen["a valuation fails"] >= 10 and seen["no valuation fails"] >= 10, seen


def _reference_failed_precondition(domain, state, a):
    """The first precondition of a that `solve_guard` finds no solution of."""
    for pre, env0 in domain.bound("pre", a):
        if not solve_guard(domain, state, pre.guard, env0):
            return pre, env0
    return None


def test_precondition_facts_decide_as_the_solver_on_generated_domains():
    seen = Counter()

    @examples(300, domain_states(*LINT, "error state"))
    def check(case):
        domain, state, _ = case
        for a in domain.ground_action_list:
            try:
                want = _reference_failed_precondition(domain, state, a)
            except SitAspectError as exc:
                seen["error"] += 1
                with pytest.raises(type(exc)) as raised:
                    frames._failed_precondition(domain, state, a)
                assert str(raised.value) == str(exc)
            else:
                seen["holds" if want is None else "fails"] += 1
                assert frames._failed_precondition(domain, state, a) == want
            # Each precondition, as split: its looked-up facts and solved rest.
            for _, _, facts, rest in domain._pres[a]:
                seen[("facts" if facts else "") + (" & rest" if rest else "")] += 1
        assert outcome(lambda d: frames.applicable_actions(d, state), domain) == outcome(
            lambda d: [a for a in d.ground_action_list
                       if _reference_failed_precondition(d, state, a) is None], domain)

    check()
    for feature in ("error", "fails", "holds", "facts", "facts & rest", " & rest"):
        assert seen[feature] >= 10, seen
