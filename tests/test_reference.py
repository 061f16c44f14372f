"""Progression and all three query modes against `tests/reference.py`.

The reference keeps a state as the set of true ground atoms. It grounds
preconditions and effect guards by enumerating every variable over its
whole sort, and applies an action's deletes, then its adds. It reads no
`WorldState` and calls none of the guard solver, `eval_fluent`,
`with_fluent` or `progress`, so a bug in those shows up as a mismatch.
The walks run on the fixtures, on `_random_domain` and on the generated
domains of `tests/test_soundness_properties.py`. The last test pins the
reference's independence: the names it may import from `sitaspect`.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

from sitaspect.domain import ground_fluents, initial_state
from sitaspect.dsl import parse_ground_fluent
from sitaspect.frames import (ASPECT_LOOKUP, check_aspect_soundness, progression,
                              regress_query)
from sitaspect.reiter import _oracle, compare_modes, compile_ssa, random_workload, ssa_query
from tests import reference
from tests.conftest import BLOCKS_INIT, DISPLAY_INIT, ROOMS_INIT
from tests.test_random_domains import _random_domain


def _check_walks(domain, init, init_facts, count, seed):
    workload = random_workload(domain, init, count, seed)
    report = compare_modes(domain, workload=workload)
    for (_, acts, p), record in zip(workload, report.queries):
        facts = init_facts
        for a in acts:
            facts = reference.step(domain, facts, a)
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
                facts = reference.step(domain, facts, a)
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


# What `tests/reference.py` may import from `sitaspect`: data and report
# types, the exception types, the DSL parsers, d (checked against its
# definitions in `tests/test_disjoint.py`) and the soundness lint's bound.
REFERENCE_IMPORTS = {
    "sitaspect.disjoint": {"d_eval"},
    "sitaspect.domain": {"GuardLiteral", "MemberGuard", "StaticAspects", "Var"},
    "sitaspect.errors": {"SchemaError", "SitAspectError"},
    "sitaspect.frames": {"EconomyReport", "FrameAxiom", "SoundnessReport",
                         "SoundnessViolation", "_GUARD_FLUENT_LIMIT"},
    "sitaspect.terms": {"AspectAtom", "AspectPath", "AspectSet", "GroundAction",
                        "GroundFluent"},
}


def _disallowed_imports(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names if alias.name.startswith("sitaspect")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sitaspect"):
            allowed = REFERENCE_IMPORTS.get(node.module, set())
            out += [f"{node.module}.{alias.name}" for alias in node.names
                    if alias.name not in allowed and not (
                        node.module == "sitaspect.dsl" and alias.name.startswith("parse_"))]
    return out


def test_the_reference_imports_only_data_types_the_parsers_and_d():
    source = (Path(__file__).parent / "reference.py").read_text(encoding="utf-8")
    assert _disallowed_imports(source) == []
    assert "import sitaspect" not in source.replace("from sitaspect", "")
    # The check itself catches what it is there to catch.
    assert _disallowed_imports("from sitaspect.domain import Var, _static_rows\n"
                               "from sitaspect.dsl import parse_domain\n"
                               "import sitaspect.frames\n"
                               "from sitaspect import frames\n") == [
        "sitaspect.domain._static_rows", "sitaspect.frames", "sitaspect.frames"]
