"""Progression and all three query modes against `tests/reference.py`.

The reference keeps a state as the set of true ground atoms. It grounds
preconditions and effect guards by enumerating every variable over its
whole sort, and applies an action's deletes, then its adds. It reads no
`WorldState` and calls none of the guard solver, `eval_fluent`,
`with_fluent` or `progress`, so a bug in those shows up as a mismatch.
The walks run on the fixtures and on the domains of `tests/domains.py`.
The last tests pin the names the reference may import from `sitaspect`,
and that no test module imports another.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from sitaspect.dsl import parse_actions, parse_domain, parse_ground_fluent, parse_state
from sitaspect.frames import (ASPECT_LOOKUP, check_aspect_soundness, progression,
                              regress_query)
from sitaspect.reiter import _oracle, compare_modes, compile_ssa, random_workload, ssa_query
from tests import reference
from tests.conftest import BLOCKS_INIT, DISPLAY_INIT, ROOMS_INIT


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
    pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    from tests.domains import domain_states, examples

    @examples(20, domain_states("propositional"), st.integers(0, 2 ** 32))
    def check(case, seed):
        _check_walks(*case, 20, seed)

    check()


def test_generated_domain_walks_match_the_reference():
    # The generated aspects need not be sound, so an aspect answer that
    # differs from the reference must be a violation the soundness lint
    # reports for the query's fluent and an action of the walk. A step whose
    # aspect does not resolve is recorded as an aspect lookup and falls
    # through to the effects and the declared frame axioms.
    pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    from tests.domains import LINT, SPECS, domain_states, examples, features

    seen = Counter()

    def walk(case, seed):
        domain, init, true = case
        ssas = compile_ssa(domain)
        found = features(domain)
        report = None
        for _, acts, p in random_workload(domain, init, 10, seed):
            facts = true
            for a in acts:
                facts = reference.step(domain, facts, a)
                assert facts is not None, (acts, a)
            oracle_value, states = _oracle(domain, init, acts, p)
            assert {f for f, value, _ in states[-1].fluents() if value} == facts, acts
            truth = p in facts
            assert oracle_value is truth, (acts, p)
            assert ssa_query(ssas, states, acts, p)[0] is truth, (acts, p)
            seen[f"walk of {len(acts)}"] += 1
            aspect_value, trace = regress_query(domain, states, acts, p)
            seen["aspect-lookup"] += [s.kind for s in trace.steps].count(ASPECT_LOOKUP)
            if not isinstance(aspect_value, bool):
                seen["undefined aspect answer"] += 1
            elif aspect_value is truth:
                seen["aspect answer"] += 1
            else:
                report = report or check_aspect_soundness(domain)
                assert any(v.fluent == p and v.action in acts
                           for v in report.violations), (acts, p)
                seen["unsound aspect answer"] += 1
        seen.update(found)

    # A quarter of the examples under each spec.
    for spec in SPECS:
        examples(25, domain_states(*LINT, "negation before its binder in an effect", "home", spec),
                 st.integers(0, 2 ** 32))(walk)()
    for feature in ("negated existential", "negation before its binder",
                    "negation before its binder in an effect", "member guard",
                    "set-valued parameter", "aspect-lookup", "undefined aspect answer",
                    "walk of 4", "named by rule", "home", *SPECS):
        assert seen[feature] >= 10, seen
    assert seen["aspect answer"] >= 100 and seen["unsound aspect answer"], seen


# mark(z)'s effect reads !on(z,y) before mark(z) binds z: a negated
# existential, false once some object is on y.
BEFORE_BINDER = """domain before
objects obj: a, b
fluent on(obj, obj)
fluent mark(obj)
action move(obj, obj)
aspect on(u,v) (v)
aspect mark(u) (u)
aspect move(x,y) (x)
effect move(x,y) add on(x,y)
effect move(x,y) del mark(a)
effect move(x,y) add mark(z) if !on(z,y) & mark(z)
disjoint by seq-diff
"""


def test_the_ssa_reads_a_negation_before_its_binder_as_progression_does():
    # The second move(b,a) finds on(b,a): mark(a) is deleted and not added back.
    domain = parse_domain(BEFORE_BINDER)
    acts = parse_actions("move(b,a); move(b,a)", domain)
    p = parse_ground_fluent("mark(a)", domain)
    oracle_value, states = _oracle(domain, parse_state("mark(a)", domain), acts, p)
    facts = reference.step(domain, reference.step(domain, frozenset({p}), acts[0]), acts[1])
    assert oracle_value is (p in facts) is False
    assert ssa_query(compile_ssa(domain), states, acts, p)[0] is False


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


def _imports(source: str) -> list[str]:
    """What `source` imports: `a.b` for `import a.b` and `from a import b`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            out += [f"{node.module}.{alias.name}" for alias in node.names]
    return out


def _disallowed_imports(source: str) -> list[str]:
    out = []
    for name in _imports(source):
        module, _, attr = name.rpartition(".")
        if name.startswith("sitaspect") and attr not in REFERENCE_IMPORTS.get(module, ()) \
                and not name.startswith("sitaspect.dsl.parse_"):
            out.append(name)
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


def _test_modules(source: str) -> list[str]:
    return [name for name in _imports(source) if name.startswith("tests.test_")]


def test_no_test_module_imports_another():
    # What tests share lives in `tests/conftest.py`, `tests/reference.py`
    # and `tests/domains.py`.
    found = {path.name: _test_modules(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}
    assert _test_modules("from tests import reference, test_dsl\nimport tests.test_cli\n") == [
        "tests.test_dsl", "tests.test_cli"]
