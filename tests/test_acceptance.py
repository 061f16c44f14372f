"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; budgets are asserted where a criterion pins a runtime.
"""

from __future__ import annotations

import json
import time

from sitaspect.cli import main
from sitaspect.disjoint import SeqExistsDiff, d_eval
from sitaspect.domain import ground_fluents
from sitaspect.dsl import parse_domain, parse_state, unparse_domain
from sitaspect.frames import (
    applicable_actions,
    aspect_of_action,
    aspect_of_fluent,
    derive_frame_axioms,
    persistence_proof,
    progress,
    progression,
)
from sitaspect.reiter import compare_modes, compile_ssa, random_workload, ssa_query
from sitaspect.search import reproduce_commutative_pitfall, search_counterexample
from sitaspect.state import eval_fluent
from sitaspect.terms import action, fluent, path
from sitaspect.validator import FORMALISMS, check_premises, verify_theorem
from tests.conftest import (
    BLOCKS_INIT,
    DISPLAY_INIT,
    FIXTURES,
    ROOMS_INIT,
    fixture_text,
    load_domain,
    load_model,
    reachable_states,
)
from tests.planted import FACTORIZATION, STABILITY, make_model


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_blocks_frame_axioms(capsys):
    start = time.time()
    code = main(["frames", str(FIXTURES / "blocks.dom")])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    golden = (FIXTURES / "frames_blocks.golden").read_text(encoding="utf-8")
    assert code == 0
    assert out == golden
    # The guarded schema shapes: conditions w!=y, w!=z and guard on(x,z),
    # for both the clear and the on fluents.
    assert ("w != y & w != z & on(x,z) & holds(clear(w), s)"
            " -> holds(clear(w), do(move(x,y), s))") in out
    assert ("v != y & v != z & on(x,z) & holds(on(w,v), s)"
            " -> holds(on(w,v), do(move(x,y), s))") in out
    assert elapsed < 1.0
    with capsys.disabled():
        _ok(1, f"blocks frame axioms match the golden file ({elapsed:.2f}s)")


def test_criterion_02_binary_tree_disjointness(capsys):
    spec = SeqExistsDiff()
    assert d_eval(spec, path("0", "1", "0"), path("1", "1")) is True
    assert d_eval(spec, path("1", "1", "0"), path("1", "1")) is False
    with capsys.disabled():
        _ok(2, "binary-tree disjointness decides (0,1,0)/(1,1) and (1,1,0)/(1,1)")


def test_criterion_03_axiom_economy(capsys):
    economy = load_domain("economy.dom")
    derivation = derive_frame_axioms(economy)
    assert len(derivation.economy) == 1
    report = derivation.economy[0]
    assert report.m == 5 and report.n == 7
    assert report.derived_frame_axioms == 35
    assert report.source_axioms == 14
    assert len(compile_ssa(economy)) == 5
    with capsys.disabled():
        _ok(3, "35 frame axioms from 14 source axioms; 5 successor state axioms")


SWEEP_FIXTURES = [("blocks.dom", BLOCKS_INIT), ("rooms.dom", ROOMS_INIT),
                  ("display.dom", DISPLAY_INIT)]


def test_criterion_04_noninterference_sweep(capsys):
    start = time.time()
    total_checked = 0
    for name, init_text in SWEEP_FIXTURES:
        domain = load_domain(name)
        init = parse_state(init_text, domain)
        fluents = ground_fluents(domain)
        for state in reachable_states(domain, init, 4):
            aspects = {p: aspect_of_fluent(domain, state, p) for p in fluents}
            for a in applicable_actions(domain, state):
                beta = aspect_of_action(domain, state, a)
                after = progress(domain, state, a)
                for p in fluents:
                    if d_eval(domain.disjointness, aspects[p], beta):
                        total_checked += 1
                        assert eval_fluent(after, p) == eval_fluent(state, p), \
                            f"{name}: {a} changed disjoint {p}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(4, f"zero violations over {total_checked} disjoint pairs "
               f"({elapsed:.1f}s)")


def test_criterion_05_mode_equivalence(capsys):
    start = time.time()
    total = 0
    for name, init_text in SWEEP_FIXTURES:
        domain = load_domain(name)
        init = parse_state(init_text, domain)
        workload = random_workload(domain, init, 500, seed=2024)
        report = compare_modes(domain, workload=workload)  # raises on mismatch
        assert report.all_agree
        total += len(report.queries)
    elapsed = time.time() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(5, f"{total} seeded queries agree across aspect, SSA, and oracle "
               f"modes ({elapsed:.1f}s)")


def test_criterion_06_theorem_corroboration(capsys):
    start = time.time()
    for formalism in FORMALISMS:
        result = search_counterexample(formalism, max_situations=4, seed=7,
                                       random_samples=10000)
        assert result.counterexample is None, formalism
        assert result.exhaustive_premise_models > 0
    # Planted violations: one per premise axiom per formalism, all located.
    for formalism in FORMALISMS:
        for corruption, axiom in ((STABILITY, "component-stability"),
                                  (FACTORIZATION, "fluent-factorization")):
            report = check_premises(make_model(formalism, corrupt=corruption),
                                    formalism)
            assert axiom in {c.axiom for c in report.checks if not c.holds}, \
                (formalism, corruption)
    elapsed = time.time() - start
    assert elapsed < 300.0
    with capsys.disabled():
        _ok(6, f"no counterexample in 13 formalism variants; all 26 planted "
               f"violations detected ({elapsed:.1f}s)")


def test_criterion_07_worked_model_verdicts(capsys):
    cases = [("heater.model", "rel-exists"),
             ("heater_all.model", "rel-forall"),
             ("university.model", "coll-rel-exists"),
             ("university.model", "coll-fun")]
    for model_name, formalism in cases:
        verdict = verify_theorem(formalism, load_model(model_name))
        assert verdict.verdict == "pass", (model_name, formalism,
                                           verdict.premises)
    with capsys.disabled():
        _ok(7, "heater and university models pass their formalisms, never vacuous")


def test_criterion_08_commutativity_pitfall(capsys):
    start = time.time()
    report = reproduce_commutative_pitfall(seed=7)
    elapsed = time.time() - start
    assert report.first.effect_free_everywhere
    assert report.first.commuting_pairs > 0
    assert report.second.premises_hold
    assert report.second.commutativity_holds
    assert report.second.changed_fluent == "p01"
    assert not report.second.naive_premises_hold
    assert report.corrected_d_rejects_swap
    assert report.reproduced
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(8, f"both halves of the commutativity trap reproduced "
               f"({elapsed:.1f}s)")


def test_criterion_09_trace_economy(capsys):
    cases = [
        ("blocks.dom", BLOCKS_INIT, action("move", "a", "b"), fluent("clear", "c")),
        ("blocks.dom", BLOCKS_INIT, action("move", "a", "b"), fluent("on", "c", "c")),
        ("rooms.dom", ROOMS_INIT, action("move", "a", "b"), fluent("clear", "c")),
        ("display.dom", DISPLAY_INIT, action("light_pixels", {"p1"}),
         fluent("pixel_lit", "p2")),
    ]
    for name, init_text, act, p in cases:
        domain = load_domain(name)
        init = parse_state(init_text, domain)
        trace = persistence_proof(domain, init, act, p, mode="aspect")
        assert len(trace) == 4, (name, act, p)
        ssas = compile_ssa(domain)
        value, ssa_trace = ssa_query(ssas, progression(domain, init, [act]), [act], p)
        gamma_minus = len(ssas.axioms[p.schema].gamma_minus)
        assert len(ssa_trace) == 1 + gamma_minus, (name, act, p)
        assert value is eval_fluent(init, p)
    with capsys.disabled():
        _ok(9, "aspect persistence is 4 steps; SSA persistence is "
               "1 + |gamma-minus| per fixture domain")


def test_criterion_10_roundtrip_and_determinism(capsys):
    for name in ("blocks.dom", "blocks_nosupport.dom", "rooms.dom",
                 "display.dom", "economy.dom"):
        first = parse_domain(fixture_text(name), file=name)
        text = unparse_domain(first)
        second = parse_domain(text, file=name)
        assert second == first
        assert unparse_domain(second) == text
    outputs = []
    for _ in range(2):
        code = main(["search", "seq-modal-box", "--report", "json",
                     "--max-situations", "2", "--seed", "13",
                     "--random-samples", "500"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["seed"] == 13
    # Byte-identity must survive fresh interpreters with different hash seeds.
    import os
    import subprocess
    import sys

    import sitaspect

    # The fresh interpreters import the same source tree as this test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitaspect.__file__)))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = []
    for hashseed in ("1", "77"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "sitaspect.cli", "search", "seq-modal-box",
             "--report", "json", "--max-situations", "2", "--seed", "13",
             "--random-samples", "500"],
            capture_output=True, env=env, check=True)
        runs.append(proc.stdout)
    assert runs[0] == runs[1] == outputs[0].encode()
    with capsys.disabled():
        _ok(10, "parse/unparse fixpoint on all fixtures; JSON reports are "
                "byte-identical per seed, across fresh interpreters")
