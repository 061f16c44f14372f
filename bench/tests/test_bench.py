"""Tests of the benchmark's generators, workloads, checks and tracing.

Run from the repository root with `python -m pytest bench/tests -q`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import gen
import run
import tracing
import workloads
from sitaspect.cli import main
from sitaspect.dsl import parse_model
from sitaspect.validator import verify_theorem


BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


FAMILIES = [
    ("blocks-3", lambda rng: gen.blocks(3, rng)),
    ("blocks-5", lambda rng: gen.blocks(5, rng)),
    ("rooms-2", lambda rng: gen.rooms(2, 2, rng)),
    ("display-4", lambda rng: gen.display(4, 2, rng)),
    ("display-3-comm", lambda rng: gen.display(3, 2, rng, "commutative(computer display)")),
]


@pytest.mark.parametrize("name,make", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_generated_domains_load_under_check(tmp_path, name, make):
    fam = make(random.Random(name))
    path = tmp_path / f"{name}.dom"
    path.write_text(fam.domain_text(), encoding="utf-8")
    code, out = cli(["check", str(path), "--report", "json"])
    assert code == 0
    assert json.loads(out)["report"]["soundness"]["violations"] == []


@pytest.mark.parametrize("name,make", FAMILIES[:4], ids=[f[0] for f in FAMILIES[:4]])
def test_reference_simulators_agree_with_simulate(tmp_path, name, make):
    rng = random.Random(f"walks/{name}")
    fam = make(rng)
    path = tmp_path / f"{name}.dom"
    path.write_text(fam.domain_text(), encoding="utf-8")
    for _ in range(8):
        init = fam.random_state(rng)
        acts, final = gen.random_walk(fam, init, 4, rng)
        code, out = cli(["simulate", str(path), "--init", gen.state_text(init),
                         "--acts", "; ".join(gen.atom_text(a) for a in acts),
                         "--report", "json"])
        assert code == 0
        got = {i["fluent"] for i in json.loads(out)["report"]["final"] if i["value"]}
        assert got == {gen.atom_text(a) for a in final}


def test_fixture_objects_match_the_fixture_domains():
    for fam, name in ((workloads.FIXTURE_BLOCKS, "blocks.dom"),
                      (workloads.FIXTURE_ROOMS, "rooms.dom"),
                      (workloads.FIXTURE_DISPLAY, "display.dom")):
        text = (ROOT / "tests" / "fixtures" / name).read_text(encoding="utf-8")
        objects = [line for line in text.splitlines() if line.startswith("objects")]
        generated = [line for line in fam.domain_text().splitlines()
                     if line.startswith("objects")]
        assert objects == generated


def test_random_models_never_get_a_counterexample():
    rng = random.Random(2024)
    verdicts = set()
    for i in range(20):
        for formalism in gen.FORMALISMS:
            n = rng.randint(3, 6 if formalism.startswith("coll-") else 8)
            text = gen.random_model(rng, formalism, n, i % 2 == 0, f"m{i}")
            verdict = verify_theorem(formalism, parse_model(text)).verdict
            assert verdict != "counterexample", (formalism, text)
            verdicts.add(verdict)
    assert verdicts == {"pass", "vacuous"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_seeded_and_argv_never_repeats(tmp_path, workload):
    make = workloads.ROUNDS[workload]
    a = workloads.Inputs(tmp_path / "a")
    b = workloads.Inputs(tmp_path / "b")
    seen = set()
    for r in range(3):
        jobs_a, jobs_b = make(a, 5, r), make(b, 5, r)
        strip = [[arg.replace(str(tmp_path / "b"), str(tmp_path / "a"))
                  for arg in job.argv] for job in jobs_b]
        assert [job.argv for job in jobs_a] == strip
        for job in jobs_a:
            assert tuple(job.argv) not in seen
            seen.add(tuple(job.argv))
    for path in (tmp_path / "a").iterdir():
        assert path.read_text() == (tmp_path / "b" / path.name).read_text()


@pytest.mark.parametrize("workload", ["lint", "models"])
def test_work_counts_repeat_for_the_same_seed(tmp_path, workload):
    counts = []
    for side in ("a", "b"):
        inputs = workloads.Inputs(tmp_path / side)
        total: dict = {}
        for job in workloads.ROUNDS[workload](inputs, 9, 1):
            code, out = cli(job.argv)
            outcome = workloads.check(job, code, out, "")
            assert outcome.ok, (job.label, outcome.reason)
            for key, value in outcome.counts.items():
                total[key] = total.get(key, 0) + value
        counts.append(total)
    assert counts[0] == counts[1]
    assert counts[0]


def test_checks_name_wrong_outputs():
    job = workloads.Job("query blocks", ["query"], {"answer": "true"})
    envelope = {"report": {"answer": "false", "mode": "ssa"}}
    outcome = workloads.check(job, 0, json.dumps(envelope), "")
    assert not outcome.ok and "expected true" in outcome.reason
    envelope["report"]["mode"] = "aspect"
    envelope["report"]["answer"] = "undefined"
    assert workloads.check(job, 0, json.dumps(envelope), "").ok
    search = workloads.Job("search fun", ["search"])
    report = {"report": {"counterexample_found": True, "exhaustive_models": 1,
                         "exhaustive_premise_models": 1, "random_models": 0,
                         "random_premise_models": 0}}
    assert workloads.check(search, 2, json.dumps(report), "").reason == "counterexample found"
    crash = workloads.check(search, 1, "", "error: boom")
    assert not crash.ok and "boom" in crash.reason
    compare = workloads.Job("compare blocks", ["compare"])
    disagreement = {"report": {"disagreement": "modes disagree on on(a,b)"}}
    outcome = workloads.check(compare, 2, json.dumps(disagreement), "")
    assert not outcome.ok and "on(a,b)" in outcome.reason and outcome.counts == {}
    truncated = workloads.check(compare, 0, json.dumps({"report": {"all_agree": True}}), "")
    assert not truncated.ok and "comparable" in truncated.reason


def test_traced_compare_splits_the_real_compare_modes(tmp_path):
    inputs = workloads.Inputs(tmp_path)
    job = next(j for j in workloads.query_round(inputs, 3, 1)
               if j.label == "compare blocks-5")
    cli_module = run.import_program()
    _, _, plain, _ = run.run_job(cli_module, job.argv)
    tracer = tracing.Tracer()
    pkg = tracing.package_modules()
    originals = {(m, a): getattr(pkg[m], a) for m, a in tracing.COMPARE_PARTS}
    with tracing.patched(tracing.span_targets(tracer, pkg)):
        _, _, traced, _ = run.run_job(cli_module, job.argv)
    assert traced == plain
    by_id = {rec[0]: rec for rec in tracer.spans}
    parents = {}
    for rec in tracer.spans:
        parent = by_id[rec[4]][1] if rec[4] is not None else None
        parents.setdefault(rec[1], set()).add(parent)
    for part in ("frames.derive_frame_axioms", "reiter.compile_ssa",
                 "frames.regress_query", "reiter.ssa_query", "reiter._oracle"):
        assert parents[part] == {"reiter.compare_modes"}, part
    assert "reiter._oracle" in parents["frames.progress"]  # the oracle's chain
    assert {"reiter.random_workload", "dsl.parse_domain"} <= set(parents)
    for (module, attr), fn in originals.items():  # restored
        assert getattr(pkg[module], attr) is fn


def test_count_pass_counts_and_samples_leaf_calls(tmp_path):
    inputs = workloads.Inputs(tmp_path)
    job = next(j for j in workloads.lint_round(inputs, 3, 1) if j.label == "check blocks-3")
    cli_module = run.import_program()
    ratio = {"applicable": 0, "tried": 0}
    pkg = tracing.package_modules()
    targets, leaves = tracing.count_targets(pkg, 0, ratio)
    with tracing.patched(targets):
        run.run_job(cli_module, job.argv)
    assert leaves["state.build_state"].calls > 0
    assert leaves["disjoint.d_eval"].calls > 0
    assert 0 < len(leaves["state.eval_fluent"].samples) <= tracing.SAMPLES_PER_LEAF
    # blocks-3 is not commutative, so canonicalize is never called: no
    # samples, nothing probed, and its metric reports 0.
    assert leaves["disjoint.canonicalize"].calls == 0
    assert not leaves["disjoint.canonicalize"].samples
    tracer = tracing.Tracer()
    assert tracing.probe(tracer, leaves) == []
    stats = tracing.span_stats(tracer.spans)
    assert stats["probe.state.build_state"]["calls"] >= len(leaves["state.build_state"].samples)


def test_self_time_subtracts_child_coverage():
    spans = [[0, "root", 0, 100, None, 1, 1],
             [1, "a", 10, 30, 0, 1, 1],
             [2, "b", 20, 50, 0, 1, 1],   # overlaps a: coverage is 10..50
             [3, "c", 60, 70, 0, 1, 1],
             [4, "d", 62, 65, 3, 1, 1]]
    stats = tracing.span_stats(spans)
    assert stats["root"]["self_ns"] == 100 - 40 - 10
    assert stats["c"]["self_ns"] == 7
    assert stats["a"]["total_ns"] == 20


def test_times_scale_with_the_calibration_loop():
    ref = run.CALIBRATION_REF_S
    assert run.scale(0.010, ref, ref) == pytest.approx(0.010)
    # A machine running the loop 1.6x slower throughout runs the job 1.6x slower.
    assert run.scale(0.016, 1.6 * ref, 1.6 * ref) == pytest.approx(0.010)
    # The speed is taken as the mean of the loop times before and after the job.
    assert run.scale(0.015, ref, 2 * ref) == pytest.approx(0.010)
    r = run.Run("models", 3, trace=False)
    assert 0 < r.calibrate() < 1 and r.calibrations == [r.calibrations[-1]]


def test_verdicts():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert run.verdict(base, [v * 0.7 for v in base], "higher", 0.1) == "worse"
    assert run.verdict(base, [v * 1.3 for v in base], "higher", 0.1) == "better"
    assert run.verdict(base, list(base), "higher", 0.1) == "unchanged"
    assert run.verdict(base, [v * 1.05 for v in base], "higher", 0.1) == "unchanged"
    noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert run.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert run.verdict(base, [v * 0.8 for v in noisy], "lower", 0.1) == "unresolved"
    assert run.verdict(base, [v * 0.5 for v in noisy], "lower", 0.1) == "better"


def test_compare_refuses_runs_whose_work_changed(tmp_path, capsys):
    def write(directory, name, rounds):
        directory.mkdir(exist_ok=True)
        metrics = {"jobs_per_s": {"value": 10.0, "unit": "1/s"}}
        (directory / name).write_text(json.dumps({
            "workload": "query", "seed": 3, "trace": 0, "metrics": metrics,
            "work_counts": {"per_round": rounds}}))

    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "1.json", [{"compare.comparable": 30}, {"compare.comparable": 29}])
    write(b, "1.json", [{"compare.comparable": 30}])  # fewer rounds, same work
    assert run.work_changes([a, b]) == []
    write(b, "2.json", [{"compare.comparable": 30}, {"compare.comparable": 20}])
    assert run.compare(str(a), str(b)) == 1
    assert "compare.comparable 29 -> 20" in capsys.readouterr().out


def test_benchmark_json_matches_the_layer_map():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    layers = tracing.load_layers(BENCH)
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in layers]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    known = end_to_end | {"queries_per_s", "valuations_per_s", "models_per_s"}
    for m in layers:
        assert set(m["moves"]) <= known, m["name"]
        assert set(m["on"]) | set(m["still_on"]) <= set(workloads.WORKLOADS)
