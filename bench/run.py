"""sitaspect benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run one workload (from the repository root), or all three one after another
with `--workload all`:

    python3 bench/run.py --workload query|lint|models --seed N --seconds S --trace 0|1

Each job is one `sitaspect.cli.main(argv)` call made in this process, so
interpreter start-up is not timed. Jobs run one after another (a closed loop
with one client), in whole rounds, until the measured job time reaches
`--seconds` (by default BENCHMARK.json's `run_seconds`). Every job's output
is checked; the run exits non-zero when any check fails. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: with `--trace 0` the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics (see tracing.py for how the traced run
measures them).

Every time the benchmark reports is scaled to a fixed machine speed. On a
shared host the core this process gets slows down at times by 1.5-1.8x, for
seconds to minutes, and that moves every timing of a run together. So a
fixed pure-Python loop that shares no code with the program (`calibrate`)
is timed after set-up and after every job, and each job or set-up time is
multiplied by CALIBRATION_REF_S over the mean of the loop times measured
just before and just after it: the time the job would take on a machine
where the loop takes CALIBRATION_REF_S. A change to the program moves its
job times and not the loop's. The unscaled figures and the loop times are
kept in the run's result file and printed with the metrics.

Each run also writes its full result to `.bench_out/runs/`. Compare two sets
of such results against the bounds in BENCHMARK.json with

    python3 bench/run.py --compare DIR_A DIR_B

which first checks that runs of the same workload and seed did the same work
(their per-round work counts), and gives no verdict and exits 1 if they did
not. Re-record the report digests of the default seed (after a deliberate
change of the program's reports) with

    python3 bench/run.py --record-digests
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_JOBS = 110            # leaves at least 10 samples beyond p90
RECORD_ROUNDS = 60
EXTRA_WALL_SECONDS = 60   # past --seconds, no new round starts
CALIBRATION_REF_S = 140e-6  # about the calibration loop's time at full speed
CALIBRATION_WARMUP = 50

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# The workload's own unit of work, reported as work_per_s.
WORK_UNIT = {
    "query": ("queries_per_s", "compare", ("queries",)),
    "lint": ("valuations_per_s", "check", ("valuations_checked",)),
    "models": ("models_per_s", "search", ("exhaustive_models", "random_models")),
}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import sitaspect from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sitaspect" / "cli.py").is_file():
        fail_setup(f"no program sources at {src}")
    if not (ROOT / "tests" / "fixtures").is_dir():
        fail_setup("no tests/fixtures in this checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "sitaspect" or m.startswith("sitaspect.")]:
        del sys.modules[name]
    cli = importlib.import_module("sitaspect.cli")
    if Path(cli.__file__).resolve().parent != (src / "sitaspect").resolve():
        fail_setup(f"imported sitaspect from {cli.__file__}, not from {src}")
    return cli


def run_job(cli, argv: list[str]):
    """(exit code, seconds, stdout, stderr) of one in-process invocation.

    The garbage of earlier jobs is collected first and the cyclic collector
    stays off while the job runs, so that no job pays for another's garbage
    and a job's time does not depend on when a collection happens to fall.
    With the collector off, everything a job allocates stays in the youngest
    generation, so collecting that generation frees the job's garbage without
    scanning the long-lived heap.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect(0)
    gc.disable()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed job, reported with its traceback
                code = -1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return code, elapsed, out.getvalue(), err.getvalue()


def _calibration_loop(n: int = 300):
    """Dict, tuple, frozenset and string work like the program's own mix."""
    counts: dict = {}
    keys = []
    for i in range(n):
        key = (i & 31, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i & 3:
            keys.append(frozenset((key, i & 15)))
    size = 0
    for k in keys:
        size += len(k)
    return ",".join(str(v) for v in sorted(counts.values())), size


def calibrate() -> float:
    """Seconds the calibration loop takes now: the fastest of three runs, so
    that an interrupt in one does not count, with the collector off."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def load_digests() -> dict:
    path = BENCH / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


class Run:
    """One measured run of a workload."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.durations: list[float] = []   # job times, scaled to CALIBRATION_REF_S
        self.round_s: list[float] = []     # scaled job time per round
        self.raw_durations: list[float] = []
        self.raw_round_s: list[float] = []
        self.calibrations: list[float] = []
        self.round_jobs: list[int] = []
        self.label_s: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.setup_failures: list[str] = []
        self.attempted = 0
        self.round_counts: list[dict] = []
        recorded = load_digests().get(workload, []) if seed == DEFAULT_SEED else []
        self.recorded = [row.split() for row in recorded]
        self.digest_checked = 0
        self.tracer = tracing.Tracer() if trace else None
        self.leaf_calls: dict[str, int] = {}
        self.ratio = {"applicable": 0, "tried": 0}
        self.plain_s = 0.0
        self.spanned_s = 0.0
        self.probe_failures: list[str] = []

    def calibrate(self) -> float:
        self.calibrations.append(calibrate())
        return self.calibrations[-1]

    def execute(self, cli, job: workloads.Job, r: int, i: int) -> float:
        """Run and check one job; returns the unscaled time it counts for."""
        before = self.calibrations[-1]
        code, elapsed, out, err = run_job(cli, job.argv)
        scaled = scale(elapsed, before, self.calibrate())
        outcome = workloads.check(job, code, out, err)
        reason = outcome.reason
        if not reason and r < len(self.recorded) and i < len(self.recorded[r]):
            self.digest_checked += 1
            if outcome.digest[:8] != self.recorded[r][i]:
                reason = "report digest differs from the recorded one"
        counted = elapsed
        if self.trace and not reason:
            counted, reason = self._traced(cli, job, out, elapsed)
        self.attempted += 1
        self.durations.append(scaled)
        self.raw_durations.append(elapsed)
        self.round_s[-1] += scaled
        self.raw_round_s[-1] += elapsed
        self.round_jobs[-1] += 1
        self.label_s.setdefault(job.label, []).append(scaled)
        counts = self.round_counts[-1]
        for key, value in outcome.counts.items():
            counts[f"{job.argv[0]}.{key}"] = counts.get(f"{job.argv[0]}.{key}", 0) + value
        if reason:
            self.failures.append(f"round {r} job {i} [{job.label}] "
                                 f"{' '.join(job.argv)}: {reason}")
        return counted

    def _traced(self, cli, job, plain_out: str, plain_s: float):
        """Span, count and probe passes over one job that passed its check."""
        pkg = tracing.package_modules()
        tracer = self.tracer
        tracer.job = self.attempted
        start = time.perf_counter()
        first_span = len(tracer.spans)
        with tracing.patched(tracing.span_targets(tracer, pkg)):
            with tracer.span("cli.main") as root:
                out = run_job(cli, job.argv)[2]
        reason = "" if out == plain_out else "the traced run changed the report"
        # Overhead: the spanned run against a second untraced run, both warm,
        # leaving out the extra exhaustive search the split adds.
        extra_ns = sum(rec[3] - rec[2] for rec in tracer.spans[first_span:]
                       if rec[1] == "search.exhaustive")
        self.spanned_s += (root[3] - root[2] - extra_ns) / 1e9
        self.plain_s += run_job(cli, job.argv)[1]
        targets, leaves = tracing.count_targets(pkg, self.attempted, self.ratio)
        with tracing.patched(targets):
            run_job(cli, job.argv)
        self.probe_failures += tracing.probe(tracer, leaves)
        for name, leaf in leaves.items():
            self.leaf_calls[name] = self.leaf_calls.get(name, 0) + leaf.calls
        return time.perf_counter() - start + plain_s, reason


def setup(workload: str, seed: int, workdir: Path, run: Run):
    """Import the program, generate round 0 and warm up; returns the CLI
    module, the inputs, round 0's jobs and the seconds this took, unscaled
    and scaled to the reference speed."""
    gc.collect()
    before = run.calibrate()
    start = time.perf_counter()
    cli = import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.Inputs(workdir)
    first = workloads.ROUNDS[workload](inputs, seed, 0)
    for job in workloads.warmup_jobs(workload, inputs):
        code, _, out, err = run_job(cli, job.argv)
        outcome = workloads.check(job, code, out, err)
        if not outcome.ok:
            run.setup_failures.append(f"warm-up [{job.label}] "
                                      f"{' '.join(job.argv)}: {outcome.reason}")
    took = time.perf_counter() - start
    return cli, inputs, first, (took, scale(took, before, run.calibrate()))


def measure(args) -> int:
    os.chdir(ROOT)
    workload, seed = args.workload, args.seed
    run = Run(workload, seed, bool(args.trace))
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    spare = workdir.with_name(workdir.name + "-setup")
    for _ in range(CALIBRATION_WARMUP):
        calibrate()
    try:
        cli, inputs, jobs, took = setup(workload, seed, workdir, run)
        setup_times = [took]
        measured = 0.0
        wall_start = time.perf_counter()
        r = 0
        while True:
            if r:
                jobs = workloads.ROUNDS[workload](inputs, seed, r)
            run.round_counts.append({})
            run.round_s.append(0.0)
            run.raw_round_s.append(0.0)
            run.round_jobs.append(0)
            for i, job in enumerate(jobs):
                measured += run.execute(cli, job, r, i)
            r += 1
            # The set-up is repeated, in a spare directory, at even steps of
            # the measured time, so that its median samples the machine over
            # the whole run as the rounds do. Later jobs use the re-imported
            # program, which that set-up has warmed up.
            if len(setup_times) * args.seconds < SETUP_REPEATS * min(measured, args.seconds):
                cli, _, _, took = setup(workload, seed, spare, run)
                setup_times.append(took)
            if measured >= args.seconds and (args.trace or run.attempted >= MIN_JOBS):
                break
            if time.perf_counter() - wall_start > args.seconds + EXTRA_WALL_SECONDS:
                break
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup(workload, seed, spare, run)[3])
    finally:
        shutil.rmtree(spare, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    result = summarize(run, setup_times, measured, r, args)
    out_dir = ROOT / ".bench_out"
    stamp = f"{workload}-s{seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    (out_dir / "runs" / f"{stamp}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if run.tracer:
        run.tracer.write(out_dir / "spans" / f"{stamp}.jsonl")
    print_human(result)
    correct = not run.failures and not run.setup_failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": result["metrics"]}))
    return 0 if correct else 1


def summarize(run: Run, setup_times, measured: float, rounds: int, args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    durations = sorted(run.durations)
    totals: dict = {}
    for counts in run.round_counts:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    alias = WORK_UNIT[run.workload][0]
    end_to_end = end_to_end_metrics(run, run.durations, run.round_s,
                                    [scaled for _, scaled in setup_times])
    unscaled = end_to_end_metrics(run, run.raw_durations, run.raw_round_s,
                                  [raw for raw, _ in setup_times])
    cal = statistics.quantiles(run.calibrations, n=4)
    result = {
        "workload": run.workload, "seed": run.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds, "measured_s": measured,
        "attempted": run.attempted, "failed": len(run.failures),
        "failures": run.setup_failures + run.failures,
        "failed_ratio": len(run.failures) / run.attempted,
        "samples": len(durations),
        "beyond_p90": sum(d > percentile(durations, 0.90) for d in durations),
        "setup_times_s": [scaled for _, scaled in setup_times],
        "work_alias": alias,
        "digest_checked": run.digest_checked,
        "work_counts": {"round0": run.round_counts[0], "all_rounds": totals,
                        "per_round": run.round_counts},
        "end_to_end": end_to_end,
        "unscaled_end_to_end": unscaled,
        "calibration_us": {"reference": CALIBRATION_REF_S * 1e6,
                           "samples": len(run.calibrations),
                           "q1": cal[0] * 1e6, "median": cal[1] * 1e6,
                           "q3": cal[2] * 1e6, "min": min(run.calibrations) * 1e6,
                           "max": max(run.calibrations) * 1e6},
        "jobs_by_label": {label: {"count": len(v), "total_ms": sum(v) * 1e3,
                                  "median_ms": statistics.median(v) * 1e3}
                          for label, v in sorted(run.label_s.items())},
    }
    if run.tracer:
        stats = tracing.span_stats(run.tracer.spans)
        search_full = stats.get("search.search_counterexample")
        search_ex = stats.get("search.exhaustive")
        models = sum(totals.get(f"search.{k}", 0) for k in ("exhaustive_models", "random_models"))
        premise = sum(totals.get(f"search.{k}", 0)
                      for k in ("exhaustive_premise_models", "random_premise_models"))
        extra = {
            "leaf_calls": run.leaf_calls,
            "frames.applicable_ratio": (run.ratio["applicable"] / run.ratio["tried"]
                                        if run.ratio["tried"] else 0.0),
            "search.random_ms": ((search_full["total_ns"] - search_ex["total_ns"])
                                 / search_full["count"] / 1e6 if search_full else 0.0),
            "search.premise_ratio": premise / models if models else 0.0,
            "trace.overhead_pct": (100.0 * (run.spanned_s / run.plain_s - 1)
                                   if run.plain_s else 0.0),
        }
        values, table = tracing.layer_metrics(tracing.load_layers(BENCH), stats, extra)
        result["layers"] = table
        result["probe_failures"] = run.probe_failures
        result["trace_overhead"] = {"untraced_s": run.plain_s, "traced_s": run.spanned_s}
        result["metrics"] = {name: {"value": v, "unit": units[name]}
                             for name, v in values.items()}
    else:
        result["metrics"] = {name: {"value": v, "unit": units[name]}
                             for name, v in end_to_end.items()}
    return result


def end_to_end_metrics(run: Run, durations, round_s, setup_times) -> dict:
    """The end-to-end metrics from one set of job, round and set-up times."""
    _, command, keys = WORK_UNIT[run.workload]
    durations = sorted(durations)
    # Rates are medians over rounds; round 0 holds the extra fixture jobs and
    # counts only when it is the only round.
    rate_rounds = range(1, len(round_s)) if len(round_s) > 1 else range(1)
    job_rates = [run.round_jobs[r] / round_s[r] for r in rate_rounds]
    work_rates = [sum(run.round_counts[r].get(f"{command}.{k}", 0) for k in keys)
                  / round_s[r] for r in rate_rounds]
    return {
        "jobs_per_s": statistics.median(job_rates),
        "job_p50_ms": percentile(durations, 0.50) * 1e3,
        "job_p90_ms": percentile(durations, 0.90) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_s": statistics.median(work_rates),
    }


def print_human(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"rounds {res['rounds']}  jobs {res['attempted']} ({res['failed']} failed)  "
          f"measured {res['measured_s']:.2f} s  digests checked {res['digest_checked']}")
    for failure in res["failures"][:20]:
        print(f"  FAILED {failure}")
    e, u = res["end_to_end"], res["unscaled_end_to_end"]
    n = res["samples"]
    cal = res["calibration_us"]
    print(f"  calibration loop: median {cal['median']:.1f} us "
          f"(q1 {cal['q1']:.1f}, q3 {cal['q3']:.1f}, min {cal['min']:.1f}, "
          f"max {cal['max']:.1f}; {cal['samples']} samples), "
          f"times scaled to {cal['reference']:.1f} us")
    if not res["trace"]:
        print(f"  {'metric':15} {'scaled':>12} {'unscaled':>12}")
        print(f"  jobs_per_s      {e['jobs_per_s']:12.4f} {u['jobs_per_s']:12.4f} 1/s")
        print(f"  job_p50_ms      {e['job_p50_ms']:12.4f} {u['job_p50_ms']:12.4f} ms   "
              f"({n} samples)")
        print(f"  job_p90_ms      {e['job_p90_ms']:12.4f} {u['job_p90_ms']:12.4f} ms   "
              f"({n} samples, {res['beyond_p90']} beyond p90)")
        print(f"  failed_ratio    {res['failed_ratio']:12.4f} {'':12}      "
              f"({res['failed']} of {res['attempted']})")
        print(f"  setup_s         {e['setup_s']:12.4f} {u['setup_s']:12.4f} s    "
              f"(median of {len(res['setup_times_s'])})")
        print(f"  peak_rss_mb     {e['peak_rss_mb']:12.4f} {'':12} MB")
        print(f"  {res['work_alias']:<15} {e['work_per_s']:12.4f} {u['work_per_s']:12.4f} "
              f"1/s  (work_per_s)")
    else:
        over = res["trace_overhead"]
        print(f"  tracing overhead: traced {over['traced_s']:.3f} s against "
              f"untraced {over['untraced_s']:.3f} s for the same jobs")
        print(f"  {'metric':34} {'value':>12} {'unit':5} {'calls':>9} "
              f"{'total_ms':>10} {'self_ms':>10}  source")
        for row in res["layers"]:
            print(f"  {row['name']:34} {row['value']:12.4f} {row['unit']:5} "
                  f"{row.get('calls', ''):>9} "
                  f"{row.get('total_ms', float('nan')):10.2f} "
                  f"{row.get('self_ms', float('nan')):10.2f}  {row['source']}")
        for failure in res["probe_failures"][:10]:
            print(f"  probe failed: {failure}")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(res["work_counts"]["round0"].items()))
    print(f"  work counts, round 0: {counts}")
    counts = ", ".join(f"{k}={v}" for k, v in
                       sorted(res["work_counts"]["all_rounds"].items()))
    print(f"  work counts, all {res['rounds']} rounds: {counts}")


# ---------------------------------------------------------------------------
# Recording digests and comparing result sets
# ---------------------------------------------------------------------------

def record_digests() -> int:
    """Digests of every job's report for the first rounds of the default seed."""
    os.chdir(ROOT)
    cli = import_program()
    out: dict = {}
    for workload in workloads.WORKLOADS:
        workdir = ROOT / ".bench_work" / f"record-{workload}-{os.getpid()}"
        inputs = workloads.Inputs(workdir)
        rows = []
        try:
            for r in range(RECORD_ROUNDS):
                row = []
                for job in workloads.ROUNDS[workload](inputs, DEFAULT_SEED, r):
                    code, _, text, err = run_job(cli, job.argv)
                    outcome = workloads.check(job, code, text, err)
                    if not outcome.ok:
                        print(f"{workload} round {r} [{job.label}]: {outcome.reason}",
                              file=sys.stderr)
                        return 1
                    row.append(outcome.digest[:8])
                rows.append(" ".join(row))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[workload] = rows
        print(f"{workload}: {RECORD_ROUNDS} rounds recorded")
    (BENCH / "digests.json").write_text(json.dumps(out, indent=0) + "\n",
                                        encoding="utf-8")
    return 0


def compare(dir_a: str, dir_b: str) -> int:
    """Verdicts per workload and metric for the runs in dir_b against dir_a.

    Runs of the same workload and seed must have done the same work in every
    round both reached; if any did not, no verdict is given and the exit code
    is 1, since a change that skips work is not a speed-up.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirs = [Path(dir_a), Path(dir_b)]
    changes = work_changes(dirs)
    if changes:
        for line in changes[:20]:
            print(f"work changed: {line}")
        print(f"work changed in {len(changes)} run(s); no verdicts given")
        return 1
    sets = [_load_results(d) for d in dirs]
    print(f"{'workload':8} {'metric':12} {'A median':>12} {'A q1..q3':>23} "
          f"{'B median':>12} {'B q1..q3':>23} {'change':>8}  verdict (bound)")
    for workload in workloads.WORKLOADS:
        for spec in bench["end_to_end"]:
            a = sets[0].get(workload, {}).get(spec["name"], [])
            b = sets[1].get(workload, {}).get(spec["name"], [])
            if len(a) < 2 or len(b) < 2:
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            ma, mb = statistics.median(a), statistics.median(b)
            word = verdict(a, b, spec["better"], spec["bound"])
            print(f"{workload:8} {spec['name']:12} {ma:12.4f} "
                  f"{qa[0]:11.4f}..{qa[2]:<10.4f} {mb:12.4f} "
                  f"{qb[0]:11.4f}..{qb[2]:<10.4f} {(mb - ma) / ma:+8.1%}  "
                  f"{word} ({spec['bound']:.0%})")
    return 0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """better, worse, unchanged or unresolved, for runs b against runs a.

    A change counts only beyond the metric's bound. When either set spreads
    (IQR over median) wider than the bound, the verdict is unresolved unless
    every run of one set reads better than every run of the other.
    """
    higher = better == "higher"
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    gain = (mb - ma) / ma if higher else (ma - mb) / ma
    pairs = len(a) * len(b)
    wins = sum((y > x) if higher else (y < x) for x in a for y in b) / pairs
    losses = sum((y < x) if higher else (y > x) for x in a for y in b) / pairs
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    if spread > bound and wins < 1.0 and losses < 1.0:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound and wins >= 0.9:
        return "better"
    return "unresolved" if spread > bound else "unchanged"


def work_changes(dirs: list[Path]) -> list[str]:
    """Rounds in which runs of one workload and seed report different work
    counts; every run is held against the first of its workload and seed."""
    first: dict = {}
    changes = []
    for directory in dirs:
        for path in sorted(directory.glob("*.json")):
            res = json.loads(path.read_text(encoding="utf-8"))
            key = (res["workload"], res["seed"])
            rounds = res["work_counts"]["per_round"]
            if key not in first:
                first[key] = (path, rounds)
                continue
            ref_path, ref = first[key]
            for r, (a, b) in enumerate(zip(ref, rounds)):
                if a != b:
                    diff = ", ".join(f"{k} {a.get(k)} -> {b.get(k)}"
                                     for k in sorted(a.keys() | b.keys())
                                     if a.get(k) != b.get(k))
                    changes.append(f"{key[0]} seed {key[1]} round {r}: {diff} "
                                   f"({ref_path} against {path})")
                    break
    return changes


def _load_results(directory: Path) -> dict:
    """{workload: {metric: [values]}} over the untraced results in a directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        if res.get("trace"):
            continue
        for name, m in res["metrics"].items():
            out.setdefault(res["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def run_seconds() -> float:
    """The run length BENCHMARK.json declares, the default of --seconds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(bench["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RUNS_A", "RUNS_B"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.record_digests:
        return record_digests()
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        return measure_all(args)
    return measure(args)


def measure_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    codes = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        codes.append(proc.returncode)
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
