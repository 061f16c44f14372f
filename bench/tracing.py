"""The traced run: spans around calls into the program's layers, then probes.

Nothing inside the package changes. For one job, the traced run does:

1. Span pass. The CLI handler runs with each package function it calls
   replaced, in the `cli` module's namespace, by a wrapper that records a
   span. Composite calls are split one level down: the bindings in `reiter`
   and `frames` through which `compare_modes` calls `derive_frame_axioms`,
   `compile_ssa`, `regress_query`, `ssa_query`, its oracle and `progress`
   are wrapped too (see COMPARE_PARTS), and `search_counterexample` runs
   once with `random_samples=0` and then in full. The report must come out
   byte-identical to the untraced one.
2. Count pass. The job runs again with counting wrappers on the leaf
   functions in every package namespace that binds them. They count every
   call and keep a seeded sample of the arguments of calls that returned.
3. Probe pass. Each sampled leaf is timed on its own sampled arguments: the
   states the job visited, its guards, its aspect pairs, its model. Only
   arguments the program itself passed are probed, so a leaf the job never
   called has no samples and reports 0.

A span is [id, name, start_ns, end_ns, parent_id, job_id, calls]. Spans stay
in memory and are written out when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

SAMPLES_PER_LEAF = 48
PROBE_MIN_NS = 2_000_000
PROBE_MAX_ROUNDS = 16

# Bindings the span pass wraps besides the cli module's: the functions
# `compare_modes` calls, so that a compare job splits one level down into
# `derive_frame_axioms`, `compile_ssa` and, per query, `regress_query`,
# `ssa_query` and the oracle (its `progress` chain plus `eval_fluent`).
# Wrapping `progress` where frames binds it also gives a span to each
# progression step the query modes take.
COMPARE_PARTS = (
    ("reiter", "derive_frame_axioms"), ("reiter", "compile_ssa"),
    ("reiter", "regress_query"), ("reiter", "ssa_query"), ("reiter", "_oracle"),
    ("frames", "progress"),
)

# Leaf functions the count and probe passes watch: (module, attribute).
LEAVES = (
    ("state", "eval_fluent"), ("state", "with_fluent"), ("state", "build_state"),
    ("domain", "solve_guard"), ("domain", "static_guard_groundings"),
    ("domain", "ground_actions"),
    ("frames", "aspect_of_fluent"), ("frames", "aspect_of_action"),
    ("frames", "applicable_actions"),
    ("disjoint", "d_eval"), ("disjoint", "canonicalize"),
    ("finite", "compose_rows"), ("finite", "FiniteModel.path_rows"),
    ("finite", "modal_eval"),
    ("validator", "check_premises"), ("validator", "check_noninterference"),
    ("validator", "check_commutativity"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str, calls: int = 1):
        rec = [len(self.spans), name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else None, self.job, calls]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return spanned

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@contextmanager
def patched(targets):
    """Temporarily set attributes: targets is a list of (owner, attr, value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Span pass
# ---------------------------------------------------------------------------

def span_targets(tracer: Tracer, pkg: dict) -> list:
    """Span wrappers for every package function the CLI module calls, and for
    the bindings through which `compare_modes` reaches its parts."""
    cli = pkg["cli"]
    targets = []
    for attr, value in list(vars(cli).items()):
        if attr == "search_counterexample":
            continue  # split below
        if callable(value) and getattr(value, "__module__", "").startswith("sitaspect.") \
                and not isinstance(value, type) and value.__module__ != cli.__name__:
            targets.append((cli, attr, tracer.wrap(value, layer_name(value))))
    for module, attr in COMPARE_PARTS:
        fn = getattr(pkg[module], attr)
        targets.append((pkg[module], attr, tracer.wrap(fn, layer_name(fn))))
    search = cli.search_counterexample

    def search_in_two(formalism, **kwargs):
        with tracer.span("search.exhaustive"):
            search(formalism, **{**kwargs, "random_samples": 0})
        with tracer.span("search.search_counterexample"):
            return search(formalism, **kwargs)

    targets.append((cli, "search_counterexample", search_in_two))
    return targets


# ---------------------------------------------------------------------------
# Count pass
# ---------------------------------------------------------------------------

class Leaf:
    """Call count and argument sample of one leaf function within one job."""

    def __init__(self, name: str, fn, rng: random.Random):
        self.name = name
        self.fn = fn
        self.calls = 0
        self.samples: list[tuple] = []
        self._seen = 0
        self._rng = rng

    def keep(self, args, kwargs) -> None:
        self._seen += 1
        if len(self.samples) < SAMPLES_PER_LEAF:
            self.samples.append((args, kwargs))
        else:
            k = self._rng.randrange(self._seen)
            if k < SAMPLES_PER_LEAF:
                self.samples[k] = (args, kwargs)


def count_targets(pkg: dict, job_index: int, ratio: dict) -> tuple[list, dict]:
    """Counting wrappers on every binding of every leaf function."""
    rng = random.Random(job_index)
    leaves: dict[str, Leaf] = {}
    targets = []
    ground_actions = pkg["domain"].ground_actions
    ground_count: dict[int, int] = {}
    for module, attr in LEAVES:
        owner = pkg[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        fn = getattr(owner, attr)
        leaf = Leaf(f"{module}.{attr}", fn, rng)
        leaves[leaf.name] = leaf

        def counting(*args, _leaf=leaf, **kwargs):
            _leaf.calls += 1
            result = _leaf.fn(*args, **kwargs)
            _leaf.keep(args, kwargs)
            if _leaf.name == "frames.applicable_actions":
                domain = args[0]
                if id(domain) not in ground_count:
                    ground_count[id(domain)] = len(ground_actions(domain))
                ratio["applicable"] += len(result)
                ratio["tried"] += ground_count[id(domain)]
            return result

        if isinstance(owner, type):
            targets.append((owner, attr, counting))
            continue
        for mod in pkg.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    targets.append((mod, name, counting))
    return targets, leaves


# ---------------------------------------------------------------------------
# Probe pass
# ---------------------------------------------------------------------------

def probe(tracer: Tracer, leaves: dict) -> list[str]:
    """Time every leaf on its samples; returns the leaves whose probe raised."""
    failed = []
    with tracer.span("probe"):
        for leaf in leaves.values():
            if not leaf.samples:
                continue
            calls = 0
            start = time.perf_counter_ns()
            try:
                for _ in range(PROBE_MAX_ROUNDS):
                    for args, kwargs in leaf.samples:
                        leaf.fn(*args, **kwargs)
                    calls += len(leaf.samples)
                    if time.perf_counter_ns() - start >= PROBE_MIN_NS:
                        break
            except Exception as exc:  # a probe must not end the run
                failed.append(f"{leaf.name}: {type(exc).__name__}: {exc}")
                continue
            end = time.perf_counter_ns()
            tracer.spans.append([len(tracer.spans), f"probe.{leaf.name}", start,
                                 end, tracer._stack[-1], tracer.job, calls])
    return failed


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def span_stats(spans: list[list]) -> dict[str, dict]:
    """count, total and self time (ns) and probe calls per span name."""
    children: dict[int, list[list]] = {}
    for rec in spans:
        if rec[4] is not None:
            children.setdefault(rec[4], []).append(rec)
    stats: dict[str, dict] = {}
    for rec in spans:
        total = rec[3] - rec[2]
        covered = 0
        last = rec[2]
        for child in sorted(children.get(rec[0], ()), key=lambda c: c[2]):
            lo, hi = max(child[2], last), min(child[3], rec[3])
            if hi > lo:
                covered += hi - lo
                last = hi
        s = stats.setdefault(rec[1], {"count": 0, "total_ns": 0, "self_ns": 0,
                                      "calls": 0})
        s["count"] += 1
        s["total_ns"] += total
        s["self_ns"] += total - covered
        s["calls"] += rec[6]
    return stats


_SCALE = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def layer_metrics(layers: list[dict], stats: dict, extra: dict) -> tuple[dict, list]:
    """Values of the per-layer metrics, plus a printable table row per metric."""
    values = {}
    table = []
    for spec in layers:
        name, unit, source = spec["name"], spec["unit"], spec["from"]
        kind, _, key = source.partition(":")
        row = {"name": name, "unit": unit, "source": source}
        if kind in ("span", "probe"):
            s = stats.get(f"probe.{key}" if kind == "probe" else key)
            if kind == "probe":
                per_call = s["total_ns"] / s["calls"] if s else 0.0
                row.update(calls=extra["leaf_calls"].get(key, 0),
                           probe_calls=s["calls"] if s else 0)
            else:
                per_call = s["total_ns"] / s["count"] if s else 0.0
                row.update(calls=s["count"] if s else 0,
                           self_ms=s["self_ns"] / 1e6 if s else 0.0)
            row["total_ms"] = s["total_ns"] / 1e6 if s else 0.0
            value = per_call / _SCALE[unit]
        elif kind == "self":
            s = stats.get(key)
            value = s["self_ns"] / s["count"] / _SCALE[unit] if s else 0.0
            row.update(calls=s["count"] if s else 0,
                       total_ms=s["total_ns"] / 1e6 if s else 0.0,
                       self_ms=s["self_ns"] / 1e6 if s else 0.0)
        elif kind == "calls":
            value = extra["leaf_calls"].get(key, 0)
        else:
            value = extra[key]
        values[name] = value
        row["value"] = value
        table.append(row)
    return values, table


def load_layers(bench_dir: Path) -> list[dict]:
    return json.loads((bench_dir / "layers.json").read_text(encoding="utf-8"))["per_layer"]


def package_modules() -> dict:
    return {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("sitaspect.") and mod is not None}
