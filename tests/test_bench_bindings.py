"""The benchmark's traced run patches package functions by name.

`bench/tracing.py` names the bindings it wraps in LEAVES and COMPARE_PARTS;
a rename in the package must fail here, in the fast suite, rather than in a
traced benchmark run. So must a bench job whose argv would go to argparse.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from tests.conftest import record_calls

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize("module, attr",
                         _TRACING.LEAVES + _TRACING.COMPARE_PARTS,
                         ids=lambda v: v)
def test_traced_binding_resolves(module, attr):
    owner = importlib.import_module(f"sitaspect.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"sitaspect.{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_compare_modes_calls_every_traced_part(monkeypatch, blocks, blocks_init):
    # The traced run splits a compare job through these bindings; if
    # compare_modes stopped reaching one of them, its span would vanish.
    from sitaspect.reiter import compare_modes, random_workload

    workload = random_workload(blocks, blocks_init, 4, seed=3)
    assert any(acts for _, acts, _ in workload)
    calls = {}
    for module, attr in _TRACING.COMPARE_PARTS:
        owner = importlib.import_module(f"sitaspect.{module}")
        calls[module, attr] = record_calls(monkeypatch, owner, attr)
    compare_modes(blocks, workload=workload)
    assert all(calls.values()), calls


def test_every_bench_argv_takes_the_plain_path(monkeypatch, tmp_path):
    # The bench times `main` on these argvs; each must skip argparse.
    from sitaspect.cli import _read_plain

    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    inputs = workloads.Inputs(tmp_path)
    jobs = [job for build in workloads.ROUNDS.values()
            for r in (0, 1) for job in build(inputs, 1, r)]
    assert len({job.argv[0] for job in jobs}) == 8
    assert [job.argv for job in jobs if _read_plain(job.argv) is None] == []
