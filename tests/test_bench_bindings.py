"""The benchmark's traced run patches package functions by name.

`bench/tracing.py` names the bindings it wraps in LEAVES and COMPARE_PARTS;
a rename in the package must fail here, in the fast suite, rather than in a
traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

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
