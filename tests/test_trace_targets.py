"""The benchmark's tracer wraps package functions by module and name; a
rename must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({(row[0], row[1]) for row in tracing.SPANNED + tracing.COUNTED})


@pytest.mark.parametrize("module, name", _trace_targets())
def test_trace_target_resolves(module, name):
    fn = getattr(importlib.import_module(module), name, None)
    assert callable(fn), f"{module}.{name} is traced by the benchmark but missing"
