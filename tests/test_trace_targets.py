"""The benchmark's tracer wraps package functions by module and name, and
its workloads call the package by name; a rename or a deletion must fail
here, not only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from markoff import cli, trace_algebra

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _trace_targets():
    tracing = _tracing()
    return sorted({(row[0], row[1]) for row in tracing.SPANNED + tracing.COUNTED})


@pytest.mark.parametrize("module, name", _trace_targets())
def test_trace_target_resolves(module, name):
    fn = getattr(importlib.import_module(module), name, None)
    assert callable(fn), f"{module}.{name} is traced by the benchmark but missing"


def _workload_names():
    """(module, name) for each name bench/workloads.py imports from a
    markoff module or reads as an attribute of one it imports."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "markoff":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "markoff":
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name, None)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value.__name__
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names)


def test_workloads_read_the_package():
    names = _workload_names()
    assert ("markoff.orbits", "Caps") in names and ("markoff.surfaces", "Point3") in names


@pytest.mark.parametrize("module, name", _workload_names())
def test_workload_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"{module}.{name} is read by the benchmark's workloads but missing")


TRACED_PARAMETERS = {
    "commutator_trace": ["A", "B"],
    "f3_relations": ["A1", "A2", "A3"],
    "fricke_coords": ["A", "B"],
    "lift_twist_04": ["index", "q", "direction"],
    "lift_twist_11": ["which", "pair", "direction"],
    "make_pair": ["A", "B"],
    "quad_to_04_point": ["q"],
    "random_quad": ["rng", "max_len"],
    "random_sl2": ["rng", "max_len"],
    "trace_product_identity": ["A", "B"],
}


def test_verify_calls_traced_trace_algebra_names(monkeypatch, capsys):
    # the tracer's trace_algebra layer counts calls through these names, so
    # `markoff verify` must still reach some of them by name, with the
    # parameters the benchmark's tracer passes on
    tracing = _tracing()
    assert {name: list(inspect.signature(getattr(trace_algebra, name)).parameters)
            for name in tracing._CLI_TRACE_ALGEBRA} == TRACED_PARAMETERS
    calls = {}
    for name in tracing._CLI_TRACE_ALGEBRA:
        fn = getattr(trace_algebra, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(trace_algebra, name, counted)
    assert cli.main(["verify", "--trials", "3"]) == 0
    assert "9/9 suites passed" in capsys.readouterr().out
    assert sum(calls.values()) > 0, calls
