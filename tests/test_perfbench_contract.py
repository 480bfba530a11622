"""What the benchmark in ``perfbench/`` reads of graphmine still exists.

The benchmark reaches into the package by name: its tracer patches
``Graph.neighbors`` and ``RandomSource.generator``, counts by the names in
``MEASURES``, and its workloads call ``gm.<name>``.  A deleted or renamed
name would otherwise show only when the benchmark runs.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import graphmine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_uninstalls(tracing):
    from graphmine.graph_core import Graph, RandomSource

    originals = Graph.__dict__.get("neighbors"), RandomSource.__dict__.get("generator")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (Graph.__dict__.get("neighbors"), RandomSource.__dict__.get("generator")) == originals


def _traced_name_resolves(name: str) -> bool:
    """``<layer>.<function>`` is a function in the layer's ``__all__``, and
    ``<layer>.<Class>.fit`` a fit that the class defines itself: the two
    kinds the tracer wraps."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"graphmine.{layer}")
    if len(path) == 1:
        return path[0] in module.__all__ and inspect.isfunction(getattr(module, path[0], None))
    owner = getattr(module, path[0], None)
    return (path[1] == "fit" and inspect.isclass(owner) and owner.__module__ == module.__name__
            and inspect.isfunction(owner.__dict__.get("fit")))


def test_every_traced_name_resolves(tracing):
    names = sorted(tracing.MEASURES) + sorted(tracing.COUNT_FUNCTIONS)
    assert [name for name in names if not _traced_name_resolves(name)] == []


def test_every_gm_attribute_in_perfbench_exists():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gm":
                used.add(node.attr)
    assert len(used) > 10  # the workloads' estimators, builders, writers and metrics
    assert sorted(name for name in used if not hasattr(graphmine, name)) == []
