"""The package namespace and the README quick start."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import graphmine

_MODULES = [
    "errors", "graph_core", "linalg", "community",
    "node_embedding", "graph_embedding", "evaluation", "io",
]


def test_package_reexports_every_module_all_once():
    seen = {}
    for name in _MODULES:
        module = importlib.import_module(f"graphmine.{name}")
        for public in module.__all__:
            assert public not in seen, f"{public} in both {seen.get(public)} and {name}"
            seen[public] = name
            assert getattr(graphmine, public) is getattr(module, public), public


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "(200, 32)"
