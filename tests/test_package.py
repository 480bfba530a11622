"""The package namespace and the README quick start."""

import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path

import graphmine
from graphmine import errors

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


def test_every_leaf_error_class_is_raised_somewhere():
    # a rule moved between modules must not leave a documented error unreachable
    leaves = {name for name in errors.__all__ if not getattr(errors, name).__subclasses__()}
    raised = set()
    for path in Path(graphmine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    raised.add(node.exc.func.id)
    assert leaves and leaves <= raised, f"never raised: {sorted(leaves - raised)}"


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "(200, 32)"


# Commands and fits that build no sparse matrix, so they must not pay for scipy.sparse.
_NO_SPARSE_SCRIPT = """
import json, os, sys
import numpy as np
import graphmine
assert "scipy.sparse" not in sys.modules, "import graphmine"
import graphmine.cli
assert "scipy.sparse" not in sys.modules, "import graphmine.cli"
path = lambda name: os.path.join(sys.argv[1], name)
gen = np.random.default_rng(0)
graphmine.write_embedding_csv(gen.random((24, 3)), path("emb.csv"))
graphmine.write_labels_csv([i % 2 for i in range(24)], path("y.csv"))
graphs = [graphmine.erdos_renyi_gnm(n, 2 * n, graphmine.RandomSource(n, 0), connected=True)
          for n in range(6, 16)]
corpus = graphmine.GraphCorpus(graphs=graphs)
for model in (graphmine.SfModel(dimensions=4), graphmine.NetLsdModel()):
    assert model.fit(corpus).get_embedding().shape[0] == len(graphs), type(model).__name__
    assert "scipy.sparse" not in sys.modules, type(model).__name__
with open(path("corpus.jsonl"), "w") as f:
    f.writelines(json.dumps({"edges": g.edges()}) + "\\n" for g in graphs)
for argv, out in (
    (["generate", "--nodes", "24", "--edges", "60", "--seed", "2", "--connected"], "g.csv"),
    (["cluster", "--algo", "label-propagation", "--graph", path("g.csv")], "lp.json"),
    (["cluster", "--algo", "scd", "--graph", path("g.csv")], "scd.json"),
    (["eval", "nmi", "--a", path("lp.json"), "--b", path("lp.json")], "nmi.txt"),
    (["eval", "modularity", "--graph", path("g.csv"), "--membership", path("lp.json")], "q.txt"),
    (["eval", "classify", "--embedding", path("emb.csv"), "--labels", path("y.csv")], "auc.txt"),
    (["embed-graphs", "--algo", "sf", "--corpus", path("corpus.jsonl")], "sf.csv"),
    (["embed-graphs", "--algo", "netlsd", "--corpus", path("corpus.jsonl")], "netlsd.csv"),
):
    assert graphmine.cli.main(argv + ["--out", path(out)]) == 0, argv
    assert "scipy.sparse" not in sys.modules, argv
"""


def test_import_and_sparse_free_commands_leave_scipy_sparse_unloaded(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", _NO_SPARSE_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "auc.txt").exists() and (tmp_path / "netlsd.csv").exists()


# The SVD models take their QR from numpy's lapack_lite, not scipy.linalg,
# whose import would cost every process that fits one about 70-145 ms.
_NO_SCIPY_LINALG_SCRIPT = """
import os, sys
import numpy as np
import graphmine, graphmine.cli
path = lambda name: os.path.join(sys.argv[1], name)
g = graphmine.erdos_renyi_gnm(64, 256, graphmine.RandomSource(1, 0), connected=True)
graphmine.NetMfModel(dimensions=8).fit(g)
graphs = [graphmine.erdos_renyi_gnm(n, 2 * n, graphmine.RandomSource(n, 0)) for n in range(6, 16)]
graphmine.WlSvdModel(dimensions=4).fit(graphmine.GraphCorpus(graphs=graphs))
argv = ["generate", "--nodes", "48", "--edges", "150", "--seed", "2", "--connected", "--out", path("g.csv")]
assert graphmine.cli.main(argv) == 0
argv = ["embed-nodes", "--algo", "netmf", "--dimensions", "8", "--graph", path("g.csv"), "--out", path("e.csv")]
assert graphmine.cli.main(argv) == 0
assert "scipy.sparse" in sys.modules
assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
"""


def test_svd_models_leave_scipy_linalg_unloaded(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_LINALG_SCRIPT, str(tmp_path)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "e.csv").exists()
