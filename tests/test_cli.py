import argparse
import inspect
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from graphmine import (
    DeepWalkModel,
    LabelPropagationModel,
    RandomSource,
    ScdModel,
    erdos_renyi_gnm,
    modularity,
    read_edge_list,
    read_membership,
    write_edge_list,
    write_embedding_csv,
    write_labels_csv,
    write_membership,
)
from graphmine import io
from graphmine.cli import _MODELS, _model, build_parser, main
from builders import random_connected, triangle_pair, two_cliques


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "graphmine.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "graph.csv"
    write_edge_list(two_cliques(4), str(path))
    return str(path)


def test_generate_writes_a_loadable_graph(tmp_path):
    out = tmp_path / "g.csv"
    res = run_cli("generate", "--nodes", 20, "--edges", 40, "--seed", 3,
                  "--connected", "--out", out)
    assert res.returncode == 0
    assert res.stdout == ""
    g = read_edge_list(str(out))
    assert g.node_count == 20
    assert g.edge_count == 40


def test_generate_streams_to_stdout_identically(tmp_path):
    out = tmp_path / "g.csv"
    run_cli("generate", "--nodes", 10, "--edges", 15, "--seed", 1, "--out", out)
    res = run_cli("generate", "--nodes", 10, "--edges", 15, "--seed", 1)
    assert res.returncode == 0
    assert res.stdout == out.read_text()


def test_cluster_all_algorithms(graph_file, tmp_path):
    expected = {str(v): (0 if v < 4 else 1) for v in range(8)}
    for algo in ("label-propagation", "scd", "symnmf"):
        args = ["cluster", "--algo", algo, "--graph", graph_file]
        if algo == "symnmf":
            args += ["--dimensions", 2]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == expected


def test_cluster_rerun_is_byte_identical(graph_file):
    a = run_cli("cluster", "--algo", "label-propagation", "--graph", graph_file)
    b = run_cli("cluster", "--algo", "label-propagation", "--graph", graph_file)
    assert a.stdout == b.stdout


def test_embed_nodes_shapes(graph_file):
    walk_flags = ("--walk-number", 2, "--walk-length", 10, "--window-size", 2, "--negative-samples", 2)
    for algo, width in (("deepwalk", 8), ("walklets", 8), ("netmf", 4)):
        res = run_cli(
            "embed-nodes", "--algo", algo, "--graph", graph_file,
            "--dimensions", 4 if algo != "deepwalk" else 8,
            *(walk_flags if algo != "netmf" else ()),
        )
        assert res.returncode == 0, res.stderr
        rows = [line.split(",") for line in res.stdout.strip().split("\n")]
        assert len(rows) == 8
        assert all(len(r) == width for r in rows)


def test_embed_graphs_from_jsonl(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    tri = json.dumps({"edges": [[0, 1], [1, 2], [0, 2]]})
    path3 = json.dumps({"edges": [[0, 1], [1, 2]]})
    corpus.write_text("\n".join([tri, path3, tri]) + "\n")
    for algo, width in (("sf", 3), ("netlsd", 250), ("wl-svd", 2)):
        args = ["embed-graphs", "--algo", algo, "--corpus", corpus]
        if algo != "netlsd":
            args += ["--dimensions", width]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        rows = res.stdout.strip().split("\n")
        assert len(rows) == 3
        assert all(len(r.split(",")) == width for r in rows)
        # identical corpus members embed identically up to rounding noise
        first = np.array([float(t) for t in rows[0].split(",")])
        third = np.array([float(t) for t in rows[2].split(",")])
        assert np.allclose(first, third, atol=1e-12)


def test_eval_nmi_and_modularity(graph_file, tmp_path):
    lp = tmp_path / "lp.json"
    run_cli("cluster", "--algo", "label-propagation", "--graph", graph_file,
            "--out", lp)
    res = run_cli("eval", "nmi", "--a", lp, "--b", lp)
    assert res.returncode == 0
    assert float(res.stdout) == 1.0
    res = run_cli("eval", "modularity", "--graph", graph_file, "--membership", lp)
    assert res.returncode == 0
    g = read_edge_list(graph_file)
    assert float(res.stdout) == modularity(g, read_membership(str(lp)))


def test_eval_classify_pipeline(tmp_path):
    emb = tmp_path / "emb.csv"
    labels = tmp_path / "y.csv"
    res = run_cli("generate", "--nodes", 24, "--edges", 60, "--seed", 2,
                  "--connected", "--out", tmp_path / "g.csv")
    assert res.returncode == 0
    res = run_cli("embed-nodes", "--algo", "netmf", "--graph", tmp_path / "g.csv",
                  "--dimensions", 4, "--out", emb)
    assert res.returncode == 0
    write_labels_csv([i % 2 for i in range(24)], str(labels))
    res = run_cli("eval", "classify", "--embedding", emb, "--labels", labels,
                  "--ratio", 0.75, "--seed", 5)
    assert res.returncode == 0, res.stderr
    value = float(res.stdout)
    assert 0.0 <= value <= 1.0


def test_bench_emits_per_repeat_and_mean_rows(tmp_path):
    res = run_cli("bench", "--task", "cluster", "--algo", "label-propagation",
                  "--sizes", "16,32", "--degree", "4", "--repeats", 2, "--seed", 1)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "algo,n,m,repeat,seconds"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == 6  # 2 sizes x (2 repeats + mean)
    assert [r[3] for r in body] == ["0", "1", "mean"] * 2
    assert {r[1] for r in body} == {"16", "32"}
    for r in body:
        assert float(r[4]) >= 0.0


@pytest.mark.parametrize(
    "task, algo, cls",
    [("cluster", "label-propagation", LabelPropagationModel), ("cluster", "scd", ScdModel),
     ("embed-nodes", "deepwalk", DeepWalkModel)],
    ids=["lp", "scd", "deepwalk"],
)
def test_bench_fits_at_the_defaults_with_its_seed(monkeypatch, capsys, task, algo, cls):
    # every fit gets the signature defaults, except that --seed, which also
    # seeds the graph of each (degree, size) configuration, goes to ``seed``
    fits = []

    def record(self, g):
        fits.append(({f.name: getattr(self, f.name) for f in fields(self)}, g.edges()))
        return self

    monkeypatch.setattr(cls, "fit", record)
    assert main(["bench", "--task", task, "--algo", algo, "--sizes", "10,12",
                 "--degree", "4,6", "--repeats", "2", "--seed", "7"]) == 0
    want = {p.name: 7 if p.name == "seed" else p.default
            for p in inspect.signature(cls).parameters.values()}
    graphs = [erdos_renyi_gnm(n, n * degree // 2, RandomSource(7, config), connected=True)
              for config, (degree, n) in enumerate([(4, 10), (4, 12), (6, 10), (6, 12)])]
    assert fits == [(want, g.edges()) for g in graphs for _ in range(2)]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 3


def test_bench_rejects_bad_requests():
    res = run_cli("bench", "--task", "cluster", "--algo", "label-propagation",
                  "--sizes", "32,16", "--repeats", 1)
    assert res.returncode == 2
    res = run_cli("bench", "--task", "cluster", "--algo", "deepwalk",
                  "--sizes", "16", "--repeats", 1)
    assert res.returncode == 2
    res = run_cli("bench", "--task", "cluster", "--algo", "label-propagation",
                  "--sizes", "15", "--degree", "5", "--repeats", 1)
    assert res.returncode == 2  # odd n*degree has no integer edge count


def test_exit_code_separates_contract_families(tmp_path):
    disconnected = tmp_path / "disc.csv"
    disconnected.write_text("# nodes=4\n0,1\n2,3\n")
    res = run_cli("cluster", "--algo", "scd", "--graph", disconnected)
    assert res.returncode == 3
    assert "error:" in res.stderr

    malformed = tmp_path / "bad.csv"
    malformed.write_text("0,1\n1,1\n")
    res = run_cli("cluster", "--algo", "scd", "--graph", malformed)
    assert res.returncode == 2

    res = run_cli("cluster", "--algo", "scd", "--graph", tmp_path / "missing.csv")
    assert res.returncode == 2

    res = run_cli("generate", "--nodes", 5, "--edges", 2, "--connected")
    assert res.returncode == 3  # connectivity retries exhausted


def test_stdout_matches_the_library_writers(graph_file, tmp_path):
    path = tmp_path / "expected"
    res = run_cli("generate", "--nodes", 12, "--edges", 20, "--seed", 4)
    write_edge_list(erdos_renyi_gnm(12, 20, RandomSource(4, 0)), str(path))
    assert res.stdout == path.read_text()

    g = read_edge_list(graph_file)
    res = run_cli("cluster", "--algo", "label-propagation", "--graph", graph_file, "--seed", 3)
    write_membership(LabelPropagationModel(seed=3).fit(g).get_memberships(), str(path))
    assert res.stdout == path.read_text()

    res = run_cli("embed-nodes", "--algo", "deepwalk", "--graph", graph_file,
                  "--walk-number", 2, "--walk-length", 6, "--dimensions", 3)
    model = DeepWalkModel(walk_number=2, walk_length=6, dimensions=3).fit(g)
    write_embedding_csv(model.get_embedding(), str(path))
    assert res.stdout == path.read_text()


def test_model_commands_read_through_io_at_call_time(graph_file, tmp_path, monkeypatch):
    # a wrapper installed on io after import, as perfbench's tracer does,
    # must see every read of the model commands
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"edges": [[0, 1], [1, 2]]}\n')
    seen = []
    for name in ("read_edge_list", "read_corpus_jsonl"):
        real = getattr(io, name)
        monkeypatch.setattr(io, name, lambda path, real=real: seen.append(path) or real(path))
    out = str(tmp_path / "out")
    for args in (
        ("cluster", "--algo", "label-propagation", "--graph", graph_file),
        ("embed-nodes", "--algo", "netmf", "--graph", graph_file, "--dimensions", "2"),
        ("embed-graphs", "--algo", "sf", "--corpus", str(corpus), "--dimensions", "2"),
    ):
        assert main([*args, "--out", out]) == 0, args
    assert seen == [graph_file, graph_file, str(corpus)]


def test_malformed_files_exit_2_without_traceback(tmp_path, capsys):
    members = tmp_path / "m.json"
    members.write_text('{"0": 0,')
    embedding = tmp_path / "e.csv"
    embedding.write_text("0.5,nan\n1.5,2.5\n")
    labels = tmp_path / "y.csv"
    labels.write_text("0\n1\n")
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"edges": [[0, 1]], "features": [1, 2]}\n')
    utf16 = tmp_path / "g.csv"
    utf16.write_bytes(b"\xff\xfe0,1\n")
    for args in (
        ("eval", "nmi", "--a", members, "--b", members),
        ("eval", "classify", "--embedding", embedding, "--labels", labels),
        ("embed-graphs", "--algo", "wl-svd", "--corpus", corpus),
        ("cluster", "--algo", "scd", "--graph", utf16),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr
        assert "error:" in res.stderr
    # node counts whose arrays exceed any address space, or beyond int64:
    # the allocation or the check fails at once, so these run in process
    huge = tmp_path / "huge.csv"
    huge.write_text("# nodes=1000000000000000\n0,1\n")
    huge_corpus = tmp_path / "huge.jsonl"
    huge_corpus.write_text('{"edges": [[0, 1000000000000000]]}\n')
    beyond = tmp_path / "beyond.csv"
    beyond.write_text(f"# nodes={10**30}\n0,1\n")
    beyond_end = tmp_path / "beyond_end.csv"
    beyond_end.write_text(f"0,{10**30}\n")
    beyond_corpus = tmp_path / "beyond.jsonl"
    beyond_corpus.write_text(f'{{"edges": [[0, {10**30}]]}}\n')
    # within int64, but the n + 1 int64 offsets exceed any address space
    unaddressable = {n: tmp_path / f"nodes{n}.csv" for n in (2**60, 2**62, 2**63 - 1)}
    for n, path in unaddressable.items():
        path.write_text(f"# nodes={n}\n0,1\n")
    for args in (
        *(("cluster", "--algo", "label-propagation", "--graph", p) for p in unaddressable.values()),
        ("generate", "--nodes", 2**62, "--edges", 1),
        ("cluster", "--algo", "label-propagation", "--graph", huge),
        ("embed-graphs", "--algo", "wl-svd", "--corpus", huge_corpus),
        ("cluster", "--algo", "label-propagation", "--graph", beyond),
        ("cluster", "--algo", "label-propagation", "--graph", beyond_end),
        ("embed-graphs", "--algo", "sf", "--corpus", beyond_corpus),
        ("generate", "--nodes", 10**30, "--edges", 1),
        ("bench", "--task", "cluster", "--algo", "scd", "--sizes", 10**24),
    ):
        assert main([str(a) for a in args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_threads_flag_is_accepted(tmp_path):
    res = run_cli("--threads", 1, "generate", "--nodes", 6, "--edges", 8, "--seed", 0)
    assert res.returncode == 0


@pytest.mark.parametrize(
    "task, algo", [(task, algo) for task in _MODELS for algo in _MODELS[task]]
)
def test_unset_flags_leave_the_estimator_defaults(task, algo):
    source = "--corpus" if task == "embed-graphs" else "--graph"
    args = build_parser().parse_args([task, "--algo", algo, source, "in"])
    cls = _MODELS[task][algo]
    built, default = _model(task, args), cls()
    assert type(built) is cls
    for name in inspect.signature(cls).parameters:
        assert getattr(built, name) == getattr(default, name), name


@pytest.mark.parametrize(
    "task, algo, name",
    [
        (task, algo, name)
        for task in _MODELS
        for algo in _MODELS[task]
        for name in inspect.signature(_MODELS[task][algo]).parameters
    ],
)
def test_each_flag_reaches_its_estimator_parameter(task, algo, name):
    default = inspect.signature(_MODELS[task][algo]).parameters[name].default
    value = default + 1 if isinstance(default, int) else default * 3
    source = "--corpus" if task == "embed-graphs" else "--graph"
    flag = "--" + name.replace("_", "-")
    args = build_parser().parse_args([task, "--algo", algo, source, "in", flag, str(value)])
    built = getattr(_model(task, args), name)
    assert built == value and type(built) is type(default)


# each hyperparameter of a model command with each of its algorithms that does not take it
_FOREIGN = [
    (task, algo, name)
    for task, models in _MODELS.items()
    for algo, cls in models.items()
    for name in dict.fromkeys(p for other in models.values() for p in inspect.signature(other).parameters)
    if name not in inspect.signature(cls).parameters
]


@pytest.mark.parametrize("task, algo, name", _FOREIGN, ids=["-".join(case) for case in _FOREIGN])
def test_a_flag_the_algorithm_does_not_take_exits_2(tmp_path, capsys, task, algo, name):
    data = tmp_path / "in"
    if task == "embed-graphs":
        data.write_text(json.dumps({"edges": [[0, 1], [1, 2], [0, 2]]}) + "\n")
    else:
        write_edge_list(two_cliques(4), str(data))
    source = "--corpus" if task == "embed-graphs" else "--graph"
    flag = "--" + name.replace("_", "-")
    assert main([task, "--algo", algo, source, str(data), flag, "1"]) == 2
    assert capsys.readouterr().err == f"error: {algo} does not take {flag}\n"


# the flags each model command has always had: (name, type, required)
_MODEL_FLAGS = {
    "cluster": {
        ("-h", None, False), ("--help", None, False), ("--algo", None, True),
        ("--graph", None, True), ("--out", None, False), ("--seed", int, False),
        ("--max-iterations", int, False), ("--refinement-rounds", int, False),
        ("--dimensions", int, False), ("--iterations", int, False),
        ("--tolerance", float, False),
    },
    "embed-nodes": {
        ("-h", None, False), ("--help", None, False), ("--algo", None, True),
        ("--graph", None, True), ("--out", None, False), ("--seed", int, False),
        ("--dimensions", int, False), ("--walk-number", int, False),
        ("--walk-length", int, False), ("--window-size", int, False),
        ("--negative-samples", int, False), ("--epochs", int, False),
        ("--learning-rate", float, False), ("--order", int, False),
        ("--negatives", int, False),
    },
    "embed-graphs": {
        ("-h", None, False), ("--help", None, False), ("--algo", None, True),
        ("--corpus", None, True), ("--out", None, False), ("--seed", int, False),
        ("--dimensions", int, False), ("--wl-iterations", int, False),
    },
}


def _flags(*path):
    """(option string, type, required, default) of each flag of the
    subcommand at ``path``, e.g. ``("eval", "nmi")``."""
    parser = build_parser()
    for name in path:
        parser = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices[name]
    return {(opt, a.type, a.required, a.default) for a in parser._actions for opt in a.option_strings}


@pytest.mark.parametrize("task", list(_MODEL_FLAGS))
def test_model_commands_keep_their_flags(task):
    flags = {flag[:3] for flag in _flags(task)}
    assert flags == _MODEL_FLAGS[task]


# the flags of the other commands, with their defaults
_HELP_AND_OUT = {
    ("-h", None, False, argparse.SUPPRESS), ("--help", None, False, argparse.SUPPRESS),
    ("--out", None, False, None),
}
_COMMAND_FLAGS = {
    ("generate",): {
        ("--nodes", int, True, None), ("--edges", int, True, None),
        ("--seed", int, False, 42), ("--connected", None, False, False),
    },
    ("eval", "nmi"): {("--a", None, True, None), ("--b", None, True, None)},
    ("eval", "modularity"): {("--graph", None, True, None), ("--membership", None, True, None)},
    ("eval", "classify"): {
        ("--embedding", None, True, None), ("--labels", None, True, None),
        ("--ratio", float, False, 0.8), ("--seed", int, False, 42),
    },
    ("bench",): {
        ("--task", None, True, None), ("--algo", None, True, None), ("--sizes", None, True, None),
        ("--degree", None, False, "10"), ("--repeats", int, False, 3), ("--seed", int, False, 42),
    },
}


@pytest.mark.parametrize("path", list(_COMMAND_FLAGS), ids=" ".join)
def test_other_commands_keep_their_flags(path):
    assert _flags(*path) == _HELP_AND_OUT | _COMMAND_FLAGS[path]


@pytest.mark.parametrize(
    "flags",
    [
        ("embed-nodes", "--algo", "deepwalk", "--dimensions", 0),
        ("embed-nodes", "--algo", "deepwalk", "--walk-length", 0),
        ("embed-nodes", "--algo", "netmf", "--negatives", 0),
        ("embed-nodes", "--algo", "netmf", "--order", 0),
        ("embed-nodes", "--algo", "netmf", "--order", -1),
        ("cluster", "--algo", "label-propagation", "--max-iterations", -1),
        ("embed-nodes", "--algo", "deepwalk", "--learning-rate", "nan"),
        ("embed-nodes", "--algo", "deepwalk", "--learning-rate", 0),
        ("embed-nodes", "--algo", "deepwalk", "--learning-rate", -5),
        ("embed-nodes", "--algo", "walklets", "--learning-rate", "inf"),
        ("cluster", "--algo", "symnmf", "--tolerance", "nan"),
    ],
    ids=["deepwalk-dimensions", "deepwalk-walk-length", "netmf-negatives",
         "netmf-order-0", "netmf-order-negative", "lp-max-iterations",
         "deepwalk-learning-rate-nan", "deepwalk-learning-rate-0",
         "deepwalk-learning-rate-negative", "walklets-learning-rate-inf",
         "symnmf-tolerance-nan"],
)
def test_bad_hyperparameters_exit_2_without_traceback(tmp_path, flags):
    graph = tmp_path / "g.csv"
    write_edge_list(random_connected(60, 180, 1), str(graph))
    res = run_cli(*flags, "--graph", graph)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "error:" in res.stderr
