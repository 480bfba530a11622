"""Random files and random flags through every CLI command, in process.

Whatever it is given, ``main`` must exit 0, 2 or 3 (argparse's own
``SystemExit(2)`` counts as 2), let no exception escape and print no
traceback.  Each file is either random bytes or a random file of its format
with up to two byte edits.  Every count a file or flag holds is capped, so
no example allocates more than a few MB: the integers a file holds have at
most two digits (a ``# nodes=`` header is at most 20), so two edits leave
at most five, and no count flag exceeds 60.
"""

import inspect
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphmine.cli import _MODELS, main

# an argument "@name" is the path of file ``name`` in the example's directory
_FILE = "@"

# flag values that are not plain small integers; none is long enough to
# name a large count
_TOKENS = ["", " ", "x", "-", "+3", "1_0", "1.5", "nan", "inf", "-inf", "1e3", "0x10", "٣", "３"]
_FLOATS = ["nan", "inf", "-1.0", "0.0", "1e-300", "0.025", "0.5", "1", "4.0", "1e308"]

# the least valid and the largest value passed to each count flag; seeds
# take any 64-bit value
_COUNT_RANGES = {
    "walk_number": (1, 3), "walk_length": (2, 12), "dimensions": (1, 8), "window_size": (1, 5),
    "negative_samples": (0, 5), "epochs": (1, 2), "order": (1, 3), "negatives": (1, 3),
    "iterations": (1, 30), "max_iterations": (1, 10), "refinement_rounds": (0, 5),
    "wl_iterations": (0, 3),
}
# a walk model fit at its default walk counts takes about 0.3 s: always pass these
_ALWAYS = ("walk_number", "walk_length")


def _mostly(good, bad, one_in=8):
    """``good``, but ``bad`` once in ``one_in`` draws, so that most runs get
    past the flags and the files to the fit."""
    return st.integers(0, one_in - 1).flatmap(lambda k: bad if k == one_in - 1 else good)


def _small(high, low=1):
    """A count in low..high, now and then one of the two below low or a token."""
    bad = st.one_of(st.integers(low - 2, low - 1).map(str), st.sampled_from(_TOKENS))
    return _mostly(st.integers(low, high).map(str), bad)


def _value(name, default):
    """A flag value for the constructor parameter ``name``."""
    if name == "seed":
        return _mostly(st.integers(-(2**63), 2**64).map(str), st.sampled_from(_TOKENS))
    if type(default) is float:
        return _mostly(st.sampled_from(_FLOATS[3:]), st.sampled_from(_FLOATS[:3] + _TOKENS))
    low, high = _COUNT_RANGES[name]
    return _small(high, low)


@st.composite
def _edited(draw, text):
    """``text`` as UTF-8 with up to two byte inserts, replacements or deletions."""
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        byte = draw(st.integers(0, 255))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if edit == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def _file(text):
    """Random bytes, or a ``text`` file with a few byte edits."""
    return _mostly(text.flatmap(_edited), st.binary(max_size=40))


_node = st.integers(-1, 20)
_edge_line = st.one_of(
    st.tuples(_node, _node).map(lambda e: f"{e[0]},{e[1]}"),
    st.integers(-1, 20).map(lambda n: f"# nodes={n}"),
    st.sampled_from(_TOKENS + ["# comment", "0,1,2", "#nodes=3"]),
)
_json_value = st.one_of(
    st.integers(-2, 5), st.sampled_from([1.5, True, None, "1", [], {}]), st.text(max_size=2)
)
_cell = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "x", "", "0"]),
)


@st.composite
def _connected_edges(draw, n):
    """The edges of a connected graph on n nodes: a path plus a few more, in
    random order and orientation."""
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    edges = {(v, v + 1) for v in range(n - 1)} | {(min(e), max(e)) for e in pairs if e[0] != e[1]}
    return draw(st.permutations([e if draw(st.booleans()) else e[::-1] for e in sorted(edges)]))


@st.composite
def _edge_text(draw, n):
    """Mostly a connected graph on n nodes, with or without its header."""
    lines = [f"{u},{v}" for u, v in draw(_connected_edges(n))]
    if draw(st.booleans()):
        lines.insert(0, f"# nodes={n}")
    return "\n".join(draw(_mostly(st.just(lines), st.lists(_edge_line, max_size=12), one_in=4)))


def _membership_text(n):
    """Mostly a membership of the nodes 0..n-1 in up to four clusters."""
    good = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda ids: {str(v): c for v, c in enumerate(ids)}
    )
    bad = st.one_of(
        st.dictionaries(st.one_of(_node.map(str), st.text(max_size=2)), _json_value, max_size=14),
        st.lists(st.integers(0, 3), max_size=6),
    )
    return _mostly(good, bad, one_in=4).map(json.dumps)


def _embedding_text(n):
    """Mostly n finite rows of one width."""
    good = st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(st.floats(-10, 10).map(repr), min_size=width, max_size=width), min_size=n, max_size=n
    ))
    bad = st.lists(st.lists(_cell, min_size=1, max_size=4), max_size=24)
    return _mostly(good, bad, one_in=4).map(lambda rows: "\n".join(map(",".join, rows)))


def _labels_text(n):
    """Mostly n labels in 0..2, often every class in turn."""
    good = st.one_of(
        st.integers(2, 3).map(lambda c: [str(v % c) for v in range(n)]),
        st.lists(st.integers(0, 2).map(str), min_size=n, max_size=n),
    )
    bad = st.lists(st.one_of(st.integers(-2, 5).map(str), st.sampled_from(_TOKENS)), max_size=24)
    return _mostly(good, bad, one_in=4).map("\n".join)


@st.composite
def _corpus_line(draw):
    """Mostly a connected graph with or without features and a label."""
    obj = {}
    if draw(st.integers(0, 9)) != 9:
        n = draw(st.integers(2, 12))
        obj["edges"] = draw(_mostly(
            _connected_edges(n).map(lambda edges: [list(e) for e in edges]),
            st.one_of(st.lists(st.lists(_node, min_size=2, max_size=2), max_size=10), _json_value),
        ))
        if draw(st.booleans()):
            obj["features"] = draw(_mostly(
                st.lists(st.text(max_size=2), min_size=n, max_size=n).map(
                    lambda names: {str(v): name for v, name in enumerate(names)}
                ),
                st.one_of(st.dictionaries(_node.map(str), st.integers(0, 3), max_size=14), _json_value),
            ))
    if draw(st.booleans()):
        obj["label"] = draw(_mostly(st.integers(0, 3), _json_value))
    return json.dumps(obj)


_corpus_text = _mostly(st.lists(_corpus_line(), min_size=1, max_size=4), st.just([])).map("\n".join)


@st.composite
def _model_flags(draw, task):
    """``--algo`` and a random subset of the task's hyperparameter flags,
    which may include one the chosen algorithm does not take."""
    algo = draw(st.sampled_from(list(_MODELS[task])))
    params = {}
    for cls in _MODELS[task].values():
        for p in inspect.signature(cls).parameters.values():
            params.setdefault(p.name, p.default)
    takes = sorted(inspect.signature(_MODELS[task][algo]).parameters)
    chosen = set(draw(st.lists(st.sampled_from(takes))) if takes else []) | set(_ALWAYS) & set(takes)
    others = sorted(set(params) - set(takes))
    if others and draw(st.integers(0, 7)) == 7:
        chosen.add(draw(st.sampled_from(others)))
    flags = ["--algo", algo]
    for name in sorted(chosen):
        flags += ["--" + name.replace("_", "-"), draw(_value(name, params[name]))]
    return flags


@st.composite
def _invocation(draw):
    """(argv, {file name: bytes}) for one command."""
    command = draw(st.sampled_from(
        ["generate", "cluster", "embed-nodes", "embed-graphs", "nmi", "modularity", "classify", "bench"]
    ))
    files = {}
    # the node or row count of the files that agree with each other
    n = draw(st.integers(12, 30) if command == "classify" else st.integers(2, 12))
    if command == "generate":
        nodes = draw(st.integers(2, 30))
        edges = st.integers(nodes - 1, min(60, nodes * (nodes - 1) // 2)).map(str)
        argv = ["generate", "--nodes", draw(_mostly(st.just(str(nodes)), _small(30))),
                "--edges", draw(_mostly(edges, _small(60))), "--seed", draw(_value("seed", 0))]
        if draw(st.booleans()):
            argv.append("--connected")
    elif command in ("cluster", "embed-nodes"):
        files["graph"] = draw(_file(_edge_text(n)))
        argv = [command, "--graph", _FILE + "graph", *draw(_model_flags(command))]
    elif command == "embed-graphs":
        files["corpus"] = draw(_file(_corpus_text))
        argv = [command, "--corpus", _FILE + "corpus", *draw(_model_flags(command))]
    elif command == "nmi":
        files["a"] = draw(_file(_membership_text(n)))
        files["b"] = draw(_file(_membership_text(n)))
        argv = ["eval", "nmi", "--a", _FILE + "a", "--b", _FILE + "b"]
    elif command == "modularity":
        files["graph"] = draw(_file(_edge_text(n)))
        files["membership"] = draw(_file(_membership_text(n)))
        argv = ["eval", "modularity", "--graph", _FILE + "graph", "--membership", _FILE + "membership"]
    elif command == "classify":
        files["embedding"] = draw(_file(_embedding_text(n)))
        files["labels"] = draw(_file(_labels_text(n)))
        argv = ["eval", "classify", "--embedding", _FILE + "embedding", "--labels", _FILE + "labels"]
        if draw(st.booleans()):
            argv += ["--ratio", draw(_value("ratio", 0.5))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_value("seed", 0))]
    else:
        def int_list(good, high):  # mostly one value from good, else two ascending ones
            ascending = _mostly(st.sets(good, min_size=1, max_size=1), st.sets(good, min_size=2, max_size=2))
            ascending = ascending.map(lambda v: ",".join(map(str, sorted(v))))
            bad = st.one_of(st.lists(_small(high), min_size=1, max_size=2).map(",".join),
                            st.sampled_from(_TOKENS))
            return _mostly(ascending, bad)

        # a default walk-model fit takes about 0.3 s, a clustering one a few ms
        task = draw(_mostly(st.sampled_from(["cluster", "cluster", "embed-nodes"]), st.just("x")))
        algos = [algo for models in _MODELS.values() for algo in models] + ["x"]
        algo = _mostly(st.sampled_from(list(_MODELS.get(task, algos))), st.sampled_from(algos))
        argv = ["bench", "--task", task, "--algo", draw(algo),
                "--sizes", draw(int_list(st.integers(5, 10), 10))]
        if draw(_mostly(st.just(True), st.just(False))):  # the default degree, 10, needs n > 10
            argv += ["--degree", draw(int_list(st.sampled_from([2, 4]), 4))]
        if draw(_mostly(st.just(True), st.just(False))):  # the default is 3 repeats
            argv += ["--repeats", draw(_small(1))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_value("seed", 0))]
    out = draw(st.sampled_from([None, None, "out", "out", "", "missing/out"]))
    if out is not None:  # a file, the directory itself, a file in no directory
        argv += ["--out", _FILE + out]
    if draw(st.booleans()):
        argv = ["--threads", draw(_small(4)), *argv]
    if draw(st.integers(0, 19)) == 19:  # now and then a flag no command takes
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv, files


def _run(argv):
    """``main(argv)``'s exit code and stderr; any other exception escapes."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a bad flag exits 2, --help would exit 0
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_invocation())
def test_cli_exits_0_2_or_3_without_a_traceback_on_random_files_and_flags(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        argv = [os.path.join(tmp, a[1:]) if a.startswith(_FILE) else a for a in argv]
        code, err = _run(argv)
    assert code in (0, 2, 3), (code, argv, err)
    assert "Traceback" not in err, (argv, err)
