"""Graph ingestion on arrays gives the graphs, exceptions and messages of the
per-line and per-edge loops it replaced (``frozen_ingest``), except that
``build_graph`` takes node ids by the integer rule of labels: an edge that is
not two integers, Python or numpy, bool excluded, raises
``InputContractError`` where the frozen loop took ``int()`` of it."""

import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from graphmine import (
    ConnectivityRetryExhausted,
    InputContractError,
    OutOfRangeNode,
    RandomSource,
    build_graph,
    erdos_renyi_gnm,
    read_corpus_jsonl,
    read_edge_list,
)
from graphmine import graph_core, io
from graphmine.cli import main
from graphmine.graph_core import _distinct_pairs
from frozen_ingest import (
    build_graph_by_edge,
    erdos_renyi_gnm_by_draw,
    gnm_pairs_by_draw,
    parse_edge_list_by_line,
    read_edge_list_by_line,
)

# node counts above this are never built: the offsets array could exhaust
# memory.  Counts beyond int64 fail before allocating, so they stay in.
_NODE_CAP = 10**5


def _outcome(call, *args):
    """The graph ``call`` builds, or the type and message of what it raises."""
    try:
        g = call(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return g.node_count, g.offsets.dtype, g.offsets.tolist(), g.targets.dtype, g.targets.tolist()


def _reference(call, *args):
    """The frozen loop's outcome, except where it overflows: its node count
    is beyond int64, which the package rejects once every edge passed."""
    outcome = _outcome(call, *args)
    if outcome[0] is OverflowError:
        return OutOfRangeNode, f"node count must be <= {2**63 - 1}: node ids are int64"
    return outcome


# --- read_edge_list against the per-line reader ---

_TOKENS = [
    "0", "1", "2", "3", "7", "11", "-1", "+3", " 7", "7 ", "1_000", "_1", "1_",
    "1__0", "٣", "３", "१२", "1.0", "0x10", "1e3", "", " ",
    "1\x00", "\t5\x0b", "5\x85", " 5", "​5", "1" + "0" * 30,
    str(2**63 - 1), str(2**63), str(-(2**63) - 1), "9" * 5000,
]
_CHARS = "0123456789,#=- +_\t\x00\x0b\x85 ٣３xnodes"
_endpoint = st.one_of(st.integers(0, 11).map(str), st.sampled_from(_TOKENS))
_line = st.one_of(
    st.tuples(_endpoint, _endpoint).map(",".join),
    st.tuples(st.sampled_from(["#", "# ", " #", "#\t"]), st.sampled_from(["nodes=", "nodes =", "node="]),
              st.one_of(st.integers(-1, 40).map(str), st.sampled_from(_TOKENS))).map("".join),
    st.text(_CHARS, max_size=12),
)
_edge_file = st.tuples(
    st.lists(_line, max_size=12),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from([b"", b"\n", b"\xff", b"\xc3"]),
).map(lambda t: t[1].join(t[0]).encode("utf-8") + t[2])


def _compare_readers(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            declared, _ = parse_edge_list_by_line(path)
        except Exception:
            declared = None  # a parse fault: nothing is allocated
        if declared is not None and _NODE_CAP < declared <= np.iinfo(np.int64).max:
            return
        assert _outcome(read_edge_list, path) == _reference(read_edge_list_by_line, path)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_edge_file)
@example(b"0,1\n1,1\n0,1\n")  # two faults: the self-loop comes first
@example(b"# nodes=3\n0,1\n1,0\n0,5\n")  # a duplicate before an out-of-range edge
@example(b"0,1\n2,x\n3,3\n")
@example(b"# nodes=5\n0," + b"1" + b"0" * 30 + b"\n")  # out of range, beyond int64
@example(b"0,1" + b"0" * 30 + b"\n")  # beyond int64 with no header
@example(("# nodes=2000\n1_000,٣\n４２, +7\n").encode("utf-8"))
@example(b"1,2,3\n4\n")  # as many commas as lines, but not one per line
@example(b"# nodes=5\n0,1\n# nodes=x\n")  # a bad header after a good one
@example(b"0,1\n# nodes=x\n2\n")  # a bad header before a bad edge line
@example(b"# nodes=4\n")  # a header and no edges
@example(b"\n  \n")
@example(str(2**63 - 1).encode() + b",0\n")  # 1 + max endpoint is beyond int64
@example(b"-3,-2\n")  # 1 + max endpoint is below one node
@example(b"0,1\x00\n")
@example(b"0," + b"9" * 30 + b"\n# nodes=x\n")  # beyond int64, then a bad header
@example(b"0,1" + b"0" * 30 + b"\n1,x\n")  # numpy stops on the overflow before the bad line
@example(b"0,1\n1," + b"9" * 30 + b"\n")  # 1 + max endpoint of Python ints is beyond int64
@example(b"#nodes=4\n-" + b"9" * 30 + b",1\n")  # below int64 and out of range
def test_read_edge_list_matches_the_per_line_reader(data):
    _compare_readers(data)


def test_valid_input_never_reaches_the_loops(tmp_path, monkeypatch):
    def loop(*args):
        raise AssertionError("a per-line or per-edge loop ran on valid input")

    monkeypatch.setattr(graph_core, "_raise_for_first_faulty_edge", loop)
    monkeypatch.setattr(io, "_raise_for_first_faulty_line", loop)
    path = tmp_path / "g.csv"
    # every spelling int() accepts, comments, blank lines and CRLF
    path.write_bytes("# nodes=2000\r\n1_000, ٣\n\n# a comment\n+7,４２\r".encode("utf-8"))
    assert read_edge_list(str(path)).edges() == [(3, 1000), (7, 42)]
    path.write_text("5,0\n0,2\n")
    assert read_edge_list(str(path)).node_count == 6
    path = tmp_path / "c.jsonl"
    path.write_text('{"edges": [[0, 1], [2, 1]], "features": {"0": "a", "1": "b", "2": "c"}}\n'
                    '{"edges": [[3, 0]]}\n')
    assert [h.edges() for h in read_corpus_jsonl(str(path)).graphs] == [[(0, 1), (1, 2)], [(0, 3)]]
    g = erdos_renyi_gnm(200, 1000, RandomSource(3, 0), connected=True)
    assert build_graph(200, g.edges()).edges() == g.edges()
    pairs = np.array(g.edges())
    for edges in (pairs.tolist(), pairs.astype(np.uint32)):
        assert build_graph(200, edges).edges() == g.edges()
    assert build_graph(3, [(True, False), (1, 2)]).edges() == [(0, 1), (1, 2)]


# --- build_graph against the per-edge loop ---

_PAIRS = [(0, 1), (2, 1), (3, 0), (1, 3)]


def _not_two_ids(edge):
    return InputContractError, f"edge {edge!r} is not two integer node ids"


_BUILD_CASES = [
    (4, _PAIRS),
    (4, list(reversed(_PAIRS))),
    (9, _PAIRS),
    (np.int64(4), _PAIRS),
    (4, set(_PAIRS)),
    (4, np.array(_PAIRS)),
    (4, np.array(_PAIRS, dtype=np.int32)),
    (4, np.array(_PAIRS, dtype=np.uint8)),
    (4, np.array(_PAIRS, dtype=np.uint64)),
    (4, [(np.int64(u), np.int32(v)) for u, v in _PAIRS]),
    (4, [(np.uint64(u), v) for u, v in _PAIRS]),
    (4, [(float(u), v + 0.5) for u, v in _PAIRS], _not_two_ids((0.0, 1.5))),
    (4, np.array(_PAIRS, dtype=np.float64), _not_two_ids(np.array([0.0, 1.0]))),
    (4, [(str(u), str(v)) for u, v in _PAIRS], _not_two_ids(("0", "1"))),
    (4, ["01", "12", "23"], _not_two_ids("01")),
    (4, [(True, False), (1, 2)]),
    (4, np.array([(True, False)]), _not_two_ids(np.array([True, False]))),
    (4, []),
    (4, np.zeros((0, 2), dtype=np.int64)),
    (4, [(0, 1, 2)], _not_two_ids((0, 1, 2))),
    (4, [(0, 1), (2,)], _not_two_ids((2,))),
    (4, [(0, 4)]),
    (4, [(-1, 2)]),
    (4, np.array([(0, 2**63 + 1)], dtype=np.uint64)),
    (4, [(0, 10**30)]),
    (4, [(2, 2)]),
    (4, [(0, 1), (1, 0)]),
    (4, [(0, 1), (2, 3), (0, 1)]),
    (4, np.array([(0, 1), (3, 3), (1, 0), (0, 9)])),  # three faults: the self-loop is first
    (4, np.array([(0, 1), (1, 0), (3, 3)])),
    (0, []),
    (-2, _PAIRS),
    (2**64, [(0, 1)]),
    (2**64, np.array([(0, 2**63 + 1)], dtype=np.uint64)),
    (4, [(float(u), np.float64(v)) for u, v in _PAIRS], _not_two_ids((0.0, np.float64(1.0)))),
    (4, [(0, 1), (2, "x")], _not_two_ids((2, "x"))),
    (4, [(None, 1)], _not_two_ids((None, 1))),
    (4, [(0, 1), (0, float("nan"))], _not_two_ids((0, float("nan")))),
    (4, [(float("inf"), 1)], _not_two_ids((float("inf"), 1))),
    (4, [(0, 1), (1, np.float64(2.5))], _not_two_ids((1, np.float64(2.5)))),
    (4, np.array([(0, 1), (1, 2.5)]), _not_two_ids(np.array([0.0, 1.0]))),
    (4, [(0, 1), 3], _not_two_ids(3)),
    (3, [b"12"], _not_two_ids(b"12")),
    (3, [(0, 1), {1: 0, 2: 0}], _not_two_ids({1: 0, 2: 0})),
    (3, [bytearray(b"\x00\x01")], _not_two_ids(bytearray(b"\x00\x01"))),
    (3, [memoryview(b"\x00\x01")], _not_two_ids(b"\x00\x01")),
    (4, [(np.uint8(u), np.uint8(v)) for u, v in _PAIRS]),
    (4, [(0, 1), (2, 1), (3, 0.0)], _not_two_ids((3, 0.0))),
    (4, [(Fraction(2, 1), 1)], _not_two_ids((Fraction(2, 1), 1))),
    (4, (edge for edge in ())),
    (4, [(0, 1), (np.uint64(2), 1), (3, np.uint64(0))]),
]


@pytest.mark.parametrize("case", _BUILD_CASES, ids=range(len(_BUILD_CASES)))
def test_build_graph_matches_the_per_edge_loop(case):
    # a third entry is the outcome where the package refuses an edge that
    # is not two integers, which the loop, taking int() of each endpoint,
    # builds or fails on untyped
    n, edges, *want = case
    expected = want[0] if want else _reference(build_graph_by_edge, n, edges)
    assert _outcome(build_graph, n, edges) == expected


def test_build_graph_takes_any_iterable_of_pairs():
    assert _outcome(build_graph, 4, iter(_PAIRS)) == _outcome(build_graph_by_edge, 4, iter(_PAIRS))


def test_build_graph_matches_the_per_edge_loop_on_random_edge_lists():
    gen = RandomSource(7, 0).generator()
    for case in range(200):
        n = int(gen.integers(1, 40))
        pairs = gen.integers(-1, n + 1, size=(int(gen.integers(0, 60)), 2))
        for edges in (pairs, pairs.tolist()):
            assert _outcome(build_graph, n, edges) == _outcome(build_graph_by_edge, n, edges), case


# --- erdos_renyi_gnm against scalar draws ---

_SEEDS = [0, 101, 2**63 + 5]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("n, m", [(2, 1), (3, 3), (8192, 20000), (2**33, 3000)])
def test_chunked_draws_pick_the_pairs_of_scalar_draws(seed, n, m):
    rng = RandomSource(seed, 5)
    pairs = _distinct_pairs(rng.generator(), n, m)
    assert pairs.dtype == np.int64 and pairs.shape == (m, 2)
    assert set(map(tuple, pairs.tolist())) == gnm_pairs_by_draw(rng.generator(), n, m)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize(
    "n, m, connected",
    [(2, 1, False), (2, 1, True), (3, 2, False), (3, 2, True), (10, 10, True),
     (8192, 20000, False), (8192, 49152, True)],
)
def test_gnm_matches_scalar_draws(seed, n, m, connected):
    rng = RandomSource(seed, 2)
    assert _outcome(erdos_renyi_gnm, n, m, rng, connected) == _outcome(
        erdos_renyi_gnm_by_draw, n, m, rng, connected
    )


def test_gnm_too_few_edges_to_connect_fails_before_drawing(monkeypatch):
    rng = RandomSource(9, 0)
    want = _outcome(erdos_renyi_gnm_by_draw, 5, 2, rng, True)
    assert want[0] is ConnectivityRetryExhausted
    assert _outcome(erdos_renyi_gnm, 5, 2, rng, True) == (
        ConnectivityRetryExhausted, "G(5,2) cannot be connected: fewer than n - 1 edges"
    )

    def no_draws(self):
        raise AssertionError("drew a graph that cannot be connected")

    monkeypatch.setattr(RandomSource, "generator", no_draws)
    with pytest.raises(ConnectivityRetryExhausted) as info:
        erdos_renyi_gnm(100000, 10, RandomSource(0, 0), connected=True)
    assert str(info.value) == "G(100000,10) cannot be connected: fewer than n - 1 edges"


@pytest.mark.parametrize("n", [2**63, 10**30])
def test_gnm_node_count_beyond_int64_fails_before_drawing(monkeypatch, n):
    def no_draws(self):
        raise AssertionError("drew a graph whose ids are beyond int64")

    monkeypatch.setattr(RandomSource, "generator", no_draws)
    with pytest.raises(OutOfRangeNode, match="node ids are int64"):
        erdos_renyi_gnm(n, 1, RandomSource(0, 0))


@pytest.mark.parametrize("n", [2**60 - 1, 2**62, 2**63 - 1])
def test_gnm_unaddressable_node_count_fails_before_drawing(monkeypatch, n):
    def no_draws(self):
        raise AssertionError("drew a graph whose offsets cannot be addressed")

    monkeypatch.setattr(RandomSource, "generator", no_draws)
    with pytest.raises(OutOfRangeNode, match="offsets not addressable"):
        erdos_renyi_gnm(n, 1, RandomSource(0, 0))


def test_generate_too_few_edges_to_connect_exits_3_at_once(capsys):
    args = ["generate", "--nodes", "100000", "--edges", "10", "--connected", "--seed", "4"]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        "error: G(100000,10) cannot be connected: fewer than n - 1 edges\n"
    )
