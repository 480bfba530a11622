import inspect
import re

import numpy as np
import pytest

from graphmine import (
    ConnectivityRetryExhausted,
    DeepWalkModel,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyCorpus,
    Estimator,
    GraphCorpus,
    InputContractError,
    IsolatedNode,
    LabelPropagationModel,
    NetLsdModel,
    NetMfModel,
    NotFitted,
    OutOfRangeNode,
    RandomSource,
    ScdModel,
    SelfLoop,
    SfModel,
    SoftmaxModel,
    SymNmfModel,
    TooManyEdges,
    WalkletsModel,
    WlSvdModel,
    build_graph,
    erdos_renyi_gnm,
    generate_walks,
    normalized_laplacian,
    require_connected,
    softmax_fit,
    train_test_split,
    transition_matrix,
    triangle_partners,
)
from graphmine.node_embedding import _WalkModel
from builders import (
    complete_graph, path_graph, random_connected, star_graph, triangle_pair, two_cliques,
)
from frozen_laplacian import normalized_laplacian_by_csr
from oracles import triangle_counts_reference


# --- construction ---

def test_build_graph_neighbors_sorted_and_symmetric():
    g = build_graph(5, [(3, 1), (0, 3), (2, 4), (1, 0)])
    assert g.node_count == 5
    assert g.edge_count == 4
    for v in range(5):
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(nbrs)
        for u in nbrs:
            assert v in g.neighbors(u)
    assert g.neighbor_lists() == [g.neighbors(v).tolist() for v in range(5)]


def test_build_graph_edge_order_does_not_matter():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    a = build_graph(4, edges)
    b = build_graph(4, list(reversed([(v, u) for u, v in edges])))
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.targets, b.targets)


def test_build_graph_edges_roundtrip():
    g = triangle_pair()
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


def test_build_graph_rejects_bad_input():
    with pytest.raises(OutOfRangeNode):
        build_graph(3, [(0, 3)])
    with pytest.raises(OutOfRangeNode):
        build_graph(3, [(-1, 2)])
    with pytest.raises(SelfLoop):
        build_graph(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(OutOfRangeNode):
        build_graph(0, [])


def test_graph_arrays_are_read_only():
    g = path_graph(4)
    with pytest.raises(ValueError):
        g.targets[0] = 99
    with pytest.raises(ValueError):
        g.offsets[0] = 99


def test_degrees_and_adjacency():
    g = star_graph(5)
    assert list(g.degrees) == [4, 1, 1, 1, 1]
    dense = g.adjacency_scipy().toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert np.array_equal(dense, dense.T)
    assert dense.sum() == 2 * g.edge_count


# --- validation ---

def test_require_connected_passes_a_connected_graph():
    require_connected(path_graph(6))


def test_require_connected_refuses_a_split_graph_with_an_isolated_node():
    with pytest.raises(DisconnectedGraph, match="^graph is not connected$"):
        require_connected(build_graph(5, [(0, 1), (2, 3)]))


def test_require_connected_reaches_the_far_end_of_a_long_path():
    require_connected(path_graph(5000))
    split = build_graph(5000, [(i, i + 1) for i in range(4999) if i != 4997])
    with pytest.raises(DisconnectedGraph, match="^graph is not connected$"):
        require_connected(split)
    require_connected(build_graph(1, []))


# --- random source ---

def test_random_source_is_reproducible():
    a = RandomSource(7, 3).generator().random(16)
    b = RandomSource(7, 3).generator().random(16)
    assert np.array_equal(a, b)


def test_random_source_streams_differ():
    a = RandomSource(7, 0).generator().random(16)
    b = RandomSource(7, 1).generator().random(16)
    c = RandomSource(8, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_sources_are_stable_and_distinct():
    parent = RandomSource(123, 5)
    assert parent.child(2) == parent.child(2)
    draws = {
        tuple(parent.child(i).generator().random(4)) for i in range(20)
    }
    assert len(draws) == 20
    # children of different parents must not collide even at equal indices
    other = RandomSource(123, 6)
    assert parent.child(0) != other.child(0)


# --- random graphs ---

def test_gnm_has_exact_edge_count_and_is_simple():
    for seed in range(10):
        g = erdos_renyi_gnm(12, 20, RandomSource(seed, 0))
        assert g.node_count == 12
        assert g.edge_count == 20
        pairs = g.edges()
        assert len(set(pairs)) == 20
        assert all(u < v for u, v in pairs)


def test_gnm_is_deterministic():
    a = erdos_renyi_gnm(15, 30, RandomSource(4, 2))
    b = erdos_renyi_gnm(15, 30, RandomSource(4, 2))
    assert np.array_equal(a.targets, b.targets)


def test_gnm_connected_flag_retries_until_connected():
    for seed in range(10):
        g = erdos_renyi_gnm(10, 10, RandomSource(seed, 0), connected=True)
        require_connected(g)


def test_gnm_connected_impossible_raises():
    # 2 edges can never join 5 nodes, every retry fails
    with pytest.raises(ConnectivityRetryExhausted):
        erdos_renyi_gnm(5, 2, RandomSource(0, 0), connected=True)


def test_gnm_rejects_bad_counts():
    with pytest.raises(OutOfRangeNode, match="^node count must be >= 1, got 0$"):
        erdos_renyi_gnm(0, 0, RandomSource(0, 0))
    with pytest.raises(TooManyEdges):
        erdos_renyi_gnm(4, 7, RandomSource(0, 0))
    with pytest.raises(TooManyEdges):
        erdos_renyi_gnm(4, -1, RandomSource(0, 0))


# --- derived matrices ---

def test_transition_matrix_rows_sum_to_one():
    g = erdos_renyi_gnm(10, 10, RandomSource(1, 0), connected=True)
    t = transition_matrix(g).toarray()
    assert np.allclose(t.sum(axis=1), 1.0)
    assert np.all(t >= 0)


def test_transition_matrix_rejects_isolated_node():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(IsolatedNode):
        transition_matrix(g)


def test_normalized_laplacian_matches_dense_formula():
    g = erdos_renyi_gnm(12, 20, RandomSource(3, 0), connected=True)
    a = g.adjacency_scipy().toarray()
    d = a.sum(axis=1)
    expected = np.eye(12) - a / np.sqrt(np.outer(d, d))
    got = normalized_laplacian(g)
    assert np.allclose(got, expected, atol=1e-14)


def test_normalized_laplacian_path_2():
    got = normalized_laplacian(path_graph(2))
    assert np.allclose(got, [[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("n", [2, 3, 16, 64, 192, 1024])
def test_normalized_laplacian_bytes_match_the_frozen_csr_copy(n):
    graphs = [path_graph(n), star_graph(n), complete_graph(n)]
    graphs += [random_connected(n, min(3 * n, n * (n - 1) // 2), seed) for seed in range(5)]
    for g in graphs:
        got = normalized_laplacian(g)
        assert got.dtype == np.float64 and got.shape == (n, n)
        assert got.tobytes() == normalized_laplacian_by_csr(g).tobytes()


def test_triangle_counts_match_triple_enumeration():
    for seed in range(20):
        n = 5 + seed % 6
        m = min(n * 2, n * (n - 1) // 2)
        g = erdos_renyi_gnm(n, m, RandomSource(seed, 1))
        dense = g.adjacency_scipy().toarray()
        assert triangle_partners(g.neighbor_lists())[1] == triangle_counts_reference(dense)


def test_triangle_counts_known_graphs():
    assert triangle_partners(complete_graph(4).neighbor_lists())[1] == [3, 3, 3, 3]
    assert triangle_partners(path_graph(4).neighbor_lists())[1] == [0, 0, 0, 0]
    assert triangle_partners(triangle_pair().neighbor_lists())[1] == [1, 1, 1, 1, 1, 1]


def _hub_heavy(n, seed):
    """G(n, 2n) plus spokes from node 0 to every third node."""
    g = erdos_renyi_gnm(n, 2 * n, RandomSource(seed, 2))
    return build_graph(n, set(g.edges()) | {(0, v) for v in range(3, n, 3)})


def test_triangle_partners_match_brute_force_enumeration():
    graphs = [erdos_renyi_gnm(8 + s, 3 * (8 + s), RandomSource(s, 1)) for s in range(10)]
    graphs += [_hub_heavy(12 + 3 * s, s) for s in range(10)]
    graphs += [build_graph(4, []), build_graph(2, [(0, 1)])]
    for g in graphs:
        a = g.adjacency_scipy().toarray()
        n = g.node_count
        partners = [set() for _ in range(n)]
        counts = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    if a[u, v] and a[v, w] and a[u, w]:
                        for x, y, z in ((u, v, w), (v, u, w), (w, u, v)):
                            partners[x] |= {y, z}
                            counts[x] += 1
        got_partners, got_counts = triangle_partners(g.neighbor_lists())
        assert got_partners == [sorted(p) for p in partners]
        assert got_counts == counts


# --- estimator lifecycle ---

_MEMBERSHIPS, _EMBEDDING = {"get_memberships"}, {"get_embedding"}


@pytest.mark.parametrize(
    "make, getters",
    [
        (lambda: LabelPropagationModel(), _MEMBERSHIPS),
        (lambda: ScdModel(), _MEMBERSHIPS),
        (lambda: SymNmfModel(dimensions=2), _MEMBERSHIPS | _EMBEDDING),
        (lambda: DeepWalkModel(walk_number=1, walk_length=6, dimensions=4), _EMBEDDING),
        (lambda: WalkletsModel(walk_number=1, walk_length=6, dimensions=2, window_size=2), _EMBEDDING),
        (lambda: NetMfModel(dimensions=2), _EMBEDDING),
        (lambda: SfModel(dimensions=4), _EMBEDDING),
        (lambda: NetLsdModel(), _EMBEDDING),
        (lambda: WlSvdModel(dimensions=2), _EMBEDDING),
    ],
    ids=["lp", "scd", "symnmf", "deepwalk", "walklets", "netmf", "sf", "netlsd", "wl-svd"],
)
def test_estimator_lifecycle(make, getters):
    model = make()
    assert isinstance(model, Estimator)
    assert {name for name in dir(model) if name.startswith("get_")} == getters
    for name in getters:
        with pytest.raises(NotFitted):
            getattr(model, name)()
    g = two_cliques(4)
    corpus_model = isinstance(model, (SfModel, NetLsdModel, WlSvdModel))
    assert model.fit(GraphCorpus(graphs=[g, path_graph(5)]) if corpus_model else g) is model
    assert (getattr(model, "loss_history_", None) is not None) == isinstance(model, SymNmfModel)
    for name in getters:
        kept = getattr(model, name)()
        handed = getattr(model, name)()
        if isinstance(handed, dict):
            handed.clear()
            assert getattr(model, name)() == kept
        else:
            handed.fill(-7.0)
            assert np.array_equal(getattr(model, name)(), kept)


# every constructor parameter, in order, with its default: a field that a
# subclass redeclares must keep its place
_SIGNATURES = {
    LabelPropagationModel: [("seed", 42), ("max_iterations", 100)],
    ScdModel: [("refinement_rounds", 25)],
    SymNmfModel: [("dimensions", 32), ("iterations", 200), ("tolerance", 1e-6), ("seed", 42)],
    DeepWalkModel: [("walk_number", 10), ("walk_length", 80), ("dimensions", 128),
                    ("window_size", 5), ("negative_samples", 5), ("epochs", 1),
                    ("learning_rate", 0.025), ("seed", 42)],
    WalkletsModel: [("walk_number", 10), ("walk_length", 80), ("dimensions", 32),
                    ("window_size", 4), ("negative_samples", 5), ("epochs", 1),
                    ("learning_rate", 0.025), ("seed", 42)],
    NetMfModel: [("dimensions", 32), ("order", 2), ("negatives", 1), ("seed", 42)],
    SfModel: [("dimensions", 32)],
    NetLsdModel: [],
    WlSvdModel: [("wl_iterations", 2), ("dimensions", 128), ("seed", 42)],
    SoftmaxModel: [("l2", 1e-4), ("learning_rate", 0.1), ("epochs", 500)],
}


@pytest.mark.parametrize("cls", list(_SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_signatures_and_identity(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in params] == _SIGNATURES[cls]
    assert [type(p.default) for p in params] == [type(d) for _, d in _SIGNATURES[cls]]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    model = cls()
    assert [getattr(model, p.name) for p in params] == [p.default for p in params]
    twin = cls()
    assert model != twin and model == model
    assert len({model, twin}) == 2


# 2.5 and True for each int field, None and "x" for every field of every estimator
_NON_NUMERIC = [
    (cls, name, bad)
    for cls, params in _SIGNATURES.items() if issubclass(cls, Estimator)
    for name, default in params
    for bad in ([2.5, True] if type(default) is int else []) + [None, "x"]
]


@pytest.mark.parametrize(
    "cls, name, bad", _NON_NUMERIC, ids=[f"{c.__name__}-{n}-{b!r}" for c, n, b in _NON_NUMERIC]
)
def test_non_numeric_hyperparameters_raise_a_typed_error(cls, name, bad):
    kind = "an integer" if type(dict(_SIGNATURES[cls])[name]) is int else "a number"
    data = two_cliques(4)
    if cls in (SfModel, NetLsdModel, WlSvdModel):
        data = GraphCorpus(graphs=[data, path_graph(5)])
    with pytest.raises(InputContractError, match=f"^{name} must be {kind}, got {re.escape(repr(bad))}$"):
        cls(**{name: bad}).fit(data)


@pytest.mark.parametrize("cls", [c for c in _SIGNATURES if issubclass(c, Estimator)],
                         ids=lambda cls: cls.__name__)
def test_each_estimator_defines_its_own_fit(cls):
    assert "fit" in vars(cls), (
        f"{cls.__name__} inherits fit: perfbench/tracing.py names each fit span after the "
        "class whose __dict__ holds fit, so its per-estimator metrics would vanish"
    )
    assert vars(cls)["fit"].__qualname__ == f"{cls.__name__}.fit"
    assert "fit" not in vars(Estimator) and "fit" not in vars(_WalkModel)


# the least value of each int field that has one, per estimator
_WALK_MINIMUMS = {"walk_number": 1, "walk_length": 2, "dimensions": 1, "window_size": 1,
                  "negative_samples": 0, "epochs": 1}
_MINIMUMS = {
    LabelPropagationModel: {"max_iterations": 1},
    ScdModel: {"refinement_rounds": 0},
    SymNmfModel: {"dimensions": 1, "iterations": 1},
    DeepWalkModel: _WALK_MINIMUMS,
    WalkletsModel: _WALK_MINIMUMS,
    NetMfModel: {"dimensions": 1, "order": 1, "negatives": 1},
    SfModel: {"dimensions": 1},
    NetLsdModel: {},
    WlSvdModel: {"wl_iterations": 0, "dimensions": 1},
}
_CORPUS_MODELS = (SfModel, NetLsdModel, WlSvdModel)


def _refused_input(cls):
    """What every fit refuses: an empty corpus, or a disconnected graph."""
    return GraphCorpus(graphs=[]) if cls in _CORPUS_MODELS else build_graph(4, [(0, 1), (2, 3)])


def _bad_fields():
    """Each field set to a non-number, and each field with a minimum set below it."""
    for cls, minimums in _MINIMUMS.items():
        for name, default in _SIGNATURES[cls]:
            kind = "an integer" if type(default) is int else "a number"
            yield cls, {name: "x"}, f"{name} must be {kind}, got 'x'"
            low = minimums.get(name)
            if low is not None:
                yield cls, {name: low - 1}, f"{name} must be >= {low}, got {low - 1}"


_BAD_FIELDS = list(_bad_fields())


@pytest.mark.parametrize(
    "cls, change, message", _BAD_FIELDS,
    ids=[f"{c.__name__}-{k}={v!r}" for c, change, _ in _BAD_FIELDS for k, v in change.items()],
)
def test_fit_checks_hyperparameters_before_its_input(cls, change, message):
    with pytest.raises(InputContractError, match=f"^{re.escape(message)}$"):
        cls(**change).fit(_refused_input(cls))


@pytest.mark.parametrize("cls", list(_MINIMUMS), ids=lambda cls: cls.__name__)
def test_fit_refuses_an_empty_corpus_or_a_disconnected_graph(cls):
    error, message = (
        (EmptyCorpus, "corpus contains no graphs") if cls in _CORPUS_MODELS
        else (DisconnectedGraph, "graph is not connected")
    )
    with pytest.raises(error, match=f"^{message}$"):
        cls().fit(_refused_input(cls))


def _wrong_inputs(cls):
    """(input, its type name) for each kind of input ``cls.fit`` does not take."""
    other = path_graph(3) if cls in _CORPUS_MODELS else GraphCorpus(graphs=[path_graph(3)])
    return [(other, type(other).__name__), ([path_graph(3)], "list"), (None, "NoneType")]


@pytest.mark.parametrize("cls", list(_MINIMUMS), ids=lambda cls: cls.__name__)
def test_fit_refuses_the_wrong_kind_of_input(cls):
    kind = "GraphCorpus" if cls in _CORPUS_MODELS else "Graph"
    for data, name in _wrong_inputs(cls):
        with pytest.raises(InputContractError, match=f"^{cls.__name__}.fit takes a {kind}, got {name}$"):
            cls().fit(data)


@pytest.mark.parametrize(
    "cls, change, message", _BAD_FIELDS,
    ids=[f"{c.__name__}-{k}={v!r}" for c, change, _ in _BAD_FIELDS for k, v in change.items()],
)
def test_fit_checks_hyperparameters_before_the_kind_of_input(cls, change, message):
    for data, _ in _wrong_inputs(cls):
        with pytest.raises(InputContractError, match=f"^{re.escape(message)}$"):
            cls(**change).fit(data)


@pytest.mark.parametrize("cls", _CORPUS_MODELS, ids=lambda cls: cls.__name__)
def test_corpus_fit_names_the_first_member_that_is_not_a_graph(cls):
    with pytest.raises(InputContractError, match="^graph 1 is not a Graph, got str$"):
        cls().fit(GraphCorpus(graphs=[path_graph(3), "x", None]))
    # members are checked in order: a disconnected one before a later non-graph
    with pytest.raises(DisconnectedGraph, match="^graph 0 is not connected$"):
        cls().fit(GraphCorpus(graphs=[_refused_input(LabelPropagationModel), "x"]))


@pytest.mark.parametrize("cls", list(_MINIMUMS), ids=lambda cls: cls.__name__)
def test_each_fit_hands_its_model_only_the_data(cls):
    # the neighbour lists of the connectivity check are not handed on: a
    # model that walks the graph node by node builds them itself
    assert list(inspect.signature(cls._fit).parameters) == ["self", "data"]


@pytest.mark.parametrize(
    "change, error, message",
    [
        # every type, the float rule and every minimum come before the window check ...
        ({"window_size": 8, "walk_length": 8, "seed": "x"}, InputContractError,
         "seed must be an integer, got 'x'"),
        ({"window_size": 8, "walk_length": 8, "learning_rate": 0.0}, InputContractError,
         "learning_rate must be a positive finite number, got 0.0"),
        ({"walk_length": 1}, InputContractError, "walk_length must be >= 2, got 1"),
        ({"walk_number": 0, "window_size": 6, "walk_length": 6}, InputContractError,
         "walk_number must be >= 1, got 0"),
        # ... the minimums come in field order ...
        ({"walk_number": 0, "epochs": 0}, InputContractError, "walk_number must be >= 1, got 0"),
        ({"window_size": 0, "epochs": 0}, InputContractError, "window_size must be >= 1, got 0"),
        # ... and the window check comes before the graph's
        ({"window_size": 6, "walk_length": 6}, EmptyCorpus,
         "window_size 6 needs walks longer than it, got walk_length 6"),
    ],
    ids=["type", "float-rule", "walk-length-1", "window-equals-length", "walk-number", "window-0",
         "window-only"],
)
def test_walklets_checks_types_and_minimums_then_the_window(change, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        WalkletsModel(**change).fit(_refused_input(WalkletsModel))


def _fit_with(holder):
    """Run what checks ``holder``'s hyperparameters: its fit, or the function it configures."""
    if isinstance(holder, SoftmaxModel):
        return softmax_fit(np.eye(4), [0, 1, 0, 1], holder)
    if isinstance(holder, (SfModel, NetLsdModel, WlSvdModel)):
        return holder.fit(GraphCorpus(graphs=[two_cliques(4), path_graph(5)]))
    return holder.fit(two_cliques(4))


# every float field of the nine estimators and the classifier, with nan,
# inf and -1.0, and 0.0 for a learning rate
_FLOAT_CASES = [
    (cls, name, bad)
    for cls, params in _SIGNATURES.items()
    for name, default in params if type(default) is float
    for bad in [float("nan"), float("inf"), -1.0] + ([0.0] if name == "learning_rate" else [])
]


@pytest.mark.parametrize(
    "cls, name, bad", _FLOAT_CASES, ids=[f"{c.__name__}-{n}-{b!r}" for c, n, b in _FLOAT_CASES]
)
def test_float_hyperparameters_share_one_rule(cls, name, bad):
    sign = "positive" if name == "learning_rate" else "nonnegative"
    with pytest.raises(InputContractError, match=f"^{name} must be a {sign} finite number, got {bad!r}$"):
        _fit_with(cls(**{name: bad}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: erdos_renyi_gnm(10.5, 12, RandomSource(0, 0)), "n must be an integer, got 10.5"),
        (lambda: erdos_renyi_gnm(10, 12.5, RandomSource(0, 0)), "m must be an integer, got 12.5"),
        (lambda: train_test_split(10.5), "n must be an integer, got 10.5"),
        (lambda: train_test_split(10, 0.5, 1.5), "seed must be an integer, got 1.5"),
        (lambda: generate_walks(path_graph(4), 1.5, 5, RandomSource(0, 0)),
         "walk_number must be an integer, got 1.5"),
        (lambda: generate_walks(path_graph(4), True, 5, RandomSource(0, 0)),
         "walk_number must be an integer, got True"),
        (lambda: generate_walks(path_graph(4), 2, 5.0, RandomSource(0, 0)),
         "walk_length must be an integer, got 5.0"),
        (lambda: build_graph(4.5, [(0, 1)]), "n must be an integer, got 4.5"),
        (lambda: build_graph(True, []), "n must be an integer, got True"),
        (lambda: train_test_split(10, "0.5"), "ratio must be a number, got '0.5'"),
    ],
    ids=["gnm-n", "gnm-m", "split-n", "split-seed", "walks-float", "walks-bool", "walks-length",
         "build-float", "build-bool", "split-ratio"],
)
def test_plain_counts_and_seeds_take_the_integer_rule(call, message):
    with pytest.raises(InputContractError, match=f"^{message}$"):
        call()
