import os
import re
import subprocess
import sys

import numpy as np
import pytest

from graphmine import graph_embedding
from graphmine import (
    DENSE_SIZE_CAP,
    DisconnectedGraph,
    EmptyCorpus,
    GraphCorpus,
    GraphTooLarge,
    IncompleteFeatureMap,
    InputContractError,
    IsolatedNode,
    LengthMismatch,
    NetLsdModel,
    NotFitted,
    OutOfRangeNode,
    SfModel,
    WlSvdModel,
    build_graph,
    randomized_svd,
    wl_features,
)
from builders import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected,
    star_graph,
    triangle_pair,
    two_cliques,
)


def _permuted(g, perm):
    mapped = [(perm[u], perm[v]) for u, v in g.edges()]
    return build_graph(g.node_count, mapped)


# --- refinement features ---

def test_wl_features_multiset_size():
    g = random_connected(9, 16, 0)
    for iterations in (0, 1, 3):
        fs = wl_features(g, None, iterations)
        assert sum(fs.values()) == 9 * (iterations + 1)


@pytest.mark.parametrize(
    "iterations, message",
    [(-1, "iterations must be >= 0, got -1"), (True, "iterations must be an integer, got True"),
     (1.5, "iterations must be an integer, got 1.5"), ("2", "iterations must be an integer, got '2'")],
    ids=["negative", "bool", "float", "text"],
)
def test_wl_features_checks_iterations(iterations, message):
    with pytest.raises(InputContractError, match=f"^{re.escape(message)}$"):
        wl_features(path_graph(3), None, iterations)


def test_wl_degree_fallback_round_zero():
    fs = wl_features(path_graph(3), None, 0)
    assert fs == {"0:1": 2, "0:2": 1}


def test_wl_regular_graphs_stay_uniform():
    # all nodes of a triangle look alike at every refinement depth
    fs = wl_features(complete_graph(3), None, 2)
    per_round = {}
    for key, cnt in fs.items():
        per_round.setdefault(key.split(":")[0], []).append(cnt)
    assert per_round == {"0": [3], "1": [3], "2": [3]}


def test_wl_path_ends_separate_from_middle():
    fs = wl_features(path_graph(3), None, 1)
    round_one = sorted(cnt for key, cnt in fs.items() if key.startswith("1:"))
    assert round_one == [1, 2]


def test_wl_features_use_supplied_labels():
    g = path_graph(2)
    fs = wl_features(g, {0: "a", 1: "b"}, 1)
    assert fs["0:a"] == 1
    assert fs["0:b"] == 1
    # distinct inputs hash to distinct refined labels
    assert len([k for k in fs if k.startswith("1:")]) == 2


def test_wl_features_are_permutation_invariant():
    g = random_connected(10, 20, 3)
    perm = list(np.random.default_rng(0).permutation(10))
    assert wl_features(g, None, 2) == wl_features(_permuted(g, perm), None, 2)


def test_wl_distinguishes_triangle_from_path():
    a = wl_features(complete_graph(3), None, 1)
    b = wl_features(path_graph(3), None, 1)
    assert a != b


def test_wl_labels_with_separators_do_not_collide():
    """One neighbor labelled "a,b" is not two neighbors labelled "a" and "b"."""
    one = wl_features(build_graph(2, [(0, 1)]), {0: "x", 1: "a,b"}, 1)
    two = wl_features(build_graph(3, [(0, 1), (0, 2)]), {0: "x", 1: "a", 2: "b"}, 1)
    round_one = lambda counts: {key for key in counts if key.startswith("1:")}
    assert len(round_one(one)) == 2 and len(round_one(two)) == 3
    assert not round_one(one) & round_one(two)


def test_wl_rejects_incomplete_feature_map():
    with pytest.raises(IncompleteFeatureMap):
        wl_features(path_graph(3), {0: "a", 2: "b"}, 1)


@pytest.mark.parametrize("key", [5, -1, "k", 1.5], ids=["5", "-1", "k", "1.5"])
def test_wl_feature_map_keys_must_be_nodes(key):
    # every node has its entry, so the one more key is not a node: it used to be dropped
    features = {0: "a", key: "x", 1: "b", 2: "c"}
    message = re.escape(f"feature map key {key!r} outside 0..2")
    with pytest.raises(OutOfRangeNode, match=f"^{message}$"):
        wl_features(path_graph(3), features, 1)
    corpus = GraphCorpus(graphs=[path_graph(3), path_graph(3)], features=[None, features])
    with pytest.raises(OutOfRangeNode, match=f"^{message}$"):
        WlSvdModel().fit(corpus)


@pytest.mark.parametrize(
    "features, kind", [("abc", "str"), (["a", "b", "c"], "list"), (5, "int")],
    ids=["str", "list", "int"],
)
def test_wl_feature_map_must_be_a_dict(features, kind):
    with pytest.raises(InputContractError, match=f"^feature map must be a dict, got {kind}$"):
        wl_features(path_graph(3), features, 1)
    # a corpus holding such a map is refused the same way by WL-SVD
    corpus = GraphCorpus(graphs=[path_graph(3)], features=[features])
    with pytest.raises(InputContractError, match=f"^feature map must be a dict, got {kind}$"):
        WlSvdModel().fit(corpus)


@pytest.mark.parametrize("value, kind", [(1, "int"), (None, "NoneType")], ids=["int", "None"])
def test_wl_feature_values_must_be_strings(value, kind):
    # the corpus reader refuses such values too, so a library call may not hash their str()
    features = {0: "a", 1: value, 2: "b"}
    with pytest.raises(InputContractError, match=f"^feature of node 1 must be a str, got {kind}$"):
        wl_features(path_graph(3), features, 1)
    corpus = GraphCorpus(graphs=[path_graph(3), path_graph(3)], features=[None, features])
    with pytest.raises(InputContractError, match=f"^feature of node 1 must be a str, got {kind}$"):
        WlSvdModel().fit(corpus)


# --- spectral fingerprint ---

def test_sf_single_edge_eigenvalues_padded():
    corpus = GraphCorpus(graphs=[path_graph(2)])
    emb = SfModel(dimensions=4).fit(corpus).get_embedding()
    assert np.allclose(emb, [[0.0, 2.0, 0.0, 0.0]], atol=1e-12)


def test_sf_complete_graph_spectrum():
    # normalized spectrum of K_n: zero plus n/(n-1) repeated n-1 times
    corpus = GraphCorpus(graphs=[complete_graph(4)])
    emb = SfModel(dimensions=4).fit(corpus).get_embedding()
    assert np.allclose(emb, [[0.0, 4 / 3, 4 / 3, 4 / 3]], atol=1e-10)


def test_sf_truncates_to_smallest_eigenvalues():
    g = cycle_graph(8)
    wide = SfModel(dimensions=8).fit(GraphCorpus(graphs=[g])).get_embedding()
    narrow = SfModel(dimensions=3).fit(GraphCorpus(graphs=[g])).get_embedding()
    assert np.allclose(narrow[0], wide[0, :3], atol=1e-12)
    assert np.all(np.diff(wide[0]) >= -1e-12)


def test_sf_rows_follow_corpus_order():
    corpus = GraphCorpus(graphs=[path_graph(2), complete_graph(3)])
    emb = SfModel(dimensions=3).fit(corpus).get_embedding()
    assert np.allclose(emb[0], [0.0, 2.0, 0.0], atol=1e-12)
    assert np.allclose(emb[1], [0.0, 1.5, 1.5], atol=1e-10)


# --- heat-trace fingerprint ---

def test_netlsd_matches_closed_form_trace():
    model = NetLsdModel()
    t = model.time_points
    emb = model.fit(
        GraphCorpus(graphs=[complete_graph(3), path_graph(2)])
    ).get_embedding()
    assert emb.shape == (2, 250)
    assert np.allclose(emb[0], 1.0 + 2.0 * np.exp(-1.5 * t), atol=1e-8)
    assert np.allclose(emb[1], 1.0 + np.exp(-2.0 * t), atol=1e-8)


def test_netlsd_time_grid_is_fixed():
    model = NetLsdModel()
    assert model.time_points.shape == (250,)
    assert np.isclose(model.time_points[0], 1e-2)
    assert np.isclose(model.time_points[-1], 1e2)
    assert np.all(np.diff(model.time_points) > 0)
    with pytest.raises(ValueError):
        model.time_points[0] = 0.5


def test_netlsd_curves_decay_from_node_count():
    g = random_connected(7, 12, 1)
    emb = NetLsdModel().fit(GraphCorpus(graphs=[g])).get_embedding()
    assert np.all(np.diff(emb[0]) <= 1e-12)
    assert emb[0, 0] <= 7.0 + 1e-9
    assert abs(emb[0, 0] - 7.0) < 0.2


# --- factorized subtree features ---

def test_wl_svd_groups_identical_graphs():
    graphs = [complete_graph(3)] * 3 + [path_graph(3)] * 3
    emb = WlSvdModel(wl_iterations=2, dimensions=4, seed=42).fit(
        GraphCorpus(graphs=graphs)
    ).get_embedding()
    assert emb.shape == (6, 4)
    assert np.allclose(emb[0], emb[1], atol=1e-12)
    assert np.allclose(emb[3], emb[4], atol=1e-12)
    assert np.linalg.norm(emb[0] - emb[3]) > 1e-6


def test_wl_svd_pads_missing_components_with_zeros():
    graphs = [complete_graph(3), path_graph(3)]
    emb = WlSvdModel(wl_iterations=1, dimensions=10, seed=0).fit(
        GraphCorpus(graphs=graphs)
    ).get_embedding()
    # rank is capped by the corpus size, remaining columns stay zero
    assert emb.shape == (2, 10)
    assert np.all(emb[:, 2:] == 0.0)


def test_wl_svd_at_full_rank_keeps_the_tf_idf_gram_matrix():
    # W[i, f] = count of f in graph i * ln(graphs / graphs holding f); with
    # as many components as graphs, E E^T = U S^2 U^T is W W^T exactly
    graphs = [complete_graph(4), path_graph(5), cycle_graph(6), triangle_pair(),
              star_graph(5), random_connected(9, 15, 3)]
    features = [None, {v: "ab"[v % 2] for v in range(5)}, None, None, None, None]
    counts = [wl_features(g, f, 2) for g, f in zip(graphs, features)]
    vocabulary = sorted(set().union(*counts))
    holders = {feat: sum(feat in c for c in counts) for feat in vocabulary}
    w = np.array([[c[feat] * np.log(len(graphs) / holders[feat]) for feat in vocabulary]
                  for c in counts])
    emb = WlSvdModel(wl_iterations=2, dimensions=8).fit(
        GraphCorpus(graphs=graphs, features=features)
    ).get_embedding()
    gram = w @ w.T
    assert np.abs(emb @ emb.T - gram).max() <= 1e-9 * np.abs(gram).max()


def test_wl_svd_hands_randomized_svd_a_sorted_float64_csr(monkeypatch):
    # the form randomized_svd reads without a copy
    handed = []

    def spy(m, k, rng):
        handed.append(m)
        return randomized_svd(m, k, rng)

    monkeypatch.setattr(graph_embedding, "randomized_svd", spy)
    graphs = [random_connected(9 + s, 15, s) for s in range(5)] + [star_graph(6)]
    WlSvdModel(dimensions=4).fit(GraphCorpus(graphs=graphs))
    [m] = handed
    assert m.format == "csr" and m.dtype == np.float64 and m.has_sorted_indices


def test_wl_svd_is_deterministic():
    graphs = [random_connected(8, 14, s) for s in range(4)]
    a = WlSvdModel(dimensions=3, seed=5).fit(GraphCorpus(graphs=graphs)).get_embedding()
    b = WlSvdModel(dimensions=3, seed=5).fit(GraphCorpus(graphs=graphs)).get_embedding()
    assert np.array_equal(a, b)


# --- corpus contracts ---

def test_corpus_validates_lengths():
    with pytest.raises(LengthMismatch, match="^features, when given, must match the corpus length$"):
        GraphCorpus(graphs=[path_graph(2)], features=[])
    with pytest.raises(LengthMismatch, match="^labels, when given, must match the corpus length$"):
        GraphCorpus(graphs=[path_graph(2)], labels=[0, 1])


def test_corpus_takes_a_list_or_tuple_of_graphs():
    for graphs, kind in ((None, "NoneType"), (5, "int"), (path_graph(3), "Graph")):
        with pytest.raises(InputContractError, match=f"^graphs must be a list or tuple, got {kind}$"):
            GraphCorpus(graphs=graphs)
    # the members are checked by fit, not here
    assert len(GraphCorpus(graphs=["x", None])) == 2
    graphs = [complete_graph(3), path_graph(4)]
    listed = SfModel(dimensions=3).fit(GraphCorpus(graphs=graphs)).get_embedding()
    tupled = SfModel(dimensions=3).fit(GraphCorpus(graphs=tuple(graphs))).get_embedding()
    assert np.array_equal(listed, tupled)


@pytest.mark.parametrize("name", ["features", "labels"])
@pytest.mark.parametrize("value, kind", [(5, "int"), ("ab", "str"), ({0: 0}, "dict")],
                         ids=["int", "str", "dict"])
def test_corpus_takes_a_list_or_tuple_or_none_of_features_and_labels(name, value, kind):
    graphs = [path_graph(2), path_graph(3)]
    with pytest.raises(InputContractError, match=f"^{name} must be a list or tuple, got {kind}$"):
        GraphCorpus(graphs=graphs, **{name: value})
    ok = [None, None] if name == "features" else [0, 1]
    for given in (None, ok, tuple(ok)):
        assert len(GraphCorpus(graphs=graphs, **{name: given})) == 2


def test_empty_corpus_is_rejected():
    for model in (SfModel(dimensions=2), NetLsdModel(), WlSvdModel(dimensions=2)):
        with pytest.raises(EmptyCorpus):
            model.fit(GraphCorpus(graphs=[]))


def test_disconnected_member_is_rejected_with_its_index():
    bad = build_graph(4, [(0, 1), (2, 3)])
    corpus = GraphCorpus(graphs=[complete_graph(3), bad])
    with pytest.raises(DisconnectedGraph, match="graph 1"):
        SfModel(dimensions=2).fit(corpus)


def test_fingerprints_reject_a_single_node_graph():
    corpus = GraphCorpus(graphs=[complete_graph(3), build_graph(1, [])])
    for model in (SfModel(dimensions=2), NetLsdModel()):
        with pytest.raises(IsolatedNode):
            model.fit(corpus)


def test_fingerprints_enforce_dense_cap():
    big = path_graph(DENSE_SIZE_CAP + 1)
    corpus = GraphCorpus(graphs=[big])
    for model in (SfModel(dimensions=2), NetLsdModel()):
        with pytest.raises(GraphTooLarge):
            model.fit(corpus)


def _dense_normalized_laplacian(g):
    a = np.zeros((g.node_count, g.node_count))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(g.node_count) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


def test_fingerprints_match_lapack_at_the_dense_cap():
    g = random_connected(DENSE_SIZE_CAP, 4 * DENSE_SIZE_CAP, 17)
    corpus = GraphCorpus(graphs=[g])
    ref = np.linalg.eigvalsh(_dense_normalized_laplacian(g))
    sf = SfModel().fit(corpus).get_embedding()
    assert sf.shape == (1, 32)
    assert np.max(np.abs(sf[0] - ref[:32])) < 1e-9
    model = NetLsdModel()
    lsd = model.fit(corpus).get_embedding()
    expected = np.exp(-np.outer(model.time_points, ref)).sum(axis=1)
    assert np.max(np.abs(lsd[0] - expected) / expected) < 1e-9


_SF_BYTES_SCRIPT = """
import sys
from graphmine import GraphCorpus, RandomSource, SfModel, erdos_renyi_gnm
g = erdos_renyi_gnm(300, 1500, RandomSource(5, 0), connected=True)
emb = SfModel(dimensions=300).fit(GraphCorpus(graphs=[g])).get_embedding()
sys.stdout.write(emb.tobytes().hex())
"""


def _sf_in_subprocess(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    res = subprocess.run(
        [sys.executable, "-c", _SF_BYTES_SCRIPT], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_sf_bytes_repeat_per_blas_thread_count_and_agree_across_counts():
    # LAPACK gives identical bytes on rerun at a fixed thread count; across
    # thread counts only rounding-level differences are allowed.
    rows = {}
    for threads in (1, 2):
        first = _sf_in_subprocess(threads)
        assert _sf_in_subprocess(threads) == first
        rows[threads] = np.frombuffer(bytes.fromhex(first))
    assert rows[1].shape == (300,)
    assert np.max(np.abs(rows[1] - rows[2])) < 1e-12


def test_not_fitted_guards():
    for model in (SfModel(), NetLsdModel(), WlSvdModel()):
        with pytest.raises(NotFitted):
            model.get_embedding()


def test_fingerprints_are_permutation_invariant():
    g = two_cliques(4)
    perm = [3, 1, 6, 0, 7, 2, 5, 4]
    pair = GraphCorpus(graphs=[g, triangle_pair()])
    pair_p = GraphCorpus(graphs=[_permuted(g, perm), triangle_pair()])
    for model_a, model_b in (
        (SfModel(dimensions=6), SfModel(dimensions=6)),
        (NetLsdModel(), NetLsdModel()),
        (WlSvdModel(dimensions=2, seed=1), WlSvdModel(dimensions=2, seed=1)),
    ):
        a = model_a.fit(pair).get_embedding()
        b = model_b.fit(pair_p).get_embedding()
        assert np.max(np.abs(a - b)) < 1e-9
