import numpy as np
import pytest

from graphmine import (
    DisconnectedGraph,
    IncompleteMembership,
    LabelPropagationModel,
    NotFitted,
    RandomSource,
    RankTooLarge,
    ScdModel,
    SymNmfModel,
    build_graph,
    canonicalize_memberships,
    erdos_renyi_gnm,
    modularity,
    nmi,
)
from builders import complete_graph, path_graph, star_graph, triangle_pair, two_cliques
from oracles import modularity_reference


def _labels_of(memberships, n):
    return [memberships[v] for v in range(n)]


# --- modularity ---

def test_modularity_matches_double_sum_reference():
    for seed in range(30):
        gen = RandomSource(seed, 0).generator()
        n = int(gen.integers(2, 13))
        max_m = n * (n - 1) // 2
        m = int(gen.integers(1, max_m + 1))
        g = erdos_renyi_gnm(n, m, RandomSource(seed, 1))
        labels = gen.integers(0, int(gen.integers(1, n + 1)), size=n)
        got = modularity(g, {v: int(labels[v]) for v in range(n)})
        expected = modularity_reference(g.adjacency_scipy().toarray(), labels)
        assert abs(got - expected) < 1e-12


def test_modularity_known_values():
    g = triangle_pair()
    split = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    assert abs(modularity(g, split) - 5.0 / 14.0) < 1e-15
    # one community captures all edges but also all degree mass
    assert abs(modularity(complete_graph(5), {v: 0 for v in range(5)})) < 1e-15
    # singletons on a single edge
    assert abs(modularity(build_graph(2, [(0, 1)]), {0: 0, 1: 1}) + 0.5) < 1e-15


def test_modularity_is_invariant_under_relabeling():
    g = two_cliques(4)
    a = {v: (0 if v < 4 else 1) for v in range(8)}
    b = {v: (7 if v < 4 else 3) for v in range(8)}
    assert modularity(g, a) == modularity(g, b)


def test_modularity_rejects_bad_memberships():
    g = path_graph(4)
    with pytest.raises(IncompleteMembership):
        modularity(g, {0: 0, 1: 0, 2: 0})
    with pytest.raises(IncompleteMembership):
        modularity(g, {0: 0, 1: 0, 2: 0, 3: 0, 4: 0})
    with pytest.raises(IncompleteMembership):
        modularity(build_graph(3, []), {0: 0, 1: 0, 2: 0})


# --- canonical membership form ---

def test_canonicalize_first_appearance_order():
    assert canonicalize_memberships({0: 9, 1: 9, 2: 4, 3: 9}) == {0: 0, 1: 0, 2: 1, 3: 0}


def test_canonicalize_is_idempotent():
    raw = {3: 5, 0: 2, 1: 2, 2: 8}
    once = canonicalize_memberships(raw)
    assert canonicalize_memberships(once) == once
    assert sorted(once) == [0, 1, 2, 3]
    assert set(once.values()) == {0, 1, 2}


# --- label propagation ---

def test_lp_recovers_two_cliques():
    g = two_cliques(4)
    model = LabelPropagationModel(seed=42).fit(g)
    mm = model.get_memberships()
    assert mm == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1}


def test_lp_is_deterministic_per_seed():
    g = erdos_renyi_gnm(30, 60, RandomSource(2, 0), connected=True)
    a = LabelPropagationModel(seed=7).fit(g).get_memberships()
    b = LabelPropagationModel(seed=7).fit(g).get_memberships()
    assert a == b


def test_lp_output_is_total_and_canonical():
    g = erdos_renyi_gnm(25, 50, RandomSource(5, 0), connected=True)
    mm = LabelPropagationModel(seed=1).fit(g).get_memberships()
    assert sorted(mm) == list(range(25))
    assert canonicalize_memberships(mm) == mm


def test_lp_requires_connected_graph():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        LabelPropagationModel().fit(g)


def test_lp_not_fitted_guard():
    with pytest.raises(NotFitted):
        LabelPropagationModel().get_memberships()


# --- greedy triangle clustering ---

def test_scd_splits_bridged_triangles():
    mm = ScdModel().fit(triangle_pair()).get_memberships()
    assert mm == {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}


def test_scd_recovers_two_cliques():
    mm = ScdModel().fit(two_cliques(4)).get_memberships()
    assert mm == {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1}


def test_scd_triangle_free_nodes_become_singletons():
    assert ScdModel().fit(path_graph(4)).get_memberships() == {0: 0, 1: 1, 2: 2, 3: 3}
    assert ScdModel().fit(star_graph(5)).get_memberships() == {
        0: 0, 1: 1, 2: 2, 3: 3, 4: 4
    }


def test_scd_is_deterministic():
    g = erdos_renyi_gnm(30, 90, RandomSource(3, 0), connected=True)
    assert ScdModel().fit(g).get_memberships() == ScdModel().fit(g).get_memberships()


def test_scd_requires_connected_graph():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(DisconnectedGraph):
        ScdModel().fit(g)


# --- symmetric factorization ---

def test_symnmf_recovers_two_cliques():
    g = two_cliques(4)
    model = SymNmfModel(dimensions=2, seed=42).fit(g)
    mm = model.get_memberships()
    truth = [0, 0, 0, 0, 1, 1, 1, 1]
    assert nmi(truth, _labels_of(mm, 8)) == 1.0


def test_symnmf_factor_is_nonnegative_with_expected_shape():
    g = erdos_renyi_gnm(15, 40, RandomSource(1, 0), connected=True)
    h = SymNmfModel(dimensions=4, seed=0).fit(g).get_embedding()
    assert h.shape == (15, 4)
    assert np.all(h >= 0)
    assert np.all(np.isfinite(h))


def test_symnmf_loss_history_never_increases():
    g = erdos_renyi_gnm(20, 60, RandomSource(9, 0), connected=True)
    model = SymNmfModel(dimensions=3, iterations=80, tolerance=0.0, seed=3).fit(g)
    losses = np.array(model.loss_history_)
    assert len(losses) >= 2
    assert np.all(np.diff(losses) <= 1e-9)


def test_symnmf_loss_is_the_squared_reconstruction_error():
    g = two_cliques(3, bridged=True)
    model = SymNmfModel(dimensions=2, iterations=5, tolerance=0.0, seed=1).fit(g)
    h = model.get_embedding()
    a = g.adjacency_scipy().toarray()
    direct = float(np.sum((a - h @ h.T) ** 2))
    assert abs(model.loss_history_[-1] - direct) < 1e-9


def test_symnmf_is_deterministic_and_seed_sensitive():
    g = erdos_renyi_gnm(12, 30, RandomSource(4, 0), connected=True)
    fit1, fit2, fit3 = (SymNmfModel(dimensions=3, seed=s).fit(g) for s in (5, 5, 6))
    h1, m1 = fit1.get_embedding(), fit1.get_memberships()
    h2, m2 = fit2.get_embedding(), fit2.get_memberships()
    h3 = fit3.get_embedding()
    assert np.array_equal(h1, h2)
    assert m1 == m2
    assert not np.array_equal(h1, h3)


def test_symnmf_embedding_getter_returns_a_copy():
    g = two_cliques(3)
    model = SymNmfModel(dimensions=2, seed=0).fit(g)
    out = model.get_embedding()
    out[:] = -1.0
    assert np.all(model.get_embedding() >= 0)


def test_symnmf_rejects_bad_rank():
    g = path_graph(4)
    with pytest.raises(RankTooLarge):
        SymNmfModel(dimensions=5).fit(g)
    with pytest.raises(RankTooLarge):
        SymNmfModel(dimensions=0).fit(g)


def test_symnmf_not_fitted_guard():
    model = SymNmfModel()
    with pytest.raises(NotFitted):
        model.get_embedding()
    with pytest.raises(NotFitted):
        model.get_memberships()
