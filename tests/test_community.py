import numpy as np
import pytest

from graphmine import (
    DisconnectedGraph,
    IncompleteMembership,
    InputContractError,
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
from builders import (
    complete_graph,
    cycle_graph,
    hub_heavy,
    path_graph,
    star_graph,
    triangle_pair,
    two_cliques,
)
from graphmine.community import _argmax_rows
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


def _lp_reference(g, seed, max_iterations):
    """Frozen label propagation loop that counts each node's neighbor labels
    with ``np.bincount``; the model must give the same memberships."""
    n = g.node_count
    gen = RandomSource(seed, 0).generator()
    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_iterations):
        changed = False
        for v in gen.permutation(n):
            nbr_labels = labels[g.neighbors(v)]
            if nbr_labels.size == 0:
                continue
            counts = np.bincount(nbr_labels)
            best = np.flatnonzero(counts == counts.max())
            if labels[v] in best:
                continue
            pick = best[0] if best.size == 1 else best[gen.integers(0, best.size)]
            labels[v] = pick
            changed = True
        if not changed:
            break
    return canonicalize_memberships({v: int(labels[v]) for v in range(n)})


def test_lp_matches_the_bincount_reference_exactly():
    # graphs full of ties, so the seeded tie-break draws run often
    k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    graphs = [star_graph(9), cycle_graph(12), k33, hub_heavy(80, 160, 3), build_graph(1, [])]
    for g in graphs:
        for seed in (0, 1, 7, 42):
            for max_iterations in (1, 2, 100):
                got = LabelPropagationModel(seed=seed, max_iterations=max_iterations).fit(g)
                assert got.get_memberships() == _lp_reference(g, seed, max_iterations)


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


def _wcc_reference(v, members, nbrs_v, tri_nbrs_v, t_total, adj_sets):
    """The frozen cohesion score that rescans every neighbor of v."""
    if t_total == 0:
        return 0.0
    inside = [u for u in nbrs_v if u in members]
    t_in = 0
    for i, u in enumerate(inside):
        adj_u = adj_sets[u]
        for w in inside[i + 1:]:
            if w in adj_u:
                t_in += 1
    vt_total = len(tri_nbrs_v)
    vt_outside = sum(1 for u in tri_nbrs_v if u not in members)
    denom = len(members) + vt_outside
    if denom == 0:
        return 0.0
    return (t_in / t_total) * (vt_total / denom)


def _scd_reference(g, refinement_rounds):
    """Frozen SCD fit that scores every neighbor's community with
    ``_wcc_reference``; the model must give the same memberships."""
    n = g.node_count
    deg = g.degrees
    a = g.adjacency_scipy().toarray()
    tri = (a @ a) * a  # entry (u, v): the triangles through edge (u, v)
    tri_nbrs = [np.flatnonzero(tri[v]).tolist() for v in range(n)]
    t_counts = tri.sum(axis=1).astype(np.int64) // 2
    adj_sets = [set(map(int, g.neighbors(v))) for v in range(n)]
    cc = np.zeros(n)
    mask = deg >= 2
    cc[mask] = 2.0 * t_counts[mask] / (deg[mask] * (deg[mask] - 1.0))
    order = sorted(range(n), key=lambda v: (-cc[v], v))
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for v in order:
        if labels[v] != -1:
            continue
        labels[v] = next_label
        if t_counts[v] > 0:
            for u in g.neighbors(v):
                if labels[u] == -1 and t_counts[u] > 0:
                    labels[u] = next_label
        next_label += 1
    members = {}
    for v in range(n):
        members.setdefault(int(labels[v]), set()).add(v)
    for _ in range(refinement_rounds):
        moved = False
        for v in range(n):
            if t_counts[v] == 0:
                continue
            nbrs_v = g.neighbors(v)
            current = int(labels[v])
            candidates = {current}
            candidates.update(int(labels[u]) for u in nbrs_v)
            own = members[current]
            own.discard(v)
            best_label, best_score = current, _wcc_reference(
                v, own, nbrs_v, tri_nbrs[v], t_counts[v], adj_sets
            )
            for cand in sorted(candidates):
                if cand == current:
                    continue
                score = _wcc_reference(
                    v, members[cand], nbrs_v, tri_nbrs[v], t_counts[v], adj_sets
                )
                if score > best_score:
                    best_label, best_score = cand, score
            if best_label == current:
                own.add(v)
            else:
                moved = True
                labels[v] = best_label
                members[best_label].add(v)
        if not moved:
            break
    return canonicalize_memberships({v: int(labels[v]) for v in range(n)})


def test_scd_matches_the_wcc_reference_exactly():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    k5_path_k5 = build_graph(12, k5 + [(i + 5, j + 5) for i, j in k5] + [(4, 10), (10, 11), (11, 5)])
    graphs = [
        triangle_pair(),
        two_cliques(4),
        star_graph(9),
        hub_heavy(80, 160, 3),
        k5_path_k5,
        # its refinement meets tied candidates whose ascending-label order
        # differs from the order their partners are listed in
        erdos_renyi_gnm(60, 240, RandomSource(3, 0), connected=True),
    ]
    for g in graphs:
        for rounds in (0, 1, 2, 25):
            got = ScdModel(refinement_rounds=rounds).fit(g).get_memberships()
            assert got == _scd_reference(g, rounds)


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
    with pytest.raises(RankTooLarge, match="^dimensions 5 not in 1..4$"):
        SymNmfModel(dimensions=5).fit(g)
    # a rank below 1 is a hyperparameter minimum, checked before the graph
    with pytest.raises(InputContractError, match="^dimensions must be >= 1, got 0$"):
        SymNmfModel(dimensions=0).fit(g)


def _symnmf_reference(g, dimensions, iterations, tolerance, seed):
    """Frozen SymNMF fit that computes A H and H^T H anew for every update
    and every loss; returns (H, loss history, memberships, rejected steps)."""
    n = g.node_count
    k = dimensions
    a = g.adjacency_scipy()
    gen = RandomSource(seed, 0).generator()
    mean_a = 2.0 * g.edge_count / float(n * n)
    h = gen.random((n, k)) * np.sqrt(mean_a / k)
    a_fro2 = 2.0 * g.edge_count

    def loss(h):
        gram = h.T @ h
        cross = float(np.sum((a @ h) * h))
        return a_fro2 - 2.0 * cross + float(np.sum(gram * gram))

    eps = 1e-10
    losses = [loss(h)]
    rejected = 0
    for _ in range(iterations):
        numer = a @ h
        denom = h @ (h.T @ h) + eps
        ratio = numer / denom
        gamma = 0.5
        current = losses[-1]
        candidate = h * ((1.0 - gamma) + gamma * ratio)
        cand_loss = loss(candidate)
        while cand_loss > current and gamma > 1e-6:
            gamma *= 0.5
            candidate = h * ((1.0 - gamma) + gamma * ratio)
            cand_loss = loss(candidate)
        if cand_loss > current:
            candidate, cand_loss = h, current
            rejected += 1
        h = candidate
        losses.append(cand_loss)
        if losses[-2] > 0:
            if abs(losses[-2] - losses[-1]) / max(losses[-2], eps) < tolerance:
                break
    argmax_gen = RandomSource(seed, 1).generator()
    assignments = {}
    for v in range(n):
        row = h[v]
        best = np.flatnonzero(row == row.max())
        pick = best[0] if best.size == 1 else best[argmax_gen.integers(0, best.size)]
        assignments[v] = int(pick)
    return h, losses, canonicalize_memberships(assignments), rejected


def test_symnmf_matches_the_recomputing_reference_exactly():
    cases = [
        # backtracking rejects the last 24 of the 300 steps; steps taken
        # from a rejected candidate's products would be accepted here
        (triangle_pair(), dict(dimensions=3, iterations=300, tolerance=0.0, seed=0)),
        # stops early on the tolerance, after 116 steps
        (erdos_renyi_gnm(30, 60, RandomSource(3, 0), connected=True),
         dict(dimensions=2, iterations=500, tolerance=1e-6, seed=0)),
    ]
    paths = []
    for g, params in cases:
        h, losses, memberships, rejected = _symnmf_reference(g, **params)
        model = SymNmfModel(**params).fit(g)
        assert np.array_equal(model.get_embedding(), h)
        assert np.array_equal(model.loss_history_, losses)
        assert model.get_memberships() == memberships
        paths.append((rejected, len(losses)))
    assert paths == [(24, 301), (0, 117)]


def _argmax_loop(h, seed):
    """The hard-assignment loop of ``_symnmf_reference``, on its own, so a
    hand-built H can reach its tie path."""
    argmax_gen = RandomSource(seed, 1).generator()
    assignments = {}
    for v in range(h.shape[0]):
        row = h[v]
        best = np.flatnonzero(row == row.max())
        pick = best[0] if best.size == 1 else best[argmax_gen.integers(0, best.size)]
        assignments[v] = int(pick)
    return [assignments[v] for v in range(h.shape[0])]


def test_symnmf_argmax_draws_only_for_tied_rows_in_node_order():
    h = np.array([
        [0.1, 0.7, 0.7, 0.0],
        [0.9, 0.2, 0.3, 0.1],
        [0.5, 0.5, 0.5, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.2, 0.4, 0.1, 0.4],
        [0.3, 0.1, 0.3, 0.8],
        [0.6, 0.6, 0.0, 0.6],
    ])
    for seed in range(20):
        assert _argmax_rows(h, RandomSource(seed, 1).generator()) == _argmax_loop(h, seed)
    # a row with one maximum takes no draw: the tied rows see the same
    # stream whether or not untied rows sit between them
    untied = np.array([[0.0, 0.0, 0.0, 1.0]] * 3)
    padded = np.vstack([untied, h[[0]], untied, h[[2]], untied, h[[6]]])
    for seed in range(20):
        picks = _argmax_rows(padded, RandomSource(seed, 1).generator())
        assert picks == _argmax_loop(padded, seed)
        assert picks[3::4] == _argmax_loop(h[[0, 2, 6]], seed)


def test_symnmf_not_fitted_guard():
    model = SymNmfModel()
    with pytest.raises(NotFitted):
        model.get_embedding()
    with pytest.raises(NotFitted):
        model.get_memberships()
