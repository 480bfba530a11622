"""Randomized invariant suites, shared by the property tests and the
acceptance gate.

Each function runs ``cases`` independent seeded trials and raises
AssertionError with the offending seed on the first violation, so failures
replay deterministically.
"""

import numpy as np

from graphmine import (
    DeepWalkModel,
    LabelPropagationModel,
    NetLsdModel,
    RandomSource,
    ScdModel,
    SfModel,
    SymNmfModel,
    WalkCorpus,
    WlSvdModel,
    GraphCorpus,
    auc,
    build_graph,
    canonicalize_memberships,
    erdos_renyi_gnm,
    nmi,
    sgns_train,
)
from oracles import auc_pairwise, nmi_reference


def _random_connected_graph(gen, case, low=4, high=16):
    n = int(gen.integers(low, high + 1))
    max_m = n * (n - 1) // 2
    m = int(gen.integers(n - 1, max_m + 1))
    return erdos_renyi_gnm(n, m, RandomSource(int(gen.integers(1 << 30)), case),
                           connected=True)


def membership_contract_suite(cases=200):
    """Clustering outputs are total over 0..n-1 and canonically numbered."""
    for case in range(cases):
        gen = RandomSource(1000 + case, 0).generator()
        g = _random_connected_graph(gen, case)
        n = g.node_count
        kind = case % 3
        if kind == 0:
            model = LabelPropagationModel(seed=case)
        elif kind == 1:
            model = ScdModel()
        else:
            k = int(gen.integers(1, min(6, n) + 1))
            model = SymNmfModel(dimensions=k, iterations=30, seed=case)
        mm = model.fit(g).get_memberships()
        assert sorted(mm) == list(range(n)), f"case {case}: not total"
        values = [mm[v] for v in range(n)]
        assert all(isinstance(v, int) and v >= 0 for v in values), f"case {case}"
        assert canonicalize_memberships(mm) == mm, f"case {case}: not canonical"
        assert set(values) == set(range(max(values) + 1)), f"case {case}: id gaps"
    return cases


def embedding_row_contract_suite(cases=200):
    """Trained vectors live at the row of their node id: nodes outside the
    corpus keep their seeded initial rows, nodes inside move."""
    for case in range(cases):
        gen = RandomSource(2000 + case, 0).generator()
        n = int(gen.integers(6, 24))
        active = sorted(gen.choice(n, size=int(gen.integers(2, n)), replace=False))
        walks = gen.choice(active, size=(int(gen.integers(1, 5)), 6)).astype(np.int64)
        # two epochs: the context table starts at zero, so the very first
        # pass cannot move a center row that only appears in one batch
        params = DeepWalkModel(
            dimensions=4, window_size=2, negative_samples=2, epochs=2, seed=case
        )
        trained = sgns_train(WalkCorpus(walks=walks, node_count=n), params)
        assert trained.shape == (n, 4), f"case {case}"
        init = (RandomSource(case, 0).generator().random((n, 4)) - 0.5) / 4
        untouched = sorted(set(range(n)) - set(int(x) for x in walks.ravel()))
        assert np.array_equal(trained[untouched], init[untouched]), f"case {case}"
        seen = sorted(set(int(x) for x in walks.ravel()))
        moved = [v for v in seen if not np.array_equal(trained[v], init[v])]
        assert moved, f"case {case}: no training happened"
    return cases


def permutation_invariance_suite(cases=200, tolerance=1e-9):
    """Whole-graph embeddings do not depend on node numbering."""
    reference = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    for case in range(cases):
        gen = RandomSource(3000 + case, 0).generator()
        g = _random_connected_graph(gen, case, low=4, high=14)
        perm = gen.permutation(g.node_count)
        permuted = build_graph(
            g.node_count, [(int(perm[u]), int(perm[v])) for u, v in g.edges()]
        )
        kind = case % 3
        if kind == 0:
            model_a, model_b = SfModel(dimensions=6), SfModel(dimensions=6)
        elif kind == 1:
            model_a, model_b = NetLsdModel(), NetLsdModel()
        else:
            model_a = WlSvdModel(wl_iterations=2, dimensions=2, seed=7)
            model_b = WlSvdModel(wl_iterations=2, dimensions=2, seed=7)
        a = model_a.fit(GraphCorpus(graphs=[g, reference])).get_embedding()
        b = model_b.fit(GraphCorpus(graphs=[permuted, reference])).get_embedding()
        gap = float(np.max(np.abs(a - b)))
        assert gap < tolerance, f"case {case}: gap {gap:.3e}"
    return cases


def metric_bounds_suite(cases=200):
    """Agreement and ranking scores stay inside [0, 1] and respect their
    symmetries."""
    for case in range(cases):
        gen = RandomSource(4000 + case, 0).generator()
        n = int(gen.integers(5, 50))
        a = gen.integers(0, int(gen.integers(1, 6)), size=n)
        b = gen.integers(0, int(gen.integers(1, 6)), size=n)
        va = nmi(a, b)
        assert -1e-12 <= va <= 1.0 + 1e-12, f"case {case}: nmi {va}"
        assert abs(va - nmi(b, a)) < 1e-12, f"case {case}: nmi asymmetric"
        assert abs(va - nmi_reference(a, b)) < 1e-12, f"case {case}: nmi off"
        assert abs(nmi(a, a) - 1.0) < 1e-12, f"case {case}: self nmi"
        relabel = gen.permutation(6)[a]
        assert abs(va - nmi(relabel, b)) < 1e-12, f"case {case}: label names leak"

        y = gen.integers(0, 2, size=n)
        y[0], y[1] = 0, 1
        p1 = gen.random(n)
        scores = np.column_stack([1.0 - p1, p1])
        vauc = auc(y, scores)
        assert 0.0 <= vauc <= 1.0, f"case {case}: auc {vauc}"
        assert abs(vauc - auc_pairwise(y, p1)) < 1e-12, f"case {case}: auc off"
        # swapping the roles of the classes and their score columns
        flipped = auc(1 - y, scores[:, ::-1])
        assert abs(vauc - flipped) < 1e-12, f"case {case}: auc not symmetric"
        stretched = auc(y, scores * 5.0 + 2.0)
        assert abs(vauc - stretched) < 1e-12, f"case {case}: not rank based"
    return cases


def loss_monotonicity_suite(cases=200, tolerance=1e-9):
    """Factorization loss never increases along the update path."""
    for case in range(cases):
        gen = RandomSource(5000 + case, 0).generator()
        g = _random_connected_graph(gen, case)
        k = int(gen.integers(1, min(6, g.node_count) + 1))
        model = SymNmfModel(dimensions=k, iterations=40, tolerance=0.0, seed=case)
        model.fit(g)
        losses = np.array(model.loss_history_)
        assert len(losses) == 41, f"case {case}: history truncated"
        worst = float(np.max(np.diff(losses)))
        assert worst <= tolerance, f"case {case}: loss rose by {worst:.3e}"
    return cases
