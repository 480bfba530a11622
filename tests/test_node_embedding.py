import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from graphmine import (
    DeepWalkModel,
    DisconnectedGraph,
    EmptyCorpus,
    Estimator,
    GraphTooLarge,
    InputContractError,
    IsolatedNode,
    NETMF_NODE_CAP,
    NetMfModel,
    NoConvergence,
    NotFitted,
    OutOfRangeNode,
    RandomSource,
    RankTooLarge,
    WalkCorpus,
    WalkletsModel,
    build_graph,
    erdos_renyi_gnm,
    generate_walks,
    randomized_svd,
    sgns_pair_gradients,
    sgns_pair_loss,
    sgns_train,
)
from graphmine import graph_core, node_embedding
from graphmine.node_embedding import (
    _bucket_search,
    _bucket_table,
    _pair_blocks,
    _sgns_steps,
    _stable_sigmoid,
    _window_template,
)
from builders import cycle_graph, hub_heavy, path_graph, random_connected, star_graph, two_cliques
from frozen_netmf import netmf_embedding_by_copies
from oracles import (
    central_difference,
    gradient_gap,
    simulate_single_walk,
    walk_proximity_reference,
)


def _mean_cosine(embedding, pairs):
    normed = embedding / np.linalg.norm(embedding, axis=1, keepdims=True)
    return float(np.mean([normed[i] @ normed[j] for i, j in pairs]))


# --- walk generation ---

def test_walks_have_expected_shape_and_starts():
    g = erdos_renyi_gnm(9, 16, RandomSource(0, 0), connected=True)
    corpus = generate_walks(g, walk_number=4, walk_length=12, rng=RandomSource(1, 0))
    assert corpus.walks.shape == (36, 12)
    assert corpus.node_count == 9
    assert np.array_equal(corpus.walks[:, 0], np.tile(np.arange(9), 4))


def test_every_walk_step_follows_an_edge():
    g = erdos_renyi_gnm(12, 24, RandomSource(3, 0), connected=True)
    walks = generate_walks(g, 3, 10, RandomSource(5, 0)).walks
    edge_set = set(g.edges())
    for row in walks:
        for a, b in zip(row[:-1], row[1:]):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            assert key in edge_set


def test_each_walk_is_reproducible_in_isolation():
    """Walk w depends only on child stream w, not on the other walks."""
    g = erdos_renyi_gnm(8, 14, RandomSource(2, 0), connected=True)
    rng = RandomSource(11, 0)
    walks = generate_walks(g, 5, 9, rng).walks
    for w in [0, 7, 13, 39]:
        assert list(walks[w]) == simulate_single_walk(g, rng, w, 9)


def test_walks_are_deterministic_and_stream_sensitive():
    g = erdos_renyi_gnm(10, 20, RandomSource(4, 0), connected=True)
    a = generate_walks(g, 2, 8, RandomSource(1, 0)).walks
    b = generate_walks(g, 2, 8, RandomSource(1, 0)).walks
    c = generate_walks(g, 2, 8, RandomSource(1, 1)).walks
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_walk_on_single_edge_alternates():
    g = build_graph(2, [(0, 1)])
    walks = generate_walks(g, 1, 6, RandomSource(0, 0)).walks
    assert list(walks[0]) == [0, 1, 0, 1, 0, 1]
    assert list(walks[1]) == [1, 0, 1, 0, 1, 0]


def test_walk_length_one_emits_only_starts():
    g = path_graph(4)
    walks = generate_walks(g, 2, 1, RandomSource(0, 0)).walks
    assert walks.shape == (8, 1)
    assert np.array_equal(walks[:, 0], np.tile(np.arange(4), 2))


@pytest.mark.parametrize("walk_number, walk_length", [(0, 5), (-1, 5), (2, 0), (2, -3)])
def test_walks_reject_counts_below_one(walk_number, walk_length):
    with pytest.raises(InputContractError, match="must be >= 1"):
        generate_walks(path_graph(4), walk_number, walk_length, RandomSource(0, 0))


def test_walks_reject_unusable_graphs():
    # a walk step needs a neighbour; connectivity is the estimators' rule, checked by fit
    with pytest.raises(IsolatedNode, match="^node 2 has degree 0$"):
        generate_walks(build_graph(4, [(0, 1), (1, 3)]), 1, 5, RandomSource(0, 0))
    with pytest.raises(IsolatedNode, match="^node 0 has degree 0$"):
        generate_walks(build_graph(1, []), 1, 5, RandomSource(0, 0))
    walks = generate_walks(build_graph(4, [(0, 1), (2, 3)]), 2, 5, RandomSource(0, 0)).walks
    assert [set(w) for w in walks.tolist()] == [{0, 1}, {0, 1}, {2, 3}, {2, 3}] * 2


# --- pair loss and gradients ---

def test_pair_loss_is_positive_and_finite():
    gen = RandomSource(0, 0).generator()
    for _ in range(10):
        c = gen.standard_normal(6)
        x = gen.standard_normal(6)
        negs = gen.standard_normal((4, 6))
        loss = sgns_pair_loss(c, x, negs)
        assert np.isfinite(loss) and loss > 0


def test_pair_gradients_match_finite_differences():
    gen = RandomSource(13, 0).generator()
    for _ in range(20):
        c = gen.standard_normal(5)
        x = gen.standard_normal(5)
        negs = gen.standard_normal((3, 5))
        g_c, g_x, g_n = sgns_pair_gradients(c, x, negs)
        fd_c = central_difference(lambda z: sgns_pair_loss(z, x, negs), c)
        fd_x = central_difference(lambda z: sgns_pair_loss(c, z, negs), x)
        fd_n = central_difference(lambda z: sgns_pair_loss(c, x, z), negs)
        assert gradient_gap(g_c, fd_c) < 1e-7
        assert gradient_gap(g_x, fd_x) < 1e-7
        assert gradient_gap(g_n, fd_n) < 1e-7


def test_batched_steps_keep_pairs_apart():
    """Row for row, a batch of b pairs at rates alpha_i holds
    -alpha_i * sgns_pair_gradients(pair i): its center row as written, and
    its context and negative rows as their coefficients times uc[i]; no pair
    leaks into another."""
    gen = RandomSource(29, 0).generator()
    for b, k, d in [(3, 4, 5), (7, 1, 3), (5, 0, 6)]:
        uc = gen.standard_normal((b, d))
        vx = gen.standard_normal((b, d))
        vn = gen.standard_normal((b, k, d))
        alphas = gen.random(b) * 0.5 + 0.01
        out = np.empty((b, d))
        coef = np.empty(b * (k + 2))
        _sgns_steps(uc, vx, vn, alphas, out, coef)
        assert np.array_equal(coef[:b], np.ones(b))
        negatives = coef[2 * b:].reshape(b, k)
        for i in range(b):
            g_c, g_x, g_n = sgns_pair_gradients(uc[i], vx[i], vn[i])
            np.testing.assert_allclose(out[i], -alphas[i] * g_c, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(coef[b + i] * uc[i], -alphas[i] * g_x, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                negatives[i][:, None] * uc[i], -alphas[i] * g_n, rtol=1e-12, atol=1e-15
            )


def test_pair_loss_survives_extreme_scores():
    big = np.full(4, 50.0)
    assert np.isfinite(sgns_pair_loss(big, big, np.stack([big, -big])))
    assert np.isfinite(sgns_pair_loss(big, -big, np.stack([big])))


# --- skip-gram trainer ---

def test_trainer_touches_exactly_the_corpus_nodes():
    """Row i of the output belongs to node i: rows of nodes absent from the
    corpus keep their seeded initial values."""
    n, d = 12, 4
    walks = np.array([[2, 5, 2, 7], [7, 2, 5, 5]], dtype=np.int64)
    params = DeepWalkModel(dimensions=d, window_size=2, negative_samples=2, seed=9)
    trained = sgns_train(WalkCorpus(walks=walks, node_count=n), params)
    init = (RandomSource(9, 0).generator().random((n, d)) - 0.5) / d
    untouched = sorted(set(range(n)) - {2, 5, 7})
    assert np.array_equal(trained[untouched], init[untouched])
    for v in (2, 5, 7):
        assert not np.array_equal(trained[v], init[v])


def test_trainer_is_deterministic():
    g = erdos_renyi_gnm(10, 20, RandomSource(1, 0), connected=True)
    corpus = generate_walks(g, 2, 10, RandomSource(2, 0))
    params = DeepWalkModel(dimensions=8, window_size=3, negative_samples=3, seed=4)
    assert np.array_equal(sgns_train(corpus, params), sgns_train(corpus, params))


def test_trainer_rejects_empty_corpora():
    empty = WalkCorpus(walks=np.empty((0, 5), dtype=np.int64), node_count=4)
    with pytest.raises(EmptyCorpus):
        sgns_train(empty, DeepWalkModel())
    starts_only = WalkCorpus(walks=np.zeros((3, 1), dtype=np.int64), node_count=4)
    with pytest.raises(EmptyCorpus):
        sgns_train(starts_only, DeepWalkModel())


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dimensions": 0}, "dimensions must be >= 1, got 0"),
        ({"window_size": 0}, "window_size must be >= 1, got 0"),
        ({"negative_samples": -1}, "negative_samples must be >= 0, got -1"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"learning_rate": 0.0}, "learning_rate must be a positive finite number, got 0.0"),
        ({"learning_rate": float("inf")}, "learning_rate must be a positive finite number, got inf"),
        ({"learning_rate": float("nan")}, "learning_rate must be a positive finite number, got nan"),
        ({"learning_rate": -1.0}, "learning_rate must be a positive finite number, got -1.0"),
        ({"dimensions": 2.0}, "dimensions must be an integer, got 2.0"),
    ],
    ids=["dimensions", "window", "negatives", "epochs", "rate-zero", "rate-inf", "rate-nan",
         "rate-negative", "dimensions-float"],
)
def test_trainer_checks_its_settings_as_the_walk_models_do(change, message):
    corpus = generate_walks(cycle_graph(6), 1, 5, RandomSource(1, 0))
    with pytest.raises(InputContractError, match=f"^{message}$"):
        sgns_train(corpus, replace(DeepWalkModel(dimensions=4), **change))
    with pytest.raises(InputContractError, match=f"^{message}$"):
        DeepWalkModel(walk_number=1, walk_length=5, **{"dimensions": 4, **change}).fit(cycle_graph(6))


@pytest.mark.parametrize(
    "params, name",
    [(None, "NoneType"), ({"dimensions": 4}, "dict"), (NetMfModel(), "NetMfModel")],
    ids=["none", "dict", "netmf"],
)
def test_trainer_takes_only_a_walk_model_as_its_settings(params, name):
    corpus = generate_walks(cycle_graph(6), 1, 5, RandomSource(1, 0))
    with pytest.raises(InputContractError, match=f"^sgns_train takes a walk model as params, got {name}$"):
        sgns_train(corpus, params)


def test_window_template_lists_every_pair_within_the_window():
    for length, window in [(1, 3), (2, 1), (5, 2), (6, 10), (10, 3), (80, 5)]:
        want = [
            (i, j) for i in range(length) for j in range(length) if 0 < abs(i - j) <= window
        ]
        centers, contexts = _window_template(length, window)
        assert list(zip(centers.tolist(), contexts.tolist())) == want, (length, window)


def test_trainer_rejects_walk_ids_out_of_range():
    for bad in (-1, 5):
        walks = np.array([[0, 1, 2], [2, bad, 1]], dtype=np.int64)
        with pytest.raises(OutOfRangeNode, match=f"walk node {bad} not in 0..2"):
            sgns_train(WalkCorpus(walks=walks, node_count=3), DeepWalkModel(dimensions=4))


def test_trainer_stays_bounded_on_a_hub_graph():
    # a hub node appears in nearly every pair; updates must not blow up
    from builders import star_graph

    g = star_graph(40)
    corpus = generate_walks(g, 3, 20, RandomSource(0, 0))
    emb = sgns_train(corpus, DeepWalkModel(dimensions=8, window_size=3, seed=1))
    assert np.all(np.isfinite(emb))
    assert np.max(np.abs(emb)) < 100.0


def test_trainer_raises_no_convergence_when_weights_overflow():
    """A learning rate far too large for a star graph drives the weights to
    NaN (d=14) or to about 1e149 (d=4); the fit must fail instead of
    returning them."""
    for dimensions in (14, 4):
        model = DeepWalkModel(
            walk_number=2, walk_length=18, dimensions=dimensions, window_size=3,
            negative_samples=6, epochs=3, learning_rate=0.5, seed=411,
        )
        with pytest.raises(NoConvergence):
            model.fit(star_graph(18))
        with pytest.raises(NotFitted):
            model.get_embedding()


@pytest.mark.parametrize("dimensions", [14, 4])
def test_trainer_stops_at_the_first_chunk_that_diverges(monkeypatch, dimensions):
    """Both fits above hold a weight that is NaN or beyond the bound after
    their first epoch, one chunk of pairs, so each raises before it draws
    the negatives of the second: fewer than a full run's."""
    drawn = []
    search = node_embedding._bucket_search
    monkeypatch.setattr(
        node_embedding, "_bucket_search", lambda table, cum, r: drawn.append(r.size) or search(table, cum, r)
    )
    model = DeepWalkModel(
        walk_number=2, walk_length=18, dimensions=dimensions, window_size=3,
        negative_samples=6, epochs=3, learning_rate=0.5, seed=411,
    )
    with pytest.raises(NoConvergence, match="^skip-gram training diverged: a weight is NaN"):
        model.fit(star_graph(18))
    full_run = 36 * len(_window_template(18, 3)[0]) * 3 * 6  # walks x pairs x epochs x negatives
    assert 0 < sum(drawn) < full_run


def test_scipy_csc_product_rounds_each_term_before_adding():
    """(1 + 2**-30)**2 is 1 + 2**-29 + 2**-60: rounded, it cancels
    -(1 + 2**-29) exactly; a fused multiply-add would leave 2**-60."""
    c = 1 + 2**-30
    x = np.array([-(1 + 2**-29), 1 + 2**-30])
    sel = sparse.csc_matrix((np.array([1.0, c]), np.zeros(2, dtype=np.int64), np.arange(3)), shape=(1, 2))
    for width in (1, 2, 33):  # the vector product and the multivector one
        got = sel @ np.repeat(x[:, None], width, axis=1)
        assert np.all(got == 0.0), (
            f"scipy's CSC product fused a multiply-add (got {got.ravel()[0]!r} at width {width}); "
            "the skip-gram trainer's byte identity rests on each coefficient product being "
            "rounded before it is added"
        )


# --- byte-identity pin: the trainer against its first, plain loop ---

def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_train_pairs(blocks_factory, n, params, total_pairs):
    """The skip-gram loop as first written, frozen: two COO->CSR selection
    products per batch, ``np.searchsorted`` negative draws and the
    two-branch sigmoid.  Returns the center table and the batch size."""
    d = params.dimensions
    gen = RandomSource(params.seed, 0).generator()
    u = (gen.random((n, d)) - 0.5) / d
    v = np.zeros((n, d))
    center_freq = np.zeros(n, dtype=np.int64)
    context_freq = np.zeros(n, dtype=np.int64)
    for centers, contexts in blocks_factory():
        center_freq += np.bincount(centers, minlength=n)
        context_freq += np.bincount(contexts, minlength=n)
    noise = context_freq.astype(np.float64) ** 0.75
    cum = np.cumsum(noise)
    p_noise = noise / cum[-1]
    cum /= cum[-1]
    neg = params.negative_samples
    p_eff = (center_freq + context_freq) / float(total_pairs) + neg * p_noise
    batch = int(np.clip(np.floor(16.0 / float(p_eff.max())), 1, 1024))
    alpha0 = params.learning_rate
    alpha_end = alpha0 / 100.0
    span = max(total_pairs * params.epochs - 1, 1)
    done = 0
    for _ in range(params.epochs):
        for centers, contexts in blocks_factory():
            for lo in range(0, len(centers), batch):
                cb = centers[lo: lo + batch]
                xb = contexts[lo: lo + batch]
                b = len(cb)
                alphas = alpha0 + (alpha_end - alpha0) * ((done + np.arange(b)) / span)
                done += b
                negs = np.searchsorted(cum, gen.random((b, neg)))
                uc, vx, vn = u[cb], v[xb], v[negs]
                s_pos = _reference_sigmoid(np.einsum("bd,bd->b", uc, vx))
                s_neg = _reference_sigmoid(np.einsum("bkd,bd->bk", vn, uc))
                coef_pos = alphas * (1.0 - s_pos)
                coef_neg = -alphas[:, None] * s_neg
                grad_u = coef_pos[:, None] * vx + np.einsum("bk,bkd->bd", coef_neg, vn)
                u += sparse.csr_matrix((np.ones(b), (cb, np.arange(b))), shape=(n, b)) @ grad_u
                rows = np.concatenate([xb, negs.ravel()])
                grads = np.concatenate(
                    [coef_pos[:, None] * uc, (coef_neg[:, :, None] * uc[:, None, :]).reshape(-1, d)]
                )
                m = len(rows)
                v += sparse.csr_matrix((np.ones(m), (rows, np.arange(m))), shape=(n, m)) @ grads
    return u, batch


_PIN_CASES = {
    # (graph, walk_number, walk_length, trainer fields, batch check)
    "near-regular-at-cap": (
        cycle_graph(1200), 1, 10, dict(window_size=2), lambda b: b == 1024,
    ),
    "star-small-batch": (
        star_graph(40), 2, 12, dict(window_size=3), lambda b: b < 64,
    ),
    "no-negatives": (
        random_connected(30, 60, 3), 2, 10, dict(window_size=2, negative_samples=0), None,
    ),
    "twenty-negatives": (
        star_graph(12), 1, 10, dict(window_size=2, negative_samples=20), lambda b: b <= 2,
    ),
    "two-epochs": (
        random_connected(40, 100, 5), 2, 10, dict(window_size=3, epochs=2), None,
    ),
    "three-walk-blocks": (  # 4,400 walks: pair counts sum over 2048-walk blocks
        cycle_graph(1100), 4, 6, dict(window_size=2), None,
    ),
    "chunked-block-at-cap": (  # one block of 129,600 pairs: 15 whole 8,192-pair
        # draw chunks, then one of 6,720 that ends on a 576-pair batch
        cycle_graph(1200), 1, 20, dict(window_size=3), lambda b: b == 1024,
    ),
    "star-two-walk-blocks": (  # 2,400 walks in two blocks; 6-pair batches make
        # 8,190-pair draw chunks, and each block ends on a partial one
        star_graph(40), 60, 6, dict(window_size=2), lambda b: b < 64,
    ),
}


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_trainer_bytes_match_the_reference_loop(case):
    g, walk_number, walk_length, fields, batch_ok = _PIN_CASES[case]
    params = DeepWalkModel(dimensions=8, seed=17, **fields)
    walks = generate_walks(g, walk_number, walk_length, RandomSource(params.seed, 0)).walks
    n = g.node_count

    total = walks.shape[0] * len(_window_template(walk_length, params.window_size)[0])
    want, batch = _reference_train_pairs(
        lambda: _pair_blocks(walks, _window_template(walk_length, params.window_size)),
        n, params, total
    )
    if batch_ok is not None:
        assert batch_ok(batch), batch
    if batch == 1024:
        assert total % batch != 0  # the last batch is a partial one
    got = sgns_train(WalkCorpus(walks=walks, node_count=n), params)
    assert np.array_equal(got, want)

    model = WalkletsModel(
        walk_number=walk_number, walk_length=walk_length, dimensions=params.dimensions,
        window_size=params.window_size, negative_samples=params.negative_samples,
        epochs=params.epochs, learning_rate=params.learning_rate, seed=params.seed,
    )
    emb = model.fit(g).get_embedding()
    d = params.dimensions
    for scale in range(1, params.window_size + 1):
        want, _ = _reference_train_pairs(
            lambda s=scale: _pair_blocks(
                walks, (np.arange(walk_length - s), np.arange(s, walk_length))
            ), n,
            replace(params, seed=params.seed + scale), walks.shape[0] * (walk_length - scale),
        )
        assert np.array_equal(emb[:, (scale - 1) * d: scale * d], want), scale


def test_bucket_search_equals_searchsorted():
    gen = RandomSource(23, 0).generator()
    for n in (1, 2, 7, 64, 1000):
        noise = gen.random(n) ** 0.75
        noise[gen.random(n) < 0.3] = 0.0  # zero-frequency contexts repeat cum values
        noise[0] = 0.0
        noise[-1] = 1.0
        cum = np.cumsum(noise)
        cum /= cum[-1]
        table = _bucket_table(cum)
        buckets = len(table)
        assert buckets >= 8 * n and buckets & (buckets - 1) == 0
        keys = np.concatenate([
            gen.random(4000),
            np.arange(buckets) / buckets,  # every bucket edge
            cum[cum < 1.0],
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        assert np.array_equal(_bucket_search(table, cum, keys), np.searchsorted(cum, keys))
        square = gen.random((50, 6))
        assert np.array_equal(_bucket_search(table, cum, square), np.searchsorted(cum, square))
    # a run of tiny noise values puts many cum values in one bucket, whose
    # keys take the fallback search
    noise = np.concatenate([[0.0], gen.random(20) * 1e-9, gen.random(40), np.full(9, 1e-12)])
    noise[-1] = 1.0
    cum = np.cumsum(noise)
    cum /= cum[-1]
    table = _bucket_table(cum)
    held = np.diff(np.searchsorted(cum, np.arange(len(table) + 1) / len(table)))
    assert np.any(table == -1) and np.all((table == -1) == (held >= 2)) and np.any(held == 1)
    crowded = np.flatnonzero(table == -1)
    keys = np.concatenate([
        gen.random(4000),
        (crowded + gen.random(len(crowded))) / len(table),  # one key in each crowded bucket
        cum[cum < 1.0],
        np.nextafter(cum[cum < 1.0], 0.0),
        np.nextafter(cum[cum < 1.0], 1.0),
    ])
    keys = keys[keys < 1.0]
    assert np.array_equal(_bucket_search(table, cum, keys), np.searchsorted(cum, keys))


def test_stable_sigmoid_matches_the_two_branch_formula():
    edges = np.array([0.0, 1e-310, 37.0, 745.0, 1e308])
    x = np.concatenate([edges, -edges, RandomSource(4, 0).generator().standard_normal(999) * 40])
    assert _stable_sigmoid(x).tobytes() == _reference_sigmoid(x).tobytes()


# --- estimators ---

def test_deepwalk_separates_bridged_cliques():
    g = two_cliques(8)
    model = DeepWalkModel(
        walk_number=6, walk_length=30, dimensions=16, window_size=3,
        negative_samples=4, seed=42,
    ).fit(g)
    emb = model.get_embedding()
    assert emb.shape == (16, 16)
    intra = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    inter = [(i, 8 + j) for i in range(8) for j in range(8)]
    assert _mean_cosine(emb, intra) > _mean_cosine(emb, inter) + 0.3


def test_deepwalk_is_deterministic_per_seed():
    g = erdos_renyi_gnm(12, 30, RandomSource(0, 0), connected=True)
    kwargs = dict(walk_number=2, walk_length=10, dimensions=6, window_size=2, seed=3)
    a = DeepWalkModel(**kwargs).fit(g).get_embedding()
    b = DeepWalkModel(**kwargs).fit(g).get_embedding()
    c = DeepWalkModel(**{**kwargs, "seed": 4}).fit(g).get_embedding()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_walklets_concatenates_one_block_per_scale():
    g = erdos_renyi_gnm(14, 40, RandomSource(2, 0), connected=True)
    model = WalkletsModel(
        walk_number=2, walk_length=12, dimensions=5, window_size=3, seed=7
    ).fit(g)
    emb = model.get_embedding()
    assert emb.shape == (14, 15)
    # scale blocks are trained with different seeds, so they must differ
    assert not np.array_equal(emb[:, 0:5], emb[:, 5:10])


def test_walklets_rejects_scales_beyond_walk_length(monkeypatch):
    g = erdos_renyi_gnm(8, 14, RandomSource(1, 0), connected=True)
    # the largest scale that still has pairs trains
    model = WalkletsModel(walk_number=1, walk_length=4, window_size=3, dimensions=2).fit(g)
    assert model.get_embedding().shape == (8, 6)

    def no_walks(*args):
        raise AssertionError("walks drawn for a window no walk can hold")

    # the error comes before any walk is drawn
    monkeypatch.setattr(node_embedding, "generate_walks", no_walks)
    for length, window in ((3, 4), (40, 40), (40, 45)):
        with pytest.raises(EmptyCorpus, match="window_size"):
            WalkletsModel(walk_number=4, walk_length=length, window_size=window).fit(g)


def test_netmf_singular_values_match_dense_reference():
    g = erdos_renyi_gnm(10, 20, RandomSource(6, 0), connected=True)
    model = NetMfModel(dimensions=6, order=2, negatives=1, seed=0).fit(g)
    emb = model.get_embedding()
    got = np.sort(np.einsum("ij,ij->j", emb, emb))[::-1]
    expected = np.linalg.svd(walk_proximity_reference(g, 2, 1), compute_uv=False)[:6]
    assert np.max(np.abs(got - expected) / expected) < 1e-8


def test_netmf_order_one_on_single_edge_is_exact():
    # the 2-node proximity matrix is [[0, log2], [log2, 0]] after clamping
    g = build_graph(2, [(0, 1)])
    emb = NetMfModel(dimensions=2, order=1, negatives=1, seed=0).fit(g).get_embedding()
    sigma = np.sort(np.einsum("ij,ij->j", emb, emb))[::-1]
    assert np.allclose(sigma, [np.log(2.0), np.log(2.0)], atol=1e-12)


def test_netmf_is_deterministic():
    g = erdos_renyi_gnm(12, 30, RandomSource(8, 0), connected=True)
    a = NetMfModel(dimensions=4, seed=1).fit(g).get_embedding()
    b = NetMfModel(dimensions=4, seed=1).fit(g).get_embedding()
    assert np.array_equal(a, b)


@pytest.mark.parametrize("negatives", [1, 5])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_netmf_bytes_match_the_frozen_proximity_copy(order, negatives):
    # the hub's column holds the smallest entries, so the log-clamp zeroes many
    for g in (random_connected(256, 1536, 4), hub_heavy(256, 512, 5)):
        got = NetMfModel(dimensions=16, order=order, negatives=negatives, seed=3).fit(g).get_embedding()
        want = netmf_embedding_by_copies(g, 16, order, negatives, 3)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_netmf_peak_memory_stays_near_the_matrix_it_factors(monkeypatch):
    g = random_connected(2048, 12288, 7)
    NetMfModel().fit(g)  # warm-up: the first fit in a process carries the scipy import
    handed = []

    def sized(m, k, rng):
        handed.append(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
        return randomized_svd(m, k, rng)

    monkeypatch.setattr(node_embedding, "randomized_svd", sized)
    tracemalloc.start()
    try:
        NetMfModel().fit(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(handed) == 1
    assert peak <= 3 * handed[0], f"peak {peak} B against a {handed[0]} B proximity"


def test_netmf_enforces_node_cap(monkeypatch):
    def no_matrix(g):
        raise AssertionError("transition matrix built for a graph above the cap")

    # the cap comes before the transition matrix, and its scipy import
    monkeypatch.setattr(node_embedding, "transition_matrix", no_matrix)
    g = path_graph(NETMF_NODE_CAP + 1)
    with pytest.raises(GraphTooLarge, match=f"^netmf is capped at {NETMF_NODE_CAP} nodes, got 8193$"):
        NetMfModel(dimensions=2).fit(g)


def test_netmf_rejects_bad_rank():
    g = path_graph(5)
    with pytest.raises(RankTooLarge):
        NetMfModel(dimensions=6).fit(g)


def test_estimators_require_connected_graphs():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    for model in (
        DeepWalkModel(walk_number=1, walk_length=4, dimensions=2),
        WalkletsModel(walk_number=1, walk_length=4, dimensions=2, window_size=2),
        NetMfModel(dimensions=2),
    ):
        with pytest.raises(DisconnectedGraph):
            model.fit(g)


@pytest.mark.parametrize("cls", [DeepWalkModel, WalkletsModel], ids=lambda cls: cls.__name__)
def test_walk_fits_search_the_graph_once(monkeypatch, cls):
    searched = []
    search = graph_core._reaches_all
    monkeypatch.setattr(graph_core, "_reaches_all", lambda g: searched.append(g) or search(g))
    g = two_cliques(4)
    cls(walk_number=1, walk_length=4, dimensions=2, window_size=2).fit(g)
    assert searched == [g]


def test_deepwalk_builds_no_generator_per_walk(monkeypatch):
    # one generator for the walks' streams and one for training, however
    # many walks there are: a count, which unlike a time does not vary by machine
    built = []
    generator = RandomSource.generator
    monkeypatch.setattr(RandomSource, "generator", lambda self: built.append(self) or generator(self))
    g = two_cliques(4)
    counts = []
    for walk_number in (1, 4, 16):
        built.clear()
        DeepWalkModel(walk_number=walk_number, walk_length=6, dimensions=2, window_size=2).fit(g)
        counts.append(len(built))
    assert counts == [2, 2, 2]


def test_walklets_fit_checks_its_hyperparameters_once(monkeypatch):
    checked = []
    check = Estimator._require_at_least
    monkeypatch.setattr(Estimator, "_require_at_least",
                        lambda self, *a, **kw: checked.append(self) or check(self, *a, **kw))
    model = WalkletsModel(walk_number=1, walk_length=4, dimensions=2, window_size=2)
    model.fit(two_cliques(4))
    assert checked == [model]
    assert list(inspect.signature(check).parameters) == ["self"]


def test_not_fitted_guards():
    for model in (DeepWalkModel(), WalkletsModel(), NetMfModel()):
        with pytest.raises(NotFitted):
            model.get_embedding()
