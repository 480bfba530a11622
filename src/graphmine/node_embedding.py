"""Neighborhood-preserving node embeddings.

Three estimators built from two shared blocks:

* :func:`generate_walks`: truncated uniform random walks, one independent
  random stream per walk so results never depend on execution order.
* :func:`_train_pairs`: skip-gram with negative sampling on the (center,
  context) position template it is given, every step from one gradient
  kernel, :func:`_sgns_steps`.

The two walk models differ only in the template: ``DeepWalkModel`` pairs
every two positions 1..window apart, ``WalkletsModel`` trains once per
scale s on the positions exactly s apart and concatenates.  ``NetMfModel``
factorizes the log-scaled random-walk proximity matrix directly.  Every
fit is a pure function of (graph, hyperparameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCorpus,
    GraphTooLarge,
    InputContractError,
    NoConvergence,
    OutOfRangeNode,
    RankTooLarge,
)
from .graph_core import (
    Estimator,
    Graph,
    RandomSource,
    _require,
    _require_no_isolated,
    _sparse,
    transition_matrix,
)
from .linalg import randomized_svd

__all__ = [
    "WalkCorpus",
    "DeepWalkModel",
    "WalkletsModel",
    "NetMfModel",
    "generate_walks",
    "sgns_train",
    "sgns_pair_loss",
    "sgns_pair_gradients",
    "NETMF_NODE_CAP",
]

NETMF_NODE_CAP = 2 ** 13

_BATCH_CAP = 1024
_STALE_HITS = 16.0  # max expected updates per node vector within one batch
_WALK_BLOCK = 2048  # walks per training block; bounds pair-buffer memory
_CHUNK_PAIRS = 8192  # pairs per draw of negative keys and rates; bounds their memory
# Largest |weight| a trained skip-gram table may hold: converged fits end
# with weights of order 1 (below 2.5 for DeepWalk at d=32 on a connected
# G(1024, 6144), even at learning_rate=0.1); a fit beyond it has diverged.
_WEIGHT_BOUND = 1e6
_DIVERGED = (
    f"skip-gram training diverged: a weight is NaN or exceeds {_WEIGHT_BOUND:g} "
    "in absolute value; try a smaller learning_rate"
)


@dataclass(frozen=True)
class WalkCorpus:
    """Random-walk corpus: ``walks[w, t]`` is step t of walk w."""

    walks: np.ndarray
    node_count: int


# ---------------------------------------------------------------------------
# walk generation
# ---------------------------------------------------------------------------

def generate_walks(
    g: Graph, walk_number: int, walk_length: int, rng: RandomSource
) -> WalkCorpus:
    """``walk_number`` uniform random walks of ``walk_length`` nodes from
    every node; :class:`InputContractError` unless both are integers >= 1,
    and :class:`IsolatedNode` for a node that has no step to take.

    Walk w starts at node ``w % n`` and consumes only ``rng.child(w)``'s
    stream (:meth:`RandomSource.child_uniforms`), so any execution order (or
    parallel fan-out) reproduces the same corpus.  All walks advance
    together: one vectorized neighbor lookup per step.
    """
    _require("walk_number", walk_number, int, 1)
    _require("walk_length", walk_length, int, 1)
    _require_no_isolated(g)
    n = g.node_count
    total = walk_number * n
    steps = walk_length - 1
    uniforms = rng.child_uniforms(total, steps)
    walks = np.empty((total, walk_length), dtype=np.int64)
    current = np.tile(np.arange(n, dtype=np.int64), walk_number)
    walks[:, 0] = current
    offsets, targets, degrees = g.offsets, g.targets, g.degrees
    for t in range(steps):
        jump = (uniforms[:, t] * degrees[current]).astype(np.int64)
        current = targets[offsets[current] + jump]
        walks[:, t + 1] = current
    walks.setflags(write=False)
    return WalkCorpus(walks=walks, node_count=n)


# ---------------------------------------------------------------------------
# skip-gram with negative sampling
# ---------------------------------------------------------------------------

def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each
    # branch is the usual overflow-free form, 1 / (1 + t) or t / (1 + t),
    # from one exp and one division
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def sgns_pair_loss(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> float:
    """Loss of one (center, context) pair with a block of negative vectors:
    -log s(u.v) - sum_k log s(-u.w_k).

    Written as logaddexp so saturated scores give their (large, finite)
    true loss instead of overflowing through log(0).
    """
    pos = float(center @ context)
    neg = negatives @ center
    return float(np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).sum())


def sgns_pair_gradients(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`sgns_pair_loss` w.r.t. all three inputs.

    This is the trainer's own kernel, :func:`_sgns_steps`, on a batch of
    one pair at rate -1: ``-(-1) * (1 - s)`` is ``s - 1`` exactly.  The
    context and negative gradients are its coefficients times ``center``.
    """
    k, d = negatives.shape
    g_c = np.empty((1, d))
    coef = np.empty(k + 2)
    _sgns_steps(center[None], context[None], negatives[None], np.array([-1.0]), g_c, coef)
    return g_c[0], coef[1] * center, coef[2:, None] * center


def _sgns_steps(
    uc: np.ndarray, vx: np.ndarray, vn: np.ndarray, alphas: np.ndarray, out: np.ndarray,
    coef: np.ndarray,
) -> None:
    """The SGD steps of b pairs, ``-alphas[i]`` times the gradient of pair
    i's :func:`sgns_pair_loss`.  Writes the b center rows into ``out`` (from
    ``uc``, b x d, with ``vx``, b x d, and ``vn``, b x k x d) and into
    ``coef`` (length b(k + 2)) one scalar per step row: 1.0 for each center
    row, then ``coef[b + i]`` and ``coef[2b + ik + j]``, which times
    ``uc[i]`` are pair i's context row and its k negative rows."""
    b, k, d = vn.shape
    coef_pos = coef[b: 2 * b]
    coef_neg = coef[2 * b:].reshape(b, k)
    coef[:b] = 1.0
    np.multiply(alphas, 1.0 - _stable_sigmoid(np.einsum("bd,bd->b", uc, vx)), out=coef_pos)
    np.multiply(-alphas[:, None], _stable_sigmoid(np.einsum("bkd,bd->bk", vn, uc)), out=coef_neg)
    np.multiply(coef_pos[:, None], vx, out=out)
    out += np.einsum("bk,bkd->bd", coef_neg, vn)


def _window_template(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) position pairs for one walk: every ordered pair at
    distance 1..window, centers left to right."""
    w = min(window, length - 1)
    offsets = np.concatenate([np.arange(-w, 0), np.arange(1, w + 1)])
    contexts = np.arange(length)[:, None] + offsets
    keep = ((contexts >= 0) & (contexts < length)).ravel()
    return np.repeat(np.arange(length), len(offsets))[keep], contexts.ravel()[keep]


def _pair_blocks(walks: np.ndarray, template: tuple[np.ndarray, np.ndarray]):
    """Yield (centers, contexts) node arrays blockwise, in walk-major order:
    each walk's nodes at the template's center and context positions."""
    c_pos, x_pos = template
    for start in range(0, walks.shape[0], _WALK_BLOCK):
        block = walks[start: start + _WALK_BLOCK]
        yield block[:, c_pos].ravel(), block[:, x_pos].ravel()


def _position_counts(walks: np.ndarray, positions: np.ndarray, n: int) -> np.ndarray:
    """Node counts over ``walks[:, positions]`` without building it: one
    bincount per walk column, times the column's repeats in ``positions``."""
    repeats = np.bincount(positions, minlength=walks.shape[1])
    return sum(k * np.bincount(walks[:, p], minlength=n) for p, k in enumerate(repeats) if k)


def _batch_size(
    center_freq: np.ndarray,
    context_freq: np.ndarray,
    p_noise: np.ndarray,
    total: int,
    neg: int,
) -> int:
    """Largest batch that keeps every node's expected update count per batch
    below a tested stability bound.

    Batched SGD computes all gradients of a batch from one parameter
    snapshot; a node hit many times inside a batch absorbs that many stale
    steps at once, which diverges on hub-heavy corpora.  Scaling the batch
    by the hottest node's pair share (center + context + expected negative
    draws) keeps the dynamics sequential-like on skewed graphs while
    retaining large batches on near-regular ones.
    """
    p_eff = (center_freq + context_freq) / float(total) + neg * p_noise
    return int(np.clip(np.floor(_STALE_HITS / float(p_eff.max())), 1, _BATCH_CAP))


def _bucket_table(cum: np.ndarray) -> np.ndarray:
    """Lookup table for :func:`_bucket_search` over the sorted ``cum``,
    whose last value is 1.0.

    It splits [0, 1) into 2**p >= 8n buckets of width 2**-p.  Entry k is
    the count of ``cum`` values below the bucket when at most one value lies
    in it, and -1 when two or more do.
    """
    buckets = 1 << (8 * len(cum) - 1).bit_length()
    edges = np.searchsorted(cum, np.arange(buckets + 1) / buckets)
    return np.where(edges[1:] - edges[:-1] <= 1, edges[:-1], -1)


def _bucket_search(table: np.ndarray, cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, r)`` for keys r in [0, 1), exactly.

    r times the power-of-two bucket count is exact, so each key lands in the
    bucket that holds it.  There the answer is the table entry, plus one if
    r is above the bucket's one ``cum`` value (or, in a bucket with none,
    the first value past it, which r never is).  A -1 entry stays -1, since
    r is not above ``cum[-1]``, and falls back to the search.
    """
    idx = table[(r * len(table)).astype(np.intp)]
    idx += r > cum[idx]
    miss = idx < 0
    idx[miss] = np.searchsorted(cum, r[miss])
    return idx


def _scatter_matrix(rows: int, b: int, k: int):
    """A ``rows x 3b`` CSC matrix whose first 2b columns hold one entry each
    and whose last b columns hold k each; the caller writes each entry's row
    into ``.indices`` and its coefficient into ``.data``."""
    m = b * (k + 2)
    return _sparse().csc_matrix(
        (np.ones(m), np.zeros(m, dtype=np.int64),
         np.concatenate([np.arange(2 * b), 2 * b + k * np.arange(b + 1)])),
        shape=(rows, 3 * b),
    )


def _train_pairs(
    corpus: WalkCorpus, template: tuple[np.ndarray, np.ndarray], params: _WalkModel, seed: int
) -> np.ndarray:
    """Minibatch SGD over the (center, context) pairs that ``template``
    picks from each walk of ``corpus``, in :func:`_pair_blocks` order (a
    batch never spans two walk blocks); returns the center table, one row
    per node.  ``params`` gives the skip-gram settings, ``seed`` the stream.
    DeepWalk passes :func:`_window_template` and its seed, Walklets the
    positions s apart and its seed + s.

    The learning rate decays linearly from ``learning_rate`` at the first
    pair to 1/100th of it at the last pair across all epochs; each pair in a
    batch is weighted by its own rate, so the decay is exact despite
    batching.  Negatives are drawn per pair from the empirical context
    distribution raised to 0.75.  Everything is single-threaded and seeded.

    The center table ``u`` and the context table ``v`` are the two halves
    of one ``(2n, d)`` table, and one product ``sel @ x`` adds a batch's
    steps to it.  ``x`` is ``[center steps; uc; uc]`` (3b x d), ``uc`` the
    batch's rows of ``u``.  Column j < b of the CSC matrix ``sel`` holds
    1.0 in center j's row, column b + i pair i's context coefficient in its
    row of ``v`` and column 2b + i its k negative coefficients, all written
    into ``sel.data`` by :func:`_sgns_steps`.  scipy rounds each product,
    then adds it into a zeroed result column by column, so every row adds
    its steps in batch order, each rounded once, as a loop over step rows
    would.  Negative keys and rates are drawn per chunk of whole batches
    inside a walk block, at most ``_CHUNK_PAIRS`` pairs, from the same
    stream as batch by batch; :func:`_bucket_search` returns exactly
    ``np.searchsorted(cum, r)``.  An entry that is NaN or beyond
    ``_WEIGHT_BOUND`` in absolute value at the end of a chunk raises
    :class:`NoConvergence`.
    """
    walks, n = corpus.walks, corpus.node_count
    total_pairs = walks.shape[0] * len(template[0])
    if total_pairs == 0:
        raise EmptyCorpus(f"no training pairs in walks of shape {walks.shape}")
    low, high = walks.min(), walks.max()
    if low < 0 or high >= n:
        raise OutOfRangeNode(f"walk node {low if low < 0 else high} not in 0..{n - 1}")
    d = params.dimensions
    gen = RandomSource(seed, 0).generator()
    table = np.concatenate([(gen.random((n, d)) - 0.5) / d, np.zeros((n, d))])
    u, v = table[:n], table[n:]  # centers, contexts

    center_freq, context_freq = (_position_counts(walks, positions, n) for positions in template)
    noise = context_freq.astype(np.float64) ** 0.75
    cum = np.cumsum(noise)
    p_noise = noise / cum[-1]
    cum /= cum[-1]
    buckets = _bucket_table(cum)
    neg = params.negative_samples
    batch = _batch_size(center_freq, context_freq, p_noise, total_pairs, neg)
    chunk = batch * max(_CHUNK_PAIRS // batch, 1)

    alpha0 = params.learning_rate
    alpha_end = alpha0 / 100.0
    span = max(total_pairs * params.epochs - 1, 1)

    buf = np.empty((3 * batch, d))
    full_sel = _scatter_matrix(2 * n, batch, neg)
    done = 0
    for _ in range(params.epochs):
        for centers, contexts in _pair_blocks(walks, template):
            for start in range(0, len(centers), chunk):
                cc = centers[start: start + chunk]
                xc = contexts[start: start + chunk]
                rates = alpha0 + (alpha_end - alpha0) * ((done + np.arange(len(cc))) / span)
                done += len(cc)
                keys = _bucket_search(buckets, cum, gen.random((len(cc), neg)))
                for lo in range(0, len(cc), batch):
                    cb, xb, negs = cc[lo: lo + batch], xc[lo: lo + batch], keys[lo: lo + batch]
                    b = len(cb)
                    sel = full_sel if b == batch else _scatter_matrix(2 * n, b, neg)
                    x = buf[: 3 * b]
                    uc = np.take(u, cb, axis=0, out=x[b: 2 * b])
                    x[2 * b:] = uc
                    vx, vn = np.take(v, xb, axis=0), np.take(v, negs, axis=0)
                    _sgns_steps(uc, vx, vn, rates[lo: lo + b], x[:b], sel.data)
                    rows = sel.indices
                    rows[:b] = cb
                    np.add(xb, n, out=rows[b: 2 * b])
                    np.add(negs.ravel(), n, out=rows[2 * b:])
                    table += sel @ x
                # a NaN entry makes min and max NaN, which fails the comparisons too
                if not -_WEIGHT_BOUND <= table.min() <= table.max() <= _WEIGHT_BOUND:
                    raise NoConvergence(_DIVERGED)
    return u.copy()


def sgns_train(corpus: WalkCorpus, params: _WalkModel) -> np.ndarray:
    """Skip-gram with negative sampling on all window co-occurrences of
    ``corpus``; returns the center-vector table, one row per node.  ``params``
    is a walk model (a :class:`DeepWalkModel` or :class:`WalkletsModel`),
    checked at its minimums; the trainer reads its six skip-gram fields."""
    if not isinstance(params, _WalkModel):
        raise InputContractError(
            f"sgns_train takes a walk model as params, got {type(params).__name__}"
        )
    Estimator._require_at_least(params)
    template = _window_template(corpus.walks.shape[1], params.window_size)
    return _train_pairs(corpus, template, params, params.seed)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class _WalkModel(Estimator):
    """The hyperparameters, getter and set-up shared by :class:`DeepWalkModel`
    and :class:`WalkletsModel`, which differ in the defaults of
    ``dimensions`` and ``window_size`` and in the pairs they train on."""

    walk_number: int = 10
    walk_length: int = 80
    dimensions: int = 128
    window_size: int = 5
    negative_samples: int = 5
    epochs: int = 1
    learning_rate: float = 0.025
    seed: int = 42

    # the hyperparameters double as the trainer settings
    _minimums = {"walk_number": 1, "walk_length": 2, "dimensions": 1, "window_size": 1,
                 "negative_samples": 0, "epochs": 1}
    get_embedding = Estimator.getter("embedding")

    def _walks(self, g: Graph) -> WalkCorpus:
        return generate_walks(g, self.walk_number, self.walk_length, RandomSource(self.seed, 0))


class DeepWalkModel(_WalkModel):
    """Truncated random walks + skip-gram over window co-occurrences."""

    def _fit(self, data: Graph) -> None:
        self._embedding = sgns_train(self._walks(data), self)


class WalkletsModel(_WalkModel):
    """Multi-scale skip-gram: one model per exact walk offset 1..window_size,
    embeddings concatenated in scale order (width = window_size * dimensions)."""

    dimensions: int = 32
    window_size: int = 4

    def _require_at_least(self) -> None:
        # the base check, then window_size < walk_length (scale walk_length has no pairs)
        super()._require_at_least()
        if self.window_size >= self.walk_length:
            raise EmptyCorpus(
                f"window_size {self.window_size} needs walks longer than it, "
                f"got walk_length {self.walk_length}"
            )

    def _fit(self, data: Graph) -> None:
        corpus = self._walks(data)
        length = self.walk_length
        self._embedding = np.concatenate([
            _train_pairs(corpus, (np.arange(length - s), np.arange(s, length)), self, self.seed + s)
            for s in range(1, self.window_size + 1)
        ], axis=1)


class NetMfModel(Estimator):
    """Explicit factorization of the log-scaled mean random-walk proximity.

    The proximity is vol(G)/(negatives*order) * (sum of transition-matrix
    powers 1..order) * D^-1; entries at or below 1 vanish under the
    elementwise log-clamp, so the matrix stays sparse exactly.  It is built
    in place: the scaling, the clamp and the log overwrite the sum's data,
    and the SVD reads that sorted CSR without a copy.  The embedding is
    U * sqrt(singular values) from the truncated SVD.
    """

    dimensions: int = 32
    order: int = 2
    negatives: int = 1
    seed: int = 42

    _minimums = {"dimensions": 1, "order": 1, "negatives": 1}
    get_embedding = Estimator.getter("embedding")

    def _fit(self, data: Graph) -> None:
        n = data.node_count
        if n > NETMF_NODE_CAP:
            raise GraphTooLarge(f"netmf is capped at {NETMF_NODE_CAP} nodes, got {n}")
        p = transition_matrix(data)  # an edgeless graph fails here, as in the walk models
        if self.dimensions > n:
            raise RankTooLarge(f"dimensions {self.dimensions} not in 1..{n}")
        deg = data.degrees.astype(np.float64)
        vol = float(deg.sum())
        power = m = p
        for _ in range(2, self.order + 1):
            power = power @ p
            m = m + power
        del power, p
        # m @ D^-1, then the scalar, in place: each entry times 1/deg of its
        # column, as the sparse product with diags(1/deg) computes it
        m.data *= (1.0 / deg)[m.indices]
        m.data *= vol / (self.negatives * self.order)
        # log of entries clamped to >= 1: entries <= 1 map to exactly 0,
        # so sparsity is preserved without approximation
        np.log(np.maximum(m.data, 1.0, out=m.data), out=m.data)
        m.eliminate_zeros()
        m.sort_indices()  # so that randomized_svd reads m without a copy
        u, s = randomized_svd(m, self.dimensions, RandomSource(self.seed, 0))
        self._embedding = u * np.sqrt(s)
