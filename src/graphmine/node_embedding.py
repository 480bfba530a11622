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

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    EmptyCorpus,
    GraphTooLarge,
    InputContractError,
    IsolatedNode,
    NoConvergence,
    OutOfRangeNode,
    RankTooLarge,
)
from .graph_core import (
    Estimator,
    Graph,
    RandomSource,
    _sparse,
    require_connected,
    transition_matrix,
)
from .linalg import randomized_svd

__all__ = [
    "WalkCorpus",
    "SkipGramParams",
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
# Largest |weight| a trained skip-gram table may hold: converged fits end
# with weights of order 1 (below 2.5 for DeepWalk at d=32 on a connected
# G(1024, 6144), even at learning_rate=0.1); a fit beyond it has diverged.
_WEIGHT_BOUND = 1e6


@dataclass(frozen=True)
class WalkCorpus:
    """Random-walk corpus: ``walks[w, t]`` is step t of walk w."""

    walks: np.ndarray
    node_count: int

    @property
    def walk_length(self) -> int:
        return self.walks.shape[1]


@dataclass(frozen=True)
class SkipGramParams:
    """Hyperparameters of the skip-gram trainer."""

    dimensions: int = 128
    window_size: int = 5
    negative_samples: int = 5
    epochs: int = 1
    learning_rate: float = 0.025
    seed: int = 42


# ---------------------------------------------------------------------------
# walk generation
# ---------------------------------------------------------------------------

def generate_walks(
    g: Graph, walk_number: int, walk_length: int, rng: RandomSource
) -> WalkCorpus:
    """``walk_number`` uniform random walks of ``walk_length`` nodes from
    every node; :class:`InputContractError` unless both are at least 1.

    Walk w starts at node ``w % n`` and consumes only ``rng.child(w)``, so
    any execution order (or parallel fan-out) reproduces the same corpus.
    All walks advance together: one vectorized neighbor lookup per step.
    """
    for name, value in (("walk_number", walk_number), ("walk_length", walk_length)):
        if value < 1:
            raise InputContractError(f"{name} must be >= 1, got {value!r}")
    require_connected(g)
    if g.edge_count == 0:
        # a single isolated node is "connected" but walkless
        raise IsolatedNode("graph has no edges")
    n = g.node_count
    total = walk_number * n
    steps = walk_length - 1
    uniforms = np.empty((total, steps))
    for w in range(total):
        uniforms[w] = rng.child(w).generator().random(steps)
    walks = np.empty((total, walk_length), dtype=np.int64)
    current = np.tile(np.arange(n, dtype=np.int64), walk_number)
    walks[:, 0] = current
    offsets, targets = g.offsets, g.targets
    degrees = np.diff(offsets)
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
    # branch is the usual overflow-free form, from one exp
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


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
    one pair at rate -1: ``-(-1) * (1 - s)`` is ``s - 1`` exactly.
    """
    k, d = negatives.shape
    out = np.empty((k + 2, d))
    _sgns_steps(center[None], context[None], negatives[None], np.array([-1.0]), out)
    return out[0], out[1], out[2:]


def _sgns_steps(
    uc: np.ndarray, vx: np.ndarray, vn: np.ndarray, alphas: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` the SGD steps of b pairs, ``-alphas[i]`` times the
    gradient of pair i's :func:`sgns_pair_loss`: b center rows (from ``uc``,
    b x d), b context rows (``vx``) and k rows per pair (``vn``, b x k x d)."""
    b, k, d = vn.shape
    s_pos = _stable_sigmoid(np.einsum("bd,bd->b", uc, vx))
    s_neg = _stable_sigmoid(np.einsum("bkd,bd->bk", vn, uc))
    coef_pos = alphas * (1.0 - s_pos)
    coef_neg = -alphas[:, None] * s_neg
    np.multiply(coef_pos[:, None], vx, out=out[:b])
    out[:b] += np.einsum("bk,bkd->bd", coef_neg, vn)
    np.multiply(coef_pos[:, None], uc, out=out[b: 2 * b])
    np.multiply(coef_neg[:, :, None], uc[:, None, :], out=out[2 * b:].reshape(b, k, d))


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
    """Lookup table for :func:`_bucket_search` over the sorted ``cum``.

    It splits [0, 1) into 2**p >= 8n buckets of width 2**-p.  Entry k is
    ``np.searchsorted(cum, r)`` for every r in bucket k when no value of
    ``cum`` lies in the bucket (the answer is then the same across it), and
    -1 when one does.
    """
    buckets = 1 << (8 * len(cum) - 1).bit_length()
    edges = np.searchsorted(cum, np.arange(buckets + 1) / buckets)
    return np.where(edges[:-1] == edges[1:], edges[:-1], -1)


def _bucket_search(table: np.ndarray, cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, r)`` for keys r in [0, 1), exactly.

    r times the power-of-two bucket count is exact, so each key lands in the
    bucket that holds it; keys in buckets marked -1 fall back to the search.
    """
    idx = table[(r * len(table)).astype(np.intp)]
    miss = idx < 0
    idx[miss] = np.searchsorted(cum, r[miss])
    return idx


def _scatter_matrix(rows: int, cols: int):
    """A ``rows x cols`` CSC matrix with a single 1.0 in each column; the
    caller writes each column's row into ``.indices``."""
    return _sparse().csc_matrix(
        (np.ones(cols), np.zeros(cols, dtype=np.int64), np.arange(cols + 1)),
        shape=(rows, cols),
    )


def _train_pairs(
    walks: np.ndarray, n: int, template: tuple[np.ndarray, np.ndarray], params: SkipGramParams
) -> np.ndarray:
    """Minibatch SGD over the (center, context) pairs that ``template``
    picks from each walk, in :func:`_pair_blocks` order (a batch never spans
    two walk blocks); returns the center table, one row per node.  DeepWalk
    passes :func:`_window_template`, Walklets the positions s apart.

    The learning rate decays linearly from ``learning_rate`` at the first
    pair to 1/100th of it at the last pair across all epochs; each pair in a
    batch is weighted by its own rate, so the decay is exact despite
    batching.  Negatives are drawn per pair from the empirical context
    distribution raised to 0.75.  Everything is single-threaded and seeded.

    The center table ``u`` and the context table ``v`` are the two halves
    of one ``(2n, d)`` table.  :func:`_sgns_steps` writes a batch's steps,
    and one product ``sel @ steps`` adds them all to the table.  Column j
    of the CSC matrix ``sel`` holds a single 1.0, in the row that step row
    j updates.  scipy adds the columns in order into a zeroed result, so
    every row receives its steps summed left to right in batch order, the
    sum that two separate products for ``u`` and ``v`` give; no row of
    ``u`` is a row of ``v``.  Negative draws go through
    :func:`_bucket_search`, which returns exactly ``np.searchsorted(cum, r)``
    for the same random keys.  A table with an entry beyond
    ``_WEIGHT_BOUND`` in absolute value, or a NaN, at the end raises
    :class:`NoConvergence`.
    """
    total_pairs = walks.shape[0] * len(template[0])
    if total_pairs == 0:
        raise EmptyCorpus(f"no training pairs in walks of shape {walks.shape}")
    low, high = walks.min(), walks.max()
    if low < 0 or high >= n:
        raise OutOfRangeNode(f"walk node {low if low < 0 else high} not in 0..{n - 1}")
    d = params.dimensions
    gen = RandomSource(params.seed, 0).generator()
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

    alpha0 = params.learning_rate
    alpha_end = alpha0 / 100.0
    span = max(total_pairs * params.epochs - 1, 1)

    buf = np.empty((batch * (neg + 2), d))
    full_sel = _scatter_matrix(2 * n, len(buf))
    done = 0
    for _ in range(params.epochs):
        for centers, contexts in _pair_blocks(walks, template):
            for lo in range(0, len(centers), batch):
                cb = centers[lo: lo + batch]
                xb = contexts[lo: lo + batch]
                b = len(cb)
                alphas = alpha0 + (alpha_end - alpha0) * ((done + np.arange(b)) / span)
                done += b
                negs = _bucket_search(buckets, cum, gen.random((b, neg)))
                m = b * (neg + 2)
                steps = buf[:m]
                _sgns_steps(u[cb], v[xb], v[negs], alphas, steps)
                sel = full_sel if b == batch else _scatter_matrix(2 * n, m)
                rows = sel.indices
                rows[:b] = cb
                np.add(xb, n, out=rows[b: 2 * b])
                np.add(negs.ravel(), n, out=rows[2 * b:])
                table += sel @ steps
    if not (np.abs(table) <= _WEIGHT_BOUND).all():  # NaN fails the comparison
        raise NoConvergence(
            f"skip-gram training diverged: a weight is NaN or exceeds {_WEIGHT_BOUND:g} "
            "in absolute value; try a smaller learning_rate"
        )
    return u.copy()


def sgns_train(corpus: WalkCorpus, params: SkipGramParams) -> np.ndarray:
    """Skip-gram with negative sampling on all window co-occurrences of
    ``corpus``; returns the center-vector table, one row per node."""
    walks = corpus.walks
    template = _window_template(walks.shape[1], params.window_size)
    return _train_pairs(walks, corpus.node_count, template, params)


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

    get_embedding = Estimator.getter("embedding")

    def _walks(self, g: Graph) -> tuple[SkipGramParams, WalkCorpus]:
        """Check the hyperparameters; return the trainer settings and the
        walks on ``g``."""
        self._require_at_least(
            walk_number=1, walk_length=2, dimensions=1, window_size=1,
            negative_samples=0, epochs=1,
        )
        if not 0.0 < self.learning_rate < np.inf:
            raise InputContractError(
                f"learning_rate must be a positive finite number, got {self.learning_rate!r}"
            )
        params = SkipGramParams(**{f.name: getattr(self, f.name) for f in fields(SkipGramParams)})
        rng = RandomSource(self.seed, 0)
        return params, generate_walks(g, self.walk_number, self.walk_length, rng)


class DeepWalkModel(_WalkModel):
    """Truncated random walks + skip-gram over window co-occurrences."""

    def fit(self, g: Graph) -> "DeepWalkModel":
        params, corpus = self._walks(g)
        self._embedding = sgns_train(corpus, params)
        return self


class WalkletsModel(_WalkModel):
    """Multi-scale skip-gram: one model per exact walk offset 1..window_size,
    embeddings concatenated in scale order (width = window_size * dimensions)."""

    dimensions: int = 32
    window_size: int = 4

    def fit(self, g: Graph) -> "WalkletsModel":
        # scale walk_length has no pairs: known before any walk is drawn
        if self.window_size >= self.walk_length:
            raise EmptyCorpus(
                f"window_size {self.window_size} needs walks longer than it, "
                f"got walk_length {self.walk_length}"
            )
        params, corpus = self._walks(g)
        length = self.walk_length
        self._embedding = np.concatenate([
            _train_pairs(
                corpus.walks, corpus.node_count, (np.arange(length - s), np.arange(s, length)),
                replace(params, seed=self.seed + s),
            )
            for s in range(1, self.window_size + 1)
        ], axis=1)
        return self


class NetMfModel(Estimator):
    """Explicit factorization of the log-scaled mean random-walk proximity.

    The proximity is vol(G)/(negatives*order) * (sum of transition-matrix
    powers 1..order) * D^-1; entries at or below 1 vanish under the
    elementwise log-clamp, so the matrix stays sparse exactly.  The
    embedding is U * sqrt(singular values) from the truncated SVD.
    """

    dimensions: int = 32
    order: int = 2
    negatives: int = 1
    seed: int = 42

    get_embedding = Estimator.getter("embedding")

    def fit(self, g: Graph) -> "NetMfModel":
        self._require_at_least(order=1, negatives=1)
        require_connected(g)
        p = transition_matrix(g)  # an edgeless graph fails here, as in the walk models
        n = g.node_count
        if n > NETMF_NODE_CAP:
            raise GraphTooLarge(f"netmf is capped at {NETMF_NODE_CAP} nodes, got {n}")
        if self.dimensions < 1 or self.dimensions > n:
            raise RankTooLarge(f"dimensions {self.dimensions} not in 1..{n}")
        deg = g.degrees.astype(np.float64)
        vol = float(deg.sum())
        sparse = _sparse()
        d_inv = sparse.diags(1.0 / deg)
        power = acc = p
        for _ in range(2, self.order + 1):
            power = power @ p
            acc = acc + power
        m = (vol / (self.negatives * self.order)) * (acc @ d_inv)
        # log of entries clamped to >= 1: entries <= 1 map to exactly 0,
        # so sparsity is preserved without approximation
        m.data = np.log(np.maximum(m.data, 1.0))
        m.eliminate_zeros()
        svd = randomized_svd(m, self.dimensions, RandomSource(self.seed, 0))
        self._embedding = svd.U * np.sqrt(svd.singular_values)
        return self
