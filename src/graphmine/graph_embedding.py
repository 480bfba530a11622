"""Whole-graph embeddings: two spectral fingerprints and one factorization
over subtree-pattern string features.

All three estimators consume a :class:`GraphCorpus` and emit one embedding
row per graph, in corpus order.  Fingerprints depend only on the spectrum of
the normalized Laplacian, so they are invariant under node relabeling; the
string-feature model is invariant because its per-graph feature multiset is.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GraphTooLarge, IncompleteFeatureMap, InputContractError, LengthMismatch
from .graph_core import Estimator, Graph, RandomSource, _require, _sparse, normalized_laplacian
from .linalg import DENSE_SIZE_CAP, eigvals_symmetric, randomized_svd

__all__ = [
    "GraphCorpus",
    "SfModel",
    "NetLsdModel",
    "WlSvdModel",
    "wl_features",
]


@dataclass(frozen=True)
class GraphCorpus:
    """Ordered list of graphs with optional per-node string features and
    optional integer labels.

    ``features[i]`` is either None (models fall back to degree strings) or a
    map covering every node of ``graphs[i]``.
    """

    graphs: list
    features: list | None = None
    labels: list | None = None

    def __post_init__(self) -> None:
        for name in ("graphs", "features", "labels"):  # features and labels may be None
            kind = type(getattr(self, name))
            if not issubclass(kind, (list, tuple) if name == "graphs" else (list, tuple, type(None))):
                raise InputContractError(f"{name} must be a list or tuple, got {kind.__name__}")
            if kind is not type(None) and len(getattr(self, name)) != len(self.graphs):
                raise LengthMismatch(f"{name}, when given, must match the corpus length")

    def __len__(self) -> int:
        return len(self.graphs)


def _escape(label: str) -> str:
    """``label`` with its ``\\``, ``|`` and ``,`` backslash-escaped, so that
    :func:`_hash_label` payloads of different label multisets differ."""
    return label.replace("\\", "\\\\").replace("|", "\\|").replace(",", "\\,")


def _hash_label(own: str, neighbor_labels: list) -> str:
    """Stable 64-bit hex hash of an escaped label and its escaped neighbors'."""
    payload = own + "|" + ",".join(sorted(neighbor_labels))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def wl_features(g: Graph, features: dict | None, iterations: int) -> Counter:
    """Iterated neighborhood-refinement string features.

    Round 0 labels are the provided per-node strings, or the decimal degree
    when no map is given; round 1 hashes them escaped by :func:`_escape`.
    Each round hashes a node's own label together with its sorted neighbor
    labels into a stable 64-bit hex string.  Returns the multiset of all
    rounds' labels, node_count * (iterations + 1) of them, each prefixed
    with its round index so rounds never collide.
    """
    _require("iterations", iterations, int, 0)
    n = g.node_count
    if not isinstance(features, (dict, type(None))):
        raise InputContractError(f"feature map must be a dict, got {type(features).__name__}")
    if features is not None:
        missing = [v for v in range(n) if v not in features]
        if missing:
            raise IncompleteFeatureMap(f"feature map missing node {missing[0]}")
        labels = [features[v] for v in range(n)]
        wrong = [v for v in range(n) if not isinstance(labels[v], str)]
        if wrong:
            kind = type(labels[wrong[0]]).__name__
            raise InputContractError(f"feature of node {wrong[0]} must be a str, got {kind}")
    else:
        labels = [str(d) for d in g.degrees.tolist()]
    counts = Counter(f"0:{label}" for label in labels)
    labels = [_escape(label) for label in labels]  # later rounds' hex labels need none
    nbrs = g.neighbor_lists()
    for r in range(1, iterations + 1):
        labels = [_hash_label(labels[v], [labels[u] for u in nbrs[v]]) for v in range(n)]
        counts.update(f"{r}:{label}" for label in labels)
    return counts


def _spectra(corpus: GraphCorpus) -> list:
    """Ascending normalized-Laplacian eigenvalues of each graph of a corpus
    that ``fit`` has checked, so its emptiness and connectivity errors take
    precedence over the dense cap."""
    for i, g in enumerate(corpus.graphs):
        if g.node_count > DENSE_SIZE_CAP:
            raise GraphTooLarge(f"graph {i} has {g.node_count} nodes, cap is {DENSE_SIZE_CAP}")
    return [eigvals_symmetric(normalized_laplacian(g)) for g in corpus.graphs]


class SfModel(Estimator):
    """Spectral fingerprint: the smallest normalized-Laplacian eigenvalues,
    ascending, zero-padded on the right for graphs smaller than the width."""

    dimensions: int = 32

    _input = GraphCorpus
    _minimums = {"dimensions": 1}
    get_embedding = Estimator.getter("embedding")

    def _fit(self, data: GraphCorpus) -> None:
        d = self.dimensions
        rows = np.zeros((len(data), d))
        for i, vals in enumerate(_spectra(data)):
            take = min(d, len(vals))
            rows[i, :take] = vals[:take]
        self._embedding = rows


class NetLsdModel(Estimator):
    """Heat-trace fingerprint: sum of exp(-t * eigenvalue) over the
    normalized-Laplacian spectrum, evaluated on a fixed grid of 250 time
    points log-spaced on [1e-2, 1e2]."""

    # not a field: a dataclass rejects an array default, and the grid is fixed
    time_points = np.logspace(-2.0, 2.0, 250)
    time_points.setflags(write=False)

    _input = GraphCorpus
    get_embedding = Estimator.getter("embedding")

    def _fit(self, data: GraphCorpus) -> None:
        t = self.time_points
        rows = np.zeros((len(data), len(t)))
        for i, vals in enumerate(_spectra(data)):
            rows[i] = np.exp(-np.outer(t, vals)).sum(axis=1)
        self._embedding = rows


class WlSvdModel(Estimator):
    """Factorized subtree-pattern features.

    Builds the graphs-by-features count matrix over all refinement rounds,
    reweights it by TF-IDF, idf = ln(graphs / df) with df the number of
    corpus graphs that contain the feature, and truncates by randomized
    SVD.  The embedding is U scaled by the singular values, zero-padded on
    the right when the matrix admits fewer than ``dimensions`` components.
    """

    wl_iterations: int = 2
    dimensions: int = 128
    seed: int = 42

    _input = GraphCorpus
    _minimums = {"wl_iterations": 0, "dimensions": 1}
    get_embedding = Estimator.getter("embedding")

    def _fit(self, data: GraphCorpus) -> None:
        n_graphs = len(data)
        fmaps = data.features or [None] * n_graphs
        feature_sets = [wl_features(g, fmap, self.wl_iterations)
                        for g, fmap in zip(data.graphs, fmaps)]

        vocabulary = sorted(set().union(*feature_sets))
        index = {feat: j for j, feat in enumerate(vocabulary)}
        rows = np.repeat(np.arange(n_graphs), [len(c) for c in feature_sets])
        cols = [index[feat] for counts in feature_sets for feat in counts]
        vals = [float(cnt) for counts in feature_sets for cnt in counts.values()]
        tf = _sparse().csr_matrix(
            (vals, (rows, cols)), shape=(n_graphs, len(vocabulary))
        )
        # TF-IDF in place: a sorted float64 CSR that randomized_svd reads without a copy
        tf.data *= np.log(n_graphs / tf.getnnz(axis=0))[tf.indices]

        k = min(self.dimensions, n_graphs, len(vocabulary))
        u, s = randomized_svd(tf, k, RandomSource(self.seed, 0))
        embedding = np.zeros((n_graphs, self.dimensions))
        embedding[:, :k] = u * s
        self._embedding = embedding
