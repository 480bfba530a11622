"""Community detection: label propagation, triangle-based greedy clustering
(weighted community clustering objective), symmetric nonnegative matrix
factorization, and the modularity quality score.

All three estimators share the :class:`~graphmine.graph_core.Estimator`
lifecycle: construct with hyperparameters (inspectable as attributes),
``fit(graph)``, which returns the model, then read results through
``get_memberships`` (and ``get_embedding`` for the factorization model).
Cluster ids in every returned membership map are canonical: renumbered
0..c-1 in order of first appearance by ascending node id, so structurally
equal clusterings compare equal.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompleteMembership, InputContractError, RankTooLarge
from .graph_core import (
    Estimator,
    Graph,
    RandomSource,
    require_connected,
    triangle_matrix,
)

__all__ = [
    "LabelPropagationModel",
    "ScdModel",
    "SymNmfModel",
    "modularity",
    "canonicalize_memberships",
]


def canonicalize_memberships(assignments: dict) -> dict:
    """Renumber cluster ids to 0..c-1 by first appearance in node-id order."""
    remap: dict = {}
    out: dict = {}
    for node in sorted(assignments):
        label = assignments[node]
        if label not in remap:
            remap[label] = len(remap)
        out[int(node)] = remap[label]
    return out


def modularity(g: Graph, memberships: dict) -> float:
    """Newman modularity of a hard partition.

    Q = sum over clusters of (intra-edge fraction) - (degree fraction / 2)^2.
    Invariant under any relabeling of cluster ids.
    """
    n = g.node_count
    if set(memberships.keys()) != set(range(n)):
        raise IncompleteMembership("membership map must cover exactly the nodes 0..n-1")
    m = g.edge_count
    if m == 0:
        raise IncompleteMembership("modularity is undefined for a graph with no edges")
    labels = np.array([memberships[v] for v in range(n)], dtype=np.int64)
    _, labels = np.unique(labels, return_inverse=True)
    c = int(labels.max()) + 1
    deg = g.degrees.astype(np.float64)
    degree_per_cluster = np.bincount(labels, weights=deg, minlength=c)
    heads = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    same = labels[heads] == labels[g.targets]
    # each intra edge appears twice in the flat adjacency
    intra = np.bincount(labels[heads][same], minlength=c) / 2.0
    q = intra / m - (degree_per_cluster / (2.0 * m)) ** 2
    return float(q.sum())


# ---------------------------------------------------------------------------
# label propagation
# ---------------------------------------------------------------------------

class LabelPropagationModel(Estimator):
    """Asynchronous label propagation.

    Every node starts in its own cluster; each round visits the nodes in a
    fresh seeded random permutation and each node adopts the majority label
    among its neighbors.  A node already holding one of the tied majority
    labels keeps it; otherwise the tie is broken by a seeded random pick.
    Stops at the first round with no change, or after ``max_iterations``.
    """

    def __init__(self, seed: int = 42, max_iterations: int = 100):
        self.seed = seed
        self.max_iterations = max_iterations

    get_memberships = Estimator.getter("memberships")

    def fit(self, g: Graph) -> "LabelPropagationModel":
        self._require_at_least(max_iterations=1)
        require_connected(g)
        n = g.node_count
        gen = RandomSource(self.seed, 0).generator()
        # plain lists: a visit counts its neighbors' labels in a dict, in
        # O(degree), where an array count would cost O(largest label)
        offsets, targets = g.offsets.tolist(), g.targets.tolist()
        nbrs = [targets[offsets[v]: offsets[v + 1]] for v in range(n)]
        labels = list(range(n))
        for _ in range(self.max_iterations):
            changed = False
            for v in gen.permutation(n).tolist():
                counts: dict = {}
                for u in nbrs[v]:
                    label = labels[u]
                    counts[label] = counts.get(label, 0) + 1
                if not counts:
                    continue
                top = max(counts.values())
                if counts.get(labels[v]) == top:
                    continue
                best = sorted(label for label, c in counts.items() if c == top)
                labels[v] = best[0] if len(best) == 1 else best[gen.integers(0, len(best))]
                changed = True
            if not changed:
                break
        self._memberships = canonicalize_memberships(dict(enumerate(labels)))
        return self


# ---------------------------------------------------------------------------
# triangle-driven greedy clustering
# ---------------------------------------------------------------------------

def _wcc(
    v: int,
    members: set,
    nbrs_v: np.ndarray,
    tri_nbrs_v: list,
    t_total: int,
    adj_sets: list[set],
) -> float:
    """Cohesion of node v with the community ``members`` (v itself excluded).

    First factor: fraction of v's triangles closed inside the community.
    Second factor: reach of v's triangle partners relative to community size
    plus triangle partners left outside.
    """
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


class ScdModel(Estimator):
    """Greedy triangle-based clustering, fully deterministic.

    Seeds communities in descending local-clustering-coefficient order, then
    hill-climbs each node's community assignment under the weighted
    community clustering objective for ``refinement_rounds`` passes (early
    stop when a full pass moves nothing).  Nodes incident to no triangle
    become singletons.
    """

    def __init__(self, refinement_rounds: int = 25):
        self.refinement_rounds = refinement_rounds

    get_memberships = Estimator.getter("memberships")

    def fit(self, g: Graph) -> "ScdModel":
        self._require_at_least(refinement_rounds=0)
        require_connected(g)
        n = g.node_count
        deg = g.degrees
        # triangle partners of v: the stored columns of row v
        tri = triangle_matrix(g)
        tri_nbrs = [tri.indices[tri.indptr[v]: tri.indptr[v + 1]].tolist() for v in range(n)]
        t_counts = np.asarray(tri.sum(axis=1)).ravel().astype(np.int64) // 2
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

        members: dict[int, set] = {}
        for v in range(n):
            members.setdefault(int(labels[v]), set()).add(v)

        for _ in range(self.refinement_rounds):
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
                best_label, best_score = current, _wcc(
                    v, own, nbrs_v, tri_nbrs[v], t_counts[v], adj_sets
                )
                for cand in sorted(candidates):
                    if cand == current:
                        continue
                    score = _wcc(
                        v, members[cand], nbrs_v, tri_nbrs[v], t_counts[v], adj_sets
                    )
                    if score > best_score:
                        best_label, best_score = cand, score
                # the singleton option scores exactly 0 and the objective is
                # nonnegative, so with stay-on-tie it can never win a move
                if best_label == current:
                    own.add(v)
                else:
                    moved = True
                    labels[v] = best_label
                    members[best_label].add(v)
            if not moved:
                break

        self._memberships = canonicalize_memberships({v: int(labels[v]) for v in range(n)})
        return self


# ---------------------------------------------------------------------------
# symmetric NMF
# ---------------------------------------------------------------------------

class SymNmfModel(Estimator):
    """Overlapping community model: factor the adjacency as H H^T, H >= 0.

    Fitting runs damped multiplicative updates whose damping share backs off
    until each step is non-increasing, so H stays nonnegative and the squared
    reconstruction loss never goes up.  Hard memberships are
    the per-row argmax of H with seeded random tie-breaks.  The fitted H is
    available through ``get_embedding``; per-iteration losses are recorded
    in ``loss_history_``.
    """

    def __init__(
        self,
        dimensions: int = 32,
        iterations: int = 200,
        tolerance: float = 1e-6,
        seed: int = 42,
    ):
        self.dimensions = dimensions
        self.iterations = iterations
        self.tolerance = tolerance
        self.seed = seed
        self.loss_history_: list | None = None

    get_embedding = Estimator.getter("embedding")
    get_memberships = Estimator.getter("memberships")

    def fit(self, g: Graph) -> "SymNmfModel":
        """Fit H >= 0 minimizing ||A - H H^T||_F^2."""
        self._require_at_least(iterations=1)
        if np.isnan(self.tolerance):
            raise InputContractError("tolerance must be a number, got nan")
        require_connected(g)
        n = g.node_count
        k = self.dimensions
        if k < 1 or k > n:
            raise RankTooLarge(f"dimensions {k} not in 1..{n}")
        a = g.adjacency_scipy()
        gen = RandomSource(self.seed, 0).generator()
        mean_a = 2.0 * g.edge_count / float(n * n)
        h = gen.random((n, k)) * np.sqrt(mean_a / k)

        a_fro2 = 2.0 * g.edge_count  # sum of squared 0/1 adjacency entries

        def loss(h: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            """The loss at h, and the products A H and H^T H it is built from,
            which the next update step reuses once h is accepted."""
            # ||A - HH^T||_F^2 = ||A||_F^2 - 2 sum_edges (HH^T)_uv + ||H^T H||_F^2
            gram = h.T @ h
            ah = a @ h
            value = a_fro2 - 2.0 * float(np.sum(ah * h)) + float(np.sum(gram * gram))
            return value, ah, gram

        eps = 1e-10
        current, ah, gram = loss(h)
        losses = [current]
        for _ in range(self.iterations):
            ratio = ah / (h @ gram + eps)
            # damped multiplicative step; the damping share is halved until the
            # loss stops increasing (share zero recovers the current iterate),
            # so the recorded sequence is nonincreasing by construction
            gamma = 0.5
            candidate = h * ((1.0 - gamma) + gamma * ratio)
            scored = loss(candidate)
            while scored[0] > current and gamma > 1e-6:
                gamma *= 0.5
                candidate = h * ((1.0 - gamma) + gamma * ratio)
                scored = loss(candidate)
            if scored[0] > current:
                candidate, scored = h, (current, ah, gram)
            h = candidate
            current, ah, gram = scored
            losses.append(current)
            if losses[-2] > 0:
                if abs(losses[-2] - losses[-1]) / max(losses[-2], eps) < self.tolerance:
                    break

        argmax_gen = RandomSource(self.seed, 1).generator()
        assignments = {}
        for v in range(n):
            row = h[v]
            best = np.flatnonzero(row == row.max())
            pick = best[0] if best.size == 1 else best[argmax_gen.integers(0, best.size)]
            assignments[v] = int(pick)

        self._embedding = h
        self._memberships = canonicalize_memberships(assignments)
        self.loss_history_ = losses
        return self
