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

from dataclasses import field

import numpy as np

from .errors import IncompleteMembership, InputContractError, RankTooLarge
from .graph_core import Estimator, Graph, RandomSource, _require_labels, triangle_partners

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
    if not isinstance(memberships, dict):
        raise InputContractError(f"memberships must be a dict, got {type(memberships).__name__}")
    n = g.node_count
    if set(memberships.keys()) != set(range(n)):
        raise IncompleteMembership("membership map must cover exactly the nodes 0..n-1")
    m = g.edge_count
    if m == 0:
        raise IncompleteMembership("modularity is undefined for a graph with no edges")
    labels = _require_labels("memberships", [memberships[v] for v in range(n)])
    _, labels = np.unique(labels, return_inverse=True)
    c = int(labels.max()) + 1
    degree_per_cluster = np.bincount(labels, weights=g.degrees, minlength=c)
    head_labels = np.repeat(labels, g.degrees)
    same = head_labels == labels[g.targets]
    # each intra edge appears twice in the flat adjacency
    intra = np.bincount(head_labels[same], minlength=c) / 2.0
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

    seed: int = 42
    max_iterations: int = 100

    _minimums = {"max_iterations": 1}
    get_memberships = Estimator.getter("memberships")

    def _fit(self, data: Graph) -> None:
        # plain lists: a visit counts its neighbors' labels in a dict, in
        # O(degree), where an array count would cost O(largest label)
        n, nbrs = data.node_count, data.neighbor_lists()
        gen = RandomSource(self.seed, 0).generator()
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


# ---------------------------------------------------------------------------
# triangle-driven greedy clustering
# ---------------------------------------------------------------------------

class ScdModel(Estimator):
    """Greedy triangle-based clustering, fully deterministic.

    Seeds communities in descending local-clustering-coefficient order, then
    hill-climbs each node's community assignment under the weighted
    community clustering objective for ``refinement_rounds`` passes (early
    stop when a full pass moves nothing).  Nodes incident to no triangle
    become singletons.
    """

    refinement_rounds: int = 25

    _minimums = {"refinement_rounds": 0}
    get_memberships = Estimator.getter("memberships")

    def _fit(self, data: Graph) -> None:
        n, deg, nbrs = data.node_count, data.degrees, data.neighbor_lists()
        partners, t_counts = triangle_partners(nbrs)
        partner_sets = [set(p) for p in partners]

        cc = np.zeros(n)
        mask = deg >= 2
        cc[mask] = 2.0 * np.array(t_counts)[mask] / (deg[mask] * (deg[mask] - 1.0))
        order = np.argsort(-cc, kind="stable").tolist()  # ties by ascending id

        labels = [-1] * n
        sizes: list[int] = []  # label -> its node count; labels are 0, 1, ... in seeding order
        for v in order:
            if labels[v] != -1:
                continue
            group = [v]
            if t_counts[v] > 0:
                group += [u for u in nbrs[v] if labels[u] == -1 and t_counts[u] > 0]
            for u in group:
                labels[u] = len(sizes)
            sizes.append(len(group))

        for _ in range(self.refinement_rounds):
            moved = False
            for v in range(n):
                t_v = t_counts[v]
                if t_v == 0:
                    continue
                groups: dict = {}
                for u in partners[v]:
                    groups.setdefault(labels[u], []).append(u)
                current = labels[v]
                # weighted community clustering of v with community c: the
                # fraction of v's triangles closed inside c (edges among the
                # partners c holds; two partners of v are adjacent exactly
                # when each is a triangle partner of the other), times the
                # partner count k over the size of c plus the partners left
                # outside.  A community holding fewer than 2 partners scores
                # 0, which never beats staying (score >= 0), and neither does
                # the singleton option: only the others can take v
                others = sorted(c for c, group in groups.items() if len(group) >= 2 and c != current)
                if not others:
                    continue
                sizes[current] -= 1  # v leaves, then joins the best community
                k = len(partners[v])
                best_label, best_score = current, -1.0
                for cand in [current, *others]:
                    group = groups.get(cand, [])
                    inside = set(group)
                    t_in = sum(len(inside.intersection(partner_sets[u])) for u in group) // 2
                    score = (t_in / t_v) * (k / (sizes[cand] + k - len(group)))
                    if score > best_score:
                        best_label, best_score = cand, score
                sizes[best_label] += 1
                if best_label != current:
                    moved = True
                    labels[v] = best_label
            if not moved:
                break

        self._memberships = canonicalize_memberships(dict(enumerate(labels)))


# ---------------------------------------------------------------------------
# symmetric NMF
# ---------------------------------------------------------------------------

class SymNmfModel(Estimator):
    """Overlapping community model: factor the adjacency as H H^T, H >= 0.

    Fitting runs damped multiplicative updates whose damping share backs off
    until each step is non-increasing, so H stays nonnegative and the squared
    reconstruction loss never goes up.  A node's hard membership is the column
    of its row's largest entry of H, the lowest on a tie (``numpy.argmax``).
    The fitted H is available through ``get_embedding``; per-iteration losses
    are recorded in ``loss_history_``.
    """

    dimensions: int = 32
    iterations: int = 200
    tolerance: float = 1e-6
    seed: int = 42
    loss_history_: list | None = field(default=None, init=False)

    _minimums = {"dimensions": 1, "iterations": 1}
    get_embedding = Estimator.getter("embedding")
    get_memberships = Estimator.getter("memberships")

    def _fit(self, data: Graph) -> None:
        """Fit H >= 0 minimizing ||A - H H^T||_F^2."""
        n = data.node_count
        k = self.dimensions
        if k > n:
            raise RankTooLarge(f"dimensions {k} not in 1..{n}")
        a = data.adjacency_scipy()
        gen = RandomSource(self.seed, 0).generator()
        mean_a = 2.0 * data.edge_count / float(n * n)
        h = gen.random((n, k)) * np.sqrt(mean_a / k)

        a_fro2 = 2.0 * data.edge_count  # sum of squared 0/1 adjacency entries

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
            # damped multiplicative step; damping shares 1/2, 1/4, ..., 2**-20 are
            # tried until the loss stops increasing, else share zero keeps the
            # current iterate, so the recorded sequence is nonincreasing
            for gamma in (0.5 ** k for k in range(1, 21)):
                candidate = h * ((1.0 - gamma) + gamma * ratio)
                scored = loss(candidate)
                if not scored[0] > current:
                    break
            else:
                candidate, scored = h, (current, ah, gram)
            h = candidate
            current, ah, gram = scored
            losses.append(current)
            if losses[-2] > 0:
                if abs(losses[-2] - losses[-1]) / max(losses[-2], eps) < self.tolerance:
                    break

        self._embedding = h
        self._memberships = canonicalize_memberships(dict(enumerate(h.argmax(axis=1).tolist())))
        self.loss_history_ = losses
