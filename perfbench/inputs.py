"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain edge
arrays, so the same workload seed always yields the same inputs and
graphmine only ever sees the finished graphs and files.  Node counts and
corpus size histograms are fixed per workload; the seed changes only the
wiring, which keeps the amount of work nearly the same from seed to seed.
"""

from __future__ import annotations

import numpy as np

HUB_SHAPE = 1.5  # Pareto shape of the degree weights of hub-heavy graphs
HUB_CAP = 40.0  # largest degree weight, as a multiple of the mean weight


def _path_keys(n: int, rng: np.random.Generator) -> np.ndarray:
    """Edge keys of a path through all nodes in seeded random order; it
    makes every generated graph connected."""
    order = rng.permutation(n)
    a, b = order[:-1], order[1:]
    return np.minimum(a, b) * n + np.maximum(a, b)


def _fill(n: int, m: int, keys: np.ndarray, draw, rng) -> np.ndarray:
    """Add distinct edges from ``draw(k) -> (u, v)`` in draw order until
    there are ``m``; returns the sorted edge keys."""
    have = np.unique(keys)
    for _ in range(1000):
        need = m - have.size
        if need <= 0:
            break
        u, v = draw(2 * need + 64)
        keep = u != v
        new = np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep]
        new, first = np.unique(new, return_index=True)
        fresh = ~np.isin(new, have)
        new = new[fresh][np.argsort(first[fresh], kind="stable")][:need]
        have = np.union1d(have, new)
    else:
        raise RuntimeError(f"could not place {m} edges on {n} nodes")
    return have


def _relabel(n: int, keys: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Apply a seeded node permutation; returns (edges, permutation) with
    edges as sorted (u < v) rows."""
    perm = rng.permutation(n)
    u, v = perm[keys // n], perm[keys % n]
    edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order], perm


def planted_partition(
    n: int,
    blocks: int,
    mean_degree: float,
    mixing: float,
    hub_heavy: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-corrected planted partition on ``n`` nodes in equal blocks.

    Each edge picks one end in proportion to its degree weight, and the
    other end in proportion to weight either inside the same block or,
    with probability ``mixing``, anywhere.  Near-regular graphs give every
    node weight 1; hub-heavy graphs use Pareto quantile weights (shape
    ``HUB_SHAPE``) capped at ``HUB_CAP`` times the mean.  The weights are
    quantiles, not draws, so the degree profile is the same for every seed.
    Returns (edges, labels): sorted ``u < v`` edge rows and block ids.
    """
    block = np.arange(n) * blocks // n
    if hub_heavy:
        q = (np.arange(n) + 0.5) / n
        theta = (1.0 - q) ** (-1.0 / HUB_SHAPE)
        theta = np.minimum(theta, HUB_CAP * theta.mean())[rng.permutation(n)]
    else:
        theta = np.ones(n)
    cum = np.cumsum(theta)
    total = cum[-1]
    starts = np.searchsorted(block, np.arange(blocks))
    lo = np.concatenate([[0.0], cum])[starts]
    hi = cum[np.concatenate([starts[1:], [n]]) - 1]

    def pick(r: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(cum, r, side="right"), n - 1)

    def draw(k: int):
        u = pick(rng.random(k) * total)
        b = block[u]
        inside = np.clip(pick(lo[b] + rng.random(k) * (hi[b] - lo[b])), starts[b], None)
        anywhere = pick(rng.random(k) * total)
        v = np.where(rng.random(k) < mixing, anywhere, inside)
        return u, v

    m = int(round(n * mean_degree / 2.0))
    keys = _fill(n, m, _path_keys(n, rng), draw, rng)
    edges, perm = _relabel(n, keys, rng)
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = block
    return edges, labels


def gnm(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Connected G(n, m): a random spanning path plus uniform edges."""
    keys = _fill(n, m, _path_keys(n, rng), lambda k: (rng.integers(0, n, k), rng.integers(0, n, k)), rng)
    return _relabel(n, keys, rng)[0]


def ring_lattice(n: int, reach: int, rng: np.random.Generator) -> np.ndarray:
    """Each node joined to its ``reach`` nearest nodes on either side of a
    ring; the seed only permutes node ids."""
    u = np.repeat(np.arange(n), reach)
    v = (u + np.tile(np.arange(1, reach + 1), n)) % n
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return _relabel(n, keys, rng)[0]


FAMILIES = ("gnm", "two-block", "ring")


def family_graph(label: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Edges of one corpus graph of family ``FAMILIES[label]``: G(n, 3n),
    two planted blocks with mean degree 10, or a ring lattice of degree 6.
    The two-block family is denser so that degree-seeded subtree features
    can tell it from G(n, 3n)."""
    family = FAMILIES[label]
    if family == "gnm":
        return gnm(n, 3 * n, rng)
    if family == "two-block":
        return planted_partition(n, 2, 10.0, 0.05, False, rng)[0]
    return ring_lattice(n, 3, rng)


def corpus(sizes: list[int], rng: np.random.Generator) -> list[tuple[int, np.ndarray, int]]:
    """Labelled corpus: every size in ``sizes`` once per family, in
    family-major order.  Returns (node count, edges, family label) triples."""
    return [(n, family_graph(label, n, rng), label) for label in range(len(FAMILIES)) for n in sizes]


def corpus_properties(members: list) -> dict:
    sizes = [n for n, _, _ in members]
    return {
        "graphs": len(members),
        "size_histogram": {str(n): sizes.count(n) for n in sorted(set(sizes))},
        "sum_n3": int(sum(n ** 3 for n in sizes)),
    }


def graph_properties(n: int, edges: np.ndarray) -> dict:
    deg = np.bincount(edges.ravel(), minlength=n)
    return {
        "n": n,
        "m": int(len(edges)),
        "mean_degree": float(deg.mean()),
        "max_degree": int(deg.max()),
    }


def window_pairs(walk_length: int, window: int) -> int:
    """(center, context) pairs one walk yields for a DeepWalk window."""
    i = np.arange(walk_length)
    return int((np.minimum(walk_length - 1, i + window) - np.maximum(0, i - window)).sum())


def deepwalk_pairs(n: int, walk_number: int, walk_length: int, window: int, epochs: int) -> int:
    return n * walk_number * window_pairs(walk_length, window) * epochs


def walklets_pairs(n: int, walk_number: int, walk_length: int, window: int, epochs: int) -> int:
    return n * walk_number * sum(walk_length - s for s in range(1, window + 1)) * epochs
