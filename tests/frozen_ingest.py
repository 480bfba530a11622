"""Frozen per-edge and per-line copies of graph ingestion, as the array
paths replaced them: the references the ingestion tests compare against.

These copies never change with the package.  ``read_edge_list``,
``build_graph`` and ``erdos_renyi_gnm`` must give the same graphs, and
raise the same exceptions with the same messages, for every input.
"""

import numpy as np

from graphmine import (
    ConnectivityRetryExhausted,
    DuplicateEdge,
    InputContractError,
    OutOfRangeNode,
    RandomSource,
    SelfLoop,
    TooManyEdges,
)
from graphmine.graph_core import Graph, _reaches_all


def build_graph_by_edge(n, edges):
    """``build_graph``: a Python loop over the edges checks each one."""
    if n < 1:
        raise OutOfRangeNode(f"node count must be >= 1, got {n}")
    edges = list(edges)
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRangeNode(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u},{v}) given more than once")
        seen.add(key)
    pairs = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
    heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
    tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
    counts = np.bincount(heads, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.lexsort((tails, heads))
    targets = tails[order]
    return Graph(n, offsets, targets)


def _read_text(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputContractError(f"{path}:{line}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_edge_list_by_line(path):
    """The parse half of ``read_edge_list``: ``(node count, [(u, v), ...])``,
    one ``int()`` per endpoint, raising for the first faulty line."""
    edges = []
    declared = None
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("nodes="):
                try:
                    declared = int(body[len("nodes="):])
                except ValueError:
                    raise InputContractError(
                        f"{path}:{lineno}: bad node-count header: {line}"
                    )
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputContractError(
                f"{path}:{lineno}: expected 'u,v', got: {line}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputContractError(
                f"{path}:{lineno}: endpoints must be integers: {line}"
            )
        edges.append((u, v))
    if declared is None:
        if not edges:
            raise InputContractError(f"{path}: no edges and no node-count header")
        declared = 1 + max(max(u, v) for u, v in edges)
    return declared, edges


def read_edge_list_by_line(path):
    """``read_edge_list``: the per-line parse, then the per-edge build."""
    return build_graph_by_edge(*parse_edge_list_by_line(path))


def gnm_pairs_by_draw(gen, n, m):
    """The distinct pairs of ``erdos_renyi_gnm``'s rejection loop, drawing
    one scalar ``gen.integers(0, n)`` per endpoint."""
    seen = set()
    while len(seen) < m:
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
    return seen


def erdos_renyi_gnm_by_draw(n, m, rng, connected=False):
    """``erdos_renyi_gnm`` with scalar draws and the per-edge build."""
    if n < 1:
        raise OutOfRangeNode(f"node count must be >= 1, got {n}")
    max_m = n * (n - 1) // 2
    if m < 0 or m > max_m:
        raise TooManyEdges(f"{m} edges requested, graph of {n} nodes admits at most {max_m}")
    attempts = 100 if connected else 1
    for k in range(attempts):
        gen = RandomSource(rng.seed, rng.stream_id + k).generator()
        g = build_graph_by_edge(n, gnm_pairs_by_draw(gen, n, m))
        if not connected or _reaches_all(g):
            return g
    raise ConnectivityRetryExhausted(
        f"no connected G({n},{m}) found in {attempts} attempts from seed {rng.seed}"
    )
