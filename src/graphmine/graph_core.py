"""Graph representation, validation, random generation, and derived matrices.

The :class:`Graph` type is the single graph carrier used everywhere: an
immutable, undirected, simple graph over contiguous ids 0..n-1, stored as a
flat CSR-style adjacency (``offsets``/``targets``) so that algorithms can
operate on arrays instead of Python containers.

:class:`RandomSource` is the only randomness entry point in the library.  It
wraps a counter-based generator keyed by ``(seed, stream_id)``, which makes
every random quantity a pure function of those two integers, identically on
every platform, and makes independent child streams cheap to derive.
"""

from __future__ import annotations

import numbers
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConnectivityRetryExhausted,
    DisconnectedGraph,
    DuplicateEdge,
    EmptyCorpus,
    InputContractError,
    IsolatedNode,
    NotFitted,
    OutOfRangeNode,
    SelfLoop,
    TooManyEdges,
)

if TYPE_CHECKING:
    from scipy import sparse as _sp

__all__ = [
    "Estimator",
    "Graph",
    "RandomSource",
    "build_graph",
    "require_connected",
    "erdos_renyi_gnm",
    "transition_matrix",
    "normalized_laplacian",
    "triangle_partners",
]


def _sparse():
    """``scipy.sparse``, imported on the first call.

    Importing it costs about as much again as importing numpy, so only the
    code that builds a sparse matrix pays for it: reading, generating,
    propagating labels over and scoring graphs never loads it.
    """
    from scipy import sparse

    return sparse


# ---------------------------------------------------------------------------
# random source
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    # Finalizer with full avalanche; used only to derive child seeds.
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomSource:
    """Deterministic randomness handle keyed by ``(seed, stream_id)``.

    The output sequence is a pure function of the two key integers; distinct
    stream ids give statistically independent streams.  Instances are
    immutable; parallel or per-item work derives children via :meth:`child`
    so results stay independent of execution order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this source's stream."""
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RandomSource":
        """Derive the ``index``-th child source.

        The child's stream_id is ``index`` itself; its seed mixes the parent
        key, so children of distinct parents never collide.
        """
        mixed = _splitmix64(self.seed ^ _splitmix64(self.stream_id))
        return RandomSource(seed=mixed, stream_id=index)

    def child_uniforms(self, count: int, size: int) -> np.ndarray:
        """``count`` rows of ``size`` uniforms in [0, 1): row w is
        ``self.child(w).generator().random(size)``, bit for bit.

        Child w's generator is a Philox keyed ``(mixed seed, w)`` at counter
        0 with an empty buffer, so one Philox put back in that state for
        each row draws the same numbers without building a generator per row.
        """
        child = self.child(0)
        gen = child.generator()
        state = gen.bit_generator.state  # counter 0 and an empty buffer, as built
        out = np.empty((count, size))
        for w, row in enumerate(out):
            state["state"]["key"] = [child.seed, w]
            gen.bit_generator.state = state
            gen.random(out=row)
        return out


# ---------------------------------------------------------------------------
# graph type
# ---------------------------------------------------------------------------

class Graph:
    """Immutable undirected simple graph over ids 0..n-1.

    Adjacency is stored flat: node v's neighbors are
    ``targets[offsets[v]:offsets[v+1]]``, sorted ascending.  Both arrays are
    read-only, so instances are safe to share across any number of readers.
    """

    __slots__ = ("node_count", "edge_count", "offsets", "targets")

    def __init__(self, node_count: int, offsets: np.ndarray, targets: np.ndarray):
        self.node_count = int(node_count)
        self.edge_count = int(len(targets) // 2)
        offsets.setflags(write=False)
        targets.setflags(write=False)
        self.offsets = offsets
        self.targets = targets

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of node v (read-only view)."""
        return self.targets[self.offsets[v]: self.offsets[v + 1]]

    def neighbor_lists(self) -> list[list[int]]:
        """Every node's sorted neighbor ids as a Python list, for node-by-node
        loops, which index lists several times faster than arrays."""
        offsets, targets = self.offsets.tolist(), self.targets.tolist()
        return [targets[offsets[v]: offsets[v + 1]] for v in range(self.node_count)]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        heads = np.repeat(np.arange(self.node_count), self.degrees)
        keep = heads < self.targets
        return list(zip(heads[keep].tolist(), self.targets[keep].tolist()))

    def adjacency_scipy(self) -> _sp.csr_matrix:
        """The 0/1 adjacency matrix as a scipy CSR (float64)."""
        return _sparse().csr_matrix(
            (np.ones(len(self.targets)), self.targets, self.offsets),
            shape=(self.node_count, self.node_count),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.node_count}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# estimator base
# ---------------------------------------------------------------------------

class Estimator:
    """Base class of every estimator.

    A subclass declares its hyperparameters once, as annotated class
    attributes with defaults; the base makes it a dataclass, so they are its
    constructor's parameters, in declaration order, and public attributes.
    Equality and hashing stay by identity, and no repr is generated.  A
    subclass that defines ``_fit`` gets its own ``fit(data)``, named
    ``<Class>.fit`` so that traces tell the estimators apart.  It checks the
    hyperparameters at the class's ``_minimums``, then that ``data`` is an
    instance of the class's ``_input``: a connected :class:`Graph`, or a
    non-empty :class:`GraphCorpus` of connected graphs.  It then calls
    ``_fit(data)``, which stores each result ``x`` as ``self._x``, and
    returns ``self``.  The getter made by :meth:`getter` raises
    :class:`NotFitted` before that and returns a copy after, so callers
    never share the fitted state.
    """

    _minimums = {}  # int field -> its least allowed value, where it has one
    _input = Graph  # the type fit takes; the corpus models set GraphCorpus

    def __init_subclass__(cls):
        dataclass(eq=False, repr=False)(cls)
        if "_fit" in vars(cls):
            def fit(self, data):
                self._require_at_least()
                if not isinstance(data, self._input):
                    raise InputContractError(f"{type(self).__name__}.fit takes a "
                                             f"{self._input.__name__}, got {type(data).__name__}")
                (require_connected if self._input is Graph else _require_corpus)(data)
                self._fit(data)
                return self

            fit.__qualname__ = f"{cls.__name__}.fit"
            cls.fit = fit

    @staticmethod
    def getter(result: str):
        """The ``get_<result>`` method for a result that fit stores as ``self._<result>``."""

        def get(self):
            value = getattr(self, "_" + result, None)
            if value is None:
                raise NotFitted(f"call fit before get_{result}")
            return value.copy()

        get.__name__ = get.__qualname__ = f"get_{result}"
        return get

    def _require_at_least(self) -> None:
        """:func:`_require` each field, in order, by its default's type, at its minimum if named."""
        for f in fields(self):
            _require(f.name, getattr(self, f.name), type(f.default), self._minimums.get(f.name))


def _require(name: str, value, kind: type, low: int | None = None) -> None:
    """Raise :class:`InputContractError` unless ``value`` is a non-bool integer >= ``low`` for
    ``kind`` int, or a finite real >= 0 for float (> 0 for ``learning_rate``: 0 never trains)."""
    if kind is int:
        if type(value) is bool or not isinstance(value, numbers.Integral):
            raise InputContractError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise InputContractError(f"{name} must be >= {low}, got {value!r}")
    elif kind is float:
        if not isinstance(value, numbers.Real):
            raise InputContractError(f"{name} must be a number, got {value!r}")
        sign = "positive" if name == "learning_rate" else "nonnegative"
        if not (0.0 < value if sign == "positive" else 0.0 <= value) or not value < np.inf:
            raise InputContractError(f"{name} must be a {sign} finite number, got {value!r}")


def _require_labels(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; :class:`InputContractError` unless their
    dtype is an integer one (bool is not) and every value fits int64.  Empty
    input passes, for the caller's own length check."""
    try:
        labels = np.asarray(values)
        ok = labels.size == 0 or (labels.dtype.kind in "iu" and labels.max() < 2**63)
    except ValueError:  # ragged rows
        ok = False
    if not ok:
        raise InputContractError(f"{name} must hold integers, got {reprlib.repr(values)}")
    return labels.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

_MAX_NODES = 2**63 - 1  # node ids are int64
_MAX_ADDRESSABLE = np.iinfo(np.intp).max // 8 - 1  # n + 1 int64 offsets fit in one array


def _check_node_count(n: int) -> None:
    if n > _MAX_NODES:
        raise OutOfRangeNode(f"node count must be <= {_MAX_NODES}: node ids are int64")
    if n > _MAX_ADDRESSABLE:
        raise OutOfRangeNode(f"node count must be <= {_MAX_ADDRESSABLE}: offsets not addressable")


def build_graph(n: int, edges) -> Graph:
    """Build an undirected simple graph from unordered node pairs.

    (u, v) and (v, u) denote the same edge; supplying both, or the same pair
    twice, raises :class:`DuplicateEdge`.  Self-loops and endpoints outside
    0..n-1 are rejected rather than dropped, so upstream data bugs surface
    loudly, and so is an edge that is not two integers, Python or numpy,
    bool excluded (:class:`InputContractError`); a list that mixes bools
    with ints builds, as numpy reads it as integers.  Node ids are int64
    and the n + 1 offsets must be addressable: an ``n`` above 2**60 - 2
    (64-bit builds) raises :class:`OutOfRangeNode` once every edge has
    passed those checks.
    """
    _require("n", n, int)
    if n < 1:
        raise OutOfRangeNode(f"node count must be >= 1, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        pairs = np.asarray(edges)
    except (ValueError, OverflowError):  # ragged rows
        pairs = np.empty(0)
    # anything but in-range integer pairs (floats, strings, bools, objects,
    # ints beyond 64 bits, bytearray or memoryview edges that numpy reads as
    # uint8 rows) or a node count too large to address goes through the
    # loop, which raises for the first faulty edge or finds integers
    if (
        n > _MAX_ADDRESSABLE
        or pairs.dtype.kind not in "iu"
        or (pairs.dtype == np.uint8 and edges is not pairs)
        or pairs.shape[1:] != (2,)
        or pairs.min(initial=0) < 0
        or pairs.max(initial=0) >= n
    ):
        _raise_for_first_faulty_edge(n, edges)
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pairs = pairs.astype(np.int64, copy=False)
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    heads, tails = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.lexsort((tails, heads))
    heads, targets = heads[order], tails[order]
    # a repeated pair sorts next to its twin, and a self-loop (u, u) lists
    # u twice among u's targets: the loop names the first such edge
    if np.any((heads[1:] == heads[:-1]) & (targets[1:] == targets[:-1])):
        _raise_for_first_faulty_edge(n, edges)
    counts = np.bincount(heads, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Graph(n, offsets, targets)


def _raise_for_first_faulty_edge(n: int, edges) -> None:
    """The per-edge loop: raises for the first faulty edge in input order.  It
    passes only no edges, or integers that numpy did not read as an integer
    array (``np.uint8`` pairs, Python ints mixed with ``np.uint64``)."""
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:  # bytes-likes and mappings unpack into byte values or keys, not two ids
            u, v = () if isinstance(edge, (bytes, bytearray, memoryview, Mapping)) else edge
        except (TypeError, ValueError):
            u = v = None
        if not all(isinstance(x, numbers.Integral) and type(x) is not bool for x in (u, v)):
            shown = edge.tobytes() if isinstance(edge, memoryview) else edge
            raise InputContractError(f"edge {reprlib.repr(shown)} is not two integer node ids")
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRangeNode(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge ({u},{v}) given more than once")
        seen.add(key)
    _check_node_count(n)


def _reaches_all(g: Graph) -> bool:
    """Whether a breadth-first pass over ``g`` from node 0 reaches every node;
    it walks the flat adjacency as two Python lists, with no per-node list."""
    offsets, targets = g.offsets.tolist(), g.targets.tolist()
    seen = bytearray(g.node_count)
    seen[0] = 1
    reached = [0]
    for u in reached:  # the list grows behind the loop: a FIFO queue
        for v in targets[offsets[u]: offsets[u + 1]]:
            if not seen[v]:
                seen[v] = 1
                reached.append(v)
    return len(reached) == g.node_count


def require_connected(g: Graph, name: str = "graph") -> None:
    """Raise :class:`DisconnectedGraph` unless ``g`` is connected.

    ``name`` leads the error message, e.g. ``"graph 3"`` for a corpus member.
    """
    if not _reaches_all(g):
        raise DisconnectedGraph(f"{name} is not connected")


def _require_corpus(corpus) -> None:
    """:class:`EmptyCorpus` for no graphs, else for each graph, in order,
    :class:`InputContractError` unless it is a :class:`Graph`, then :func:`require_connected`."""
    if len(corpus) == 0:
        raise EmptyCorpus("corpus contains no graphs")
    for i, g in enumerate(corpus.graphs):
        if not isinstance(g, Graph):
            raise InputContractError(f"graph {i} is not a Graph, got {type(g).__name__}")
        require_connected(g, f"graph {i}")


def erdos_renyi_gnm(
    n: int, m: int, rng: RandomSource, connected: bool = False
) -> Graph:
    """Sample a uniform random graph with exactly ``m`` distinct edges.

    Pairs are drawn uniformly and rejected while already present; expected
    cost is O(m) in the sparse regimes this library targets.  With
    ``connected=True`` the draw is retried with the next stream_id, up to
    100 attempts, until connected; with fewer than n - 1 edges it draws none.
    """
    _require("n", n, int)
    _require("m", m, int)
    if n < 1:
        raise OutOfRangeNode(f"node count must be >= 1, got {n}")
    _check_node_count(n)
    max_m = n * (n - 1) // 2
    if m < 0 or m > max_m:
        raise TooManyEdges(f"{m} edges requested, graph of {n} nodes admits at most {max_m}")
    if connected and m < n - 1:
        raise ConnectivityRetryExhausted(f"G({n},{m}) cannot be connected: fewer than n - 1 edges")
    for k in range(100 if connected else 1):
        gen = RandomSource(rng.seed, rng.stream_id + k).generator()
        g = build_graph(n, _distinct_pairs(gen, n, m))
        if not connected or _reaches_all(g):
            return g
    raise ConnectivityRetryExhausted(
        f"no connected G({n},{m}) found in 100 attempts from seed {rng.seed}"
    )


def _distinct_pairs(gen: np.random.Generator, n: int, m: int) -> np.ndarray:
    """The first ``m`` distinct pairs of distinct nodes that ``gen`` draws,
    as an (m, 2) int64 array.

    Each round draws as many pairs as are still missing, so it never draws
    past the m-th distinct pair.  A draw of size k is the next k scalar
    draws of the stream, so the pairs are those of one
    ``gen.integers(0, n)`` call per endpoint.
    """
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        draws = gen.integers(0, n, size=2 * (m - len(seen))).tolist()
        for u, v in zip(draws[::2], draws[1::2]):
            if u != v:
                seen.add((u, v) if u < v else (v, u))
    return np.fromiter(chain.from_iterable(seen), np.int64, 2 * m).reshape(m, 2)


# ---------------------------------------------------------------------------
# derived matrices and statistics
# ---------------------------------------------------------------------------

def _require_no_isolated(g: Graph) -> np.ndarray:
    deg = g.degrees.astype(np.float64)
    if np.any(deg == 0):
        bad = int(np.flatnonzero(deg == 0)[0])
        raise IsolatedNode(f"node {bad} has degree 0")
    return deg


def transition_matrix(g: Graph) -> _sp.csr_matrix:
    """Row-stochastic random-walk matrix: adjacency with rows divided by degree."""
    deg = _require_no_isolated(g)
    values = 1.0 / np.repeat(deg, g.degrees)
    n = g.node_count
    return _sparse().csr_matrix((values, g.targets.copy(), g.offsets.copy()), shape=(n, n))


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetric normalized Laplacian as a dense float64 array; eigenvalues lie in [0, 2].

    Entry (u,v) for an edge is -(1/sqrt(deg u)) * (1/sqrt(deg v)); the diagonal is 1.
    """
    deg = _require_no_isolated(g)
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(g.node_count), g.degrees)
    lap = np.eye(g.node_count)
    lap[rows, g.targets] = -inv_sqrt[rows] * inv_sqrt[g.targets]
    return lap


def triangle_partners(nbrs: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Each node's triangle partners, ascending, and its triangle count.

    ``nbrs`` is :meth:`Graph.neighbor_lists`; u partners v when the edge
    (v, u) closes a triangle.  Each edge is intersected once, from its lower
    end (the edge iterator of Latapy 2008); the intersections at v count
    each triangle at v twice, once through each of its two edges at v.
    """
    sets = [set(x) for x in nbrs]
    partners: list[list[int]] = [[] for _ in nbrs]
    counts = [0] * len(nbrs)
    for v, nbr_set in enumerate(sets):
        for u in nbrs[v]:
            if u > v:
                shared = len(nbr_set & sets[u])
                if shared:
                    partners[v].append(u)
                    partners[u].append(v)
                    counts[v] += shared
                    counts[u] += shared
    return partners, [c // 2 for c in counts]
