"""Wire formats: edge-list text, membership JSON, embedding CSV, corpus
JSONL, and label CSV.

Writers are deterministic byte-for-byte: fixed orderings, 17-significant-
digit floats (lossless float64 round-trip), and a trailing newline.
"""

from __future__ import annotations

import json
import re
from itertools import repeat

import numpy as np

from .errors import EmptyCorpus, InputContractError
from .graph_core import Graph, build_graph
from .graph_embedding import GraphCorpus

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_membership",
    "write_membership",
    "read_embedding_csv",
    "write_embedding_csv",
    "read_labels_csv",
    "write_labels_csv",
    "read_corpus_jsonl",
    "format_float",
    "edge_list_text",
    "membership_text",
    "embedding_text",
]


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_text(path: str) -> str:
    """The file decoded as UTF-8, with newlines translated as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputContractError(f"{path}:{line}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str):
    """Yield ``(line number, stripped line)`` for each non-blank line."""
    for lineno, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if line:
            yield lineno, line


class _JsonObject(dict):
    """A decoded JSON object that also keeps its key/value ``pairs`` in file
    order, repeated keys included (a plain dict keeps only the last)."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.pairs = pairs


def _json_as(kind: type, value):
    """``value`` if its type is exactly ``kind``: ``int`` refuses floats, booleans and strings."""
    if type(value) is not kind:
        raise TypeError(f"not {kind.__name__}: {value!r}")
    return value


# --- edge lists ---

def read_edge_list(path: str) -> Graph:
    """Parse `u,v` lines into a graph.

    Lines starting with ``#`` are comments; a ``# nodes=N`` header pins the
    node count, otherwise it is inferred as 1 + max endpoint.
    """
    text = _read_text(path)
    try:
        declared, edges = _edge_list_arrays(text)
    except (ValueError, OverflowError):
        # a faulty line, an endpoint beyond int64 or no edges at all: the
        # per-line pass names the first faulty line and keeps Python ints
        declared, edges = _edge_list_by_line(path, _lines(text))
    return build_graph(declared, edges)


def _node_count_header(line: str, declared):
    """The count a ``# nodes=N`` comment declares, else ``declared``."""
    body = line[1:].strip()
    return int(body[len("nodes="):]) if body.startswith("nodes=") else declared


def _edge_list_arrays(text: str) -> tuple:
    """The node count and the endpoints as an (m, 2) int64 array, parsed in
    bulk.  Raises ValueError or OverflowError wherever the per-line pass
    would raise, and for endpoints beyond int64."""
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    declared = None
    for line in lines:
        if line[0] == "#":
            declared = _node_count_header(line, declared)
    data = [line for line in lines if line[0] != "#"]
    # one comma on every line, so the joined tokens pair up line by line
    if not set(map(str.count, data, repeat(","))) <= {1}:
        raise ValueError("expected one comma per line")
    # numpy parses each str with int(), so it accepts what int() accepts
    ends = np.array(",".join(data).split(",") if data else [], dtype=np.int64)
    if declared is None:
        declared = 1 + int(ends.max())  # ValueError if there are no edges
    return declared, ends.reshape(-1, 2)


def _edge_list_by_line(path: str, lines) -> tuple:
    """The node count and the ``(u, v)`` pairs, line by line; raises for the
    first faulty line."""
    edges = []
    declared = None
    for lineno, line in lines:
        if line.startswith("#"):
            try:
                declared = _node_count_header(line, declared)
            except ValueError:
                raise InputContractError(f"{path}:{lineno}: bad node-count header: {line}")
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


def edge_list_text(g: Graph) -> str:
    """``# nodes=N`` header, then one ``u,v`` line per edge with u < v."""
    lines = [f"# nodes={g.node_count}"]
    lines.extend(f"{u},{v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path: str) -> None:
    _write(edge_list_text(g), path)


# --- memberships ---

def read_membership(path: str) -> dict:
    """A JSON object of node ids to cluster ids; each node id appears once."""
    text = _read_text(path)
    try:
        raw = json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise InputContractError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    if not isinstance(raw, dict):
        raise InputContractError(f"{path}: expected an object of node->cluster ids")
    memberships = {}
    for i, (k, v) in enumerate(raw.pairs):
        try:
            node, cluster = int(k), _json_as(int, v)
        except (TypeError, ValueError):
            problem = f"expected an integer node id and cluster id, got {k!r}: {v!r}"
        else:
            if node not in memberships:
                memberships[node] = cluster
                continue
            problem = f"node {node} appears twice (key {k!r})"
        # the decoder keeps no positions: report the line of this key, the
        # same-numbered occurrence of its text
        nth = sum(key == k for key, _ in raw.pairs[:i])
        hits = list(re.finditer(re.escape(json.dumps(k, ensure_ascii=False)) + r"\s*:", text))
        line = text.count("\n", 0, hits[nth].start()) + 1 if nth < len(hits) else "?"
        raise InputContractError(f"{path}:{line}: {problem}")
    return memberships


def membership_text(memberships: dict) -> str:
    """One JSON object of node-id strings to cluster ids, keys ascending."""
    ordered = {str(k): int(memberships[k]) for k in sorted(memberships)}
    return json.dumps(ordered) + "\n"


def write_membership(memberships: dict, path: str) -> None:
    _write(membership_text(memberships), path)


# --- embeddings and labels ---

def read_embedding_csv(path: str) -> np.ndarray:
    """Rows of comma-separated finite floats, all of one width."""
    rows, linenos = [], []
    width = None
    for lineno, line in _lines(_read_text(path)):
        try:
            vals = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise InputContractError(f"{path}:{lineno}: non-numeric cell: {line}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputContractError(
                f"{path}:{lineno}: ragged row of width {len(vals)} != {width}"
            )
        rows.append(vals)
        linenos.append(lineno)
    if not rows:
        raise InputContractError(f"{path}: empty embedding file")
    matrix = np.array(rows, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite))]
        raise InputContractError(f"{path}:{lineno}: non-finite value")
    return matrix


def embedding_text(matrix: np.ndarray) -> str:
    """One comma-separated line of 17-significant-digit floats per row."""
    matrix = np.asarray(matrix, dtype=np.float64)
    # one %-template per row formats each value as format_float does
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return "".join(row % tuple(values) for values in matrix.tolist())


def write_embedding_csv(matrix: np.ndarray, path: str) -> None:
    _write(embedding_text(matrix), path)


def read_labels_csv(path: str) -> np.ndarray:
    values = []
    for lineno, line in _lines(_read_text(path)):
        try:
            values.append(int(line))
        except ValueError:
            raise InputContractError(f"{path}:{lineno}: expected an integer label")
    if not values:
        raise InputContractError(f"{path}: empty label file")
    return np.array(values, dtype=np.int64)


def write_labels_csv(labels, path: str) -> None:
    _write("\n".join(str(int(x)) for x in labels) + "\n", path)


# --- graph corpora ---

def read_corpus_jsonl(path: str) -> GraphCorpus:
    """One JSON object per line: ``edges`` (required), ``features`` and
    ``label`` (optional).  Node count is 1 + max endpoint."""
    graphs, features, labels = [], [], []
    for lineno, line in _lines(_read_text(path)):
        try:
            obj = json.loads(line, object_pairs_hook=_JsonObject)
        except json.JSONDecodeError as exc:
            raise InputContractError(f"{path}:{lineno}: invalid JSON: {exc}")
        if not isinstance(obj, dict) or "edges" not in obj:
            raise InputContractError(f"{path}:{lineno}: missing 'edges'")
        edges = obj["edges"]
        if not isinstance(edges, list) or not edges:
            raise InputContractError(f"{path}:{lineno}: 'edges' must be a non-empty list")
        try:
            pairs = [(_json_as(int, u), _json_as(int, v)) for u, v in edges]
        except (TypeError, ValueError):
            raise InputContractError(f"{path}:{lineno}: malformed edge pair")
        n = 1 + max(max(u, v) for u, v in pairs)
        try:
            graphs.append(build_graph(n, pairs))
        except InputContractError as exc:  # a self-loop, a repeated pair, a negative endpoint
            raise type(exc)(f"{path}:{lineno}: {exc}") from None
        fmap = obj.get("features")
        if fmap is not None:
            try:
                pairs = [(int(k), _json_as(str, v)) for k, v in fmap.pairs]
            except (AttributeError, TypeError, ValueError):
                raise InputContractError(
                    f"{path}:{lineno}: 'features' must map integer node ids to strings"
                )
            fmap = dict(pairs)
            if len(fmap) < len(pairs):
                raise InputContractError(f"{path}:{lineno}: 'features' gives a node id twice")
        features.append(fmap)
        label = obj.get("label")
        if label is not None:
            try:
                label = _json_as(int, label)
            except TypeError:
                raise InputContractError(f"{path}:{lineno}: 'label' must be an integer")
        labels.append(label)
    if not graphs:
        raise EmptyCorpus(f"{path}: no corpus lines")
    if None in labels and any(label is not None for label in labels):
        raise InputContractError(f"{path}: labels must be present on every line or none")
    return GraphCorpus(
        graphs=graphs,
        features=features if any(fmap is not None for fmap in features) else None,
        labels=None if None in labels else labels,
    )
