"""Span and count tracing of graphmine from outside the package.

:meth:`Tracer.install` wraps, in every graphmine module namespace where a
caller looks them up:

* each public function of a module (its ``__all__``), as a span;
* each class's ``fit`` method, as a span; a public ``*_fit`` helper that a
  ``fit`` method calls is left to count as part of that ``fit``;
* ``RandomSource.generator`` as a span, and the hot, tiny
  ``Graph.neighbors`` and ``io.format_float`` as counts only.

A span is ``(name, start, end, parent, op)``; names are
``<module>.<qualname>`` such as ``linalg.eigvals_symmetric``.  Spans stay in
memory until :meth:`Tracer.uninstall`, which restores every original.
Some spans also add computed counts (``MEASURES``) derived from their
arguments or results, such as the n**3 of an eigensolve.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from inputs import walklets_pairs, window_pairs

LAYERS = (
    "graph_core",
    "linalg",
    "node_embedding",
    "community",
    "graph_embedding",
    "evaluation",
    "io",
    "cli",
)
SPAN_METHODS = [("graph_core", "RandomSource", "generator")]
COUNT_METHODS = [("graph_core", "Graph", "neighbors")]
COUNT_FUNCTIONS = {"io.format_float"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sgns_pairs(counts, args, kwargs, result):
    corpus, params = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "params")
    rows, length = corpus.walks.shape
    counts["node_embedding.pairs"] += rows * window_pairs(length, params.window_size) * params.epochs


def _walklets_pairs(counts, args, kwargs, result):
    model, g = args[0], _arg(args, kwargs, 1, "g")
    counts["node_embedding.pairs"] += walklets_pairs(
        g.node_count, model.walk_number, model.walk_length, model.window_size, model.epochs
    )


def _walk_steps(counts, args, kwargs, result):
    rows, length = result.walks.shape
    counts["node_embedding.walk_steps"] += rows * (length - 1)


def _n3(counts, args, kwargs, result):
    counts["linalg.eigvals_symmetric.n3"] += len(_arg(args, kwargs, 0, "a")) ** 3


def _nnz(counts, args, kwargs, result):
    counts["linalg.randomized_svd.nnz"] += int(_arg(args, kwargs, 0, "a").nnz)


def _wl_labels(counts, args, kwargs, result):
    g, iterations = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 2, "iterations")
    counts["graph_embedding.wl_features.labels"] += g.node_count * (iterations + 1)


def _symnmf_iterations(counts, args, kwargs, result):
    counts["community.SymNmfModel.iterations"] += len(args[0].loss_history_) - 1


def _softmax_steps(counts, args, kwargs, result):
    counts["evaluation.softmax_fit.accepted"] += len(result.loss_history_) - 1
    counts["evaluation.softmax_fit.epochs"] += result.epochs


MEASURES = {
    "node_embedding.sgns_train": _sgns_pairs,
    "node_embedding.WalkletsModel.fit": _walklets_pairs,
    "node_embedding.generate_walks": _walk_steps,
    "linalg.eigvals_symmetric": _n3,
    "linalg.randomized_svd": _nnz,
    "graph_embedding.wl_features": _wl_labels,
    "community.SymNmfModel.fit": _symnmf_iterations,
    "evaluation.softmax_fit": _softmax_steps,
}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    # --- recording ---

    @contextmanager
    def span(self, name: str, op: int):
        """A span opened by the benchmark itself around operation ``op``."""
        self.op = op
        sid = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, perf_counter())

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.op)

    def _span_wrapper(self, name: str, fn):
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, perf_counter())
            if measure is not None:
                measure(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # --- installing ---

    def install(self) -> None:
        """Wrap graphmine's public functions and fit methods in place."""
        modules = {layer: importlib.import_module(f"graphmine.{layer}") for layer in LAYERS}
        namespaces = [sys.modules["graphmine"], *modules.values()]
        for layer, mod in modules.items():
            fit_owner = {
                cls.__dict__["fit"]: cls
                for cls in vars(mod).values()
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ and "fit" in cls.__dict__
            }
            fits = list(fit_owner)
            delegated = {n for fit in fits for n in fit.__code__.co_names if n.endswith("_fit")}
            for fname in getattr(mod, "__all__", []):
                fn = getattr(mod, fname)
                if not isinstance(fn, types.FunctionType) or fname in delegated:
                    continue
                name = f"{layer}.{fname}"
                wrap = self._count_wrapper if name in COUNT_FUNCTIONS else self._span_wrapper
                wrapped = wrap(name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapped)
            for fit in fits:
                self._patch(fit_owner[fit], "fit", self._span_wrapper(f"{layer}.{fit.__qualname__}", fit))
        methods = [(m, self._span_wrapper) for m in SPAN_METHODS] + [(m, self._count_wrapper) for m in COUNT_METHODS]
        for (layer, owner, attr), wrap in methods:
            cls = getattr(modules[layer], owner)
            self._patch(cls, attr, wrap(f"{layer}.{owner}.{attr}", cls.__dict__[attr]))

    def _patch(self, ns, attr: str, value) -> None:
        self._patches.append((ns, attr, ns.__dict__[attr]))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def adopt(self, spans: list, counts: dict) -> None:
        """Merge spans and counts traced in a child process under the
        currently open span.  ``perf_counter`` is the system-wide monotonic
        clock here, so child timestamps line up with this process's."""
        base = len(self.spans)
        root = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else root, self.op))
        for key, value in counts.items():
            self.counts[key] += value
