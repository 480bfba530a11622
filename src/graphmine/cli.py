"""Command-line pipelines over the library's estimators and file formats.

Commands: ``generate``, ``cluster``, ``embed-nodes``, ``embed-graphs``,
``eval nmi|modularity|classify``, ``bench``.  Results go to ``--out`` when
given, otherwise to stdout; diagnostics go to stderr.  Exit codes: 0 on
success, 2 for input or parameter errors, 3 when a graph violates an
algorithm's structural contract (e.g. disconnected input).

Every command is deterministic for fixed flags: outputs are byte-identical
across reruns, except for the measured wall-clock column of ``bench``.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import sys
import time

from . import io as formats
from .community import (
    LabelPropagationModel,
    ScdModel,
    SymNmfModel,
    modularity,
)
from .errors import (
    DimensionMismatch,
    GraphContractError,
    GraphMineError,
    InputContractError,
    LengthMismatch,
)
from .evaluation import (
    auc,
    nmi,
    softmax_fit,
    softmax_predict,
    train_test_split,
)
from .graph_core import RandomSource, erdos_renyi_gnm
from .graph_embedding import NetLsdModel, SfModel, WlSvdModel
from .node_embedding import DeepWalkModel, NetMfModel, WalkletsModel

__all__ = ["main"]

# algorithm name -> estimator class, per command (``bench`` reads the first two)
_MODELS = {
    "cluster": {
        "label-propagation": LabelPropagationModel,
        "scd": ScdModel,
        "symnmf": SymNmfModel,
    },
    "embed-nodes": {
        "deepwalk": DeepWalkModel,
        "walklets": WalkletsModel,
        "netmf": NetMfModel,
    },
    "embed-graphs": {"sf": SfModel, "netlsd": NetLsdModel, "wl-svd": WlSvdModel},
}


# model command -> (summary, input flag, its help, io reader, fitted model -> output text);
# the reader is looked up in io per call, so that a wrapper installed there sees the call
_TASKS = {
    "cluster": ("detect communities, write membership JSON", "--graph", "edge-list file",
                "read_edge_list", lambda m: formats.membership_text(m.get_memberships())),
    "embed-nodes": ("embed nodes, write embedding CSV", "--graph", "edge-list file",
                    "read_edge_list", lambda m: formats.embedding_text(m.get_embedding())),
    "embed-graphs": ("embed a graph corpus, write CSV", "--corpus", "JSONL corpus file",
                     "read_corpus_jsonl", lambda m: formats.embedding_text(m.get_embedding())),
}


def _model(task: str, args):
    """Build the estimator for ``args.algo`` from the flags named by its
    constructor's parameters.  Hyperparameter flags the user did not pass
    are absent from ``args``, so the estimator's own defaults apply."""
    cls = _MODELS[task][args.algo]
    given = vars(args)
    return cls(**{
        name: given[name] for name in inspect.signature(cls).parameters if name in given
    })


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        formats._write(text, out)


# --- command implementations ---

def cmd_generate(args) -> int:
    g = erdos_renyi_gnm(
        args.nodes, args.edges, RandomSource(args.seed, 0), connected=args.connected
    )
    _emit(formats.edge_list_text(g), args.out)
    return 0


def cmd_model(args) -> int:
    _, source, _, read, encode = _TASKS[args.command]
    data = getattr(formats, read)(getattr(args, source.removeprefix("--")))
    _emit(encode(_model(args.command, args).fit(data)), args.out)
    return 0


def cmd_eval(args) -> int:
    if args.metric == "nmi":
        a = formats.read_membership(args.a)
        b = formats.read_membership(args.b)
        if set(a) != set(b):
            raise LengthMismatch("membership files cover different node sets")
        keys = sorted(a)
        value = nmi([a[k] for k in keys], [b[k] for k in keys])
    elif args.metric == "modularity":
        g = formats.read_edge_list(args.graph)
        mm = formats.read_membership(args.membership)
        value = modularity(g, mm)
    else:  # classify
        x = formats.read_embedding_csv(args.embedding)
        y = formats.read_labels_csv(args.labels)
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"{x.shape[0]} embedding rows vs {y.shape[0]} labels"
            )
        split = train_test_split(x.shape[0], ratio=args.ratio, seed=args.seed)
        clf = softmax_fit(x[split.train], y[split.train])
        value = auc(y[split.test], softmax_predict(clf, x[split.test]))
    _emit(formats.format_float(value) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes, "sizes")
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise InputContractError("sizes must be strictly ascending")
    degrees = _parse_int_list(args.degree, "degree")
    if args.repeats < 1:
        raise InputContractError("repeats must be >= 1")
    if args.algo not in _MODELS[args.task]:
        raise InputContractError(
            f"algo {args.algo!r} not valid for task {args.task!r}"
        )
    rows = ["algo,n,m,repeat,seconds"]
    for config, (degree, n) in enumerate(itertools.product(degrees, sizes)):
        if (n * degree) % 2 != 0:
            raise InputContractError(
                f"n*degree must be even, got n={n} degree={degree}"
            )
        m = n * degree // 2
        g = erdos_renyi_gnm(
            n, m, RandomSource(args.seed, config), connected=True
        )
        times = []
        for rep in range(args.repeats):
            model = _model(args.task, args)
            start = time.perf_counter()
            model.fit(g)
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            rows.append(
                f"{args.algo},{n},{m},{rep},{formats.format_float(elapsed)}"
            )
        mean = sum(times) / len(times)
        rows.append(f"{args.algo},{n},{m},mean,{formats.format_float(mean)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _parse_int_list(text: str, name: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputContractError(f"--{name} must be a comma-separated integer list")
    if not values or any(v < 1 for v in values):
        raise InputContractError(f"--{name} entries must be positive integers")
    return values


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmine",
        description="Graph clustering, node and whole-graph embedding, "
        "evaluation, and benchmarking with reproducible seeds.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="reserved; not applied yet (the BLAS thread pool follows its "
        "own environment, e.g. OPENBLAS_NUM_THREADS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    p = sub.add_parser("generate", parents=[out],
                       help="write a uniform random graph edge list")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--connected", action="store_true",
                   help="retry until the sample is connected (up to 100 draws)")
    p.set_defaults(func=cmd_generate)

    # one flag per constructor parameter of the task's estimators, typed by
    # its default and with no default of its own: a flag left out stays out
    # of the namespace, so the estimator's default applies
    for task, (summary, source, source_help, _, _) in _TASKS.items():
        p = sub.add_parser(task, parents=[out], help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--algo", required=True, choices=list(_MODELS[task]))
        p.add_argument(source, required=True, help=source_help)
        takers: dict = {}  # parameter -> the algorithms that take it, with their defaults
        for algo, cls in _MODELS[task].items():
            for param in inspect.signature(cls).parameters.values():
                takers.setdefault(param.name, []).append((algo, param.default))
        for name, uses in takers.items():
            p.add_argument("--" + name.replace("_", "-"), type=type(uses[0][1]),
                           help=", ".join(f"{algo}: {default}" for algo, default in uses))
        p.set_defaults(func=cmd_model)

    p = sub.add_parser("eval", help="compute a metric, print it as a decimal")
    p.set_defaults(func=cmd_eval)
    esub = p.add_subparsers(dest="metric", required=True)

    e = esub.add_parser("nmi", parents=[out], help="agreement of two membership files")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)

    e = esub.add_parser("modularity", parents=[out], help="partition quality on a graph")
    e.add_argument("--graph", required=True)
    e.add_argument("--membership", required=True)

    e = esub.add_parser("classify", parents=[out],
                        help="split/softmax/AUC pipeline on an embedding")
    e.add_argument("--embedding", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--ratio", type=float, default=0.8)
    e.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("bench", parents=[out],
                       help="wall-clock fits on connected G(n, degree*n/2)")
    p.add_argument("--task", required=True, choices=["cluster", "embed-nodes"])
    p.add_argument("--algo", required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated ascending node counts")
    p.add_argument("--degree", default="10",
                   help="comma-separated mean degrees (default 10; "
                   "try 5,10,20,40 for a densification sweep)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=42,
                   help="seeds the graphs and, if the estimator takes a seed, each fit; "
                   "every other hyperparameter keeps its default")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GraphContractError) else 2
    except (OSError, MemoryError) as exc:
        # MemoryError: an input declaring more nodes than can be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
