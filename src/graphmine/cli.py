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


def _model(task: str, args):
    """Build the estimator for ``args.algo`` from the flags named by its
    constructor's parameters.  Hyperparameter flags the user did not pass
    are absent from ``args``, so the estimator's own defaults apply."""
    cls = _MODELS[task][args.algo]
    given = vars(args)
    return cls(**{
        name: given[name] for name in inspect.signature(cls).parameters if name in given
    })


def _defaults(task: str) -> str:
    """Help epilog listing each algorithm's defaults, read from its estimator."""
    parts = []
    for algo, cls in _MODELS[task].items():
        params = inspect.signature(cls).parameters.values()
        parts.append(f"{algo}: " + (", ".join(f"{p.name}={p.default}" for p in params) or "none"))
    return "defaults: " + "; ".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- command implementations ---

def cmd_generate(args) -> int:
    g = erdos_renyi_gnm(
        args.nodes, args.edges, RandomSource(args.seed, 0), connected=args.connected
    )
    _emit(formats.edge_list_text(g), args.out)
    return 0


def cmd_cluster(args) -> int:
    g = formats.read_edge_list(args.graph)
    model = _model("cluster", args).fit(g)
    _emit(formats.membership_text(model.get_memberships()), args.out)
    return 0


def cmd_embed_nodes(args) -> int:
    g = formats.read_edge_list(args.graph)
    model = _model("embed-nodes", args).fit(g)
    _emit(formats.embedding_text(model.get_embedding()), args.out)
    return 0


def cmd_embed_graphs(args) -> int:
    corpus = formats.read_corpus_jsonl(args.corpus)
    model = _model("embed-graphs", args).fit(corpus)
    _emit(formats.embedding_text(model.get_embedding()), args.out)
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
    config = 0
    for degree in degrees:
        for n in sizes:
            if (n * degree) % 2 != 0:
                raise InputContractError(
                    f"n*degree must be even, got n={n} degree={degree}"
                )
            m = n * degree // 2
            g = erdos_renyi_gnm(
                n, m, RandomSource(args.seed, config), connected=True
            )
            config += 1
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

    p = sub.add_parser("generate", help="write a uniform random graph edge list")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--connected", action="store_true",
                   help="retry until the sample is connected (up to 100 draws)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    # hyperparameter flags carry the estimator parameter's name and no
    # default of their own: a flag left out stays out of the namespace
    def model_parser(task: str, summary: str):
        p = sub.add_parser(task, help=summary, epilog=_defaults(task),
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--algo", required=True, choices=list(_MODELS[task]))
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int)
        return p

    p = model_parser("cluster", "detect communities, write membership JSON")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--max-iterations", type=int, help="label-propagation round cap")
    p.add_argument("--refinement-rounds", type=int, help="scd hill-climbing passes")
    p.add_argument("--dimensions", type=int, help="symnmf factor count")
    p.add_argument("--iterations", type=int, help="symnmf update cap")
    p.add_argument("--tolerance", type=float, help="symnmf relative loss-change stop")
    p.set_defaults(func=cmd_cluster)

    p = model_parser("embed-nodes", "embed nodes, write embedding CSV")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--dimensions", type=int, help="embedding width (walklets: per scale)")
    p.add_argument("--walk-number", type=int)
    p.add_argument("--walk-length", type=int)
    p.add_argument("--window-size", type=int, help="deepwalk window / walklets scales")
    p.add_argument("--negative-samples", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--order", type=int, help="netmf proximity order")
    p.add_argument("--negatives", type=int, help="netmf negative factor")
    p.set_defaults(func=cmd_embed_nodes)

    p = model_parser("embed-graphs", "embed a graph corpus, write CSV")
    p.add_argument("--corpus", required=True, help="JSONL corpus file")
    p.add_argument("--dimensions", type=int, help="sf and wl-svd width (netlsd is fixed at 250)")
    p.add_argument("--wl-iterations", type=int)
    p.set_defaults(func=cmd_embed_graphs)

    p = sub.add_parser("eval", help="compute a metric, print it as a decimal")
    esub = p.add_subparsers(dest="metric", required=True)

    e = esub.add_parser("nmi", help="agreement of two membership files")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("modularity", help="partition quality on a graph")
    e.add_argument("--graph", required=True)
    e.add_argument("--membership", required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("classify",
                        help="split/softmax/AUC pipeline on an embedding")
    e.add_argument("--embedding", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--ratio", type=float, default=0.8)
    e.add_argument("--seed", type=int, default=42)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="wall-clock fits on connected G(n, degree*n/2)")
    p.add_argument("--task", required=True, choices=["cluster", "embed-nodes"])
    p.add_argument("--algo", required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated ascending node counts")
    p.add_argument("--degree", default="10",
                   help="comma-separated mean degrees (default 10; "
                   "try 5,10,20,40 for a densification sweep)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphMineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        # MemoryError: an input declaring more nodes than can be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
