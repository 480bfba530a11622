"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, then exposes a
fixed list of operations.  One pass runs them in order, one at a time, as a
single closed-loop client.  After a pass the worker checks each output and
digests it; after the timed phase it scores the outputs (``quality``).

* ``walk-embed``: DeepWalk and Walklets on a near-regular and a hub-heavy
  planted partition.  Skip-gram training is nearly all the work; the two
  graphs put the trainer's batch size near its cap and far below it.
* ``spectral-corpus``: SF, NetLSD and WL-SVD on a labelled corpus of three
  graph families, and NetMF at two ranks on a hub-heavy graph.  Dense
  eigensolves dominate; randomized SVD and subtree hashing also run.
* ``cli-pipeline``: one ``graphmine`` process per command over files.  The
  only workload with process start-up, file reads and writes, community
  fits and the evaluation commands.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
BLOCKS = 8
MEAN_DEGREE = 12.0
MIXING = 0.2
SPLIT_SEEDS = range(10)  # seeded train/test splits used to score embeddings
SPLIT_RATIO = 0.5  # half the rows are scored, which keeps the score steady from seed to seed
FEW_ROWS = 200  # embeddings with fewer rows are scored on every split, others on the first
SF_TOLERANCE = 1e-9  # absolute, on each eigenvalue
NETLSD_TOLERANCE = 1e-9  # relative, on each heat-trace value
NETLSD_TIMES = np.logspace(-2.0, 2.0, 250)
CLI_TIMEOUT_S = 120.0

SIZES = {
    "walk-embed": {
        "full": {"n": 1024, "walk_number": 1, "walk_length": 80},
        "smoke": {"n": 64, "walk_number": 1, "walk_length": 20},
    },
    "spectral-corpus": {
        "full": {"sizes": [16, 16, 24, 24, 32, 32, 40, 48, 64, 96, 128], "big": [192, 192, 192], "netmf_n": 4096},
        "smoke": {"sizes": [16, 24, 32, 40], "big": [48], "netmf_n": 256},
    },
    "cli-pipeline": {
        "full": {"n": 8192, "corpus_sizes": [16, 24, 32, 48, 64], "corpus_repeats": 4},
        "smoke": {"n": 256, "corpus_sizes": [16, 24], "corpus_repeats": 2},
    },
}


@dataclass
class Op:
    """One timed operation: ``run(tracer)`` returns the output that
    ``check`` and ``digest`` then inspect, untimed."""

    name: str
    run: Callable
    check: Callable
    digest: Callable
    labels: np.ndarray | None = None  # true classes of the rows, when the output is an embedding
    planted_blocks: bool = False  # the classes are a graph's planted blocks


def digest_array(x: np.ndarray) -> str:
    x = np.ascontiguousarray(x, dtype=np.float64)
    return hashlib.sha256(repr(x.shape).encode() + x.tobytes()).hexdigest()


def array_errors(x, shape: tuple) -> list:
    if not isinstance(x, np.ndarray) or x.shape != shape:
        return [f"shape {getattr(x, 'shape', type(x).__name__)} != {shape}"]
    if not np.all(np.isfinite(x)):
        return ["non-finite values"]
    return []


def classify(gm, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(one-vs-rest AUC, NMI of predicted classes) of graphmine's softmax
    classifier on fixed seeded splits of ``x`` with labels ``y``.

    Columns are standardized with the training rows' mean and deviation
    first, as spectral features differ in scale by orders of magnitude.
    A corpus has too few graphs for one split's test side to give a steady
    score, so small inputs are scored on every split and averaged.
    """
    scores = []
    for seed in SPLIT_SEEDS if len(y) < FEW_ROWS else SPLIT_SEEDS[:1]:
        split = gm.train_test_split(len(y), SPLIT_RATIO, seed=seed)
        train = x[split.train]
        mean, dev = train.mean(axis=0), train.std(axis=0)
        dev[dev == 0.0] = 1.0
        model = gm.softmax_fit((train - mean) / dev, y[split.train])
        proba = gm.softmax_predict(model, (x[split.test] - mean) / dev)
        truth = y[split.test]
        scores.append((gm.auc(truth, proba), gm.nmi(truth, proba.argmax(axis=1))))
    return tuple(np.mean(scores, axis=0))


def dense_laplacian_eigvals(n: int, edges: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    inv = 1.0 / np.sqrt(a.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(n) - inv[:, None] * a * inv[None, :])


class Workload:
    name = ""
    in_process = True

    def __init__(self, gm, seed: int, scale: str, workdir: str):
        self.gm = gm
        self.rng = np.random.default_rng(seed)
        self.size = SIZES[self.name][scale]
        self.workdir = workdir
        self.properties: dict = {}
        self.ops: list[Op] = []

    def graph(self, key: str, n: int, hub_heavy: bool):
        edges, labels = inputs.planted_partition(n, BLOCKS, MEAN_DEGREE, MIXING, hub_heavy, self.rng)
        self.properties[key] = inputs.graph_properties(n, edges)
        return self.gm.build_graph(n, edges.tolist()), labels

    def quality(self, outputs: dict) -> tuple[float, float]:
        """(mean AUC over every embedding, mean NMI over the node embeddings
        of planted-partition graphs)."""
        scored = [(op, classify(self.gm, outputs[op.name], op.labels)) for op in self.ops if op.labels is not None]
        auc = np.mean([score[0] for _, score in scored])
        nmi = np.mean([score[1] for op, score in scored if op.planted_blocks])
        return float(auc), float(nmi)


class WalkEmbed(Workload):
    name = "walk-embed"

    def __init__(self, gm, seed, scale, workdir):
        super().__init__(gm, seed, scale, workdir)
        s = self.size
        n, walks, length = s["n"], s["walk_number"], s["walk_length"]
        models = {
            "deepwalk": (lambda: gm.DeepWalkModel(dimensions=32, walk_number=walks, walk_length=length), 32),
            "walklets": (lambda: gm.WalkletsModel(walk_number=walks, walk_length=length), 128),
        }
        for kind, hub in (("near-regular", False), ("hub-heavy", True)):
            g, labels = self.graph(kind, n, hub)
            for algo, (make, width) in models.items():
                self.ops.append(Op(f"{algo}/{kind}", lambda tracer, make=make, g=g: make().fit(g).get_embedding(),
                                   lambda x, width=width: array_errors(x, (n, width)), digest_array, labels, True))
        dw, wk = models["deepwalk"][0](), models["walklets"][0]()
        self.properties["sgns_pairs_per_pass"] = 2 * (
            inputs.deepwalk_pairs(n, walks, length, dw.window_size, dw.epochs)
            + inputs.walklets_pairs(n, walks, length, wk.window_size, wk.epochs)
        )


class SpectralCorpus(Workload):
    name = "spectral-corpus"

    def __init__(self, gm, seed, scale, workdir):
        super().__init__(gm, seed, scale, workdir)
        s = self.size
        members = inputs.corpus(s["sizes"], self.rng)
        for i, n in enumerate(s["big"]):
            label = i % len(inputs.FAMILIES)
            members.append((n, inputs.family_graph(label, n, self.rng), label))
        self.members = members
        corpus = gm.GraphCorpus(
            graphs=[gm.build_graph(n, e.tolist()) for n, e, _ in members],
            labels=[label for _, _, label in members],
        )
        y = np.array(corpus.labels)
        self.spectra = [dense_laplacian_eigvals(n, e) for n, e, _ in members]
        self.properties["corpus"] = inputs.corpus_properties(members)
        g, labels = self.graph("netmf", s["netmf_n"], True)
        count = len(members)
        self.ops = [
            Op("sf", lambda t: gm.SfModel().fit(corpus).get_embedding(), self._check_sf, digest_array, y),
            Op("netlsd", lambda t: gm.NetLsdModel().fit(corpus).get_embedding(), self._check_netlsd, digest_array, y),
            Op("wl-svd", lambda t: gm.WlSvdModel().fit(corpus).get_embedding(),
               lambda x: array_errors(x, (count, 128)), digest_array, y),
        ]
        for d in (32, 128):
            self.ops.append(Op(f"netmf-{d}", lambda t, d=d: gm.NetMfModel(dimensions=d).fit(g).get_embedding(),
                               lambda x, d=d: array_errors(x, (g.node_count, d)), digest_array, labels, True))

    def _check_sf(self, x) -> list:
        errors = array_errors(x, (len(self.members), 32))
        for i, vals in enumerate(self.spectra if not errors else []):
            want = np.zeros(32)
            take = min(32, len(vals))
            want[:take] = vals[:take]
            dev = float(np.max(np.abs(x[i] - want)))
            if dev > SF_TOLERANCE:
                errors.append(f"sf row {i} off eigvalsh by {dev:.3e}")
        return errors

    def _check_netlsd(self, x) -> list:
        errors = array_errors(x, (len(self.members), len(NETLSD_TIMES)))
        for i, vals in enumerate(self.spectra if not errors else []):
            want = np.exp(-np.outer(NETLSD_TIMES, vals)).sum(axis=1)
            dev = float(np.max(np.abs(x[i] - want) / want))
            if dev > NETLSD_TOLERANCE:
                errors.append(f"netlsd row {i} off eigvalsh by {dev:.3e} (relative)")
        return errors


@dataclass
class CliResult:
    returncode: int
    stderr: str
    out: str


class CliPipeline(Workload):
    name = "cli-pipeline"
    in_process = False

    def __init__(self, gm, seed, scale, workdir):
        super().__init__(gm, seed, scale, workdir)
        s = self.size
        n = s["n"]
        os.makedirs(workdir, exist_ok=True)
        path = lambda name: os.path.join(workdir, name)
        g, labels = self.graph("graph", n, True)
        gm.write_edge_list(g, path("graph.csv"))
        gm.write_membership({v: int(labels[v]) for v in range(n)}, path("truth.json"))
        gm.write_labels_csv(labels, path("labels.csv"))
        members = inputs.corpus(s["corpus_sizes"] * s["corpus_repeats"], self.rng)
        with open(path("corpus.jsonl"), "w", encoding="utf-8") as fh:
            for _, edges, label in members:
                fh.write(json.dumps({"edges": edges.tolist(), "label": label}) + "\n")
        self.properties["corpus"] = inputs.corpus_properties(members)
        self.properties["files_bytes"] = {
            name: os.path.getsize(path(name)) for name in ("graph.csv", "truth.json", "labels.csv", "corpus.jsonl")
        }
        m = int(n * MEAN_DEGREE / 2)
        self.ops = [self._cmd("generate", ["generate", "--nodes", n, "--edges", m, "--seed", seed, "--connected"],
                              [], "gen.csv", lambda p: self._graph_errors(p, n, m))]
        algos = ("label-propagation", "scd", "symnmf")
        # SCD's default stops at the first round that moves no node, which
        # comes at a seed-dependent round and made its time vary twofold
        # across seeds; two rounds are run on every seed.
        extra = {"scd": ["--refinement-rounds", "2"]}
        for algo in algos:
            self.ops.append(self._cmd(f"cluster/{algo}", ["cluster", "--algo", algo, "--graph", path("graph.csv"),
                                                          *extra.get(algo, [])],
                                      [path("graph.csv")], f"{algo}.json", lambda p: self._membership_errors(p, n)))
        for algo in algos:
            self.ops.append(self._cmd(f"eval-nmi/{algo}", ["eval", "nmi", "--a", path(f"{algo}.json"), "--b",
                                                           path("truth.json")], [path(f"{algo}.json"), path("truth.json")],
                                      f"nmi-{algo}.txt", lambda p: self._value_errors(p, 0.0, 1.0)))
        for algo in algos:
            self.ops.append(self._cmd(f"eval-modularity/{algo}", ["eval", "modularity", "--graph", path("graph.csv"),
                                                                  "--membership", path(f"{algo}.json")],
                                      [path("graph.csv"), path(f"{algo}.json")], f"modularity-{algo}.txt",
                                      lambda p: self._value_errors(p, -0.5, 1.0)))
        self.ops += [
            self._cmd("embed-nodes/netmf", ["embed-nodes", "--algo", "netmf", "--graph", path("graph.csv")],
                      [path("graph.csv")], "netmf.csv", lambda p: self._csv_errors(p, (n, 32))),
            self._cmd("eval-classify", ["eval", "classify", "--embedding", path("netmf.csv"), "--labels",
                                        path("labels.csv")], [path("netmf.csv"), path("labels.csv")],
                      "classify.txt", lambda p: self._value_errors(p, 0.0, 1.0)),
            self._cmd("embed-graphs/wl-svd", ["embed-graphs", "--algo", "wl-svd", "--corpus", path("corpus.jsonl")],
                      [path("corpus.jsonl")], "wl-svd.csv", lambda p: self._csv_errors(p, (len(members), 128))),
        ]

    def _cmd(self, name, args, reads, out_name, check_file) -> Op:
        out = os.path.join(self.workdir, out_name)
        argv = [str(a) for a in args] + ["--out", out]

        def run(tracer) -> CliResult:
            return run_cli(argv, reads, out, tracer)

        def check(res: CliResult) -> list:
            if res.returncode != 0:
                return [f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"]
            if "Traceback" in res.stderr:
                return ["traceback on stderr"]
            return check_file(res.out)

        return Op(name, run, check, lambda res: file_digest(res.out))

    def _graph_errors(self, path: str, n: int, m: int) -> list:
        g = self.gm.read_edge_list(path)
        if (g.node_count, g.edge_count) != (n, m):
            return [f"graph has (n, m) = {(g.node_count, g.edge_count)}, expected {(n, m)}"]
        return []

    @staticmethod
    def _membership_errors(path: str, n: int) -> list:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if sorted(int(k) for k in raw) != list(range(n)):
            return ["membership does not cover 0..n-1"]
        if not all(isinstance(v, int) and v >= 0 for v in raw.values()):
            return ["membership ids must be nonnegative integers"]
        return []

    @staticmethod
    def _value_errors(path: str, lo: float, hi: float) -> list:
        value = read_value(path)
        if not (math.isfinite(value) and lo <= value <= hi):
            return [f"value {value} outside [{lo}, {hi}]"]
        return []

    @staticmethod
    def _csv_errors(path: str, shape: tuple) -> list:
        return array_errors(np.loadtxt(path, delimiter=",", ndmin=2), shape)

    def quality(self, outputs: dict) -> tuple[float, float]:
        auc = read_value(outputs["eval-classify"].out)
        nmis = [read_value(res.out) for name, res in outputs.items() if name.startswith("eval-nmi/")]
        return auc, float(np.mean(nmis))


def read_value(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        return float(fh.read())


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv: list, reads: list, out: str, tracer) -> CliResult:
    """Run one graphmine command in a fresh interpreter and wait for it.

    Untraced, this is ``python -m graphmine.cli``.  Traced, the command
    goes through ``cli_boot.py``, whose spans join ``tracer`` under the
    current operation; process time and file sizes go into its counts.
    """
    trace_file = out + ".trace.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "graphmine.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), trace_file, *argv]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    process_s = perf_counter() - start
    res = CliResult(proc.returncode, proc.stderr, out)
    if tracer is not None and proc.returncode == 0:
        with open(trace_file, encoding="utf-8") as fh:
            boot = json.load(fh)
        os.remove(trace_file)
        tracer.adopt(boot["spans"], boot["counts"])
        c = tracer.counts
        c["cli.process_s"] += process_s
        c["cli.import_s"] += boot["import_s"]
        c["io.bytes_in"] += sum(os.path.getsize(p) for p in reads)
        c["io.bytes_out"] += os.path.getsize(out) + len(proc.stdout.encode())
    return res


WORKLOADS = {w.name: w for w in (WalkEmbed, SpectralCorpus, CliPipeline)}
