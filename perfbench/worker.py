"""One benchmark process for one workload; started by ``run.py``.

``--mode setup`` only sets up: it imports graphmine from the checkout's
``src/``, builds the workload's inputs from the seed and fits every
estimator kind once on a tiny graph, so first-call costs stay out of the
timed operations.  It prints the set-up time and a speed reading
(``speed.py``) taken right after it.

``--mode run`` sets up the same way, then:

* ``--trace 0``: runs passes over the workload's operations, with a speed
  reading before each operation and after the last, until the next pass
  would end more than half a pass after ``--seconds``; checks and digests
  every output after each pass, and scores the first pass's outputs
  (AUC, NMI);
* ``--trace 1``: runs one untraced and one traced pass and reports the
  per-layer metrics, the tracing overhead and whether the digests agree.

The last line of standard output is one JSON object for ``run.py``.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MAX_REPORTED_FAILURES = 20


def warm_up(gm, inputs, np) -> None:
    """One tiny fit of each of the nine estimator kinds."""
    rng = np.random.default_rng(0)
    g = gm.build_graph(32, inputs.planted_partition(32, 2, 6.0, 0.1, False, rng)[0].tolist())
    corpus = gm.GraphCorpus(
        [gm.build_graph(n, inputs.family_graph(label, n, rng).tolist()) for label, n in enumerate((12, 16, 20))]
    )
    for model in (
        gm.LabelPropagationModel(),
        gm.ScdModel(),
        gm.SymNmfModel(dimensions=2),
        gm.DeepWalkModel(walk_number=1, walk_length=8, dimensions=8),
        gm.WalkletsModel(walk_number=1, walk_length=8, dimensions=4),
        gm.NetMfModel(dimensions=4),
    ):
        model.fit(g)
    for model in (gm.SfModel(dimensions=4), gm.NetLsdModel(), gm.WlSvdModel(dimensions=2)):
        model.fit(corpus)


def run_pass(workload, tracer) -> tuple:
    """Run every operation once, in order, with a speed reading before the
    first and after each one; returns (pass record, {op: output},
    {op: errors}).  The record holds the pass's wall time, each operation's
    seconds and the speed readings."""
    seconds, outputs, errors = {}, {}, {}
    readings = [speed.reading()]
    for i, op in enumerate(workload.ops):
        t = perf_counter()
        try:
            if tracer is None:
                outputs[op.name] = op.run(None)
            else:
                with tracer.span("bench.op", i):
                    outputs[op.name] = op.run(tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs[op.name] = None
            errors[op.name] = [f"{type(exc).__name__}: {exc}"]
        seconds[op.name] = perf_counter() - t
        readings.append(speed.reading())
    record = {"wall_s": sum(seconds.values()), "op_s": seconds, "speed_s": readings}
    return record, outputs, errors


def check_pass(workload, outputs: dict, errors: dict, reference: dict, label: str) -> tuple:
    """Check and digest each output; a digest that differs from
    ``reference`` is a failure.  Returns ({op: digest}, [one message per
    failed operation])."""
    digests, failures = {}, []
    for op in workload.ops:
        problems = errors.get(op.name)
        if not problems:
            try:
                problems = op.check(outputs[op.name])
                if not problems:
                    digests[op.name] = op.digest(outputs[op.name])
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        want = reference.get(op.name)
        if not problems and want is not None and want != digests[op.name]:
            problems = [f"output digest differs from the {label}"]
        if problems:
            failures.append(f"{op.name}: " + "; ".join(problems[:3]))
    return digests, failures


class DigestStore:
    """Per-operation digests of earlier runs of the same code version with
    the same seed; outputs must repeat exactly across them."""

    def __init__(self, workload: str, scale: str, seed: int, version: str):
        self.path = os.path.join(OUT_DIR, "digests", f"{workload}-{scale}-{seed}.json")
        self.version = version
        self.digests = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                saved = json.load(fh)
            if saved.get("code_version") == version:
                self.digests = saved["digests"]

    def save(self, digests: dict) -> None:
        if self.digests:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"code_version": self.version, "digests": digests}, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    start = perf_counter()
    import graphmine as gm

    import_s = perf_counter() - start
    if not os.path.abspath(gm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"graphmine was imported from {gm.__file__}, not from {SRC}")
    import numpy as np
    import scipy

    import inputs
    from machine import code_version
    from workloads import WORKLOADS

    workdir = os.path.join(OUT_DIR, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOADS[args.workload](gm, args.seed, args.scale, workdir)
        warm_up(gm, inputs, np)
        result = {"setup_s": perf_counter() - PROCESS_START, "setup_speed_s": speed.reading(9), "import_s": import_s}
        if args.mode == "run":
            result.update(measure(workload, args, code_version(ROOT)))
            result["versions"] = {
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": blas_vendor(np),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, args, version: str) -> dict:
    store = DigestStore(workload.name, args.scale, args.seed, version)
    reference = dict(store.digests)
    failures, passes, attempted = [], [], 0
    if args.trace:
        from layers import per_layer_metrics
        from tracing import Tracer

        untraced, outputs, errors = run_pass(workload, None)
        digests, failed = check_pass(workload, outputs, errors, reference, "earlier runs")
        tracer = Tracer()
        tracer.install()
        try:
            traced, outputs, errors = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
        overhead_s = sum(speed.pass_times(traced).values()) - sum(speed.pass_times(untraced).values())
        _, traced_failed = check_pass(workload, outputs, errors, digests, "untraced pass")
        failures = failed + traced_failed
        attempted = 2 * len(workload.ops)
        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.scale}-{args.seed}.jsonl")
        with open(trace_path, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")
        out = {
            "per_layer": per_layer_metrics(tracer.spans, tracer.counts, overhead_s),
            "passes": [untraced, {**traced, "traced": True}],
            "spans": len(tracer.spans),
            "trace_file": os.path.relpath(trace_path, ROOT),
        }
    else:
        first_outputs = None
        start = perf_counter()
        while True:
            record, outputs, errors = run_pass(workload, None)
            digests, failed = check_pass(workload, outputs, errors, reference, "earlier runs" if store.digests else "first pass")
            reference = reference or digests
            failures += failed
            attempted += len(workload.ops)
            passes.append(record)
            if first_outputs is None:
                first_outputs = outputs
                if not failed:
                    store.save(digests)
            # Stop once the next pass would end more than half a pass after
            # --seconds, so the measured span is --seconds give or take half a pass.
            if perf_counter() - start + 0.5 * statistics.fmean(p["wall_s"] for p in passes) > args.seconds:
                break
        attempted += 1  # scoring the outputs is one more operation
        try:
            auc, nmi = workload.quality(first_outputs)
        except Exception as exc:  # scoring failed outputs is itself a failure
            failures.append(f"quality: {type(exc).__name__}: {exc}")
            auc = nmi = 0.0
        out = {"passes": passes, "auc": auc, "nmi": nmi}
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    out.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:MAX_REPORTED_FAILURES],
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        properties=workload.properties,
    )
    return out


def blas_vendor(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
