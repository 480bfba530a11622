"""graphmine benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; graphmine is imported from its ``src/``.
Every benchmark process has its BLAS and OpenMP pools pinned to ``THREADS``.

With ``--trace 0`` the set-up runs ``SETUP_RUNS`` times in fresh processes
(``setup_s`` is their median) and the last one goes on to the timed passes;
the end-to-end metrics follow.  Their times are seconds at a reference
machine speed: each is scaled by the speed readings (``speed.py``) taken
around it, so that the drift of a shared machine's speed over tens of
seconds does not show as a change in graphmine.  With ``--trace 1`` one
process runs an untraced and a traced pass and the per-layer metrics
follow.  The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a report with the machine
facts, the input properties and every timing.  ``--smoke`` runs each
workload at tiny sizes, traced and untraced, and checks that every metric
named in ``BENCHMARK.json`` is printed with its unit.

METRICS.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREADS = 1  # fixed, and no larger than any machine's core count
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 3
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("walk-embed", "spectral-corpus", "cli-pipeline")

sys.path.insert(0, HERE)
from machine import facts  # noqa: E402
from speed import REFERENCE_S, at_reference_speed, pass_times  # noqa: E402


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run ``worker.py`` to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=ROOT,
                              env=pinned_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list) -> dict:
    """Every time is taken at reference speed: each operation by the
    readings just before and after it, each set-up by its own.  ``wall_s``
    and ``op_p50_s`` use each operation's median over the passes of the
    run; ``op_max_s`` is the slowest single operation of the run."""
    passes = [pass_times(p) for p in res["passes"]]
    times = {op: [p[op] for p in passes] for op in passes[0]}
    medians = [statistics.median(samples) for samples in times.values()]
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "setup_s": (statistics.median(at_reference_speed(setup_s, (speed_s,)) for setup_s, speed_s in setups), "s"),
        "wall_s": (sum(medians), "s"),
        "op_p50_s": (statistics.median(medians), "s"),
        "op_max_s": (max(max(samples) for samples in times.values()), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "auc": (res["auc"], "1"),
        "nmi": (res["nmi"], "1"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str) -> tuple[dict, dict]:
    """Returns (report, result line)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--scale", scale]
    if trace:
        res = run_worker(common + ["--mode", "run", "--trace", "1"], deadline)
        metrics = res.pop("per_layer")
        setups = [(res.pop("setup_s"), res.pop("setup_speed_s"))]
    else:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            res = run_worker(common + ["--mode", "setup"], deadline)
            setups.append((res["setup_s"], res["setup_speed_s"]))
        res = run_worker(common + ["--mode", "run", "--trace", "0"], deadline)
        setups.append((res.pop("setup_s"), res.pop("setup_speed_s")))
        metrics = end_to_end(res, setups)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "scale": scale,
        "closed_loop_clients": 1,
        "machine": facts(ROOT, THREADS, res.pop("versions")),
        "setup_samples": [{"setup_s": t, "speed_s": v} for t, v in setups],
        "reference_speed_s": REFERENCE_S,
        **res,
    }
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    return report, line


def smoke() -> int:
    """Each workload once at tiny sizes, untraced and traced; every metric
    of BENCHMARK.json must appear with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, line = measure(workload, 1, 1.0, trace, "smoke")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"wrong units {sorted(k for k in want if k in got and got[k] != want[k])}")
            if not line["correct"]:
                problems.append(f"{line['failed']} of {line['attempted']} operations failed")
            ok = ok and not problems
            print(f"smoke {workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "graphmine", "__init__.py")):
        print(f"error: no graphmine sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        report, line = measure(args.workload, args.seed, args.seconds, args.trace, "full")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
