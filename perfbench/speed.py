"""A fixed probe of how fast the machine runs right now.

On a shared machine the speed of one core drifts by 20-30% over tens of
seconds, far more than the changes a benchmark should resolve.  The probe
is a fixed numpy kernel of the kind graphmine spends its time in: many
small-array calls with gathers and scatters, as in Jacobi rotations and
skip-gram batches.  The worker takes a reading before each operation and
after the last, and each operation's time is scaled by ``REFERENCE_S``
over the mean of the readings around it: graphmine's cost in seconds at a
fixed machine speed.  The probe is benchmark code, so a change to graphmine
cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.013  # a typical reading on the reference machine (2-vCPU KVM Xeon, 2.1 GHz)

_N = 160
_MATRIX = np.random.default_rng(0).standard_normal((_N, _N))
_P, _Q = np.split(np.random.default_rng(1).permutation(_N), 2)


def _probe() -> float:
    """Sixty rounds of disjoint plane rotations of a 160x160 matrix."""
    start = perf_counter()
    a, p, q = _MATRIX.copy(), _P, _Q
    for _ in range(60):
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.6 * col_p - 0.8 * col_q
        a[:, q] = 0.8 * col_p + 0.6 * col_q
        row_p, row_q = a[p, :].copy(), a[q, :].copy()
        a[p, :] = 0.6 * row_p - 0.8 * row_q
        a[q, :] = 0.8 * row_p + 0.6 * row_q
    return perf_counter() - start


def reading(samples: int = 5) -> float:
    """Median time of ``samples`` probes, in seconds."""
    return statistics.median(_probe() for _ in range(samples))


def at_reference_speed(seconds: float, readings) -> float:
    """``seconds`` measured between the speed ``readings``, scaled to the
    speed at which a reading is ``REFERENCE_S``."""
    return seconds * REFERENCE_S / statistics.fmean(readings)


def pass_times(record: dict) -> dict:
    """{op: seconds at reference speed} for one pass record of the worker,
    each operation scaled by the readings just before and after it."""
    readings = record["speed_s"]
    return {op: at_reference_speed(s, readings[i:i + 2]) for i, (op, s) in enumerate(record["op_s"].items())}
