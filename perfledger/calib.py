"""Host calibration kernel: a fixed amount of work that measures host speed.

The benchmark runs this kernel between windows (between cells for the
arena) and scales every host-time measurement by ``REF_MS / kernel_ms``.
On a shared host whose speed drifts from run to run, the ratio of the
simulator's time to the kernel's time is far steadier than either alone.

The kernel imports nothing from ``repro``: a change to the simulator must
never change the yardstick.  It mixes the three kinds of work the
simulator's window loop does:

* NumPy vectorised ops: random draws, ``bincount``, ``argsort``,
  ``cumsum``/``searchsorted`` (workload generation, profiling, rollups);
* a pure-Python dict loop (per-region bookkeeping in policies and
  migration);
* one fixed, small scipy/HiGHS MILP: a multiple-choice knapsack shaped
  like the placement ILP (the analytical model's solve).
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

#: Kernel time, in ms, on the reference host: about the median on the
#: 2-core shared x86-64 host the notes' figures come from.  One
#: normalised second is the time in which the host runs ``1000 / REF_MS``
#: kernels, so on that host normalised and raw seconds are close.
REF_MS = 16.0

_NP_SIZE = 20_000
_DICT_ITERS = 6_000
_MILP_REGIONS = 12
_MILP_TIERS = 4


def _numpy_part() -> float:
    rng = np.random.default_rng(12345)
    draws = rng.zipf(1.3, size=_NP_SIZE) % 4096
    counts = np.bincount(draws, minlength=4096).astype(np.float64)
    order = np.argsort(counts, kind="stable")
    cum = np.cumsum(counts[order])
    idx = np.searchsorted(cum, cum[-1] * np.linspace(0.0, 1.0, 257))
    return float(idx.sum() + counts.dot(counts))


def _dict_part() -> int:
    table: dict[int, int] = {}
    key = 1
    for i in range(_DICT_ITERS):
        key = (key * 1103515245 + 12345) & 0xFFFF
        table[key & 1023] = table.get(key & 1023, 0) + i
    return sum(table.values())


@functools.cache
def _milp_problem():
    """A fixed placement-shaped MILP: one tier per region, one budget row."""
    rng = np.random.default_rng(54321)
    n = _MILP_REGIONS * _MILP_TIERS
    penalty = rng.random((_MILP_REGIONS, _MILP_TIERS)) * np.arange(
        _MILP_TIERS
    )
    cost = rng.random((_MILP_REGIONS, _MILP_TIERS)) / (
        1.0 + np.arange(_MILP_TIERS)
    )
    a_eq = np.zeros((_MILP_REGIONS, n))
    for r in range(_MILP_REGIONS):
        a_eq[r, r * _MILP_TIERS : (r + 1) * _MILP_TIERS] = 1.0
    budget = 0.5 * (cost.min(axis=1).sum() + cost.max(axis=1).sum())
    constraints = [
        LinearConstraint(a_eq, lb=1.0, ub=1.0),
        LinearConstraint(cost.reshape(1, n), lb=-np.inf, ub=budget),
    ]
    return penalty.reshape(n), constraints, n


def _milp_part() -> float:
    c, constraints, n = _milp_problem()
    result = milp(
        c=c, constraints=constraints, integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if result.status != 0:
        raise RuntimeError(f"calibration MILP failed: {result.message}")
    return float(result.fun)


def run_kernel() -> float:
    """Run the kernel once; returns its wall time in ms."""
    t0 = time.perf_counter_ns()
    _numpy_part()
    _dict_part()
    _milp_part()
    return (time.perf_counter_ns() - t0) / 1e6
