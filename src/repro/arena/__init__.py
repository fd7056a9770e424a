"""repro.arena -- competitor tiering policies raced head-to-head.

One command (``python -m repro arena``) sweeps every policy x workload
x α cell, runs each cell as an independent engine session
(process-parallel; every policy replays the same seeded stream of a
workload, generated once per grid), and emits:

* ``leaderboard.{md,csv,json}`` -- the deterministic ranking (TCO
  dollars saved, p99 latency, migration volume, thrash count, modeled
  solver time) with stable tie-breaking; re-running the same spec
  reproduces these byte-identically, regardless of ``--jobs``;
* ``manifest.json`` -- per-cell status (``ok`` / ``failed`` /
  ``skipped``), seed and wall-clock;
* ``figures/`` -- the cell data plus self-contained regeneration
  scripts, one per figure (the figure-pipeline idiom: every figure can
  be rebuilt from its committed data without re-running the sweep).
"""

from repro.arena.report import (
    leaderboard_rows,
    render_csv,
    render_markdown,
    write_outputs,
)
from repro.arena.runner import ArenaResult, CellResult, run_arena
from repro.arena.spec import DEFAULT_WORKLOADS, ArenaCell, ArenaSpec

__all__ = [
    "ArenaCell",
    "ArenaResult",
    "ArenaSpec",
    "CellResult",
    "DEFAULT_WORKLOADS",
    "leaderboard_rows",
    "render_csv",
    "render_markdown",
    "run_arena",
    "write_outputs",
]
