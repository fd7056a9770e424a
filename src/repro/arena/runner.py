"""Run an arena grid: one engine session per cell, process-parallel.

Each cell is an independent :class:`~repro.engine.session.Session` with
its own metrics registry, so cells are order-independent and the
leaderboard is identical whether the grid runs inline (``jobs=1``) or
across a process pool (``jobs=J``).  The cells of one workload share a
seed, so they share its access stream: the first cell that needs a
stream generates and records it, and the later ones replay it from a
per-grid :class:`StreamMemo` -- value for value what generating it
again would give, so the memo moves no result.  A cell that
cannot be *built* (a policy/mix mismatch, say ``tpp`` on the spectrum
mix) is reported ``skipped``; a cell that fails mid-run is ``failed``
with the error preserved.  Either way the sweep continues -- one bad
cell never loses the rest of the grid.

Everything ranked by the leaderboard is modeled, deterministic
simulation output; measured wall-clock goes only to ``manifest.json``
(which is allowed to differ run to run).  Solver time in particular uses
the fleet's deterministic cost model
(:func:`repro.fleet.service.modeled_ilp_ns`) rather than measured wall
time, for the same reason the fleet does.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.arena.spec import ArenaCell, ArenaSpec
from repro.core.dollars import project_fleet_savings
from repro.engine.spec import ScenarioSpec
from repro.fleet.service import modeled_ilp_ns
from repro.obs import Observability
from repro.policies import THRASH_METRIC, validate_policy
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload

#: Bytes of recorded streams one process may keep for one grid.  A
#: stream that outgrows what is left is generated but not kept.
STREAM_MEMO_BYTES = 64 << 20


@dataclass
class CellResult:
    """Outcome of one arena cell.

    ``row`` holds the deterministic leaderboard metrics (empty unless
    ``status == "ok"``); ``wall_s`` is measured and manifest-only.
    """

    cell_id: str
    policy: str
    workload: str
    alpha: float | None
    seed: int
    status: str
    error: str = ""
    wall_s: float = 0.0
    row: dict = field(default_factory=dict)


@dataclass
class ArenaResult:
    """One completed sweep: the spec, every cell, and artifact paths."""

    spec: ArenaSpec
    cells: list[CellResult]
    wall_s: float
    paths: dict = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        out = {"ok": 0, "failed": 0, "skipped": 0}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    @property
    def all_ok(self) -> bool:
        return all(cell.status == "ok" for cell in self.cells)


@dataclass
class _Stream:
    """One complete recorded stream and the identity of its workload."""

    name: str
    num_pages: int
    ops_per_window: int
    write_fraction: float
    batches: list[np.ndarray]


class _Recorder(Workload):
    """Generates through ``inner`` and keeps a narrow copy of each window.

    Recording stops (generation goes on) once the copies would outgrow
    ``room`` bytes; ``batches`` is then ``None``.
    """

    def __init__(self, inner: Workload, room: int) -> None:
        super().__init__(inner.num_pages, inner.ops_per_window, inner.seed)
        self.name = inner.name
        self.write_fraction = inner.write_fraction
        self.inner = inner
        self.room = room
        self.dtype = np.min_scalar_type(inner.num_pages - 1)
        self.batches: list[np.ndarray] | None = []
        self.nbytes = 0

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        batch = self.inner.next_window()
        if self.batches is not None:
            self.nbytes += batch.size * self.dtype.itemsize
            if self.nbytes > self.room:
                self.batches = None
            else:
                self.batches.append(batch.astype(self.dtype))
        return batch


class _Replay(Workload):
    """A recorded stream played back from window 0.

    Every window is a fresh int64 copy, so a consumer that writes into
    its batch cannot reach the memo.
    """

    def __init__(self, stream: _Stream) -> None:
        super().__init__(stream.num_pages, stream.ops_per_window)
        self.name = stream.name
        self.write_fraction = stream.write_fraction
        self._batches = stream.batches

    def _generate(self, rng: np.random.Generator) -> np.ndarray:
        return self._batches[self.window].astype(np.int64)


class StreamMemo:
    """The workload streams of one grid, each generated once.

    A stream is keyed by (workload, scaled workload kwargs, seed,
    windows), which is everything its batches depend on.  A session
    either replays a complete stream from window 0 or generates every
    window itself: only a cell that ran all its windows leaves a stream
    behind, so a failed or short cell leaves nothing to replay.  Windows
    are stored in the narrowest unsigned dtype that holds
    ``num_pages - 1``, within a budget of ``budget`` bytes.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._streams: dict[tuple, _Stream] = {}

    @staticmethod
    def _key(spec: ScenarioSpec) -> tuple:
        kwargs = json.dumps(spec.scaled_workload_kwargs(), sort_keys=True)
        return (spec.workload, kwargs, spec.seed, spec.windows)

    def workload(self, spec: ScenarioSpec) -> Workload:
        """A replay of ``spec``'s stream if kept, else a recording run."""
        stream = self._streams.get(self._key(spec))
        if stream is not None:
            return _Replay(stream)
        inner = make_workload(
            spec.workload, seed=spec.seed, **spec.scaled_workload_kwargs()
        )
        return _Recorder(inner, self.budget - self.nbytes)

    def keep(self, spec: ScenarioSpec, workload: Workload) -> None:
        """Keep what ``workload`` recorded if it is ``spec``'s whole stream.

        Call only after the session ran every window without raising.
        """
        if (
            isinstance(workload, _Recorder)
            and workload.batches is not None
            and len(workload.batches) == spec.windows
        ):
            self._streams[self._key(spec)] = _Stream(
                workload.name,
                workload.num_pages,
                workload.ops_per_window,
                workload.write_fraction,
                workload.batches,
            )
            self.nbytes += workload.nbytes


#: The memo of the grid this process is running: set by :func:`run_arena`
#: for the ``jobs=1`` path and by each pool worker's initializer, and
#: ``None`` otherwise, so every grid starts cold.
_streams: StreamMemo | None = None


def _open_streams() -> None:
    """Pool initializer: give the worker a memo that dies with it."""
    global _streams
    _streams = StreamMemo(STREAM_MEMO_BYTES)


def _run_cell(
    payload: tuple[ArenaCell, float, float | None],
) -> CellResult:
    """Worker body: one cell, one session, one metrics registry.

    Module-level so the process pool can pickle it; also the ``jobs=1``
    inline path, so both paths share every byte of behaviour.
    """
    cell, node_memory_gb, target_slowdown = payload
    memo = _streams
    start = time.perf_counter()
    result = CellResult(
        cell_id=cell.cell_id,
        policy=cell.policy,
        workload=cell.workload,
        alpha=cell.alpha,
        seed=cell.seed,
        status="ok",
    )
    obs = Observability(metrics=True)
    try:
        from repro.engine.session import Session

        workload = None if memo is None else memo.workload(cell.scenario)
        session = Session(cell.scenario, obs=obs, workload=workload)
    except (ValueError, KeyError) as exc:
        result.status = "skipped"
        result.error = str(exc)
        result.wall_s = time.perf_counter() - start
        return result
    try:
        summary = session.run()
    except Exception as exc:  # noqa: BLE001 - one cell must not kill the grid
        result.status = "failed"
        result.error = f"{type(exc).__name__}: {exc}"
        result.wall_s = time.perf_counter() - start
        return result
    if memo is not None:
        memo.keep(cell.scenario, workload)

    inner = getattr(session.policy, "primary", session.policy)
    thrash = int(getattr(inner, "thrash_total", 0))
    metric_thrash = (
        obs.registry.snapshot().get(THRASH_METRIC, {}).get("series", {})
    )
    projection = project_fleet_savings(
        min(1.0, max(0.0, summary.tco_savings)),
        max(0.0, summary.slowdown),
        node_memory_gb,
    )
    solver_ms = 0.0
    if validate_policy(cell.policy).analytical:
        solver_ms = (
            summary.windows
            * modeled_ilp_ns(
                session.system.space.num_regions, len(session.system.tiers)
            )
            / 1e6
        )
    result.row = {
        "cell_id": cell.cell_id,
        "policy": cell.policy,
        "policy_label": inner.name,
        "workload": cell.workload,
        "alpha": cell.alpha,
        "tco_savings_pct": 100.0 * summary.tco_savings,
        "saved_dollars_month": projection.saved_dollars_month,
        "slowdown_pct": 100.0 * summary.slowdown,
        "p99_latency_ns": session.daemon.latency_percentile(99.0),
        "pages_migrated": int(summary.extras.get("pages_migrated", 0)),
        "thrash": thrash,
        "thrash_metric": float(sum(metric_thrash.values())),
        "solver_ms": solver_ms,
        "faults": int(summary.total_faults),
        "windows": summary.windows,
    }
    if target_slowdown is not None:
        # Per-window SLA verdict: how many profile windows ran slower
        # than the arena's slowdown budget.  Computed for *every* cell
        # (static alphas included) so the leaderboard can answer "best
        # dollars among SLA-meeting cells", not just "best dollars".
        read_ns = session.system.dram.media.read_ns
        violations = 0
        for rec in session.records:
            optimal_ns = rec.accesses * read_ns
            window_slowdown = (
                (rec.access_ns - optimal_ns) / optimal_ns
                if optimal_ns
                else 0.0
            )
            if window_slowdown > target_slowdown:
                violations += 1
        result.row["sla_violations"] = violations
    tuner = getattr(inner, "controller", None)
    if tuner is not None and hasattr(tuner, "alpha"):
        # Adaptive cells publish their trajectory endpoints so the
        # leaderboard JSON shows *where* the controller converged (all
        # deterministic -- the trace is a pure function of the seed).
        result.row.update(
            alpha_final=round(float(tuner.alpha), 9),
            adaptive_steps=int(tuner.steps_total),
            adaptive_violations=int(tuner.violations),
            alpha_trace=[
                round(float(a), 9) for a in tuner.alpha_trajectory()
            ],
        )
    result.wall_s = time.perf_counter() - start
    return result


def run_arena(
    spec: ArenaSpec,
    out_dir=None,
    jobs: int = 1,
    log=None,
) -> ArenaResult:
    """Sweep the grid and (optionally) write the artifact directory.

    Args:
        spec: The arena description.
        out_dir: Directory for ``leaderboard.*`` / ``manifest.json`` /
            ``figures/``; ``None`` skips writing.
        jobs: Worker processes; 1 runs inline (identical results).
        log: Optional ``callable(str)`` progress sink (the CLI passes
            ``print``).
    """
    start = time.perf_counter()
    cells = spec.cells()
    payloads = [
        (cell, spec.node_memory_gb, spec.target_slowdown) for cell in cells
    ]
    global _streams
    if jobs <= 1 or len(cells) <= 1:
        _streams = StreamMemo(STREAM_MEMO_BYTES)
        try:
            results = [_run_cell(payload) for payload in payloads]
        finally:
            _streams = None
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), initializer=_open_streams
        ) as pool:
            # Executor.map preserves input order, so merge order (and
            # therefore every artifact) is independent of worker count.
            results = list(pool.map(_run_cell, payloads))
    if log is not None:
        for res in results:
            note = f" ({res.error})" if res.error else ""
            log(f"  [{res.status:>7}] {res.cell_id}{note}")
    arena = ArenaResult(
        spec=spec, cells=results, wall_s=time.perf_counter() - start
    )
    if out_dir is not None:
        from repro.arena.report import write_outputs

        arena.paths = write_outputs(out_dir, arena)
    return arena
