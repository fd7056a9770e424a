"""The benchmark's workloads and its closed-loop, host-normalised runner.

One thread, one process.  Each window (each cell, for the arena) starts
when the previous one returns, and one run of the calibration kernel
(:mod:`calib`) sits right before it, outside the timed region.  A
window's host time is scaled by ``REF_MS / kernel_ms`` of that kernel
run, so rates are in windows per *normalised* second.

The work comes in *units*: one engine session of ``WINDOWS`` windows
(kv-waterfall, xsbench-ilp) or one arena grid.  Unit ``i`` of a run
always gets the seed ``SeedSequence(seed, spawn_key=(i,))``, so a unit
is the same work in every run with that seed.  A run:

1. **set-up** -- builds unit 0's sessions ``SETUP_REPEATS`` times;
   ``setup_s`` is the median normalised build time;
2. **timed** -- runs units 0, 1, 2, ... untraced until ``--seconds``
   have passed *and* the first ``model_units`` units are done.  The
   modeled metrics are the means over those first units, so they are a
   pure function of the seed; the rate pools every timed unit;
3. **traced** -- ``--trace 0`` reruns unit 0 traced and requires the
   same modeled outputs; ``--trace 1`` halves the timed budget and
   spends the other half on traced units 0, 1, ..., each compared with
   its untraced twin, for the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import calib
import tracing

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 15
#: Windows per engine session (kv-waterfall, xsbench-ilp).
WINDOWS = 12
#: Share of all accesses whose mean latency is ``access_tail_ns``.
TAIL_SHARE = 0.01
#: Each session's latency distribution is sampled at ``TAIL_POINTS``
#: quantiles, spaced evenly in log(share of slowest accesses) from
#: ``TAIL_FINEST`` to 1: fine at the top, coarse below.
TAIL_POINTS = 300
TAIL_FINEST = 1e-6

#: The arena grid: every policy races on both adversarial workloads.
ARENA_POLICIES = ("waterfall", "am-tco", "tpp", "jenga", "obase", "adaptive")
ARENA_WORKLOADS = ("pingpong", "tenant-churn")
ARENA_ALPHA = 0.5
ARENA_WINDOWS = 12


def unit_seed(seed: int, index: int) -> int:
    """The seed of unit ``index`` of a run with ``--seed seed``."""
    state = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(state.generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name on the command line.
        scenario: Scenario fields of each session; empty for the arena.
            The explicit ``num_pages``/``ops_per_window`` are what a
            ``scale`` below 1 shrinks (the tests' quick runs); the arena
            runs its workloads at their registry sizes.
        model_units: Units whose mean gives the modeled metrics.  Sized
            so the seed-to-seed spread of those means stays well inside
            their bounds (kv-waterfall's slowdown varies most).
    """

    name: str
    scenario: dict
    model_units: int

    @property
    def is_arena(self) -> bool:
        return not self.scenario

    def session_spec(self, seed: int, index: int, scale: float):
        from repro.engine.spec import ScenarioSpec

        return ScenarioSpec(
            **self.scenario,
            windows=WINDOWS,
            seed=unit_seed(seed, index),
            scale=scale,
        )

    def arena_spec(self, seed: int, index: int):
        from repro.arena import ArenaSpec

        return ArenaSpec(
            policies=ARENA_POLICIES,
            workloads=ARENA_WORKLOADS,
            alphas=(ARENA_ALPHA,),
            windows=ARENA_WINDOWS,
            scale=1.0,
            seed=unit_seed(seed, index),
        )

    def unit_specs(self, seed: int, index: int, scale: float) -> list:
        """Scenario specs of every session unit ``index`` builds."""
        if self.is_arena:
            cells = self.arena_spec(seed, index).cells()
            return [cell.scenario for cell in cells]
        return [self.session_spec(seed, index, scale)]

    def input_size(self, seed: int, scale: float) -> str:
        """The stated input size, for the report line beside the metrics."""
        from repro.workloads.registry import make_workload

        specs = self.unit_specs(seed, 0, scale)
        parts = []
        for name in sorted({s.workload for s in specs}):
            spec = next(s for s in specs if s.workload == name)
            wl = make_workload(name, seed=0, **spec.scaled_workload_kwargs())
            parts.append(
                f"{name}: {wl.num_pages} pages, "
                f"{wl.ops_per_window} accesses/window"
            )
        unit = (
            f"grid of {len(specs)} cells x {ARENA_WINDOWS} windows"
            if self.is_arena
            else f"session of {WINDOWS} windows"
        )
        return f"unit = {unit}; " + "; ".join(parts)


WORKLOADS = {
    w.name: w
    for w in (
        # Fig. 8: read-only Zipfian KV, spectrum mix, Waterfall.  Solver idle.
        Workload(
            "kv-waterfall",
            dict(
                workload="memcached-ycsb",
                workload_kwargs=dict(num_pages=16_384, ops_per_window=500_000),
                mix="spectrum",
                policy="waterfall",
                sampling_rate=100,
            ),
            model_units=40,
        ),
        # 64 regions x 4 tiers: ``auto`` resolves to scipy/HiGHS every window.
        Workload(
            "xsbench-ilp",
            dict(
                workload="xsbench",
                workload_kwargs=dict(num_pages=32_768, ops_per_window=25_000),
                mix="standard",
                policy="am-tco",
                alpha=0.5,
                sampling_rate=100,
            ),
            model_units=24,
        ),
        Workload("arena-mix", {}, model_units=8),
    )
}


@dataclass
class Unit:
    """One unit's outcome: paired timings, unit counts, modeled outputs.

    ``outputs`` holds one tuple per session (per cell for the arena);
    ``None`` marks a session that failed.
    """

    raw_ms: list[float] = field(default_factory=list)
    calib_ms: list[float] = field(default_factory=list)
    windows: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)

    def measure(self, fn, *args):
        """Run the kernel, then time ``fn(*args)``."""
        kernel_ms = calib.run_kernel()
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.raw_ms.append((time.perf_counter_ns() - t0) / 1e6)
        self.calib_ms.append(kernel_ms)
        return out

    def norm_ms(self) -> float:
        """Total host time, normalised to the reference kernel time."""
        return sum(
            raw * calib.REF_MS / kernel
            for raw, kernel in zip(self.raw_ms, self.calib_ms)
        )


def _tail_bands() -> tuple[np.ndarray, np.ndarray]:
    """Middles and widths of the bands :func:`tail_sample` reads."""
    edges = np.concatenate(([0.0], np.geomspace(TAIL_FINEST, 1.0, TAIL_POINTS)))
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def tail_sample(session) -> tuple[int, bytes]:
    """A session's access-latency distribution, as ``(accesses, latencies)``.

    Band ``k`` holds the accesses between the slowest ``edge[k]`` and
    ``edge[k + 1]`` shares (:func:`_tail_bands`); its latency is the
    run-level quantile (``latency_percentile``) at the band's middle.
    The latencies are packed float64 bytes: small to keep for every
    unit and exact to compare.
    """
    middles, _ = _tail_bands()
    daemon = session.daemon
    latencies = np.array(
        [daemon.latency_percentile(100.0 * (1.0 - m)) for m in middles]
    )
    return session.summary().extras["accesses"], latencies.tobytes()


def pooled_tail_ns(samples, share: float = TAIL_SHARE) -> float:
    """Mean modeled latency of the slowest ``share`` of all accesses.

    Pools :func:`tail_sample` of sessions that replicate one
    configuration.  The p99 itself is no use as a metric here: on
    kv-waterfall it is DRAM's fixed read latency on every seed, and the
    percentiles above it jump between tier latencies from seed to seed.
    Pooling replicates before taking the tail, rather than averaging
    their tails, halves its seed-to-seed spread.
    """
    _, widths = _tail_bands()
    values = np.concatenate([np.frombuffer(lat) for _, lat in samples])
    weights = np.concatenate([accesses * widths for accesses, _ in samples])
    order = np.argsort(-values, kind="stable")
    values, weights = values[order], weights[order]
    budget = share * weights.sum()
    cum = np.cumsum(weights)
    taken = np.minimum(weights, np.maximum(0.0, budget - (cum - weights)))
    return float((values * taken).sum() / taken.sum())


def session_outputs(session) -> tuple:
    """One session's modeled outputs; every field is exact and seed-pure."""
    s = session.summary()
    return (
        100.0 * s.tco_savings,
        100.0 * s.slowdown,
        tail_sample(session),
        session.daemon.latency_percentile(99.0),
        s.avg_latency_ns,
        s.total_faults,
        s.extras["pages_migrated"],
    )


def run_session_unit(spec) -> Unit:
    """One engine session; the capacity invariants are checked per window."""
    from repro.chaos.invariants import check_capacity
    from repro.engine.session import Session

    unit = Unit(attempted=spec.windows)
    session = Session(spec)
    session.validate_capacity()
    try:
        for _ in range(spec.windows):
            unit.measure(session.run_window)
            check_capacity(session.system)
            unit.windows += 1
    except Exception:  # noqa: BLE001 - count the loss, keep measuring
        traceback.print_exc(file=sys.stderr)
    unit.failed = spec.windows - unit.windows
    done = unit.windows == spec.windows
    unit.outputs.append(session_outputs(session) if done else None)
    return unit


def run_arena_unit(spec) -> Unit:
    """One arena grid at ``jobs=1``; the kernel runs before every cell.

    Each cell must finish ``ok`` with every requested window.  The
    cell's session is caught as it is built, for its latency tail.
    """
    import repro.arena.runner as runner
    from repro.engine.session import Session

    unit = Unit()
    built: list = []
    run_cell, init = runner._run_cell, Session.__init__

    def catching_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def cell(payload):
        result = unit.measure(run_cell, payload)
        row = result.row
        if result.status == "ok" and row.get("windows") == spec.windows:
            unit.outputs.append((
                row["tco_savings_pct"], row["slowdown_pct"],
                tail_sample(built[-1]), row["p99_latency_ns"], row,
            ))
        else:
            print(f"cell {result.cell_id}: {result.status} {result.error}",
                  file=sys.stderr)
            unit.outputs.append(None)
            unit.failed += 1
        built.clear()
        return result

    runner._run_cell, Session.__init__ = cell, catching_init
    try:
        result = runner.run_arena(spec, jobs=1)
    finally:
        runner._run_cell, Session.__init__ = run_cell, init
    unit.attempted = len(result.cells)
    unit.windows = sum(c.row.get("windows", 0) for c in result.cells)
    return unit


def run_unit(workload: Workload, seed: int, index: int, scale: float) -> Unit:
    if workload.is_arena:
        unit = run_arena_unit(workload.arena_spec(seed, index))
    else:
        unit = run_session_unit(workload.session_spec(seed, index, scale))
    # Free this unit's sessions now, so garbage-collection timing does
    # not decide how many are alive at once (peak RSS).
    gc.collect()
    return unit


def run_units(workload, seed, scale, seconds, min_units=1) -> list[Unit]:
    """Units 0, 1, ... until ``seconds`` pass and ``min_units`` are done."""
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    while len(units) < min_units or time.perf_counter() < deadline:
        units.append(run_unit(workload, seed, len(units), scale))
    return units


def compare(traced: list[Unit], plain: list[Unit]) -> int:
    """Fail every traced unit whose modeled outputs differ from its twin's."""
    mismatched = 0
    for got, want in zip(traced, plain):
        if got.outputs != want.outputs:
            print("traced and untraced modeled outputs differ",
                  file=sys.stderr)
            got.failed = got.attempted
            mismatched += 1
    return mismatched


def pooled_rate(units: list[Unit], normalised: bool = True) -> float:
    """Windows per (normalised) second over every unit given."""
    ms = sum(u.norm_ms() if normalised else sum(u.raw_ms) for u in units)
    return sum(u.windows for u in units) / (ms / 1e3)


def modeled_metrics(units: list[Unit]) -> dict:
    """The modeled metrics of the given units.

    TCO savings, slowdown and p99 are means over every session (every
    cell).  The tail pools the replicates of each configuration -- the
    sessions of kv-waterfall or xsbench-ilp, or one grid position of the
    arena across units -- and averages over configurations.
    """
    outs = [out for u in units for out in u.outputs if out is not None]
    tails = []
    for position in zip(*(u.outputs for u in units)):
        samples = [out[2] for out in position if out is not None]
        if samples:
            tails.append(pooled_tail_ns(samples))
    return {
        "tco_savings_pct": statistics.fmean(o[0] for o in outs),
        "slowdown_pct": statistics.fmean(o[1] for o in outs),
        "access_tail_ns": statistics.fmean(tails),
        "access_p99_ns": statistics.fmean(o[3] for o in outs),
    }


def _build(specs) -> None:
    from repro.engine.session import Session

    for spec in specs:
        Session(spec)


def measure_setup(workload: Workload, seed: int, scale: float) -> Unit:
    """Time ``SETUP_REPEATS`` builds of unit 0's sessions."""
    setup = Unit()
    specs = workload.unit_specs(seed, 0, scale)
    for _ in range(SETUP_REPEATS):
        setup.measure(_build, specs)
        gc.collect()
    return setup


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    span_path=None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and report lines."""
    workload = WORKLOADS[name]
    lines = [f"workload {name}: {workload.input_size(seed, scale)}"]
    calib.run_kernel()  # first-call imports and HiGHS start-up

    setup = measure_setup(workload, seed, scale)
    setup_s = statistics.median(
        raw * calib.REF_MS / kernel / 1e3
        for raw, kernel in zip(setup.raw_ms, setup.calib_ms)
    )
    timed = run_units(
        workload, seed, scale, seconds / 2 if trace else seconds,
        min_units=1 if trace else workload.model_units,
    )
    rec = tracing.Recorder()
    with tracing.traced(rec):
        traced = run_units(workload, seed, scale, seconds / 2 if trace else 0)
    mismatched = compare(traced, timed)

    units = [*timed, *traced]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    norm_rate = pooled_rate(timed)
    raw_rate = pooled_rate(timed, normalised=False)
    calib_ms = statistics.median(k for u in timed for k in u.calib_ms)
    lines.append(
        f"{len(timed)} timed units: {norm_rate:.3f} windows per normalised s "
        f"(raw {raw_rate:.3f} windows/s, kernel median {calib_ms:.3f} ms, "
        f"reference {calib.REF_MS} ms); set-up {setup_s:.5f} normalised s "
        f"(raw median {statistics.median(setup.raw_ms) / 1e3:.5f} s); "
        f"{len(traced)} traced units, {mismatched} differing"
    )

    if not trace:
        modeled = modeled_metrics(timed[: workload.model_units])
        metrics = {
            "norm_windows_per_s": (norm_rate, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "tco_savings_pct": (modeled["tco_savings_pct"], "%"),
            "slowdown_pct": (modeled["slowdown_pct"], "%"),
            "access_tail_ns": (modeled["access_tail_ns"], "ns"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        # Same seeds, same work: compare over the units both passes ran.
        both = min(len(timed), len(traced))
        overhead = pooled_rate(timed[:both]) / pooled_rate(traced[:both]) - 1
        factor = sum(u.norm_ms() for u in traced) / sum(
            sum(u.raw_ms) for u in traced
        )
        metrics = layer_metrics(rec, factor)
        metrics["mem.access_p99_ns"] = (
            modeled_metrics(traced)["access_p99_ns"], "ns"
        )
        metrics["host.calib_ms"] = (calib_ms, "ms")
        metrics["host.raw_windows_per_s"] = (raw_rate, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        lines.extend(layer_table(rec, factor))
        if span_path is not None:
            lines.append(f"spans written to {rec.dump(span_path)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(value), "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    return result, lines


def layer_metrics(rec, factor: float) -> dict:
    """Per-layer metrics of a traced pass; host times scaled by ``factor``.

    Times and counts are per window; ``*_frac`` are ratios of totals.
    """
    counts = rec.counts
    windows = counts["engine.windows"]
    _, split = rec.window_partition_ns()

    def per_window(key: str) -> float:
        return counts.get(key, 0.0) / windows

    def per_window_ms(ns: float) -> float:
        return ns * factor / 1e6 / windows

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    def percentile_ms(name: str, q: float) -> float:
        durations = rec.durations_ns(name)
        if not durations:
            return 0.0
        return float(np.percentile(durations, q)) * factor / 1e6

    out = {
        metric: (per_window_ms(split[span]), "ms")
        for metric, span in tracing.WINDOW_PARTITION.items()
    }
    out.update({
        "placement.solve_ms": (
            per_window_ms(sum(rec.durations_ns("placement.solve"))), "ms"
        ),
        "solver.solves": (per_window("solver.solves"), "count"),
        "solver.nonoptimal": (per_window("solver.nonoptimal"), "count"),
        "mem.accesses": (per_window("mem.accesses"), "count"),
        "mem.faults": (per_window("mem.faults"), "count"),
        "mem.fault_frac": (ratio("mem.faults", "mem.accesses"), "frac"),
        "placement.filter_kept_frac": (
            ratio("placement.kept", "placement.recommended"), "frac"
        ),
        "migration.pages_moved": (per_window("migration.pages_moved"), "count"),
        "migration.rollbacks": (per_window("migration.rollbacks"), "count"),
        "allocators.pool_pages": (per_window("allocators.pool_pages"), "count"),
        "adaptive.steps": (per_window("adaptive.steps"), "count"),
        "policies.thrash_frac": (
            ratio("policies.thrash", "migration.regions_moved"), "frac"
        ),
        "engine.build_ms": (percentile_ms("engine.build", 50), "ms"),
        "engine.window_ms_p50": (percentile_ms("engine.window", 50), "ms"),
        "engine.window_ms_p90": (percentile_ms("engine.window", 90), "ms"),
        "arena.cell_ms_p50": (percentile_ms("arena.cell", 50), "ms"),
    })
    return out


def layer_table(rec, factor: float) -> list[str]:
    """The self-time table: normalised ms per window and share of window."""
    total_ns, split = rec.window_partition_ns()
    windows = rec.counts["engine.windows"]
    lines = [f"{'layer (self time)':<26}{'ms/window':>12}{'share':>9}"]
    for metric, span in tracing.WINDOW_PARTITION.items():
        ns = split[span]
        lines.append(
            f"{metric:<26}{ns * factor / 1e6 / windows:>12.3f}"
            f"{100.0 * ns / total_ns:>8.1f}%"
        )
    lines.append(
        f"{'window total':<26}{total_ns * factor / 1e6 / windows:>12.3f}"
        f"{100.0:>8.1f}%"
    )
    return lines
