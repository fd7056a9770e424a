"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfledger -q

They run the session workloads at a quarter of their size and every
workload for two units, so they finish in under a minute; they check
the benchmark, not speed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import loop  # noqa: E402
import tracing  # noqa: E402

SCALE = 0.25
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared(section: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[section]}


@pytest.mark.parametrize("workload", sorted(loop.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct_and_complete(workload, trace, monkeypatch):
    monkeypatch.setattr(loop, "SETUP_REPEATS", 3)
    monkeypatch.setitem(
        loop.WORKLOADS, workload,
        dataclasses.replace(loop.WORKLOADS[workload], model_units=2),
    )
    result, lines = loop.run_workload(workload, 7, 0.01, trace, scale=SCALE)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(metrics) == _declared(section)
    for name, metric in metrics.items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], float), name
    if not trace:
        assert metrics["ok_frac"]["value"] == 1.0
        for name in ("norm_windows_per_s", "setup_s", "tco_savings_pct",
                     "slowdown_pct", "access_tail_ns"):
            assert metrics[name]["value"] > 0.0, name
    else:
        assert any(line.startswith("window total") for line in lines)


def test_declared_names_are_valid():
    for section in ("end_to_end", "per_layer"):
        for name in _declared(section):
            assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", sorted(loop.WORKLOADS))
def test_wrappers_are_transparent(workload):
    """A traced unit's modeled outputs equal an untraced unit's."""
    wl = loop.WORKLOADS[workload]
    plain = loop.run_unit(wl, 3, 1, SCALE)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        traced = loop.run_unit(wl, 3, 1, SCALE)
    assert plain.failed == 0 and None not in plain.outputs
    assert traced.outputs == plain.outputs
    assert rec.counts["engine.windows"] == plain.windows


def test_traced_restores_every_entry_point():
    import repro.arena.runner as arena_runner
    import repro.core.daemon as daemon_mod
    import repro.solver.scipy_backend as scipy_backend
    from repro.engine.session import Session

    points = [
        (Session, "__init__"), (Session, "run_window"),
        (daemon_mod, "tier_rollup"), (scipy_backend, "milp"),
        (arena_runner, "_run_cell"),
    ]
    before = [getattr(owner, attr) for owner, attr in points]
    with tracing.traced(tracing.Recorder()):
        assert all(
            getattr(owner, attr) is not fn
            for (owner, attr), fn in zip(points, before)
        )
    assert [getattr(owner, attr) for owner, attr in points] == before


def test_self_times_account_for_window_time():
    rec = tracing.Recorder()
    with tracing.traced(rec):
        loop.run_unit(loop.WORKLOADS["arena-mix"], 5, 0, SCALE)
    total, split = rec.window_partition_ns()
    assert total > 0 and sum(split.values()) == total
    assert sum(rec.durations_ns("engine.window")) == total
    windows = rec.counts["engine.windows"]
    assert windows == len(rec.durations_ns("engine.window"))


def _sample(accesses, latency_of_share):
    middles, _ = loop._tail_bands()
    latencies = np.array([latency_of_share(m) for m in middles])
    return accesses, latencies.tobytes()


def test_pooled_tail_takes_the_slowest_share_of_all_accesses():
    # Session A: 1000 accesses, the slowest 2% at 100 ns, the rest 10 ns.
    # Session B: 3000 accesses, all 10 ns.
    a = _sample(1000, lambda m: 100.0 if m < 0.02 else 10.0)
    b = _sample(3000, lambda m: 10.0)
    # 1% of 4000 accesses = 40: A's 20 slow ones and 20 at 10 ns.  The
    # band holding A's 2% edge splits it, so allow one band's width.
    assert loop.pooled_tail_ns([a, b], 0.01) == pytest.approx(55.0, rel=0.05)
    # The slowest 0.5% (20 accesses) are all of A's slow ones.
    assert loop.pooled_tail_ns([a, b], 0.005) == pytest.approx(100.0, rel=0.05)
