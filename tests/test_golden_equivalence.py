"""Refactor-equivalence: drivers must match pre-refactor goldens.

The files under ``tests/goldens/`` were serialized from the seed
commit's hand-wired ``bench/experiments.py`` (before the drivers were
rerouted through ``repro.engine.Session``) at the pinned seeds.  These
tests assert the refactored drivers reproduce them byte for byte --
i.e. the engine layer changed the plumbing, not a single number.

Measured wall-clock fields (the solver times a real ILP solve) are
zeroed on both sides, and the latency-statistic fields -- whose values
depend on the accumulator's histogram representation -- are zeroed in
the byte-identical files and pinned against
``goldens/latency_stats.json`` with a < 0.5 % relative tolerance
instead; see ``tests/_goldens.py``.
"""

import json

import numpy as np
import pytest

from repro.bench import experiments
from tests._goldens import (
    GOLDEN_DIR,
    LATENCY_RTOL,
    PINNED,
    VOLATILE_KEYS,
    golden_text,
    latency_entries,
    normalise,
)


@pytest.fixture(scope="module")
def driver_results():
    """Each pinned driver run once, shared by both golden checks."""
    return {
        name: getattr(experiments, name)(**PINNED[name]) for name in PINNED
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_driver_matches_pre_refactor_golden(name, driver_results):
    got = golden_text(driver_results[name])
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert got == want, f"{name} diverged from the pre-refactor golden"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_latency_stats_within_tolerance(name, driver_results):
    """Latency mean/percentiles track the pre-histogram values closely."""
    pinned = json.loads((GOLDEN_DIR / "latency_stats.json").read_text())
    got = latency_entries(normalise(driver_results[name], zeroed=VOLATILE_KEYS))
    want = pinned[name]
    assert sorted(got) == sorted(want), f"{name} latency field set changed"
    for path, value in want.items():
        assert got[path] == pytest.approx(value, rel=LATENCY_RTOL), (
            f"{name}:{path} drifted beyond {LATENCY_RTOL:.1%}"
        )


# -- the one-knob controller ---------------------------------------------------
#
# ``goldens/one_knob_controller.json`` was captured from the dedicated
# single-knob SLA controller that ``ONE_KNOB`` replaced.  Both of its
# callers must reproduce it exactly: every alpha, every violation.


def _one_knob_golden(section: str) -> dict:
    doc = json.loads((GOLDEN_DIR / "one_knob_controller.json").read_text())
    return doc[section]


def test_run_sla_tuned_matches_one_knob_golden():
    from repro.adaptive import run_sla_tuned
    from repro.engine.build import build_system
    from repro.mem.page import PAGES_PER_REGION
    from repro.workloads.masim import MasimWorkload

    got = {}
    for target in (0.02, 0.10):
        workload = MasimWorkload(
            num_pages=4 * PAGES_PER_REGION, ops_per_window=20_000, seed=3
        )
        system = build_system(workload, mix="standard", seed=0)
        summary, controller, alphas = run_sla_tuned(
            system, workload, target_slowdown=target, num_windows=8, seed=1
        )
        got[repr(target)] = {
            "alphas": [float(a) for a in alphas],
            "sla_violations": int(summary.extras["sla_violations"]),
            "headroom": float(controller.headroom),
            "tco_savings": float(summary.tco_savings),
        }
    assert got == _one_knob_golden("run_sla_tuned")


def test_rebalance_matches_one_knob_golden():
    from repro.fleet.scheduler import FleetScheduler
    from repro.fleet.spec import NodeSpec

    specs = [
        NodeSpec(node_id=i, workload=workload, memory_gb=gb)
        for i, (workload, gb) in enumerate(
            [
                ("memcached-ycsb", 256.0),
                ("masim", 128.0),
                ("xsbench", 512.0),
                ("bfs", 64.0),
                ("redis-ycsb", 256.0),
                ("pagerank", 96.0),
                ("graphsage", 192.0),
                ("masim", 32.0),
                ("bfs", 48.0),
            ]
        )
    ]
    # Node 9 is stale (not in the fleet); node 5 has no slowdown sample.
    # At the 0.05 target, nodes 3/6/7/8 sit inside the comfort band, just
    # under it, exactly on the target and on the band's edge.
    alphas = {
        0: 0.9, 1: 0.5, 2: 0.05, 3: 0.97, 4: 0.3, 5: 0.6, 6: 0.7, 7: 0.35,
        8: 0.45, 9: 0.4,
    }
    slowdowns = {
        0: 0.20, 1: 0.01, 2: 0.0, 3: 0.045, 4: 0.5, 6: 0.039, 7: 0.05,
        8: 0.04, 9: 0.3,
    }
    cases = {
        "default": (FleetScheduler(budget_alpha=0.5), 0.05),
        "narrow": (
            FleetScheduler(budget_alpha=0.4, min_alpha=0.2, max_alpha=0.8),
            0.05,
        ),
        "zero_target": (FleetScheduler(budget_alpha=0.7), 0.0),
    }
    got = {
        name: {
            str(nid): float(knob.alpha)
            for nid, knob in sorted(
                scheduler.rebalance(specs, alphas, slowdowns, target).items()
            )
        }
        for name, (scheduler, target) in cases.items()
    }
    assert got == _one_knob_golden("rebalance")


# -- KV page streams -----------------------------------------------------------
#
# ``goldens/kv_page_streams.json`` holds sha256 digests of the first three
# ``next_window()`` batches of each workload below, captured from the
# sampler that mapped ranks to keys to pages one access at a time.  The
# sampler that lands straight on pages must reproduce every batch bit for
# bit.  The streams cover the two Zipfian YCSB stores (hot-set drift, the
# bucket->page fold), memtier's Gaussian (the generic fallback) and two
# drifting layouts with a non-power-of-two ``objects_per_page``.


def kv_page_stream_workloads() -> dict:
    from repro.workloads.distributions import (
        HotWarmColdGenerator,
        ZipfianGenerator,
    )
    from repro.workloads.kv import KVWorkload

    return {
        "memcached-ycsb": KVWorkload.memcached_ycsb(seed=0),
        "redis-ycsb": KVWorkload.redis_ycsb(seed=1),
        "memcached-memtier": KVWorkload.memcached_memtier(seed=2),
        "drift-hotwarmcold-opp3": KVWorkload(
            "drift-hwc",
            num_pages=4096,
            ops_per_window=200_000,
            distribution=HotWarmColdGenerator(4096 * 3, hot_drift_fraction=0.05),
            objects_per_page=3,
            drift_per_window=0.03,
            seed=3,
        ),
        "drift-zipfian-opp3": KVWorkload(
            "drift-zipf",
            num_pages=4096,
            ops_per_window=200_000,
            distribution=ZipfianGenerator(4096 * 3, theta=0.9),
            objects_per_page=3,
            drift_per_window=0.05,
            seed=4,
        ),
    }


def kv_page_stream_digests(windows: int = 3) -> dict:
    import hashlib

    digests = {}
    for name, workload in kv_page_stream_workloads().items():
        batches = [workload.next_window() for _ in range(windows)]
        assert all(batch.dtype == np.int64 for batch in batches), name
        digests[name] = [hashlib.sha256(b.tobytes()).hexdigest() for b in batches]
        # A reset replays the stream from window 0.
        workload.reset()
        assert np.array_equal(workload.next_window(), batches[0]), name
    return digests


def test_kv_page_streams_match_golden():
    want = json.loads((GOLDEN_DIR / "kv_page_streams.json").read_text())
    assert kv_page_stream_digests() == want
