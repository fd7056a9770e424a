"""Tests for the one-knob SLA controller, zsmalloc compaction and the
diurnal workload wrapper."""

import numpy as np
import pytest

from repro.adaptive import ONE_KNOB, AdaptiveController, run_sla_tuned
from repro.allocators.zsmalloc import ZsmallocAllocator
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.masim import MasimWorkload
from tests.conftest import daemon_session


def one_knob(target_slowdown, **changes):
    return AdaptiveController(
        ONE_KNOB.with_(target_slowdown=target_slowdown, **changes)
    )


def step(controller, slowdown):
    """One window at ``slowdown``; the alpha for the next window."""
    controller.observe(0.0, mean_slowdown=slowdown)
    return controller.alpha


class TestOneKnobController:
    def test_violation_raises_alpha(self):
        controller = one_knob(0.05, start_alpha=0.5)
        assert step(controller, 0.20) > 0.5

    def test_headroom_lowers_alpha(self):
        controller = one_knob(0.05, start_alpha=0.5)
        assert step(controller, 0.001) < 0.5

    def test_near_target_holds(self):
        controller = one_knob(0.05, start_alpha=0.5)
        # 0.045 is within the 80 % comfort band.
        assert step(controller, 0.045) == pytest.approx(0.5)

    def test_clamping(self):
        controller = one_knob(0.05, start_alpha=0.06, min_alpha=0.05)
        for _ in range(10):
            alpha = step(controller, 0.0)
        assert alpha == pytest.approx(0.05)
        for _ in range(10):
            alpha = step(controller, 1.0)
        assert alpha <= 1.0

    def test_violations_counted(self):
        controller = one_knob(0.05)
        step(controller, 0.2)
        step(controller, 0.01)
        step(controller, 0.3)
        assert controller.violations == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            one_knob(-1.0)
        with pytest.raises(ValueError):
            one_knob(0.1, backoff_gain=1.5)
        with pytest.raises(ValueError):
            one_knob(0.1, min_alpha=0.9, max_alpha=0.1)

    def test_end_to_end_harvests_tco_within_sla(self, system):
        workload = MasimWorkload(
            num_pages=system.space.num_pages, ops_per_window=20_000, seed=3
        )
        summary, controller, alphas = run_sla_tuned(
            system, workload, target_slowdown=0.10, num_windows=8, seed=1
        )
        # The controller explores downward from its safe start.
        assert min(alphas) < alphas[0]
        assert summary.tco_savings > 0.05
        # Violations are transient, not persistent.
        assert controller.violations < len(alphas)


class TestZsmallocCompaction:
    def test_compaction_reclaims_pages(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        handles = [pool.store(1200) for _ in range(60)]
        # Free most objects, leaving stragglers across many zspages.
        for handle in handles[::3]:
            pool.free(handle)
        for handle in handles[1::3]:
            pool.free(handle)
        before = pool.pool_pages
        reclaimed, moved = pool.compact()
        assert pool.pool_pages == before - reclaimed
        assert reclaimed >= 0 and moved >= 0
        # Accounting stays consistent.
        assert pool.stored_objects == 20
        assert pool.stored_bytes == 20 * 1200

    def test_compaction_preserves_frees(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        handles = [pool.store(1000) for _ in range(30)]
        for handle in handles[:20:2]:
            pool.free(handle)
        pool.compact()
        # Every surviving handle can still be freed.
        for handle in handles[1:20:2] + handles[20:]:
            pool.free(handle)
        assert pool.pool_pages == 0

    def test_compaction_idempotent_when_dense(self):
        pool = ZsmallocAllocator(arena_pages=1 << 12)
        for _ in range(16):
            pool.store(2048)
        reclaimed, moved = pool.compact()
        assert reclaimed == 0


class TestDiurnalWorkload:
    def _phases(self):
        return [
            MasimWorkload(
                num_pages=1024, ops_per_window=1000, hot_fraction=0.1, seed=1
            ),
            MasimWorkload(
                num_pages=1024, ops_per_window=1000, hot_fraction=0.5, seed=2
            ),
        ]

    def test_phase_switching(self):
        workload = DiurnalWorkload(self._phases(), windows_per_phase=2)
        assert workload.current_phase == 0
        workload.next_window()
        workload.next_window()
        assert workload.current_phase == 1
        for _ in range(2):
            workload.next_window()
        assert workload.current_phase == 0  # wrapped

    def test_phases_actually_differ(self):
        workload = DiurnalWorkload(self._phases(), windows_per_phase=1)
        narrow = workload.next_window()  # hot 10 % of pages
        wide = workload.next_window()  # hot 50 % of pages
        assert len(np.unique(narrow)) < len(np.unique(wide))

    def test_validation(self):
        phases = self._phases()
        with pytest.raises(ValueError):
            DiurnalWorkload(phases[:1])
        with pytest.raises(ValueError):
            DiurnalWorkload(phases, windows_per_phase=0)
        mismatched = [
            phases[0],
            MasimWorkload(num_pages=2048, ops_per_window=1000),
        ]
        with pytest.raises(ValueError, match="same pages"):
            DiurnalWorkload(mismatched)

    def test_daemon_adapts_across_phases(self, system):
        from repro.core.placement.waterfall import WaterfallModel

        phases = [
            MasimWorkload(
                num_pages=system.space.num_pages,
                ops_per_window=5000,
                hot_fraction=0.1,
                seed=1,
            ),
            MasimWorkload(
                num_pages=system.space.num_pages,
                ops_per_window=5000,
                hot_fraction=0.3,
                seed=2,
            ),
        ]
        workload = DiurnalWorkload(phases, windows_per_phase=3)
        summary = daemon_session(
            system, WaterfallModel(50.0), workload, sampling_rate=1
        ).run(9)
        assert summary.windows == 9
        assert summary.tco_savings > 0
