"""Tests for the page-granular LRU path, the dollar projections and the
IAA hardware-compression tier."""

import pytest

from repro.core.dollars import (
    DEFAULT_DRAM_PRICE,
    FleetProjection,
    compare_policies,
    project_fleet_savings,
)
from repro.core.metrics import RunSummary
from repro.core.placement.lru import run_lru
from repro.engine.build import build_system
from repro.workloads.masim import MasimWorkload


def summary_stub(policy, savings, slowdown):
    return RunSummary(
        workload="w",
        policy=policy,
        slowdown=slowdown,
        tco_savings=savings,
        final_tco_savings=savings,
        avg_latency_ns=40.0,
        p95_latency_ns=40.0,
        p999_latency_ns=40.0,
        total_faults=0,
        migration_ns=0.0,
        solver_ns=0.0,
        profiling_ns=0.0,
        windows=1,
    )


class TestLRUPath:
    def _run(self, **kwargs):
        workload = MasimWorkload(num_pages=2048, ops_per_window=20_000, seed=5)
        system = build_system(workload, mix="standard", seed=5)
        return run_lru(system, workload, 6, **kwargs)

    def test_reclaims_idle_pages(self):
        summary, stats = self._run()
        assert stats.pages_reclaimed > 0
        assert summary["tco_savings"] > 0.05
        assert stats.reclaim_passes == 6

    def test_migration_ops_counted_per_page(self):
        summary, stats = self._run()
        assert summary["migration_ops"] >= stats.pages_reclaimed

    def test_batch_limits_reclaim(self):
        _, unlimited = self._run(reclaim_batch=100_000)
        _, limited = self._run(reclaim_batch=50)
        assert limited.pages_reclaimed <= 50 * 6
        assert limited.pages_reclaimed <= unlimited.pages_reclaimed

    def test_age_protects_recent_pages(self):
        slow, _ = self._run(age_windows=5)
        fast, _ = self._run(age_windows=1)
        # Longer aging reclaims later, so savings accrue more slowly.
        assert slow["tco_savings"] <= fast["tco_savings"] + 1e-9

    def test_validation(self):
        workload = MasimWorkload(num_pages=1024, ops_per_window=1000)
        system = build_system(workload, mix="standard")
        with pytest.raises(ValueError):
            run_lru(system, workload, 1, age_windows=0)
        with pytest.raises(ValueError):
            run_lru(system, workload, 1, reclaim_batch=0)


class TestDollars:
    def test_projection_math(self):
        projection = project_fleet_savings(
            tco_savings=0.30,
            slowdown=0.05,
            fleet_memory_gb=100_000,
            dram_price_per_gb_month=0.40,
        )
        assert isinstance(projection, FleetProjection)
        assert projection.baseline_dollars_month == pytest.approx(40_000)
        assert projection.saved_dollars_month == pytest.approx(12_000)
        assert projection.saved_dollars_year == pytest.approx(144_000)
        assert projection.dollars_per_slowdown_point == pytest.approx(2_400)

    def test_zero_slowdown_infinite_efficiency(self):
        projection = project_fleet_savings(0.1, 0.0, 1000)
        assert projection.dollars_per_slowdown_point == float("inf")

    def test_default_price_used(self):
        projection = project_fleet_savings(0.5, 0.1, 10)
        assert projection.baseline_dollars_month == pytest.approx(
            10 * DEFAULT_DRAM_PRICE
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            project_fleet_savings(1.5, 0.0, 10)
        with pytest.raises(ValueError):
            project_fleet_savings(0.5, -0.1, 10)
        with pytest.raises(ValueError):
            project_fleet_savings(0.5, 0.1, 0)

    def test_compare_policies_rows(self):
        rows = compare_policies(
            [summary_stub("A", 0.4, 0.05), summary_stub("B", 0.2, 0.01)],
            fleet_memory_gb=1000,
        )
        assert len(rows) == 2
        assert rows[0]["saved_per_month"] > rows[1]["saved_per_month"]


class TestIAADriver:
    def test_iaa_dominates_software_tier(self):
        from repro.bench.experiments import exp_iaa_tier

        rows = exp_iaa_tier(windows=5, seed=0)
        by_tier = {r["tier"]: r for r in rows}
        hw = by_tier["hw-iaa-deflate"]
        sw = by_tier["sw-zstd"]
        # Same compression strength, faster engine: at least as much TCO
        # saved with no more slowdown.
        assert hw["tco_savings_pct"] >= sw["tco_savings_pct"] - 1.0
        assert hw["slowdown_pct"] <= sw["slowdown_pct"] + 0.5


class TestGranularityDriver:
    def test_regions_need_fewer_management_ops(self):
        from repro.bench.experiments import ablation_granularity

        rows = ablation_granularity(windows=6, seed=0)
        by_gran = {r["granularity"]: r for r in rows}
        assert (
            by_gran["2MB-regions"]["migration_ops"]
            < by_gran["4KB-LRU"]["migration_ops"] / 10
        )
        # Both designs deliver real savings.
        for row in rows:
            assert row["tco_savings_pct"] > 10.0
