"""Tests for the knob, TCO model, perf model and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import perf, tco
from repro.core.knob import AM_PERF_ALPHA, AM_TCO_ALPHA, Knob
from repro.core.metrics import RunSummary, weighted_percentile
from repro.core.placement.analytical import AnalyticalModel
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.telemetry.window import ProfileRecord

from tests.conftest import make_tiers


class TestKnob:
    def test_validation(self):
        with pytest.raises(ValueError):
            Knob(-0.1)
        with pytest.raises(ValueError):
            Knob(1.1)

    def test_budget_endpoints(self):
        """Figure 5: alpha=1 -> TCO_max (no savings), alpha=0 -> TCO_min."""
        knob_max = Knob(1.0)
        knob_min = Knob(0.0)
        assert knob_max.budget(10.0, 100.0) == 100.0
        assert knob_min.budget(10.0, 100.0) == 10.0

    def test_budget_linear(self):
        assert Knob(0.5).budget(0.0, 10.0) == 5.0

    def test_budget_order_validation(self):
        with pytest.raises(ValueError):
            Knob(0.5).budget(10.0, 1.0)

    def test_presets(self):
        assert Knob.am_tco().alpha == AM_TCO_ALPHA
        assert Knob.am_perf().alpha == AM_PERF_ALPHA
        assert AM_TCO_ALPHA < AM_PERF_ALPHA


class TestTCOModel:
    def test_cost_matrix_shape_and_order(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        assert costs.shape == (space.num_regions, 3)
        # DRAM is the most expensive column everywhere (Eq. 8).
        assert (costs[:, 0] >= costs[:, 1]).all()
        assert (costs[:, 0] >= costs[:, 2]).all()

    def test_mts_relation(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        assert tco.mts(costs) == pytest.approx(
            tco.tco_max(costs) - tco.tco_min(costs)
        )
        assert tco.mts(costs) > 0

    def test_placement_tco(self, space):
        tiers = make_tiers(space)
        costs = tco.cost_matrix(tiers, space.region_compressibility())
        all_dram = np.zeros(space.num_regions, dtype=np.int64)
        assert tco.placement_tco(costs, all_dram) == pytest.approx(
            tco.tco_max(costs)
        )

    def test_matches_actual_system_tco_scale(self, system):
        """Modelled all-DRAM TCO equals the system's measured TCO_max."""
        costs = tco.cost_matrix(system.tiers, system.space.region_compressibility())
        assert tco.tco_max(costs) == pytest.approx(system.tco_max())


class TestPerfModel:
    def test_penalty_matrix(self, space):
        tiers = make_tiers(space)
        hotness = np.array([10.0, 0.0, 5.0, 1.0])
        per_access = perf.per_access_penalty(tiers, space.region_compressibility())
        penalties = perf.penalty_matrix(per_access, hotness, sampling_rate=100)
        assert penalties.shape == (4, 3)
        # DRAM column is exactly zero (Eq. 6: delta over DRAM).
        assert (penalties[:, 0] == 0).all()
        # Zero-hotness regions incur zero modelled penalty anywhere.
        assert (penalties[1] == 0).all()
        # Compressed tier penalty dominates NVMM (fault vs latency delta).
        assert penalties[0, 2] > penalties[0, 1] > 0

    def test_sampling_rate_scales(self, space):
        tiers = make_tiers(space)
        hotness = np.ones(4)
        per_access = perf.per_access_penalty(tiers, space.region_compressibility())
        p1 = perf.penalty_matrix(per_access, hotness, 100)
        p2 = perf.penalty_matrix(per_access, hotness, 200)
        assert np.allclose(p2, 2 * p1)

    def test_perf_overhead(self, space):
        tiers = make_tiers(space)
        hotness = np.ones(4)
        per_access = perf.per_access_penalty(tiers, space.region_compressibility())
        penalties = perf.penalty_matrix(per_access, hotness, 100)
        all_dram = np.zeros(4, dtype=np.int64)
        assert perf.perf_overhead(penalties, all_dram) == 0.0
        all_ct = np.full(4, 2, dtype=np.int64)
        assert perf.perf_overhead(penalties, all_ct) == pytest.approx(
            penalties[:, 2].sum()
        )


def _record(hotness, sampling_rate=100):
    hotness = np.asarray(hotness, dtype=np.float64)
    return ProfileRecord(
        window=0,
        hotness=hotness,
        window_samples=int(hotness.sum()),
        sampling_rate=sampling_rate,
    )


class TestPlanningTables:
    """The analytical model's per-system memo of the static tables."""

    def test_bitwise_equal_to_scalar_functions(self, system):
        tables = AnalyticalModel(Knob(0.5)).planning_tables(system)
        comp = system.space.region_compressibility()
        per_access = perf.per_access_penalty(system.tiers, comp)
        costs = tco.cost_matrix(system.tiers, comp)
        assert tables.per_access.tobytes() == per_access.tobytes()
        assert tables.cost.tobytes() == costs.tobytes()
        assert tables.tco_min == tco.tco_min(costs)
        assert tables.tco_max == tco.tco_max(costs)
        assert not tables.cost.flags.writeable
        assert not tables.per_access.flags.writeable

    @settings(max_examples=25, deadline=None)
    @given(
        hotness=st.lists(st.floats(0, 1e4), min_size=4, max_size=4),
        sampling_rate=st.integers(1, 10_000),
        alpha=st.floats(0.0, 1.0),
    )
    def test_problem_equals_per_window_rebuild(self, hotness, sampling_rate, alpha):
        """Every window's problem is bitwise the one rebuilding all the
        tables from scratch gives."""
        space = AddressSpace(4 * PAGES_PER_REGION, "mixed", seed=7)
        system = TieredMemorySystem(make_tiers(space), space)
        model = AnalyticalModel(Knob(alpha))
        record = _record(hotness, sampling_rate)
        model.build_problem(_record(np.ones(4)), system)  # fill the memo
        problem = model.build_problem(record, system)

        comp = system.space.region_compressibility()
        expected = np.asarray(hotness, dtype=np.float64) * sampling_rate
        penalty = expected[:, None] * perf.per_access_penalty(system.tiers, comp)
        penalty = penalty + 1e-6 * np.arange(len(system.tiers))[None, :]
        costs = tco.cost_matrix(system.tiers, comp)
        budget = Knob(alpha).budget(tco.tco_min(costs), tco.tco_max(costs))
        assert problem.penalty.tobytes() == penalty.tobytes()
        assert problem.cost.tobytes() == costs.tobytes()
        assert problem.budget == budget

    def test_built_once_per_system(self, system, monkeypatch):
        calls = {"penalty": 0, "cost": 0}
        per_access, cost_matrix = perf.per_access_penalty, tco.cost_matrix

        def counted_penalty(*args):
            calls["penalty"] += 1
            return per_access(*args)

        def counted_cost(*args):
            calls["cost"] += 1
            return cost_matrix(*args)

        monkeypatch.setattr(perf, "per_access_penalty", counted_penalty)
        monkeypatch.setattr(tco, "cost_matrix", counted_cost)
        model = AnalyticalModel(Knob(0.3), use_capacity=True)
        for window in range(6):
            model.knob = Knob(0.1 * window)
            model.recommend(_record(np.arange(4.0) * window), system)
        assert calls == {"penalty": 1, "cost": 1}

        # Another system, even one equal in every value, gets its own.
        twin_space = AddressSpace(4 * PAGES_PER_REGION, "mixed", seed=7)
        twin = TieredMemorySystem(make_tiers(twin_space), twin_space)
        tables = model.planning_tables(twin)
        assert calls == {"penalty": 2, "cost": 2}
        assert tables.system is twin
        model.planning_tables(twin)
        assert calls == {"penalty": 2, "cost": 2}

    def test_different_system_gets_fresh_tables(self, system):
        model = AnalyticalModel(Knob(0.5))
        first = model.planning_tables(system)
        other_space = AddressSpace(6 * PAGES_PER_REGION, "mixed", seed=99)
        other = TieredMemorySystem(make_tiers(other_space), other_space)
        fresh = model.planning_tables(other)
        comp = other_space.region_compressibility()
        assert fresh.system is other
        assert fresh.cost.shape == (6, 3)
        assert fresh.cost.tobytes() == tco.cost_matrix(other.tiers, comp).tobytes()
        assert first.cost.shape == (4, 3)

    def test_pickled_model_drops_the_memo(self, system):
        import pickle

        model = AnalyticalModel(Knob(0.5))
        model.planning_tables(system)
        assert pickle.loads(pickle.dumps(model))._tables is None

    def test_am_tco_ilp_resumes_bit_identically(self):
        """An AM-TCO run large enough for the scipy backend (13+ regions)
        resumes from a checkpoint exactly as the uninterrupted run goes
        on: the restored model refills its tables from the restored
        system."""
        from repro.chaos.checkpoint import capture_session, restore_session
        from repro.engine.session import Session
        from repro.engine.spec import ScenarioSpec

        spec = ScenarioSpec(
            workload="memcached-ycsb",
            workload_kwargs={
                "num_pages": 16 * PAGES_PER_REGION,
                "ops_per_window": 4000,
            },
            policy="am-tco",
            windows=5,
            seed=5,
        )
        full = Session(spec)
        for _ in range(5):
            full.run_window()
        assert full.policy.last_solution.backend == "scipy"

        half = Session(spec)
        for _ in range(2):
            half.run_window()
        resumed, _, done = restore_session(capture_session(half))
        assert done == 2
        assert resumed.policy._tables is None
        for _ in range(3):
            resumed.run_window()
        assert resumed.policy._tables.system is resumed.system

        assert len(resumed.records) == len(full.records)
        for got, want in zip(resumed.records, full.records):
            assert np.array_equal(got.placement, want.placement)
            assert np.array_equal(got.faults, want.faults)
            assert np.array_equal(got.pool_pages, want.pool_pages)
            assert got.tco == want.tco
            assert got.access_ns == want.access_ns
        assert np.array_equal(
            resumed.policy.last_solution.assignment,
            full.policy.last_solution.assignment,
        )


class TestWeightedPercentile:
    def test_simple(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 1.0])
        assert weighted_percentile(values, weights, 50.0) == 2.0
        assert weighted_percentile(values, weights, 100.0) == 3.0

    def test_heavy_weight_dominates(self):
        values = np.array([1.0, 100.0])
        weights = np.array([999.0, 1.0])
        assert weighted_percentile(values, weights, 95.0) == 1.0
        assert weighted_percentile(values, weights, 99.95) == 100.0

    def test_errors(self):
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([1.0]), 150.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([]), np.array([]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([-1.0]), 50.0)
        with pytest.raises(ValueError):
            weighted_percentile(np.array([1.0]), np.array([0.0]), 50.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
        st.integers(0, 100),
    )
    def test_matches_numpy_on_unit_weights(self, values, pct):
        values = np.array(values)
        ours = weighted_percentile(values, np.ones_like(values), pct)
        # Nearest-rank percentile always returns an actual sample value
        # bracketing numpy's interpolated percentile.
        assert values.min() <= ours <= values.max()
        assert ours in values


class TestRunSummary:
    def test_relative_performance(self):
        summary = RunSummary(
            workload="w",
            policy="p",
            slowdown=0.25,
            tco_savings=0.3,
            final_tco_savings=0.3,
            avg_latency_ns=40.0,
            p95_latency_ns=50.0,
            p999_latency_ns=500.0,
            total_faults=10,
            migration_ns=1.0,
            solver_ns=1.0,
            profiling_ns=1.0,
            windows=5,
        )
        assert summary.relative_performance == pytest.approx(0.8)
        row = summary.row()
        assert row["slowdown_pct"] == pytest.approx(25.0)
        assert row["tco_savings_pct"] == pytest.approx(30.0)
