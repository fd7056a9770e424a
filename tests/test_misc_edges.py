"""Edge-path tests across smaller modules: clock stats, bit I/O corner
cases, workload guards, runner profile resolution, CLI errors."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.compression.bitio import BitReader, BitWriter
from repro.engine.build import build_system
from repro.mem.stats import ClockStats, TierStats
from repro.workloads.base import Workload
from repro.workloads.graph import PageRankWorkload
from repro.workloads.masim import MasimWorkload


class TestClockStats:
    def test_slowdown_zero_when_idle(self):
        clock = ClockStats()
        assert clock.slowdown == 0.0

    def test_slowdown_formula(self):
        clock = ClockStats(access_ns=150.0, optimal_ns=100.0)
        assert clock.slowdown == pytest.approx(0.5)

    def test_snapshot_fields(self):
        clock = ClockStats(access_ns=1.0, optimal_ns=2.0, migration_ns=3.0)
        snap = clock.snapshot()
        assert snap["access_ns"] == 1.0
        assert snap["migration_ns"] == 3.0

    def test_tier_stats_snapshot(self):
        stats = TierStats(accesses=5, faults=2)
        snap = stats.snapshot()
        assert snap["accesses"] == 5 and snap["faults"] == 2
        stats.accesses = 99
        assert snap["accesses"] == 5  # snapshot is decoupled


class TestBitIOEdges:
    def test_zero_width_write(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.bit_length == 0
        assert writer.getvalue() == b""

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)
        reader = BitReader(b"\x00")
        with pytest.raises(ValueError):
            reader.read_bits(-1)

    def test_partial_final_byte_zero_padded(self):
        writer = BitWriter()
        writer.write_bits(0b1, 1)
        blob = writer.getvalue()
        assert blob == b"\x01"

    def test_getvalue_is_repeatable(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == writer.getvalue()


class TestWorkloadGuards:
    def test_out_of_range_pages_caught(self):
        class Broken(Workload):
            name = "broken"

            def _generate(self, rng):
                return np.array([self.num_pages + 5])

        workload = Broken(num_pages=512, ops_per_window=10)
        with pytest.raises(AssertionError, match="out-of-range"):
            workload.next_window()

    def test_window_counter_advances(self):
        workload = MasimWorkload(num_pages=512, ops_per_window=10)
        assert workload.window == 0
        workload.next_window()
        assert workload.window == 1

    def test_rss_bytes(self):
        workload = MasimWorkload(num_pages=1024, ops_per_window=10)
        assert workload.rss_bytes == 4 * 1024 * 1024


class TestRunnerProfileResolution:
    def test_graph_workload_gets_nci_profile(self):
        workload = PageRankWorkload(scale=12, edge_factor=4)
        system = build_system(workload, mix="standard")
        # 'pagerank-s12' matches the 'pagerank' registry entry -> nci.
        assert system.space.compressibility.mean() < 0.3

    def test_unknown_workload_defaults_to_mixed(self):
        workload = MasimWorkload(num_pages=1024)
        workload.name = "something-custom"
        system = build_system(workload, mix="standard")
        assert 0.2 < system.space.compressibility.mean() < 0.5


class TestCLIErrors:
    def test_unknown_policy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {"workload": "masim", "policy": "numa-balancing", "windows": 1}
            )
        )
        code = main(["run", str(path)])
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({"workload": "hadoop", "policy": "gswap", "windows": 1})
        )
        code = main(["run", str(path)])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_policy_with_alpha(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {"workload": "masim", "policy": "am", "alpha": 0.5, "windows": 2}
            )
        )
        code = main(["run", str(path)])
        assert code == 0
        assert "AM(alpha=0.5)" in capsys.readouterr().out
