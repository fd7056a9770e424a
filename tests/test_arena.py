"""Tests for the policy arena (repro.arena) and its CLI surface.

The micro-arena golden pins one small cell per competitor policy
byte-for-byte: everything the leaderboard ranks is modeled, so the
serialized rows must reproduce exactly across runs, worker counts and
refactors.  Regenerate (after an intentional behaviour change) with::

    PYTHONPATH=src python tests/test_arena.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.arena.runner as runner
from repro.arena import ArenaSpec, leaderboard_rows, run_arena
from repro.cli import main
from repro.engine.session import Session
from repro.workloads.base import Workload

GOLDEN = Path(__file__).parent / "goldens" / "arena_cells.json"

#: One cell per competitor policy (plus the analytical baseline), small
#: enough for CI but large enough that tpp actually thrashes.
MICRO_SPEC = ArenaSpec(
    policies=("waterfall", "am", "tpp", "jenga", "obase"),
    workloads=("pingpong",),
    alphas=(0.5,),
    windows=4,
    scale=1.0,
    seed=11,
    workload_kwargs={"num_pages": 2048, "ops_per_window": 4000},
)


def _rows_text(arena) -> str:
    return (
        json.dumps(leaderboard_rows(arena.cells), indent=2, sort_keys=True)
        + "\n"
    )


class TestSpec:
    def test_grid_expands_alpha_only_for_analytical(self):
        points = MICRO_SPEC.grid()
        assert ("am", "pingpong", 0.5) in points
        assert ("tpp", "pingpong", None) in points
        assert len(points) == 5

    CRN_SPEC = ArenaSpec(
        policies=("waterfall", "am", "tpp", "adaptive"),
        workloads=("pingpong", "masim", "tenant-churn"),
        alphas=(0.3, 0.7),
    )

    @staticmethod
    def _seeds(spec) -> dict[str, int]:
        return {c.cell_id: c.seed for c in spec.cells()}

    def test_cells_of_a_workload_share_one_seed(self):
        by_workload: dict[str, set[int]] = {}
        for cell in self.CRN_SPEC.cells():
            assert cell.scenario.seed == cell.seed
            by_workload.setdefault(cell.workload, set()).add(cell.seed)
        assert all(len(seeds) == 1 for seeds in by_workload.values())
        shared = [seeds.pop() for seeds in by_workload.values()]
        assert len(set(shared)) == len(shared)

    def test_seeds_ignore_axis_order_and_membership(self):
        seeds = self._seeds(self.CRN_SPEC)
        for changes in (
            {"policies": ("adaptive", "tpp", "am", "waterfall")},
            {"workloads": ("tenant-churn", "pingpong", "masim")},
            {"alphas": (0.7, 0.3)},
            {"policies": ("jenga", "waterfall", "am", "tpp", "adaptive")},
            {"policies": ("am",)},
            {"workloads": ("xsbench", "masim", "pingpong", "tenant-churn")},
            {"workloads": ("masim",)},
        ):
            other = self._seeds(
                ArenaSpec(**{**self.CRN_SPEC.to_dict(), **changes})
            )
            common = seeds.keys() & other.keys()
            assert common, changes
            assert {k: other[k] for k in common} == {
                k: seeds[k] for k in common
            }, changes

    def test_seed_depends_on_arena_seed(self):
        other = ArenaSpec(**{**self.CRN_SPEC.to_dict(), "seed": 1})
        assert self._seeds(other)["tpp/masim"] != self._seeds(
            self.CRN_SPEC
        )["tpp/masim"]

    @pytest.mark.parametrize(
        "axis, values, shown",
        [
            ("policies", ("tpp", "am", "tpp"), "tpp"),
            ("workloads", ("pingpong", "masim", "pingpong"), "pingpong"),
            ("alphas", (0.5, 0.3, 0.50), "0.5"),
        ],
    )
    def test_duplicate_axis_entries_rejected(self, axis, values, shown):
        with pytest.raises(ValueError, match=f"duplicate {axis}: {shown}$"):
            ArenaSpec(**{axis: values})

    def test_unknown_policy_rejected_eagerly(self):
        with pytest.raises(ValueError, match="available"):
            ArenaSpec(policies=("watrfall",))

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(ValueError, match="available"):
            ArenaSpec(workloads=("nope",))


class TestRunner:
    @pytest.fixture(scope="class")
    def arena_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("arena")
        arena = run_arena(MICRO_SPEC, out_dir=out)
        return out, arena

    def test_all_cells_ok(self, arena_dir):
        _, arena = arena_dir
        assert arena.all_ok
        assert arena.counts() == {"ok": 5, "failed": 0, "skipped": 0}

    def test_manifest_schema(self, arena_dir):
        out, arena = arena_dir
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["counts"] == {"ok": 5, "failed": 0, "skipped": 0}
        assert doc["spec"]["seed"] == 11
        by_id = {c["cell_id"]: c for c in doc["cells"]}
        assert set(by_id) == {c.cell_id for c in arena.cells}
        for cell in arena.cells:
            entry = by_id[cell.cell_id]
            assert entry["status"] == "ok"
            assert entry["seed"] == cell.seed
            assert entry["error"] == ""

    def test_golden_byte_identical(self, arena_dir):
        """Satellite 3: one pinned cell per policy, byte-for-byte."""
        _, arena = arena_dir
        assert _rows_text(arena) == GOLDEN.read_text()

    def test_jobs_do_not_change_artifacts(self, arena_dir, tmp_path):
        out1, _ = arena_dir
        run_arena(MICRO_SPEC, out_dir=tmp_path, jobs=2)
        for name in (
            "leaderboard.md",
            "leaderboard.csv",
            "leaderboard.json",
            "figures/cells.json",
        ):
            assert (tmp_path / name).read_bytes() == (
                out1 / name
            ).read_bytes(), name

    def test_figure_scripts_regenerate(self, arena_dir):
        out, _ = arena_dir
        figures = out / "figures"
        for script, header in (
            ("fig_tco_frontier.py", "frontier"),
            ("fig_thrash.py", "thrash"),
        ):
            proc = subprocess.run(
                [sys.executable, script],
                cwd=figures,
                capture_output=True,
                text=True,
                check=True,
            )
            assert header in proc.stdout

    def test_leaderboard_ranks_and_thrash_column(self, arena_dir):
        _, arena = arena_dir
        rows = leaderboard_rows(arena.cells)
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        thrash = {r["policy"]: r["thrash"] for r in rows}
        assert thrash["tpp"] > 0
        assert thrash["jenga"] == 0
        for row in rows:
            assert row["thrash_metric"] == float(row["thrash"])

    def test_adding_a_policy_leaves_other_rows_byte_identical(self, arena_dir):
        _, arena = arena_dir
        grown = run_arena(
            ArenaSpec(
                **{
                    **MICRO_SPEC.to_dict(),
                    "policies": ("adaptive", *MICRO_SPEC.policies),
                }
            )
        )
        before = {c.cell_id: json.dumps(c.row) for c in arena.cells}
        after = {c.cell_id: json.dumps(c.row) for c in grown.cells}
        assert set(after) - set(before) == {"adaptive/pingpong"}
        assert {k: after[k] for k in before} == before

    def test_mix_mismatch_reports_skipped_not_failed(self):
        spec = ArenaSpec(
            policies=("jenga",),
            workloads=("pingpong",),
            mix="spectrum",
            windows=1,
            scale=1.0,
            workload_kwargs={"num_pages": 1024, "ops_per_window": 500},
        )
        arena = run_arena(spec)
        assert [c.status for c in arena.cells] == ["skipped"]
        assert "standard mix" in arena.cells[0].error
        assert not arena.all_ok


#: Two workloads, one of them phase-changing, and an α fan-out: five
#: cells per workload share each stream.
MEMO_SPEC = ArenaSpec(
    policies=("waterfall", "am", "tpp", "adaptive"),
    workloads=("pingpong", "flash-crowd"),
    alphas=(0.3, 0.7),
    windows=3,
    scale=1.0,
    seed=5,
    workload_kwargs={"num_pages": 1024, "ops_per_window": 3000},
)


class TestStreamMemo:
    @staticmethod
    def _rows() -> str:
        return json.dumps(
            leaderboard_rows(run_arena(MEMO_SPEC).cells), sort_keys=True
        )

    @pytest.fixture(scope="class")
    def memo_off_rows(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "STREAM_MEMO_BYTES", 0)
            return self._rows()

    @pytest.fixture
    def generated(self, monkeypatch):
        """Workload names in the order cells generated (not replayed) them."""
        names: list[str] = []
        make = runner.make_workload

        def counting(name, **kwargs):
            names.append(name)
            return make(name, **kwargs)

        monkeypatch.setattr(runner, "make_workload", counting)
        return names

    def test_memo_on_equals_memo_off(self, memo_off_rows, generated):
        assert self._rows() == memo_off_rows
        assert generated == ["pingpong", "flash-crowd"]
        assert runner._streams is None

    def test_zero_budget_generates_every_cell(
        self, memo_off_rows, generated, monkeypatch
    ):
        monkeypatch.setattr(runner, "STREAM_MEMO_BYTES", 0)
        assert self._rows() == memo_off_rows
        assert len(generated) == len(MEMO_SPEC.cells())

    def test_budget_bounds_what_is_kept(self):
        cell = MEMO_SPEC.cells()[0]
        memo = runner.StreamMemo(budget=3 * 3000 * 2 - 1)
        first = memo.workload(cell.scenario)
        for _ in range(3):
            assert first.next_window().dtype == np.int64
        memo.keep(cell.scenario, first)
        assert first.batches is None and memo.nbytes == 0

        memo = runner.StreamMemo(budget=3 * 3000 * 2)
        recorder = memo.workload(cell.scenario)
        batches = [recorder.next_window() for _ in range(3)]
        memo.keep(cell.scenario, recorder)
        assert memo.nbytes == 3 * 3000 * 2
        assert [b.dtype for b in recorder.batches] == [np.uint16] * 3
        replay = memo.workload(cell.scenario)
        assert type(replay) is not type(recorder)
        for batch in batches:
            assert np.array_equal(replay.next_window(), batch)
        assert (replay.name, replay.num_pages, replay.write_fraction) == (
            recorder.name,
            recorder.num_pages,
            recorder.write_fraction,
        )

    def test_mutating_a_batch_cannot_reach_the_memo(
        self, memo_off_rows, monkeypatch
    ):
        next_window = Workload.next_window

        def scribbling(self):
            batch = next_window(self)
            handed = batch.copy()
            batch[:] = 0  # a consumer writing into what it was handed
            return handed

        monkeypatch.setattr(Workload, "next_window", scribbling)
        assert self._rows() == memo_off_rows

    def test_failed_cell_leaves_no_stream(
        self, memo_off_rows, generated, monkeypatch
    ):
        run_window = Session.run_window

        def failing(self, *args, **kwargs):
            if self.spec.name == "waterfall/pingpong" and len(self.records) == 2:
                raise RuntimeError("injected mid-run failure")
            return run_window(self, *args, **kwargs)

        monkeypatch.setattr(Session, "run_window", failing)
        arena = run_arena(MEMO_SPEC)
        failed = [c.cell_id for c in arena.cells if c.status != "ok"]
        assert failed == ["waterfall/pingpong"]
        assert generated == ["pingpong", "flash-crowd", "pingpong"]
        expected = {r["cell_id"]: r for r in json.loads(memo_off_rows)}
        for row in leaderboard_rows(arena.cells):
            row.pop("rank")
            want = dict(expected[row["cell_id"]])
            want.pop("rank")
            assert json.dumps(row, sort_keys=True) == json.dumps(
                want, sort_keys=True
            )
        assert runner._streams is None


class TestCli:
    def test_unknown_policy_exits_2_with_names(self, capsys):
        assert main(["arena", "--policies", "nope"]) == 2
        err = capsys.readouterr().err
        assert "invalid arena configuration" in err
        assert "waterfall" in err and "jenga" in err

    def test_run_scenario_unknown_policy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"workload": "masim", "policy": "nope"}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown policy" in err and "waterfall" in err

    def test_duplicate_policy_exits_2(self, capsys):
        assert main(["arena", "--policies", "tpp,tpp"]) == 2
        err = capsys.readouterr().err
        assert "duplicate policies: tpp" in err

    def test_list_shows_policy_backends(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Policy backends" in out
        for name in ("tpp", "jenga", "obase", "waterfall"):
            assert name in out
        assert "arena" in out

    def test_arena_end_to_end(self, capsys, tmp_path):
        code = main(
            [
                "arena",
                "--policies", "waterfall,tpp",
                "--workloads", "pingpong",
                "--windows", "2",
                "--seed", "11",
                "--out", str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rank" in out and "waterfall" in out
        assert (tmp_path / "out" / "leaderboard.md").exists()
        doc = json.loads(
            (tmp_path / "out" / "manifest.json").read_text()
        )
        assert all(c["status"] == "ok" for c in doc["cells"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_rows_text(run_arena(MICRO_SPEC)))
    print(f"captured {GOLDEN}")
