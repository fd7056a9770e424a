"""TierScape's analytical placement model (paper §6.2-§6.7).

Every window, the model:

1. extrapolates next-window accesses per region from the cooled hotness
   profile (the proportionality assumption stated after Eq. 10),
2. builds the performance-penalty matrix (Eq. 7) and the TCO cost matrix
   (Eq. 8/10) over all (region, tier) pairs -- the per-access penalty and
   cost tables depend only on the system's tiers and page
   compressibility, so they are filled once per system (see
   :class:`PlanningTables`) and a window only scales the former by its
   expected accesses,
3. derives the TCO budget from the knob: ``TCO_min + alpha * MTS``
   (Eqs. 1-2),
4. solves the resulting multiple-choice-knapsack ILP with the configured
   backend and returns the assignment as a recommendation.

If the budget is infeasible for the current profile (possible only with
capacity constraints), the cheapest placement is recommended instead.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core import perf, tco
from repro.core.knob import Knob
from repro.core.placement.base import PlacementModel
from repro.mem.page import PAGES_PER_REGION
from repro.mem.system import TieredMemorySystem
from repro.solver import PlacementProblem, solve
from repro.telemetry.window import ProfileRecord


class PlanningTables(NamedTuple):
    """One system's static planning tables.

    A session's tiers and its pages' compressibility never change, so
    neither do these.  They are filled by the scalar model functions
    (:func:`repro.core.perf.per_access_penalty`,
    :func:`repro.core.tco.cost_matrix`), exactly as a per-window rebuild
    would fill them, and frozen read-only because every window's problem
    shares them.
    """

    #: The system the tables describe (compared with ``is``).
    system: TieredMemorySystem
    #: Eq. 6 per-access penalty, shape ``(R, T)``.
    per_access: np.ndarray
    #: Eq. 8 modelled cost, shape ``(R, T)``.
    cost: np.ndarray
    #: Eq. 1's ``TCO_min`` and ``TCO_max`` of ``cost``.
    tco_min: float
    tco_max: float
    #: Tie-break added to every penalty row, shape ``(1, T)``: a region
    #: with zero observed hotness has zero modelled penalty in every
    #: tier; prefer faster tiers on ties so alpha = 1 yields the paper's
    #: "everything in DRAM" endpoint (Figure 5).
    tie_break: np.ndarray

    @classmethod
    def build(cls, system: TieredMemorySystem) -> "PlanningTables":
        region_comp = system.space.region_compressibility()
        per_access = perf.per_access_penalty(system.tiers, region_comp)
        costs = tco.cost_matrix(system.tiers, region_comp)
        tie_break = 1e-6 * np.arange(len(system.tiers))[None, :]
        for table in (per_access, costs, tie_break):
            table.flags.writeable = False
        return cls(
            system,
            per_access,
            costs,
            tco.tco_min(costs),
            tco.tco_max(costs),
            tie_break,
        )


class AnalyticalModel(PlacementModel):
    """ILP-driven direct placement across all tiers.

    Args:
        knob: The alpha knob; see :mod:`repro.core.knob`.
        backend: Solver backend name (``"auto"``, ``"scipy"``, ``"greedy"``,
            ``"branch_bound"``).
        name: Display name; defaults to ``AM(alpha=..)``.
        use_capacity: Whether to pass per-tier capacities into the ILP.
            The paper deliberately leaves capacity handling to the
            migration filter to keep the ILP cheap (§6.7); enabling this is
            the ablation the DESIGN.md calls out.
        remote: Model a remote solver (paper Figure 14): solver wall time
            is still recorded, but the daemon does not charge it to the
            local machine.
    """

    def __init__(
        self,
        knob: Knob,
        backend: str = "auto",
        name: str | None = None,
        use_capacity: bool = False,
        remote: bool = False,
    ) -> None:
        self.knob = knob
        self.backend = backend
        self.use_capacity = use_capacity
        self.remote = remote
        self.name = name or f"AM(alpha={knob.alpha:g})"
        self.solver_ns = 0.0
        self.last_solution = None
        self._tables: PlanningTables | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Never carry the memo: a restored model refills it from the
        # restored system on its first window (same scalar path, same
        # values), and a model pickled alone does not drag a system along.
        state["_tables"] = None
        return state

    def planning_tables(self, system: TieredMemorySystem) -> PlanningTables:
        """``system``'s planning tables, filled on first use and refilled
        only when the model is handed a different system."""
        tables = self._tables
        if tables is None or tables.system is not system:
            tables = self._tables = PlanningTables.build(system)
        return tables

    def build_problem(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> PlacementProblem:
        """Assemble the window's ILP instance (steps 1-3 above)."""
        tables = self.planning_tables(system)
        penalties = (
            perf.penalty_matrix(
                tables.per_access, record.hotness, record.sampling_rate
            )
            + tables.tie_break
        )
        budget = self.knob.budget(tables.tco_min, tables.tco_max)
        capacity = None
        if self.use_capacity:
            capacity = self._tier_capacities(system)
        return PlacementProblem(
            penalty=penalties, cost=tables.cost, budget=budget, capacity=capacity
        )

    @staticmethod
    def _tier_capacities(system: TieredMemorySystem) -> np.ndarray:
        """Per-tier capacity in regions (-1 encodes unbounded).

        Compressed tiers count pool pages, so this is conservative for
        them: it assumes a compression ratio of 1.
        """
        return np.array(
            [tier.capacity_pages // PAGES_PER_REGION for tier in system.tiers],
            dtype=np.int64,
        )

    def recommend(
        self, record: ProfileRecord, system: TieredMemorySystem
    ) -> dict[int, int]:
        problem = self.build_problem(record, system)
        solution = solve(problem, backend=self.backend, obs=self.obs)
        self.last_solution = solution
        self.solver_ns += solution.solve_wall_ns
        return {
            region_id: int(tier_idx)
            for region_id, tier_idx in enumerate(solution.assignment)
        }
