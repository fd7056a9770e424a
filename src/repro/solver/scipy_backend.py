"""MILP backend using scipy's HiGHS solver.

Plays the role of Google OR-Tools in the paper's implementation (§7.3): an
exact mixed-integer solver fed the flattened ``x[r, t]`` binaries with the
assignment-equality, budget and capacity rows described in
:mod:`repro.solver.problem`.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csc_array

from repro.solver.problem import PlacementProblem, Solution


def _constraint_matrix(problem: PlacementProblem) -> LinearConstraint:
    """Every ILP row as one CSC matrix, built from index arithmetic.

    Rows come in the order stacking the separate blocks would give them:
    the ``R`` one-tier-per-region equalities, the budget row, then one
    capacity row per bounded tier (``capacity[t] >= 0``).  Column
    ``j = r * T + t`` (the flattened ``x[r, t]``) therefore holds, in
    ascending row order, a 1 in equality row ``r``, ``cost[r, t]`` in the
    budget row unless it is zero (a dense row keeps no structural zeros
    once sparse), and a 1 in tier ``t``'s capacity row if it has one.
    HiGHS gets the same entries, bounds and order as from a stacked list
    of constraints, so it returns the same answer.
    """
    num_regions, num_tiers = problem.penalty.shape
    n = num_regions * num_tiers
    cost = problem.cost.reshape(n)
    bounded = np.zeros(num_tiers, dtype=bool)
    if problem.capacity is not None:
        bounded = problem.capacity >= 0
    num_bounded = int(bounded.sum())
    cap_row = np.full(num_tiers, -1, dtype=np.int32)
    cap_row[bounded] = num_regions + 1 + np.arange(num_bounded, dtype=np.int32)

    # Candidate entries per column: (equality, budget, capacity).
    rows = np.empty((n, 3), dtype=np.int32)
    rows[:, 0] = np.repeat(np.arange(num_regions, dtype=np.int32), num_tiers)
    rows[:, 1] = num_regions
    rows[:, 2] = np.tile(cap_row, num_regions)
    values = np.ones((n, 3))
    values[:, 1] = cost
    keep = np.ones((n, 3), dtype=bool)
    keep[:, 1] = cost != 0
    keep[:, 2] = np.tile(bounded, num_regions)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    matrix = csc_array(
        (values[keep], rows[keep], indptr),
        shape=(num_regions + 1 + num_bounded, n),
    )

    lb = np.full(matrix.shape[0], -np.inf)
    lb[:num_regions] = 1.0
    ub = np.ones(matrix.shape[0])
    ub[num_regions] = problem.budget
    if num_bounded:
        ub[num_regions + 1 :] = problem.capacity[bounded]
    return LinearConstraint(matrix, lb=lb, ub=ub)


def solve_scipy(problem: PlacementProblem, time_limit_s: float = 30.0) -> Solution:
    """Solve the placement ILP exactly with scipy/HiGHS.

    Args:
        problem: The placement instance.
        time_limit_s: HiGHS wall-clock limit; on timeout the incumbent is
            returned with ``optimal=False``.
    """
    t_start = time.perf_counter_ns()
    num_regions = problem.num_regions
    num_tiers = problem.num_tiers
    n = num_regions * num_tiers

    c = problem.penalty.reshape(n)
    constraint = _constraint_matrix(problem)

    result = milp(
        c=c,
        constraints=constraint,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit_s},
    )
    wall_ns = time.perf_counter_ns() - t_start

    if result.x is None:
        # Budget infeasible: return the cheapest placement, flagged.
        cheapest = np.asarray(problem.cost.argmin(axis=1), dtype=np.int64)
        objective, total_cost = problem.evaluate(cheapest)
        return Solution(
            assignment=cheapest,
            objective=objective,
            cost=total_cost,
            feasible=False,
            backend="scipy",
            solve_wall_ns=wall_ns,
            optimal=False,
        )

    x = result.x.reshape(num_regions, num_tiers)
    assignment = np.asarray(x.argmax(axis=1), dtype=np.int64)
    objective, total_cost = problem.evaluate(assignment)
    return Solution(
        assignment=assignment,
        objective=objective,
        cost=total_cost,
        feasible=problem.is_feasible(assignment),
        backend="scipy",
        solve_wall_ns=wall_ns,
        optimal=bool(result.status == 0),
        extras={"milp_status": int(result.status)},
    )
