"""SLA-aware knob auto-tuning of the analytical model.

The paper's abstract promises "the best SLA-aware performance per dollar"
and §6.3 exposes the alpha knob -- but leaves choosing alpha to the
operator.  :func:`run_sla_tuned` closes the loop with the
:data:`~repro.adaptive.controller.ONE_KNOB` controller: given a slowdown
budget (e.g. "at most 5 % below DRAM performance"), it retunes alpha
after every profile window from the *measured* slowdown, converging to
the most aggressive TCO setting the SLA tolerates.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive.controller import ONE_KNOB, AdaptiveController
from repro.core.knob import Knob


def run_sla_tuned(
    system,
    workload,
    target_slowdown: float,
    num_windows: int,
    sampling_rate: int = 100,
    solver_backend: str = "auto",
    seed: int = 0,
):
    """Run an engine session whose analytical model is retuned every
    window (the per-window knob update happens between
    :meth:`~repro.engine.session.Session.run_window` calls).

    Returns:
        ``(summary, controller, per_window_alphas)``.
    """
    from repro.core.placement.analytical import AnalyticalModel
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    controller = AdaptiveController(
        ONE_KNOB.with_(target_slowdown=target_slowdown)
    )
    model = AnalyticalModel(Knob(controller.alpha), backend=solver_backend)
    session = Session(
        ScenarioSpec(
            windows=num_windows,
            sampling_rate=sampling_rate,
            solver_backend=solver_backend,
            seed=seed,
            daemon_seed=seed,
        ),
        workload=workload,
        system=system,
        policy=model,
    )
    alphas = []
    optimal_per_access = system.dram.media.read_ns
    for _ in range(num_windows):
        alphas.append(model.knob.alpha)
        record = session.run_window()
        window_optimal = record.accesses * optimal_per_access
        window_slowdown = (
            (record.access_ns - window_optimal) / window_optimal
            if window_optimal
            else 0.0
        )
        controller.observe(0.0, mean_slowdown=window_slowdown)
        model.knob = Knob(controller.alpha)
    summary = session.summary()
    summary.extras["alphas"] = np.array(alphas)
    summary.extras["sla_violations"] = controller.violations
    return summary, controller, alphas
