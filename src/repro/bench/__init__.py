"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.bench.configs` -- tier mixes: the 12 characterization tiers
  (Figure 2), the standard mix (§8.2) and the spectrum mix (§8.3).
* :mod:`repro.bench.experiments` -- one driver per table/figure, each
  expanding into :class:`~repro.engine.spec.ScenarioSpec` runs.
* :mod:`repro.bench.reporting` -- plain-text table/series printers.

Systems and policies are built by :mod:`repro.engine.build`
(``build_system`` / ``make_policy`` / ``MIXES``).
"""

from repro.bench.configs import (
    characterization_tiers,
    enumerate_tiers,
    make_compressed_tier,
    spectrum_mix,
    standard_mix,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "characterization_tiers",
    "enumerate_tiers",
    "format_series",
    "format_table",
    "make_compressed_tier",
    "spectrum_mix",
    "standard_mix",
]
