"""Arena description: the policy x workload x α grid, expanded to cells.

An :class:`ArenaSpec` validates its axes eagerly (policy names against
the live :mod:`repro.policies` registry, workloads against the workload
registry) and expands into one :class:`ArenaCell` per grid point.  Only
α-requiring policies fan out over the α axis; the rest get a single
cell.  Cells use common random numbers: a cell's scenario seed is a
``SeedSequence`` child of the arena seed keyed by a stable digest of its
workload name (and a replicate index, 0 for now), never by its policy,
its α or its position in the expansion.  Every policy therefore races
on the same workload stream, compressibility draw and PEBS stream, and
adding or reordering axis entries leaves every other cell's seed alone.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field

from repro.core.seeding import child_seed
from repro.engine.spec import ScenarioSpec
from repro.policies import validate_policy
from repro.workloads.registry import WORKLOADS

#: The default workload axis: a stable hot-set microbenchmark, a paper
#: Table 2 service, and the adversarial thrash stressor.
DEFAULT_WORKLOADS = ("masim", "memcached-ycsb", "pingpong")

#: The default policy axis of ``python -m repro arena``.
DEFAULT_POLICIES = ("waterfall", "am-tco", "tpp", "jenga", "obase")


@dataclass(frozen=True)
class ArenaCell:
    """One grid point: a policy (at one α) on one workload."""

    cell_id: str
    policy: str
    workload: str
    alpha: float | None
    seed: int
    scenario: ScenarioSpec


@dataclass(frozen=True)
class ArenaSpec:
    """Declarative description of one arena sweep.

    Attributes:
        policies: Policy axis (live-registry names).
        workloads: Workload axis (registry names).
        alphas: α axis; only policies with ``requires_alpha`` expand
            over it.
        mix: Tier mix every cell uses.
        windows: Profile windows per cell.
        scale: Size factor applied to each workload's scalable kwargs.
        percentile: Threshold knob for threshold-based policies.
        seed: Arena base seed; each workload's scenario seed is derived
            from it (:func:`scenario_seed`).
        node_memory_gb: Modeled per-node memory for the dollar column.
        workload_kwargs: Extra factory kwargs applied to every cell
            (tests shrink cells with ``num_pages``/``ops_per_window``).
        target_slowdown: When set, every ``adaptive`` cell's scenario
            gets this p99 SLA budget (an ``adaptive`` knob block); other
            policies are unaffected.  ``None`` keeps the controller
            defaults.
        adaptive: Full adaptive knob block applied to ``adaptive``
            cells (an :class:`~repro.adaptive.controller.AdaptiveConfig`
            dict); overrides ``target_slowdown`` when both are given.
    """

    policies: tuple[str, ...] = DEFAULT_POLICIES
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS
    alphas: tuple[float, ...] = (0.3, 0.7)
    mix: str = "standard"
    windows: int = 8
    scale: float = 0.25
    percentile: float = 25.0
    seed: int = 0
    node_memory_gb: float = 256.0
    workload_kwargs: dict = field(default_factory=dict)
    target_slowdown: float | None = None
    adaptive: dict | None = None

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("an arena needs at least one policy")
        if not self.workloads:
            raise ValueError("an arena needs at least one workload")
        # Alphas compare by the label cell ids carry, so two values that
        # print alike cannot yield two cells with one id.
        for axis, labels in (
            ("policies", list(self.policies)),
            ("workloads", list(self.workloads)),
            ("alphas", [f"{alpha:g}" for alpha in self.alphas]),
        ):
            repeated = sorted({v for v in labels if labels.count(v) > 1})
            if repeated:
                raise ValueError(f"duplicate {axis}: {', '.join(repeated)}")
        for policy in self.policies:
            info = validate_policy(policy)
            if info.requires_alpha and not self.alphas:
                raise ValueError(
                    f"policy {policy!r} requires alphas, but none given"
                )
        for workload in self.workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; "
                    f"available: {sorted(WORKLOADS)}"
                )
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.target_slowdown is not None and self.target_slowdown <= 0:
            raise ValueError("target_slowdown must be > 0")
        if self.adaptive is not None:
            from repro.adaptive import AdaptiveConfig

            object.__setattr__(
                self,
                "adaptive",
                AdaptiveConfig.from_dict(self.adaptive).to_dict(),
            )

    def _adaptive_block(self) -> dict | None:
        """The adaptive knob block ``adaptive`` cells receive.

        ``target_slowdown`` selects the ``mean`` signal: the arena's
        ``sla_violations`` verdict is counted on mean window slowdown,
        and the controller must steer by the same signal it is judged
        on.
        """
        if self.adaptive is not None:
            return dict(self.adaptive)
        if self.target_slowdown is not None:
            return {
                "target_slowdown": self.target_slowdown,
                "signal": "mean",
            }
        return None

    def to_dict(self) -> dict:
        data = asdict(self)
        data["policies"] = list(self.policies)
        data["workloads"] = list(self.workloads)
        data["alphas"] = list(self.alphas)
        data["workload_kwargs"] = dict(self.workload_kwargs)
        return data

    def grid(self) -> list[tuple[str, str, float | None]]:
        """The expansion order: policy-major, workload, then α."""
        points: list[tuple[str, str, float | None]] = []
        for policy in self.policies:
            info = validate_policy(policy)
            alphas = self.alphas if info.requires_alpha else (None,)
            for workload in self.workloads:
                for alpha in alphas:
                    points.append((policy, workload, alpha))
        return points

    def cells(self) -> list[ArenaCell]:
        """Expand into per-cell scenario specs with shared workload seeds."""
        cells = []
        adaptive_block = self._adaptive_block()
        for policy, workload, alpha in self.grid():
            seed = scenario_seed(self.seed, workload)
            tag = f"{policy}@{alpha:g}" if alpha is not None else policy
            cell_id = f"{tag}/{workload}"
            scenario = ScenarioSpec(
                name=cell_id,
                workload=workload,
                workload_kwargs=dict(self.workload_kwargs),
                scale=self.scale,
                mix=self.mix,
                policy=policy,
                percentile=self.percentile,
                alpha=alpha,
                windows=self.windows,
                seed=seed,
                adaptive=adaptive_block if policy == "adaptive" else None,
            )
            cells.append(
                ArenaCell(
                    cell_id=cell_id,
                    policy=policy,
                    workload=workload,
                    alpha=alpha,
                    seed=seed,
                    scenario=scenario,
                )
            )
        return cells


def scenario_seed(arena_seed: int, workload: str) -> int:
    """The scenario seed every cell of ``workload`` shares.

    A pure function of the arena seed and the workload name, digested
    with CRC-32 because, unlike ``hash()``, it is the same in every
    process.  Policy, α and grid position play no part.  The last key
    is the replicate slot: a later replicates axis keeps replicate 0,
    and with it every committed result.
    """
    return child_seed(arena_seed, zlib.crc32(workload.encode()), 0)
