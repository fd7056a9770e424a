"""Span tracing from outside the program: wrap public entry points.

:func:`traced` patches the simulator's layer boundaries for the length
of a ``with`` block and records one span per call -- name, id, parent id,
start and end (``perf_counter_ns``) -- plus per-layer counts read at the
same boundaries.  Spans stay in memory; :meth:`Recorder.dump` writes
them out once the run ends.  Nothing inside ``src/`` is edited: every
wrapper calls straight through and returns the wrapped call's result
unchanged, so a traced run's modeled outputs equal an untraced run's
(the benchmark checks this on every traced run).

Boundaries (span name -> entry point):

=====================  ==========================================
``engine.build``       ``Session.__init__``
``engine.window``      ``Session.run_window``
``workloads.generate`` ``session.workload.next_window``
``mem.fault_path``     ``session.system.access_batch``
``telemetry.profile``  ``profiler.record`` and ``profiler.end_window``
``placement.solve``    ``session.policy.recommend``
``solver.milp``        ``scipy.optimize.milp`` as the scipy backend
                       calls it
``placement.filter``   ``daemon.filter.apply``
``migration.migrate``  ``daemon.engine.apply``
``stats.rollup``       ``tier_rollup`` as the daemon calls it
``adaptive.observe``   ``session.policy.observe_window``
``arena.cell``         the arena's per-cell worker body
=====================  ==========================================

Self time of a span is its duration minus its children's.  Every span
opened inside ``engine.window`` is one of the layers above, so the
layers' self times plus the window spans' own self time
(``engine.session_self_ms``) add up to the window time exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np

#: Layers whose self time partitions ``engine.window``: metric name ->
#: span name.  ``solver.build_ms`` is the solve span's self time (solve
#: minus ``milp``), ``engine.session_self_ms`` the window span's own.
WINDOW_PARTITION = {
    "workloads.generate_ms": "workloads.generate",
    "mem.fault_path_ms": "mem.fault_path",
    "telemetry.profile_ms": "telemetry.profile",
    "solver.build_ms": "placement.solve",
    "solver.milp_ms": "solver.milp",
    "placement.filter_ms": "placement.filter",
    "migration.migrate_ms": "migration.migrate",
    "stats.rollup_ms": "stats.rollup",
    "adaptive.observe_ms": "adaptive.observe",
    "engine.session_self_ms": "engine.window",
}


class Recorder:
    """In-memory span store plus the counts read at span boundaries."""

    def __init__(self) -> None:
        # (name, span_id, parent_id, start_ns, end_ns)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((name, span_id, parent, start, end))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        """Inclusive durations of every ``name`` span, in completion order."""
        return [end - start for n, _, _, start, end in self.spans if n == name]

    def window_partition_ns(self) -> tuple[int, dict[str, int]]:
        """Total window time and its split into layer self times.

        Raises ``RuntimeError`` when the layers do not account for the
        window time exactly, i.e. when a span inside a window belongs to
        no layer of :data:`WINDOW_PARTITION`.
        """
        by_id = {s[1]: s for s in self.spans}

        def in_window(span) -> bool:
            parent = span[2]
            while parent:
                owner = by_id[parent]
                if owner[0] == "engine.window":
                    return True
                parent = owner[2]
            return False

        child_ns: dict[int, int] = {}
        for _, _, parent, start, end in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        split = dict.fromkeys(WINDOW_PARTITION.values(), 0)
        for span in self.spans:
            name, span_id, _, start, end = span
            if name != "engine.window" and not in_window(span):
                continue
            if name not in split:
                raise RuntimeError(f"span {name!r} inside a window has no layer")
            split[name] += (end - start) - child_ns.get(span_id, 0)
        total = sum(self.durations_ns("engine.window"))
        if sum(split.values()) != total:
            raise RuntimeError("layer self times do not add up to window time")
        return total, split

    def dump(self, path: Path) -> Path:
        """Write every span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "id": i, "parent": p, "start_ns": s, "end_ns": e}
            for n, i, p, s, e in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}))
        return path


def _instrument_session(rec: Recorder, session) -> None:
    """Wrap one freshly built session's per-instance entry points."""
    workload, system, daemon = session.workload, session.system, session.daemon
    workload.next_window = rec.wrap("workloads.generate", workload.next_window)

    access_batch = system.access_batch

    def traced_access_batch(*args, **kwargs):
        with rec.span("mem.fault_path"):
            batch = access_batch(*args, **kwargs)
        rec.add("mem.accesses", batch.accesses)
        rec.add("mem.faults", batch.faults)
        return batch

    system.access_batch = traced_access_batch

    profiler = daemon.profiler
    profiler.record = rec.wrap("telemetry.profile", profiler.record)
    profiler.end_window = rec.wrap("telemetry.profile", profiler.end_window)

    policy = session.policy
    policy.recommend = rec.wrap("placement.solve", policy.recommend)
    observe = getattr(policy, "observe_window", None)
    controller = getattr(policy, "controller", None)
    if observe is not None:

        def traced_observe(*args, **kwargs):
            steps = getattr(controller, "steps_total", 0)
            with rec.span("adaptive.observe"):
                out = observe(*args, **kwargs)
            rec.add("adaptive.steps", getattr(controller, "steps_total", 0) - steps)
            return out

        policy.observe_window = traced_observe

    filter_apply = daemon.filter.apply

    def traced_filter(moves, *args, **kwargs):
        with rec.span("placement.filter"):
            kept = filter_apply(moves, *args, **kwargs)
        rec.add("placement.recommended", len(moves))
        rec.add("placement.kept", len(kept))
        return kept

    daemon.filter.apply = traced_filter

    engine = daemon.engine
    engine_apply = engine.apply

    def traced_migrate(*args, **kwargs):
        stats = engine.stats
        pages, regions, rollbacks = (
            stats.pages_moved, stats.regions_moved, stats.rollbacks
        )
        with rec.span("migration.migrate"):
            out = engine_apply(*args, **kwargs)
        rec.add("migration.pages_moved", stats.pages_moved - pages)
        rec.add("migration.regions_moved", stats.regions_moved - regions)
        rec.add("migration.rollbacks", stats.rollbacks - rollbacks)
        return out

    engine.apply = traced_migrate


@contextlib.contextmanager
def traced(rec: Recorder):
    """Patch the layer boundaries to record into ``rec``; undo on exit."""
    import repro.arena.runner as arena_runner
    import repro.core.daemon as daemon_mod
    import repro.solver.scipy_backend as scipy_backend
    from repro.engine.session import Session

    saved = [
        (Session, "__init__", Session.__init__),
        (Session, "run_window", Session.run_window),
        (daemon_mod, "tier_rollup", daemon_mod.tier_rollup),
        (scipy_backend, "milp", scipy_backend.milp),
        (arena_runner, "_run_cell", arena_runner._run_cell),
    ]
    init, run_window, rollup, milp, run_cell = (s[2] for s in saved)

    def traced_init(self, *args, **kwargs):
        with rec.span("engine.build"):
            init(self, *args, **kwargs)
            _instrument_session(rec, self)

    def traced_run_window(self, *args, **kwargs):
        inner = getattr(self.policy, "primary", self.policy)
        thrash = getattr(inner, "thrash_total", 0)
        with rec.span("engine.window"):
            out = run_window(self, *args, **kwargs)
        rec.add("policies.thrash", getattr(inner, "thrash_total", 0) - thrash)
        rec.add("engine.windows", 1)
        return out

    def traced_rollup(*args, **kwargs):
        with rec.span("stats.rollup"):
            out = rollup(*args, **kwargs)
        rec.add("allocators.pool_pages", float(np.sum(out["pool_pages"])))
        return out

    def traced_milp(*args, **kwargs):
        with rec.span("solver.milp"):
            out = milp(*args, **kwargs)
        rec.add("solver.solves", 1)
        rec.add("solver.nonoptimal", int(out.status != 0))
        return out

    Session.__init__ = traced_init
    Session.run_window = traced_run_window
    daemon_mod.tier_rollup = traced_rollup
    scipy_backend.milp = traced_milp
    arena_runner._run_cell = rec.wrap("arena.cell", run_cell)
    try:
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
