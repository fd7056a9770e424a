"""Node checkpoint/resume: pickle the simulation, not the harness.

A checkpoint is one ``pickle.dumps`` of the session's *deterministic*
simulation state: workload stream (mid-RNG), tiered system, placement
model (with its injector), profiler, migration stats, window records and
a metrics snapshot.  Everything harness-shaped -- the observability
bundle, event hooks, the streaming sink -- is deliberately excluded:
those hold process-local resources (registries, open files, closures)
and are rebuilt fresh on restore.

The resume contract: a session restored from the window-``k`` checkpoint
and run to completion produces byte-identical records, summaries and
fault events to the uninterrupted run -- the crash only discards work
after ``k``, never state before it.  Metrics survive because the
checkpoint carries a registry *snapshot* which is merged into the fresh
registry on restore, so counters accumulated before the crash are not
double- or under-counted.

Format v4 (the array path): the columnar page table dominates a
checkpoint's bytes, and pushing megabyte ndarrays through pickle's memo
walk dominates its time.  A blob is a small envelope ``{"version",
"graph", "columns", "digests"}`` where ``graph`` is the session graph
pickled under :class:`~repro.mem.pagetable.light_pickle` (every
:class:`~repro.mem.pagetable.PageTable` serialized shape-only) and
``columns`` carries each stripped table's columns as raw ``np.save``
buffers, re-attached in graph-traversal order on restore.  ``digests``
holds a BLAKE2b digest of the graph and of every column buffer; they are
checked before anything is unpickled or attached, so a flipped byte
cannot load as a silently different page table.  v2 and v3 used the same
envelope without digests (v2's graph also pickled the Zipfian sampler,
the KV workload and the zbud pools in an older attribute layout).  Only
v4 loads: v1 blobs (the pre-SoA object graphs), v2/v3 envelopes, digest
mismatches and anything that does not unpickle into a v4 envelope make
:func:`restore_session` raise one ``ValueError`` naming the problem,
which ``serve --resume`` reports with exit status 2.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from pathlib import Path

import numpy as np

from repro.mem.pagetable import light_pickle

CHECKPOINT_VERSION = 4

#: What unpickling a truncated, corrupt or v1 blob raises.  A v1
#: graph names record classes that no longer exist (AttributeError);
#: random or bit-flipped bytes raise the rest, including MemoryError and
#: OverflowError for absurd length prefixes.
_UNREADABLE = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    KeyError,
    MemoryError,
    OverflowError,
    TypeError,
    ValueError,
)


def _unsupported(problem: str) -> ValueError:
    return ValueError(
        f"{problem}: only v{CHECKPOINT_VERSION} checkpoints load; "
        "earlier formats are unsupported"
    )


def _digest(buf: bytes) -> bytes:
    return hashlib.blake2b(buf, digest_size=16).digest()


def _corrupt_part(envelope: dict) -> str | None:
    """The first saved buffer that fails its digest, or ``None``."""
    digests = envelope["digests"]
    if _digest(envelope["graph"]) != digests["graph"]:
        return "the session graph"
    columns = envelope["columns"]
    if len(columns) != len(digests["columns"]):
        return "the column set list"
    for index, (blobs, sums) in enumerate(zip(columns, digests["columns"])):
        if blobs.keys() != sums.keys():
            return f"page table {index}'s column list"
        for name, buf in blobs.items():
            if _digest(buf) != sums[name]:
                return f"page table {index}'s {name!r} column"
    return None


def _save_columns(table) -> dict[str, bytes]:
    """One table's columns as raw ``np.save`` buffers."""
    out = {}
    for name, arr in table.columns().items():
        buf = io.BytesIO()
        np.save(buf, arr, allow_pickle=False)
        out[name] = buf.getvalue()
    return out


def _load_columns(blobs: dict[str, bytes]) -> dict[str, np.ndarray]:
    return {
        name: np.load(io.BytesIO(buf), allow_pickle=False)
        for name, buf in blobs.items()
    }


def _wrapped_models(policy) -> list:
    """The policy plus any models a resilient wrapper delegates to."""
    models = [policy]
    primary = getattr(policy, "primary", None)
    if primary is not None:
        models.append(primary)
        models.extend(getattr(policy, "_fallbacks", {}).values())
    return models


def capture_session(session, rows=()) -> bytes:
    """Serialize a session's simulation state to one checkpoint blob.

    Args:
        session: A live :class:`~repro.engine.session.Session`.
        rows: Caller-accumulated per-window payloads to carry across the
            resume (the fleet worker's export rows).
    """
    models = _wrapped_models(session.policy)
    saved_obs = [(model, model.obs) for model in models]
    for model in models:
        model.obs = None
    try:
        state = {
            "spec": session.spec.to_dict(),
            "windows_done": len(session.daemon.records),
            "workload": session.workload,
            "system": session.system,
            "policy": session.policy,
            "profiler": session.daemon.profiler,
            "prefetcher": session.daemon.prefetcher,
            "engine_stats": session.daemon.engine.stats,
            "prev_faults": session.daemon._prev_faults,
            "latencies": session.daemon._latencies,
            "records": session.daemon.records,
            "fault_history": session._fault_history,
            "injector": session.injector,
            "metrics": session.obs.registry.snapshot(),
            "rows": list(rows),
        }
        with light_pickle() as lp:
            graph = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        columns = [_save_columns(table) for table in lp.tables]
        envelope = {
            "version": CHECKPOINT_VERSION,
            "graph": graph,
            "columns": columns,
            "digests": {
                "graph": _digest(graph),
                "columns": [
                    {name: _digest(buf) for name, buf in blobs.items()}
                    for blobs in columns
                ],
            },
        }
        return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        for model, obs in saved_obs:
            model.obs = obs


def restore_session(blob: bytes, *, hooks=(), obs=None, sink=None):
    """Rebuild a runnable session from a checkpoint blob.

    The session is constructed through the normal
    :class:`~repro.engine.session.Session` path with the checkpointed
    objects passed as prebuilt overrides, then its daemon's mutable
    loop state (profiler, stats, records) is swapped for the
    checkpointed versions.  A fresh observability bundle absorbs the
    checkpoint's metrics snapshot.

    Returns:
        ``(session, rows, windows_done)`` -- the restored session, the
        caller rows captured with the checkpoint, and how many windows
        the checkpoint had completed.
    """
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    try:
        envelope = pickle.loads(blob)
        version = (
            envelope.get("version") if isinstance(envelope, dict) else None
        )
        corrupt = None
        if version == CHECKPOINT_VERSION:
            corrupt = _corrupt_part(envelope)
            if corrupt is None:
                with light_pickle() as lp:
                    state = pickle.loads(envelope["graph"])
    except _UNREADABLE as exc:
        detail = " ".join(str(exc).split())
        raise _unsupported(
            f"unreadable checkpoint ({type(exc).__name__}: {detail})"
        ) from exc
    if version != CHECKPOINT_VERSION:
        raise _unsupported(f"unsupported checkpoint version {version!r}")
    if corrupt is not None:
        raise ValueError(f"corrupt checkpoint: {corrupt} fails its digest")
    columns = envelope["columns"]
    if len(lp.tables) != len(columns):
        raise ValueError(
            f"checkpoint carries {len(columns)} column sets "
            f"but the graph holds {len(lp.tables)} page tables"
        )
    for table, blobs in zip(lp.tables, columns):
        table.attach_columns(_load_columns(blobs))
    spec = ScenarioSpec.from_dict(state["spec"])
    session = Session(
        spec,
        workload=state["workload"],
        system=state["system"],
        policy=state["policy"],
        hooks=hooks,
        obs=obs,
        sink=sink,
        injector=state["injector"],
    )
    daemon = session.daemon
    daemon.profiler = state["profiler"]
    if state["prefetcher"] is not None:
        daemon.prefetcher = state["prefetcher"]
    daemon.engine.stats = state["engine_stats"]
    daemon._prev_faults = state["prev_faults"]
    daemon._latencies = state["latencies"]
    daemon.records = state["records"]
    session._fault_history = state["fault_history"]
    if session.obs.registry.enabled and state["metrics"]:
        session.obs.registry.merge_snapshot(state["metrics"])
    return session, list(state["rows"]), int(state["windows_done"])


def save_checkpoint(path, blob: bytes) -> Path:
    """Write a checkpoint blob to disk (atomic rename)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)
    return path


def load_checkpoint(path) -> bytes:
    """Read a checkpoint blob from disk."""
    return Path(path).read_bytes()
