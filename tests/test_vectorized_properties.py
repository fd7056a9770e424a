"""Property tests pinning the vectorized hot paths to scalar references.

The batched implementations in :mod:`repro.mem.system` and the bulk
allocator paths exist purely for speed; semantically each must be
indistinguishable from the per-page / per-object loops they replaced.
Hypothesis drives random placements, batches and size streams through
both and compares the full observable state.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocators import (
    AllocationError,
    Handle,
    Z3foldAllocator,
    ZsmallocAllocator,
)
from repro.allocators.buddy import BuddyAllocator
from repro.allocators.zbud import CHUNK, ZbudAllocator
from repro.mem.address_space import AddressSpace
from repro.mem.page import PAGE_SIZE, PAGES_PER_REGION
from repro.mem.system import _PAGE_CHUNKS, TieredMemorySystem
from repro.mem.tier import ByteAddressableTier
from repro.workloads.distributions import ZipfianGenerator

from tests.conftest import make_tiers


def _make_system(seed: int) -> TieredMemorySystem:
    space = AddressSpace(2 * PAGES_PER_REGION, "mixed", seed=seed)
    return TieredMemorySystem(make_tiers(space), space)


def _scatter(system: TieredMemorySystem, rng: np.random.Generator) -> None:
    """Random placement: spread regions and stray pages across tiers."""
    for region in range(system.space.num_regions):
        system.move_region(region, int(rng.integers(0, len(system.tiers))))
    for page in rng.integers(0, system.space.num_pages, size=16):
        system.move_page(int(page), int(rng.integers(0, len(system.tiers))))


def _scalar_access_batch(system, page_ids, write_fraction):
    """Per-page reference implementation of ``access_batch``.

    Mirrors the pre-vectorization loop: pages grouped by tier in tier
    order, compressed pages faulted one at a time with the promotion
    target re-resolved per page.  Returns ``(access_ns, faults,
    histogram)`` and applies the same state mutations.
    """
    pages, counts = np.unique(np.asarray(page_ids), return_counts=True)
    system.last_access_window[pages] = system.current_window
    total = int(counts.sum())
    system.clock.total_accesses += total
    system.clock.optimal_ns += total * system.dram.media.read_ns
    access_ns = 0.0
    faults = 0
    histogram = []
    locations = system.page_location[pages]
    for idx, tier in enumerate(system.tiers):
        mask = locations == idx
        if not mask.any():
            continue
        tier_counts = counts[mask]
        if isinstance(tier, ByteAddressableTier):
            n_acc = int(tier_counts.sum())
            ns = tier.access_ns(n_acc, write_fraction)
            tier.stats.accesses += n_acc
            access_ns += ns
            histogram.append((ns / n_acc, n_acc))
            continue
        for page, count in zip(pages[mask].tolist(), tier_counts.tolist()):
            fault_ns = tier.remove_page(page, fault=True)
            tier.stats.accesses += 1
            faults += 1
            t_idx = system._promotion_target()
            target = system.tiers[t_idx]
            target.add_pages(1)
            system.page_location[page] = t_idx
            fault_ns += target.media.write_ns * _PAGE_CHUNKS
            access_ns += fault_ns
            histogram.append((fault_ns, 1))
            rest = count - 1
            if rest:
                per_access = target.media.read_ns * (
                    1.0 - write_fraction
                ) + target.media.write_ns * write_fraction
                rest_ns = rest * per_access
                target.stats.accesses += rest
                access_ns += rest_ns
                histogram.append((rest_ns / rest, rest))
    system.clock.access_ns += access_ns
    return access_ns, faults, histogram


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    batch_seed=st.integers(0, 10_000),
    write_fraction=st.floats(0.0, 0.5),
)
def test_access_batch_matches_scalar_reference(seed, batch_seed, write_fraction):
    system = _make_system(seed)
    _scatter(system, np.random.default_rng(seed))
    reference = copy.deepcopy(system)

    rng = np.random.default_rng(batch_seed)
    batch = rng.integers(0, system.space.num_pages, size=int(rng.integers(1, 400)))

    result = system.access_batch(batch, write_fraction)
    ref_ns, ref_faults, ref_hist = _scalar_access_batch(
        reference, batch, write_fraction
    )

    assert np.array_equal(system.page_location, reference.page_location)
    assert result.faults == ref_faults
    for got, want in zip(system.tiers, reference.tiers):
        assert got.stats.accesses == want.stats.accesses
        assert got.used_pages == want.used_pages
    assert np.isclose(result.access_ns, ref_ns, rtol=1e-12)
    assert np.isclose(system.clock.access_ns, reference.clock.access_ns, rtol=1e-12)
    assert len(result.latency_histogram) == len(ref_hist)
    assert np.allclose(
        np.asarray(result.latency_histogram), np.asarray(ref_hist), rtol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_placement_counts_conserved_across_migration_waves(seed, data):
    system = _make_system(seed)
    rng = np.random.default_rng(seed)
    num_pages = system.space.num_pages
    waves = data.draw(st.integers(1, 6))
    for _ in range(waves):
        for region in rng.permutation(system.space.num_regions):
            system.move_region(
                int(region),
                int(rng.integers(0, len(system.tiers))),
                recency_windows=int(rng.integers(0, 3)),
            )
        system.advance_window()
        counts = system.placement_counts()
        assert counts.sum() == num_pages
        for idx, tier in enumerate(system.tiers):
            if isinstance(tier, ByteAddressableTier):
                assert counts[idx] == tier.used_pages
            else:
                assert counts[idx] == tier.resident_pages


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=0, max_size=300),
    free_seed=st.integers(0, 10_000),
    allocator_cls=st.sampled_from([ZsmallocAllocator, ZbudAllocator]),
)
def test_store_many_free_many_match_sequential(sizes, free_seed, allocator_cls):
    bulk = allocator_cls(arena_pages=1 << 12)
    sequential = allocator_cls(arena_pages=1 << 12)

    bulk_handles = bulk.store_many(sizes)
    seq_handles = [sequential.store(size) for size in sizes]
    assert bulk_handles == seq_handles

    assert bulk.pool_pages == sequential.pool_pages
    assert bulk.stored_bytes == sequential.stored_bytes
    assert bulk.stored_objects == sequential.stored_objects
    assert bulk._next_id == sequential._next_id

    # Free a random subset in bulk vs one at a time.
    rng = np.random.default_rng(free_seed)
    keep = rng.random(len(sizes)) < 0.5
    drop = [h for h, k in zip(bulk_handles, keep) if not k]
    bulk.free_many(drop)
    for handle in drop:
        sequential.free(handle)
    assert bulk.pool_pages == sequential.pool_pages
    assert bulk.stored_bytes == sequential.stored_bytes
    assert bulk.stored_objects == sequential.stored_objects


class _ScalarZbud:
    """Reference: zbud/z3fold as one object per call with a linear
    best-fit scan over the unbuddied buckets (the pre-fusion algorithm)."""

    def __init__(self, slots: int, arena_pages: int) -> None:
        self.slots = slots
        self.buddy = BuddyAllocator(arena_pages)
        self.pages: dict[int, list] = {}  # pfn -> [free chunks, {id: chunks}]
        self.page_of: dict[int, int] = {}
        self.unbuddied = [set() for _ in range(PAGE_SIZE // CHUNK + 1)]
        self.next_id = self.stored_bytes = self.stored_objects = 0

    def store(self, size: int) -> None:
        if size < 1:
            raise ValueError(size)
        if size > PAGE_SIZE:
            raise AllocationError(size)
        need = -(-size // CHUNK)
        for free in range(need, len(self.unbuddied)):
            if self.unbuddied[free]:
                pfn = next(iter(self.unbuddied[free]))
                self.unbuddied[free].discard(pfn)
                break
        else:
            pfn = self.buddy.alloc(1)
            self.pages[pfn] = [PAGE_SIZE // CHUNK, {}]
        page = self.pages[pfn]
        page[1][self.next_id] = need
        page[0] -= need
        self.page_of[self.next_id] = pfn
        self.next_id += 1
        self.stored_bytes += size
        self.stored_objects += 1
        if len(page[1]) < self.slots:
            self.unbuddied[page[0]].add(pfn)

    def free(self, object_id: int, size: int) -> None:
        pfn = self.page_of.pop(object_id)
        page = self.pages[pfn]
        if len(page[1]) < self.slots:
            self.unbuddied[page[0]].discard(pfn)
        page[0] += page[1].pop(object_id)
        self.stored_bytes -= size
        self.stored_objects -= 1
        if page[1]:
            self.unbuddied[page[0]].add(pfn)
        else:
            del self.pages[pfn]
            self.buddy.free(pfn)

    def state(self) -> tuple:
        return (
            len(self.pages),
            self.stored_bytes,
            self.stored_objects,
            self.next_id,
            self.page_of,
            [list(bucket) for bucket in self.unbuddied],
        )


def _zbud_state(pool) -> tuple:
    """Everything a later store can observe: the unbuddied buckets'
    iteration order picks the buddy page, so it is compared too."""
    return (
        pool.pool_pages,
        pool.stored_bytes,
        pool.stored_objects,
        pool._next_id,
        pool._page_of,
        [list(bucket) for bucket in pool._unbuddied],
    )


def _raised(fn):
    try:
        fn()
    except (AllocationError, KeyError, ValueError) as exc:
        return type(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(
    allocator_cls=st.sampled_from([ZbudAllocator, Z3foldAllocator]),
    data=st.data(),
)
def test_zbud_fused_ids_match_sequential(allocator_cls, data):
    """Fused ``store_ids``/``free_ids`` and scalar ``store``/``free`` both
    match the one-object-per-call reference, batch by batch, including a
    bad size mid-batch and unknown or repeated ids, which must fail at
    the same point with the same prefix kept."""
    bulk = allocator_cls(arena_pages=1 << 12)
    scalar = allocator_cls(arena_pages=1 << 12)
    ref = _ScalarZbud(allocator_cls.max_objects_per_page, arena_pages=1 << 12)
    live: dict[int, int] = {}  # object id -> size
    for _ in range(data.draw(st.integers(1, 8), label="batches")):
        if not live or data.draw(st.booleans(), label="store"):
            sizes = data.draw(st.lists(st.integers(1, PAGE_SIZE), max_size=120))
            if data.draw(st.integers(0, 4)) == 0:
                bad = data.draw(st.sampled_from([0, -7, PAGE_SIZE + 1]))
                sizes.insert(data.draw(st.integers(0, len(sizes))), bad)
            first = ref.next_id
            outcomes = {
                _raised(lambda: bulk.store_ids(np.array(sizes, dtype=np.int64))),
                _raised(lambda: [scalar.store(size) for size in sizes]),
                _raised(lambda: [ref.store(size) for size in sizes]),
            }
            live.update(zip(range(first, ref.next_id), sizes))
        else:
            ids = data.draw(
                st.lists(st.sampled_from(sorted(live)), unique=True, max_size=80)
            )
            kind = data.draw(st.sampled_from(["ok", "unknown", "repeat"]))
            if kind == "unknown":
                ids.insert(data.draw(st.integers(0, len(ids))), ref.next_id + 5)
            elif kind == "repeat" and ids:
                ids.append(data.draw(st.sampled_from(ids)))
            sizes = [live.get(i, 64) for i in ids]
            outcomes = {
                _raised(
                    lambda: bulk.free_ids(
                        np.array(ids, dtype=np.int64),
                        np.array(sizes, dtype=np.int64),
                    )
                ),
                _raised(
                    lambda: [
                        scalar.free(Handle(scalar.name, i, size))
                        for i, size in zip(ids, sizes)
                    ]
                ),
                _raised(lambda: [ref.free(i, size) for i, size in zip(ids, sizes)]),
            }
            live = {i: s for i, s in live.items() if i in ref.page_of}
        assert len(outcomes) == 1
        assert _zbud_state(bulk) == ref.state()
        assert _zbud_state(scalar) == ref.state()
        nonempty = sum(1 << f for f, bucket in enumerate(bulk._unbuddied) if bucket)
        assert bulk._nonempty == scalar._nonempty == nonempty


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_csize_and_accept_caches_match_scalar(seed, data):
    system = _make_system(seed)
    # Overwrite compressibility with adversarial values (clamp-floor and
    # reject-threshold neighbourhoods included) before any cache fills.
    n = system.space.num_pages
    values = data.draw(
        st.lists(
            st.floats(1e-9, 1.0, allow_nan=False, exclude_min=False),
            min_size=8,
            max_size=8,
        )
    )
    rng = np.random.default_rng(seed)
    comp = rng.random(n)
    comp[rng.integers(0, n, size=len(values))] = values
    system.space.compressibility = np.clip(comp, 1e-9, 1.0)

    ct_idx = next(
        i
        for i, tier in enumerate(system.tiers)
        if not isinstance(tier, ByteAddressableTier)
    )
    tier = system.tiers[ct_idx]
    ids = rng.integers(0, n, size=64)
    got_sizes = system._tier_csizes(ct_idx, ids)
    got_accepts = system._tier_accepts(ct_idx, ids)
    for pid, size, ok in zip(ids.tolist(), got_sizes.tolist(), got_accepts.tolist()):
        intrinsic = float(system.space.compressibility[pid])
        assert size == tier.algorithm.compressed_size(intrinsic)
        assert ok == tier.accepts(intrinsic)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_move_pages_matches_scalar_reference(seed, data):
    """The batched SoA migration path == the per-page move_page loop."""
    system = _make_system(seed)
    rng = np.random.default_rng(seed)
    _scatter(system, rng)
    reference = copy.deepcopy(system)

    for _ in range(data.draw(st.integers(1, 5))):
        region = int(rng.integers(0, system.space.num_regions))
        dst = int(rng.integers(0, len(system.tiers)))
        pages = system.space.regions[region].pages()
        page_ids = np.arange(pages.start, pages.stop, dtype=np.int64)
        got = system._move_pages(page_ids, dst)
        want = reference._move_pages_scalar(page_ids, dst)
        assert np.isclose(got, want, rtol=1e-12)

    assert np.array_equal(system.page_location, reference.page_location)
    assert np.isclose(
        system.clock.migration_ns, reference.clock.migration_ns, rtol=1e-12
    )
    assert system.migrated_pages == reference.migrated_pages
    for got_t, want_t in zip(system.tiers, reference.tiers):
        assert got_t.used_pages == want_t.used_pages
        assert got_t.stats.snapshot() == want_t.stats.snapshot()
        if got_t.is_compressed:
            assert got_t.resident_pages == want_t.resident_pages
            assert got_t.allocator.stored_bytes == want_t.allocator.stored_bytes
            assert got_t.allocator.stored_objects == want_t.allocator.stored_objects
            assert got_t.allocator.pool_pages == want_t.allocator.pool_pages


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 500))
def test_checkpoint_roundtrip_resumes_identically(seed):
    """Capture mid-run (v2 array path), restore, finish == uninterrupted."""
    from repro.chaos.checkpoint import capture_session, restore_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    spec = ScenarioSpec(
        workload="memcached-ycsb",
        workload_kwargs={
            "num_pages": 2 * PAGES_PER_REGION,
            "ops_per_window": 2000,
        },
        policy="waterfall",
        windows=4,
        seed=seed,
    )
    full = Session(spec)
    for _ in range(4):
        full.run_window()

    half = Session(spec)
    for _ in range(2):
        half.run_window()
    resumed, _, done = restore_session(capture_session(half))
    assert done == 2
    # The restored page table carries the exact columns of the captured
    # system (the array path is lossless).
    for name, col in half.system.pt.columns().items():
        assert np.array_equal(col, getattr(resumed.system.pt, name)), name
    for _ in range(2):
        resumed.run_window()

    assert len(resumed.records) == len(full.records)
    for got, want in zip(resumed.records, full.records):
        assert np.array_equal(got.placement, want.placement)
        assert np.array_equal(got.faults, want.faults)
        assert np.array_equal(got.pool_pages, want.pool_pages)
        assert got.tco == want.tco
        assert got.access_ns == want.access_ns


def test_unloadable_checkpoint_resume_exits_2(tmp_path, capsys):
    """``serve --resume`` rejects what it cannot load with one line and
    exit status 2, never a traceback: a pre-SoA (v1) checkpoint, a
    truncated one and random bytes."""
    from pathlib import Path

    from repro.cli import main

    v1 = (Path(__file__).parent / "fixtures" / "checkpoint_v1.ckpt").read_bytes()
    blobs = {
        "v1": v1,
        "truncated": v1[:5000],
        "random": np.random.default_rng(0).bytes(4096),
    }
    for kind, blob in blobs.items():
        path = tmp_path / f"{kind}.ckpt"
        path.write_bytes(blob)
        code = main(
            [
                "serve",
                "--resume",
                str(path),
                "--no-http",
                "--virtual-clock",
                "--max-windows",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2, kind
        assert "Traceback" not in err, kind
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "checkpoint" in lines[0], (kind, err)


def _resume_exit(path, capsys) -> tuple[int, str]:
    from repro.cli import main

    code = main(
        ["serve", "--resume", str(path), "--no-http", "--virtual-clock",
         "--max-windows", "1"]
    )
    return code, capsys.readouterr().err


def test_v2_checkpoint_resume_exits_2(tmp_path, capsys):
    """v2 and v3 envelopes are refused by their version before their
    graph is unpickled: v2 graphs hold the older sampler, KV workload and
    zbud layouts, which would otherwise load and then fail mid-window,
    and neither carries the digests that guard v4 against corruption."""
    import pickle

    from repro.chaos.checkpoint import capture_session, restore_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    session = Session(
        ScenarioSpec(
            workload="memcached-ycsb",
            workload_kwargs={"num_pages": PAGES_PER_REGION, "ops_per_window": 500},
            policy="waterfall",
            windows=2,
        )
    )
    session.run_window()
    for version in (2, 3):
        envelope = pickle.loads(capture_session(session))
        envelope["version"] = version
        del envelope["digests"]
        blob = pickle.dumps(envelope)
        with pytest.raises(
            ValueError, match=f"unsupported checkpoint version {version}"
        ):
            restore_session(blob)
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(blob)
        code, err = _resume_exit(path, capsys)
        assert code == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and f"version {version}" in lines[0], err


def test_corrupt_checkpoint_resume_exits_2(tmp_path, capsys):
    """One flipped byte in the session graph or in any page-table column
    fails its digest: ``serve --resume`` exits 2 with one line instead of
    loading a page table that breaks the capacity laws mid-run."""
    import pickle

    from repro.chaos.checkpoint import capture_session, restore_session
    from repro.engine.session import Session
    from repro.engine.spec import ScenarioSpec

    session = Session(
        ScenarioSpec(
            workload="memcached-ycsb",
            workload_kwargs={
                "num_pages": 2 * PAGES_PER_REGION,
                "ops_per_window": 2000,
            },
            policy="waterfall",
            windows=3,
        )
    )
    for _ in range(2):
        session.run_window()
    blob = capture_session(session)
    restore_session(blob)  # the intact blob loads

    def flipped(buf: bytes) -> bytes:
        # A byte past the npy header, in the payload.
        at = len(buf) - 1
        return buf[:at] + bytes([buf[at] ^ 0x01]) + buf[at + 1 :]

    targets = [("graph", None)] + [
        (index, name)
        for index, blobs in enumerate(pickle.loads(blob)["columns"])
        for name in blobs
    ]
    assert ("graph", None) in targets and (0, "tier") in targets
    for index, name in targets:
        envelope = pickle.loads(blob)
        if name is None:
            envelope["graph"] = flipped(envelope["graph"])
            part = "session graph"
        else:
            columns = envelope["columns"][index]
            columns[name] = flipped(columns[name])
            part = f"{name!r} column"
        bad = pickle.dumps(envelope)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            restore_session(bad)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bad)
        code, err = _resume_exit(path, capsys)
        assert code == 2, (index, name)
        assert "Traceback" not in err, (index, name)
        lines = err.strip().splitlines()
        assert len(lines) == 1 and part in lines[0], (index, name, err)


@settings(max_examples=30, deadline=None)
@given(
    # Small item spaces get ~16 buckets per rank; from 8192 on the
    # bucket table is capped at 2**17 and straddlers get denser.
    n=st.one_of(st.integers(1, 5000), st.integers(8192, 300_000)),
    theta=st.floats(0.0, 1.8, allow_nan=False),
    size=st.integers(1, 2000),
    seed=st.integers(0, 10_000),
)
def test_zipfian_sampler_matches_generator_choice(n, theta, size, seed):
    gen = ZipfianGenerator(n, theta=theta)
    got = gen.sample(size, np.random.default_rng(seed))
    want = np.random.default_rng(seed).choice(
        n, size=size, p=gen._probabilities
    )
    assert np.array_equal(got, want)
    # A folded item map lands each draw on item_map[rank].
    item_map = np.random.default_rng(n).permutation(n).astype(np.int32)
    mapped = gen.sample(size, np.random.default_rng(seed), item_map)
    assert np.array_equal(mapped, item_map[want])
    # The sampler must consume the RNG stream exactly like choice() so
    # downstream draws stay aligned.
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    gen.sample(size, rng_a)
    rng_b.random(size)
    assert rng_a.integers(0, 1 << 62) == rng_b.integers(0, 1 << 62)
