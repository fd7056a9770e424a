"""zsmalloc pool allocator: size-class based dense packing.

The kernel's zsmalloc groups objects into *size classes* (16-byte spacing)
and backs each class with *zspages* -- groups of up to four physical pages
chosen so objects straddle page boundaries with minimal waste.  It achieves
the best packing density of the three pool managers at the cost of the most
complex management (paper §2), which we reflect in the highest per-operation
overhead.

Columnar internals: zspages live in parallel slot lists (pfn, pages,
capacity, live-object count, class) and object membership is one numpy
array mapping object id -> zspage slot (-1 when free), so the bulk
store/free paths touch a few cells per *zspage* instead of a set entry
and two dict entries per *object*.  Object ids grow monotonically; the
membership array doubles on demand (ids are never reused, so a very
long-lived pool grows it linearly with total stores -- 4 bytes per
object ever stored).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.allocators.base import AllocationError, Handle, PoolAllocator
from repro.allocators.buddy import BuddyAllocator
from repro.mem.page import PAGE_SIZE
from repro.mem.pagetable import PageTable

#: Size-class spacing, bytes (kernel: ZS_SIZE_CLASS_DELTA).
CLASS_DELTA = 16
#: Smallest storable class.
MIN_CLASS = 32
#: Most physical pages a zspage may span (kernel: ZS_MAX_PAGES_PER_ZSPAGE).
MAX_PAGES_PER_ZSPAGE = 4


def size_class(size: int) -> int:
    """Round ``size`` up to its zsmalloc size class."""
    if size <= MIN_CLASS:
        return MIN_CLASS
    return -(-size // CLASS_DELTA) * CLASS_DELTA


def zspage_geometry(cls: int) -> tuple[int, int]:
    """Choose (pages, objects) for a zspage of class ``cls``.

    Picks the page count in 1..4 minimising wasted bytes per object, exactly
    the kernel's ``get_pages_per_zspage`` logic.

    Returns:
        Tuple ``(pages_per_zspage, objects_per_zspage)``.
    """
    best = (1, PAGE_SIZE // cls)
    best_waste = PAGE_SIZE - best[1] * cls
    for pages in range(2, MAX_PAGES_PER_ZSPAGE + 1):
        objs = (pages * PAGE_SIZE) // cls
        waste = pages * PAGE_SIZE - objs * cls
        # Normalise waste per page so larger zspages must actually be
        # tighter to win.
        if waste / pages < best_waste / best[0]:
            best = (pages, objs)
            best_waste = waste
    return best


#: :func:`zspage_geometry` of every storable class (``MIN_CLASS`` up to a
#: whole page), so opening a zspage is one lookup instead of the loop.
ZSPAGE_GEOMETRY: dict[int, tuple[int, int]] = {
    cls: zspage_geometry(cls)
    for cls in range(MIN_CLASS, PAGE_SIZE + 1, CLASS_DELTA)
}


class ZsmallocAllocator(PoolAllocator):
    """Dense size-class pool manager."""

    name = "zsmalloc"
    mgmt_overhead_ns = 600.0
    #: A store may open a fresh zspage spanning up to this many pages.
    max_pool_pages_per_store = MAX_PAGES_PER_ZSPAGE

    def __init__(self, arena_pages: int = 1 << 20) -> None:
        super().__init__()
        self._buddy = BuddyAllocator(arena_pages)
        # class size -> list of partially-filled zspage slots (kernel
        # semantics: stores fill the most recently touched partial).
        self._partial: dict[int, list[int]] = {}
        # Parallel zspage slot columns; freed slots are recycled.
        self._zs_pfn: list[int] = []
        self._zs_pages: list[int] = []
        self._zs_capacity: list[int] = []
        self._zs_count: list[int] = []
        self._zs_cls: list[int] = []
        self._zs_free_slots: list[int] = []
        # object id -> zspage slot, -1 when free.  Doubles on demand.
        self._obj_zspage = np.full(1024, -1, dtype=np.int32)
        self._pool_pages = 0

    # -- slot helpers --------------------------------------------------------

    def _open_zspage(self, cls: int) -> int:
        """Allocate a fresh zspage for ``cls``; returns its slot."""
        pages, capacity = ZSPAGE_GEOMETRY[cls]
        pfn = self._buddy.alloc(pages)
        # The buddy allocator rounds to powers of two; charge only the
        # pages the zspage actually uses, as the kernel allocates
        # order-0 pages individually and links them.
        self._pool_pages += pages
        if self._zs_free_slots:
            slot = self._zs_free_slots.pop()
            self._zs_pfn[slot] = pfn
            self._zs_pages[slot] = pages
            self._zs_capacity[slot] = capacity
            self._zs_count[slot] = 0
            self._zs_cls[slot] = cls
        else:
            slot = len(self._zs_pfn)
            self._zs_pfn.append(pfn)
            self._zs_pages.append(pages)
            self._zs_capacity.append(capacity)
            self._zs_count.append(0)
            self._zs_cls.append(cls)
        return slot

    def _release_zspage(self, slot: int) -> None:
        """Return an emptied zspage's pages to the buddy allocator."""
        self._buddy.free(self._zs_pfn[slot])
        self._pool_pages -= self._zs_pages[slot]
        self._zs_free_slots.append(slot)

    def _ensure_ids(self, upto: int) -> None:
        """Grow the membership column to cover object ids below ``upto``."""
        arr = self._obj_zspage
        if upto <= arr.size:
            return
        grown = np.full(max(upto, 2 * arr.size), -1, dtype=np.int32)
        grown[: arr.size] = arr
        self._obj_zspage = grown

    # -- scalar operations ---------------------------------------------------

    def store(self, size: int) -> Handle:
        self._check_size(size)
        cls = size_class(size)
        partial = self._partial.setdefault(cls, [])
        if partial:
            slot = partial[-1]
        else:
            slot = self._open_zspage(cls)
            partial.append(slot)
        handle = self._issue_handle(size)
        self._ensure_ids(handle.object_id + 1)
        self._obj_zspage[handle.object_id] = slot
        count = self._zs_count[slot] + 1
        self._zs_count[slot] = count
        if count >= self._zs_capacity[slot]:
            # The filling zspage is always the list tail.
            partial.pop()
        return handle

    def free(self, handle: Handle) -> None:
        self._check_owner(handle)
        object_id = handle.object_id
        slot = (
            int(self._obj_zspage[object_id])
            if 0 <= object_id < self._obj_zspage.size
            else -1
        )
        if slot < 0:
            raise KeyError(object_id)
        self._retire_handle(handle)
        self._obj_zspage[object_id] = -1
        count = self._zs_count[slot]
        was_full = count >= self._zs_capacity[slot]
        count -= 1
        self._zs_count[slot] = count
        cls = self._zs_cls[slot]
        if count == 0:
            if not was_full:
                self._partial[cls].remove(slot)
            self._release_zspage(slot)
        elif was_full:
            self._partial.setdefault(cls, []).append(slot)

    # -- bulk operations -----------------------------------------------------

    def store_ids(self, sizes) -> int:
        """Vectorized consecutive-id stores; see ``PoolAllocator.store_ids``.

        Pool state is identical to sequential :meth:`store` calls: within
        each size class objects pack into zspages in input order, and
        classes create their partial lists in first-occurrence order.
        (Only the buddy allocator's internal pfn assignment differs,
        because fresh zspages for different classes are allocated grouped
        rather than interleaved; pfns are not observable through any
        handle or statistic, and the arena-exhaustion error path --
        unreachable at simulated scales -- is the one place the mid-batch
        state could diverge.)
        """
        arr = np.asarray(sizes, dtype=np.int64)
        n = arr.size
        first = self._next_id
        if n == 0:
            return first
        if (arr < 1).any() or (arr > self.max_object_size).any():
            # Invalid sizes raise mid-batch with the preceding stores
            # committed, exactly as sequential calls would.
            return super().store_ids(arr)
        # Round every size up to its class in one pass (floor division on
        # the negated array is a ceil, as in ``size_class``).
        classes = np.where(
            arr <= MIN_CLASS, MIN_CLASS, -(-arr // CLASS_DELTA) * CLASS_DELTA
        )
        self._next_id = first + n
        self.stored_bytes += int(arr.sum())
        self.stored_objects += n
        self._ensure_ids(first + n)
        obj_zspage = self._obj_zspage
        partial_map = self._partial
        zs_count = self._zs_count
        zs_capacity = self._zs_capacity
        # Visit classes in first-occurrence order so partial-list creation
        # order matches the sequential loop.
        for cls, positions in PageTable.group_ordered(classes, first_seen=True):
            ids = positions + first
            m = ids.size
            partial = partial_map.get(cls)
            if partial is None:
                partial = partial_map[cls] = []
            slots = np.empty(m, dtype=np.int32)
            pos = 0
            while pos < m:
                if partial:
                    slot = partial[-1]
                else:
                    slot = self._open_zspage(cls)
                    partial.append(slot)
                count = zs_count[slot]
                take = min(m - pos, zs_capacity[slot] - count)
                slots[pos : pos + take] = slot
                count += take
                zs_count[slot] = count
                pos += take
                if count >= zs_capacity[slot]:
                    partial.pop()
            obj_zspage[ids] = slots
        return first

    def free_ids(self, object_ids, sizes) -> None:
        """Vectorized frees; see ``PoolAllocator.free_ids``.

        Partial-list reconstruction is exact: a previously-full zspage
        joins its class's partial list at its *first* free in the batch
        (first-occurrence order), an emptied zspage leaves the list and
        returns its pages, and surviving zspages keep their relative
        order -- so the pool's future packing trajectory matches the
        sequential calls.  Buddy frees are grouped per zspage (ordering
        there is unobservable, as with pfns above).
        """
        ids = np.asarray(object_ids, dtype=np.int64)
        n = ids.size
        if n == 0:
            return
        arr = np.asarray(sizes, dtype=np.int64)
        obj_zspage = self._obj_zspage
        in_range = (ids >= 0) & (ids < obj_zspage.size)
        slots = np.where(in_range, obj_zspage[np.clip(ids, 0, obj_zspage.size - 1)], -1)
        if (slots < 0).any() or np.unique(ids).size != n:
            # Unknown or repeated ids: take the sequential path so the
            # mid-batch failure point (and committed prefix) match
            # per-call semantics exactly.
            super().free_ids(ids, arr)
            return
        self.stored_bytes -= int(arr.sum())
        self.stored_objects -= n
        obj_zspage[ids] = -1
        partial_map = self._partial
        zs_count = self._zs_count
        zs_capacity = self._zs_capacity
        zs_cls = self._zs_cls
        for slot, positions in PageTable.group_ordered(slots, first_seen=True):
            count = zs_count[slot]
            was_full = count >= zs_capacity[slot]
            count -= positions.size
            zs_count[slot] = count
            cls = zs_cls[slot]
            if count == 0:
                if not was_full:
                    partial_map[cls].remove(slot)
                self._release_zspage(slot)
            elif was_full:
                partial_map.setdefault(cls, []).append(slot)

    def store_many(self, sizes: list[int]) -> list[Handle]:
        # Handle-based wrapper over the vectorized core; ids are minted
        # in input order, so handles are (name, first + k, size).
        arr = np.asarray(sizes, dtype=np.int64)
        n = arr.size
        if n == 0:
            return []
        if (arr < 1).any() or (arr > self.max_object_size).any():
            return [self.store(size) for size in sizes]
        first = self.store_ids(arr)
        return list(map(Handle, repeat(self.name, n), range(first, first + n), sizes))

    def free_many(self, handles: list[Handle]) -> None:
        name = self.name
        if any(handle.allocator != name for handle in handles):
            # Foreign handles raise mid-batch with the preceding frees
            # committed, exactly as sequential calls would.
            for handle in handles:
                self.free(handle)
            return
        self.free_ids(
            np.fromiter((h.object_id for h in handles), dtype=np.int64, count=len(handles)),
            np.fromiter((h.size for h in handles), dtype=np.int64, count=len(handles)),
        )

    @property
    def pool_pages(self) -> int:
        return self._pool_pages

    def compact(self) -> tuple[int, int]:
        """Defragment: merge sparsely filled zspages (kernel zs_compact).

        Within each size class, objects from the least-occupied partial
        zspages migrate into the fullest ones; emptied zspages return
        their pages to the buddy allocator.

        Returns:
            ``(pages_reclaimed, objects_moved)``.
        """
        # Rebuild per-zspage member lists from the membership column
        # (compact is rare -- a maintenance pass, not a hot path).
        live = np.flatnonzero(self._obj_zspage >= 0)
        members: dict[int, list[int]] = {}
        for slot, positions in PageTable.group_ordered(self._obj_zspage[live]):
            members[slot] = live[positions].tolist()
        zs_count = self._zs_count
        zs_capacity = self._zs_capacity
        pages_reclaimed = 0
        objects_moved = 0
        for cls, partial in list(self._partial.items()):
            if len(partial) < 2:
                continue
            # Fullest first: they are the migration destinations.
            partial.sort(key=lambda s: zs_count[s], reverse=True)
            dst_idx = 0
            src_idx = len(partial) - 1
            while dst_idx < src_idx:
                dst, src = partial[dst_idx], partial[src_idx]
                if zs_count[dst] >= zs_capacity[dst]:
                    dst_idx += 1
                    continue
                if zs_count[src] == 0:
                    src_idx -= 1
                    continue
                object_id = members[src].pop()
                members.setdefault(dst, []).append(object_id)
                self._obj_zspage[object_id] = dst
                zs_count[src] -= 1
                zs_count[dst] += 1
                objects_moved += 1
                if zs_count[src] == 0:
                    pages_reclaimed += self._zs_pages[src]
                    self._release_zspage(src)
                    src_idx -= 1
            # Rebuild the partial list: drop emptied/full zspages.
            self._partial[cls] = [
                s for s in partial if 0 < zs_count[s] < zs_capacity[s]
            ]
        return pages_reclaimed, objects_moved
