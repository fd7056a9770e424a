"""zbud pool allocator: at most two objects ("buddies") per pool page.

The kernel's zbud stores one object from the front of a page and one from
the back; a page therefore holds at most two compressed objects and the
best possible savings is 50 % (paper §2).  Management is trivially cheap:
finding space is a lookup in per-free-size lists, so the tier's management
overhead is low.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.allocators.base import Handle, PoolAllocator
from repro.allocators.buddy import BuddyAllocator
from repro.mem.page import PAGE_SIZE

#: zbud rounds object sizes up to 1/64-page chunks, like the kernel.
CHUNK = PAGE_SIZE // 64


def _chunks(size: int) -> int:
    """Size in zbud chunks, rounded up."""
    return -(-size // CHUNK)


@dataclass(slots=True)
class _ZbudPage:
    pfn: int
    free_chunks: int = PAGE_SIZE // CHUNK
    objects: dict[int, int] = field(default_factory=dict)  # id -> chunks


class ZbudAllocator(PoolAllocator):
    """Two-objects-per-page pool manager.

    Scalar and bulk calls share one placement loop (:meth:`_place`) and
    one release loop (:meth:`_release`), so a batch leaves exactly the
    state the same calls made one at a time would.  That includes the
    pfns: the best-fit bucket's first pfn picks the buddy page, so the
    pairing -- and with it ``pool_pages`` -- depends on every set
    ``add``/``discard`` and buddy call happening in call order.
    """

    name = "zbud"
    mgmt_overhead_ns = 150.0
    max_objects_per_page = 2
    #: A store claims at most one fresh pool page.
    max_pool_pages_per_store = 1

    def __init__(self, arena_pages: int = 1 << 20) -> None:
        super().__init__()
        self._buddy = BuddyAllocator(arena_pages)
        self._pages: dict[int, _ZbudPage] = {}  # pfn -> page
        self._page_of: dict[int, int] = {}  # object id -> pfn
        # Pages with free slots, bucketed by free chunks -- zbud's
        # unbuddied lists.  Bit f of ``_nonempty`` is set iff bucket f is
        # non-empty, so the best-fit search is one lowest-set-bit step.
        self._unbuddied: list[set[int]] = [
            set() for _ in range(PAGE_SIZE // CHUNK + 1)
        ]
        self._nonempty = 0

    def store(self, size: int) -> Handle:
        self._check_size(size)
        self._place(self._next_id, (_chunks(size),))
        return self._issue_handle(size)

    def free(self, handle: Handle) -> None:
        self._check_owner(handle)
        # Raises KeyError for an unknown or already-freed id before
        # anything is touched.
        self._release((handle.object_id,))
        self._retire_handle(handle)

    def store_ids(self, sizes) -> int:
        """Fused consecutive-id stores; see ``PoolAllocator.store_ids``."""
        arr = np.asarray(sizes, dtype=np.int64)
        first = self._next_id
        if (arr < 1).any() or (arr > self.max_object_size).any():
            # Invalid sizes raise mid-batch with the preceding stores
            # committed, exactly as sequential calls would.
            return super().store_ids(arr)
        before = len(self._page_of)
        try:
            self._place(first, (-(-arr // CHUNK)).tolist())
        finally:
            # Commit exactly the placed prefix, should the buddy arena
            # run out mid-batch.
            placed = len(self._page_of) - before
            self._next_id = first + placed
            self.stored_bytes += int(arr[:placed].sum())
            self.stored_objects += placed
        return first

    def free_ids(self, object_ids, sizes) -> None:
        """Fused frees; see ``PoolAllocator.free_ids``.

        An unknown or repeated id raises ``KeyError`` with the preceding
        frees committed, exactly as sequential calls would.
        """
        arr = np.asarray(sizes, dtype=np.int64)
        before = len(self._page_of)
        try:
            self._release(np.asarray(object_ids, dtype=np.int64).tolist())
        finally:
            freed = before - len(self._page_of)
            self.stored_bytes -= int(arr[:freed].sum())
            self.stored_objects -= freed

    @property
    def pool_pages(self) -> int:
        return len(self._pages)

    def _place(self, first: int, needs) -> None:
        """Pack objects ``first, first + 1, ...`` of ``needs`` chunks each.

        Best fit: the fullest unbuddied page the object fits, else a
        fresh buddy page.
        """
        pages = self._pages
        page_of = self._page_of
        unbuddied = self._unbuddied
        slots = self.max_objects_per_page
        nonempty = self._nonempty
        try:
            for object_id, need in enumerate(needs, first):
                fits = nonempty >> need
                if fits:
                    free = need + (fits & -fits).bit_length() - 1
                    bucket = unbuddied[free]
                    pfn = next(iter(bucket))
                    bucket.discard(pfn)
                    if not bucket:
                        nonempty &= ~(1 << free)
                    page = pages[pfn]
                else:
                    pfn = self._buddy.alloc(1)
                    page = pages[pfn] = _ZbudPage(pfn)
                page.objects[object_id] = need
                free = page.free_chunks - need
                page.free_chunks = free
                page_of[object_id] = pfn
                if len(page.objects) < slots:
                    unbuddied[free].add(pfn)
                    nonempty |= 1 << free
        finally:
            self._nonempty = nonempty

    def _release(self, object_ids) -> None:
        """Free objects in order; empty pages return to the buddy arena."""
        pages = self._pages
        page_of = self._page_of
        unbuddied = self._unbuddied
        slots = self.max_objects_per_page
        nonempty = self._nonempty
        try:
            for object_id in object_ids:
                pfn = page_of.pop(object_id)
                page = pages[pfn]
                objects = page.objects
                free = page.free_chunks
                if len(objects) < slots:
                    bucket = unbuddied[free]
                    bucket.discard(pfn)
                    if not bucket:
                        nonempty &= ~(1 << free)
                free += objects.pop(object_id)
                page.free_chunks = free
                if objects:
                    unbuddied[free].add(pfn)
                    nonempty |= 1 << free
                else:
                    del pages[pfn]
                    self._buddy.free(pfn)
        finally:
            self._nonempty = nonempty
