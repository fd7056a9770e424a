"""Key-popularity distributions used by the request generators.

* :class:`ZipfianGenerator` -- YCSB's default request distribution
  (zipfian with constant 0.99); item ``i``'s probability is proportional
  to ``1 / (i + 1) ** theta``.
* :class:`GaussianGenerator` -- memtier_benchmark's Gaussian access
  pattern over the key range, optionally with a drifting centre.
* :class:`HotspotGenerator` -- YCSB's hotspot distribution: a hot set
  receives a fixed fraction of accesses uniformly.
* :class:`UniformGenerator` -- uniform accesses (control).

Each generator draws *item ids* in ``[0, n)``; workloads map items to
pages.
"""

from __future__ import annotations

import numpy as np


class ZipfianGenerator:
    """Rank-based Zipfian sampler (YCSB's zipfian constant 0.99).

    Sampling inverts the CDF exactly the way ``rng.choice(n, p=...)``
    does (one uniform draw per sample, ``searchsorted(..., 'right')``
    semantics), so the output stream is bit-identical to the
    ``rng.choice`` implementation this replaces -- but the CDF is
    normalised once at construction and the binary search is replaced
    by one bucket table: bucket ``b`` of ``[0, 1)`` holds the smallest
    rank any draw in that bucket can map to -- as ``rank`` when no CDF
    step falls inside the bucket, so every draw there maps to it, and
    as ``~rank`` (negative) when one does, leaving a short vectorized
    walk over the few draws that land on such a straddler.

    Args:
        n: Item-space size.
        theta: Skew; 0 = uniform, YCSB default 0.99.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.n = n
        self.theta = theta
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._probabilities = weights / weights.sum()
        # rng.choice normalises the probabilities the same way before
        # searching; replicating the exact expression keeps the CDF (and
        # therefore every sampled rank) bit-identical.
        cdf = self._probabilities.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        # ~16 buckets per rank keeps the straddler fraction (and the walk
        # below) short; capped so huge item spaces stay at a 512 KB table.
        # The count must stay a power of two: see sample().
        buckets = 1024
        while buckets < 16 * n and buckets < (1 << 17):
            buckets <<= 1
        self._buckets = buckets
        # edges[b] = #(cdf <= b / buckets), i.e. searchsorted(b / buckets,
        # 'right'), counted in one pass: scaling by a power of two is
        # exact, so cdf <= b / buckets iff ceil(cdf * buckets) <= b.
        steps = np.ceil(cdf * buckets).astype(np.int64)
        edges = np.bincount(steps, minlength=buckets + 1).cumsum()
        lo = edges[:-1].astype(np.int32)
        # cdf[-1] == 1.0 > every left edge, so lo < n and ~lo < 0.
        self._table = np.where(edges[1:] == lo, lo, ~lo)
        # Reusable scratch (uniform draws, bucket ids, straddler mask):
        # windows sample hundreds of thousands of draws, and re-faulting
        # fresh multi-MB arrays per call costs more than the arithmetic
        # on them.
        self._scr_u: np.ndarray | None = None
        self._scr_b: np.ndarray | None = None
        self._scr_m: np.ndarray | None = None

    def _scratch(self, size: int) -> tuple[np.ndarray, ...]:
        if self._scr_u is None or self._scr_u.size < size:
            self._scr_u = np.empty(size)
            self._scr_b = np.empty(size, dtype=np.int64)
            self._scr_m = np.empty(size, dtype=bool)
        return self._scr_u[:size], self._scr_b[:size], self._scr_m[:size]

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        item_map: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``size`` ranks (0 is the most popular), or ``item_map[rank]``.

        ``item_map`` (non-negative int32, one entry per rank) is folded
        into the bucket table first, so mapped draws cost no more than
        raw ones.  Returns a fresh int32 array; internal scratch buffers
        are reused across calls.
        """
        u, b, mask = self._scratch(size)
        rng.random(out=u)
        buckets = self._buckets
        # Exact: rng.random returns multiples of 2**-53 in [0, 1) and
        # ``buckets`` is a power of two, so u * buckets only shifts the
        # exponent.  Hence 0 <= b < buckets and b / buckets <= u: the
        # bucket's rank is never above searchsorted(u, 'right'), and
        # dividing back recovers u bit for bit.
        u *= buckets
        np.copyto(b, u, casting="unsafe")  # trunc == floor for u >= 0
        table = self._table
        if item_map is not None:
            # Straddler entries (~rank, in [-n, -1]) index item_map from
            # the end; np.where discards those values and keeps ~rank.
            table = np.where(table < 0, table, item_map.take(table))
        out = table.take(b)
        np.less(out, 0, out=mask)
        hard = np.flatnonzero(mask)
        if hard.size:
            # Straddlers: walk forward to the first rank with cdf > u.
            cdf = self._cdf
            ranks = ~out[hard]
            uh = u[hard]
            uh *= 1.0 / buckets
            wrong = np.flatnonzero(cdf[ranks] <= uh)
            while wrong.size:
                ranks[wrong] += 1
                wrong = wrong[cdf[ranks[wrong]] <= uh[wrong]]
            out[hard] = ranks if item_map is None else item_map.take(ranks)
        return out


class GaussianGenerator:
    """Gaussian key popularity (memtier's ``--key-pattern=G:G``).

    Args:
        n: Item-space size.
        center_fraction: Centre of the bell as a fraction of the range.
        std_fraction: Standard deviation as a fraction of the range.
    """

    def __init__(
        self, n: int, center_fraction: float = 0.5, std_fraction: float = 0.12
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= center_fraction <= 1.0:
            raise ValueError("center_fraction must be in [0, 1]")
        if std_fraction <= 0:
            raise ValueError("std_fraction must be > 0")
        self.n = n
        self.center_fraction = center_fraction
        self.std_fraction = std_fraction

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.normal(
            loc=self.center_fraction * self.n,
            scale=self.std_fraction * self.n,
            size=size,
        )
        return np.clip(np.rint(draws), 0, self.n - 1).astype(np.int64)


class HotspotGenerator:
    """Hot-set popularity: ``hot_access_prob`` of accesses hit the hot set.

    Args:
        n: Item-space size.
        hot_fraction: Fraction of items in the hot set (from item 0).
        hot_access_prob: Probability an access targets the hot set.
    """

    def __init__(
        self, n: int, hot_fraction: float = 0.2, hot_access_prob: float = 0.9
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_access_prob <= 1.0:
            raise ValueError("hot_access_prob must be in [0, 1]")
        self.n = n
        self.hot_items = max(1, int(round(hot_fraction * n)))
        self.hot_access_prob = hot_access_prob

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        hot = rng.random(size) < self.hot_access_prob
        out = np.empty(size, dtype=np.int64)
        n_hot = int(hot.sum())
        out[hot] = rng.integers(0, self.hot_items, size=n_hot)
        cold_span = max(1, self.n - self.hot_items)
        out[~hot] = self.hot_items % self.n + rng.integers(
            0, cold_span, size=size - n_hot
        )
        np.clip(out, 0, self.n - 1, out=out)
        return out


class UniformGenerator:
    """Uniform popularity over the item space."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.n, size=size)


class ChurningColdSet:
    """A rotating *active window* over a cold item range.

    Real cold data is not accessed independently at random: touches cluster
    in time (scans, TTL refreshes, backup sweeps), so at any moment only a
    small active subset of the cold range sees traffic while the rest idles
    for many profile windows.  This class maps uniform draws onto a
    contiguous active window that advances each profile window -- the
    device that lets a laptop-scale simulation preserve both paper-scale
    invariants at once: a bounded fault rate (set by ``advance_fraction``)
    and a large idle/demotable population (set by ``active_fraction``).
    See DESIGN.md §6.

    Args:
        n: Cold item-range size.
        active_fraction: Fraction of the range active per window.
        advance_fraction: Fraction of the range the window advances by per
            profile window.
    """

    def __init__(
        self, n: int, active_fraction: float = 0.05, advance_fraction: float = 0.02
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < active_fraction <= 1.0:
            raise ValueError("active_fraction must be in (0, 1]")
        if not 0.0 <= advance_fraction <= 1.0:
            raise ValueError("advance_fraction must be in [0, 1]")
        self.n = n
        self.active = max(1, int(round(active_fraction * n)))
        self.step = max(0, int(round(advance_fraction * n)))
        self.offset = 0

    def map(self, draws: np.ndarray) -> np.ndarray:
        """Map uniform draws in ``[0, n)`` into the current active window."""
        return (self.offset + draws % self.active) % self.n

    def advance(self) -> None:
        """Rotate the active window by one profile-window step."""
        self.offset = (self.offset + self.step) % self.n

    def reset(self) -> None:
        """Rewind the active window to its starting position."""
        self.offset = 0


class HotWarmColdGenerator:
    """Three-population popularity: hot (Zipfian), warm, churning cold.

    Models the population structure data-center operators report (paper
    §3.1): ~10-20 % hot items taking almost all accesses, 50-70 % warm
    items each touched around once per window, and a cold remainder whose
    sparse accesses cluster via :class:`ChurningColdSet`.  The hot set
    identity can drift to reproduce the shifting pattern of the paper's
    Figure 9d.

    Args:
        n: Item-space size.
        hot_fraction / warm_fraction: Item-count split; the rest is cold.
        hot_mass / warm_mass: Access-mass split; the rest goes cold.
        hot_theta: Zipfian skew within the hot set.
        cold_active_fraction / cold_advance_fraction: Cold churn params.
        hot_drift_fraction: Fraction of the hot range the hot-set identity
            rotates per window (0 = stationary).
    """

    def __init__(
        self,
        n: int,
        hot_fraction: float = 0.10,
        warm_fraction: float = 0.30,
        hot_mass: float = 0.96,
        warm_mass: float = 0.03,
        hot_theta: float = 0.99,
        cold_active_fraction: float = 0.05,
        cold_advance_fraction: float = 0.02,
        hot_drift_fraction: float = 0.0,
    ) -> None:
        if n < 3:
            raise ValueError("n must be >= 3")
        if hot_fraction <= 0 or warm_fraction < 0 or hot_fraction + warm_fraction >= 1:
            raise ValueError("hot/warm fractions must leave a cold remainder")
        if hot_mass <= 0 or warm_mass < 0 or hot_mass + warm_mass > 1:
            raise ValueError("hot/warm masses must be a sub-unit split")
        self.n = n
        self.hot_items = max(1, int(round(hot_fraction * n)))
        self.warm_items = max(1, int(round(warm_fraction * n)))
        self.cold_items = n - self.hot_items - self.warm_items
        if self.cold_items < 1:
            raise ValueError("no cold items left; shrink hot/warm fractions")
        self.hot_mass = hot_mass
        self.warm_mass = warm_mass
        self._hot = ZipfianGenerator(self.hot_items, theta=hot_theta)
        self._cold = ChurningColdSet(
            self.cold_items, cold_active_fraction, cold_advance_fraction
        )
        self._hot_offset = 0
        self._hot_step = max(0, int(round(hot_drift_fraction * self.hot_items)))
        self._scr_c: np.ndarray | None = None
        self._scr_hot: np.ndarray | None = None
        self._scr_nh: np.ndarray | None = None
        self._identity = np.arange(n, dtype=np.int32)

    def sample(
        self,
        size: int,
        rng: np.random.Generator,
        item_map: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``size`` item ids, or ``item_map[item]`` for each.

        ``item_map`` (non-negative int32, one entry per item) lets a
        caller sample straight onto its own ids, e.g. a KV store's pages:
        the hot-set drift and the map fold into the Zipfian bucket table
        once per call instead of once per access.  Without a map the
        identity stands in, so both paths run the same code.
        """
        if self._scr_c is None or self._scr_c.size < size:
            self._scr_c = np.empty(size)
            self._scr_hot = np.empty(size, dtype=bool)
            self._scr_nh = np.empty(size, dtype=bool)
        if item_map is None:
            item_map = self._identity
        hot_items, warm_items = self.hot_items, self.warm_items
        component = self._scr_c[:size]
        rng.random(out=component)
        out = np.empty(size, dtype=np.int64)
        hot = self._scr_hot[:size]
        np.less(component, self.hot_mass, out=hot)
        # The non-hot remainder is a sliver (a few percent of the draws);
        # splitting it by integer index keeps the warm/cold work
        # proportional to that sliver instead of re-scanning every draw.
        nh = self._scr_nh[:size]
        np.logical_not(hot, out=nh)
        not_hot = np.flatnonzero(nh)
        warm_split = component[not_hot] < self.hot_mass + self.warm_mass
        warm_idx = not_hot[warm_split]
        cold_idx = not_hot[~warm_split]
        n_hot = size - not_hot.size
        if n_hot:
            # Hot rank r is item (r + offset) % hot_items.
            rank_map = np.roll(item_map[:hot_items], -self._hot_offset)
            out[hot] = self._hot.sample(n_hot, rng, rank_map)
        if warm_idx.size:
            draws = rng.integers(0, warm_items, size=warm_idx.size)
            out[warm_idx] = item_map[hot_items:].take(draws)
        if cold_idx.size:
            draws = rng.integers(0, self.cold_items, size=cold_idx.size)
            cold_map = item_map[hot_items + warm_items :]
            out[cold_idx] = cold_map.take(self._cold.map(draws))
        return out

    def advance(self) -> None:
        """Per-window state update: cold churn rotates, hot set drifts."""
        self._cold.advance()
        self._hot_offset = (self._hot_offset + self._hot_step) % self.hot_items

    def reset(self) -> None:
        """Rewind churn and drift to their window-0 positions."""
        self._cold.reset()
        self._hot_offset = 0
