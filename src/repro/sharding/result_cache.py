"""Router-level partition-result caching (PartitionCache-style shard skipping).

The scatter-gather router re-derives *which shards can answer* from live
root MBRs on every query.  Root-MBR pruning is sound but weak: a shard
whose bounding box overlaps the window may still hold nothing inside it
(clustered data leaves large empty margins inside every root MBR), and the
router pays a full shard visit — page reads, snapshot building, downlink
bytes — to find that out, again and again for repeated hotspot windows.

:class:`PartitionResultCache` memoises that knowledge the way PartitionCache
(Poppinga et al., BTW 2025) memoises partition hit-sets for partitioned SQL
stores:

* **Canonical variants** — a query window is snapped *outward* to a
  ``grid × grid`` alignment and decomposed into three conjunctive variants:
  the x-band (full-height strip), the y-band (full-width strip) and the
  snapped window itself.  The true hit-set of the raw window is contained
  in the intersection of the variants' hit-sets, and band variants are
  shared by every window that projects onto the same cells, so hot regions
  converge onto a tiny number of cached facts.
* **Hit-set facts** — per variant the cache records, shard by shard,
  whether the shard holds *any* object intersecting the variant rectangle.
  Unknown facts are established by an early-exit existence probe over the
  shard's R-tree via ``store.peek`` (probes are router planning work and
  never count as logical page reads); facts are strengthened for free after
  every scatter from the shards that actually delivered results.
* **Version stamping** — every fact carries the
  :class:`~repro.updates.registry.VersionRegistry` ``dataset_version`` it
  was computed at, and the cache tracks the last version that mutated each
  shard (reported by :class:`~repro.sharding.updater.ShardedUpdater`).  A
  fact is served only while its stamp is at least the owning shard's
  last-mutation stamp, so any update batch touching a shard atomically
  invalidates that shard's facts.  kNN / pair-count facts depend on every
  shard at once and are stamped against the *global* last mutation.
* **GRD eviction** — facts live in a byte-budgeted store that satisfies
  :class:`~repro.core.replacement.base.EvictableStore`, the slice of a
  cache :class:`~repro.core.replacement.grd.GRD3Policy` evicts from, with
  one flat :class:`~repro.core.cache.CacheItemState` per variant.  Eviction
  ranks victims by the paper's ``prob(i)`` access probability, so rarely
  reused variants make room for hot ones.

Safety (why skipping never changes results):

* **range** — the raw window is contained in every variant rectangle, so a
  shard empty for any variant is empty for the window: no search from any
  frontier target inside it can deliver (or confirm) an object.
* **kNN** — the cached fact for ``(cell(p), k)`` is the smallest probed
  cell-aligned square around the cell that contains at least ``k`` objects;
  the max distance from ``p`` to the square's corners upper-bounds the true
  k-th-nearest distance, so shards whose root-MBR MINDIST exceeds it
  cannot contribute.  Applied only to full virtual-root scatters with
  ``k_remaining == k`` — with partial client frontiers the objects counted
  by the square may be client-held rather than deliverable, so those runs
  keep the ordinary candidate-bound pruning.
* **join** — both members of a qualifying pair must intersect the window,
  so shards empty for the window contribute no pair side, and a snapped
  window holding fewer than two objects globally proves the result empty.

The contract mirrors the sharded tier's own: cache-on runs are
**result-identical** to cache-off runs (same per-query result sets and
``result_bytes``); what travels on the wire — snapshots, downlink bytes,
therefore client cache contents — may legitimately differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING, Union

from repro.core.cache import CacheItemState
from repro.core.replacement.grd import GRD3Policy
from repro.geometry import Point, Rect
from repro.obs import instrument as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding.router import ShardRouter
    from repro.sharding.shard import ShardServer

#: Default byte budget of the fact store (``repro fleet --router-cache``).
DEFAULT_CACHE_BYTES = 64 * 1024
#: Canonicalization grid resolution (variants snap to a G x G alignment).
DEFAULT_GRID = 16

#: Deterministic byte ledger of the fact store.  Facts are router metadata,
#: not paper-modelled payloads, so their sizes are a fixed ledger rather
#: than SizeModel quantities: a per-variant overhead plus one slot per
#: recorded shard fact.
ENTRY_BYTES = 48
SHARD_FACT_BYTES = 12


@dataclass(slots=True)
class HitSetFact:
    """Per-shard emptiness knowledge of one canonical variant rectangle.

    ``shards`` maps shard index to ``(nonempty, stamp)``: whether the shard
    held any object intersecting the variant rectangle, observed at
    registry version ``stamp``.
    """

    rect: Rect
    shards: Dict[int, Tuple[bool, int]] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return ENTRY_BYTES + SHARD_FACT_BYTES * len(self.shards)


@dataclass(slots=True)
class GlobalFact:
    """A whole-deployment fact (kNN square radius / pair-count bit)."""

    value: object
    stamp: int

    @property
    def size_bytes(self) -> int:
        return ENTRY_BYTES + SHARD_FACT_BYTES


#: What a fact-store entry holds; both kinds report their ledger size.
Fact = Union[HitSetFact, GlobalFact]


class FactStore:
    """Byte-budgeted flat store driven by the paper's GRD3 eviction.

    Satisfies :class:`~repro.core.replacement.base.EvictableStore`, the
    protocol :meth:`~repro.core.replacement.grd.GRD3Policy.make_room`
    is written against (``tests/test_seams.py`` checks it).
    Every entry is a root-level leaf (``parent_key=None``, no cached
    children), so the constrained eviction degenerates to ranking variants
    by ``prob(i)`` — exactly the PartitionCache eviction story expressed
    with the machinery this repository already trusts.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.items: Dict[str, CacheItemState] = {}
        self.used_bytes = 0
        self.clock = 0
        self.evictions = 0
        self.largest_item_bytes = 0
        self.new_leaves: List[str] = []
        self._policy = GRD3Policy()

    # -- the EvictableStore surface ---------------------------------------- #
    def leaf_keys(self) -> List[str]:
        return list(self.items.keys())

    def evict(self, key: str) -> None:
        state = self.items.pop(key)
        self.used_bytes -= state.size_bytes
        self.evictions += 1

    def evict_subtree(self, key: str) -> List[str]:
        # Flat store: every entry is its own whole subtree.
        self.evict(key)
        return [key]

    def restore_item(self, state: CacheItemState) -> None:
        self._register(state)

    def _register(self, state: CacheItemState) -> None:
        """Add ``state`` to the items, the aggregates and the new-leaf list."""
        self.items[state.key] = state
        self.used_bytes += state.size_bytes
        if state.size_bytes > self.largest_item_bytes:
            self.largest_item_bytes = state.size_bytes
        self.new_leaves.append(state.key)

    # -- fact-store operations --------------------------------------------- #
    def tick(self) -> int:
        self.clock += 1
        self.new_leaves.clear()
        return self.clock

    def lookup(self, key: str) -> Optional[CacheItemState]:
        """The entry for ``key``, touched as a hit of the current query."""
        state = self.items.get(key)
        if state is not None:
            state.hit_queries += 1
            state.last_access = self.clock
        return state

    def admit(self, key: str, payload: Fact) -> Optional[CacheItemState]:
        """Insert a fresh fact, evicting as needed; ``None`` if it cannot fit."""
        size = payload.size_bytes
        if size > self.capacity_bytes:
            return None
        if self.used_bytes + size > self.capacity_bytes:
            self._policy.make_room(self, size, {}, set())
        state = CacheItemState(key=key, payload=payload, size_bytes=size,
                               insert_time=self.clock, parent_key=None)
        state.last_access = self.clock
        self._register(state)
        return state

    def resize(self, state: CacheItemState, new_size: int) -> None:
        """Re-account an entry whose payload grew (new shard facts)."""
        if new_size == state.size_bytes:
            return
        self.used_bytes += new_size - state.size_bytes
        state.size_bytes = new_size
        if new_size > self.largest_item_bytes:
            self.largest_item_bytes = new_size
        if self.used_bytes > self.capacity_bytes:
            self._policy.make_room(self, 0, {}, {state.key})


class PartitionResultCache:
    """Memoised per-variant shard hit-sets for the scatter-gather router.

    Construct, then attach with
    :meth:`~repro.sharding.router.ShardRouter.attach_result_cache`; the
    router consults it in every scatter and the sharded updater reports
    mutations through :meth:`note_shard_mutated`.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES,
                 grid: int = DEFAULT_GRID) -> None:
        if grid < 1:
            raise ValueError("grid must be at least 1")
        self.grid = grid
        self.store = FactStore(capacity_bytes)
        self.router: Optional["ShardRouter"] = None
        #: Registry version that last mutated each shard (0 = never).
        self._shard_stamp: List[int] = []
        self._global_stamp = 0
        # Deterministic consult counters (per consulted query): a *hit*
        # answered entirely from valid facts, a *miss* needed >= 1 probe.
        self.hits = 0
        self.misses = 0
        self.probes = 0

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def bind(self, router: "ShardRouter") -> None:
        self.router = router
        self._shard_stamp = [0] * len(router.shards)

    def _version(self) -> int:
        registry = self.router.registry if self.router is not None else None
        return registry.dataset_version if registry is not None else 0

    def note_shard_mutated(self, shard_index: int) -> None:
        """An update batch touched ``shard_index``: fence its facts.

        Facts stamped before the shard's last mutation are never served
        again; they are lazily re-established by the next probe, which runs
        against the post-mutation tree and therefore stamps at (or above)
        the fence version.
        """
        version = self._version()
        if 0 <= shard_index < len(self._shard_stamp):
            self._shard_stamp[shard_index] = version
        self._global_stamp = version

    def begin_query(self) -> None:
        """Advance the fact store's clock (call once per routed query)."""
        self.store.tick()

    # ------------------------------------------------------------------ #
    # canonicalization
    # ------------------------------------------------------------------ #
    def _snap_axis(self, low: float, high: float) -> Tuple[int, int]:
        """Smallest grid cell range covering ``[low, high]`` (outward snap)."""
        g = self.grid
        first = min(g - 1, max(0, int(math.floor(low * g))))
        last = max(first + 1, min(g, int(math.ceil(high * g))))
        return first, last

    def range_variants(self, window: Rect) -> List[Tuple[str, Rect]]:
        """The conjunctive variant decomposition of ``window``.

        Ordered bands-first: band facts are shared across every window with
        the same axis projection, so they filter most candidates before the
        window-specific variant is even consulted.
        """
        g = float(self.grid)
        x0, x1 = self._snap_axis(window.min_x, window.max_x)
        y0, y1 = self._snap_axis(window.min_y, window.max_y)
        return [
            (f"xb:{x0}:{x1}", Rect(x0 / g, 0.0, x1 / g, 1.0)),
            (f"yb:{y0}:{y1}", Rect(0.0, y0 / g, 1.0, y1 / g)),
            (f"w:{x0}:{y0}:{x1}:{y1}", Rect(x0 / g, y0 / g, x1 / g, y1 / g)),
        ]

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        g = self.grid
        return (min(g - 1, max(0, int(point.x * g))),
                min(g - 1, max(0, int(point.y * g))))

    def _square(self, cx: int, cy: int, radius: int) -> Rect:
        g = float(self.grid)
        return Rect(max(0, cx - radius) / g, max(0, cy - radius) / g,
                    min(self.grid, cx + 1 + radius) / g,
                    min(self.grid, cy + 1 + radius) / g)

    # ------------------------------------------------------------------ #
    # probes (router planning work: peek never counts a logical read)
    # ------------------------------------------------------------------ #
    def _probe_nonempty(self, shard: "ShardServer", rect: Rect) -> bool:
        """Does any object of ``shard`` intersect ``rect``?  Early-exit DFS."""
        self.probes += 1
        if shard.is_empty or not shard.root_mbr.intersects(rect):
            return False
        store = shard.tree.store
        stack = [shard.root_id]
        while stack:
            node = store.peek(stack.pop())
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        return True
            else:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        stack.append(entry.child_id)
        return False

    def _count_in(self, shard: "ShardServer", rect: Rect, limit: int) -> int:
        """Objects of ``shard`` intersecting ``rect``, early-exit at ``limit``."""
        if limit <= 0 or shard.is_empty \
                or not shard.root_mbr.intersects(rect):
            return 0
        store = shard.tree.store
        stack = [shard.root_id]
        count = 0
        while stack:
            node = store.peek(stack.pop())
            if node.is_leaf:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        count += 1
                        if count >= limit:
                            return count
            else:
                for entry in node.entries:
                    if entry.mbr.intersects(rect):
                        stack.append(entry.child_id)
        return count

    def _count_at_least(self, rect: Rect, needed: int) -> bool:
        self.probes += 1
        assert self.router is not None
        count = 0
        for _, shard in self.router.live_shards():
            count += self._count_in(shard, rect, needed - count)
            if count >= needed:
                return True
        return False

    # ------------------------------------------------------------------ #
    # hit-set facts
    # ------------------------------------------------------------------ #
    def _hitset_state(self, key: str, rect: Rect) -> Optional[CacheItemState]:
        state = self.store.lookup(key)
        if state is None:
            state = self.store.admit(key, HitSetFact(rect=rect))
        return state

    def _shard_nonempty(self, key: str, rect: Rect, index: int,
                        shard: "ShardServer") -> Tuple[bool, bool]:
        """``(nonempty, probed)`` for one shard under one variant."""
        state = self._hitset_state(key, rect)
        fact: Optional[HitSetFact] = (
            state.payload if state is not None else None)  # type: ignore[assignment]
        if fact is not None:
            known = fact.shards.get(index)
            if known is not None and known[1] >= self._shard_stamp[index]:
                return known[0], False
        nonempty = self._probe_nonempty(shard, rect)
        if fact is not None and state is not None:
            fact.shards[index] = (nonempty, self._version())
            self.store.resize(state, fact.size_bytes)
        return nonempty, True

    def _filter_by_variants(
            self, window: Rect,
            candidates: List[Tuple[int, "ShardServer"]],
    ) -> Tuple[List[Tuple[int, "ShardServer"]], bool]:
        survivors = list(candidates)
        clean = True
        for key, rect in self.range_variants(window):
            if not survivors:
                break
            kept = []
            for index, shard in survivors:
                nonempty, probed = self._shard_nonempty(key, rect, index, shard)
                if probed:
                    clean = False
                if nonempty:
                    kept.append((index, shard))
            survivors = kept
        return survivors, clean

    def _record_consult(self, clean: bool) -> None:
        if clean:
            self.hits += 1
        else:
            self.misses += 1
        if obs.ENABLED:
            obs.active().count("repro_router_cache_consults_total", 1.0,
                               outcome="hit" if clean else "miss")

    # ------------------------------------------------------------------ #
    # the router-facing planning surface
    # ------------------------------------------------------------------ #
    def plan_range(self, window: Rect,
                   candidates: List[Tuple[int, "ShardServer"]]
                   ) -> Set[int]:
        """Shards of ``candidates`` that may hold objects in ``window``."""
        survivors, clean = self._filter_by_variants(window, candidates)
        self._record_consult(clean)
        return {index for index, _ in survivors}

    def record_range_delivery(self, window: Rect, shard_index: int) -> None:
        """A scatter observed ``shard_index`` delivering inside ``window``.

        Free positive knowledge: the shard is non-empty for the window and
        therefore for every variant containing it, stamped at the current
        version — later consults of the hot variants skip the probe.
        """
        version = self._version()
        for key, rect in self.range_variants(window):
            state = self._hitset_state(key, rect)
            if state is None:
                continue
            fact: HitSetFact = state.payload  # type: ignore[assignment]
            fact.shards[shard_index] = (True, version)
            self.store.resize(state, fact.size_bytes)

    def knn_bound(self, point: Point, k: int) -> Optional[float]:
        """An upper bound on the k-th-nearest distance from ``point``.

        Derived from the memoised smallest cell-aligned square around
        ``point``'s cell containing at least ``k`` objects; ``None`` when
        the deployment holds fewer than ``k`` objects (no safe bound).
        """
        cx, cy = self._cell_of(point)
        key = f"k:{cx}:{cy}:{k}"
        state = self.store.lookup(key)
        fact: Optional[GlobalFact] = (
            state.payload if state is not None else None)  # type: ignore[assignment]
        if fact is not None and fact.stamp >= self._global_stamp:
            self._record_consult(True)
            radius = fact.value
        else:
            radius = self._probe_radius(cx, cy, k)
            if fact is not None and state is not None:
                fact.value = radius
                fact.stamp = self._version()
            else:
                self.store.admit(key, GlobalFact(value=radius,
                                                 stamp=self._version()))
            self._record_consult(False)
        if radius is None:
            return None
        square = self._square(cx, cy, int(radius))
        far_x = max(point.x - square.min_x, square.max_x - point.x)
        far_y = max(point.y - square.min_y, square.max_y - point.y)
        return math.hypot(far_x, far_y)

    def _probe_radius(self, cx: int, cy: int, k: int) -> Optional[int]:
        """Smallest probed radius (in cells) whose square holds >= k objects.

        Radii double per probe so establishing a fact costs O(log grid)
        counting probes; the square therefore over-covers by at most one
        doubling, which only loosens (never breaks) the distance bound.
        """
        radius = 1
        while True:
            square = self._square(cx, cy, radius)
            if self._count_at_least(square, k):
                return radius
            if square.contains(Rect.unit()):
                return None
            radius *= 2

    def plan_join(self, window: Rect,
                  candidates: List[Tuple[int, "ShardServer"]]
                  ) -> Optional[Set[int]]:
        """Shards a join over ``window`` must expand; ``None`` proves it empty.

        Conjunctive intersection of the window variants' hit-sets, plus a
        pair-count prune: fewer than two objects inside the snapped window
        anywhere in the deployment means no qualifying pair can exist.
        """
        _, _, (window_key, window_rect) = self.range_variants(window)
        pair_key = "c2:" + window_key
        state = self.store.lookup(pair_key)
        fact: Optional[GlobalFact] = (
            state.payload if state is not None else None)  # type: ignore[assignment]
        clean = True
        if fact is not None and fact.stamp >= self._global_stamp:
            pairable = bool(fact.value)
        else:
            clean = False
            pairable = self._count_at_least(window_rect, 2)
            if fact is not None and state is not None:
                fact.value = pairable
                fact.stamp = self._version()
            else:
                self.store.admit(pair_key, GlobalFact(value=pairable,
                                                      stamp=self._version()))
        if not pairable:
            self._record_consult(clean)
            return None
        survivors, variants_clean = self._filter_by_variants(window, candidates)
        self._record_consult(clean and variants_clean)
        return {index for index, _ in survivors}

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Deterministic cache-health counters for reports and benchmarks."""
        return {
            "entries": len(self.store.items),
            "used_bytes": self.store.used_bytes,
            "capacity_bytes": self.store.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "probes": self.probes,
            "evictions": self.store.evictions,
        }
