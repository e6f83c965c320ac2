"""Two-level memory hierarchy with ISA-specific VPU integration.

Table I and Section III-A of the paper describe two integration styles:

* **RVV @ gem5** — the VPU is *decoupled* and attached to the **L2**: all
  vector loads/stores bypass the L1 and stream through a small (2 KB)
  VectorCache into the L2.  Consequence (Section VI-A): BLIS-style L1
  blocking is useless to vector code, which is why the 6-loop GEMM does
  not beat the 3-loop GEMM on RVV.
* **SVE** — vector data is accessed **through the L1** like scalar data,
  so cache blocking and prefetching pay off (Section VI-C).

Scalar accesses always travel L1 -> L2 -> DRAM.

Each access method returns ``(latency_sum, occupancy, stats)``:
``latency_sum`` accumulates per-line hit/miss latencies (the simulator
divides it by the machine's memory-level parallelism to get exposed
stall), ``occupancy`` is a pair ``(l1_fill, dram_fill)`` of
*fill-bandwidth* costs for moving whole cache lines between levels —
bandwidth cannot be hidden by MLP; the simulator nets the L1-fill
component against the useful transfer already priced, so only *wasted*
fill (partially-used lines, e.g. 64 useful bytes of an A64FX 256-byte
line) costs extra — and
``stats`` is a 6-tuple ``(l1_hits, l1_misses, l2_hits, l2_misses,
dram_fills, vc_hits)`` over the lines the access touches.

.. warning:: Lock-step with :mod:`repro.machine.replay`.  The trace
   replay engines duplicate this module's L2 walk — set indexing,
   eviction, dirty-bit and resident-range handling, including the
   order of ``_range_hit`` LRU refreshes — so that replayed sweeps are
   *bitwise identical* to direct simulation.  Any behavioural change
   here (or in accumulation order) must be mirrored in replay.py's
   point passes; ``tests/test_trace_replay.py`` is the tripwire.
"""

from __future__ import annotations

from .cache import SetAssocCache
from .config import MachineConfig
from .prefetcher import NullPrefetcher, StreamPrefetcher

__all__ = ["MemoryHierarchy", "AccessStats", "Tlb"]


class AccessStats:
    """Index names for the stats tuples returned by the hierarchy."""

    L1_HITS = 0
    L1_MISSES = 1
    L2_HITS = 2
    L2_MISSES = 3
    DRAM = 4
    VC_HITS = 5


#: Latency of a VectorCache (staging buffer) hit, cycles.
_VC_HIT_LATENCY = 2


def _cache(params, name: str) -> SetAssocCache:
    """The cache level described by a ``CacheParams``."""
    return SetAssocCache(
        params.size_bytes, params.assoc, params.line_bytes, params.latency, name
    )


def _prefetcher(params):
    """The prefetcher described by a ``PrefetcherParams`` (or ``None``)."""
    if not params:
        return NullPrefetcher()
    return StreamPrefetcher(params.num_streams, params.degree, params.trigger)


class Tlb:
    """LRU data-TLB (see :class:`repro.machine.config.TLBParams`).

    Exploits Python dict insertion order for the LRU: a hit re-inserts
    the page at the MRU end; a miss evicts the oldest entry.
    """

    __slots__ = ("entries", "shift", "penalty", "_pages", "misses", "hits")

    def __init__(self, entries: int, page_bytes: int, penalty: int):
        self.entries = entries
        self.shift = page_bytes.bit_length() - 1
        self.penalty = penalty
        self._pages = {}
        self.misses = 0
        self.hits = 0

    def access(self, addr: int, nbytes: int) -> int:
        """Translate an access; return the total miss penalty in cycles."""
        first = addr >> self.shift
        last = (addr + nbytes - 1) >> self.shift
        pages = self._pages
        cost = 0
        for page in range(first, last + 1):
            if page in pages:
                del pages[page]  # refresh LRU position
                pages[page] = True
                self.hits += 1
            else:
                self.misses += 1
                cost += self.penalty
                pages[page] = True
                if len(pages) > self.entries:
                    del pages[next(iter(pages))]
        return cost

    def flush(self) -> None:
        """Invalidate all translations."""
        self._pages.clear()


class MemoryHierarchy:
    """Builds and times the cache hierarchy for one machine config."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.l1 = _cache(cfg.l1, "L1")
        self.l2 = _cache(cfg.l2, "L2")
        if cfg.vpu.mem_port == "L2" and cfg.vpu.vector_cache_bytes:
            vc_bytes = cfg.vpu.vector_cache_bytes
            lines = max(1, vc_bytes // cfg.l2.line_bytes)
            # The VectorCache is a small fully-associative staging buffer.
            self.vector_cache = SetAssocCache(
                vc_bytes, lines, cfg.l2.line_bytes, _VC_HIT_LATENCY, "VectorCache"
            )
        else:
            self.vector_cache = None
        self.l1_prefetcher = _prefetcher(cfg.l1_prefetcher)
        self.l2_prefetcher = _prefetcher(cfg.l2_prefetcher)
        self.tlb = (
            Tlb(cfg.tlb.entries, cfg.tlb.page_bytes, cfg.tlb.miss_penalty)
            if cfg.tlb
            else None
        )
        self._l1_shift = cfg.l1.line_bytes.bit_length() - 1
        self._l2_shift = cfg.l2.line_bytes.bit_length() - 1
        # Hot-path constants, hoisted out of the per-line loops.
        self._l1_lat = cfg.l1.latency
        self._l2_lat = cfg.l2.latency
        self._dram_lat = cfg.dram_latency
        self._fill_l1 = cfg.l1.line_bytes / cfg.l2_to_l1_bytes_per_cycle
        self._fill_l2 = cfg.l2.line_bytes / cfg.dram_bytes_per_cycle
        self._l1_l2_ratio = cfg.l2.line_bytes // cfg.l1.line_bytes
        # The VectorCache is fully associative (lines == assoc), i.e. a
        # single set; the access paths manipulate that dict directly.
        # Cache.flush() clears sets in place, so the reference stays valid.
        self._vc_set = self.vector_cache._sets[0] if self.vector_cache else None
        self._pf1_on = not isinstance(self.l1_prefetcher, NullPrefetcher)
        self._pf2_on = not isinstance(self.l2_prefetcher, NullPrefetcher)
        # Pre-resolved access paths (the VPU integration is fixed per
        # config): callers on the simulator hot path bind these directly
        # instead of going through the dispatching wrappers below.
        self.scalar_path = self._l1_path
        if cfg.vpu.mem_port == "L1":
            self.vector_path = self._l1_path
            self.strided_vector_path = self._strided_l1_path
        else:
            self.vector_path = self._l2_path
            self.strided_vector_path = self._strided_l2_path
        # Coarse residency ranges (see note_resident_range): [start, end),
        # most recently used last.  Total bytes bounded by the L2 size.
        self._ranges = []
        self._range_budget = cfg.l2.size_bytes

    @classmethod
    def pricing_view(cls, cfg: MachineConfig) -> "MemoryHierarchy":
        """A hierarchy shell for replay point passes that never touch
        cache structure: the residency-range model plus the hoisted
        timing constants, nothing else.

        ``SetAssocCache`` allocates one dict per set, so a full
        ``MemoryHierarchy`` for a 256 MB L2 builds half a million empty
        dicts — prohibitive when a conflict-free point pass only reads
        three scalars and walks the byte-range model.  The constants
        below are computed by the exact expressions ``__init__`` uses,
        so pricing stays bitwise identical.
        """
        self = cls.__new__(cls)
        self.cfg = cfg
        self._l1_lat = cfg.l1.latency
        self._l2_lat = cfg.l2.latency
        self._dram_lat = cfg.dram_latency
        self._fill_l1 = cfg.l1.line_bytes / cfg.l2_to_l1_bytes_per_cycle
        self._fill_l2 = cfg.l2.line_bytes / cfg.dram_bytes_per_cycle
        self._ranges = []
        self._range_budget = cfg.l2.size_bytes
        return self

    @classmethod
    def l2_walk_view(cls, cfg: MachineConfig) -> "MemoryHierarchy":
        """A :meth:`pricing_view` plus the L2 and its prefetcher: all a
        replay point pass that walks the L2 reads.

        Unlike a full hierarchy it holds no bound-method attributes, so
        no reference cycle keeps its per-set dicts alive after the walk.
        """
        self = cls.pricing_view(cfg)
        self.l2 = _cache(cfg.l2, "L2")
        self.l2_prefetcher = _prefetcher(cfg.l2_prefetcher)
        self._pf2_on = not isinstance(self.l2_prefetcher, NullPrefetcher)
        return self

    # ------------------------------------------------------------------
    # Coarse residency model
    # ------------------------------------------------------------------
    # Loop *sampling* in the trace kernels (see simulator.py) touches only
    # a subset of a buffer's lines, which would make inter-kernel reuse
    # invisible to the line-level cache state: im2col writes the workspace
    # and GEMM immediately re-reads it; Darknet reuses the same workspace
    # and activation buffers across layers; Winograd re-streams its U
    # tiles every tile iteration.  Whether those re-reads hit is purely a
    # question of whether the buffer still fits in the L2 — which this
    # byte-range model answers exactly, at O(#buffers) cost.  A demand
    # miss that falls inside a registered range is priced as an L2 hit.

    def note_resident_range(self, base: int, nbytes: int) -> None:
        """Declare that ``[base, base+nbytes)`` was just streamed through
        the L2 (written or fully read).  If the range exceeds the L2
        capacity only its tail survives, and older ranges are evicted
        LRU-first until the total fits."""
        if nbytes <= 0:
            return
        end = base + nbytes
        start = max(base, end - self._range_budget)
        # Drop any overlapping older registration.
        self._ranges = [r for r in self._ranges if r[1] <= start or r[0] >= end]
        self._ranges.append([start, end])
        total = sum(r[1] - r[0] for r in self._ranges)
        while total > self._range_budget and len(self._ranges) > 1:
            victim = self._ranges.pop(0)
            total -= victim[1] - victim[0]
        if total > self._range_budget:
            r = self._ranges[0]
            r[0] = r[1] - self._range_budget

    def _range_hit(self, addr: int) -> bool:
        ranges = self._ranges
        for i in range(len(ranges) - 1, -1, -1):
            r = ranges[i]
            if r[0] <= addr < r[1]:
                if i != len(ranges) - 1:
                    ranges.append(ranges.pop(i))  # LRU refresh
                return True
        return False

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def scalar_access(self, addr: int, nbytes: int, write: bool = False):
        """Scalar-side access: L1 -> L2 -> DRAM.

        Returns ``(latency, occupancy, stats)``.
        """
        return self._l1_path(addr, nbytes, write)

    def vector_access(self, addr: int, nbytes: int, write: bool = False):
        """Vector-side access; the path depends on the VPU integration."""
        if self.cfg.vpu.mem_port == "L1":
            return self._l1_path(addr, nbytes, write)
        return self._l2_path(addr, nbytes, write)

    # The four path methods below inline :meth:`SetAssocCache.access`
    # (dict pop / reinsert, LRU eviction, dirty merge) instead of calling
    # it: they run once per cache line of every memory event in a
    # simulation, and the call overhead plus live counter updates
    # dominate the profile.  ``SetAssocCache.access`` remains the
    # reference semantics — keep them in lock-step.  Cache-object
    # hit/miss/writeback counters are accumulated in locals and flushed
    # once per call (addition commutes, and nothing reads them mid-call).

    def _l1_path(self, addr: int, nbytes: int, write: bool):
        shift = self._l1_shift
        first = addr >> shift
        if (addr + nbytes - 1) >> shift == first:
            return self._l1_one_line(addr, nbytes, first, write)
        tlb_cost = self.tlb.access(addr, nbytes) if self.tlb else 0
        l1, l2 = self.l1, self.l2
        l1_sets, l1_num, l1_assoc = l1._sets, l1.num_sets, l1.assoc
        l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        pf1 = self.l1_prefetcher if self._pf1_on else None
        pf2 = self.l2_prefetcher if self._pf2_on else None
        shift = self._l1_shift
        l1_lat = self._l1_lat
        l1_l2_lat = l1_lat + self._l2_lat
        l1_l2_dram_lat = l1_l2_lat + self._dram_lat
        fill_l1 = self._fill_l1
        fill_l2 = self._fill_l2
        first = addr >> shift
        last = (addr + nbytes - 1) >> shift
        ratio = self._l1_l2_ratio  # L2 lines may be wider (equal here)
        range_hit = self._range_hit
        lat = tlb_cost
        occ1 = 0.0
        occ2 = 0.0
        l1h = l1m = l2h = l2m = dram = 0
        l1_wb = l2m_o = l2_wb = 0
        for la in range(first, last + 1):
            ways = l1_sets[la % l1_num]
            dirty = ways.pop(la, None)
            if dirty is not None:
                ways[la] = dirty or write
                lat += l1_lat
                l1h += 1
                continue
            ways[la] = write
            if len(ways) > l1_assoc and ways.pop(next(iter(ways))):
                l1_wb += 1
            l1m += 1
            if pf1 is not None:
                pf1.observe(l1, la)
            occ1 += fill_l1
            l2a = la // ratio if ratio > 1 else la
            ways2 = l2_sets[l2a % l2_num]
            dirty2 = ways2.pop(l2a, None)
            if dirty2 is not None:
                ways2[l2a] = dirty2 or write
                hit2 = True
            else:
                l2m_o += 1
                ways2[l2a] = write
                if len(ways2) > l2_assoc and ways2.pop(next(iter(ways2))):
                    l2_wb += 1
                hit2 = range_hit(la << shift)
            if hit2:
                lat += l1_l2_lat
                l2h += 1
            else:
                l2m += 1
                dram += 1
                if pf2 is not None:
                    pf2.observe(l2, l2a)
                occ2 += fill_l2
                lat += l1_l2_dram_lat
        l1.hits += l1h
        l1.misses += l1m
        l1.writebacks += l1_wb
        l2.hits += l1m - l2m_o
        l2.misses += l2m_o
        l2.writebacks += l2_wb
        return lat, (occ1, occ2), (l1h, l1m, l2h, l2m, dram, 0)

    def _l1_one_line(self, addr: int, nbytes: int, la: int, write: bool):
        """Single-line specialization of :meth:`_l1_path`.

        Scalar loads/stores are overwhelmingly single-line (and mostly
        L1 hits), so the common case skips the multi-line prologue and
        the per-line loop entirely.  Side effects and arithmetic mirror
        one iteration of :meth:`_l1_path` exactly.
        """
        tlb = self.tlb
        lat = 0
        if tlb is not None:
            page = addr >> tlb.shift
            pages = tlb._pages
            if page in pages and (addr + nbytes - 1) >> tlb.shift == page:
                del pages[page]  # refresh LRU position
                pages[page] = True
                tlb.hits += 1
            else:
                lat = tlb.access(addr, nbytes)
        l1 = self.l1
        ways = l1._sets[la % l1.num_sets]
        dirty = ways.pop(la, None)
        if dirty is not None:
            ways[la] = dirty or write
            l1.hits += 1
            return lat + self._l1_lat, (0.0, 0.0), (1, 0, 0, 0, 0, 0)
        l1.misses += 1
        ways[la] = write
        if len(ways) > l1.assoc and ways.pop(next(iter(ways))):
            l1.writebacks += 1
        if self._pf1_on:
            self.l1_prefetcher.observe(l1, la)
        occ1 = 0.0 + self._fill_l1
        ratio = self._l1_l2_ratio
        l2a = la // ratio if ratio > 1 else la
        l2 = self.l2
        ways2 = l2._sets[l2a % l2.num_sets]
        dirty2 = ways2.pop(l2a, None)
        if dirty2 is not None:
            ways2[l2a] = dirty2 or write
            l2.hits += 1
            return (
                lat + self._l1_lat + self._l2_lat,
                (occ1, 0.0),
                (0, 1, 1, 0, 0, 0),
            )
        l2.misses += 1
        ways2[l2a] = write
        if len(ways2) > l2.assoc and ways2.pop(next(iter(ways2))):
            l2.writebacks += 1
        if self._range_hit(la << self._l1_shift):
            return (
                lat + self._l1_lat + self._l2_lat,
                (occ1, 0.0),
                (0, 1, 1, 0, 0, 0),
            )
        if self._pf2_on:
            self.l2_prefetcher.observe(l2, l2a)
        return (
            lat + self._l1_lat + self._l2_lat + self._dram_lat,
            (occ1, 0.0 + self._fill_l2),
            (0, 1, 0, 1, 1, 0),
        )

    def _l2_path(self, addr: int, nbytes: int, write: bool):
        """RVV decoupled-VPU path: VectorCache -> L2 -> DRAM (L1 bypassed).

        A VectorCache *miss* write-allocates the line (that is what
        staging means here), so no separate fill step is needed after the
        L2 lookup — the line is already resident for the next access.
        """
        tlb = self.tlb
        if tlb is not None:
            page = addr >> tlb.shift
            pages = tlb._pages
            if page in pages and (addr + nbytes - 1) >> tlb.shift == page:
                del pages[page]  # refresh LRU position
                pages[page] = True
                tlb.hits += 1
                tlb_cost = 0
            else:
                tlb_cost = tlb.access(addr, nbytes)
        else:
            tlb_cost = 0
        vc, l2 = self.vector_cache, self.l2
        vc_set = self._vc_set
        l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        shift = self._l2_shift
        l2_lat = self._l2_lat
        l2_dram_lat = l2_lat + self._dram_lat
        fill_l2 = self._fill_l2
        range_hit = self._range_hit
        ranges = self._ranges
        first = addr >> shift
        last = (addr + nbytes - 1) >> shift
        lat = tlb_cost
        occ2 = 0.0
        l2h = l2m = dram = vch = 0
        vc_wb = l2h_o = l2m_o = l2_wb = 0
        if vc_set is not None:
            # The VC is a single fully-associative set at steady-state
            # capacity; its size is tracked in a local (a hit leaves it
            # unchanged, a miss either evicts or grows it) to avoid a
            # len() call per line.
            vc_assoc = vc.assoc
            vc_pop = vc_set.pop
            vc_len = len(vc_set)
            for la in range(first, last + 1):
                dirty = vc_pop(la, None)
                if dirty is not None:
                    vc_set[la] = dirty or write
                    lat += _VC_HIT_LATENCY
                    vch += 1
                    continue
                vc_set[la] = write
                if vc_len >= vc_assoc:
                    if vc_pop(next(iter(vc_set))):
                        vc_wb += 1
                else:
                    vc_len += 1
                ways = l2_sets[la % l2_num]
                dirty = ways.pop(la, None)
                if dirty is not None:
                    ways[la] = dirty or write
                    l2h_o += 1
                    lat += l2_lat
                    l2h += 1
                    continue
                l2m_o += 1
                ways[la] = write
                if len(ways) > l2_assoc and ways.pop(next(iter(ways))):
                    l2_wb += 1
                # MRU-range fast path: _range_hit walks newest-first and
                # does not reorder on a last-entry hit, so checking it
                # inline is equivalent.
                a = la << shift
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    lat += l2_lat
                    l2h += 1
                else:
                    l2m += 1
                    dram += 1
                    occ2 += fill_l2
                    lat += l2_dram_lat
        else:
            for la in range(first, last + 1):
                ways = l2_sets[la % l2_num]
                dirty = ways.pop(la, None)
                if dirty is not None:
                    ways[la] = dirty or write
                    l2h_o += 1
                    lat += l2_lat
                    l2h += 1
                    continue
                l2m_o += 1
                ways[la] = write
                if len(ways) > l2_assoc and ways.pop(next(iter(ways))):
                    l2_wb += 1
                # MRU-range fast path: _range_hit walks newest-first and
                # does not reorder on a last-entry hit, so checking it
                # inline is equivalent.
                a = la << shift
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    lat += l2_lat
                    l2h += 1
                else:
                    l2m += 1
                    dram += 1
                    occ2 += fill_l2
                    lat += l2_dram_lat
        if vc is not None:
            vc.hits += vch
            vc.misses += l2h_o + l2m_o
            vc.writebacks += vc_wb
        l2.hits += l2h_o
        l2.misses += l2m_o
        l2.writebacks += l2_wb
        return lat, (0.0, occ2), (0, 0, l2h, l2m, dram, vch)

    # ------------------------------------------------------------------
    # Bulk strided access
    # ------------------------------------------------------------------
    def strided_vector_access(
        self, addr: int, n_elems: int, ew: int, stride: int, write: bool = False
    ):
        """Bulk vector-side access of *n_elems* elements of width *ew* at
        byte distance *stride*, as issued by one strided load/store or
        gather/scatter.

        Numerically identical to ``n_elems`` successive
        :meth:`vector_access` calls at ``addr + i * stride`` with the
        partial latencies / occupancies / stats summed — but evaluated in
        one pass: consecutive elements that fall on the line just touched
        (``stride < line_bytes``) take a deduplicated fast path that
        charges the guaranteed hit directly instead of re-walking the
        lookup machinery, and the same-page TLB refresh is likewise
        short-circuited.  Returns the same ``(latency, occupancy, stats)``
        triple as :meth:`vector_access`.
        """
        if self.cfg.vpu.mem_port == "L1":
            return self._strided_l1_path(addr, n_elems, ew, stride, write)
        return self._strided_l2_path(addr, n_elems, ew, stride, write)

    def _strided_l1_path(self, addr: int, n_elems: int, ew: int, stride: int, write: bool):
        l1, l2 = self.l1, self.l2
        l1_sets, l1_num, l1_assoc = l1._sets, l1.num_sets, l1.assoc
        l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        pf1 = self.l1_prefetcher if self._pf1_on else None
        pf2 = self.l2_prefetcher if self._pf2_on else None
        tlb = self.tlb
        tlb_shift = tlb.shift if tlb is not None else 0
        shift = self._l1_shift
        l1_lat = self._l1_lat
        l1_l2_lat = l1_lat + self._l2_lat
        l1_l2_dram_lat = l1_l2_lat + self._dram_lat
        fill_l1 = self._fill_l1
        fill_l2 = self._fill_l2
        ratio = self._l1_l2_ratio
        range_hit = self._range_hit
        lat = 0
        occ1 = 0.0
        occ2 = 0.0
        l1h = l1m = l2h = l2m = dram = 0
        l1_wb = l2m_o = l2_wb = 0
        prev_line = -1
        prev_page = -1
        for i in range(n_elems):
            a = addr + i * stride
            end = a + ew - 1
            if tlb is not None:
                page = a >> tlb_shift
                if page == prev_page and (end >> tlb_shift) == page:
                    tlb.hits += 1  # page is MRU from the previous element
                else:
                    lat += tlb.access(a, ew)
                    prev_page = page if (end >> tlb_shift) == page else -1
            first = a >> shift
            last = end >> shift
            if first == last == prev_line:
                # Deduplicated line: normally still resident from the
                # previous element (write-allocate); refresh LRU and merge
                # the dirty bit exactly as access() would.  If prefetch
                # fills evicted it in between (only possible in degenerate
                # single-set geometries), fall through to the miss path.
                ways = l1_sets[first % l1_num]
                dirty = ways.pop(first, None)
                if dirty is not None:
                    ways[first] = dirty or write
                    lat += l1_lat
                    l1h += 1
                    continue
            for la in range(first, last + 1):
                ways = l1_sets[la % l1_num]
                dirty = ways.pop(la, None)
                if dirty is not None:
                    ways[la] = dirty or write
                    lat += l1_lat
                    l1h += 1
                    continue
                ways[la] = write
                if len(ways) > l1_assoc and ways.pop(next(iter(ways))):
                    l1_wb += 1
                l1m += 1
                if pf1 is not None:
                    pf1.observe(l1, la)
                occ1 += fill_l1
                l2a = la // ratio if ratio > 1 else la
                ways2 = l2_sets[l2a % l2_num]
                dirty2 = ways2.pop(l2a, None)
                if dirty2 is not None:
                    ways2[l2a] = dirty2 or write
                    hit2 = True
                else:
                    l2m_o += 1
                    ways2[l2a] = write
                    if len(ways2) > l2_assoc and ways2.pop(next(iter(ways2))):
                        l2_wb += 1
                    hit2 = range_hit(la << shift)
                if hit2:
                    lat += l1_l2_lat
                    l2h += 1
                else:
                    l2m += 1
                    dram += 1
                    if pf2 is not None:
                        pf2.observe(l2, l2a)
                    occ2 += fill_l2
                    lat += l1_l2_dram_lat
            prev_line = last
        l1.hits += l1h
        l1.misses += l1m
        l1.writebacks += l1_wb
        l2.hits += l1m - l2m_o
        l2.misses += l2m_o
        l2.writebacks += l2_wb
        return lat, (occ1, occ2), (l1h, l1m, l2h, l2m, dram, 0)

    def _strided_l2_path(self, addr: int, n_elems: int, ew: int, stride: int, write: bool):
        vc, l2 = self.vector_cache, self.l2
        vc_set = self._vc_set
        vc_assoc = vc.assoc if vc is not None else 0
        l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
        tlb = self.tlb
        tlb_shift = tlb.shift if tlb is not None else 0
        shift = self._l2_shift
        l2_lat = self._l2_lat
        l2_dram_lat = l2_lat + self._dram_lat
        fill_l2 = self._fill_l2
        range_hit = self._range_hit
        lat = 0
        occ2 = 0.0
        l2h = l2m = dram = vch = 0
        vc_wb = l2h_o = l2m_o = l2_wb = 0
        prev_line = -1
        prev_page = -1
        for i in range(n_elems):
            a = addr + i * stride
            end = a + ew - 1
            if tlb is not None:
                page = a >> tlb_shift
                if page == prev_page and (end >> tlb_shift) == page:
                    tlb.hits += 1
                else:
                    lat += tlb.access(a, ew)
                    prev_page = page if (end >> tlb_shift) == page else -1
            first = a >> shift
            last = end >> shift
            if first == last == prev_line:
                # Deduplicated line: the previous element left it resident
                # (and MRU) in the cache that served it — a guaranteed hit.
                if vc_set is not None:
                    vc_set[first] = vc_set.pop(first) or write
                    lat += _VC_HIT_LATENCY
                    vch += 1
                else:
                    ways = l2_sets[first % l2_num]
                    ways[first] = ways.pop(first) or write
                    l2h_o += 1
                    lat += l2_lat
                    l2h += 1
                continue
            for la in range(first, last + 1):
                if vc_set is not None:
                    dirty = vc_set.pop(la, None)
                    if dirty is not None:
                        vc_set[la] = dirty or write
                        lat += _VC_HIT_LATENCY
                        vch += 1
                        continue
                    vc_set[la] = write
                    if len(vc_set) > vc_assoc and vc_set.pop(next(iter(vc_set))):
                        vc_wb += 1
                ways = l2_sets[la % l2_num]
                dirty = ways.pop(la, None)
                if dirty is not None:
                    ways[la] = dirty or write
                    l2h_o += 1
                    hit = True
                else:
                    l2m_o += 1
                    ways[la] = write
                    if len(ways) > l2_assoc and ways.pop(next(iter(ways))):
                        l2_wb += 1
                    hit = range_hit(la << shift)
                if hit:
                    lat += l2_lat
                    l2h += 1
                else:
                    l2m += 1
                    dram += 1
                    occ2 += fill_l2
                    lat += l2_dram_lat
            prev_line = last
        if vc is not None:
            vc.hits += vch
            vc.misses += l2h_o + l2m_o
            vc.writebacks += vc_wb
        l2.hits += l2h_o
        l2.misses += l2m_o
        l2.writebacks += l2_wb
        return lat, (0.0, occ2), (0, 0, l2h, l2m, dram, vch)

    # ------------------------------------------------------------------
    # Software prefetch
    # ------------------------------------------------------------------
    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> int:
        """Honour a software prefetch hint into *level* (``"L1"``/``"L2"``).

        Returns the number of lines filled.  The caller is responsible for
        checking :attr:`MachineConfig.honors_sw_prefetch` — on gem5 these
        are no-ops and on RVV the compiler deletes them (Section IV-A).
        """
        if level == "L1":
            cache, shift = self.l1, self._l1_shift
        elif level == "L2":
            cache, shift = self.l2, self._l2_shift
        else:
            raise ValueError(f"unknown prefetch level {level!r}")
        first = addr >> shift
        last = (addr + nbytes - 1) >> shift
        filled = 0
        for la in range(first, last + 1):
            # Prefetching into L1 implies the line also lands in L2
            # (inclusive hierarchy).
            if cache is self.l1:
                ratio = self.cfg.l2.line_bytes // self.cfg.l1.line_bytes
                self.l2.fill(la // ratio if ratio > 1 else la)
            if cache.fill(la):
                filled += 1
        return filled

    def flush(self) -> None:
        """Invalidate all cache state (between independent simulations)."""
        self.l1.flush()
        self.l2.flush()
        if self.vector_cache is not None:
            self.vector_cache.flush()
        self.l1_prefetcher.reset()
        self.l2_prefetcher.reset()
        self._ranges.clear()
        if self.tlb:
            self.tlb.flush()
