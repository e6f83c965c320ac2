"""Replay recorded kernel traces against one or many design points.

Three engines, three speed classes:

* :func:`replay` — feed a :class:`~repro.machine.trace.RecordedTrace`
  back through a regular :class:`~repro.machine.simulator.TraceSimulator`
  event by event.  Skips all kernel-side work (loop bookkeeping, address
  arithmetic, policy dispatch) but re-prices every event; bitwise
  identical to direct simulation by construction, since it calls the
  very same event methods with the very same arguments and weights.

* :func:`replay_sweep` — price one trace on a whole *group* of machines
  that differ only in L2 geometry/latency and DRAM parameters (the
  paper's Fig. 7/8 cache sweeps) or only in VPU pricing parameters —
  lanes, pipes, MLP, port width, issue overheads (the Fig. 6/8 lane
  and MLP axes).  The trace is walked **once** through the
  group-invariant upstream levels (TLB, L1, prefetcher, VectorCache
  — all identical across the group), producing a compact *program* of
  pre-priced invariant cycle contributions plus the per-event list of
  line addresses that reached the L2.  Each design point then replays
  only that program against its own L2/range model — typically a few
  percent of the events carry pending lines, so a point costs a small
  fraction of a direct simulation.  In a VPU group
  (:func:`group_mode` returns ``"vpu"``) the lane/MLP-dependent cycle
  terms are not pre-priced: the shared pass records each distinct
  (event kind, element count, operand shape) as a *pricing class*
  (tag-6 program items), and every point resolves the class table
  once against its own VPU before folding — so one capture prices a
  whole lane sweep bitwise-identically to per-point simulation.  The
  shared pass over a recorded trace has one engine,
  :func:`_shared_pass`: a per-event loop over the trace rows driving
  a :class:`_GroupCapture`.  (A columnar NumPy twin was deleted: no
  benchmark workload gained from it, and on 20-layer YOLOv3 it was
  slower at ~1.7x the peak memory; docs/PERFORMANCE.md §5.)

* :func:`capture_sweep` — the same split, but the shared pass is driven
  directly by the kernels (no intermediate trace): one kernel run prices
  the whole group.  This is the serial cold-sweep fast path.

Bitwise identity
----------------
The split relies on properties of the direct simulator that are easy to
state and checked by tests/test_trace_replay.py:

* Latency sums are integers until the final stall arithmetic, so
  splitting ``lat`` into an upstream part (shared pass) and
  ``l2_lat * pending + dram_lat * misses`` (point pass) is exact.
* Per-event cycle pricing is a pure function of the walk outcome —
  :func:`~repro.machine.simulator.vmem_event_cycles` is shared with the
  simulator, and the scalar-miss formula below is kept in lock-step
  with ``TraceSimulator.scalar_load``/``scalar_store``.
* ``SimStats`` counters are accumulated per field in event order; the
  twelve group-invariant fields are folded once in the shared pass and
  copied into every point's result.
* ``occ2`` is a repeated sum of ``fill_l2`` — reproduced with a
  running table so point ``k`` misses cost exactly the same float.
* Dirty bits only feed cache-object writeback counters (never
  ``SimStats``), so the point-pass L2 walk may store ``True``
  unconditionally without perturbing residency or LRU order.

Each point is priced by one pipeline (:func:`_run_points`): the
program's point-independent columns (:func:`_skeleton`), the point's L2
walk (one ``(nh, nm)`` split per event), interning into pricing classes
(:func:`_intern`), and column arithmetic (:func:`_point_pass_vec`).
Without prefetch fills (no L2 prefetcher, no honoured software
prefetch) the L2 sees the pure demand stream, and :func:`_lru_walk`
resolves it with NumPy: an access hits in an LRU set iff the same line
was touched before with fewer than ``assoc`` distinct same-set lines in
between (Mattson et al.'s stack distance), which the per-group reuse
columns (:func:`_reuse`) answer for most accesses outright; the rest
count distinct lines over their set-local windows.  Only the LRU misses
then run the residency-range check.  Groups with prefetch fills run
the sequential LRU loop (:func:`_walk`), which is also the test oracle.
The pricing folds are strictly sequential in event order (NumPy
accumulate and bincount-with-weights are defined as in-order loops,
unlike the pairwise ``np.sum``), so the result stays bitwise identical.

The hierarchy walks in :class:`_GroupCapture` mirror
``MemoryHierarchy._l1_path`` / ``_l2_path`` and their strided variants
line for line (minus the L2 lookup, which is deferred): keep them in
lock-step with hierarchy.py when the model changes.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .config import MachineConfig
from .hierarchy import _VC_HIT_LATENCY, MemoryHierarchy
from .simulator import (
    _SCALAR_MLP,
    _SPILL_SERIALIZE_CYCLES,
    _STORE_STALL_FACTOR,
    SimStats,
    TraceSimulator,
    vmem_event_cycles,
)
from .trace import (
    OP_COUNT_FLOPS,
    OP_NOTE_RANGE,
    OP_SCALAR,
    OP_SCALAR_LOAD,
    OP_SCALAR_STORE,
    OP_SPILL,
    OP_SW_PREFETCH,
    OP_VARITH,
    OP_VBROADCAST,
    OP_VLOAD,
    OP_VSTORE,
    TRACE_FORMAT_VERSION,
    AddressSpace,
    RecordedTrace,
    SampledTraceBase,
)
from .vpu import varith_cycles, vbroadcast_cycles

__all__ = [
    "replay",
    "replay_sweep",
    "replay_sweep_cached",
    "capture_sweep",
    "uniform_group",
    "group_mode",
    "supports_axis",
    "nonuniform_fields",
]

#: SimStats fields that do not depend on L2/DRAM parameters: everything
#: upstream of the L2 plus the pure instruction/byte/flop counts.
_INVARIANT_FIELDS = (
    "scalar_instrs",
    "vec_instrs",
    "vec_mem_instrs",
    "vec_elems",
    "flops",
    "bytes_loaded",
    "bytes_stored",
    "l1_hits",
    "l1_misses",
    "vc_hits",
    "sw_prefetches",
    "spills",
)


def _check_compatible(trace: RecordedTrace, machine: MachineConfig) -> None:
    if not trace.compatible_with(machine):
        raise ValueError(
            f"trace (isa={trace.isa_name}, vlen={trace.vlen_bits}b, "
            f"l1_line={trace.l1_line_bytes}) cannot replay on machine "
            f"{machine.name!r} ({machine.isa_name}, {machine.vlen_bits}b, "
            f"l1_line={machine.l1.line_bytes})"
        )


# ----------------------------------------------------------------------
# Single-point replay
# ----------------------------------------------------------------------
def replay(
    trace: RecordedTrace, machine: MachineConfig, verify: bool = False
) -> SimStats:
    """Price *trace* on *machine*; bitwise identical to direct simulation.

    Raises ``ValueError`` if the trace was captured for a different
    (ISA, vector length, L1 line) combination — those change the event
    stream itself, not just its pricing.  With ``verify=True`` the
    trace is first run through the static verifier
    (:func:`repro.analysis.verify_trace`) and a ``ValueError`` raised
    on any finding — cheap insurance when replaying traces of unknown
    provenance (e.g. spill files from another process).
    """
    _check_compatible(trace, machine)
    from ..testing import faults  # inert unless REPRO_FAULTS is set

    faults.maybe_fault("replay.point", key=trace.key)
    if verify:
        from ..analysis import verify_trace  # deferred: analysis is optional

        bad = verify_trace(trace, machine)
        if bad:
            raise ValueError(
                f"trace failed verification ({len(bad)} findings): "
                + "; ".join(f.message for f in bad[:3])
            )
    sim = TraceSimulator(machine)
    labels = trace.labels
    stack = sim._kernel_stack
    vmem = sim._vmem
    scalar = sim.scalar
    scalar_load = sim.scalar_load
    scalar_store = sim.scalar_store
    varith = sim.varith
    note_range = sim.hierarchy.note_resident_range
    cur_w = 1.0
    cur_kid = 0
    for op, w, kid, i0, i1, i2, i3, f0 in trace.rows():
        if w != cur_w:
            sim._w = cur_w = w
        if kid != cur_kid:
            stack[-1] = labels[kid]
            cur_kid = kid
        if op == OP_VLOAD:
            vmem(i0, i1, i2, i3, False)
        elif op == OP_SCALAR:
            scalar(i0)
        elif op == OP_SCALAR_LOAD:
            scalar_load(i0, i1)
        elif op == OP_VARITH:
            varith(i0, i1, f0, i2)
        elif op == OP_VSTORE:
            vmem(i0, i1, i2, i3, True)
        elif op == OP_SCALAR_STORE:
            scalar_store(i0, i1)
        elif op == OP_NOTE_RANGE:
            note_range(i0, i1)
        elif op == OP_SW_PREFETCH:
            sim.sw_prefetch(i0, i1, "L1" if i2 == 0 else "L2")
        elif op == OP_VBROADCAST:
            sim.vbroadcast(i0)
        elif op == OP_COUNT_FLOPS:
            sim.count_flops(f0)
        elif op == OP_SPILL:
            sim.spill(i0)
        else:
            raise ValueError(f"unknown trace opcode {op}")
    return sim.stats


# ----------------------------------------------------------------------
# Group replay: shared upstream pass + per-point L2 pass
# ----------------------------------------------------------------------
#: VPU fields that shape the upstream *walk* (which hierarchy level a
#: vector access reaches, VectorCache residency) rather than just the
#: per-event cycle price.  A group varying in these cannot share one
#: shared pass; everything else on VPUParams is pricing-only and is
#: deferred to the point pass in ``"vpu"`` mode.
_VPU_WALK_FIELDS = ("mem_port", "vector_cache_bytes")


def group_mode(machines: Sequence[MachineConfig]) -> Optional[str]:
    """Classify a sweep group for the shared-pass split.

    * ``"l2"`` — machines differ only in L2 size/associativity/latency
      and DRAM latency/bandwidth (and labels).  Every per-event compute
      price is group-invariant and pre-priced in the shared pass.
    * ``"vpu"`` — machines additionally differ in VPU *pricing* fields
      (lanes, pipes, MLP, port width, issue overheads, outstanding
      limit).  The walk is still group-invariant, but vector compute
      prices are deferred as tag-6 pricing classes and resolved per
      point.
    * ``None`` — the group varies in a field the split cannot express
      (ISA, vector length, L1 geometry, core model, VPU port level,
      VectorCache size, L2 line size); callers must fall back to
      per-point simulation.

    The L2 *line size* must match across the group, and be at least the
    L1 line — pending lines are recorded as L1 lines and grouped into
    L2 lines per point.
    """
    m0 = machines[0]
    if m0.l2.line_bytes < m0.l1.line_bytes:
        return None
    v0 = m0.vpu
    mode = "l2"
    for m in machines[1:]:
        if m.l2.line_bytes != m0.l2.line_bytes:
            return None
        norm = replace(
            m,
            name=m0.name,
            l2=m0.l2,
            dram_latency=m0.dram_latency,
            dram_bytes_per_cycle=m0.dram_bytes_per_cycle,
            peak_gflops=m0.peak_gflops,
        )
        if norm == m0:
            continue
        v = m.vpu
        if any(getattr(v, f) != getattr(v0, f) for f in _VPU_WALK_FIELDS):
            return None
        if replace(norm, vpu=v0) != m0:
            return None
        mode = "vpu"
    return mode


def uniform_group(machines: Sequence[MachineConfig]) -> bool:
    """True if the machines differ only in L2/DRAM pricing fields (the
    ``"l2"`` mode of :func:`group_mode`); kept for callers that cannot
    defer VPU pricing."""
    return group_mode(machines) == "l2"


#: Sweep axes the replay engines can price.  L2/DRAM axes and VPU
#: pricing axes replay in a shared-pass group; ``vlen`` changes the
#: event stream itself, so each VL is a single-point group that
#: replays from its own capture once one is held.
_REPLAY_AXES = frozenset(
    {
        "l2_mb",
        "l2_size",
        "l2_assoc",
        "l2_latency",
        "dram_latency",
        "dram_bytes_per_cycle",
        "dram_bw",
        "lanes",
        "pipes",
        "mlp",
        "vlen",
        "vlen_bits",
    }
)


def supports_axis(name: str) -> bool:
    """True if the pricing pass can replay a sweep along axis *name*.

    Capability query for sweep drivers: a supported axis either forms a
    replayable group (:func:`group_mode` returns non-``None``) or, for
    ``vlen``, splits into single-point groups that each replay from
    their own capture once one is held — one capture per VL serving
    every pricing axis at that VL, with warm runs served from the
    persistent compiled-pass cache (:func:`replay_sweep_cached`).
    When a cold VL point captures is the sweep driver's decision
    (:func:`repro.core.codesign.price_group`).  An unsupported axis (e.g.
    ``l1_size``, ``mem_port``) changes the recorded walk itself and
    must simulate per point.
    """
    return name in _REPLAY_AXES


def nonuniform_fields(machines: Sequence[MachineConfig]) -> List[str]:
    """Names of ``MachineConfig`` fields that differ across *machines*.

    Used to build actionable error messages when a group declines
    replay (``name`` and the derived ``peak_gflops`` are ignored).
    """
    from dataclasses import fields

    m0 = machines[0]
    diff = set()
    for m in machines[1:]:
        for f in fields(m0):
            if getattr(m, f.name) != getattr(m0, f.name):
                diff.add(f.name)
    return sorted(diff - {"name", "peak_gflops"})


class _GroupCapture(SampledTraceBase):
    """Event-driven shared pass over the group-invariant hierarchy levels.

    Presents the TraceSimulator event API (so kernels — or a recorded
    trace — can drive it directly) and walks every memory event through
    the levels that are identical across an L2/DRAM sweep group: TLB,
    L1, L1 prefetcher, VectorCache.  Output (see :meth:`finish`) is the
    replay *program* the point passes price, the folded invariant
    ``SimStats`` fields, and the group constants.

    ``prog`` items (in original event order):

    * ``float`` — a pre-priced, weighted cycle contribution.  Never
      coalesced: the point pass must fold cycles in the direct
      simulator's event order for bitwise identity.
    * ``(1, label)`` — kernel-label switch (emitted lazily, only ahead
      of items that add cycles, so no spurious ``kernel_cycles``
      entries).
    * ``(2, base, nbytes)`` — ``note_resident_range`` call.
    * ``(3, w, na, inv_lat, occ1, nbytes, n_lines, write, unit, iid)`` —
      a vector memory event with ``na`` pending lines for the L2.
    * ``(4, w, na, inv_lat, occ1, write)`` — a scalar access with at
      least one L1 miss.

      The pending lines of tag-3/4 items are not held in the items:
      ``gc["lines"]`` (an ``array("i")``) lists them for the whole
      program in stream order, as *L1-line* indices (the source-level
      granularity is a group constant, folded here once instead of per
      line per point): the residency-range check reads the byte
      address ``line << l1_shift`` and the L2 the line
      ``(line << l1_shift) >> l2_shift``.
    * ``(5, lines)`` — honoured software-prefetch fills into the L2.
    * ``(6, w, cid)`` — (``defer_vpu`` mode only) a VPU-priced event
      whose cycle cost depends on lane count / MLP / port width.  The
      class table (``gc["classes"]``) maps ``cid`` to the event's
      pricing inputs; each point resolves the table once against its
      own VPU (:func:`_vpu_price_table`) and folds ``w * price``
      exactly where the l2-mode float would have been.
    """

    def __init__(self, base: MachineConfig, defer_vpu: bool = False):
        super().__init__()
        self.machine = base
        self.address_space = AddressSpace()
        # Kernels only reach the hierarchy via note_resident_range.
        self.hierarchy = self
        # The walk never reaches the L2 (its lookups are deferred), so a
        # one-line L2 spares the one-dict-per-set allocation of a large
        # one; nothing read below depends on the L2 size.
        hier = MemoryHierarchy(
            replace(base, l2=replace(base.l2, size_bytes=base.l2.line_bytes, assoc=1))
        )
        vpu = base.vpu
        self._vpu = vpu
        self._port_l1 = vpu.mem_port == "L1"
        self._scalar_cpi = base.core.scalar_cpi
        self._ooo_hide = base.core.ooo_hide
        self._l1_line = base.l1.line_bytes
        self._l1_shift = hier._l1_shift
        self._l2_shift = hier._l2_shift
        self._l1_lat = hier._l1_lat
        self._fill_l1 = hier._fill_l1
        self._ratio = hier._l1_l2_ratio
        l1 = hier.l1
        self._l1 = l1
        self._l1_sets = l1._sets
        self._l1_num = l1.num_sets
        self._l1_assoc = l1.assoc
        self._pf1 = hier.l1_prefetcher if hier._pf1_on else None
        self._pf2_cfg = hier._pf2_on
        self._tlb = hier.tlb
        self._tlb_shift = hier.tlb.shift if hier.tlb is not None else 0
        vc = hier.vector_cache
        self._vc_set = hier._vc_set
        self._vc_assoc = vc.assoc if vc is not None else 0
        self._honors = base.honors_sw_prefetch
        self._noop_pf = base.sw_prefetch_is_noop_instr
        self._vb_cycles = vbroadcast_cycles(vpu)
        # Vector pending lines are L1-granular on an L1-port machine,
        # L2-granular otherwise (scaled to L1 lines by ``_v_up``
        # places); scalar ones are always L1-granular.
        self._v_up = 0 if self._port_l1 else self._l2_shift - self._l1_shift

        self._prog: list = []
        self._append = self._prog.append  # pre-bound: hot-path use
        self._cur_label: Optional[str] = None  # forces the first switch
        self._lines = array("i")  # pending L1 lines of tags 3/4, in order
        self._inv_ids: dict = {}
        self._vmem_inv_memo: dict = {}
        self._varith_memo: dict = {}
        # Deferred VPU pricing: the memos above then cache class ids
        # instead of cycle prices (the mode is fixed per instance).
        self._defer = defer_vpu
        self._classes: list = []
        self._cls_ids: dict = {}
        self._has_fills = False
        self._max_range_total = 0
        self._inf_ranges: list = []

        self._scalar_instrs = 0.0
        self._vec_instrs = 0.0
        self._vec_mem_instrs = 0.0
        self._vec_elems = 0.0
        self._flops = 0.0
        self._bytes_loaded = 0.0
        self._bytes_stored = 0.0
        self._l1_hits_c = 0.0
        self._l1_misses_c = 0.0
        self._vc_hits_c = 0.0
        self._sw_prefetches_c = 0.0
        self._spills_c = 0.0

    # -- bookkeeping ---------------------------------------------------
    def alloc(self, name, nbytes):
        return self.address_space.alloc(name, nbytes)

    def note_resident_range(self, base: int, nbytes: int) -> None:
        self._prog.append((2, base, nbytes))
        if nbytes > 0:
            # Track the would-be range total under an infinite budget:
            # if it never exceeds a point's L2 capacity, that point
            # never trims or evicts a range (eligibility for the
            # equivalence-class shortcut in the point driver).
            end_r = base + nbytes
            inf_ranges = [
                r for r in self._inf_ranges if r[1] <= base or r[0] >= end_r
            ]
            inf_ranges.append((base, end_r))
            self._inf_ranges = inf_ranges
            total = 0
            for r in inf_ranges:
                total += r[1] - r[0]
            if total > self._max_range_total:
                self._max_range_total = total

    def _switch(self, append) -> None:
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label

    def _class_id(self, defn: tuple) -> int:
        """Intern a VPU pricing-class descriptor, returning its id."""
        cid = self._cls_ids.get(defn)
        if cid is None:
            cid = self._cls_ids[defn] = len(self._classes)
            self._classes.append(defn)
        return cid

    # -- events (TraceSimulator API) -----------------------------------
    def scalar(self, n: int = 1) -> None:
        w = self._w
        self._scalar_instrs += w * n
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        append(w * (n * self._scalar_cpi))

    def scalar_load(self, addr: int, nbytes: int = 4) -> None:
        self._scalar_mem(addr, nbytes, False)

    def scalar_store(self, addr: int, nbytes: int = 4) -> None:
        self._scalar_mem(addr, nbytes, True)

    def _scalar_mem(self, addr: int, nbytes: int, write: bool) -> None:
        # Scalar accesses always take the L1 path (mirrors
        # MemoryHierarchy._l1_path minus the deferred L2 walk).
        l1_shift = self._l1_shift
        first = addr >> l1_shift
        last = (addr + nbytes - 1) >> l1_shift
        if first == last:
            # Single-line fast path — the overwhelmingly common scalar
            # shape.  Same arithmetic as the generic loop below on a
            # one-line walk, minus its list/loop machinery.
            tlb = self._tlb
            lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
            ways = self._l1_sets[first % self._l1_num]
            dirty = ways.pop(first, None)
            w = self._w
            self._scalar_instrs += w
            if write:
                self._bytes_stored += w * nbytes
            else:
                self._bytes_loaded += w * nbytes
            append = self._append
            label = self._kernel_stack[-1]
            if label != self._cur_label:
                append((1, label))
                self._cur_label = label
            if dirty is not None:
                ways[first] = dirty or write
                self._l1_hits_c += w
                # No pending line: invariant price, lock-step with
                # TraceSimulator.scalar_load/scalar_store where
                # d = (lat_i + l1_lat) - l1_lat == lat_i exactly (ints).
                if lat_i > 0:
                    stall = max(0.0, lat_i) / _SCALAR_MLP
                    if write:
                        stall *= _STORE_STALL_FACTOR * (1.0 - self._ooo_hide)
                    else:
                        stall *= 1.0 - self._ooo_hide
                    append(w * (self._scalar_cpi + stall + 0.0 + 0.0))
                else:
                    append(w * self._scalar_cpi)
                return
            ways[first] = write
            if len(ways) > self._l1_assoc:
                ways.pop(next(iter(ways)))
            if self._pf1 is not None:
                self._pf1.observe(self._l1, first)
            self._l1_misses_c += w * 1
            # occ1 = 0.0 + fill_l1 and lat_i += l1_lat, as in the loop.
            lat_i += self._l1_lat
            self._lines.append(first)
            append((4, w, 1, lat_i, 0.0 + self._fill_l1, write))
            return
        tlb = self._tlb
        lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
        l1_sets, l1_num, l1_assoc = self._l1_sets, self._l1_num, self._l1_assoc
        l1_lat = self._l1_lat
        pf1 = self._pf1
        fill_l1 = self._fill_l1
        occ1 = 0.0
        l1h = l1m = 0
        pend = []
        for la in range(first, last + 1):
            ways = l1_sets[la % l1_num]
            dirty = ways.pop(la, None)
            if dirty is not None:
                ways[la] = dirty or write
                lat_i += l1_lat
                l1h += 1
                continue
            ways[la] = write
            if len(ways) > l1_assoc:
                ways.pop(next(iter(ways)))
            l1m += 1
            if pf1 is not None:
                pf1.observe(self._l1, la)
            occ1 += fill_l1
            lat_i += l1_lat  # L1 share of the miss latency
            pend.append(la)
        w = self._w
        self._scalar_instrs += w
        if write:
            self._bytes_stored += w * nbytes
        else:
            self._bytes_loaded += w * nbytes
        self._l1_hits_c += w * l1h
        if l1m:
            self._l1_misses_c += w * l1m
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if pend:
            self._lines.extend(pend)
            append((4, w, len(pend), lat_i, occ1, write))
        else:
            # Lock-step with TraceSimulator.scalar_load/scalar_store
            # (occupancies are 0.0 without an L1 miss).
            d = lat_i - l1_lat
            if d > 0:
                stall = max(0.0, d) / _SCALAR_MLP
                if write:
                    stall *= _STORE_STALL_FACTOR * (1.0 - self._ooo_hide)
                else:
                    stall *= 1.0 - self._ooo_hide
                append(w * (self._scalar_cpi + stall + 0.0 + 0.0))
            else:
                append(w * self._scalar_cpi)

    def vload(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._vmem(addr, n_elems, ew, stride, False)

    def vstore(self, addr: int, n_elems: int, ew: int = 4, stride: int = 0) -> None:
        if n_elems <= 0:
            return
        self._vmem(addr, n_elems, ew, stride, True)

    def vgather(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        # Same lowering as TraceSimulator.vgather.
        stride = max(ew, span_bytes // max(1, n_elems))
        self._vmem(addr, n_elems, ew, stride, False)

    def vscatter(self, addr: int, n_elems: int, span_bytes: int, ew: int = 4) -> None:
        if n_elems <= 0:
            return
        stride = max(ew, span_bytes // max(1, n_elems))
        self._vmem(addr, n_elems, ew, stride, True)

    def _vmem(self, addr: int, n_elems: int, ew: int, stride: int, write: bool) -> None:
        nbytes = n_elems * ew
        tlb = self._tlb
        port_l1 = self._port_l1
        vch = 0
        if stride in (0, ew):
            unit = True
            # Pricing granularity is the L1 line even on L2-port
            # machines — lock-step with TraceSimulator._vmem.
            l1_line = self._l1_line
            n_lines = (addr + nbytes - 1) // l1_line - addr // l1_line + 1
            if port_l1:
                # Mirrors MemoryHierarchy._l1_path minus the L2 walk
                # (its single-line fast path is semantics-preserving,
                # so the generic loop covers both).
                lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
                l1_shift = self._l1_shift
                first = addr >> l1_shift
                last = (addr + nbytes - 1) >> l1_shift
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                l1_lat = self._l1_lat
                pf1 = self._pf1
                fill_l1 = self._fill_l1
                occ1 = 0.0
                l1h = l1m = 0
                pend = []
                for la in range(first, last + 1):
                    ways = l1_sets[la % l1_num]
                    dirty = ways.pop(la, None)
                    if dirty is not None:
                        ways[la] = dirty or write
                        lat_i += l1_lat
                        l1h += 1
                        continue
                    ways[la] = write
                    if len(ways) > l1_assoc:
                        ways.pop(next(iter(ways)))
                    l1m += 1
                    if pf1 is not None:
                        pf1.observe(self._l1, la)
                    occ1 += fill_l1
                    lat_i += l1_lat  # L1 share of the miss latency
                    pend.append(la)
            else:
                # Mirrors MemoryHierarchy._l2_path up to the L2 walk
                # (a VC miss write-allocates before the L2 lookup).
                lat_i = tlb.access(addr, nbytes) if tlb is not None else 0
                l2_shift = self._l2_shift
                first = addr >> l2_shift
                last = (addr + nbytes - 1) >> l2_shift
                vc_set = self._vc_set
                if vc_set is not None:
                    vc_assoc = self._vc_assoc
                    pend = []
                    vc_pop = vc_set.pop
                    vc_len = len(vc_set)
                    for la in range(first, last + 1):
                        dirty = vc_pop(la, None)
                        if dirty is not None:
                            vc_set[la] = dirty or write
                            lat_i += _VC_HIT_LATENCY
                            vch += 1
                            continue
                        vc_set[la] = write
                        if vc_len >= vc_assoc:
                            vc_pop(next(iter(vc_set)))
                        else:
                            vc_len += 1
                        pend.append(la)
                else:
                    pend = list(range(first, last + 1))
                occ1 = 0.0
                l1h = l1m = 0
        else:
            unit = False
            n_lines = n_elems
            tlb_shift = self._tlb_shift
            if port_l1:
                # Mirrors MemoryHierarchy._strided_l1_path.
                l1_shift = self._l1_shift
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                l1_lat = self._l1_lat
                pf1 = self._pf1
                fill_l1 = self._fill_l1
                lat_i = 0
                occ1 = 0.0
                l1h = l1m = 0
                pend = []
                prev_line = -1
                prev_page = -1
                for idx in range(n_elems):
                    a = addr + idx * stride
                    end = a + ew - 1
                    if tlb is not None:
                        page = a >> tlb_shift
                        if page == prev_page and (end >> tlb_shift) == page:
                            tlb.hits += 1  # MRU page: no LRU refresh
                        else:
                            lat_i += tlb.access(a, ew)
                            prev_page = (
                                page if (end >> tlb_shift) == page else -1
                            )
                    first = a >> l1_shift
                    last = end >> l1_shift
                    if first == last == prev_line:
                        ways = l1_sets[first % l1_num]
                        dirty = ways.pop(first, None)
                        if dirty is not None:
                            ways[first] = dirty or write
                            lat_i += l1_lat
                            l1h += 1
                            continue
                    for la in range(first, last + 1):
                        ways = l1_sets[la % l1_num]
                        dirty = ways.pop(la, None)
                        if dirty is not None:
                            ways[la] = dirty or write
                            lat_i += l1_lat
                            l1h += 1
                            continue
                        ways[la] = write
                        if len(ways) > l1_assoc:
                            ways.pop(next(iter(ways)))
                        l1m += 1
                        if pf1 is not None:
                            pf1.observe(self._l1, la)
                        occ1 += fill_l1
                        lat_i += l1_lat
                        pend.append(la)
                    prev_line = last
            else:
                # Mirrors MemoryHierarchy._strided_l2_path.
                l2_shift = self._l2_shift
                vc_set = self._vc_set
                vc_assoc = self._vc_assoc
                lat_i = 0
                pend = []
                prev_line = -1
                prev_page = -1
                for idx in range(n_elems):
                    a = addr + idx * stride
                    end = a + ew - 1
                    if tlb is not None:
                        page = a >> tlb_shift
                        if page == prev_page and (end >> tlb_shift) == page:
                            tlb.hits += 1
                        else:
                            lat_i += tlb.access(a, ew)
                            prev_page = (
                                page if (end >> tlb_shift) == page else -1
                            )
                    first = a >> l2_shift
                    last = end >> l2_shift
                    if first == last == prev_line:
                        if vc_set is not None:
                            vc_set[first] = vc_set.pop(first) or write
                            lat_i += _VC_HIT_LATENCY
                            vch += 1
                        else:
                            # Guaranteed L2 hit: the previous element
                            # left the line resident and MRU in every
                            # point's L2, so a plain pending line
                            # reproduces the hit and its latency.
                            pend.append(first)
                        continue
                    for la in range(first, last + 1):
                        if vc_set is not None:
                            dirty = vc_set.pop(la, None)
                            if dirty is not None:
                                vc_set[la] = dirty or write
                                lat_i += _VC_HIT_LATENCY
                                vch += 1
                                continue
                            vc_set[la] = write
                            if len(vc_set) > vc_assoc:
                                vc_set.pop(next(iter(vc_set)))
                        pend.append(la)
                    prev_line = last
                occ1 = 0.0
                l1h = l1m = 0
        w = self._w
        self._vec_instrs += w
        self._vec_mem_instrs += w
        self._vec_elems += w * n_elems
        if write:
            self._bytes_stored += w * nbytes
        else:
            self._bytes_loaded += w * nbytes
        if l1h:
            self._l1_hits_c += w * l1h
        if l1m:
            self._l1_misses_c += w * l1m
        if vch:
            self._vc_hits_c += w * vch
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if pend:
            key = (w, lat_i, occ1, nbytes, n_lines, write, unit)
            inv_ids = self._inv_ids
            iid = inv_ids.get(key)
            if iid is None:
                iid = inv_ids[key] = len(inv_ids)
            up = self._v_up
            self._lines.extend([la << up for la in pend] if up else pend)
            append(
                (3, w, len(pend), lat_i, occ1, nbytes, n_lines, write, unit,
                 iid)
            )
        elif self._defer:
            # Fully served upstream, but the price reads the VPU:
            # defer it as a pricing class.
            mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
            memo = self._vmem_inv_memo
            cid = memo.get(mkey)
            if cid is None:
                cid = memo[mkey] = self._class_id(("m",) + mkey)
            append((6, w, cid))
        else:
            # Fully served upstream: the cycle cost is invariant.
            mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
            memo = self._vmem_inv_memo
            cycles = memo.get(mkey)
            if cycles is None:
                cycles = memo[mkey] = vmem_event_cycles(
                    self._vpu, self._l1_lat, self._ooo_hide, lat_i, occ1,
                    0.0, nbytes, n_lines, write, unit,
                )
            append(w * cycles)

    def varith(
        self, n_elems: int, n_instr: int = 1, flops_per_elem: float = 2.0, ew: int = 4
    ) -> None:
        if n_elems <= 0 or n_instr <= 0:
            return
        vkey = (n_elems, n_instr, ew)
        memo = self._varith_memo
        cached = memo.get(vkey)
        if cached is None:
            if self._defer:
                cached = memo[vkey] = self._class_id(("a",) + vkey)
            else:
                cached = memo[vkey] = varith_cycles(
                    self._vpu, n_elems, n_instr, ew
                )
        w = self._w
        self._vec_instrs += w * n_instr
        self._vec_elems += w * n_instr * n_elems
        self._flops += w * n_instr * n_elems * flops_per_elem
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if self._defer:
            append((6, w, cached))
        else:
            append(w * cached)

    def vbroadcast(self, n: int = 1) -> None:
        w = self._w
        self._vec_instrs += w * n
        append = self._append
        label = self._kernel_stack[-1]
        if label != self._cur_label:
            append((1, label))
            self._cur_label = label
        if self._defer:
            append((6, w, self._class_id(("b", n))))
        else:
            append(w * (n * self._vb_cycles))

    def sw_prefetch(self, addr: int, nbytes: int, level: str = "L1") -> None:
        if level not in ("L1", "L2"):
            raise ValueError(f"unknown prefetch level {level!r}")
        w = self._w
        append = self._append
        if self._honors:
            self._has_fills = True
            if level == "L1":
                # L1-level prefetch: the L1 fill is group-invariant
                # (done here); the implied inclusive L2 fill runs in
                # every point (mirrors MemoryHierarchy.sw_prefetch).
                l1_shift = self._l1_shift
                firstp = addr >> l1_shift
                lastp = (addr + nbytes - 1) >> l1_shift
                ratio = self._ratio
                l1_sets, l1_num = self._l1_sets, self._l1_num
                l1_assoc = self._l1_assoc
                fills = []
                for la in range(firstp, lastp + 1):
                    fills.append(la // ratio if ratio > 1 else la)
                    ways = l1_sets[la % l1_num]
                    if la not in ways:
                        ways[la] = False
                        if len(ways) > l1_assoc:
                            ways.pop(next(iter(ways)))
                append((5, tuple(fills)))
            else:
                l2_shift = self._l2_shift
                firstp = addr >> l2_shift
                lastp = (addr + nbytes - 1) >> l2_shift
                append((5, tuple(range(firstp, lastp + 1))))
            self._sw_prefetches_c += w
            self._switch(append)
            append(w * self._scalar_cpi)
        elif self._noop_pf:
            self._scalar_instrs += w
            self._switch(append)
            append(w * self._scalar_cpi)
        # else: dropped at compile time — free.

    def count_flops(self, n: float) -> None:
        self._flops += self._w * n

    def spill(self, n_registers: int = 1) -> None:
        # Mirrors TraceSimulator.spill: per register one full-vector
        # store and reload at stack address 0, then the serialization
        # penalty and the spill counter.
        n_elems = (self.machine.vlen_bits // 8) // 4
        for _ in range(n_registers):
            self.vstore(0, n_elems, 4)
            self.vload(0, n_elems, 4)
        w = self._w
        append = self._append
        self._switch(append)
        append(w * (n_registers * _SPILL_SERIALIZE_CYCLES))
        self._spills_c += w * n_registers

    # -- freezing ------------------------------------------------------
    def finish(self):
        """Return ``(prog, inv, gc)`` for the point passes."""
        inv = SimStats()
        inv.scalar_instrs = self._scalar_instrs
        inv.vec_instrs = self._vec_instrs
        inv.vec_mem_instrs = self._vec_mem_instrs
        inv.vec_elems = self._vec_elems
        inv.flops = self._flops
        inv.bytes_loaded = self._bytes_loaded
        inv.bytes_stored = self._bytes_stored
        inv.l1_hits = self._l1_hits_c
        inv.l1_misses = self._l1_misses_c
        inv.vc_hits = self._vc_hits_c
        inv.sw_prefetches = self._sw_prefetches_c
        inv.spills = self._spills_c
        gc = {
            "vpu": self._vpu,
            "port_l1": self._port_l1,
            "l1_lat": self._l1_lat,
            "ooo_hide": self._ooo_hide,
            "scalar_cpi": self._scalar_cpi,
            "l1_shift": self._l1_shift,
            "l2_shift": self._l2_shift,
            "lines": self._lines,
            "max_range_total": self._max_range_total,
            "has_fills": self._has_fills,
            "pf2_cfg": self._pf2_cfg,
            "classes": self._classes,
        }
        return self._prog, inv, gc


def _vpu_price_table(classes: list, vpu, l1_lat, ooo_hide) -> list:
    """Resolve deferred pricing classes against one point's VPU.

    Returns ``prices`` such that a tag-6 item ``(6, w, cid)`` folds
    ``w * prices[cid]`` — the very float the shared pass would have
    appended had the group been VPU-uniform (bitwise: the class holds
    the exact arguments the l2-mode pre-pricing would have used).
    """
    prices = []
    append = prices.append
    for d in classes:
        kind = d[0]
        if kind == "a":
            append(varith_cycles(vpu, d[1], d[2], d[3]))
        elif kind == "b":
            append(d[1] * vbroadcast_cycles(vpu))
        else:  # "m": fully-upstream-served vector memory event
            append(
                vmem_event_cycles(
                    vpu, l1_lat, ooo_hide, d[1], d[2], 0.0, d[3], d[4],
                    d[5], d[6],
                )
            )
    return prices


def _shared_pass(
    trace: RecordedTrace, base: MachineConfig, defer_vpu: bool = False
):
    """Drive a :class:`_GroupCapture` from a recorded trace's rows.

    The one shared-pass engine: every replay route builds its
    ``(prog, inv, gc)`` triple here, event by event, in trace order.
    tests/test_shared_pass.py holds it hex-identical to per-event
    :func:`replay` (and so to direct simulation) across presets,
    kernel policies, deferred-VPU mode and a synthetic all-opcodes
    trace.
    """
    cap = _GroupCapture(base, defer_vpu=defer_vpu)
    labels = trace.labels
    stack = cap._kernel_stack
    vmem = cap._vmem
    scalar = cap.scalar
    scalar_mem = cap._scalar_mem
    varith = cap.varith
    note_range = cap.note_resident_range
    cur_w = 1.0
    cur_kid = 0
    for op, w, kid, i0, i1, i2, i3, f0 in trace.rows():
        if w != cur_w:
            cap._w = cur_w = w
        if kid != cur_kid:
            stack[-1] = labels[kid]
            cur_kid = kid
        if op == OP_VLOAD:
            vmem(i0, i1, i2, i3, False)
        elif op == OP_SCALAR:
            scalar(i0)
        elif op == OP_SCALAR_LOAD:
            scalar_mem(i0, i1, False)
        elif op == OP_VARITH:
            varith(i0, i1, f0, i2)
        elif op == OP_VSTORE:
            vmem(i0, i1, i2, i3, True)
        elif op == OP_SCALAR_STORE:
            scalar_mem(i0, i1, True)
        elif op == OP_NOTE_RANGE:
            note_range(i0, i1)
        elif op == OP_SW_PREFETCH:
            cap.sw_prefetch(i0, i1, "L1" if i2 == 0 else "L2")
        elif op == OP_VBROADCAST:
            cap.vbroadcast(i0)
        elif op == OP_COUNT_FLOPS:
            cap.count_flops(f0)
        elif op == OP_SPILL:
            cap.spill(i0)
        else:
            raise ValueError(f"unknown trace opcode {op}")
    return cap.finish()


class _VecProgram:
    """One walk outcome of the shared-pass program, as NumPy columns.

    ``base`` holds the pre-priced floats (0.0 at class items), ``kid``
    each column item's kernel id into ``labels``; the items at
    ``cls_pos`` price as class ``cls_idx`` of the interned table
    ``cls_defs``, whose point-independent hit/miss weights are
    ``wh_by_cls``/``wm_by_cls``.  Valid for every point that shares
    the walk outcome it was built from (see :func:`_run_points` for
    the tiers that key it); :func:`_point_pass_vec` prices it.
    """

    __slots__ = (
        "base",
        "kid",
        "labels",
        "cls_pos",
        "cls_idx",
        "cls_defs",
        "wh_by_cls",
        "wm_by_cls",
        "max_nm",
    )


class _Skeleton:
    """The point-independent columns of a shared-pass program.

    ``base``, ``kid``, ``labels`` and ``cls_pos`` are the column layout
    of :class:`_VecProgram`.  Each class item (tags 3, 4 and 6) carries
    ``bid``, the id of its point-independent pricing inputs in
    ``base_defs``; ``is_event`` marks the tag-3/4 items, whose
    ``(nh, nm)`` split the walk supplies in stream order.  ``walk`` is
    the ordered list of the program items the sequential walk reads
    (tags 2 to 5); ``ev_end`` holds each tag-3/4 item's end offset into
    ``gc["lines"]``, and ``notes`` each tag-2 item as ``(offset, base,
    nbytes)``, the offset counting the pending lines before it.
    """

    __slots__ = (
        "base",
        "kid",
        "labels",
        "cls_pos",
        "bid",
        "is_event",
        "base_defs",
        "walk",
        "ev_end",
        "notes",
    )


def _skeleton(prog: list) -> _Skeleton:
    """Split *prog* into the columns no design point can change.

    Two class items price identically on every point iff they share a
    base definition and their walk split ``(nh, nm)``: tag-3 items are
    keyed by their pricing-input id ``iid``, tag-4 items by their
    pricing inputs, tag-6 items by ``(w, cid)``.
    """
    base_vals = array("d")
    base_append = base_vals.append
    labels: list = []
    label_ids: dict = {}
    run_at = [0]  # column index where each kernel-label run starts
    run_kid = [-1]
    cls_pos = array("i")
    bids = array("i")
    bid_ids: dict = {}
    base_defs: list = []
    walk: list = []
    ev_end = array("i")
    notes: list = []
    n_lines = 0
    # Pre-bound: the class-item branch runs once per priced event.
    bid_of = bid_ids.get
    pos_append = cls_pos.append
    bid_append = bids.append
    walk_append = walk.append
    end_append = ev_end.append
    for it in prog:
        if type(it) is float:
            base_append(it)
            continue
        tag = it[0]
        if tag == 3 or tag == 4 or tag == 6:
            if tag == 6:
                key = it
            else:
                key = (3, it[9]) if tag == 3 else it[:2] + it[3:]
                walk_append(it)
                n_lines += it[2]
                end_append(n_lines)
            b = bid_of(key)
            if b is None:
                b = bid_ids[key] = len(base_defs)
                base_defs.append(it[:2] + it[3:9] if tag == 3 else key)
            pos_append(len(base_vals))
            bid_append(b)
            base_append(0.0)
        elif tag == 1:
            kid = label_ids.get(it[1])
            if kid is None:
                kid = label_ids[it[1]] = len(labels)
                labels.append(it[1])
            run_at.append(len(base_vals))
            run_kid.append(kid)
        else:  # tags 2 and 5: residency-range notes, prefetch fills
            walk.append(it)
            if tag == 2:
                notes.append((n_lines, it[1], it[2]))
    run_at.append(len(base_vals))
    # The array buffers back the columns without a copy.
    skel = _Skeleton()
    skel.base = np.frombuffer(base_vals, dtype=np.float64)
    skel.kid = np.repeat(np.asarray(run_kid, dtype=np.intc), np.diff(run_at))
    skel.labels = labels
    skel.cls_pos = np.frombuffer(cls_pos, dtype=np.intc)
    skel.bid = np.frombuffer(bids, dtype=np.intc)
    skel.is_event = np.array([d[0] != 6 for d in base_defs], dtype=bool)[
        skel.bid
    ]
    skel.base_defs = base_defs
    skel.walk = walk
    skel.ev_end = np.frombuffer(ev_end, dtype=np.intc)
    skel.notes = notes
    return skel


def _walk(skel: _Skeleton, gc: dict, machine: MachineConfig):
    """Resolve every tag-3/4 event's L2 outcome on *machine*, line by line.

    Returns the ``(nh, nm)`` columns (L2 hits incl. residency-range
    hits, DRAM misses), one entry per event in stream order.  The
    outcome reads only the point's L2 geometry, L2 prefetcher and range
    budget.  This is the sequential LRU walk of the direct simulator:
    every pending line looks the L2 up, an L2 miss runs the range check
    (in stream order, because ``_range_hit`` LRU-refreshes the range
    list and a later trim picks its victims by that order) and, on a
    DRAM miss, feeds the L2 prefetcher; tag-5 items fill the L2.
    :func:`_run_points` uses it for groups with prefetch fills; the
    rest take :func:`_lru_walk`, which it is the oracle for.
    """
    nh_col = array("q")
    nm_col = array("q")
    nh_append = nh_col.append
    nm_append = nm_col.append
    hier = MemoryHierarchy.l2_walk_view(machine)
    l2 = hier.l2
    l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
    pf2 = hier.l2_prefetcher if hier._pf2_on else None
    # Only the L1-port vector path feeds the L2 prefetcher (the RVV L2
    # path has no prefetcher); the scalar path always does.
    v_pf2 = pf2 if gc["port_l1"] else None
    range_hit = hier._range_hit
    note_range = hier.note_resident_range
    l1_shift = gc["l1_shift"]
    l2_shift = gc["l2_shift"]
    lines = gc["lines"]
    at = 0
    ranges = hier._ranges
    for it in skel.walk:
        tag = it[0]
        if tag == 3 or tag == 4:
            pf = v_pf2 if tag == 3 else pf2
            nh = nm = 0
            end = at + it[2]
            for k in range(at, end):
                a = lines[k] << l1_shift
                l2a = a >> l2_shift
                ways = l2_sets[l2a % l2_num]
                if ways.pop(l2a, None) is not None:
                    # Dirty bits only feed writeback counters SimStats
                    # never reads; storing True keeps LRU state exact.
                    ways[l2a] = True
                    nh += 1
                    continue
                ways[l2a] = True
                if len(ways) > l2_assoc:
                    ways.pop(next(iter(ways)))
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    nh += 1
                else:
                    nm += 1
                    if pf is not None:
                        pf.observe(l2, l2a)
            at = end
            nh_append(nh)
            nm_append(nm)
        elif tag == 2:
            note_range(it[1], it[2])
            ranges = hier._ranges
        else:  # tag 5: honoured software-prefetch fills into the L2
            for la in it[1]:
                ways = l2_sets[la % l2_num]
                if la not in ways:
                    ways[la] = False
                    if len(ways) > l2_assoc:
                        ways.pop(next(iter(ways)))
    return (
        np.frombuffer(nh_col, dtype=np.int64),
        np.frombuffer(nm_col, dtype=np.int64),
    )


class _Reuse:
    """Per-group reuse columns of the demand stream ``gc["lines"]``.

    ``l2`` is each pending line's L2 line, ``prev`` the position of the
    previous access to the same L2 line (-1 for a first touch), and
    ``unique`` the sorted distinct L2 lines.  Point-independent: the
    L2 line size is uniform across a group.
    """

    __slots__ = ("l2", "prev", "unique")


def _reuse(gc: dict) -> _Reuse:
    """The group's :class:`_Reuse` columns, built once and memoized in
    *gc* (next to the program skeleton)."""
    ru = gc.get("reuse")
    if ru is not None:
        return ru
    lines = np.frombuffer(gc["lines"], dtype=np.intc)
    l2 = lines >> (gc["l2_shift"] - gc["l1_shift"])
    order = np.argsort(l2, kind="stable").astype(np.intc)
    srt = l2[order]
    same = srt[1:] == srt[:-1]
    prev = np.full(len(l2), -1, dtype=np.intc)
    prev[order[1:][same]] = order[:-1][same]
    del order
    ru = gc["reuse"] = _Reuse()
    ru.l2 = l2
    ru.prev = prev
    ru.unique = srt[np.concatenate(([True], ~same))] if len(srt) else srt
    return ru


def _n_sets(machine: MachineConfig) -> int:
    l2 = machine.l2
    return l2.size_bytes // (l2.assoc * l2.line_bytes)


def _conflict_free(ru: _Reuse, machine: MachineConfig) -> bool:
    """True if no L2 set of *machine* receives more distinct lines than
    its associativity: such an L2 never evicts, so a lookup hits iff
    the line was touched before."""
    if not len(ru.unique):
        return True
    _, pop = np.unique(ru.unique % _n_sets(machine), return_counts=True)
    return int(pop.max()) <= machine.l2.assoc


#: Window positions expanded at once by :func:`_window_counts` (bounds
#: its temporaries to a few MB whatever the trace length).
_WINDOW_CHUNK = 1 << 17


def _window_counts(prev, seq, start, length, p) -> np.ndarray:
    """For each query ``q``: how many of the set-local positions
    ``start[q] .. start[q] + length[q] - 1`` of *seq* hold an access
    whose previous touch (*prev*) lies before stream position ``p[q]``
    — the distinct lines first touched there since ``p[q]``.  Every
    length must be positive."""
    out = np.empty(len(start), dtype=np.intc)
    ends = np.cumsum(length, dtype=np.int64)
    lo = 0
    while lo < len(start):
        # Queries [lo, hi) expand to at most _WINDOW_CHUNK positions
        # (or to one longer window).
        limit = ends[lo] - length[lo] + _WINDOW_CHUNK
        hi = max(lo + 1, int(np.searchsorted(ends, limit, "right")))
        g = length[lo:hi]
        first = np.cumsum(g) - g
        pos = np.repeat(start[lo:hi] - first, g) + np.arange(
            int(first[-1] + g[-1]), dtype=np.intc
        )
        fresh = prev[seq[pos]] < np.repeat(p[lo:hi], g)
        del pos
        out[lo:hi] = np.add.reduceat(fresh, first, dtype=np.intc)
        lo = hi
    return out


def _lru_hits(ru: _Reuse, machine: MachineConfig) -> np.ndarray:
    """Which pending lines hit in *machine*'s LRU L2, demand stream only.

    An access hits iff its line was touched before and fewer than
    ``assoc`` distinct lines of its set were touched in between (its
    LRU stack distance is below the associativity).  A global gap below
    ``assoc`` accesses decides a hit outright, and so does any repeat in
    a set that never holds more than ``assoc`` distinct lines.  For the
    rest, the set-local gap (accesses to the same set in between)
    decides a hit when below ``assoc``; otherwise the distinct lines in
    the set-local window are counted (:func:`_window_counts`: a window
    position counts iff its own previous touch lies before the window)
    until ``assoc`` of them are found or the window ends.
    """
    prev = ru.prev
    hit = prev >= 0
    n_sets = _n_sets(machine)
    assoc = machine.l2.assoc
    d_sets, pop = np.unique(ru.unique % n_sets, return_counts=True)
    hot_sets = d_sets[pop > assoc]
    if not len(hot_sets):
        return hit
    sets = ru.l2 % n_sets
    cand = hit & (np.arange(len(prev), dtype=np.intc) - prev > assoc)
    members = None  # accesses of the hot sets; None: every access
    if len(hot_sets) < len(d_sets):
        hot = np.zeros(n_sets, dtype=bool)
        hot[hot_sets] = True
        in_hot = hot[sets]
        cand &= in_hot
        members = np.flatnonzero(in_hot).astype(np.intc)
        del hot, in_hot
    cand = np.flatnonzero(cand)
    if not len(cand):
        return hit
    # The hot sets' accesses ordered by (set, time): set-local order.
    key = sets if members is None else sets[members]
    del sets
    if n_sets <= 1 << 16:
        key = key.astype(np.uint16)  # a stable radix sort
    order = np.argsort(key, kind="stable")
    del key
    seq = order.astype(np.intc) if members is None else members[order]
    del order, members
    rank = np.empty(len(prev), dtype=np.intc)
    rank[seq] = np.arange(len(seq), dtype=np.intc)
    at = rank[cand]
    p = prev[cand]
    start = rank[p] + 1
    del rank
    gap = at - start
    amb = gap >= assoc
    cand, p, start, gap = cand[amb], p[amb], start[amb], gap[amb]
    # Read the windows in growing slices: a slice's count never exceeds
    # the window's, and a window that thrashes its set reaches ``assoc``
    # distinct lines (a miss) long before its end.
    n_distinct = np.zeros(len(cand), dtype=np.intc)
    read = np.zeros(len(cand), dtype=np.intc)
    live = np.arange(len(cand))
    step = 2 * assoc
    while len(live):
        take = np.minimum(gap[live] - read[live], step)
        n_distinct[live] += _window_counts(
            prev, seq, start[live] + read[live], take, p[live]
        )
        read[live] += take
        live = live[(n_distinct[live] < assoc) & (read[live] < gap[live])]
        step *= 2
    hit[cand] = n_distinct < assoc
    return hit


def _lru_walk(
    skel: _Skeleton, gc: dict, machine: MachineConfig, free: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every tag-3/4 event's L2 outcome on *machine* with NumPy.

    Same result as :func:`_walk` for a group without prefetch fills.
    The LRU outcome comes from the reuse columns (:func:`_lru_hits`, or
    just "touched before" when *free*, i.e. :func:`_conflict_free`);
    the LRU misses then run the residency-range check, one segment per
    interval between range notes.  Registered ranges are disjoint, so a
    miss's membership inside a segment does not depend on their order;
    the LRU refreshes ``_range_hit`` would have made are applied at the
    end of each segment (the ranges hit move to the MRU end, by their
    last hit), before the next note trims by that order.
    """
    ru = _reuse(gc)
    hit = ru.prev >= 0 if free else _lru_hits(ru, machine)
    miss = np.flatnonzero(~hit)
    del hit
    in_range = np.zeros(len(miss), dtype=bool)
    lines = np.frombuffer(gc["lines"], dtype=np.intc)
    l1_shift = gc["l1_shift"]
    hier = MemoryHierarchy.pricing_view(machine)
    notes = skel.notes
    cuts = np.searchsorted(miss, [n[0] for n in notes]).tolist()
    cuts.append(len(miss))
    lo = 0
    for k, hi in enumerate(cuts):
        ranges = hier._ranges
        if hi > lo and ranges:
            addr = lines[miss[lo:hi]].astype(np.int64) << l1_shift
            starts = np.array([r[0] for r in ranges], dtype=np.int64)
            ends = np.array([r[1] for r in ranges], dtype=np.int64)
            order = np.argsort(starts)
            j = np.searchsorted(starts[order], addr, "right") - 1
            rid = order[np.maximum(j, 0)]
            inside = (j >= 0) & (addr < ends[rid])
            in_range[lo:hi] = inside
            used = rid[inside][::-1]  # newest hit first
            if len(used) and not (used == len(ranges) - 1).all():
                ids, newest = np.unique(used, return_index=True)
                mru = ids[np.argsort(-newest)].tolist()  # by last hit
                moved = set(mru)
                hier._ranges = [
                    r for i, r in enumerate(ranges) if i not in moved
                ] + [ranges[i] for i in mru]
        if k < len(notes):
            hier.note_resident_range(notes[k][1], notes[k][2])
        lo = hi
    dram = miss[~in_range]
    bounds = np.concatenate(([0], skel.ev_end))
    nm = np.diff(np.searchsorted(dram, bounds)).astype(np.int64)
    nh = np.diff(bounds).astype(np.int64) - nm
    return nh, nm


def _intern(skel: _Skeleton, nh: np.ndarray, nm: np.ndarray) -> _VecProgram:
    """Intern a walk outcome into the pricing classes of a
    :class:`_VecProgram`: one class per distinct ``(bid, nh, nm)``."""
    span = int(max(nh.max(initial=0), nm.max(initial=0))) + 1
    key = skel.bid.astype(np.int64) * (span * span)
    key[skel.is_event] += nh * span + nm
    keys, cls_idx = np.unique(key, return_inverse=True)
    cls_defs: list = []
    wh_by_cls: list = []
    wm_by_cls: list = []
    max_nm = 0
    for k in keys.tolist():
        b, split = divmod(k, span * span)
        h, m = divmod(split, span)
        d = skel.base_defs[b]
        if d[0] == 6:
            cls_defs.append(d)
            wh_by_cls.append(0.0)
            wm_by_cls.append(0.0)
        else:
            cls_defs.append(d + (h, m))
            wh_by_cls.append(d[1] * h)
            wm_by_cls.append(d[1] * m)
            max_nm = max(max_nm, m)
    cols = _VecProgram()
    cols.base = skel.base
    cols.kid = skel.kid
    cols.labels = skel.labels
    cols.cls_pos = skel.cls_pos
    cols.cls_idx = cls_idx
    cols.cls_defs = cls_defs
    cols.wh_by_cls = np.asarray(wh_by_cls, dtype=np.float64)
    cols.wm_by_cls = np.asarray(wm_by_cls, dtype=np.float64)
    cols.max_nm = max_nm
    return cols


def _point_pass_vec(
    cols: _VecProgram, inv: SimStats, machine: MachineConfig, gc: dict
) -> SimStats:
    """Price a walk outcome's columns on one point with column arithmetic.

    Bitwise identical to direct simulation of the point:
    ``np.add.accumulate`` and ``np.bincount`` with weights both fold
    strictly left-to-right (no pairwise reassociation), class prices
    are computed with the scalar formulas shared with the simulator,
    and the extra ``+ 0.0`` terms this layout introduces (class items
    contribute 0.0 to ``base``, tag-6 items 0.0 to the hit/miss
    columns) are exact identities on these non-negative counters.
    """
    hier = MemoryHierarchy.pricing_view(machine)
    l2_lat = hier._l2_lat
    dram_lat = hier._dram_lat
    fill_l2 = hier._fill_l2
    vpu = machine.vpu
    l1_lat = gc["l1_lat"]
    ooo_hide = gc["ooo_hide"]
    scalar_cpi = gc["scalar_cpi"]
    classes = gc["classes"]
    prices = (
        _vpu_price_table(classes, vpu, l1_lat, ooo_hide) if classes else ()
    )
    occ_tab = [0.0]
    while cols.max_nm >= len(occ_tab):
        occ_tab.append(occ_tab[-1] + fill_l2)
    cls_defs = cols.cls_defs
    wc_by_cls = np.empty(len(cls_defs), dtype=np.float64)
    for k, d in enumerate(cls_defs):
        kind = d[0]
        if kind == 3:
            _, w, inv_lat, occ1, nbytes, n_lines, write, unit, nh, nm = d
            lat = inv_lat + l2_lat * (nh + nm) + dram_lat * nm
            wc_by_cls[k] = w * vmem_event_cycles(
                vpu, l1_lat, ooo_hide, lat, occ1, occ_tab[nm],
                nbytes, n_lines, write, unit,
            )
        elif kind == 4:
            _, w, inv_lat, occ1, write, nh, nm = d
            lat = inv_lat + l2_lat * (nh + nm) + dram_lat * nm
            diff = lat - l1_lat
            if diff > 0:
                stall = max(0.0, diff) / _SCALAR_MLP
                if write:
                    stall *= _STORE_STALL_FACTOR * (1.0 - ooo_hide)
                else:
                    stall *= 1.0 - ooo_hide
                wc_by_cls[k] = w * (scalar_cpi + stall + occ1 + occ_tab[nm])
            else:
                wc_by_cls[k] = w * scalar_cpi
        else:  # kind == 6: deferred VPU class
            wc_by_cls[k] = d[1] * prices[d[2]]

    out = SimStats()
    if len(cols.base):
        contrib = cols.base.copy()
        if len(cols.cls_pos):
            contrib[cols.cls_pos] = wc_by_cls[cols.cls_idx]
        binc = np.bincount(
            cols.kid, weights=contrib, minlength=len(cols.labels)
        )
        out.kernel_cycles = {
            label: float(binc[i]) for i, label in enumerate(cols.labels)
        }
        # In place: the running sums need no second column.
        out.cycles = float(np.add.accumulate(contrib, out=contrib)[-1])
    if len(cols.cls_pos):
        wh_seq = cols.wh_by_cls[cols.cls_idx]
        wm_seq = cols.wm_by_cls[cols.cls_idx]
        out.l2_hits = float(np.add.accumulate(wh_seq, out=wh_seq)[-1])
        out.l2_misses = float(np.add.accumulate(wm_seq, out=wm_seq)[-1])
        out.dram_fills = out.l2_misses
    for name in _INVARIANT_FIELDS:
        setattr(out, name, getattr(inv, name))
    return out


def _copy_stats(st: SimStats) -> SimStats:
    out = SimStats()
    for name in SimStats.FIELDS:
        setattr(out, name, getattr(st, name))
    out.kernel_cycles = dict(st.kernel_cycles)
    return out


def _run_points(
    prog: list,
    inv: SimStats,
    gc: dict,
    machines: Sequence[MachineConfig],
    cache_ctx: Optional[Tuple[str, str, str, dict]] = None,
) -> List[SimStats]:
    """Price the shared-pass program on every machine of the group.

    Every point takes one route: skeleton -> walk -> intern -> price.
    Its walk outcome is keyed by a *tier*: ``fast:<budget>`` for a
    conflict-free point of a group without prefetch fills (the outcome
    depends only on the L2 byte budget, ``None`` when the residency
    ranges never trim), ``walk:<fp>`` otherwise (the L2 geometry and
    prefetcher fingerprint).  Per tier, the compiled columns are loaded
    or walked once (:func:`_lru_walk`, or :func:`_walk` for a group with
    prefetch fills, then :func:`_intern`); every point is
    then priced with column arithmetic (:func:`_point_pass_vec`), and
    points that also share ``(l2_latency, dram_latency,
    dram_bytes_per_cycle, vpu)`` copy the first one's stats.  So a lane
    sweep walks once, and on a constant-latency L2 model the large-cache
    tail of a Fig. 7 sweep prices once.  The program skeleton
    (:func:`_skeleton`) is built on the first tier miss and memoized in
    *gc*, which the shared-pass memo holds.

    With *cache_ctx* — ``(trace_key, sig_token, trace_sha256, compat)``
    — tiers are exchanged with the on-disk pass cache: each is looked
    up with ``load_vecprog`` first and persisted on a miss.  Fast tiers
    additionally record the walk fingerprints of every machine that
    chose them, which is what lets the warm :func:`replay_sweep_cached`
    path trust a fast tier without re-deriving conflict-freedom from
    the program.
    """
    demand_only = not gc["has_fills"] and not gc["pf2_cfg"]
    max_total = gc["max_range_total"]
    if cache_ctx is not None:
        from ..core import tracecache

        if not tracecache.spill_enabled():
            cache_ctx = None

    def _load_tier(tier):
        if cache_ctx is None:
            return None
        from ..core import tracecache

        key, sig_tok, digest, compat = cache_ctx
        hit = tracecache.load_vecprog(key, sig_tok, tier["token"], digest)
        if hit is None:
            return None
        cols = _cols_from_dict(hit[1])
        if tier["kind"] == "fast":
            have = set(hit[0]["tier"].get("fps", ()))
            want = set(tier["fps"])
            if not want <= have:
                # A new machine endorsed this tier: refresh the stored
                # fingerprint list so replay_sweep_cached can serve it
                # to that machine without the program in hand.
                _store_tier(dict(tier, fps=sorted(have | want)), cols)
        return cols

    def _store_tier(tier, cols):
        if cache_ctx is None:
            return
        from ..core import tracecache

        key, sig_tok, digest, compat = cache_ctx
        tracecache.store_vecprog(
            _cols_to_dict(cols), _inv_fields(inv), gc,
            key=key, sig=sig_tok, tier=tier,
            trace_sha256=digest, compat=compat,
        )

    tiers: dict = {}  # token -> (tier, indices of its points)
    for i, m in enumerate(machines):
        if demand_only and _conflict_free(_reuse(gc), m):
            tier = _fast_tier(
                None if max_total <= m.l2.size_bytes else m.l2.size_bytes
            )
        else:
            tier = _walk_tier(m)
        tier, idxs = tiers.setdefault(tier["token"], (tier, []))
        idxs.append(i)
        if tier["kind"] == "fast":
            tier["fps"].append(_machine_walk_fp(m))

    results: List[Optional[SimStats]] = [None] * len(machines)
    for tier, idxs in tiers.values():
        if tier["kind"] == "fast":
            tier["fps"] = sorted(set(tier["fps"]))
        cols = _load_tier(tier)
        if cols is None:
            skel = gc.get("skeleton")
            if skel is None:
                skel = gc["skeleton"] = _skeleton(prog)
            m = machines[idxs[0]]
            if demand_only:
                walked = _lru_walk(skel, gc, m, tier["kind"] == "fast")
            else:
                walked = _walk(skel, gc, m)
            cols = _intern(skel, *walked)
            del walked
            _store_tier(tier, cols)
        owner: dict = {}  # pricing signature -> index of the priced point
        for i in idxs:
            m = machines[i]
            sig = (m.l2.latency, m.dram_latency, m.dram_bytes_per_cycle, m.vpu)
            j = owner.setdefault(sig, i)
            results[i] = (
                _point_pass_vec(cols, inv, m, gc)
                if j == i
                else _copy_stats(results[j])
            )
        del cols  # one tier's columns alive at a time
    return results


# Memo for shared-pass results across replay_sweep calls.  A session
# replaying several pricing axes from one capture (the paper-figures
# flow: L2 size, DRAM latency, DRAM bandwidth, lanes) would otherwise
# re-walk the full event stream once per axis — by far the dominant
# cost on a multi-million-event trace.  Keyed by the trace's content
# *digest* (not just its key: a quarantined-and-recaptured trace must
# never serve a stale pass) and the group-invariant remainder of the
# base config (the normalization mirrors group_mode: every
# per-point-priced field is canonicalised away, so two bases that
# would group together share an entry).  The cached (prog, inv, gc)
# is treated as immutable by the point pipeline, which only adds the
# lazily built program skeleton to gc.  Sized for the paper-figures
# flow: one always-deferred entry per live VL capture (Figs. 6/8 sweep
# eight) plus slack for other trace-keyed callers.
_SHARED_PASS_MEMO: "dict" = {}
_SHARED_PASS_MEMO_MAX = 16


def _shared_pass_sig(m: MachineConfig, defer_vpu: bool):
    l2n = replace(m.l2, size_bytes=m.l2.line_bytes * 8, assoc=1, latency=0)
    norm = replace(
        m,
        name="",
        l2=l2n,
        dram_latency=0,
        dram_bytes_per_cycle=1,
        peak_gflops=0.0,
    )
    if defer_vpu:
        # VPU pricing is deferred per point; only the walk fields bind.
        v = m.vpu
        return (
            replace(norm, vpu=None),
            v.mem_port,
            v.vector_cache_bytes,
        )
    return norm


def _sig_token(sig) -> str:
    """Filesystem token for a shared-pass signature.

    Dataclass ``repr`` is deterministic across processes (field order
    is declaration order, float repr round-trips), so the token is
    stable for the on-disk compiled-pass cache keyed by it.
    """
    return hashlib.sha256(repr(sig).encode("utf-8")).hexdigest()[:12]


def _trace_compat(trace: RecordedTrace) -> dict:
    return {
        "isa_name": trace.isa_name,
        "vlen_bits": trace.vlen_bits,
        "l1_line_bytes": trace.l1_line_bytes,
    }


def _inv_fields(inv: SimStats) -> dict:
    return {f: getattr(inv, f) for f in _INVARIANT_FIELDS}


def _inv_from_fields(fields: dict) -> SimStats:
    inv = SimStats()
    for f in _INVARIANT_FIELDS:
        setattr(inv, f, fields[f])
    return inv


def _shared_pass_cached(
    trace: RecordedTrace, base: MachineConfig, defer_vpu: bool
):
    if not trace.key:
        return _shared_pass(trace, base, defer_vpu=defer_vpu)
    from ..core import tracecache

    digest = trace.content_digest()
    sig = _shared_pass_sig(base, defer_vpu)
    key = (trace.key, digest, defer_vpu, sig)
    hit = _SHARED_PASS_MEMO.get(key)
    if hit is not None:
        return hit
    out = None
    from_disk = False
    use_disk = tracecache.spill_enabled()
    if use_disk:
        loaded = tracecache.load_pass(trace.key, _sig_token(sig), digest)
        if loaded is not None:
            _header, prog, inv_fields, gc = loaded
            gc["vpu"] = base.vpu
            out = (prog, _inv_from_fields(inv_fields), gc)
            from_disk = True
    if out is None:
        out = _shared_pass(trace, base, defer_vpu=defer_vpu)
    while len(_SHARED_PASS_MEMO) >= _SHARED_PASS_MEMO_MAX:
        _SHARED_PASS_MEMO.pop(next(iter(_SHARED_PASS_MEMO)))
    _SHARED_PASS_MEMO[key] = out
    if use_disk and not from_disk:
        tracecache.store_pass(
            out[0], _inv_fields(out[1]), out[2],
            key=trace.key, sig=_sig_token(sig), defer=defer_vpu,
            trace_sha256=digest, compat=_trace_compat(trace),
        )
    return out


def replay_sweep(
    trace: RecordedTrace, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """Price *trace* on every machine of an L2/DRAM or VPU sweep group.

    Returns one ``SimStats`` per machine (bitwise identical to direct
    simulation), or ``None`` when the group varies in a field the
    shared-pass split does not support (see :func:`group_mode`; e.g. a
    VL sweep, whose event streams differ per point) — the caller
    should fall back to per-point simulation.

    The shared pass always runs in deferred-VPU mode: tag-6 classes
    resolve to the exact floats an eagerly-priced pass would have
    appended (see :func:`_vpu_price_table`), so the result is bitwise
    unchanged, and one cached pass serves *every* replayable axis of a
    capture — L2 size, DRAM latency/bandwidth, and lane count — both
    in the memo and in the on-disk compiled-pass cache.
    """
    machines = list(machines)
    if not machines:
        return []
    for m in machines:
        _check_compatible(trace, m)
    mode = group_mode(machines)
    if mode is None:
        return None
    prog, inv, gc = _shared_pass_cached(trace, machines[0], defer_vpu=True)
    ctx = None
    if trace.key:
        sig = _shared_pass_sig(machines[0], True)
        ctx = (
            trace.key,
            _sig_token(sig),
            trace.content_digest(),
            _trace_compat(trace),
        )
    return _run_points(prog, inv, gc, machines, cache_ctx=ctx)


def _machine_walk_fp(m: MachineConfig) -> str:
    """Fingerprint of the fields that steer a point's L2 walk."""
    return f"{m.l2!r}|{m.l2_prefetcher!r}"


def _fast_tier(budget) -> dict:
    desc = f"fast:{budget}"
    return {
        "kind": "fast",
        "token": hashlib.sha256(desc.encode("utf-8")).hexdigest()[:12],
        "desc": desc,
        "fps": [],
    }


def _walk_tier(m: MachineConfig) -> dict:
    desc = f"walk:{_machine_walk_fp(m)}"
    return {
        "kind": "walk",
        "token": hashlib.sha256(desc.encode("utf-8")).hexdigest()[:12],
        "desc": desc,
        "fps": [],
    }


def _cols_to_dict(cols: _VecProgram) -> dict:
    return {s: getattr(cols, s) for s in _VecProgram.__slots__}


def _cols_from_dict(d: dict) -> _VecProgram:
    cols = _VecProgram()
    for s in _VecProgram.__slots__:
        setattr(cols, s, d[s])
    return cols


def replay_sweep_cached(
    key: str, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """Price a sweep group straight from the compiled-pass cache.

    The warm path for a spilled trace: the trace's content digest and
    compatibility fields come from the in-process registry or the
    spill file's JSON header (no column decode), the shared pass from
    the memo or its ``.rpp`` container, and — for a singleton group —
    the whole answer from a compiled ``.rvp`` tier, collapsing a warm
    figure point to one column-arithmetic pricing.  Returns ``None``
    unless every needed artifact is cached and digest-consistent; the
    caller falls back to :func:`replay_sweep` after loading (or
    re-capturing) the trace.
    """
    from ..core import tracecache

    if not key or not tracecache.spill_enabled():
        return None
    machines = list(machines)
    if not machines:
        return []
    mode = group_mode(machines)
    if mode is None:
        return None
    trace = tracecache._REGISTRY.get(key)
    if trace is not None:
        digest = trace.content_digest()
        compat = _trace_compat(trace)
    else:
        try:
            header = tracecache.read_header(tracecache._spill_path(key))
        except (OSError, ValueError):
            return None
        if header.get("format") != TRACE_FORMAT_VERSION:
            return None
        digest = header.get("sha256")
        compat = {
            "isa_name": header.get("isa_name"),
            "vlen_bits": header.get("vlen_bits"),
            "l1_line_bytes": header.get("l1_line_bytes"),
        }
    if not digest:
        return None
    for m in machines:
        if (
            compat["isa_name"] != m.isa_name
            or compat["vlen_bits"] != m.vlen_bits
            or compat["l1_line_bytes"] != m.l1.line_bytes
        ):
            return None
    sig = _shared_pass_sig(machines[0], True)
    tok = _sig_token(sig)
    ctx = (key, tok, digest, compat)
    memo_key = (key, digest, True, sig)
    hit = _SHARED_PASS_MEMO.get(memo_key)
    if hit is not None:
        prog, inv, gc = hit
        return _run_points(prog, inv, gc, machines, cache_ctx=ctx)
    if len(machines) == 1:
        st = _cached_point(key, tok, digest, machines[0])
        if st is not None:
            return [st]
    loaded = tracecache.load_pass(key, tok, digest)
    if loaded is None:
        return None
    _header, prog, inv_fields, gc = loaded
    gc["vpu"] = machines[0].vpu
    inv = _inv_from_fields(inv_fields)
    out = (prog, inv, gc)
    while len(_SHARED_PASS_MEMO) >= _SHARED_PASS_MEMO_MAX:
        _SHARED_PASS_MEMO.pop(next(iter(_SHARED_PASS_MEMO)))
    _SHARED_PASS_MEMO[memo_key] = out
    return _run_points(prog, inv, gc, machines, cache_ctx=ctx)


def _cached_point(
    key: str, sig_token: str, digest: str, m: MachineConfig
) -> Optional[SimStats]:
    """Serve one point entirely from a compiled ``.rvp`` tier.

    Tier files embed the invariant stats and the pricing subset of the
    group constants, so nothing else needs decoding.  A walk tier's
    token is derived from this machine's own L2 walk fields, so a
    token match is validity; a fast tier is only trusted when this
    machine's walk fingerprint is recorded in it (the walk-mode choice
    that built it was made for exactly this L2/prefetcher, so the
    conflict-free eligibility and budget decision are known to apply).
    """
    from ..core import tracecache

    fp = _machine_walk_fp(m)
    for tier in (
        _walk_tier(m),
        _fast_tier(None),
        _fast_tier(m.l2.size_bytes),
    ):
        hit = tracecache.load_vecprog(key, sig_token, tier["token"], digest)
        if hit is None:
            continue
        header, col_dict, inv_fields, gc_pricing = hit
        if tier["kind"] == "fast" and fp not in header["tier"].get("fps", ()):
            continue
        cols = _cols_from_dict(col_dict)
        inv = _inv_from_fields(inv_fields)
        return _point_pass_vec(cols, inv, m, gc_pricing)
    return None


def capture_sweep(
    emit: Callable, machines: Sequence[MachineConfig]
) -> Optional[List[SimStats]]:
    """Run the kernels once and price every machine of a sweep group.

    *emit* is called with a simulator-API object (a
    :class:`_GroupCapture`) and must drive the kernel event stream into
    it — e.g. ``lambda sim: net._emit_trace(sim, policy, n, True)``.
    The kernels run against ``machines[0]``; since a replayable group
    only varies in fields kernels never read (L2 geometry, DRAM, VPU
    pricing parameters), the event stream is valid for the whole group.

    Returns one ``SimStats`` per machine (bitwise identical to direct
    simulation), or ``None`` for unsupported groups — the caller should
    fall back to per-point simulation.  This fuses capture and the
    shared pricing pass: nothing is re-walked, making it the fastest
    cold path for a serial one-axis sweep.
    """
    machines = list(machines)
    if not machines:
        return []
    mode = group_mode(machines)
    if mode is None:
        return None
    cap = _GroupCapture(machines[0], defer_vpu=mode == "vpu")
    emit(cap)
    prog, inv, gc = cap.finish()
    return _run_points(prog, inv, gc, machines)
