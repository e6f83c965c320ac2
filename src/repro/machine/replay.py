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
walk (:func:`_walk`, one ``(nh, nm)`` split per event), interning into
pricing classes (:func:`_intern`), and column arithmetic
(:func:`_point_pass_vec`).  The walk has three modes.  An L2 in which
no set's distinct-line population exceeds the associativity never
evicts: a lookup then hits **iff** the line was touched before, which
the shared pass precomputes per event (a repeat count plus the list of
first-touch lines), so only the residency-range checks run
(*conflict-free*).  When few sets are overcommitted, only their lines
run the LRU walk (*hybrid*).  Otherwise, or when prefetcher or
prefetch-hint fills insert lines outside the demand stream, every line
does (*exact*).  The pricing folds are strictly sequential in event
order (NumPy accumulate and bincount-with-weights are defined as
in-order loops, unlike the pairwise ``np.sum``), so the result stays
bitwise identical.

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

    The L2 *line size* must match across the group — it sets the line
    granularity of the recorded pending-line lists.
    """
    m0 = machines[0]
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


_uniform_group = uniform_group  # private alias kept for callers/tests


#: Sweep axes the replay engines can price.  L2/DRAM axes and VPU
#: pricing axes replay in a shared-pass group; ``vlen`` changes the
#: event stream itself, so each VL records its own trace — but every
#: such single-point group still replays from its (cached) capture.
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
    ``vlen``, splits into per-point captures that each replay — one
    capture per VL serving every pricing axis at that VL, with warm
    runs served from the persistent compiled-pass cache
    (:func:`replay_sweep_cached`).  An unsupported axis (e.g.
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
    * ``(3, w, addrs, inv_lat, occ1, nbytes, n_lines, write, unit, iid,
      nh0, ft)`` — a vector memory event with pending lines for the L2.
      ``addrs`` holds one *byte address* per pending line (the
      source-level granularity and shift are group constants, so they
      are folded here once instead of per line per point; the point
      pass recovers the L2 line as ``a >> l2_shift``).  ``nh0`` counts
      lines touched before (guaranteed hits in a conflict-free L2) and
      ``ft`` holds the first-touch lines' addresses, both for the
      shortcut modes of :func:`_walk`.
    * ``(4, w, addrs, inv_lat, occ1, write, nh0, ft)`` — a scalar
      access with at least one L1 miss.
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
        # L2-granular otherwise; scalar ones are always L1-granular.
        # Both are emitted as byte addresses (granularity folded at
        # capture).  ``seen`` (the first-touch set, = the distinct-line
        # set the eligibility checks use) is kept L2-granular.
        self._v_shift = self._l1_shift if self._port_l1 else self._l2_shift

        self._prog: list = []
        self._append = self._prog.append  # pre-bound: hot-path use
        self._cur_label: Optional[str] = None  # forces the first switch
        self._seen: set = set()
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
            a = first << l1_shift
            k = a >> self._l2_shift
            seen = self._seen
            if k in seen:
                nh0 = 1
                ft = ()
            else:
                seen.add(k)
                nh0 = 0
                ft = (a,)
            append((4, w, (a,), lat_i, 0.0 + self._fill_l1, write, nh0, ft))
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
            seen = self._seen
            l2_shift = self._l2_shift
            nh0 = 0
            addrs = []
            ft = []
            for la in pend:
                a = la << l1_shift
                addrs.append(a)
                k = a >> l2_shift
                if k in seen:
                    nh0 += 1
                else:
                    seen.add(k)
                    ft.append(a)
            append((4, w, tuple(addrs), lat_i, occ1, write, nh0, tuple(ft)))
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
            seen = self._seen
            v_shift = self._v_shift
            l2_shift = self._l2_shift
            nh0 = 0
            addrs = []
            ft = []
            for la in pend:
                a = la << v_shift
                addrs.append(a)
                k = a >> l2_shift
                if k in seen:
                    nh0 += 1
                else:
                    seen.add(k)
                    ft.append(a)
            append(
                (3, w, tuple(addrs), lat_i, occ1, nbytes, n_lines, write,
                 unit, iid, nh0, tuple(ft))
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
            "l2_shift": self._l2_shift,
            "distinct": self._seen,
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
    ``(nh, nm)`` split :func:`_walk` supplies in stream order.
    ``walk`` is the ordered list of the program items the walk reads
    (tags 2 to 5).
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
    # Pre-bound: the class-item branch runs once per priced event.
    bid_of = bid_ids.get
    pos_append = cls_pos.append
    bid_append = bids.append
    walk_append = walk.append
    for it in prog:
        if type(it) is float:
            base_append(it)
            continue
        tag = it[0]
        if tag == 3 or tag == 4 or tag == 6:
            if tag == 6:
                key = it
            else:
                key = (3, it[9]) if tag == 3 else it[:2] + it[3:6]
                walk_append(it)
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
    return skel


def _hot_mask(lines: np.ndarray, machine: MachineConfig) -> np.ndarray:
    """Which distinct L2 lines (of *lines*) map to a set whose
    distinct-line population exceeds *machine*'s L2 associativity."""
    l2 = machine.l2
    sets = lines % (l2.size_bytes // (l2.assoc * l2.line_bytes))
    return np.bincount(sets)[sets] > l2.assoc


def _walk_mode(gc: dict, lines: np.ndarray, machine: MachineConfig):
    """The cheapest valid walk of *machine*, as the ``hot`` argument of
    :func:`_walk`: an empty set (conflict-free), the hot lines (hybrid,
    when under half the distinct lines are hot) or ``None`` (exact)."""
    l2 = machine.l2
    if (
        gc["has_fills"]
        or gc["pf2_cfg"]
        or l2.size_bytes // (l2.assoc * l2.line_bytes) <= 0
    ):
        return None
    hot = _hot_mask(lines, machine)
    n_hot = int(np.count_nonzero(hot))
    if n_hot and 2 * n_hot >= len(lines):
        return None
    return set(lines[hot].tolist())


def _walk(skel: _Skeleton, gc: dict, machine: MachineConfig, hot):
    """Resolve every tag-3/4 event's L2 outcome on *machine*.

    Returns the ``(nh, nm)`` columns (L2 hits incl. residency-range
    hits, DRAM misses), one entry per event in stream order.  The
    outcome reads only the point's L2 geometry, L2 prefetcher and
    range budget; *hot* (see :func:`_walk_mode`) picks the mode:

    * an empty set — *conflict-free*: no set ever exceeds its
      associativity, so the L2 never evicts and a lookup hits iff the
      line was touched before.  The shared pass counted those repeats
      (``nh0``); only the first-touch lines ``ft`` run the range check;
    * a non-empty set — *hybrid*: lines of the hot sets run the LRU
      walk, other first touches the range check and other repeats hit;
    * ``None`` — *exact*: every line runs the LRU walk, misses feed
      the L2 prefetcher and tag-5 items fill the L2.

    Range checks run in stream order in every mode, interleaved with
    the LRU walk, because ``_range_hit`` LRU-refreshes the range list
    and a later trim picks its victims by that order.  The two
    shortcut modes need the pure demand stream: no prefetch fills.
    """
    nh_col = array("q")
    nm_col = array("q")
    nh_append = nh_col.append
    nm_append = nm_col.append
    if hot is not None and (gc["has_fills"] or gc["pf2_cfg"]):
        raise ValueError("prefetch fills in a conflict-free or hybrid walk")
    if hot is not None and not hot:
        hier = MemoryHierarchy.pricing_view(machine)
        range_hit = hier._range_hit
        note_range = hier.note_resident_range
        # _range_hit only reorders the range list in place;
        # note_resident_range (tag 2) rebinds it, refreshed there.
        ranges = hier._ranges
        for it in skel.walk:
            tag = it[0]
            if tag == 3:
                nh, ft = it[10], it[11]
            elif tag == 4:
                nh, ft = it[6], it[7]
            else:
                note_range(it[1], it[2])
                ranges = hier._ranges
                continue
            nm = 0
            for a in ft:
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    nh += 1
                else:
                    nm += 1
            nh_append(nh)
            nm_append(nm)
        return (
            np.frombuffer(nh_col, dtype=np.int64),
            np.frombuffer(nm_col, dtype=np.int64),
        )

    hier = MemoryHierarchy.l2_walk_view(machine)
    l2 = hier.l2
    l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.assoc
    pf2 = hier.l2_prefetcher if hier._pf2_on else None
    # Only the L1-port vector path feeds the L2 prefetcher (the RVV L2
    # path has no prefetcher); the scalar path always does.
    v_pf2 = pf2 if gc["port_l1"] else None
    range_hit = hier._range_hit
    note_range = hier.note_resident_range
    l2_shift = gc["l2_shift"]
    every = hot is None
    cold_ft: tuple = ()
    ranges = hier._ranges
    for it in skel.walk:
        tag = it[0]
        if tag == 3 or tag == 4:
            if tag == 3:
                ft, pf = it[11], v_pf2
            else:
                ft, pf = it[7], pf2
            if not every:
                cold_ft = set(ft) if ft else ()
            nh = nm = 0
            for a in it[2]:
                l2a = a >> l2_shift
                if every or l2a in hot:
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
                elif a in cold_ft:
                    cold_ft.remove(a)  # cold first touch: range check
                else:
                    nh += 1  # cold repeat: can never have been evicted
                    continue
                if (ranges and ranges[-1][0] <= a < ranges[-1][1]) or range_hit(a):
                    nh += 1
                else:
                    nm += 1
                    if pf is not None:
                        pf.observe(l2, l2a)
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
    conflict-free point (the outcome depends only on the L2 byte budget,
    ``None`` when the residency ranges never trim), ``walk:<fp>``
    otherwise (the L2 geometry and prefetcher fingerprint).  Per tier,
    the compiled columns are loaded or walked once (:func:`_walk` in the
    mode :func:`_walk_mode` picks, then :func:`_intern`); every point is
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
    distinct = gc["distinct"]
    lines = np.fromiter(distinct, dtype=np.int64, count=len(distinct))
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

    tiers: dict = {}  # token -> (tier, hot, indices of its points)
    for i, m in enumerate(machines):
        hot = _walk_mode(gc, lines, m)
        if hot is not None and not hot:
            tier = _fast_tier(
                None if max_total <= m.l2.size_bytes else m.l2.size_bytes
            )
        else:
            tier = _walk_tier(m)
        tier, hot, idxs = tiers.setdefault(tier["token"], (tier, hot, []))
        idxs.append(i)
        if tier["kind"] == "fast":
            tier["fps"].append(_machine_walk_fp(m))

    results: List[Optional[SimStats]] = [None] * len(machines)
    while tiers:  # popping frees each hot set once its tier is priced
        tier, hot, idxs = tiers.pop(next(iter(tiers)))
        if tier["kind"] == "fast":
            tier["fps"] = sorted(set(tier["fps"]))
        cols = _load_tier(tier)
        if cols is None:
            skel = gc.get("skeleton")
            if skel is None:
                skel = gc["skeleton"] = _skeleton(prog)
            cols = _intern(skel, *_walk(skel, gc, machines[idxs[0]], hot))
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
