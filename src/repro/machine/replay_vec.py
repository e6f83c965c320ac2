"""Vectorized shared pass: NumPy column arithmetic over a recorded trace.

:func:`_shared_pass_vec` produces the same ``(prog, inv, gc)`` triple as
the per-event reference loop in :mod:`repro.machine.replay`
(``_shared_pass_python``), but lowers everything that does not read
mutable cache state to NumPy column arithmetic over the trace's columnar
arrays:

* the nine *pure* invariant ``SimStats`` fields (instruction/byte/flop
  counters) are folded with ``np.add.accumulate`` over per-event
  contribution columns built with the exact operand order of the
  reference loop (inserting ``+ 0.0`` for non-contributing events is an
  exact identity on these non-negative accumulators);
* pre-priced floats for compute events (``scalar``, ``varith``,
  ``vbroadcast``, no-op prefetches, spill serialization tails) are
  computed column-wise — ``varith_cycles`` runs once per *distinct*
  ``(n_elems, n_instr, ew)`` key via ``np.unique``, mirroring the
  reference loop's memo;
* kernel-label switch items and every program item's final position are
  derived from cumulative-sum index arithmetic, so the assembled
  ``prog`` list is laid out item for item like the reference loop's.

Only the *walk* events — scalar/vector memory accesses, honoured
software prefetches and residency-range notes, whose outcome threads
through the TLB/L1/prefetcher/VectorCache state — still run
sequentially.  They are driven through a real
:class:`~repro.machine.replay._GroupCapture` (the walk logic lives in
exactly one place; this module never duplicates it) whose label state is
pinned so it emits payload items only; the items are then scattered into
the assembled program at the precomputed positions.  The three
walk-dependent invariant fields (``l1_hits``, ``l1_misses``,
``vc_hits``) are taken from that capture — they are only ever touched by
walk events, in walk order, so the fold is unchanged.

Hex identity with the reference loop is enforced across all machine
presets by tests/test_replay_vec.py.  Sweeps always run this engine;
the loop is kept only as the oracle those tests check it against.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import _VC_HIT_LATENCY
from .simulator import (
    _SCALAR_MLP,
    _SPILL_SERIALIZE_CYCLES,
    _STORE_STALL_FACTOR,
    SimStats,
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
    RecordedTrace,
)
from .vpu import varith_cycles

__all__ = ["_shared_pass_vec"]

#: Internal pseudo-opcode for the serialization tail of an expanded
#: OP_SPILL row (never appears in a trace; must not collide with real
#: opcodes above).
_OP_SPILL_TAIL = 250


def _expand_spills(cols, vlen_bits: int):
    """Expand OP_SPILL rows into their vstore/vload/tail sub-events.

    ``TraceSimulator.spill(n)`` issues, per register, one full-vector
    store and reload at stack address 0, then a serialization penalty —
    the reference loop replays that expansion event by event, and the
    counter folds (``acc += w`` once per sub-event) are only exact if
    the column engine sees the same sub-event rows.  Returns the eight
    expanded columns; cheap no-op when the trace has no spills.
    """
    op, w, kid, i0, i1, i2, i3, f0 = cols
    spill = op == OP_SPILL
    if not spill.any():
        return op, w, kid, i0, i1, i2, i3, f0
    counts = np.ones(len(op), dtype=np.int64)
    counts[spill] = 2 * i0[spill] + 1
    idx = np.repeat(np.arange(len(op), dtype=np.int64), counts)
    opx = op[idx].astype(np.int64)  # room for _OP_SPILL_TAIL
    wx = w[idx]
    kidx = kid[idx]
    i0x = i0[idx].copy()
    i1x = i1[idx].copy()
    i2x = i2[idx].copy()
    i3x = i3[idx].copy()
    f0x = f0[idx]
    # Position of each expanded row inside its source row's group.
    starts = np.zeros(len(op) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    sub = np.arange(len(idx), dtype=np.int64) - starts[idx]
    insp = spill[idx]
    n_regs = i0[idx]
    is_tail = insp & (sub == 2 * n_regs)
    is_mem = insp & ~is_tail
    n_elems = (vlen_bits // 8) // 4
    # Alternating vstore/vload at stack address 0, mirroring spill().
    opx[is_mem] = np.where(
        sub[is_mem] % 2 == 0, OP_VSTORE, OP_VLOAD
    )
    i0x[is_mem] = 0
    i1x[is_mem] = n_elems
    i2x[is_mem] = 4
    i3x[is_mem] = 0
    opx[is_tail] = _OP_SPILL_TAIL
    i0x[is_tail] = n_regs[is_tail]  # n_registers, for the tail price
    return opx, wx, kidx, i0x, i1x, i2x, i3x, f0x


def _acc(col) -> float:
    """Strict left-to-right fold of a contribution column."""
    if len(col) == 0:
        return 0.0
    return float(np.add.accumulate(col)[-1])


def _unique_shapes(x0, x1, x2):
    """``np.unique(axis=0)`` minus the row argsort.

    Packs the three non-negative shape columns into one int64 key, so
    the unique runs on a flat integer array (an order of magnitude
    cheaper than the lexicographic row sort).  Falls back to the axis
    path when the packed range could overflow.  Returns
    ``(first_index, inverse)``; the distinct rows themselves are read
    back through ``first_index``.
    """
    m1 = int(x1.max()) + 1
    m2 = int(x2.max()) + 1
    if (int(x0.max()) + 1) * m1 * m2 < (1 << 62):
        key = (x0 * m1 + x1) * m2 + x2
    else:  # pragma: no cover - pathological shape magnitudes
        key = np.stack([x0, x1, x2], axis=1)
        _, first, inverse = np.unique(
            key, axis=0, return_index=True, return_inverse=True
        )
        return first, np.asarray(inverse).reshape(-1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, np.asarray(inverse).reshape(-1)


def _walk_events_fast(cap, ops, ws, a0, a1, a2, a3) -> None:
    """Specialized walk loop for TLB-less, prefetcher-less configs.

    A transcription of ``_GroupCapture._scalar_mem`` / ``_vmem`` /
    ``note_resident_range`` with every per-event attribute load hoisted
    into a local and the method-call dispatch flattened into one loop —
    the arithmetic (operation, operand order, accumulation order) is
    kept exactly lock-step with the reference, and
    tests/test_replay_vec.py enforces hex identity against it.  Only
    valid when ``cap._tlb is None and cap._pf1 is None and not
    cap._honors`` (the rvv/sve preset family); richer configs take the
    ``_GroupCapture``-driven loop in :func:`_shared_pass_vec`.

    Items are appended to ``cap._prog``; the three walk counters are
    accumulated locally and written back.
    """
    append = cap._prog.append
    note_range = cap.note_resident_range
    class_id = cap._class_id
    port_l1 = cap._port_l1
    l1_line = cap._l1_line
    l1_shift = cap._l1_shift
    l2_shift = cap._l2_shift
    l1_lat = cap._l1_lat
    fill_l1 = cap._fill_l1
    l1_sets = cap._l1_sets
    l1_num = cap._l1_num
    l1_assoc = cap._l1_assoc
    vc_set = cap._vc_set
    vc_assoc = cap._vc_assoc
    v_shift = cap._v_shift
    scalar_cpi = cap._scalar_cpi
    ooo_hide = cap._ooo_hide
    vpu = cap._vpu
    defer = cap._defer
    seen = cap._seen
    seen_add = seen.add
    inv_ids = cap._inv_ids
    vmem_memo = cap._vmem_inv_memo
    l1_hits_c = cap._l1_hits_c
    l1_misses_c = cap._l1_misses_c
    vc_hits_c = cap._vc_hits_c
    op_vl, op_vs = OP_VLOAD, OP_VSTORE
    op_sl, op_ss = OP_SCALAR_LOAD, OP_SCALAR_STORE
    for j in range(len(ops)):
        o = ops[j]
        w = ws[j]
        if o == op_sl or o == op_ss:
            addr = a0[j]
            nbytes = a1[j]
            write = o == op_ss
            first = addr >> l1_shift
            last = (addr + nbytes - 1) >> l1_shift
            if first == last:
                # Single-line fast path (lat_i == 0 without a TLB).
                ways = l1_sets[first % l1_num]
                dirty = ways.pop(first, None)
                if dirty is not None:
                    ways[first] = dirty or write
                    l1_hits_c += w
                    append(w * scalar_cpi)
                    continue
                ways[first] = write
                if len(ways) > l1_assoc:
                    ways.pop(next(iter(ways)))
                l1_misses_c += w * 1
                a = first << l1_shift
                k = a >> l2_shift
                if k in seen:
                    nh0 = 1
                    ft = ()
                else:
                    seen_add(k)
                    nh0 = 0
                    ft = (a,)
                append((4, w, (a,), l1_lat, 0.0 + fill_l1, write, nh0, ft))
                continue
            lat_i = 0
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
                occ1 += fill_l1
                lat_i += l1_lat
                pend.append(la)
            l1_hits_c += w * l1h
            if l1m:
                l1_misses_c += w * l1m
            if pend:
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
                        seen_add(k)
                        ft.append(a)
                append((4, w, tuple(addrs), lat_i, occ1, write, nh0, tuple(ft)))
            else:
                d = lat_i - l1_lat
                if d > 0:
                    stall = max(0.0, d) / _SCALAR_MLP
                    if write:
                        stall *= _STORE_STALL_FACTOR * (1.0 - ooo_hide)
                    else:
                        stall *= 1.0 - ooo_hide
                    append(w * (scalar_cpi + stall + 0.0 + 0.0))
                else:
                    append(w * scalar_cpi)
        elif o == op_vl or o == op_vs:
            addr = a0[j]
            n_elems = a1[j]
            ew = a2[j]
            stride = a3[j]
            write = o == op_vs
            nbytes = n_elems * ew
            vch = 0
            if stride == 0 or stride == ew:
                unit = True
                n_lines = (addr + nbytes - 1) // l1_line - addr // l1_line + 1
                if port_l1:
                    lat_i = 0
                    first = addr >> l1_shift
                    last = (addr + nbytes - 1) >> l1_shift
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
                        occ1 += fill_l1
                        lat_i += l1_lat
                        pend.append(la)
                else:
                    lat_i = 0
                    first = addr >> l2_shift
                    last = (addr + nbytes - 1) >> l2_shift
                    if vc_set is not None:
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
                if port_l1:
                    lat_i = 0
                    occ1 = 0.0
                    l1h = l1m = 0
                    pend = []
                    prev_line = -1
                    for idx in range(n_elems):
                        a = addr + idx * stride
                        end = a + ew - 1
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
                            occ1 += fill_l1
                            lat_i += l1_lat
                            pend.append(la)
                        prev_line = last
                else:
                    lat_i = 0
                    pend = []
                    prev_line = -1
                    for idx in range(n_elems):
                        a = addr + idx * stride
                        end = a + ew - 1
                        first = a >> l2_shift
                        last = end >> l2_shift
                        if first == last == prev_line:
                            if vc_set is not None:
                                vc_set[first] = vc_set.pop(first) or write
                                lat_i += _VC_HIT_LATENCY
                                vch += 1
                            else:
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
            if l1h:
                l1_hits_c += w * l1h
            if l1m:
                l1_misses_c += w * l1m
            if vch:
                vc_hits_c += w * vch
            if pend:
                key = (w, lat_i, occ1, nbytes, n_lines, write, unit)
                iid = inv_ids.get(key)
                if iid is None:
                    iid = inv_ids[key] = len(inv_ids)
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
                        seen_add(k)
                        ft.append(a)
                append(
                    (3, w, tuple(addrs), lat_i, occ1, nbytes, n_lines,
                     write, unit, iid, nh0, tuple(ft))
                )
            elif defer:
                mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
                cid = vmem_memo.get(mkey)
                if cid is None:
                    cid = vmem_memo[mkey] = class_id(("m",) + mkey)
                append((6, w, cid))
            else:
                mkey = (lat_i, occ1, nbytes, n_lines, write, unit)
                cycles = vmem_memo.get(mkey)
                if cycles is None:
                    cycles = vmem_memo[mkey] = vmem_event_cycles(
                        vpu, l1_lat, ooo_hide, lat_i, occ1, 0.0,
                        nbytes, n_lines, write, unit,
                    )
                append(w * cycles)
        else:  # OP_NOTE_RANGE (rare)
            note_range(a0[j], a1[j])
    cap._l1_hits_c = l1_hits_c
    cap._l1_misses_c = l1_misses_c
    cap._vc_hits_c = vc_hits_c


def _shared_pass_vec(trace: RecordedTrace, base, defer_vpu: bool = False):
    """Column-arithmetic twin of ``replay._shared_pass_python``."""
    from .replay import _GroupCapture  # deferred: avoids a cycle at import

    cap = _GroupCapture(base, defer_vpu=defer_vpu)
    cols = trace._columns()
    known = {
        OP_SCALAR, OP_SCALAR_LOAD, OP_SCALAR_STORE, OP_VLOAD, OP_VSTORE,
        OP_VARITH, OP_VBROADCAST, OP_SW_PREFETCH, OP_COUNT_FLOPS,
        OP_SPILL, OP_NOTE_RANGE,
    }
    present = set(np.unique(cols[0]).tolist())
    bad = present - known
    if bad:
        raise ValueError(f"unknown trace opcode {sorted(bad)[0]}")
    op, w, kid, i0, i1, i2, i3, f0 = _expand_spills(cols, trace.vlen_bits)
    n = len(op)
    if op.dtype != np.int64:
        op = op.astype(np.int64)
    kid = kid.astype(np.int64)

    honors = cap._honors
    noop_pf = cap._noop_pf
    defer = cap._defer

    is_scalar = op == OP_SCALAR
    is_sload = op == OP_SCALAR_LOAD
    is_sstore = op == OP_SCALAR_STORE
    is_vload = op == OP_VLOAD
    is_vstore = op == OP_VSTORE
    is_vmem = is_vload | is_vstore
    is_varith = (op == OP_VARITH) & (i0 > 0) & (i1 > 0)
    is_vb = op == OP_VBROADCAST
    is_pf = op == OP_SW_PREFETCH
    is_cf = op == OP_COUNT_FLOPS
    is_nr = op == OP_NOTE_RANGE
    is_tail = op == _OP_SPILL_TAIL

    # ------------------------------------------------------------------
    # Pure invariant counters — exact operand order of the reference
    # loop per event kind, folded left-to-right over all events.
    # ------------------------------------------------------------------
    zeros = np.zeros(n, dtype=np.float64)
    c = zeros.copy()  # scalar_instrs
    c[is_scalar] = w[is_scalar] * i0[is_scalar]
    sm = is_sload | is_sstore
    c[sm] = w[sm]
    if noop_pf and not honors:
        c[is_pf] = w[is_pf]
    scalar_instrs = _acc(c)

    c = zeros.copy()  # vec_instrs
    c[is_vmem] = w[is_vmem]
    c[is_varith] = w[is_varith] * i1[is_varith]
    c[is_vb] = w[is_vb] * i0[is_vb]
    vec_instrs = _acc(c)

    vec_mem_instrs = _acc(np.where(is_vmem, w, 0.0))
    c = zeros.copy()  # vec_elems
    c[is_vmem] = w[is_vmem] * i1[is_vmem]
    c[is_varith] = (w[is_varith] * i1[is_varith]) * i0[is_varith]
    vec_elems = _acc(c)

    c = zeros.copy()  # flops
    c[is_varith] = (
        (w[is_varith] * i1[is_varith]) * i0[is_varith]
    ) * f0[is_varith]
    c[is_cf] = w[is_cf] * f0[is_cf]
    flops = _acc(c)

    c = zeros.copy()  # bytes_loaded:  vmem nbytes = n_elems * ew (int)
    ld = is_vload
    c[ld] = w[ld] * (i1[ld] * i2[ld])
    c[is_sload] = w[is_sload] * i1[is_sload]
    bytes_loaded = _acc(c)

    c = zeros.copy()  # bytes_stored
    st = is_vstore
    c[st] = w[st] * (i1[st] * i2[st])
    c[is_sstore] = w[is_sstore] * i1[is_sstore]
    bytes_stored = _acc(c)

    sw_prefetches = _acc(np.where(is_pf, w, 0.0)) if honors else 0.0
    spills = _acc(np.where(is_tail, w * i0, 0.0))

    # ------------------------------------------------------------------
    # Program layout: per-event payload counts, lazy label switches,
    # and item positions, all from cumulative sums.
    # ------------------------------------------------------------------
    pf_items = 2 if honors else (1 if noop_pf else 0)
    payload = np.zeros(n, dtype=np.int64)
    payload[is_scalar | sm | is_vmem | is_varith | is_vb | is_nr | is_tail] = 1
    if pf_items:
        payload[is_pf] = pf_items
    # Events that run the lazy switch check: every payload producer
    # except note_range (which appends its tag-2 item unconditionally
    # and never touches the label state).
    checks = (payload > 0) & ~is_nr
    flags = np.zeros(n, dtype=np.int64)
    ck = np.flatnonzero(checks)
    if len(ck):
        ckids = kid[ck]
        f = np.empty(len(ck), dtype=bool)
        f[0] = True  # cur_label starts None: first check always switches
        np.not_equal(ckids[1:], ckids[:-1], out=f[1:])
        flags[ck] = f
    counts = payload + flags
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    total = int(starts[-1])
    starts = starts[:-1]
    # Honoured prefetches append their tag-5 fills *before* the switch
    # check; everything else switches first.
    pre = np.zeros(n, dtype=np.int64)
    if honors:
        pre[is_pf] = 1
    switch_pos = starts + pre
    pay_pos = starts + pre + flags  # first (or only) payload slot

    obj = np.empty(total, dtype=object)

    # Switch items (few: one per kernel-label transition).
    labels = trace.labels
    for e in ck[flags[ck] > 0].tolist():
        obj[switch_pos[e]] = (1, labels[kid[e]])

    # ------------------------------------------------------------------
    # Pre-priced compute floats (column-wise).
    # ------------------------------------------------------------------
    def _put_floats(mask, vals):
        pos = pay_pos[mask]
        if len(pos):
            obj[pos] = vals.astype(object)  # python floats

    _put_floats(is_scalar, w[is_scalar] * (i0[is_scalar] * cap._scalar_cpi))
    _put_floats(is_tail, w[is_tail] * (i0[is_tail] * _SPILL_SERIALIZE_CYCLES))
    if noop_pf and not honors:
        _put_floats(is_pf, w[is_pf] * cap._scalar_cpi)
    if defer:
        # Deferred VPU pricing: intern (kind, shape) classes with
        # np.unique — ids are assigned in first-occurrence order among
        # the priced events; the walk's "m" classes are appended after.
        # (Class numbering may differ from the reference loop's global
        # interleaving; prices[cid] lookups stay self-consistent, so
        # every SimStats float is unchanged.)
        va = np.flatnonzero(is_varith)
        vb = np.flatnonzero(is_vb)
        keydefs: list = []  # (first_pos, defn, event_positions, 'a'|'b')
        if len(va):
            x0, x1, x2 = i0[va], i1[va], i2[va]
            first, inverse = _unique_shapes(x0, x1, x2)
            for k, fi in enumerate(first.tolist()):
                defn = ("a", int(x0[fi]), int(x1[fi]), int(x2[fi]))
                keydefs.append((int(va[fi]), defn, va[inverse == k]))
        if len(vb):
            uniq, first, inverse = np.unique(
                i0[vb], return_index=True, return_inverse=True
            )
            for k in range(len(uniq)):
                defn = ("b", int(uniq[k]))
                keydefs.append((int(vb[first[k]]), defn, vb[inverse == k]))
        keydefs.sort(key=lambda t: t[0])
        one = np.empty(1, dtype=object)
        for _, defn, evs in keydefs:
            cid = cap._class_id(defn)
            # One (6, w, cid) tuple per distinct weight, broadcast to
            # every event position carrying it (tag-6 items are only
            # ever read, so sharing the tuple object is safe).
            wv = w[evs]
            for uw in np.unique(wv).tolist():
                one[0] = (6, uw, cid)
                obj[pay_pos[evs[wv == uw]]] = one
    else:
        va = np.flatnonzero(is_varith)
        if len(va):
            x0, x1, x2 = i0[va], i1[va], i2[va]
            first, inverse = _unique_shapes(x0, x1, x2)
            prices = np.empty(len(first), dtype=np.float64)
            vpu = cap._vpu
            for k, fi in enumerate(first.tolist()):
                prices[k] = varith_cycles(vpu, int(x0[fi]), int(x1[fi]), int(x2[fi]))
            _put_floats(is_varith, w[va] * prices[inverse])
        _put_floats(is_vb, w[is_vb] * (i0[is_vb] * cap._vb_cycles))

    # ------------------------------------------------------------------
    # Walk events: sequential, through the real _GroupCapture (the one
    # place the TLB/L1/prefetcher/VC logic lives).  Pinning the label
    # state suppresses its switch items, so its program contains the
    # payload items only, in walk order — scattered into place below.
    # ------------------------------------------------------------------
    cap._cur_label = cap._kernel_stack[-1]  # never emit (1, ...) items
    walk = sm | is_vmem | is_nr
    if honors:
        walk |= is_pf
    wk = np.flatnonzero(walk)
    if len(wk):
        w_op = op[wk].tolist()
        w_w = w[wk].tolist()
        w_i0 = i0[wk].tolist()
        w_i1 = i1[wk].tolist()
        w_i2 = i2[wk].tolist()
        w_i3 = i3[wk].tolist()
        if cap._tlb is None and cap._pf1 is None and not honors:
            # Flattened transcription with hoisted locals — the hot
            # configuration (rvv/sve preset family).
            _walk_events_fast(cap, w_op, w_w, w_i0, w_i1, w_i2, w_i3)
        else:
            vmem = cap._vmem
            scalar_mem = cap._scalar_mem
            note_range = cap.note_resident_range
            sw_prefetch = cap.sw_prefetch
            cur_w = cap._w
            for j in range(len(wk)):
                wv = w_w[j]
                if wv != cur_w:
                    cap._w = cur_w = wv
                o = w_op[j]
                if o == OP_VLOAD:
                    vmem(w_i0[j], w_i1[j], w_i2[j], w_i3[j], False)
                elif o == OP_VSTORE:
                    vmem(w_i0[j], w_i1[j], w_i2[j], w_i3[j], True)
                elif o == OP_SCALAR_LOAD:
                    scalar_mem(w_i0[j], w_i1[j], False)
                elif o == OP_SCALAR_STORE:
                    scalar_mem(w_i0[j], w_i1[j], True)
                elif o == OP_NOTE_RANGE:
                    note_range(w_i0[j], w_i1[j])
                else:  # honoured OP_SW_PREFETCH
                    sw_prefetch(w_i0[j], w_i1[j], "L1" if w_i2[j] == 0 else "L2")
        items = cap._prog
        # Scatter: each walk event occupies exactly its payload slots.
        wp = pay_pos[wk]
        if honors and is_pf[wk].any():
            # An honoured prefetch occupies two slots: (5, fills) at
            # ``starts`` and its float at ``starts + 1 + flag`` (which
            # is ``pay_pos`` — ``pre`` reserved the tag-5 slot).
            out_pos: list = []
            for j in range(len(wk)):
                e = int(wk[j])
                if payload[e] == 2:
                    out_pos.append(int(starts[e]))
                out_pos.append(int(wp[j]))
        else:
            out_pos = wp.tolist()
        if len(items) != len(out_pos):
            raise AssertionError(
                f"walk emitted {len(items)} items, layout reserved "
                f"{len(out_pos)} (engine out of lock-step)"
            )
        if items:
            # Single fancy scatter: fromiter keeps the mixed
            # float/tuple items as opaque objects (a plain asarray
            # would try to broadcast the tuples).
            items_arr = np.fromiter(items, dtype=object, count=len(items))
            obj[np.asarray(out_pos, dtype=np.int64)] = items_arr

    prog = obj.tolist()

    inv = SimStats()
    inv.scalar_instrs = scalar_instrs
    inv.vec_instrs = vec_instrs
    inv.vec_mem_instrs = vec_mem_instrs
    inv.vec_elems = vec_elems
    inv.flops = flops
    inv.bytes_loaded = bytes_loaded
    inv.bytes_stored = bytes_stored
    inv.l1_hits = cap._l1_hits_c
    inv.l1_misses = cap._l1_misses_c
    inv.vc_hits = cap._vc_hits_c
    inv.sw_prefetches = sw_prefetches
    inv.spills = spills
    gc = {
        "vpu": cap._vpu,
        "port_l1": cap._port_l1,
        "l1_lat": cap._l1_lat,
        "ooo_hide": cap._ooo_hide,
        "scalar_cpi": cap._scalar_cpi,
        "l2_shift": cap._l2_shift,
        "distinct": cap._seen,
        "max_range_total": cap._max_range_total,
        "has_fills": cap._has_fills,
        "pf2_cfg": cap._pf2_cfg,
        "classes": cap._classes,
    }
    return prog, inv, gc
