"""Capture-once / replay-many trace engine: bitwise identity & keying.

The contract under test is strict: pricing a recorded kernel event
stream — via :func:`repro.machine.replay.replay`, a shared-pass
``replay_sweep``, or the fused ``capture_sweep`` — must produce
``SimStats`` *bitwise identical* (``float.hex`` equal) to driving the
kernels straight into a :class:`TraceSimulator`.  Equality within an
epsilon is not enough; the replay engines mirror the simulator's
accumulation order exactly, and these tests are the tripwire for any
drift (see the lock-step warning in ``repro/machine/replay.py``).
"""

from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep_cache_sizes, sweep_lanes, tracecache
from repro.core.codesign import SweepResult
from repro.machine import a64fx, rvv_gem5, sve_gem5
from repro.machine.replay import (
    _conflict_free,
    _GroupCapture,
    _intern,
    _lru_hits,
    _lru_walk,
    _point_pass_vec,
    _reuse,
    _skeleton,
    _walk,
    capture_sweep,
    group_mode,
    nonuniform_fields,
    replay,
    replay_sweep,
    supports_axis,
    uniform_group,
)
from repro.machine.simulator import SimStats, TraceSimulator
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network
from repro.nets.zoo import yolov3_tiny


def hexs(st: SimStats):
    """Exact fingerprint: every counter as float.hex + kernel cycles."""
    fields = tuple(getattr(st, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in st.kernel_cycles.items()))
    return fields, kc


def assert_bitwise(a: SimStats, b: SimStats):
    for f in SimStats.FIELDS:
        assert getattr(a, f).hex() == getattr(b, f).hex(), f
    assert hexs(a)[1] == hexs(b)[1]


def direct(net, machine, policy, n_layers):
    sim = TraceSimulator(machine)
    net._emit_trace(sim, policy, n_layers, True)
    return sim.stats


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


L2_SIZES = [1, 4, 64]

CASES = [
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(),
        6,
        id="rvv",
    ),
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(gemm="6loop"),
        6,
        id="rvv-6loop",
    ),
    pytest.param(
        lambda mb: rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=mb),
        KernelPolicy(winograd="stride1"),
        6,
        id="rvv-winograd",
    ),
    pytest.param(
        lambda mb: sve_gem5(vlen_bits=512, l2_mb=mb), KernelPolicy(), 6, id="sve"
    ),
    pytest.param(
        lambda mb: a64fx().with_(
            l2=a64fx().l2.__class__(
                size_bytes=mb << 20,
                assoc=a64fx().l2.assoc,
                line_bytes=a64fx().l2.line_bytes,
                latency=a64fx().l2.latency,
            )
        ),
        KernelPolicy(),
        6,
        id="a64fx",
    ),
]


class TestBitwiseIdentity:
    @pytest.mark.parametrize("mk,policy,n", CASES)
    def test_replay_and_sweeps_match_direct(self, mk, policy, n):
        net = yolov3_tiny()
        machines = [mk(mb) for mb in L2_SIZES]
        ds = [direct(net, m, policy, n) for m in machines]

        trace = net.record_trace(machines[0], policy, n_layers=n)
        assert_bitwise(ds[0], replay(trace, machines[0]))

        replayed = replay_sweep(trace, machines)
        assert replayed is not None
        for d, r in zip(ds, replayed):
            assert_bitwise(d, r)

        fused = capture_sweep(
            lambda sim: net._emit_trace(sim, policy, n, True), machines
        )
        assert fused is not None
        for d, c in zip(ds, fused):
            assert_bitwise(d, c)

    def test_mixed_dram_and_tiny_l2_group(self):
        """Uniform groups may vary DRAM parameters, not just L2 size."""
        net = yolov3_tiny()
        base = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        tiny = base.with_(
            l2=base.l2.__class__(
                size_bytes=64 * 1024,
                assoc=base.l2.assoc,
                line_bytes=base.l2.line_bytes,
                latency=base.l2.latency,
            )
        )
        group = [
            tiny,
            base.with_(dram_latency=300),
            rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=64).with_(dram_bytes_per_cycle=8),
        ]
        assert uniform_group(group)
        ds = [direct(net, m, KernelPolicy(), 6) for m in group]
        trace = net.record_trace(group[0], KernelPolicy(), n_layers=6)
        for d, r in zip(ds, replay_sweep(trace, group)):
            assert_bitwise(d, r)

    def test_zero_layer_trace(self):
        net = yolov3_tiny()
        m = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        trace = net.record_trace(m, KernelPolicy(), n_layers=0)
        assert_bitwise(direct(net, m, KernelPolicy(), 0), replay(trace, m))

    def test_lane_group_replays_deferred(self):
        """Lanes change pricing arithmetic, not the walk: the engines
        defer the VPU-dependent terms and replay bitwise."""
        net = yolov3_tiny()
        group = [
            rvv_gem5(vlen_bits=1024, lanes=l, l2_mb=1) for l in (1, 2, 4, 8)
        ]
        assert not uniform_group(group)  # not an L2/DRAM-only group...
        assert group_mode(group) == "vpu"  # ...but a deferred-pricing one
        ds = [direct(net, m, KernelPolicy(), 2) for m in group]
        trace = net.record_trace(group[0], KernelPolicy(), n_layers=2)
        for d, r in zip(ds, replay_sweep(trace, group)):
            assert_bitwise(d, r)
        cs = capture_sweep(
            lambda sim: net._emit_trace(sim, KernelPolicy(), 2, True), group
        )
        for d, r in zip(ds, cs):
            assert_bitwise(d, r)

    def test_vl_group_declined(self):
        """VL changes the event stream itself -> the group engines
        decline; each VL point records (and replays) its own trace."""
        group = [rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1) for v in (512, 1024)]
        assert group_mode(group) is None
        assert not supports_axis("l1_size")
        assert supports_axis("lanes") and supports_axis("vlen_bits")
        assert nonuniform_fields(group) == ["vlen_bits"]

    def test_port_level_group_declined(self):
        """The VPU memory-port level shapes the recorded walk: a group
        varying in it must fall back to per-point simulation."""
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        m1 = m0.with_(vpu=replace(m0.vpu, mem_port="L1"))
        assert group_mode([m0, m1]) is None

    def test_incompatible_machine_raises(self):
        net = yolov3_tiny()
        trace = net.record_trace(
            rvv_gem5(vlen_bits=1024, lanes=4), KernelPolicy(), n_layers=2
        )
        with pytest.raises(ValueError):
            replay(trace, rvv_gem5(vlen_bits=2048, lanes=4))


def spy_walks(monkeypatch):
    """Record the kind of every point walk (``"exact"`` for the
    sequential :func:`_walk`, ``"lru"`` or ``"free"`` for the vectorized
    :func:`_lru_walk` of an overcommitted or a conflict-free L2) and the
    group constants it saw."""
    from repro.machine import replay as R

    walks = []
    exact, lru = R._walk, R._lru_walk

    def spy_exact(skel, gc, machine):
        walks.append(("exact", gc))
        return exact(skel, gc, machine)

    def spy_lru(skel, gc, machine, free):
        walks.append(("free" if free else "lru", gc))
        return lru(skel, gc, machine, free)

    monkeypatch.setattr(R, "_walk", spy_exact)
    monkeypatch.setattr(R, "_lru_walk", spy_lru)
    return walks


def synthetic_program(events, l1_shift, l2_shift):
    """A shared-pass ``(prog, gc)`` pair from abstract events: ``("v",
    lines)`` a vector (tag-3) and ``("s", lines)`` a scalar (tag-4)
    event over L1-line indices (possibly none), ``("n", line, n)`` a
    residency note of *n* L1 lines."""
    prog = []
    lines = array("i")
    for ev in events:
        if ev[0] == "n":
            prog.append((2, ev[1] << l1_shift, ev[2] << l1_shift))
            continue
        lines.extend(ev[1])
        if ev[0] == "v":
            prog.append((3, 1.0, len(ev[1]), 9, 0.0, 64, 1, False, True, 0))
        else:
            prog.append((4, 1.0, len(ev[1]), 9, 0.0, False))
    gc = {"port_l1": True, "l1_shift": l1_shift, "l2_shift": l2_shift,
          "lines": lines, "has_fills": False, "pf2_cfg": False}
    return prog, gc


def with_l2(m0, n_sets, assoc, line_bytes=None):
    """*m0* with an L2 of *n_sets* sets of *assoc* ways."""
    line = line_bytes or m0.l2.line_bytes
    return m0.with_(l2=replace(
        m0.l2, size_bytes=n_sets * assoc * line, assoc=assoc, line_bytes=line
    ))


LINE = st.integers(min_value=0, max_value=95)
#: Half the lines come from a hot handful, so set-local windows often
#: repeat a few lines before a new one shows up.
EVENT_LINE = st.one_of(st.integers(min_value=0, max_value=7), LINE)
EVENT = st.one_of(
    st.tuples(st.sampled_from("vs"),
              st.lists(EVENT_LINE, max_size=6).map(tuple)),
    st.tuples(st.just("n"), LINE, st.integers(min_value=0, max_value=48)),
)


class TestWalkModes:
    """Every point prices through one pipeline: skeleton -> walk ->
    intern -> ``_point_pass_vec``.  A group without prefetch fills walks
    with NumPy (:func:`_lru_walk`); the sequential LRU loop
    (:func:`_walk`) runs for groups with fills and is the oracle the
    vectorized walk must match on every generated program.  The sweep
    tests call ``capture_sweep``/``replay_sweep`` directly.
    """

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(EVENT, min_size=10, max_size=80),
           n_sets=st.integers(min_value=1, max_value=24),
           assoc=st.integers(min_value=1, max_value=16),
           l2_up=st.integers(min_value=0, max_value=2),
           chunk=st.sampled_from([1, 5, 1 << 17]))
    def test_lru_walk_agrees_with_exact(
        self, events, n_sets, assoc, l2_up, chunk
    ):
        """Generated demand streams on generated L2s: any set count,
        assoc 1-16, L2 lines up to 4x the L1 line, range budgets small
        enough to trim, scalar and empty events, and window chunks down
        to one position.  The vectorized walk resolves the same per-event
        split as the sequential loop; so does its conflict-free shortcut
        wherever :func:`_conflict_free` allows it."""
        from repro.machine import replay as R

        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        l1_shift = 6
        m = with_l2(m0, n_sets, assoc, 64 << l2_up)
        prog, gc = synthetic_program(events, l1_shift, l1_shift + l2_up)
        skel = _skeleton(prog)
        want = _walk(skel, gc, m)
        saved, R._WINDOW_CHUNK = R._WINDOW_CHUNK, chunk
        try:
            got = _lru_walk(skel, gc, m, False)
        finally:
            R._WINDOW_CHUNK = saved
        assert want[0].tolist() == got[0].tolist()
        assert want[1].tolist() == got[1].tolist()
        if _conflict_free(_reuse(gc), m):
            free = _lru_walk(skel, gc, m, True)
            assert want[0].tolist() == free[0].tolist()
            assert want[1].tolist() == free[1].tolist()

    @pytest.fixture(scope="class")
    def captured(self):
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        cap = _GroupCapture(m0, defer_vpu=True)
        yolov3_tiny()._emit_trace(cap, KernelPolicy(), 6, True)
        prog, inv, gc = cap.finish()
        assert not gc["has_fills"] and not gc["pf2_cfg"]
        return m0, inv, gc, _skeleton(prog)

    @staticmethod
    def assert_walks_agree(captured, m, free):
        _, inv, gc, skel = captured
        exact = _walk(skel, gc, m)
        other = _lru_walk(skel, gc, m, free)
        assert exact[0].tolist() == other[0].tolist()
        assert exact[1].tolist() == other[1].tolist()
        assert_bitwise(
            _point_pass_vec(_intern(skel, *exact), inv, m, gc),
            _point_pass_vec(_intern(skel, *other), inv, m, gc),
        )

    @staticmethod
    def smallest_conflict_free(captured, assoc):
        """log2 of the set count of the smallest L2 of *assoc* ways in
        which no set of the captured trace is overfull."""
        m0, _, gc, _ = captured
        return next(
            s for s in range(4, 24)
            if _conflict_free(_reuse(gc), with_l2(m0, 1 << s, assoc))
        )

    @settings(max_examples=25, deadline=None)
    @given(assoc=st.sampled_from([1, 2, 4, 8, 16]),
           below=st.integers(min_value=1, max_value=6))
    def test_hybrid_walk_agrees_with_exact(self, captured, assoc, below):
        """A real network's trace on L2s with overfull sets: from a
        handful of hot sets up to every set hot.  Only the hot
        sets' accesses run the set-local window counts, the other sets'
        repeats hit outright; the per-event split and the priced stats
        match the sequential walk."""
        m0, _, gc, _ = captured
        sets_log2 = max(4, self.smallest_conflict_free(captured, assoc) - below)
        m = with_l2(m0, 1 << sets_log2, assoc)
        assert not _conflict_free(_reuse(gc), m)
        self.assert_walks_agree(captured, m, False)

    @settings(max_examples=15, deadline=None)
    @given(assoc=st.sampled_from([2, 4, 8, 16]),
           slack=st.integers(min_value=0, max_value=2))
    def test_conflict_free_walk_agrees_with_exact(self, captured, assoc, slack):
        """From the smallest L2 of this associativity with no overfull
        set (so range-budget trims still bite) up to four times it, the
        conflict-free shortcut (hit iff touched before) walks like the
        sequential loop."""
        m0, _, gc, _ = captured
        sets_log2 = self.smallest_conflict_free(captured, assoc) + slack
        m = with_l2(m0, 1 << sets_log2, assoc)
        assert _conflict_free(_reuse(gc), m)
        self.assert_walks_agree(captured, m, True)

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(
               st.one_of(
                   st.tuples(st.just("v"),
                             st.lists(LINE, min_size=1, max_size=4)
                             .map(tuple)),
                   st.tuples(st.just("n"), st.sampled_from([0, 24, 48, 72]),
                             st.integers(min_value=4, max_value=24)),
               ),
               min_size=20, max_size=80,
           ),
           n_sets=st.integers(min_value=8, max_value=48),
           assoc=st.integers(min_value=1, max_value=2))
    def test_range_refreshes_order_trims_like_exact(
        self, events, n_sets, assoc
    ):
        """A small, thrashing L2 whose budget holds two or three of the
        disjoint ranges: most accesses miss in LRU and run the range
        check, so which range a later note trims first depends on the
        order of the range hits before it."""
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        m = with_l2(m0, n_sets, assoc)
        prog, gc = synthetic_program(events, 6, 6)
        skel = _skeleton(prog)
        want = _walk(skel, gc, m)
        got = _lru_walk(skel, gc, m, False)
        assert want[0].tolist() == got[0].tolist()
        assert want[1].tolist() == got[1].tolist()

    def test_exact_walk_matches_direct_simulation(self, monkeypatch):
        """a64fx has an L2 prefetcher and honours software prefetches
        (the 6-loop GEMM issues them), so only the exact walk is valid
        and its prefetcher and tag-5 fill branches run."""
        net = yolov3_tiny()
        policy = KernelPolicy(gemm="6loop")
        base = a64fx()
        machines = [base.with_(l2=replace(base.l2, size_bytes=mb << 20))
                    for mb in (1, 8)]
        walks = spy_walks(monkeypatch)
        fused = capture_sweep(
            lambda sim: net._emit_trace(sim, policy, 3, True), machines
        )
        trace = net.record_trace(machines[0], policy, n_layers=3)
        replayed = replay_sweep(trace, machines)
        assert [w[0] for w in walks] == ["exact"] * 4
        assert all(gc["has_fills"] and gc["pf2_cfg"] for _, gc in walks)
        for m, f, r in zip(machines, fused, replayed):
            want = net.simulate(m, policy, n_layers=3, use_cache=False,
                                use_trace=False)
            assert_bitwise(want, f)
            assert_bitwise(want, r)

    def test_run_points_selects_each_walk_mode(self, monkeypatch):
        """An L2 sweep from 512 KB to 256 MB walks each overcommitted
        point and each conflict-free budget once, bitwise like direct
        simulation."""
        net = yolov3_tiny()
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        # 512 KB and 1 MB: overcommitted sets; 2 MB: conflict-free,
        # trimming; 256 MB: conflict-free, never trimming.
        machines = [m0.with_(l2=replace(m0.l2, size_bytes=kb << 10))
                    for kb in (512, 1024, 2048, 262144)]
        walks = spy_walks(monkeypatch)
        fused = capture_sweep(
            lambda sim: net._emit_trace(sim, KernelPolicy(), 6, True), machines
        )
        assert [w[0] for w in walks] == ["lru", "lru", "free", "free"]
        for m, f in zip(machines, fused):
            assert_bitwise(direct(net, m, KernelPolicy(), 6), f)

    def test_shared_budget_walks_once(self, monkeypatch):
        """Two conflict-free points with one trimming L2 budget (a DRAM
        latency pair) share a ``fast:<budget>`` walk."""
        net = yolov3_tiny()
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=2)
        machines = [m0, m0.with_(dram_latency=2 * m0.dram_latency)]
        walks = spy_walks(monkeypatch)
        fused = capture_sweep(
            lambda sim: net._emit_trace(sim, KernelPolicy(), 6, True), machines
        )
        assert [w[0] for w in walks] == ["free"]
        for m, f in zip(machines, fused):
            assert_bitwise(direct(net, m, KernelPolicy(), 6), f)
        assert hexs(fused[0]) != hexs(fused[1])

    def test_lane_group_walks_once(self, monkeypatch):
        """A conflicted lane group (uniform 1 MB L2, varying lanes)
        shares one ``walk:<fp>`` tier: one walk prices every point."""
        net = yolov3_tiny()
        machines = [
            rvv_gem5(vlen_bits=1024, lanes=n, l2_mb=1) for n in (2, 4, 8)
        ]
        trace = net.record_trace(machines[0], KernelPolicy(), n_layers=6)
        walks = spy_walks(monkeypatch)
        got = replay_sweep(trace, machines)
        assert [w[0] for w in walks] == ["lru"]
        for m, g in zip(machines, got):
            assert_bitwise(direct(net, m, KernelPolicy(), 6), g)


def lru_misses(gc, machine):
    return set(np.flatnonzero(~_lru_hits(_reuse(gc), machine)).tolist())


class TestLruMetamorphic:
    """Properties of LRU itself, checked on the vectorized hit column:
    more ways never add a miss (the LRU stack inclusion property), and
    neither does splitting every set in two (set refinement: each new
    set sees a sub-stream of an old one)."""

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(LINE, max_size=200),
           n_sets=st.integers(min_value=1, max_value=24),
           assoc=st.integers(min_value=1, max_value=15))
    def test_more_ways_never_add_misses(self, stream, n_sets, assoc):
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        _, gc = synthetic_program([("v", tuple(stream))], 6, 6)
        narrow = lru_misses(gc, with_l2(m0, n_sets, assoc))
        wide = lru_misses(gc, with_l2(m0, n_sets, assoc + 1))
        assert wide <= narrow

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(LINE, max_size=200),
           n_sets=st.integers(min_value=1, max_value=24),
           assoc=st.integers(min_value=1, max_value=16))
    def test_set_refinement_never_adds_misses(self, stream, n_sets, assoc):
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        _, gc = synthetic_program([("v", tuple(stream))], 6, 6)
        coarse = lru_misses(gc, with_l2(m0, n_sets, assoc))
        fine = lru_misses(gc, with_l2(m0, 2 * n_sets, assoc))
        assert fine <= coarse

    def test_properties_hold_on_a_real_trace(self):
        """The same two properties on the yolov3-tiny demand stream, at
        the set counts of a 256 KB to 1 MB 8-way L2 (all of which evict:
        they miss more often than there are distinct lines)."""
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        cap = _GroupCapture(m0, defer_vpu=True)
        yolov3_tiny()._emit_trace(cap, KernelPolicy(), 6, True)
        gc = cap.finish()[2]
        for n_sets in (512, 1024, 2048):
            base = lru_misses(gc, with_l2(m0, n_sets, 8))
            assert len(base) > len(_reuse(gc).unique)
            assert lru_misses(gc, with_l2(m0, n_sets, 9)) <= base
            assert lru_misses(gc, with_l2(m0, 2 * n_sets, 8)) <= base


class TestTraceKey:
    def key(self, net=None, machine=None, policy=None, n_layers=6):
        return tracecache.trace_key(
            net or yolov3_tiny(),
            machine or rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1),
            policy or KernelPolicy(),
            n_layers,
        )

    def test_pricing_axes_share_a_key(self):
        base = self.key()
        assert base == self.key(machine=rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=256))
        assert base == self.key(machine=rvv_gem5(vlen_bits=1024, lanes=2, l2_mb=1))
        assert base == self.key(
            machine=rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1).with_(dram_latency=999)
        )

    def test_stream_axes_change_the_key(self):
        base = self.key()
        assert base != self.key(machine=rvv_gem5(vlen_bits=2048, lanes=4, l2_mb=1))
        assert base != self.key(machine=sve_gem5(vlen_bits=1024, l2_mb=1))
        assert base != self.key(policy=KernelPolicy(gemm="6loop"))
        assert base != self.key(n_layers=4)
        assert base != self.key(net=small_net())

    def test_registry_and_spill(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        tracecache.clear_registry()
        net = small_net()
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        trace, cached = tracecache.get_or_capture(net, m, KernelPolicy(), None, spill=True)
        assert not cached
        _, cached = tracecache.get_or_capture(net, m, KernelPolicy(), None, spill=True)
        assert cached
        # A fresh registry (= another worker process) loads the spill.
        tracecache.clear_registry()
        key = tracecache.trace_key(net, m, KernelPolicy(), None)
        loaded = tracecache.get(key, spill=True)
        assert loaded is not None
        assert_bitwise(replay(trace, m), replay(loaded, m))
        tracecache.clear_registry()


class TestSweepIntegration:
    def test_sources_and_identity(self):
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        on = sweep_cache_sizes(net, [1, 4, 16], factory)
        off = sweep_cache_sizes(net, [1, 4, 16], factory, use_trace=False)
        assert on.sources == ["captured", "replayed", "replayed"]
        assert off.sources == ["direct", "direct", "direct"]
        for a, b in zip(on.stats, off.stats):
            assert_bitwise(a, b)
        assert [r["source"] for r in on.as_rows()] == on.sources

    def test_lane_sweep_replays(self):
        net = small_net()

        def factory(lanes):
            return rvv_gem5(vlen_bits=512, lanes=lanes, l2_mb=1)

        on = sweep_lanes(net, [2, 4, 8], factory)
        off = sweep_lanes(net, [2, 4, 8], factory, use_trace=False)
        assert on.sources == ["captured", "replayed", "replayed"]
        assert off.sources == ["direct", "direct", "direct"]
        for a, b in zip(on.stats, off.stats):
            assert_bitwise(a, b)

    def test_vl_sweep_replays_from_seeded_registry(self, tmp_path, monkeypatch):
        """Each VL point is a singleton trace group.  With spill off a
        capture would not outlive the call, so every point is simulated
        directly.  With spill on, the first sweep captures (and prices
        by replay) and a second sweep along the same axis replays every
        point without re-running kernels."""
        from repro.core import sweep_vector_lengths

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "0")
        tracecache.clear_registry()
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)

        unspilled = sweep_vector_lengths(net, vlens, factory)
        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        first = sweep_vector_lengths(net, vlens, factory)
        second = sweep_vector_lengths(net, vlens, factory)
        off = sweep_vector_lengths(net, vlens, factory, use_trace=False)
        assert unspilled.sources == ["direct"] * 3
        assert first.sources == ["captured"] * 3
        assert second.sources == ["replayed"] * 3
        assert off.sources == ["direct"] * 3
        for u, a, b, c in zip(
            unspilled.stats, first.stats, second.stats, off.stats
        ):
            assert_bitwise(u, c)
            assert_bitwise(a, c)
            assert_bitwise(b, c)
        tracecache.clear_registry()

    def test_unreplayable_axis_raises_when_trace_forced(self):
        net = small_net()
        m0 = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        group = [m0, m0.with_(vpu=replace(m0.vpu, mem_port="L1"))]
        from repro.core.codesign import sweep

        with pytest.raises(ValueError, match="mem_port|vpu"):
            sweep(net, "port", ["L2", "L1"], lambda i: group[
                {"L2": 0, "L1": 1}[i]
            ], use_trace=True)
        # Default (auto) mode degrades to per-point simulation instead.
        res = sweep(
            net, "port", ["L2", "L1"],
            lambda i: group[{"L2": 0, "L1": 1}[i]],
        )
        assert res.sources == ["direct", "direct"]

    def test_simcache_hits_win_over_replay(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "sc"))
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        first = sweep_cache_sizes(net, [1, 4], factory, use_cache=True)
        second = sweep_cache_sizes(net, [1, 4], factory, use_cache=True)
        assert first.sources == ["captured", "replayed"]
        assert second.sources == ["cached", "cached"]
        for a, b in zip(first.stats, second.stats):
            assert_bitwise(a, b)

    def test_zero_cycle_speedups_guarded(self):
        res = SweepResult(axis_name="x", axis=[1, 2], stats=[SimStats(), SimStats()])
        assert res.speedups() == [1.0, 1.0]
        live = SweepResult(
            axis_name="x", axis=[1, 2], stats=[SimStats(cycles=10.0), SimStats()]
        )
        assert live.speedups() == [1.0, float("inf")]
        assert SweepResult(axis_name="x").speedups() == []
