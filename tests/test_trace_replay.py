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

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep_cache_sizes, sweep_lanes, tracecache
from repro.core.codesign import SweepResult
from repro.machine import a64fx, rvv_gem5, sve_gem5
from repro.machine.replay import (
    _GroupCapture,
    _hot_mask,
    _intern,
    _point_pass_vec,
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
    """Record the mode of every :func:`_walk` call (``"exact"``,
    ``"hybrid"`` or ``"free"``) and the group constants it saw."""
    from repro.machine import replay as R

    walks = []
    orig = R._walk

    def spy(skel, gc, machine, hot):
        mode = "exact" if hot is None else ("hybrid" if hot else "free")
        walks.append((mode, gc))
        return orig(skel, gc, machine, hot)

    monkeypatch.setattr(R, "_walk", spy)
    return walks


class TestWalkModes:
    """Every point prices through one pipeline: skeleton -> walk ->
    intern -> ``_point_pass_vec``.  The walk has three modes (exact,
    hybrid over the hot sets, conflict-free); every mode valid for a
    point must resolve the same per-event L2 split, and the mode
    ``_run_points`` picks must price bitwise like direct simulation.
    These call ``capture_sweep``/``replay_sweep`` directly: ``sweep()``
    would turn a broken walk into a slow but correct direct simulation.
    """

    @pytest.fixture(scope="class")
    def captured(self):
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        cap = _GroupCapture(m0, defer_vpu=True)
        yolov3_tiny()._emit_trace(cap, KernelPolicy(), 6, True)
        prog, inv, gc = cap.finish()
        assert not gc["has_fills"] and not gc["pf2_cfg"]
        lines = np.fromiter(gc["distinct"], dtype=np.int64)
        return m0, prog, inv, gc, _skeleton(prog), lines

    @staticmethod
    def assert_walks_agree(captured, m, hot):
        _, _, inv, gc, skel, _ = captured
        exact = _walk(skel, gc, m, None)
        other = _walk(skel, gc, m, hot)
        assert (exact[0] == other[0]).all() and (exact[1] == other[1]).all()
        assert_bitwise(
            _point_pass_vec(_intern(skel, *exact), inv, m, gc),
            _point_pass_vec(_intern(skel, *other), inv, m, gc),
        )

    @staticmethod
    def with_l2(m0, assoc, sets_log2):
        return m0.with_(l2=replace(
            m0.l2, assoc=assoc, size_bytes=m0.l2.line_bytes * assoc << sets_log2
        ))

    @settings(max_examples=25, deadline=None)
    @given(assoc=st.sampled_from([1, 2, 4, 8, 16]),
           sets_log2=st.integers(min_value=4, max_value=14),
           extra=st.integers(min_value=1, max_value=8))
    def test_hybrid_walk_agrees_with_exact(
        self, captured, assoc, sets_log2, extra
    ):
        """Hybrid is valid for any hot set holding every line of the
        overfull sets: lines of the other sets never get evicted, so
        walking a few of them too changes nothing.  The extra lines
        keep the set non-empty, which would select conflict-free."""
        m0, lines = captured[0], captured[5]
        m = self.with_l2(m0, assoc, sets_log2)
        hot = set(lines[_hot_mask(lines, m)].tolist())
        hot |= set(lines[:: max(1, len(lines) // extra)].tolist())
        self.assert_walks_agree(captured, m, hot)

    @settings(max_examples=15, deadline=None)
    @given(assoc=st.sampled_from([2, 4, 8, 16]),
           slack=st.integers(min_value=0, max_value=2))
    def test_conflict_free_walk_agrees_with_exact(self, captured, assoc, slack):
        """From the smallest L2 of this associativity with no overfull
        set (so range-budget trims still bite) up to four times it."""
        m0, lines = captured[0], captured[5]
        sets_log2 = next(
            s for s in range(4, 24)
            if not _hot_mask(lines, self.with_l2(m0, assoc, s)).any()
        )
        m = self.with_l2(m0, assoc, sets_log2 + slack)
        self.assert_walks_agree(captured, m, set())

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
        """An L2 sweep of this net runs every walk mode once per tier."""
        net = yolov3_tiny()
        m0 = rvv_gem5(vlen_bits=1024, lanes=4, l2_mb=1)
        # 512 KB: exact; 1 MB: hybrid; 2 MB: conflict-free, trimming;
        # 64 MB: conflict-free, never trimming.
        machines = [m0.with_(l2=replace(m0.l2, size_bytes=kb << 10))
                    for kb in (512, 1024, 2048, 65536)]
        walks = spy_walks(monkeypatch)
        fused = capture_sweep(
            lambda sim: net._emit_trace(sim, KernelPolicy(), 6, True), machines
        )
        assert [w[0] for w in walks] == ["exact", "hybrid", "free", "free"]
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
        assert [w[0] for w in walks] == ["hybrid"]
        for m, g in zip(machines, got):
            assert_bitwise(direct(net, m, KernelPolicy(), 6), g)


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
