"""Parallel sweep execution: parity with the serial path and fallbacks."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.core import (
    resolve_jobs,
    simulate_points,
    sweep,
    sweep_cache_sizes,
    sweep_lanes,
    sweep_vector_lengths,
    tracecache,
)
from repro.core.parallel import JOBS_ENV
from repro.machine import rvv_gem5, sve_gem5
from repro.machine.simulator import SimStats
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def assert_identical(a: SimStats, b: SimStats):
    for name in SimStats.FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.kernel_cycles == b.kernel_cycles


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs(None) == 1


class TestParallelParity:
    """Parallel sweeps must equal serial sweeps field by field."""

    def test_rvv_sweep_identical(self):
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)
        serial = sweep_vector_lengths(net, vlens, factory, jobs=1)
        parallel = sweep_vector_lengths(net, vlens, factory, jobs=2)
        assert serial.axis == parallel.axis == vlens
        assert len(parallel.stats) == len(vlens)
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)

    def test_sve_sweep_identical(self):
        net = small_net()
        policy = KernelPolicy(gemm="6loop")
        serial = sweep_vector_lengths(
            net, [512, 1024], lambda v: sve_gem5(vlen_bits=v), policy, jobs=1
        )
        parallel = sweep_vector_lengths(
            net, [512, 1024], lambda v: sve_gem5(vlen_bits=v), policy, jobs=2
        )
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)

    def test_result_order_matches_input_order(self):
        net = small_net()
        vlens = [4096, 512, 2048, 1024]  # deliberately unsorted
        res = sweep_vector_lengths(
            net, vlens, lambda v: rvv_gem5(vlen_bits=v), jobs=2
        )
        assert res.axis == vlens
        # Longer vectors take fewer, larger instructions: vec_instrs must
        # strictly follow the (unsorted) axis order, not completion order.
        by_vlen = dict(zip(res.axis, res.stats))
        assert by_vlen[512].vec_instrs > by_vlen[4096].vec_instrs


class TestParallelReplay:
    """Lane/VL sweeps must replay across processes, bitwise-identically,
    with spill on or off (the shared-memory tier covers both)."""

    @pytest.mark.parametrize("spill", ["0", "1"])
    def test_lane_sweep_parallel_identical(self, monkeypatch, tmp_path, spill):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", spill)
        tracecache.clear_registry()
        net = small_net()
        lanes = [1, 2, 4, 8]

        def factory(l):
            return rvv_gem5(vlen_bits=512, lanes=l, l2_mb=1)

        direct = sweep_lanes(net, lanes, factory, jobs=1, use_trace=False)
        assert direct.sources == ["direct"] * 4
        tracecache.clear_registry()
        parallel = sweep_lanes(net, lanes, factory, jobs=2)
        assert set(parallel.sources) <= {"captured", "replayed"}
        assert parallel.sources.count("replayed") >= 3
        for a, b in zip(direct.stats, parallel.stats):
            assert_identical(a, b)
        tracecache.clear_registry()

    @pytest.mark.parametrize("spill", ["0", "1"])
    def test_vl_sweep_parallel_replays_when_seeded(
        self, monkeypatch, tmp_path, spill
    ):
        """VL points are singleton trace groups; once the parent holds
        their captures, a parallel sweep replays every point in the
        workers instead of simulating.  With spill on a serial sweep
        seeds them; with spill off a serial sweep prices them directly,
        so the registry is seeded by hand."""
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", spill)
        tracecache.clear_registry()
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)

        if spill == "1":
            serial = sweep_vector_lengths(net, vlens, factory, jobs=1)
            assert serial.sources == ["captured"] * 3
        else:
            for v in vlens:
                tracecache.get_or_capture(net, factory(v), KernelPolicy(), None)
            serial = sweep_vector_lengths(net, vlens, factory, use_trace=False)
        parallel = sweep_vector_lengths(net, vlens, factory, jobs=2)
        assert parallel.sources == ["replayed"] * 3
        for a, b in zip(serial.stats, parallel.stats):
            assert_identical(a, b)
        tracecache.clear_registry()

    def test_single_trace_load_per_worker(self, monkeypatch, tmp_path):
        """Spawn-platform workers must decode each event stream at most
        once per worker lifetime — via the shared-memory segment the
        parent publishes, never by re-reading the spill per task."""
        log = tmp_path / "loads.log"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
        monkeypatch.setenv("REPRO_TRACE_LOAD_LOG", str(log))
        # Spawn (not fork) so workers start with empty registries —
        # the platform the shared-memory tier exists for.
        from repro.core import parallel as par

        monkeypatch.setattr(
            par, "multiprocessing", multiprocessing.get_context("spawn")
        )
        tracecache.clear_registry()
        net = small_net()
        # Two lane groups (distinct VLs -> distinct trace keys), two
        # chunks each: workers handle several tasks per event stream.
        machines = [
            rvv_gem5(vlen_bits=v, lanes=l, l2_mb=1)
            for v in (512, 1024)
            for l in (1, 2, 4, 8)
        ]
        out = simulate_points(net, machines, KernelPolicy(), None, 2)
        assert out is not None
        stats, sources = out
        assert sources.count("replayed") >= 6
        lines = [ln.split() for ln in log.read_text().splitlines()]
        # Compiled-pass artifacts (vecprog/pass_shm/pass_spill) may also
        # be loaded — they exist to *avoid* trace decodes, so only the
        # trace-stream loads are constrained here.
        trace_loads = [
            (pid, src, key)
            for pid, src, key in lines
            if src in ("shm", "spill")
        ]
        assert trace_loads, "workers should have loaded the published traces"
        # Every cross-process trace load came from shared memory...
        assert {src for _, src, _ in trace_loads} == {"shm"}
        # ...and no worker decoded the same stream twice.
        seen = [(pid, key) for pid, _, key in trace_loads]
        assert len(seen) == len(set(seen))
        tracecache.clear_registry()


@pytest.fixture()
def fresh_state(tmp_path, monkeypatch):
    """Empty trace registry and pass memo, private cache directories."""
    from repro.machine import replay

    def reset():
        tracecache.clear_registry()
        replay._SHARED_PASS_MEMO.clear()

    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "sc"))
    for knob in ("REPRO_TRACE_SPILL", "REPRO_TRACE", "REPRO_SIMCACHE"):
        monkeypatch.delenv(knob, raising=False)
    reset()
    yield reset
    reset()


@pytest.mark.parametrize("jobs", [1, 2])
class TestRouteParity:
    """The serial and the parallel engine follow one route plan, so a
    sweep reports the same sources whichever engine priced it."""

    def test_simcache_rerun_is_cached(self, fresh_state, jobs):
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        first = sweep_cache_sizes(net, [1, 2, 4], factory, jobs=jobs,
                                  use_cache=True)
        fresh_state()
        again = sweep_cache_sizes(net, [1, 2, 4], factory, jobs=jobs,
                                  use_cache=True)
        assert first.sources == ["captured", "replayed", "replayed"]
        assert again.sources == ["cached"] * 3
        for a, b in zip(first.stats, again.stats):
            assert_identical(a, b)

    def test_each_multi_point_group_captures_once(self, fresh_state, jobs):
        net = small_net()
        grid = [(512, 1), (512, 4), (1024, 1), (1024, 4)]

        def factory(point):
            vlen, mb = point
            return rvv_gem5(vlen_bits=vlen, lanes=4, l2_mb=mb)

        res = sweep(net, "vlen_l2", grid, factory, jobs=jobs)
        direct = sweep(net, "vlen_l2", grid, factory, use_trace=False)
        assert res.sources == ["captured", "replayed"] * 2
        for a, b in zip(res.stats, direct.stats):
            assert_identical(a, b)

    def test_parallel_forced_spill_is_reused(self, fresh_state, jobs):
        """A pool parent spills its captures even with spill off; both
        engines find such a spill the same way, so a later sweep of the
        stream replays it."""
        net = small_net()

        def factory(mb):
            return rvv_gem5(vlen_bits=512, lanes=4, l2_mb=mb)

        seeded = sweep_cache_sizes(net, [1, 2, 4], factory, jobs=2)
        assert seeded.sources == ["captured", "replayed", "replayed"]
        fresh_state()
        again = sweep_cache_sizes(net, [1, 2, 4], factory, jobs=jobs)
        assert again.sources == ["replayed"] * 3
        for a, b in zip(seeded.stats, again.stats):
            assert_identical(a, b)

    def test_forced_trace_on_unreplayable_group_raises(
        self, fresh_state, jobs
    ):
        net = small_net()
        m0 = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        group = [m0, m0.with_(vpu=replace(m0.vpu, mem_port="L1"))]
        with pytest.raises(ValueError, match="cannot price"):
            sweep(net, "port", [0, 1], group.__getitem__, jobs=jobs,
                  use_trace=True)
        auto = sweep(net, "port", [0, 1], group.__getitem__, jobs=jobs)
        assert auto.sources == ["direct", "direct"]

    @pytest.mark.parametrize("spill", ["0", "1"])
    def test_cold_vl_points(self, fresh_state, monkeypatch, jobs, spill):
        """A VL point is a singleton group: it captures only when the
        capture outlives the call (spill on); otherwise it is cheaper to
        simulate it directly."""
        monkeypatch.setenv("REPRO_TRACE_SPILL", spill)
        net = small_net()
        vlens = [512, 1024, 2048]

        def factory(v):
            return rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1)

        cold = sweep_vector_lengths(net, vlens, factory, jobs=jobs)
        direct = sweep_vector_lengths(net, vlens, factory, use_trace=False)
        for a, b in zip(cold.stats, direct.stats):
            assert_identical(a, b)
        if spill == "0":
            assert cold.sources == ["direct"] * 3
            return
        assert cold.sources == ["captured"] * 3
        fresh_state()
        warm = sweep_vector_lengths(net, vlens, factory, jobs=jobs)
        assert warm.sources == ["replayed"] * 3
        for a, b in zip(warm.stats, direct.stats):
            assert_identical(a, b)


class TestFallbacks:
    def test_single_point_returns_none(self):
        net = small_net()
        assert simulate_points(
            net, [rvv_gem5(vlen_bits=512)], KernelPolicy(), None, 4
        ) is None

    def test_single_job_returns_none(self):
        net = small_net()
        machines = [rvv_gem5(vlen_bits=v) for v in (512, 1024)]
        assert simulate_points(net, machines, KernelPolicy(), None, 1) is None

    def test_unpicklable_network_falls_back(self):
        net = small_net()
        net.unpicklable = lambda: None  # closures cannot be pickled
        machines = [rvv_gem5(vlen_bits=v) for v in (512, 1024)]
        assert simulate_points(net, machines, KernelPolicy(), None, 2) is None
        # ...and the sweep still completes serially.
        res = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v), jobs=2
        )
        assert len(res.stats) == 2

    def test_env_driven_parallelism(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        net = small_net()
        res = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v)
        )
        serial = sweep_vector_lengths(
            net, [512, 1024], lambda v: rvv_gem5(vlen_bits=v), jobs=1
        )
        for a, b in zip(res.stats, serial.stats):
            assert_identical(a, b)
