"""The shared pass: bitwise identity with per-event replay.

``repro.machine.replay._shared_pass`` is the one engine that turns a
recorded trace into the ``(prog, inv, gc)`` triple every replay route
prices.  Its contract is the strict one the rest of the replay engine
lives under: pricing a machine from its program must give ``SimStats``
bitwise identical (``float.hex`` equal) to :func:`replay`, the per-event
oracle that feeds the trace through a real ``TraceSimulator`` — across
presets, kernel policies, deferred-VPU mode, and a synthetic trace
exercising every opcode.
"""

import pytest

from repro.machine import a64fx, rvv_gem5, sve_gem5
from repro.machine.replay import _run_points, _shared_pass, replay
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def capture(machine, policy):
    rec = TraceRecorder(machine)
    small_net()._emit_trace(rec, policy, None, True)
    return rec.finish(key="passchk")


def synthetic_trace(machine):
    """One trace touching every opcode the wire format can carry."""
    rec = TraceRecorder(machine)
    a = rec.alloc("a", 1 << 20)
    b = rec.alloc("b", 1 << 20)
    with rec.kernel("k1"):
        rec.scalar(3)
        rec.scalar_load(a.base + 5, 4)
        rec.scalar_load(a.base + 5, 4)
        rec.scalar_store(a.base + 60, 8)  # straddles a line
        rec.scalar_load(a.base + 62, 128)  # multi-line
        rec.vload(a.base, 64, 4, 0)
        rec.vstore(b.base + 3, 33, 4, 4)
        rec.vload(b.base, 16, 4, 68)  # strided
        rec.vstore(a.base + 7, 9, 8, 136)  # strided, straddling
        rec.varith(64, 2, 2.0, 4)
        rec.varith(64, 2, 2.0, 4)
        rec.varith(16, 1, 1.0, 8)
        rec.vbroadcast(2)
        rec.vbroadcast(0)
        rec.count_flops(123.5)
        rec.sw_prefetch(a.base + 4096, 256, "L1")
        rec.sw_prefetch(b.base + 8192, 64, "L2")
        rec.spill(3)
    with rec.region(2.5):
        with rec.kernel("k2"):
            rec.hierarchy.note_resident_range(a.base, 4096)
            rec.vload(a.base + 100000, 128, 4, 0)
            rec.scalar(0)
            rec.spill(1)
            for i in rec.loop(40):
                rec.vload(a.base + 512 * i, 32, 4, 0)
                rec.varith(32, 1, 2.0, 4)
                rec.scalar_load(b.base + 64 * i, 4)
        with rec.kernel("k1"):  # revisit an existing label
            rec.vstore(b.base + 4096, 64, 4, 0)
            rec.scalar(2)
    return rec.finish(key="synth")


def assert_prices_like_replay(trace, machine, defer):
    """The shared pass must price *machine* exactly as :func:`replay`."""
    got = _run_points(*_shared_pass(trace, machine, defer), [machine])[0]
    want = replay(trace, machine)
    for f in SimStats.FIELDS:
        assert getattr(got, f).hex() == getattr(want, f).hex(), f
    assert {k: v.hex() for k, v in got.kernel_cycles.items()} == {
        k: v.hex() for k, v in want.kernel_cycles.items()
    }


MACHINES = [
    pytest.param(lambda: rvv_gem5(vlen_bits=1024, lanes=4), id="rvv"),
    pytest.param(lambda: sve_gem5(vlen_bits=512), id="sve"),
    pytest.param(lambda: a64fx(), id="a64fx"),
]
POLICIES = [
    pytest.param(KernelPolicy(), id="default"),
    pytest.param(KernelPolicy(gemm="6loop", winograd="all3x3"), id="wino"),
]


class TestSharedPassIdentity:
    @pytest.mark.parametrize("factory", MACHINES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("defer", [False, True])
    def test_network_trace(self, factory, policy, defer):
        m = factory()
        trace = capture(m, policy)
        assert_prices_like_replay(trace, m, defer)

    @pytest.mark.parametrize("factory", MACHINES)
    @pytest.mark.parametrize("defer", [False, True])
    def test_synthetic_all_opcodes(self, factory, defer):
        m = factory()
        trace = synthetic_trace(m)
        assert_prices_like_replay(trace, m, defer)

    def test_empty_trace(self):
        m = rvv_gem5(vlen_bits=512)
        rec = TraceRecorder(m)
        trace = rec.finish(key="empty")
        assert_prices_like_replay(trace, m, True)
