"""Vectorized shared-pass engine: bitwise identity vs the Python oracle.

``repro.machine.replay_vec._shared_pass_vec`` re-implements the
per-event reference loop (``replay._shared_pass_python``) with columnar
NumPy passes.  The contract is the same strict one the rest of the
replay engine lives under: the program it emits must price every design
point to ``SimStats`` bitwise identical (``float.hex`` equal) to the
oracle's — across presets, kernel policies, deferred-VPU mode, and a
synthetic trace exercising every opcode.  These tests are the tripwire
for any drift between the two engines.
"""

import pytest

from repro.machine import a64fx, rvv_gem5, sve_gem5
from repro.machine.replay import _run_points, _shared_pass_python
from repro.machine.replay_vec import _shared_pass_vec
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
    return rec.finish(key="vecchk")


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


def assert_passes_price_identically(trace, machine, defer):
    """Both engines' outputs must price the point bitwise identically.

    Compared through ``_run_points`` rather than item-by-item: deferred
    class ids may be numbered differently between engines, but the
    resolved prices (and every stat) must match exactly.
    """
    py = _shared_pass_python(trace, machine, defer_vpu=defer)
    vec = _shared_pass_vec(trace, machine, defer_vpu=defer)
    assert len(py[0]) == len(vec[0])
    for f in SimStats.FIELDS:
        assert getattr(py[1], f).hex() == getattr(vec[1], f).hex(), f
    a = _run_points(*py, [machine])[0]
    b = _run_points(*vec, [machine])[0]
    for f in SimStats.FIELDS:
        assert getattr(a, f).hex() == getattr(b, f).hex(), f
    assert {k: v.hex() for k, v in a.kernel_cycles.items()} == {
        k: v.hex() for k, v in b.kernel_cycles.items()
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


class TestEngineIdentity:
    @pytest.mark.parametrize("factory", MACHINES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("defer", [False, True])
    def test_network_trace(self, factory, policy, defer):
        m = factory()
        trace = capture(m, policy)
        assert_passes_price_identically(trace, m, defer)

    @pytest.mark.parametrize("factory", MACHINES)
    @pytest.mark.parametrize("defer", [False, True])
    def test_synthetic_all_opcodes(self, factory, defer):
        m = factory()
        trace = synthetic_trace(m)
        assert_passes_price_identically(trace, m, defer)

    def test_empty_trace(self):
        m = rvv_gem5(vlen_bits=512)
        rec = TraceRecorder(m)
        trace = rec.finish(key="empty")
        assert_passes_price_identically(trace, m, True)
