#!/usr/bin/env python
"""Paper-figures smoke: replay every pricing axis from the committed trace.

The repo commits one compressed yolov3-tiny capture
(``tests/data/traces/yolov3_tiny_rvv_v512.rtz``, rvv vlen=512, first
12 layers — enough to exercise every event class while keeping the
smoke well under its 60 s budget) whose key deliberately excludes
every pricing-only machine field.  This script proves the committed artifact is sufficient to
drive the paper's figure axes without running a single kernel:

1. decode the container (sha256 content digest verified on load) and
   assert its header key still matches the runtime ``trace_key`` — a
   mismatch means the trace format or keying changed and the artifact
   must be regenerated (instructions printed);
2. seed the in-process registry and sweep four figure axes — L2 size
   (Fig. 7), DRAM latency, DRAM bandwidth, lane count (Sec. VI-B) —
   asserting every point replays (``sources == ["replayed"] * n``);
3. bitwise-compare one point per axis against a direct, trace-off
   simulation (``float.hex`` equality on every ``SimStats`` field).

Vector-length axes (Figs. 6/8) change the event stream itself, so each
VL point replays from its own capture rather than from the committed
one (see docs/TRACE_REPLAY.md).  Step 4 drives them anyway: a cold VL
sweep (one capture per VL, the 512-bit point replaying from the
committed trace) followed by a warm re-run with the process-local
registry and pass memo cleared, asserting every warm point is served
from the persistent compiled-pass cache (``.rpp``/``.rvp``) with zero
trace-column decodes — bitwise identical to the cold run.

Deliberately not named ``test_*.py``: pytest must not collect it.  CI
runs it directly (``python tests/smoke_paper_figures.py``); it prints
one machine-parseable ``BENCH`` line and exits 0 on success.
"""

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (  # noqa: E402
    sweep, sweep_cache_sizes, sweep_lanes, sweep_vector_lengths,
    tracecache as tc,
)
from repro.machine import rvv_gem5  # noqa: E402
from repro.machine.simulator import SimStats  # noqa: E402
from repro.nets import KernelPolicy  # noqa: E402
from repro.nets.zoo import yolov3_tiny  # noqa: E402

TRACE_PATH = os.path.join(
    os.path.dirname(__file__), "data", "traces", "yolov3_tiny_rvv_v512.rtz"
)
N_LAYERS = 12

REGEN_HINT = """\
The committed reference trace is stale (trace format or keying changed).
Regenerate it:

    PYTHONPATH=src python - <<'PY'
    from repro.core import tracecache as tc
    from repro.machine import rvv_gem5
    from repro.nets import KernelPolicy
    from repro.nets.zoo import yolov3_tiny
    net = yolov3_tiny()
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    key = tc.trace_key(net, m, KernelPolicy(), 12)
    tc.save_compressed(
        net.record_trace(m, KernelPolicy(), n_layers=12, key=key),
        "tests/data/traces/yolov3_tiny_rvv_v512.rtz",
    )
    PY

and commit the new file.
"""


def base_machine(**overrides):
    cfg = {"vlen_bits": 512, "lanes": 4, "l2_mb": 1}
    cfg.update(overrides)
    return rvv_gem5(**cfg)


def assert_bitwise(a: SimStats, b: SimStats, what: str):
    for name in SimStats.FIELDS:
        ah, bh = getattr(a, name).hex(), getattr(b, name).hex()
        if ah != bh:
            raise SystemExit(f"{what}: field {name} drifted: {ah} != {bh}")
    if a.kernel_cycles != b.kernel_cycles:
        raise SystemExit(f"{what}: kernel_cycles drifted")


VL_AXIS = [256, 512, 1024]


def vl_axis_phase(net, policy, runtime_key, trace):
    """Figs. 6/8: drive the vector-length axis through the VL path.

    Cold sweep captures one trace per VL (the 512-bit point replays
    from the committed capture seeded into the registry), with the
    compiled-pass cache persisting ``.rpp``/``.rvp`` artifacts to a
    scratch trace dir.  The warm re-run starts from a cleared registry
    and pass memo, so every point must come back off those artifacts:
    all sources ``replayed``, at least one compiled-pass hit per VL,
    zero trace-column decodes, and bitwise-identical stats.
    """
    from repro.machine import replay

    env_keys = ("REPRO_TRACE_DIR", "REPRO_TRACE_SPILL")
    saved = {k: os.environ.get(k) for k in env_keys}
    timings = {}
    with tempfile.TemporaryDirectory(prefix="figures-vl-") as tmp:
        os.environ["REPRO_TRACE_DIR"] = tmp
        os.environ["REPRO_TRACE_SPILL"] = "1"
        try:
            tc.clear_registry()
            replay._SHARED_PASS_MEMO.clear()
            tc.put(runtime_key, trace, spill=True)

            def run():
                return sweep_vector_lengths(
                    net, VL_AXIS, lambda v: base_machine(vlen_bits=v),
                    policy, n_layers=N_LAYERS, use_cache=False,
                )

            t0 = time.perf_counter()
            cold = run()
            timings["cold_s"] = round(time.perf_counter() - t0, 3)
            if cold.sources[VL_AXIS.index(512)] != "replayed":
                raise SystemExit(
                    "VL axis: the 512-bit point should have replayed from "
                    f"the committed capture, got sources={cold.sources}"
                )

            # Forget everything this process learned; the warm sweep may
            # only use what the cold one persisted to disk.
            tc.clear_registry()
            replay._SHARED_PASS_MEMO.clear()
            tc.reset_load_counts()
            t0 = time.perf_counter()
            warm = run()
            timings["warm_s"] = round(time.perf_counter() - t0, 3)
            if warm.sources != ["replayed"] * len(VL_AXIS):
                raise SystemExit(
                    f"VL axis warm: expected every point replayed, got "
                    f"sources={warm.sources}"
                )
            counts = tc.load_counts()
            hits = (counts["vecprog"] + counts["pass_spill"]
                    + counts["pass_shm"])
            if hits < len(VL_AXIS):
                raise SystemExit(
                    f"VL axis warm: expected >= {len(VL_AXIS)} compiled-"
                    f"pass cache hits, load counts were {counts}"
                )
            if counts["shm"] or counts["spill"]:
                raise SystemExit(
                    f"VL axis warm: replays should skip the event walk "
                    f"entirely, but {counts['shm'] + counts['spill']} "
                    f"trace streams were decoded"
                )
            for v, a, b in zip(VL_AXIS, cold.stats, warm.stats):
                assert_bitwise(a, b, f"VL axis vlen={v} warm-vs-cold")
            timings["compiled_pass_hits"] = hits
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
            tc.clear_registry()
            replay._SHARED_PASS_MEMO.clear()
    return timings


def main() -> int:
    t_start = time.perf_counter()
    net = yolov3_tiny()
    policy = KernelPolicy()
    runtime_key = tc.trace_key(net, base_machine(), policy, N_LAYERS)

    header = tc.read_header(TRACE_PATH)
    if header["key"] != runtime_key:
        sys.stderr.write(REGEN_HINT)
        sys.stderr.write(
            f"\ncommitted key: {header['key']}\nruntime key  : {runtime_key}\n"
        )
        return 2

    t0 = time.perf_counter()
    trace = tc.load_compressed(TRACE_PATH)  # digest-verified
    t_decode = time.perf_counter() - t0
    tc.clear_registry()
    tc.put(runtime_key, trace, spill=False)

    axes = {
        "l2_mb": lambda: sweep_cache_sizes(
            net, [1, 4, 16, 64], lambda mb: base_machine(l2_mb=mb), policy,
            n_layers=N_LAYERS,
        ),
        "dram_latency": lambda: sweep(
            net, "dram_latency", [100, 200, 400],
            lambda v: base_machine().with_(dram_latency=v), policy,
            n_layers=N_LAYERS,
        ),
        "dram_bytes_per_cycle": lambda: sweep(
            net, "dram_bytes_per_cycle", [8, 16, 32],
            lambda v: base_machine().with_(dram_bytes_per_cycle=v), policy,
            n_layers=N_LAYERS,
        ),
        "lanes": lambda: sweep_lanes(
            net, [2, 4, 8], lambda l: base_machine(lanes=l), policy,
            n_layers=N_LAYERS,
        ),
    }

    axis_s = {}
    results = {}
    for name, run in axes.items():
        t0 = time.perf_counter()
        res = run()
        axis_s[name] = round(time.perf_counter() - t0, 3)
        if res.sources != ["replayed"] * len(res.axis):
            raise SystemExit(
                f"axis {name}: expected every point replayed from the "
                f"committed capture, got sources={res.sources}"
            )
        results[name] = res

    # One direct (kernels actually run, trace off) point per axis.
    spot = {
        "l2_mb": (1, base_machine(l2_mb=4)),
        "dram_latency": (1, base_machine().with_(dram_latency=200)),
        "dram_bytes_per_cycle": (2, base_machine().with_(
            dram_bytes_per_cycle=32
        )),
        "lanes": (2, base_machine(lanes=8)),
    }
    for name, (idx, m) in spot.items():
        direct = sweep(
            net, "spot", [0], lambda _: m, policy, n_layers=N_LAYERS,
            use_trace=False,
        )
        assert direct.sources == ["direct"]
        assert_bitwise(
            direct.stats[0], results[name].stats[idx], f"axis {name}"
        )

    vl_axis = vl_axis_phase(net, policy, runtime_key, trace)

    elapsed = round(time.perf_counter() - t_start, 3)
    row = {
        "bench": "paper_figures_smoke",
        "trace_bytes": os.path.getsize(TRACE_PATH),
        "n_events": trace.n_events,
        "decode_s": round(t_decode, 3),
        "axis_s": axis_s,
        "vl_axis": vl_axis,
        "points_replayed": sum(len(r.axis) for r in results.values())
        + len(VL_AXIS),
        "total_s": elapsed,
    }
    print("BENCH " + json.dumps(row, sort_keys=True))
    print(f"paper-figures smoke OK in {elapsed}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
