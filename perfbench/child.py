"""One benchmark step, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py STEP.json RESULT.json``

The step lists calls of the public sweep and job APIs.  The child
imports ``repro``, builds the networks, checks that a cold step's
store is still empty, notes the wall-clock time at which set-up ended,
then makes the calls in order, timing each one.
For every design point it returns the SimStats digest, the route that
priced it (``SweepResult.sources``) and its simulated instruction
count, so the orchestrator checks correctness outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import grids


def stats_digest(stats) -> str:
    """sha256 over the exact (``float.hex``) value of every SimStats
    field and per-kernel cycle count."""
    fields = {name: float(getattr(stats, name)).hex() for name in stats.FIELDS}
    kernels = {str(k): float(v).hex() for k, v in stats.kernel_cycles.items()}
    blob = json.dumps([fields, kernels], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest reaped child, in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _points(grid, result) -> list:
    """Per-point records of one SweepResult."""
    from repro.machine.simulator import SimStats

    out = []
    for i, (value, stats) in enumerate(zip(result.axis, result.stats)):
        ok = isinstance(stats, SimStats)  # else a PointFailure
        out.append({
            "key": grids.ref_key(grid, value),
            "digest": stats_digest(stats) if ok else None,
            "source": result.source_of(i),
            "instrs": stats.scalar_instrs + stats.vec_instrs if ok else 0.0,
        })
    return out


def main(step_path: str, out_path: str) -> int:
    step = json.loads(Path(step_path).read_text())
    src = Path(step["root"], "src").resolve()

    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    from repro.core import (
        simcache,
        sweep_cache_sizes,
        sweep_lanes,
        sweep_vector_lengths,
    )
    from repro.service import scheduler

    if Path(simcache.cache_dir()).resolve() != Path(step["cache_dir"]).resolve():
        raise SystemExit("REPRO_SIMCACHE_DIR does not name the run's cache dir")

    tracer, missing = None, []
    if step["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)

    sweep_of = {"vlen_bits": sweep_vector_lengths, "l2_mb": sweep_cache_sizes,
                "lanes": sweep_lanes}
    nets = {c["grid"]["net"] for c in step["calls"]}
    nets = {name: grids.build_net(name) for name in sorted(nets)}
    store = Path(step["cache_dir"])
    if step["fresh_store"] and store.exists() and any(store.iterdir()):
        raise SystemExit(f"cold step found a non-empty store at {store}")
    ready = time.time()

    calls = []
    for call in step["calls"]:
        grid = call["grid"]
        if tracer is not None:
            tracer.phase = "timed" if call["timed"] else "setup"
        results, seconds = [], 0.0
        for _ in range(call.get("repeat", 1)):
            if call["kind"] == "sweep":
                t0 = time.perf_counter()
                result = sweep_of[grid["axis"]](
                    nets[grid["net"]], grid["values"], grids.machine_for(grid),
                    grids.policy(grid), n_layers=grid["layers"],
                    jobs=call["jobs"],
                )
                seconds += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                outcome = scheduler.submit_and_run(
                    grids.job_spec(grid), jobs=call["jobs"]
                )
                seconds += time.perf_counter() - t0
                if outcome.state != "done" or outcome.result is None:
                    raise SystemExit(f"job {outcome.job_id} ended "
                                     f"{outcome.state}: {outcome.error}")
                result = outcome.result
            results.append(_points(grid, result))
        calls.append({"timed": call["timed"], "axis": grid["axis"],
                      "seconds": seconds, "results": results})

    doc = {
        "ready": ready,
        "calls": calls,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.spans if tracer is not None else [],
        "untraced_layers": missing,
    }
    Path(out_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
