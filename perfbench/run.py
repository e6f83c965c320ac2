"""Benchmark of the repro co-design sweeps: cold, warm and parallel.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # all workloads, reduced size
    python3 perfbench/run.py --regen-refs   # rewrite references.json

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``serial_cold``: serial sweeps from an empty store.  A VL sweep of
  yolov3-tiny (6-loop GEMM, RVV 8 lanes, 1 MB L2), whose points are
  singleton trace groups, then L2 sweeps of yolov3 (6-loop GEMM +
  stride-1 Winograd, VL 2048) on RVV and on SVE, where one capture
  prices each sweep.  The three sweeps share no trace, so each is cold.
* ``warm_reuse``: ``REPRO_TRACE_SPILL=1``.  Priming (set-up) runs the
  VL grid, a lanes sweep at VL 2048 and one ``submit_and_run`` of the
  RVV L2 grid.  Each timed cycle then re-runs the VL sweep and the
  lanes sweep, each in a fresh interpreter, and a batch of duplicate
  submits of the sealed grid.
* ``jobs2_cold``: the VL grid and the RVV L2 grid with ``jobs=2``.

One repetition is a fresh interpreter per step with a fresh, empty,
private ``REPRO_SIMCACHE_DIR``; in-process repeats would not be cold.
Repetitions run until ``--seconds`` have passed (at least
:data:`MIN_REPS`, default 3), and each metric is the median over them.
The seed only permutes the order of each grid's axis values; each
repetition rotates that order by one more place.

Every returned design point is checked against ``references.json``
(SimStats digests from direct simulation), and every sweep's route mix
(``SweepResult.sources``) against the workload's cold or warm rule; a
run with an unexpected route mix is rejected (exit 1, no result).
``failed`` / ``attempted`` in the result line count the points whose
digest differs or that failed.

``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``store_mb`` and ``failed_frac`` are printed
beside them but are not gated, because they are 0 on some workloads.
``--trace 1`` runs untraced repetitions for half the time and traced
ones for the rest, wrapping each layer's entry points (``tracer.py``),
and reports per-layer metrics plus the tracing overhead.  Traced and
untraced repetitions must return the same digests and route mix.
Spans go to ``.perfbench_out/``.  All times are host time; simulated
statistics are a correctness check, not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import grids
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFS = BENCH / "references.json"

WORKLOADS = ("serial_cold", "warm_reuse", "jobs2_cold")
#: Knobs a workload sets; every other ``REPRO_*`` variable is cleared.
WORKLOAD_ENV = {"warm_reuse": {"REPRO_TRACE_SPILL": "1"}}
#: Fewest repetitions of an untraced run (a ``warm_reuse`` repetition
#: holds several timed cycles).
MIN_REPS = {"warm_reuse": 2}
#: Timed cycles per priming of ``warm_reuse`` and duplicate submits
#: per cycle.
WARM_CYCLES = 3
SUBMITS = 10
#: Wall-clock limit of one benchmark invocation.
DEADLINE_S = 170.0
MB = float(1 << 20)
ROUTES = ("captured", "replayed", "direct", "sealed", "failed")


class BenchError(Exception):
    """The run is rejected: no result is printed."""


# ----------------------------------------------------------------------
# Steps and repetitions
# ----------------------------------------------------------------------

def plan(workload: str, g: dict, cycles: int, submits: int) -> list:
    """Children of one repetition: ``(role, cycle, calls)`` where role
    is ``cold``, ``prime`` or ``warm``."""

    def sweep(name, timed, jobs=1):
        return {"kind": "sweep", "grid": g[name], "timed": timed, "jobs": jobs}

    def submit(timed, repeat=1):
        return {"kind": "submit", "grid": g["l2_rvv"], "timed": timed,
                "jobs": 1, "repeat": repeat}

    if workload == "serial_cold":
        # Two interpreters: one process running every sweep would make
        # its peak memory depend on the order of the grids.
        return [("cold", 0, [sweep("vl", True)]),
                ("cold", 0, [sweep("l2_rvv", True), sweep("l2_sve", True)])]
    if workload == "jobs2_cold":
        return [("cold", 0, [sweep("vl", True, 2), sweep("l2_rvv", True, 2)])]
    steps = [("prime", 0, [sweep("vl", False), sweep("lanes", False),
                           submit(False)])]
    for c in range(cycles):
        steps += [("warm", c, [sweep("vl", True)]),
                  ("warm", c, [sweep("lanes", True)]),
                  ("warm", c, [submit(True, submits)])]
    return steps


def child_env(cache_dir: Path, workload: str) -> dict:
    """The parent environment minus every ``REPRO_*`` knob, plus the
    run's private cache dir, the workload's own knobs and pinned
    interpreter/BLAS settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_SIMCACHE_DIR=str(cache_dir),
    )
    env.update(WORKLOAD_ENV.get(workload, {}))
    return env


def run_script(script: str, args: list, env: dict, deadline: float) -> None:
    """Run a benchmark script in a fresh interpreter and its own session;
    kill the whole session if it outlives *deadline*."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / script), *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{script} exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        tail = err.decode(errors="replace")[-3000:]
        raise BenchError(f"{script} exited {proc.returncode}:\n{tail}")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_rep(workload: str, g: dict, trace: bool, deadline: float,
            cycles: int = WARM_CYCLES, submits: int = SUBMITS) -> dict:
    """One repetition in a fresh cache dir; returns its raw figures.

    Each cold step gets a store of its own; priming and the warm steps
    share one."""
    WORK.mkdir(exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        rep = {"setup_s": 0.0, "samples": {}, "rss_mb": 0.0, "calls": [],
               "spans": [], "untraced_layers": set()}
        for n, (role, cycle, calls) in enumerate(plan(workload, g, cycles, submits)):
            store = cache / (f"store{n}" if role == "cold" else "store")
            step = {"root": str(ROOT), "cache_dir": str(store),
                    "trace": trace, "fresh_store": role != "warm",
                    "calls": calls}
            step_path, out_path = cache / f"step{n}.json", cache / f"out{n}.json"
            step_path.write_text(json.dumps(step))
            spawn = time.time()
            run_script("child.py", [step_path, out_path],
                       child_env(store, workload), deadline)
            doc = json.loads(out_path.read_text())
            if role != "warm":
                rep["setup_s"] += doc["ready"] - spawn + sum(
                    c["seconds"] for c in doc["calls"] if not c["timed"])
            for call in doc["calls"]:
                rep["calls"].append((role, call))
                if call["timed"]:
                    s = rep["samples"].setdefault(cycle, [0.0, 0.0])
                    s[0] += call["seconds"]
                    s[1] += sum(p["instrs"] for r in call["results"] for p in r)
            rep["rss_mb"] = max(rep["rss_mb"], doc["peak_rss_mb"])
            rep["spans"].append(doc["spans"])
            rep["untraced_layers"].update(doc["untraced_layers"])
        rep["store_mb"] = sum(dir_bytes(d) for d in cache.glob("store*")) / MB
        return rep
    finally:
        shutil.rmtree(cache, ignore_errors=True)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def route_problem(role: str, axis: str, sources: list):
    """Why *sources* break the cold/warm rule of *role*, or ``None``.

    Cold steps start from an empty store, so nothing may come from a
    cache, journal or sealed record: VL points (singleton trace groups)
    are captured or direct, and a grid sharing one trace has at most
    one capture and replays only from it.  Warm steps must not
    simulate: every point is replayed or sealed.  Failed points are
    counted by the digest check instead.
    """
    n = Counter(s for s in sources if s != "failed")
    allowed = {"replayed", "sealed"} if role == "warm" else {
        "captured", "replayed", "direct"}
    if set(n) - allowed:
        return f"routes {sorted(set(n) - allowed)} in a {role} step"
    if role == "cold" and axis == "vlen_bits" and n["replayed"]:
        return "a cold VL point was replayed"
    if role == "cold" and axis != "vlen_bits" and (
            n["captured"] > 1 or (n["replayed"] and not n["captured"])):
        return f"cold shared-trace grid priced as {dict(n)}"
    return None


def check_rep(rep: dict, refs: dict) -> dict:
    """Digest and route checks of one repetition; the route counts
    cover its timed calls only."""
    attempted = failed = 0
    routes = Counter()
    for role, call in rep["calls"]:
        for points in call["results"]:
            sources = [p["source"] for p in points]
            problem = route_problem(role, call["axis"], sources)
            if problem:
                raise BenchError(f"route mix rejected: {problem}: {sources}")
            if call["timed"]:
                routes.update(sources)
            for p in points:
                attempted += 1
                failed += p["digest"] is None or refs.get(p["key"]) != p["digest"]
    return {"attempted": attempted, "failed": failed, "routes": routes}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for layer, _mod, _attr, ratio, _pred in tracer.LAYERS:
        out[f"{layer}.s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls"] = ("count", "lower")
        if ratio:
            out[f"{layer}.{ratio}"] = (
                "ratio", "lower" if ratio == "fallback_ratio" else "higher")
    for route in ROUTES:
        out[f"route.{route}"] = (
            "count", "higher" if route in ("replayed", "sealed") else "lower")
    out["store_mb"] = ("MB", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


def layer_metrics(rep: dict) -> dict:
    """Per-layer figures of one traced repetition (all its processes)."""
    rows: dict = {}
    for spans in rep["spans"]:
        for layer, row in tracer.summarize(spans).items():
            acc = rows.setdefault(layer, Counter())
            acc.update(row)
    out = {}
    for layer, _mod, _attr, ratio, _pred in tracer.LAYERS:
        row = rows.get(layer, Counter())
        out[f"{layer}.s"] = float(row["s"])
        out[f"{layer}.self_s"] = float(row["self_s"])
        out[f"{layer}.calls"] = row["calls"]
        if ratio:
            out[f"{layer}.{ratio}"] = (
                row["useful"] / row["calls"] if row["calls"] else 0.0)
    for route in ROUTES:
        out[f"route.{route}"] = rep["check"]["routes"][route]
    out["store_mb"] = rep["store_mb"]
    return out


def end_to_end(reps: list) -> dict:
    """The six end-to-end figures, medians over repetitions (over timed
    cycles for ``sweep_s`` and ``minstr_per_s``).  A repetition's
    ``peak_rss_mb`` is its largest process."""
    samples = [s for rep in reps for s in rep["samples"].values()]
    attempted = sum(r["check"]["attempted"] for r in reps)
    return {
        "sweep_s": statistics.median(s for s, _ in samples),
        "minstr_per_s": statistics.median(i / s / 1e6 for s, i in samples),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "store_mb": statistics.median(r["store_mb"] for r in reps),
        "failed_frac": sum(r["check"]["failed"] for r in reps) / attempted,
    }


E2E_UNITS = {"sweep_s": "s", "minstr_per_s": "Minstr/s", "setup_s": "s",
             "peak_rss_mb": "MB", "store_mb": "MB", "failed_frac": "ratio"}


def fingerprint() -> dict:
    """Host identity recorded with each result."""
    import numpy

    calib = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        calib.append(time.perf_counter() - t0)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "calibration_s": min(calib)}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def measure(workload: str, size: str, seed: int, seconds: float, trace: bool,
            deadline: float, min_reps: int, **plan_kw) -> dict:
    """Repetitions of *workload* until *seconds* pass, then the checks."""
    refs = json.loads(REFS.read_text())
    reps = []
    t_end = time.monotonic() + seconds
    while len(reps) < min_reps or time.monotonic() < t_end:
        g = {name: grids.permuted(grid, name, seed, len(reps))
             for name, grid in grids.grids(size).items()}
        rep = run_rep(workload, g, trace, deadline, **plan_kw)
        rep["check"] = check_rep(rep, refs)
        reps.append(rep)
    return {"reps": reps, "e2e": end_to_end(reps)}


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f"  q1={q[0]:.4g} q3={q[2]:.4g}"


def report(workload: str, label: str, run: dict) -> None:
    reps = run["reps"]
    print(f"{workload} ({label}): {len(reps)} repetitions, "
          f"{sum(len(r['samples']) for r in reps)} timed samples")
    for name, value in run["e2e"].items():
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}")
    samples = [s for r in reps for s, _ in r["samples"].values()]
    print(f"  sweep_s samples:{_quartiles(samples)}")


def run_benchmark(args) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    host = fingerprint()
    print("fingerprint: " + json.dumps(host), flush=True)
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_reps = 2 if args.trace else MIN_REPS.get(args.workload, 3)
    plain = measure(args.workload, "full", args.seed, seconds, False, deadline,
                    min_reps)
    report(args.workload, "untraced", plain)
    reps = plain["reps"]
    if args.trace:
        traced = measure(args.workload, "full", args.seed, seconds, True,
                         deadline, min_reps)
        report(args.workload, "traced", traced)
        reps = reps + traced["reps"]
        layers = [layer_metrics(r) for r in traced["reps"]]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (
            traced["e2e"]["sweep_s"] - plain["e2e"]["sweep_s"])
        units = per_layer_units()
        missing = set().union(*(r["untraced_layers"] for r in traced["reps"]))
        if missing:
            print("layers without an entry point: " + ", ".join(sorted(missing)))
        spans = [r["spans"] for r in traced["reps"]]
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["layer", "start", "end", "parent", "outcome",
                                   "phase"], "reps": spans}))
        out = {name: {"value": metrics[name], "unit": units[name][0]}
               for name in units}
    else:
        wanted = [m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
        out = {name: {"value": plain["e2e"][name], "unit": E2E_UNITS[name]}
               for name in wanted}
    mixes = {tuple(sorted(r["check"]["routes"].items())) for r in reps}
    if len(mixes) > 1:
        raise BenchError(f"route mix differs between repetitions: {mixes}")
    attempted = sum(r["check"]["attempted"] for r in reps)
    failed = sum(r["check"]["failed"] for r in reps)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
     ).write_text(json.dumps({
        "fingerprint": host, "metrics": out,
        "per_rep": [{"setup_s": r["setup_s"], "rss_mb": r["rss_mb"],
                     "samples": list(r["samples"].values())} for r in reps],
        "wall_s": time.monotonic() - start}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def selftest() -> int:
    """Every workload once at the reduced size, untraced and traced:
    digests match, routes pass their rules and agree between the two."""
    deadline = time.monotonic() + DEADLINE_S
    ok = True
    for workload in WORKLOADS:
        runs = [measure(workload, "smoke", 0, 0, trace, deadline, 1,
                        cycles=1, submits=2) for trace in (False, True)]
        plain, traced = (r["reps"][0] for r in runs)
        same = plain["check"]["routes"] == traced["check"]["routes"]
        failed = plain["check"]["failed"] + traced["check"]["failed"]
        ok &= same and failed == 0
        print(f"{workload}: {plain['check']['attempted']} points, "
              f"{failed} failed, routes {dict(traced['check']['routes'])}"
              f"{'' if same else ' (differ when traced)'}")
    listed = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    if listed != set(per_layer_units()):
        ok = False
        print("BENCHMARK.json per_layer differs from the emitted metrics")
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def regen_refs() -> int:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        env = child_env(Path(tmp), "")
        run_script("make_refs.py", [REFS], env, time.monotonic() + 3600)
    print(f"wrote {REFS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--regen-refs", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.regen_refs:
            return regen_refs()
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return run_benchmark(args)
    except BenchError as exc:
        print(f"benchmark run rejected: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
