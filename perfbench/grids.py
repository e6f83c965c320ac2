"""Design-point grids of the benchmark workloads and their reference keys.

A grid is one call of a public sweep API: a network prefix, a kernel
policy, a machine family with its fixed parameters, and the swept axis
with its values.  Grids are plain JSON-ready dicts so the orchestrator
(``run.py``) can hand them to fresh interpreters (``child.py``).

Two sizes exist.  ``full`` is what the timed runs measure; the layer
counts are scaled down from the paper's 10/8-layer grids so that one
cold repetition takes a few seconds on a 2-core host, and a run
holds enough repetitions for a steady median.
``smoke`` (2 layers, 2 axis values) is the self-test size.  Both keep
each workload's route mix: VL points are singleton trace groups, an L2
grid is one capture plus replays, a lanes grid is one VPU replay group.
"""

from __future__ import annotations

import random
from typing import Dict

#: Per-size grid parameters: network layer prefix per grid, and the
#: axis values (in canonical order, before the seed permutes them).
_SIZES = {
    "full": {
        "vl_layers": 4,
        "l2_layers": 4,
        "vl": [512, 1024, 2048, 4096],
        "l2": [1, 2, 4, 8, 16, 32, 64, 256],
        "lanes": [2, 4, 8],
    },
    "smoke": {
        "vl_layers": 2,
        "l2_layers": 2,
        "vl": [512, 2048],
        "l2": [1, 64],
        "lanes": [2, 8],
    },
}

SIZES = tuple(_SIZES)


def grids(size: str) -> Dict[str, Dict]:
    """Every grid the workloads use, by name, in canonical axis order."""
    p = _SIZES[size]
    vl_net = {"net": "yolov3-tiny", "layers": p["vl_layers"],
              "gemm": "6loop", "winograd": "off"}
    l2_net = {"net": "yolov3", "layers": p["l2_layers"],
              "gemm": "6loop", "winograd": "stride1"}
    return {
        "vl": {**vl_net, "family": "rvv", "fixed": {"lanes": 8, "l2_mb": 1},
               "axis": "vlen_bits", "values": list(p["vl"])},
        "lanes": {**vl_net, "family": "rvv",
                  "fixed": {"vlen_bits": 2048, "l2_mb": 1},
                  "axis": "lanes", "values": list(p["lanes"])},
        "l2_rvv": {**l2_net, "family": "rvv",
                   "fixed": {"vlen_bits": 2048, "lanes": 8},
                   "axis": "l2_mb", "values": list(p["l2"])},
        "l2_sve": {**l2_net, "family": "sve", "fixed": {"vlen_bits": 2048},
                   "axis": "l2_mb", "values": list(p["l2"])},
    }


def permuted(grid: Dict, name: str, seed: int, rep: int) -> Dict:
    """*grid* with its axis values in an order drawn from *seed*.

    The seed shuffles each grid (keyed on its name); repetition *rep*
    of a run rotates that order left by *rep* places.  Every call of
    one grid within a repetition sees the same order, and over any
    ``len(values)`` consecutive repetitions each value leads every
    contiguous chunk a pool cuts from the grid equally often, so a
    run's figures do not hinge on one order (a pool worker's peak
    memory depends on the first point it prices).
    """
    values = list(grid["values"])
    random.Random(f"{seed}:{name}").shuffle(values)
    k = rep % len(values)
    return {**grid, "values": values[k:] + values[:k]}


def ref_key(grid: Dict, value) -> str:
    """Reference-table key of one design point: (net, policy, machine,
    axis value)."""
    fixed = ",".join(f"{k}={v}" for k, v in sorted(grid["fixed"].items()))
    return (
        f"{grid['net']}/L{grid['layers']}|gemm={grid['gemm']},"
        f"winograd={grid['winograd']}|{grid['family']}:{fixed}|"
        f"{grid['axis']}={value}"
    )


def job_spec(grid: Dict) -> Dict:
    """The ``repro submit`` job spec that sweeps *grid* (L2 axis only)."""
    if grid["axis"] != "l2_mb" or grid["family"] != "rvv":
        raise ValueError("job specs are built for RVV L2 grids only")
    return {
        "net": grid["net"],
        "machine": "rvv",
        "vlen": grid["fixed"]["vlen_bits"],
        "lanes": grid["fixed"]["lanes"],
        "l2_mb": 1,
        "gemm": grid["gemm"],
        "winograd": grid["winograd"],
        "layers": grid["layers"],
        "axis": "cache",
        "values": list(grid["values"]),
    }


def all_points() -> Dict[str, tuple]:
    """Every design point the workloads of either size can price, as
    ``{ref_key: (grid, axis value)}``."""
    return {
        ref_key(g, v): (g, v) for size in SIZES for g in grids(size).values()
        for v in g["values"]
    }


# ----------------------------------------------------------------------
# repro objects of a grid (imported lazily: run.py never imports repro)
# ----------------------------------------------------------------------

def build_net(name: str):
    """The named network from the repro zoo."""
    from repro.nets import yolov3, yolov3_tiny

    return {"yolov3": yolov3, "yolov3-tiny": yolov3_tiny}[name]()


def policy(grid: Dict):
    """The grid's kernel policy."""
    from repro.nets.layers import KernelPolicy

    return KernelPolicy(gemm=grid["gemm"], winograd=grid["winograd"])


def machine_for(grid: Dict):
    """Axis value -> MachineConfig for the grid's machine family."""
    from repro.machine import rvv_gem5, sve_gem5

    family = {"rvv": rvv_gem5, "sve": sve_gem5}[grid["family"]]
    fixed, axis = grid["fixed"], grid["axis"]
    return lambda value: family(**fixed, **{axis: value})
