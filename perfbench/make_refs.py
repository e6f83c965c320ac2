"""Regenerate ``references.json`` by direct simulation only.

Usage: ``python3 perfbench/run.py --regen-refs`` (runs this script in a
fresh interpreter with the benchmark's pinned environment).

Every design point of every grid, of both sizes, is simulated with
``Network.simulate(use_cache=False, use_trace=False)``: no trace
capture, replay, cache, journal or job store takes part, so the digests
are the oracle every benchmark route is checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import grids
from child import stats_digest


def main(out_path: str) -> int:
    nets = {}
    refs = {}
    for key, (grid, value) in sorted(grids.all_points().items()):
        if grid["net"] not in nets:
            nets[grid["net"]] = grids.build_net(grid["net"])
        stats = nets[grid["net"]].simulate(
            grids.machine_for(grid)(value), grids.policy(grid),
            n_layers=grid["layers"], use_cache=False, use_trace=False,
        )
        refs[key] = stats_digest(stats)
        print(key, refs[key][:16], flush=True)
    Path(out_path).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
