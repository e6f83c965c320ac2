"""Span recording around the public entry points of each repro layer.

The wrappers live here, in the benchmark, not in the program: a span is
recorded at the call boundary of a module function or method by
replacing the attribute (and every copy a ``from ... import`` bound in
another ``repro`` module) with a timing wrapper.  Spans are kept in
memory and returned with the step's result.

Each span is ``[layer, start, end, parent, outcome, phase]``: the layer
name from :data:`LAYERS`, ``time.perf_counter`` bounds, the index of
the enclosing span (-1 at top level), the layer's useful-outcome flag
(``None`` where the call has no hit/miss notion or raised) and whether
the call ran during set-up or the timed region.

Spans are recorded in the sweep process only.  Pool workers forked by
``core.parallel`` inherit the wrappers but their spans stay in the
worker and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, List, Optional, Tuple


def _not_none(out) -> bool:
    return out is not None


def _is_none(out) -> bool:
    return out is None


def _second(out) -> bool:
    return bool(out[1])


def _sealed(out) -> bool:
    # JobOutcome.sealed is also set when a run compacts its journal, so
    # look at the routes: a sealed answer prices every point "sealed".
    return out.result is not None and set(out.result.sources) == {"sealed"}


#: ``(layer, module, attribute, ratio name, outcome predicate)``.  The
#: ratio is the share of calls whose return value satisfies the
#: predicate: a cache hit, a parallel fallback, an answer from a sealed
#: record.
LAYERS: List[Tuple[str, str, str, Optional[str], Optional[Callable]]] = [
    ("nets.record_trace", "repro.nets.network", "Network.record_trace",
     None, None),
    ("nets.emit", "repro.nets.network", "Network._emit_trace", None, None),
    ("nets.simulate", "repro.nets.network", "Network.simulate", None, None),
    ("machine.replay.capture_sweep", "repro.machine.replay", "capture_sweep",
     None, None),
    ("machine.replay.replay_sweep", "repro.machine.replay", "replay_sweep",
     None, None),
    ("machine.replay.replay_sweep_cached", "repro.machine.replay",
     "replay_sweep_cached", "hit_ratio", _not_none),
    ("machine.replay_vec.shared_pass", "repro.machine.replay_vec",
     "_shared_pass_vec", None, None),
    ("core.tracecache.get_or_capture", "repro.core.tracecache",
     "get_or_capture", "hit_ratio", _second),
    ("core.tracecache.get", "repro.core.tracecache", "get", "hit_ratio",
     _not_none),
    ("core.tracecache.put", "repro.core.tracecache", "put", None, None),
    ("core.tracecache.read_header", "repro.core.tracecache", "read_header",
     None, None),
    ("core.tracecache.load_pass", "repro.core.tracecache", "load_pass",
     "hit_ratio", _not_none),
    ("core.tracecache.store_pass", "repro.core.tracecache", "store_pass",
     None, None),
    ("core.tracecache.load_vecprog", "repro.core.tracecache", "load_vecprog",
     "hit_ratio", _not_none),
    ("core.tracecache.store_vecprog", "repro.core.tracecache",
     "store_vecprog", None, None),
    ("core.tracecache.publish_shm", "repro.core.tracecache", "publish_shm",
     None, None),
    ("core.parallel.simulate_points", "repro.core.parallel",
     "simulate_points", "fallback_ratio", _is_none),
    ("core.resilience.load_sealed", "repro.core.resilience", "load_sealed",
     "hit_ratio", _not_none),
    ("core.resilience.seal_journal", "repro.core.resilience", "seal_journal",
     None, None),
    ("core.resilience.journal.record_point", "repro.core.resilience",
     "Journal.record_point", None, None),
    ("service.submit_and_run", "repro.service.scheduler", "submit_and_run",
     "sealed_ratio", _sealed),
]


class Tracer:
    """In-memory span recorder (one per process)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Callable,
             outcome: Optional[Callable]) -> Callable:
        """*fn* with a span recorded around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [layer, time.perf_counter(), 0.0, parent, None, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if outcome is not None:
                span[4] = outcome(out)
            return out

        return traced


def install(tracer: Tracer) -> List[str]:
    """Wrap every entry point in :data:`LAYERS`; return the layers whose
    attribute no longer exists (they report zero calls)."""
    missing = []
    for layer, modname, attr, _ratio, outcome in LAYERS:
        module = importlib.import_module(modname)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            missing.append(layer)
            continue
        wrapped = tracer.wrap(layer, original, outcome)
        setattr(owner, leaf, wrapped)
        if owner_name:
            continue
        # Rebind copies made by ``from module import name`` elsewhere.
        for other in list(sys.modules.values()):
            space = getattr(other, "__dict__", {})
            if (getattr(other, "__name__", "").startswith("repro")
                    and space.get(leaf) is original):
                setattr(other, leaf, wrapped)
    return missing


def summarize(spans: List[list]) -> dict:
    """Per-layer totals of one process's spans: seconds, self seconds,
    calls, and calls whose outcome predicate held (``useful``)."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_s[span[3]] += span[2] - span[1]
    out: dict = {}
    for i, (layer, start, end, _parent, outcome, _phase) in enumerate(spans):
        row = out.setdefault(
            layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "useful": 0}
        )
        row["s"] += end - start
        row["self_s"] += end - start - child_s[i]
        row["calls"] += 1
        row["useful"] += bool(outcome)
    return out
