"""Co-design sweep machinery — the paper's primary contribution.

The paper's method is a joint exploration: fix a kernel configuration
(software axis), sweep a micro-architectural parameter (hardware axis),
and observe cycle counts and cache statistics.  This module packages
that loop: :class:`DesignPoint` couples a machine with a kernel policy,
and the ``sweep_*`` helpers reproduce the paper's parameter axes
(vector length, L2 size, vector lanes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..machine.config import MachineConfig
from ..machine.simulator import SimStats
from ..nets.layers import KernelPolicy
from ..nets.network import Network
from ..testing import faults
from . import simcache
from .parallel import resolve_jobs, simulate_points
from .resilience import (
    FailureBudget,
    Journal,
    PointFailure,
    RetryPolicy,
    call_with_retries,
    load_sealed,
    stats_from_payload,
    sweep_key,
)

__all__ = [
    "DesignPoint",
    "SweepResult",
    "run_design_point",
    "plan_groups",
    "price_group",
    "ReplayFallbackWarning",
    "sweep",
    "sweep_vector_lengths",
    "sweep_cache_sizes",
    "sweep_lanes",
]


class ReplayFallbackWarning(RuntimeWarning):
    """A trace group's replay raised, so its points were simulated
    directly: the numbers stay right, but a replay bug now costs the
    slow path.  Carries the exception's type name (``exc_type``) and
    message (``error``).  The tier-1 suite turns it into an error.

    The message starts with ``replay fallback:``, so a process can make
    it fatal before ``repro`` is importable (the interpreter resolves
    ``-W``/``PYTHONWARNINGS`` categories before ``site-packages`` is on
    the path): ``PYTHONWARNINGS="error:replay fallback:RuntimeWarning"``.
    """

    def __init__(self, key: str, exc: BaseException):
        self.exc_type = type(exc).__name__
        self.error = str(exc)
        super().__init__(
            f"replay fallback: trace group {key[:16]} priced directly "
            f"after {self.exc_type}: {self.error}"
        )


@dataclass(frozen=True)
class DesignPoint:
    """One (hardware, software) point in the co-design space."""

    machine: MachineConfig
    policy: KernelPolicy = field(default_factory=KernelPolicy)
    label: str = ""

    def name(self) -> str:
        """Display label (explicit, or machine/kernel derived)."""
        return self.label or f"{self.machine.name}/{self.policy.gemm}"


@dataclass
class SweepResult:
    """Outcome of a one-axis sweep.

    ``axis`` holds the swept parameter values, ``stats`` the simulation
    statistics per value, in the same order.  ``sources`` records each
    point's provenance: ``"direct"`` (fully simulated), ``"captured"``
    (simulated while recording the shared trace), ``"replayed"`` (priced
    from a recorded trace without re-running kernels), ``"cached"``
    (persistent result cache hit), ``"journal"`` (restored from a
    resumed sweep's checkpoint), ``"sealed"`` (the whole grid answered
    from a compacted, digest-chained results record — see
    :func:`repro.core.resilience.seal_journal`) or ``"failed"`` (the
    entry in ``stats``
    is a :class:`~repro.core.resilience.PointFailure`, not a
    :class:`SimStats` — only possible with ``max_failures > 0``).  It
    is empty for results built by hand; consumers should treat a
    missing entry as ``"direct"``.
    """

    axis_name: str
    axis: List = field(default_factory=list)
    stats: List[SimStats] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point produced real statistics."""
        return not self.failures()

    def failures(self) -> List[PointFailure]:
        """The :class:`PointFailure` records of permanently failed
        points (empty on a fully successful sweep)."""
        return [s for s in self.stats if isinstance(s, PointFailure)]

    def cycles(self) -> List[float]:
        """Execution cycles per swept value."""
        return [s.cycles for s in self.stats]

    def speedups(self, baseline_index: int = 0) -> List[float]:
        """Speedup of each point relative to the point at *baseline_index*
        (the paper normalizes to the shortest vector / smallest cache).

        Degenerate zero-cycle points (e.g. a zero-layer sweep) yield
        1.0 against a zero-cycle baseline and ``inf`` otherwise, rather
        than raising ``ZeroDivisionError``.
        """
        if not self.stats:
            return []
        base = self.stats[baseline_index].cycles
        out = []
        for s in self.stats:
            if s.cycles == 0:
                out.append(1.0 if base == 0 else float("inf"))
            else:
                out.append(base / s.cycles)
        return out

    def miss_rates(self) -> List[float]:
        """L2 demand miss rate per swept value (Table III)."""
        return [s.l2_miss_rate for s in self.stats]

    def source_of(self, index: int) -> str:
        """Provenance of point *index* (``"direct"`` when unrecorded)."""
        return self.sources[index] if index < len(self.sources) else "direct"

    def as_rows(self) -> List[Dict]:
        """Row dicts for reporting: axis value, cycles, speedup, miss,
        and the point's provenance (captured / replayed / cached /
        direct)."""
        speed = self.speedups()
        return [
            {
                self.axis_name: v,
                "cycles": s.cycles,
                "speedup": sp,
                "l2_miss_rate": s.l2_miss_rate,
                "avg_vlen_elems": s.avg_vlen_elems,
                "source": self.source_of(i),
            }
            for i, (v, s, sp) in enumerate(zip(self.axis, self.stats, speed))
        ]


def run_design_point(
    net: Network,
    point: DesignPoint,
    n_layers: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> SimStats:
    """Simulate *net* at one design point.

    ``use_cache`` opts into the persistent result cache (see
    :mod:`repro.core.simcache`); ``None`` defers to ``REPRO_SIMCACHE``.
    """
    return net.simulate(
        point.machine, point.policy, n_layers=n_layers, use_cache=use_cache
    )


def plan_groups(
    net: Network,
    machines: Sequence[MachineConfig],
    policy: KernelPolicy,
    n_layers: Optional[int],
    use_trace: Optional[bool],
) -> Tuple[Dict[str, List[int]], List[int]]:
    """The route plan of a sweep: ``(groups, direct)``.

    *groups* maps each trace key (:func:`repro.core.tracecache.trace_key`)
    to the positions in *machines* sharing that kernel event stream, in
    order of first appearance; :func:`price_group` prices each.
    *direct* lists the positions to simulate point by point: every
    point when tracing is off, and the points of a multi-point group
    that :func:`repro.machine.replay.group_mode` rejects — unless
    ``use_trace=True`` was explicitly requested, in which case such a
    group raises ``ValueError``.  Pure: nothing is captured or read.
    """
    from . import tracecache
    from ..machine.replay import group_mode, nonuniform_fields

    if not tracecache.trace_enabled(use_trace, default=True):
        return {}, list(range(len(machines)))
    groups: Dict[str, List[int]] = {}
    for i, machine in enumerate(machines):
        key = tracecache.trace_key(net, machine, policy, n_layers, True)
        groups.setdefault(key, []).append(i)
    direct: List[int] = []
    for key, idxs in list(groups.items()):
        group = [machines[i] for i in idxs]
        if len(idxs) > 1 and group_mode(group) is None:
            if use_trace is True:
                # The caller explicitly demanded trace replay for an
                # axis the pricing pass cannot express: fail loudly
                # instead of silently simulating per point.
                raise ValueError(
                    "trace replay cannot price this sweep group: "
                    "machines vary in "
                    f"{', '.join(nonuniform_fields(group))} "
                    "(see repro.machine.replay.supports_axis for "
                    "replayable axes); drop use_trace=True to "
                    "simulate per point"
                )
            direct.extend(idxs)
            del groups[key]
    return groups, sorted(direct)


def price_group(
    net: Network,
    key: str,
    machines: Sequence[MachineConfig],
    policy: KernelPolicy,
    n_layers: Optional[int],
) -> Optional[Tuple[List[SimStats], List[str]]]:
    """Price one trace group of :func:`plan_groups`: ``(stats, labels)``.

    Routes, cheapest first: the compiled-pass cache
    (:func:`~repro.machine.replay.replay_sweep_cached`, no trace
    decode), then a held trace (:func:`repro.core.tracecache.get`: the
    registry, shared memory, or a spill file — read whatever
    ``REPRO_TRACE_SPILL`` says, because a pool parent forces its
    captures to disk), then a capture.  A group of two or more points
    captures with the fused :func:`~repro.machine.replay.capture_sweep`.
    A single point (e.g. one VL point) captures only when traces spill,
    because only then does the capture outlive the call; otherwise one
    direct simulation is cheaper than capture + replay, and the result
    is ``None`` — the caller simulates the point directly.
    """
    from . import tracecache
    from ..machine.replay import capture_sweep, replay_sweep, replay_sweep_cached

    priced = replay_sweep_cached(key, machines)
    if priced is None and (trace := tracecache.get(key, spill=True)) is not None:
        priced = replay_sweep(trace, machines)
    if priced is not None:
        return priced, ["replayed"] * len(machines)
    if len(machines) > 1:
        priced = capture_sweep(
            lambda sim: net._emit_trace(sim, policy, n_layers, True), machines
        )
    elif tracecache.spill_enabled():
        trace, _ = tracecache.get_or_capture(net, machines[0], policy, n_layers)
        priced = replay_sweep(trace, machines)
    if priced is None:
        return None
    return priced, ["captured"] + ["replayed"] * (len(machines) - 1)


def _simulate_group(
    net: Network,
    machines: Sequence[MachineConfig],
    policy: KernelPolicy,
    n_layers: Optional[int],
    use_trace: Optional[bool],
    indices: Optional[Sequence[int]] = None,
    retry: Optional[RetryPolicy] = None,
    budget: Optional[FailureBudget] = None,
    on_point=None,
    on_failure=None,
):
    """Serially simulate one machine list along the route plan.

    :func:`plan_groups` splits the points into trace groups and direct
    points; :func:`price_group` prices each group (warm compiled pass,
    held trace, or one capture for the whole group — see there for
    when a singleton captures).  Direct points, and groups
    :func:`price_group` declines, run the ordinary per-point simulation.

    Returns ``(stats, sources)`` in input order; statistics are bitwise
    identical to per-point simulation regardless of the path taken.

    Supervision (see :mod:`repro.core.resilience`): a failing shared
    pricing pass degrades its whole group to the per-point loop, with a
    :class:`ReplayFallbackWarning` naming the exception; a
    failing point retries per *retry* and finally degrades to a
    :class:`PointFailure` charged against *budget*.  *on_point* /
    *on_failure* fire as each point settles — the journaling hook for
    resumable sweeps.
    """
    n = len(machines)
    indices = list(indices) if indices is not None else list(range(n))
    retry = retry if retry is not None else RetryPolicy.from_env()
    budget = budget if budget is not None else FailureBudget(retry.max_failures)
    stats: List[Optional[SimStats]] = [None] * n
    sources = ["direct"] * n
    groups, _ = plan_groups(net, machines, policy, n_layers, use_trace)
    for key, idxs in groups.items():
        try:
            for i in idxs:
                faults.maybe_fault("worker.point", index=indices[i])
            out = price_group(
                net, key, [machines[i] for i in idxs], policy, n_layers
            )
        except Exception as exc:
            # Degrade the group to the per-point loop below, loudly.
            warnings.warn(ReplayFallbackWarning(key, exc), stacklevel=2)
            continue
        if out is None:
            continue  # priced directly below
        for i, st, label in zip(idxs, *out):
            stats[i] = st
            sources[i] = label
            if on_point is not None:
                on_point(indices[i], st, label)

    for i in range(n):
        if stats[i] is None:
            gidx = indices[i]

            def run_point(i=i, gidx=gidx):
                faults.maybe_fault("worker.point", index=gidx)
                return net.simulate(
                    machines[i],
                    policy,
                    n_layers=n_layers,
                    use_cache=False,
                    use_trace=False,
                )

            try:
                stats[i], _ = call_with_retries(run_point, retry, f"pt{gidx}")
            except Exception as exc:
                failure = PointFailure(
                    index=gidx,
                    error=str(exc),
                    exc_type=type(exc).__name__,
                    attempts=retry.max_retries + 1,
                )
                stats[i] = failure
                sources[i] = "failed"
                if on_failure is not None:
                    on_failure(failure)
                budget.record(failure, exc)  # raises in fail-fast mode
                continue
            if on_point is not None:
                on_point(gidx, stats[i], sources[i])
    return stats, sources


def sweep(
    net: Network,
    axis_name: str,
    values: Iterable,
    machine_for: Callable[[object], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry: Optional[RetryPolicy] = None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
    heartbeat: Optional[Callable[[], None]] = None,
) -> SweepResult:
    """Generic one-axis sweep: build a machine per value and simulate.

    ``jobs`` selects parallel execution over design points: ``None``
    consults the ``REPRO_JOBS`` environment variable (default serial),
    0 or negative means all cores.  Parallel runs return results in the
    same order, with statistics identical to the serial path; if the
    inputs cannot be shipped to workers the sweep silently runs
    serially.  ``use_cache`` opts into the persistent result cache
    (see :mod:`repro.core.simcache`): hits are resolved here, before
    either engine runs, and each newly priced point is stored once as
    it settles.

    ``use_trace`` controls the capture-once/replay-many engine
    (:mod:`repro.core.tracecache`): points whose kernel event stream is
    identical — e.g. every point of an L2-size or DRAM sweep — run the
    kernels once and are priced from the shared recorded trace, with
    bitwise-identical statistics.  ``None`` (the default) enables it
    for sweeps unless ``REPRO_TRACE`` says otherwise; each point's
    provenance lands in ``SweepResult.sources``.  Serial and parallel
    runs follow one route plan (:func:`plan_groups`,
    :func:`price_group`), so they report the same sources.

    Fault tolerance (:mod:`repro.core.resilience`): with ``resume=True``
    every completed point is checkpointed to a journal under
    ``.simcache/journal/``, an interrupted sweep picks up exactly where
    it left off on the next ``resume=True`` call (restored points get
    source ``"journal"``; the re-run is bitwise identical to an
    uninterrupted sweep), and a finished sweep re-runs for free.
    *retry* configures per-point supervision (bounded retries with
    exponential backoff and jitter, per-point timeout, dead-worker
    recovery in parallel mode); *max_failures* overrides the policy's
    failure budget — 0 (default) fails fast like the classic engine,
    ``N > 0`` degrades up to N permanently failing points to
    :class:`PointFailure` cells (source ``"failed"``) before a
    :class:`~repro.core.resilience.SweepError` aborts the sweep.

    Model-guided pruning: ``prune=K`` ranks every point with the static
    cost model (:mod:`repro.analysis.predict` over the point's recorded
    trace) and simulates only the ``K`` most promising ones; the rest
    get the model's predicted statistics with source
    ``"pruned-by-model"`` (their ``stats`` cells are estimates, not
    simulations — check ``SweepResult.sources`` before trusting a
    pruned cell).  Points restored from a resume journal are never
    re-pruned.

    *heartbeat* (used by the durable job scheduler,
    :mod:`repro.service.scheduler`) is a zero-argument callable invoked
    as each point settles — and on every supervisor tick in parallel
    mode — so a job owner can renew its lease and observe cancellation
    while a long sweep runs; an exception it raises aborts the sweep
    after the journal has checkpointed every completed point.

    With ``resume=True``, a grid whose journal was compacted into a
    verified sealed record (:func:`repro.core.resilience.seal_journal`)
    is answered entirely from that record — zero simulations, source
    ``"sealed"``, statistics bitwise-identical to the original run.
    """
    if policy is None:
        policy = KernelPolicy()
    if prune is not None and prune < 1:
        raise ValueError(f"prune must be a positive point count, got {prune}")
    values = list(values)
    machines = [machine_for(v) for v in values]
    retry = retry if retry is not None else RetryPolicy.from_env()
    if max_failures is not None:
        retry = replace(retry, max_failures=max_failures)
    budget = FailureBudget(retry.max_failures)
    n = len(machines)

    journal: Optional[Journal] = None
    stats_list: List[Optional[SimStats]] = [None] * n
    sources = ["direct"] * n
    pending = list(range(n))
    if resume:
        skey = sweep_key(net, axis_name, values, machines, policy, n_layers)
        sealed = load_sealed(skey, n)
        if sealed is not None:
            return SweepResult(
                axis_name=axis_name,
                axis=values,
                stats=[stats_from_payload(p) for p in sealed["points"]],
                sources=["sealed"] * n,
            )
        journal = Journal.open(
            skey, n, meta={"axis_name": axis_name, "net": net.name}
        )
        for i, (stats, _src) in journal.completed.items():
            stats_list[i] = stats
            sources[i] = "journal"
        pending = journal.pending()

    on_point = journal.record_point if journal is not None else None
    on_failure = journal.record_failure if journal is not None else None
    if heartbeat is not None:
        heartbeat()  # observe a pre-existing cancel before any work

        def on_point(i, stats, src, _chain=on_point):
            if _chain is not None:
                _chain(i, stats, src)
            heartbeat()

    try:
        if prune is not None and len(pending) > prune:
            from ..analysis.predict import (
                predict_cycles,
                predicted_stats,
                summarize_trace,
            )
            from . import tracecache

            summaries: Dict = {}  # (trace id, line geometry) -> TraceSummary
            ranked = []
            for i in pending:
                m = machines[i]
                trace, _ = tracecache.get_or_capture(net, m, policy, n_layers)
                skey = (id(trace), m.l2.line_bytes, m.l1.line_bytes)
                if skey not in summaries:
                    summaries[skey] = summarize_trace(trace, m)
                ranked.append((predict_cycles(summaries[skey], m), i))
            ranked.sort(key=lambda pi: pi[0].cycles)
            for pred, i in ranked[prune:]:
                stats_list[i] = predicted_stats(pred)
                sources[i] = "pruned-by-model"
                if on_point is not None:
                    on_point(i, stats_list[i], sources[i])
            pending = sorted(i for _, i in ranked[:prune])

        if pending and simcache.cache_enabled(use_cache):
            # The persistent result cache answers first; every point
            # priced below is stored once, as it settles.
            ckeys = {
                i: simcache.cache_key(net, machines[i], policy, n_layers, True)
                for i in pending
            }
            for i in list(pending):
                hit = simcache.load(ckeys[i])
                if hit is not None:
                    stats_list[i] = hit
                    sources[i] = "cached"
                    pending.remove(i)
                    if on_point is not None:
                        on_point(i, hit, "cached")

            def on_point(i, stats, src, _chain=on_point):
                simcache.store(ckeys[i], stats)
                if _chain is not None:
                    _chain(i, stats, src)

        if pending:
            sub_machines = [machines[i] for i in pending]
            out = None
            n_jobs = resolve_jobs(jobs)
            if n_jobs > 1:
                out = simulate_points(
                    net, sub_machines, policy, n_layers, n_jobs,
                    use_trace=use_trace, indices=pending, retry=retry,
                    budget=budget, on_point=on_point, on_failure=on_failure,
                    on_tick=heartbeat,
                )
            if out is None:
                out = _simulate_group(
                    net, sub_machines, policy, n_layers, use_trace,
                    indices=pending, retry=retry, budget=budget,
                    on_point=on_point, on_failure=on_failure,
                )
            sub_stats, sub_sources = out
            for j, i in enumerate(pending):
                stats_list[i] = sub_stats[j]
                sources[i] = sub_sources[j]
        if journal is not None and all(
            not isinstance(s, PointFailure) and s is not None for s in stats_list
        ):
            journal.mark_done()
    finally:
        if journal is not None:
            journal.close()
    return SweepResult(
        axis_name=axis_name, axis=values, stats=stats_list, sources=sources
    )


def sweep_vector_lengths(
    net: Network,
    vlens: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Fig. 6 / Fig. 8 axis: vary the hardware vector length.

    ``base_machine`` maps a vector length in bits to a machine config
    (e.g. ``lambda v: rvv_gem5(vlen_bits=v, lanes=8, l2_mb=1)``).

    A VL change alters the event stream itself (kernels tile on it),
    so each point is a trace group of its own.  When traces spill
    (``REPRO_TRACE_SPILL=1``) each point records **one capture per
    VL**, which then serves *every* pricing axis and figure at that VL,
    and its compiled passes persist (``.rpp``/``.rvp``, see
    docs/TRACE_REPLAY.md "Persistent compiled passes"): a warm re-run
    of this sweep replays every point from the compiled-pass cache
    without decoding a single trace column.  Without spill a capture
    would not outlive the call, so a cold point is simulated directly
    (:func:`price_group`).
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "vlen_bits", vlens, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )


def sweep_cache_sizes(
    net: Network,
    l2_mbs: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Fig. 7 / Figs. 8-10 axis: vary the L2 capacity (1-256 MB).

    The prime beneficiary of trace replay: every point of an L2 sweep
    shares one kernel event stream, so the kernels run exactly once.
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "l2_mb", l2_mbs, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )


def sweep_lanes(
    net: Network,
    lanes: Sequence[int],
    base_machine: Callable[[int], MachineConfig],
    policy: Optional[KernelPolicy] = None,
    n_layers: Optional[int] = None,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    use_trace: Optional[bool] = None,
    resume: bool = False,
    retry=None,
    max_failures: Optional[int] = None,
    prune: Optional[int] = None,
) -> SweepResult:
    """Section VI-B(c) axis: vary the number of vector lanes (2-8).

    Lane count changes pricing arithmetic, not the event stream, so the
    points share a trace key and form a ``"vpu"``-mode replay group
    (:func:`repro.machine.replay.group_mode`): the kernels run once and
    every lane point is priced from the shared capture with deferred
    VPU pricing classes, bitwise identical to per-point simulation
    (see docs/TRACE_REPLAY.md).
    """
    if policy is None:
        policy = KernelPolicy()
    return sweep(
        net, "lanes", lanes, base_machine, policy, n_layers, jobs,
        use_cache, use_trace, resume=resume, retry=retry,
        max_failures=max_failures, prune=prune,
    )
