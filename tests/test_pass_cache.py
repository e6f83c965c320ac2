"""Persistent compiled-pass cache: exact codecs, staleness, warm sweeps.

The ``.rpp`` (shared pass) and ``.rvp`` (compiled point-pass tier)
containers exist so a warm re-run of a figure sweep skips the event
walk entirely.  Correctness is the same bitwise bar as the rest of the
replay engine: everything that crosses the wire must round-trip
type-exactly (``float.hex`` equal, ints as ints, bools as bools), a
digest mismatch must read as a miss (never a wrong answer), corruption
must quarantine, and a warm sweep must price bitwise identically to
its cold capture run — serial and parallel, spill on or off.
"""

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tracecache as tc
from repro.core.codesign import sweep_vector_lengths
from repro.machine import rvv_gem5
from repro.machine.replay import (
    _INVARIANT_FIELDS,
    _intern,
    _run_points,
    _shared_pass,
    _skeleton,
    _walk,
    replay_sweep,
    replay_sweep_cached,
)
from repro.machine.simulator import SimStats
from repro.machine.trace import TraceRecorder
from repro.nets import ConvLayer, KernelPolicy, MaxPoolLayer, Network

COMPAT = {"isa_name": "rvv1.0", "vlen_bits": 512, "l1_line_bytes": 64}


def small_net():
    return Network(
        [ConvLayer(8, 3, 1), MaxPoolLayer(2, 2), ConvLayer(16, 3, 1)],
        input_shape=(4, 32, 32),
        name="small",
    )


def eq_item(x, y):
    """Type-exact equality: float bits, tuple shape, int/bool identity."""
    if type(x) is float:
        return type(y) is float and x.hex() == y.hex()
    if not (isinstance(x, tuple) and isinstance(y, tuple)):
        return type(x) is type(y) and x == y
    return len(x) == len(y) and all(eq_item(a, b) for a, b in zip(x, y))


def hexs(stats: SimStats):
    fields = tuple(getattr(stats, f).hex() for f in SimStats.FIELDS)
    kc = tuple(sorted((k, v.hex()) for k, v in stats.kernel_cycles.items()))
    return fields, kc


# ----------------------------------------------------------------------
# Property-based codec round-trip over the full prog-item grammar
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)
posint = st.integers(min_value=0, max_value=2**40)
addrs = st.lists(posint, min_size=0, max_size=4).map(tuple)
n_pending = st.integers(min_value=0, max_value=4)

item = st.one_of(
    finite,
    st.tuples(st.just(1), st.text(max_size=6)),
    st.tuples(st.just(2), posint, posint),
    st.builds(
        lambda w, na, lat, occ, nb, nl, wr, un, iid:
            (3, w, na, lat, occ, nb, nl, wr, un, iid),
        finite, n_pending, posint, finite, posint,
        st.integers(min_value=0, max_value=64), st.booleans(), st.booleans(),
        posint,
    ),
    st.builds(
        lambda w, na, lat, occ, wr: (4, w, na, lat, occ, wr),
        finite, n_pending, posint, finite, st.booleans(),
    ),
    st.tuples(st.just(5), addrs),
    st.tuples(st.just(6), finite, st.integers(min_value=0, max_value=7)),
)

CLASSES = [
    ("a", 64, 2, 4),
    ("b", 3),
    ("m", 12, 0.5, 256, 4, True, False),
    ("m", 40, 1.25, 64, 1, False, True),
]


def n_lines(prog):
    """Pending lines the tag-3/4 items of *prog* own in ``gc["lines"]``."""
    return sum(it[2] for it in prog if type(it) is tuple and it[0] in (3, 4))


def make_gc(lines):
    return {
        "vpu": None,
        "port_l1": True,
        "l1_lat": 4,
        "ooo_hide": 0.5,
        "scalar_cpi": 1.0,
        "l1_shift": 6,
        "l2_shift": 6,
        "lines": array("i", lines),
        "max_range_total": 1 << 20,
        "has_fills": False,
        "pf2_cfg": False,
        "classes": list(CLASSES),
    }


class TestCodecRoundTrip:
    @given(st.lists(item, max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pass_roundtrip_any_program(self, prog, data):
        lines = data.draw(st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=n_lines(prog), max_size=n_lines(prog),
        ))
        gc = make_gc(lines)
        inv = {f: float(i) * 1.5 for i, f in enumerate(_INVARIANT_FIELDS)}
        blob = tc.encode_pass(
            prog, inv, gc, key="k", sig="s" * 12, defer=True,
            trace_sha256="t" * 64, compat=COMPAT,
        )
        header, prog2, inv2, gc2 = tc.decode_pass(blob)
        assert len(prog) == len(prog2)
        for x, y in zip(prog, prog2):
            assert eq_item(x, y), (x, y)
        for f in _INVARIANT_FIELDS:
            assert inv[f].hex() == inv2[f].hex()
        assert gc2["vpu"] is None
        assert gc2["lines"] == gc["lines"]
        assert gc2["lines"].typecode == "i"
        for a, b in zip(gc["classes"], gc2["classes"]):
            assert eq_item(a, b)
        assert header["trace_sha256"] == "t" * 64
        assert header["compat"] == COMPAT

    def test_line_count_mismatch_raises(self):
        # Every tag-3/4 item owns exactly its count of gc["lines"].
        with pytest.raises(ValueError, match="pending-line"):
            tc.encode_pass(
                [(4, 1.0, 2, 10, 0.5, False)], {}, make_gc([7]), key="k",
                sig="s", defer=False, trace_sha256="t" * 64, compat=COMPAT,
            )

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="tag"):
            tc.encode_pass(
                [(9, 1.0)], {}, make_gc([]), key="k", sig="s", defer=False,
                trace_sha256="t" * 64, compat=COMPAT,
            )

    def test_non_integral_operand_raises(self):
        # A half-integer byte count must refuse to encode, not silently
        # truncate through an int64 column.
        with pytest.raises(ValueError):
            tc.encode_pass(
                [(2, 100, 2.5)], {}, make_gc([]), key="k", sig="s",
                defer=False, trace_sha256="t" * 64, compat=COMPAT,
            )

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda b: b"XXXX" + b[4:], id="bad-magic"),
        pytest.param(lambda b: b[:-3], id="truncated"),
        pytest.param(lambda b: b + b"\0\0", id="trailing"),
        pytest.param(
            lambda b: b[:-5] + bytes([b[-5] ^ 0xFF]) + b[-4:], id="bitflip"
        ),
    ])
    def test_corruption_raises(self, mutate):
        blob = tc.encode_pass(
            [1.0, (2, 64, 128), (4, 1.0, 2, 10, 0.5, False), (6, 2.0, 1)],
            {"flops": 1.0}, make_gc([1, 2]),
            key="k", sig="s" * 12, defer=True, trace_sha256="t" * 64,
            compat=COMPAT,
        )
        with pytest.raises(ValueError):
            tc.decode_pass(mutate(blob))


# ----------------------------------------------------------------------
# Store/load against a real shared pass
# ----------------------------------------------------------------------
@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_TRACE_SPILL", "1")
    tc.clear_registry()
    from repro.machine import replay

    replay._SHARED_PASS_MEMO.clear()
    yield tmp_path
    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


def shared_pass_fixture():
    m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
    rec = TraceRecorder(m)
    small_net()._emit_trace(rec, KernelPolicy(), None, True)
    trace = rec.finish(key="passchk")
    prog, inv, gc = _shared_pass(trace, m, defer_vpu=True)
    inv_fields = {f: getattr(inv, f) for f in _INVARIANT_FIELDS}
    return m, trace, prog, inv_fields, gc


class TestStoreLoad:
    def test_roundtrip_and_digest_staleness(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        assert tc.store_pass(
            prog, inv_fields, gc, key="k1", sig="s" * 12, defer=True,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_pass("k1", "s" * 12, digest)
        assert out is not None
        _, prog2, inv2, gc2 = out
        for x, y in zip(prog, prog2):
            assert eq_item(x, y)
        for f in _INVARIANT_FIELDS:
            assert inv_fields[f].hex() == inv2[f].hex()
        # A different trace digest is a stale derivative: miss, and the
        # file survives (the next store overwrites it).
        assert tc.load_pass("k1", "s" * 12, "f" * 64) is None
        assert os.path.exists(tc._pass_path("k1", "s" * 12))

    def test_corrupt_pass_is_quarantined(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        tc.store_pass(
            prog, inv_fields, gc, key="k2", sig="s" * 12, defer=True,
            trace_sha256=digest, compat=COMPAT,
        )
        path = tc._pass_path("k2", "s" * 12)
        blob = bytearray(open(path, "rb").read())
        blob[-10] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        assert tc.load_pass("k2", "s" * 12, digest) is None
        assert not os.path.exists(path)  # moved aside, never served twice
        qdir = os.path.join(str(cache_dir), "quarantine")
        assert os.path.isdir(qdir) and os.listdir(qdir)

    def test_vecprog_roundtrip(self, cache_dir):
        m, trace, prog, inv_fields, gc = shared_pass_fixture()
        digest = trace.content_digest()
        skel = _skeleton(prog)
        cols = _intern(skel, *_walk(skel, gc, m))
        cols_dict = {s: getattr(cols, s) for s in cols.__slots__}
        tier = {"kind": "fast", "token": "f" * 12, "desc": "fast:None",
                "fps": ["fp1"]}
        assert tc.store_vecprog(
            cols_dict, inv_fields, gc, key="k3", sig="s" * 12, tier=tier,
            trace_sha256=digest, compat=COMPAT,
        )
        out = tc.load_vecprog("k3", "s" * 12, "f" * 12, digest)
        assert out is not None
        header, cols2, inv2, gcp = out
        assert header["tier"]["fps"] == ["fp1"]
        assert (cols2["base"] == cols.base).all()
        assert cols2["labels"] == cols.labels
        for a, b in zip(cols.cls_defs, cols2["cls_defs"]):
            assert eq_item(a, b)
        assert {"l1_lat", "ooo_hide", "scalar_cpi", "classes"} <= set(gcp)
        assert tc.load_vecprog("k3", "s" * 12, "f" * 12, "f" * 64) is None


# ----------------------------------------------------------------------
# Memo keying on trace content, not just the registry key
# ----------------------------------------------------------------------
class TestMemoDigestKeying:
    def test_recaptured_trace_never_served_stale(self, cache_dir):
        """Two different event streams under one key must price as
        themselves — the memo keys on the content digest, so a
        re-captured (changed) trace cannot inherit the old pass."""
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)

        def record(net):
            rec = TraceRecorder(m)
            net._emit_trace(rec, KernelPolicy(), None, True)
            return rec.finish(key="samekey")

        net_a = small_net()
        net_b = Network(
            [ConvLayer(8, 3, 1), ConvLayer(8, 1, 1)],
            input_shape=(4, 32, 32),
            name="other",
        )
        tr_a, tr_b = record(net_a), record(net_b)
        assert tr_a.content_digest() != tr_b.content_digest()
        got_a = replay_sweep(tr_a, [m])[0]
        got_b = replay_sweep(tr_b, [m])[0]
        want_a = _run_points(*_shared_pass(tr_a, m, defer_vpu=True), [m])[0]
        want_b = _run_points(*_shared_pass(tr_b, m, defer_vpu=True), [m])[0]
        assert hexs(got_a) == hexs(want_a)
        assert hexs(got_b) == hexs(want_b)
        assert hexs(got_a) != hexs(got_b)


# ----------------------------------------------------------------------
# Warm figure sweeps: bitwise identity, serial and parallel
# ----------------------------------------------------------------------
VLENS = [256, 512, 1024]


def run_vl_sweep(jobs=1):
    return sweep_vector_lengths(
        small_net(), VLENS,
        lambda v: rvv_gem5(vlen_bits=v, lanes=4, l2_mb=1),
        jobs=jobs, use_cache=False,
    )


def reset_process_state():
    from repro.machine import replay

    tc.clear_registry()
    replay._SHARED_PASS_MEMO.clear()


class TestWarmSweeps:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_vl_sweep_bitwise_spill_on(self, cache_dir, jobs):
        cold = run_vl_sweep()
        reset_process_state()
        tc.reset_load_counts()
        warm = run_vl_sweep(jobs=jobs)
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        if jobs == 1:
            assert warm.sources == ["replayed"] * len(VLENS)
            counts = tc.load_counts()
            hits = (counts["vecprog"] + counts["pass_spill"]
                    + counts["pass_shm"])
            assert hits >= len(VLENS)
            # The whole warm sweep ran without one trace-column decode.
            assert counts["shm"] == 0 and counts["spill"] == 0

    def test_warm_vl_sweep_bitwise_spill_off(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_SPILL", "0")
        reset_process_state()
        cold = run_vl_sweep()
        warm = run_vl_sweep()  # in-process registry + memo only
        for a, b in zip(cold.stats, warm.stats):
            assert hexs(a) == hexs(b)
        assert not any(
            f.endswith((tc.PASS_SUFFIX, tc.VECPROG_SUFFIX))
            for f in os.listdir(tmp_path)
        )
        reset_process_state()

    def test_hybrid_point_served_from_its_walk_tier(
        self, cache_dir, monkeypatch
    ):
        """A point whose L2 has overcommitted sets persists its walk as
        a ``walk:<fp>`` tier, so a warm singleton never decodes the
        shared pass."""
        from repro.machine import replay as R
        from repro.nets.zoo import yolov3_tiny

        def machine(vlen):
            return rvv_gem5(vlen_bits=vlen, lanes=4, l2_mb=1)

        net = yolov3_tiny()
        cold = sweep_vector_lengths(
            net, [1024, 2048], machine, KernelPolicy(), n_layers=3,
            use_cache=False,
        )
        assert cold.sources == ["captured", "captured"]
        reset_process_state()
        m = machine(2048)
        key = tc.trace_key(net, m, KernelPolicy(), 3)
        prog, inv, gc = _shared_pass(
            net.record_trace(m, KernelPolicy(), n_layers=3), m,
            defer_vpu=True,
        )
        assert not R._conflict_free(R._reuse(gc), m)  # a walk:<fp> tier
        calls = []
        served = []
        orig_cached = R._cached_point
        monkeypatch.setattr(
            tc, "load_pass", lambda *a: calls.append(a) or None
        )
        monkeypatch.setattr(
            R, "_cached_point",
            lambda *a: served.append(orig_cached(*a)) or served[-1],
        )
        warm = replay_sweep_cached(key, [m])
        assert warm is not None and served[0] is not None
        assert calls == []
        assert hexs(warm[0]) == hexs(cold.stats[1])

    def test_cached_entry_miss_returns_none(self, cache_dir):
        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        assert replay_sweep_cached("nonexistent-key", [m]) is None


# ----------------------------------------------------------------------
# Containers of an older pass format read as stale
# ----------------------------------------------------------------------
class TestFormatStaleness:
    @staticmethod
    def assert_old_pair_is_stale(cache_dir, version):
        """Store a point's ``.rpp`` and ``.rvp`` tier, stamp both with
        format *version*: both must miss, be quarantined, and the point
        re-price bitwise like direct simulation."""
        from repro.machine import replay as R

        m = rvv_gem5(vlen_bits=512, lanes=4, l2_mb=1)
        net, policy = small_net(), KernelPolicy()
        key = tc.trace_key(net, m, policy, None)
        trace = net.record_trace(m, policy, key=key)
        tc.put(key, trace, spill=True)
        replay_sweep(trace, [m])  # stores the .rpp and the point's tier
        paths = {
            suffix: [os.path.join(str(cache_dir), n)
                     for n in os.listdir(cache_dir) if n.endswith(suffix)]
            for suffix in (tc.PASS_SUFFIX, tc.VECPROG_SUFFIX)
        }
        assert all(len(p) == 1 for p in paths.values())
        for (path,) in paths.values():
            blob = bytearray(open(path, "rb").read())
            assert blob[4] == tc.PASS_FORMAT_VERSION == 3
            blob[4] = version
            open(path, "wb").write(bytes(blob))
        reset_process_state()

        tok = R._sig_token(R._shared_pass_sig(m, True))
        digest = trace.content_digest()
        (tier_path,) = paths[tc.VECPROG_SUFFIX]
        assert R._cached_point(key, tok, digest, m) is None
        assert not os.path.exists(tier_path)
        assert replay_sweep_cached(key, [m]) is None
        (pass_path,) = paths[tc.PASS_SUFFIX]
        assert not os.path.exists(pass_path)
        quarantined = os.listdir(os.path.join(str(cache_dir), "quarantine"))
        for (path,) in paths.values():
            name = os.path.basename(path)
            assert any(q.endswith("-" + name) for q in quarantined)

        got = replay_sweep(tc.get(key, spill=True), [m])[0]
        want = net.simulate(m, policy, use_cache=False, use_trace=False)
        assert hexs(got) == hexs(want)

    def test_version_1_tier_misses_and_is_quarantined(self, cache_dir):
        """Version-1 containers numbered deferred-VPU classes in another
        order than today's shared pass, so they must never be served."""
        self.assert_old_pair_is_stale(cache_dir, 1)

    def test_version_2_pair_misses_and_is_quarantined(self, cache_dir):
        """Version-2 programs carried per-item address tuples and
        first-touch columns instead of one ``lines`` column."""
        self.assert_old_pair_is_stale(cache_dir, 2)


# ----------------------------------------------------------------------
# CLI gc prunes compiled passes orphaned by a vanished trace
# ----------------------------------------------------------------------
class TestCliGc:
    def test_gc_prunes_orphans_keeps_live(self, cache_dir, capsys):
        from repro.cli import main

        run_vl_sweep()
        reset_process_state()
        names = os.listdir(cache_dir)
        traces = sorted(n for n in names if n.endswith(tc.SPILL_SUFFIX))
        assert len(traces) == len(VLENS)
        assert any(n.endswith(tc.PASS_SUFFIX) for n in names)
        # Orphan one key's compiled passes by removing its trace.
        victim = traces[0][: -len(tc.SPILL_SUFFIX)]
        os.remove(os.path.join(str(cache_dir), traces[0]))
        assert main(["trace-cache", "gc"]) == 0
        capsys.readouterr()
        left = os.listdir(cache_dir)
        assert not any(n.startswith(victim) for n in left)
        for t in traces[1:]:
            survivor = t[: -len(tc.SPILL_SUFFIX)]
            kinds = {n.rsplit(".", 1)[1] for n in left
                     if n.startswith(survivor)}
            assert {"rtz", "rpp", "rvp"} <= kinds
        # The survivors still serve a warm sweep, bitwise.
        warm = run_vl_sweep()
        assert warm.sources.count("replayed") >= len(VLENS) - 1
