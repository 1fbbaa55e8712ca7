"""Crash-safe persistent store: framing, validate-on-read, quarantine,
concurrency, and the solver's verdict memo (DESIGN.md Section 14).

The contract under test everywhere: a store entry is a claim, not a
fact.  Whatever is done to the bytes on disk — torn writes, bit flips,
version skew, concurrent truncation, ``kill -9`` mid-append — every read
is either a validated hit or a clean miss, never an exception and never
a wrong verdict.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import cache, faults, store
from repro.config import SolverConfig
from repro.core.solver import TrauSolver
from repro.logic.formula import ge, le
from repro.logic.terms import var
from repro.store import (
    MISSING, Store, encode_record, key_digest, scan_segment,
)
from repro.strings.ops import ProblemBuilder


@pytest.fixture(autouse=True)
def _fresh_store_state():
    """Isolate every test from process-global store/cache state."""
    store.reset()
    cache.clear_all()
    yield
    store.reset()
    cache.clear_all()


def _records(root):
    out = []
    for name in sorted(os.listdir(root)):
        if name.startswith("seg-") and name.endswith(".log"):
            records, _ = scan_segment(os.path.join(root, name))
            out.extend(r for _, _, r in records)
    return out


# -- framing -----------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seg.log"
        recs = [{"kind": "k", "key": "d%d" % i, "value": i, "meta": {},
                 "seq": i, "tomb": False} for i in range(5)]
        with open(path, "wb") as handle:
            for rec in recs:
                handle.write(encode_record(rec))
        parsed, offset = scan_segment(str(path))
        assert [r for _, _, r in parsed] == recs
        assert offset == os.path.getsize(path)

    @pytest.mark.parametrize("cut", [1, 7, 20, 41])
    def test_torn_tail_truncates_cleanly(self, tmp_path, cut):
        path = tmp_path / "seg.log"
        good = encode_record({"kind": "k", "key": "a", "value": 1,
                              "meta": {}, "seq": 1, "tomb": False})
        torn = encode_record({"kind": "k", "key": "b", "value": 2,
                              "meta": {}, "seq": 2, "tomb": False})
        with open(path, "wb") as handle:
            handle.write(good + torn[:cut])
        parsed, offset = scan_segment(str(path))
        assert len(parsed) == 1
        assert parsed[0][2]["key"] == "a"
        assert offset == len(good)

    def test_corrupt_frame_stops_scan(self, tmp_path):
        path = tmp_path / "seg.log"
        good = encode_record({"kind": "k", "key": "a", "value": 1,
                              "meta": {}, "seq": 1, "tomb": False})
        bad = bytearray(encode_record({"kind": "k", "key": "b", "value": 2,
                                       "meta": {}, "seq": 2, "tomb": False}))
        bad[len(bad) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(good + bytes(bad))
        parsed, _ = scan_segment(str(path))
        assert [r["key"] for _, _, r in parsed] == ["a"]

    def test_canonical_key_distinguishes_values(self):
        assert key_digest("k", (1, 2)) != key_digest("k", (2, 1))
        assert key_digest("k1", "x") != key_digest("k2", "x")


# -- basics ------------------------------------------------------------------


class TestStoreBasics:
    def test_put_get_roundtrip(self, tmp_path):
        st = Store(str(tmp_path))
        assert st.put("verdict", ("fp", "sig"), {"status": "sat"})
        assert st.get("verdict", ("fp", "sig")) == {"status": "sat"}
        assert st.get("verdict", ("other", "sig")) is MISSING
        assert st.counters["hits"] == 1
        assert st.counters["misses"] == 1

    def test_first_write_wins(self, tmp_path):
        st = Store(str(tmp_path))
        assert st.put("k", "key", 1)
        assert not st.put("k", "key", 2)
        assert st.get("k", "key") == 1

    def test_survives_reopen(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", {"deep": [1, 2, {"n": 3}]})
        st.close()
        st2 = Store(str(tmp_path))
        assert st2.get("k", "key") == {"deep": [1, 2, {"n": 3}]}

    def test_cross_process_visibility_via_refresh(self, tmp_path):
        writer = Store(str(tmp_path))
        reader = Store(str(tmp_path))
        # Distinct Store instances model distinct processes (each has its
        # own segment and index).
        writer.put("k", "key", 41)
        reader.refresh(force=True)
        assert reader.get("k", "key") == 41

    def test_meta_travels_with_value(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "v", meta={"budget_independent": True})
        seen = {}

        def validator(value, meta):
            seen.update(meta)
            return True

        assert st.get("k", "key", validator=validator) == "v"
        assert seen == {"budget_independent": True}


# -- validate-on-read + quarantine -------------------------------------------


class TestValidateOnRead:
    def test_validator_rejection_quarantines(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        assert st.get("k", "key", validator=lambda v, m: False) is MISSING
        assert st.counters["quarantined"] == 1
        assert st.counters["revalidation_failures"] == 1
        # Tombstoned: even a permissive read misses now.
        assert st.get("k", "key") is MISSING
        dumps = os.listdir(tmp_path / "quarantine")
        assert any("store-quarantined" in name for name in dumps)

    def test_validator_exception_is_a_rejection(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")

        def boom(value, meta):
            raise RuntimeError("validator crashed")

        assert st.get("k", "key", validator=boom) is MISSING
        assert st.counters["quarantined"] == 1

    def test_tombstone_survives_reopen(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        assert st.get("k", "key", validator=lambda v, m: False) is MISSING
        st.close()
        st2 = Store(str(tmp_path))
        assert st2.get("k", "key") is MISSING

    def test_put_after_quarantine_resurrects(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "bad")
        assert st.get("k", "key", validator=lambda v, m: False) is MISSING
        assert st.put("k", "key", "good")
        assert st.get("k", "key") == "good"


class TestOnDiskCorruption:
    def _flip_byte_of_entry(self, root):
        """Flip one payload byte of the first record on disk."""
        for name in sorted(os.listdir(root)):
            if name.startswith("seg-"):
                path = os.path.join(root, name)
                with open(path, "r+b") as handle:
                    handle.seek(40 + 9)      # header is 40B; inside payload
                    byte = handle.read(1)
                    handle.seek(40 + 9)
                    handle.write(bytes([byte[0] ^ 0xFF]))
                return
        raise AssertionError("no segment written")

    def test_checksum_mismatch_quarantines(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        self._flip_byte_of_entry(str(tmp_path))
        assert st.get("k", "key") is MISSING
        assert st.counters["quarantined"] == 1
        assert st.get("k", "key") is MISSING        # tombstoned now

    def test_truncation_under_a_live_index(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "k1", "v1")
        st.put("k", "k2", "v2")
        seg = [n for n in os.listdir(tmp_path) if n.startswith("seg-")][0]
        path = os.path.join(str(tmp_path), seg)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 10)       # tear the second record
        assert st.get("k", "k1") == "v1"
        assert st.get("k", "k2") is MISSING  # clean miss, not an error
        assert st.counters["errors"] == 0


class TestVersionSkew:
    def test_revision_skew_invalidates(self, tmp_path):
        # (written, reopened); None is this build's default revision, and
        # "pr8" stamped the stores that also held warm-start kinds.
        for old, new in (("rev-a", "rev-b"), ("pr8", None)):
            root = tmp_path / old
            st = Store(str(root), revision=old)
            st.put("k", "key", "value")
            st.close()
            st2 = Store(str(root), revision=new)
            assert st2.get("k", "key") is MISSING, (old, new)
            assert st2.counters["invalidated"] == 1, (old, new)
            stale = [n for n in os.listdir(root) if n.startswith("stale-")]
            assert len(stale) == 1
            assert any(n.startswith("seg-")
                       for n in os.listdir(root / stale[0]))
            # The new generation is fully usable.
            st2.put("k", "key", "fresh")
            assert st2.get("k", "key") == "fresh"

    def test_same_revision_keeps_data(self, tmp_path):
        st = Store(str(tmp_path), revision="rev-a")
        st.put("k", "key", "value")
        st.close()
        st2 = Store(str(tmp_path), revision="rev-a")
        assert st2.get("k", "key") == "value"
        assert st2.counters["invalidated"] == 0


class TestIndexRotation:
    def test_corrupt_index_falls_back_to_rescan(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        st.save_index()
        st.close()
        with open(tmp_path / "index.bin", "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff\xff")
        st2 = Store(str(tmp_path))
        assert st2.get("k", "key") == "value"

    def test_missing_index_rescans(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        st.close()
        os.remove(tmp_path / "index.bin")
        st2 = Store(str(tmp_path))
        assert st2.get("k", "key") == "value"


# -- fault seams -------------------------------------------------------------


class TestFaultSeams:
    def test_read_raise_degrades_to_miss(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        with faults.injected(specs=["store.read:raise"]):
            assert st.get("k", "key") is MISSING
        assert st.get("k", "key") == "value"

    def test_read_corrupt_is_caught_past_the_checksum(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        with faults.injected(specs=["store.read:corrupt"]):
            assert st.get("k", "key") is MISSING
        assert st.counters["quarantined"] == 1

    def test_write_raise_drops_the_write(self, tmp_path):
        st = Store(str(tmp_path))
        with faults.injected(specs=["store.write:raise"]):
            assert not st.put("k", "key", "value")
        assert st.counters["write_errors"] == 1
        assert st.get("k", "key") is MISSING

    def test_write_corrupt_models_a_torn_write(self, tmp_path):
        st = Store(str(tmp_path))
        with faults.injected(specs=["store.write:corrupt"]):
            st.put("k", "key", "value")
        # The record on disk cannot verify: reading it quarantines.
        assert st.get("k", "key") is MISSING
        assert st.counters["quarantined"] == 1

    def test_validate_corrupt_forces_quarantine(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        with faults.injected(specs=["store.validate:corrupt"]):
            assert st.get("k", "key", validator=lambda v, m: True) is MISSING
        assert st.counters["quarantined"] == 1

    def test_lock_raise_degrades(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        with faults.injected(specs=["store.lock:raise"]):
            assert not st.save_index()       # dropped, not raised
        assert st.save_index()

    def test_lock_delay_stalls_but_completes(self, tmp_path):
        st = Store(str(tmp_path))
        st.put("k", "key", "value")
        started = time.monotonic()
        with faults.injected(specs=["store.lock:delay:seconds=0.05"]):
            assert st.save_index()
        assert time.monotonic() - started >= 0.05


# -- solver integration ------------------------------------------------------


def _sat_problem():
    b = ProblemBuilder()
    x = b.str_var("x")
    b.member(x, "[0-9]{2,4}")
    n = b.to_num(x, "n")
    b.require_int(ge(var(n), 120))
    b.require_int(le(var(n), 125))
    return b.problem


def _unsat_problem():
    b = ProblemBuilder()
    x = b.str_var("x")
    b.member(x, "[0-9]{1,2}")
    n = b.to_num(x, "n")
    b.require_int(ge(var(n), 1000))
    return b.problem


def _verdict_key(problem):
    from repro.alphabet import DEFAULT_ALPHABET
    return (cache.problem_fingerprint(problem), DEFAULT_ALPHABET.signature())


def _boot(root):
    """Simulate a fresh worker boot sharing the on-disk store."""
    store.reset()
    cache.clear_all()
    return TrauSolver(config=SolverConfig(store_path=root))


class TestSolverIntegration:
    def test_sat_verdict_roundtrip(self, tmp_path):
        root = str(tmp_path)
        r1 = _boot(root).solve(_sat_problem(), timeout=30)
        assert r1.status == "sat"
        r2 = _boot(root).solve(_sat_problem(), timeout=30)
        assert r2.status == "sat"
        assert r2.stats.get("store") == "hit"
        assert r2.stats.get("rounds") == 0
        # The certificate: the model was re-validated on read.
        from repro.strings.eval import check_model
        assert check_model(_sat_problem(), r2.model)

    def test_unsat_verdict_roundtrip(self, tmp_path):
        root = str(tmp_path)
        r1 = _boot(root).solve(_unsat_problem(), timeout=30)
        assert r1.status == "unsat"
        r2 = _boot(root).solve(_unsat_problem(), timeout=30)
        assert r2.status == "unsat"
        assert r2.stats.get("store") == "hit"

    def test_corrupt_sat_model_degrades_to_fresh_solve(self, tmp_path):
        root = str(tmp_path)
        st = store.get_store(root)
        assert st.put("verdict", _verdict_key(_sat_problem()),
                      {"status": "sat", "model": {"x": "zz", "n": -7}})
        result = _boot(root).solve(_sat_problem(), timeout=30)
        # Never the wrong model: re-validation rejected the lie and the
        # solve ran fresh.
        assert result.status == "sat"
        assert result.stats.get("store") != "hit"
        from repro.strings.eval import check_model
        assert check_model(_sat_problem(), result.model)
        assert store.get_store(root).counters["revalidation_failures"] >= 1

    def test_unsat_without_marker_is_rejected(self, tmp_path):
        root = str(tmp_path)
        st = store.get_store(root)
        st.put("verdict", _verdict_key(_sat_problem()), {"status": "unsat"},
               meta={})        # no budget-independence marker: untrusted
        result = _boot(root).solve(_sat_problem(), timeout=30)
        assert result.status == "sat"        # the lie did not surface

    def test_store_faults_never_change_the_verdict(self, tmp_path):
        root = str(tmp_path)
        assert _boot(root).solve(_sat_problem(), timeout=30).status == "sat"
        for spec in ("store.read:raise", "store.read:corrupt",
                     "store.write:raise", "store.write:corrupt",
                     "store.validate:corrupt", "store.lock:raise"):
            store.reset()
            cache.clear_all()
            solver = TrauSolver(config=SolverConfig(store_path=root,
                                                    fault_specs=(spec,)))
            result = solver.solve(_sat_problem(), timeout=30)
            assert result.status == "sat", spec
            from repro.strings.eval import check_model
            assert check_model(_sat_problem(), result.model), spec

    def test_no_cache_config_bypasses_store(self, tmp_path):
        root = str(tmp_path)
        assert _boot(root).solve(_sat_problem(), timeout=30).status == "sat"
        store.reset()
        cache.clear_all()
        solver = TrauSolver(config=SolverConfig(store_path=root,
                                                use_caches=False))
        result = solver.solve(_sat_problem(), timeout=30)
        assert result.status == "sat"
        assert result.stats.get("store") != "hit"


# -- concurrency & crash safety (satellite 3) --------------------------------


_WRITER = r"""
import os, sys, time
sys.path.insert(0, %(src)r)
from repro.store import Store
st = Store(%(root)r)
i = 0
deadline = time.monotonic() + %(seconds)r
while time.monotonic() < deadline:
    st.put("hammer", ("w%(tag)s", i), {"writer": %(tag)r, "i": i,
                                       "pad": "x" * (i %% 211)})
    if i %% 17 == 0:
        st.get("hammer", ("w%(tag)s", max(0, i - 5)))
    i += 1
st.close()
print(i)
"""

_TRUNCATOR = r"""
import os, random, sys, time
rng = random.Random(1234)
root = %(root)r
deadline = time.monotonic() + %(seconds)r
while time.monotonic() < deadline:
    segs = [n for n in os.listdir(root)
            if n.startswith("seg-") and n.endswith(".log")]
    if segs:
        path = os.path.join(root, rng.choice(segs))
        try:
            size = os.path.getsize(path)
            if size > 100:
                with open(path, "r+b") as handle:
                    handle.truncate(rng.randrange(size // 2, size))
        except OSError:
            pass
    time.sleep(0.01)
"""


def _spawn(script, **fmt):
    fmt.setdefault("src", os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    return subprocess.Popen([sys.executable, "-c", script % fmt],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


class TestConcurrentIntegrity:
    def test_writers_vs_truncator_never_lie(self, tmp_path):
        """Two processes hammer the store while a third truncates
        segments at random offsets; every read in the parent must be a
        validated hit or a clean miss — never an exception, never a
        wrong value."""
        root = str(tmp_path)
        seconds = 2.0
        writers = [_spawn(_WRITER, root=root, tag=t, seconds=seconds)
                   for t in ("a", "b")]
        truncator = _spawn(_TRUNCATOR, root=root, seconds=seconds + 0.5)

        def validator(value, _meta):
            return (isinstance(value, dict)
                    and value.get("writer") in ("a", "b")
                    and isinstance(value.get("i"), int)
                    and value.get("pad") == "x" * (value["i"] % 211))

        reader = Store(root)
        checked = hits = 0
        deadline = time.monotonic() + seconds + 1.0
        while time.monotonic() < deadline:
            reader.refresh(force=True)
            for tag in ("a", "b"):
                for i in range(0, 200, 7):
                    value = reader.get("hammer", ("w%s" % tag, i),
                                       validator=validator)
                    checked += 1
                    if value is not MISSING:
                        hits += 1
                        assert value["writer"] == tag
                        assert value["i"] == i
        for proc in writers:
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err.decode()
            assert int(out) > 0
        truncator.communicate(timeout=30)
        assert checked > 0
        assert reader.counters["errors"] == 0
        # Truncation mid-record may quarantine — that is the designed
        # degradation; what must never happen is asserted above.

    def test_kill9_mid_write_generation_handoff(self, tmp_path):
        """kill -9 a writer mid-append, then a fresh 'worker generation'
        must read the store: every surviving record validates, the torn
        tail is a clean stop, zero corrupt reads surface."""
        root = str(tmp_path)
        for _ in range(3):
            proc = _spawn(_WRITER, root=root, tag="k", seconds=30.0)
            time.sleep(0.4)                  # let it write mid-stream
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            assert proc.returncode == -signal.SIGKILL

            st = Store(root)                 # next generation boots
            read = 0
            for record in _records(root):
                if record.get("kind") != "hammer":
                    continue
                value = st.get("hammer", ("wk", record["value"]["i"]))
                assert value is MISSING or value == record["value"]
                read += 1
            assert read > 0
            assert st.counters["errors"] == 0
            assert st.counters["quarantined"] == 0
            st.close()
            store.reset()


_SMT2 = """\
(set-logic QF_SLIA)
(declare-fun x () String)
(assert (str.in_re x (re.+ (re.range "0" "9"))))
(assert (<= 120 (str.to_int x)))
(assert (<= (str.to_int x) 125))
(check-sat)
"""

_SMT_SOLVE = r"""
import json, sys
sys.path.insert(0, %(src)r)
from repro import cache
from repro.config import SolverConfig
from repro.core.solver import TrauSolver
from repro.obs import Metrics
from repro.smtlib import load_problem
problem = load_problem(open(%(path)r).read()).problem
metrics = Metrics()
result = TrauSolver(config=SolverConfig(store_path=%(root)r),
                    metrics=metrics).solve(problem, timeout=30)
flat = metrics.flat()
print(json.dumps({"status": result.status,
                  "fp": cache.problem_fingerprint(problem),
                  "hits": flat.get("store.verdict.hits", 0),
                  "misses": flat.get("store.verdict.misses", 0)}))
"""


class TestCrossProcessStability:
    def test_store_keys_survive_worker_generations(self, tmp_path):
        """Regression: a verdict written by one worker generation must be
        found by the next, for SMT-LIB-parsed problems too.  Parsed
        regular constraints have no printable source, so the fingerprint
        takes the structural-walk path — which used to pickle the live
        (solve-mutated, hash-seed-dependent) object graph, making every
        process compute a different key and every warm lookup miss."""
        root = str(tmp_path / "store")
        smt2 = tmp_path / "q.smt2"
        smt2.write_text(_SMT2)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        runs = []
        for hashseed in ("1", "2", "77"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-c",
                 _SMT_SOLVE % {"src": src, "path": str(smt2), "root": root}],
                capture_output=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(json.loads(proc.stdout))
        assert [run["status"] for run in runs] == ["sat"] * 3
        # One fingerprint across processes regardless of hash seed ...
        assert len({run["fp"] for run in runs}) == 1
        # ... so the first generation misses and records, and every
        # later generation hits.
        assert (runs[0]["hits"], runs[0]["misses"]) == (0, 1)
        for run in runs[1:]:
            assert (run["hits"], run["misses"]) == (1, 0)

    def test_fingerprint_ignores_lazy_memo_fields(self):
        """Solving populates underscore-slot caches on AST nodes; the
        fingerprint must not see them, or the key recorded after a solve
        would differ from the key looked up before it."""
        from repro.smtlib import load_problem

        problem = load_problem(_SMT2).problem
        before = cache.problem_fingerprint(problem)
        solver = TrauSolver(config=SolverConfig())
        result = solver.solve(problem, timeout=30)
        assert result.status == "sat"
        assert cache.problem_fingerprint(problem) == before


class TestServiceIntegration:
    def test_pool_workers_share_the_store(self, tmp_path):
        from repro.serve import SolverService

        root = str(tmp_path)
        service = SolverService(config=SolverConfig(), jobs=1, timeout=30,
                                store_path=root)
        try:
            results = service.run_batch([("q1", _sat_problem()),
                                         ("q2", _unsat_problem())])
        finally:
            service.shutdown()
        by_name = {r.name: r.status for r in results}
        assert by_name == {"q1": "sat", "q2": "unsat"}
        # The workers wrote verdicts into the shared store; the next
        # generation (here: this process) reads them.
        st = Store(root)
        kinds = {r.get("kind") for r in _records(root)}
        assert kinds == {"verdict"}
        key = _verdict_key(_sat_problem())
        assert st.get("verdict", key)["status"] == "sat"
