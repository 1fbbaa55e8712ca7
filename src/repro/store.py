"""Crash-safe persistent verdict store (DESIGN.md Section 14).

A verdict dies with the worker process that computed it, and pool
recycling throws it away exactly when load is highest.  This module
persists solved verdicts on disk, shared by every worker of a pool,
with one non-negotiable rule: **a stored entry is a claim, not a
fact**.  Nothing read from disk is trusted until it passes its
integrity framing and its kind-specific validator, and a failed check
routes the entry into quarantine (tombstoned, counted, flight-dumped)
instead of ever surfacing a wrong answer.

The solver writes one record kind, ``verdict``
(:class:`~repro.core.solver.TrauSolver`), and finds the store only
through ``SolverConfig.store_path``.  Automata results, phase memos,
flattener fragments and theory lemmas were once persisted too; measured
on repeated traffic they cost more in store I/O and re-proof work than
they saved, while a verdict hit skips the whole solve.  The framing,
index and validation below are kind-agnostic.

Layout of a store directory::

    meta.json          format-version / solver-revision stamp
    lock               advisory flock serializing index rotation
    seg-<pid>-<id>.log append-only record segments, one writer each
    index.bin          framed index snapshot (atomic tmp+fsync+rename)
    stale-<ns>/        segments invalidated by a stamp skew
    quarantine/        flight-recorder dumps for quarantined entries

Record framing is ``MAGIC | u32 payload length | sha256(payload) |
payload`` where the payload is a pickled dict.  A torn write (crash or
``kill -9`` mid-append) leaves a half frame at the tail of one segment;
scanning stops cleanly at the first bad frame, so a torn tail can hide
records but never poison them.  Each process appends to its *own*
segment, so record writes need no lock; only index rotation and the
stamp check take the advisory ``flock``.

Integrity is layered:

* the sha256 framing catches torn writes and disk bit rot;
* the format-version / solver-revision stamp invalidates whole
  generations on skew (old segments move to ``stale-<ns>/``);
* validate-on-read re-reads the record bytes from disk on **every**
  ``get``, re-verifies the checksum, and runs the caller's validator on
  the value — SAT verdicts re-check their model against the concrete
  evaluator, UNSAT verdicts must carry the budget-independence marker
  (the validator lives at the call site).

Every entry point swallows its own failures: a broken store degrades to
a miss (or a dropped write), never an exception in the solver.  The
``store.read`` / ``store.write`` / ``store.lock`` / ``store.validate``
fault seams (:mod:`repro.faults`) let the chaos suite bit-flip records,
tear writes and force certificate rejections deterministically.
"""

import atexit
import hashlib
import json
import os
import pickle
import struct
import time
import uuid

try:
    import fcntl
except ImportError:                      # non-POSIX: no advisory locking
    fcntl = None

from repro import cache as _cache
from repro import faults as _faults
from repro.errors import StoreError
from repro.obs import current_metrics
from repro.obs.flight import FlightRecorder

MISSING = _cache.MISSING
"""Sentinel returned by :meth:`Store.get` on any miss (clean or quarantined)."""

MAGIC = b"RST1"
_HEADER = struct.Struct("<4sI32s")       # magic, payload length, sha256
MAX_RECORD = 64 * 1024 * 1024
FORMAT_VERSION = 1

SOLVER_REVISION = "verdict-only-1"
"""Bumped whenever a change invalidates persisted payloads (pickle
layouts, record kinds, certificate formats).  A store written under
another revision is moved aside wholesale, never reinterpreted."""


# -- keys --------------------------------------------------------------------


def key_digest(kind, key):
    """The stable index key: sha256 over ``repr((kind, key))``.  Keys are
    tuples of strings and numbers, whose ``repr`` is hash-seed-free."""
    rendered = repr((kind, key)).encode("utf-8")
    return hashlib.sha256(rendered).hexdigest()


# -- framing -----------------------------------------------------------------


def encode_record(record):
    """One framed record: header + pickled payload."""
    payload = pickle.dumps(record, protocol=4)
    if len(payload) > MAX_RECORD:
        raise StoreError("record exceeds the %d-byte frame cap" % MAX_RECORD)
    return _HEADER.pack(MAGIC, len(payload),
                        hashlib.sha256(payload).digest()) + payload


def scan_segment(path, start=0):
    """Parse framed records from *start*; returns ``(records, offset)``.

    *records* is ``[(offset, total_length, dict), ...]``; *offset* is the
    position after the last good frame.  Scanning stops cleanly at the
    first torn or corrupt frame — exactly the shape a crash mid-append
    leaves — so a bad tail hides records but never poisons a reader.
    """
    records = []
    offset = start
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                magic, length, digest = _HEADER.unpack(header)
                if magic != MAGIC or length > MAX_RECORD:
                    break
                payload = handle.read(length)
                if len(payload) < length:
                    break
                if hashlib.sha256(payload).digest() != digest:
                    break
                try:
                    record = pickle.loads(payload)
                except Exception:
                    break
                if not isinstance(record, dict):
                    break
                total = _HEADER.size + length
                records.append((offset, total, record))
                offset += total
    except OSError:
        pass
    return records, offset


def _flip_byte(data):
    """Mutator for the ``store.read``/``store.write`` corrupt seams:
    bit-flip one payload byte, modelling silent corruption the framing
    (write seam) or the post-checksum path (read seam) must absorb."""
    if not data:
        return data
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]


# -- the store ---------------------------------------------------------------


_COUNTER_NAMES = ("hits", "misses", "writes", "write_errors", "quarantined",
                  "revalidation_failures", "errors", "invalidated")


class Store:
    """One disk-backed store directory; see the module docstring.

    Public entry points (:meth:`get`, :meth:`put`, :meth:`refresh`,
    :meth:`save_index`) never raise for an internal failure — a broken
    store degrades to misses and dropped writes.
    """

    def __init__(self, root, revision=None, index_every=32):
        self.root = os.path.abspath(root)
        self.revision = revision or SOLVER_REVISION
        self.index_every = index_every
        self.counters = {name: 0 for name in _COUNTER_NAMES}
        self._index = {}          # digest -> (seq, segment, offset, len, tomb)
        self._scanned = {}        # segment basename -> scanned offset
        self._segment_name = None
        self._segment = None      # own append handle, opened lazily
        self._pending = 0
        self._last_seq = 0
        self._last_refresh = 0.0
        os.makedirs(self.root, exist_ok=True)
        if not os.path.isdir(self.root):
            raise StoreError("store root %r is not a directory" % self.root)
        self._flight = FlightRecorder(os.path.join(self.root, "quarantine"),
                                      source="store")
        self._check_stamp()
        self._load_index()
        self.refresh(force=True)
        atexit.register(self.save_index)

    # -- locking -------------------------------------------------------------

    class _locked:
        """Advisory exclusive lock on ``<root>/lock`` (a no-op where
        ``fcntl`` is unavailable)."""

        def __init__(self, store):
            self._path = os.path.join(store.root, "lock")
            self._handle = None

        def __enter__(self):
            if _faults.ARMED:
                _faults.point("store.lock")
            if fcntl is not None:
                self._handle = open(self._path, "a+")
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc):
            if self._handle is not None:
                try:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                finally:
                    self._handle.close()
            return False

    # -- stamp ---------------------------------------------------------------

    def _check_stamp(self):
        """Verify the format/revision stamp; skew moves the previous
        generation's segments and index into ``stale-<ns>/``."""
        stamp = {"format": FORMAT_VERSION, "revision": self.revision}
        meta_path = os.path.join(self.root, "meta.json")
        with self._locked(self):
            current = None
            try:
                with open(meta_path) as handle:
                    current = json.load(handle)
            except Exception:
                current = None
            if current == stamp:
                return
            moved = self._segment_names() + (
                ["index.bin"] if os.path.exists(
                    os.path.join(self.root, "index.bin")) else [])
            if moved and (current is not None or True):
                # Unstamped segments are just as unreadable as skewed
                # ones: without a stamp their revision is unknown.
                stale = os.path.join(self.root, "stale-%d" % time.time_ns())
                os.makedirs(stale, exist_ok=True)
                for name in moved:
                    try:
                        os.replace(os.path.join(self.root, name),
                                   os.path.join(stale, name))
                    except OSError:
                        pass
                self.counters["invalidated"] += 1
                metrics = current_metrics()
                if metrics.enabled:
                    metrics.add("store.invalidated")
            tmp = meta_path + ".tmp.%d" % os.getpid()
            with open(tmp, "w") as handle:
                handle.write(json.dumps(stamp, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, meta_path)

    # -- index persistence ---------------------------------------------------

    def _load_index(self):
        """Restore the index snapshot; any corruption falls back to a
        full segment rescan (the snapshot is an accelerator, not truth)."""
        path = os.path.join(self.root, "index.bin")
        if not os.path.exists(path):
            return
        records, _ = scan_segment(path)
        if not records:
            return
        doc = records[0][2]
        if doc.get("format") != FORMAT_VERSION \
                or doc.get("revision") != self.revision:
            return
        try:
            for digest, seq, segment, offset, length, tomb \
                    in doc["entries"]:
                self._index[digest] = (seq, segment, offset, length, tomb)
            self._scanned = dict(doc["scanned"])
        except Exception:
            self._index.clear()
            self._scanned = {}

    def save_index(self):
        """Atomically rotate the index snapshot (tmp+fsync+rename under
        the advisory lock); a reader that loses the race just rescans."""
        try:
            if self._segment is not None:
                self._segment.flush()
                os.fsync(self._segment.fileno())
            doc = {"format": FORMAT_VERSION, "revision": self.revision,
                   "scanned": dict(self._scanned),
                   "entries": [(digest,) + tuple(entry)
                               for digest, entry in self._index.items()]}
            data = encode_record(doc)
            with self._locked(self):
                tmp = os.path.join(self.root,
                                   ".index.tmp.%d" % os.getpid())
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, os.path.join(self.root, "index.bin"))
            self._pending = 0
            return True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self.counters["write_errors"] += 1
            return False

    # -- scanning ------------------------------------------------------------

    def _segment_names(self):
        try:
            return sorted(name for name in os.listdir(self.root)
                          if name.startswith("seg-")
                          and name.endswith(".log"))
        except OSError:
            return []

    def refresh(self, force=False):
        """Scan segment tails for records appended by other processes.

        Throttled (unless *force*): callers hit this on every index miss,
        and a directory listing per lookup would not be free.  A segment
        that *shrank* (external truncation) is dropped from the index and
        rescanned from the top — its surviving prefix is still good.
        """
        now = time.monotonic()
        if not force and now - self._last_refresh < 0.2:
            return
        self._last_refresh = now
        for name in self._segment_names():
            start = self._scanned.get(name, 0)
            path = os.path.join(self.root, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size < start:
                self._drop_segment(name)
                start = 0
            if size == start:
                continue
            records, good = scan_segment(path, start)
            for offset, total, record in records:
                self._apply(record, name, offset, total)
            self._scanned[name] = good

    def _drop_segment(self, name):
        for digest in [d for d, e in self._index.items() if e[1] == name]:
            del self._index[digest]
        self._scanned.pop(name, None)

    def _apply(self, record, segment, offset, total):
        digest = record.get("key")
        if not isinstance(digest, str):
            return
        seq = record.get("seq", 0)
        current = self._index.get(digest)
        if current is not None and current[0] >= seq:
            return
        self._index[digest] = (seq, segment, offset, total,
                               bool(record.get("tomb")))

    # -- appending -----------------------------------------------------------

    def _next_seq(self):
        seq = max(time.time_ns(), self._last_seq + 1)
        self._last_seq = seq
        return seq

    def _segment_handle(self):
        if self._segment is None:
            self._segment_name = "seg-%d-%s.log" % (os.getpid(),
                                                    uuid.uuid4().hex[:8])
            self._segment = open(os.path.join(self.root,
                                              self._segment_name), "ab")
        return self._segment

    def _append(self, data):
        handle = self._segment_handle()
        offset = handle.tell()
        handle.write(data)
        handle.flush()
        # Own records need no rescan; remember the tail we wrote.
        self._scanned[self._segment_name] = offset + len(data)
        return offset, len(data)

    # -- public API ----------------------------------------------------------

    def get(self, kind, key, validator=None):
        """The stored value for ``(kind, key)``, or :data:`MISSING`.

        Validate-on-read: the record bytes are re-read from disk and the
        checksum re-verified on every call, then *validator(value, meta)*
        must accept the payload.  Any failure tombstones the entry,
        bumps ``store.quarantined``, dumps a flight artifact, and
        reports a miss — a corrupt entry costs a recompute, never a
        wrong answer.  Never raises.
        """
        metrics = current_metrics()
        try:
            if _faults.ARMED:
                _faults.point("store.read")
            digest = key_digest(kind, key)
            entry = self._index.get(digest)
            if entry is None:
                self.refresh()
                entry = self._index.get(digest)
            if entry is None or entry[4]:
                self.counters["misses"] += 1
                if metrics.enabled:
                    metrics.add("store.misses")
                return MISSING
            _seq, segment, offset, total, _tomb = entry
            payload = self._read_payload(segment, offset, total)
            if payload is None:
                self._quarantine_entry(kind, digest, "checksum", segment,
                                       offset)
                return MISSING
            if _faults.ARMED:
                payload = _faults.corrupt("store.read", payload, _flip_byte)
            value, meta, ok = None, {}, False
            try:
                record = pickle.loads(payload)
                value = record.get("value")
                meta = record.get("meta") or {}
                ok = (record.get("kind") == kind
                      and record.get("key") == digest
                      and not record.get("tomb"))
            except Exception:
                ok = False
            if ok and validator is not None:
                try:
                    ok = bool(validator(value, meta))
                except Exception:
                    ok = False
            if _faults.ARMED:
                _faults.point("store.validate")
                ok = _faults.corrupt("store.validate", ok, lambda _: False)
            if not ok:
                self.counters["revalidation_failures"] += 1
                if metrics.enabled:
                    metrics.add("store.revalidation_failures")
                self._quarantine_entry(kind, digest, "validate", segment,
                                       offset)
                return MISSING
            self.counters["hits"] += 1
            if metrics.enabled:
                metrics.add("store.hits")
            return value
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self.counters["errors"] += 1
            if metrics.enabled:
                metrics.add("store.errors")
            return MISSING

    def _read_payload(self, segment, offset, total):
        """Re-read one frame from disk, verifying header and checksum."""
        try:
            with open(os.path.join(self.root, segment), "rb") as handle:
                handle.seek(offset)
                blob = handle.read(total)
        except OSError:
            return None
        if len(blob) != total or total < _HEADER.size:
            return None
        magic, length, digest = _HEADER.unpack_from(blob)
        payload = blob[_HEADER.size:]
        if magic != MAGIC or len(payload) != length:
            return None
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    def put(self, kind, key, value, meta=None):
        """Append ``(kind, key) -> value``; returns True when written.

        First write wins: a live entry is never overwritten, so
        re-recording a verdict does not grow the log.  Never raises; a
        failed write is dropped and counted (``store.write_errors``).
        """
        metrics = current_metrics()
        try:
            if _faults.ARMED:
                _faults.point("store.write")
            digest = key_digest(kind, key)
            entry = self._index.get(digest)
            if entry is not None and not entry[4]:
                return False
            record = {"kind": kind, "key": digest, "value": value,
                      "meta": dict(meta or {}), "seq": self._next_seq(),
                      "tomb": False}
            data = encode_record(record)
            if _faults.ARMED:
                data = _faults.corrupt("store.write", data, _flip_byte)
            offset, total = self._append(data)
            self._index[digest] = (record["seq"], self._segment_name,
                                   offset, total, False)
            self.counters["writes"] += 1
            if metrics.enabled:
                metrics.add("store.writes")
            self._pending += 1
            if self._pending >= self.index_every:
                self.save_index()
            return True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self.counters["write_errors"] += 1
            if metrics.enabled:
                metrics.add("store.write_errors")
            return False

    def _quarantine_entry(self, kind, digest, reason, segment=None,
                          offset=None):
        self.counters["quarantined"] += 1
        metrics = current_metrics()
        if metrics.enabled:
            metrics.add("store.quarantined")
        try:
            record = {"kind": kind, "key": digest, "value": None,
                      "meta": {"reason": reason}, "seq": self._next_seq(),
                      "tomb": True}
            off, total = self._append(encode_record(record))
            self._index[digest] = (record["seq"], self._segment_name, off,
                                   total, True)
        except Exception:
            # Even un-tombstonable (e.g. read-only disk), the entry is
            # still rejected on every future read by the same check.
            self.counters["write_errors"] += 1
        try:
            self._flight.dump(
                "store-quarantined",
                detail="%s %s: %s" % (kind, digest[:12], reason),
                entry={"name": digest, "kind": kind, "reason": reason,
                       "segment": segment, "offset": offset})
        except Exception:
            pass

    def stats(self):
        return {"entries": sum(1 for e in self._index.values() if not e[4]),
                "tombstones": sum(1 for e in self._index.values() if e[4]),
                "segments": len(self._segment_names()),
                **self.counters}

    def close(self):
        self.save_index()
        if self._segment is not None:
            try:
                self._segment.close()
            except OSError:
                pass
            self._segment = None

    def __repr__(self):
        return "Store(%s, entries=%d, hits=%d, misses=%d)" % (
            self.root, len(self._index), self.counters["hits"],
            self.counters["misses"])


# -- resolution --------------------------------------------------------------


_STORES = {}


def get_store(path, revision=None):
    """The process-wide :class:`Store` for *path* (one instance per
    directory), or None when it cannot be opened."""
    key = os.path.abspath(path)
    store = _STORES.get(key)
    if store is None:
        try:
            store = Store(key, revision=revision)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            return None
        _STORES[key] = store
    return store


def active_store(config):
    """The store at ``config.store_path`` for the current solve, or None.

    None when the config names no store, and whenever caching is
    disabled — the ``--no-cache`` contract covers persistence too.
    """
    if not _cache.enabled() or not config.use_caches \
            or not config.store_path:
        return None
    return get_store(config.store_path)


def reset():
    """Close and forget every open store (tests simulating a fresh
    worker boot; the on-disk state is untouched)."""
    for store in _STORES.values():
        try:
            store.close()
        except Exception:
            pass
    _STORES.clear()
