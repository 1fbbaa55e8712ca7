"""Spawn-based supervised worker process pool.

The process-supervision logic every long-running consumer needs — hard
deadlines, crash detection, worker recycling — extracted from the bench
runner's private ``_spawn``/hard-kill bookkeeping and generalized so the
benchmark grid, the :class:`~repro.serve.service.SolverService`, and any
future batch front-end share exactly one implementation.

Model
-----

A :class:`WorkerPool` keeps ``jobs`` long-lived **spawn** worker
processes (spawn, not fork: a wedged or corrupted parent heap is never
inherited, matching how SMT-COMP-style portfolio runners sandbox
queries).  Each worker boots by calling a picklable *initializer* once to
build its handler, sends a ``ready`` handshake, then serves requests off
a duplex pipe.  The parent is purely event-driven:

* :meth:`WorkerPool.submit` queues a payload and returns an integer
  ticket; pending work is dispatched to *ready* idle workers only, so a
  request's hard deadline never includes interpreter boot time.
* :meth:`WorkerPool.poll` drives dispatch and supervision and returns
  :class:`PoolEvent` records — ``result`` (the handler's return value),
  ``died`` (the worker process exited before replying; carries the exit
  code), or ``killed`` (the request outlived its deadline and the worker
  was hard-killed: SIGTERM, one second of grace, then SIGKILL).
* A worker that dies or is killed is replaced immediately, so the pool
  always holds ``jobs`` workers; a worker that dies *before* its ready
  handshake counts toward a consecutive-boot-failure cap so a broken
  environment fails fast instead of spawn-looping.

Retry policy deliberately lives in the caller: the bench runner requeues
once and classifies, the service retries with backoff and quarantines.

Health & hygiene
----------------

Workers are recycled (quit + fresh spawn) after ``max_requests`` served
or once their resident set exceeds ``max_rss`` bytes (read from
``/proc``; the check degrades to a no-op where that is unavailable), so
an interpreter that slowly leaks cannot grow without bound.
:meth:`WorkerPool.healthcheck` sweeps idle workers and replaces any that
died silently.  :meth:`WorkerPool.shutdown` always reaps: quits idle
workers, hard-kills busy ones, and joins everything.

Telemetry
---------

With ``telemetry=True`` each request runs inside a fresh
:mod:`repro.obs` scope in the worker and its delta (counters,
histograms, per-phase durations, bounded span records) is shipped in the
result envelope (surfaced as :attr:`PoolEvent.telemetry`); periodic
worker-lifetime flushes go to ``telemetry_sink(delta, pid)``.  See
:mod:`repro.obs.pipeline` for the protocol contract.

Fault injection
---------------

The worker loop plants the ``serve.worker.request`` and
``serve.worker.result`` seams from :data:`repro.faults.CATALOG` and arms
``REPRO_INJECT_FAULT`` in every worker, so chaos tests can hang, crash,
or corrupt a worker *from the inside*.  Per-request specs travel with
:meth:`WorkerPool.submit` and are armed only around that request.
"""

import collections
import multiprocessing
import os
import time
from multiprocessing import connection as _mpconn

from repro import faults as _faults

_BOOT_FAILURE_CAP = 3

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):
    _PAGE_SIZE = 4096


def rss_bytes(pid):
    """Resident set size of *pid* in bytes, or None where unknowable."""
    try:
        with open("/proc/%d/statm" % pid) as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


class PoolEvent:
    """One supervision outcome surfaced by :meth:`WorkerPool.poll`.

    With pool telemetry on, ``result`` events additionally carry the
    worker's per-request telemetry delta (see
    :mod:`repro.obs.pipeline`) and the worker pid that produced it.
    """

    __slots__ = ("kind", "ticket", "value", "exitcode", "telemetry",
                 "worker")

    RESULT = "result"
    DIED = "died"
    KILLED = "killed"

    def __init__(self, kind, ticket, value=None, exitcode=None,
                 telemetry=None, worker=None):
        self.kind = kind
        self.ticket = ticket
        self.value = value
        self.exitcode = exitcode
        self.telemetry = telemetry
        self.worker = worker

    def __repr__(self):
        return "PoolEvent(%s, ticket=%d)" % (self.kind, self.ticket)


class _Worker:
    """One pool process: its pipe, serve count, and in-flight state."""

    __slots__ = ("process", "conn", "ready", "served", "ticket", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.ready = False
        self.served = 0
        self.ticket = None      # in-flight ticket, None when idle
        self.deadline = None    # monotonic hard-kill time for the ticket


class _Pending:
    """One queued request."""

    __slots__ = ("ticket", "payload", "timeout", "specs")

    def __init__(self, ticket, payload, timeout, specs):
        self.ticket = ticket
        self.payload = payload
        self.timeout = timeout
        self.specs = specs


class WorkerPool:
    """A fixed-size pool of supervised spawn workers.

    *initializer* is a picklable callable run once inside each fresh
    worker with *init_args*; it returns the request handler
    (``handler(payload) -> result``).  *corrupter* is an optional
    picklable mutator used by the ``serve.worker.result`` corrupt seam.
    *timeout* on :meth:`submit` is the hard-kill deadline in seconds,
    measured from dispatch to a ready worker; callers fold their grace
    period in.
    """

    def __init__(self, initializer, init_args=(), jobs=2, grace=5.0,
                 max_requests=None, max_rss=None, corrupter=None,
                 worker_fault_specs=(), telemetry=False,
                 telemetry_sink=None, telemetry_flush_every=16):
        self._initializer = initializer
        self._init_args = tuple(init_args)
        self.jobs = max(1, int(jobs))
        self.grace = float(grace)
        self.max_requests = max_requests
        self.max_rss = max_rss
        self._corrupter = corrupter
        self._worker_fault_specs = tuple(worker_fault_specs)
        self.telemetry = bool(telemetry)
        self._telemetry_sink = telemetry_sink
        self._telemetry_flush_every = max(1, int(telemetry_flush_every))
        self._ctx = multiprocessing.get_context("spawn")
        self._workers = []
        self._pending = collections.deque()
        self._inflight = {}          # ticket -> _Worker
        self._next_ticket = 0
        self._boot_failures = 0
        self._closed = False
        self.counters = {"spawned": 0, "recycled": 0, "hard_kills": 0,
                         "deaths": 0, "cancelled": 0}
        for _ in range(self.jobs):
            self._workers.append(self._spawn_worker())

    # -- introspection ------------------------------------------------------

    @property
    def pending_count(self):
        return len(self._pending)

    @property
    def inflight_count(self):
        return len(self._inflight)

    @property
    def worker_count(self):
        return len(self._workers)

    def is_inflight(self, ticket):
        return ticket in self._inflight

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._initializer, self._init_args,
                  self._corrupter, self._worker_fault_specs,
                  self.telemetry, self._telemetry_flush_every),
            daemon=True)
        process.start()
        child_conn.close()
        self.counters["spawned"] += 1
        return _Worker(process, parent_conn)

    def _replace(self, worker):
        """Swap a dead/killed/retired worker for a fresh one."""
        try:
            worker.conn.close()
        except OSError:
            pass
        fresh = self._spawn_worker()
        self._workers[self._workers.index(worker)] = fresh
        return fresh

    def _hard_kill(self, process):
        """Terminate, then SIGKILL if it ignores that; always join."""
        process.terminate()
        process.join(1.0)
        if process.is_alive():
            process.kill()
            process.join()

    def _retire(self, worker):
        """Graceful quit of an idle worker, then replace it."""
        try:
            worker.conn.send(("quit",))
        except (OSError, ValueError):
            pass
        worker.process.join(1.0)
        if worker.process.is_alive():
            self._hard_kill(worker.process)
        self._replace(worker)

    def _maybe_recycle(self, worker):
        """Retire *worker* when its request count or RSS crossed the
        recycling ceilings (idle workers only)."""
        over_count = (self.max_requests is not None
                      and worker.served >= self.max_requests)
        over_rss = False
        if not over_count and self.max_rss is not None:
            rss = rss_bytes(worker.process.pid)
            over_rss = rss is not None and rss > self.max_rss
        if over_count or over_rss:
            self.counters["recycled"] += 1
            self._retire(worker)

    def healthcheck(self):
        """Replace idle workers that died silently; returns the number of
        live workers after the sweep."""
        for worker in list(self._workers):
            if worker.ticket is None and not worker.process.is_alive():
                self._note_boot_failure(worker)
                self.counters["deaths"] += 1
                self._replace(worker)
        return sum(1 for w in self._workers if w.process.is_alive())

    def _note_boot_failure(self, worker):
        if worker.ready:
            self._boot_failures = 0
            return
        self._boot_failures += 1
        if self._boot_failures >= _BOOT_FAILURE_CAP:
            self.shutdown()
            raise RuntimeError(
                "worker pool: %d consecutive workers died before their "
                "ready handshake (exit code %s); refusing to spawn-loop"
                % (self._boot_failures, worker.process.exitcode))

    # -- submission & supervision -------------------------------------------

    def submit(self, payload, timeout, fault_specs=(), front=False):
        """Queue *payload*; returns the ticket.  The request is
        hard-killed *timeout* seconds after dispatch to a worker."""
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        ticket = self._next_ticket
        self._next_ticket += 1
        item = _Pending(ticket, payload, float(timeout), tuple(fault_specs))
        if front:
            self._pending.appendleft(item)
        else:
            self._pending.append(item)
        self._dispatch()
        return ticket

    def cancel(self, ticket):
        """Abandon *ticket*: dequeue it, or hard-kill the worker running
        it (the worker is replaced).  True if there was anything to
        cancel; no event is ever emitted for a cancelled ticket."""
        for item in self._pending:
            if item.ticket == ticket:
                self._pending.remove(item)
                self.counters["cancelled"] += 1
                return True
        worker = self._inflight.pop(ticket, None)
        if worker is not None:
            self._hard_kill(worker.process)
            self.counters["cancelled"] += 1
            self._replace(worker)
            return True
        return False

    def _dispatch(self):
        for worker in self._workers:
            if not self._pending:
                break
            if worker.ticket is not None or not worker.ready:
                continue
            item = self._pending[0]
            try:
                worker.conn.send(("req", item.ticket, item.payload,
                                  item.specs))
            except (OSError, ValueError):
                # Died since we last looked; poll() will reap it.
                continue
            self._pending.popleft()
            worker.ticket = item.ticket
            worker.deadline = time.monotonic() + item.timeout
            self._inflight[item.ticket] = worker

    def _wait_timeout(self, block):
        deadlines = [w.deadline for w in self._workers
                     if w.ticket is not None]
        timeout = max(0.0, float(block))
        if deadlines:
            timeout = min(timeout,
                          max(0.0, min(deadlines) - time.monotonic()))
        return timeout

    def poll(self, block=0.0):
        """Dispatch pending work, wait up to *block* seconds for worker
        traffic, enforce deadlines; returns a list of :class:`PoolEvent`.
        """
        self._dispatch()
        events = []
        conns = {w.conn: w for w in self._workers}
        ready = _mpconn.wait(list(conns), self._wait_timeout(block)) \
            if conns else []
        for conn in ready:
            worker = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._on_death(worker, events)
                continue
            kind = message[0]
            if kind == "ready":
                worker.ready = True
                self._boot_failures = 0
            elif kind == "tel":
                # Periodic worker-lifetime flush; never an event.
                if self._telemetry_sink is not None:
                    self._telemetry_sink(message[1], worker.process.pid)
            elif kind == "res":
                ticket, value = message[1], message[2]
                delta = message[3] if len(message) > 3 else None
                if self._inflight.get(ticket) is worker:
                    del self._inflight[ticket]
                    events.append(PoolEvent(PoolEvent.RESULT, ticket,
                                            value=value, telemetry=delta,
                                            worker=worker.process.pid))
                worker.ticket = None
                worker.deadline = None
                worker.served += 1
                self._maybe_recycle(worker)
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.ticket is not None and worker.deadline <= now:
                ticket = worker.ticket
                self._inflight.pop(ticket, None)
                self._hard_kill(worker.process)
                self.counters["hard_kills"] += 1
                events.append(PoolEvent(PoolEvent.KILLED, ticket,
                                        exitcode=worker.process.exitcode))
                self._replace(worker)
        self._dispatch()
        return events

    def _on_death(self, worker, events):
        worker.process.join(self.grace)
        exitcode = worker.process.exitcode
        ticket = worker.ticket
        if ticket is not None:
            self._inflight.pop(ticket, None)
            self.counters["deaths"] += 1
            events.append(PoolEvent(PoolEvent.DIED, ticket,
                                    exitcode=exitcode))
            self._replace(worker)
        else:
            self.counters["deaths"] += 1
            self._note_boot_failure(worker)
            self._replace(worker)

    # -- teardown -----------------------------------------------------------

    def shutdown(self):
        """Reap everything: quit idle workers, hard-kill busy ones, join
        and close every pipe.  Pending work is dropped (callers drain
        first if they care).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        self._inflight.clear()
        for worker in self._workers:
            if worker.ticket is None and worker.process.is_alive():
                try:
                    worker.conn.send(("quit",))
                except (OSError, ValueError):
                    pass
        for worker in self._workers:
            worker.process.join(1.0)
            if worker.process.is_alive():
                self._hard_kill(worker.process)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False


def _pool_worker_main(conn, initializer, init_args, corrupter, worker_specs,
                      telemetry=False, flush_every=16):
    """Child entry point: build the handler once, then serve requests.

    Handler exceptions are deliberately *not* caught: an escape kills the
    process and the parent classifies it as a worker death — which is
    exactly how the ``serve.worker.request`` raise seam models a crash.

    With *telemetry* on, each request runs under a **fresh** tracer and
    metrics registry (installed as the ambient obs scope so the handler
    and everything below it report into it) and the resulting delta rides
    fourth in the ``res`` message; worker-lifetime stats (request count,
    RSS, uptime) are flushed as ``tel`` messages every *flush_every*
    requests and reset, keeping every shipped delta disjoint.
    """
    _faults.arm_from_env()
    for spec in worker_specs:
        _faults.arm(_faults.parse_spec(spec))
    if telemetry:
        from repro.obs.metrics import Metrics
        from repro.obs.pipeline import encode_metrics, telemetry_delta
        from repro.obs.tracer import Tracer, scope
        life = Metrics()
        boot = time.monotonic()
    handler = initializer(*init_args)
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "quit":
            break
        _, ticket, payload, specs = message
        if telemetry:
            tracer, metrics = Tracer(), Metrics()
            with _faults.injected(specs=specs):
                with scope(tracer, metrics):
                    if _faults.ARMED:
                        _faults.point("serve.worker.request")
                    result = handler(payload)
                    if _faults.ARMED:
                        _faults.point("serve.worker.result")
                        if corrupter is not None:
                            result = _faults.corrupt(
                                "serve.worker.result", result, corrupter)
            conn.send(("res", ticket, result,
                       telemetry_delta(tracer, metrics)))
            life.add("worker.requests")
            if life.counters["worker.requests"] >= flush_every:
                life.gauge("worker.uptime_s", time.monotonic() - boot)
                rss = rss_bytes(os.getpid())
                if rss is not None:
                    life.gauge("worker.rss_bytes", rss)
                conn.send(("tel", encode_metrics(life)))
                life = Metrics()
            continue
        with _faults.injected(specs=specs):
            if _faults.ARMED:
                _faults.point("serve.worker.request")
            result = handler(payload)
            if _faults.ARMED:
                _faults.point("serve.worker.result")
                if corrupter is not None:
                    result = _faults.corrupt("serve.worker.result", result,
                                             corrupter)
        conn.send(("res", ticket, result))
    if telemetry and life.counters:
        try:
            conn.send(("tel", encode_metrics(life)))
        except (OSError, ValueError):
            pass
    conn.close()
