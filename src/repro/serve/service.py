"""SolverService — a supervised, backpressured solving front-end.

PR 3 made one solve resilient (degradation ladder, budgets, fault
drills); this layer makes *many concurrent solves* resilient.  String
logic with string-number conversion is undecidable in general, so hangs
and UNKNOWNs are a permanent fact of the workload — the service's job is
to guarantee that, whatever a single instance does, **every submitted
request gets exactly one answer** and no instance can starve or take
down the rest.

The moving parts, on top of :class:`~repro.serve.pool.WorkerPool`:

* **Bounded intake** — at most ``queue_limit`` requests may be open at
  once; :meth:`SolverService.submit` answers ``unknown(overloaded)``
  immediately beyond that, so the queue can never grow without bound
  (reject, don't buffer: the caller owns its retry policy).
* **Retry with backoff** — a worker *death* (crash, OOM kill) retries
  the attempt up to ``max_retries`` times with exponential backoff plus
  deterministic jitter.  A *hang* (hard-killed at deadline) is not
  retried: the deadline already cost its full budget once.
* **Poison-pill quarantine** — each death or hang strikes the request's
  problem *fingerprint* (a hash of its canonical SMT-LIB rendering).  At
  ``quarantine_threshold`` strikes the fingerprint is quarantined:
  every open and future request for it answers ``unknown(poison)``
  without burning another worker — the circuit breaker that stops one
  pathological instance from chewing through the pool.
* **One attempt per request** — each request runs the configured
  pipeline once (worker-death retries aside).  A SAT answer is returned
  only after its model re-validates concretely (``strings/eval``); a
  model that fails answers ``unknown(invalid-model)``.
* **Graceful drain** — :meth:`SolverService.shutdown` stops intake,
  answers queued (not-yet-dispatched) requests ``unknown(shutdown)``,
  lets in-flight attempts finish or die at their deadline, and always
  reaps the pool.

Observability: queue-depth/inflight gauges, per-request spans
(``serve.request``), and counters for retries, quarantines, hard kills,
worker deaths, recycles and invalid models flow into the ambient
:mod:`repro.obs` scope — or, when the service is built with an
``aggregator`` (a :class:`~repro.obs.pipeline.TelemetryAggregator`),
into its central registry alongside the per-request deltas shipped back
from the workers, so one snapshot holds the whole story.  ``flight_dir``
/ ``slo_seconds`` arm the :mod:`repro.obs.flight` recorder: workers dump
on degradation or a blown SLO, the service dumps on hard kills and
quarantines.
"""

import random
import time
from dataclasses import replace

from repro import cache as _cache
from repro.config import SolverConfig
from repro.core.solver import SolveResult, TrauSolver
from repro.obs import current_metrics, current_tracer
from repro.obs.flight import FlightRecorder, request_entry
from repro.serve.pool import PoolEvent, WorkerPool
from repro.strings.eval import check_model


def problem_fingerprint(problem):
    """A stable identity for quarantine bookkeeping: the hash of the
    problem's canonical SMT-LIB rendering (pickle bytes as fallback)."""
    return _cache.problem_fingerprint(problem)


class ServeResult:
    """The one answer a request gets.

    ``status`` is an SMT verdict (``sat``/``unsat``/``unknown``);
    ``reason`` qualifies service-level unknowns (``overloaded``,
    ``poison``, ``shutdown``, ``timeout``, ``worker-death``,
    ``invalid-model``) and :attr:`answer` renders the pair the way the
    issue tracker talks about it: ``unknown(poison)``.
    """

    __slots__ = ("name", "status", "reason", "model", "seconds", "stats",
                 "fingerprint", "retries", "worker_exits")

    def __init__(self, name, status, reason=None, model=None, seconds=0.0,
                 stats=None, fingerprint=None, retries=0, worker_exits=()):
        self.name = name
        self.status = status
        self.reason = reason
        self.model = model
        self.seconds = seconds
        self.stats = stats or {}
        self.fingerprint = fingerprint
        self.retries = retries
        self.worker_exits = list(worker_exits)

    @property
    def answer(self):
        if self.reason:
            return "%s(%s)" % (self.status, self.reason)
        return self.status

    def copy(self, name=None):
        """A shallow duplicate, optionally renamed — how the router
        answers coalesced followers and cache hits from one solve."""
        return ServeResult(
            self.name if name is None else name, self.status,
            reason=self.reason, model=self.model, seconds=self.seconds,
            stats=dict(self.stats), fingerprint=self.fingerprint,
            retries=self.retries, worker_exits=list(self.worker_exits))

    def as_dict(self):
        row = {"name": self.name, "answer": self.answer,
               "status": self.status, "reason": self.reason,
               "seconds": self.seconds, "fingerprint": self.fingerprint,
               "retries": self.retries,
               "worker_exits": list(self.worker_exits)}
        # Failure-analysis stats earn top-level columns: before this the
        # worker's degradation story survived only inside the stats blob
        # and the batch reports never showed it.
        for key in ("degraded_to", "stopped_by", "budget_tripped",
                    "degradations"):
            if key in self.stats:
                row[key] = self.stats[key]
        if self.stats:
            row["stats"] = dict(self.stats)
        return row

    def __repr__(self):
        return "ServeResult(%s, %s)" % (self.name, self.answer)


class _Request:
    """Service-side bookkeeping for one submitted problem and its one
    attempt on the pool.

    This object doubles as the public handle: callers read ``name``,
    ``done`` and ``result``.
    """

    __slots__ = ("rid", "name", "problem", "fingerprint", "specs",
                 "ticket", "state", "retries", "exits",
                 "not_before", "result", "started", "timeout")

    def __init__(self, rid, name, problem, fingerprint, specs=(),
                 timeout=None):
        self.rid = rid
        self.name = name
        self.problem = problem
        self.fingerprint = fingerprint
        self.specs = specs
        self.ticket = None
        self.state = None        # "inflight" or "backoff" while open
        self.retries = 0
        self.exits = []
        self.not_before = 0.0
        self.result = None
        self.started = time.monotonic()
        self.timeout = timeout

    @property
    def done(self):
        return self.result is not None


def _service_worker_init(flight_dir=None, slo_seconds=None):
    """Worker-side handler: one fresh TrauSolver per request (the
    process-wide memoization caches still persist across requests).
    Each request carries its config, and with it the persistent store
    that every worker — and every recycled successor — reads and
    extends.

    When a flight directory or SLO is configured the handler also keeps
    a :class:`FlightRecorder` ring and dumps it on the worker-side
    triggers — a degraded solve or a blown latency SLO.  (The
    parent-side triggers, hard-kill and quarantine, live in the service:
    a hung worker cannot write its own black box.)
    """
    recorder = None
    if flight_dir is not None or slo_seconds is not None:
        recorder = FlightRecorder(flight_dir, source="worker")

    def handler(payload):
        problem, config, timeout, name, fingerprint = payload
        started = time.monotonic()
        result = TrauSolver(config=config).solve(problem, timeout=timeout)
        if recorder is not None:
            elapsed = time.monotonic() - started
            tracer = current_tracer()
            spans = None
            if tracer.enabled:
                from repro.obs.pipeline import span_records
                spans = span_records(tracer)
            recorder.push(request_entry(
                name, fingerprint=fingerprint, verdict=result.status,
                elapsed=elapsed, stats=result.stats, spans=spans))
            if result.stats.get("degraded_to"):
                recorder.dump(
                    "degraded",
                    detail="degraded to %s" % result.stats["degraded_to"])
            elif slo_seconds is not None and elapsed > slo_seconds:
                recorder.dump(
                    "slo",
                    detail="%.3fs over the %.3fs latency SLO"
                    % (elapsed, slo_seconds))
        return result
    return handler


def flip_verdict(result):
    """Corrupter for the ``serve.worker.result`` seam: turn an UNSAT
    verdict into SAT with an empty model, modelling a wrong-but-plausible
    solver bug that the service's model re-check must catch."""
    if result.status == "unsat":
        return SolveResult("sat", model={},
                           stats=dict(result.stats, fabricated=True))
    return result


class SolverService:
    """Supervised solving over a worker pool; see the module docstring.

    The service is driven cooperatively: :meth:`submit` then
    :meth:`pump` until the handles are done, or use :meth:`run_batch` /
    :meth:`wait`.

    *store_path* is shorthand for ``config.store_path``: it is folded
    into the config that every request ships to its worker, so all
    workers share one persistent verdict store.
    """

    def __init__(self, config=None, jobs=2, timeout=10.0, grace=2.0,
                 queue_limit=64, max_retries=2,
                 quarantine_threshold=3, backoff_base=0.05, backoff_cap=1.0,
                 validate_models=True, max_requests_per_worker=64,
                 max_worker_rss=None, worker_fault_specs=(),
                 aggregator=None, flight_dir=None, slo_seconds=None,
                 store_path=None):
        self.config = config or SolverConfig()
        if store_path:
            self.config = replace(self.config, store_path=store_path)
        self.timeout = float(timeout)
        self.grace = float(grace)
        self.queue_limit = int(queue_limit)
        self.max_retries = int(max_retries)
        self.quarantine_threshold = int(quarantine_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.validate_models = validate_models
        self._rng = random.Random(0xC0FFEE)   # deterministic jitter
        self._draining = False
        self._requests = {}        # rid -> _Request (open only)
        self._by_ticket = {}       # pool ticket -> request
        self._backoff = []         # requests waiting to retry
        self._strikes = {}         # fingerprint -> kill/hang count
        self._quarantined = {}     # fingerprint -> reason
        self._next_rid = 0
        self.answered = 0
        self.submitted = 0
        self.aggregator = aggregator
        self.slo_seconds = slo_seconds
        # Worker telemetry is on whenever anything consumes it: an
        # aggregator to ship deltas to, or flight/SLO triggers that need
        # the per-request span trees.
        telemetry = (aggregator is not None or flight_dir is not None
                     or slo_seconds is not None)
        self._flight = FlightRecorder(flight_dir, source="service") \
            if flight_dir is not None else None
        sink = None
        if aggregator is not None:
            def sink(delta, pid):
                aggregator.ingest(delta, worker=pid)
        self.pool = WorkerPool(_service_worker_init,
                               init_args=(flight_dir, slo_seconds),
                               jobs=jobs, grace=grace,
                               max_requests=max_requests_per_worker,
                               max_rss=max_worker_rss,
                               corrupter=flip_verdict,
                               worker_fault_specs=worker_fault_specs,
                               telemetry=telemetry, telemetry_sink=sink)

    def _metrics(self):
        """Where serve.* instruments go: the aggregator's central
        registry when one is attached (so ``--metrics-out`` snapshots
        and ``repro top`` see them), else the ambient scope."""
        if self.aggregator is not None:
            return self.aggregator.metrics
        return current_metrics()

    # -- intake -------------------------------------------------------------

    @property
    def open_requests(self):
        return len(self._requests)

    def quarantined(self, problem=None, fingerprint=None):
        """The quarantine reason for *problem* (or raw fingerprint), or
        None when it is clean."""
        if fingerprint is None:
            fingerprint = problem_fingerprint(problem)
        return self._quarantined.get(fingerprint)

    def submit(self, problem, name=None, fault_specs=(), timeout=None,
               fingerprint=None):
        """Enqueue *problem*; always returns a request handle that will
        carry exactly one :class:`ServeResult`.

        Overload, quarantine and drain answer immediately (the handle
        comes back already ``done``).  *fault_specs* arm serve-layer
        fault points around every attempt of this request — a
        chaos-testing instrument.  *timeout* overrides the service-wide
        solver budget for this request only — the deadline-propagation
        hook: the network front door passes each caller's remaining
        deadline here, the worker receives it as its solve budget, and
        retries are capped by what is left of it.
        """
        metrics = self._metrics()
        metrics.add("serve.requests")
        self.submitted += 1
        rid = self._next_rid
        self._next_rid += 1
        name = name or ("req-%d" % rid)
        if fingerprint is None:
            fingerprint = problem_fingerprint(problem)
        if self._draining:
            return self._instant(rid, name, fingerprint, "shutdown",
                                 "serve.shutdown_answers")
        if fingerprint in self._quarantined:
            metrics.add("serve.poisoned")
            return self._instant(rid, name, fingerprint,
                                 self._quarantined[fingerprint],
                                 "serve.poisoned_answers")
        if len(self._requests) >= self.queue_limit:
            metrics.add("serve.rejected")
            return self._instant(rid, name, fingerprint, "overloaded",
                                 "serve.overloaded_answers")
        budget = self.timeout if timeout is None \
            else max(0.001, min(float(timeout), self.timeout))
        request = _Request(rid, name, problem, fingerprint,
                           tuple(fault_specs), timeout=budget)
        self._requests[rid] = request
        self._launch(request)
        return request

    def _instant(self, rid, name, fingerprint, reason, counter):
        """A request answered at the door (reject/poison/shutdown)."""
        self._metrics().add(counter)
        request = _Request(rid, name, None, fingerprint)
        self._finalize(request, "unknown", reason=reason)
        return request

    def _launch(self, request):
        budget = request.timeout if request.timeout is not None \
            else self.timeout
        payload = (request.problem, self.config, budget, request.name,
                   request.fingerprint)
        request.ticket = self.pool.submit(
            payload, timeout=budget + self.grace, fault_specs=request.specs)
        request.state = "inflight"
        self._by_ticket[request.ticket] = request

    # -- event loop ---------------------------------------------------------

    def pump(self, block=0.0):
        """Release due retries, drive the pool, process events, refresh
        gauges.  Returns the number of requests finalized this call."""
        now = time.monotonic()
        due = [r for r in self._backoff if r.not_before <= now]
        if due:
            self._backoff = [r for r in self._backoff if r.not_before > now]
            for request in due:
                if not request.done:
                    self._launch(request)
        finalized = 0
        for event in self.pool.poll(block):
            # Ingest even for tickets no request is waiting on (late
            # results of cancelled attempts): the work happened, and the
            # aggregator's contract is one ingestion per shipped delta.
            if self.aggregator is not None and event.telemetry:
                self.aggregator.ingest(event.telemetry, worker=event.worker)
            request = self._by_ticket.pop(event.ticket, None)
            if request is None or request.done:
                continue
            if event.kind == PoolEvent.RESULT:
                self._on_result(request, event.value)
            elif event.kind == PoolEvent.DIED:
                self._on_death(request, event.exitcode)
            else:
                self._on_hard_kill(request)
            if request.done:
                finalized += 1
        metrics = self._metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue_depth", self.pool.pending_count)
            metrics.gauge("serve.inflight", self.pool.inflight_count)
            metrics.gauge("serve.open_requests", len(self._requests))
            for key, value in self.pool.counters.items():
                metrics.gauge("serve.pool.%s" % key, value)
        return finalized

    def _on_result(self, request, result):
        if (result.status == "sat" and self.validate_models):
            model = result.model
            if model is None or not check_model(request.problem, model):
                self._metrics().add("serve.invalid_models")
                current_tracer().event("serve.invalid_model",
                                       request=request.name)
                result = SolveResult("unknown",
                                     stats=dict(result.stats,
                                                stopped_by="invalid-model"))
        reason = result.stats.get("stopped_by") \
            if result.status == "unknown" else None
        self._finalize(request, result.status, reason=reason,
                       model=result.model, stats=result.stats)

    def _on_death(self, request, exitcode):
        request.exits.append(exitcode)
        self._metrics().add("serve.worker_deaths")
        if self._strike(request):
            return
        # A retry only makes sense while the request still has budget: a
        # backoff longer than what remains of timeout+grace would sleep
        # through the whole deadline and fail anyway, later.
        budget = request.timeout if request.timeout is not None \
            else self.timeout
        remaining = (request.started + budget + self.grace
                     - time.monotonic())
        if self._draining or request.retries >= self.max_retries \
                or remaining <= 0:
            self._finalize(request, "unknown", reason="worker-death")
            return
        request.retries += 1
        self._metrics().add("serve.retries")
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (request.retries - 1)))
        delay *= 0.5 + self._rng.random()          # jitter in [0.5, 1.5)
        delay = min(delay, remaining)
        request.state = "backoff"
        request.not_before = time.monotonic() + delay
        self._backoff.append(request)

    def _on_hard_kill(self, request):
        request.exits.append("hard-killed")
        self._metrics().add("serve.hard_kills")
        if self._flight is not None:
            self._flight.dump(
                "hard-killed",
                detail="request %s exceeded its %.1fs deadline"
                % (request.name, self.timeout + self.grace),
                entry=request_entry(
                    request.name, fingerprint=request.fingerprint,
                    verdict="hard-killed",
                    elapsed=time.monotonic() - request.started))
        if self._strike(request):
            return
        self._finalize(request, "unknown", reason="timeout")

    # -- quarantine ---------------------------------------------------------

    def _strike(self, request):
        """Charge a kill/hang to the request's fingerprint; True when the
        strike tripped the circuit breaker (requests finalized)."""
        fingerprint = request.fingerprint
        count = self._strikes.get(fingerprint, 0) + 1
        self._strikes[fingerprint] = count
        if count < self.quarantine_threshold:
            return False
        self._quarantine(fingerprint, "poison")
        return True

    def _quarantine(self, fingerprint, reason):
        if fingerprint not in self._quarantined:
            self._quarantined[fingerprint] = reason
            self._metrics().add("serve.quarantined")
            current_tracer().event("serve.quarantine",
                                   fingerprint=fingerprint, reason=reason)
            if self._flight is not None:
                self._flight.dump(
                    "quarantined",
                    detail="fingerprint %s: %s" % (fingerprint, reason))
        # Fail every open request for the poisoned fingerprint without
        # burning another worker.
        for request in [r for r in self._requests.values()
                        if r.fingerprint == fingerprint]:
            self._cancel_attempt(request)
            self._finalize(request, "unknown", reason=reason)

    def _cancel_attempt(self, request):
        """Abandon an open request's attempt: off the pool, or out of
        the retry queue."""
        if request.state == "inflight":
            self.pool.cancel(request.ticket)
            self._by_ticket.pop(request.ticket, None)
        elif request.state == "backoff":
            self._backoff = [r for r in self._backoff if r is not request]

    # -- answers ------------------------------------------------------------

    def _finalize(self, request, status, reason=None, model=None,
                  stats=None):
        if request.done:
            return
        seconds = time.monotonic() - request.started
        request.result = ServeResult(
            request.name, status, reason=reason, model=model,
            seconds=seconds, stats=dict(stats or {}),
            fingerprint=request.fingerprint, retries=request.retries,
            worker_exits=request.exits)
        self._requests.pop(request.rid, None)
        self.answered += 1
        if self._flight is not None:
            self._flight.push(request_entry(
                request.name, fingerprint=request.fingerprint,
                verdict=request.result.answer, elapsed=seconds,
                stats=request.result.stats))
        metrics = self._metrics()
        metrics.add("serve.answers")
        metrics.add("serve.answers.%s" % status)
        if self.aggregator is not None:
            metrics.observe("phase.serve.request_s", seconds)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.record_span(
                "serve.request", request.started, time.monotonic(),
                request=request.name, status=status, reason=reason,
                retries=request.retries)

    # -- driving ------------------------------------------------------------

    def wait(self, handle, poll=0.05):
        """Pump until *handle* is answered; returns its ServeResult."""
        while not handle.done:
            self.pump(poll)
        return handle.result

    def drain(self, poll=0.05):
        """Pump until every open request is answered."""
        while self._requests:
            self.pump(poll)

    def run_batch(self, items, poll=0.05, should_stop=None):
        """Solve ``[(name, problem), ...]`` through the service; returns
        the aligned list of :class:`ServeResult`.

        Backpressure is honoured by waiting (pumping) for queue space
        rather than rejecting.  When *should_stop* returns True the
        service drains: already-running work finishes or dies at its
        deadline, everything else — including not-yet-submitted items —
        is answered ``unknown(shutdown)``.
        """
        handles = []
        stopped = False
        for name, problem in items:
            if should_stop is not None and should_stop():
                stopped = True
            if stopped:
                handles.append(ServeResult(name, "unknown",
                                           reason="shutdown"))
                continue
            while (len(self._requests) >= self.queue_limit
                   and not self._draining):
                self.pump(poll)
            handles.append(self.submit(problem, name=name))
            self.pump(0.0)
        if stopped:
            self.shutdown(drain=True, poll=poll)
        else:
            self.drain(poll)
        return [h.result if isinstance(h, _Request) else h for h in handles]

    # -- teardown -----------------------------------------------------------

    def begin_drain(self, keep_inflight=True):
        """Stop intake without blocking: requests with nothing running
        answer ``unknown(shutdown)`` now, and (with *keep_inflight*)
        attempts already on a worker keep running — keep pumping and they
        finish or die at their deadline.  The async front door drains
        this way so its event loop never blocks.  Idempotent.
        """
        self._draining = True
        metrics = self._metrics()
        for request in list(self._requests.values()):
            if keep_inflight and self.pool.is_inflight(request.ticket):
                continue
            self._cancel_attempt(request)
            metrics.add("serve.shutdown_answers")
            self._finalize(request, "unknown", reason="shutdown")

    def shutdown(self, drain=True, poll=0.05):
        """Stop intake and reap the pool.

        With *drain* (the default), queued-but-not-dispatched requests
        answer ``unknown(shutdown)`` immediately, in-flight attempts run
        to completion or to their hard deadline, and only then is the
        pool torn down.  Without it everything open answers
        ``unknown(shutdown)`` and the pool is reaped at once.  Either
        way no request is ever left unanswered and no child process
        survives.  Idempotent.
        """
        self.begin_drain(keep_inflight=drain)
        if drain:
            self.drain(poll)
        self.pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown(drain=exc_type is None)
        return False
