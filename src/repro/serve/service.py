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
* **Portfolio mode** — each request races one attempt per
  :class:`PortfolioEntry` (e.g. the default pipeline vs. its no-cache
  rung).  A SAT answer only wins after its model re-validates
  concretely (``strings/eval``); because SAT carries that
  certificate, a validated SAT finalizes immediately and cancels the
  losers.  UNSAT carries no certificate, so it waits for the remaining
  attempts: if a validated SAT then lands, the SAT-vs-UNSAT
  disagreement is logged, the fingerprint quarantined, and the request
  answered ``unknown(disagreement)`` — never a possibly-wrong verdict.
* **Graceful drain** — :meth:`SolverService.shutdown` stops intake,
  answers queued (not-yet-dispatched) requests ``unknown(shutdown)``,
  lets in-flight attempts finish or die at their deadline, and always
  reaps the pool.

Observability: queue-depth/inflight gauges, per-request spans
(``serve.request``), and counters for retries, quarantines, hard kills,
worker deaths, recycles and disagreements flow into the ambient
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

from repro import cache as _cache
from repro.config import SolverConfig
from repro.core.solver import SolveResult, TrauSolver
from repro.obs import current_metrics, current_tracer
from repro.obs.flight import FlightRecorder, request_entry
from repro.serve.pool import PoolEvent, WorkerPool
from repro.strings.eval import check_model

_TERMINAL = ("done", "failed", "timeout", "cancelled")


class PortfolioEntry:
    """One configuration racing in portfolio mode."""

    __slots__ = ("label", "config", "fault_specs")

    def __init__(self, label, config=None, fault_specs=()):
        self.label = label
        self.config = config or SolverConfig()
        self.fault_specs = tuple(fault_specs)

    def __repr__(self):
        return "PortfolioEntry(%s)" % self.label


def default_portfolio(base):
    """The stock race over the configured solver *base*: the pipeline as
    configured against its no-cache rung (diverse failure modes, same
    semantics and budgets)."""
    from dataclasses import replace
    return (PortfolioEntry("default", base),
            PortfolioEntry("no-cache", replace(base, use_caches=False)))


def problem_fingerprint(problem):
    """A stable identity for quarantine bookkeeping: the hash of the
    problem's canonical SMT-LIB rendering (pickle bytes as fallback)."""
    return _cache.problem_fingerprint(problem)


class ServeResult:
    """The one answer a request gets.

    ``status`` is an SMT verdict (``sat``/``unsat``/``unknown``);
    ``reason`` qualifies service-level unknowns (``overloaded``,
    ``poison``, ``shutdown``, ``disagreement``, ``timeout``,
    ``worker-death``) and :attr:`answer` renders the pair the way the
    issue tracker talks about it: ``unknown(poison)``.
    """

    __slots__ = ("name", "status", "reason", "model", "seconds", "stats",
                 "winner", "fingerprint", "retries", "worker_exits")

    def __init__(self, name, status, reason=None, model=None, seconds=0.0,
                 stats=None, winner=None, fingerprint=None, retries=0,
                 worker_exits=()):
        self.name = name
        self.status = status
        self.reason = reason
        self.model = model
        self.seconds = seconds
        self.stats = stats or {}
        self.winner = winner
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
            stats=dict(self.stats), winner=self.winner,
            fingerprint=self.fingerprint, retries=self.retries,
            worker_exits=list(self.worker_exits))

    def as_dict(self):
        row = {"name": self.name, "answer": self.answer,
               "status": self.status, "reason": self.reason,
               "seconds": self.seconds, "winner": self.winner,
               "fingerprint": self.fingerprint, "retries": self.retries,
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


class _Attempt:
    """One portfolio arm of one request."""

    __slots__ = ("entry", "ticket", "state", "result", "retries", "exits",
                 "not_before", "specs")

    def __init__(self, entry, specs):
        self.entry = entry
        self.specs = specs
        self.ticket = None
        self.state = "queued"    # queued|inflight|backoff|done|failed|
        self.result = None       # timeout|cancelled
        self.retries = 0
        self.exits = []


class _Request:
    """Service-side bookkeeping for one submitted problem.

    This object doubles as the public handle: callers read ``name``,
    ``done`` and ``result``.
    """

    __slots__ = ("rid", "name", "problem", "fingerprint", "attempts",
                 "result", "started", "timeout")

    def __init__(self, rid, name, problem, fingerprint, attempts,
                 timeout=None):
        self.rid = rid
        self.name = name
        self.problem = problem
        self.fingerprint = fingerprint
        self.attempts = attempts
        self.result = None
        self.started = time.monotonic()
        self.timeout = timeout

    @property
    def done(self):
        return self.result is not None


def _service_worker_init(flight_dir=None, slo_seconds=None, store_path=None):
    """Worker-side handler: one fresh TrauSolver per request (the
    process-wide memoization caches still persist across requests).

    *store_path* installs the shared persistent store as the worker's
    process default at boot, so every solve — and every recycled
    successor of this worker — reads and extends the same on-disk state.

    When a flight directory or SLO is configured the handler also keeps
    a :class:`FlightRecorder` ring and dumps it on the worker-side
    triggers — a degraded solve or a blown latency SLO.  (The
    parent-side triggers, hard-kill and quarantine, live in the service:
    a hung worker cannot write its own black box.)
    """
    if store_path:
        from repro import store as _store
        _store.set_default_path(store_path)
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
    """Corrupter for the ``serve.worker.result`` seam: fabricate the
    opposite verdict, modelling a wrong-but-plausible solver bug."""
    if result.status == "sat":
        return SolveResult("unsat", stats=dict(result.stats,
                                               fabricated=True))
    if result.status == "unsat":
        return SolveResult("sat", model={},
                           stats=dict(result.stats, fabricated=True))
    return result


class SolverService:
    """Supervised solving over a worker pool; see the module docstring.

    Single-config by default; pass ``portfolio`` (a sequence of
    :class:`PortfolioEntry`) to race variants per request.  The service
    is driven cooperatively: :meth:`submit` then :meth:`pump` until the
    handles are done, or use :meth:`run_batch` / :meth:`wait`.
    """

    def __init__(self, config=None, portfolio=None, jobs=2, timeout=10.0,
                 grace=2.0, queue_limit=64, max_retries=2,
                 quarantine_threshold=3, backoff_base=0.05, backoff_cap=1.0,
                 validate_models=True, max_requests_per_worker=64,
                 max_worker_rss=None, worker_fault_specs=(),
                 aggregator=None, flight_dir=None, slo_seconds=None,
                 store_path=None):
        if portfolio:
            self.entries = tuple(portfolio)
        else:
            self.entries = (PortfolioEntry("solo", config or SolverConfig()),)
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
        self._by_ticket = {}       # pool ticket -> (request, attempt)
        self._backoff = []         # [(request, attempt), ...] waiting
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
        self.store_path = store_path
        self.pool = WorkerPool(_service_worker_init,
                               init_args=(flight_dir, slo_seconds,
                                          store_path),
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

    def submit(self, problem, name=None, fault_specs=(),
               entry_fault_specs=None, timeout=None, fingerprint=None):
        """Enqueue *problem*; always returns a request handle that will
        carry exactly one :class:`ServeResult`.

        Overload, quarantine and drain answer immediately (the handle
        comes back already ``done``).  *fault_specs* arm serve-layer
        fault points around every attempt of this request;
        *entry_fault_specs* (``{label: specs}``) target one portfolio
        arm — both are chaos-testing instruments.  *timeout* overrides
        the service-wide solver budget for this request only — the
        deadline-propagation hook: the network front door passes each
        caller's remaining deadline here, the worker receives it as its
        solve budget, and retries are capped by what is left of it.
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
        entry_specs = entry_fault_specs or {}
        attempts = [
            _Attempt(entry, tuple(entry.fault_specs) + tuple(fault_specs)
                     + tuple(entry_specs.get(entry.label, ())))
            for entry in self.entries
        ]
        budget = self.timeout if timeout is None \
            else max(0.001, min(float(timeout), self.timeout))
        request = _Request(rid, name, problem, fingerprint, attempts,
                           timeout=budget)
        self._requests[rid] = request
        for attempt in attempts:
            self._launch(request, attempt)
        return request

    def _instant(self, rid, name, fingerprint, reason, counter):
        """A request answered at the door (reject/poison/shutdown)."""
        self._metrics().add(counter)
        request = _Request(rid, name, None, fingerprint, [])
        self._finalize(request, "unknown", reason=reason)
        return request

    def _launch(self, request, attempt):
        budget = request.timeout if request.timeout is not None \
            else self.timeout
        payload = (request.problem, attempt.entry.config, budget,
                   request.name, request.fingerprint)
        attempt.ticket = self.pool.submit(
            payload, timeout=budget + self.grace,
            fault_specs=attempt.specs)
        attempt.state = "inflight"
        self._by_ticket[attempt.ticket] = (request, attempt)

    # -- event loop ---------------------------------------------------------

    def pump(self, block=0.0):
        """Release due retries, drive the pool, process events, refresh
        gauges.  Returns the number of requests finalized this call."""
        now = time.monotonic()
        due = [pair for pair in self._backoff if pair[1].not_before <= now]
        if due:
            self._backoff = [p for p in self._backoff if p not in due]
            for request, attempt in due:
                if request.done:
                    continue
                self._launch(request, attempt)
        finalized = 0
        for event in self.pool.poll(block):
            # Ingest even for tickets no request is waiting on (late
            # results of cancelled attempts): the work happened, and the
            # aggregator's contract is one ingestion per shipped delta.
            if self.aggregator is not None and event.telemetry:
                self.aggregator.ingest(event.telemetry, worker=event.worker)
            mapped = self._by_ticket.pop(event.ticket, None)
            if mapped is None:
                continue
            request, attempt = mapped
            if request.done:
                continue
            if event.kind == PoolEvent.RESULT:
                self._on_result(request, attempt, event.value)
            elif event.kind == PoolEvent.DIED:
                self._on_death(request, attempt, event.exitcode)
            else:
                self._on_hard_kill(request, attempt)
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

    def _on_result(self, request, attempt, result):
        attempt.state = "done"
        if (result.status == "sat" and self.validate_models):
            model = result.model
            if model is None or not check_model(request.problem, model):
                self._metrics().add("serve.invalid_models")
                current_tracer().event("serve.invalid_model",
                                       request=request.name,
                                       entry=attempt.entry.label)
                result = SolveResult("unknown",
                                     stats=dict(result.stats,
                                                stopped_by="invalid-model"))
        attempt.result = result
        self._advance(request)

    def _on_death(self, request, attempt, exitcode):
        attempt.exits.append(exitcode)
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
        if self._draining or attempt.retries >= self.max_retries \
                or remaining <= 0:
            attempt.state = "failed"
            self._advance(request)
            return
        attempt.retries += 1
        self._metrics().add("serve.retries")
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (attempt.retries - 1)))
        delay *= 0.5 + self._rng.random()          # jitter in [0.5, 1.5)
        delay = min(delay, remaining)
        attempt.state = "backoff"
        attempt.not_before = time.monotonic() + delay
        self._backoff.append((request, attempt))

    def _on_hard_kill(self, request, attempt):
        attempt.exits.append("hard-killed")
        self._metrics().add("serve.hard_kills")
        if self._flight is not None:
            self._flight.dump(
                "hard-killed",
                detail="attempt %s exceeded its %.1fs deadline"
                % (attempt.entry.label, self.timeout + self.grace),
                entry=request_entry(
                    request.name, fingerprint=request.fingerprint,
                    verdict="hard-killed",
                    elapsed=time.monotonic() - request.started))
        if self._strike(request):
            return
        attempt.state = "timeout"
        self._advance(request)

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
            self._cancel_attempts(request)
            self._finalize(request, "unknown", reason=reason)

    def _cancel_attempts(self, request):
        for attempt in request.attempts:
            if attempt.state == "inflight":
                self.pool.cancel(attempt.ticket)
                self._by_ticket.pop(attempt.ticket, None)
                attempt.state = "cancelled"
            elif attempt.state in ("queued", "backoff"):
                attempt.state = "cancelled"
        self._backoff = [(r, a) for r, a in self._backoff
                         if r is not request]

    # -- verdict assembly ---------------------------------------------------

    def _advance(self, request):
        """Re-derive the request's verdict from its attempt states.

        A validated SAT finalizes immediately (it carries a concrete
        witness) and cancels the losers; UNSAT has no certificate, so it
        waits for every attempt before it is trusted; SAT-vs-UNSAT is a
        disagreement and never yields a verdict.
        """
        if request.done:
            return
        sats = [a for a in request.attempts
                if a.state == "done" and a.result.status == "sat"]
        unsats = [a for a in request.attempts
                  if a.state == "done" and a.result.status == "unsat"]
        if sats and unsats:
            self._disagreement(request, sats[0], unsats[0])
            return
        if sats:
            winner = sats[0]
            self._cancel_attempts(request)
            self._finalize(request, "sat", model=winner.result.model,
                           stats=winner.result.stats,
                           winner=winner.entry.label)
            return
        if any(a.state not in _TERMINAL for a in request.attempts):
            return
        if unsats:
            winner = unsats[0]
            self._finalize(request, "unsat", stats=winner.result.stats,
                           winner=winner.entry.label)
            return
        reason = None
        stats = {}
        if any(a.state == "timeout" for a in request.attempts):
            reason = "timeout"
        elif any(a.state == "failed" for a in request.attempts):
            reason = "worker-death"
        for attempt in request.attempts:
            if attempt.state == "done":
                stats = attempt.result.stats
                reason = reason or stats.get("stopped_by")
                break
        self._finalize(request, "unknown", reason=reason, stats=stats)

    def _disagreement(self, request, sat_attempt, unsat_attempt):
        """A SAT-vs-UNSAT split between portfolio arms: one solver lied.
        Log it, quarantine the fingerprint, and refuse to pick a side."""
        metrics = self._metrics()
        metrics.add("serve.disagreements")
        current_tracer().event(
            "serve.disagreement", request=request.name,
            fingerprint=request.fingerprint,
            sat_entry=sat_attempt.entry.label,
            unsat_entry=unsat_attempt.entry.label)
        self._cancel_attempts(request)
        # _quarantine finalizes this request (and any open siblings)
        # with the quarantine reason.
        self._quarantine(request.fingerprint, "disagreement")

    def _finalize(self, request, status, reason=None, model=None,
                  stats=None, winner=None):
        if request.done:
            return
        retries = sum(a.retries for a in request.attempts)
        exits = [code for a in request.attempts for code in a.exits]
        seconds = time.monotonic() - request.started
        request.result = ServeResult(
            request.name, status, reason=reason, model=model,
            seconds=seconds, stats=dict(stats or {}), winner=winner,
            fingerprint=request.fingerprint, retries=retries,
            worker_exits=exits)
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
                winner=winner, retries=retries)

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
        answer ``unknown(shutdown)`` now, queued/backoff attempts are
        cancelled, and (with *keep_inflight*) attempts already on a
        worker keep running — keep pumping and they finish or die at
        their deadline.  The async front door drains this way so its
        event loop never blocks.  Idempotent.
        """
        self._draining = True
        metrics = self._metrics()
        for request in list(self._requests.values()):
            running = any(a.state == "inflight"
                          and self.pool.is_inflight(a.ticket)
                          for a in request.attempts)
            if keep_inflight and running:
                # Give up on the arms that have not started; keep the
                # running ones (they finish or die at their deadline).
                for attempt in request.attempts:
                    if attempt.state in ("queued", "backoff"):
                        attempt.state = "cancelled"
                    elif (attempt.state == "inflight"
                          and self.pool.is_pending(attempt.ticket)):
                        self.pool.cancel(attempt.ticket)
                        self._by_ticket.pop(attempt.ticket, None)
                        attempt.state = "cancelled"
                self._backoff = [(r, a) for r, a in self._backoff
                                 if r is not request]
                self._advance(request)
            else:
                self._cancel_attempts(request)
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
