"""Multi-shard request router with circuit breakers and coalescing.

The network front door (:mod:`repro.serve.net`) terminates sockets; this
module owns everything between the wire and the
:class:`~repro.serve.service.SolverService` shards:

* **Sharding** — problems hash by fingerprint across N shards, each a
  full ``SolverService`` (its own supervised worker pool), so one
  pathological instance saturates one shard's workers, not the fleet,
  and shard state (poison quarantine, strikes) stays bounded.
* **Request coalescing** — identical-fingerprint requests in flight
  share a single solve: the first becomes the *leader*, later arrivals
  attach as *followers* and are answered from the leader's result.  For
  CI-style traffic (the same query from a hundred jobs) this is the
  single biggest capacity lever.
* **Front-door verdict cache** — finished ``sat``/``unsat`` verdicts are
  kept in an LRU of :data:`CACHE_SIZE` entries so repeats are answered
  without touching a worker at all.  Only definite verdicts are cached;
  service-level unknowns (``overloaded``, ``timeout``...) always
  re-solve.  Coalescing and this cache are always on.
* **Circuit breakers** — each shard carries a breaker that trips after
  ``breaker_threshold`` *consecutive* infrastructure failures
  (worker deaths / hard-kill timeouts — never solver UNKNOWNs, which
  are a legitimate answer for this workload).  An open breaker routes
  around the shard; after ``breaker_cooldown`` seconds one half-open
  probe is let through and its outcome closes or re-opens the breaker.
* **Kill / restart** — :meth:`ShardRouter.kill_shard` tears a shard down
  the hard way (chaos instrument and admin endpoint): its open requests
  are answered ``unknown(shutdown)`` by the service drain, and the
  router *reroutes* each one once to a healthy shard when the caller's
  deadline still has budget.  :meth:`ShardRouter.restart_shard` (or the
  ``restart_after`` timer) brings a fresh shard up on the same slot —
  with a shared persistent store it warm-starts from disk.

The router is deliberately synchronous (drive it with :meth:`pump`, as
the service is driven): the asyncio front door owns the event loop and
the tests own a deterministic clock.  The ``net.route`` fault seam fires
inside :meth:`submit`, so chaos tests can fail routing itself.
"""

import time
import zlib
from collections import OrderedDict

from repro import faults as _faults
from repro.serve.service import ServeResult, problem_fingerprint

_INFRA_REASONS = ("timeout", "worker-death")

CACHE_SIZE = 1024
"""Entries in the front-door verdict cache (least recently used out)."""


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    States: ``closed`` (healthy), ``open`` (tripped, routed around until
    *cooldown* elapses), ``half-open`` (one probe admitted; its outcome
    decides).  Deterministic given a clock, so tests inject their own.
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_at",
                 "probing", "trips", "_clock")

    def __init__(self, threshold=3, cooldown=2.0, clock=time.monotonic):
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self.failures = 0          # consecutive
        self.opened_at = None      # monotonic trip time, None when closed
        self.probing = False       # a half-open probe is in flight
        self.trips = 0
        self._clock = clock

    @property
    def state(self):
        if self.opened_at is None:
            return "closed"
        if self._clock() - self.opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self):
        """May a request be routed through?  A half-open breaker admits
        exactly one probe at a time."""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self.probing:
            self.probing = True
            return True
        return False

    def record_success(self):
        self.failures = 0
        self.opened_at = None
        self.probing = False

    def record_failure(self):
        self.failures += 1
        self.probing = False
        if self.opened_at is not None or self.failures >= self.threshold:
            # Re-arm the cooldown (a failed probe re-opens the breaker).
            if self.opened_at is None:
                self.trips += 1
            self.opened_at = self._clock()

    def __repr__(self):
        return "CircuitBreaker(%s, failures=%d)" % (self.state,
                                                    self.failures)


class RouterTicket:
    """The router-side handle for one submitted request."""

    __slots__ = ("name", "fingerprint", "shard", "result", "deadline_at",
                 "coalesced", "reroutes", "submitted")

    def __init__(self, name, fingerprint, shard=None, deadline_at=None):
        self.name = name
        self.fingerprint = fingerprint
        self.shard = shard          # home shard index, None pre-route
        self.result = None
        self.deadline_at = deadline_at
        self.coalesced = False
        self.reroutes = 0
        self.submitted = time.monotonic()

    @property
    def done(self):
        return self.result is not None


class _Flight:
    """One in-flight solve: the service handle plus everyone waiting."""

    __slots__ = ("handle", "shard", "leader", "followers", "timeout")

    def __init__(self, handle, shard, leader, timeout):
        self.handle = handle
        self.shard = shard
        self.leader = leader
        self.followers = []
        self.timeout = timeout


class _Shard:
    """One slot of the ring: a service, its breaker, and liveness."""

    __slots__ = ("index", "service", "breaker", "alive", "killed_at")

    def __init__(self, index, service, breaker):
        self.index = index
        self.service = service
        self.breaker = breaker
        self.alive = True
        self.killed_at = None


class ShardRouter:
    """Route problems across N :class:`SolverService` shards.

    *shard_factory* is ``factory(index) -> SolverService``; the router
    owns the services it builds (and rebuilds on restart).  *metrics*
    is where ``net.*`` routing counters go (the front door passes its
    aggregator's registry); the default is a silent no-op.
    """

    def __init__(self, shard_factory, shards=2, breaker_threshold=3,
                 breaker_cooldown=2.0, restart_after=None, metrics=None,
                 clock=time.monotonic):
        self._factory = shard_factory
        self.restart_after = restart_after
        self._clock = clock
        self._breaker_args = (breaker_threshold, breaker_cooldown)
        self._metrics = metrics
        self._shards = [
            _Shard(i, shard_factory(i),
                   CircuitBreaker(breaker_threshold, breaker_cooldown,
                                  clock=clock))
            for i in range(max(1, int(shards)))
        ]
        self._flights = {}         # fingerprint -> _Flight
        self._cache = OrderedDict()  # fingerprint -> ServeResult template
        self.counters = {
            "routed": 0, "coalesced": 0, "cache_hits": 0, "rerouted": 0,
            "unavailable": 0, "shard_kills": 0, "shard_restarts": 0,
            "breaker_trips": 0,
        }
        self._draining = False

    # -- introspection -------------------------------------------------------

    @property
    def shard_count(self):
        return len(self._shards)

    @property
    def open_flights(self):
        return len(self._flights)

    def shard_states(self):
        """``[{shard, alive, breaker, open_requests}, ...]`` for the
        admin endpoint and the tests."""
        return [{"shard": s.index, "alive": s.alive,
                 "breaker": s.breaker.state,
                 "open_requests": s.service.open_requests if s.alive else 0}
                for s in self._shards]

    def _count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value
        if self._metrics is not None:
            self._metrics.add("net.%s" % name, value)

    # -- submission ----------------------------------------------------------

    def route(self, fingerprint):
        """The shard for *fingerprint*: its hash-home when healthy, else
        the next healthy slot on the ring, else None (no capacity)."""
        if _faults.ARMED:
            _faults.point("net.route")
        n = len(self._shards)
        home = zlib.crc32(fingerprint.encode("utf-8", "replace")) % n
        for step in range(n):
            shard = self._shards[(home + step) % n]
            if shard.alive and shard.breaker.allow():
                if step:
                    self._count("rerouted")
                return shard
        return None

    def submit(self, problem, name=None, timeout=None, fingerprint=None):
        """Admit one problem; always returns a :class:`RouterTicket`
        that will carry exactly one :class:`ServeResult`.

        *timeout* is the caller's **remaining deadline** in seconds; it
        becomes the shard's per-request solver budget and bounds any
        reroute after a shard death.
        """
        if fingerprint is None:
            fingerprint = problem_fingerprint(problem)
        name = name or "req"
        deadline_at = None if timeout is None else self._clock() + timeout
        ticket = RouterTicket(name, fingerprint, deadline_at=deadline_at)
        if self._draining:
            self._finish(ticket, self._instant(name, "shutdown"))
            return ticket
        cached = self._cache_get(fingerprint)
        if cached is not None:
            self._count("cache_hits")
            self._finish(ticket, cached.copy(name=name))
            return ticket
        flight = self._flights.get(fingerprint)
        if flight is not None:
            ticket.coalesced = True
            ticket.shard = flight.shard.index
            flight.followers.append(ticket)
            self._count("coalesced")
            return ticket
        self._launch(ticket, problem, timeout)
        return ticket

    def _launch(self, ticket, problem, timeout):
        shard = self.route(ticket.fingerprint)
        if shard is None:
            self._count("unavailable")
            self._finish(ticket, self._instant(ticket.name, "unavailable"))
            return
        ticket.shard = shard.index
        handle = shard.service.submit(problem, name=ticket.name,
                                      timeout=timeout,
                                      fingerprint=ticket.fingerprint)
        self._count("routed")
        if handle.done:
            # Answered at the service door (overload/quarantine/drain):
            # not an infrastructure failure, no flight to track.
            self._finish(ticket, handle.result)
            return
        self._flights[ticket.fingerprint] = _Flight(handle, shard, ticket,
                                                    timeout)

    def _instant(self, name, reason):
        return ServeResult(name, "unknown", reason=reason)

    # -- driving -------------------------------------------------------------

    def pump(self, block=0.0):
        """Drive every live shard, settle finished flights, run breaker
        and restart bookkeeping.  Returns tickets finalized this call."""
        finalized = 0
        per_shard = block / max(1, len(self._shards))
        for shard in self._shards:
            if shard.alive:
                shard.service.pump(per_shard)
        for fingerprint in list(self._flights):
            flight = self._flights[fingerprint]
            if not flight.handle.done:
                continue
            del self._flights[fingerprint]
            finalized += self._settle_flight(flight)
        self._maybe_restart()
        self._export_gauges()
        return finalized

    def _settle_flight(self, flight):
        result = flight.handle.result
        shard = flight.shard
        count = 0
        tickets = [flight.leader] + flight.followers
        if (result.reason == "shutdown" and not shard.alive
                and not self._draining):
            # The shard died under this request; give each waiter one
            # reroute to a healthy shard, inside what is left of its
            # deadline.  (The problem object still lives on the handle.)
            problem = getattr(flight.handle, "problem", None)
            for ticket in tickets:
                if problem is not None and self._reroute(ticket, problem):
                    continue
                self._finish(ticket, result.copy(name=ticket.name))
                count += 1
            return count
        for ticket in tickets:
            self._finish(ticket, result if result.name == ticket.name
                         else result.copy(name=ticket.name))
            count += 1
        # One breaker judgement per flight, not per waiter.
        self._judge(shard, result)
        return count

    def _reroute(self, ticket, problem):
        """Resubmit *ticket* once after a shard death; False when its
        deadline is spent or it was already rerouted."""
        if ticket.reroutes >= 1:
            return False
        remaining = None
        if ticket.deadline_at is not None:
            remaining = ticket.deadline_at - self._clock()
            if remaining <= 0.005:
                return False
        ticket.reroutes += 1
        self._count("rerouted")
        cached = self._cache_get(ticket.fingerprint)
        if cached is not None:
            self._count("cache_hits")
            self._finish(ticket, cached.copy(name=ticket.name))
            return True
        flight = self._flights.get(ticket.fingerprint)
        if flight is not None:
            ticket.coalesced = True
            ticket.shard = flight.shard.index
            flight.followers.append(ticket)
            self._count("coalesced")
            return True
        self._launch(ticket, problem, remaining)
        return True

    def _judge(self, shard, result):
        """Breaker bookkeeping: infra failures count, verdicts clear."""
        if result.reason in _INFRA_REASONS:
            before = shard.breaker.state
            shard.breaker.record_failure()
            if before != "open" and shard.breaker.state == "open":
                self._count("breaker_trips")
        elif result.status in ("sat", "unsat") or result.reason is None:
            shard.breaker.record_success()
        else:
            # Service-door answers (overloaded, poison, shutdown) and
            # solver unknowns: neutral for the probe, but they do end it.
            shard.breaker.probing = False

    def _finish(self, ticket, result):
        if ticket.result is not None:
            return
        ticket.result = result
        if result.status in ("sat", "unsat"):
            self._cache_put(ticket.fingerprint, result)

    # -- verdict cache -------------------------------------------------------

    def _cache_get(self, fingerprint):
        result = self._cache.get(fingerprint)
        if result is not None:
            self._cache.move_to_end(fingerprint)
        return result

    def _cache_put(self, fingerprint, result):
        if result.reason is not None:
            return
        template = result.copy()
        template.stats = dict(template.stats, served_from="router-cache")
        template.seconds = 0.0
        self._cache[fingerprint] = template
        if len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)

    # -- chaos & lifecycle ---------------------------------------------------

    def kill_shard(self, index):
        """Hard-stop shard *index*: its open requests answer
        ``unknown(shutdown)`` (then get one reroute each), its workers
        are reaped, and the slot stays dark until restarted."""
        shard = self._shards[index]
        if not shard.alive:
            return False
        shard.alive = False
        shard.killed_at = self._clock()
        self._count("shard_kills")
        shard.service.shutdown(drain=False)
        # Settle the dead shard's flights now so waiters reroute
        # immediately instead of on the next pump.
        for fingerprint in list(self._flights):
            flight = self._flights[fingerprint]
            if flight.shard is shard and flight.handle.done:
                del self._flights[fingerprint]
                self._settle_flight(flight)
        self._export_gauges()
        return True

    def restart_shard(self, index):
        """Bring a fresh service up on slot *index* (no-op when live)."""
        shard = self._shards[index]
        if shard.alive:
            return False
        shard.service = self._factory(index)
        shard.breaker = CircuitBreaker(self._breaker_args[0],
                                       self._breaker_args[1],
                                       clock=self._clock)
        shard.alive = True
        shard.killed_at = None
        self._count("shard_restarts")
        self._export_gauges()
        return True

    def _maybe_restart(self):
        if self.restart_after is None:
            return
        now = self._clock()
        for shard in self._shards:
            if (not shard.alive and shard.killed_at is not None
                    and now - shard.killed_at >= self.restart_after):
                self.restart_shard(shard.index)

    def _export_gauges(self):
        if self._metrics is None:
            return
        self._metrics.gauge("net.shards_alive",
                            sum(1 for s in self._shards if s.alive))
        self._metrics.gauge("net.shards_total", len(self._shards))
        self._metrics.gauge("net.breakers_open",
                            sum(1 for s in self._shards
                                if s.alive and s.breaker.state != "closed"))
        self._metrics.gauge("net.open_flights", len(self._flights))

    def wait(self, ticket, poll=0.02):
        """Pump until *ticket* is answered; returns its ServeResult."""
        while not ticket.done:
            self.pump(poll)
        return ticket.result

    def begin_drain(self):
        """Non-blocking graceful drain: stop intake everywhere (new
        submissions answer ``unknown(shutdown)``), cancel queued work,
        keep in-flight attempts running.  Keep pumping until
        :attr:`open_flights` reaches zero, then call :meth:`shutdown`
        to reap the pools — the async front door's SIGTERM path."""
        self._draining = True
        for shard in self._shards:
            if shard.alive:
                shard.service.begin_drain()

    def shutdown(self, drain=True, poll=0.02):
        """Stop intake and tear every shard down; every outstanding
        ticket is answered (a drained shard finishes in-flight work
        first).  Idempotent."""
        self._draining = True
        for shard in self._shards:
            if shard.alive:
                shard.service.shutdown(drain=drain, poll=poll)
        for fingerprint in list(self._flights):
            flight = self._flights.pop(fingerprint)
            result = flight.handle.result or \
                self._instant(flight.leader.name, "shutdown")
            for ticket in [flight.leader] + flight.followers:
                self._finish(ticket, result.copy(name=ticket.name))
        for shard in self._shards:
            shard.alive = False
        self._export_gauges()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown(drain=exc_type is None)
        return False
