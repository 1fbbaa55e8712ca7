"""Unit tests for :mod:`repro.serve.router` — deterministic, no real
worker processes.

The router only needs its shards to look like ``SolverService`` (submit
returning a handle, pump, drain, shutdown), so these tests drive it with
an in-memory fake whose flights finish exactly when the test says so:
breaker transitions, coalescing, cache hits, kill-and-reroute all become
single-threaded assertions.  The network-level tests with real services
live in ``test_net.py``.
"""

import pytest

from repro import faults
from repro.errors import FaultInjected
from repro.serve.router import CircuitBreaker, ShardRouter
from repro.serve.service import ServeResult
from repro.strings import ProblemBuilder


def sat_problem(chars="ab"):
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[%s]{2}" % chars)
    return builder.problem


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FakeHandle:
    def __init__(self, problem, name):
        self.problem = problem
        self.name = name
        self.done = False
        self.result = None


class FakeService:
    """Just enough SolverService surface for the router: flights finish
    when the test calls :meth:`finish`."""

    def __init__(self, index):
        self.index = index
        self.handles = []
        self.draining = False
        self.dead = False
        self.door_reason = None      # answer instantly at the door

    @property
    def open_requests(self):
        return sum(1 for h in self.handles if not h.done)

    def submit(self, problem, name=None, timeout=None, fingerprint=None):
        handle = FakeHandle(problem, name)
        if self.door_reason is not None:
            handle.done = True
            handle.result = ServeResult(name, "unknown",
                                        reason=self.door_reason)
        self.handles.append(handle)
        return handle

    def pump(self, block=0.0):
        return 0

    def begin_drain(self, keep_inflight=True):
        self.draining = True

    def shutdown(self, drain=True, poll=0.02):
        self.dead = True
        for handle in self.handles:
            if not handle.done:
                handle.done = True
                handle.result = ServeResult(handle.name, "unknown",
                                            reason="shutdown")

    def finish(self, index=-1, status="sat", reason=None):
        handle = self.handles[index]
        handle.done = True
        handle.result = ServeResult(handle.name, status, reason=reason)
        return handle


def make_router(shards=2, clock=None, **kwargs):
    services = {}

    def factory(index):
        services[index] = FakeService(index)
        return services[index]

    router = ShardRouter(factory, shards=shards,
                         clock=clock or FakeClock(), **kwargs)
    return router, services


def shard_of(router, services, ticket):
    return services[ticket.shard]


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()             # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half-open"
        assert breaker.allow()               # the probe
        assert not breaker.allow()           # only one at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_rearms_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1            # a re-arm is not a new trip


class TestRouting:
    def test_same_fingerprint_same_shard(self):
        router, services = make_router(shards=3)
        problem = sat_problem()
        first = router.submit(problem)
        shard_of(router, services, first).finish(status="sat")
        router.pump()
        assert first.result.status == "sat"
        # The first router's cache would answer a repeat without a
        # route; a fresh router shows the routing.
        router2, services2 = make_router(shards=3)
        a = router2.submit(problem)
        b = router2.submit(sat_problem("cd"))
        c = router2.submit(problem)          # coalesces onto a's flight
        assert a.shard == c.shard
        assert c.coalesced

    def test_coalesced_followers_share_the_result(self):
        router, services = make_router(shards=1)
        problem = sat_problem()
        leader = router.submit(problem, name="leader")
        follower = router.submit(problem, name="follower")
        assert follower.coalesced and not leader.coalesced
        assert services[0].open_requests == 1          # one real solve
        services[0].finish(status="sat")
        router.pump()
        assert leader.result.status == "sat"
        assert follower.result.status == "sat"
        assert follower.result.name == "follower"      # renamed copy
        assert router.counters["coalesced"] == 1

    def test_verdict_cache_serves_repeats_without_a_worker(self):
        router, services = make_router(shards=1)
        problem = sat_problem()
        first = router.submit(problem)
        services[0].finish(status="unsat")
        router.pump()
        repeat = router.submit(problem)
        assert repeat.done
        assert repeat.result.status == "unsat"
        assert repeat.result.stats.get("served_from") == "router-cache"
        assert router.counters["cache_hits"] == 1
        assert len(services[0].handles) == 1           # no second solve

    def test_unknowns_are_never_cached(self):
        router, services = make_router(shards=1)
        problem = sat_problem()
        router.submit(problem)
        services[0].finish(status="unknown", reason="timeout")
        router.pump()
        again = router.submit(problem)
        assert not again.done                          # re-solves
        assert len(services[0].handles) == 2

    def test_door_answers_are_not_flights(self):
        router, services = make_router(shards=1)
        services[0].door_reason = "overloaded"
        ticket = router.submit(sat_problem())
        assert ticket.done
        assert ticket.result.answer == "unknown(overloaded)"
        assert router.open_flights == 0


class TestBreakersAndFailover:
    def test_breaker_opens_after_infra_failures_and_reroutes(self):
        clock = FakeClock()
        router, services = make_router(shards=2, clock=clock,
                                       breaker_threshold=2,
                                       breaker_cooldown=10.0)
        problem = sat_problem()
        home = router.submit(problem).shard
        for _ in range(2):
            services[home].finish(status="unknown", reason="timeout")
            router.pump()
            router.submit(problem)
        # Third submit finds the home breaker open: ring walks on.
        rerouted = router.submit(sat_problem("xy"))
        # Whichever shard that landed on, the tripped one takes nothing.
        states = {s["shard"]: s["breaker"] for s in router.shard_states()}
        assert states[home] == "open"
        assert router.counters["breaker_trips"] == 1

    def test_all_shards_down_answers_unavailable(self):
        router, services = make_router(shards=1, breaker_threshold=1)
        problem = sat_problem()
        router.submit(problem)
        services[0].finish(status="unknown", reason="worker-death")
        router.pump()
        ticket = router.submit(problem)
        assert ticket.done
        assert ticket.result.answer == "unknown(unavailable)"
        assert router.counters["unavailable"] == 1

    def test_kill_shard_reroutes_inflight_to_survivor(self):
        router, services = make_router(shards=2)
        problem = sat_problem()
        ticket = router.submit(problem, timeout=30.0)
        victim = ticket.shard
        survivor = 1 - victim
        router.kill_shard(victim)
        # The dead shard answered shutdown; the router relaunched the
        # request on the survivor within its remaining deadline.
        assert not ticket.done
        assert ticket.reroutes == 1
        assert services[survivor].open_requests == 1
        services[survivor].finish(status="sat")
        router.pump()
        assert ticket.result.status == "sat"
        assert router.counters["shard_kills"] == 1

    def test_rerouted_follower_reports_the_survivor(self):
        router, services = make_router(shards=2)
        problem = sat_problem()
        leader = router.submit(problem, name="leader", timeout=30.0)
        follower = router.submit(problem, name="follower", timeout=30.0)
        assert follower.coalesced
        victim = leader.shard
        survivor = 1 - victim
        router.kill_shard(victim)
        # The leader relaunches on the survivor and the follower
        # coalesces onto that new flight: one solve answers both.
        assert services[survivor].open_requests == 1
        services[survivor].finish(status="sat")
        router.pump()
        assert leader.result.status == "sat"
        assert follower.result.status == "sat"
        assert leader.shard == survivor
        assert follower.shard == survivor

    def test_kill_shard_with_spent_deadline_answers_shutdown(self):
        clock = FakeClock()
        router, services = make_router(shards=2, clock=clock)
        ticket = router.submit(sat_problem(), timeout=5.0)
        clock.advance(6.0)                   # the caller is gone
        router.kill_shard(ticket.shard)
        assert ticket.done
        assert ticket.result.answer == "unknown(shutdown)"
        assert ticket.reroutes == 0

    def test_restart_brings_a_fresh_shard_up(self):
        router, services = make_router(shards=2)
        assert router.kill_shard(0)
        assert not router.kill_shard(0)      # idempotent
        dead = services[0]
        assert router.restart_shard(0)
        assert services[0] is not dead       # factory built a new one
        states = router.shard_states()
        assert all(s["alive"] for s in states)

    def test_restart_after_timer(self):
        clock = FakeClock()
        router, services = make_router(shards=2, clock=clock,
                                       restart_after=3.0)
        router.kill_shard(1)
        router.pump()
        assert not router.shard_states()[1]["alive"]
        clock.advance(3.0)
        router.pump()
        assert router.shard_states()[1]["alive"]
        assert router.counters["shard_restarts"] == 1


class TestLifecycle:
    def test_draining_router_answers_shutdown_at_the_door(self):
        router, services = make_router(shards=1)
        router.begin_drain()
        ticket = router.submit(sat_problem())
        assert ticket.done
        assert ticket.result.answer == "unknown(shutdown)"
        assert services[0].draining

    def test_shutdown_answers_every_outstanding_ticket(self):
        router, services = make_router(shards=2)
        tickets = [router.submit(sat_problem(c), name="t%s" % c)
                   for c in ("ab", "cd", "ef")]
        router.shutdown(drain=False)
        for ticket in tickets:
            assert ticket.done
            assert ticket.result.answer == "unknown(shutdown)"
        assert all(s.dead for s in services.values())

    def test_context_manager_shuts_down(self):
        router, services = make_router(shards=1)
        with router:
            ticket = router.submit(sat_problem())
        assert ticket.done
        assert all(s.dead for s in services.values())

    def test_route_fault_seam_raises_out_of_submit(self):
        router, services = make_router(shards=1)
        with faults.injected("net.route", mode="raise", times=1):
            with pytest.raises(FaultInjected):
                router.submit(sat_problem())
        # Disarmed: routing works again.
        ticket = router.submit(sat_problem())
        assert not ticket.done
        router.shutdown(drain=False)
