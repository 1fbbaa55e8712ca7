"""Chaos tests for :mod:`repro.serve` — the supervised pool and service
under injected hangs, crashes, and corrupted verdicts.

Every test drives real spawn workers; the faults come from
:mod:`repro.faults` seams planted inside the worker loop
(``serve.worker.request`` / ``serve.worker.result``), so the failure
modes are the genuine articles: processes that really hang, really die,
and really return wrong answers.  The invariant under test throughout:
every submitted request gets exactly one answer.
"""

import os
import time

from repro.core.solver import SolveResult
from repro.logic import eq
from repro.serve import PoolEvent, SolverService, WorkerPool
from repro.serve.service import flip_verdict
from repro.strings import ProblemBuilder, str_len

CRASH = "serve.worker.request:raise:exc=runtime"
HANG = "serve.worker.request:delay:seconds=30"
LIE = "serve.worker.result:corrupt"


def sat_problem(chars="ab"):
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[%s]{2}" % chars)
    return builder.problem


def unsat_problem():
    builder = ProblemBuilder()
    x = builder.str_var("x")
    builder.member(x, "[ab]{2}")
    builder.require_int(eq(str_len(x), 9))
    return builder.problem


# -- pool-level tests ---------------------------------------------------------


def _echo_init(tag):
    """Picklable pool initializer for the protocol-level tests."""
    def handler(payload):
        if payload == "die":
            os._exit(7)
        if isinstance(payload, tuple) and payload[0] == "sleep":
            time.sleep(payload[1])
        return (tag, payload)
    return handler


def collect(pool, count, timeout=30.0):
    """Poll until *count* events arrived (or the wall clock gives up)."""
    events = []
    deadline = time.monotonic() + timeout
    while len(events) < count and time.monotonic() < deadline:
        events.extend(pool.poll(0.1))
    return events


class TestWorkerPool:
    def test_result_roundtrip_and_recycling(self):
        with WorkerPool(_echo_init, init_args=("t",), jobs=1,
                        max_requests=1) as pool:
            first = pool.submit("a", timeout=30)
            second = pool.submit("b", timeout=30)
            events = collect(pool, 2)
            assert {e.kind for e in events} == {PoolEvent.RESULT}
            assert {e.ticket: e.value for e in events} == {
                first: ("t", "a"), second: ("t", "b")}
            # max_requests=1 forces a fresh worker between the requests.
            assert pool.counters["recycled"] >= 1
        assert pool.worker_count == 0        # shutdown reaped everything

    def test_hang_is_hard_killed_and_pool_survives(self):
        with WorkerPool(_echo_init, init_args=("t",), jobs=1) as pool:
            ticket = pool.submit(("sleep", 60), timeout=0.4)
            events = collect(pool, 1)
            assert events[0].kind == PoolEvent.KILLED
            assert events[0].ticket == ticket
            assert pool.counters["hard_kills"] == 1
            # The replacement worker serves the next request.
            after = pool.submit("ok", timeout=30)
            events = collect(pool, 1)
            assert events[0].kind == PoolEvent.RESULT
            assert events[0].ticket == after

    def test_worker_death_carries_exit_code(self):
        with WorkerPool(_echo_init, init_args=("t",), jobs=1) as pool:
            ticket = pool.submit("die", timeout=30)
            events = collect(pool, 1)
            assert events[0].kind == PoolEvent.DIED
            assert events[0].ticket == ticket
            assert events[0].exitcode == 7
            assert pool.counters["deaths"] == 1

    def test_cancel_emits_no_events(self):
        with WorkerPool(_echo_init, init_args=("t",), jobs=1) as pool:
            slow = pool.submit(("sleep", 5), timeout=30)
            while not pool.is_inflight(slow):
                pool.poll(0.05)
            queued = pool.submit("q", timeout=30)
            assert pool.cancel(queued) is True      # still pending
            assert pool.cancel(slow) is True        # on a worker: killed
            assert pool.cancel(slow) is False       # nothing left
            assert pool.counters["cancelled"] == 2
            assert collect(pool, 1, timeout=1.0) == []


# -- service-level tests ------------------------------------------------------


class TestSolverService:
    def test_batch_gets_exactly_one_answer_each(self):
        with SolverService(jobs=2, timeout=20) as service:
            results = service.run_batch([
                ("s1", sat_problem()),
                ("u1", unsat_problem()),
                ("s2", sat_problem("cd")),
            ])
        assert [r.name for r in results] == ["s1", "u1", "s2"]
        assert [r.status for r in results] == ["sat", "unsat", "sat"]
        assert service.answered == 3

    def test_overload_rejects_at_the_door(self):
        service = SolverService(jobs=1, timeout=20, queue_limit=1)
        try:
            first = service.submit(sat_problem(), name="first")
            second = service.submit(sat_problem("cd"), name="second")
            assert not first.done
            assert second.done
            assert second.result.answer == "unknown(overloaded)"
        finally:
            service.shutdown(drain=False)

    def test_hang_answers_unknown_timeout(self):
        with SolverService(jobs=1, timeout=0.3, grace=0.3,
                           quarantine_threshold=10) as service:
            handle = service.submit(sat_problem(), fault_specs=(HANG,))
            result = service.wait(handle)
        assert result.answer == "unknown(timeout)"
        assert "hard-killed" in result.worker_exits
        assert result.retries == 0           # hangs are never retried

    def test_crash_retries_in_fresh_worker_then_answers(self):
        # The schedule lives per worker process: in the first worker the
        # benign request is hit 1 (skipped by after=1), the victim is
        # hit 2 (fires, worker dies); in the retry worker the victim is
        # hit 1 again, so it is skipped and the solve succeeds.
        spec = "serve.worker.request:raise:exc=runtime,after=1,times=1"
        with SolverService(jobs=1, timeout=20, quarantine_threshold=10,
                           worker_fault_specs=(spec,)) as service:
            service.wait(service.submit(unsat_problem(), name="benign"))
            victim = service.submit(sat_problem(), name="victim")
            result = service.wait(victim)
        assert result.status == "sat"
        assert result.retries == 1
        assert len(result.worker_exits) == 1

    def test_quarantine_after_k_strikes_then_instant_poison(self):
        problem = sat_problem()
        with SolverService(jobs=1, timeout=20, max_retries=5,
                           quarantine_threshold=2,
                           backoff_base=0.01) as service:
            handle = service.submit(problem, fault_specs=(CRASH,))
            result = service.wait(handle)
            assert result.answer == "unknown(poison)"
            assert service.quarantined(problem) == "poison"
            spawned = service.pool.counters["spawned"]
            again = service.submit(problem)
            # Answered at the door: already done, no worker burned.
            assert again.done
            assert again.result.answer == "unknown(poison)"
            assert service.pool.counters["spawned"] == spawned

    def test_fabricated_model_fails_validation(self):
        # Corrupt an UNSAT verdict into sat-with-empty-model; concrete
        # re-validation must demote the lie instead of reporting sat.
        with SolverService(jobs=1, timeout=20,
                           quarantine_threshold=10) as service:
            handle = service.submit(unsat_problem(), fault_specs=(LIE,))
            result = service.wait(handle)
        assert result.status == "unknown"
        assert result.stats.get("stopped_by") == "invalid-model"

    def test_corrupter_only_fabricates_sat(self):
        # A fabricated UNSAT carries nothing to re-check, so the seam
        # lies only in the direction the model re-check catches.
        sat = SolveResult("sat", model={"x": "ab"})
        assert flip_verdict(sat) is sat
        unknown = SolveResult("unknown")
        assert flip_verdict(unknown) is unknown
        lie = flip_verdict(SolveResult("unsat"))
        assert (lie.status, lie.model) == ("sat", {})

    def test_drain_finishes_inflight_and_answers_queued(self):
        slow_spec = "serve.worker.request:delay:seconds=1"
        with SolverService(jobs=1, timeout=20,
                           quarantine_threshold=10) as service:
            slow = service.submit(sat_problem(), name="slow",
                                  fault_specs=(slow_spec,))
            while service.pool.inflight_count == 0:
                service.pump(0.05)
            queued = service.submit(sat_problem("cd"), name="queued")
            service.shutdown(drain=True)
            assert slow.result.status == "sat"
            assert queued.result.answer == "unknown(shutdown)"
        assert service.pool.worker_count == 0
