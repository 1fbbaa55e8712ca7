"""Chaos suite: fault injection against the degradation ladder.

Every catalogued fault point (``repro.faults.CATALOG``) is armed in turn
against a small SAT/UNSAT/UNKNOWN triple plus a two-membership SAT
instance, and the solver must uphold the resilience contract of
DESIGN.md Section 7:

* ``solve`` never lets an internal exception escape,
* a SAT answer always carries a model that validates concretely,
* a definite answer is never *wrong* (a fault may cost completeness,
  i.e. degrade a result to UNKNOWN, but never soundness),
* when the ladder stepped down, ``stats["degraded_to"]`` names the rung.

Unit tests pin the fault-spec grammar, the firing schedule, and the
unified Budget semantics.
"""

import pytest

from repro import cache, faults
from repro.config import Budget, Deadline, SolverConfig
from repro.core.solver import DEGRADATION_LADDER, TrauSolver
from repro.errors import (BUDGET_REASONS, FaultInjected, ResourceLimit,
                          SolverError)
from repro.logic import eq, ge
from repro.logic.terms import var
from repro.strings import ProblemBuilder, check_model, str_len

ALL_POINTS = sorted(faults.CATALOG)
SOLVER_POINTS = [point for point in ALL_POINTS
                 if point.split(".")[0] not in ("serve", "store", "net")]


def sat_problem():
    """toNum(x) = 10 and |x| = 5 — satisfied only by "00010"."""
    b = ProblemBuilder()
    x = b.str_var("x")
    n = b.to_num(x)
    b.require_int(eq(var(n), 10))
    b.require_int(eq(str_len(x), 5))
    return b.problem


def unsat_problem():
    """y in [0-9]{2} but |y| >= 3."""
    b = ProblemBuilder()
    y = b.str_var("y")
    b.member(y, "[0-9]{2}")
    b.require_int(ge(str_len(y), 3))
    return b.problem


def two_membership_problem():
    """z in (ab)* and z in [ab]{4} — satisfied only by "abab".  The
    over-approximation intersects the two memberships, which is the
    only path into ``automata.intersect`` within a solve."""
    b = ProblemBuilder()
    z = b.str_var("z")
    b.member(z, "(ab)*")
    b.member(z, "[ab]{4}")
    return b.problem


def solve_with_fault(problem, spec, timeout=20, **config_kwargs):
    """One solve with *spec* armed via the config path.

    Returns ``(result, fault)`` so tests can tell whether the point was
    actually reached (a fault at a seam the instance never exercises is
    a vacuous run, not a recovery).
    """
    fault = faults.parse_spec(spec)
    config = SolverConfig(fault_specs=(fault,), **config_kwargs)
    # The chaos suite exercises specific seams; a warm automata LRU
    # would let an earlier test's entry skip the very construction a
    # fault targets (a cached product never reaches automata.intersect).
    cache.clear_all()
    result = TrauSolver(config=config).solve(problem, timeout=timeout)
    return result, fault


def assert_contract(problem, result, expected):
    assert result.status in ("sat", "unsat", "unknown")
    if expected == "sat":
        assert result.status != "unsat"
    if expected == "unsat":
        assert result.status != "sat"
    if result.status == "sat":
        assert check_model(problem, result.model)
    if result.status == "unknown":
        assert result.stats.get("stopped_by")
    degraded = result.stats.get("degraded_to")
    if degraded is not None:
        assert degraded in DEGRADATION_LADDER


class TestChaosTriple:
    """Each point, armed permanently and transiently, against the triple."""

    @pytest.mark.parametrize("point", ALL_POINTS)
    @pytest.mark.parametrize("schedule", ["", ":times=1"])
    def test_raise_fault(self, point, schedule):
        spec = point + ":raise" + schedule
        transient = bool(schedule)

        # SAT leg.
        problem = sat_problem()
        result, fault = solve_with_fault(problem, spec)
        assert_contract(problem, result, "sat")
        if fault.fired and transient:
            # A single failure must be absorbed by the retry rung.
            assert result.status == "sat"
            assert result.stats.get("degraded_to") == "no-cache"
        if result.stats.get("degraded_to") == "give-up":
            assert result.stats["stopped_by"] == "internal-error"

        # UNSAT leg.
        problem = unsat_problem()
        result, fault = solve_with_fault(problem, spec)
        assert_contract(problem, result, "unsat")
        if fault.fired and transient:
            assert result.status == "unsat"
            assert result.stats.get("degraded_to") == "no-cache"

        # Two-membership SAT leg: the one that reaches automata.intersect
        # (the over-approximation's product) and automata.determinize
        # (the unrolled membership encoding's DFA).
        problem = two_membership_problem()
        result, fault = solve_with_fault(problem, spec)
        assert_contract(problem, result, "sat")
        if point in ("automata.intersect", "automata.determinize"):
            assert fault.fired
            if transient:
                assert result.status == "sat"
                assert result.stats.get("degraded_to") == "no-cache"
        if result.stats.get("degraded_to") == "give-up":
            assert result.stats["stopped_by"] == "internal-error"

        # UNKNOWN leg: a starved budget on the SAT instance.  The fault
        # and the budget trip may interleave arbitrarily; the contract
        # still holds and nothing escapes.
        problem = sat_problem()
        result, fault = solve_with_fault(problem, spec,
                                         bb_node_limit=1,
                                         smt_iteration_limit=1)
        assert_contract(problem, result, "sat")

    def test_every_solver_point_fires_on_some_leg(self):
        """The legs are not vacuous: every catalogued point outside the
        serve, store and net layers fires on at least one of them."""
        legs = (sat_problem, unsat_problem, two_membership_problem)
        unfired = [
            point for point in SOLVER_POINTS
            if not any(solve_with_fault(leg(), point + ":raise:times=1")[1]
                       .fired for leg in legs)]
        assert SOLVER_POINTS and not unfired

    @pytest.mark.parametrize("point", ["lia.pivot", "cache.lookup",
                                       "smt.session.solve"])
    def test_runtime_crash_is_absorbed(self, point):
        """A bare RuntimeError (not a SolverError) rides the same ladder.
        The toNum instance reaches no LRU, so cache.lookup runs on the
        two-membership instance."""
        make = two_membership_problem if point == "cache.lookup" \
            else sat_problem
        problem = make()
        result, fault = solve_with_fault(
            problem, point + ":raise:exc=runtime,times=1")
        assert_contract(problem, result, "sat")
        assert fault.fired
        assert result.status == "sat"

    @pytest.mark.parametrize("point", ["sat.solve", "flatten.fragment"])
    def test_delay_fault_is_harmless_without_deadline(self, point):
        problem = sat_problem()
        result, _ = solve_with_fault(problem,
                                     point + ":delay:seconds=0.001,times=2")
        assert result.status == "sat"
        assert check_model(problem, result.model)

    @pytest.mark.parametrize("point", ["smt.session.solve", "lia.check"])
    def test_resource_fault_is_attributable(self, point):
        """An injected ResourceLimit is budget exhaustion, not a crash:
        no ladder retry, just an attributable unknown."""
        problem = sat_problem()
        result, fault = solve_with_fault(problem,
                                         point + ":raise:exc=resource")
        if fault.fired:
            assert result.status == "unknown"
            assert result.stats["stopped_by"] in BUDGET_REASONS
        else:
            assert_contract(problem, result, "sat")


class TestQuarantine:
    """Corrupt-mode faults: a lying component never reaches the caller."""

    @pytest.mark.parametrize("point", ["solver.decode", "smt.session.solve"])
    def test_corrupted_model_is_quarantined(self, point):
        # The session seam's first hit is the over-approximation's query,
        # whose model nothing decodes; skip it to corrupt a round's.
        after = 1 if point == "smt.session.solve" else 0
        problem = sat_problem()
        result, fault = solve_with_fault(
            problem, "%s:corrupt:after=%d,times=1" % (point, after))
        assert result.status == "sat"
        assert check_model(problem, result.model)
        if fault.fired:
            # The lie was caught by validation and the rung retried.
            assert result.stats.get("degraded_to") in DEGRADATION_LADDER

    def test_corrupted_smt_model_never_escapes(self):
        """smt.session.solve also serves the over-approximation, where a
        corrupted model only misleads a heuristic — so corruption there
        need not force a rung change, but a SAT answer must still
        validate."""
        problem = sat_problem()
        result, fault = solve_with_fault(problem, "smt.session.solve:corrupt")
        assert fault.fired
        assert result.status in ("sat", "unknown")
        if result.status == "sat":
            assert check_model(problem, result.model)

    def test_corrupted_cache_hit_degrades_to_miss(self):
        problem = unsat_problem()
        result, _ = solve_with_fault(problem, "cache.lookup:corrupt")
        assert result.status == "unsat"


class TestLadderBehaviour:
    def test_ladder_retries_once_with_caches_off(self):
        assert DEGRADATION_LADDER == ("default", "no-cache", "give-up")
        rungs = TrauSolver()._ladder()
        assert [name for name, _ in rungs] == ["default", "no-cache"]
        assert [config.use_caches for _, config in rungs] == [True, False]
        # With the caches already off, the configured run is the retry.
        rungs = TrauSolver(config=SolverConfig(use_caches=False))._ladder()
        assert [name for name, _ in rungs] == ["no-cache"]

    def test_permanent_fault_exhausts_ladder(self):
        """lia.pivot is on every rung's path: raising there forever must
        walk the whole ladder and give up attributably."""
        problem = sat_problem()
        result, fault = solve_with_fault(problem, "lia.pivot:raise")
        assert fault.fired
        assert result.status == "unknown"
        assert result.stats["degraded_to"] == "give-up"
        assert result.stats["stopped_by"] == "internal-error"
        assert result.stats["degradations"]

    def test_transient_fault_lands_on_next_rung(self):
        problem = sat_problem()
        result, fault = solve_with_fault(problem,
                                         "smt.session.solve:raise:times=1")
        assert fault.fired
        assert result.status == "sat"
        assert result.stats["degraded_to"] == "no-cache"
        assert any("smt.session.solve" in entry
                   for entry in result.stats["degradations"])

    def test_no_cache_rung_escapes_cache_faults(self):
        """A permanently broken cache costs one rung, not the answer."""
        problem = unsat_problem()
        result, fault = solve_with_fault(problem, "cache.lookup:raise")
        assert result.status == "unsat"
        if fault.fired:
            assert result.stats["degraded_to"] == "no-cache"

    def test_unfired_fault_means_no_degradation(self):
        problem = sat_problem()
        result, fault = solve_with_fault(problem,
                                         "automata.determinize:raise:after=999")
        assert result.status == "sat"
        assert "degraded_to" not in result.stats


class TestFaultMachinery:
    def test_parse_spec_full(self):
        fault = faults.parse_spec("cache.lookup:raise:after=2,times=1")
        assert fault.point == "cache.lookup"
        assert fault.mode == "raise"
        assert fault.after == 2
        assert fault.times == 1

    def test_parse_spec_defaults(self):
        fault = faults.parse_spec("lia.pivot")
        assert fault.mode == "raise"
        assert fault.after == 0
        assert fault.times is None

    @pytest.mark.parametrize("spec", ["nope.nope", "lia.pivot:explode",
                                      "lia.pivot:raise:bogus=1",
                                      "lia.pivot:raise:times"])
    def test_parse_spec_rejects(self, spec):
        with pytest.raises(ValueError):
            faults.parse_spec(spec)

    def test_firing_schedule(self):
        fault = faults.Fault("lia.pivot", after=1, times=1)
        with faults.injected(specs=[fault]):
            faults.point("lia.pivot")          # hit 1: skipped (after=1)
            with pytest.raises(FaultInjected) as excinfo:
                faults.point("lia.pivot")      # hit 2: fires
            assert excinfo.value.point == "lia.pivot"
            faults.point("lia.pivot")          # hit 3: spent (times=1)
        assert fault.hits == 3
        assert fault.fired == 1

    def test_fault_injected_is_solver_error(self):
        # The ladder catches SolverError; injected faults must ride it.
        assert issubclass(FaultInjected, SolverError)

    def test_injected_restores_previous_arming(self):
        outer = faults.arm(faults.Fault("cache.store", after=99))
        try:
            with faults.injected("cache.store", times=1) as inner:
                assert faults.ARMED["cache.store"] is inner
            assert faults.ARMED["cache.store"] is outer
        finally:
            faults.disarm()

    def test_arm_from_env(self):
        environ = {"REPRO_INJECT_FAULT":
                   "cache.lookup:raise:times=1; lia.pivot:delay"}
        try:
            armed = faults.arm_from_env(environ)
            assert sorted(f.point for f in armed) == ["cache.lookup",
                                                      "lia.pivot"]
            assert faults.ARMED["lia.pivot"].mode == "delay"
        finally:
            faults.disarm()

    def test_corrupt_leaves_other_modes_alone(self):
        with faults.injected("cache.lookup", mode="raise", after=99):
            assert faults.corrupt("cache.lookup", 7, lambda v: -v) == 7

    def test_every_point_is_documented(self):
        for name, where in faults.CATALOG.items():
            assert name and where


class TestBudget:
    def test_plain_deadline_is_degenerate_budget(self):
        deadline = Deadline.unbounded()
        assert deadline.bb_node_limit is None
        assert deadline.smt_iteration_limit is None
        deadline.charge_states(10 ** 9)  # no limit: no-op

    def test_charge_states_trips_attributably(self):
        budget = Budget(automata_states=10)
        budget.charge_states(10)  # at the limit: fine
        with pytest.raises(ResourceLimit) as excinfo:
            budget.charge_states(11, op="determinization")
        assert excinfo.value.reason == "automata-states"
        assert "determinization" in str(excinfo.value)

    def test_resource_limit_default_reason(self):
        assert ResourceLimit("out of time").reason == "deadline"
        assert set(BUDGET_REASONS) == {"deadline", "bb-nodes",
                                       "smt-iterations", "automata-states"}

    def test_config_budget_carries_limits(self):
        config = SolverConfig(bb_node_limit=7, smt_iteration_limit=8,
                              automata_state_limit=9,
                              parikh_counter_bound=10)
        budget = config.budget()
        assert budget.bb_node_limit == 7
        assert budget.smt_iteration_limit == 8
        assert budget.automata_state_limit == 9
        assert budget.parikh_counter_bound == 10
        assert budget.remaining() is None

    def test_starved_search_budget_is_attributable(self):
        problem = sat_problem()
        config = SolverConfig(bb_node_limit=1, smt_iteration_limit=1)
        result = TrauSolver(config=config).solve(problem, timeout=20)
        assert result.status == "unknown"
        reason = result.stats.get("budget_tripped") \
            or result.stats.get("stopped_by")
        assert reason in BUDGET_REASONS

    def test_starved_automata_budget_is_attributable(self):
        # u.v = v.u with unbounded variables forces loop PFAs, whose
        # synchronization needs the asynchronous product — the construction
        # the state budget guards.
        b = ProblemBuilder()
        u = b.str_var("u")
        v = b.str_var("v")
        b.equal((u, v), (v, u))
        b.require_int(ge(str_len(u), 1))
        config = SolverConfig(automata_state_limit=1)
        result = TrauSolver(config=config).solve(b.problem, timeout=20)
        assert result.status == "unknown"
        assert result.stats["stopped_by"] == "automata-states"

    def test_explicit_budget_overrides_config(self):
        problem = sat_problem()
        solver = TrauSolver(config=SolverConfig(bb_node_limit=1,
                                                smt_iteration_limit=1))
        generous = Budget(bb_nodes=10 ** 6, smt_iterations=10 ** 6)
        result = solver.solve(problem, budget=generous)
        assert result.status == "sat"
        assert check_model(problem, result.model)
