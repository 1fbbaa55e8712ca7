"""Tests for the lazy DPLL(T) loop and its cross-round incremental
sessions (repro.smt.session)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cli import _selfcheck_problems
from repro.config import SolverConfig
from repro.core.solver import TrauSolver
from repro.logic import conj, eq, ge, le, ne
from repro.logic.formula import evaluate
from repro.logic.terms import var
from repro.obs import Metrics, scope
from repro.sat.solver import SAT, UNSAT, SatSolver
from repro.smt import IncrementalSmtSession, solve_formula

X, Y, Z = var("x"), var("y"), var("z")
NAMES = ("x", "y", "z")


# -- SatSolver under assumptions ---------------------------------------------


class TestSolveUnderAssumptions:
    def test_assumption_flips_outcome(self):
        sat = SatSolver()
        sat.add_clause([1, 2])
        sat.add_clause([-1, 2])
        assert sat.solve(assumptions=[-2]) == UNSAT
        # The solver survives an assumption conflict and stays usable.
        assert sat.solve(assumptions=[2]) == SAT
        assert sat.solve() == SAT

    def test_assumptions_respected_in_model(self):
        sat = SatSolver()
        sat.add_clause([1, 2, 3])
        assert sat.solve(assumptions=[-1, -3]) == SAT
        model = sat.model()
        assert model[1] is False and model[3] is False and model[2] is True

    def test_global_unsat_is_permanent(self):
        sat = SatSolver()
        sat.add_clause([1])
        sat.add_clause([-1])
        assert sat.solve(assumptions=[2]) == UNSAT
        assert not sat._ok or sat.solve() == UNSAT

    def test_propagate_assumptions_yields_implied(self):
        sat = SatSolver()
        sat.add_clause([-1, 2])
        sat.add_clause([-2, 3])
        implied = sat.propagate_assumptions([1])
        assert implied is not None
        assert {1, 2, 3} <= set(implied)

    def test_propagate_assumptions_conflict(self):
        sat = SatSolver()
        sat.add_clause([-1, 2])
        sat.add_clause([-2, -1])
        assert sat.propagate_assumptions([1]) is None
        assert sat._ok          # only the assumptions were refuted
        assert sat.solve() == SAT


# -- random linear formulas over x, y, z -------------------------------------


def exprs():
    coeff = st.integers(-3, 3)
    def build(c1, c2, v1, v2, k):
        return c1 * var(v1) + c2 * var(v2) + k
    return st.builds(build, coeff, coeff, st.sampled_from(NAMES),
                     st.sampled_from(NAMES), st.integers(-8, 8))


def atoms():
    return st.builds(lambda op, e: op(e, 0),
                     st.sampled_from([eq, ge, le, ne]), exprs())


def small_formulas():
    return st.builds(lambda atoms_, op: op(*atoms_),
                     st.lists(atoms(), min_size=1, max_size=3),
                     st.sampled_from([conj]))


BOX = range(-10, 11)
BOUNDS = conj(*[conj(ge(var(n), BOX[0]), le(var(n), BOX[-1]))
                for n in NAMES])


# -- solve_formula agrees with enumerating the box ---------------------------


class TestSolveFormulaAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(small_formulas())
    def test_status_and_model_match_brute_force(self, formula):
        """Inside the BOUNDS box, the verdict equals brute-force
        enumeration of the box with the evaluator (a reference sharing no
        code with the SMT loop), and a sat model satisfies the formula."""
        bounded = conj(BOUNDS, formula)
        result = solve_formula(bounded)
        satisfiable = any(
            evaluate(formula, dict(zip(NAMES, point))) is True
            for point in itertools.product(BOX, repeat=len(NAMES)))
        assert result.status == ("sat" if satisfiable else "unsat"), \
            "solve_formula=%s for %s" % (result.status, formula)
        if result.status == "sat":
            assert evaluate(bounded, result.model) is True


# -- IncrementalSmtSession agrees with fresh one-round sessions -------------


def check_round(session, fragments, reference):
    expected = solve_formula(reference)
    got = session.solve(fragments)
    assert got.status == expected.status, \
        "session=%s fresh=%s for %s" % (got.status, expected.status,
                                        reference)
    if got.status == "sat":
        assert evaluate(reference, got.model) is True


class TestSessionMatchesOneShot:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_formulas(), min_size=1, max_size=4))
    def test_rounds_agree_with_fresh_solves(self, rounds):
        """Each round (bounds + stable fragment + round fragment) must
        answer exactly like a fresh one-round session on the
        conjunction."""
        session = IncrementalSmtSession(SolverConfig())
        stable = rounds[0]
        for formula in rounds:
            fragments = [("bounds", BOUNDS, ()), ("stable", stable, ()),
                         ("round", formula, ())]
            check_round(session, fragments,
                        conj(BOUNDS, stable, formula))

    @settings(max_examples=25, deadline=None)
    @given(small_formulas(), small_formulas())
    def test_replacing_a_fragment_retires_it(self, first, second):
        """A replaced fragment must stop constraining later rounds."""
        session = IncrementalSmtSession(SolverConfig())
        check_round(session, [("bounds", BOUNDS, ()), ("frag", first, ())],
                    conj(BOUNDS, first))
        check_round(session, [("bounds", BOUNDS, ()), ("frag", second, ())],
                    conj(BOUNDS, second))

    def test_unsat_round_does_not_poison_session(self):
        session = IncrementalSmtSession(SolverConfig())
        good = conj(ge(X, 1), le(X, 5))
        bad = conj(ge(Y, 3), le(Y, 2))
        check_round(session, [("a", good, ())], good)
        check_round(session, [("a", good, ()), ("b", bad, ())],
                    conj(good, bad))
        check_round(session, [("a", good, ())], good)

    def test_identical_fragments_reuse_clauses(self):
        session = IncrementalSmtSession(SolverConfig())
        shared = conj(ge(X, 0), le(X + Y, 7), ne(Y, 3))
        metrics = Metrics()
        with scope(None, metrics):
            session.solve([("s", shared, ()), ("r", ge(Y, 1), ())])
            session.solve([("s", shared, ()), ("r", ge(Y, 2), ())])
        flat = metrics.flat()
        assert flat.get("smt.clauses_reused", 0) > 0
        assert flat.get("smt.fragments_reused", 0) >= 1


# -- end-to-end: selfcheck statuses are knob-independent ---------------------


class TestSelfcheckKnobIndependence:
    def test_statuses_identical_across_knobs(self):
        configs = [SolverConfig(), SolverConfig(use_caches=False)]
        for name, problem, expected in _selfcheck_problems():
            statuses = {
                config.use_caches:
                    TrauSolver(config=config).solve(problem,
                                                    timeout=60.0).status
                for config in configs}
            assert set(statuses.values()) == {expected}, \
                "%s: %s" % (name, statuses)
