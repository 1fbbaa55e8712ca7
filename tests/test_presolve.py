"""Tests for the formula presolver (elimination + interval folding)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic import (
    FALSE, TRUE, atoms_of, conj, disj, eq, evaluate, ge, le, ne, var,
    variables_of,
)
from repro.logic.presolve import presolve, reconstruct_model
from repro.smt import solve_formula


class TestElimination:
    def test_constant_definition_folds(self):
        f = conj(eq(var("x"), 5), le(var("x"), 9))
        reduced, steps = presolve(f)
        assert reduced is TRUE
        model = reconstruct_model({}, steps)
        assert model["x"] == 5

    def test_alias_chain(self):
        f = conj(eq(var("x"), var("y")), eq(var("y"), var("z")),
                 eq(var("z"), 3), ge(var("x"), 0))
        reduced, steps = presolve(f)
        assert reduced is TRUE
        model = reconstruct_model({}, steps)
        assert model["x"] == model["y"] == model["z"] == 3

    def test_contradictory_equalities(self):
        f = conj(eq(var("x"), 1), eq(var("x"), 2))
        reduced, _ = presolve(f)
        assert reduced is FALSE

    def test_sum_definition_substitutes(self):
        f = conj(eq(var("t"), var("a") + var("b")),
                 le(var("t"), 5), ge(var("a"), 3), ge(var("b"), 3))
        reduced, _ = presolve(f)
        assert reduced is FALSE


class TestIntervalFolding:
    def test_entailed_atom_disappears(self):
        f = conj(le(var("x"), 5), ge(var("x"), 0),
                 disj(le(var("x"), 9), eq(var("y"), 2)))
        reduced, _ = presolve(f)
        # The disjunction is entailed by x <= 5 <= 9.
        assert len(atoms_of(reduced)) == 2

    def test_infeasible_branch_pruned(self):
        f = conj(le(var("x"), 5),
                 disj(ge(var("x"), 7), eq(var("y"), 2)),
                 ge(var("y"), 0))
        reduced, steps = presolve(f)
        model = reconstruct_model(solve_formula(reduced).model, steps)
        assert model["y"] == 2

    def test_bounds_stay_for_model_building(self):
        f = conj(ge(var("x"), 3), le(var("x"), 3))
        reduced, steps = presolve(f)
        model = reconstruct_model(
            solve_formula(reduced).model if reduced is not TRUE else {},
            steps)
        assert model["x"] == 3


@st.composite
def formulas(draw):
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.integers(-3, 3))
        b = draw(st.integers(-3, 3))
        k = draw(st.integers(-8, 8))
        atoms.append(var("x") * a + var("y") * b + var("z") - k)
    parts = []
    for expr in atoms:
        kind = draw(st.sampled_from(["le", "eq", "or"]))
        if kind == "le":
            parts.append(le(expr, 0))
        elif kind == "eq":
            parts.append(eq(expr, 0))
        else:
            parts.append(disj(le(expr, 0), ge(var("x"), draw(
                st.integers(-3, 3)))))
    return conj(*parts)


class TestEquisatisfiability:
    @settings(max_examples=50, deadline=None)
    @given(formulas())
    def test_presolve_preserves_satisfiability(self, f):
        """The presolving solve answers like brute-force enumeration of
        the [-12, 12]^3 box with the evaluator (a reference that shares
        no code with presolve), and a sat model satisfies the formula."""
        box = range(-12, 13)
        bounded = conj(f, *[conj(ge(var(v), box[0]), le(var(v), box[-1]))
                            for v in ("x", "y", "z")])
        simplified = solve_formula(bounded)
        satisfiable = any(
            evaluate(f, dict(zip(("x", "y", "z"), point))) is True
            for point in itertools.product(box, repeat=3))
        assert simplified.status == ("sat" if satisfiable else "unsat")
        if simplified.status == "sat":
            assert evaluate(bounded, simplified.model)
