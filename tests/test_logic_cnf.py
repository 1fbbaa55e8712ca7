"""Tests for Tseitin conversion and the atom registry."""

from hypothesis import given, strategies as st

from repro.logic.cnf import AtomRegistry, encode_into
from repro.logic.formula import (
    And, Atom, FALSE, Or, TRUE, conj, disj, evaluate, ge, le, neg, nnf,
)
from repro.logic.terms import var

X, Y = var("x"), var("y")


def encode(formula):
    """The CNF the SMT session asserts for *formula*: its NNF through
    :func:`encode_into`, plus the root literal as a unit clause."""
    registry = AtomRegistry()
    clauses = []
    root = encode_into(nnf(formula), registry, {}, clauses)
    clauses.append([root])
    return clauses, registry


def variables(clauses):
    """The SAT variables the clauses mention, in increasing order."""
    return sorted({abs(lit) for clause in clauses for lit in clause})


def cnf_models(clauses):
    """Every model of *clauses* over the variables they mention."""
    names = variables(clauses)
    for bits in range(1 << len(names)):
        assign = {v: bool(bits >> i & 1) for i, v in enumerate(names)}
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            yield assign


def brute_force_cnf_sat(clauses):
    """Tiny DPLL-free SAT check for test oracles."""
    return next(cnf_models(clauses), None)


def skeleton_holds(formula, registry, assign):
    """Does the boolean skeleton of an NNF *formula* hold when each atom
    takes the truth value its literal has in *assign*?"""
    if isinstance(formula, Atom):
        lit = registry.literal(formula)
        return assign[abs(lit)] == (lit > 0)
    if isinstance(formula, And):
        return all(skeleton_holds(a, registry, assign) for a in formula.args)
    if isinstance(formula, Or):
        return any(skeleton_holds(a, registry, assign) for a in formula.args)
    return formula.value


class TestRegistry:
    def test_atom_gets_stable_literal(self):
        reg = AtomRegistry()
        a = le(X, 3)
        assert reg.literal(a) == reg.literal(a)

    def test_complement_shares_variable(self):
        reg = AtomRegistry()
        a = le(X, 3)
        lit = reg.literal(a)
        assert reg.literal(neg(a)) == -lit

    def test_scaled_atom_collides(self):
        reg = AtomRegistry()
        a = le(X * 2, 6)         # x <= 3
        b = le(X, 3)
        assert reg.literal(a) == reg.literal(b)

    def test_scaled_atom_tightens_constant(self):
        reg = AtomRegistry()
        a = le(X * 2, 5)         # x <= 2 over the integers
        b = le(X, 2)
        assert reg.literal(a) == reg.literal(b)


class TestTseitin:
    def test_true_formula(self):
        clauses, _ = encode(TRUE)
        assert brute_force_cnf_sat(clauses) is not None

    def test_false_formula(self):
        clauses, _ = encode(FALSE)
        assert brute_force_cnf_sat(clauses) is None

    def test_single_atom(self):
        clauses, reg = encode(le(X, 3))
        assert clauses == [[reg.literal(le(X, 3))]]

    def test_boolean_model_projects_to_skeleton(self):
        # For the one-sided encoding, any CNF model restricted to atom
        # variables must satisfy the original skeleton.
        f = disj(conj(le(X, 0), ge(Y, 4)), conj(ge(X, 2), le(Y, 1)))
        clauses, reg = encode(f)
        atom_vars = [v for v in variables(clauses)
                     if reg.atom_of(v) is not None]
        assert atom_vars
        models = list(cnf_models(clauses))
        assert models
        for assign in models:
            assert skeleton_holds(nnf(f), reg, assign)

    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_equisatisfiability_on_samples(self, x, y):
        f = disj(conj(le(X, 0), ge(Y, 4)),
                 conj(ge(X, 2), le(Y, 1)),
                 conj(le(X + Y, -3),))
        clauses, reg = encode(f)
        # Evaluate each atom under (x, y) and check: if the formula holds,
        # the induced boolean assignment extends to a CNF model.
        assignment = {"x": x, "y": y}
        atom_truth = {}
        for v in variables(clauses):
            atom = reg.atom_of(v)
            if atom is not None:
                atom_truth[v] = evaluate(atom, assignment)
        if evaluate(f, assignment):
            # Unit-propagate Tseitin labels greedily: brute force over
            # label variables only.
            label_vars = [v for v in variables(clauses)
                          if v not in atom_truth]
            found = False
            for bits in range(1 << len(label_vars)):
                model = dict(atom_truth)
                for i, v in enumerate(label_vars):
                    model[v] = bool(bits >> i & 1)
                if all(any(model[abs(l)] == (l > 0) for l in c)
                       for c in clauses):
                    found = True
                    break
            assert found
