"""Quantifier-free linear integer arithmetic formulas.

This is the target language of the paper's flattening: boolean combinations
of linear atoms over integer variables.  The package provides

* :mod:`repro.logic.terms` — linear expressions and atom constructors,
* :mod:`repro.logic.formula` — the boolean formula AST with builders,
* :mod:`repro.logic.cnf` — Tseitin conversion to CNF for the SAT core.
"""

from repro.logic.terms import LinExpr, var, const
from repro.logic.formula import (
    Atom, And, Or, Not, BoolConst, TRUE, FALSE,
    conj, disj, neg, implies, iff,
    le, lt, ge, gt, eq, ne,
    atoms_of, variables_of, evaluate, nnf, substitute,
)

__all__ = [
    "LinExpr", "var", "const",
    "Atom", "And", "Or", "Not", "BoolConst", "TRUE", "FALSE",
    "conj", "disj", "neg", "implies", "iff",
    "le", "lt", "ge", "gt", "eq", "ne",
    "atoms_of", "variables_of", "evaluate", "nnf", "substitute",
]
