"""Lazy SMT(LIA) solver: CDCL SAT core + branch-and-bound integer theory."""

from repro.smt.session import IncrementalSmtSession, SmtResult, solve_formula

__all__ = ["IncrementalSmtSession", "SmtResult", "solve_formula"]
