"""repro — a reproduction of *Efficient Handling of String-Number
Conversion* (PLDI 2020): a PFA-based string constraint solver.

Public API
----------

* :class:`~repro.strings.ops.ProblemBuilder` — construct string problems
  with high-level operations (concat equalities, regex membership,
  charAt/substr, toNum/toStr, disequalities, integer arithmetic).
* :class:`~repro.core.solver.TrauSolver` — the paper's two-phase decision
  procedure (over-approximation + PFA under-approximation).
* :mod:`repro.baselines` — comparison solvers.
* :mod:`repro.obs` — tracing/metrics: wrap a solve in
  ``scope(Tracer(), Metrics())`` to get per-phase spans and counters.
* :mod:`repro.smtlib` — SMT-LIB 2.x import/export.
* :mod:`repro.bench` — the table-regeneration harness.
* :mod:`repro.serve` — supervised serving: ``SolverService`` runs many
  concurrent solves on a worker pool with hard deadlines, retries,
  quarantine, and a model re-check on every SAT answer (CLI:
  ``python -m repro serve-batch``).

Quickstart::

    from repro import ProblemBuilder, TrauSolver, str_len
    from repro.logic import eq, var

    b = ProblemBuilder()
    x = b.str_var("x")
    n = b.to_num(x)
    b.require_int(eq(var(n), 42))
    b.require_int(eq(str_len(x), 5))
    print(TrauSolver().solve(b).model["x"])   # "00042"
"""

from repro.alphabet import Alphabet, DEFAULT_ALPHABET, EPSILON
from repro.config import SolverConfig, Deadline
from repro.core.solver import TrauSolver, SolveResult
from repro.obs import Metrics, Tracer, render_report, scope
from repro.strings.ast import (
    StrVar, StringProblem, WordEquation, RegularConstraint, IntConstraint,
    ToNum, CharNeq, str_len, length_var,
)
from repro.strings.eval import check_model, to_num_value
from repro.strings.ops import ProblemBuilder

__version__ = "1.0.0"

__all__ = [
    "Alphabet", "DEFAULT_ALPHABET", "EPSILON",
    "SolverConfig", "Deadline",
    "TrauSolver", "SolveResult",
    "StrVar", "StringProblem", "WordEquation", "RegularConstraint",
    "IntConstraint", "ToNum", "CharNeq", "str_len", "length_var",
    "check_model", "to_num_value",
    "ProblemBuilder",
    "Tracer", "Metrics", "scope", "render_report",
    "__version__",
]
