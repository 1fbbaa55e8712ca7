"""repro.diff — differential & metamorphic correctness harness.

The validation story of the paper (Section 9) is a model checker plus
cross-solver comparison; this package is the systematic version of it:

* :mod:`repro.diff.generator` — a seeded random generator of well-typed
  string problems (word equations, regular constraints, length/LIA
  arithmetic, ``toNum``/``toStr`` atoms) with tunable size and alphabet
  knobs.  Problems are built *witness-first*, so an unmutated problem
  carries a certified satisfying assignment.
* :mod:`repro.diff.transforms` — satisfiability-preserving metamorphic
  transforms (variable renaming, SMT-LIB print→parse round trip,
  leading-zero padding under the toNum NaN semantics, conjunct
  shuffling, fresh-variable equation splitting).
* :mod:`repro.diff.driver` — the differential driver: every problem runs
  through the PFA solver and the enumerative oracle; verdicts are
  cross-checked, SAT models re-validated concretely, and metamorphic
  verdict stability enforced.
* :mod:`repro.diff.shrink` — a greedy shrinker that minimizes any
  disagreement to a small reproducer and serializes it as an ``.smt2``
  file under ``tests/regressions/`` (auto-collected by the regression
  test).
* :mod:`repro.diff.strategies` — a hypothesis strategy wrapping the
  generator so property tests and the fuzzer share one problem-space
  definition.

Entry point: ``python -m repro fuzz --seed 0 --n 500`` (see ``repro.cli``).
"""

from repro.diff.generator import GenConfig, GeneratedProblem, generate
from repro.diff.driver import (
    CampaignReport, Disagreement, DifferentialDriver, run_campaign,
)
from repro.diff.shrink import save_reproducer, shrink_problem
from repro.diff.transforms import TRANSFORMS, apply_transform

__all__ = [
    "GenConfig", "GeneratedProblem", "generate",
    "DifferentialDriver", "Disagreement", "CampaignReport", "run_campaign",
    "shrink_problem", "save_reproducer",
    "TRANSFORMS", "apply_transform",
]
