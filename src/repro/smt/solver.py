"""Lazy DPLL(T) over linear integer arithmetic.

This module stands in for Z3's core in the reproduction (the paper
implements its procedure as a Z3 theory plugin).  The flattened string
constraint is a boolean combination of linear atoms; the pipeline is

1. presolve — eliminate defined variables, propagate intervals;
2. Tseitin — CNF skeleton with canonicalized atoms;
3. root propagation — atoms fixed at decision level zero are asserted into
   the (persistent, incremental) integer solver once;
4. lazy loop — the CDCL core enumerates propositional models; the atoms the
   model commits to (skipping don't-care polarities that never occur in the
   CNF) are checked by branch-and-bound inside a push/pop frame; a theory
   conflict adds its (negated) core as a blocking clause.

Soundness: a returned model satisfies every asserted atom with the polarity
the SAT model chose, hence satisfies the formula (the skeleton is monotone
in the unasserted don't-care atoms).  Completeness relative to the budgets:
every propositional model is either accepted or excluded by a clause that
only rules out theory-inconsistent assignments.
"""

from repro import faults as _faults
from repro.config import Deadline, DEFAULT_CONFIG
from repro.errors import SolverError
from repro.lia.branch_bound import IntegerSolver
from repro.logic.cnf import tseitin
from repro.logic.formula import BoolConst, variables_of
from repro.logic.presolve import presolve, reconstruct_model
from repro.obs import current_metrics, current_tracer
from repro.sat import SAT, UNSAT, SatSolver


class SmtResult:
    """Outcome of an SMT query."""

    __slots__ = ("status", "model", "stats")

    def __init__(self, status, model=None, stats=None):
        self.status = status      # "sat" | "unsat" | "unknown"
        self.model = model        # var name -> int, when sat
        self.stats = stats or {}

    def __repr__(self):
        return "SmtResult(%s)" % self.status


def corrupt_result(result):
    """The mutator the ``smt.solve``/``smt.session.solve`` corrupt-mode
    fault points apply: perturb *every* model value of a SAT answer (a
    single-variable lie could land on an auxiliary the decoder ignores),
    so the decoded strings fail concrete validation and exercise the
    model quarantine of the degradation ladder."""
    if result.status == "sat" and result.model:
        for name, value in list(result.model.items()):
            result.model[name] = (value + 1) if isinstance(value, int) else 0
    return result


def solve_formula(formula, deadline=None, config=None, simplify=True):
    """Decide satisfiability of a linear-atom formula over the integers."""
    if _faults.ARMED:
        _faults.point("smt.solve")
    tracer = current_tracer()
    with tracer.span("smt.solve") as span:
        result = _solve_formula(formula, deadline, config, simplify, tracer)
        if _faults.ARMED:
            result = _faults.corrupt("smt.solve", result, corrupt_result)
        span.set(status=result.status, **result.stats)
        metrics = current_metrics()
        if metrics.enabled:
            metrics.add("smt.calls")
            metrics.add("smt.iterations", result.stats.get("iterations", 0))
    return result


def _solve_formula(formula, deadline, config, simplify, tracer):
    deadline = deadline or Deadline.unbounded()
    config = config or DEFAULT_CONFIG
    # A Budget carries the limits itself; a plain deadline defers to the
    # config knobs (Budget limits win so one object governs the solve).
    iteration_limit = deadline.smt_iteration_limit \
        or config.smt_iteration_limit
    node_limit = deadline.bb_node_limit or config.bb_node_limit

    all_vars = variables_of(formula)
    steps = []
    if simplify:
        with tracer.span("smt.presolve"):
            formula, steps = presolve(formula)

    if isinstance(formula, BoolConst):
        if not formula.value:
            return SmtResult("unsat")
        model = reconstruct_model({}, steps)
        for name in all_vars:
            model.setdefault(name, 0)
        return SmtResult("sat", model=model)

    with tracer.span("smt.tseitin") as span:
        clauses, registry = tseitin(formula)
        span.set(clauses=len(clauses), variables=registry.variable_count)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.observe("smt.vars", len(all_vars))
        metrics.observe("smt.clauses", len(clauses))
    sat = SatSolver()
    sat.ensure_var(registry.variable_count)
    for clause in clauses:
        if not sat.add_clause(clause):
            return SmtResult("unsat")
    if not sat.simplify():
        return SmtResult("unsat")

    lia = IntegerSolver(node_limit=node_limit, deadline=deadline)

    # Atoms fixed by root-level propagation are permanent facts.
    fixed_vars = set()
    for lit in sat.level0_literals():
        atom = registry.atom_of(abs(lit))
        if atom is None:
            continue
        fixed_vars.add(abs(lit))
        expr = atom.expr if lit > 0 else atom.negate().expr
        if lia.assert_base(expr, tag=lit) is not None:
            return SmtResult("unsat")

    theory_vars = [v for v in registry.theory_variables()
                   if v not in fixed_vars]
    iterations = 0

    while True:
        iterations += 1
        if deadline.expired():
            return SmtResult("unknown", stats={"iterations": iterations,
                                               "stopped_by": "deadline"})
        if iterations > iteration_limit:
            return SmtResult("unknown",
                             stats={"iterations": iterations,
                                    "stopped_by": "smt-iterations"})
        outcome = sat.solve(deadline=deadline)
        if outcome == UNSAT:
            return SmtResult("unsat", stats={"iterations": iterations})
        if outcome != SAT:
            return SmtResult("unknown", stats={"iterations": iterations,
                                               "stopped_by": "deadline"})
        bool_model = sat.model()

        assertions = []
        for v in theory_vars:
            atom = registry.atom_of(v)
            if bool_model.get(v, False):
                if registry.occurs(v):
                    assertions.append((atom.expr, v))
            elif registry.occurs(-v):
                assertions.append((atom.negate().expr, -v))
        result = lia.check(assertions)

        if result.status == "sat":
            model = reconstruct_model(result.model, steps)
            for name in all_vars:
                model.setdefault(name, 0)
            return SmtResult("sat", model=model,
                             stats={"iterations": iterations})
        if result.status == "unknown":
            return SmtResult("unknown",
                             stats={"iterations": iterations,
                                    "stopped_by": result.reason
                                    or "bb-nodes"})
        core = result.conflict
        if not core:
            raise SolverError("theory conflict with empty core")
        metrics.add("smt.theory_conflicts")
        metrics.observe("smt.core_size", len(core))
        if not sat.add_clause([-tag for tag in core]):
            return SmtResult("unsat", stats={"iterations": iterations})
