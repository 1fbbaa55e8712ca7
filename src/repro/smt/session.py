"""Lazy DPLL(T) over linear integer arithmetic, incremental across queries.

This module stands in for Z3's core in the reproduction (the paper
implements its procedure as a Z3 theory plugin).  A query is a boolean
combination of linear atoms, handed over as keyed **fragments**; the
pipeline is

1. presolve — per fragment, eliminate variables no other fragment
   mentions and propagate intervals;
2. Tseitin — CNF skeleton with canonicalized atoms;
3. root propagation — atoms unit propagation implies under the query's
   fragments are asserted into the (incremental) integer solver once;
4. lazy loop — the CDCL core enumerates propositional models; the atoms
   the model commits to (skipping don't-care polarities that never occur
   in the CNF) are checked by branch-and-bound inside a push/pop frame; a
   theory conflict adds its (negated) core as a blocking clause;
5. connectivity check — a fragment may carry *checks*, the connectivity
   obligations of the cyclic automata its formula encodes the Parikh
   image of (:mod:`repro.automata.parikh`).  When branch-and-bound
   accepts a model, the checks of the active fragments run on it; a
   violated check yields lemmas, which are added as clauses before the
   loop goes round again (counting against the iteration budget like any
   other iteration).  The model is returned only when no check objects.

Soundness: a returned model satisfies every asserted atom with the
polarity the SAT model chose, hence satisfies the formula (the skeleton
is monotone in the unasserted don't-care atoms), and it passes every
check.  Completeness relative to the budgets: every propositional model
is either accepted or excluded by a clause that only rules out
theory-inconsistent assignments or flows that no word has.

A lemma speaks about the raw flow variables, but presolve may have
eliminated them, so each lemma atom is first rewritten through its own
fragment's substitutions (otherwise the integer solver would never see
it, and the loop would accept the same model again).  A rewritten atom
can mention variables other fragments share, so the lemma holds only
together with its fragment: its clause is guarded by the fragment's
activation literal, ``(not g) or (not y_c >= 1) or (y_t >= 1) ...``,
which makes the lemmas of a retired fragment vacuous.  A fragment that
presolve folds to ``TRUE`` is still installed under a guard when it has
checks; a lemma whose atoms all fold to constants then refutes the
fragment through its guard alone.  Lemma atoms occur in no fragment's
formula, so they are noted as occurring and asserted in the theory check
while their fragment is active.

:func:`solve_formula` is a session with one round.  The CEGAR loop of
:class:`~repro.core.solver.TrauSolver` instead feeds one session a
*sequence* of round formulas that share most of their structure (a
refinement round only replaces the fragments whose PFA grew).  An
:class:`IncrementalSmtSession` exploits that:

* one :class:`~repro.sat.SatSolver` lives for the whole session, so learnt
  clauses, variable activities and saved phases carry over between rounds;
* one :class:`~repro.logic.cnf.AtomRegistry` plus a persistent Tseitin
  node cache keep atom-to-variable numbering stable, so an atom shared by
  two rounds is *the same* SAT variable in both;
* a fragment whose formula is unchanged since the previous round is
  reused wholesale (its clauses are already in the solver); a changed
  fragment is re-encoded and its stale version is retired permanently.

Soundness of clause reuse (see DESIGN.md Section 6): definitional Tseitin
clauses only relate fresh label variables to their definitions, so they
are valid in *any* formula and are added unguarded.  Only the root
assertion of a fragment is conditional: it is guarded by a fresh
**activation literal** ``g`` as the clause ``(not g) or root`` and the
round is solved under the assumptions ``g_1 .. g_k`` of its active
fragments.  Every clause the SAT core learns is a consequence of
permanently-present clauses (guards are plain variables to the core), so
learnt clauses never need to be forgotten; retiring a fragment asserts
``not g`` at level zero, which simply satisfies its guard clause forever.

The theory side re-harvests its base facts per round: literals implied by
unit propagation under the round's assumptions are asserted as permanent
facts into a fresh per-round :class:`~repro.lia.branch_bound.IntegerSolver`
(which is itself incremental across the round's lazy-loop iterations).
Theory conflicts become *unguarded* blocking clauses — a theory lemma is
valid regardless of which fragments are active — so later rounds inherit
them too.
"""

from math import inf

from repro import faults as _faults
from repro.config import Deadline, DEFAULT_CONFIG
from repro.errors import SolverError
from repro.lia.branch_bound import IntegerSolver
from repro.logic.cnf import AtomRegistry, encode_into
from repro.logic.formula import (
    FALSE, BoolConst, atoms_of, le, nnf, variables_of,
)
from repro.logic.presolve import collect_bounds, presolve, reconstruct_model
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
    """The mutator the ``smt.session.solve`` corrupt-mode fault point
    applies: perturb *every* model value of a SAT answer (a
    single-variable lie could land on an auxiliary the decoder ignores),
    so the decoded strings fail concrete validation and exercise the
    model quarantine of the degradation ladder."""
    if result.status == "sat" and result.model:
        for name, value in list(result.model.items()):
            result.model[name] = (value + 1) if isinstance(value, int) else 0
    return result


def solve_formula(formula, deadline=None, config=None, checks=()):
    """Decide satisfiability of a linear-atom formula over the integers,
    restricted to the models that pass *checks* (a one-round
    :class:`IncrementalSmtSession`)."""
    return IncrementalSmtSession(config).solve(
        [("formula", formula, tuple(checks))], deadline)


class _Fragment:
    """One keyed piece of a round formula, as encoded in the session."""

    __slots__ = ("formula", "guard", "clause_count", "atom_vars", "checks",
                 "steps")


def _rewrite(atom, steps):
    """*atom* over the variables presolve kept: apply the fragment's
    elimination *steps* in order.  Returns an atom, ``TRUE`` or
    ``FALSE``."""
    expr = atom.expr
    for name, definition in steps:
        if name in expr.coeffs:
            expr = expr.substitute({name: definition})
    return le(expr, 0)


class IncrementalSmtSession:
    """A persistent SMT context for a sequence of related queries."""

    def __init__(self, config=None):
        self.config = config or DEFAULT_CONFIG
        self.registry = AtomRegistry()
        self.sat = SatSolver()
        self._encode_cache = {}
        self._fragments = {}            # key -> _Fragment
        # key -> (raw, raw_vars, own_bounds, reduced, steps, eliminated,
        # ambient): the local presolve of each raw fragment, reusable
        # while the raw formula is the same object, no variable it
        # eliminated has since become shared with another fragment, and
        # the ambient bounds its folding saw are unchanged.
        self._presolve_cache = {}
        self._globally_unsat = False
        self.rounds = 0

    # -- per-fragment presolve ----------------------------------------------

    def _presolve_fragments(self, fragments):
        """Locally presolve each fragment; returns (reduced, steps, vars),
        *reduced* holding ``(key, formula, checks, steps)`` per fragment
        and *steps* every fragment's eliminations in order.

        Elimination is restricted to variables occurring in exactly one
        fragment, so the conjunction of the reduced fragments stays
        equisatisfiable with the round formula and every fragment's
        reduction is independent of the others — which is what makes it
        cacheable across rounds.  Interval folding additionally sees the
        *ambient* bounds the other fragments' top-level atoms imply (a
        pinned length in one fragment folds the positional equations of
        another); since retention keeps top-level single-variable bounds
        in every reduced fragment, those justifying atoms survive
        presolve and the folding stays sound for the round.  A cached
        reduction is revalidated against the current sharing structure
        and ambient bounds: a variable that was fragment-local (and
        eliminated) last round may be mentioned by a newly flattened
        fragment this round, and a bound another fragment contributed may
        have changed — either forces a re-presolve.
        """
        entries = []
        occurrences = {}
        global_env = {}
        for key, formula, checks in fragments:
            cached = self._presolve_cache.get(key)
            if cached is not None and cached[0] is not formula:
                cached = None
            if cached is not None:
                raw_vars, own_bounds = cached[1], cached[2]
            else:
                raw_vars = frozenset(variables_of(formula))
                own_bounds = collect_bounds(formula)
            entries.append((key, formula, checks, raw_vars, own_bounds,
                            cached))
            for v in raw_vars:
                occurrences[v] = occurrences.get(v, 0) + 1
            for v, (lo, hi) in own_bounds.items():
                env_lo, env_hi = global_env.get(v, (-inf, inf))
                global_env[v] = (max(lo, env_lo), min(hi, env_hi))
        reduced_fragments = []
        steps = []
        all_vars = set()
        for key, formula, checks, raw_vars, own_bounds, cached in entries:
            all_vars.update(raw_vars)
            shared = {v for v in raw_vars if occurrences[v] > 1}
            ambient = {v: global_env[v] for v in raw_vars
                       if v in global_env}
            if cached is not None and not (cached[5] & shared) \
                    and cached[6] == ambient:
                reduced_fragments.append((key, cached[3], checks, cached[4]))
                steps.extend(cached[4])
                continue
            reduced, frag_steps = presolve(formula,
                                           allowed=raw_vars - shared,
                                           ambient=ambient)
            self._presolve_cache[key] = (
                formula, raw_vars, own_bounds, reduced, frag_steps,
                frozenset(v for v, _ in frag_steps), ambient)
            reduced_fragments.append((key, reduced, checks, frag_steps))
            steps.extend(frag_steps)
        return reduced_fragments, steps, all_vars

    # -- fragment management ------------------------------------------------

    def _install(self, key, formula, checks, steps):
        """Encode *formula* under *key*; returns (fragment, reused).

        A fragment with checks is reused only with the identical checks
        and presolve steps: its lemmas were rewritten through those steps.
        """
        old = self._fragments.get(key)
        if old is not None and (old.formula is formula
                                or old.formula == formula) \
                and (not (checks or old.checks)
                     or (old.checks is checks and old.steps is steps)):
            return old, True
        if old is not None:
            # Retire the stale version for good: its guard goes false at
            # level zero, permanently satisfying its root clause.
            if not self.sat.add_clause([-old.guard]):
                self._globally_unsat = True
        frag = _Fragment()
        frag.formula = formula
        clauses = []
        root = encode_into(nnf(formula), self.registry, self._encode_cache,
                           clauses)
        guard = self.registry.fresh_var()
        clauses.append([-guard, root])
        for clause in clauses:
            if not self.sat.add_clause(clause):
                self._globally_unsat = True
        frag.guard = guard
        frag.clause_count = len(clauses)
        # The fragment's theory variables; its lemma atoms join them.
        frag.atom_vars = {abs(self.registry.literal(a))
                          for a in atoms_of(formula)}
        frag.checks = checks
        frag.steps = steps
        self._fragments[key] = frag
        return frag, False

    def _add_lemmas(self, frag, model):
        """Run *frag*'s checks on *model* and add every lemma they return
        as a clause guarded by the fragment's activation literal, each atom
        rewritten through the fragment's presolve steps.  Returns the
        number of lemmas added."""
        registry = self.registry
        added = 0
        for check in frag.checks:
            for lemma in check.check(model):
                clause = [-frag.guard]
                for atom in lemma:
                    atom = _rewrite(atom, frag.steps)
                    if atom is FALSE:
                        continue
                    if isinstance(atom, BoolConst):
                        raise SolverError(
                            "connectivity lemma holds in the model it "
                            "was derived from")
                    lit = registry.literal(atom)
                    registry.note_occurrence(lit)
                    frag.atom_vars.add(abs(lit))
                    clause.append(lit)
                if not self.sat.add_clause(clause):
                    self._globally_unsat = True
                added += 1
        return added

    # -- solving ------------------------------------------------------------

    def solve(self, fragments, deadline=None):
        """Decide the conjunction of keyed *fragments* for this round.

        *fragments* is an ordered sequence of ``(key, formula, checks)``
        triples; fragments keyed like a previous round's and structurally
        equal to it are reused without re-encoding.  Returns the
        :class:`SmtResult` for the conjunction, whose model passes every
        fragment's checks.
        """
        if _faults.ARMED:
            _faults.point("smt.session.solve")
        tracer = current_tracer()
        with tracer.span("smt.solve") as span:
            result = self._solve(fragments, deadline)
            if _faults.ARMED:
                result = _faults.corrupt("smt.session.solve", result,
                                         corrupt_result)
            span.set(status=result.status, **result.stats)
            metrics = current_metrics()
            if metrics.enabled:
                metrics.add("smt.calls")
                metrics.add("smt.iterations",
                            result.stats.get("iterations", 0))
        return result

    def _solve(self, fragments, deadline):
        deadline = deadline or Deadline.unbounded()
        config = self.config
        # Budget limits govern when present; config knobs are the default.
        iteration_limit = deadline.smt_iteration_limit \
            or config.smt_iteration_limit
        node_limit = deadline.bb_node_limit or config.bb_node_limit
        metrics = current_metrics()
        self.rounds += 1

        fragments, steps, all_vars = self._presolve_fragments(fragments)

        active = []
        reused_clauses = 0
        encoded = 0
        # A false fragment decides the round, but the remaining fragments
        # are still installed: the ones that survive into the next round
        # unchanged (typically everything except the too-small PFA that
        # caused the falsehood) are then reused instead of re-encoded.
        round_unsat = False
        for key, formula, checks, frag_steps in fragments:
            if isinstance(formula, BoolConst):
                if not formula.value:
                    round_unsat = True
                    continue
                # A fragment folded to TRUE keeps its checks: it is
                # installed so they run, and a lemma may still refute it.
                if not checks:
                    continue
            frag, reused = self._install(key, formula, checks, frag_steps)
            active.append(frag)
            if reused:
                reused_clauses += frag.clause_count
            else:
                encoded += 1
        if metrics.enabled:
            metrics.add("smt.clauses_reused", reused_clauses)
            metrics.add("smt.fragments_encoded", encoded)
            metrics.add("smt.fragments_reused", len(active) - encoded)
        if round_unsat or self._globally_unsat:
            return SmtResult("unsat",
                             stats={"reused_clauses": reused_clauses})

        assumptions = [frag.guard for frag in active]

        if not self.sat.simplify():
            self._globally_unsat = True
            return SmtResult("unsat",
                             stats={"reused_clauses": reused_clauses})

        # Facts for the theory: literals that hold whenever this round's
        # guards do.  They seed a fresh integer solver (fresh per round
        # because base facts are permanent inside an IntegerSolver, and
        # the guard set changes between rounds).
        implied = self.sat.propagate_assumptions(assumptions)
        if implied is None:
            if not self.sat._ok:
                self._globally_unsat = True
            return SmtResult("unsat",
                             stats={"reused_clauses": reused_clauses})

        lia = IntegerSolver(node_limit=node_limit, deadline=deadline)
        registry = self.registry
        fixed_vars = set()
        for lit in implied:
            atom = registry.atom_of(abs(lit))
            if atom is None:
                continue
            fixed_vars.add(abs(lit))
            expr = atom.expr if lit > 0 else atom.negate().expr
            if lia.assert_base(expr, tag=lit) is not None:
                return SmtResult("unsat",
                                 stats={"reused_clauses": reused_clauses})

        def collect_theory_vars():
            found = set()
            for frag in active:
                found.update(frag.atom_vars)
            return sorted(found - fixed_vars)

        theory_vars = collect_theory_vars()
        checked = [frag for frag in active if frag.checks]

        stats = {"reused_clauses": reused_clauses}
        if checked:
            stats["connectivity_lemmas"] = 0
        iterations = 0
        while True:
            iterations += 1
            stats["iterations"] = iterations
            if deadline.expired():
                stats["stopped_by"] = "deadline"
                return SmtResult("unknown", stats=stats)
            if iterations > iteration_limit:
                stats["stopped_by"] = "smt-iterations"
                return SmtResult("unknown", stats=stats)
            outcome = self.sat.solve(deadline=deadline,
                                     assumptions=assumptions)
            if outcome == UNSAT:
                if not self.sat._ok:
                    self._globally_unsat = True
                return SmtResult("unsat", stats=stats)
            if outcome != SAT:
                stats["stopped_by"] = "deadline"
                return SmtResult("unknown", stats=stats)
            bool_model = self.sat.model()

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
                added = sum(self._add_lemmas(frag, model)
                            for frag in checked)
                if not added:
                    return SmtResult("sat", model=model, stats=stats)
                stats["connectivity_lemmas"] += added
                if metrics.enabled:
                    metrics.add("smt.connectivity_lemmas", added)
                if self._globally_unsat:
                    return SmtResult("unsat", stats=stats)
                theory_vars = collect_theory_vars()
                continue
            if result.status == "unknown":
                stats["stopped_by"] = result.reason or "bb-nodes"
                return SmtResult("unknown", stats=stats)
            core = result.conflict
            if not core:
                raise SolverError("theory conflict with empty core")
            if metrics.enabled:
                metrics.add("smt.theory_conflicts")
                metrics.observe("smt.core_size", len(core))
            # A theory lemma is valid independently of the active guards,
            # so the blocking clause is permanent: later rounds reuse it.
            if not self.sat.add_clause([-tag for tag in core]):
                self._globally_unsat = True
                return SmtResult("unsat", stats=stats)
