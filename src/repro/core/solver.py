"""The top-level decision procedure (Section 4 + Section 9 strategy).

``TrauSolver.solve`` runs the two-phase loop of the paper:

1. **Over-approximation** — a sound LIA relaxation; UNSAT here is UNSAT of
   the input.
2. **Under-approximation** — pick a flat domain restriction (PFA per string
   variable), flatten the whole problem to a linear formula, and hand it to
   the SMT core.  A model decodes to strings (Lemma 5.1) and is re-checked
   by the concrete evaluator before being returned.  No model means the
   restriction was too small: the next refinement round retries with larger
   PFAs, and after the schedule is exhausted the solver answers UNKNOWN.

Observability: every phase and every refinement round runs inside a
``repro.obs`` span, and the flat metrics view is merged into
``SolveResult.stats`` alongside ``elapsed_s``/``rounds``/``phase``.  The
default context is the zero-overhead null tracer; pass ``tracer=`` (and
optionally ``metrics=``) to the constructor, or install a context with
``repro.obs.scope``, to collect data.

Resilience (DESIGN.md Section 7): the procedure is best-effort by
construction — it may answer UNKNOWN, never crash or lie.  ``solve``
therefore runs a **graceful-degradation ladder**: an internal failure
(a :class:`SolverError`, a cache inconsistency, a decoded model failing
concrete validation) does not escape but triggers a retry on the next
rung — default pipeline → caches disabled → minimal pipeline
(presolve/overapproximation/analysis off).  The rung taken is
recorded in ``stats["degraded_to"]`` and as a tracer event per failed
rung; a validation-failing model is quarantined, never returned.
Resource exhaustion is *not* degraded (retrying would burn more budget):
it returns UNKNOWN with ``stats["stopped_by"]`` naming the tripped
budget from :class:`~repro.errors.ResourceLimit.reason`.
"""

import time
from dataclasses import replace

from repro import cache as _cache
from repro import faults as _faults
from repro import store as _store
from repro.alphabet import DEFAULT_ALPHABET
from repro.config import DEFAULT_CONFIG
from repro.core.flatten import Flattener
from repro.core.names import NameFactory
from repro.core.normalize import normalize
from repro.core.overapprox import overapproximate
from repro.core.preprocess import expand_duplicates
from repro.core.strategy import (
    analyze_lengths, build_restriction, loop_length_hint,
)
from repro.errors import ResourceLimit, SolverError
from repro.obs import scope as obs_scope
from repro.smt import IncrementalSmtSession
from repro.strings.ast import StringProblem
from repro.strings.eval import check_model, failing_constraints
from repro.strings.ops import ProblemBuilder

DEGRADATION_LADDER = ("default", "no-cache", "minimal", "give-up")
"""Rung names of the degradation ladder, in the order they are tried.
``give-up`` is the terminal rung: every configuration failed and the
answer is an UNKNOWN attributed to ``internal-error``."""


def _rung_name(config):
    """The ladder rung a configuration corresponds to."""
    if config.use_caches:
        return "default"
    if config.use_presolve:
        return "no-cache"
    return "minimal"


def _corrupt_interp(interp):
    """Mutator for the ``solver.decode`` corrupt-mode fault point:
    perturb one decoded value so concrete validation rejects the model
    and the quarantine path runs."""
    for name in sorted(interp):
        value = interp[name]
        if isinstance(value, str):
            interp[name] = value + "~"
        else:
            interp[name] = value + 1
        break
    return interp


class SolveResult:
    """Outcome of a string-constraint query."""

    __slots__ = ("status", "model", "stats")

    def __init__(self, status, model=None, stats=None):
        self.status = status        # "sat" | "unsat" | "unknown"
        self.model = model          # var name -> str (strings) / int
        self.stats = stats or {}

    def __repr__(self):
        return "SolveResult(%s)" % self.status


class TrauSolver:
    """PFA-based string constraint solver (the paper's Z3-Trau)."""

    def __init__(self, config=None, alphabet=DEFAULT_ALPHABET,
                 validate=True, tracer=None, metrics=None):
        self.config = config or DEFAULT_CONFIG
        self.alphabet = alphabet
        self.validate = validate
        self.tracer = tracer        # None -> ambient repro.obs context
        self.metrics = metrics

    def solve(self, problem, timeout=None, budget=None):
        """Decide a :class:`StringProblem` (or a builder holding one).

        *budget* is an optional :class:`~repro.config.Budget`; when
        omitted one is built from the config's limits and *timeout*.
        The call never raises for an internal failure: the degradation
        ladder retries on progressively simpler pipelines and the worst
        case is an UNKNOWN with ``stats["stopped_by"]`` explaining why.
        """
        if isinstance(problem, ProblemBuilder):
            problem = problem.problem
        if not isinstance(problem, StringProblem):
            raise SolverError("expected a StringProblem")
        if budget is None:
            budget = self.config.budget(timeout)
        started = time.monotonic()
        with obs_scope(self.tracer, self.metrics) as (tracer, metrics):
            with _faults.injected(specs=self.config.fault_specs):
                with tracer.span("solve") as root:
                    store = _store.active_store(self.config)
                    result = None
                    verdict_key = None
                    if store is not None:
                        # One key per solve, computed before any phase
                        # can touch the problem object: the key recorded
                        # after solving must be the key the next worker
                        # generation looks up.
                        verdict_key = self._verdict_key(problem)
                        result = self._store_lookup(store, problem,
                                                    verdict_key, tracer,
                                                    metrics)
                    if result is None:
                        result = self._solve_ladder(problem, budget, tracer,
                                                    metrics)
                        if store is not None:
                            self._store_record(store, problem, verdict_key,
                                               result)
                    root.set(status=result.status)
            result.stats["elapsed_s"] = time.monotonic() - started
            if metrics.enabled:
                metrics.gauge("refinement.rounds",
                              result.stats.get("rounds", 0))
                result.stats.update(metrics.flat())
        return result

    def _verdict_key(self, problem):
        return (_cache.problem_fingerprint(problem),
                self.alphabet.signature())

    def _store_lookup(self, store, problem, verdict_key, tracer, metrics):
        """A persisted verdict for *problem*, or None.

        Validate-on-read is the whole contract: a SAT entry's model (its
        certificate) is re-checked by the concrete evaluator on every
        read, and an UNSAT entry is believed only with the
        budget-independence marker from the memo discipline — entries
        that fail either check are quarantined by the store and the
        solve proceeds fresh.
        """
        def validator(value, meta):
            if not isinstance(value, dict):
                return False
            status = value.get("status")
            if status == "sat":
                model = value.get("model")
                return isinstance(model, dict) and check_model(
                    problem, model, self.alphabet)
            if status == "unsat":
                return bool(meta.get("budget_independent"))
            return False

        hit = store.get("verdict", verdict_key, validator=validator)
        if hit is _store.MISSING:
            if metrics.enabled:
                metrics.add("store.verdict.misses")
            return None
        if metrics.enabled:
            metrics.add("store.verdict.hits")
        tracer.event("store.verdict_hit", status=hit["status"])
        return SolveResult(hit["status"], model=hit.get("model"),
                           stats={"rounds": 0, "phase": "store",
                                  "store": "hit"})

    def _store_record(self, store, problem, verdict_key, result):
        """Persist a verdict worth re-using: never from a degraded rung
        (the failing rung, not the answer, is suspect), never UNKNOWN.
        SAT entries carry their model as the certificate (re-validated
        here unless the solve already did); UNSAT entries only come from
        proof-carrying phases, all budget-independent — a deeper
        refinement schedule could not change them."""
        if result.stats.get("degraded_to") or result.stats.get("store"):
            return
        if result.status == "sat":
            model = result.model
            if not isinstance(model, dict):
                return
            if not self.validate and not check_model(problem, model,
                                                     self.alphabet):
                return
            store.put("verdict", verdict_key,
                      {"status": "sat", "model": dict(model)},
                      meta={"phase": result.stats.get("phase")})
        elif result.status == "unsat":
            phase = result.stats.get("phase")
            if phase in ("normalization", "overapproximation",
                         "complete-underapproximation"):
                store.put("verdict", verdict_key, {"status": "unsat"},
                          meta={"budget_independent": True, "phase": phase})

    def _ladder(self):
        """The (rung name, config) sequence to try, starting from the
        configured pipeline and shedding one subsystem per rung."""
        base = self.config
        candidates = [
            base,
            replace(base, use_caches=False),
            replace(base, use_caches=False, use_presolve=False,
                    use_overapproximation=False, use_static_analysis=False),
        ]
        rungs = []
        seen = set()
        for config in candidates:
            name = _rung_name(config)
            if name not in seen:
                seen.add(name)
                rungs.append((name, config))
        return rungs

    def _solve_ladder(self, problem, budget, tracer, metrics):
        """Try each ladder rung until one completes; never raises."""
        degradations = []
        last_error = None
        for attempt, (rung, config) in enumerate(self._ladder()):
            if attempt and budget.expired():
                # No budget left to retry on: the failure is reported as
                # an attributable UNKNOWN rather than a silent stall.
                break
            try:
                if config.use_caches:
                    result = self._solve(problem, budget, tracer,
                                         metrics, config)
                else:
                    with _cache.disabled():
                        result = self._solve(problem, budget, tracer,
                                             metrics, config)
            except ResourceLimit as exc:
                # Budget exhaustion is not an internal failure; a retry
                # would only burn more of the budget that just tripped.
                stats = {"stopped_by": exc.reason}
                if degradations:
                    stats["degraded_to"] = rung
                    stats["degradations"] = degradations
                return SolveResult("unknown", stats=stats)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                last_error = exc
                degradations.append("%s: %s: %s"
                                    % (rung, type(exc).__name__, exc))
                tracer.event("degradation", rung_failed=rung,
                             error=type(exc).__name__)
                if metrics.enabled:
                    metrics.add("resilience.degradations")
                continue
            if degradations:
                result.stats["degraded_to"] = rung
                result.stats["degradations"] = degradations
                tracer.event("degraded_result", rung=rung)
            return result
        stats = {"stopped_by": "internal-error",
                 "degraded_to": "give-up",
                 "degradations": degradations}
        if last_error is not None:
            stats["error"] = "%s: %s" % (type(last_error).__name__,
                                         last_error)
        tracer.event("degradation_exhausted")
        if metrics.enabled:
            metrics.add("resilience.gave_up")
        return SolveResult("unknown", stats=stats)

    def _solve(self, problem, deadline, tracer, metrics, config=None):
        config = config or self.config
        names = NameFactory()
        stats = {"rounds": 0}

        with tracer.span("normalize"):
            normalized = normalize(problem, self.alphabet)
        if normalized.infeasible:
            stats["phase"] = "normalization"
            return SolveResult("unsat", stats=stats)
        expanded = expand_duplicates(normalized.problem, names)

        if config.use_overapproximation:
            with tracer.span("overapprox") as span:
                outcome = overapproximate(expanded, self.alphabet, deadline,
                                          config)
                span.set(status=outcome.status)
            if outcome.status == "unsat":
                stats["phase"] = "overapproximation"
                stats["reason"] = outcome.reason
                return SolveResult("unsat", stats=stats)
        if deadline.checkpoint(tracer):
            stats["stopped_by"] = "deadline"
            return SolveResult("unknown", stats=stats)

        hints = {}
        if config.use_static_analysis:
            with tracer.span("analyze") as span:
                hints = analyze_lengths(expanded, self.alphabet, deadline,
                                        config)
                span.set(hints=len(hints))
        q0 = loop_length_hint(expanded, config.initial_loop_length)

        # Cross-round incremental state: one SMT session (SAT solver +
        # Tseitin cache) for all rounds, plus the carriers that keep
        # fragments identical between rounds — the PFA objects themselves
        # and their flattened formulas.
        session = IncrementalSmtSession(config)
        pfa_reuse = {}
        frag_cache = {}

        for round_index, step in enumerate(config.schedule(q0)):
            if deadline.checkpoint(tracer):
                stats["stopped_by"] = "deadline"
                break
            stats["rounds"] = round_index + 1
            with tracer.span("round", round=round_index + 1,
                             m=step.numeric_m, p=step.loops,
                             q=step.loop_length) as round_span:
                try:
                    result = self._round(problem, normalized, expanded,
                                         step, names, hints, round_index,
                                         deadline, tracer, metrics, stats,
                                         session, pfa_reuse, frag_cache,
                                         config)
                except ResourceLimit as exc:
                    # Name the budget that actually tripped instead of
                    # blaming the deadline for every exhaustion.
                    stats["stopped_by"] = exc.reason
                    round_span.set(status=exc.reason)
                    return SolveResult("unknown", stats=stats)
                round_span.set(status="refine" if result is None
                               else result.status)
            if result is not None:
                return result
            # UNSAT of the under-approximation is inconclusive; refine.
        if "stopped_by" not in stats and deadline.expired():
            stats["stopped_by"] = "deadline"
        stats.setdefault("stopped_by", "refinement-exhausted")
        return SolveResult("unknown", stats=stats)

    def _round(self, problem, normalized, expanded, step, names, hints,
               round_index, deadline, tracer, metrics, stats, session,
               pfa_reuse, frag_cache, config):
        """One refinement round; None means "too small, refine"."""
        counter_bound = deadline.parikh_counter_bound \
            or config.parikh_counter_bound

        with tracer.span("restrict"):
            restriction, complete = build_restriction(
                expanded, step, names, self.alphabet, hints, round_index,
                reuse=pfa_reuse)
        with tracer.span("flatten"):
            flattener = Flattener(expanded, restriction, self.alphabet,
                                  names, counter_bound,
                                  fragment_cache=frag_cache,
                                  deadline=deadline)
            fragments = flattener.fragments()
        result = session.solve(fragments, deadline=deadline)
        if result.status == "unknown" and "stopped_by" in result.stats:
            # Remember which budget cut the round short: a later
            # refinement-exhausted UNKNOWN is then attributable too.
            stats["budget_tripped"] = result.stats["stopped_by"]
        if result.status == "unsat" and complete:
            # Every variable's restriction provably covers all of its
            # possible values (sound length bounds + straight PFAs),
            # so the under-approximation is exact and its
            # unsatisfiability transfers to the input.
            stats["phase"] = "complete-underapproximation"
            return SolveResult("unsat", stats=stats)
        if result.status == "sat":
            with tracer.span("decode"):
                interp = self._decode(problem, normalized, restriction,
                                      result.model)
            if self.validate:
                with tracer.span("validate") as span:
                    ok = check_model(problem, interp, self.alphabet)
                    span.set(ok=ok)
                if not ok:
                    # Quarantine: the model is never returned.  Raising
                    # SolverError hands control to the degradation
                    # ladder, which retries on the next rung.
                    tracer.event("model_quarantined")
                    if metrics.enabled:
                        metrics.add("resilience.quarantined_models")
                    raise SolverError(
                        "decoded model fails validation on %r"
                        % failing_constraints(problem, interp,
                                              self.alphabet))
            stats["phase"] = "underapproximation"
            return SolveResult("sat", model=interp, stats=stats)
        return None

    def _decode(self, problem, normalized, restriction, model):
        """Turn an LIA model into a string/integer interpretation.

        Variables eliminated by normalization come back from their pins;
        the rest decode from their PFAs (Lemma 5.1).
        """
        if _faults.ARMED:
            _faults.point("solver.decode")
        interp = {}
        for v in problem.string_vars():
            if v.name in restriction:
                codes = restriction[v.name].decode(model)
                interp[v.name] = self.alphabet.decode_word(codes)
            else:
                interp[v.name] = normalized.pins.get(v.name, "")
        for name in problem.int_vars():
            interp[name] = model.get(name, 0)
        if _faults.ARMED:
            interp = _faults.corrupt("solver.decode", interp,
                                     _corrupt_interp)
        return interp
