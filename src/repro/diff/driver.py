"""The differential driver: cross-check solvers on generated problems.

Every generated problem runs through two engines:

* ``pfa-inc`` — :class:`~repro.core.solver.TrauSolver` with the default
  pipeline, or the driver's *solver_config*;
* ``enum`` — the :class:`~repro.baselines.enumerative.EnumerativeSolver`
  oracle, complete within the generator's bounded domain.

Disagreement classes (most severe first):

* ``engine-error`` — an engine raised instead of answering;
* ``invalid-model`` — a SAT verdict whose model fails concrete
  re-evaluation (:func:`~repro.strings.eval.check_model`);
* ``refuted-certified-sat`` — an UNSAT verdict against a problem whose
  generation-time witness is a machine-checked SAT certificate;
* ``sat-unsat-split`` — definite verdicts disagree between engines
  (``oracle-refuted-unsat`` when the enumerative oracle has a validated
  model against a PFA-solver UNSAT);
* ``metamorphic:<transform>`` — the solver's definite verdict flips
  under a satisfiability-preserving transform.

UNKNOWN answers never count as disagreements — they are tallied so a
campaign's coverage is visible.
"""

import random
import time

from repro.baselines.enumerative import EnumerativeSolver
from repro.config import DEFAULT_CONFIG
from repro.core.solver import TrauSolver
from repro.diff.generator import GenConfig, generate
from repro.diff.shrink import save_reproducer, shrink_problem
from repro.diff.transforms import TRANSFORMS, apply_transform
from repro.obs import current_metrics, current_tracer
from repro.strings.eval import check_model


class Disagreement:
    """One confirmed divergence, with enough context to reproduce it."""

    __slots__ = ("kind", "engine", "detail", "index", "problem", "transform")

    def __init__(self, kind, engine, detail, index, problem, transform=None):
        self.kind = kind
        self.engine = engine
        self.detail = detail
        self.index = index
        self.problem = problem
        self.transform = transform

    def describe(self):
        where = "problem %s" % self.index
        if self.transform:
            where += " (transform %s)" % self.transform
        return "%s [%s] %s: %s" % (self.kind, self.engine, where,
                                   self.detail)

    def __repr__(self):
        return "Disagreement(%s)" % self.describe()


class CampaignReport:
    """Aggregated outcome of a fuzzing campaign."""

    def __init__(self, seed, n):
        self.seed = seed
        self.n = n
        self.statuses = {}          # engine -> {status: count}
        self.certified = 0
        self.metamorphic_checks = 0
        self.disagreements = []
        self.saved_paths = []
        self.seconds = 0.0

    def record_status(self, engine, status):
        table = self.statuses.setdefault(engine, {})
        table[status] = table.get(status, 0) + 1

    @property
    def ok(self):
        return not self.disagreements

    def summary_lines(self):
        lines = ["fuzz: %d problems (seed %d), %d certified-sat, "
                 "%d metamorphic checks, %.1fs"
                 % (self.n, self.seed, self.certified,
                    self.metamorphic_checks, self.seconds)]
        for engine in sorted(self.statuses):
            counts = self.statuses[engine]
            lines.append("  %-12s %s" % (engine, " ".join(
                "%s=%d" % (s, counts[s]) for s in sorted(counts))))
        if self.disagreements:
            lines.append("  DISAGREEMENTS: %d" % len(self.disagreements))
            for d in self.disagreements:
                lines.append("    " + d.describe())
            for path in self.saved_paths:
                lines.append("    reproducer: %s" % path)
        else:
            lines.append("  no disagreements")
        return lines


class DifferentialDriver:
    """Runs problems through all engines and classifies divergences."""

    def __init__(self, config=None, timeout=5.0, oracle_timeout=None,
                 metamorphic=True, transforms_per_problem=2,
                 validate_solver=True, solver_config=None):
        self.config = config or GenConfig()
        self.timeout = timeout
        self.oracle_timeout = oracle_timeout or timeout
        self.metamorphic = metamorphic
        self.transforms_per_problem = transforms_per_problem
        # validate=False lets the driver (not the solver's own quarantine)
        # catch invalid models, which is the point of the exercise; the
        # default keeps production behaviour.  *solver_config* is the
        # pfa-inc engine's pipeline (``repro fuzz --store`` names its
        # persistent store there).
        self.engines = {
            "pfa-inc": TrauSolver(config=solver_config or DEFAULT_CONFIG,
                                  validate=validate_solver),
            "enum": EnumerativeSolver(
                max_total_length=self.config.max_len + 2),
        }

    # -- engine execution -----------------------------------------------------

    def _solve(self, engine, problem):
        solver = self.engines[engine]
        timeout = self.oracle_timeout if engine == "enum" else self.timeout
        try:
            return solver.solve(problem, timeout=timeout)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            from repro.core.solver import SolveResult
            return SolveResult("error",
                               stats={"error": "%s: %s"
                                      % (type(exc).__name__, exc)})

    # -- classification --------------------------------------------------------

    def check_problem(self, generated, rng=None, report=None):
        """All disagreements for one generated problem."""
        rng = rng or random.Random(0)
        metrics = current_metrics()
        problem = generated.problem
        index = generated.seed_index
        found = []

        results = {}
        for engine in self.engines:
            results[engine] = self._solve(engine, problem)
            status = results[engine].status
            if report is not None:
                report.record_status(engine, status)
            if metrics.enabled:
                metrics.add("fuzz.status.%s.%s" % (engine, status))

        for engine, result in results.items():
            if result.status == "error":
                found.append(Disagreement(
                    "engine-error", engine, result.stats.get("error", "?"),
                    index, problem))
            elif result.status == "sat" \
                    and not check_model(problem, result.model):
                found.append(Disagreement(
                    "invalid-model", engine,
                    "model %r fails concrete validation" % (result.model,),
                    index, problem))

        valid_sat = {e for e, r in results.items() if r.status == "sat"
                     and check_model(problem, r.model)}
        unsat = {e for e, r in results.items() if r.status == "unsat"}

        if generated.certified:
            if not check_model(problem, generated.witness):
                # A generator bug, not a solver bug — but it must fail
                # the campaign loudly rather than poison the corpus.
                found.append(Disagreement(
                    "broken-certificate", "generator",
                    "witness %r does not satisfy its own problem"
                    % (generated.witness,), index, problem))
            else:
                for engine in sorted(unsat):
                    found.append(Disagreement(
                        "refuted-certified-sat", engine,
                        "unsat against witness %r" % (generated.witness,),
                        index, problem))

        if valid_sat and unsat:
            kind = "oracle-refuted-unsat" if "enum" in valid_sat \
                else "sat-unsat-split"
            found.append(Disagreement(
                kind, ",".join(sorted(unsat)),
                "sat(%s) vs unsat(%s)" % (",".join(sorted(valid_sat)),
                                          ",".join(sorted(unsat))),
                index, problem))

        if self.metamorphic:
            found.extend(self._check_metamorphic(
                generated, results["pfa-inc"].status, rng, report))

        if metrics.enabled:
            metrics.add("fuzz.problems")
            if found:
                metrics.add("fuzz.disagreements", len(found))
        return found

    def _check_metamorphic(self, generated, base_status, rng, report):
        problem = generated.problem
        metrics = current_metrics()
        found = []
        names = rng.sample(sorted(TRANSFORMS),
                           min(self.transforms_per_problem, len(TRANSFORMS)))
        for name in names:
            token = rng.randint(0, 10 ** 6)
            transformed = apply_transform(name, problem,
                                          random.Random(token))
            if transformed is None:
                continue
            if report is not None:
                report.metamorphic_checks += 1
            if metrics.enabled:
                metrics.add("fuzz.metamorphic.checks")
            result = self._solve("pfa-inc", transformed)
            if report is not None:
                report.record_status("pfa-inc:meta", result.status)
            detail = None
            if result.status == "sat" \
                    and not check_model(transformed, result.model):
                detail = "transformed model fails validation"
            elif {base_status, result.status} == {"sat", "unsat"}:
                detail = "verdict flip: %s -> %s" % (base_status,
                                                     result.status)
            if detail:
                if metrics.enabled:
                    metrics.add("fuzz.metamorphic.violations")
                found.append(Disagreement(
                    "metamorphic:%s" % name, "pfa-inc",
                    "%s (token %d)" % (detail, token),
                    generated.seed_index, problem, transform=name))
        return found

    # -- shrinking --------------------------------------------------------------

    def shrink_disagreement(self, disagreement, max_checks=200):
        """Minimize the problem while the same class still reproduces."""
        kind = disagreement.kind

        def predicate(candidate):
            from repro.diff.generator import GeneratedProblem
            probe = GeneratedProblem(candidate, {}, False,
                                     disagreement.index)
            if disagreement.transform:
                # Re-check only the offending transform, with the same
                # derivation token, so the predicate is deterministic.
                token = int(disagreement.detail.rsplit("token ", 1)[-1]
                            .rstrip(")"))
                base = self._solve("pfa-inc", candidate).status
                transformed = apply_transform(disagreement.transform,
                                              candidate,
                                              random.Random(token))
                if transformed is None:
                    return False
                result = self._solve("pfa-inc", transformed)
                if result.status == "sat" \
                        and not check_model(transformed, result.model):
                    return True
                return {base, result.status} == {"sat", "unsat"}
            probes = self.check_problem(probe, rng=random.Random(0))
            return any(d.kind == kind for d in probes)

        with current_tracer().span("fuzz.shrink", kind=kind):
            shrunk, checks = shrink_problem(disagreement.problem, predicate,
                                            max_checks=max_checks)
        return shrunk, checks

    def ground_truth(self, problem):
        """Best-effort expected status of a (shrunk) problem."""
        oracle = self._solve("enum", problem)
        if oracle.status == "sat" and check_model(problem, oracle.model):
            return "sat"
        if oracle.status == "unsat":
            return "unsat"
        for engine in self.engines:
            if engine == "enum":
                continue
            result = self._solve(engine, problem)
            if result.status == "sat" and check_model(problem, result.model):
                return "sat"
        return None


def run_campaign(seed=0, n=100, config=None, driver=None, save_dir=None,
                 shrink=True, progress=None):
    """Run *n* generated problems; returns a :class:`CampaignReport`.

    *save_dir* (when set) receives a shrunk ``.smt2`` reproducer per
    disagreement; *progress* is an optional callable fed one line per
    disagreement as it is found.
    """
    config = config or GenConfig()
    driver = driver or DifferentialDriver(config=config)
    report = CampaignReport(seed, n)
    started = time.monotonic()
    tracer = current_tracer()
    metrics = current_metrics()
    with tracer.span("fuzz.campaign", seed=seed, n=n):
        for index in range(n):
            rng = random.Random("%d:%d" % (seed, index))
            problem_started = time.monotonic()
            generated = generate(rng, config, seed_index=index)
            report.certified += 1 if generated.certified else 0
            found = driver.check_problem(generated, rng=rng, report=report)
            metrics.observe("fuzz.problem_s",
                            time.monotonic() - problem_started)
            if not found:
                continue
            report.disagreements.extend(found)
            for offset, disagreement in enumerate(found):
                if progress is not None:
                    progress(disagreement.describe())
                if not save_dir:
                    continue
                if shrink:
                    shrunk, _ = driver.shrink_disagreement(disagreement)
                else:
                    shrunk = disagreement.problem
                expected = driver.ground_truth(shrunk)
                name = "fuzz_seed%d_p%d_%d_%s" % (
                    seed, index, offset,
                    disagreement.kind.replace(":", "_").replace("-", "_"))
                path = save_reproducer(
                    shrunk, save_dir, name, expected=expected,
                    header=["repro.diff reproducer (campaign seed=%d, "
                            "problem %d)" % (seed, index),
                            disagreement.describe()])
                report.saved_paths.append(path)
    report.seconds = time.monotonic() - started
    if n:
        metrics.gauge("fuzz.disagreement_rate",
                      len(report.disagreements) / n)
    return report
