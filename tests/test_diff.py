"""Tests for the differential/metamorphic harness (repro.diff)."""

import random

from hypothesis import given, settings

from repro.diff import (
    DifferentialDriver, GenConfig, TRANSFORMS, apply_transform, generate,
    run_campaign, save_reproducer, shrink_problem,
)
from repro.diff.strategies import generated_problems
from repro.smtlib import load_problem, problem_to_smtlib
from repro.strings import ProblemBuilder, check_model, str_len
from repro.logic import eq


class TestGenerator:
    def test_deterministic_from_seed(self):
        render = lambda i: problem_to_smtlib(
            generate(random.Random("7:%d" % i), GenConfig()).problem)
        first = [render(i) for i in range(5)]
        second = [render(i) for i in range(5)]
        assert first == second

    def test_certified_witness_validates(self):
        certified = 0
        for index in range(40):
            g = generate(random.Random("3:%d" % index), GenConfig(),
                         seed_index=index)
            if not g.certified:
                continue
            certified += 1
            assert check_model(g.problem, g.witness), index
        assert certified >= 5  # the lie rate must leave certificates

    def test_witness_covers_every_variable(self):
        for index in range(25):
            g = generate(random.Random("9:%d" % index), GenConfig())
            names = {v.name for v in g.problem.string_vars()}
            names |= set(g.problem.int_vars())
            missing = names - set(g.witness)
            assert not missing, (index, missing)

    @settings(max_examples=25, deadline=None)
    @given(generated_problems(max_constraints=3))
    def test_strategy_yields_problems(self, g):
        assert len(g.problem) >= 1
        assert isinstance(g.certified, bool)


class TestTransforms:
    def _certified(self, index=0):
        rng = random.Random("11:%d" % index)
        while True:
            g = generate(rng, GenConfig(lie_rate=0.0))
            if g.certified:
                return g

    def test_rename_preserves_satisfiability_of_witness(self):
        g = self._certified()
        transformed = apply_transform("rename", g.problem,
                                      random.Random(42))
        # The same witness under the renaming must still validate.
        renamed = apply_transform("rename", g.problem, random.Random(42))
        assert renamed is not None and len(renamed) == len(g.problem)

    def test_shuffle_keeps_witness(self):
        g = self._certified(1)
        transformed = apply_transform("shuffle", g.problem,
                                      random.Random(0))
        assert check_model(transformed, g.witness)

    def test_split_eq_adds_fresh_link_variable(self):
        from repro.strings import WordEquation

        applied = 0
        for index in range(20):
            g = generate(random.Random("19:%d" % index), GenConfig())
            if not g.problem.by_kind(WordEquation):
                continue
            transformed = apply_transform("split_eq", g.problem,
                                          random.Random(0))
            assert transformed is not None
            # One equation became two through a fresh variable.
            assert len(transformed) == len(g.problem) + 1
            applied += 1
        assert applied >= 3

    def test_roundtrip_is_parse_stable(self):
        """print -> parse -> print -> parse is stable where printable.

        A reparsed problem keeps regexes only as automata, so a second
        print may legitimately fail for infinite languages (the
        transform then returns None).  On the remaining problems
        consecutive prints must agree byte-for-byte — the dialect heads
        (str.to_code.partial, str.diseq.char) exist precisely so that
        desugar-internal constraints reach this fixpoint.
        """
        from repro.errors import ReproError

        stable = 0
        for index in range(12):
            g = generate(random.Random("13:%d" % index), GenConfig())
            transformed = apply_transform("roundtrip", g.problem,
                                          random.Random(0))
            if transformed is None:      # unprintable problems are skipped
                continue
            again = apply_transform("roundtrip", transformed,
                                    random.Random(0))
            if again is None:
                continue
            try:
                first = problem_to_smtlib(transformed)
                second = problem_to_smtlib(again)
            except ReproError:
                continue
            assert first == second, index
            stable += 1
        assert stable >= 2

    def test_all_transforms_total(self):
        g = generate(random.Random("17:0"), GenConfig())
        for name in TRANSFORMS:
            result = apply_transform(name, g.problem, random.Random(1))
            assert result is None or len(result) >= 1, name


class TestShrink:
    def test_shrinks_to_relevant_core(self):
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal((x,), ("abc",))
        b.equal((y,), ("aa",))
        b.require_int(eq(str_len(y), 2))
        b.require_int(eq(str_len(x), 3))

        def predicate(problem):
            return any("x" in {v.name for v in c.string_vars()}
                       for c in problem)

        shrunk, checks = shrink_problem(b.problem, predicate)
        assert len(shrunk) == 1
        assert checks > 0

    def test_literal_shortening(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x,), ("abcdef",))

        def predicate(problem):
            return len(problem) == 1

        shrunk, _ = shrink_problem(b.problem, predicate)
        literal = "".join(e for e in shrunk.constraints[0].rhs
                          if isinstance(e, str))
        assert literal == ""  # every character was removable

    def test_predicate_exceptions_count_as_false(self):
        b = ProblemBuilder()
        b.equal((b.str_var("x"),), ("ab",))

        def predicate(problem):
            raise RuntimeError("boom")

        shrunk, _ = shrink_problem(b.problem, predicate)
        assert len(shrunk) == len(b.problem)

    def test_save_reproducer_writes_smt2(self, tmp_path):
        b = ProblemBuilder()
        b.equal((b.str_var("x"),), ("ab",))
        path = save_reproducer(b.problem, str(tmp_path), "case",
                               expected="sat", header=["hello"])
        text = open(path).read()
        assert path.endswith("case.smt2")
        assert text.startswith("; hello\n")
        assert "(set-info :status sat)" in text
        reloaded = load_problem(text)
        assert reloaded.expected == "sat"


class TestNewOpsOracle:
    """Enumerative-oracle cross-checks over the widened fragment.

    Each case builds a small bounded problem around one of the new ops
    and requires the PFA solver and the brute-force oracle to agree
    whenever both answer, with every SAT model validating concretely.
    This is the per-op version of the campaign's arbitration rule.
    """

    def _agree(self, problem, expected, label):
        from repro.baselines import EnumerativeSolver
        from repro.core.solver import TrauSolver

        answers = {}
        for name, solver in (("pfa", TrauSolver()),
                             ("enum", EnumerativeSolver())):
            result = solver.solve(problem, timeout=20)
            if result.status == "sat":
                assert check_model(problem, result.model), (label, name)
            if result.status in ("sat", "unsat"):
                answers[name] = result.status
        assert answers, (label, "neither solver answered")
        assert set(answers.values()) == {expected}, (label, answers)
        return answers

    def test_replace_first_occurrence(self):
        from repro.logic.terms import var as int_var  # noqa: F401

        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{2}")
        r, _ = b.replace(x, "a", "X", result="r")
        b.equal((r,), ("Xb",))
        answers = self._agree(b.problem, "sat", "replace-sat")
        assert "enum" in answers  # the oracle really arbitrated

        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{2}")
        r, _ = b.replace(x, "a", "X", result="r")
        b.equal((r,), ("XX",))  # first-only: a second "a" stays put
        answers = self._agree(b.problem, "unsat", "replace-unsat")
        assert "enum" in answers

    def test_replace_all(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{3}")
        r, _ = b.replace_all(x, "a", "c", max_occurrences=3, result="r")
        b.equal((r,), ("cbc",))
        self._agree(b.problem, "sat", "replace_all-sat")

    def test_indexof_with_start(self):
        from repro.logic.terms import var as int_var

        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{4}")
        i = b.index_of(x, "b", start=2)[0]
        b.require_int(eq(int_var(i), 3))
        self._agree(b.problem, "sat", "indexof-start")

    def test_at_out_of_range(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.require_int(eq(str_len(x), 2))
        c, _ = b.at_total(x, 5, result="c")
        b.require_int(eq(str_len(c), 1))  # but at(x, 5) is ""
        self._agree(b.problem, "unsat", "at-oob")

    def test_code_inversion_regression(self):
        """Regression: CharCode defeats the oracle's character pool.

        The candidate-character restriction is justified by a character
        interchangeability argument that CharCode breaks (the integer
        side can pin any specific code — here 66 forces "B", a character
        no literal mentions).  The oracle used to answer "unsat" with
        refuted_by=exhaustive-search on this satisfiable problem.
        """
        from repro.logic.terms import var as int_var

        b = ProblemBuilder()
        x = b.str_var("x")
        n, _ = b.to_code(x)
        b.require_int(eq(int_var(n), 66))
        y = b.from_code(n, result="y")
        b.equal((y,), (x,))
        answers = self._agree(b.problem, "sat", "code-inversion")
        assert "enum" in answers

    def test_charneq_pool_is_wide_enough(self):
        """Regression: disequality chains need spare pool characters.

        Three pairwise-distinct single-character variables with no
        literal constraints need three distinct characters; the old
        two-character baseline pool made the oracle claim exhaustive
        unsat.  The widened pool must never produce that wrong answer
        (unknown is acceptable — the search may legitimately exhaust
        its budget)."""
        from repro.baselines import EnumerativeSolver
        from repro.smtlib import load_problem as _load

        text = """
        (set-logic QF_SLIA)
        (declare-fun a () String)
        (declare-fun b () String)
        (declare-fun c () String)
        (assert (= (str.len a) 1))
        (assert (= (str.len b) 1))
        (assert (= (str.len c) 1))
        (assert (distinct a b c))
        (check-sat)
        """
        problem = _load(text).problem
        result = EnumerativeSolver().solve(problem, timeout=5)
        assert result.status != "unsat", result.stats
        if result.status == "sat":
            assert check_model(problem, result.model)

    def test_strtol_semantics(self):
        from repro.logic.terms import var as int_var

        b = ProblemBuilder()
        x = b.str_var("x")
        b.require_int(eq(str_len(x), 3))
        n = b.to_num_sem(x, "strtol", result="n")
        b.require_int(eq(int_var(n), 42))
        self._agree(b.problem, "sat", "strtol")


class TestDriver:
    def test_mini_campaign_is_clean_and_deterministic(self):
        driver = DifferentialDriver(config=GenConfig(max_constraints=3),
                                    timeout=2.0)
        report = run_campaign(seed=1, n=4, driver=driver,
                              config=GenConfig(max_constraints=3))
        assert report.ok, [d.describe() for d in report.disagreements]
        assert report.statuses["pfa-inc"]
        again = run_campaign(seed=1, n=4, driver=driver,
                             config=GenConfig(max_constraints=3))
        assert again.statuses == report.statuses

    def test_solver_config_reaches_the_pfa_engine(self, tmp_path):
        """``repro fuzz --store`` names its verdict store through
        *solver_config*: a rerun of the campaign reads what the first
        run wrote."""
        from repro import store
        from repro.config import SolverConfig

        root = str(tmp_path)
        config = GenConfig(max_constraints=3)
        driver = DifferentialDriver(
            config=config, timeout=2.0, metamorphic=False,
            solver_config=SolverConfig(store_path=root))
        try:
            for _ in range(2):
                store.reset()            # each run opens the store afresh
                report = run_campaign(seed=1, n=4, driver=driver,
                                      config=config)
                assert report.ok
            hits = store.get_store(root).counters["hits"]
        finally:
            store.reset()
        assert hits > 0

    def test_detects_planted_unsound_engine(self):
        from repro.core.solver import SolveResult

        class LyingSolver:
            def solve(self, problem, timeout=None):
                return SolveResult("unsat")

        driver = DifferentialDriver(config=GenConfig(max_constraints=2),
                                    timeout=2.0)
        driver.engines["pfa-inc"] = LyingSolver()
        rng = random.Random("1:0")
        found = []
        for index in range(6):
            g = generate(random.Random("1:%d" % index),
                         GenConfig(max_constraints=2), seed_index=index)
            found.extend(driver.check_problem(g))
        kinds = {d.kind for d in found}
        assert kinds & {"refuted-certified-sat", "oracle-refuted-unsat",
                        "sat-unsat-split", "metamorphic:rename",
                        "metamorphic:roundtrip", "metamorphic:shuffle",
                        "metamorphic:pad_tonum", "metamorphic:split_eq"}, \
            kinds

    def test_detects_invalid_model(self):
        from repro.core.solver import SolveResult

        class BadModelSolver:
            def solve(self, problem, timeout=None):
                names = {v.name: "zz" for v in problem.string_vars()}
                names.update({n: 0 for n in problem.int_vars()})
                return SolveResult("sat", model=names)

        driver = DifferentialDriver(config=GenConfig(max_constraints=2),
                                    timeout=2.0, metamorphic=False)
        driver.engines["pfa-inc"] = BadModelSolver()
        found = []
        for index in range(4):
            g = generate(random.Random("2:%d" % index),
                         GenConfig(max_constraints=2), seed_index=index)
            found.extend(driver.check_problem(g))
        assert any(d.kind == "invalid-model" and d.engine == "pfa-inc"
                   for d in found), [d.describe() for d in found]
