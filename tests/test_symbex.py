"""Tests for the benchmark generators: labels must be trustworthy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TrauSolver
from repro.strings import check_model
from repro.symbex import cvc4, fuzz, javascript, leetcode, pyex, pythonlib
from repro.symbex.luhn import luhn_problem


class TestLuhn:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            luhn_problem(1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_solution_passes_concrete_luhn(self, k):
        result = TrauSolver().solve(luhn_problem(k), timeout=60)
        assert result.status == "sat"
        value = result.model["value"]
        assert len(value) == k and all(c in "123456789" for c in value)
        total = 0
        for i, c in enumerate(reversed(value)):
            d = int(c)
            if i % 2 == 1:
                d *= 2
                if d > 9:
                    d -= 9
            total += d
        assert total % 10 == 0

    def test_reject_variant_builds(self):
        problem = luhn_problem(3, accept=False)
        assert len(problem) > 0


GENERATORS = [
    (pyex, {}), (fuzz, {}), (cvc4, {"flavor": "pred"}),
    (cvc4, {"flavor": "term"}), (leetcode, {}), (pythonlib, {}),
    (javascript, {"luhn_sizes": ()}),
]


class TestGeneratorContracts:
    @pytest.mark.parametrize("module,kwargs", GENERATORS)
    def test_deterministic(self, module, kwargs):
        a = module.generate(5, seed=1, **kwargs)
        b = module.generate(5, seed=1, **kwargs)
        assert [i.name for i in a] == [i.name for i in b]
        assert [i.expected for i in a] == [i.expected for i in b]

    @pytest.mark.parametrize("module,kwargs", GENERATORS)
    def test_instances_have_constraints(self, module, kwargs):
        for instance in module.generate(5, seed=2, **kwargs):
            assert len(instance.problem) > 0
            assert instance.expected in ("sat", "unsat", None)

    @pytest.mark.parametrize("module,kwargs", GENERATORS)
    def test_labels_verified_by_solver(self, module, kwargs):
        """Where the PFA solver answers, it must agree with the label
        (and SAT models must validate)."""
        for instance in module.generate(6, seed=4, **kwargs):
            result = TrauSolver().solve(instance.problem, timeout=8)
            if result.status == "sat":
                assert check_model(instance.problem, result.model), \
                    instance.name
                assert instance.expected != "unsat", instance.name
            elif result.status == "unsat":
                assert instance.expected != "sat", instance.name

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_fuzz_labels_hold_on_random_seeds(self, seed):
        """The default pipeline's definite answers match the fuzz
        generator's labels, and its SAT models validate."""
        for instance in fuzz.generate(2, seed=seed):
            result = TrauSolver().solve(instance.problem, timeout=15)
            if result.status == "sat":
                assert check_model(instance.problem, result.model)
            if instance.expected and result.status in ("sat", "unsat"):
                assert result.status == instance.expected


class TestSuiteShapes:
    def test_cvc4_is_mostly_unsat(self):
        instances = cvc4.generate(50, seed=0)
        unsat = sum(1 for i in instances if i.expected == "unsat")
        assert unsat > 35

    def test_javascript_includes_luhn(self):
        instances = javascript.generate(4, seed=0, luhn_sizes=(2, 3))
        names = [i.name for i in instances]
        assert any("luhn" in n for n in names)

    def test_fuzz_has_unlabeled_instances(self):
        instances = fuzz.generate(12, seed=0)
        assert any(i.expected is None for i in instances)
