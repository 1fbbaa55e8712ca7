"""End-to-end tests of the full decision procedure (TrauSolver)."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ProblemBuilder, SolverConfig, TrauSolver, check_model, str_len,
    to_num_value,
)
from repro.logic import conj, eq, ge, gt, le, var
from repro.obs import Metrics
from repro.smtlib import load_problem

REGRESSIONS = os.path.join(os.path.dirname(__file__), "regressions")


def solve(builder, timeout=30, **kwargs):
    return TrauSolver(**kwargs).solve(builder, timeout=timeout)


class TestPaperExamples:
    def test_toy_phi(self):
        """The running example of Section 1.  Its equation "0"x = x"0"
        flattens through a cyclic product whose connectivity is checked
        on demand, so the lazy loop needs a few dozen iterations."""
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal(("0", x), (x, "0"))
        nx, ny = b.to_num(x), b.to_num(y)
        b.require_int(eq(var(nx), var(ny)))
        b.require_int(gt(str_len(y), str_len(x)))
        b.require_int(gt(str_len(x), 1))
        b.require_int(gt(str_len(y), 1000))
        metrics = Metrics()
        result = solve(b, timeout=120, metrics=metrics)
        assert result.status == "sat"
        assert check_model(b.problem, result.model)
        assert len(result.model["y"]) > 1000
        assert set(result.model["x"]) == {"0"}
        assert metrics.flat()["smt.iterations"] <= 100

    def test_tonum_with_padded_length(self):
        """toNum(x) = 10 and |x| = 5 (Section 8's motivating case)."""
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 10))
        b.require_int(eq(str_len(x), 5))
        result = solve(b)
        assert result.status == "sat"
        assert result.model["x"] == "00010"

    def test_luhn_smallest(self):
        from repro.symbex.luhn import luhn_problem
        result = TrauSolver().solve(luhn_problem(2), timeout=60)
        assert result.status == "sat"
        value = result.model["value"]
        digits = [int(c) for c in value]
        total = digits[1] + (digits[0] * 2 - 9 if digits[0] * 2 > 9
                             else digits[0] * 2)
        assert total % 10 == 0


def complement_membership_builder():
    b = ProblemBuilder()
    x = b.str_var("x")
    b.member(x, "[ab]*")
    b.not_member(x, "a*")
    b.require_int(ge(str_len(x), 2))
    return b.problem


def complement_membership_file():
    path = os.path.join(REGRESSIONS, "complement_membership_cycles.smt2")
    return load_problem(open(path).read()).problem


class TestLazyLoopWork:
    @pytest.mark.parametrize("build", [complement_membership_builder,
                                       complement_membership_file])
    def test_complement_membership_needs_few_iterations(self, build):
        """x in [ab]*, x not in a*, |x| >= 2: both memberships are cyclic
        products whose connectivity holds on the first model."""
        problem = build()
        metrics = Metrics()
        result = TrauSolver(metrics=metrics).solve(problem, timeout=30)
        assert result.status == "sat"
        assert check_model(problem, result.model)
        assert metrics.flat()["smt.iterations"] <= 20


class TestStatuses:
    def test_unsat_from_overapproximation(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[0-9]{2}")
        b.require_int(ge(str_len(x), 3))
        result = solve(b)
        assert result.status == "unsat"
        assert result.stats.get("phase") == "overapproximation"

    def test_unsat_from_complete_restriction(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{2}")
        b.equal((x,), ("ab",))
        b.diseq((x,), ("ab",))
        result = solve(b)
        assert result.status == "unsat"

    def test_unknown_without_overapproximation(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[0-9]{2}")
        b.require_int(ge(str_len(x), 3))
        result = solve(b, config=SolverConfig(use_overapproximation=False,
                                              max_rounds=1))
        assert result.status in ("unsat", "unknown")

    def test_empty_problem_is_sat(self):
        b = ProblemBuilder()
        result = solve(b)
        assert result.status == "sat"


class TestConversionScenarios:
    def test_tostr_is_canonical(self):
        b = ProblemBuilder()
        n = b.fresh_int("n")
        b.require_int(eq(var(n), 420))
        s = b.to_str(n)
        result = solve(b)
        assert result.status == "sat"
        assert result.model[s.name] == "420"

    def test_conversion_roundtrip_mismatch(self):
        """s != toStr(toNum(s)) has the leading-zero witnesses."""
        b = ProblemBuilder()
        s = b.str_var("s")
        b.member(s, "[0-9]+")
        b.require_int(le(str_len(s), 4))
        n = b.to_num(s)
        canonical = b.to_str(n)
        b.diseq((s,), (canonical,))
        result = solve(b, timeout=60)
        assert result.status == "sat"
        value = result.model["s"]
        assert value != str(to_num_value(value))

    def test_sum_of_two_converted_numbers(self):
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.member(x, "[0-9]{2}")
        b.member(y, "[0-9]{2}")
        nx, ny = b.to_num(x), b.to_num(y)
        b.require_int(eq(var(nx) + var(ny), 110))
        b.require_int(eq(var(nx) - var(ny), 10))
        result = solve(b)
        assert result.status == "sat"
        assert int(result.model["x"]) == 60
        assert int(result.model["y"]) == 50

    def test_nan_propagates(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[a-z]{3}")
        n = b.to_num(x)
        b.require_int(ge(var(n), 0))
        result = solve(b)
        assert result.status == "unsat"


class TestOperations:
    def test_char_at(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{4}")
        c = b.char_at(x, 2)
        b.equal((c,), ("b",))
        result = solve(b)
        assert result.status == "sat"
        assert result.model["x"][2] == "b"

    def test_substr(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x,), ("abcdef",))
        piece = b.substr(x, 2, 3)
        y = b.str_var("y")
        b.equal((y,), (piece,))
        result = solve(b)
        assert result.status == "sat"
        assert result.model["y"] == "cde"

    def test_contains_prefix_suffix(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.prefix_of(("ab",), x)
        b.suffix_of(("ba",), x)
        b.contains(x, ("cc",))
        b.require_int(le(str_len(x), 8))
        b.member(x, "[abc]+")
        result = solve(b, timeout=60)
        assert result.status == "sat"
        value = result.model["x"]
        assert value.startswith("ab") and value.endswith("ba")
        assert "cc" in value

    def test_ite_int(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[0-9]")
        n = b.to_num(x)
        doubled = var(n) * 2
        adjusted = b.ite_int(gt(doubled, 9), doubled - 9, doubled)
        b.require_int(eq(var(adjusted), 7))
        result = solve(b)
        assert result.status == "sat"
        assert result.model["x"] == "8"


class TestValidatedRandomScenarios:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 999))
    def test_every_small_number_roundtrips(self, value):
        b = ProblemBuilder()
        n = b.fresh_int("n")
        b.require_int(eq(var(n), value))
        s = b.to_str(n)
        result = solve(b)
        assert result.status == "sat"
        assert result.model[s.name] == str(value)

    @settings(max_examples=15, deadline=None)
    @given(st.text(alphabet="abc", min_size=1, max_size=5))
    def test_pin_word_through_equation(self, word):
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal((x, y), (word,))
        b.require_int(eq(str_len(x), len(word) - 1))
        result = solve(b)
        assert result.status == "sat"
        assert check_model(b.problem, result.model)


class TestToNumBoundary:
    """Agreement of the flattened Psi_NaN/Psi_shift encoding with
    :func:`to_num_value` at the numeric-PFA chain boundary.

    The chain starts at ``initial_numeric_m = 5`` significant digits, so
    words whose digit-string length reaches or crosses 5 — including the
    ``0+w`` leading-zero forms Psi_shift exists for — are exactly where
    an off-by-one in the encoding would silently mis-convert."""

    BOUNDARY_WORDS = [
        "12345",        # length == initial m
        "123456",       # crosses m: solver must grow the chain
        "99999",        # largest value at the initial chain length
        "00000",        # all zeros, length == m, value 0
        "000001",       # leading zeros past m, single significant digit
        "0000012345",   # 0+w with |w| == m
        "09999",        # single leading zero at the boundary
    ]

    def _pinned(self, word, value):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x,), (word,))
        n = b.to_num(x)
        b.require_int(eq(var(n), value))
        return b

    def test_pinned_word_converts_exactly(self):
        for word in self.BOUNDARY_WORDS:
            expected = to_num_value(word)
            assert expected == int(word)
            builder = self._pinned(word, expected)
            result = solve(builder, timeout=60)
            assert result.status == "sat", (word, result.status)
            assert check_model(builder.problem, result.model), word

    def test_pinned_word_refutes_off_by_one(self):
        for word in self.BOUNDARY_WORDS:
            expected = to_num_value(word)
            result = solve(self._pinned(word, expected + 1), timeout=60)
            assert result.status == "unsat", (word, result.status)

    def test_nan_words_at_boundary(self):
        from repro.strings.ast import ToNum
        for word in ["1234a", "a23456", "12a45", ""]:
            assert to_num_value(word) == -1
            result = solve(self._pinned(word, -1), timeout=60)
            assert result.status == "sat", (word, result.status)
            refuted = self._pinned(word, -1)
            conversion = refuted.problem.by_kind(ToNum)[-1]
            refuted.require_int(ge(var(conversion.result), 0))
            result = solve(refuted, timeout=60)
            assert result.status == "unsat", (word, result.status)

    def test_leading_zero_padding_solved_backwards(self):
        """n = 12345 with |x| = 9 forces the 0+w shift form."""
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 12345))
        b.require_int(eq(str_len(x), 9))
        result = solve(b, timeout=60)
        assert result.status == "sat"
        assert result.model["x"] == "000012345"
