"""Tests for the flattening of atomic constraints (Sections 6-8).

Strategy: flatten a small problem under a known restriction, solve its
linear fragments, decode, and check the decoded interpretation against the
concrete evaluator — plus targeted UNSAT cases per constraint kind.
"""

from hypothesis import given, settings, strategies as st

from repro.alphabet import DEFAULT_ALPHABET as A
from repro.core.flatten import Flattener
from repro.core.names import NameFactory
from repro.core.pfa import numeric_pfa, straight_pfa
from repro.core.preprocess import expand_duplicates
from repro.core.strategy import build_restriction
from repro.config import DEFAULT_CONFIG
from repro.logic import eq, ge, le, var
from repro.smt import IncrementalSmtSession
from repro.strings import (
    CharNeq, IntConstraint, ProblemBuilder, StrVar, ToNum, WordEquation,
    check_model, str_len,
)


def flatten_and_solve(problem, hints=None):
    names = NameFactory()
    expanded = expand_duplicates(problem, names)
    step = DEFAULT_CONFIG.schedule(2)[0]
    from repro.core.strategy import analyze_lengths
    hints = hints if hints is not None else analyze_lengths(expanded, A)
    restriction, _ = build_restriction(expanded, step, names, A, hints)
    flattener = Flattener(expanded, restriction, A, names, 10 ** 6)
    result = IncrementalSmtSession().solve(flattener.fragments())
    if result.status != "sat":
        return result.status, None
    interp = {}
    for v in problem.string_vars():
        interp[v.name] = A.decode_word(restriction[v.name].decode(
            result.model))
    for name in problem.int_vars():
        interp[name] = result.model.get(name, 0)
    return "sat", interp


class TestEquations:
    def test_literal_equation(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x,), ("hello",))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat" and interp["x"] == "hello"

    def test_concat_split(self):
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal((x, y), ("abcd",))
        b.require_int(eq(str_len(x), 3))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] == "abc" and interp["y"] == "d"
        assert check_model(b.problem, interp)

    def test_commuting_literal(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal(("ab", x), (x, "ab"))
        b.require_int(eq(str_len(x), 4))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] == "abab"

    def test_unsat_length_mismatch(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x, "a"), ("bb",))
        b.require_int(eq(str_len(x), 2))
        status, _ = flatten_and_solve(b.problem)
        assert status == "unsat"

    def test_empty_side(self):
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal((x, y), ())
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] == "" and interp["y"] == ""

    def test_duplicate_occurrences_expanded(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x, x), ("abab",))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] == "ab"


class TestRegular:
    def test_membership_with_length(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "(ab)+")
        b.require_int(eq(str_len(x), 4))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat" and interp["x"] == "abab"

    def test_two_memberships_intersect(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{3}")
        b.member(x, "a[ab]b")
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"][0] == "a" and interp["x"][2] == "b"

    def test_unsat_membership(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[0-9]{2}")
        b.require_int(ge(str_len(x), 3))
        status, _ = flatten_and_solve(b.problem)
        assert status == "unsat"


class TestToNum:
    def test_value_recovered(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 305))
        b.require_int(eq(str_len(x), 3))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat" and interp["x"] == "305"

    def test_leading_zeros(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 7))
        b.require_int(eq(str_len(x), 4))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat" and interp["x"] == "0007"

    def test_nan_branch(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), -1))
        b.require_int(eq(str_len(x), 2))
        b.member(x, "[a-z]+")
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert check_model(b.problem, interp)

    def test_empty_string_is_nan(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(str_len(x), 0))
        b.require_int(eq(var(n), 0))
        status, _ = flatten_and_solve(b.problem)
        assert status == "unsat"

    def test_all_zeros_is_zero(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 0))
        b.require_int(eq(str_len(x), 3))
        b.member(x, "[0-9]+")
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat" and interp["x"] == "000"

    def test_numeric_pfa_unbounded_length(self):
        # No length hint: the numeric PFA's zero loop must pump.
        b = ProblemBuilder()
        x = b.str_var("x")
        n = b.to_num(x)
        b.require_int(eq(var(n), 5))
        b.require_int(ge(str_len(x), 50))
        status, interp = flatten_and_solve(b.problem, hints={})
        assert status == "sat"
        assert interp["x"].endswith("5") and len(interp["x"]) >= 50
        assert int(interp["x"]) == 5


class TestCharNeq:
    def test_distinct_chars(self):
        b = ProblemBuilder()
        b.diseq(("a",), ("a",))
        status, _ = flatten_and_solve(b.problem)
        assert status == "unsat"

    def test_satisfiable_diseq(self):
        b = ProblemBuilder()
        x = b.str_var("x")
        b.member(x, "[ab]{2}")
        b.diseq((x,), ("aa",))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] != "aa"
        assert check_model(b.problem, interp)


class TestSoundnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=4),
           st.integers(0, 4))
    def test_split_of_concrete_word(self, word, cut):
        cut = min(cut, len(word))
        b = ProblemBuilder()
        x, y = b.str_var("x"), b.str_var("y")
        b.equal((x, y), (word,))
        b.require_int(eq(str_len(x), cut))
        status, interp = flatten_and_solve(b.problem)
        assert status == "sat"
        assert interp["x"] == word[:cut]
        assert interp["y"] == word[cut:]
