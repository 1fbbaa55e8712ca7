"""Unit and property tests for the simplex + branch-and-bound LIA core."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.lia.branch_bound import IntegerSolver, solve_atoms
from repro.lia.simplex import Simplex
from repro.logic.terms import var


class TestSimplex:
    def test_feasible_bounds(self):
        s = Simplex()
        s.add_variable("x")
        s.define("s1", {"x": 2})
        assert s.assert_lower("x", 1, "a") is None
        assert s.assert_upper("s1", 10, "b") is None
        assert s.check() == "sat"
        assert 1 <= s.value("x") <= 5

    def test_immediate_bound_clash(self):
        s = Simplex()
        s.add_variable("x")
        assert s.assert_lower("x", 5, "lo") is None
        conflict = s.assert_upper("x", 4, "up")
        assert set(conflict) == {"lo", "up"}

    def test_row_conflict_explanation(self):
        # x + y <= 2 with x >= 2, y >= 2 is infeasible.
        s = Simplex()
        s.define("r", {"x": 1, "y": 1})
        assert s.assert_upper("r", 2, "sum") is None
        assert s.assert_lower("x", 2, "x2") is None
        assert s.assert_lower("y", 2, "y2") is None
        assert s.check() == "unsat"
        assert set(s.conflict) == {"sum", "x2", "y2"}

    def test_push_pop_restores_feasibility(self):
        s = Simplex()
        s.define("r", {"x": 1, "y": -1})
        s.assert_upper("r", 0, "a")      # x <= y
        assert s.check() == "sat"
        s.push()
        # x >= y + 1 directly contradicts the recorded upper bound.
        conflict = s.assert_lower("r", 1, "b")
        assert set(conflict) == {"a", "b"}
        s.pop()
        assert s.check() == "sat"
        s.push()
        # A conflict that needs pivoting: bound the structural vars apart.
        assert s.assert_lower("x", 3, "x3") is None
        assert s.assert_upper("y", 1, "y1") is None
        assert s.check() == "unsat"
        assert set(s.conflict) == {"a", "x3", "y1"}
        s.pop()
        assert s.check() == "sat"

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(("x", "y")),
                                    st.integers(-4, 4).filter(bool),
                                    min_size=1),
                    max_size=2),
           st.data())
    def test_pop_restores_status_and_base_bounds(self, rows, data):
        # base bounds, check, push, frame bounds, check, pop, check: a
        # frame bound that survives pop shows in bounds(), and can change
        # the status or leave the valuation outside a base bound.
        s = Simplex()
        for v in ("x", "y"):
            s.add_variable(v)
        for i, coeffs in enumerate(rows):
            s.define("r%d" % i, coeffs)
        names = ["x", "y"] + ["r%d" % i for i in range(len(rows))]
        bound = st.tuples(
            st.sampled_from(names), st.booleans(),
            st.one_of(st.integers(-8, 8),
                      st.integers(-16, 16).map(lambda n: Fraction(n, 3))))
        base = data.draw(st.lists(bound, min_size=1, max_size=4))
        frame = data.draw(st.lists(bound, min_size=1, max_size=4))
        for tag, (v, upper, value) in enumerate(base):
            assert_bound = s.assert_upper if upper else s.assert_lower
            if assert_bound(v, value, tag) is not None:
                return
        before = s.check()
        bounds = [s.bounds(v) for v in names]
        s.push()
        for tag, (v, upper, value) in enumerate(frame, start=len(base)):
            assert_bound = s.assert_upper if upper else s.assert_lower
            if assert_bound(v, value, tag) is not None:
                break
        s.check()
        s.pop()
        assert [s.bounds(v) for v in names] == bounds
        assert s.check() == before
        if before == "sat":
            for v, upper, value in base:
                assert (s.value(v) <= value) if upper \
                    else (s.value(v) >= value)
            for i, coeffs in enumerate(rows):
                assert s.value("r%d" % i) == sum(
                    c * s.value(x) for x, c in coeffs.items())

    def test_fractional_vertex(self):
        # 2x = 1 is rationally feasible at x = 1/2.
        s = Simplex()
        s.define("r", {"x": 2})
        s.assert_lower("r", 1, None)
        s.assert_upper("r", 1, None)
        assert s.check() == "sat"
        assert s.value("x") == Fraction(1, 2)


class TestIntegerSolver:
    def test_gcd_infeasibility_without_search(self):
        # 2x - 2y = 1 has no integer solution.
        result = solve_atoms([
            (var("x") * 2 - var("y") * 2 - 1, "eq1"),
            (1 + var("y") * 2 - var("x") * 2, "eq2"),
        ])
        assert result.status == "unsat"

    def test_branching_finds_integer_point(self):
        # 3x + 5y = 11, x, y >= 0 -> x = 2, y = 1.
        result = solve_atoms([
            (var("x") * 3 + var("y") * 5 - 11, None),
            (11 - var("x") * 3 - var("y") * 5, None),
            (-var("x"), None),
            (-var("y"), None),
        ])
        assert result.status == "sat"
        assert result.model["x"] * 3 + result.model["y"] * 5 == 11
        assert result.model["x"] >= 0 and result.model["y"] >= 0

    def test_frobenius_gap_unsat(self):
        # 3x + 5y = 7 has no solution with x, y >= 0.
        result = solve_atoms([
            (var("x") * 3 + var("y") * 5 - 7, "a"),
            (7 - var("x") * 3 - var("y") * 5, "b"),
            (-var("x"), "c"),
            (-var("y"), "d"),
        ])
        assert result.status == "unsat"

    def test_incremental_check_frames(self):
        solver = IntegerSolver()
        assert solver.assert_base(var("x") - 10, "base") is None   # x <= 10
        r1 = solver.check([(5 - var("x"), "lo5")])                 # x >= 5
        assert r1.status == "sat" and 5 <= r1.model["x"] <= 10
        r2 = solver.check([(11 - var("x"), "lo11")])               # x >= 11
        assert r2.status == "unsat"
        assert "lo11" in r2.conflict and "base" in r2.conflict
        r3 = solver.check([(7 - var("x"), "lo7")])
        assert r3.status == "sat"

    def test_budget_exhaustion_leaves_no_stale_frames(self):
        # x + 2y = 2 and 2x + y = 2 is rationally feasible (x = y = 2/3)
        # but integer-infeasible, so branching starts; node_limit=1 trips
        # the budget inside a branch frame.  The exception must unwind
        # every push, or this check's atoms stay asserted and poison the
        # conflict cores of every later check on the persistent solver.
        solver = IntegerSolver(node_limit=1)
        first = solver.check([
            (var("x") + var("y") * 2 - 2, "e1"),
            (2 - var("x") - var("y") * 2, "e2"),
            (var("x") * 2 + var("y") - 2, "e3"),
            (2 - var("x") * 2 - var("y"), "e4"),
        ])
        assert first.status == "unknown"
        after = solver.check([
            (var("x") - 5, "ux"), (5 - var("x"), "lx"),
            (var("y") - 5, "uy"), (5 - var("y"), "ly"),
        ])
        assert after.status == "sat"
        assert after.model["x"] == 5 and after.model["y"] == 5

    def test_conflict_core_subset_of_tags(self):
        result = solve_atoms([
            (var("x") - 3, "up"),
            (4 - var("x"), "lo"),
            (var("y"), "noise1"),
            (-var("y"), "noise2"),
        ])
        assert result.status == "unsat"
        assert set(result.conflict) <= {"up", "lo", "noise1", "noise2"}
        assert {"up", "lo"} <= set(result.conflict)


class TestIntegerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6)),
        min_size=1, max_size=6))
    def test_models_satisfy_atoms(self, rows):
        atoms = []
        for i, (a, b, k) in enumerate(rows):
            expr = var("x") * a + var("y") * b - k
            atoms.append((expr, i))
        atoms.append((var("x") - 20, "bx"))
        atoms.append((-var("x") - 20, "bx2"))
        atoms.append((var("y") - 20, "by"))
        atoms.append((-var("y") - 20, "by2"))
        result = solve_atoms(atoms)
        if result.status == "sat":
            x, y = result.model.get("x", 0), result.model.get("y", 0)
            for (a, b, k) in rows:
                assert a * x + b * y - k <= 0
        else:
            assert result.status == "unsat"
            # Cross-check with brute force over the bounded box.
            feasible = any(
                all(a * x + b * y - k <= 0 for (a, b, k) in rows)
                for x in range(-20, 21) for y in range(-20, 21))
            assert not feasible
