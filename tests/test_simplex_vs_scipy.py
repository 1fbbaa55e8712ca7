"""Cross-validation of the rational simplex against scipy.optimize.linprog.

Random bounded systems of linear inequalities: our simplex and scipy must
agree on rational feasibility, and the rows an unsat answer names as its
conflict must be infeasible on their own.  (Integer feasibility has no
scipy oracle; the branch-and-bound layer is cross-checked against brute
force in test_lia.py.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.lia.simplex import Simplex


@st.composite
def systems(draw):
    num_vars = draw(st.integers(1, 4))
    num_rows = draw(st.integers(1, 6))
    rows = []
    for _ in range(num_rows):
        coeffs = [draw(st.integers(-4, 4)) for _ in range(num_vars)]
        bound = draw(st.integers(-10, 10))
        rows.append((coeffs, bound))
    return num_vars, rows


def scipy_feasible(num_vars, rows, box=50):
    if not rows:
        return True     # the box alone
    a_ub = [coeffs for coeffs, _ in rows]
    b_ub = [bound for _, bound in rows]
    result = linprog(c=np.zeros(num_vars), A_ub=np.array(a_ub),
                     b_ub=np.array(b_ub),
                     bounds=[(-box, box)] * num_vars, method="highs")
    return result.status == 0


def simplex_solve(num_vars, rows, box=50):
    """``(values, None)`` when feasible, else ``(None, core)`` with the
    sorted indices of the rows tagged in the conflict (the box bounds are
    untagged)."""
    s = Simplex()
    names = ["x%d" % i for i in range(num_vars)]
    for name in names:
        s.add_variable(name)
    for idx, (coeffs, bound) in enumerate(rows):
        non_zero = {names[i]: c for i, c in enumerate(coeffs) if c}
        if not non_zero:
            if 0 > bound:
                return None, [idx]
            continue
        slack = "s%d" % idx
        s.define(slack, non_zero)
        conflict = s.assert_upper(slack, bound, idx)
        if conflict is not None:
            return None, sorted(set(conflict))
    for name in names:
        conflict = s.assert_lower(name, -box, None)
        if conflict is None:
            conflict = s.assert_upper(name, box, None)
        if conflict is not None:
            return None, sorted(set(conflict))
    if s.check() == "sat":
        return [s.value(name) for name in names], None
    return None, sorted(set(t for t in s.conflict if t is not None))


def simplex_feasible(num_vars, rows, box=50):
    return simplex_solve(num_vars, rows, box)[1] is None


class TestAgainstScipy:
    @settings(max_examples=80, deadline=None)
    @given(systems())
    def test_rational_feasibility_agrees(self, system):
        num_vars, rows = system
        assert simplex_feasible(num_vars, rows) == \
            scipy_feasible(num_vars, rows)

    @settings(max_examples=120, deadline=None)
    @given(systems())
    def test_values_and_conflict_cores_are_sound(self, system):
        # A sat valuation meets every row and the box exactly; the rows an
        # unsat answer names, with the box, are infeasible on their own.
        num_vars, rows = system
        values, core = simplex_solve(num_vars, rows)
        if core is None:
            assert all(-50 <= v <= 50 for v in values)
            for coeffs, bound in rows:
                assert sum(c * v for c, v in zip(coeffs, values)) <= bound
        else:
            assert not scipy_feasible(num_vars, [rows[i] for i in core])

    def test_known_feasible(self):
        # x + y <= 4, -x <= 0, -y <= 0
        assert simplex_feasible(2, [([1, 1], 4), ([-1, 0], 0),
                                    ([0, -1], 0)])

    def test_known_infeasible(self):
        # x <= 1 and -x <= -2 (x >= 2)
        assert not simplex_feasible(1, [([1], 1), ([-1], -2)])
