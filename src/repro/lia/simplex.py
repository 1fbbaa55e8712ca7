"""Incremental rational simplex for bound-form linear constraints.

The tableau follows Dutertre and de Moura's *A Fast Linear-Arithmetic Solver
for DPLL(T)*: every constraint ``sum c_i x_i <= k`` is turned into a slack
variable ``s = sum c_i x_i`` with the bound ``s <= k``.  Rows are defined
once, up front; bounds are asserted and retracted incrementally between
``check()`` calls.  Bland's rule guarantees termination of ``check``.

Each asserted bound carries an opaque *tag* (the SMT layer passes SAT
literals).  Infeasibility produces the set of tags whose bounds participate
in the conflict, which becomes a theory lemma.

The tableau is laid out for speed:

* **interned variables** — names are mapped to dense ints at
  ``add_variable`` time, so the interned index *is* Bland's insertion
  order and every per-variable lookup (value, bounds, columns) is a
  list indexing instead of a string-keyed dict probe;
* **integer rows** — a row is stored as integer numerators plus one
  positive per-row denominator (``coeff = num/den``), so pivot
  substitution is pure ``int`` multiply/add with a lazy gcd reduction,
  never :class:`~fractions.Fraction` arithmetic;
* **min-scan selection** — both the violated row and the entering
  variable are single-pass minimum scans over interned indices, which
  selects Bland's pivot without sorting the basic set or the row.

Variable values are plain ints with :class:`~fractions.Fraction`
fallback (callers branch on ``value.denominator``).  A per-row
denominator also sidesteps fixed-width overflow entirely — ``toNum``
rows carry coefficients like ``10**39``, which is why an int64/numpy
fast path was measured and rejected.
"""

from fractions import Fraction
from math import gcd

from repro import faults as _faults
from repro.errors import ResourceLimit, SolverError

SimplexResult = str    # "sat" | "unsat"


def _norm(value):
    """Collapse integral rationals to plain ints.

    The tableau is almost always integral — fractions only enter through
    pivots and usually cancel right back out — and Python's int
    arithmetic and comparisons are an order of magnitude faster than
    ``Fraction``'s, so keeping values as ints whenever exact pays for
    the check many times over.
    """
    if value.__class__ is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _exact_div(num, den):
    """``num / den`` exactly: int when it divides, Fraction otherwise."""
    if isinstance(num, int) and isinstance(den, int):
        if num % den == 0:
            return num // den
        return Fraction(num, den)
    return _norm(num / den)


class Simplex:
    """Feasibility of conjunctions of bounds over linear rows."""

    def __init__(self):
        self._order = {}        # var name -> interned index (Bland order)
        self._names = []        # index -> var name
        self._val = []          # index -> int | Fraction
        self._low = []          # index -> (value, tag) or None
        self._upp = []          # index -> (value, tag) or None
        self._cols = []         # index -> set of basic indices using it
        self._rows = {}         # basic index -> {var index: int numerator}
        self._dens = {}         # basic index -> positive int denominator
        self._trail = []        # (index, is_lower, old bound tuple or None)
        self._marks = []
        self.conflict = None    # list of tags after an unsat check
        self.pivots = 0         # lifetime pivot count (repro.obs reads it)

    # -- setup ----------------------------------------------------------------

    def add_variable(self, var):
        if var in self._order:
            return
        self._order[var] = len(self._names)
        self._names.append(var)
        self._val.append(0)
        self._low.append(None)
        self._upp.append(None)
        self._cols.append(set())

    def define(self, slack, coeffs):
        """Introduce ``slack = sum coeffs[x] * x`` as a basic variable."""
        if slack in self._order:
            raise SolverError("variable %r already exists" % (slack,))
        self.add_variable(slack)
        acc = {}
        for x, c in coeffs.items():
            if c == 0:
                continue
            if x not in self._order:
                self.add_variable(x)
            xi = self._order[x]
            if xi in self._rows:
                # x is already basic: substitute its row.
                den = self._dens[xi]
                for yi, num in self._rows[xi].items():
                    acc[yi] = _norm(acc.get(yi, 0) + _exact_div(c * num, den))
            else:
                acc[xi] = _norm(acc.get(xi, 0) + c)
        acc = {xi: v for xi, v in acc.items() if v != 0}
        # Clear denominators: one positive denominator per row.
        den = 1
        for v in acc.values():
            if v.__class__ is Fraction:
                d = v.denominator
                den = den // gcd(den, d) * d
        row = {}
        for xi, v in acc.items():
            num = v * den
            row[xi] = num if num.__class__ is int else num.numerator
        si = self._order[slack]
        self._rows[si] = row
        self._dens[si] = den
        for xi in row:
            self._cols[xi].add(si)
        self._val[si] = _norm(sum(
            v * self._val[xi] for xi, v in acc.items()))

    # -- bound assertion ---------------------------------------------------------

    def push(self):
        self._marks.append(len(self._trail))

    def pop(self):
        mark = self._marks.pop()
        trail = self._trail
        low = self._low
        upp = self._upp
        while len(trail) > mark:
            vi, is_lower, old = trail.pop()
            if is_lower:
                low[vi] = old
            else:
                upp[vi] = old

    def assert_lower(self, var, value, tag):
        """Assert ``var >= value``; returns None or a conflict tag list."""
        if not isinstance(value, int):
            value = _norm(Fraction(value))
        vi = self._order[var]
        old = self._low[vi]
        if old is not None and value <= old[0]:
            return None
        up = self._upp[vi]
        if up is not None and value > up[0]:
            return [t for t in (tag, up[1]) if t is not None]
        self._trail.append((vi, True, old))
        self._low[vi] = (value, tag)
        if vi not in self._rows and self._val[vi] < value:
            self._update(vi, value)
        return None

    def assert_upper(self, var, value, tag):
        """Assert ``var <= value``; returns None or a conflict tag list."""
        if not isinstance(value, int):
            value = _norm(Fraction(value))
        vi = self._order[var]
        old = self._upp[vi]
        if old is not None and value >= old[0]:
            return None
        low = self._low[vi]
        if low is not None and value < low[0]:
            return [t for t in (tag, low[1]) if t is not None]
        self._trail.append((vi, False, old))
        self._upp[vi] = (value, tag)
        if vi not in self._rows and self._val[vi] > value:
            self._update(vi, value)
        return None

    # -- tableau operations ---------------------------------------------------

    def _update(self, vi, value):
        val = self._val
        delta = value - val[vi]
        dens = self._dens
        rows = self._rows
        for bi in self._cols[vi]:
            val[bi] = _norm(
                val[bi] + _exact_div(rows[bi][vi] * delta, dens[bi]))
        val[vi] = value

    def _pivot_and_update(self, bi, ni, value):
        val = self._val
        num = self._rows[bi][ni]
        theta = _exact_div((value - val[bi]) * self._dens[bi], num)
        val[bi] = value
        val[ni] = _norm(val[ni] + theta)
        rows = self._rows
        dens = self._dens
        for oi in self._cols[ni]:
            if oi != bi:
                val[oi] = _norm(
                    val[oi] + _exact_div(rows[oi][ni] * theta, dens[oi]))
        self._pivot(bi, ni)

    def _pivot(self, bi, ni):
        if _faults.ARMED:
            _faults.point("lia.pivot")
        self.pivots += 1
        cols = self._cols
        row = self._rows.pop(bi)
        den = self._dens.pop(bi)
        a = row.pop(ni)
        for xi in row:
            cols[xi].discard(bi)
        cols[ni].discard(bi)
        # ni = (den*bi - sum row)/a, kept as integer numerators over a
        # positive denominator.
        if a < 0:
            new_row = {bi: -den}
            for xi, c in row.items():
                new_row[xi] = c
            new_den = -a
        else:
            new_row = {bi: den}
            for xi, c in row.items():
                new_row[xi] = -c
            new_den = a
        g = new_den
        for c in new_row.values():
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            new_den //= g
            for xi in new_row:
                new_row[xi] //= g
        # Substitute into every other row that used `ni`:
        # orow/oden + (f/oden)*new_row/new_den
        #   = (orow*new_den + f*new_row) / (oden*new_den)
        for oi in list(cols[ni]):
            orow = self._rows[oi]
            f = orow.pop(ni)
            cols[ni].discard(oi)
            oden = self._dens[oi]
            if new_den != 1:
                for xi in orow:
                    orow[xi] *= new_den
                oden *= new_den
            for xi, c in new_row.items():
                nc = orow.get(xi, 0) + f * c
                if nc == 0:
                    if xi in orow:
                        del orow[xi]
                        cols[xi].discard(oi)
                else:
                    if xi not in orow:
                        cols[xi].add(oi)
                    orow[xi] = nc
            if oden != 1:
                g = oden
                for c in orow.values():
                    g = gcd(g, c)
                    if g == 1:
                        break
                if g > 1:
                    oden //= g
                    for xi in orow:
                        orow[xi] //= g
            self._dens[oi] = oden
        self._rows[ni] = new_row
        self._dens[ni] = new_den
        for xi in new_row:
            cols[xi].add(ni)

    # -- feasibility --------------------------------------------------------------

    def check(self, deadline=None):
        """Restore feasibility; "sat" or "unsat" (with ``self.conflict``)."""
        self.conflict = None
        steps = 0
        val = self._val
        low_arr = self._low
        upp_arr = self._upp
        rows = self._rows
        while True:
            steps += 1
            if deadline is not None and steps % 256 == 0 \
                    and deadline.expired():
                raise ResourceLimit("simplex deadline expired",
                                    reason="deadline")
            # Bland's rule: a single min-scan over interned indices
            # picks the first-in-order violated row.
            violated = None
            below = False
            for bi in rows:
                if violated is not None and bi > violated:
                    continue
                v = val[bi]
                b = low_arr[bi]
                if b is not None and v < b[0]:
                    violated, below = bi, True
                    continue
                b = upp_arr[bi]
                if b is not None and v > b[0]:
                    violated, below = bi, False
            if violated is None:
                return "sat"
            row = rows[violated]
            entering = None
            for xi, c in row.items():
                if entering is not None and xi > entering:
                    continue
                if below:
                    ok = (c > 0 and self._at_upper_slack(xi)) or \
                         (c < 0 and self._at_lower_slack(xi))
                else:
                    ok = (c > 0 and self._at_lower_slack(xi)) or \
                         (c < 0 and self._at_upper_slack(xi))
                if ok:
                    entering = xi
            if entering is None:
                self.conflict = self._explain(violated, below)
                return "unsat"
            target = (low_arr[violated] if below else upp_arr[violated])[0]
            self._pivot_and_update(violated, entering, target)

    def _at_upper_slack(self, vi):
        """Can value of *vi* still increase?"""
        up = self._upp[vi]
        return up is None or self._val[vi] < up[0]

    def _at_lower_slack(self, vi):
        """Can value of *vi* still decrease?"""
        low = self._low[vi]
        return low is None or self._val[vi] > low[0]

    def _explain(self, bi, below):
        row = self._rows[bi]
        tags = []
        own = self._low[bi] if below else self._upp[bi]
        if own[1] is not None:
            tags.append(own[1])
        for xi, c in row.items():
            if below:
                bound = self._upp[xi] if c > 0 else self._low[xi]
            else:
                bound = self._low[xi] if c > 0 else self._upp[xi]
            if bound is not None and bound[1] is not None:
                tags.append(bound[1])
        return tags

    # -- results --------------------------------------------------------------------

    def values(self):
        """Current variable valuation (meaningful after a "sat" check)."""
        val = self._val
        return {name: val[i] for i, name in enumerate(self._names)}

    def value(self, var):
        return self._val[self._order[var]]

    def bounds(self, var):
        vi = self._order[var]
        low = self._low[vi]
        up = self._upp[vi]
        return (None if low is None else low[0],
                None if up is None else up[0])
