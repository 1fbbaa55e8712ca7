"""Integer feasibility by branch-and-bound over the rational simplex.

``IntegerSolver`` decides integer feasibility of conjunctions of linear
atoms ``expr <= 0`` (each carrying an opaque tag):

* atoms over a single variable become direct bounds, floored/ceiled to
  integers immediately;
* every other atom introduces a slack row (cached per coefficient
  signature, so re-checking with different atom subsets reuses the
  tableau); slack bounds are tightened to multiples of the row's
  coefficient gcd — a slack is an integer combination of integer
  variables, so its value is divisible by the gcd — which also catches
  gcd-infeasible equalities such as ``2x - 2y = 1`` without search;
* remaining fractional vertices are resolved by depth-first branching with
  push/pop on the simplex.

The solver is *incremental*: ``assert_base`` installs permanent atoms (the
level-zero facts of the SMT search), and each ``check`` call tests a batch
of additional atoms inside a push/pop frame — the tableau, its pivots, and
the slack-row cache survive between calls, which is what makes the lazy
DPLL(T) loop affordable.

Infeasibility returns a conflict core: a subset of the supplied tags whose
atoms are jointly integer-infeasible (union of leaf simplex cores across
branches, sound because the two branch bounds are exhaustive over the
integers).
"""

from math import floor, gcd

from repro import faults as _faults
from repro.config import Deadline
from repro.errors import ResourceLimit
from repro.lia.simplex import Simplex
from repro.obs import current_metrics


class IntResult:
    """Outcome of an integer feasibility check."""

    __slots__ = ("status", "model", "conflict", "reason")

    def __init__(self, status, model=None, conflict=None, reason=None):
        self.status = status          # "sat" | "unsat" | "unknown"
        self.model = model            # var -> int, when sat
        self.conflict = conflict      # list of tags, when unsat
        self.reason = reason          # tripped budget kind, when unknown

    def __repr__(self):
        return "IntResult(%s)" % self.status


_MISSING = object()


def _row_key(expr):
    """Canonical (sign-normalized) coefficient signature of an expression."""
    items = tuple(sorted(expr.coeffs.items()))
    sign = 1 if items[0][1] > 0 else -1
    return tuple((v, sign * c) for v, c in items), sign


class IntegerSolver:
    """Incremental integer feasibility of tagged linear atoms."""

    def __init__(self, node_limit=200000, deadline=None):
        self._node_limit = node_limit
        self._deadline = deadline or Deadline.unbounded()
        self._simplex = Simplex()
        self._slack_of = {}        # row signature -> (slack name, gcd)
        self._slack_counter = 0
        self._variables = set()
        self._sorted_vars = None   # sorted view, rebuilt on new variables
        self._nodes = 0
        self._prepare_cache = {}   # LinExpr -> prepared bound assertions

    # -- turning atoms into bound assertions -----------------------------------

    def _prepare(self, expr):
        """Bound assertions for the atom ``expr <= 0``.

        Returns a list of ``(var, is_upper, int bound)``, defining
        slack rows as a side effect.  Constant atoms return ``None`` when
        trivially true and an empty-conflict marker when trivially false.
        Results are cached: the lazy SMT loop re-checks the same atoms with
        every candidate model.
        """
        _missing = _MISSING
        cached = self._prepare_cache.get(expr, _missing)
        if cached is not _missing:
            return cached
        prepared = self._prepare_uncached(expr)
        self._prepare_cache[expr] = prepared
        return prepared

    def _prepare_uncached(self, expr):
        if expr.is_constant():
            return None if expr.constant <= 0 else "false"
        # Bounds stay plain ints end to end: the expression's constant and
        # coefficients are ints and every division below floors/ceils, so
        # wrapping in Fraction would only cost the simplex a conversion.
        bound = -expr.constant     # sum c x <= bound
        if len(expr.coeffs) == 1:
            (x, c), = expr.coeffs.items()
            self._variables.add(x)
            self._sorted_vars = None
            self._simplex.add_variable(x)
            if c > 0:
                return [(x, True, bound // c)]
            return [(x, False, bound // c + (1 if bound % c else 0))]
        key, sign = _row_key(expr)
        if key not in self._slack_of:
            slack = "__s%d" % self._slack_counter
            self._slack_counter += 1
            coeffs = dict(key)
            self._variables.update(coeffs)
            self._sorted_vars = None
            g = 0
            for c in coeffs.values():
                g = gcd(g, abs(c))
            self._simplex.define(slack, coeffs)
            self._slack_of[key] = (slack, max(g, 1))
        slack, g = self._slack_of[key]
        if sign > 0:
            return [(slack, True, g * (bound // g))]
        return [(slack, False, -g * (bound // g))]   # g*ceil(-b/g)

    def _assert(self, prepared, tag):
        for var, is_upper, value in prepared:
            conflict = (self._simplex.assert_upper(var, value, tag)
                        if is_upper
                        else self._simplex.assert_lower(var, value, tag))
            if conflict is not None:
                return conflict
        return None

    # -- public API ----------------------------------------------------------------

    def assert_base(self, expr, tag=None):
        """Permanently assert ``expr <= 0``; returns a conflict or None."""
        prepared = self._prepare(expr)
        if prepared is None:
            return None
        if prepared == "false":
            return [tag] if tag is not None else []
        return self._assert(prepared, tag)

    def check(self, tagged_exprs, shrink=True, node_limit=None):
        """Feasibility of the base atoms plus *tagged_exprs* (one frame).

        An unsatisfiable answer's conflict core is greedily shrunk (each
        candidate removal re-checked with a small budget): branch-and-bound
        merges cores across branches, and small cores make far stronger
        theory lemmas for the SMT loop.
        """
        if _faults.ARMED:
            _faults.point("lia.check")
        metrics = current_metrics()
        pivots_before = self._simplex.pivots if metrics.enabled else 0
        result = self._check_once(tagged_exprs, node_limit)
        if metrics.enabled:
            metrics.add("bb.checks")
            metrics.add("bb.nodes", self._nodes)
            metrics.add("simplex.pivots",
                        self._simplex.pivots - pivots_before)
        if not shrink or result.status != "unsat":
            return result
        core = result.conflict
        if not 1 < len(core) <= 25:
            return result
        expr_of = {tag: expr for expr, tag in tagged_exprs
                   if tag is not None}
        for tag in list(core):
            if tag not in core or tag not in expr_of:
                continue
            trial = [(expr_of[t], t) for t in core
                     if t != tag and t in expr_of]
            retry = self._check_once(trial, node_limit=2000)
            if retry.status == "unsat":
                core = retry.conflict
        return IntResult("unsat", conflict=core)

    def _check_once(self, tagged_exprs, node_limit=None):
        self._nodes = 0     # so early-conflict exits report a clean count
        self._simplex.push()
        try:
            for expr, tag in tagged_exprs:
                prepared = self._prepare(expr)
                if prepared is None:
                    continue
                if prepared == "false":
                    return IntResult("unsat",
                                     conflict=[tag] if tag is not None else [])
                conflict = self._assert(prepared, tag)
                if conflict is not None:
                    return IntResult("unsat", conflict=conflict)
            self._nodes = 0
            if node_limit is not None:
                self._nodes = max(0, self._node_limit - node_limit)
            try:
                return self._search(0)
            except ResourceLimit as exc:
                return IntResult("unknown", reason=exc.reason)
        finally:
            self._simplex.pop()

    def solve(self):
        """One-shot feasibility of the base atoms alone."""
        return self.check([])

    # -- branch and bound --------------------------------------------------------------

    def _search(self, depth):
        self._nodes += 1
        if self._nodes > self._node_limit or depth > 600:
            raise ResourceLimit("branch-and-bound budget exhausted",
                                reason="bb-nodes")
        if self._deadline.expired():
            raise ResourceLimit("deadline expired", reason="deadline")
        status = self._simplex.check(self._deadline)
        if status == "unsat":
            core = [t for t in self._simplex.conflict if t is not None]
            return IntResult("unsat", conflict=core)
        branch_var = None
        branch_val = None
        variables = self._sorted_vars
        if variables is None:
            variables = self._sorted_vars = sorted(self._variables)
        value_of = self._simplex.value
        for var in variables:
            value = value_of(var)
            if value.denominator != 1:
                branch_var, branch_val = var, value
                break
        if branch_var is None:
            model = {var: int(self._simplex.value(var))
                     for var in self._variables if not var.startswith("__")}
            return IntResult("sat", model=model)

        lo = floor(branch_val)
        cores = []
        for is_upper, bound in ((True, lo), (False, lo + 1)):
            # The pop must run even when the recursive search raises
            # ResourceLimit: the solver is persistent, and a frame leaked
            # here would leave this branch's (tag-None) bound asserted for
            # every later check — whose conflicts then blame the wrong
            # atoms, an unsound core.
            self._simplex.push()
            try:
                conflict = (
                    self._simplex.assert_upper(branch_var, bound, None)
                    if is_upper
                    else self._simplex.assert_lower(branch_var, bound, None))
                if conflict is not None:
                    cores.append([t for t in conflict if t is not None])
                    continue
                result = self._search(depth + 1)
            finally:
                self._simplex.pop()
            if result.status == "sat":
                return result
            if result.status == "unknown":
                raise ResourceLimit("branch-and-bound budget exhausted",
                                    reason=result.reason or "bb-nodes")
            cores.append(result.conflict)
        merged = []
        seen = set()
        for core in cores:
            for tag in core:
                if tag not in seen:
                    seen.add(tag)
                    merged.append(tag)
        return IntResult("unsat", conflict=merged)


def solve_atoms(tagged_atoms, node_limit=200000, deadline=None):
    """Convenience wrapper: integer feasibility of ``[(LinExpr, tag), ...]``."""
    solver = IntegerSolver(node_limit=node_limit, deadline=deadline)
    conflicts = []
    for expr, tag in tagged_atoms:
        conflict = solver.assert_base(expr, tag)
        if conflict is not None:
            conflicts = conflict
            return IntResult("unsat", conflict=conflicts)
    return solver.solve()
