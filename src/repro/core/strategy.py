"""PFA selection strategy (Section 9).

The paper: numeric PFAs for variables under string-number conversion,
standard PFAs for the rest, with sizes (m, p, q) starting at (5, 2, q0)
— q0 from an internal static analysis — and growing per refinement round.

Our static analysis solves the length abstraction of the problem once and
reads off a plausible length for every string variable.  Variables whose
plausible length is small receive a straight-line PFA of that length (plus
a little slack that grows with the refinement round); this is the
workhorse for symbolic-execution constraints, where path conditions pin
lengths exactly.  The hints are only heuristics: a wrong hint shrinks the
under-approximation (still sound) and the next refinement round recovers.

Variables appearing in character disequalities always get one-transition
PFAs so the disequality flattens to a single linear atom.
"""

from math import inf

from repro import faults as _faults
from repro.alphabet import DEFAULT_ALPHABET
from repro.core.overapprox import length_abstraction
from repro.core.pfa import (
    conversion_pfa, numeric_pfa, standard_pfa, straight_pfa,
)
from repro.logic.intervals import propagate_intervals, range_of
from repro.logic.presolve import presolve
from repro.obs import current_metrics
from repro.strings.ast import (
    CharCode, CharNeq, Disjunction, RegularConstraint, ToNum, length_var,
)

LENGTH_HINT_THRESHOLD = 40
"""Hints above this length are ignored (the variable is treated as
unbounded and covered by a loop-based PFA instead)."""


def analyze_lengths(problem, alphabet=DEFAULT_ALPHABET):
    """Sound length upper bounds: string var name -> max length.

    The length abstraction is presolved (variable elimination turns the
    per-position length chains of charAt/substr encodings into explicit
    definitions) and interval propagation — including the branch-hull rule
    over disjunctions — derives bounds every solution satisfies.
    Restricting a variable to the straight-line PFA of its bound therefore
    loses no solutions at all.

    The analysis is a pure function of (problem, alphabet): interval
    propagation runs to its fixpoint without consulting any budget.
    """
    formula = length_abstraction(problem, alphabet)
    # Propagate over the presolved formula (definitions make charAt-style
    # length chains explicit) and over the original (whose direct bounds
    # the definitions may hide), and keep the tighter of the two.
    reduced, steps = presolve(formula)
    state = propagate_intervals(reduced)
    bounds = dict(state.bounds)
    for var, expr in reversed(steps):
        if var not in bounds:
            bounds[var] = range_of(expr, bounds)
    direct = propagate_intervals(formula)
    for var, (lo, hi) in direct.bounds.items():
        old_lo, old_hi = bounds.get(var, (lo, hi))
        bounds[var] = (max(lo, old_lo), min(hi, old_hi))
    hints = {}
    for v in problem.string_vars():
        _, hi = bounds.get(length_var(v.name), (-inf, inf))
        if hi is not inf and 0 <= hi <= LENGTH_HINT_THRESHOLD:
            hints[v.name] = int(hi)
    current_metrics().gauge("strategy.length_hints", len(hints))
    return hints


def classify_variables(problem):
    """Partition string variables by the PFA shape they need.

    Returns ``(tonum, single_char)`` where *tonum* maps each variable
    under a conversion to its feature set — empty for base-only
    variables, otherwise a subset of ``{"sem", "ws", "sign"}`` unioned
    over every semantics applied to it (the conversion PFA must cover
    the prefix features of all of them).  Constraints inside
    :class:`Disjunction` branches count the same as top-level ones: the
    restriction is shared by every branch.
    """
    tonum = {}
    single_char = set()

    def scan(constraints):
        for c in constraints:
            if isinstance(c, ToNum):
                features = tonum.setdefault(c.var.name, set())
                if c.semantics is not None:
                    features.add("sem")
                    if c.semantics.whitespace:
                        features.add("ws")
                    if c.semantics.sign:
                        features.add("sign")
            elif isinstance(c, CharNeq):
                single_char.add(c.left.name)
                single_char.add(c.right.name)
            elif isinstance(c, CharCode):
                single_char.add(c.var.name)
            elif isinstance(c, Disjunction):
                for branch in c.branches:
                    scan(branch)

    scan(problem)
    return tonum, single_char


def loop_length_hint(problem, default):
    """q0 from static analysis: the longest short cycle among the
    constraint automata, as a proxy for the period of solution words."""
    best = default
    for constraint in problem.by_kind(RegularConstraint):
        cycle = _shortest_cycle_length(constraint.nfa)
        if cycle is not None:
            best = max(best, min(cycle, 6))
    return best


def _shortest_cycle_length(nfa):
    base = nfa.without_epsilon().trim()
    shortest = None
    for start in range(base.num_states):
        # BFS distance back to `start`.
        distance = {start: 0}
        queue = [start]
        while queue:
            state = queue.pop(0)
            for _, target in base.out_edges(state):
                if target == start:
                    length = distance[state] + 1
                    if shortest is None or length < shortest:
                        shortest = length
                    continue
                if target not in distance:
                    distance[target] = distance[state] + 1
                    queue.append(target)
    return shortest


def build_restriction(problem, step, names, alphabet=DEFAULT_ALPHABET,
                      length_hints=None, round_index=0, reuse=None):
    """The flat domain restriction R: string var name -> PFA.

    Returns ``(restriction, complete)``.  *complete* is True when every
    variable received a straight-line PFA whose length is a *sound* upper
    bound from the static analysis: the restriction then loses no
    solutions, so an unsatisfiable flattening proves the input UNSAT.

    *reuse*, when given, is a dict carried across refinement rounds mapping
    variable name to ``(shape, pfa)``.  A variable whose requested shape is
    unchanged since the previous round gets the *same* PFA object back, so
    its character variables — and everything flattened from them — stay
    identical and downstream caches (fragment reuse, incremental SMT) hit.
    """
    if _faults.ARMED:
        _faults.point("strategy.restrict")
    length_hints = length_hints or {}
    tonum_vars, single_char_vars = classify_variables(problem)
    restriction = {}
    complete = True
    reused = 0

    def pfa_for(name, shape):
        nonlocal reused
        if reuse is not None:
            cached = reuse.get(name)
            if cached is not None and cached[0] == shape:
                reused += 1
                return cached[1]
        namer = names.char_namer(name)
        kind = shape[0]
        if kind == "straight":
            pfa = straight_pfa(namer, shape[1])
        elif kind == "numeric":
            pfa = numeric_pfa(namer, shape[1])
        elif kind == "conversion":
            pfa = conversion_pfa(
                namer, shape[1],
                ws_code=alphabet.code(" ") if shape[2] else None,
                sign_codes=((alphabet.code("+"), alphabet.code("-"))
                            if shape[3] else None))
        else:
            pfa = standard_pfa(namer, shape[1], shape[2])
        if reuse is not None:
            reuse[name] = (shape, pfa)
        return pfa

    for v in sorted(problem.string_vars(), key=lambda s: s.name):
        name = v.name
        hint = length_hints.get(name)
        if name in single_char_vars:
            restriction[name] = pfa_for(name, ("straight", 1))
            if hint is None or hint > 1:
                complete = False
        elif name in tonum_vars:
            features = tonum_vars[name]
            if hint is not None:
                # A sound length bound makes the plain chain lossless even
                # for conversions (leading zeros are just digit values and
                # the semantics transducer reads prefixes in-chain), and
                # keeps the variable eligible for positional equations.
                restriction[name] = pfa_for(
                    name, ("straight", min(hint, LENGTH_HINT_THRESHOLD)))
            elif "sem" in features:
                restriction[name] = pfa_for(
                    name, ("conversion", step.numeric_m,
                           "ws" in features, "sign" in features))
                complete = False
            else:
                restriction[name] = pfa_for(name, ("numeric", step.numeric_m))
                complete = False
        elif hint is not None:
            restriction[name] = pfa_for(name, ("straight", hint))
        else:
            restriction[name] = pfa_for(
                name, ("standard", step.loops, step.loop_length))
            complete = False
    metrics = current_metrics()
    if metrics.enabled and reuse is not None:
        metrics.add("strategy.pfas_reused", reused)
    return restriction, complete
