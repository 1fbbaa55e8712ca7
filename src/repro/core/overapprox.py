"""Over-approximation module (Section 4): prove UNSAT cheaply when possible.

The paper relaxes the input into the decidable chain-free fragment and runs
a complete procedure for it.  Our backend relaxes further, into linear
integer arithmetic, and decides that directly (DESIGN.md Section 5); the
relaxation per constraint is

* word equation          -> equality of side lengths,
* regular constraint     -> per-variable automata intersection (emptiness is
                            immediate UNSAT) plus the exact Parikh length
                            characterization of the intersection,
* integer constraint     -> taken verbatim,
* ``n = toNum(x)``       -> ``n >= -1`` and the two-sided digit-count/value
                            bracketing between ``n`` and ``|x|`` (strictly
                            tighter than the paper's relaxation, still sound),
* character disequality  -> the characters cannot both be empty.

Every step only forgets solutions of the original constraint, so an UNSAT
answer transfers to the original problem; a SAT answer is inconclusive and
hands control to the under-approximation.
"""

from repro.alphabet import DEFAULT_ALPHABET
from repro.automata.nfa import NFA
from repro.automata.parikh import parikh_formula
from repro.config import Deadline
from repro.logic.formula import FALSE, TRUE, conj, disj, eq, ge, implies, le
from repro.logic.terms import const, var as int_var
from repro.obs import current_tracer
from repro.smt import solve_formula
from repro.strings.ast import (
    CharCode, CharNeq, Disjunction, IntConstraint, RegularConstraint, StrVar,
    ToNum, WordEquation, str_len,
)
from repro.errors import ResourceLimit, UnsupportedConstraint

# toNum(x) with n >= 10^18 is out of scope for the value/length bracketing;
# larger numbers simply lose the |x|-side constraints (still sound).
_MAX_TRACKED_DIGITS = 18


def length_abstraction(problem, alphabet=DEFAULT_ALPHABET, names=None,
                       include_regular=True):
    """A sound LIA relaxation of *problem* over lengths and integers."""
    parts = []
    counter = [0]

    def fresh_prefix(kind):
        counter[0] += 1
        return "$oa.%s%d" % (kind, counter[0])

    for name in {v.name for v in problem.string_vars()}:
        parts.append(ge(str_len(name), 0))

    regular_by_var = {}
    for constraint in problem:
        if isinstance(constraint, RegularConstraint):
            regular_by_var.setdefault(constraint.var.name, []).append(
                constraint.nfa)
        else:
            parts.append(_constraint_relaxation(constraint, alphabet,
                                                fresh_prefix))

    if include_regular:
        for name, nfas in regular_by_var.items():
            combined = nfas[0]
            for nfa in nfas[1:]:
                combined = combined.intersect(nfa)
            parts.append(_regular_length_formula(name, combined,
                                                 fresh_prefix("re")))
    return conj(*parts)


def _constraint_relaxation(constraint, alphabet, fresh_prefix):
    """Sound LIA relaxation of one constraint (truth implies it).

    Regular constraints get the cheap per-constraint length formula here;
    the top level of :func:`length_abstraction` intersects same-variable
    memberships first, which this per-constraint path (used inside
    disjunction branches) cannot do.
    """
    if isinstance(constraint, WordEquation):
        return eq(_term_length(constraint.lhs), _term_length(constraint.rhs))
    if isinstance(constraint, RegularConstraint):
        return _regular_length_formula(constraint.var.name, constraint.nfa,
                                       fresh_prefix("re"))
    if isinstance(constraint, IntConstraint):
        return constraint.formula
    if isinstance(constraint, ToNum):
        return tonum_relaxation(constraint)
    if isinstance(constraint, CharNeq):
        return ge(str_len(constraint.left) + str_len(constraint.right), 1)
    if isinstance(constraint, CharCode):
        ords = [ord(c) for c in alphabet.chars()]
        return conj(eq(str_len(constraint.var), 1),
                    ge(int_var(constraint.result), min(ords)),
                    le(int_var(constraint.result), max(ords)))
    if isinstance(constraint, Disjunction):
        return disj(*[
            conj(*[_constraint_relaxation(c, alphabet, fresh_prefix)
                   for c in branch])
            for branch in constraint.branches])
    raise UnsupportedConstraint(
        "cannot over-approximate %r" % (constraint,))


def _term_length(term):
    total = const(0)
    for element in term:
        if isinstance(element, StrVar):
            total = total + str_len(element)
        else:
            total = total + len(element)
    return total


def _regular_length_formula(name, nfa, prefix):
    """Constraint tying |x| to the length image of L(nfa).

    The abstraction only ever projects a membership onto the *total*
    length of the word, and that projection of the Parikh image is
    exactly the language's length image — an eventually periodic set
    computable from the unary projection of the automaton (one subset-
    construction lasso over the transition graph).  This replaces the
    per-symbol Parikh construction, whose count and flow variables blew
    up on alphabet-wide automata (complements, dot-heavy regexes) while
    contributing nothing beyond their sum.  The rare automaton whose
    lasso exceeds the exploration cap falls back to exact Parikh.
    """
    trimmed = nfa.without_epsilon().trim()
    if trimmed.num_states == 0 or not trimmed.finals:
        return FALSE
    image = _length_image(trimmed)
    if image is None:
        symbols = sorted(trimmed.alphabet())
        count_names = {sym: "%s.c%d" % (prefix, i)
                       for i, sym in enumerate(symbols)}
        # The connectivity checks are dropped: without them the formula
        # also admits floating cycles, a weaker relaxation, and only this
        # abstraction's UNSAT answer is ever used, which stays sound.
        phi, _ = parikh_formula(trimmed, lambda sym: count_names[sym],
                                prefix + ".f")
        total = const(0)
        for sym in symbols:
            total = total + int_var(count_names[sym])
        shortest = trimmed.shortest_word()
        minimum = TRUE if shortest is None \
            else ge(str_len(name), len(shortest))
        return conj(phi, eq(str_len(name), total), minimum)
    finite, offsets, period = image
    parts = [eq(str_len(name), L) for L in finite]
    for i, offset in enumerate(offsets):
        if period == 1:
            parts.append(ge(str_len(name), offset))
        else:
            # |x| = offset + period * q for some q >= 0.
            q = int_var("%s.q%d" % (prefix, i))
            parts.append(conj(ge(q, 0),
                              eq(str_len(name), q * period + offset)))
    if not parts:
        return FALSE
    return disj(*parts)


# Distinct reachable subsets explored before giving up on the lasso and
# paying for the full Parikh construction instead.
_LASSO_LIMIT = 4096


def _length_image(nfa):
    """The length image of L(nfa) as ``(finite, offsets, period)``.

    ``finite`` lists accepted lengths below the lasso's preperiod;
    every ``offset`` contributes the arithmetic progression
    ``offset + period * k`` (k >= 0).  None when the subset lasso
    exceeds the exploration cap.
    """
    successors = [set() for _ in range(nfa.num_states)]
    for src, _, dst in nfa.transitions:
        successors[src].add(dst)
    finals = set(nfa.finals)
    seen = {}
    accept = []
    frontier = frozenset([nfa.initial])
    while frontier not in seen:
        if len(seen) >= _LASSO_LIMIT:
            return None
        seen[frontier] = len(accept)
        accept.append(bool(frontier & finals))
        nxt = set()
        for q in frontier:
            nxt |= successors[q]
        frontier = frozenset(nxt)
    preperiod = seen[frontier]
    period = len(accept) - preperiod
    finite = [i for i in range(preperiod) if accept[i]]
    offsets = [i for i in range(preperiod, preperiod + period) if accept[i]]
    return finite, offsets, period


def tonum_relaxation(constraint):
    """Sound bracketing between n = toNum(x) and |x|.

    Base semantics: ``n = -1`` (not a numeral) or ``n >= 0`` with: a
    numeral has at least one character (``|x| >= 1``); the value fits in
    its length (``|x| = L -> n <= 10^L - 1``); and conversely a large
    value needs a long string (``n >= 10^L -> |x| >= L + 1``).

    Real-parser semantics produce negative values, so none of the base
    bounds apply.  Bit-bounded overflow modes (error/saturate) still pin
    the result into the value range extended by the error value; bignum
    variants get the trivial relaxation.
    """
    sem = constraint.semantics
    if sem is not None:
        n = int_var(constraint.result)
        if sem.overflow in ("error", "saturate"):
            return conj(ge(n, min(sem.min_value, sem.error_value)),
                        le(n, max(sem.max_value, sem.error_value)))
        return TRUE
    n = int_var(constraint.result)
    length = str_len(constraint.var)
    # The bracketing implications hold unconditionally (for a non-numeral
    # n = -1 falsifies every antecedent about n and satisfies every bound
    # on n), so they live at the top level where interval propagation can
    # use them.
    parts = [ge(n, -1),
             disj(eq(n, -1), conj(ge(n, 0), ge(length, 1)))]
    for digits in range(_MAX_TRACKED_DIGITS + 1):
        power = 10 ** digits
        parts.append(implies(ge(n, power), ge(length, digits + 1)))
        parts.append(implies(eq(length, digits), le(n, power - 1)))
    return conj(*parts)


class OverapproxOutcome:
    """Result of the over-approximation phase."""

    __slots__ = ("status", "reason")

    def __init__(self, status, reason=None):
        self.status = status        # "unsat" | "inconclusive"
        self.reason = reason

    def __repr__(self):
        return "OverapproxOutcome(%s)" % self.status


def derived_affix_constraints(problem, alphabet):
    """Literal prefixes/suffixes entailed by word equations.

    An equation whose one side is a single variable and whose other side
    begins (ends) with a literal forces that variable to begin (end) with
    the literal.  Returned as automata ``p . Sigma*`` / ``Sigma* . s`` so
    they join the per-variable membership intersection — where clashing
    prefixes become emptiness, the paper's chain-free module's job.
    """
    sigma_star = NFA.from_symbols(sorted(alphabet.codes())).star()
    derived = []
    for constraint in problem.by_kind(WordEquation):
        for single, other in ((constraint.lhs, constraint.rhs),
                              (constraint.rhs, constraint.lhs)):
            if len(single) != 1 or not isinstance(single[0], StrVar) \
                    or not other:
                continue
            name = single[0].name
            if isinstance(other[0], str):
                prefix = NFA.from_word(alphabet.encode_word(other[0]))
                derived.append((name, prefix.concat(sigma_star)))
            if isinstance(other[-1], str):
                suffix = NFA.from_word(alphabet.encode_word(other[-1]))
                derived.append((name, sigma_star.concat(suffix)))
    return derived


def overapproximate(problem, alphabet=DEFAULT_ALPHABET, deadline=None,
                    config=None):
    """Run the over-approximation; "unsat" proves the input UNSAT."""
    deadline = deadline or Deadline.unbounded()
    tracer = current_tracer()

    # Immediate emptiness check on intersected regular constraints,
    # strengthened by literal prefixes/suffixes the equations entail.
    # A deadline expiring inside a product leaves the phase inconclusive.
    with tracer.span("emptiness") as span:
        regular_by_var = {}
        for constraint in problem.by_kind(RegularConstraint):
            regular_by_var.setdefault(constraint.var.name, []).append(
                constraint.nfa)
        for name, nfa in derived_affix_constraints(problem, alphabet):
            regular_by_var.setdefault(name, []).append(nfa)
        span.set(variables=len(regular_by_var))
        try:
            for name, nfas in regular_by_var.items():
                combined = nfas[0]
                for nfa in nfas[1:]:
                    combined = combined.intersect(nfa, deadline=deadline)
                if combined.is_empty():
                    return OverapproxOutcome(
                        "unsat",
                        "regular constraints on %s are inconsistent" % name)
        except ResourceLimit:
            return OverapproxOutcome("inconclusive")

    with tracer.span("abstract"):
        formula = length_abstraction(problem, alphabet)
    if formula is TRUE:
        return OverapproxOutcome("inconclusive")
    result = solve_formula(formula, deadline=deadline, config=config)
    if result.status == "unsat":
        return OverapproxOutcome("unsat", "length abstraction is infeasible")
    return OverapproxOutcome("inconclusive")
