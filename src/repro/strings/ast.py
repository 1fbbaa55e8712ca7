"""Abstract syntax of string constraints (paper Section 3).

A *word term* is a tuple whose elements are :class:`StrVar` objects or
plain Python strings (literals).  The four atomic constraint kinds are

* :class:`WordEquation` — ``t1 = t2`` for word terms ``t1``, ``t2``;
* :class:`RegularConstraint` — ``x in L(A)``;
* :class:`IntConstraint` — a linear-arithmetic formula over integer
  variables and string lengths (lengths appear as the reserved variable
  names produced by :func:`length_var`);
* :class:`ToNum` — ``n = toNum(x)`` with ``n`` an integer variable.

:class:`CharNeq` is an internal fifth kind produced when desugaring
disequalities: two *single-character-or-empty* variables denote different
strings.  The flattening gives such variables one-transition PFAs, making
the constraint a single linear disequality.
"""

from repro.logic.formula import Formula
from repro.logic.terms import var as int_var
from repro.errors import SolverError


class StrVar:
    """A string variable."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, StrVar) and self.name == other.name

    def __hash__(self):
        return hash(("strvar", self.name))

    def __repr__(self):
        return self.name


def length_var(name_or_var):
    """Reserved integer-variable name carrying the length of a string var."""
    name = name_or_var.name if isinstance(name_or_var, StrVar) else name_or_var
    return "|%s|" % name


def str_len(name_or_var):
    """Length of a string variable as a linear expression."""
    return int_var(length_var(name_or_var))


def _coerce_term(term):
    """Normalize a word term to a tuple of StrVar | str elements."""
    if isinstance(term, (StrVar, str)):
        term = (term,)
    out = []
    for element in term:
        if isinstance(element, StrVar):
            out.append(element)
        elif isinstance(element, str):
            if element:
                out.append(element)
        else:
            raise SolverError("bad word-term element %r" % (element,))
    return tuple(out)


class Constraint:
    """Base class of atomic string constraints."""

    __slots__ = ()

    def string_vars(self):
        raise NotImplementedError

    def int_vars(self):
        return set()


class WordEquation(Constraint):
    """``lhs = rhs`` over word terms."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = _coerce_term(lhs)
        self.rhs = _coerce_term(rhs)

    def string_vars(self):
        return {e for e in self.lhs + self.rhs if isinstance(e, StrVar)}

    def __repr__(self):
        def side(term):
            return "".join(repr(e) if isinstance(e, StrVar) else '"%s"' % e
                           for e in term) or '""'
        return "%s = %s" % (side(self.lhs), side(self.rhs))


class RegularConstraint(Constraint):
    """``var in L(nfa)``; *source* keeps the regex text for display.

    ``compact_nfa`` caches a minimized equivalent computed lazily by the
    flattener — synchronization products scale with automaton size, so the
    investment pays back every refinement round.
    """

    __slots__ = ("var", "nfa", "source", "_compact", "_dfa")

    def __init__(self, variable, nfa, source=None):
        self.var = variable
        self.nfa = nfa
        self.source = source
        self._compact = None
        self._dfa = None

    def compact_nfa(self):
        """Trimmed epsilon-free form (cached across refinement rounds)."""
        if self._compact is None:
            self._compact = self.nfa.without_epsilon().trim()
        return self._compact

    def dfa(self, max_states=160):
        """Minimized deterministic form, or None if it would be too big.

        Used by the unrolled (BMC-style) membership flattening, which
        needs a deterministic transition function.  Cached across
        refinement rounds; ``False`` is stored internally for "too big".
        A failure inside ``minimize`` propagates and caches nothing.
        """
        if self._dfa is None:
            base = self.compact_nfa()
            result = False
            if 0 < base.num_states <= max_states:
                candidate = base.minimize(sorted(base.alphabet()))
                if candidate.num_states <= max_states:
                    result = candidate
            self._dfa = result
        return self._dfa if self._dfa is not False else None

    def string_vars(self):
        return {self.var}

    def __repr__(self):
        return "%r in /%s/" % (self.var, self.source or "<nfa>")


class IntConstraint(Constraint):
    """A linear formula over integer variables and string lengths."""

    __slots__ = ("formula",)

    def __init__(self, formula):
        if not isinstance(formula, Formula):
            raise SolverError("IntConstraint needs a logic formula")
        self.formula = formula

    def string_vars(self):
        from repro.logic.formula import variables_of
        out = set()
        for name in variables_of(self.formula):
            if name.startswith("|") and name.endswith("|"):
                out.add(StrVar(name[1:-1]))
        return out

    def int_vars(self):
        from repro.logic.formula import variables_of
        return {name for name in variables_of(self.formula)
                if not (name.startswith("|") and name.endswith("|"))}

    def __repr__(self):
        return repr(self.formula)


class ToNum(Constraint):
    """``result = toNum(var)`` with *result* an integer variable name.

    ``semantics`` is None for the paper's base toNum (decimal digit
    strings, everything else -1) or a
    :class:`~repro.strings.numsem.NumSemantics` describing a real-parser
    variant (sign/whitespace/radix/exponent/overflow).
    """

    __slots__ = ("result", "var", "semantics")

    def __init__(self, result, variable, semantics=None):
        self.result = result
        self.var = variable
        self.semantics = semantics

    def string_vars(self):
        return {self.var}

    def int_vars(self):
        return {self.result}

    def __repr__(self):
        if self.semantics is not None:
            return "%s = toNum[%s](%r)" % (self.result, self.semantics.name,
                                           self.var)
        return "%s = toNum(%r)" % (self.result, self.var)


class CharNeq(Constraint):
    """Two single-character-or-empty variables hold different strings."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def string_vars(self):
        return {self.left, self.right}

    def __repr__(self):
        return "%r !=c %r" % (self.left, self.right)


class CharCode(Constraint):
    """``result`` is the code point of the single character held by *var*.

    Only satisfied when ``|var| = 1``; the total SMT-LIB semantics of
    ``str.to_code`` (length != 1 yields -1) is expressed by wrapping this
    in a :class:`Disjunction` with the out-of-range branches.  ``result``
    carries the Unicode code point (``ord``), not the solver-internal
    alphabet code; the flattening maps between the two.
    """

    __slots__ = ("result", "var")

    def __init__(self, result, variable):
        self.result = result
        self.var = variable

    def string_vars(self):
        return {self.var}

    def int_vars(self):
        return {self.result}

    def __repr__(self):
        return "%s = code(%r)" % (self.result, self.var)


class Disjunction(Constraint):
    """At least one *branch* — a conjunction of atomic constraints — holds.

    The solver's input language is otherwise purely conjunctive; this kind
    carries the case splits that total operation semantics need
    (``str.at`` out of range, ``str.indexof`` absent, ...).  Soundness of
    the flattening is structural: every branch constraint flattens to a
    formula over the *same* global per-variable PFA character variables,
    so the disjunction of the flattened branch conjunctions is exactly the
    flattening of the disjunction.
    """

    __slots__ = ("branches",)

    def __init__(self, branches):
        coerced = []
        for branch in branches:
            branch = tuple(branch)
            for c in branch:
                if not isinstance(c, Constraint):
                    raise SolverError(
                        "Disjunction branch element %r is not a constraint"
                        % (c,))
            coerced.append(branch)
        if not coerced:
            raise SolverError("Disjunction needs at least one branch")
        self.branches = tuple(coerced)

    def string_vars(self):
        out = set()
        for branch in self.branches:
            for c in branch:
                out |= c.string_vars()
        return out

    def int_vars(self):
        out = set()
        for branch in self.branches:
            for c in branch:
                out |= c.int_vars()
        return out

    def __repr__(self):
        return "(or %s)" % " | ".join(
            "[%s]" % "; ".join(map(repr, branch))
            for branch in self.branches)


class StringProblem:
    """A conjunction of atomic string constraints."""

    def __init__(self, constraints=None):
        self.constraints = list(constraints or [])

    def add(self, constraint):
        self.constraints.append(constraint)
        return self

    def extend(self, constraints):
        self.constraints.extend(constraints)
        return self

    def string_vars(self):
        out = set()
        for c in self.constraints:
            out |= c.string_vars()
        return out

    def int_vars(self):
        out = set()
        for c in self.constraints:
            out |= c.int_vars()
        return out

    def by_kind(self, kind):
        return [c for c in self.constraints if isinstance(c, kind)]

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    def __repr__(self):
        return "StringProblem(%s)" % "; ".join(map(repr, self.constraints))
