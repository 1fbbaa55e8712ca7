"""Tseitin conversion of linear-atom formulas to CNF.

The formula is first brought to negation normal form, so the encoding only
needs the one-sided (Plaisted-Greenbaum) implications: every model of the
CNF, restricted to the atom variables, satisfies the boolean skeleton of the
original formula.

Atoms are canonicalized before being given SAT variables so that an atom and
its integer complement (``e <= 0`` versus ``1 - e <= 0``) map to opposite
literals of one variable.  This halves the theory's work and lets the SAT
core see the propositional structure of comparisons.

The encoder is incremental-friendly: :func:`encode_into` accepts a
persistent registry and node->literal cache, so an
:class:`~repro.smt.session.IncrementalSmtSession` can feed successive
round formulas through one registry and re-encode only the subformulas it
has never seen.  Definitional clauses are valid on their own (they only
constrain fresh label variables), which is what makes sharing them across
rounds sound.
"""

from repro.logic.formula import Atom, And, Or, BoolConst
from repro.errors import SolverError


class AtomRegistry:
    """Bidirectional map between canonical atoms and SAT literals."""

    def __init__(self):
        self._key_to_var = {}
        self._var_to_atom = {}
        self._next_var = 1
        self._occurrences = set()

    def fresh_var(self):
        """Allocate a SAT variable with no attached atom (Tseitin label)."""
        v = self._next_var
        self._next_var += 1
        return v

    def literal(self, atom):
        """SAT literal for *atom*, reusing the complement's variable."""
        key, complement_key = atom.canonical_keys()
        var = self._key_to_var.get(key)
        if var is not None:
            return var
        var = self._key_to_var.get(complement_key)
        if var is not None:
            return -var
        v = self.fresh_var()
        self._key_to_var[key] = v
        self._var_to_atom[v] = atom
        return v

    def atom_of(self, variable):
        """The Atom attached to a SAT *variable*, or ``None`` for labels."""
        return self._var_to_atom.get(variable)

    def note_occurrence(self, literal):
        """Record that *literal* (with this polarity) occurs in the CNF."""
        self._occurrences.add(literal)

    def occurs(self, literal):
        """Does *literal* occur anywhere with this polarity?

        A theory literal that never occurs is a don't-care for the boolean
        skeleton: the lazy SMT loop need not assert its atom.
        """
        return literal in self._occurrences


def encode_into(formula, registry, cache, clauses):
    """Encode an NNF *formula*, appending definitional clauses to *clauses*.

    Returns the root literal.  *cache* maps already-encoded nodes to their
    literals; entries (and the clauses they stand for) may be reused across
    calls as long as the same *registry* keeps numbering the variables —
    every emitted clause only relates label variables to their definition,
    so it stays valid in any later formula.  The root assertion is NOT
    appended; the caller asserts (or guards) the returned literal.
    """

    def encode(f):
        lit = cache.get(f)
        if lit is not None:
            return lit
        if isinstance(f, Atom):
            lit = registry.literal(f)
            registry.note_occurrence(lit)
        elif isinstance(f, And):
            lit = registry.fresh_var()
            for arg in f.args:
                clauses.append([-lit, encode(arg)])
        elif isinstance(f, Or):
            lit = registry.fresh_var()
            clauses.append([-lit] + [encode(arg) for arg in f.args])
        elif isinstance(f, BoolConst):
            # Only reachable under And/Or whose smart constructors folded
            # constants away, but guard anyway.
            lit = registry.fresh_var()
            clauses.append([lit] if f.value else [-lit])
        else:
            raise SolverError("unexpected node in NNF: %r" % (f,))
        cache[f] = lit
        return lit

    return encode(formula)
