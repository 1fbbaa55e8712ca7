"""Linear-arithmetic characterization of Parikh images (Lemma 2.1).

Implements the Verma-Seidl-Schwentick characterization: a word's Parikh
image is a flow on the automaton graph.  For every transition ``t`` a
counter ``y_t`` gives how often ``t`` is taken, and flow conservation links
the counters to the initial and final states.  The formula is linear and of
size O(|Q| + |T|), matching the paper's claim that Parikh images of regular
languages have linear-sized linear-formula characterizations.

Conservation alone admits "floating cycles": flow around a cycle that the
run from the initial state never reaches.  In an acyclic automaton there
are none, and every flow is a path.  For a cyclic automaton the formula
leaves connectivity out and returns a :class:`Connectivity` obligation
beside it, which the lazy SMT loop checks on each model the integer solver
accepts (:class:`~repro.smt.session.IncrementalSmtSession`).  Let R be the
states reachable from the initial state over transitions with flow >= 1.
For every used transition ``c`` whose source lies outside R, the check
returns the lemma

    y_c >= 1  ->  OR { y_t >= 1 : t leads from R to outside R }

Every connected flow satisfies it (a run reaching ``c`` has to leave R
somewhere), the model at hand violates it, and there are finitely many such
lemmas, so the loop converges on a connected flow or refutes the query.
"""

from collections import deque

from repro.automata.nfa import EPS
from repro.logic.formula import FALSE, conj, eq, ge, le
from repro.logic.terms import const, var

_END = object()
"""Internal fresh symbol used to merge multiple final states."""


class Connectivity:
    """The connectivity half of a cyclic automaton's Parikh formula.

    *edges* holds one ``(source, target, flow_variable)`` triple per
    transition, the end-marker transitions into a merged sink included.
    """

    __slots__ = ("initial", "edges", "_out")

    def __init__(self, initial, edges):
        self.initial = initial
        self.edges = tuple(edges)
        self._out = {}
        for i, (src, dst, _) in enumerate(self.edges):
            self._out.setdefault(src, []).append((i, dst))

    def check(self, model):
        """Lemmas the flows of *model* violate, as clauses (lists of atoms
        over the flow variables); empty when every used transition is
        reachable from the initial state."""
        used = [model.get(name, 0) >= 1 for _, _, name in self.edges]
        reached = {self.initial}
        queue = deque(reached)
        while queue:
            for i, dst in self._out.get(queue.popleft(), ()):
                if used[i] and dst not in reached:
                    reached.add(dst)
                    queue.append(dst)
        stranded = [name for (src, _, name), on in zip(self.edges, used)
                    if on and src not in reached]
        if not stranded:
            return []
        cut = [ge(var(name), 1) for src, dst, name in self.edges
               if src in reached and dst not in reached]
        return [[le(var(name), 0)] + cut for name in stranded]


def parikh_formula(nfa, count_var, prefix, counter_bound=None):
    """Formula whose connected models project to the Parikh images of
    ``L(nfa)``; returns ``(formula, checks)``.

    ``count_var`` maps each alphabet symbol to the name of its Parikh
    variable; ``prefix`` namespaces the auxiliary flow variables so
    several Parikh formulas can coexist in one constraint.
    *counter_bound*, when given, caps every transition flow of a cyclic
    automaton so the integer search space is bounded (see DESIGN.md
    Section 5).  *checks* is ``(Connectivity,)`` for a cyclic automaton
    and ``()`` otherwise; a model satisfying the formula denotes a word
    only when it also passes the checks.

    The automaton must be epsilon-free.  It is trimmed internally; an empty
    language yields ``FALSE``.
    """
    original_symbols = nfa.alphabet()
    base = nfa.without_epsilon().trim()
    if base.num_states == 0 or not base.finals:
        return FALSE, ()

    transitions = list(base.transitions)
    finals = set(base.finals)
    if len(finals) > 1:
        # Merge finals through a hidden end-marker transition so the flow
        # problem has a single sink.  The marker count is fixed to one and
        # never exposed through `count_var`.
        sink = base.num_states
        num_states = base.num_states + 1
        for f in finals:
            transitions.append((f, _END, sink))
        final = sink
    else:
        num_states = base.num_states
        final = next(iter(finals))
    initial = base.initial

    names = ["%s_y%d" % (prefix, i) for i in range(len(transitions))]
    flows = [var(name) for name in names]

    incoming = [[] for _ in range(num_states)]
    outgoing = [[] for _ in range(num_states)]
    for i, (src, sym, dst) in enumerate(transitions):
        outgoing[src].append(i)
        incoming[dst].append(i)

    # In an acyclic automaton every nonnegative flow with unit demand
    # decomposes into source-sink paths, so no connectivity check is
    # needed and every flow is at most one.
    acyclic = _is_acyclic(num_states, transitions)

    parts = []
    for i in range(len(transitions)):
        parts.append(ge(flows[i], 0))
        if counter_bound is not None and not acyclic:
            parts.append(le(flows[i], counter_bound))
        elif acyclic:
            parts.append(le(flows[i], 1))

    # Flow conservation: inflow - outflow = [q = final] - [q = initial].
    for q in range(num_states):
        demand = (1 if q == final else 0) - (1 if q == initial else 0)
        balance = const(0)
        for i in incoming[q]:
            balance = balance + flows[i]
        for i in outgoing[q]:
            balance = balance - flows[i]
        parts.append(eq(balance, demand))

    # Tie the Parikh count variables to the flows.
    by_symbol = {}
    for i, (_, sym, _) in enumerate(transitions):
        by_symbol.setdefault(sym, []).append(i)
    for sym, indices in by_symbol.items():
        total = const(0)
        for i in indices:
            total = total + flows[i]
        if sym is _END:
            parts.append(eq(total, 1))
        else:
            parts.append(eq(var(count_var(sym)), total))

    # Symbols trimmed away with dead states can never occur.
    for sym in original_symbols:
        if sym is not EPS and sym not in by_symbol:
            parts.append(eq(var(count_var(sym)), 0))

    if acyclic:
        return conj(*parts), ()
    edges = [(src, dst, name)
             for (src, _, dst), name in zip(transitions, names)]
    return conj(*parts), (Connectivity(initial, edges),)


def _is_acyclic(num_states, transitions):
    """Topological-order check over the transition graph."""
    adjacency = [[] for _ in range(num_states)]
    indegree = [0] * num_states
    for src, _, dst in transitions:
        adjacency[src].append(dst)
        indegree[dst] += 1
    queue = [q for q in range(num_states) if indegree[q] == 0]
    seen = 0
    while queue:
        q = queue.pop()
        seen += 1
        for t in adjacency[q]:
            indegree[t] -= 1
            if indegree[t] == 0:
                queue.append(t)
    return seen == num_states


def parikh_image_of_word(word):
    """Concrete Parikh image of a word: symbol -> count (for tests)."""
    image = {}
    for sym in word:
        image[sym] = image.get(sym, 0) + 1
    return image
