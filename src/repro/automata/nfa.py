"""Nondeterministic finite automata over numeric symbols.

States are integers ``0..n-1``; symbols are arbitrary hashable values
(character codes for concrete automata, character-variable names inside
parametric automata).  ``EPS`` (``None``) marks epsilon transitions, which
Thompson constructions introduce and :meth:`NFA.without_epsilon` removes.

The class is immutable by convention: every operation returns a new NFA.
"""

from collections import deque

from repro import cache as _cache
from repro import faults as _faults
from repro.errors import ResourceLimit, SolverError
from repro.obs import current_metrics

EPS = None
"""Epsilon transition label."""

# Bounded memoization of the pure automata constructions (repro.cache).
# Keys are structural fingerprints, so equal automata share results no
# matter where they were built; values are NFAs, which are immutable by
# convention, so sharing them between callers is safe.
_EPSFREE_CACHE = _cache.LRUCache("nfa.without_epsilon", 512)
_TRIM_CACHE = _cache.LRUCache("nfa.trim", 512)
_DETERMINIZE_CACHE = _cache.LRUCache("nfa.determinize", 256)
_MINIMIZE_CACHE = _cache.LRUCache("nfa.minimize", 256)
_INTERSECT_CACHE = _cache.LRUCache("nfa.intersect", 256)


class NFA:
    """An NFA with one initial state and a set of final states."""

    __slots__ = ("num_states", "transitions", "initial", "finals", "_adj",
                 "_fp")

    def __init__(self, num_states, transitions, initial, finals):
        self.num_states = num_states
        self.transitions = tuple(transitions)
        self.initial = initial
        self.finals = frozenset(finals)
        self._fp = None
        adj = [[] for _ in range(num_states)]
        for src, sym, dst in self.transitions:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise SolverError("transition out of range")
            adj[src].append((sym, dst))
        self._adj = adj

    def fingerprint(self):
        """Structural identity for memoization: two NFAs with the same
        fingerprint have identical states, transitions and finals (and
        hence the same language), so cached operation results transfer."""
        fp = self._fp
        if fp is None:
            fp = self._fp = (self.num_states, self.initial, self.finals,
                             self.transitions)
        return fp

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def empty():
        """The automaton accepting the empty language."""
        return NFA(1, [], 0, [])

    @staticmethod
    def epsilon():
        """The automaton accepting only the empty word."""
        return NFA(1, [], 0, [0])

    @staticmethod
    def from_word(codes):
        """Accepts exactly the given sequence of symbols."""
        transitions = [(i, sym, i + 1) for i, sym in enumerate(codes)]
        return NFA(len(codes) + 1, transitions, 0, [len(codes)])

    @staticmethod
    def from_symbols(symbols):
        """Accepts exactly the one-symbol words over *symbols*."""
        transitions = [(0, s, 1) for s in symbols]
        return NFA(2, transitions, 0, [1])

    # -- basic structure ---------------------------------------------------------

    def alphabet(self):
        """All non-epsilon symbols on transitions."""
        return {sym for _, sym, _ in self.transitions if sym is not EPS}

    def out_edges(self, state):
        return self._adj[state]

    def is_epsilon_free(self):
        return all(sym is not EPS for _, sym, _ in self.transitions)

    # -- language operations -------------------------------------------------------

    def union(self, other):
        offset_self, offset_other = 1, 1 + self.num_states
        transitions = [(0, EPS, offset_self + self.initial),
                       (0, EPS, offset_other + other.initial)]
        transitions += [(s + offset_self, a, t + offset_self)
                        for s, a, t in self.transitions]
        transitions += [(s + offset_other, a, t + offset_other)
                        for s, a, t in other.transitions]
        finals = [f + offset_self for f in self.finals]
        finals += [f + offset_other for f in other.finals]
        return NFA(1 + self.num_states + other.num_states,
                   transitions, 0, finals)

    def concat(self, other):
        offset = self.num_states
        transitions = list(self.transitions)
        transitions += [(s + offset, a, t + offset)
                        for s, a, t in other.transitions]
        transitions += [(f, EPS, offset + other.initial) for f in self.finals]
        return NFA(self.num_states + other.num_states, transitions,
                   self.initial, [f + offset for f in other.finals])

    def star(self):
        offset = 1
        transitions = [(0, EPS, offset + self.initial)]
        transitions += [(s + offset, a, t + offset)
                        for s, a, t in self.transitions]
        transitions += [(f + offset, EPS, 0) for f in self.finals]
        return NFA(1 + self.num_states, transitions, 0, [0])

    def plus(self):
        return self.concat(self.star())

    def optional(self):
        return self.union(NFA.epsilon())

    def repeat(self, low, high=None):
        """Between *low* and *high* copies (high=None means unbounded)."""
        result = NFA.epsilon()
        for _ in range(low):
            result = result.concat(self)
        if high is None:
            return result.concat(self.star())
        for _ in range(high - low):
            result = result.concat(self.optional())
        return result

    # -- epsilon removal / determinization ------------------------------------------

    def _eps_closure(self, states):
        closure = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for sym, t in self._adj[s]:
                if sym is EPS and t not in closure:
                    closure.add(t)
                    stack.append(t)
        return closure

    def without_epsilon(self):
        """Equivalent epsilon-free NFA (same state space)."""
        if self.is_epsilon_free():
            return self
        key = self.fingerprint()
        cached = _EPSFREE_CACHE.get(key)
        if cached is not _cache.MISSING:
            return cached
        closures = [self._eps_closure([s]) for s in range(self.num_states)]
        transitions = set()
        finals = set()
        for s in range(self.num_states):
            reach = closures[s]
            if reach & self.finals:
                finals.add(s)
            for r in reach:
                for sym, t in self._adj[r]:
                    if sym is not EPS:
                        transitions.add((s, sym, t))
        result = NFA(self.num_states, sorted(transitions, key=_trans_key),
                     self.initial, finals).trim()
        _EPSFREE_CACHE.put(key, result)
        return result

    def determinize(self, alphabet=None, deadline=None):
        """Subset construction; result is a complete DFA over *alphabet*.

        The construction is exponential in the worst case, so it checks
        *deadline* as it discovers states — both the wall clock and,
        when the deadline is a :class:`~repro.config.Budget`, the
        automata state-count guard — and raises an attributable
        :class:`~repro.errors.ResourceLimit` when a budget is gone.
        """
        if _faults.ARMED:
            _faults.point("automata.determinize")
        base = self.without_epsilon()
        if alphabet is None:
            alphabet = sorted(base.alphabet(), key=_sym_key)
        else:
            alphabet = sorted(set(alphabet), key=_sym_key)
        key = (base.fingerprint(), tuple(alphabet))
        cached = _DETERMINIZE_CACHE.get(key)
        if cached is not _cache.MISSING:
            return cached
        # A subset of NFA states is one int bitmask; the successor set
        # under a symbol is an OR-fold of precomputed per-symbol
        # successor masks over the set bits, so the inner loop is integer
        # AND/OR/shift with no hashing of sets.
        n = base.num_states
        sym_index = {sym: i for i, sym in enumerate(alphabet)}
        # succ[si][s] = bitmask of states reachable from s on alphabet[si].
        succ = [[0] * n for _ in alphabet]
        for s in range(n):
            for sym, t in base._adj[s]:
                si = sym_index.get(sym)
                if si is not None:
                    succ[si][s] |= 1 << t
        final_mask = 0
        for f in base.finals:
            final_mask |= 1 << f

        start = 1 << base.initial
        index = {start: 0}
        order = [start]
        transitions = []
        finals = set()
        state_limit = None if deadline is None \
            else deadline.automata_state_limit
        steps = 0
        head = 0
        while head < len(order):
            steps += 1
            if deadline is not None:
                # The state guard is exact (an inline compare per state,
                # the method call only on the way out); the wall-clock
                # check is amortized over 64 expansions.
                if state_limit is not None and len(index) > state_limit:
                    deadline.charge_states(len(index), op="determinization")
                if not steps & 63 and deadline.expired():
                    raise ResourceLimit("determinization hit the deadline",
                                        reason="deadline")
            current = order[head]
            ci = head
            head += 1
            if current & final_mask:
                finals.add(ci)
            for si, sym in enumerate(alphabet):
                arr = succ[si]
                nxt = 0
                m = current
                while m:
                    low = m & -m
                    nxt |= arr[low.bit_length() - 1]
                    m ^= low
                ni = index.get(nxt)
                if ni is None:
                    ni = index[nxt] = len(index)
                    order.append(nxt)
                transitions.append((ci, sym, ni))
        metrics = current_metrics()
        if metrics.enabled:
            metrics.observe("nfa.determinize_states", len(index))
        result = NFA(len(index), transitions, 0, finals)
        _DETERMINIZE_CACHE.put(key, result)
        return result

    def complement(self, alphabet):
        """Automaton for the complement language over *alphabet*."""
        dfa = self.determinize(alphabet)
        finals = set(range(dfa.num_states)) - set(dfa.finals)
        return NFA(dfa.num_states, dfa.transitions, dfa.initial, finals)

    def intersect(self, other, deadline=None):
        """Product automaton for the language intersection.

        Product construction can blow up quadratically, so it checks
        *deadline* per explored pair — wall clock plus the
        :class:`~repro.config.Budget` state-count guard — and raises an
        attributable :class:`~repro.errors.ResourceLimit` when a budget
        is gone.
        """
        if _faults.ARMED:
            _faults.point("automata.intersect")
        a = self.without_epsilon()
        b = other.without_epsilon()
        key = (a.fingerprint(), b.fingerprint())
        cached = _INTERSECT_CACHE.get(key)
        if cached is not _cache.MISSING:
            return cached
        # Product states are single int pair codes (p * nb + q) and
        # symbols are interned to small ints.  Symbols of `b` that never
        # occur in `a` can never fire in the product, so they are
        # dropped up front.
        nb = b.num_states
        sym_ids = {}
        syms = []
        a_adj = []
        for p in range(a.num_states):
            row = []
            for sym, t in a._adj[p]:
                si = sym_ids.get(sym)
                if si is None:
                    si = sym_ids[sym] = len(syms)
                    syms.append(sym)
                row.append((si, t))
            a_adj.append(row)
        b_by = [None] * nb
        for q in range(nb):
            d = {}
            for sym, t in b._adj[q]:
                si = sym_ids.get(sym)
                if si is not None:
                    d.setdefault(si, []).append(t)
            b_by[q] = d

        a_finals = a.finals
        b_finals = b.finals
        start_code = a.initial * nb + b.initial
        index = {start_code: 0}
        transitions = []
        finals = []
        worklist = deque([start_code])
        state_limit = None if deadline is None \
            else deadline.automata_state_limit
        steps = 0
        while worklist:
            steps += 1
            if deadline is not None:
                if state_limit is not None and len(index) > state_limit:
                    deadline.charge_states(len(index), op="product")
                if not steps & 63 and deadline.expired():
                    raise ResourceLimit(
                        "product construction hit the deadline",
                        reason="deadline")
            code = worklist.popleft()
            p, q = divmod(code, nb)
            src = index[code]
            if p in a_finals and q in b_finals:
                finals.append(src)
            bq = b_by[q]
            for si, pt in a_adj[p]:
                qts = bq.get(si)
                if qts:
                    base_pt = pt * nb
                    sym = syms[si]
                    for qt in qts:
                        tcode = base_pt + qt
                        ti = index.get(tcode)
                        if ti is None:
                            ti = index[tcode] = len(index)
                            worklist.append(tcode)
                        transitions.append((src, sym, ti))
        metrics = current_metrics()
        if metrics.enabled:
            metrics.observe("nfa.product_states", len(index))
        result = NFA(len(index), transitions, 0, finals).trim()
        _INTERSECT_CACHE.put(key, result)
        return result

    # -- structural cleanup -----------------------------------------------------------

    def trim(self):
        """Restrict to states both reachable and co-reachable."""
        key = self.fingerprint()
        cached = _TRIM_CACHE.get(key)
        if cached is not _cache.MISSING:
            return cached
        result = self._trim()
        _TRIM_CACHE.put(key, result)
        return result

    def _trim(self):
        forward = self._reach_from({self.initial}, self._adj)
        rev = [[] for _ in range(self.num_states)]
        for s, a, t in self.transitions:
            rev[t].append((a, s))
        backward = self._reach_from(set(self.finals), rev)
        keep = forward & backward
        if self.initial not in keep:
            return NFA.empty()
        index = {}
        for s in sorted(keep):
            index[s] = len(index)
        transitions = [(index[s], a, index[t]) for s, a, t in self.transitions
                       if s in keep and t in keep]
        finals = [index[f] for f in self.finals if f in keep]
        return NFA(len(index), transitions, index[self.initial], finals)

    @staticmethod
    def _reach_from(seeds, adjacency):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            s = stack.pop()
            for _, t in adjacency[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def minimize(self, alphabet=None, deadline=None):
        """Hopcroft minimization of the determinized automaton."""
        key = (self.fingerprint(),
               None if alphabet is None
               else tuple(sorted(set(alphabet), key=_sym_key)))
        cached = _MINIMIZE_CACHE.get(key)
        if cached is not _cache.MISSING:
            return cached
        result = self._minimize(alphabet, deadline)
        _MINIMIZE_CACHE.put(key, result)
        return result

    def _minimize(self, alphabet, deadline):
        dfa = self.determinize(alphabet, deadline=deadline)
        dfa = dfa.trim()
        if dfa.num_states == 0:
            return NFA.empty()
        symbols = sorted(dfa.alphabet(), key=_sym_key)
        delta = {}
        preimage = {}
        for s, a, t in dfa.transitions:
            delta[(s, a)] = t
            preimage.setdefault((t, a), set()).add(s)
        finals = set(dfa.finals)
        non_finals = set(range(dfa.num_states)) - finals
        partition = [blk for blk in (finals, non_finals) if blk]
        worklist = [blk for blk in partition]
        steps = 0
        while worklist:
            steps += 1
            if deadline is not None and not steps & 63 \
                    and deadline.expired():
                raise ResourceLimit("minimization hit the deadline",
                                    reason="deadline")
            splitter = worklist.pop()
            for a in symbols:
                x = set()
                for t in splitter:
                    x |= preimage.get((t, a), set())
                new_partition = []
                for block in partition:
                    inter = block & x
                    diff = block - x
                    if inter and diff:
                        new_partition.extend([inter, diff])
                        if block in worklist:
                            worklist.remove(block)
                            worklist.extend([inter, diff])
                        else:
                            worklist.append(min(inter, diff, key=len))
                    else:
                        new_partition.append(block)
                partition = new_partition
        block_of = {}
        for i, block in enumerate(partition):
            for s in block:
                block_of[s] = i
        transitions = sorted({(block_of[s], a, block_of[t])
                              for (s, a), t in delta.items()}, key=_trans_key)
        finals = sorted({block_of[f] for f in dfa.finals})
        return NFA(len(partition), transitions,
                   block_of[dfa.initial], finals).trim()

    # -- queries ------------------------------------------------------------------------

    def is_empty(self):
        trimmed = self.trim()
        return trimmed.num_states == 0 or not trimmed.finals

    def accepts(self, word):
        """Membership test for a sequence of symbols."""
        current = self._eps_closure([self.initial])
        for sym in word:
            nxt = set()
            for s in current:
                for a, t in self._adj[s]:
                    if a == sym:
                        nxt.add(t)
            if not nxt:
                return False
            current = self._eps_closure(nxt)
        return bool(current & self.finals)

    def enumerate_words(self, max_length, max_words=None):
        """All accepted words of length <= max_length.

        With *max_words* the breadth-first frontier is bounded: as soon
        as more than that many distinct words (or four times as many
        search paths) are in play the enumeration aborts and returns
        ``None`` — a two-state NFA over a wide symbol class accepts
        exponentially many words, and callers that only want "the
        language, if it is small" (the SMT-LIB printer) must not pay
        exponential time to discover that it is not.
        """
        base = self.without_epsilon()
        results = []
        frontier = [(base.initial, ())]
        for _ in range(max_length + 1):
            next_frontier = []
            for state, word in frontier:
                if state in base.finals:
                    results.append(word)
                for sym, t in base._adj[state]:
                    next_frontier.append((t, word + (sym,)))
            if max_words is not None and (len(results) > max_words
                                          or len(next_frontier)
                                          > 4 * max_words):
                return None
            frontier = next_frontier
        # States can repeat, so deduplicate words.
        return sorted(set(results), key=lambda w: (len(w), w))

    def shortest_word(self):
        """A shortest accepted word, or None if the language is empty."""
        base = self.without_epsilon()
        if base.num_states == 0:
            return None
        visited = {base.initial: ()}
        queue = deque([base.initial])
        if base.initial in base.finals:
            return ()
        while queue:
            s = queue.popleft()
            for sym, t in base._adj[s]:
                if t not in visited:
                    visited[t] = visited[s] + (sym,)
                    if t in base.finals:
                        return visited[t]
                    queue.append(t)
        return None

    def single_final(self):
        """Equivalent NFA with exactly one final state (may add epsilons)."""
        if len(self.finals) == 1:
            return self
        sink = self.num_states
        transitions = list(self.transitions)
        transitions += [(f, EPS, sink) for f in self.finals]
        return NFA(self.num_states + 1, transitions, self.initial, [sink])

    def __repr__(self):
        return "NFA(states=%d, transitions=%d, finals=%d)" % (
            self.num_states, len(self.transitions), len(self.finals))


def _sym_key(sym):
    return (0, sym, "") if isinstance(sym, int) else (1, 0, str(sym))


def _trans_key(transition):
    src, sym, dst = transition
    return (src, _sym_key(sym), dst)
