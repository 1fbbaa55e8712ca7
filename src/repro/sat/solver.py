"""A conflict-driven clause-learning SAT solver.

Standard architecture: two-watched-literal propagation, first-UIP conflict
analysis with clause minimization, VSIDS-style variable activities, phase
saving, and Luby-sequence restarts.  The solver is incremental in the weak
sense required by lazy SMT: clauses may be added between ``solve()`` calls.

Literals are non-zero integers (DIMACS convention): literal ``v`` asserts
variable ``v`` true, ``-v`` asserts it false.

The hot-path data lives in flat index arrays rather than an object graph:

* **clause arena** — every clause is a length-prefixed slice of one flat
  int list; a clause reference is the index of its first literal, so the
  propagation loop reads literals with two list indexings and never
  touches a clause object or an attribute;
* **watch lists** — one list of clause-reference lists indexed by
  ``2*var + sign``;
* **assignment / level / reason / activity / phase** — flat lists
  indexed by variable (``assign[v]`` is ``0`` unassigned, ``1`` true,
  ``-1`` false), so the inner loop never probes a dict.

The arrays are plain Python lists rather than ``array('i')``: CPython
boxes an ``array`` element into a fresh int object on *every* read,
which measures slower than list indexing on this workload — the win of
the layout is the flat indexed addressing, not the storage width.

Learnt-clause reduction marks dropped clauses dead in the watch lists
and, once dead slices exceed half the arena, compacts it — rewriting
clause references in the watch lists *and* in the reason array, so
conflict analysis never follows a stale reference.
"""

from heapq import heapify, heappop, heappush

from repro import faults as _faults
from repro.config import Deadline
from repro.obs import current_metrics

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def _luby(i):
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """CDCL over integer literals, clause arena + flat index arrays."""

    def __init__(self):
        self._num_vars = 0
        # Clause arena: [0, len, l1..lk, len, l1..lk, ...].  A clause
        # reference points at its first literal; arena[ref-1] is its
        # length.  The leading 0 keeps every valid reference >= 2, so 0
        # can mean "no reason" in the reason array.
        self._arena = [0]
        self._clause_refs = []
        self._learnt_refs = []
        self._garbage = 0           # dead arena slots awaiting compaction
        self._watches = [[], []]    # index 2*v (lit v) / 2*v+1 (lit -v)
        self._assign = [0]          # var -> 0 unassigned / 1 true / -1 false
        self._levels = [0]          # var -> decision level (valid if assigned)
        self._reasons = [0]         # var -> implying clause ref (0 = none)
        self._trail = []
        self._trail_lim = []
        self._queue_head = 0
        self._activity = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase = [False]
        self._heap = []
        self._ok = True

    # -- construction -------------------------------------------------------

    def ensure_var(self, var):
        while self._num_vars < var:
            self._num_vars += 1
            v = self._num_vars
            self._assign.append(0)
            self._levels.append(0)
            self._reasons.append(0)
            self._activity.append(0.0)
            self._phase.append(False)
            self._watches.append([])    # literal  v -> index 2v
            self._watches.append([])    # literal -v -> index 2v+1
            heappush(self._heap, (0.0, v))

    def _push_clause(self, lits):
        arena = self._arena
        arena.append(len(lits))
        ref = len(arena)
        arena.extend(lits)
        return ref

    def _watch(self, ref):
        arena = self._arena
        l0 = arena[ref]
        l1 = arena[ref + 1]
        # A clause watching literal l sits in the watch list of -l (the
        # list scanned when -l's negation, i.e. l's falsifier, fires).
        self._watches[l0 + l0 + 1 if l0 > 0 else -l0 - l0].append(ref)
        self._watches[l1 + l1 + 1 if l1 > 0 else -l1 - l1].append(ref)

    def add_clause(self, lits):
        """Add a clause; returns False if the solver became trivially unsat."""
        if not self._ok:
            return False
        self._backtrack(0)
        seen = set()
        out = []
        assign = self._assign
        levels = self._levels
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self.ensure_var(var)
            if -lit in seen:
                return True     # tautology
            if lit in seen:
                continue
            v = assign[var]
            if v:
                value = (v > 0) == (lit > 0)
                if value and levels[var] == 0:
                    return True     # already satisfied at root
                if not value and levels[var] == 0:
                    continue        # falsified at root, drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], 0):
                self._ok = False
                return False
            if self._propagate():
                self._ok = False
                return False
            return True
        ref = self._push_clause(out)
        self._clause_refs.append(ref)
        self._watch(ref)
        return True

    # -- assignment ---------------------------------------------------------

    def _value(self, lit):
        v = self._assign[lit if lit > 0 else -lit]
        if not v:
            return None
        return (v > 0) == (lit > 0)

    def _enqueue(self, lit, reason_ref):
        var = lit if lit > 0 else -lit
        v = self._assign[var]
        if v:
            return (v > 0) == (lit > 0)
        self._assign[var] = 1 if lit > 0 else -1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason_ref
        self._trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause ref or 0.

        The solver's hottest loop: every memory access is a list
        indexing into the arena or a per-variable array, and the value
        and enqueue helpers are hand-inlined.
        """
        arena = self._arena
        assign = self._assign
        watches = self._watches
        trail = self._trail
        levels = self._levels
        reasons = self._reasons
        qhead = self._queue_head
        current_level = len(self._trail_lim)
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            wi = lit + lit if lit > 0 else 1 - lit - lit
            watchers = watches[wi]
            if not watchers:
                continue
            watches[wi] = []
            i = 0
            n = len(watchers)
            while i < n:
                ref = watchers[i]
                i += 1
                # Ensure the falsified literal is in slot 1.
                first = arena[ref]
                if first == -lit:
                    first = arena[ref + 1]
                    arena[ref + 1] = -lit
                    arena[ref] = first
                v = assign[first] if first > 0 else -assign[-first]
                if v > 0:
                    watches[wi].append(ref)
                    continue
                # Search slots 2.. for a non-false literal to watch.
                end = ref + arena[ref - 1]
                k = ref + 2
                moved = False
                while k < end:
                    lk = arena[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) >= 0:
                        arena[ref + 1] = lk
                        arena[k] = -lit
                        watches[lk + lk + 1 if lk > 0
                                else -lk - lk].append(ref)
                        moved = True
                        break
                    k += 1
                if moved:
                    continue
                # Clause is unit or conflicting.
                watches[wi].append(ref)
                if v < 0:
                    # Conflict: restore remaining watchers.
                    watches[wi].extend(watchers[i:])
                    self._queue_head = len(trail)
                    return ref
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                levels[var] = current_level
                reasons[var] = ref
                trail.append(first)
        self._queue_head = qhead
        return 0

    def _backtrack(self, level):
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        reasons = self._reasons
        phase = self._phase
        activity = self._activity
        heap = self._heap
        for idx in range(len(trail) - 1, limit - 1, -1):
            lit = trail[idx]
            var = lit if lit > 0 else -lit
            phase[var] = assign[var] > 0
            assign[var] = 0
            reasons[var] = 0
            heappush(heap, (-activity[var], var))
        del trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = limit

    # -- conflict analysis --------------------------------------------------

    def _bump_var(self, var):
        activity = self._activity
        activity[var] += self._var_inc
        if not self._assign[var]:
            heappush(self._heap, (-activity[var], var))
        if activity[var] > 1e100:
            assign = self._assign
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._heap = [(-activity[v], v)
                          for _, v in self._heap if not assign[v]]
            heapify(self._heap)

    def _analyze(self, conflict_ref):
        """First-UIP learning; returns (learnt_lits, backtrack_level)."""
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        current_level = len(self._trail_lim)
        seen = set()
        learnt = [0]        # slot 0 for the asserting literal
        counter = 0
        lit = 0
        ref = conflict_ref
        index = len(trail)
        while True:
            for idx in range(ref, ref + arena[ref - 1]):
                q = arena[idx]
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if var in seen or levels[var] == 0:
                    continue
                seen.add(var)
                self._bump_var(var)
                if levels[var] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                index -= 1
                lit = trail[index]
                if (lit if lit > 0 else -lit) in seen:
                    break
            counter -= 1
            var = lit if lit > 0 else -lit
            seen.discard(var)
            if counter == 0:
                break
            ref = reasons[var]
        learnt[0] = -lit

        # Clause minimization: drop literals implied by the rest.
        marked = set(q if q > 0 else -q for q in learnt[1:])
        kept = [learnt[0]]
        for q in learnt[1:]:
            qv = q if q > 0 else -q
            ref = reasons[qv]
            if not ref:
                kept.append(q)
                continue
            redundant = True
            for idx in range(ref, ref + arena[ref - 1]):
                r = arena[idx]
                rv = r if r > 0 else -r
                if rv == qv:
                    continue
                if levels[rv] != 0 and rv not in marked and rv not in seen:
                    redundant = False
                    break
            if not redundant:
                kept.append(q)
        learnt = kept

        if len(learnt) == 1:
            return learnt, 0
        # Backtrack level: highest level among non-asserting literals.
        max_i = 1
        li = learnt[1]
        max_level = levels[li if li > 0 else -li]
        for i in range(2, len(learnt)):
            li = learnt[i]
            level = levels[li if li > 0 else -li]
            if level > max_level:
                max_i, max_level = i, level
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, max_level

    # -- decisions ----------------------------------------------------------

    def _decide(self):
        assign = self._assign
        heap = self._heap
        while heap:
            _, v = heappop(heap)
            if not assign[v]:
                return v if self._phase[v] else -v
        # The heap is lazy; fall back to a scan to be safe.
        for v in range(1, self._num_vars + 1):
            if not assign[v]:
                return v if self._phase[v] else -v
        return 0

    # -- main loop ----------------------------------------------------------

    def simplify(self):
        """Propagate at the root level; False if the instance is unsat."""
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate():
            self._ok = False
            return False
        return True

    def level0_literals(self):
        """Literals forced at decision level zero (call after simplify)."""
        if self._trail_lim:
            limit = self._trail_lim[0]
            return list(self._trail[:limit])
        return list(self._trail)

    def propagate_assumptions(self, assumptions):
        """Literals implied by unit propagation under *assumptions*.

        Places the assumptions like :meth:`solve` but performs no search,
        then undoes everything.  Returns the propagated trail (including
        level-zero facts and the assumptions themselves), or ``None`` when
        propagation alone refutes the assumptions (check :attr:`_ok` —
        still ``True`` — to tell assumption-UNSAT from global UNSAT).
        """
        if not self._ok:
            return None
        self._backtrack(0)
        if self._propagate():
            self._ok = False
            return None
        for lit in assumptions:
            self.ensure_var(lit if lit > 0 else -lit)
            value = self._value(lit)
            if value is False:
                self._backtrack(0)
                return None
            self._trail_lim.append(len(self._trail))
            if value is None:
                self._enqueue(lit, 0)
                if self._propagate():
                    self._backtrack(0)
                    return None
        implied = list(self._trail)
        self._backtrack(0)
        return implied

    def solve(self, deadline=None, conflict_limit=None, assumptions=None):
        """Run the CDCL loop; returns SAT, UNSAT or UNKNOWN (budget).

        *assumptions* is a sequence of literals treated as pseudo-decisions
        at levels ``1..k`` (MiniSat style): a SAT answer satisfies all of
        them, an UNSAT answer means the clause set is inconsistent *with
        the assumptions* — the solver itself stays usable, keeping every
        learnt clause, which is what makes incremental SMT sessions cheap.
        Only a conflict at level zero marks the solver permanently unsat.
        """
        if _faults.ARMED:
            _faults.point("sat.solve")
        if deadline is None:
            deadline = Deadline.unbounded()
        assumptions = list(assumptions or ())
        if not self._ok:
            return UNSAT
        self._backtrack(0)
        for lit in assumptions:
            self.ensure_var(lit if lit > 0 else -lit)
        if self._propagate():
            self._ok = False
            return UNSAT

        conflicts_total = 0
        decisions = 0
        restarts = 0
        luby_index = 1
        restart_limit = 32 * _luby(luby_index)
        conflicts_since_restart = 0

        # Counts stay in local integers during the search (this is the
        # hottest loop in the repo) and are reported once on the way out.
        try:
            while True:
                conflict = self._propagate()
                if conflict:
                    conflicts_total += 1
                    conflicts_since_restart += 1
                    if conflict_limit is not None \
                            and conflicts_total > conflict_limit:
                        return UNKNOWN
                    if conflicts_total % 64 == 0 and deadline.expired():
                        return UNKNOWN
                    if not self._trail_lim:
                        self._ok = False
                        return UNSAT
                    learnt, back_level = self._analyze(conflict)
                    self._backtrack(back_level)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], 0)
                    else:
                        ref = self._push_clause(learnt)
                        self._learnt_refs.append(ref)
                        self._watch(ref)
                        self._enqueue(learnt[0], ref)
                    self._var_inc /= self._var_decay
                    if conflicts_since_restart >= restart_limit:
                        conflicts_since_restart = 0
                        restarts += 1
                        luby_index += 1
                        restart_limit = 32 * _luby(luby_index)
                        self._backtrack(0)
                    if len(self._learnt_refs) > 2000 \
                            + 4 * len(self._clause_refs):
                        self._reduce_learnts()
                else:
                    if len(self._trail_lim) < len(assumptions):
                        # Place the next assumption as a pseudo-decision.
                        # Restarts backtrack to level 0, so placement
                        # simply re-runs; an already-true assumption gets
                        # an empty level, keeping "assumption i is the
                        # decision of level i+1" for conflict analysis.
                        lit = assumptions[len(self._trail_lim)]
                        value = self._value(lit)
                        if value is False:
                            self._backtrack(0)
                            return UNSAT
                        self._trail_lim.append(len(self._trail))
                        if value is None:
                            self._enqueue(lit, 0)
                        continue
                    lit = self._decide()
                    if lit == 0:
                        return SAT
                    decisions += 1
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(lit, 0)
        finally:
            metrics = current_metrics()
            if metrics.enabled:
                metrics.add("sat.conflicts", conflicts_total)
                metrics.add("sat.decisions", decisions)
                metrics.add("sat.restarts", restarts)
                metrics.gauge("sat.learnts", len(self._learnt_refs))

    def _reduce_learnts(self):
        """Throw away half of the learnt clauses (longest first)."""
        arena = self._arena
        reasons = self._reasons
        locked = set()
        for lit in self._trail:
            ref = reasons[lit if lit > 0 else -lit]
            if ref:
                locked.add(ref)
        learnts = self._learnt_refs
        learnts.sort(key=lambda ref: arena[ref - 1])
        half = len(learnts) // 2
        keep = learnts[:half]
        dropped = set()
        for ref in learnts[half:]:
            if ref in locked or arena[ref - 1] <= 2:
                keep.append(ref)
            else:
                dropped.add(ref)
                self._garbage += arena[ref - 1] + 1
        self._learnt_refs = keep
        if not dropped:
            return
        watches = self._watches
        for wi in range(2, len(watches)):
            lst = watches[wi]
            if lst:
                watches[wi] = [ref for ref in lst if ref not in dropped]
        if self._garbage * 2 > len(arena):
            self._compact()

    def _compact(self):
        """Rebuild the arena without dead clauses, remapping every
        clause reference (clause lists, watch lists, reason array)."""
        old = self._arena
        new = [0]
        remap = {}
        for refs in (self._clause_refs, self._learnt_refs):
            for i, ref in enumerate(refs):
                size = old[ref - 1]
                new.append(size)
                nref = len(new)
                new.extend(old[ref:ref + size])
                remap[ref] = nref
                refs[i] = nref
        self._arena = new
        self._garbage = 0
        reasons = self._reasons
        for lit in self._trail:
            var = lit if lit > 0 else -lit
            if reasons[var]:
                reasons[var] = remap[reasons[var]]
        # Watched slots (0 and 1 of every clause) are preserved by the
        # copy, so re-deriving the watch lists keeps the invariant.
        watches = self._watches
        for wi in range(len(watches)):
            if watches[wi]:
                watches[wi] = []
        for refs in (self._clause_refs, self._learnt_refs):
            for ref in refs:
                self._watch(ref)

    # -- results ------------------------------------------------------------

    def model(self):
        """Variable -> bool map after a SAT answer (unassigned vars False)."""
        assign = self._assign
        return {v: assign[v] > 0 for v in range(1, self._num_vars + 1)}
