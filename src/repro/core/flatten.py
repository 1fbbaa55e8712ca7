"""Flattening string constraints to linear arithmetic (Sections 6-8).

Given a *flat domain restriction* ``R`` (a PFA per string variable), every
atomic constraint becomes a linear formula over the character variables
``v`` and occurrence counts ``#v`` of the PFAs, such that models of the
conjunction decode (Theorem 6.2) to exactly the solutions of the original
constraint whose strings lie inside their PFA languages.

Per constraint kind:

* word equations — concatenate the PFAs of each side (Section 7.2) and emit
  the synchronization formula of the two sides;
* regular constraints — synchronize ``R(x)`` against the parametric-automaton
  rendering of the concrete automaton (Section 7.1);
* integer constraints — add length definitions ``|x| = sum lv`` where each
  ``lv`` is 0 for epsilon-valued characters and ``#v`` otherwise
  (Section 7.3);
* ``n = toNum(x)`` — the numeric-PFA value formula of Section 8, extended
  with the empty-string and all-zeros edge cases the paper's formulas elide;
* character disequalities (internal) — a single linear disequality between
  the two one-transition PFAs' character variables.
"""

from repro import faults as _faults
from repro.alphabet import EPSILON
from repro.automata.nfa import EPS
from repro.core.pfa import PA, count_var, literal_pfa
from repro.core.sync import synchronization_formula
from repro.errors import SolverError, UnsupportedConstraint
from repro.logic.formula import (
    FALSE, TRUE, conj, disj, eq, ge, implies, le, ne,
)
from repro.logic.sets import member_of, not_member_of
from repro.logic.terms import const, var as int_var
from repro.obs import current_metrics
from repro.strings.ast import (
    CharCode, CharNeq, Disjunction, IntConstraint, RegularConstraint, StrVar,
    ToNum, WordEquation, length_var,
)
from repro.strings.numsem import EXP_MARKERS, NumSemantics

BASE_SEMANTICS = NumSemantics("base")
"""The paper's toNum expressed as a NumSemantics: bare decimal digit
strings, no sign/whitespace/exponent, exact integers, -1 on error.  Used
to route base conversions through the transducer flattening when the
variable's PFA is a conversion PFA (shared with real-parser variants)."""


def length_aux_var(char):
    """Name of the per-character length contribution variable ``lv``."""
    return "l." + char


_CODE_ORD_SEGMENTS = {}


def _code_ord_segments(alphabet):
    """Contiguous alphabet-code ranges with a constant code->ord offset.

    Returns ``[(lo, hi, offset), ...]`` covering every code, such that the
    Unicode code point of the character with code ``u`` in ``lo..hi`` is
    ``u + offset``.  The default alphabet decomposes into three segments
    (digits, then two printable-ASCII runs), keeping the CharCode
    flattening linear.
    """
    key = alphabet.signature()
    segments = _CODE_ORD_SEGMENTS.get(key)
    if segments is None:
        segments = []
        start = prev_offset = None
        for code in alphabet.codes():
            offset = ord(alphabet.char(code)) - code
            if prev_offset is None or offset != prev_offset:
                if start is not None:
                    segments.append((start, code - 1, prev_offset))
                start, prev_offset = code, offset
        segments.append((start, alphabet.max_code, prev_offset))
        _CODE_ORD_SEGMENTS[key] = segments
    return segments





class Flattener:
    """Builds ``flatten_R(problem)`` for a fixed domain restriction."""

    def __init__(self, problem, restriction, alphabet, names,
                 counter_bound=None, fragment_cache=None, deadline=None):
        self.problem = problem
        self.restriction = restriction      # var name -> PFA
        self.alphabet = alphabet
        self.names = names
        self.counter_bound = counter_bound
        # Resource budget threaded into the automata products (the
        # asynchronous product can blow up quadratically).
        self.deadline = deadline
        # Cross-round memo: fragment key -> (deps, (formula, checks)),
        # where *deps* are the PFA objects the fragment was flattened from.
        # PFAs are compared by identity — the strategy hands the same
        # object back when a variable's (m, p, q) step did not change — so
        # a hit means the formula (and its variable names) is reusable
        # verbatim.
        self.fragment_cache = fragment_cache

    def pfa_of(self, string_var):
        try:
            return self.restriction[string_var.name]
        except KeyError:
            raise SolverError("no domain restriction for %r" % string_var)

    # -- global structure -------------------------------------------------------

    def fragments(self):
        """The flattening as keyed fragments for incremental solving.

        Returns an ordered list of ``(key, formula, checks)`` triples — one
        fragment per restricted variable (its PFA structure) and one per
        constraint; ``flatten_R(problem)`` is the conjunction of the
        formulas, restricted to the models that pass every fragment's
        connectivity checks (:func:`flatten_constraint`).  With a
        ``fragment_cache``, a fragment whose source PFAs are the identical
        objects as last round is returned verbatim, checks included and
        fresh-name counters untouched, so the incremental SMT session
        recognizes it by identity.
        """
        metrics = current_metrics()
        if metrics.enabled:
            metrics.add("flatten.calls")
            metrics.observe(
                "flatten.pfa_vars",
                sum(len(p.char_vars) for p in self.restriction.values()))
        cache = self.fragment_cache
        reused = 0
        frags = []
        for name, pfa in self.restriction.items():
            key = ("var", name)
            if _faults.ARMED:
                _faults.point("flatten.fragment")
            if cache is not None:
                hit = cache.get(key)
                if hit is not None and hit[0] is pfa:
                    frags.append((key,) + hit[1])
                    reused += 1
                    continue
            flat = (self._var_fragment(name, pfa), ())
            if cache is not None:
                cache[key] = (pfa, flat)
            frags.append((key,) + flat)
        count = 0
        for i, constraint in enumerate(self.problem):
            count += 1
            key = ("constraint", i)
            if _faults.ARMED:
                _faults.point("flatten.fragment")
            deps = self._constraint_deps(constraint)
            if cache is not None:
                hit = cache.get(key)
                if hit is not None and len(hit[0]) == len(deps) \
                        and all(a is b for a, b in zip(hit[0], deps)):
                    frags.append((key,) + hit[1])
                    reused += 1
                    continue
            flat = self.flatten_constraint(constraint)
            if cache is not None:
                cache[key] = (deps, flat)
            frags.append((key,) + flat)
        if metrics.enabled:
            metrics.add("flatten.constraints", count)
            if cache is not None:
                metrics.add("flatten.fragments_reused", reused)
        return frags

    def _constraint_deps(self, constraint):
        """The PFA objects a constraint's flattening depends on."""
        names = []
        self._dep_names(constraint, names)
        return tuple(self.restriction[n] for n in names
                     if n in self.restriction)

    def _dep_names(self, constraint, names):
        if isinstance(constraint, WordEquation):
            for term in (constraint.lhs, constraint.rhs):
                for element in term:
                    if isinstance(element, StrVar):
                        names.append(element.name)
        elif isinstance(constraint, (RegularConstraint, ToNum, CharCode)):
            names.append(constraint.var.name)
        elif isinstance(constraint, CharNeq):
            names.append(constraint.left.name)
            names.append(constraint.right.name)
        elif isinstance(constraint, Disjunction):
            for branch in constraint.branches:
                for c in branch:
                    self._dep_names(c, names)

    def _var_fragment(self, name, pfa):
        """Per-PFA structure shared by all constraints: interpretation
        constraints, flat Parikh image, character domains, and the length
        definition of the variable."""
        parts = []
        max_code = self.alphabet.max_code
        if pfa.psi is not TRUE:
            parts.append(pfa.psi)
        parts.append(pfa.parikh_formula(self.counter_bound))
        for v in pfa.char_vars:
            bound = pfa.binding_of(v)
            if bound is not None:
                parts.append(eq(int_var(v), bound))
            else:
                parts.append(ge(int_var(v), EPSILON))
                parts.append(le(int_var(v), max_code))
        parts.append(self._length_definition(name, pfa))
        return conj(*parts)

    def _length_definition(self, name, pfa):
        """Psi_lx of Section 7.3: |x| = sum of per-character contributions.

        Straight (shifted) PFAs get the cheaper positional form instead:
        |x| = j exactly when the non-epsilon prefix ends at position j.
        """
        length = int_var(length_var(name))
        if pfa.is_straight:
            chain = [int_var(v) for v in pfa.stem]
            m = len(chain)
            cases = []
            for j in range(m + 1):
                case = [eq(length, j)]
                if j > 0:
                    case.append(ge(chain[j - 1], 0))
                if j < m:
                    case.append(eq(chain[j], EPSILON))
                cases.append(conj(*case))
            return disj(*cases)
        parts = []
        total = const(0)
        for v in pfa.char_vars:
            lv = int_var(length_aux_var(v))
            total = total + lv
            bound = pfa.binding_of(v)
            if bound == EPSILON:
                parts.append(eq(lv, 0))
            elif bound is not None:
                parts.append(eq(lv, int_var(count_var(v))))
            else:
                parts.append(disj(
                    conj(eq(int_var(v), EPSILON), eq(lv, 0)),
                    conj(ge(int_var(v), 0), eq(lv, int_var(count_var(v))))))
        parts.append(eq(length, total))
        return conj(*parts)

    # -- dispatch ------------------------------------------------------------------

    def flatten_constraint(self, constraint):
        """``(formula, checks)`` for one constraint: its linear formula and
        the connectivity obligations of the cyclic automata products it
        synchronized.  A disjunction carries the checks of every branch;
        the flow variables of a branch occur nowhere else, so an untaken
        branch passes its checks with those flows at zero."""
        if isinstance(constraint, WordEquation):
            return self._flatten_equation(constraint)
        if isinstance(constraint, RegularConstraint):
            return self._flatten_regular(constraint)
        if isinstance(constraint, Disjunction):
            branches = []
            checks = ()
            for branch in constraint.branches:
                flat = [self.flatten_constraint(c) for c in branch]
                branches.append(conj(*[formula for formula, _ in flat]))
                for _, more in flat:
                    checks += more
            return disj(*branches), checks
        if isinstance(constraint, IntConstraint):
            return constraint.formula, ()
        if isinstance(constraint, ToNum):
            return self._flatten_tonum(constraint), ()
        if isinstance(constraint, CharCode):
            return self._flatten_charcode(constraint), ()
        if isinstance(constraint, CharNeq):
            return self._flatten_charneq(constraint), ()
        raise UnsupportedConstraint("cannot flatten %r" % (constraint,))

    # -- word equations (Section 7.2) --------------------------------------------------

    def _side_pfa(self, term):
        """Concatenation of the PFAs of one side of an equation."""
        if not term:
            return literal_pfa(self.names.char_namer("lit"), [])
        pfas = []
        for element in term:
            if isinstance(element, StrVar):
                pfas.append(self.pfa_of(element))
            else:
                codes = self.alphabet.encode_word(element)
                pfas.append(literal_pfa(self.names.char_namer("lit"), codes))
        combined = pfas[0]
        for nxt in pfas[1:]:
            combined = combined.concat(nxt, self.names.fresh("eps."))
        return combined

    def _flatten_equation(self, constraint):
        if self._positional_applicable(constraint.lhs) \
                and self._positional_applicable(constraint.rhs):
            return self._flatten_equation_positional(constraint), ()
        left = self._side_pfa(constraint.lhs)
        right = self._side_pfa(constraint.rhs)
        prefix = self.names.fresh("eq.")
        formula, checks = synchronization_formula(left, right, prefix,
                                                  self.counter_bound,
                                                  deadline=self.deadline)
        # Concatenation introduced fresh epsilon and literal variables whose
        # interpretation constraints are local to this equation.
        extras = [left.psi, right.psi]
        extras.extend(self._local_structure(left, constraint.lhs))
        extras.extend(self._local_structure(right, constraint.rhs))
        return conj(formula, *extras), checks

    def _local_structure(self, side_pfa, term):
        """Parikh structure for side-local variables (literal and epsilon
        glue characters) that no global PFA covers."""
        covered = set()
        for element in term:
            if isinstance(element, StrVar):
                covered.update(self.pfa_of(element).char_vars)
        parts = []
        for v in side_pfa.stem:
            if v not in covered:
                parts.append(eq(int_var(count_var(v)), 1))
        for loop in side_pfa.loops:
            for v in loop:
                if v not in covered:
                    head = int_var(count_var(loop[0]))
                    parts.append(ge(head, 0))
                    if v != loop[0]:
                        parts.append(eq(int_var(count_var(v)), head))
        return parts

    # -- positional equations over straight PFAs ------------------------------------------

    def _positional_applicable(self, term):
        """True when every variable piece of *term* has a straight PFA."""
        for element in term:
            if isinstance(element, StrVar) \
                    and not self.pfa_of(element).is_straight:
                return False
        return True

    def _pieces(self, term):
        """(content, length_expr, max_length) per piece of a word term.

        *content(p)* is the linear expression of the piece's character at
        1-based local position ``p`` — exactly the p-th stem variable,
        thanks to the shift discipline of straight PFAs.
        """
        pieces = []
        for element in term:
            if isinstance(element, StrVar):
                stem = self.pfa_of(element).stem
                pieces.append((
                    [int_var(v) for v in stem],
                    int_var(length_var(element.name)),
                    len(stem)))
            else:
                codes = self.alphabet.encode_word(element)
                pieces.append((
                    [const(code) for code in codes],
                    const(len(codes)),
                    len(codes)))
        return pieces

    def _flatten_equation_positional(self, constraint):
        """Word equality by positional alignment (no automata product).

        With every piece in shifted straight form, the concatenated word's
        character at global position g comes from the unique piece whose
        window covers g; the two sides agree iff their lengths agree and
        every pair of overlapping windows agrees pointwise.  The window
        conditions are linear, so when the strategy pinned exact lengths
        the presolver folds each implication to a direct character
        equality.
        """
        left = self._pieces(constraint.lhs)
        right = self._pieces(constraint.rhs)
        parts = []

        def total_length(pieces):
            total = const(0)
            for _, length, _ in pieces:
                total = total + length
            return total

        parts.append(eq(total_length(left), total_length(right)))

        left_offset = const(0)
        for content_l, length_l, max_l in left:
            right_offset = const(0)
            for content_r, length_r, max_r in right:
                for p in range(1, max_l + 1):
                    for q in range(1, max_r + 1):
                        aligned = conj(
                            eq(left_offset + p, right_offset + q),
                            le(const(p), length_l),
                            le(const(q), length_r))
                        if aligned is FALSE:
                            continue
                        parts.append(implies(
                            aligned,
                            eq(content_l[p - 1], content_r[q - 1])))
                right_offset = right_offset + length_r
            left_offset = left_offset + length_l
        return conj(*parts)

    # -- regular constraints (Section 7.1) ----------------------------------------------

    def _flatten_regular(self, constraint):
        target = self.pfa_of(constraint.var)
        if target.is_straight:
            dfa = constraint.dfa()
            if dfa is not None:
                return self._membership_unrolled(target, dfa), ()
        throwaway = self._pa_of_nfa(constraint.compact_nfa())
        prefix = self.names.fresh("re.")
        return synchronization_formula(target, throwaway, prefix,
                                       self.counter_bound,
                                       deadline=self.deadline)

    def _membership_unrolled(self, pfa, dfa):
        """Membership of a straight (shifted) PFA by DFA unrolling.

        One state variable per word position; each step is a disjunction
        over the current state's outgoing character classes (with an
        explicit dead state -1 for rejected prefixes).  No flow variables,
        no alignment ambiguity: boolean propagation walks the chain.
        """
        if dfa.num_states == 0 or not dfa.finals:
            return FALSE
        groups = {}
        for src, sym, dst in dfa.transitions:
            groups.setdefault(src, {}).setdefault(dst, []).append(sym)

        dead = -1
        max_state = dfa.num_states - 1
        prefix = self.names.fresh("dfa.")

        def state_var(j):
            return int_var("%s.st%d" % (prefix, j))

        parts = [eq(state_var(0), dfa.initial)]
        for j in range(len(pfa.stem)):
            u = int_var(pfa.stem[j])
            prev, here = state_var(j), state_var(j + 1)
            parts.append(ge(here, dead))
            parts.append(le(here, max_state))
            options = [conj(eq(u, EPSILON), eq(here, prev)),
                       conj(eq(prev, dead), ge(u, 0), eq(here, dead))]
            for q in range(dfa.num_states):
                out = groups.get(q, {})
                covered = []
                for dst, codes in sorted(out.items()):
                    covered.extend(codes)
                    options.append(conj(
                        eq(prev, q),
                        member_of(u, sorted(codes)),
                        eq(here, dst)))
                # No outgoing class matches: the run dies.
                options.append(conj(
                    eq(prev, q), ge(u, 0),
                    not_member_of(u, sorted(covered),
                                  self.alphabet.max_code),
                    eq(here, dead)))
            parts.append(disj(*options))
        final_state = state_var(len(pfa.stem))
        parts.append(disj(*[eq(final_state, f) for f in dfa.finals]))
        return conj(*parts)

    def _pa_of_nfa(self, nfa):
        """Render a concrete automaton as a throwaway PA.

        Parallel transitions between the same state pair collapse into one
        *class variable* constrained to the set of their symbols (as a
        disjunction of contiguous ranges), so a ``[0-9]`` edge costs one
        product transition instead of ten.  Single-symbol classes become
        bindings, which the product construction prunes statically.
        """
        single = nfa.single_final()
        namer = self.names.char_namer("re")
        groups = {}
        for src, sym, dst in single.transitions:
            groups.setdefault((src, dst), set()).add(sym)

        transitions = []
        char_vars = []
        bindings = {}
        never_epsilon = set()
        classes = {}
        for (src, dst), symbols in sorted(groups.items()):
            v = namer()
            char_vars.append(v)
            transitions.append((src, v, dst))
            if EPS in symbols:
                symbols = {s for s in symbols if s is not EPS}
                symbols.add(EPSILON)
            else:
                never_epsilon.add(v)
            if len(symbols) == 1:
                bindings[v] = next(iter(symbols))
            else:
                classes[v] = symbols

        from repro.automata.nfa import NFA
        renamed = NFA(single.num_states, transitions, single.initial,
                      single.finals)
        return PA(renamed, char_vars, TRUE, bindings,
                  track_counts=False, never_epsilon=never_epsilon,
                  classes=classes)

    # -- string-number conversion (Section 8) ----------------------------------------------

    def _flatten_tonum(self, constraint):
        pfa = self.pfa_of(constraint.var)
        if constraint.semantics is None \
                and getattr(pfa, "parse", None) is None:
            return self._flatten_tonum_base(constraint, pfa)
        return self._flatten_tonum_sem(
            constraint, pfa, constraint.semantics or BASE_SEMANTICS)

    def _flatten_tonum_base(self, constraint, pfa):
        chain, zero_count = self._numeric_shape(pfa)
        n = int_var(constraint.result)
        m = len(chain)

        if m == 0:
            # Only "0"* (or only the empty string) is representable.
            return disj(conj(eq(zero_count, 0), eq(n, -1)),
                        conj(ge(zero_count, 1), eq(n, 0)))

        chain_vars = [int_var(v) for v in chain]
        nan = disj(*[ge(v, 10) for v in chain_vars])
        not_nan = conj(*[le(v, 9) for v in chain_vars])
        all_eps = conj(*[eq(v, EPSILON) for v in chain_vars])

        # Psi_toInt: the last non-epsilon chain variable is v_k and the
        # digits v_1..v_k spell n most-significant first.  `value` and
        # `digit_conds` grow incrementally with k — rebuilding them from
        # scratch per case would make construction cubic in m.
        to_int_cases = []
        value = const(0)
        digit_conds = []
        for k in range(1, m + 1):
            value = value * 10 + chain_vars[k - 1]
            digit_conds.append(ge(chain_vars[k - 1], 0))
            last = TRUE if k == m else eq(chain_vars[k], EPSILON)
            to_int_cases.append(conj(last, eq(n, value), *digit_conds))

        return disj(
            conj(nan, eq(n, -1)),
            conj(not_nan, all_eps, eq(zero_count, 0), eq(n, -1)),
            conj(not_nan, all_eps, ge(zero_count, 1), eq(n, 0)),
            conj(not_nan, disj(*to_int_cases)))

    def _numeric_shape(self, pfa):
        """Chain variables and leading-zero count expression of a PFA used
        under toNum: a numeric PFA or a plain straight line."""
        if pfa.numeric is not None:
            zero_var, chain = pfa.numeric
            return chain, int_var(count_var(zero_var))
        if any(pfa.loops[i] for i in range(len(pfa.loops))):
            raise UnsupportedConstraint(
                "toNum variable %r needs a numeric or straight-line PFA"
                % (pfa,))
        return pfa.stem, const(0)

    # -- real-parser conversion semantics (NumSemantics transducer) -----------------------
    #
    # The flatten rule for ``n = toNum[sem](x)`` is a deterministic parser
    # transducer — states below, plus an accumulator (and an exponent
    # accumulator when enabled) — unrolled over the PFA chain exactly like
    # the BMC-style membership unrolling above.  Leading whitespace, sign
    # and leading zeros supplied by a conversion PFA's prefix variables are
    # folded into the initial state via their Parikh counts; on a straight
    # PFA the same transducer reads them in-chain, so a sound length hint
    # keeps the restriction complete.  Every (state, character) pair is
    # covered by exactly one disjunct (the char classes per state are
    # disjoint and a not-member catch-all leads to the dead state), which
    # is what makes the encoding a function of the word — the soundness
    # requirement for the error branch.

    _T_START = 0
    _T_SPOS = 1
    _T_SNEG = 2
    _T_DPOS = 3
    _T_DNEG = 4
    _T_EMARK = 5
    _T_EPOS = 6
    _T_DEAD = 7

    def _flatten_tonum_sem(self, constraint, pfa, sem):
        alphabet = self.alphabet
        n = int_var(constraint.result)

        parse = getattr(pfa, "parse", None)
        if parse is not None:
            ws_var = parse["ws"]
            sign_var = parse["sign"]
            zero_var = parse["zero"]
            chain = parse["chain"]
        elif pfa.numeric is not None:
            zero_var, chain = pfa.numeric
            ws_var = sign_var = None
        elif pfa.is_straight:
            ws_var = sign_var = zero_var = None
            chain = pfa.stem
        else:
            raise UnsupportedConstraint(
                "toNum variable %r needs a conversion, numeric or "
                "straight-line PFA" % (constraint.var,))
        if sign_var is not None and pfa.binding_of(sign_var) == EPSILON:
            sign_var = None

        use_exp = sem.exponent
        radix = sem.radix
        segments = sem.digit_segments(alphabet)
        space = alphabet.code(" ")
        plus = alphabet.code("+")
        minus = alphabet.code("-")
        markers = sorted(alphabet.code(c) for c in EXP_MARKERS)
        decimal = list(range(10))

        prefix = self.names.fresh("cv.")

        def st(j):
            return int_var("%s.st%d" % (prefix, j))

        def acc(j):
            return int_var("%s.acc%d" % (prefix, j))

        def ex(j):
            return int_var("%s.ex%d" % (prefix, j))

        def init(state):
            base = [eq(st(0), state), eq(acc(0), 0)]
            if use_exp:
                base.append(eq(ex(0), 0))
            return base

        parts = []

        # Initial state from the conversion-PFA prefix (whitespace count A,
        # sign character S, leading-zero count Z).  The cases partition the
        # prefix space, so the initial state is a function of the prefix.
        ws_count = int_var(count_var(ws_var)) if ws_var is not None else None
        sign_val = int_var(sign_var) if sign_var is not None else None
        zero_count = (int_var(count_var(zero_var))
                      if zero_var is not None else None)

        a_zero = TRUE
        options = []
        if ws_count is not None and not sem.whitespace:
            # A leading space is garbage under this semantics.
            options.append(conj(ge(ws_count, 1), *init(self._T_DEAD)))
            a_zero = eq(ws_count, 0)
        z_zero = eq(zero_count, 0) if zero_count is not None else TRUE
        z_pos = ge(zero_count, 1) if zero_count is not None else None
        if sign_val is None:
            options.append(conj(a_zero, z_zero, *init(self._T_START)))
            if z_pos is not None:
                options.append(conj(a_zero, z_pos, *init(self._T_DPOS)))
        else:
            s_eps = eq(sign_val, EPSILON)
            options.append(conj(a_zero, s_eps, z_zero, *init(self._T_START)))
            if z_pos is not None:
                options.append(conj(a_zero, s_eps, z_pos,
                                    *init(self._T_DPOS)))
            if sem.sign:
                for code, state, digits in (
                        (plus, self._T_SPOS, self._T_DPOS),
                        (minus, self._T_SNEG, self._T_DNEG)):
                    options.append(conj(a_zero, eq(sign_val, code), z_zero,
                                        *init(state)))
                    if z_pos is not None:
                        options.append(conj(a_zero, eq(sign_val, code),
                                            z_pos, *init(digits)))
            else:
                options.append(conj(a_zero, ne(sign_val, EPSILON),
                                    *init(self._T_DEAD)))
        parts.append(disj(*options))

        active = {self._T_START, self._T_DPOS, self._T_DEAD}
        if sem.sign or sign_val is not None:
            active |= {self._T_SPOS, self._T_SNEG, self._T_DNEG}
        if use_exp:
            active |= {self._T_EMARK, self._T_EPOS}

        for j, char in enumerate(chain):
            u = int_var(char)
            prev, here = st(j), st(j + 1)
            parts.append(ge(here, 0))
            parts.append(le(here, self._T_DEAD))

            options = []
            eps_opt = [eq(u, EPSILON), eq(here, prev), eq(acc(j + 1), acc(j))]
            if use_exp:
                eps_opt.append(eq(ex(j + 1), ex(j)))
            options.append(conj(*eps_opt))

            covered = {state: [] for state in active}

            def add(state, codes, target, acc_value=None, ex_value=None):
                if state not in active:
                    return
                covered[state].extend(codes)
                step = [eq(prev, state), member_of(u, sorted(codes)),
                        eq(here, target),
                        eq(acc(j + 1),
                           acc(j) if acc_value is None else acc_value)]
                if use_exp:
                    step.append(eq(ex(j + 1),
                                   ex(j) if ex_value is None else ex_value))
                options.append(conj(*step))

            if sem.whitespace:
                add(self._T_START, [space], self._T_START)
            if sem.sign:
                add(self._T_START, [plus], self._T_SPOS)
                add(self._T_START, [minus], self._T_SNEG)
            for lo, hi, offset in segments:
                codes = range(lo, hi + 1)
                digit = u + offset
                add(self._T_START, codes, self._T_DPOS, acc_value=digit)
                add(self._T_SPOS, codes, self._T_DPOS, acc_value=digit)
                add(self._T_SNEG, codes, self._T_DNEG,
                    acc_value=const(0) - digit)
                add(self._T_DPOS, codes, self._T_DPOS,
                    acc_value=acc(j) * radix + digit)
                add(self._T_DNEG, codes, self._T_DNEG,
                    acc_value=acc(j) * radix - digit)
            if use_exp:
                add(self._T_DPOS, markers, self._T_EMARK)
                add(self._T_DNEG, markers, self._T_EMARK)
                add(self._T_EMARK, decimal, self._T_EPOS, ex_value=u)
                add(self._T_EPOS, decimal, self._T_EPOS,
                    ex_value=ex(j) * 10 + u)

            for state in sorted(active):
                if state == self._T_DEAD:
                    continue
                dead = [eq(prev, state), ge(u, 0),
                        not_member_of(u, sorted(covered[state]),
                                      alphabet.max_code),
                        eq(here, self._T_DEAD), eq(acc(j + 1), acc(j))]
                if use_exp:
                    dead.append(eq(ex(j + 1), ex(j)))
                options.append(conj(*dead))
            absorb = [eq(prev, self._T_DEAD), ge(u, 0),
                      eq(here, self._T_DEAD), eq(acc(j + 1), acc(j))]
            if use_exp:
                absorb.append(eq(ex(j + 1), ex(j)))
            options.append(conj(*absorb))

            parts.append(disj(*options))

        # Final value.
        final = st(len(chain))
        acc_final = acc(len(chain))
        error_states = sorted(
            active - {self._T_DPOS, self._T_DNEG, self._T_EPOS})
        accept_states = sorted(
            active & {self._T_DPOS, self._T_DNEG, self._T_EPOS})
        accept = disj(*[eq(final, state) for state in accept_states])
        finals = [conj(disj(*[eq(final, state) for state in error_states]),
                       eq(n, sem.error_value))]
        if not use_exp:
            finals.append(conj(accept,
                               self._overflow_clause(n, acc_final, sem)))
        else:
            ex_final = ex(len(chain))
            for k in range(sem.exp_max + 1):
                finals.append(conj(
                    accept, eq(ex_final, k),
                    self._overflow_clause(n, acc_final * (10 ** k), sem)))
            big = ge(ex_final, sem.exp_max + 1)
            finals.append(conj(accept, big, eq(acc_final, 0), eq(n, 0)))
            if sem.overflow == "saturate":
                finals.append(conj(accept, big, ge(acc_final, 1),
                                   eq(n, sem.max_value)))
                finals.append(conj(accept, big, le(acc_final, -1),
                                   eq(n, sem.min_value)))
            else:
                finals.append(conj(accept, big, ne(acc_final, 0),
                                   eq(n, sem.error_value)))
        parts.append(disj(*finals))
        return conj(*parts)

    def _overflow_clause(self, n, value, sem):
        """``n`` is *value* adjusted by the semantics' overflow mode."""
        if sem.overflow == "bignum":
            return eq(n, value)
        top, bottom = sem.max_value, sem.min_value
        if sem.overflow == "saturate":
            over, under = eq(n, top), eq(n, bottom)
        else:
            over = under = eq(n, sem.error_value)
        return disj(
            conj(ge(value, bottom), le(value, top), eq(n, value)),
            conj(ge(value, top + 1), over),
            conj(le(value, bottom - 1), under))

    # -- character code (str.to_code / str.from_code) -------------------------------------

    def _flatten_charcode(self, constraint):
        """``result`` is the Unicode code point of the single character in
        the variable's one-transition PFA.  The alphabet's code->ord map
        decomposes into a few contiguous linear segments, so the mapping
        stays linear."""
        char = self._single_char(constraint.var)
        u = int_var(char)
        result = int_var(constraint.result)
        options = []
        for lo, hi, offset in _code_ord_segments(self.alphabet):
            options.append(conj(ge(u, lo), le(u, hi),
                                eq(result, u + offset)))
        return conj(ge(u, 0), disj(*options))

    # -- character disequality ------------------------------------------------------------

    def _flatten_charneq(self, constraint):
        left = self._single_char(constraint.left)
        right = self._single_char(constraint.right)
        return ne(int_var(left), int_var(right))

    def _single_char(self, variable):
        pfa = self.pfa_of(variable)
        if len(pfa.stem) != 1 or any(pfa.loops[i] for i in range(2)):
            raise UnsupportedConstraint(
                "CharNeq variable %r needs a one-transition PFA" % variable)
        return pfa.stem[0]
