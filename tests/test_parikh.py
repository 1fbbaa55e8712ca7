"""Tests for the Parikh-image linear encoding (Lemma 2.1).

Every query goes through the connectivity checks the encoding returns, so
cyclic automata exercise the lazy loop's lemma path.
"""

from hypothesis import given, settings, strategies as st

from repro.alphabet import DEFAULT_ALPHABET as A
from repro.automata.nfa import NFA
from repro.automata.parikh import (
    Connectivity, parikh_formula, parikh_image_of_word,
)
from repro.automata.regex import regex_to_nfa
from repro.logic import FALSE, conj, eq, ge, le, var
from repro.smt import solve_formula


def count_name(sym):
    return "#c%d" % sym


def solve_image(nfa, image, symbols):
    formula, checks = parikh_formula(nfa, count_name, "pk")
    pins = [eq(var(count_name(sym)), image.get(sym, 0)) for sym in symbols]
    return solve_formula(conj(formula, *pins), checks=checks)


def image_is_feasible(nfa, image, symbols):
    return solve_image(nfa, image, symbols).status == "sat"


class TestExactness:
    def test_empty_language_is_false(self):
        assert parikh_formula(NFA.empty(), count_name, "pk") == (FALSE, ())

    def test_epsilon_language(self):
        nfa = regex_to_nfa("(ab)*")
        # The zero image (the empty word) must be feasible.
        assert image_is_feasible(nfa, {}, A.encode_word("ab"))

    def test_matches_enumeration_small(self):
        nfa = regex_to_nfa("(ab|ba)*c?")
        symbols = A.encode_word("abc")
        seen = {tuple(sorted(parikh_image_of_word(w).items()))
                for w in nfa.enumerate_words(6)}
        for na in range(3):
            for nb in range(3):
                for nc in range(2):
                    image = {}
                    if na:
                        image[A.code("a")] = na
                    if nb:
                        image[A.code("b")] = nb
                    if nc:
                        image[A.code("c")] = nc
                    key = tuple(sorted(image.items()))
                    expected = key in seen
                    # Enumeration to length 6 covers counts 2+2+1.
                    assert image_is_feasible(nfa, image, symbols) == expected

    def test_multiple_finals_are_merged(self):
        nfa = regex_to_nfa("a|bb")
        symbols = A.encode_word("ab")
        assert image_is_feasible(nfa, {A.code("a"): 1}, symbols)
        assert image_is_feasible(nfa, {A.code("b"): 2}, symbols)
        assert not image_is_feasible(
            nfa, {A.code("a"): 1, A.code("b"): 2}, symbols)

    def test_floating_cycle_rejected(self):
        # Automaton: initial -a-> final, plus an unreachable-from-the-run
        # cycle c at a state off the accepting path must not contribute.
        nfa = NFA(3, [(0, 1, 1), (2, 2, 2)], 0, [1])
        symbols = [1, 2]
        assert image_is_feasible(nfa, {1: 1}, symbols)
        assert not image_is_feasible(nfa, {1: 1, 2: 3}, symbols)

    def test_connected_cycle_counts(self):
        # a (bc)* d: b and c counts locked together.
        nfa = regex_to_nfa("a(bc)*d")
        symbols = A.encode_word("abcd")
        good = {A.code("a"): 1, A.code("d"): 1,
                A.code("b"): 2, A.code("c"): 2}
        bad = {A.code("a"): 1, A.code("d"): 1,
               A.code("b"): 2, A.code("c"): 1}
        assert image_is_feasible(nfa, good, symbols)
        assert not image_is_feasible(nfa, bad, symbols)


class TestAgainstWords:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["(ab)*", "a*b", "(a|b)(a|b)", "a(b|c)*",
                            "(abc)+|b*"]),
           st.text(alphabet="abc", max_size=5))
    def test_accepted_words_have_feasible_images(self, pattern, text):
        nfa = regex_to_nfa(pattern)
        codes = A.encode_word(text)
        if nfa.accepts(codes):
            image = parikh_image_of_word(codes)
            assert image_is_feasible(nfa, image, A.encode_word("abc"))


# 0 -a-> 1, 0 -b-> 2, 2 -c-> 2, 2 -d-> 1 with final state 1: the c loop
# hangs off the b branch.  With the image pinned, presolve eliminates every
# flow variable and folds the whole query to TRUE, so only a connectivity
# lemma rewritten through presolve's substitutions can refute {a:1, c:3}.
FLOATING = NFA(3, [(0, 1, 1), (0, 2, 2), (2, 3, 2), (2, 4, 1)], 0, [1])
FLOATING_SYMBOLS = [1, 2, 3, 4]


class TestConnectivity:
    def test_acyclic_automaton_has_no_check(self):
        _, checks = parikh_formula(regex_to_nfa("ab?c"), count_name, "pk")
        assert checks == ()

    def test_cyclic_automaton_has_one_check_over_every_transition(self):
        nfa = NFA(3, [(0, 1, 1), (1, 2, 1), (0, 3, 2)], 0, [1, 2])
        _, checks = parikh_formula(nfa, count_name, "pk")
        (check,) = checks
        assert isinstance(check, Connectivity)
        assert check.initial == 0
        # Three transitions plus one end-marker edge per merged final.
        assert len(check.edges) == 5
        assert all(name.startswith("pk_y") for _, _, name in check.edges)

    def test_check_names_the_cut_around_the_reached_states(self):
        _, (check,) = parikh_formula(FLOATING, count_name, "pk")
        flow = {(src, dst): name for src, dst, name in check.edges}
        a, b, c, d = flow[0, 1], flow[0, 2], flow[2, 2], flow[2, 1]
        (lemma,) = check.check({a: 1, c: 3})
        # y_c >= 1 -> y_b >= 1: b is the only way out of {0, 1}.
        assert lemma == [le(var(c), 0), ge(var(b), 1)]
        assert check.check({b: 1, c: 3, d: 1}) == []

    def test_floating_cycle_behind_an_unused_branch(self):
        result = solve_image(FLOATING, {1: 1, 3: 3}, FLOATING_SYMBOLS)
        assert result.status == "unsat"
        assert result.stats["connectivity_lemmas"] >= 1
        assert image_is_feasible(FLOATING, {2: 1, 3: 3, 4: 1},
                                 FLOATING_SYMBOLS)

    def test_lemmas_carry_the_weight(self, monkeypatch):
        # With the check silenced, conservation alone accepts the
        # floating cycle: the fixed case above would fail.
        monkeypatch.setattr(Connectivity, "check", lambda self, model: [])
        assert image_is_feasible(FLOATING, {1: 1, 3: 3}, FLOATING_SYMBOLS)


SYMBOLS = (1, 2)
COUNT_BOUND = 4


@st.composite
def small_automata(draw):
    """At most 4 states over 2 symbols, cycles anywhere, 1-2 finals."""
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    transitions = draw(st.lists(
        st.tuples(states, st.sampled_from(SYMBOLS), states),
        max_size=8, unique=True))
    finals = draw(st.lists(states, min_size=1, max_size=2, unique=True))
    return NFA(n, transitions, 0, finals)


def word_images(nfa, bound):
    """Parikh images, as count tuples over SYMBOLS, of the accepted words
    of at most *bound* symbols (breadth-first over state and counts)."""
    start = (nfa.initial, (0,) * len(SYMBOLS))
    seen = {start}
    frontier = [start]
    images = set()
    while frontier:
        grown = []
        for state, counts in frontier:
            if state in nfa.finals:
                images.add(counts)
            if sum(counts) == bound:
                continue
            for sym, dst in nfa.out_edges(state):
                bumped = list(counts)
                bumped[SYMBOLS.index(sym)] += 1
                item = (dst, tuple(bumped))
                if item not in seen:
                    seen.add(item)
                    grown.append(item)
        frontier = grown
    return images


class TestAgainstWordImages:
    @settings(max_examples=100, deadline=None)
    @given(small_automata())
    def test_feasible_images_are_word_images(self, nfa):
        """Within the count bound, an image is feasible exactly when some
        accepted word has it — in both directions."""
        used = sorted(nfa.alphabet())
        expected = word_images(nfa, COUNT_BOUND)
        for first in range(COUNT_BOUND + 1):
            for second in range(COUNT_BOUND + 1 - first):
                counts = (first, second)
                if any(c and sym not in used
                       for sym, c in zip(SYMBOLS, counts)):
                    continue
                image = dict(zip(SYMBOLS, counts))
                assert image_is_feasible(nfa, image, used) \
                    == (counts in expected), (nfa.transitions, nfa.finals,
                                              counts)
