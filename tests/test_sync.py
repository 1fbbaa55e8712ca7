"""Tests for the synchronization formula (paper Section 7, Lemma 7.1).

Every solve passes the product's connectivity checks along, so cyclic
products go through the lazy loop's lemma path.
"""

from hypothesis import given, settings, strategies as st

from repro.alphabet import DEFAULT_ALPHABET as A, EPSILON
from repro.automata.regex import regex_to_nfa
from repro.core.names import NameFactory
from repro.core.pfa import count_var, standard_pfa, straight_pfa
from repro.core.sync import asynchronous_product, synchronization_formula
from repro.logic import FALSE, conj, eq, ge, le, var
from repro.smt import solve_formula


def pa_of_nfa(nfa, names):
    """Concrete automaton rendered as a throwaway PA (as the flattener
    does) so it can synchronize against PFAs."""
    from repro.core.flatten import Flattener
    from repro.strings.ast import StringProblem
    flattener = Flattener(StringProblem(), {}, A, names)
    return flattener._pa_of_nfa(nfa)


def domain(pfa):
    parts = []
    for v in pfa.char_vars:
        if pfa.binding_of(v) is None:
            parts.append(ge(var(v), EPSILON))
            parts.append(le(var(v), A.max_code))
    return conj(*parts)


def sync_with_word(pfa, nfa, names, word=None):
    """Solve Psi_{PFA x PA(nfa)}, optionally pinning the decoded word."""
    throwaway = pa_of_nfa(nfa, names)
    formula, checks = synchronization_formula(pfa, throwaway, "s")
    if formula is FALSE:
        return None
    full = conj(formula, pfa.psi, pfa.parikh_formula(1000), domain(pfa))
    if word is not None:
        pins = []
        codes = A.encode_word(word)
        # Pin the straight chain (shift discipline) to the word.
        for i, v in enumerate(pfa.stem):
            value = codes[i] if i < len(codes) else EPSILON
            pins.append(eq(var(v), value))
        full = conj(full, *pins)
    return solve_formula(full, checks=checks)


class TestProduct:
    def test_empty_intersection_is_false(self):
        names = NameFactory()
        pfa = straight_pfa(names.char_namer("x"), 2)
        nfa = regex_to_nfa("aaa")    # needs length 3 > 2
        formula, checks = synchronization_formula(
            pfa, pa_of_nfa(nfa, names), "s")
        assert solve_formula(conj(formula, pfa.psi, domain(pfa)),
                             checks=checks).status == "unsat"

    def test_binding_pruning_shrinks_product(self):
        names = NameFactory()
        pfa = straight_pfa(names.char_namer("x"), 3)
        left_pa = pa_of_nfa(regex_to_nfa("abc"), names)
        product = asynchronous_product(pfa, left_pa)
        # Idle-left pairs with concrete non-epsilon labels are pruned, so
        # the product stays near the diagonal.
        assert product.num_states <= 4 * 5

    def test_membership_word_inside(self):
        names = NameFactory()
        pfa = straight_pfa(names.char_namer("x"), 3)
        assert sync_with_word(pfa, regex_to_nfa("ab?c"), names,
                              "abc").status == "sat"
        assert sync_with_word(pfa, regex_to_nfa("ab?c"), names,
                              "ac").status == "sat"
        assert sync_with_word(pfa, regex_to_nfa("ab?c"), names,
                              "bbc").status == "unsat"

    def test_loops_synchronize(self):
        names = NameFactory()
        pfa = standard_pfa(names.char_namer("x"), 1, 2)   # (v1 v2)^n
        throwaway = pa_of_nfa(regex_to_nfa("(ab){2}"), names)
        formula, checks = synchronization_formula(pfa, throwaway, "s", 100)
        full = conj(formula, pfa.psi, pfa.parikh_formula(100), domain(pfa))
        result = solve_formula(full, checks=checks)
        assert result.status == "sat"
        # The loop must run twice with v1=a, v2=b (or an epsilon-padded
        # equivalent); decode and check.
        word = A.decode_word(pfa.decode(result.model))
        assert word == "abab"

    def test_counts_respect_psi_hash(self):
        names = NameFactory()
        pfa = straight_pfa(names.char_namer("x"), 2)
        throwaway = pa_of_nfa(regex_to_nfa("ab"), names)
        formula, checks = synchronization_formula(pfa, throwaway, "s")
        full = conj(formula, pfa.psi, pfa.parikh_formula(10), domain(pfa))
        result = solve_formula(full, checks=checks)
        assert result.status == "sat"
        model = result.model
        # Both chain variables used exactly once.
        assert model[count_var(pfa.stem[0])] == 1
        assert model[count_var(pfa.stem[1])] == 1
        assert A.decode_word(pfa.decode(model)) == "ab"


class TestAgainstEnumeration:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["a*b", "(ab)*", "a|bb|ccc", "[ab]{2}",
                            "a(b|c)a"]),
           st.text(alphabet="abc", max_size=3))
    def test_straight_pfa_membership_matches(self, pattern, text):
        names = NameFactory()
        pfa = straight_pfa(names.char_namer("x"), 3)
        nfa = regex_to_nfa(pattern)
        expected = nfa.accepts(A.encode_word(text)) and len(text) <= 3
        result = sync_with_word(pfa, nfa, names, text)
        assert (result.status == "sat") == expected


class TestLoopProducts:
    def test_pinned_loop_counts_decode_to_members(self):
        """Pinning every loop of a looping PFA makes the cyclic product's
        first flows float (epsilon-valued loop characters idle on a cycle
        the run never reaches); the lemmas steer the loop to a connected
        flow, whose decoded word the regex accepts."""
        lemmas = 0
        for pattern in ("(ab)*", "a*ba*", "[ab]*c[ab]*"):
            for k in (1, 2, 3):
                names = NameFactory()
                pfa = standard_pfa(names.char_namer("x"), 2, 2)
                nfa = regex_to_nfa(pattern)
                formula, checks = synchronization_formula(
                    pfa, pa_of_nfa(nfa, names), "s", 50)
                assert checks
                pins = [eq(var(count_var(loop[0])), k) for loop in pfa.loops
                        if loop]
                full = conj(formula, pfa.psi, pfa.parikh_formula(50),
                            domain(pfa), *pins)
                result = solve_formula(full, checks=checks)
                assert result.status == "sat"
                word = pfa.decode(result.model)
                assert nfa.accepts(word), (pattern, k, word)
                lemmas += result.stats["connectivity_lemmas"]
        assert lemmas > 0
