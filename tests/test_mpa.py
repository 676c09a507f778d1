import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.finite import language_upto as fa_language
from maxplushybrid.fixtures import random_mpa
from maxplushybrid.mpa import (
    MaxPlusAutomaton,
    accepts,
    eval_output,
    eval_state,
    language_upto,
    to_finite_abstraction,
)
from maxplushybrid.tropical import EPS, TOP, TropicalMatrix
from oracles import accepted_words_by_paths, word_value_by_paths


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


class TestEvalState:
    def test_after_one_a(self, gaubert):
        assert eval_state(gaubert, word("a")) == (EPS, 1.0, 3.0)

    def test_after_ab(self, gaubert):
        # frozen from the all-paths enumeration oracle
        assert word_value_by_paths(gaubert, word("ab")) == 12.0
        assert eval_state(gaubert, word("ab")) == (10.0, 8.0, 4.0)

    def test_empty_word_returns_the_initial_weights(self, gaubert):
        assert eval_state(gaubert, ()) == (0.0, EPS, EPS)

    def test_unknown_symbol(self, gaubert):
        with pytest.raises(ValueError):
            eval_state(gaubert, ("c",))


class TestEvalOutput:
    def test_frozen_word_values(self, gaubert):
        # values confirmed by the independent path oracle below
        assert eval_output(gaubert, word("ab")) == 12.0
        assert eval_output(gaubert, word("aab")) == 14.0
        assert eval_state(gaubert, word("aab")) == (12.0, 10.0, 6.0)
        assert eval_output(gaubert, word("b")) == EPS

    def test_matches_path_enumeration(self, gaubert):
        for text in ("ab", "aab", "b", "abb", "aa", "bb"):
            assert eval_output(gaubert, word(text)) == word_value_by_paths(
                gaubert, word(text)
            )


class TestAcceptance:
    def test_accepted_words(self, gaubert):
        assert accepts(gaubert, word("ab"))
        assert accepts(gaubert, word("aab"))
        assert not accepts(gaubert, word("b"))
        assert not accepts(gaubert, word("aaa"))

    def test_language_up_to_three(self, gaubert):
        lang = language_upto(gaubert, 3)
        assert {word("ab"), word("aab"), word("abb")} <= lang
        assert lang.isdisjoint({word(t) for t in ("a", "b", "aa", "bb", "aaa")})

    def test_empty_word_membership_depends_on_alpha_beta(self, gaubert):
        assert () in language_upto(gaubert, 0)
        shifted = MaxPlusAutomaton(
            states=gaubert.states,
            alphabet=gaubert.alphabet,
            alpha=gaubert.alpha,
            mu=gaubert.mu,
            beta=(EPS, 2.0, EPS),
        )
        assert () not in language_upto(shifted, 0)

    def test_all_epsilon_final_weights_give_an_empty_language(self, gaubert):
        dead = MaxPlusAutomaton(
            states=gaubert.states,
            alphabet=gaubert.alphabet,
            alpha=gaubert.alpha,
            mu=gaubert.mu,
            beta=(EPS, EPS, EPS),
        )
        assert language_upto(dead, 3) == set()

    def test_acceptance_agrees_with_bounded_language(self, gaubert):
        lang = language_upto(gaubert, 4)
        for w in accepted_words_by_paths(gaubert, 4):
            assert w in lang
        for w in lang:
            assert accepts(gaubert, w)


class TestAbstraction:
    def test_structure(self, gaubert):
        fa = to_finite_abstraction(gaubert)
        assert fa.initial == frozenset({"1"})
        assert fa.final == frozenset({"1"})
        assert fa.successors("1", "a") == frozenset({"2", "3"})
        assert fa.successors("2", "a") == frozenset({"3"})
        assert fa.successors("3", "a") == frozenset()
        assert fa.successors("2", "b") == frozenset({"1", "2"})
        assert fa.successors("3", "b") == frozenset({"1", "2", "3"})

    def test_no_transitions_from_all_epsilon_weights(self):
        a = MaxPlusAutomaton(
            states=("s",),
            alphabet=("a",),
            alpha=(0.0,),
            mu={"a": TropicalMatrix.epsilon(1, 1)},
            beta=(0.0,),
        )
        fa = to_finite_abstraction(a)
        assert fa.delta == {}

    def test_same_language_as_the_weighted_automaton(self, gaubert):
        fa = to_finite_abstraction(gaubert)
        expected = accepted_words_by_paths(gaubert, 6)
        assert all(fa.accepts(w) for w in expected)
        assert fa_language(fa, 6) == expected


class TestValidation:
    def test_top_weights_rejected(self, gaubert):
        with pytest.raises(ValueError):
            MaxPlusAutomaton(
                states=("s",),
                alphabet=("a",),
                alpha=(0.0,),
                mu={"a": TropicalMatrix.from_rows([[TOP]])},
                beta=(0.0,),
            )

    def test_all_epsilon_alpha_rejected(self, gaubert):
        with pytest.raises(ValueError):
            MaxPlusAutomaton(
                states=("s",),
                alphabet=("a",),
                alpha=(EPS,),
                mu={"a": TropicalMatrix.epsilon(1, 1)},
                beta=(0.0,),
            )

    def test_shape_mismatch_rejected(self, gaubert):
        with pytest.raises(ValueError):
            MaxPlusAutomaton(
                states=("s", "t"),
                alphabet=("a",),
                alpha=(0.0, EPS),
                mu={"a": TropicalMatrix.epsilon(1, 1)},
                beta=(0.0, EPS),
            )


class TestProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_recursion_matches_path_enumeration_on_random_automata(self, seed):
        import itertools

        rng = random.Random(seed)
        a = random_mpa(rng)
        for length in range(6):
            for w in itertools.product(a.alphabet, repeat=length):
                assert eval_output(a, w) == word_value_by_paths(a, w)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 5))
    def test_state_evolution_is_a_monoid_action(self, seed, split):
        rng = random.Random(seed)
        a = random_mpa(rng)
        w = tuple(rng.choice(a.alphabet) for _ in range(6))
        head, tail = w[:split], w[split:]
        row = TropicalMatrix.row_vector(eval_state(a, head))
        for symbol in tail:
            row = row.otimes(a.mu[symbol])
        assert row.entries == eval_state(a, w)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_abstraction_preserves_the_bounded_language(self, seed):
        rng = random.Random(seed)
        a = random_mpa(rng)
        fa = to_finite_abstraction(a)
        expected = accepted_words_by_paths(a, 5)
        assert fa_language(fa, 5) == expected
        assert language_upto(a, 5) == expected
