import itertools
import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.fixtures import random_mpa
from maxplushybrid.hybrid import from_smpl_open, run
from maxplushybrid.mpa import (
    MaxPlusAutomaton,
    MpaBehaviour,
    accepts,
    eval_output,
    eval_state,
    row_value,
    step_row,
    to_finite_abstraction,
)
from maxplushybrid.smpl import StepInput, from_mpa, simulate, word_inputs
from maxplushybrid.tropical import EPS, TOP, TropicalMatrix
from oracles import accepted_words_by_paths, identity_matrix, outputs, row_value_by_zip, step_row_dense
from oracles import word_value_by_paths
from oracles import language_upto as fa_language

weights = st.one_of(st.just(EPS), st.just(TOP), st.integers(min_value=-20, max_value=20).map(float))


def accepted_upto(a: MaxPlusAutomaton, max_len: int) -> set:
    """The words of at most max_len symbols, the empty word included, for
    which accepts holds."""
    return {
        w
        for k in range(max_len + 1)
        for w in itertools.product(a.alphabet, repeat=k)
        if accepts(a, w)
    }


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
        lang = accepted_upto(gaubert, 3)
        assert {word("ab"), word("aab"), word("abb")} <= lang
        assert lang.isdisjoint({word(t) for t in ("a", "b", "aa", "bb", "aaa")})

    def test_empty_word_membership_depends_on_alpha_beta(self, gaubert):
        assert accepted_upto(gaubert, 0) == {()}
        shifted = MaxPlusAutomaton(
            states=gaubert.states,
            alphabet=gaubert.alphabet,
            alpha=gaubert.alpha,
            mu=gaubert.mu,
            beta=(EPS, 2.0, EPS),
        )
        assert accepted_upto(shifted, 0) == set()

    def test_all_epsilon_final_weights_give_an_empty_language(self, gaubert):
        dead = MaxPlusAutomaton(
            states=gaubert.states,
            alphabet=gaubert.alphabet,
            alpha=gaubert.alpha,
            mu=gaubert.mu,
            beta=(EPS, EPS, EPS),
        )
        assert accepted_upto(dead, 3) == set()

    def test_acceptance_agrees_with_bounded_language(self, gaubert):
        lang = fa_language(to_finite_abstraction(gaubert), 4)
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

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_nan_start_or_final_weight_rejected(self, field):
        weights = {"alpha": (0.0, 0.0), "beta": (0.0, 0.0), field: (0.0, math.nan)}
        with pytest.raises(ValueError, match="^NaN is not a valid weight$"):
            MaxPlusAutomaton(states=("s", "t"), alphabet=("a",), mu={"a": TropicalMatrix.epsilon(2, 2)}, **weights)

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
        assert accepted_upto(a, 5) == expected


class TestStepRow:
    @settings(max_examples=300)
    @given(st.data())
    def test_matches_the_dense_product(self, data):
        # A bare namespace stands in for the automaton, so the matrix may
        # hold TOP, which MaxPlusAutomaton refuses.
        n = data.draw(st.integers(min_value=0, max_value=6))
        m = TropicalMatrix(n, n, tuple(data.draw(st.lists(weights, min_size=n * n, max_size=n * n))))
        row = tuple(data.draw(st.lists(weights, min_size=n, max_size=n)))
        a = types.SimpleNamespace(mu={"a": m})
        dense = step_row_dense(TropicalMatrix.row_vector(row), m).entries
        assert step_row(a, row, "a") == dense
        assert step_row(a, row, "a") == dense  # again, over the kept support

    @settings(max_examples=200)
    @given(st.data())
    def test_row_value_matches_the_guarded_loop_to_the_sign_of_zero(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        zeros_and_eps = st.one_of(st.sampled_from((EPS, 0.0, -0.0)), st.integers(-5, 5).map(float))
        alpha = (0.0,) + tuple(data.draw(st.lists(zeros_and_eps, min_size=n - 1, max_size=n - 1)))
        beta = tuple(data.draw(st.lists(zeros_and_eps, min_size=n, max_size=n)))
        a = MaxPlusAutomaton(tuple(map(str, range(n))), ("a",), alpha, {"a": identity_matrix(n)}, beta)
        row = tuple(data.draw(st.lists(st.one_of(zeros_and_eps, st.just(TOP)), min_size=n, max_size=n)))
        assert repr(row_value(a, row)) == repr(row_value_by_zip(a, row))

    def test_eps_absorbs_top(self):
        a = types.SimpleNamespace(mu={"a": TropicalMatrix.from_rows([[TOP, 0.0], [EPS, TOP]])})
        assert step_row(a, (EPS, 2.0), "a") == (EPS, TOP)
        assert step_row(a, (1.0, EPS), "a") == (TOP, 1.0)
        assert step_row(a, (EPS, EPS), "a") == (EPS, EPS)

    def test_shape_and_symbol_checks(self, gaubert):
        with pytest.raises(ValueError, match="shape mismatch"):
            step_row(gaubert, (0.0, 0.0), "a")
        with pytest.raises(ValueError, match="unknown symbol"):
            step_row(gaubert, gaubert.alpha, "c")


def assert_fold_follows_the_translations(a: MaxPlusAutomaton, max_len: int = 5) -> None:
    """For every word up to max_len, the automaton's fold halts where the
    translated switching system and hybrid automaton halt, gives their
    records, and outputs each prefix's value over all paths."""
    system = from_mpa(a)
    h = from_smpl_open(system)
    stepper = MpaBehaviour(a)
    words = [w for k in range(max_len + 1) for w in itertools.product(a.alphabet, repeat=k)]
    values = {w: word_value_by_paths(a, w) for w in words}
    for w in words:
        inputs = word_inputs(w)
        folded, simulated, ran = stepper.fold(inputs), simulate(system, inputs), run(h, inputs)
        assert folded.halted_at == simulated.halted_at == ran.halted_at, w
        assert folded.records == simulated.records == ran.records, w
        assert outputs(folded) == tuple((values[w[:j]],) for j in range(1, len(folded.records) + 1)), w


class TestFoldAlongTheTranslations:
    def test_gaubert(self, gaubert):
        assert_fold_follows_the_translations(gaubert)
        assert MpaBehaviour(gaubert).fold(word_inputs("abaaa")).halted_at == 5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_random_automata(self, seed, n):
        assert_fold_follows_the_translations(random_mpa(random.Random(seed), n_states=n))

    def test_a_step_refuses_missing_and_unknown_symbols(self, gaubert):
        stepper = MpaBehaviour(gaubert)
        with pytest.raises(ValueError, match="^unknown symbol 'c'$"):
            stepper.step(stepper.init(), StepInput(w="c"))
        with pytest.raises(ValueError, match="^max-plus automata consume discrete symbols only$"):
            stepper.step(stepper.init(), StepInput())
