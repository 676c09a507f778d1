"""An automaton steps as its switching system.

MaxPlusAutomaton.system is the automaton's translation, built once:
smpl.from_mpa returns it, and MpaBehaviour runs its table, program and
shift_exact flag.  Since the automaton and its translation share that one
table, a behaviour check between them no longer compares two tables; these
tests hold the system's table and flag to the ones the automaton's own
weights give (oracles.mpa_symbol_steps_by_columns,
oracles.mpa_shift_exact_by_weights).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import fixtures
from maxplushybrid.mpa import MaxPlusAutomaton, MpaBehaviour
from maxplushybrid.smpl import SmplBehaviour, from_mpa
from maxplushybrid.tropical import EPS, TropicalMatrix

SYMBOLS = ("a", "b")
finite_weights = st.one_of(
    st.integers(-9, 9).map(float),  # integer floats: shift-exact
    st.floats(-10, 10, allow_nan=False),  # mostly not integral
    st.just(1e308),  # overflows to +inf once summed
    st.just(2**49 + 1),  # an int, which the automaton stores as its float
    st.just(0),
)
weights = st.one_of(st.just(EPS), finite_weights)


@st.composite
def automata(draw):
    """Automata of 1 to 4 states over a and b; some initial weight is finite."""
    n = draw(st.integers(1, 4))
    vector = st.lists(weights, min_size=n, max_size=n)
    mu = {s: TropicalMatrix(n, n, tuple(draw(st.lists(weights, min_size=n * n, max_size=n * n)))) for s in SYMBOLS}
    alpha = draw(vector)
    alpha[draw(st.integers(0, n - 1))] = draw(finite_weights)
    states = tuple(str(i + 1) for i in range(n))
    return MaxPlusAutomaton(states=states, alphabet=SYMBOLS, alpha=tuple(alpha), mu=mu, beta=tuple(draw(vector)))


def assert_steps_as_its_system(a):
    s = a.system
    assert from_mpa(a) is s and MpaBehaviour(a).system is s
    assert s.symbol_steps == oracles.mpa_symbol_steps_by_columns(a)
    assert s.shift_exact is oracles.mpa_shift_exact_by_weights(a)
    program = MpaBehaviour(a).program
    assert program == SmplBehaviour(from_mpa(a)).program
    assert program == (a.alpha, oracles.mpa_symbol_steps_by_columns(a))


class TestTheAutomatonsSystem:
    @settings(max_examples=300, deadline=None)
    @given(automata())
    def test_table_flag_and_program_against_the_automatons_weights(self, a):
        assert_steps_as_its_system(a)

    def test_the_bundled_automaton(self, gaubert):
        assert_steps_as_its_system(gaubert)
        assert gaubert.system.shift_exact and gaubert.system.program is not None

    def test_an_automaton_with_no_symbol_has_no_system(self):
        # a switching system has a mode per symbol and at least one mode
        a = MaxPlusAutomaton(states=("p",), alphabet=(), alpha=(0.0,), mu={}, beta=(0.0,))
        with pytest.raises(ValueError, match="need at least one mode"):
            a.system
        with pytest.raises(ValueError, match="need at least one mode"):
            MpaBehaviour(a)

    def test_random_automata_of_the_fixtures(self):
        for seed in range(20):
            assert_steps_as_its_system(fixtures.random_mpa(random.Random(seed), n_states=1 + seed % 6))
