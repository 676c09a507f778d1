"""Bare symbols stepped through a system's symbol_steps table.

An input-free system whose rule is a library symbol_liveness rule with
one mode per symbol, the very MatrixMode the system holds, steps a bare
symbol through smpl.symbol_step: the symbol's mode's state map, a halt
where no entry is finite, its output map and one record.  The system's
step and its open-loop translation's are held, record for record, halt
for halt and error for error, to the steps through smpl.advance kept in
oracles; every other system has no table and steps as it did.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import fixtures
from maxplushybrid.hybrid import MahaBehaviour, from_smpl_closed, from_smpl_open
from maxplushybrid.mpa import MpaBehaviour
from maxplushybrid.smpl import SmplBehaviour, StepInput, externally_driven_rule, from_mpa, word_inputs
from maxplushybrid.tropical import EPS, TOP
from test_lean_step import assert_same_run, step_inputs
from test_same_program import SYMBOLS, one_state_mpa, python_liveness, repeated_symbol_system, swapped_output_mode

finite = st.integers(-3, 9).map(float)
entries = st.one_of(st.just(EPS), st.just(TOP), finite, finite)  # EPS and +inf one time in four each


@st.composite
def table_systems(draw):
    """The smpl translation of a random automaton, or a production line
    with drawn tau, whose rows take the min of two branches; half the
    time from a drawn start whose entries may be EPS or +inf."""
    if draw(st.booleans()):
        a = fixtures.random_mpa(draw(st.randoms(use_true_random=False)), n_states=draw(st.integers(1, 5)))
        s = from_mpa(a)
    else:
        s = fixtures.production_line_smpl(tuple(draw(st.lists(finite, min_size=3, max_size=3))))
    if draw(st.booleans()):
        s = dataclasses.replace(s, x0=tuple(draw(st.lists(entries, min_size=s.dims.n, max_size=s.dims.n))))
    return s


@st.composite
def bare_inputs(draw, symbols):
    """Steps on every symbol, one no model has and no symbol, one in eight
    carrying a u or r entry that an input-free system must refuse."""
    out = []
    for _ in range(draw(st.integers(0, 10))):
        w = draw(st.sampled_from(symbols * 3 + ("z", None)))
        extra = draw(st.sampled_from(({},) * 6 + ({"u": (0.0,)}, {"r": (1.0,)})))
        out.append(StepInput(w=w, **extra))
    return tuple(out)


class TestTheTableStepAgainstAdvance:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_system_and_its_open_loop_translation(self, data):
        s = data.draw(table_systems())
        assert s.symbol_steps is not None
        inputs = data.draw(bare_inputs(s.switching.alphabet))
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_advance(s, state, inp), inputs)
        h = from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_advance(h, state, inp), inputs)

    def test_an_input_entry_is_refused_with_the_width_message(self, production):
        for inp in (StepInput(u=(0.0,), w="l1"), StepInput(w="l1", r=(1.0,))):
            with pytest.raises(ValueError) as got:
                SmplBehaviour(production).step(SmplBehaviour(production).init(), inp)
            with pytest.raises(ValueError) as want:
                oracles.step_by_advance(production, SmplBehaviour(production).init(), inp)
            assert str(got.value) == str(want.value)
            assert "widths" in str(got.value)

    def test_a_translation_halts_where_its_automaton_does(self, gaubert):
        inputs = word_inputs(("b", "b", "a"))
        s = from_mpa(gaubert)
        halts = {MpaBehaviour(gaubert).fold(inputs).halted_at, SmplBehaviour(s).fold(inputs).halted_at}
        assert halts == {MahaBehaviour(from_smpl_open(s)).fold(inputs).halted_at} == {1}

    def test_an_overflowing_automaton_and_its_translations_halt_alike(self):
        # 1e308 twice overflows to +inf: the second state has no finite entry
        a = one_state_mpa(1e308)
        s = from_mpa(a)
        inputs = word_inputs("aaa")
        run = MpaBehaviour(a).fold(inputs)
        assert run.halted_at == 2 and len(run.records) == 1
        assert SmplBehaviour(s).fold(inputs) == MahaBehaviour(from_smpl_open(s)).fold(inputs) == run

    def test_the_table_holds_each_modes_maps_and_the_program_is_read_off_it(self, gaubert, production):
        for s in (from_mpa(gaubert), production):
            table = s.symbol_steps
            assert list(table) == list(s.switching.alphabet)
            for mode, symbol in enumerate(s.switching.symbols, start=1):
                form = s.modes[mode].form
                assert table[symbol] == (mode, form._state_map, form._output_map)
            assert s.program == (s.x0, s.symbol_steps)


def systems_without_a_table():
    """(label, system) for systems whose bare symbols step through advance."""
    gaubert, feedback = from_mpa(fixtures.gaubert_mpa()), fixtures.feedback_demo_smpl()
    return [
        ("repeated symbol", repeated_symbol_system(5)),
        ("python rule", python_liveness(fixtures.production_line_smpl())),
        ("externally driven", dataclasses.replace(gaubert, switching=externally_driven_rule(SYMBOLS))),
        ("closed loop", feedback),
        ("open loop", dataclasses.replace(feedback, controller=None)),
        ("swapped output mode", swapped_output_mode(gaubert)),
    ]


NO_TABLE = systems_without_a_table()


class TestSystemsWithoutATable:
    @pytest.mark.parametrize("s", [case[1] for case in NO_TABLE], ids=[case[0] for case in NO_TABLE])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_table_and_the_steps_of_advance(self, s, data):
        assert s.symbol_steps is None and s.program is None
        inputs = data.draw(step_inputs(s.dims, s.switching.alphabet)) + (StepInput(),)  # then no symbol
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_advance(s, state, inp), inputs)
        h = from_smpl_closed(s) if s.closed_loop else from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_advance(h, state, inp), inputs)
