"""Steps through a system's symbol_steps table.

A system whose rule is a library symbol_liveness rule over the very
MatrixModes the system holds, reading inputs of the system's width, has
a table that lists, per symbol, every mode the symbol selects, repeated
symbols included.  It steps every symbol through smpl.symbol_step: each
candidate mode's state map once on the resolved inputs, a halt where no
candidate's state has a finite entry, the smallest live mode's output
map, every live mode as the successor modes, and one record.  An
input-free one steps a bare symbol that way without resolving anything,
and is held, record for record, halt for halt and error for error, to
the steps through smpl.advance kept in oracles.  Table systems with
repeated symbols, closed loops and open loops that read u, v, r or p
are held to the steps in oracles that run the rule and never the table.
The full successor set of a translation (hybrid_step) is the paper's
scan, on systems with a table and on those without one.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import fixtures
from maxplushybrid.expressions import MatrixForm
from maxplushybrid.hybrid import HybridState, MahaBehaviour, from_smpl_closed, from_smpl_open, hybrid_step
from maxplushybrid.mpa import MpaBehaviour
from maxplushybrid.smpl import (
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    StepInput,
    externally_driven_rule,
    from_mpa,
    static_feedback,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TOP
from test_lean_step import assert_same_run, matrices, step_inputs
from test_same_program import SYMBOLS, one_state_mpa, python_liveness, repeated_symbol_system, swapped_output_mode

finite = st.integers(-3, 9).map(float)
entries = st.one_of(st.just(EPS), st.just(TOP), finite, finite)  # EPS and +inf one time in four each


def with_symbols(s, symbols):
    """The system under a symbol_liveness rule over its own modes that
    reads the given symbols."""
    return dataclasses.replace(s, switching=symbol_liveness_rule(s.modes, symbols, s.dims.input_width))


@st.composite
def table_systems(draw):
    """The smpl translation of a random automaton, or a production line
    with drawn tau, whose rows take the min of two branches, under
    symbols l1 and l2 drawn with repeats; half the time from a drawn
    start whose entries may be EPS or +inf."""
    if draw(st.booleans()):
        a = fixtures.random_mpa(draw(st.randoms(use_true_random=False)), n_states=draw(st.integers(1, 5)))
        s = from_mpa(a)
    else:
        s = fixtures.production_line_smpl(tuple(draw(st.lists(finite, min_size=3, max_size=3))))
        s = with_symbols(s, draw(st.lists(st.sampled_from(("l1", "l2")), min_size=2, max_size=2)))
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
        for s in (from_mpa(gaubert), production, with_symbols(production, ("l1", "l1")), repeated_symbol_system(5)):
            table = s.symbol_steps
            assert list(table) == list(s.switching.alphabet)
            for symbol, entry in table.items():
                assert entry == tuple(
                    (mode, s.modes[mode].form._state_map, s.modes[mode].form._output_map)
                    for mode, named in enumerate(s.switching.symbols, start=1)
                    if named == symbol
                )
            assert s.program == (s.x0, s.symbol_steps)


@st.composite
def systems_with_inputs(draw):
    """A system of 1-3 states and 1-3 modes, under symbol liveness over
    symbols drawn with repeats, whose rows take the min of one or two
    branches over x and u ++ r ++ p, with u of width 0 to 2 and r and p
    of width 0 or 1: an open loop that may also read v, or a closed loop
    under static feedback, whose u is 1 or 2 wide."""
    n, n_modes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    closed = draw(st.booleans())
    # static feedback resolves at least one u and no v
    n_u, n_v = (draw(st.integers(1, 2)), 0) if closed else (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
    dims = SmplDims(n=n, n_u=n_u, n_v=n_v, n_r=draw(st.integers(0, 1)), n_p=draw(st.integers(0, 1)))
    width = dims.input_width
    modes = {}
    for q in range(1, n_modes + 1):
        branches, out_branches = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        modes[q] = MatrixMode(
            MatrixForm(
                matrices(draw, n, n, branches),
                matrices(draw, n, width, branches),
                matrices(draw, 1, n, out_branches),
                matrices(draw, 1, width, out_branches),
            )
        )
    symbols = draw(st.lists(st.sampled_from(SYMBOLS + ("c",)), min_size=n_modes, max_size=n_modes))
    rule = symbol_liveness_rule(modes, symbols, width)
    controller = static_feedback(matrices(draw, n_u, n, 1)[0]) if closed else None
    x0 = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    return SmplSystem(n_modes, modes, rule, x0, dims, controller)


class TestTheTableStepOnResolvedInputs:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closed_and_open_loops_against_the_rule(self, data):
        s = data.draw(systems_with_inputs())
        assert s.symbol_steps is not None
        assert (s.program is None) == (not s.input_free)
        inputs = data.draw(step_inputs(s.dims, s.switching.alphabet)) + (StepInput(),)  # then no symbol
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_constructors(s, state, inp), inputs)
        h = from_smpl_closed(s) if s.closed_loop else from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_constructors(h, state, inp), inputs)

    @pytest.mark.parametrize("closed", [True, False], ids=["closed loop", "open loop"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_feedback_demo_has_a_table_and_no_program(self, closed, data):
        s = fixtures.feedback_demo_smpl()
        if not closed:
            s = dataclasses.replace(s, controller=None)
        h = from_smpl_closed(s) if closed else from_smpl_open(s)
        assert s.symbol_steps is not None and s.program is None and not s.shift_exact
        assert MahaBehaviour(h).program is None and not MahaBehaviour(h).shift_exact
        inputs = data.draw(step_inputs(s.dims, s.switching.alphabet))
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_constructors(s, state, inp), inputs)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_constructors(h, state, inp), inputs)

    def test_a_bare_symbol_on_an_open_loop_that_reads_u_gets_the_width_error(self, feedback):
        s = dataclasses.replace(feedback, controller=None)
        with pytest.raises(ValueError, match=r"widths \(0, 0, 0\), expected \(1, 0, 0\)"):
            SmplBehaviour(s).step(SmplBehaviour(s).init(), StepInput(w="m1"))


def systems_without_a_table():
    """(label, system) for systems whose steps run through the rule."""
    gaubert = from_mpa(fixtures.gaubert_mpa())
    return [
        ("python rule", python_liveness(fixtures.production_line_smpl())),
        ("externally driven", dataclasses.replace(gaubert, switching=externally_driven_rule(SYMBOLS))),
        ("swapped output mode", swapped_output_mode(gaubert)),
    ]


def systems_with_a_table():
    """(label, system) for systems whose steps run through the table."""
    line = fixtures.production_line_smpl()
    return [
        ("repeated symbol", repeated_symbol_system(5)),
        ("repeated line", with_symbols(line, ("l1", "l1"))),
        ("production line", line),
        ("automaton", from_mpa(fixtures.gaubert_mpa())),
    ]


NO_TABLE, TABLE = systems_without_a_table(), systems_with_a_table()


class TestSystemsWithoutATable:
    @pytest.mark.parametrize("s", [case[1] for case in NO_TABLE], ids=[case[0] for case in NO_TABLE])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_table_and_the_steps_of_advance(self, s, data):
        assert s.symbol_steps is None and s.program is None
        inputs = data.draw(step_inputs(s.dims, s.switching.alphabet)) + (StepInput(),)  # then no symbol
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_advance(s, state, inp), inputs)
        h = from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_advance(h, state, inp), inputs)


@pytest.mark.parametrize("s", [case[1] for case in NO_TABLE + TABLE], ids=[case[0] for case in NO_TABLE + TABLE])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_full_successor_set_is_the_scans(s, data):
    h = from_smpl_open(s)
    scan = oracles.scan_of_translation(s)
    for _ in range(data.draw(st.integers(1, 4))):
        x = tuple(data.draw(st.lists(entries, min_size=s.dims.n, max_size=s.dims.n)))
        state = HybridState(data.draw(st.integers(1, s.n_modes)), x)
        inp = StepInput(w=data.draw(st.sampled_from(s.switching.alphabet + ("z",))))
        assert hybrid_step(h, state, inp) == oracles.scan_step(scan, state, inp)
