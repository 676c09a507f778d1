"""A translated automaton's step against the paper's scan semantics.

hybrid_step takes a translated automaton's step through the successor
function the translation builds; oracles.scan_of_translation builds the
paper's automaton for the same system, whose invariant, guards and flows
come from oracles.smpl_step_twice and oracles.resolve_inputs_in_full, so
from no part of smpl.resolve_step, and steps it by a scan.  The two must
agree on generated systems of one to four modes, with single- and
multi-branch rows and r and p inputs, under symbol liveness, externally
driven switching, a rule that reads the previous mode, and a closed loop.
A step is also held to the switching system's own step from the same
previous mode, and the switching-system stepper to oracles.simulate.  A
run, which advances the first candidate alone through smpl.advance, is
held to oracles.SuccessorSetRun, which takes the first of hybrid_step's
successors.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import fixtures
from maxplushybrid.equivalence import MahaBehaviour, SmplBehaviour, behavioural_inclusion_upto
from maxplushybrid.expressions import MatrixForm
from maxplushybrid.hybrid import HybridState, from_smpl_closed, from_smpl_open, hybrid_step, run
from maxplushybrid.serialization import parse_model
from maxplushybrid.smpl import (
    MatrixMode,
    SmplDims,
    SmplSystem,
    StepInput,
    StepRecord,
    externally_driven_rule,
    simulate,
    static_feedback,
    step,
    symbol_liveness_rule,
)
from maxplushybrid.tropical import EPS, TropicalMatrix

SYMBOLS = ("a", "b", "c")
RULES = ("liveness", "external", "sticky", "closed")

finite = st.integers(-3, 6).map(float)
weights = st.one_of(st.just(EPS), finite, finite, finite)  # EPS one time in four


def matrices(draw, rows, cols, count):
    return tuple(
        TropicalMatrix(rows, cols, tuple(draw(st.lists(weights, min_size=rows * cols, max_size=rows * cols))))
        for _ in range(count)
    )


def sticky(liveness):
    """Stay in the previous mode as a bare candidate, or go where symbol
    liveness goes."""

    def successors(probe):
        if probe.prev_mode is not None:
            yield probe.prev_mode
        yield from liveness.successors(probe)

    return dataclasses.replace(liveness, successors=successors)


@st.composite
def systems(draw):
    """A system of 1-4 modes with 1-3 states, rows of one or two branches,
    and the rule and inputs its kind allows."""
    kind = draw(st.sampled_from(RULES))
    n = draw(st.integers(1, 3))
    n_modes = draw(st.integers(1, 4))
    n_u = draw(st.integers(1, 2)) if kind == "closed" else draw(st.integers(0, 1))
    dims = SmplDims(n=n, n_u=n_u, n_r=draw(st.integers(0, 1)), n_p=draw(st.integers(0, 1)))
    width = dims.input_width
    modes = {}
    for q in range(1, n_modes + 1):
        branches, out_branches = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        form = MatrixForm(
            matrices(draw, n, n, branches),
            matrices(draw, n, width, branches),
            matrices(draw, 1, n, out_branches),
            matrices(draw, 1, width, out_branches),
        )
        modes[q] = MatrixMode(form)
    if kind == "external":
        # externally driven switching names each mode by a symbol of its own
        symbols = tuple(draw(st.permutations(SYMBOLS + ("d",)))[:n_modes])
        rule = externally_driven_rule(symbols)
    else:
        symbols = tuple(draw(st.sampled_from(SYMBOLS)) for _ in modes)
        rule = symbol_liveness_rule(modes, symbols, width)
        if kind == "sticky":
            rule = sticky(rule)
    controller = None
    if kind == "closed":
        gain = matrices(draw, n_u, n, 1)[0]
        controller = static_feedback(gain)
    x0 = tuple(draw(st.lists(weights, min_size=n, max_size=n)))
    system = SmplSystem(n_modes, modes, rule, x0, dims, controller)
    return kind, system, from_smpl_closed(system) if controller else from_smpl_open(system)


@st.composite
def step_inputs(draw, system, length):
    """Inputs of the system's widths over its symbols and one it lacks."""
    dims = system.dims
    n_u = 0 if system.closed_loop else dims.n_u
    symbols = tuple(sorted(set(system.switching.symbols))) * 4 + ("z",)

    def vector(width):
        return tuple(draw(st.lists(weights, min_size=width, max_size=width)))

    return tuple(
        StepInput(
            u=vector(n_u),
            w=draw(st.sampled_from(symbols)),
            r=vector(dims.n_r),
            p=vector(dims.n_p),
        )
        for _ in range(length)
    )


class TestDirectStepAgainstTheScan:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hybrid_step_from_any_state(self, data):
        kind, system, automaton = data.draw(systems())
        (inp,) = data.draw(step_inputs(system, 1))
        mode = data.draw(st.integers(1, system.n_modes))
        z = tuple(data.draw(st.lists(weights, min_size=automaton.n, max_size=automaton.n)))
        state = HybridState(mode, z)
        successors = hybrid_step(automaton, state, inp)
        assert successors == oracles.scan_step(oracles.scan_of_translation(system), state, inp)
        # and the switching system's step from the same previous mode
        n, n_u = system.dims.n, system.dims.n_u
        x, u_prev = (z[1 : 1 + n], z[1 + n : 1 + n + n_u]) if system.closed_loop else (z, ())
        rec = step(system, StepRecord(0, mode, x, (), (), u_prev), inp)
        if rec is None:
            assert successors == ()
        else:
            assert tuple(succ.mode for succ in successors) == rec.successor_modes
            assert (successors[0].x[1 : 1 + n] if system.closed_loop else successors[0].x) == rec.x

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_runs_and_halts(self, data):
        kind, system, automaton = data.draw(systems())
        inputs = data.draw(step_inputs(system, data.draw(st.integers(0, 8))))
        hybrid_trace, smpl_trace = run(automaton, inputs), simulate(system, inputs)
        assert hybrid_trace == oracles.scan_run(oracles.scan_of_translation(system), inputs)
        assert smpl_trace == oracles.simulate(system, inputs)
        # both first steps resolve with no previous mode, so even a rule
        # that reads it sees the same steps: the automaton is the system
        assert oracles.outputs(hybrid_trace) == oracles.outputs(smpl_trace)
        assert hybrid_trace.halted_at == smpl_trace.halted_at


class TestRunAgainstTheSuccessorSet:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fold_equals_the_first_successor_run(self, data):
        kind, system, automaton = data.draw(systems())
        inputs = data.draw(step_inputs(system, data.draw(st.integers(0, 8))))
        assert MahaBehaviour(automaton).fold(inputs) == oracles.SuccessorSetRun(automaton).fold(inputs)

    @pytest.mark.parametrize(
        "build, translate, inp",
        [
            (fixtures.production_line_smpl, from_smpl_open, StepInput(w="l1")),
            (fixtures.feedback_demo_smpl, from_smpl_closed, StepInput(w="m1")),
        ],
    )
    def test_a_run_step_evaluates_only_the_mode_it_takes(self, monkeypatch, build, translate, inp):
        line = build()
        rule = dataclasses.replace(line.switching, successors=lambda probe: (1, 2))
        system = dataclasses.replace(line, switching=rule)
        automaton = translate(system)
        evaluated = []
        eval_state = MatrixForm.eval_state

        def counted(form, x, u=()):
            evaluated.append(form)
            return eval_state(form, x, u)

        monkeypatch.setattr(MatrixForm, "eval_state", counted)
        behaviour = MahaBehaviour(automaton)
        rec = behaviour.step(behaviour.init(), inp)
        assert rec.mode == 1 and rec.successor_modes == (1, 2)
        assert [id(form) for form in evaluated] == [id(system.modes[1].form)]
        evaluated.clear()
        successors = hybrid_step(automaton, behaviour.init(), inp)
        assert [succ.mode for succ in successors] == [1, 2]
        assert successors[0].x == rec.x
        assert [id(form) for form in evaluated] == [id(system.modes[q].form) for q in (1, 2)]


def bad_width_variant():
    """production_line with one exogenous r input declared; its B and D
    are all-EPS columns of that width."""
    body = json.loads(fixtures.fixture_text("production_line"))
    body["dims"]["n_r"] = 1
    for mode in body["modes"]:
        mode["B"] = [[["-inf"] for _ in a] for a in mode["A"]]
        mode["D"] = [[["-inf"] for _ in c] for c in mode["C"]]
    return parse_model(json.dumps(body)).model


WIDTH_MESSAGE = (
    r"step input has \(u, r, p\) widths \(0, 0, 0\), expected \(0, 1, 0\); "
    r"u\+\+r\+\+p width 0 \(0\+0\+0\), expected 1$"
)


class TestWidthErrorsOnEveryRoute:
    @pytest.mark.parametrize("translate", [False, True])
    def test_behavioural_inclusion_with_one_misshaped_input(self, translate):
        system = bad_width_variant()
        stepper = MahaBehaviour(from_smpl_open(system)) if translate else SmplBehaviour(system)
        good = StepInput(w="l1", r=(1.0,))
        sequences = [(good, good), (good, StepInput(w="l2"))]
        with pytest.raises(ValueError, match=WIDTH_MESSAGE):
            behavioural_inclusion_upto(stepper, stepper, sequences)

    def test_first_hybrid_step_over_every_initial_state(self):
        behaviour = MahaBehaviour(from_smpl_open(bad_width_variant()))
        with pytest.raises(ValueError, match=WIDTH_MESSAGE):
            behaviour.step(behaviour.init(), StepInput(w="l2"))

    def test_a_halting_step_still_checks_its_inputs(self):
        # the symbol selects no mode, but the inputs are still wrong
        system = bad_width_variant()
        with pytest.raises(ValueError, match=WIDTH_MESSAGE):
            simulate(system, (StepInput(w="zz"),))
        with pytest.raises(ValueError, match=WIDTH_MESSAGE):
            run(from_smpl_open(system), (StepInput(w="zz"),))


class TestModesTheSystemLacks:
    @pytest.mark.parametrize("yielded, unknown", [([0], 0), ([3], 3), ([1, 2, 3], 3), ([0, 2], 0)])
    def test_a_system_step_and_a_translated_step_reject_them_alike(self, yielded, unknown):
        line = fixtures.production_line_smpl()
        rule = dataclasses.replace(line.switching, successors=lambda probe: yielded)
        system = dataclasses.replace(line, switching=rule)
        automaton = from_smpl_open(system)
        state, inp = HybridState(1, system.x0), StepInput(w="l1")
        message = f"switching rule returned unknown mode {unknown}$"
        with pytest.raises(ValueError, match=message):
            step(system, SmplBehaviour(system).init(), inp)
        with pytest.raises(ValueError, match=message):
            hybrid_step(automaton, state, inp)
        with pytest.raises(ValueError, match=message):
            run(automaton, (inp,))
