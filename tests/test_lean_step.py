"""The event step that builds its records through tuple.__new__.

smpl.new_probe and new_record hand their fields to tuple.__new__ without
the argument check of a NamedTuple's constructor.  The steps of all three
steppers are held, record for record, halt for halt and error for error,
to the copies in oracles that build every NamedTuple through its
constructor and step through the rule, never a symbol_steps table.  And
every probe and record a run of a bundled model builds must have its
class's field count and read its fields by name, and every candidate set
must be the record's successor modes.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxplushybrid import fixtures
from maxplushybrid.expressions import MatrixForm
from maxplushybrid.hybrid import HybridAutomaton, MahaBehaviour, from_smpl_closed, from_smpl_open
from maxplushybrid.mpa import MaxPlusAutomaton, MpaBehaviour
from maxplushybrid.smpl import (
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    StepInput,
    StepRecord,
    SwitchingRule,
    SwitchProbe,
    externally_driven_rule,
    from_mpa,
    performance_signal,
    resolve_inputs,
    static_feedback,
    successor_modes,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix

SYMBOLS = ("a", "b")

finite = st.integers(-3, 6).map(float)
weights = st.one_of(st.just(EPS), finite, finite, finite)  # EPS one time in four
# One state of weight 1e308 on each symbol: a second step's sum overflows to +inf
OVERFLOWING = MaxPlusAutomaton(("1",), SYMBOLS, (0.0,), {s: TropicalMatrix(1, 1, (1e308,)) for s in SYMBOLS}, (0.0,))


def vectors(width):
    return st.lists(weights, min_size=width, max_size=width).map(tuple)


def matrices(draw, rows, cols, count):
    return tuple(TropicalMatrix(rows, cols, draw(vectors(rows * cols))) for _ in range(count))


@st.composite
def python_rules(draw, liveness, n_modes):
    """A rule written in Python over symbol liveness: for each previous
    mode and symbol it returns a tuple, a list or a generator of bare
    modes, unsorted, repeated or unknown (0 or n_modes + 1), with the
    liveness candidates spliced in where "live" stands."""
    items = st.one_of(st.integers(1, n_modes), st.integers(1, n_modes), st.sampled_from((0, n_modes + 1, "live")))
    table = {
        (prev, w): (draw(st.sampled_from(("tuple", "list", "generator"))), draw(st.lists(items, max_size=4)))
        for prev in (None, *range(1, n_modes + 1))
        for w in (*SYMBOLS, "z")
    }

    def successors(probe):
        container, entries = table[probe.prev_mode, probe.w]
        out = []
        for entry in entries:
            out.extend(liveness.successors(probe) if entry == "live" else (entry,))
        if container == "generator":
            return (cand for cand in out)
        return tuple(out) if container == "tuple" else out

    return dataclasses.replace(liveness, successors=successors)


@st.composite
def systems(draw):
    """A system of 1-3 modes and 1-3 states with u, v, r and p of width 0
    or 1, under symbol liveness, symbol liveness over other mode objects,
    externally driven switching or a Python rule, open loop or under
    static feedback."""
    kind = draw(st.sampled_from(("liveness", "foreign", "external", "python", "closed")))
    n, n_modes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # static feedback resolves one u and no v
    n_u, n_v = (1, 0) if kind == "closed" else (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    dims = SmplDims(n=n, n_u=n_u, n_v=n_v, n_r=draw(st.integers(0, 1)), n_p=draw(st.integers(0, 1)))
    width = dims.input_width

    def draw_modes():
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
        return modes

    modes = draw_modes()
    if kind == "external":
        rule = externally_driven_rule(draw(st.permutations(SYMBOLS + ("c", "d")))[:n_modes])
    else:
        # a foreign rule decides with its own dynamics; a step still
        # advances with the system's
        over = draw_modes() if kind == "foreign" else modes
        rule = symbol_liveness_rule(over, tuple(draw(st.sampled_from(SYMBOLS)) for _ in modes), width)
        if kind == "python":
            rule = draw(python_rules(rule, n_modes))
    controller = static_feedback(matrices(draw, 1, n, 1)[0]) if kind == "closed" else None
    return SmplSystem(n_modes, modes, rule, draw(vectors(n)), dims, controller)


@st.composite
def step_inputs(draw, dims, symbols):
    """Steps over the symbols and one no model has, whose u, v, r and p
    have the system's widths five times in six and one more or one less
    otherwise."""

    def vector(width):
        wrong = draw(st.integers(0, 5)) == 0
        return draw(vectors(max(0, width + draw(st.sampled_from((-1, 1)))) if wrong else width))

    length = draw(st.integers(0, 8))
    return tuple(
        StepInput(
            u=vector(dims.n_u),
            v=vector(dims.n_v),
            w=draw(st.sampled_from(symbols * 4 + ("z",))),
            r=vector(dims.n_r),
            p=vector(dims.n_p),
        )
        for _ in range(length)
    )


def outcome(step, state, inp):
    """What a step did: ("step", record) or ("halt", None), or the type
    and message of what it raised."""
    try:
        rec = step(state, inp)
    except Exception as exc:  # any error: both paths must raise it alike
        return "raised", type(exc), str(exc)
    return ("halt", None) if rec is None else ("step", rec)


def assert_same_run(stepper, oracle_step, inputs):
    """Step stepper and oracle_step side by side from stepper.init(): equal
    records field by field, equal halts, equal errors."""
    state = stepper.init()
    for inp in inputs:
        got, want = outcome(stepper.step, state, inp), outcome(oracle_step, state, inp)
        if got[0] != "step" or want[0] != "step":
            assert got == want
            return
        rec, expected = got[1], want[1]
        assert type(rec) is StepRecord and len(rec) == len(StepRecord._fields)
        assert {f: getattr(rec, f) for f in StepRecord._fields} == expected._asdict()
        state = rec


def resolve_by_halves(s, prev_mode, x_prev, z, inp):
    """smpl.resolve_inputs, then smpl.successor_modes on what it resolved."""
    u, v, win = resolve_inputs(s, z, inp)
    return u, v, win, successor_modes(s, prev_mode, x_prev, u, v, inp)


def resolution(s, state, inp, resolve):
    """A resolution's (u, v, u ++ r ++ p) and candidate modes, or what it
    raised."""
    z = None if s.controller is None else performance_signal(state.mode, state.x, state.u, state.v)
    try:
        return resolve(s, state.mode, state.x, z, inp)
    except Exception as exc:  # any error: both paths must raise it alike
        return type(exc), str(exc)


class TestAgainstTheStepByConstructors:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_system_and_its_translation(self, data):
        s = data.draw(systems())
        inputs = data.draw(step_inputs(s.dims, SYMBOLS))
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_constructors(s, state, inp), inputs)
        h = from_smpl_closed(s) if s.closed_loop else from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_constructors(h, state, inp), inputs)
        state = SmplBehaviour(s).init()
        for inp in inputs:
            assert resolution(s, state, inp, resolve_by_halves) == resolution(
                s, state, inp, oracles.resolve_step_by_constructors
            )

    @pytest.mark.parametrize("closed", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_feedback_demo_and_its_translation(self, closed, data):
        s = fixtures.feedback_demo_smpl()
        if not closed:
            s = dataclasses.replace(s, controller=None)
        inputs = data.draw(step_inputs(s.dims, ("m1", "m2")))
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_constructors(s, state, inp), inputs)
        h = from_smpl_closed(s) if closed else from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_constructors(h, state, inp), inputs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_automata_and_both_translations(self, data):
        if data.draw(st.integers(0, 4)) == 0:
            a = OVERFLOWING
        else:
            a = fixtures.random_mpa(data.draw(st.randoms(use_true_random=False)), n_states=data.draw(st.integers(1, 5)))
        s = from_mpa(a)
        # the translation reads no u, v, r or p: some steps still carry one
        inputs = data.draw(step_inputs(s.dims, SYMBOLS)) + (StepInput(),)  # then a step with no symbol
        assert_same_run(MpaBehaviour(a), lambda state, inp: oracles.mpa_step_by_constructors(a, state, inp), inputs)
        assert_same_run(SmplBehaviour(s), lambda state, inp: oracles.step_by_constructors(s, state, inp), inputs)
        h = from_smpl_open(s)
        assert_same_run(MahaBehaviour(h), lambda state, inp: oracles.maha_step_by_constructors(h, state, inp), inputs)


# -- field counts ---------------------------------------------------------------


def recording(s: SmplSystem, probes: list) -> SmplSystem:
    """The system whose rule keeps every probe it receives."""
    rule = s.switching

    def successors(probe):
        probes.append(probe)
        return rule.successors(probe)

    return dataclasses.replace(s, switching=dataclasses.replace(rule, successors=successors))


def runs_of_the_bundled_models():
    """(label, stepper, its switching system or None) for each bundled
    model's smpl and maha forms, and for gaubert_mpa's automaton itself;
    the systems' rules record their probes into the list returned
    alongside."""
    probes: list = []
    out = []
    for name in fixtures.FIXTURE_NAMES:
        model = fixtures.FIXTURES[name][0]()
        if isinstance(model, MaxPlusAutomaton):
            out.append((name, MpaBehaviour(model), None))
            model = from_mpa(model)
        s = recording(model, probes)
        translated = HybridAutomaton(s)
        out.append((name + " smpl", SmplBehaviour(s), s))
        out.append((name + " maha", MahaBehaviour(translated), s))
    return out, probes


def inputs_for(stepper):
    """Twelve steps that cycle through the alphabet, taking its first
    symbol twice a round."""
    if isinstance(stepper, MpaBehaviour):
        symbols = stepper.automaton.alphabet
    else:
        system = stepper.system if isinstance(stepper, SmplBehaviour) else stepper.automaton.system
        symbols = system.switching.alphabet
    return word_inputs(tuple(itertools.islice(itertools.cycle(symbols[:1] + symbols), 12)))


def assert_fields(obj, cls):
    assert isinstance(obj, cls)
    assert len(obj) == len(cls._fields)
    assert tuple(getattr(obj, f) for f in cls._fields) == tuple(obj)


def is_vector(value, width):
    return type(value) is tuple and len(value) == width and all(type(w) is float for w in value)


class TestFieldCounts:
    def test_every_probe_candidate_and_record_of_the_bundled_runs(self, monkeypatch):
        returned = []
        successor_set = SwitchingRule.successor_set

        def keeping(rule, probe):
            candidates = successor_set(rule, probe)
            returned.append(candidates)
            return candidates

        monkeypatch.setattr(SwitchingRule, "successor_set", keeping)
        runs, probes = runs_of_the_bundled_models()
        assert len(runs) == 7
        for label, stepper, s in runs:
            probes.clear()
            returned.clear()
            inputs = inputs_for(stepper)
            trace = stepper.fold(inputs)
            assert trace.records, label
            x_width = len(stepper.init().x)
            for k, rec in enumerate(trace.records, start=1):
                assert_fields(rec, StepRecord)
                assert rec.k == k and type(rec.mode) is int and rec.successor_modes[0] == rec.mode
                assert is_vector(rec.x, x_width) and is_vector(rec.y, 1)
                if type(stepper) is SmplBehaviour:
                    assert is_vector(rec.u, s.dims.n_u) and is_vector(rec.v, s.dims.n_v)
                else:
                    assert (rec.u, rec.v) == ((), ())
            if s is None:
                continue
            assert len(probes) == len(returned) == len(trace.records) + (trace.halted_at is not None)
            prev = [stepper.init()] + list(trace.records)
            for probe, before, inp in zip(probes, prev, inputs):
                assert_fields(probe, SwitchProbe)
                assert probe.prev_mode == before.mode
                assert is_vector(probe.x, s.dims.n)
                assert is_vector(probe.u, s.dims.n_u) and is_vector(probe.v, s.dims.n_v)
                assert (probe.w, probe.r, probe.p) == (inp.w, inp.r, inp.p)
            for candidates, rec in zip(returned, trace.records):
                assert candidates == rec.successor_modes
                assert all(type(mode) is int for mode in candidates)
