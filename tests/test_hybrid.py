import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.hybrid import (
    AssumptionViolation,
    HybridAutomaton,
    HybridState,
    MahaBehaviour,
    WrongProvenance,
    finite_abstraction,
    from_smpl_closed,
    from_smpl_open,
    hybrid_step,
    mpa_chain_abstraction,
    run,
)
from maxplushybrid import fixtures
from maxplushybrid.mpa import MpaBehaviour
from maxplushybrid.smpl import (
    ControllerHook,
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    StepInput,
    StepRecord,
    Trace,
    externally_driven_rule,
    from_mpa,
    simulate,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix
from oracles import (
    InadmissibleInput,
    ScanAutomaton,
    initial_states,
    language_upto,
    nfa_accepts_by_search,
    scan_run,
    scan_step,
    translation_output,
)


def random_word_inputs(rng, symbols, length):
    return tuple(StepInput(w=rng.choice(symbols)) for _ in range(length))


@pytest.fixture
def gaubert_maha(gaubert):
    return from_smpl_open(from_mpa(gaubert))


class TestHybridStep:
    def test_staying_in_the_first_mode_on_a(self, gaubert, gaubert_maha):
        state = HybridState(1, from_mpa(gaubert).x0)
        successors = hybrid_step(gaubert_maha, state, StepInput(w="a"))
        assert successors == (HybridState(1, (EPS, 1.0, 3.0)),)

    def test_blocked_on_b_from_the_initial_state(self, gaubert, gaubert_maha):
        state = HybridState(1, from_mpa(gaubert).x0)
        assert hybrid_step(gaubert_maha, state, StepInput(w="b")) == ()

    def test_hybrid_state_fields_and_keyword_construction(self):
        state = HybridState(mode=2, x=(EPS, 1.0))
        assert HybridState._fields == ("mode", "x")
        assert (state.mode, state.x) == (2, (EPS, 1.0))
        assert state == HybridState(2, (EPS, 1.0)) == (2, (EPS, 1.0))

    def test_mode_switch_flows_with_the_target_dynamics(self, gaubert, gaubert_maha):
        system = from_mpa(gaubert)
        state = HybridState(1, (EPS, 1.0, 3.0))
        successors = hybrid_step(gaubert_maha, state, StepInput(w="b"))
        assert len(successors) == 1
        assert successors[0].mode == 2
        assert successors[0].x == system.modes[2].form.eval_state((EPS, 1.0, 3.0), ())


def hand_built_automaton() -> ScanAutomaton:
    """Three modes with several guarded out-edges each, an edge without a
    guard, non-identity resets, a self-loop whose target the invariant can
    also admit, and inputs inadmissible in one mode."""

    def flow(q):
        return lambda x, inp: (x[0] + q, max(x) - q)

    return ScanAutomaton(
        modes=(1, 2, 3),
        init=(HybridState(1, (0.0, 1.0)), HybridState(3, (2.0, -1.0))),
        flow={q: flow(q) for q in (1, 2, 3)},
        output={q: (lambda x, inp, q=q: (x[1] * q,)) for q in (1, 2, 3)},
        invariant={
            1: lambda x, inp: x[0] <= 3,
            2: lambda x, inp: inp.w == "c",
            3: lambda x, inp: True,
        },
        edges=((1, 2), (1, 3), (1, 1), (2, 1), (2, 3), (3, 1), (3, 2)),
        guards={
            (1, 2): lambda x, inp: x[0] > x[1],
            (1, 3): lambda x, inp: inp.w == "a",
            (1, 1): lambda x, inp: inp.w in ("a", "b"),
            (2, 1): lambda x, inp: inp.w != "c",
            (2, 3): lambda x, inp: x[1] >= 0,
            (3, 1): lambda x, inp: inp.w == "b",
        },
        resets={(1, 3): lambda x: (x[1], x[0] + 1), (1, 1): lambda x: (x[0] - 5, x[1])},
        admissible=lambda q, x, inp: not (q == 2 and inp.w == "bad"),
        discrete_inputs=("a", "b", "c", "bad"),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except InadmissibleInput as exc:
        return str(exc)


class TestOutEdgeTable:
    """The paper's step, which the tests' reference automaton takes: a scan
    over the invariant and the guarded out-edges."""

    @settings(max_examples=150)
    @given(
        st.integers(1, 3),
        st.tuples(st.integers(-6, 6).map(float), st.integers(-6, 6).map(float)),
        st.sampled_from(("a", "b", "c", "bad")),
    )
    def test_same_successors_as_scanning_every_edge(self, mode, x, w):
        h = hand_built_automaton()
        inp = StepInput(w=w)
        got = outcome(scan_step, h, HybridState(mode, x), inp)
        if not h.admissible(mode, x, inp):
            assert got == f"input not admissible in mode {mode}"
            return
        # every way out as (target, state it flows from), the invariant first
        ways = [(mode, x)] if h.invariant[mode](x, inp) else []
        ways += [
            (edge[1], h.resets.get(edge, lambda x: x)(x))
            for edge in h.edges
            if edge[0] == mode and edge in h.guards and h.guards[edge](x, inp)
        ]
        targets = sorted({target for target, _ in ways})
        first = [next(z for target, z in ways if target == q) for q in targets]
        assert got == tuple(HybridState(q, h.flow[q](z, inp)) for q, z in zip(targets, first))

    def test_invariant_flow_wins_over_a_self_loop_to_the_same_mode(self):
        h = hand_built_automaton()
        # invariant x0 <= 3 holds and the self-loop fires on "b": one flow, no reset
        assert scan_step(h, HybridState(1, (0.0, 1.0)), StepInput(w="b")) == (
            HybridState(1, (1.0, 0.0)),
        )
        # invariant fails: the self-loop's flow runs on its reset state
        assert scan_step(h, HybridState(1, (4.0, 9.0)), StepInput(w="b")) == (
            HybridState(1, (0.0, 8.0)),
        )
        # invariant and two edges admit: sorted by mode, the reset on (1, 3)
        assert scan_step(h, HybridState(1, (2.0, 1.0)), StepInput(w="a")) == (
            HybridState(1, (3.0, 1.0)),
            HybridState(2, (4.0, 0.0)),
            HybridState(3, (4.0, 0.0)),
        )

    def test_runs_match_the_scan_and_a_record_is_a_state(self):
        h = hand_built_automaton()
        a, b, c = StepInput(w="a"), StepInput(w="b"), StepInput(w="c")
        # the first step merges the initial states' successors by mode, and
        # the first initial state to reach mode 3 wins over the second
        assert scan_step(h, h.init[1], a) == (HybridState(3, (5.0, -1.0)),)
        assert scan_run(h, (a,)).records == (StepRecord(1, 1, (1.0, 0.0), (0.0,), (1, 3)),)
        rng = random.Random(5)
        for _ in range(60):
            inputs = tuple(StepInput(w=rng.choice(h.discrete_inputs)) for _ in range(rng.randint(0, 8)))
            trace = outcome(scan_run, h, inputs)
            if isinstance(trace, str):
                continue
            # every later step takes the smallest successor of the scan
            for prev, rec in zip(trace.records, trace.records[1:]):
                successors = scan_step(h, prev, inputs[prev.k])
                assert (rec.mode, rec.x) == successors[0]
                assert rec.successor_modes == tuple(succ.mode for succ in successors)
                assert rec.y == h.output[rec.mode](rec.x, inputs[prev.k])
            if trace.halted_at is not None and trace.records:
                assert scan_step(h, trace.records[-1], inputs[trace.halted_at - 1]) == ()
        record = scan_run(h, (a,)).records[0]
        assert scan_step(h, record, b) == scan_step(h, HybridState(record.mode, record.x), b)
        # from (5, 9) in mode 1, "c" meets neither the invariant nor a guard
        stuck = dataclasses.replace(h, init=(HybridState(1, (5.0, 9.0)),))
        assert scan_run(stuck, (c, a)) == Trace((), halted_at=1)

    def test_identity_dynamics_with_a_true_invariant_loop_forever(self):
        h = ScanAutomaton(
            modes=(1,),
            init=(HybridState(1, (5.0,)),),
            flow={1: lambda x, inp: x},
            output={1: lambda x, inp: x},
            invariant={1: lambda x, inp: True},
            edges=(),
            guards={},
        )
        state = HybridState(1, (5.0,))
        for _ in range(10):
            (state,) = scan_step(h, state, StepInput())
        assert state == HybridState(1, (5.0,))

    def test_inadmissible_input_raises(self):
        h = ScanAutomaton(
            modes=(1,),
            init=(HybridState(1, (0.0,)),),
            flow={1: lambda x, inp: x},
            output={1: lambda x, inp: x},
            invariant={1: lambda x, inp: True},
            edges=(),
            guards={},
            admissible=lambda q, x, inp: inp.w == "a",
            discrete_inputs=("a",),
        )
        with pytest.raises(InadmissibleInput):
            scan_step(h, HybridState(1, (0.0,)), StepInput(w="b"))


class TestOpenTranslation:
    def test_every_mode_is_initial_at_x0(self, gaubert, gaubert_maha):
        system = from_mpa(gaubert)
        assert set(initial_states(gaubert_maha)) == {
            HybridState(1, system.x0),
            HybridState(2, system.x0),
        }

    def test_edges_connect_distinct_modes_with_symbol_tags(self, gaubert_maha):
        assert set(gaubert_maha.edges) == {(1, 2), (2, 1)}
        assert gaubert_maha.edges[(1, 2)] == {"b"}
        assert gaubert_maha.edges[(2, 1)] == {"a"}
        # the invariant of mode 1 holds on the symbol that selects mode 1
        assert gaubert_maha.system.switching.enabling_symbols(1) == {"a"}

    def test_single_mode_system_translates_without_edges(self):
        mode = MatrixMode.from_parts(a=[[0.0]], c=[[0.0]])
        modes = {1: mode}
        system = SmplSystem(
            n_modes=1,
            modes=modes,
            switching=symbol_liveness_rule(modes, ("go",), 0),
            x0=(0.0,),
            dims=SmplDims(n=1),
        )
        h = from_smpl_open(system)
        assert h.edges == {}
        trace = run(h, tuple(StepInput(w="go") for _ in range(3)))
        assert trace.completed and [r.x for r in trace.records] == [(0.0,)] * 3

    def test_rejects_closed_loop_systems(self, feedback):
        with pytest.raises(ValueError):
            from_smpl_open(feedback)

    def test_traces_and_halts_match_on_random_runs(self, gaubert, production):
        rng = random.Random(3)
        for system in (from_mpa(gaubert), production):
            h = from_smpl_open(system)
            symbols = system.switching.symbols
            for _ in range(50):
                inputs = random_word_inputs(rng, symbols, 20)
                st = simulate(system, inputs)
                ht = run(h, inputs)
                assert st.halted_at == ht.halted_at
                assert len(st.records) == len(ht.records)
                for rs, rh in zip(st.records, ht.records):
                    assert (rs.mode, rs.x, rs.y) == (rh.mode, rh.x, rh.y)

    def test_blocking_happens_at_the_same_step(self, gaubert):
        system = from_mpa(gaubert)
        h = from_smpl_open(system)
        for text in ("b", "aaa", "abaaa", "ab", "abab"):
            inputs = word_inputs(tuple(text))
            assert simulate(system, inputs).halted_at == run(h, inputs).halted_at


class TestClosedTranslation:
    def test_augmented_dimension(self, feedback):
        h = from_smpl_closed(feedback)
        d = feedback.dims
        assert h.n == 1 + d.n + d.n_u + d.n_v

    def test_augmented_runs_match_direct_simulation(self, feedback):
        h = from_smpl_closed(feedback)
        rng = random.Random(9)
        lo, hi = h.meta["state_layout"]["x"]
        for _ in range(50):
            inputs = random_word_inputs(rng, feedback.switching.symbols, 20)
            st = simulate(feedback, inputs)
            ht = run(h, inputs)
            assert st.halted_at == ht.halted_at
            for rs, rh in zip(st.records, ht.records):
                assert rs.mode == rh.mode
                assert rs.x == rh.x[lo:hi]
                assert rs.y == rh.y

    def test_pass_through_controller_reduces_to_the_open_loop(self, production):
        pass_through = ControllerHook(
            f_u=lambda z, inp: inp.u, f_v=lambda z, inp: inp.v
        )
        closed = SmplSystem(
            n_modes=production.n_modes,
            modes=production.modes,
            switching=production.switching,
            x0=production.x0,
            dims=production.dims,
            controller=pass_through,
        )
        h_closed = from_smpl_closed(closed)
        h_open = from_smpl_open(production)
        rng = random.Random(21)
        lo, hi = h_closed.meta["state_layout"]["x"]
        for _ in range(20):
            inputs = random_word_inputs(rng, production.switching.symbols, 12)
            tc = run(h_closed, inputs)
            to = run(h_open, inputs)
            assert tc.halted_at == to.halted_at
            for rc, ro in zip(tc.records, to.records):
                assert rc.mode == ro.mode
                assert rc.x[lo:hi] == ro.x
                assert rc.y == ro.y

    def test_every_controller_hook_translates(self, feedback):
        # a hook that is not max-plus linear (min of the state's entries,
        # doubled) translates, however the automaton is built, and its
        # runs are the ones the system steps
        def f_u(z, inp):
            return (2 * min(z[1:3]),)

        opaque = ControllerHook(f_u=f_u, f_v=lambda z, inp: ())
        system = dataclasses.replace(feedback, controller=opaque)
        for h in (from_smpl_closed(system), HybridAutomaton(system)):
            rng = random.Random(13)
            lo, hi = h.meta["state_layout"]["x"]
            for _ in range(20):
                inputs = random_word_inputs(rng, system.switching.symbols, 12)
                st = simulate(system, inputs)
                ht = run(h, inputs)
                assert st.halted_at == ht.halted_at
                assert len(st.records) == len(ht.records)
                for rs, rh in zip(st.records, ht.records):
                    assert rs.mode == rh.mode
                    assert rs.x == rh.x[lo:hi]
                    assert rs.y == rh.y

    def test_open_system_is_rejected(self, production):
        with pytest.raises(ValueError):
            from_smpl_closed(production)


class TestFiniteAbstraction:
    def test_production_line_structure(self, production):
        fa = finite_abstraction(from_smpl_open(production))
        assert len(fa.states) == 6
        assert fa.alphabet == ("l1", "l2", "1")
        assert fa.initial == frozenset({"q1.x1", "q1.x2", "q2.x1", "q2.x2"})
        assert fa.final == frozenset({"q1.x3", "q2.x3"})
        assert fa.successors("q1.x3", "1") == frozenset({"q1.x1", "q1.x3"})
        assert fa.successors("q2.x3", "1") == frozenset({"q2.x2", "q2.x3"})
        # mode edges keep the label and use the target mode's symbol
        assert fa.successors("q1.x1", "l2") == frozenset({"q2.x1"})
        assert fa.successors("q1.x1", "l1") == frozenset()

    def test_rejects_automata_without_matrix_structure(self, feedback):
        # the closed loop's augmented state has no matrix form per mode
        h = from_smpl_closed(feedback)
        assert h.system.closed_loop
        with pytest.raises(AssumptionViolation):
            finite_abstraction(h)

    def test_run_words_are_accepted_by_the_abstraction(self, gaubert):
        # executable soundness: completed accepting runs induce words the
        # one-step abstraction accepts, interleaving step and switch symbols
        system = from_mpa(gaubert)
        h = from_smpl_open(system)
        fa = finite_abstraction(h)
        import itertools

        for length in range(1, 5):
            for w in itertools.product(gaubert.alphabet, repeat=length):
                trace = simulate(system, word_inputs(w))
                if not trace.completed or trace.records[-1].y[0] == EPS:
                    continue
                symbols = []
                prev = trace.records[0].mode
                symbols.append("1")
                for rec in trace.records[1:]:
                    if rec.mode != prev:
                        symbols.append(w[rec.k - 1])
                    symbols.append("1")
                    prev = rec.mode
                assert fa.accepts(tuple(symbols))
                assert nfa_accepts_by_search(fa, tuple(symbols))


class TestFusedAbstraction:
    def test_transitions_follow_the_symbol_matrices(self, gaubert, gaubert_maha):
        fa = mpa_chain_abstraction(gaubert_maha)
        assert fa.alphabet == ("a", "b")
        assert fa.initial == frozenset({"q1.x1", "q2.x1"})
        assert fa.final == frozenset({"q1.x1", "q2.x1"})
        mu_a = gaubert.mu["a"]
        for i in range(3):
            for j in range(3):
                expected = mu_a[i, j] != EPS
                for source_mode in (1, 2):
                    got = f"q1.x{j + 1}" in fa.successors(
                        f"q{source_mode}.x{i + 1}", "a"
                    )
                    assert got == expected

    def test_language_agrees_with_the_weight_free_projection(self, gaubert, gaubert_maha):
        from maxplushybrid.mpa import to_finite_abstraction

        fa = mpa_chain_abstraction(gaubert_maha)
        at = to_finite_abstraction(gaubert)
        assert language_upto(fa, 6) == language_upto(at, 6)

    def test_wrong_provenance_is_rejected(self, production):
        with pytest.raises(WrongProvenance):
            mpa_chain_abstraction(from_smpl_open(production))

    @pytest.mark.parametrize(
        "variant,fault",
        [
            ("closed loop", "closed loop, whose state is the augmented"),
            ("two branches", "mode 1 has L = 2, M = 1 and input width 0"),
            ("an input", "mode 1 has L = 1, M = 1 and input width 1"),
            ("two outputs", "it has 2 outputs, not 1"),
            ("externally driven", "not symbol_liveness with one distinct symbol per mode"),
            ("a shared symbol", "not symbol_liveness with one distinct symbol per mode"),
        ],
    )
    def test_the_structure_it_reads_is_checked_whatever_the_meta(
        self, gaubert, production, feedback, variant, fault
    ):
        chain = from_mpa(gaubert)
        forged = {"translated_from": "mpa"}
        two_outputs = {
            q: MatrixMode(
                dataclasses.replace(
                    m.form,
                    C=(TropicalMatrix.from_rows([m.form.C[0].row(0)] * 2),),
                    D=(TropicalMatrix.epsilon(2, 0),),
                )
            )
            for q, m in chain.modes.items()
        }
        automaton = {
            "closed loop": lambda: from_smpl_closed(dataclasses.replace(feedback, meta=forged)),
            "two branches": lambda: from_smpl_open(dataclasses.replace(production, meta=forged)),
            "an input": lambda: from_smpl_open(dataclasses.replace(feedback, controller=None, meta=forged)),
            "two outputs": lambda: from_smpl_open(
                dataclasses.replace(
                    chain, modes=two_outputs, dims=dataclasses.replace(chain.dims, n_y=2)
                )
            ),
            "externally driven": lambda: from_smpl_open(
                dataclasses.replace(chain, switching=externally_driven_rule(("a", "b")))
            ),
            "a shared symbol": lambda: from_smpl_open(
                dataclasses.replace(chain, switching=symbol_liveness_rule(chain.modes, ("a", "a"), 0))
            ),
        }[variant]()
        with pytest.raises(WrongProvenance, match=fault):
            mpa_chain_abstraction(automaton)

    def test_a_system_shaped_like_a_translation_needs_no_meta(self, gaubert, gaubert_maha):
        bare = from_smpl_open(dataclasses.replace(from_mpa(gaubert), meta={}))
        assert mpa_chain_abstraction(bare) == mpa_chain_abstraction(gaubert_maha)

    def test_empty_language_degenerate(self):
        from maxplushybrid.mpa import MaxPlusAutomaton
        from maxplushybrid.tropical import TropicalMatrix

        a = MaxPlusAutomaton(
            states=("s",),
            alphabet=("a",),
            alpha=(0.0,),
            mu={"a": TropicalMatrix.epsilon(1, 1)},
            beta=(EPS,),
        )
        fa = mpa_chain_abstraction(from_smpl_open(from_mpa(a)))
        assert language_upto(fa, 4) == set()


def halting_cases():
    """name -> (stepper, inputs that run, an input that then halts), for
    every stepper class."""
    gaubert = fixtures.gaubert_mpa()
    closed = fixtures.feedback_demo_smpl()
    opened = dataclasses.replace(closed, controller=None)
    m1, halt = StepInput(w="m1"), StepInput(w="zz")  # no rule admits a mode for "zz"
    u_m1, u_halt = StepInput(w="m1", u=(2.0,)), StepInput(w="zz", u=(2.0,))
    return {
        "mpa": (MpaBehaviour(gaubert), (), StepInput(w="b")),
        "smpl": (SmplBehaviour(from_mpa(gaubert)), word_inputs("aa"), StepInput(w="a")),
        "smpl-open": (SmplBehaviour(opened), (u_m1, u_m1), u_halt),
        "smpl-closed": (SmplBehaviour(closed), (m1, m1), halt),
        "maha-open": (MahaBehaviour(from_smpl_open(from_mpa(gaubert))), word_inputs("aa"), StepInput(w="a")),
        "maha-closed": (MahaBehaviour(from_smpl_closed(closed)), (m1,), halt),
    }


HALTING = halting_cases()


class TestStepperContract:
    """A run halts where step returns None: no stepper class raises on a
    halt, and fold reports the step that halted."""

    @pytest.mark.parametrize("name", sorted(HALTING))
    def test_a_halting_input_makes_step_return_none(self, name):
        stepper, prefix, halting = HALTING[name]
        state = stepper.init()
        records = []
        for inp in prefix:
            state = stepper.step(state, inp)
            assert state is not None
            records.append(state)
        assert stepper.step(state, halting) is None
        tail = prefix[-1:] or (halting,)
        run = stepper.fold(prefix + (halting,) + tail)
        assert run.halted_at == len(prefix) + 1
        assert run.records == tuple(records)
        assert stepper.trace(prefix + (halting,)) is None


def externally_driven_line():
    production = fixtures.production_line_smpl()
    return dataclasses.replace(production, switching=externally_driven_rule(("l1", "l2")))


# name -> (automaton, two step symbols, modes, n, discrete_inputs, initial
# state, edges, state_layout, the first two successors and their outputs)
TRANSLATIONS = {
    "gaubert": (
        lambda: from_smpl_open(from_mpa(fixtures.gaubert_mpa())),
        ("a", "b"),
        (1, 2), 3, ("a", "b"), (0.0, EPS, EPS),
        {(1, 2): {"b"}, (2, 1): {"a"}},
        None,
        ((1, (EPS, 1.0, 3.0)), (2, (10.0, 8.0, 4.0))),
        ((EPS,), (12.0,)),
    ),
    "production": (
        lambda: from_smpl_open(fixtures.production_line_smpl()),
        ("l1", "l2"),
        (1, 2), 3, ("l1", "l2"), (0.0, 0.0, EPS),
        {(1, 2): {"l2"}, (2, 1): {"l1"}},
        None,
        ((1, (1.0, 2.0, 4.0)), (2, (2.0, 7.0, 10.0))),
        ((4.0,), (10.0,)),
    ),
    "feedback": (
        lambda: from_smpl_closed(fixtures.feedback_demo_smpl()),
        ("m1", "m2"),
        (1, 2), 4, ("m1", "m2"), (EPS, 0.0, 0.0, EPS),
        {(1, 2): {"m2"}, (2, 1): {"m1"}},
        {"mode": 0, "x": (1, 3), "u": (3, 4)},
        ((1, (1.0, 1.0, 2.0, 0.0)), (2, (2.0, 3.0, 3.0, 1.0))),
        ((2.0,), (3.0,)),
    ),
    "externally driven": (
        lambda: from_smpl_open(externally_driven_line()),
        ("l2", "l1"),
        (1, 2), 3, ("l1", "l2"), (0.0, 0.0, EPS),
        {(1, 2): {"l2"}, (2, 1): {"l1"}},
        None,
        ((2, (1.0, 2.0, 4.0)), (1, (7.0, 4.0, 10.0))),
        ((4.0,), (10.0,)),
    ),
}


class TestTranslationAttributes:
    """What a translation exposes, pinned for each kind of system."""

    @pytest.mark.parametrize("name", sorted(TRANSLATIONS))
    def test_attributes_and_first_two_steps(self, name):
        build, word, modes, n, symbols, start, edges, layout, steps, outputs = TRANSLATIONS[name]
        h = build()
        assert (h.modes, h.n, h.discrete_inputs) == (modes, n, symbols)
        assert h.start == start
        assert h.edges == edges
        assert h.meta.get("state_layout") == layout
        mode, z = None, start
        for w, (q, expected), y in zip(word, steps, outputs):
            inp = StepInput(w=w)
            successors = hybrid_step(h, HybridState(mode, z), inp)
            assert successors == (HybridState(q, expected),)
            assert translation_output(h)[q](expected, inp) == y
            mode, z = successors[0]
        # a run advances through the same steps
        records = MahaBehaviour(h).fold(word_inputs(word)).records
        assert [(rec.mode, rec.x, rec.y) for rec in records] == [(q, x, y) for (q, x), y in zip(steps, outputs)]
