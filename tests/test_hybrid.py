import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.hybrid import (
    AssumptionViolation,
    GuardPredicate,
    HybridAutomaton,
    HybridState,
    InadmissibleInput,
    NonRepresentableController,
    WrongProvenance,
    finite_abstraction,
    from_smpl_closed,
    from_smpl_open,
    hybrid_step,
    mpa_chain_abstraction,
    run,
)
from maxplushybrid.smpl import (
    ControllerHook,
    MatrixMode,
    SmplDims,
    SmplSystem,
    StepInput,
    from_mpa,
    simulate,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS
import oracles
from oracles import language_upto, nfa_accepts_by_search


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

    def test_identity_dynamics_with_a_true_invariant_loop_forever(self):
        h = HybridAutomaton(
            modes=(1,),
            n=1,
            discrete_inputs=(),
            n_y=1,
            init=(HybridState(1, (5.0,)),),
            flow={1: lambda x, inp: x},
            output={1: lambda x, inp: x},
            invariant={1: GuardPredicate(holds=lambda x, inp: True)},
            edges=(),
            guards={},
        )
        state = HybridState(1, (5.0,))
        for _ in range(10):
            (state,) = hybrid_step(h, state, StepInput())
        assert state == HybridState(1, (5.0,))

    def test_inadmissible_input_raises(self):
        h = HybridAutomaton(
            modes=(1,),
            n=1,
            discrete_inputs=("a",),
            n_y=1,
            init=(HybridState(1, (0.0,)),),
            flow={1: lambda x, inp: x},
            output={1: lambda x, inp: x},
            invariant={1: GuardPredicate(holds=lambda x, inp: True)},
            edges=(),
            guards={},
            admissible=lambda q, x, inp: inp.w == "a",
        )
        with pytest.raises(InadmissibleInput):
            hybrid_step(h, HybridState(1, (0.0,)), StepInput(w="b"))

    def test_mode_switch_flows_with_the_target_dynamics(self, gaubert, gaubert_maha):
        system = from_mpa(gaubert)
        state = HybridState(1, (EPS, 1.0, 3.0))
        successors = hybrid_step(gaubert_maha, state, StepInput(w="b"))
        assert len(successors) == 1
        assert successors[0].mode == 2
        assert successors[0].x == system.modes[2].next_state((EPS, 1.0, 3.0), ())


def hand_built_automaton() -> HybridAutomaton:
    """Three modes with several guarded out-edges each, an edge without a
    guard, non-identity resets, a self-loop whose target the invariant can
    also admit, and inputs inadmissible in one mode."""

    def flow(q):
        return lambda x, inp: (x[0] + q, max(x) - q)

    def guard(holds):
        return GuardPredicate(holds=holds)

    edges = ((1, 2), (1, 3), (1, 1), (2, 1), (2, 3), (3, 1), (3, 2))
    return HybridAutomaton(
        modes=(1, 2, 3),
        n=2,
        discrete_inputs=("a", "b", "c", "bad"),
        n_y=1,
        init=(HybridState(1, (0.0, 1.0)), HybridState(3, (2.0, -1.0))),
        flow={q: flow(q) for q in (1, 2, 3)},
        output={q: (lambda x, inp, q=q: (x[1] * q,)) for q in (1, 2, 3)},
        invariant={
            1: guard(lambda x, inp: x[0] <= 3),
            2: guard(lambda x, inp: inp.w == "c"),
            3: guard(lambda x, inp: True),
        },
        edges=edges,
        guards={
            (1, 2): guard(lambda x, inp: x[0] > x[1]),
            (1, 3): guard(lambda x, inp: inp.w == "a"),
            (1, 1): guard(lambda x, inp: inp.w in ("a", "b")),
            (2, 1): guard(lambda x, inp: inp.w != "c"),
            (2, 3): guard(lambda x, inp: x[1] >= 0),
            (3, 1): guard(lambda x, inp: inp.w == "b"),
        },
        resets={(1, 3): lambda x: (x[1], x[0] + 1), (1, 1): lambda x: (x[0] - 5, x[1])},
        admissible=lambda q, x, inp: not (q == 2 and inp.w == "bad"),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except InadmissibleInput as exc:
        return str(exc)


class TestOutEdgeTable:
    def test_table_lists_the_guarded_out_edges_in_declaration_order(self):
        h = hand_built_automaton()
        assert {q: [edge[0] for edge in out] for q, out in h.out_edges.items()} == {
            1: [2, 3, 1],
            2: [1, 3],
            3: [1],
        }
        assert h.out_edges[1][1][2] is h.resets[1, 3]
        assert h.out_edges[2][0][1] is h.guards[2, 1]

    @settings(max_examples=150)
    @given(
        st.integers(1, 3),
        st.tuples(st.integers(-6, 6).map(float), st.integers(-6, 6).map(float)),
        st.sampled_from(("a", "b", "c", "bad")),
    )
    def test_same_successors_as_scanning_every_edge(self, mode, x, w):
        h = hand_built_automaton()
        inp = StepInput(w=w)
        got = outcome(hybrid_step, h, HybridState(mode, x), inp)
        assert got == outcome(oracles.hybrid_step_apart, h, HybridState(mode, x), inp)
        if not isinstance(got, str):
            assert [state.mode for state in got] == sorted({state.mode for state in got})

    def test_invariant_flow_wins_over_a_self_loop_to_the_same_mode(self):
        h = hand_built_automaton()
        # invariant x0 <= 3 holds and the self-loop fires on "b": one flow, no reset
        assert hybrid_step(h, HybridState(1, (0.0, 1.0)), StepInput(w="b")) == (
            HybridState(1, (1.0, 0.0)),
        )
        # invariant fails: the self-loop's flow runs on its reset state
        assert hybrid_step(h, HybridState(1, (4.0, 9.0)), StepInput(w="b")) == (
            HybridState(1, (0.0, 8.0)),
        )
        # invariant and two edges admit: sorted by mode, the reset on (1, 3)
        assert hybrid_step(h, HybridState(1, (2.0, 1.0)), StepInput(w="a")) == (
            HybridState(1, (3.0, 1.0)),
            HybridState(2, (4.0, 0.0)),
            HybridState(3, (4.0, 0.0)),
        )

    def test_runs_match_the_scan_and_a_record_is_a_state(self):
        h = hand_built_automaton()
        rng = random.Random(5)
        for _ in range(60):
            inputs = tuple(StepInput(w=rng.choice(h.discrete_inputs)) for _ in range(rng.randint(0, 8)))
            assert outcome(run, h, inputs) == outcome(oracles.run, h, inputs)
        record = run(h, (StepInput(w="a"),)).records[0]
        assert hybrid_step(h, record, StepInput(w="b")) == hybrid_step(
            h, HybridState(record.mode, record.x), StepInput(w="b")
        )


class TestOpenTranslation:
    def test_every_mode_is_initial_at_x0(self, gaubert, gaubert_maha):
        system = from_mpa(gaubert)
        assert set(gaubert_maha.init) == {
            HybridState(1, system.x0),
            HybridState(2, system.x0),
        }

    def test_edges_connect_distinct_modes_with_symbol_tags(self, gaubert_maha):
        assert set(gaubert_maha.edges) == {(1, 2), (2, 1)}
        assert gaubert_maha.guards[(1, 2)].enabled_symbols == {"b"}
        assert gaubert_maha.guards[(2, 1)].enabled_symbols == {"a"}
        assert gaubert_maha.invariant[1].enabled_symbols == {"a"}

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
        assert h.edges == ()
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

    def test_open_system_is_rejected(self, production):
        with pytest.raises(ValueError):
            from_smpl_closed(production)

    def test_non_representable_controller_is_rejected(self, feedback):
        opaque = ControllerHook(
            f_u=lambda z, inp: inp.u,
            f_v=lambda z, inp: inp.v,
            max_min_plus=False,
        )
        system = SmplSystem(
            n_modes=feedback.n_modes,
            modes=feedback.modes,
            switching=feedback.switching,
            x0=feedback.x0,
            dims=feedback.dims,
            controller=opaque,
        )
        with pytest.raises(NonRepresentableController):
            from_smpl_closed(system)


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

    def test_rejects_automata_without_matrix_structure(self):
        h = HybridAutomaton(
            modes=(1,),
            n=1,
            discrete_inputs=(),
            n_y=1,
            init=(HybridState(1, (0.0,)),),
            flow={1: lambda x, inp: x},
            output={1: lambda x, inp: x},
            invariant={1: GuardPredicate(holds=lambda x, inp: True)},
            edges=(),
            guards={},
        )
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
