import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid.expressions import MatrixForm
from maxplushybrid.hybrid import from_smpl_closed, run
from maxplushybrid.mpa import MaxPlusAutomaton, accepts, eval_output
from maxplushybrid.smpl import (
    Candidate,
    MatrixMode,
    SmplBehaviour,
    SmplDims,
    SmplSystem,
    StepInput,
    SwitchProbe,
    SwitchingKind,
    SwitchingRule,
    from_mpa,
    simulate,
    static_feedback,
    step,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix
from oracles import SwitchingClassificationError, classify_switching, successor_set_by_dict, vec_leq


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


def identity_system() -> SmplSystem:
    mode = MatrixMode.from_parts(
        a=[[0.0, EPS], [EPS, 0.0]], c=[[0.0, 0.0]]
    )
    modes = {1: mode}
    rule = symbol_liveness_rule(modes, ("go",), 0)
    return SmplSystem(
        n_modes=1,
        modes=modes,
        switching=rule,
        x0=(1.0, 2.0),
        dims=SmplDims(n=2),
    )


class TestStep:
    def test_first_step_on_a(self, gaubert):
        system = from_mpa(gaubert)
        rec = step(system, SmplBehaviour(system).init(), StepInput(w="a"))
        assert rec.mode == 1
        assert rec.x == (EPS, 1.0, 3.0)
        assert rec.successor_modes == (1,)

    def test_first_step_on_b_has_no_successor(self, gaubert):
        system = from_mpa(gaubert)
        assert step(system, SmplBehaviour(system).init(), StepInput(w="b")) is None

    def test_identity_dynamics_fix_the_state(self):
        system = identity_system()
        state = SmplBehaviour(system).init()
        for k in range(1, 4):
            rec = step(system, state, StepInput(w="go"))
            assert (rec.k, rec.x) == (k, system.x0)
            state = rec


def test_a_nan_start_entry_is_refused():
    mode = MatrixMode.from_parts(a=[[0.0]], c=[[0.0]])
    with pytest.raises(ValueError, match="^NaN is not a valid weight$"):
        SmplSystem(1, {1: mode}, symbol_liveness_rule({1: mode}, ("a",), 0), (float("nan"),), SmplDims(n=1))


class TestSwitchProbe:
    def test_keyword_construction_and_field_names(self):
        probe = SwitchProbe(prev_mode=None, x=(1.0,), u=(), v=(), w="a", r=(), p=(2.0,))
        assert SwitchProbe._fields == ("prev_mode", "x", "u", "v", "w", "r", "p")
        assert probe == SwitchProbe(None, (1.0,), (), (), "a", (), (2.0,))
        assert (probe.prev_mode, probe.x, probe.w, probe.p) == (None, (1.0,), "a", (2.0,))

    def test_symbol_liveness_steps_only_the_modes_of_the_symbol(self):
        calls = []

        class Counted(MatrixForm):
            def eval_state(self, x, u=()):
                calls.append(self)
                return super().eval_state(x, u)

        form = identity_system().modes[1].form
        mode = MatrixMode(Counted(form.A, form.B, form.C, form.D))
        other = MatrixMode(Counted(form.A, form.B, form.C, form.D))
        rule = symbol_liveness_rule({1: mode, 2: other, 3: mode}, ("go", "stop", "go"), 0)
        probe = SwitchProbe(None, (1.0, 2.0), (), (), "go", (), ())
        assert [cand.mode for cand in rule.successor_set(probe)] == [1, 3]
        assert len(calls) == 2 and all(c is mode.form for c in calls)
        assert rule.successor_set(probe._replace(w="halt")) == ()
        assert len(calls) == 2


# What a rule yields: a bare mode index, or a Candidate whose tag tells
# apart the candidates of one mode.
_yielded = st.one_of(
    st.integers(1, 5),
    st.builds(lambda mode, tag: Candidate(mode, (float(tag),)), st.integers(1, 5), st.integers(0, 9)),
)


class TestSuccessorSet:
    @settings(max_examples=200)
    @given(st.lists(_yielded, max_size=6), st.booleans())
    def test_same_candidates_as_the_dict_and_sort(self, yielded, as_generator):
        rule = SwitchingRule(
            kind=SwitchingKind.STATE_DEPENDENT_AUTONOMOUS,
            successors=lambda probe: (c for c in yielded) if as_generator else list(yielded),
        )
        probe = SwitchProbe(None, (), (), (), None, (), ())
        got = rule.successor_set(probe)
        assert got == successor_set_by_dict(rule, probe)
        assert type(got) is tuple and all(type(cand) is Candidate for cand in got)
        # each mode keeps its first yielded candidate
        first = {}
        for cand in yielded:
            cand = cand if isinstance(cand, Candidate) else Candidate(cand)
            first.setdefault(cand.mode, cand)
        assert got == tuple(first[mode] for mode in sorted(first))

    def test_duplicates_and_an_empty_result(self):
        probe = SwitchProbe(None, (), (), (), None, (), ())
        for yielded, want in (
            ([], ()),
            ([3], (Candidate(3),)),
            ([Candidate(2, (1.0,)), 2, Candidate(2, (2.0,))], (Candidate(2, (1.0,)),)),
            ([3, 1, Candidate(1, (5.0,)), 3], (Candidate(1), Candidate(3))),
        ):
            rule = SwitchingRule(kind=SwitchingKind.STATE_DEPENDENT_AUTONOMOUS, successors=lambda p, y=yielded: y)
            assert rule.successor_set(probe) == want == successor_set_by_dict(rule, probe)


class TestSimulate:
    def test_word_aab_reaches_the_automaton_output(self, gaubert):
        system = from_mpa(gaubert)
        trace = simulate(system, word_inputs(word("aab")))
        assert trace.completed
        assert trace.records[-1].y == (14.0,)
        assert [rec.mode for rec in trace.records] == [1, 1, 2]

    def test_production_first_step(self, production):
        trace = simulate(production, (StepInput(w="l1"),))
        assert trace.records[0].x == (1.0, 2.0, 4.0)
        assert trace.records[0].y == (4.0,)

    def test_empty_input_gives_an_empty_trace(self, production):
        trace = simulate(production, ())
        assert trace.records == () and trace.completed

    def test_halt_is_recorded_with_its_step(self, gaubert):
        system = from_mpa(gaubert)
        trace = simulate(system, word_inputs(word("abaaa")))
        assert trace.halted_at == 5
        assert len(trace.records) == 4

    def test_halting_matches_empty_successor_sets(self, gaubert):
        # dead on the first symbol, or after three a's in a row
        system = from_mpa(gaubert)
        for text in ("b", "ba", "aaa", "abaaa", "aabaa"):
            trace = simulate(system, word_inputs(word(text)))
            x = system.x0
            expected_halt = None
            for k, symbol in enumerate(word(text), start=1):
                mode = 1 if symbol == "a" else 2
                x = system.modes[mode].form.eval_state(x, ())
                if all(v == EPS for v in x):
                    expected_halt = k
                    break
            assert trace.halted_at == expected_halt


class TestFromMpa:
    def test_matrices_are_transposed_weights(self, gaubert):
        system = from_mpa(gaubert)
        assert system.n_modes == 2
        assert system.modes[1].form.A[0] == gaubert.mu["a"].transpose()
        assert system.modes[2].form.A[0] == gaubert.mu["b"].transpose()
        assert system.modes[1].form.C[0].row(0) == gaubert.beta
        assert system.x0 == gaubert.alpha
        assert system.switching.kind is SwitchingKind.CONSTRAINED

    def test_single_state_automaton_becomes_a_scalar_recursion(self):
        a = MaxPlusAutomaton(
            states=("s",),
            alphabet=("a",),
            alpha=(0.0,),
            mu={"a": TropicalMatrix.from_rows([[3.0]])},
            beta=(0.0,),
        )
        system = from_mpa(a)
        trace = simulate(system, word_inputs(("a", "a", "a")))
        assert [rec.x for rec in trace.records] == [(3.0,), (6.0,), (9.0,)]

    def test_behaviour_matches_on_every_word_up_to_six(self, gaubert):
        system = from_mpa(gaubert)
        for length in range(1, 7):
            for w in itertools.product(gaubert.alphabet, repeat=length):
                trace = simulate(system, word_inputs(w))
                accepted = accepts(gaubert, w)
                if accepted:
                    assert trace.completed
                    assert trace.records[-1].y == (eval_output(gaubert, w),)
                if trace.completed:
                    assert trace.records[-1].y == (eval_output(gaubert, w),)
                assert accepted == (
                    trace.completed and trace.records[-1].y[0] != EPS
                )


class TestClassification:
    def test_translated_automaton_is_constrained(self, gaubert):
        assert classify_switching(from_mpa(gaubert)) is SwitchingKind.CONSTRAINED

    def test_constant_rule_validates_as_state_dependent_autonomous(self):
        mode = MatrixMode.from_parts(a=[[0.0]], c=[[0.0]])
        rule = SwitchingRule(
            kind=SwitchingKind.STATE_DEPENDENT_AUTONOMOUS,
            successors=lambda probe: [1],
        )
        system = SmplSystem(
            n_modes=1,
            modes={1: mode},
            switching=rule,
            x0=(0.0,),
            dims=SmplDims(n=1),
        )
        assert (
            classify_switching(system)
            is SwitchingKind.STATE_DEPENDENT_AUTONOMOUS
        )

    def test_feedback_demo_is_constrained_under_every_seed(self, feedback):
        # continuous inputs are finite, so probes never draw an EPS u that
        # symbol liveness would see through B (x) u
        for seed in range(200):
            assert classify_switching(feedback, seed=seed) is SwitchingKind.CONSTRAINED, seed

    def test_rule_reading_v_fails_a_kind_that_forbids_it(self):
        mode = MatrixMode.from_parts(a=[[0.0]], c=[[0.0]])

        def v_sensitive(probe: SwitchProbe):
            return [1] if probe.v and probe.v[0] != EPS else []

        bad = SmplSystem(
            n_modes=1,
            modes={1: mode},
            switching=SwitchingRule(
                kind=SwitchingKind.CONSTRAINED, successors=v_sensitive
            ),
            x0=(0.0,),
            dims=SmplDims(n=1, n_v=1),
        )
        with pytest.raises(SwitchingClassificationError):
            classify_switching(bad)
        good = SmplSystem(
            n_modes=1,
            modes={1: mode},
            switching=SwitchingRule(
                kind=SwitchingKind.CONSTRAINED_CONTROLLED, successors=v_sensitive
            ),
            x0=(0.0,),
            dims=SmplDims(n=1, n_v=1),
        )
        assert classify_switching(good) is SwitchingKind.CONSTRAINED_CONTROLLED


class TestProperties:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.one_of(st.just(EPS), st.integers(-5, 9).map(float)),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.integers(-4, 4).map(float), min_size=3, max_size=3),
    )
    def test_mode_dynamics_are_monotone(self, base, bump):
        from maxplushybrid.fixtures import gaubert_mpa

        system = from_mpa(gaubert_mpa())
        x = tuple(base)
        x_larger = tuple(b + abs(d) for b, d in zip(base, bump))
        for mode in (1, 2):
            lo = system.modes[mode].form.eval_state(x, ())
            hi = system.modes[mode].form.eval_state(x_larger, ())
            assert vec_leq(lo, hi)

    def test_finite_components_strictly_increase_along_production_runs(
        self, production
    ):
        rng = random.Random(11)
        for _ in range(25):
            inputs = tuple(
                StepInput(w=rng.choice(("l1", "l2"))) for _ in range(12)
            )
            trace = simulate(production, inputs)
            previous = production.x0
            for rec in trace.records:
                for before, after in zip(previous, rec.x):
                    if before != EPS and after != EPS:
                        assert after > before
                previous = rec.x


class TestAlphabet:
    def test_the_distinct_symbols_in_mode_order(self):
        mode = identity_system().modes[1]
        rule = symbol_liveness_rule({1: mode, 2: mode, 3: mode}, ("b", "a", "b"), 0)
        assert rule.symbols == ("b", "a", "b")
        assert rule.alphabet == ("b", "a")
        assert SwitchingRule(SwitchingKind.STATE_DEPENDENT_AUTONOMOUS, lambda probe: (1,)).alphabet == ()


class TestStaticFeedback:
    def test_a_one_by_three_gain_reads_all_three_states(self):
        gain = TropicalMatrix.from_rows([[1.0, EPS, -2.0]])
        mode = MatrixMode.from_parts(
            a=[[0.0, EPS, EPS], [EPS, 1.0, EPS], [EPS, EPS, 2.0]],
            c=[[0.0, 0.0, 0.0]],
            b=[[0.0], [EPS], [3.0]],
            d=[[EPS]],
        )
        rule = symbol_liveness_rule({1: mode}, ("a",), 1)
        controller = static_feedback(gain)
        assert controller.spec == {"type": "static_feedback", "gain": gain}
        system = SmplSystem(1, {1: mode}, rule, (4.0, 7.0, 5.0), SmplDims(n=3, n_u=1), controller)
        trace = simulate(system, word_inputs("aaa"))
        assert len(trace.records) == 3
        x = system.x0
        for rec in trace.records:
            u = max(1.0 + x[0], -2.0 + x[2])
            x = (max(x[0], u), x[1] + 1.0, max(x[2] + 2.0, u + 3.0))
            assert (rec.u, rec.x) == ((u,), x)
        h = from_smpl_closed(system)
        assert h.n == 1 + 3 + 1
        assert [h.x_of(rec.x) for rec in run(h, word_inputs("aaa")).records] == [rec.x for rec in trace.records]
