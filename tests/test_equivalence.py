import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid import fixtures
from maxplushybrid.equivalence import (
    BehaviourTrace,
    MahaBehaviour,
    MpaBehaviour,
    SmplBehaviour,
    behavioural_inclusion_upto,
    bisimulation,
    exhaustive_words,
    greatest_simulation,
    language_equal_exact,
    language_equal_upto,
    language_upto,
)
from maxplushybrid.finite import FiniteAutomaton, make_delta
from maxplushybrid.hybrid import from_smpl_closed, from_smpl_open, mpa_chain_abstraction, run
from maxplushybrid.mpa import to_finite_abstraction
from maxplushybrid.smpl import (
    MatrixMode,
    SmplSystem,
    StepInput,
    from_mpa,
    simulate,
    static_feedback,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix
from oracles import behavioural_inclusion_by_replay, random_nfa, widen_nfa, word_value_by_paths


def fa_from(triples, initial, final, alphabet=("a", "b"), states=None):
    if states is None:
        states = tuple(sorted({s for s, _, _ in triples} | {t for _, _, t in triples} | set(initial) | set(final)))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(alphabet),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
    )


class TestLanguage:
    def test_weight_free_projection_language(self, gaubert):
        at = to_finite_abstraction(gaubert)
        lang = language_upto(at, 3)
        assert lang == {(), ("a", "b"), ("a", "a", "b"), ("a", "b", "b")}

    def test_no_edges_initial_equals_final(self):
        fa = fa_from([], initial=["s"], final=["s"], states=("s",))
        assert language_upto(fa, 3) == {()}

    def test_unreachable_final_state(self):
        fa = fa_from(
            [("s", "a", "s")], initial=["s"], final=["t"], states=("s", "t")
        )
        assert language_upto(fa, 4) == set()

    def test_equality_is_reflexive(self, gaubert):
        at = to_finite_abstraction(gaubert)
        assert language_equal_upto(at, at, 6) == (True, None)

    def test_removing_a_final_state_is_caught_with_a_witness(self, gaubert):
        at = to_finite_abstraction(gaubert)
        crippled = FiniteAutomaton(
            states=at.states,
            alphabet=at.alphabet,
            delta=at.delta,
            initial=at.initial,
            final=frozenset(),
        )
        equal, witness = language_equal_upto(at, crippled, 6)
        assert not equal
        assert witness == ()  # the empty word is the shortest difference

    def test_alphabet_mismatch(self, gaubert):
        at = to_finite_abstraction(gaubert)
        other = fa_from([("s", "c", "s")], initial=["s"], final=["s"], alphabet=("c",))
        with pytest.raises(ValueError):
            language_equal_upto(at, other, 3)


class TestExactLanguage:
    def test_abstractions_are_exactly_equivalent(self, gaubert):
        at = to_finite_abstraction(gaubert)
        fused = mpa_chain_abstraction(from_smpl_open(from_mpa(gaubert)))
        assert language_equal_exact(at, fused) == (True, None)

    def test_difference_beyond_the_usual_bound_is_found(self):
        # identical up to 7 letters, then one side stops
        long_chain = [(f"c{i}", "a", f"c{i + 1}") for i in range(8)]
        fa1 = fa_from(long_chain, initial=["c0"], final=["c8"], alphabet=("a",))
        fa2 = fa_from(
            [("s", "a", "s")], initial=["s"], final=["s"], alphabet=("a",)
        )
        equal, witness = language_equal_exact(fa1, fa2)
        assert not equal
        assert witness == ()  # fa2 accepts the empty word, fa1 does not
        assert language_equal_exact(fa2, fa2) == (True, None)

    def test_shortest_witness_depth(self):
        fa1 = fa_from(
            [("a0", "a", "a1"), ("a1", "a", "a2")],
            initial=["a0"],
            final=["a0", "a1", "a2"],
            alphabet=("a",),
        )
        fa2 = fa_from(
            [("b0", "a", "b1")],
            initial=["b0"],
            final=["b0", "b1"],
            alphabet=("a",),
        )
        equal, witness = language_equal_exact(fa1, fa2)
        assert not equal and witness == ("a", "a")

    def test_state_cap_is_enforced(self):
        states = tuple(f"s{i}" for i in range(13))
        big = FiniteAutomaton(
            states=states,
            alphabet=("a",),
            delta={},
            initial=frozenset({"s0"}),
            final=frozenset({"s0"}),
        )
        with pytest.raises(ValueError):
            language_equal_exact(big, big)

    def test_agrees_with_the_bounded_check_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(30):
            fa1, fa2 = random_nfa(rng), random_nfa(rng)
            exact_equal, _ = language_equal_exact(fa1, fa2)
            bounded_equal, _ = language_equal_upto(fa1, fa2, 8)
            if exact_equal:
                assert bounded_equal
            if not bounded_equal:
                assert not exact_equal


class TestSimulation:
    def test_reflexive_identity_pairs(self, gaubert):
        at = to_finite_abstraction(gaubert)
        witness = greatest_simulation(at, at)
        assert witness is not None
        for s in at.states:
            assert witness.related(s, s)

    def test_weight_free_vs_fused_abstraction_matches_indices(self, gaubert):
        at = to_finite_abstraction(gaubert)
        hoat = mpa_chain_abstraction(from_smpl_open(from_mpa(gaubert)))
        witness = greatest_simulation(at, hoat)
        assert witness is not None
        for s in at.states:
            for mode in (1, 2):
                assert witness.related(s, f"q{mode}.x{s}")

    def test_chain_not_simulated_without_the_second_symbol(self):
        chain = fa_from(
            [("c0", "a", "c1"), ("c1", "b", "c2")],
            initial=["c0"],
            final=["c2"],
        )
        loop = fa_from([("l0", "a", "l0")], initial=["l0"], final=["l0"])
        assert greatest_simulation(chain, loop) is None

    def test_witness_is_transition_closed(self, gaubert):
        at = to_finite_abstraction(gaubert)
        hoat = mpa_chain_abstraction(from_smpl_open(from_mpa(gaubert)))
        witness = greatest_simulation(at, hoat)
        for s1, s2 in witness.pairs:
            for symbol in at.alphabet:
                for t1 in at.successors(s1, symbol):
                    assert any(
                        (t1, t2) in witness.pairs
                        for t2 in hoat.successors(s2, symbol)
                    )

    def test_simulation_is_transitive_on_fixture_triples(self):
        rng = random.Random(2)
        found = 0
        while found < 5:
            fa1 = random_nfa(rng)
            fa2 = widen_nfa(rng, fa1)
            fa3 = widen_nfa(rng, fa2)
            if greatest_simulation(fa1, fa2) and greatest_simulation(fa2, fa3):
                assert greatest_simulation(fa1, fa3) is not None
                found += 1


class TestBisimulation:
    def test_identity_bisimulation(self, gaubert):
        at = to_finite_abstraction(gaubert)
        witness = bisimulation(at, at)
        assert witness is not None
        for s in at.states:
            assert witness.related(s, s)

    def test_weight_free_vs_fused_abstraction(self, gaubert):
        at = to_finite_abstraction(gaubert)
        hoat = mpa_chain_abstraction(from_smpl_open(from_mpa(gaubert)))
        witness = bisimulation(at, hoat)
        assert witness is not None
        # the witness is a simulation read in either direction
        for s1, s2 in witness.pairs:
            for symbol in at.alphabet:
                for t1 in at.successors(s1, symbol):
                    assert any(
                        (t1, t2) in witness.pairs
                        for t2 in hoat.successors(s2, symbol)
                    )
                for t2 in hoat.successors(s2, symbol):
                    assert any(
                        (t1, t2) in witness.pairs
                        for t1 in at.successors(s1, symbol)
                    )

    def test_equal_language_different_branching_is_not_bisimilar(self):
        merged = fa_from(
            [("m0", "a", "m1"), ("m1", "b", "m2"), ("m1", "c", "m3")],
            initial=["m0"],
            final=["m2", "m3"],
            alphabet=("a", "b", "c"),
        )
        split = fa_from(
            [
                ("s0", "a", "s1"),
                ("s0", "a", "s2"),
                ("s1", "b", "s3"),
                ("s2", "c", "s4"),
            ],
            initial=["s0"],
            final=["s3", "s4"],
            alphabet=("a", "b", "c"),
        )
        assert language_equal_upto(merged, split, 5) == (True, None)
        assert bisimulation(merged, split) is None
        # one direction still simulates
        assert greatest_simulation(split, merged) is not None


class TestSimulationImpliesInclusion:
    def test_simulation_witness_implies_bounded_language_inclusion(self):
        rng = random.Random(7)
        pairs_with_witness = 0
        attempts = 0
        while pairs_with_witness < 20 and attempts < 200:
            attempts += 1
            fa1 = random_nfa(rng)
            fa2 = widen_nfa(rng, fa1) if attempts % 2 else random_nfa(rng)
            witness = greatest_simulation(fa1, fa2)
            if witness is None:
                continue
            pairs_with_witness += 1
            for bound in range(1, 7):
                assert language_upto(fa1, bound) <= language_upto(fa2, bound)
        assert pairs_with_witness == 20


class TestBehaviouralInclusion:
    def test_automaton_included_in_its_switching_translation(self, gaubert):
        system = from_mpa(gaubert)
        sequences = [word_inputs(w) for w in exhaustive_words(gaubert.alphabet, 6)]
        ok, counterexample = behavioural_inclusion_upto(
            MpaBehaviour(gaubert), SmplBehaviour(system), sequences
        )
        assert ok and counterexample is None

    def test_system_included_in_itself(self, production):
        sequences = [
            word_inputs(w) for w in exhaustive_words(("l1", "l2"), 4)
        ]
        ok, _ = behavioural_inclusion_upto(
            SmplBehaviour(production), SmplBehaviour(production), sequences
        )
        assert ok

    def test_hybrid_translation_included_both_ways(self, production):
        h = from_smpl_open(production)
        sequences = [
            word_inputs(w) for w in exhaustive_words(("l1", "l2"), 4)
        ]
        assert behavioural_inclusion_upto(
            SmplBehaviour(production), MahaBehaviour(h), sequences
        ) == (True, None)
        assert behavioural_inclusion_upto(
            MahaBehaviour(h), SmplBehaviour(production), sequences
        ) == (True, None)

    def test_output_mutation_is_found_with_a_witness(self, gaubert):
        system = from_mpa(gaubert)
        mutated_modes = dict(system.modes)
        form = system.modes[2].form
        mutated_modes[2] = MatrixMode(
            type(form)(
                A=form.A,
                B=form.B,
                C=(TropicalMatrix.row_vector((3.0, EPS, EPS)),),
                D=form.D,
            )
        )
        mutated = SmplSystem(
            n_modes=system.n_modes,
            modes=mutated_modes,
            switching=system.switching,
            x0=system.x0,
            dims=system.dims,
        )
        sequences = [word_inputs(w) for w in exhaustive_words(gaubert.alphabet, 4)]
        ok, witness = behavioural_inclusion_upto(
            SmplBehaviour(system), SmplBehaviour(mutated), sequences
        )
        assert not ok
        assert witness is not None
        assert tuple(inp.w for inp in witness) == ("a", "b")

    def test_trace_invariants(self):
        with pytest.raises(ValueError):
            BehaviourTrace(inputs=(1,), outputs=((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            BehaviourTrace(inputs=(1,), outputs=(), halted_at=5)


def planted_mutant(a, rng):
    """One finite transition weight raised by one, or that transition dropped."""
    finite = [(s, i, j) for s in a.alphabet for i in range(a.n) for j in range(a.n) if a.mu[s][i, j] != EPS]
    if not finite:
        return a
    symbol, i, j = rng.choice(finite)
    entries = list(a.mu[symbol].entries)
    entries[i * a.n + j] = EPS if rng.random() < 0.5 else entries[i * a.n + j] + 1.0
    return dataclasses.replace(a, mu={**a.mu, symbol: TropicalMatrix(a.n, a.n, tuple(entries))})


def behaviour_pairs(a, b):
    """(sys1 built from a, sys2 built from b): MPA->SMPL, SMPL->MPA,
    SMPL->MAHA and MAHA->SMPL."""
    sa, sb = from_mpa(a), from_mpa(b)
    return [
        (MpaBehaviour(a), SmplBehaviour(sb)),
        (SmplBehaviour(sa), MpaBehaviour(b)),
        (SmplBehaviour(sa), MahaBehaviour(from_smpl_open(sb))),
        (MahaBehaviour(from_smpl_open(sa)), SmplBehaviour(sb)),
    ]


def scrambled(seqs, rng):
    """Some sequences dropped (so some prefixes never come up on their own),
    some repeated, and the order shuffled."""
    kept = [seq for seq in seqs if rng.random() < 0.6]
    kept += rng.sample(kept, len(kept) // 4)
    rng.shuffle(kept)
    return kept


class TestSharedPrefixWalk:
    """The walk steps each prefix once; replaying every sequence from the
    start must give the same verdict and the same first witness."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_agrees_with_replay_on_planted_mutants(self, seed, n):
        rng = random.Random(seed)
        a = fixtures.random_mpa(rng, n_states=n)
        mutant = planted_mutant(a, rng)
        exhaustive = [word_inputs(w) for w in exhaustive_words(a.alphabet, 4)]
        for order in (exhaustive, scrambled(exhaustive, rng)):
            for first, second in ((a, mutant), (mutant, a)):
                for sys1, sys2 in behaviour_pairs(first, second):
                    assert behavioural_inclusion_upto(sys1, sys2, order) == (
                        behavioural_inclusion_by_replay(sys1, sys2, order)
                    )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agrees_with_replay_on_sampled_closed_loop_inputs(self, seed):
        rng = random.Random(seed)
        system = fixtures.feedback_demo_smpl()
        gain = TropicalMatrix.from_rows([[float(rng.randint(-2, 2)), float(rng.randint(-2, 2))]])
        mutant = dataclasses.replace(system, controller=static_feedback(gain, n=2))
        sampled = [
            tuple(
                StepInput(w=rng.choice(("m1", "m2")), u=(float(rng.randint(-3, 6)),))
                for _ in range(rng.randint(1, 6))
            )
            for _ in range(40)
        ]
        kinds = {"smpl": SmplBehaviour, "maha": lambda s: MahaBehaviour(from_smpl_closed(s))}
        for order in (sampled, sorted(sampled, key=len)):
            for first, second in ((system, mutant), (mutant, system)):
                for kind1, kind2 in (("smpl", "maha"), ("maha", "smpl"), ("smpl", "smpl")):
                    sys1, sys2 = kinds[kind1](first), kinds[kind2](second)
                    assert behavioural_inclusion_upto(sys1, sys2, order) == (
                        behavioural_inclusion_by_replay(sys1, sys2, order)
                    )

    def test_dead_and_incomplete_prefixes_differ(self, gaubert):
        # "b" kills every path; "a" is not accepted but "ab" is
        system = from_mpa(gaubert)
        traces = {
            text: (
                MpaBehaviour(gaubert).trace(word_inputs(text)),
                SmplBehaviour(system).trace(word_inputs(text)),
                MahaBehaviour(from_smpl_open(system)).trace(word_inputs(text)),
            )
            for text in ("b", "a", "ab")
        }
        assert traces["b"] == (None, None, None)
        assert traces["a"][0] is None
        assert traces["a"][1].outputs == traces["a"][2].outputs == ((EPS,),)
        assert {t.outputs for t in traces["ab"]} == {((EPS,), (12.0,))}
        witness = (StepInput(w="a"), StepInput(w="b"))
        assert behavioural_inclusion_upto(
            MpaBehaviour(gaubert), SmplBehaviour(system), [word_inputs("a"), witness]
        ) == (True, None)
        assert behavioural_inclusion_upto(
            SmplBehaviour(system), MpaBehaviour(gaubert), [witness, word_inputs("a")]
        ) == (False, word_inputs("a"))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_traces_match_the_models_own_runs(self, seed, n):
        a = fixtures.random_mpa(random.Random(seed), n_states=n)
        system = from_mpa(a)
        h = from_smpl_open(system)

        def outputs(trace):
            return None if trace is None else trace.outputs

        for w in exhaustive_words(a.alphabet, 4):
            inputs = word_inputs(w)
            values = tuple((word_value_by_paths(a, w[:k]),) for k in range(1, len(w) + 1))
            assert outputs(MpaBehaviour(a).trace(inputs)) == (None if values[-1] == (EPS,) else values)
            simulated = simulate(system, inputs)
            want = simulated.outputs() if simulated.completed else None
            assert outputs(SmplBehaviour(system).trace(inputs)) == want
            ran = run(h, inputs)
            assert outputs(MahaBehaviour(h).trace(inputs)) == (ran.outputs() if ran.completed else None)

    def test_max_plus_automata_reject_missing_and_unknown_symbols(self, gaubert, production):
        automaton = MpaBehaviour(gaubert)
        system = SmplBehaviour(from_mpa(gaubert))
        for bad in ((StepInput(w="a"), StepInput()), word_inputs(("a", "c"))):
            with pytest.raises(ValueError):
                automaton.trace(bad)
            with pytest.raises(ValueError):
                behavioural_inclusion_upto(automaton, system, [bad])
        with pytest.raises(ValueError, match="unknown symbol 'l1'"):
            behavioural_inclusion_upto(SmplBehaviour(production), automaton, [word_inputs(("l1",))])
