import dataclasses
import importlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxplushybrid
from maxplushybrid import fixtures
from maxplushybrid.equivalence import (
    MahaBehaviour,
    MpaBehaviour,
    SmplBehaviour,
    _bisimulation_pairs,
    _simulation_pairs,
    behavioural_inclusion_upto,
    bisimulation,
    exhaustive_words,
    greatest_simulation,
    language_equal_exact,
    language_equal_upto,
)
from maxplushybrid.finite import FiniteAutomaton, make_delta
from maxplushybrid.hybrid import finite_abstraction, from_smpl_closed, from_smpl_open, mpa_chain_abstraction, run
from maxplushybrid.mpa import to_finite_abstraction
from maxplushybrid.smpl import (
    MatrixMode,
    SmplSystem,
    StepInput,
    Stepper,
    StepRecord,
    from_mpa,
    simulate,
    static_feedback,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix
from oracles import (
    behavioural_inclusion_by_replay,
    behavioural_inclusion_by_trie,
    bisimulation_by_rounds,
    language_equal_by_word_sets,
    language_upto,
    outputs,
    random_nfa,
    relation_by_rescan,
    simulation_without_image_memo,
    widen_nfa,
    word_value_by_paths,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

    def test_bounded_check_decides_pairs_above_the_cap(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        generators = importlib.import_module("generators")
        line = finite_abstraction(from_smpl_open(generators.line_smpl(maxplushybrid, (2.0,) * 24)))
        mutant = generators.fa_mutant(maxplushybrid, line, "transition", ("q1.x24", "l2", "q2.x24"))
        assert len(line.states) == 48
        with pytest.raises(ValueError, match="limited to 12 states"):
            language_equal_exact(line, mutant)
        assert language_equal_upto(line, line, 6) == (True, None)
        for left, right in ((line, mutant), (mutant, line)):
            assert language_equal_upto(left, right, 6) == (False, ("l2",))
            assert language_equal_by_word_sets(left, right, 6) == (False, ("l2",))

    def test_agrees_with_the_bounded_check_on_random_pairs(self):
        # Exact true means bounded true at every bound; an exact witness
        # that fits the bound is the bounded witness, a longer one is not seen.
        rng = random.Random(13)
        for _ in range(30):
            fa1, fa2 = random_nfa(rng), random_nfa(rng)
            exact = language_equal_exact(fa1, fa2)
            for bound in range(9):
                if exact[0] or len(exact[1]) > bound:
                    assert language_equal_upto(fa1, fa2, bound) == (True, None)
                else:
                    assert language_equal_upto(fa1, fa2, bound) == exact


class TestSimulation:
    def test_reflexive_identity_pairs(self, gaubert):
        at = to_finite_abstraction(gaubert)
        witness = greatest_simulation(at, at)
        assert witness is not None
        for s in at.states:
            assert (s, s) in witness.pairs

    def test_weight_free_vs_fused_abstraction_matches_indices(self, gaubert):
        at = to_finite_abstraction(gaubert)
        hoat = mpa_chain_abstraction(from_smpl_open(from_mpa(gaubert)))
        witness = greatest_simulation(at, hoat)
        assert witness is not None
        for s in at.states:
            for mode in (1, 2):
                assert (s, f"q{mode}.x{s}") in witness.pairs

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
            assert (s, s) in witness.pairs

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


SYMBOLS = ("a", "b", "c")


@st.composite
def small_nfas(draw, symbols):
    """1-7 states named s0, s1, ..., so two draws share state names; any
    transitions (states without successors included), possibly empty
    initial and final sets, and the alphabet in any order."""
    states = tuple(f"s{i}" for i in range(draw(st.integers(1, 7))))
    state = st.sampled_from(states)
    triples = draw(st.lists(st.tuples(state, st.sampled_from(symbols), state), max_size=3 * len(states)))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(draw(st.permutations(symbols))),
        delta=make_delta(triples),
        initial=draw(st.frozensets(state)),
        final=draw(st.frozensets(state)),
    )


@st.composite
def nfa_pairs(draw):
    symbols = SYMBOLS[: draw(st.integers(1, 3))]
    fa1 = draw(small_nfas(symbols))
    if draw(st.booleans()):
        return fa1, draw(small_nfas(symbols))
    # a widened copy, under a reordered alphabet, so a witness exists
    rng = random.Random(draw(st.integers(0, 10_000)))
    fa2 = widen_nfa(rng, fa1)
    return fa1, dataclasses.replace(fa2, alphabet=tuple(draw(st.permutations(symbols))))


def pairs_of(witness):
    return None if witness is None else set(witness.pairs)


class TestLanguageAgainstWordSets:
    """The bounded walk must return the verdict and witness of the
    comparison of both sides' accepted word sets."""

    @settings(max_examples=400, deadline=None)
    @given(nfa_pairs(), st.integers(0, 6))
    @example(
        (
            fa_from([("s", "a", "s")], initial=["s"], final=["s"], states=("s",)),
            fa_from([("s", "a", "s")], initial=["s"], final=[], states=("s",)),
        ),
        0,
    )
    def test_same_verdict_and_witness_as_the_word_sets(self, pair, max_len):
        fa1, fa2 = pair
        for left, right in ((fa1, fa2), (fa2, fa1), (fa1, fa1)):
            assert language_equal_upto(left, right, max_len) == language_equal_by_word_sets(left, right, max_len)


class TestRelationsAgainstRescan:
    """The worklist simulation and the partition-refinement bisimulation
    must return exactly the pairs of the rescan-until-stable fixpoint."""

    @settings(max_examples=400, deadline=None)
    @given(nfa_pairs())
    def test_same_pairs_as_the_rescan(self, pair):
        fa1, fa2 = pair
        for left, right in ((fa1, fa2), (fa2, fa1), (fa1, fa1)):
            assert pairs_of(greatest_simulation(left, right)) == relation_by_rescan(left, right, symmetric=False)
            assert pairs_of(bisimulation(left, right)) == relation_by_rescan(left, right, symmetric=True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 3))
    def test_same_pairs_on_widened_random_automata(self, seed, n, n_symbols):
        rng = random.Random(seed)
        fa1 = random_nfa(rng, n_states=n, symbols=SYMBOLS[:n_symbols])
        fa2 = widen_nfa(rng, fa1)
        fa3 = widen_nfa(rng, fa2)
        for left, right in ((fa1, fa2), (fa2, fa1), (fa1, fa3), (fa2, fa3)):
            assert pairs_of(greatest_simulation(left, right)) == relation_by_rescan(left, right, symmetric=False)
            assert pairs_of(bisimulation(left, right)) == relation_by_rescan(left, right, symmetric=True)
        assert greatest_simulation(fa1, fa2) is not None

    def test_shared_state_names_stay_apart(self):
        # Read as one automaton over the shared names, x would have both
        # moves on each side and every (s, s) pair would hold.
        fa1 = fa_from([("x", "a", "y")], initial=["x"], final=["y"], states=("x", "y"))
        fa2 = fa_from([("x", "b", "y")], initial=["x"], final=["y"], states=("x", "y"))
        for left, right in ((fa1, fa2), (fa2, fa1)):
            assert bisimulation(left, right) is None
            assert greatest_simulation(left, right) is None
            assert relation_by_rescan(left, right, symmetric=True) is None
        # the same two names in swapped roles: each state pairs with the other name
        fa3 = fa_from([("x", "a", "y"), ("y", "a", "x")], initial=["x"], final=["x"], states=("x", "y"))
        fa4 = fa_from([("x", "a", "y"), ("y", "a", "x")], initial=["y"], final=["y"], states=("x", "y"))
        assert bisimulation(fa3, fa4).pairs == {("x", "y"), ("y", "x")}

    def test_lines_with_other_processing_times_pair_only_equal_states(self, monkeypatch):
        # The benchmark expects the identity as the greatest bisimulation
        # between one-step abstractions of lines of four or more stations.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        generators = importlib.import_module("generators")
        rng = random.Random(5)
        for k in (4, 5, 8, 12):
            fa1, fa2 = (
                finite_abstraction(from_smpl_open(generators.line_smpl(maxplushybrid, generators.line_taus(rng, k))))
                for _ in range(2)
            )
            assert bisimulation(fa1, fa2).pairs == {(s, s) for s in fa1.states}
        # Three stations: the first two stations' labels are bisimilar
        # within each mode.
        fa1, fa2 = (
            finite_abstraction(from_smpl_open(fixtures.production_line_smpl(tau)))
            for tau in ((1.0, 2.0, 3.0), (4.0, 1.0, 7.0))
        )
        merged = {(f"q{q}.x{i}", f"q{q}.x{j}") for q in (1, 2) for i in (1, 2) for j in (1, 2)}
        assert bisimulation(fa1, fa2).pairs == {(s, s) for s in fa1.states} | merged


class TestRelationsAgainstTheirOracles:
    """The simulation with shared preimages and the split-driven
    bisimulation return exactly the pairs of the code they replaced, and
    no witness wherever that code's pairs leave an initial state
    unmatched."""

    @staticmethod
    def assert_same_as_the_oracles(fa1, fa2):
        for left, right in ((fa1, fa2), (fa2, fa1)):
            sim = simulation_without_image_memo(left, right)
            bis = bisimulation_by_rounds(left, right)
            assert _simulation_pairs(left, right) == sim
            assert _bisimulation_pairs(left, right) == bis
            matched = all(any((s1, s2) in sim for s2 in right.initial) for s1 in left.initial)
            assert pairs_of(greatest_simulation(left, right)) == (sim if matched else None)
            matched = all(any((s1, s2) in bis for s2 in right.initial) for s1 in left.initial) and all(
                any((s1, s2) in bis for s1 in left.initial) for s2 in right.initial
            )
            assert pairs_of(bisimulation(left, right)) == (bis if matched else None)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 24),
        st.integers(1, 3),
        st.sampled_from([0.35, 0.1, 0.04]),
        st.booleans(),
    )
    def test_random_and_widened_nfas(self, seed, n, n_symbols, density, widen):
        # Sparse draws refine slowly enough to reach the worklist.
        rng = random.Random(seed)
        symbols = SYMBOLS[:n_symbols]
        fa1 = random_nfa(rng, n_states=n, symbols=symbols, density=density)
        if widen:
            fa2 = widen_nfa(rng, fa1)
        else:
            fa2 = random_nfa(rng, n_states=rng.randint(1, 24), symbols=symbols, density=density)
        self.assert_same_as_the_oracles(fa1, fa2)

    @pytest.mark.parametrize("k", [3, 4, 6, 12, 24, 48])
    def test_production_lines_and_planted_faults(self, k, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        generators = importlib.import_module("generators")
        rng = random.Random(k)
        fa1, fa2 = (
            finite_abstraction(from_smpl_open(generators.line_smpl(maxplushybrid, generators.line_taus(rng, k))))
            for _ in range(2)
        )
        self.assert_same_as_the_oracles(fa1, fa2)
        flipped = rng.choice(sorted(fa2.states))
        dropped = rng.choice(sorted((s, a, t) for (s, a), targets in fa2.delta.items() for t in targets))
        for kind, target in (("final", flipped), ("transition", dropped)):
            self.assert_same_as_the_oracles(fa1, generators.fa_mutant(maxplushybrid, fa2, kind, target))

    @pytest.mark.parametrize("m", [13, 21, 34])
    def test_cycles_whose_blocks_split_over_many_passes(self, m):
        # Final states m apart on a cycle of a-steps, b two steps ahead:
        # each pass splits off a few more distances to a final state, in
        # both automata, so the rounds hand over to the worklist.
        def cycle(n, final):
            states = tuple(f"c{i}" for i in range(n))
            triples = [(states[i], "a", states[(i + 1) % n]) for i in range(n)]
            triples += [(states[i], "b", states[(i + 2) % n]) for i in range(n)]
            return fa_from(triples, initial=[states[0]], final=[states[i] for i in final], states=states)

        base = cycle(m, [m - 1])
        unrolled = cycle(2 * m, [m - 1, 2 * m - 1])
        for other in (unrolled, cycle(3 * m, [m - 1, 2 * m - 1, 3 * m - 1]), cycle(m + 1, [m]), cycle(2 * m, [m - 1])):
            self.assert_same_as_the_oracles(base, other)
        same_place = {(f"c{i}", f"c{j}") for i in range(m) for j in range(2 * m) if i == j % m}
        assert bisimulation(base, unrolled).pairs == same_place

    def test_a_block_that_splits_three_ways_in_one_pass(self):
        # a-chain states reach the final a20 by a-steps, b-chain states the
        # final b20 by b-steps, and the other symbol leads back to a
        # chain's start, so a5 and b5 leave the block of far states in the
        # same pass, long after the rounds have handed over.  The c-block
        # then splits three ways: x1 and x2 (into a5), x3 (into b5) and y,
        # which is not re-signed because a0 stays.
        triples = [("x1", "c", "a5"), ("x2", "c", "a5"), ("x3", "c", "b5"), ("y", "c", "a0")]
        for i in range(20):
            triples += [(f"a{i}", "a", f"a{i + 1}"), (f"a{i}", "b", "a0")]
            triples += [(f"b{i}", "b", f"b{i + 1}"), (f"b{i}", "a", "b0")]
        fa = fa_from(triples, initial=["x1"], final=["a20", "b20"], alphabet=("a", "b", "c"))
        self.assert_same_as_the_oracles(fa, fa)
        pairs = bisimulation(fa, fa).pairs
        assert ("x1", "x2") in pairs
        assert not {("x3", "y"), ("x1", "x3"), ("x1", "y")} & pairs


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
        mutant = dataclasses.replace(system, controller=static_feedback(gain))
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
        # "b" kills every path; "a" is not accepted but "ab" is.  A run
        # halts only where every path has died, so "a" is in each model's
        # behaviour, with output EPS, and "b" in none.
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
        assert {outputs(t) for t in traces["a"]} == {((EPS,),)}
        assert {outputs(t) for t in traces["ab"]} == {((EPS,), (12.0,))}
        seqs = [word_inputs(text) for text in ("a", "b", "ab", "ba")]
        models = MpaBehaviour(gaubert), SmplBehaviour(system), MahaBehaviour(from_smpl_open(system))
        for sys1, sys2 in itertools.permutations(models, 2):
            assert behavioural_inclusion_upto(sys1, sys2, seqs) == (True, None)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_traces_match_the_models_own_runs(self, seed, n):
        a = fixtures.random_mpa(random.Random(seed), n_states=n)
        system = from_mpa(a)
        h = from_smpl_open(system)

        def outputs_of(trace):
            return None if trace is None else outputs(trace)

        # accepts exactly the words after which a's row keeps a finite entry
        reaching = dataclasses.replace(a, beta=(0.0,) * a.n)
        for w in exhaustive_words(a.alphabet, 4):
            inputs = word_inputs(w)
            values = tuple((word_value_by_paths(a, w[:k]),) for k in range(1, len(w) + 1))
            want = values if word_value_by_paths(reaching, w) != EPS else None
            assert outputs_of(MpaBehaviour(a).trace(inputs)) == want
            simulated = simulate(system, inputs)
            assert outputs_of(SmplBehaviour(system).trace(inputs)) == (
                outputs(simulated) if simulated.completed else None
            ) == want
            ran = run(h, inputs)
            assert outputs_of(MahaBehaviour(h).trace(inputs)) == (outputs(ran) if ran.completed else None) == want

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


class TestTranslationsInBothOrders:
    """A model and its translations include each other's behaviour: each
    halts where the others do and outputs what they do at every step."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_every_automaton_against_both_its_translations(self, seed, n):
        a = fixtures.random_mpa(random.Random(seed), n_states=n)
        system = from_mpa(a)
        automaton = MpaBehaviour(a)
        for translation in (SmplBehaviour(system), MahaBehaviour(from_smpl_open(system))):
            for bound in range(1, 7):
                seqs = [word_inputs(w) for w in exhaustive_words(a.alphabet, bound)]
                for sys1, sys2 in ((automaton, translation), (translation, automaton)):
                    assert behavioural_inclusion_upto(sys1, sys2, seqs) == (
                        behavioural_inclusion_by_trie(sys1, sys2, seqs)
                    ) == (True, None)

    def test_the_bundled_models_at_bound_8(self, gaubert, production):
        system = from_mpa(gaubert)
        for symbols, model, translation in (
            (gaubert.alphabet, MpaBehaviour(gaubert), SmplBehaviour(system)),
            (gaubert.alphabet, MpaBehaviour(gaubert), MahaBehaviour(from_smpl_open(system))),
            (("l1", "l2"), SmplBehaviour(production), MahaBehaviour(from_smpl_open(production))),
        ):
            seqs = [word_inputs(w) for w in exhaustive_words(symbols, 8)]
            assert behavioural_inclusion_upto(model, translation, seqs) == (True, None)
            assert behavioural_inclusion_upto(translation, model, seqs) == (True, None)


def input_fields(inp):
    return (inp.u, inp.v, inp.w, inp.r, inp.p)


class Recorder(Stepper):
    """A stepper over any inputs that logs every step it takes.  It halts
    on the inputs in halts; its output is the fields of the inputs read
    so far, an input in renamed written differently."""

    def __init__(self, halts=(), renamed=()):
        self.halts, self.renamed = set(halts), set(renamed)
        self.stepped = []

    def init(self):
        return StepRecord(0, None, (), (), ())

    def step(self, state, inp):
        self.stepped.append(inp)
        key = input_fields(inp)
        if key in self.halts:
            return None
        seen = ("renamed", key) if key in self.renamed else key
        return StepRecord(state.k + 1, 1, (key,), state.y + (seen,), (1,))


# Inputs that a key built from u ++ r ++ p, or from w alone, would merge.
_POOL = (
    dict(w="a"),
    dict(w="b"),
    dict(w="a", u=(1.0,)),
    dict(w="a", r=(1.0,)),
    dict(w="a", p=(1.0,)),
    dict(w="a", r=(2.0,)),
    dict(w="a", p=(2.0,)),
    dict(w="a", u=(1.0,), r=(1.0,)),
)


def fresh(indices):
    """New StepInput objects, equal to the pool's, for each index."""
    return tuple(StepInput(**_POOL[i]) for i in indices)


class TestWalkInputKeys:
    """The walk keys a prefix by its inputs: equal inputs share one prefix
    whatever the objects, unequal inputs never do."""

    def test_equal_but_distinct_inputs_share_one_prefix(self):
        sys1, sys2 = Recorder(), Recorder()
        seqs = [fresh([3]), fresh([3, 1]), fresh([3, 1]), fresh([3, 1, 4])]
        assert seqs[0][0] is not seqs[1][0]
        assert behavioural_inclusion_upto(sys1, sys2, seqs) == (True, None)
        assert [input_fields(inp) for inp in sys1.stepped] == [input_fields(inp) for inp in fresh([3, 1, 4])]
        assert len(sys2.stepped) == 3

    @pytest.mark.parametrize(
        "first, second",
        [(3, 5), (4, 6), (2, 3), (2, 4), (3, 4), (0, 3)],
        ids=["only-r", "only-p", "u-vs-r", "u-vs-p", "r-vs-p", "empty-vs-r"],
    )
    def test_inputs_that_differ_in_one_field_are_separate_prefixes(self, first, second):
        sys1 = Recorder()
        sys2 = Recorder(halts=[input_fields(fresh([second])[0])])
        seqs = [fresh([first]), fresh([second])]
        assert behavioural_inclusion_upto(sys1, sys2, seqs) == (False, seqs[1])
        assert len(sys1.stepped) == 2
        assert behavioural_inclusion_by_replay(sys1, sys2, seqs) == (False, seqs[1])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, len(_POOL) - 1), max_size=4), max_size=12),
        *[st.sets(st.integers(0, len(_POOL) - 1), max_size=3) for _ in range(3)],
    )
    def test_verdict_and_witness_equal_the_replay(self, seqs, halts1, halts2, renamed2):
        def keys(indices):
            return [input_fields(inp) for inp in fresh(sorted(indices))]

        def pair():
            return (
                Recorder(halts=keys(halts1)),
                Recorder(halts=keys(halts2), renamed=keys(renamed2)),
            )

        sequences = [fresh(seq) for seq in seqs]
        assert behavioural_inclusion_upto(*pair(), sequences) == behavioural_inclusion_by_replay(*pair(), sequences)
