"""Bounded behaviour checks share the children of prefixes whose pairs of
states agree up to one constant (equivalence.behavioural_inclusion_upto).
Verdict and witness must equal those of the plain trie walk
(oracles.behavioural_inclusion_by_trie), which steps every distinct
prefix, and the walk must key no model whose runs are not shift-invariant
in floats.  The steppers only say whether their runs are (shift_exact);
the key is equivalence.normalised_pair's."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplushybrid import fixtures
from maxplushybrid.equivalence import MahaBehaviour, MpaBehaviour, SmplBehaviour, behavioural_inclusion_upto
from maxplushybrid.equivalence import exhaustive_words, normalised_pair
from maxplushybrid.hybrid import WrongProvenance, from_smpl_closed, from_smpl_open, mpa_chain_abstraction
from maxplushybrid.mpa import MaxPlusAutomaton
from maxplushybrid.serialization import ModelFormatError, smpl_body
from maxplushybrid.smpl import (
    MatrixMode,
    SmplDims,
    SmplSystem,
    StepInput,
    Stepper,
    StepRecord,
    SwitchingKind,
    SwitchingRule,
    externally_driven_rule,
    from_mpa,
    static_feedback,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, EXACT_STATE, EXACT_STEPS, TOP, TropicalMatrix
from oracles import behavioural_inclusion_by_trie


class Counting(Stepper):
    """inner's runs, counting the steps taken.  It does not forward
    inner's program (Stepper.program is None), so every behaviour check on
    it steps, which is what these tests count; CountingProgram does."""

    def __init__(self, inner):
        self.inner, self.steps = inner, 0

    def init(self):
        return self.inner.init()

    def step(self, state, inp):
        self.steps += 1
        return self.inner.step(state, inp)

    @property
    def shift_exact(self):
        return self.inner.shift_exact


class CountingProgram(Counting):
    """Counting, with inner's program, so that a behaviour check may pass
    sequences over without a step."""

    @property
    def program(self):
        return self.inner.program


def agrees(sys1, sys2, seqs):
    """The walk's verdict, after checking it against the trie walk's and
    that the walk stepped no more than the trie walk did."""
    walk, trie = (Counting(sys1), Counting(sys2)), (Counting(sys1), Counting(sys2))
    got = behavioural_inclusion_upto(*walk, seqs)
    assert got == behavioural_inclusion_by_trie(*trie, seqs)
    assert walk[0].steps + walk[1].steps <= trie[0].steps + trie[1].steps
    return got


def kinds(a):
    """An automaton's stepper and those of its smpl and maha translations."""
    system = from_mpa(a)
    return {"mpa": MpaBehaviour(a), "smpl": SmplBehaviour(system), "maha": MahaBehaviour(from_smpl_open(system))}


def with_weight(a, symbol, i, j, w):
    entries = list(a.mu[symbol].entries)
    entries[i * a.n + j] = w
    return dataclasses.replace(a, mu={**a.mu, symbol: TropicalMatrix(a.n, a.n, tuple(entries))})


def with_state(a, into, out, final):
    """a with one more state, last and never initial: into holds the
    weights into it from a's states and out its weights to every state
    (itself last), on every symbol; final is its final weight."""
    n = a.n
    mu = {
        s: TropicalMatrix.from_rows([[*m.entries[i * n : (i + 1) * n], into[i]] for i in range(n)] + [list(out)])
        for s, m in a.mu.items()
    }
    return dataclasses.replace(a, states=(*a.states, str(n + 1)), alpha=(*a.alpha, EPS), mu=mu, beta=(*a.beta, final))


def steps_at_bound_12(sys1, sys2, symbols):
    """The walk's verdict and model steps over every word of at most 12
    symbols, after checking the verdict against the trie walk's."""
    seqs = [word_inputs(w) for w in exhaustive_words(symbols, 12)]
    walk = Counting(sys1), Counting(sys2)
    got = behavioural_inclusion_upto(*walk, seqs)
    assert got == behavioural_inclusion_by_trie(Counting(sys1), Counting(sys2), seqs)
    return got, walk[0].steps + walk[1].steps


def mutants(a, rng):
    """A raised weight and a dropped transition at one finite weight, and a
    flipped final weight."""
    finite = [(s, i, j) for s in a.alphabet for i in range(a.n) for j in range(a.n) if a.mu[s][i, j] != EPS]
    if finite:
        s, i, j = rng.choice(finite)
        yield with_weight(a, s, i, j, a.mu[s][i, j] + 1.0)
        yield with_weight(a, s, i, j, EPS)
    k = rng.randrange(a.n)
    yield dataclasses.replace(a, beta=a.beta[:k] + (0.0 if a.beta[k] == EPS else EPS,) + a.beta[k + 1 :])


PAIRS = (("mpa", "smpl"), ("smpl", "mpa"), ("mpa", "maha"), ("maha", "mpa"), ("smpl", "maha"), ("maha", "smpl"))


class TestAgainstTheTrieWalk:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_integer_automata_their_translations_and_mutants(self, seed, n):
        rng = random.Random(seed)
        a = fixtures.random_mpa(rng, n_states=n)
        seqs = [word_inputs(w) for w in exhaustive_words(a.alphabet, 6)]
        for other in (a, *mutants(a, rng)):
            for first, second in ((a, other), (other, a)):
                models1, models2 = kinds(first), kinds(second)
                for kind1, kind2 in PAIRS:
                    agrees(models1[kind1], models2[kind2], seqs)

    def test_production_line_at_bound_12_steps_each_normalised_pair_once(self, production):
        seqs = [word_inputs(w) for w in exhaustive_words(("l1", "l2"), 12)]
        walk = Counting(SmplBehaviour(production)), Counting(MahaBehaviour(from_smpl_open(production)))
        trie = Counting(SmplBehaviour(production)), Counting(MahaBehaviour(from_smpl_open(production)))
        assert behavioural_inclusion_upto(*walk, seqs) == behavioural_inclusion_by_trie(*trie, seqs) == (True, None)
        assert sum(side.steps for side in trie) == 16_380
        assert sum(side.steps for side in walk) == 32

    def test_production_line_at_bound_12_with_its_program_takes_no_step(self, production):
        seqs = [word_inputs(w) for w in exhaustive_words(("l1", "l2"), 12)]
        pair = CountingProgram(SmplBehaviour(production)), CountingProgram(MahaBehaviour(from_smpl_open(production)))
        assert behavioural_inclusion_upto(*pair, seqs) == (True, None)
        assert sum(side.steps for side in pair) == 0

    def test_only_the_sequence_that_is_not_plain_symbols_steps(self, production):
        # l3 is no symbol of the line: its rule selects no mode, so the run halts
        odd = word_inputs(("l1", "l2", "l3"))
        seqs = [word_inputs(w) for w in exhaustive_words(("l1", "l2"), 6)]
        seqs.insert(40, odd)
        alone = Counting(SmplBehaviour(production)), Counting(MahaBehaviour(from_smpl_open(production)))
        assert behavioural_inclusion_upto(*alone, [odd]) == (True, None)
        pair = CountingProgram(SmplBehaviour(production)), CountingProgram(MahaBehaviour(from_smpl_open(production)))
        assert behavioural_inclusion_upto(*pair, seqs) == (True, None)
        assert [side.steps for side in pair] == [side.steps for side in alone] == [3, 2]

    def test_gaubert_at_bound_12_against_its_translation(self, gaubert):
        translation = MahaBehaviour(from_smpl_open(from_mpa(gaubert)))
        assert steps_at_bound_12(MpaBehaviour(gaubert), translation, gaubert.alphabet) == ((True, None), 14)

    def test_a_dead_sys2_state_is_keyed_when_sys2_is_not_shift_exact(self, gaubert):
        # sink enters a state that never leaves nor accepts, which gaubert
        # and half lack, so half's row dies where sink's lives on; half
        # adds an unreachable state with weights 0.5.  Words of length 12
        # alone, so the walk runs on past the prefix where half's state
        # dies; only the nodes whose half state is dead share children, and
        # the trie walk takes 15 steps.
        sink = with_state(gaubert, (0, EPS, EPS), (EPS, EPS, EPS, 0), EPS)
        half = with_state(gaubert, (EPS, EPS, EPS), (0.5,) * 4, 0.5)
        assert sink.system.shift_exact and not half.system.shift_exact
        seqs = [word_inputs(w) for w in itertools.product(gaubert.alphabet, repeat=12)]
        walk = Counting(MpaBehaviour(sink)), Counting(MpaBehaviour(half))
        trie = Counting(MpaBehaviour(sink)), Counting(MpaBehaviour(half))
        got = behavioural_inclusion_upto(*walk, seqs)
        assert got == behavioural_inclusion_by_trie(*trie, seqs) == (False, word_inputs("a" * 12))
        assert sum(side.steps for side in trie) == 15
        assert sum(side.steps for side in walk) == 7

    def test_externally_driven_line_and_a_mutant(self, production):
        driven = dataclasses.replace(production, switching=externally_driven_rule(("l1", "l2")))
        form = driven.modes[2].form
        raised = MatrixMode(dataclasses.replace(form, C=(TropicalMatrix.row_vector((EPS, EPS, 1.0)),)))
        mutant = dataclasses.replace(driven, modes={**driven.modes, 2: raised})
        seqs = [word_inputs(w) for w in exhaustive_words(("l1", "l2"), 8)]
        assert agrees(SmplBehaviour(driven), MahaBehaviour(from_smpl_open(driven)), seqs) == (True, None)
        assert agrees(SmplBehaviour(driven), SmplBehaviour(mutant), seqs) == (False, word_inputs(("l2",)))


def threshold_system(rule_of, late_offset):
    """One state that grows by 1 on each symbol a.  rule_of(modes) gives
    the switching: the rules here take mode 1 once the previous x reaches
    5 and mode 2 before.  Mode 2 outputs x, mode 1 x + late_offset."""
    modes = {
        1: MatrixMode.from_parts(a=[[1]], c=[[late_offset]]),
        2: MatrixMode.from_parts(a=[[1]], c=[[0]]),
    }
    return SmplSystem(2, modes, rule_of(modes), (0.0,), SmplDims(n=1))


def reads_x(probe):
    return (1,) if probe.x[0] >= 5 else (2,)


class TestGating:
    """Models the walk must not key; on each, keying would change the
    verdict or the witness."""

    @pytest.mark.parametrize(
        "rule_of",
        [
            lambda modes: SwitchingRule(SwitchingKind.STATE_DEPENDENT_AUTONOMOUS, reads_x, symbols=("a", "a")),
            # a library rule given other successors, which carry no spec, so it has none
            lambda modes: dataclasses.replace(symbol_liveness_rule(modes, ("a", "a"), 0), successors=reads_x),
        ],
        ids=["bare", "liveness-spec"],
    )
    def test_a_rule_that_reads_x_values(self, rule_of):
        system, mutant = threshold_system(rule_of, 0), threshold_system(rule_of, 1)
        assert not system.shift_exact
        seqs = [word_inputs(w) for w in exhaustive_words(("a",), 8)]
        witness = word_inputs("aaaaaa")
        for sys1, sys2 in (
            (SmplBehaviour(system), SmplBehaviour(mutant)),
            (MahaBehaviour(from_smpl_open(system)), SmplBehaviour(mutant)),
            (SmplBehaviour(mutant), MahaBehaviour(from_smpl_open(system))),
        ):
            assert agrees(sys1, sys2, seqs) == (False, witness)

    def test_a_library_rule_given_other_successors_has_no_document_form(self):
        # were the spec kept by the rule, smpl_body would write this rule as
        # symbol_liveness, a document whose model steps otherwise
        library = threshold_system(lambda modes: symbol_liveness_rule(modes, ("a", "b"), 0), 0)
        other = dataclasses.replace(library, switching=dataclasses.replace(library.switching, successors=reads_x))
        assert library.switching.spec == {"type": "symbol_liveness", "symbols": ["a", "b"]}
        assert library.switching.enabling_symbols(2) == {"b"}
        smpl_body(library)
        mpa_chain_abstraction(from_smpl_open(library))
        rule = other.switching
        assert rule.spec is None and not rule.shift_invariant and rule.enabling_symbols(2) is None
        with pytest.raises(ModelFormatError, match="^switching rule has no declarative form to serialise$"):
            smpl_body(other)
        with pytest.raises(WrongProvenance, match="its switching is not symbol_liveness"):
            mpa_chain_abstraction(from_smpl_open(other))

    def test_weights_that_are_not_integers(self):
        # 8 + 2**-50 rounds to 8 while 0 + 2**-50 does not, so the pairs
        # after "b" (8, 8) and "bb" (0, 0) agree up to a shift, yet only
        # the second one's "a" shows the mutant's extra 2**-50.
        base = MaxPlusAutomaton(
            states=("1",),
            alphabet=("a", "b"),
            alpha=(16.0,),
            mu={"a": TropicalMatrix.from_rows([[0]]), "b": TropicalMatrix.from_rows([[-8]])},
            beta=(0.0,),
        )
        mutant = with_weight(base, "a", 0, 0, 2.0**-50)
        assert base.system.shift_exact and not mutant.system.shift_exact
        seqs = [word_inputs(w) for w in exhaustive_words(base.alphabet, 4)]
        models, mutated = kinds(base), kinds(mutant)
        for kind1, kind2 in PAIRS:
            assert agrees(models[kind1], mutated[kind2], seqs) == (False, word_inputs("bba"))
            assert agrees(mutated[kind1], models[kind2], seqs) == (False, word_inputs("bba"))

    def test_an_open_loop_with_u(self, feedback):
        system = dataclasses.replace(feedback, controller=None)
        raised = dataclasses.replace(system.modes[1].form, C=(TropicalMatrix.from_rows([[0, 1]]),))
        mutant = dataclasses.replace(system, modes={**system.modes, 1: MatrixMode(raised)})
        assert not system.shift_exact
        rng = random.Random(7)

        def step():
            return StepInput(w=rng.choice(("m1", "m2")), u=(float(rng.randint(-3, 6)),))

        seqs = sorted((tuple(step() for _ in range(rng.randint(1, 6))) for _ in range(200)), key=len)
        h, h_mutant = from_smpl_open(system), from_smpl_open(mutant)
        assert agrees(SmplBehaviour(system), MahaBehaviour(h), seqs) == (True, None)
        assert agrees(MahaBehaviour(h), SmplBehaviour(system), seqs) == (True, None)
        assert agrees(SmplBehaviour(system), MahaBehaviour(h_mutant), seqs)[0] is False
        assert agrees(MahaBehaviour(h_mutant), SmplBehaviour(system), seqs)[0] is False

    def test_a_closed_loop_and_its_translation(self, feedback):
        assert not feedback.shift_exact
        mutant = dataclasses.replace(feedback, controller=static_feedback(TropicalMatrix.from_rows([[0, 0]])))
        seqs = [word_inputs(w) for w in exhaustive_words(("m1", "m2"), 6)]
        for system, other in ((feedback, feedback), (feedback, mutant), (mutant, feedback)):
            pair = SmplBehaviour(system), MahaBehaviour(from_smpl_closed(other))
            agrees(*pair, seqs)
            agrees(*reversed(pair), seqs)
        assert agrees(SmplBehaviour(feedback), MahaBehaviour(from_smpl_closed(feedback)), seqs) == (True, None)

    def test_which_models_key_their_start(self, gaubert, production, feedback):
        keyed = [
            MpaBehaviour(gaubert),
            SmplBehaviour(production),
            MahaBehaviour(from_smpl_open(production)),
            SmplBehaviour(dataclasses.replace(production, switching=externally_driven_rule(("l1", "l2")))),
        ]
        unkeyed = [
            SmplBehaviour(feedback),
            MahaBehaviour(from_smpl_closed(feedback)),
            SmplBehaviour(dataclasses.replace(feedback, controller=None)),
            SmplBehaviour(dataclasses.replace(production, x0=(0.5, 0.0, EPS))),
            MpaBehaviour(dataclasses.replace(gaubert, beta=(2.5, EPS, EPS))),
            MpaBehaviour(with_weight(gaubert, "a", 0, 1, 2.0**20)),
            MpaBehaviour(dataclasses.replace(gaubert, alpha=(EXACT_STATE, EPS, EPS))),
        ]
        for stepper in keyed:
            assert stepper.shift_exact is True
        for stepper in unkeyed:
            assert stepper.shift_exact is False


def test_keys_keep_the_infinities_and_stop_where_exactness_is_not_assured():
    record = StepRecord(3, 1, (EPS, TOP, 5.0, -3.0), (5.0,), (1,))
    other = StepRecord(3, 2, (7.0, EPS), (5.0,), (2,))
    assert normalised_pair(record, None) == (1, (EPS, TOP, 0.0, -8.0), None)
    assert normalised_pair(record, other) == (1, (EPS, TOP, 0.0, -8.0), (2, (2.0, EPS)))
    deep = record._replace(k=EXACT_STEPS - 1)
    assert normalised_pair(deep, other._replace(k=EXACT_STEPS - 1)) == normalised_pair(record, other)
    assert normalised_pair(record._replace(k=EXACT_STEPS), None) is None
    assert normalised_pair(StepRecord(0, None, (), (), ()), None) == (None, (), None)
