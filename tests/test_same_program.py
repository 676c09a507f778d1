"""Behaviour checks pass over the sequences of plain symbols when both
steppers have one program (smpl.Stepper.program), and step the rest
(equivalence.behavioural_inclusion_upto).  Where programs are equal, the
stepping walk (stepped_inclusion_upto) and the plain trie walk
(oracles.behavioural_inclusion_by_trie) must find inclusion too; where a
model's runs are not its compiled maps alone, it has no program or
another one, and the verdict, witness and errors are the walk's."""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxplushybrid import fixtures
from maxplushybrid.equivalence import (
    MahaBehaviour,
    MpaBehaviour,
    SmplBehaviour,
    behavioural_inclusion_upto,
    exhaustive_words,
    stepped_inclusion_upto,
)
from maxplushybrid.hybrid import from_smpl_closed, from_smpl_open
from maxplushybrid.mpa import MaxPlusAutomaton
from maxplushybrid.smpl import (
    ControllerHook,
    MatrixMode,
    SmplDims,
    SmplSystem,
    StepInput,
    SwitchingKind,
    SwitchingRule,
    externally_driven_rule,
    from_mpa,
    symbol_liveness_rule,
    word_inputs,
)
from maxplushybrid.tropical import EPS, TropicalMatrix, has_finite_entry
from oracles import behavioural_inclusion_by_trie

SYMBOLS = ("a", "b")
finite_weights = st.one_of(st.integers(-9, 9).map(float), st.floats(-10, 10, allow_nan=False))
weights = st.one_of(st.just(EPS), finite_weights)


@st.composite
def automata(draw):
    """Automata of 1 to 4 states over a and b, with integer and other
    finite weights; some initial weight is finite."""
    n = draw(st.integers(1, 4))
    vector = st.lists(weights, min_size=n, max_size=n)
    mu = {s: TropicalMatrix(n, n, tuple(draw(st.lists(weights, min_size=n * n, max_size=n * n)))) for s in SYMBOLS}
    alpha = draw(vector)
    if EPS in alpha and len(set(alpha)) == 1:
        alpha[draw(st.integers(0, n - 1))] = draw(finite_weights)
    states = tuple(str(i + 1) for i in range(n))
    return MaxPlusAutomaton(states=states, alphabet=SYMBOLS, alpha=tuple(alpha), mu=mu, beta=tuple(draw(vector)))


def translations(a):
    """The automaton's stepper and those of its smpl and maha translations."""
    system = from_mpa(a)
    return MpaBehaviour(a), SmplBehaviour(system), MahaBehaviour(from_smpl_open(system))


def with_weight(a, symbol, i, j, w):
    entries = list(a.mu[symbol].entries)
    entries[i * a.n + j] = w
    return dataclasses.replace(a, mu={**a.mu, symbol: TropicalMatrix(a.n, a.n, tuple(entries))})


def holds_every_way(models, symbols, bound):
    """Every ordered pair of the models, each with itself too, shares one
    program, and the stepping walk and the trie walk find inclusion."""
    seqs = [word_inputs(w) for w in exhaustive_words(symbols, bound)]
    for sys1, sys2 in itertools.product(models, repeat=2):
        assert sys1.program is not None and sys1.program == sys2.program
        assert behavioural_inclusion_upto(sys1, sys2, seqs) == (True, None)
        assert stepped_inclusion_upto(sys1, sys2, seqs) == (True, None)
        assert behavioural_inclusion_by_trie(sys1, sys2, seqs) == (True, None)


class TestEqualProgramsAgainstTheWalk:
    @settings(max_examples=40, deadline=None)
    @given(automata(), st.integers(1, 8))
    def test_automata_and_their_translations(self, a, bound):
        holds_every_way(translations(a), a.alphabet, bound)

    @pytest.mark.parametrize("bound", range(1, 9))
    def test_production_line_and_its_translation(self, production, bound):
        models = SmplBehaviour(production), MahaBehaviour(from_smpl_open(production))
        holds_every_way(models, ("l1", "l2"), bound)

    def test_an_automaton_whose_row_overflows(self):
        # 1e308 twice overflows to +inf, a state with no finite entry, where every model halts
        holds_every_way(translations(one_state_mpa(1e308)), ("a",), 3)

    def test_an_automaton_whose_sums_round(self):
        # 2.0**52 + 1 is exact; its third sum, past 2**53, rounds, alike in every model
        holds_every_way(translations(one_state_mpa(2.0**52 + 1)), ("a",), 20)

    def test_int_weights_are_stored_as_their_floats(self):
        # kept as an int, 2**49 + 1 would sum exactly, where its float's 17th
        # sum, past 2**53, rounds: the 18th step's output would differ
        big = 2**49 + 1
        ints, floats = one_state_mpa(big, 0), one_state_mpa(float(big))
        by_hand = one_state_system(big, 0), one_state_system(float(big), 0.0)
        weights = ints.alpha + ints.beta + ints.mu["a"].entries + by_hand[0].x0 + by_hand[0].modes[1].form.A[0].entries
        assert all(type(w) is float for w in weights) and ints == floats
        holds_every_way([*translations(ints), *translations(floats), *map(SmplBehaviour, by_hand)], ("a",), 18)

    @settings(max_examples=40, deadline=None)
    @given(automata(), st.data())
    def test_no_planted_mutant_has_its_originals_program(self, a, data):
        finite = [(s, i, j) for s in SYMBOLS for i in range(a.n) for j in range(a.n) if a.mu[s][i, j] != EPS]
        assume(finite)
        s, i, j = data.draw(st.sampled_from(finite))
        assert a.system.program is not None
        for mutant in (with_weight(a, s, i, j, a.mu[s][i, j] + 1.0), with_weight(a, s, i, j, EPS)):
            for model in translations(mutant):
                assert model.program != a.system.program


def swapped_output_mode(system):
    """The system with mode 2's output row changed, over the very rule the
    system has, whose closure holds the old mode 2."""
    form = system.modes[2].form
    raised = MatrixMode(dataclasses.replace(form, C=(TropicalMatrix.row_vector((3.0, EPS, EPS)),)))
    return dataclasses.replace(system, modes={**system.modes, 2: raised})


def repeated_symbol_system(late):
    """One state over symbol_liveness symbols a, a: mode 1 adds 1, mode 2
    adds late (ROADMAP item 12)."""
    modes = {1: MatrixMode.from_parts(a=[[1]], c=[[0]]), 2: MatrixMode.from_parts(a=[[late]], c=[[0]])}
    return SmplSystem(2, modes, symbol_liveness_rule(modes, ("a", "a"), 0), (0.0,), SmplDims(n=1))


def python_liveness(system):
    """The system under a Python-written rule that selects as its
    symbol_liveness rule does."""
    modes, symbols = system.modes, system.switching.symbols

    def successors(probe):
        selected = [q for q, s in enumerate(symbols, start=1) if s == probe.w]
        return [q for q in selected if has_finite_entry(modes[q].form.eval_state(probe.x))]

    rule = SwitchingRule(SwitchingKind.CONSTRAINED, successors, symbols=symbols)
    return dataclasses.replace(system, switching=rule)


def one_state_mpa(weight, start=0.0):
    return MaxPlusAutomaton(("1",), ("a",), (start,), {"a": TropicalMatrix(1, 1, (weight,))}, (0.0,))


def one_state_system(weight, start):
    """one_state_mpa(weight, start)'s system, built by hand."""
    modes = {1: MatrixMode.from_parts(a=[[weight]], c=[[0]])}
    return SmplSystem(1, modes, symbol_liveness_rule(modes, ("a",), 0), (start,), SmplDims(n=1))


def undecided_cases():
    """(label, sys1, sys2, sequences, the walk's verdict)."""
    gaubert, line, feedback = fixtures.gaubert_mpa(), fixtures.production_line_smpl(), fixtures.feedback_demo_smpl()
    system = from_mpa(gaubert)
    words = [word_inputs(w) for w in exhaustive_words(SYMBOLS, 4)]
    open_loop = dataclasses.replace(feedback, controller=None)
    with_u = [
        (StepInput(w="m1", u=(3.0,)),),
        (StepInput(w="m1", u=(3.0,)), StepInput(w="m2", u=(-1.0,))),
        (StepInput(w="m2", u=(0.0,)), StepInput(w="m2", u=(6.0,)), StepInput(w="m1", u=(1.0,))),
    ]
    driven = dataclasses.replace(system, switching=externally_driven_rule(SYMBOLS))
    return [
        ("swapped mode", SmplBehaviour(system), SmplBehaviour(swapped_output_mode(system)), words,
         (False, word_inputs("ab"))),
        ("repeated symbol", SmplBehaviour(repeated_symbol_system(5)), SmplBehaviour(repeated_symbol_system(7)),
         [word_inputs(w) for w in exhaustive_words(("a",), 3)], (True, None)),
        ("externally driven", SmplBehaviour(driven), MpaBehaviour(gaubert), words, (False, word_inputs("b"))),
        ("closed loop", SmplBehaviour(feedback), MahaBehaviour(from_smpl_closed(feedback)),
         [word_inputs(w) for w in exhaustive_words(("m1", "m2"), 4)], (True, None)),
        ("open loop with u", SmplBehaviour(open_loop), MahaBehaviour(from_smpl_open(open_loop)), with_u, (True, None)),
        ("python rule", MpaBehaviour(gaubert), SmplBehaviour(python_liveness(system)), words, (True, None)),
        ("python rule, line", MahaBehaviour(from_smpl_open(python_liveness(line))), SmplBehaviour(line),
         [word_inputs(w) for w in exhaustive_words(("l1", "l2"), 4)], (True, None)),
    ]


CASES = undecided_cases()


class TestWhereThePassMustNotDecide:
    @pytest.mark.parametrize("sys1, sys2, seqs, verdict", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_no_shared_program_and_the_walks_verdict(self, sys1, sys2, seqs, verdict):
        assert sys1.program is None or sys2.program is None or sys1.program != sys2.program
        assert behavioural_inclusion_upto(sys1, sys2, seqs) == stepped_inclusion_upto(sys1, sys2, seqs) == verdict
        assert behavioural_inclusion_by_trie(sys1, sys2, seqs) == verdict

    def test_which_models_have_no_program(self, gaubert, production, feedback):
        system = from_mpa(gaubert)
        for model in (
            swapped_output_mode(system),
            dataclasses.replace(system, switching=externally_driven_rule(SYMBOLS)),
            feedback,
            dataclasses.replace(feedback, controller=None),
            python_liveness(production),
        ):
            assert model.program is None
        # a repeated symbol's entry lists both its modes, so the late mode's weight tells the programs apart
        late5, late7 = repeated_symbol_system(5), repeated_symbol_system(7)
        assert late5.program == (late5.x0, late5.symbol_steps) and len(late5.symbol_steps["a"]) == 2
        assert late7.program is not None and late5.program != late7.program
        # an int weight is stored as its float, so a model over ints has its float copy's program
        pairs = ((one_state_mpa(3, 0.0), 3.0), (one_state_mpa(3.0, 0), 3.0), (one_state_mpa(2**49 + 1, 0), 2.0**49 + 1))
        for ints, weight in pairs:
            assert ints.system.program == one_state_mpa(weight).system.program is not None
        # float weights of any magnitude give a program: every class halts where no entry is finite
        for model in (one_state_mpa(1e308).system, from_mpa(one_state_mpa(1e308))):
            assert model.program is not None
        assert MahaBehaviour(from_smpl_closed(feedback)).program is None


@pytest.mark.parametrize(
    "mode",
    [
        MatrixMode.from_parts(a=[[0, 0]] * 2, c=[[0, 0]]),
        MatrixMode.from_parts(a=[[0, 0, 0]] * 3, c=[[0, 0, 0]], b=[[0]] * 3, d=[[EPS]]),
    ],
    ids=["reads-2", "reads-u"],
)
def test_modes_of_other_widths_give_no_program_and_the_walks_error(production, mode):
    # a library rule over two such modes, in the line, which has 3 entries and no u
    modes = {1: mode, 2: mode}
    rule = symbol_liveness_rule(modes, ("l1", "l2"), mode.form.n_input)
    system = dataclasses.replace(production, modes=modes, switching=rule)
    assert system.program is None
    pair = SmplBehaviour(system), MahaBehaviour(from_smpl_open(system))
    for check in (behavioural_inclusion_upto, stepped_inclusion_upto):
        with pytest.raises(ValueError, match="^shape mismatch"):
            check(*pair, [word_inputs(("l1",))])


def test_a_closed_loop_without_u_gives_no_program_and_the_walks_error(production):
    # the controller yields a u the line does not read
    controller = ControllerHook(f_u=lambda z, inp: (0.0,), f_v=lambda z, inp: ())
    system = dataclasses.replace(production, controller=controller)
    assert system.program is None
    pair = SmplBehaviour(system), MahaBehaviour(from_smpl_closed(system))
    for check in (behavioural_inclusion_upto, stepped_inclusion_upto):
        with pytest.raises(ValueError, match=r"^resolved inputs have shape \(1, 0\), expected \(0, 0\)$"):
            check(*pair, [word_inputs(("l1",))])


class TestOtherInputsStillStep:
    """Against a pair with one program, an input that is not a plain
    symbol of it goes to the walk, which raises as it always has."""

    def test_an_unknown_symbol(self, gaubert):
        pair = MpaBehaviour(gaubert), SmplBehaviour(from_mpa(gaubert))
        assert pair[0].program == pair[1].program
        seqs = [word_inputs("ab"), (StepInput(w="a"), StepInput(w="c"))]
        for check in (behavioural_inclusion_upto, stepped_inclusion_upto):
            with pytest.raises(ValueError, match="^unknown symbol 'c'$"):
                check(*pair, seqs)

    def test_a_u_on_the_translation(self, gaubert):
        system = from_mpa(gaubert)
        pair = SmplBehaviour(system), MahaBehaviour(from_smpl_open(system))
        assert pair[0].program == pair[1].program
        seqs = [word_inputs("ab"), (StepInput(w="a", u=(1.0,)),)]
        message = r"^step input has \(u, r, p\) widths \(1, 0, 0\), expected \(0, 0, 0\)"
        for check in (behavioural_inclusion_upto, stepped_inclusion_upto):
            with pytest.raises(ValueError, match=message):
                check(*pair, seqs)
