"""One event step, one evaluation of the chosen mode's dynamics.

A system with a symbol_steps table steps each symbol through its mode's
compiled maps, any other through its rule's smallest mode, and a
translated hybrid automaton resolves switching once per step; the traces
must equal, record for record, the references in oracles that resolve
and evaluate afresh at every call: oracles.simulate for the system and
the scan of oracles.scan_of_translation for its translation.
"""

import collections
import dataclasses
import random

import pytest

import oracles
from maxplushybrid import expressions, fixtures, smpl
from maxplushybrid.expressions import MatrixForm
from maxplushybrid.hybrid import HybridState, from_smpl_closed, from_smpl_open, hybrid_step, run
from maxplushybrid.smpl import StepInput, SwitchingRule, from_mpa, simulate, word_inputs
from maxplushybrid.tropical import EPS, eval_rows


def random_words(rng, symbols, count, length):
    return [
        word_inputs(tuple(rng.choice(symbols) for _ in range(rng.randint(0, length))))
        for _ in range(count)
    ]


def random_start(rng, n):
    """A vector with some EPS entries and at least one finite one."""
    x = [EPS if rng.random() < 0.3 else float(rng.randint(-4, 9)) for _ in range(n)]
    if all(v == EPS for v in x):
        x[0] = 0.0
    return tuple(x)


def sticky_production_line():
    """The bundled line under a rule that also offers the previous mode."""
    line = fixtures.production_line_smpl()
    liveness = line.switching

    def sticky(probe):
        if probe.prev_mode is not None:
            yield probe.prev_mode  # bare mode: whoever steps it evaluates it
        yield from liveness.successors(probe)

    return dataclasses.replace(line, switching=dataclasses.replace(liveness, successors=sticky))


def assert_same_traces(system, automaton, inputs):
    assert simulate(system, inputs) == oracles.simulate(system, inputs)
    assert run(automaton, inputs) == oracles.scan_run(oracles.scan_of_translation(system), inputs)


class TestAgainstTheTwoEvaluationStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_production_lines(self, seed):
        rng = random.Random(seed)
        tau = tuple(float(rng.randint(1, 9)) for _ in range(3))
        line = fixtures.production_line_smpl(tau)
        for inputs in random_words(rng, ("l1", "l2"), 6, 20):
            system = dataclasses.replace(line, x0=random_start(rng, 3))
            assert_same_traces(system, from_smpl_open(system), inputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_loop_feedback_demo(self, seed):
        rng = random.Random(seed)
        system = fixtures.feedback_demo_smpl()
        automaton = from_smpl_closed(system)
        for inputs in random_words(rng, ("m1", "m2"), 6, 20):
            assert_same_traces(system, automaton, inputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_open_loop_feedback_demo_with_drawn_inputs(self, seed):
        rng = random.Random(seed)
        system = dataclasses.replace(fixtures.feedback_demo_smpl(), controller=None)
        automaton = from_smpl_open(system)
        for _ in range(6):
            inputs = tuple(
                StepInput(u=random_start(rng, 1), w=rng.choice(("m1", "m2")))
                for _ in range(rng.randint(0, 20))
            )
            assert_same_traces(system, automaton, inputs)

    def test_gaubert_translation_and_halting_words(self, gaubert):
        system = from_mpa(gaubert)
        automaton = from_smpl_open(system)
        texts = ("", "ab", "aab", "abab", "b", "ba", "aaa", "abaaa", "aabaa", "abababab")
        for text in texts:
            assert_same_traces(system, automaton, word_inputs(tuple(text)))
        assert simulate(system, word_inputs(tuple("abaaa"))).halted_at == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_translated_random_automata(self, seed):
        rng = random.Random(seed)
        system = from_mpa(fixtures.random_mpa(rng, n_states=rng.randint(2, 5)))
        automaton = from_smpl_open(system)
        for inputs in random_words(rng, ("a", "b"), 12, 8):
            assert_same_traces(system, automaton, inputs)

    def test_rule_built_over_other_mode_objects_is_not_reused(self):
        # the rule decides with its own dynamics; the step must still
        # advance with the system's
        line = fixtures.production_line_smpl((1.0, 2.0, 3.0))
        other = fixtures.production_line_smpl((4.0, 1.0, 7.0))
        system = dataclasses.replace(line, switching=other.switching)
        inputs = word_inputs(("l1", "l2", "l2", "l1", "l1", "l2"))
        assert_same_traces(system, from_smpl_open(system), inputs)
        reused = simulate(other, inputs)
        assert [rec.x for rec in simulate(system, inputs).records] != [
            rec.x for rec in reused.records
        ]

    def test_rule_that_reads_the_previous_mode(self):
        # the resolution from one previous mode must not answer for another
        system = sticky_production_line()
        inputs = word_inputs(("l1", "l1", "l2", "l2", "l1", "l2"))
        assert_same_traces(system, from_smpl_open(system), inputs)
        assert any(len(rec.successor_modes) == 2 for rec in simulate(system, inputs).records)


def test_first_step_of_a_rule_that_reads_the_previous_mode_matches_across_models():
    # both first steps resolve switching once, with no previous mode
    system = sticky_production_line()
    inputs = word_inputs(("l1", "l1"))
    smpl_modes = [rec.successor_modes for rec in simulate(system, inputs).records]
    hybrid_modes = [rec.successor_modes for rec in run(from_smpl_open(system), inputs).records]
    assert hybrid_modes == smpl_modes == [(1,), (1,)]


@pytest.fixture
def counts(monkeypatch):
    counter = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def evaluated(compiled, *args):
        counter["eval_rows", id(compiled)] += 1
        return eval_rows(compiled, *args)

    monkeypatch.setattr(MatrixForm, "eval_state", counted("eval_state", MatrixForm.eval_state))
    monkeypatch.setattr(
        SwitchingRule, "successor_set", counted("successor_set", SwitchingRule.successor_set)
    )
    # a state map runs through MatrixForm.eval_state or straight from smpl
    for module in (expressions, smpl):
        monkeypatch.setattr(module, "eval_rows", evaluated)
    return counter


def state_map_evaluations(counts, system):
    """The eval_rows calls counted on the state maps of the system's modes."""
    return sum(counts["eval_rows", id(mode.form._state_map)] for mode in system.modes.values())


def resolutions_per_step(system):
    """0 where steps run through the system's symbol_steps, else 1."""
    return 0 if system.symbol_steps is not None else 1


def assert_one_resolution_per_sticky_step(counts, fold):
    """A rule that also offers the previous mode has no symbol_steps: each
    step of fold(system, inputs) resolves it once."""
    system = sticky_production_line()
    word = ("l1", "l1", "l2", "l2", "l1")
    assert system.symbol_steps is None
    counts.clear()
    assert fold(system, word_inputs(word)).completed
    assert counts["successor_set"] == len(word)


def systems_and_words(gaubert):
    return [
        (fixtures.production_line_smpl(), from_smpl_open, ("l1", "l2", "l2", "l1", "l1")),
        (from_mpa(gaubert), from_smpl_open, ("a", "b", "a", "b", "a", "a", "b")),
        (fixtures.feedback_demo_smpl(), from_smpl_closed, ("m1", "m2", "m2", "m1", "m2")),
    ]


class TestEvaluationCounts:
    # A step of a system with symbol_steps runs the mode's state map
    # straight through eval_rows and calls no rule; every other step
    # resolves once.  Either way the chosen mode's state map is evaluated
    # once per step.
    def test_one_eval_state_per_smpl_step(self, counts, gaubert):
        for system, _, word in systems_and_words(gaubert):
            counts.clear()
            trace = simulate(system, word_inputs(word))
            assert trace.completed
            assert state_map_evaluations(counts, system) == len(word)
            assert counts["successor_set"] == resolutions_per_step(system) * len(word)
        assert_one_resolution_per_sticky_step(counts, simulate)

    def test_one_eval_state_and_one_resolution_per_run_step(self, counts, gaubert):
        # the first step too: one resolution from the initial state, not
        # one per initial mode
        for system, translate, word in systems_and_words(gaubert):
            automaton = translate(system)
            counts.clear()
            trace = run(automaton, word_inputs(word))
            assert trace.completed
            assert state_map_evaluations(counts, system) == len(word)
            assert counts["successor_set"] == resolutions_per_step(system) * len(word)
        assert_one_resolution_per_sticky_step(counts, lambda system, inputs: run(from_smpl_open(system), inputs))

    def test_one_eval_state_and_one_resolution_per_hybrid_step(self, counts, gaubert):
        for system, translate, word in systems_and_words(gaubert):
            automaton = translate(system)
            states = [HybridState(1, automaton.start)] + [
                HybridState(rec.mode, rec.x)
                for rec in run(automaton, word_inputs(word)).records
            ]
            for state, symbol in zip(states, word):
                counts.clear()
                assert hybrid_step(automaton, state, StepInput(w=symbol))
                assert state_map_evaluations(counts, system) == 1
                assert counts["successor_set"] == resolutions_per_step(system)
