"""Bounded language equality, simulation preorders and behavioural inclusion.

Bounded language checks walk the words level by level (finite.py); the
shortest counterexample falls out of the length-ordered search for free.
Simulations are computed as greatest fixpoints by deleting pairs a
transition cannot justify.

Behavioural inclusion compares models of different classes through one
stepper protocol (init, step, output, complete).  Input sequences share
prefixes, so the bounded check steps each distinct prefix once and keeps
the two systems' states per prefix for the length of one call.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .finite import FiniteAutomaton, Word, language_upto
from .hybrid import HybridAutomaton, next_states
from .mpa import MaxPlusAutomaton, row_value, step_row
from .smpl import NoSuccessorMode, SmplSystem, StepInput, step
from .tropical import EPS, TropicalMatrix, Weight


def language_equal_upto(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_len: int
) -> tuple[bool, Word | None]:
    """Set equality of the bounded languages; on failure the shortest word
    accepted by exactly one side is returned."""
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
    l1 = language_upto(fa1, max_len)
    l2 = language_upto(fa2, max_len)
    if l1 == l2:
        return True, None
    diff = sorted(l1 ^ l2, key=lambda w: (len(w), w))
    return False, diff[0]


def language_equal_exact(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_states: int = 12
) -> tuple[bool, Word | None]:
    """Unbounded language equality by joint subset exploration.

    Exponential in the state count, so both automata are capped at
    max_states; use the bounded check beyond that.  Returns a shortest
    word accepted by exactly one side when the languages differ.
    """
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
    for fa in (fa1, fa2):
        if len(fa.states) > max_states:
            raise ValueError(
                f"exact equality is limited to {max_states} states, "
                f"got {len(fa.states)}"
            )
    start = (fa1.initial, fa2.initial)
    queue = collections.deque([start])
    trail: dict[tuple[frozenset[str], frozenset[str]], tuple | None] = {start: None}
    while queue:
        pair = queue.popleft()
        s1, s2 = pair
        if bool(s1 & fa1.final) != bool(s2 & fa2.final):
            word: list[str] = []
            node = pair
            while trail[node] is not None:
                parent, symbol = trail[node]
                word.append(symbol)
                node = parent
            return False, tuple(reversed(word))
        for symbol in sorted(fa1.alphabet):
            nxt = (fa1.step(s1, symbol), fa2.step(s2, symbol))
            if nxt not in trail:
                trail[nxt] = (pair, symbol)
                queue.append(nxt)
    return True, None


@dataclass(frozen=True)
class SimulationWitness:
    pairs: frozenset[tuple[str, str]]

    def related(self, s1: str, s2: str) -> bool:
        return (s1, s2) in self.pairs


def _refine_simulation(
    fa1: FiniteAutomaton,
    fa2: FiniteAutomaton,
    pairs: set[tuple[str, str]],
    symmetric: bool,
) -> set[tuple[str, str]]:
    changed = True
    while changed:
        changed = False
        for pair in list(pairs):
            s1, s2 = pair
            ok = all(
                any((t1, t2) in pairs for t2 in fa2.successors(s2, a))
                for a in fa1.alphabet
                for t1 in fa1.successors(s1, a)
            )
            if ok and symmetric:
                ok = all(
                    any((t1, t2) in pairs for t1 in fa1.successors(s1, a))
                    for a in fa2.alphabet
                    for t2 in fa2.successors(s2, a)
                )
            if not ok:
                pairs.discard(pair)
                changed = True
    return pairs


def _initials_covered(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton, pairs: set[tuple[str, str]]
) -> bool:
    return all(
        any((s1, s2) in pairs for s2 in fa2.initial) for s1 in fa1.initial
    )


def greatest_simulation(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton
) -> SimulationWitness | None:
    """Greatest relation where fa2 can match every fa1 move and finality.

    Returned only when every initial state of fa1 is related to some
    initial state of fa2, which is what makes it a simulation witness.
    """
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
    pairs = {
        (s1, s2)
        for s1 in fa1.states
        for s2 in fa2.states
        if (s1 not in fa1.final) or (s2 in fa2.final)
    }
    pairs = _refine_simulation(fa1, fa2, pairs, symmetric=False)
    if not _initials_covered(fa1, fa2, pairs):
        return None
    return SimulationWitness(frozenset(pairs))


def bisimulation(
    fa1: FiniteAutomaton, fa2: FiniteAutomaton
) -> SimulationWitness | None:
    """Greatest relation that is a simulation in both directions at once.

    The joint fixpoint keeps the witness transition-closed under both
    automata, which intersecting two one-way simulations would not.
    """
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
    pairs = {
        (s1, s2)
        for s1 in fa1.states
        for s2 in fa2.states
        if (s1 in fa1.final) == (s2 in fa2.final)
    }
    pairs = _refine_simulation(fa1, fa2, pairs, symmetric=True)
    if not _initials_covered(fa1, fa2, pairs):
        return None
    if not all(
        any((s1, s2) in pairs for s1 in fa1.initial) for s2 in fa2.initial
    ):
        return None
    return SimulationWitness(frozenset(pairs))


@dataclass(frozen=True)
class BehaviourTrace:
    """Input-output window of one run; halted_at marks an early stop."""

    inputs: tuple
    outputs: tuple[tuple[Weight, ...], ...]
    halted_at: int | None = None

    def __post_init__(self) -> None:
        if len(self.outputs) > len(self.inputs):
            raise ValueError("more outputs than inputs")
        if self.halted_at is not None and self.halted_at > len(self.inputs):
            raise ValueError("halt index beyond the input window")


class BehaviourSystem:
    """Stepper surface for behavioural comparison across model classes.

    A state stands for the inputs consumed so far.  step returns None once
    no extension of those inputs can be in the system's behaviour; complete
    says whether the inputs themselves are.  The two differ for a max-plus
    automaton, whose unaccepted words can have accepted extensions.
    """

    def init(self):
        raise NotImplementedError

    def step(self, state, inp: StepInput):
        raise NotImplementedError

    def output(self, state) -> tuple[Weight, ...]:
        raise NotImplementedError

    def complete(self, state) -> bool:
        return True


def _fold_trace(system: BehaviourSystem, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
    """The system's trace for the inputs, or None when the input sequence
    is not part of the system's behaviour."""
    state = system.init()
    outputs = []
    for inp in inputs:
        state = system.step(state, inp)
        if state is None:
            return None
        outputs.append(system.output(state))
    if not system.complete(state):
        return None
    return BehaviourTrace(tuple(inputs), tuple(outputs))


# Each class defines its own trace, as perfbench/tracing.py wraps it per class.


@dataclass(frozen=True)
class MpaBehaviour(BehaviourSystem):
    """State: the row vector alpha^T mu(w1) ... mu(wk); all EPS is dead."""

    automaton: MaxPlusAutomaton

    def init(self) -> TropicalMatrix:
        return TropicalMatrix.row_vector(self.automaton.alpha)

    def step(self, state: TropicalMatrix, inp: StepInput) -> TropicalMatrix | None:
        if inp.w is None:
            raise ValueError("max-plus automata consume discrete symbols only")
        row = step_row(self.automaton, state, inp.w)
        return None if row.is_all_epsilon() else row

    def output(self, state: TropicalMatrix) -> tuple[Weight, ...]:
        return (row_value(self.automaton, state.entries),)

    def complete(self, state: TropicalMatrix) -> bool:
        return row_value(self.automaton, state.entries) != EPS

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        return _fold_trace(self, inputs)


@dataclass(frozen=True)
class SmplBehaviour(BehaviourSystem):
    """State: (mode, x, u, v, y) after the last step; mode, u and v are
    None before the first step, where smpl.step supplies the defaults."""

    system: SmplSystem

    def init(self) -> tuple:
        return (None, self.system.x0, None, None, ())

    def step(self, state: tuple, inp: StepInput) -> tuple | None:
        mode, x, u, v, _ = state
        try:
            rec = step(self.system, mode, x, inp, u_prev=u, v_prev=v)
        except NoSuccessorMode:
            return None
        return (rec.mode, rec.x, rec.u, rec.v, rec.y)

    def output(self, state: tuple) -> tuple[Weight, ...]:
        return state[4]

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        return _fold_trace(self, inputs)


@dataclass(frozen=True)
class MahaBehaviour(BehaviourSystem):
    """State: (current hybrid state or None before the first step, output)."""

    automaton: HybridAutomaton

    def init(self) -> tuple:
        return (None, ())

    def step(self, state: tuple, inp: StepInput) -> tuple | None:
        successors = next_states(self.automaton, state[0], inp)
        if not successors:
            return None
        current = successors[0]
        return (current, self.automaton.output[current.mode](current.x, inp))

    def output(self, state: tuple) -> tuple[Weight, ...]:
        return state[1]

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        return _fold_trace(self, inputs)


def behavioural_inclusion_upto(
    sys1: BehaviourSystem,
    sys2: BehaviourSystem,
    input_sequences: Iterable[Sequence[StepInput]],
) -> tuple[bool, tuple[StepInput, ...] | None]:
    """Every trace of sys1 must be reproduced exactly by sys2.

    Sequences outside sys1's behaviour impose nothing.  The iteration order
    of input_sequences determines which counterexample is reported, so feed
    it length-ordered when the shortest one matters.

    Each distinct input prefix is stepped once: a memo maps it to sys1's
    state (None once dead, which makes every extension vacuous) and sys2's
    state (None once dead or once an output disagreed).  A sequence only
    steps past the longest prefix already in the memo.
    """
    # Prefixes are keyed by small integer codes of their inputs, so that a
    # lookup hashes ints rather than every StepInput of the prefix again.
    codes: dict[StepInput, int] = {}
    memo: dict[tuple[int, ...], tuple] = {(): (sys1.init(), sys2.init())}
    for seq in input_sequences:
        seq = tuple(seq)
        key = tuple([codes.setdefault(inp, len(codes)) for inp in seq])
        k = len(key)
        while key[:k] not in memo:
            k -= 1
        s1, s2 = memo[key[:k]]
        while s1 is not None and k < len(key):
            inp = seq[k]
            k += 1
            s1 = sys1.step(s1, inp)
            if s1 is not None and s2 is not None:
                s2 = sys2.step(s2, inp)
                if s2 is not None and sys2.output(s2) != sys1.output(s1):
                    s2 = None
            memo[key[:k]] = (s1, s2)
        if s1 is not None and sys1.complete(s1) and (s2 is None or not sys2.complete(s2)):
            return False, seq
    return True, None


def exhaustive_words(alphabet: Sequence[str], max_len: int, min_len: int = 1) -> Iterable[Word]:
    for k in range(min_len, max_len + 1):
        yield from itertools.product(tuple(alphabet), repeat=k)
