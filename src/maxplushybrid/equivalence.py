"""Bounded language equality, simulation preorders and behavioural inclusion.

Bounded language checks enumerate words outright; the fixtures are small
enough that nothing cleverer pays off, and the shortest counterexample
falls out of the length-ordered search for free.  Simulations are computed
as greatest fixpoints by deleting pairs a transition cannot justify.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .finite import FiniteAutomaton, Word, language_upto
from .hybrid import HybridAutomaton, run
from .mpa import MaxPlusAutomaton, accepts, eval_output
from .smpl import SmplSystem, StepInput, simulate
from .tropical import Weight


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
    """Adapter surface for behavioural comparison across model classes."""

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        """The system's trace for the inputs, or None when the input
        sequence is not part of the system's behaviour."""
        raise NotImplementedError


@dataclass(frozen=True)
class MpaBehaviour(BehaviourSystem):
    automaton: MaxPlusAutomaton

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        word = tuple(inp.w for inp in inputs)
        if any(w is None for w in word):
            raise ValueError("max-plus automata consume discrete symbols only")
        if not accepts(self.automaton, word):
            return None
        outputs = tuple(
            (eval_output(self.automaton, word[: k + 1]),) for k in range(len(word))
        )
        return BehaviourTrace(tuple(inputs), outputs)


@dataclass(frozen=True)
class SmplBehaviour(BehaviourSystem):
    system: SmplSystem

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        result = simulate(self.system, inputs)
        if not result.completed:
            return None
        return BehaviourTrace(tuple(inputs), result.outputs())


@dataclass(frozen=True)
class MahaBehaviour(BehaviourSystem):
    automaton: HybridAutomaton

    def trace(self, inputs: Sequence[StepInput]) -> BehaviourTrace | None:
        result = run(self.automaton, inputs)
        if not result.completed:
            return None
        return BehaviourTrace(tuple(inputs), result.outputs())


def behavioural_inclusion_upto(
    sys1: BehaviourSystem,
    sys2: BehaviourSystem,
    input_sequences: Iterable[Sequence[StepInput]],
    normalise: Callable[[BehaviourTrace], tuple] | None = None,
) -> tuple[bool, tuple[StepInput, ...] | None]:
    """Every trace of sys1 must be reproduced exactly by sys2.

    Sequences outside sys1's behaviour impose nothing.  The iteration order
    of input_sequences determines which counterexample is reported, so feed
    it length-ordered when the shortest one matters.
    """
    norm = normalise or (lambda t: t.outputs)
    for seq in input_sequences:
        t1 = sys1.trace(seq)
        if t1 is None:
            continue
        t2 = sys2.trace(seq)
        if t2 is None or norm(t1) != norm(t2):
            return False, tuple(seq)
    return True, None


def exhaustive_words(alphabet: Sequence[str], max_len: int, min_len: int = 1) -> Iterable[Word]:
    for k in range(min_len, max_len + 1):
        yield from itertools.product(tuple(alphabet), repeat=k)
