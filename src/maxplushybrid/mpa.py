"""Max-plus automata: word evaluation, acceptance and discrete abstraction.

A max-plus automaton carries one square weight matrix per input symbol plus
initial and final weight vectors.  The value of a word is the largest
accumulated weight over paths that enter at a finite initial weight and
leave at a finite final weight; it is EPS exactly when no such path exists,
so acceptance is a byproduct of evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import finite
from .finite import FiniteAutomaton, Word, make_delta
from .tropical import EPS, TropicalMatrix, Weight, is_finite, otimes


@dataclass(frozen=True)
class MaxPlusAutomaton:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    alpha: tuple[Weight, ...]
    mu: dict[str, TropicalMatrix]
    beta: tuple[Weight, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        n = len(self.states)
        if len(set(self.states)) != n:
            raise ValueError("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if len(self.alpha) != n or len(self.beta) != n:
            raise ValueError("alpha/beta length must match the state count")
        if set(self.mu) != set(self.alphabet):
            raise ValueError("mu must define exactly one matrix per symbol")
        for symbol, m in self.mu.items():
            if m.rows != n or m.cols != n:
                raise ValueError(f"mu({symbol!r}) must be {n}x{n}")
            if m.has_top_entry():
                raise ValueError("transition weights must not be +inf")
        if any(a == float("inf") for a in self.alpha + self.beta):
            raise ValueError("initial/final weights must not be +inf")
        if not any(is_finite(a) for a in self.alpha):
            raise ValueError("some initial weight must be finite")

    @property
    def n(self) -> int:
        return len(self.states)


def step_row(a: MaxPlusAutomaton, row: TropicalMatrix, symbol: str) -> TropicalMatrix:
    """Advance a row vector by one symbol: row times mu(symbol)."""
    if symbol not in a.mu:
        raise ValueError(f"unknown symbol {symbol!r}")
    return row.otimes(a.mu[symbol])


def row_value(a: MaxPlusAutomaton, row: Sequence[Weight]) -> Weight:
    """Value of a row vector: its best sum with a final weight."""
    acc = EPS
    for v, b in zip(row, a.beta):
        acc = max(acc, otimes(v, b))
    return acc


def eval_state(a: MaxPlusAutomaton, word: Word) -> tuple[Weight, ...]:
    """Row vector after the word: alpha^T times the mu matrices in order."""
    row = TropicalMatrix.row_vector(a.alpha)
    for symbol in word:
        row = step_row(a, row, symbol)
    return row.entries


def eval_output(a: MaxPlusAutomaton, word: Word) -> Weight:
    """Word value; EPS iff the automaton has no accepting path for the word."""
    return row_value(a, eval_state(a, word))


def accepts(a: MaxPlusAutomaton, word: Word) -> bool:
    return eval_output(a, word) != EPS


def language_upto(a: MaxPlusAutomaton, max_len: int) -> set[Word]:
    """All accepted words of length <= max_len, the empty word included
    when the initial and final weights already meet.  A word's value is
    finite exactly when some path avoids every EPS weight, so the
    weight-free projection accepts the same words."""
    return finite.language_upto(to_finite_abstraction(a), max_len)


def to_finite_abstraction(a: MaxPlusAutomaton) -> FiniteAutomaton:
    """Forget the weights: keep a transition wherever the weight is not EPS."""
    triples = [
        (a.states[i], symbol, a.states[j])
        for symbol, m in a.mu.items()
        for i in range(a.n)
        for j in range(a.n)
        if m[i, j] != EPS
    ]
    return FiniteAutomaton(
        states=a.states,
        alphabet=a.alphabet,
        delta=make_delta(triples),
        initial=frozenset(s for s, w in zip(a.states, a.alpha) if w != EPS),
        final=frozenset(s for s, w in zip(a.states, a.beta) if w != EPS),
        meta={"source": "max-plus automaton"},
    )
