"""Max-plus automata: word evaluation, acceptance and discrete abstraction.

A max-plus automaton carries one square weight matrix per input symbol plus
initial and final weight vectors.  The value of a word is the largest
accumulated weight over paths that enter at a finite initial weight and
leave at a finite final weight; it is EPS exactly when no such path exists,
so acceptance is a byproduct of evaluation.

MpaBehaviour is the automaton's stepper (smpl.Stepper): its state is the
row vector alpha^T mu(w1) ... mu(wk), advanced by the symbol's matrix.
A step finds the symbol's entry in the automaton's symbol_steps, the
table shape a switching system's bare symbols step through, and runs
smpl.symbol_step on it: the run lives while the row keeps a finite
entry, the halt rule of its translations, so its behaviour is theirs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from .finite import FiniteAutomaton, Word, make_delta
from .smpl import Program, StepInput, Stepper, StepRecord, SymbolSteps, program_of, symbol_step
from .tropical import EPS, EXACT_STATE, EXACT_WEIGHT, CompiledRows, TropicalMatrix, Weight, eval_rows, is_finite
from .tropical import integral_below


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

    @functools.cached_property
    def _final_row(self) -> CompiledRows:
        """beta as one eval_rows row: a row vector's value is its product
        with beta, whose weights are finite or EPS."""
        return TropicalMatrix.row_vector(self.beta).compiled

    @functools.cached_property
    def shift_exact(self) -> bool:
        """Whether the automaton's runs are shift-invariant in floats (see
        smpl.Stepper): integer transition and final weights below
        EXACT_WEIGHT and integral initial weights.  Every automaton's runs
        are shift-invariant; this decides, once, that floats keep them so."""
        return (
            all(m.exact for m in self.mu.values())
            and integral_below(self.beta, EXACT_WEIGHT)
            and integral_below(self.alpha, EXACT_STATE)
        )

    @functools.cached_property
    def program(self) -> Program | None:
        """The automaton's program (see smpl.Stepper): alpha and
        symbol_steps, the table a step runs.  Decided once per automaton."""
        return program_of(tuple(self.alpha), self.symbol_steps)

    @functools.cached_property
    def symbol_steps(self) -> SymbolSteps:
        """Each symbol's mode (its position in the alphabet from 1), its
        matrix's columns and the final row: the entry smpl.symbol_step runs
        for a step on the symbol, found in one lookup."""
        final = self._final_row
        return {symbol: (mode, self.mu[symbol]._columns, final) for mode, symbol in enumerate(self.alphabet, start=1)}


def step_row(a: MaxPlusAutomaton, row: Sequence[Weight], symbol: str) -> tuple[Weight, ...]:
    """Advance a row vector by one symbol: row times mu(symbol)."""
    if symbol not in a.mu:
        raise ValueError(f"unknown symbol {symbol!r}")
    return a.mu[symbol].left_apply(row)


def row_value(a: MaxPlusAutomaton, row: Sequence[Weight]) -> Weight:
    """Value of a row vector: its best sum with a final weight (EPS
    absorbs, as in otimes)."""
    return eval_rows(a._final_row, row)[0]


def eval_state(a: MaxPlusAutomaton, word: Word) -> tuple[Weight, ...]:
    """Row vector after the word: alpha^T times the mu matrices in order."""
    row = tuple(a.alpha)
    for symbol in word:
        row = step_row(a, row, symbol)
    return row


def eval_output(a: MaxPlusAutomaton, word: Word) -> Weight:
    """Word value; EPS iff the automaton has no accepting path for the word."""
    return row_value(a, eval_state(a, word))


@dataclass(frozen=True)
class MpaBehaviour(Stepper):
    """Runs of a max-plus automaton.  A record's x is the row vector after
    the symbols read, y is its value, and its mode is the symbol's position
    in the alphabet from 1, the mode smpl.from_mpa gives that symbol.  A
    step is smpl.symbol_step, so the run halts where the row has no finite
    entry, as its translations' runs do.  Until then it is in the
    automaton's behaviour and outputs each prefix's value, EPS where the
    prefix is not accepted, step for step as the translations do; so two
    automata with one word function differ in behaviour where one's row
    dies and the other's does not."""

    automaton: MaxPlusAutomaton

    def init(self) -> StepRecord:
        a = self.automaton
        return StepRecord(0, None, tuple(a.alpha), (row_value(a, a.alpha),), ())

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        found = self.automaton.symbol_steps.get(inp.w)
        if found is None:
            if inp.w is None:
                raise ValueError("max-plus automata consume discrete symbols only")
            raise ValueError(f"unknown symbol {inp.w!r}")
        return symbol_step(found, state.k, state.x)

    @property
    def shift_exact(self) -> bool:
        return self.automaton.shift_exact

    @property
    def program(self) -> Program | None:
        return self.automaton.program

    # perfbench/tracing.py wraps cls.__dict__["trace"] per class.
    trace = Stepper.trace


def accepts(a: MaxPlusAutomaton, word: Word) -> bool:
    return eval_output(a, word) != EPS


def to_finite_abstraction(a: MaxPlusAutomaton) -> FiniteAutomaton:
    """Forget the weights: keep a transition wherever the weight is finite,
    which is each matrix's row_support, as +inf weights are refused."""
    triples = [
        (a.states[i], symbol, a.states[j])
        for symbol, m in a.mu.items()
        for i, pairs in enumerate(m.row_support)
        for j, _ in pairs
    ]
    return FiniteAutomaton(
        states=a.states,
        alphabet=a.alphabet,
        delta=make_delta(triples),
        initial=frozenset(s for s, w in zip(a.states, a.alpha) if w != EPS),
        final=frozenset(s for s, w in zip(a.states, a.beta) if w != EPS),
        meta={"source": "max-plus automaton"},
    )
