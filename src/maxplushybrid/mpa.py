"""Max-plus automata: word evaluation, acceptance and discrete abstraction.

A max-plus automaton carries one square weight matrix per input symbol plus
initial and final weight vectors.  The value of a word is the largest
accumulated weight over paths that enter at a finite initial weight and
leave at a finite final weight; it is EPS exactly when no such path exists,
so acceptance is a byproduct of evaluation.

An automaton steps as its switching system, MaxPlusAutomaton.system,
built once (smpl.from_mpa returns it): the row vector alpha^T mu(w1) ...
mu(wk) is the system's x, and MpaBehaviour is the system's stepper with
the automaton's two refusals.  So an automaton and its translations run
one table, and its behaviour is theirs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

from .expressions import MatrixForm
from .finite import FiniteAutomaton, Word, make_delta
from .smpl import MatrixMode, SmplBehaviour, SmplDims, SmplSystem, StepInput, Stepper, StepRecord
from .smpl import symbol_liveness_rule, symbol_step
from .tropical import EPS, CompiledRows, TropicalMatrix, Weight, check_weight, eval_rows, is_finite


@dataclass(frozen=True)
class MaxPlusAutomaton:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    alpha: tuple[Weight, ...]
    mu: dict[str, TropicalMatrix]
    beta: tuple[Weight, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(map(check_weight, self.alpha)))
        object.__setattr__(self, "beta", tuple(map(check_weight, self.beta)))
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
    def system(self) -> SmplSystem:
        """The automaton's switching system (smpl.from_mpa), built once:
        one mode per symbol, in alphabet order from 1, over the symbol's
        transposed weight matrix, the final weights as its output row and
        the initial weights as x0.  A mode is a candidate only while its
        successor state keeps a finite entry, so runs halt exactly where
        every weighted path has died out."""
        if not self.alphabet:
            raise ValueError(
                "the automaton's alphabet is empty: its switching system has one mode per symbol, "
                "and switching systems need at least one mode"
            )
        n = self.n
        modes = {
            mode: MatrixMode(
                MatrixForm(
                    A=(self.mu[symbol].transpose(),),
                    B=(TropicalMatrix.epsilon(n, 0),),
                    C=(TropicalMatrix.row_vector(self.beta),),
                    D=(TropicalMatrix.epsilon(1, 0),),
                )
            )
            for mode, symbol in enumerate(self.alphabet, start=1)
        }
        dims = SmplDims(n=n)
        return SmplSystem(
            n_modes=len(self.alphabet),
            modes=modes,
            switching=symbol_liveness_rule(modes, self.alphabet, dims.input_width),
            x0=self.alpha,
            dims=dims,
            meta={"translated_from": "mpa", "mpa_states": self.states},
        )


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
    row = a.alpha
    for symbol in word:
        row = step_row(a, row, symbol)
    return row


def eval_output(a: MaxPlusAutomaton, word: Word) -> Weight:
    """Word value; EPS iff the automaton has no accepting path for the word."""
    return row_value(a, eval_state(a, word))


@dataclass(frozen=True)
class MpaBehaviour(SmplBehaviour):
    """Runs of a max-plus automaton: its system's runs, whose program,
    shift_exact flag and first record (x is alpha, y is ()) it inherits.
    A record's x is the row vector after the symbols read, y its value,
    EPS where the prefix is not accepted.  Only the step differs: it reads
    nothing but w and refuses a step with no symbol or an unknown one,
    where the system's run would halt; any other step is the system's
    smpl.symbol_step, which halts where the row has no finite entry.  So
    two automata with one word function differ in behaviour where one's
    row dies and the other's does not."""

    automaton: MaxPlusAutomaton
    system: SmplSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", self.automaton.system)

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        entry = self.system.symbol_steps.get(inp.w)
        if entry is None:
            if inp.w is None:
                raise ValueError("max-plus automata consume discrete symbols only")
            raise ValueError(f"unknown symbol {inp.w!r}")
        return symbol_step(entry, state.k, state.x)

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
