"""Nondeterministic finite automata used as discrete abstraction targets."""

from __future__ import annotations

from dataclasses import dataclass, field

Word = tuple[str, ...]

EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class FiniteAutomaton:
    """States are plain strings so every abstraction serialises the same way."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[tuple[str, str], frozenset[str]]
    initial: frozenset[str]
    final: frozenset[str]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(self.states) != len(state_set):
            raise ValueError("duplicate state names")
        if len(self.alphabet) != len(set(self.alphabet)):
            raise ValueError("duplicate alphabet symbols")
        for (s, a), targets in self.delta.items():
            if s not in state_set:
                raise ValueError(f"transition from unknown state {s!r}")
            if a not in self.alphabet:
                raise ValueError(f"transition on unknown symbol {a!r}")
            if not targets <= state_set:
                raise ValueError(f"transition into unknown state from {s!r} on {a!r}")
        if not self.initial <= state_set or not self.final <= state_set:
            raise ValueError("initial/final states must be declared states")

    def step(self, current: frozenset[str], symbol: str) -> frozenset[str]:
        if symbol not in self.alphabet:
            raise ValueError(f"unknown symbol {symbol!r}")
        out: set[str] = set()
        for s in current:
            out |= self.delta.get((s, symbol), frozenset())
        return frozenset(out)

    def reachable(self, word: Word) -> frozenset[str]:
        current = self.initial
        for symbol in word:
            current = self.step(current, symbol)
        return current

    def accepts(self, word: Word) -> bool:
        return bool(self.reachable(word) & self.final)

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        return self.delta.get((state, symbol), frozenset())


def make_delta(
    triples: list[tuple[str, str, str]]
) -> dict[tuple[str, str], frozenset[str]]:
    """Build the transition map from (source, symbol, target) triples."""
    acc: dict[tuple[str, str], set[str]] = {}
    for s, a, t in triples:
        acc.setdefault((s, a), set()).add(t)
    return {k: frozenset(v) for k, v in acc.items()}


def language_upto(fa: FiniteAutomaton, max_len: int) -> set[Word]:
    """Accepted words of length <= max_len; the empty word counts when an
    initial state is already final."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out: set[Word] = set()
    if fa.initial & fa.final:
        out.add(())
    frontier: dict[Word, frozenset[str]] = {(): fa.initial}
    for _ in range(max_len):
        new_frontier: dict[Word, frozenset[str]] = {}
        for word, states in frontier.items():
            for symbol in fa.alphabet:
                nxt = fa.step(states, symbol)
                if not nxt:
                    continue
                new_word = word + (symbol,)
                new_frontier[new_word] = nxt
                if nxt & fa.final:
                    out.add(new_word)
        frontier = new_frontier
    return out
