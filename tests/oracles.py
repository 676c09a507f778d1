"""Independent reference implementations the tests check against.

Everything here recomputes results from first principles (path
enumeration, frontier sets, direct recursion on expression trees) without
touching the matrix recursions or normal forms under test.
"""

from __future__ import annotations

import itertools
import random

from maxplushybrid.finite import FiniteAutomaton, make_delta
from maxplushybrid.mpa import MaxPlusAutomaton
from maxplushybrid.tropical import EPS, Weight


def word_value_by_paths(a: MaxPlusAutomaton, word) -> Weight:
    """Maximum of alpha + transition weights + beta over all state paths."""
    best = EPS
    for path in itertools.product(range(a.n), repeat=len(word) + 1):
        total = a.alpha[path[0]]
        for i, symbol in enumerate(word):
            if total == EPS:
                break
            weight = a.mu[symbol][path[i], path[i + 1]]
            total = EPS if weight == EPS else total + weight
        if total != EPS:
            final = a.beta[path[-1]]
            total = EPS if final == EPS else total + final
        best = max(best, total)
    return best


def accepted_words_by_paths(a: MaxPlusAutomaton, max_len: int) -> set:
    return {
        word
        for k in range(max_len + 1)
        for word in itertools.product(a.alphabet, repeat=k)
        if word_value_by_paths(a, word) != EPS
    }


def path_of_length_exists(adjacency: list[list[int]], src: int, dst: int, k: int) -> bool:
    """Frontier-set search for a directed path of exactly k edges."""
    frontier = {src}
    for _ in range(k):
        frontier = {t for s in frontier for t in adjacency[s]}
        if not frontier:
            return False
    return dst in frontier


def nfa_accepts_by_search(fa: FiniteAutomaton, word) -> bool:
    """Explicit path search, as opposed to the frontier stepping in the
    implementation."""

    def explore(state: str, rest) -> bool:
        if not rest:
            return state in fa.final
        return any(explore(nxt, rest[1:]) for nxt in fa.successors(state, rest[0]))

    return any(explore(s, tuple(word)) for s in fa.initial)


def behavioural_inclusion_by_replay(sys1, sys2, input_sequences):
    """Replay every sequence from the start on both systems and compare
    whole traces, as opposed to the shared-prefix walk."""
    for seq in input_sequences:
        t1 = sys1.trace(seq)
        if t1 is None:
            continue
        t2 = sys2.trace(seq)
        if t2 is None or t1.outputs != t2.outputs:
            return False, tuple(seq)
    return True, None


def random_nfa(rng: random.Random, n_states: int = 3, symbols=("a", "b")) -> FiniteAutomaton:
    states = tuple(f"s{i}" for i in range(n_states))
    triples = [
        (s, symbol, t)
        for s in states
        for symbol in symbols
        for t in states
        if rng.random() < 0.35
    ]
    initial = {s for s in states if rng.random() < 0.4} or {states[0]}
    final = {s for s in states if rng.random() < 0.4} or {states[-1]}
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(symbols),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
    )


def widen_nfa(rng: random.Random, fa: FiniteAutomaton) -> FiniteAutomaton:
    """A superset automaton: same states, extra transitions and finals.

    The identity relation is then a simulation of fa by the result, which
    gives test pairs where a witness is guaranteed to exist.
    """
    triples = [
        (s, symbol, t)
        for (s, symbol), targets in fa.delta.items()
        for t in targets
    ]
    extra = [
        (s, symbol, t)
        for s in fa.states
        for symbol in fa.alphabet
        for t in fa.states
        if rng.random() < 0.15
    ]
    final = set(fa.final) | {s for s in fa.states if rng.random() < 0.2}
    return FiniteAutomaton(
        states=fa.states,
        alphabet=fa.alphabet,
        delta=make_delta(triples + extra),
        initial=fa.initial,
        final=frozenset(final),
    )
