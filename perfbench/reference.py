"""Known answers computed by the benchmark itself.

Nothing here calls the library code path an operation measures: automata are
read as plain data (weights, transition sets) and evaluated with loops
written for this file.  These answers are what every operation is checked
against.
"""

from __future__ import annotations

import collections
import itertools

EPS = float("-inf")


# -- max-plus automata and their translations --------------------------------


def _row_times(row: list[float], a, symbol: str) -> list[float]:
    m = a.mu[symbol]
    n = a.n
    out = [EPS] * n
    for i, ri in enumerate(row):
        if ri == EPS:
            continue
        base = i * n
        for j in range(n):
            w = m.entries[base + j]
            if w != EPS and ri + w > out[j]:
                out[j] = ri + w
    return out


def _value(row: list[float], beta) -> float:
    best = EPS
    for r, b in zip(row, beta):
        if r != EPS and b != EPS and r + b > best:
            best = r + b
    return best


def behaviour_traces(a, words_by_level):
    """Reference traces of an automaton and of its switching-system (and
    hence hybrid) translation, for every word of every level.

    Returns {word: (mpa_trace, smpl_trace)} where a trace is the tuple of
    output values per prefix, or None when the word is outside the model's
    behaviour: the automaton must accept the whole word, the translated
    system must keep a finite state entry after every step.
    """
    rows = {(): list(a.alpha)}
    out = {}
    for level in words_by_level:
        for word in level:
            row = _row_times(rows[word[:-1]], a, word[-1])
            rows[word] = row
            prefix_values = []
            alive = True
            for k in range(1, len(word) + 1):
                r = rows[word[:k]]
                prefix_values.append(_value(r, a.beta))
                alive = alive and any(v != EPS for v in r)
            values = tuple(prefix_values)
            mpa_trace = values if values[-1] != EPS else None
            smpl_trace = values if alive else None
            out[word] = (mpa_trace, smpl_trace)
    return out


def word_value(a, word) -> float:
    """The automaton's output on one word (EPS when it does not accept it)."""
    row = list(a.alpha)
    for symbol in word:
        row = _row_times(row, a, symbol)
    return _value(row, a.beta)


def words_by_level(alphabet, bound: int):
    """Words of length 1..bound, grouped by length, each group in
    ``itertools.product`` order over the given alphabet order."""
    return [list(itertools.product(tuple(alphabet), repeat=k)) for k in range(1, bound + 1)]


def first_behaviour_counterexample(traces1, side1: int, traces2, side2: int, levels):
    """First word, in enumeration order, whose side-1 trace exists and is not
    reproduced by side 2; None when inclusion holds up to the bound.

    ``side`` selects the automaton (0) or its translation (1) in the
    ``behaviour_traces`` tables.
    """
    for level in levels:
        for word in level:
            t1 = traces1[word][side1]
            if t1 is None:
                continue
            if traces2[word][side2] != t1:
                return word
    return None


def best_path(a, word):
    """One maximising state path (len(word) + 1 states) of an accepted word."""
    n = a.n
    rows = [list(a.alpha)]
    for symbol in word:
        rows.append(_row_times(rows[-1], a, symbol))
    end = max(range(n), key=lambda j: _value([rows[-1][j]], [a.beta[j]]))
    path = [end]
    for k in range(len(word), 0, -1):
        m = a.mu[word[k - 1]]
        j = path[-1]
        target = rows[k][j]
        prev = next(
            i
            for i in range(n)
            if rows[k - 1][i] != EPS
            and m.entries[i * n + j] != EPS
            and rows[k - 1][i] + m.entries[i * n + j] == target
        )
        path.append(prev)
    return list(reversed(path))


# -- finite automata ----------------------------------------------------------


def _succ_table(fa):
    table = collections.defaultdict(frozenset)
    for key, targets in fa.delta.items():
        table[key] = frozenset(targets)
    return table


def _step(table, states, symbol) -> frozenset:
    return frozenset(t for s in states for t in table[(s, symbol)])


def shortest_difference(fa1, fa2, max_len: int | None = None):
    """The length-then-lexicographically least word accepted by exactly one
    automaton, or None.  Breadth-first over pairs of state sets, symbols in
    sorted order; ``max_len`` stops the search at that word length."""
    t1, t2 = _succ_table(fa1), _succ_table(fa2)
    symbols = sorted(fa1.alphabet)
    start = (frozenset(fa1.initial), frozenset(fa2.initial))
    parent = {start: None}
    queue = collections.deque([(start, 0)])
    while queue:
        pair, depth = queue.popleft()
        if bool(pair[0] & fa1.final) != bool(pair[1] & fa2.final):
            word = []
            node = pair
            while parent[node] is not None:
                node, symbol = parent[node]
                word.append(symbol)
            return tuple(reversed(word))
        if max_len is not None and depth >= max_len:
            continue
        for symbol in symbols:
            nxt = (_step(t1, pair[0], symbol), _step(t2, pair[1], symbol))
            if nxt not in parent:
                parent[nxt] = (pair, symbol)
                queue.append((nxt, depth + 1))
    return None


def reachable_sets(fa, max_len: int):
    """(shortest word, state set) for every state set the automaton reaches
    with words of at most max_len symbols, breadth-first."""
    table = _succ_table(fa)
    start = frozenset(fa.initial)
    seen = {start: ()}
    queue = collections.deque([start])
    while queue:
        states = queue.popleft()
        word = seen[states]
        if len(word) >= max_len:
            continue
        for symbol in sorted(fa.alphabet):
            nxt = _step(table, states, symbol)
            if nxt not in seen:
                seen[nxt] = word + (symbol,)
                queue.append(nxt)
    return [(word, states) for states, word in seen.items()]


def accepts(fa, word) -> bool:
    table = _succ_table(fa)
    current = frozenset(fa.initial)
    for symbol in word:
        current = _step(table, current, symbol)
    return bool(current & fa.final)


def relation_fault(fa1, fa2, pairs, symmetric: bool) -> str | None:
    """Why ``pairs`` is not a simulation of fa1 by fa2 (a bisimulation when
    ``symmetric``) that relates the initial states; None when it is one."""
    t1, t2 = _succ_table(fa1), _succ_table(fa2)
    right = collections.defaultdict(set)
    left = collections.defaultdict(set)
    for s1, s2 in pairs:
        right[s1].add(s2)
        left[s2].add(s1)
    for s1, s2 in pairs:
        if s1 in fa1.final and s2 not in fa2.final:
            return f"({s1}, {s2}) breaks finality"
        if symmetric and s2 in fa2.final and s1 not in fa1.final:
            return f"({s1}, {s2}) breaks finality"
        for a in fa1.alphabet:
            succ2 = t2[(s2, a)]
            for u1 in t1[(s1, a)]:
                if not right[u1] & succ2:
                    return f"({s1}, {s2}) cannot match {s1} -{a}-> {u1}"
            if symmetric:
                succ1 = t1[(s1, a)]
                for u2 in succ2:
                    if not left[u2] & succ1:
                        return f"({s1}, {s2}) cannot match {s2} -{a}-> {u2}"
    for s1 in fa1.initial:
        if not right[s1] & fa2.initial:
            return f"initial {s1} unrelated"
    if symmetric:
        for s2 in fa2.initial:
            if not left[s2] & fa1.initial:
                return f"initial {s2} unrelated"
    return None
