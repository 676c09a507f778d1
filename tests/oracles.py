"""Independent reference implementations the tests check against.

Everything here recomputes results from first principles (path
enumeration, frontier sets, direct recursion on expression trees) without
touching the matrix recursions or normal forms under test.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import random

from maxplushybrid import hybrid, smpl
from maxplushybrid.finite import FiniteAutomaton, Word, make_delta
from maxplushybrid.mpa import MaxPlusAutomaton
from maxplushybrid.tropical import EPS, UNIT, TropicalMatrix, Weight, oplus, oplus_dual, otimes


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


def language_upto(fa: FiniteAutomaton, max_len: int) -> set[Word]:
    """Accepted words of length <= max_len, by stepping the state set of
    every word that keeps one alive; the empty word counts when an initial
    state is already final."""
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


def language_equal_by_word_sets(fa1: FiniteAutomaton, fa2: FiniteAutomaton, max_len: int):
    """Bounded language equality from every accepted word up to max_len on
    both sides: (verdict, least word of the symmetric difference by
    (length, word)), as opposed to the joint walk over pairs of state sets."""
    if set(fa1.alphabet) != set(fa2.alphabet):
        raise ValueError("alphabet mismatch")
    diff = language_upto(fa1, max_len) ^ language_upto(fa2, max_len)
    if not diff:
        return True, None
    return False, min(diff, key=lambda w: (len(w), w))


def nfa_accepts_by_search(fa: FiniteAutomaton, word) -> bool:
    """Explicit path search, as opposed to the frontier stepping in the
    implementation."""

    def explore(state: str, rest) -> bool:
        if not rest:
            return state in fa.final
        return any(explore(nxt, rest[1:]) for nxt in fa.successors(state, rest[0]))

    return any(explore(s, tuple(word)) for s in fa.initial)


def apply_dense(m: TropicalMatrix, x) -> tuple[Weight, ...]:
    """Matrix-vector product over every dense entry, each through otimes,
    as opposed to the walk over each row's finite support."""
    if m.cols != len(x):
        raise ValueError(f"shape mismatch: {m.rows}x{m.cols} by {len(x)}")
    out = []
    for i in range(m.rows):
        acc = EPS
        for a, b in zip(m.entries[i * m.cols : (i + 1) * m.cols], x):
            term = otimes(a, b)
            if term > acc:
                acc = term
        out.append(acc)
    return tuple(out)


def min_of_products(mats, input_mats, x, u) -> tuple[Weight, ...]:
    """min over l of (mats[l] ox x oplus input_mats[l] ox u), through one
    matrix-vector product per matrix, every branch in full, as opposed to
    the compiled rows of distinct branches over x ++ u."""
    out = None
    for a, b in zip(mats, input_mats):
        vec = list(a.apply(x))
        if b.cols:
            for i, v in enumerate(b.apply(u)):
                vec[i] = oplus(vec[i], v)
        if out is None:
            out = vec
        else:
            out = [oplus_dual(p, q) for p, q in zip(out, vec)]
    assert out is not None
    return tuple(out)


def successor_set_by_dict(rule: smpl.SwitchingRule, probe: smpl.SwitchProbe) -> tuple[smpl.Candidate, ...]:
    """The rule's candidates, one per mode (the first yielded), sorted by
    mode, through a dict and a sort whatever their number, as opposed to
    the pass that skips both for at most one candidate."""
    found: dict[int, smpl.Candidate] = {}
    for cand in rule.successors(probe):
        if not isinstance(cand, smpl.Candidate):
            cand = smpl.Candidate(cand)
        found.setdefault(cand.mode, cand)
    return tuple(found[mode] for mode in sorted(found))


def smpl_step_twice(s: smpl.SmplSystem, prev_mode, x_prev, inp, k, u_prev, v_prev):
    """One SMPL step that takes only the modes from the switching rule and
    evaluates the chosen mode again, as opposed to reusing the state the
    rule computed."""
    z = s.performance_signal(prev_mode, x_prev, u_prev, v_prev)
    u, v = smpl.resolve_inputs(s, z, inp)
    probe = smpl.SwitchProbe(
        prev_mode=prev_mode, x=tuple(x_prev), u=u, v=v, w=inp.w, r=inp.r, p=inp.p
    )
    successors = tuple(cand.mode for cand in s.switching.successor_set(probe))
    if not successors:
        raise smpl.NoSuccessorMode(k)
    mode = successors[0]
    win = smpl.input_window(s.dims, u, inp)
    x = s.modes[mode].next_state(tuple(x_prev), win)
    y = s.modes[mode].output(x, win)
    return smpl.StepRecord(k=k, mode=mode, x=x, y=y, successor_modes=successors, u=u, v=v)


def simulate(s: smpl.SmplSystem, inputs) -> smpl.Trace:
    """smpl.simulate folded over smpl_step_twice."""
    records = []
    prev_mode, x = None, tuple(s.x0)
    u_prev, v_prev = (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v
    for k, inp in enumerate(inputs, start=1):
        try:
            rec = smpl_step_twice(s, prev_mode, x, inp, k, u_prev, v_prev)
        except smpl.NoSuccessorMode as halt:
            return smpl.Trace(tuple(records), halted_at=halt.step)
        records.append(rec)
        prev_mode, x, u_prev, v_prev = rec.mode, rec.x, rec.u, rec.v
    return smpl.Trace(tuple(records))


def _fresh(z, inp):
    """Equal copies that share no object with the originals, so no memo
    keyed by identity can recognise them."""
    return tuple(list(z)), dataclasses.replace(inp)


def hybrid_step_apart(h: hybrid.HybridAutomaton, state: hybrid.HybridState, inp):
    """hybrid_step with every invariant, guard and flow called on fresh
    copies of the state and input: each resolves switching and evaluates
    the dynamics on its own, as opposed to sharing one resolution."""
    if not h.admissible(state.mode, state.x, inp):
        raise hybrid.InadmissibleInput(f"input not admissible in mode {state.mode}")
    out = {}
    if h.invariant[state.mode].holds(*_fresh(state.x, inp)):
        out[state.mode] = h.flow[state.mode](*_fresh(state.x, inp))
    for edge in h.edges:
        guard = h.guards.get(edge)
        if edge[0] == state.mode and guard is not None and guard.holds(*_fresh(state.x, inp)):
            x_reset = h.reset_for(edge)(state.x)
            out.setdefault(edge[1], h.flow[edge[1]](*_fresh(x_reset, inp)))
    return tuple(hybrid.HybridState(q, out[q]) for q in sorted(out))


def run(h: hybrid.HybridAutomaton, inputs) -> smpl.Trace:
    """hybrid.run over hybrid_step_apart, merging the initial states'
    successors by mode on the first step."""
    records = []
    current = None
    for k, inp in enumerate(inputs, start=1):
        if current is None:
            merged = {}
            for init_state in h.init:
                for succ in hybrid_step_apart(h, init_state, inp):
                    merged.setdefault(succ.mode, succ)
            successors = tuple(merged[q] for q in sorted(merged))
        else:
            successors = hybrid_step_apart(h, current, inp)
        if not successors:
            return smpl.Trace(tuple(records), halted_at=k)
        current = successors[0]
        records.append(
            smpl.StepRecord(
                k=k,
                mode=current.mode,
                x=current.x,
                y=h.output[current.mode](current.x, inp),
                successor_modes=tuple(succ.mode for succ in successors),
            )
        )
    return smpl.Trace(tuple(records))


def behavioural_inclusion_by_replay(sys1, sys2, input_sequences):
    """Replay every sequence from the start on both systems and compare
    whole traces, as opposed to the shared-prefix walk."""
    for seq in input_sequences:
        t1 = sys1.trace(seq)
        if t1 is None:
            continue
        t2 = sys2.trace(seq)
        if t2 is None or t1.outputs() != t2.outputs():
            return False, tuple(seq)
    return True, None


def random_nfa(rng: random.Random, n_states: int = 3, symbols=("a", "b"), density: float = 0.35) -> FiniteAutomaton:
    """States s0, s1, ...; each (state, symbol, state) triple is a
    transition with probability density."""
    states = tuple(f"s{i}" for i in range(n_states))
    triples = [
        (s, symbol, t)
        for s in states
        for symbol in symbols
        for t in states
        if rng.random() < density
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


def refine_by_rescan(
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


def relation_by_rescan(fa1: FiniteAutomaton, fa2: FiniteAutomaton, symmetric: bool):
    """The greatest simulation (symmetric: bisimulation) of fa1 by fa2 as
    a set of pairs, or None when it leaves an initial state unmatched:
    every pair is rescanned each round until none is removed, as opposed
    to the worklist and the partition refinement."""
    pairs = refine_by_rescan(
        fa1,
        fa2,
        {
            (s1, s2)
            for s1 in fa1.states
            for s2 in fa2.states
            if ((s1 in fa1.final) == (s2 in fa2.final) if symmetric else s1 not in fa1.final or s2 in fa2.final)
        },
        symmetric,
    )
    if not all(any((s1, s2) in pairs for s2 in fa2.initial) for s1 in fa1.initial):
        return None
    if symmetric and not all(any((s1, s2) in pairs for s1 in fa1.initial) for s2 in fa2.initial):
        return None
    return pairs


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def simulation_without_image_memo(fa1: FiniteAutomaton, fa2: FiniteAutomaton) -> set[tuple[str, str]]:
    """Greatest simulation of fa1 by fa2 by the bitset worklist, each
    preimage recomputed for every fa1 state that needs it, as opposed to
    the preimages shared by (symbol, bitset)."""
    index2 = {s: j for j, s in enumerate(fa2.states)}
    pre2 = {a: [0] * len(fa2.states) for a in fa2.alphabet}
    for (s, a), targets in fa2.delta.items():
        bit = 1 << index2[s]
        row = pre2[a]
        for t in targets:
            row[index2[t]] |= bit
    final2 = sum(1 << index2[s] for s in fa2.final)
    anything = (1 << len(fa2.states)) - 1
    rel = {s: final2 if s in fa1.final else anything for s in fa1.states}
    moves: dict[str, list[tuple[str, str]]] = {s: [] for s in fa1.states}
    into: dict[str, set[str]] = {s: set() for s in fa1.states}
    preds: dict[str, set[str]] = {s: set() for s in fa1.states}
    for (s, a), targets in fa1.delta.items():
        for t in targets:
            moves[s].append((a, t))
            into[t].add(a)
            preds[t].add(s)
    matchers: dict[tuple[str, str], int] = {}

    def refresh(t1: str) -> None:
        held = list(_bits(rel[t1]))
        for a in into[t1]:
            row = pre2[a]
            acc = 0
            for j in held:
                acc |= row[j]
            matchers[a, t1] = acc

    for t1 in fa1.states:
        refresh(t1)
    queue = list(fa1.states)
    queued = set(queue)
    while queue:
        s1 = queue.pop()
        queued.discard(s1)
        row = rel[s1]
        for move in moves[s1]:
            row &= matchers[move]
        if row != rel[s1]:
            rel[s1] = row
            refresh(s1)
            for p in preds[s1] - queued:
                queued.add(p)
                queue.append(p)
    return {(s1, fa2.states[j]) for s1 in fa1.states for j in _bits(rel[s1])}


def bisimulation_by_rounds(fa1: FiniteAutomaton, fa2: FiniteAutomaton) -> set[tuple[str, str]]:
    """Greatest bisimulation between fa1 and fa2 by signature refinement of
    their disjoint union in rounds that re-sign every node until no block
    splits, as opposed to the split-driven worklist."""
    n1 = len(fa1.states)
    nodes = n1 + len(fa2.states)
    moves: list[list[tuple[str, int]]] = [[] for _ in range(nodes)]
    for offset, fa in ((0, fa1), (n1, fa2)):
        index = {s: offset + i for i, s in enumerate(fa.states)}
        for (s, a), targets in fa.delta.items():
            moves[index[s]].extend((a, index[t]) for t in targets)
    block = [int(s in fa1.final) for s in fa1.states] + [int(s in fa2.final) for s in fa2.states]
    count = len(set(block))
    while True:
        keys: dict[tuple, int] = {}
        block = [
            keys.setdefault((block[v], frozenset([(a, block[t]) for a, t in moves[v]])), len(keys))
            for v in range(nodes)
        ]
        if len(keys) == count:
            break
        count = len(keys)
    sides: dict[int, tuple[list[str], list[str]]] = collections.defaultdict(lambda: ([], []))
    for i, s in enumerate(fa1.states):
        sides[block[i]][0].append(s)
    for j, s in enumerate(fa2.states):
        sides[block[n1 + j]][1].append(s)
    return {(s1, s2) for left, right in sides.values() for s1 in left for s2 in right}


def step_row_dense(row: TropicalMatrix, m: TropicalMatrix) -> TropicalMatrix:
    """Row vector times matrix through the dense matrix product, every
    entry through otimes, as opposed to the walk over the row's finite
    entries."""
    return row.otimes(m)


def boolean_support(m: TropicalMatrix) -> TropicalMatrix:
    """UNIT where the entry is not EPS, EPS elsewhere."""
    return TropicalMatrix(m.rows, m.cols, tuple(EPS if a == EPS else UNIT for a in m.entries))
