"""Independent reference implementations the tests check against.

Everything here recomputes results from first principles (path
enumeration, frontier sets, direct recursion on expression trees) without
touching the matrix recursions or normal forms under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from maxplushybrid import hybrid, smpl
from maxplushybrid.finite import FiniteAutomaton, make_delta
from maxplushybrid.mpa import MaxPlusAutomaton
from maxplushybrid.tropical import EPS, TropicalMatrix, Weight, otimes


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
    return smpl.SmplStepRecord(k=k, mode=mode, x=x, y=y, successor_modes=successors, u=u, v=v)


def simulate(s: smpl.SmplSystem, inputs) -> smpl.SmplTrace:
    """smpl.simulate folded over smpl_step_twice."""
    records = []
    prev_mode, x = None, tuple(s.x0)
    u_prev, v_prev = (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v
    for k, inp in enumerate(inputs, start=1):
        try:
            rec = smpl_step_twice(s, prev_mode, x, inp, k, u_prev, v_prev)
        except smpl.NoSuccessorMode as halt:
            return smpl.SmplTrace(tuple(records), halted_at=halt.step, halt_reason=str(halt))
        records.append(rec)
        prev_mode, x, u_prev, v_prev = rec.mode, rec.x, rec.u, rec.v
    return smpl.SmplTrace(tuple(records))


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


def run(h: hybrid.HybridAutomaton, inputs, start=None) -> hybrid.HybridTrace:
    """hybrid.run over hybrid_step_apart, merging the initial states'
    successors by mode on the first step."""
    records = []
    current = start
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
            return hybrid.HybridTrace(tuple(records), halted_at=k)
        current = successors[0]
        records.append(
            hybrid.HybridStepRecord(
                k=k,
                mode=current.mode,
                x=current.x,
                y=h.output[current.mode](current.x, inp),
                successor_modes=tuple(succ.mode for succ in successors),
            )
        )
    return hybrid.HybridTrace(tuple(records))


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
