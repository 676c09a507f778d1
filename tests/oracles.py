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
from maxplushybrid.expressions import Const, InputVar, Max, Min, Plus, Scale, Var, _scale
from maxplushybrid.finite import FiniteAutomaton, Word, make_delta
from maxplushybrid.mpa import MaxPlusAutomaton, row_value
from maxplushybrid.smpl import SmplSystem, SwitchingKind, SwitchProbe
from maxplushybrid.tropical import EPS, EXACT_STATE, EXACT_WEIGHT, TOP, UNIT, TropicalMatrix, Weight, oplus, otimes
from maxplushybrid.tropical import integral_below


def oplus_dual(a: Weight, b: Weight) -> Weight:
    """Min-plus addition: min(a, b).  TOP is the identity, EPS absorbs."""
    return a if a <= b else b


def identity_matrix(n: int) -> TropicalMatrix:
    """UNIT on the diagonal, EPS elsewhere."""
    return TropicalMatrix(n, n, tuple(UNIT if i == j else EPS for i in range(n) for j in range(n)))


def initial_states(h: hybrid.HybridAutomaton) -> tuple[hybrid.HybridState, ...]:
    """Every mode of the translation at its start state."""
    return tuple(hybrid.HybridState(q, h.start) for q in h.modes)


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


def vec_leq(x, y) -> bool:
    """Componentwise order of two vectors of one length; equivalent to
    x oplus y == y."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


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


def apply_by_support(m: TropicalMatrix, x) -> tuple[Weight, ...]:
    """Matrix-vector product over each row's non-EPS entries, every term
    guarded against an EPS variable, as opposed to the unguarded sums of
    ``tropical.eval_rows``."""
    if m.cols != len(x):
        raise ValueError(f"shape mismatch: {m.rows}x{m.cols} by {len(x)}")
    out = []
    for support in m.row_support:
        acc = EPS
        for j, a in support:
            b = x[j]
            if b != EPS:
                term = a + b
                if term > acc:
                    acc = term
        out.append(acc)
    return tuple(out)


def left_apply_by_rows(m: TropicalMatrix, x) -> tuple[Weight, ...]:
    """Row vector times matrix, pushing each non-EPS entry of x along its
    row's non-EPS entries, as opposed to the compiled columns of
    ``TropicalMatrix.left_apply``."""
    if m.rows != len(x):
        raise ValueError(f"shape mismatch: {len(x)} by {m.rows}x{m.cols}")
    out = [EPS] * m.cols
    for b, support in zip(x, m.row_support):
        if b != EPS:
            for j, a in support:
                term = b + a
                if term > out[j]:
                    out[j] = term
    return tuple(out)


def compile_branches(mats, input_mats):
    """Per row, every distinct branch's non-EPS (index, weight) pairs over
    x ++ u, with no row kinds: the input of ``eval_branches``."""
    n_x, n_u = mats[0].cols, input_mats[0].cols
    rows = []
    for i in range(mats[0].rows):
        branches = []
        for a, b in zip(mats, input_mats):
            pairs = a.row_support[i] + tuple((n_x + j, w) for j, w in b.row_support[i])
            if pairs not in branches:
                branches.append(pairs)
        rows.append(tuple(branches))
    return tuple(rows), n_x, n_u


def eval_branches(compiled, x, u) -> tuple[Weight, ...]:
    """min over a row's branches of the max over its pairs, every term
    guarded against an EPS variable and every row through the min, as
    opposed to the unguarded sums of ``tropical.eval_rows``."""
    rows, n_x, n_u = compiled
    if len(x) != n_x:
        raise ValueError(f"shape mismatch: {len(rows)}x{n_x} by {len(x)}")
    if n_u:
        if len(u) != n_u:
            raise ValueError(f"shape mismatch: {len(rows)}x{n_u} by {len(u)}")
        x = (*x, *u)
    out = []
    for branches in rows:
        low = TOP
        for pairs in branches:
            acc = EPS
            for j, a in pairs:
                b = x[j]
                if b != EPS:
                    term = a + b
                    if term > acc:
                        acc = term
            if acc < low:
                low = acc
        out.append(low)
    return tuple(out)


def row_value_by_zip(a: MaxPlusAutomaton, row) -> Weight:
    """A row vector's best sum with a final weight, both sides guarded
    against EPS, as opposed to the compiled final row of ``mpa.row_value``."""
    acc = EPS
    for v, b in zip(row, a.beta):
        if v != EPS and b != EPS:
            term = v + b
            if term > acc:
                acc = term
    return acc


def min_of_products(mats, input_mats, x, u) -> tuple[Weight, ...]:
    """min over l of (mats[l] ox x oplus input_mats[l] ox u), through one
    matrix-vector product per matrix, every branch in full, as opposed to
    the compiled rows of distinct branches over x ++ u."""
    out = None
    for a, b in zip(mats, input_mats):
        vec = list(apply_by_support(a, x))
        if b.cols:
            for i, v in enumerate(apply_by_support(b, u)):
                vec[i] = oplus(vec[i], v)
        if out is None:
            out = vec
        else:
            out = [oplus_dual(p, q) for p, q in zip(out, vec)]
    assert out is not None
    return tuple(out)


def successor_set_by_dict(rule: smpl.SwitchingRule, probe: smpl.SwitchProbe) -> tuple[int, ...]:
    """The rule's candidate modes, each once, sorted, through a dict and a
    sort, as opposed to SwitchingRule.successor_set's set and sort."""
    return tuple(sorted(dict.fromkeys(rule.successors(probe))))


def smpl_step_twice(s: smpl.SmplSystem, prev_mode, x_prev, inp, k, u_prev, v_prev):
    """One SMPL step that takes the modes from the switching rule and
    evaluates the chosen mode through MatrixForm, as opposed to a
    symbol_steps table; None when the rule admits no mode.  It builds the
    performance signal z = (mode, x, u, v) itself, the mode EPS before the
    first step."""
    z = (EPS if prev_mode is None else float(prev_mode),) + tuple(x_prev) + tuple(u_prev) + tuple(v_prev)
    u, v, win = resolve_inputs_in_full(s, z, inp)
    probe = smpl.SwitchProbe(
        prev_mode=prev_mode, x=tuple(x_prev), u=u, v=v, w=inp.w, r=inp.r, p=inp.p
    )
    successors = s.switching.successor_set(probe)
    if not successors:
        return None
    mode = successors[0]
    form = s.modes[mode].form
    x = form.eval_state(tuple(x_prev), win)
    y = form.eval_output(x, win)
    return smpl.StepRecord(k=k, mode=mode, x=x, y=y, successor_modes=successors, u=u, v=v)


def simulate(s: smpl.SmplSystem, inputs) -> smpl.Trace:
    """smpl.simulate folded over smpl_step_twice."""
    records = []
    prev_mode, x = None, tuple(s.x0)
    u_prev, v_prev = (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v
    for k, inp in enumerate(inputs, start=1):
        rec = smpl_step_twice(s, prev_mode, x, inp, k, u_prev, v_prev)
        if rec is None:
            return smpl.Trace(tuple(records), halted_at=k)
        records.append(rec)
        prev_mode, x, u_prev, v_prev = rec.mode, rec.x, rec.u, rec.v
    return smpl.Trace(tuple(records))


# The event step as it was before it built its records through
# smpl.new_record and before it stepped through symbol_steps tables:
# every NamedTuple through its constructor, the rule's candidate
# modes through successor_set_by_dict, the inputs resolved in full even
# when there are none, the chosen mode's state through MatrixForm.eval_state
# and the output through MatrixForm.eval_output.


def resolve_inputs_in_full(s: smpl.SmplSystem, z, inp: smpl.StepInput):
    """The inputs smpl.resolve_inputs resolves, (u, v, u ++ r ++ p), with
    its width checks, even when there are none to resolve."""
    dims = s.dims
    if s.controller is None:
        u, v = inp.u, inp.v
        shaped = len(v) == dims.n_v
    else:
        u, v = tuple(s.controller.f_u(z, inp)), tuple(s.controller.f_v(z, inp))
        shaped = len(u) == dims.n_u and len(v) == dims.n_v
    if not shaped:
        raise ValueError(
            f"resolved inputs have shape ({len(u)}, {len(v)}), expected ({dims.n_u}, {dims.n_v})"
        )
    r, p = inp.r, inp.p
    if len(u) != dims.n_u or len(r) != dims.n_r or len(p) != dims.n_p:
        got = (len(u), len(r), len(p))
        want = (dims.n_u, dims.n_r, dims.n_p)
        raise ValueError(
            f"step input has (u, r, p) widths {got}, expected {want}; "
            f"u++r++p width {sum(got)} ({got[0]}+{got[1]}+{got[2]}), expected {dims.input_width}"
        )
    return u, v, u + r + p


def resolve_step_by_constructors(s: smpl.SmplSystem, prev_mode, x_prev, z, inp: smpl.StepInput):
    """smpl.resolve_inputs, then smpl.successor_modes: (u, v, u ++ r ++ p,
    candidate modes), whatever the system's table."""
    u, v, win = resolve_inputs_in_full(s, z, inp)
    probe = smpl.SwitchProbe(prev_mode, x_prev, u, v, inp.w, inp.r, inp.p)
    modes = successor_set_by_dict(s.switching, probe)
    if modes:
        first, last = modes[0], modes[-1]
        if first not in s.modes or last not in s.modes:
            raise ValueError(f"switching rule returned unknown mode {last if first in s.modes else first}")
    return u, v, win, modes


def advance_by_constructors(s: smpl.SmplSystem, k, prev_mode, x_prev, z, inp: smpl.StepInput):
    """smpl.advance through the rule, never a symbol_steps table: the
    record of step k + 1, or None."""
    u, v, win, modes = resolve_step_by_constructors(s, prev_mode, x_prev, z, inp)
    if not modes:
        return None
    form = s.modes[modes[0]].form
    x = form.eval_state(x_prev, win)
    return smpl.StepRecord(k + 1, modes[0], x, form.eval_output(x, win), modes, u, v)


def maha_record(s: smpl.SmplSystem, record):
    """A system step's record as the translation's: x, or z = (mode, x,
    u, v) in a closed loop, and no u or v of its own."""
    if record is None:
        return None
    x = smpl.performance_signal(record.mode, record.x, record.u, record.v) if s.closed_loop else record.x
    return smpl.StepRecord(record.k, record.mode, x, record.y, record.successor_modes)


def step_by_constructors(s: smpl.SmplSystem, state: smpl.StepRecord, inp: smpl.StepInput):
    """smpl.step."""
    z = None if s.controller is None else smpl.performance_signal(state.mode, state.x, state.u, state.v)
    return advance_by_constructors(s, state.k, state.mode, state.x, z, inp)


def maha_step_by_constructors(h: hybrid.HybridAutomaton, state: smpl.StepRecord, inp: smpl.StepInput):
    """hybrid.MahaBehaviour(h).step."""
    s, z = h.system, state.x
    return maha_record(s, advance_by_constructors(s, state.k, state.mode, h.x_of(z), z, inp))


# The switching system's and the translation's steps before bare symbols
# stepped through smpl.symbol_step: every step goes through smpl.advance.


def step_by_advance(s: smpl.SmplSystem, state: smpl.StepRecord, inp: smpl.StepInput):
    """smpl.step through smpl.advance."""
    z = None if s.controller is None else smpl.performance_signal(state.mode, state.x, state.u, state.v)
    return smpl.advance(s, state.k, state.mode, state.x, z, inp)


def maha_step_by_advance(h: hybrid.HybridAutomaton, state: smpl.StepRecord, inp: smpl.StepInput):
    """hybrid.MahaBehaviour(h).step through smpl.advance."""
    s, z = h.system, state.x
    return maha_record(s, smpl.advance(s, state.k, state.mode, h.x_of(z), z, inp))


def mpa_shift_exact_by_weights(a: MaxPlusAutomaton) -> bool:
    """Whether the automaton's runs are shift-exact, decided on its own
    weights as opposed to its system's matrices: integer transition and
    final weights below EXACT_WEIGHT and integral initial weights below
    EXACT_STATE."""
    return (
        all(m.exact for m in a.mu.values())
        and integral_below(a.beta, EXACT_WEIGHT)
        and integral_below(a.alpha, EXACT_STATE)
    )


def mpa_symbol_steps_by_columns(a: MaxPlusAutomaton) -> smpl.SymbolSteps:
    """The automaton's step table built from its own weights, as opposed to
    its system's compiled modes: per symbol one candidate, its position in
    the alphabet from 1, its matrix's columns (a row vector times the
    matrix) and beta as one row."""
    final = TropicalMatrix.row_vector(a.beta).compiled
    return {symbol: ((mode, a.mu[symbol]._columns, final),) for mode, symbol in enumerate(a.alphabet, start=1)}


def mpa_step_by_constructors(a: MaxPlusAutomaton, state: smpl.StepRecord, inp: smpl.StepInput):
    """mpa.MpaBehaviour(a).step, with the symbol's mode and matrix found in
    a.alphabet and a.mu rather than in the automaton's own step table, and
    the run halting where the row has no finite entry, as documented: a
    row of weights that are not +inf still gets +inf entries once a sum
    overflows."""
    if inp.w not in a.alphabet:
        if inp.w is None:
            raise ValueError("max-plus automata consume discrete symbols only")
        raise ValueError(f"unknown symbol {inp.w!r}")
    mode = a.alphabet.index(inp.w) + 1
    row = a.mu[inp.w].left_apply(state.x)
    if not any(w != EPS and w != TOP for w in row):
        return None
    return smpl.StepRecord(state.k + 1, mode, row, (row_value(a, row),), (mode,))


class InadmissibleInput(ValueError):
    """The input is outside the admissible set of the current hybrid state."""


@dataclasses.dataclass(frozen=True)
class ScanAutomaton:
    """The paper's max-algebraic hybrid automaton as its definition reads:
    per mode an invariant, a flow and an output map, guarded edges with
    resets (identity where none is given), and an admissible-input set.
    A step stays in the mode while its invariant holds at (x, input) and
    takes each out-edge whose guard holds there, then flows with the
    target mode; scan_step and scan_run step it, as opposed to the
    successor function of a translated hybrid.HybridAutomaton."""

    modes: tuple
    init: tuple
    flow: dict
    output: dict
    invariant: dict
    edges: tuple
    guards: dict
    resets: dict = dataclasses.field(default_factory=dict)
    admissible: object = lambda q, x, inp: True
    discrete_inputs: tuple = ()


def scan_step(h: ScanAutomaton, state, inp) -> tuple:
    """Successor states sorted by mode, from a scan of the invariant, then
    of the out-edges in declaration order: a target admitted twice keeps
    its first flow.  A mode without an invariant (None before a
    translation's first step) is left on every step."""
    mode, x = state.mode, state.x
    if not h.admissible(mode, x, inp):
        raise InadmissibleInput(f"input not admissible in mode {mode}")
    out = {}
    invariant = h.invariant.get(mode)
    if invariant is not None and invariant(x, inp):
        out[mode] = h.flow[mode](x, inp)
    for edge in h.edges:
        guard = h.guards.get(edge)
        if edge[0] == mode and guard is not None and guard(x, inp) and edge[1] not in out:
            reset = h.resets.get(edge, lambda x: x)
            out[edge[1]] = h.flow[edge[1]](reset(x), inp)
    return tuple(hybrid.HybridState(q, out[q]) for q in sorted(out))


def scan_run(h: ScanAutomaton, inputs) -> smpl.Trace:
    """The run from the initial states: the first step merges every
    initial state's successors by mode (the first initial state to reach a
    mode wins), and each step takes the smallest successor mode."""
    records = []
    current = None
    for k, inp in enumerate(inputs, start=1):
        if current is None:
            merged = {}
            for init_state in h.init:
                for succ in scan_step(h, init_state, inp):
                    merged.setdefault(succ.mode, succ)
            successors = tuple(merged[q] for q in sorted(merged))
        else:
            successors = scan_step(h, current, inp)
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


def scan_of_translation(s: smpl.SmplSystem) -> ScanAutomaton:
    """The paper's translation of a switching system, built from the
    definition and never from smpl.resolve_inputs, smpl.successor_modes or
    the library's successor function.  The hybrid state is x for the open loop and the performance
    signal z = (mode, x, u, v) for the closed loop.  The guard of (q, q'),
    and the invariant of q for q' = q, holds when oracles.smpl_step_twice
    from previous mode q admits q'; the flow of q' evaluates q' on the
    inputs resolve_inputs_in_full gives.  The one initial state has mode
    None at the system's initial state, with an edge to every mode, so a
    run's first step resolves with no previous mode."""
    dims = s.dims
    n, n_u = dims.n, dims.n_u
    modes = tuple(range(1, s.n_modes + 1))
    if s.closed_loop:
        z0 = (EPS,) + tuple(s.x0) + (EPS,) * (n_u + dims.n_v)

        def read(z):  # (x, u, v) of the previous step
            return z[1 : 1 + n], z[1 + n : 1 + n + n_u], z[1 + n + n_u :]

        def write(mode, x, u, v):
            return (float(mode),) + x + u + v

        def output_input(z, inp):  # the u this step wrote into z
            return read(z)[1] + inp.r + inp.p

    else:
        z0 = tuple(s.x0)

        def read(z):
            return z, (EPS,) * n_u, (EPS,) * dims.n_v

        def write(mode, x, u, v):
            return x

        def output_input(z, inp):
            return inp.u + inp.r + inp.p

    def guard(source, target):
        def holds(z, inp):
            x, u_prev, v_prev = read(z)
            rec = smpl_step_twice(s, source, x, inp, 1, u_prev, v_prev)
            return rec is not None and target in rec.successor_modes

        return holds

    def flow(target):
        def advance(z, inp):
            u, v, win = resolve_inputs_in_full(s, z, inp)
            return write(target, s.modes[target].form.eval_state(read(z)[0], win), u, v)

        return advance

    def output(mode):
        return lambda z, inp: s.modes[mode].form.eval_output(read(z)[0], output_input(z, inp))

    edges = tuple((q, qq) for q in (None,) + modes for qq in modes if q != qq)
    return ScanAutomaton(
        modes=modes,
        init=(hybrid.HybridState(None, z0),),
        flow={q: flow(q) for q in modes},
        output={q: output(q) for q in modes},
        invariant={q: guard(q, q) for q in modes},
        edges=edges,
        guards={edge: guard(*edge) for edge in edges},
    )


def translation_output(h: hybrid.HybridAutomaton) -> dict:
    """Per mode the output map (hybrid state, step input) -> y of a
    translated automaton, read off the state and the step input: a closed
    loop's y reads x and the u the step wrote into z, an open loop's the
    step input's own u, each followed by r ++ p.  As opposed to the output
    smpl.advance evaluates on the inputs its resolution built."""
    s = h.system
    n, n_u = s.dims.n, s.dims.n_u

    def output(mode):
        form = s.modes[mode].form
        if s.closed_loop:
            return lambda z, inp: form.eval_output(z[1 : 1 + n], z[1 + n : 1 + n + n_u] + inp.r + inp.p)
        return lambda x, inp: form.eval_output(x, inp.u + inp.r + inp.p)

    return {q: output(q) for q in h.modes}


@dataclasses.dataclass(frozen=True)
class SuccessorSetRun(smpl.Stepper):
    """Runs of a translated automaton that take the first of
    hybrid.hybrid_step's successors, every one of them built and
    evaluated, and compute y through that mode's translation_output map;
    as opposed to hybrid.MahaBehaviour, which advances the first candidate
    alone through smpl.advance."""

    automaton: hybrid.HybridAutomaton

    def init(self) -> smpl.StepRecord:
        return smpl.StepRecord(0, None, self.automaton.start, (), ())

    def step(self, state, inp):
        successors = hybrid.hybrid_step(self.automaton, state, inp)
        if not successors:
            return None
        mode, x = successors[0]
        y = translation_output(self.automaton)[mode](x, inp)
        return smpl.StepRecord(state.k + 1, mode, x, y, tuple(succ.mode for succ in successors))


def outputs(trace: smpl.Trace) -> tuple[tuple[Weight, ...], ...]:
    """Each record's output y, in step order."""
    return tuple(rec.y for rec in trace.records)


def behavioural_inclusion_by_replay(sys1, sys2, input_sequences):
    """Replay every sequence from the start on both systems and compare
    whole traces, as opposed to the shared-prefix walk."""
    for seq in input_sequences:
        t1 = sys1.trace(seq)
        if t1 is None:
            continue
        t2 = sys2.trace(seq)
        if t2 is None or outputs(t1) != outputs(t2):
            return False, tuple(seq)
    return True, None


def behavioural_inclusion_by_trie(sys1, sys2, input_sequences):
    """The shared-prefix walk without keys: a trie of the prefixes seen,
    each node holding sys1's state (None once dead) and sys2's state (None
    once dead or once an output disagreed), so each distinct prefix is
    stepped once; as opposed to the walk that shares the children of
    nodes whose normalised pairs agree."""
    root = (sys1.init(), sys2.init(), {})
    for seq in input_sequences:
        seq = tuple(seq)
        s1, s2, children = root
        for inp in seq:
            if s1 is None:
                break
            node = children.get(inp)
            if node is None:
                s1 = sys1.step(s1, inp)
                if s1 is not None and s2 is not None:
                    s2 = sys2.step(s2, inp)
                    if s2 is not None and s2.y != s1.y:
                        s2 = None
                node = children[inp] = (s1, s2, {})
            s1, s2, children = node
        if s1 is not None and s2 is None:
            return False, seq
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


def otimes_dense(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Max-plus matrix product by the dense loop over every inner index,
    every term through the scalar otimes, as opposed to TropicalMatrix.otimes
    running eval_rows over b's columns."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch for product: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    ent = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = EPS
            for k in range(a.cols):
                term = otimes(a[i, k], b[k, j])
                if term > acc:
                    acc = term
            ent.append(acc)
    return TropicalMatrix(a.rows, b.cols, tuple(ent))


def step_row_dense(row: TropicalMatrix, m: TropicalMatrix) -> TropicalMatrix:
    """Row vector times matrix through the dense matrix product, every
    entry through otimes, as opposed to the walk over the row's finite
    entries."""
    return otimes_dense(row, m)


def boolean_support(m: TropicalMatrix) -> TropicalMatrix:
    """UNIT where the entry is not EPS, EPS elsewhere."""
    return TropicalMatrix(m.rows, m.cols, tuple(EPS if a == EPS else UNIT for a in m.entries))


def eval_expr_recursive(e, x, u=()) -> Weight:
    """Walk the expression tree once per point, each operation through the
    semiring helpers, as opposed to ``eval_points``, which walks it once
    for a batch of points with the operations inline."""
    if isinstance(e, Var):
        if not 0 <= e.index < len(x):
            raise IndexError(f"state variable x{e.index} out of range")
        return x[e.index]
    if isinstance(e, InputVar):
        if not 0 <= e.index < len(u):
            raise IndexError(f"input variable u{e.index} out of range")
        return u[e.index]
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Max):
        return oplus(eval_expr_recursive(e.left, x, u), eval_expr_recursive(e.right, x, u))
    if isinstance(e, Min):
        return oplus_dual(eval_expr_recursive(e.left, x, u), eval_expr_recursive(e.right, x, u))
    if isinstance(e, Plus):
        return otimes(eval_expr_recursive(e.left, x, u), eval_expr_recursive(e.right, x, u))
    if isinstance(e, Scale):
        return _scale(e.factor, eval_expr_recursive(e.child, x, u))
    raise TypeError(f"not an expression node: {e!r}")


def first_batch_error(e, xs, us):
    """The error eval_points raises at the batch (xs[i], us[i]), or None:
    the first node in a left-to-right walk that is not a node, or whose
    variable some point lacks; as opposed to the one comparison per node
    against the shortest point."""
    if isinstance(e, (Var, InputVar)):
        label, vectors = ("state variable x", xs) if isinstance(e, Var) else ("input variable u", us)
        for v in vectors:
            if not 0 <= e.index < len(v):
                return IndexError(f"{label}{e.index} out of range")
        return None
    if isinstance(e, Const):
        return None
    if isinstance(e, Scale):
        return first_batch_error(e.child, xs, us)
    if isinstance(e, (Max, Min, Plus)):
        return first_batch_error(e.left, xs, us) or first_batch_error(e.right, xs, us)
    return TypeError(f"not an expression node: {e!r}")


def conjunctive_value(form, x, u=()) -> Weight:
    """min over the form's rows of the max of coefficient-plus-variable
    terms, the first n_state coefficients on x and the rest on u, each
    term through the semiring helpers, as opposed to the compiled
    branches a stacked matrix form evaluates."""
    n = form.n_state
    acc = TOP
    for row in form.rows:
        value = EPS
        for c, v in zip(row[:n], x):
            value = oplus(value, otimes(c, v))
        for c, v in zip(row[n:], u):
            value = oplus(value, otimes(c, v))
        acc = oplus_dual(acc, value)
    return acc


def dominates(p, q) -> bool:
    """True iff every coefficient of row p is >= the matching one of row q.
    Then q <= p pointwise as functions, so p can never attain the min of a
    conjunctive form that also holds q."""
    if len(p) != len(q):
        raise ValueError(f"rows over different variable counts: {len(p)} vs {len(q)}")
    return all(a >= b for a, b in zip(p, q))


def canonical_value_by_recursion(value):
    """Document canonicalisation with one call per value, list items
    included, as opposed to handling scalar items in place.  A tuple
    becomes the list JSON writes it as, and an integral float below 2**53
    in magnitude the int it equals."""
    if isinstance(value, dict):
        return {str(k): canonical_value_by_recursion(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical_value_by_recursion(v) for v in value]
    if isinstance(value, float) and abs(value) < 2**53 and value.is_integer():
        return int(value)
    return value


def random_inputs_per_step(rng: random.Random, system: smpl.SmplSystem, length: int):
    """The reproduce suite's random step inputs, one fresh StepInput per
    step, as opposed to one shared input per symbol when there is no u."""
    symbols = system.switching.alphabet or (None,)
    seqs = []
    for _ in range(length):
        seqs.append(
            smpl.StepInput(
                u=tuple(float(rng.randint(-3, 6)) for _ in range(system.dims.n_u)),
                w=rng.choice(symbols),
            )
        )
    return tuple(seqs)


# The finite abstractions as they were stated before they read the
# transition graphs: every matrix entry scanned by index.  The hybrid
# abstractions kept each non-EPS entry, so on a system with +inf weights
# these keep the +inf entries' edges and labels too.


def finite_edges_by_entry(mats, src_label, dst_label) -> set[tuple[str, str]]:
    """expressions._finite_edges: an edge (i, j) per finite (j, i) entry."""
    edges: set[tuple[str, str]] = set()
    for m in mats:
        for j in range(m.rows):
            for i in range(m.cols):
                if m[j, i] != EPS and m[j, i] != TOP:
                    edges.add((src_label(i), dst_label(j)))
    return edges


def _initial_labels_by_scan(h: hybrid.HybridAutomaton, x_labels) -> set[str]:
    return {
        f"q{init_state.mode}.{x_labels[j]}"
        for init_state in initial_states(h)
        for j, value in enumerate(init_state.x)
        if value != EPS
    }


def one_step_abstraction_by_scan(h: hybrid.HybridAutomaton) -> FiniteAutomaton:
    """hybrid.finite_abstraction with entry-by-entry graphs, and its final
    and u-initial labels found by testing every label against every edge."""
    forms = {q: h.system.modes[q].form for q in h.modes}
    n_inputs = forms[1].n_input
    x_labels = [f"x{i + 1}" for i in range(h.n)]
    u_labels = [f"u{p + 1}" for p in range(n_inputs)]
    states = tuple(f"q{q}.{lab}" for q in h.modes for lab in x_labels + u_labels)
    triples = []
    initial = _initial_labels_by_scan(h, x_labels)
    final = set()
    for q in h.modes:
        f = forms[q]
        gf = finite_edges_by_entry(f.A, x_labels.__getitem__, x_labels.__getitem__)
        gf |= finite_edges_by_entry(f.B, u_labels.__getitem__, x_labels.__getitem__)
        gh = finite_edges_by_entry(f.C, x_labels.__getitem__, lambda j: f"y{j + 1}")
        gh |= finite_edges_by_entry(f.D, u_labels.__getitem__, lambda j: f"y{j + 1}")
        for src, dst in gf:
            triples.append((f"q{q}.{src}", hybrid.STEP_SYMBOL, f"q{q}.{dst}"))
        for lab in x_labels + u_labels:
            if any(src == lab for src, _ in gh):
                final.add(f"q{q}.{lab}")
        for lab in u_labels:
            if any(src == lab for src, _ in gf):
                initial.add(f"q{q}.{lab}")
    for (source, target), symbols in h.edges.items():
        for w in h.discrete_inputs if symbols is None else sorted(symbols):
            for lab in x_labels:
                triples.append((f"q{source}.{lab}", w, f"q{target}.{lab}"))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(h.discrete_inputs) + (hybrid.STEP_SYMBOL,),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
    )


def fused_abstraction_by_scan(h: hybrid.HybridAutomaton) -> FiniteAutomaton:
    """hybrid.mpa_chain_abstraction by scans of each mode's A[0] and C[0]."""
    symbols = h.discrete_inputs
    x_labels = [f"x{i + 1}" for i in range(h.n)]
    states = tuple(f"q{q}.{lab}" for q in h.modes for lab in x_labels)
    triples = []
    for target in h.modes:
        a = h.system.modes[target].form.A[0]
        for j in range(a.rows):
            for i in range(a.cols):
                if a[j, i] != EPS:
                    for source in h.modes:
                        triples.append((f"q{source}.{x_labels[i]}", symbols[target - 1], f"q{target}.{x_labels[j]}"))
    final = set()
    for q in h.modes:
        c = h.system.modes[q].form.C[0]
        for j in range(c.cols):
            if c[0, j] != EPS:
                final.add(f"q{q}.{x_labels[j]}")
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(symbols),
        delta=make_delta(triples),
        initial=frozenset(_initial_labels_by_scan(h, x_labels)),
        final=frozenset(final),
    )


def weight_free_by_scan(a: MaxPlusAutomaton) -> FiniteAutomaton:
    """mpa.to_finite_abstraction by a scan of all n^2 entries per symbol."""
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
    )


def top_as_eps(s: smpl.SmplSystem) -> smpl.SmplSystem:
    """The system with every +inf weight of its modes and x0 made EPS, the
    weight that carries no edge.  The switching rule is kept as it is."""

    def clean(m: TropicalMatrix) -> TropicalMatrix:
        return TropicalMatrix(m.rows, m.cols, tuple(EPS if w == TOP else w for w in m.entries))

    modes = {
        q: smpl.MatrixMode(
            dataclasses.replace(
                mode.form,
                **{key: tuple(map(clean, getattr(mode.form, key))) for key in "ABCD"},
            )
        )
        for q, mode in s.modes.items()
    }
    return dataclasses.replace(s, modes=modes, x0=tuple(EPS if w == TOP else w for w in s.x0))


def nesting_by_recursion(value) -> int:
    """How deep arrays and objects nest in a JSON value."""
    if isinstance(value, list):
        return 1 + max(map(nesting_by_recursion, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(nesting_by_recursion, value.values()), default=0)
    return 0


# Fields a rule of the given kind must ignore; probed by classify_switching.
_CLAIMED_INDEPENDENT: dict[SwitchingKind, frozenset[str]] = {
    SwitchingKind.STATE_DEPENDENT_AUTONOMOUS: frozenset({"u", "v", "w", "r", "p"}),
    SwitchingKind.STATE_DEPENDENT_CONTROLLED: frozenset({"w", "r", "p"}),
    SwitchingKind.EXTERNALLY_DRIVEN: frozenset({"prev_mode", "x", "u", "v", "r", "p"}),
    SwitchingKind.CONSTRAINED: frozenset({"u", "v", "r", "p"}),
    SwitchingKind.CONSTRAINED_CONTROLLED: frozenset({"u", "r", "p"}),
}


class SwitchingClassificationError(ValueError):
    """Declared switching kind conflicts with observed argument sensitivity."""


def classify_switching(s: SmplSystem, probes: int = 12, seed: int = 0) -> SwitchingKind:
    """Validate the declared kind by probing for forbidden sensitivities.

    Each kind claims independence from some arguments; the rule is sampled
    at random base points and each claimed-independent argument is varied
    in isolation.  A change in the successor modes is a contradiction.
    The continuous inputs u, r and p are drawn finite, as the CLI takes
    them (it refuses "-inf" and "+inf" there); x and v are EPS one time in
    four.
    """
    rule = s.switching

    def successor_modes(probe: SwitchProbe) -> tuple[int, ...]:
        return rule.successor_set(probe)

    rng = random.Random(seed)
    dims = s.dims
    symbols = rule.alphabet
    prev_modes = [None, *range(1, s.n_modes + 1)]

    def rand_vec(name: str, size: int) -> tuple[Weight, ...]:
        finite = name in ("u", "r", "p")
        return tuple(
            EPS if not finite and rng.random() < 0.25 else float(rng.randint(-5, 9))
            for _ in range(size)
        )

    def rand_probe() -> SwitchProbe:
        return SwitchProbe(
            prev_mode=rng.choice(prev_modes),
            x=rand_vec("x", dims.n),
            u=rand_vec("u", dims.n_u),
            v=rand_vec("v", dims.n_v),
            w=rng.choice(symbols) if symbols else None,
            r=rand_vec("r", dims.n_r),
            p=rand_vec("p", dims.n_p),
        )

    def variants(probe: SwitchProbe, name: str) -> list[SwitchProbe]:
        """Three copies of probe with the field redrawn; none if it has nothing to draw from."""
        if name == "prev_mode":
            return [probe._replace(prev_mode=rng.choice(prev_modes)) for _ in range(3)]
        if name == "w":
            return [probe._replace(w=rng.choice(symbols)) for _ in range(3)] if symbols else []
        size = len(getattr(probe, name))
        return [probe._replace(**{name: rand_vec(name, size)}) for _ in range(3)] if size else []

    claimed = _CLAIMED_INDEPENDENT[rule.kind]
    for _ in range(probes):
        base = rand_probe()
        baseline = successor_modes(base)
        for name in sorted(claimed):
            for variant in variants(base, name):
                if successor_modes(variant) != baseline:
                    raise SwitchingClassificationError(
                        f"rule declared {rule.kind.value} but is sensitive to {name!r}"
                    )
    return rule.kind
