"""Max-algebraic hybrid automata: executions, translations, abstractions.

A hybrid state is a (mode, state-vector) pair.  One event step from (q, x)
first settles where the mode goes: staying in q is allowed while the mode
invariant holds at (x, inputs), and an edge (q, q') fires when its guard
holds there.  Each admitted target mode then advances the continuous state
with its own dynamics, after the edge's reset (identity throughout here).
Resolving the mode against the pre-step state and flowing with the target
mode is what makes translated switching systems match step for step.

Open- and closed-loop switching systems translate by one construction; a
state codec says where the system's x sits in the hybrid state: x itself
for the open loop, the augmented state (mode, x, u, v) for the closed loop.
A translated automaton resolves switching once per step: the invariant and
guards of one source state read one resolution, and the flows take the
next states its candidates already carry.

MahaBehaviour is the automaton's stepper (smpl.Stepper, next to hybrid_step
here); a run is its fold, with the smallest successor mode taken each step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .expressions import MatrixForm, transition_graph_f, transition_graph_h, u_label, x_label
from .finite import FiniteAutomaton, make_delta
from .smpl import SmplSystem, StepInput, Stepper, StepRecord, SwitchProbe, Trace, input_window, resolve_inputs
from .tropical import EPS, Weight

FlowFn = Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
PredicateFn = Callable[[tuple[Weight, ...], StepInput], bool]


class InadmissibleInput(ValueError):
    """The input is outside the admissible set of the current hybrid state."""


class AssumptionViolation(ValueError):
    """The automaton lacks the structure the finite abstraction needs."""


class WrongProvenance(ValueError):
    """The fused abstraction only applies to automata built from a max-plus
    automaton translation chain."""


@dataclass(frozen=True)
class GuardPredicate:
    """Executable condition plus, when known, the discrete symbols that can
    satisfy it; the declarative part is what the abstraction reads."""

    holds: PredicateFn
    enabled_symbols: frozenset[str] | None = None


def identity_reset(x: tuple[Weight, ...]) -> tuple[Weight, ...]:
    return x


class HybridState(NamedTuple):
    mode: int
    x: tuple[Weight, ...]


@dataclass(frozen=True)
class HybridAutomaton:
    modes: tuple[int, ...]
    n: int
    discrete_inputs: tuple[str, ...]
    n_y: int
    init: tuple[HybridState, ...]
    flow: dict[int, FlowFn]
    output: dict[int, FlowFn]
    invariant: dict[int, GuardPredicate]
    edges: tuple[tuple[int, int], ...]
    guards: dict[tuple[int, int], GuardPredicate]
    resets: dict[tuple[int, int], Callable[[tuple[Weight, ...]], tuple[Weight, ...]]] = field(
        default_factory=dict
    )
    admissible: Callable[[int, tuple[Weight, ...], StepInput], bool] = lambda q, x, inp: True
    forms: dict[int, MatrixForm] | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        mode_set = set(self.modes)
        for q in itertools.chain(self.flow, self.output, self.invariant):
            if q not in mode_set:
                raise ValueError(f"unknown mode {q}")
        for q, qq in self.edges:
            if q not in mode_set or qq not in mode_set:
                raise ValueError(f"edge over unknown modes ({q},{qq})")
        for edge in self.guards:
            if edge not in set(self.edges):
                raise ValueError(f"guard on undeclared edge {edge}")
        for state in self.init:
            if state.mode not in mode_set:
                raise ValueError("initial mode not declared")
            if len(state.x) != self.n:
                raise ValueError("initial state has wrong dimension")

    def reset_for(self, edge: tuple[int, int]):
        return self.resets.get(edge, identity_reset)

    def identity_resets_only(self) -> bool:
        return all(r is identity_reset for r in self.resets.values())


def hybrid_step(
    h: HybridAutomaton, state: HybridState, inp: StepInput
) -> tuple[HybridState, ...]:
    """Successor hybrid states for one event step, sorted by mode.

    Empty result means the execution is blocked: neither the invariant of
    the current mode nor any outgoing guard admits the pre-step state and
    the step's inputs.
    """
    if not h.admissible(state.mode, state.x, inp):
        raise InadmissibleInput(f"input not admissible in mode {state.mode}")
    out: dict[int, tuple[Weight, ...]] = {}
    if h.invariant[state.mode].holds(state.x, inp):
        out[state.mode] = h.flow[state.mode](state.x, inp)
    for edge in h.edges:
        if edge[0] != state.mode:
            continue
        guard = h.guards.get(edge)
        if guard is not None and guard.holds(state.x, inp):
            x_reset = h.reset_for(edge)(state.x)
            target = edge[1]
            out.setdefault(target, h.flow[target](x_reset, inp))
    return tuple(HybridState(q, out[q]) for q in sorted(out))


@dataclass(frozen=True)
class MahaBehaviour(Stepper):
    """Runs of a hybrid automaton: each step takes the smallest successor
    mode.  Before the first step there is no current state (mode None), and
    the first step merges the successors of every initial state by mode
    (the first initial state to reach a mode wins), as a switching system's
    first mode is resolved by its rule rather than given."""

    automaton: HybridAutomaton

    def init(self) -> StepRecord:
        return StepRecord(0, None, (), (), ())

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        h = self.automaton
        if state.mode is not None:
            successors = hybrid_step(h, HybridState(state.mode, state.x), inp)
        else:
            merged: dict[int, HybridState] = {}
            for init_state in h.init:
                for succ in hybrid_step(h, init_state, inp):
                    merged.setdefault(succ.mode, succ)
            successors = tuple(merged[q] for q in sorted(merged))
        if not successors:
            return None
        current = successors[0]
        y = h.output[current.mode](current.x, inp)
        return StepRecord(state.k + 1, current.mode, current.x, y, tuple(succ.mode for succ in successors))

    # perfbench/tracing.py wraps cls.__dict__["trace"] per class.
    trace = Stepper.trace


def run(h: HybridAutomaton, inputs: Sequence[StepInput]) -> Trace:
    """Deterministic execution from the initial states: MahaBehaviour's fold."""
    return MahaBehaviour(h).fold(inputs)


@dataclass(frozen=True)
class _StateCodec:
    """Where a translated automaton keeps the switching system's state.

    read_x and write move between the hybrid state and the system's x;
    read_u gives the output map this step's controlled input, which the
    closed loop must read back from the state its flow just wrote.
    """

    n: int
    init: tuple[Weight, ...]
    read_x: Callable[[tuple[Weight, ...]], tuple[Weight, ...]]
    read_u: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    write: Callable[..., tuple[Weight, ...]]  # (mode, x, u, v) -> hybrid state
    meta: dict


def _translate(
    s: SmplSystem, codec: _StateCodec, forms: dict[int, MatrixForm] | None = None
) -> HybridAutomaton:
    """One mode per switching mode, over the codec's state.

    The invariant of mode q collects the (state, input) pairs the rule maps
    back to q; the guard of edge (q, q') collects the pairs it maps to q'.
    Controlled inputs are resolved through the controller when one is
    bundled, so guards and flows see exactly what a simulation step would.
    Resets are identity and every mode is initial at the codec's state.

    The predicates of one source share a one-entry memo of the last
    resolution, keyed by (source, z, inp) with z and inp held and compared
    by identity, so a hybrid step resolves switching once.  A flow's result
    depends on z and inp only, so a flow takes its mode's next state from
    the memo whatever the source, when the rule computed it with the
    system's own dynamics of that mode.
    """
    modes = tuple(range(1, s.n_modes + 1))
    read_x, read_u, write = codec.read_x, codec.read_u, codec.write
    # source, z, inp, then the resolved (u, v) and the candidates by mode
    memo: list = [None, None, None, None]

    def resolve(source: int, z: tuple[Weight, ...], inp: StepInput) -> tuple:
        if memo[1] is z and memo[2] is inp and memo[0] == source:
            return memo[3]
        u, v = resolve_inputs(s, z, inp)
        probe = SwitchProbe(source, read_x(z), u, v, inp.w, inp.r, inp.p)
        by_mode = {cand.mode: cand for cand in s.switching.successor_set(probe)}
        memo[:] = (source, z, inp, (u, v, by_mode))
        return memo[3]

    def switch_predicate(source: int, target: int) -> PredicateFn:
        def holds(z: tuple[Weight, ...], inp: StepInput) -> bool:
            return target in resolve(source, z, inp)[2]

        return holds

    def flow_fn(mode: int) -> FlowFn:
        dynamics = s.modes[mode]

        def flow(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
            x_new = None
            if memo[1] is z and memo[2] is inp:
                u, v, by_mode = memo[3]
                if mode in by_mode:
                    x_new = by_mode[mode].state_for(dynamics)
            else:
                u, v = resolve_inputs(s, z, inp)
            win = input_window(s.dims, u, inp)
            if x_new is None:
                x_new = dynamics.next_state(read_x(z), win)
            return write(mode, x_new, u, v)

        return flow

    def output_fn(mode: int) -> FlowFn:
        def out(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
            return s.modes[mode].output(read_x(z), input_window(s.dims, read_u(z, inp), inp))

        return out

    def guard(source: int, target: int) -> GuardPredicate:
        return GuardPredicate(
            holds=switch_predicate(source, target),
            enabled_symbols=s.switching.enabling_symbols(target),
        )

    edges = tuple((q, qq) for q in modes for qq in modes if q != qq)
    return HybridAutomaton(
        modes=modes,
        n=codec.n,
        discrete_inputs=s.switching.symbols or (),
        n_y=s.dims.n_y,
        init=tuple(HybridState(q, codec.init) for q in modes),
        flow={q: flow_fn(q) for q in modes},
        output={q: output_fn(q) for q in modes},
        invariant={q: guard(q, q) for q in modes},
        edges=edges,
        guards={edge: guard(*edge) for edge in edges},
        forms=forms,
        meta={**codec.meta, "source_provenance": s.meta.get("translated_from")},
    )


def from_smpl_open(s: SmplSystem) -> HybridAutomaton:
    """Translation whose hybrid state is the switching system's x itself."""
    if s.closed_loop:
        raise ValueError("open-loop translation needs a system without controller hooks")
    codec = _StateCodec(
        n=s.dims.n,
        init=tuple(s.x0),
        read_x=lambda z: z,
        read_u=lambda z, inp: tuple(inp.u),
        write=lambda mode, x, u, v: x,
        meta={"translated_from": "smpl_open"},
    )
    forms = None
    if all(s.modes[q].form is not None for q in s.modes):
        forms = {q: s.modes[q].form for q in s.modes}
    return _translate(s, codec, forms)


class NonRepresentableController(ValueError):
    """Closed-loop translation needs max-min-plus controller hooks."""


def from_smpl_closed(s: SmplSystem) -> HybridAutomaton:
    """Closed-loop translation over the augmented state (mode, x, u, v).

    The controller is folded into the flow: each step decodes the previous
    (x, u, v) from the augmented state, asks the controller for this step's
    inputs, advances with the target mode and re-encodes.
    """
    if not s.closed_loop:
        raise ValueError("closed-loop translation needs controller hooks")
    assert s.controller is not None
    if not s.controller.max_min_plus:
        raise NonRepresentableController(
            f"controller {s.controller.name!r} is not a max-min-plus map"
        )
    n, n_u, n_v = s.dims.n, s.dims.n_u, s.dims.n_v
    codec = _StateCodec(
        n=1 + n + n_u + n_v,
        init=s.initial_performance_signal(),
        read_x=lambda z: z[1 : 1 + n],
        read_u=lambda z, inp: z[1 + n : 1 + n + n_u],
        write=lambda mode, x, u, v: (float(mode),) + x + u + v,
        meta={
            "translated_from": "smpl_closed",
            "state_layout": {"mode": 0, "x": (1, 1 + n), "u": (1 + n, 1 + n + n_u)},
        },
    )
    return _translate(s, codec)


STEP_SYMBOL = "1"


def _state_name(q: int, label: str) -> str:
    return f"q{q}.{label}"


def _initial_labels(h: HybridAutomaton, x_labels: list[str]) -> set[str]:
    """Abstract states of the finite entries of each initial state."""
    return {
        _state_name(init_state.mode, x_labels[j])
        for init_state in h.init
        for j, value in enumerate(init_state.x)
        if value != EPS
    }


def finite_abstraction(h: HybridAutomaton) -> FiniteAutomaton:
    """One-step transition system over (mode, variable-label) pairs.

    Within a mode, the label moves along the dependency edges of that
    mode's dynamics under the step symbol "1".  A declared mode edge moves
    the mode while keeping the label, under each discrete symbol its guard
    admits (all of them when the guard carries no declarative tag).
    """
    if h.forms is None:
        raise AssumptionViolation(
            "finite abstraction needs max-min-plus matrix dynamics per mode"
        )
    if not h.identity_resets_only():
        raise AssumptionViolation("finite abstraction needs identity resets")
    if STEP_SYMBOL in h.discrete_inputs:
        raise ValueError("discrete input alphabet collides with the step symbol")
    n_u = {h.forms[q].n_input for q in h.modes}
    if len(n_u) != 1:
        raise AssumptionViolation("modes disagree on the input dimension")
    n_inputs = n_u.pop()
    x_labels = [x_label(i) for i in range(h.n)]
    u_labels = [u_label(p) for p in range(n_inputs)]
    states = tuple(
        _state_name(q, lab) for q in h.modes for lab in x_labels + u_labels
    )
    triples: list[tuple[str, str, str]] = []
    initial = _initial_labels(h, x_labels)
    final: set[str] = set()
    for q in h.modes:
        gf = transition_graph_f(h.forms[q])
        gh = transition_graph_h(h.forms[q])
        for src, dst in gf.sorted_edges():
            triples.append((_state_name(q, src), STEP_SYMBOL, _state_name(q, dst)))
        for lab in x_labels + u_labels:
            if any(src == lab for src, _ in gh.edges):
                final.add(_state_name(q, lab))
        for lab in u_labels:
            if any(src == lab for src, _ in gf.edges):
                initial.add(_state_name(q, lab))
    for edge in h.edges:
        guard = h.guards.get(edge)
        if guard is None:
            continue
        symbols = guard.enabled_symbols
        symbols = h.discrete_inputs if symbols is None else sorted(symbols)
        for w in symbols:
            for lab in x_labels:
                triples.append((_state_name(edge[0], lab), w, _state_name(edge[1], lab)))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(h.discrete_inputs) + (STEP_SYMBOL,),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
        meta={"source": "hybrid automaton", "style": "one-step"},
    )


def mpa_chain_abstraction(h: HybridAutomaton) -> FiniteAutomaton:
    """Fused abstraction for automata translated from a max-plus automaton.

    Mode switches and one-step state transitions happen together here: on
    the symbol of mode q', the label moves along q' dynamics from any
    current mode.  The result is comparable, symbol for symbol, with the
    weight-free projection of the original automaton.
    """
    if (
        h.meta.get("translated_from") != "smpl_open"
        or h.meta.get("source_provenance") != "mpa"
    ):
        raise WrongProvenance(
            "fused abstraction applies to hybrid automata obtained from a "
            "max-plus automaton via the switching-system translation"
        )
    assert h.forms is not None
    symbols = h.discrete_inputs
    x_labels = [x_label(i) for i in range(h.n)]
    states = tuple(_state_name(q, lab) for q in h.modes for lab in x_labels)
    triples: list[tuple[str, str, str]] = []
    for target in h.modes:
        symbol = symbols[target - 1]
        a = h.forms[target].A[0]
        for j in range(a.rows):
            for i in range(a.cols):
                if a[j, i] == EPS:
                    continue
                for source in h.modes:
                    triples.append(
                        (_state_name(source, x_labels[i]), symbol, _state_name(target, x_labels[j]))
                    )
    initial = _initial_labels(h, x_labels)
    final: set[str] = set()
    for q in h.modes:
        c = h.forms[q].C[0]
        for j in range(c.cols):
            if c[0, j] != EPS:
                final.add(_state_name(q, x_labels[j]))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(symbols),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
        meta={"source": "hybrid automaton", "style": "fused"},
    )
