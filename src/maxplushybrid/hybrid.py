"""Max-algebraic hybrid automata: executions, translations, abstractions.

A hybrid state is a (mode, state-vector) pair.  The paper defines an
automaton by per-mode invariants and flows, guarded edges with resets and
a set of allowed inputs, and shows that a switching max-plus linear
system translates into one.  The automata here are those translations:
each carries a successor function, and hybrid_step is one call of it.
The paper's general definition, stepped by a scan of the invariant and
the guards, lives on in the tests as the reference a translation is held
to.

Open- and closed-loop switching systems translate by one construction; a
state codec says where the system's x sits in the hybrid state: x itself
for the open loop, the augmented state (mode, x, u, v) for the closed loop.
The successor function from mode q takes a whole step through the
system's own resolution (smpl.resolve_step: one input resolution and width
check, one switching resolution, a rule's unknown modes rejected), with q
as the previous mode, then writes each candidate's next state as the rule
computed it or from one evaluation of its mode.  Resolving the mode
against the pre-step state and flowing with the target mode is what makes
a translation match the system step for step.  Each edge (q, q') between
distinct modes carries the symbols that can select q', when the rule
declares them; the abstraction reads those.  Every mode is initial at the
codec's state, but a run's first step is one resolution from that state
with no previous mode (mode None), as the system's first step is.

MahaBehaviour is the automaton's stepper (smpl.Stepper, next to
hybrid_step here); it steps from its last record as it is, and a run is
its fold, with the smallest successor mode taken each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .expressions import MatrixForm, transition_graph_f, transition_graph_h, u_label, x_label
from .finite import FiniteAutomaton, make_delta
from .smpl import SmplBehaviour, SmplSystem, StepInput, Stepper, StepRecord, Trace, resolve_step
from .tropical import EPS, Weight

OutputFn = Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]


class AssumptionViolation(ValueError):
    """The automaton lacks the structure the finite abstraction needs."""


class WrongProvenance(ValueError):
    """The fused abstraction only applies to automata with the structure of
    a max-plus automaton's translation."""


class HybridState(NamedTuple):
    mode: int
    x: tuple[Weight, ...]


@dataclass(frozen=True)
class HybridAutomaton:
    """A translated switching system.  edges maps each edge (q, q') to the
    symbols that can select q' (None when the rule does not declare them);
    successors takes (mode, x, inp) to the successor states sorted by mode,
    from mode None on a run's first step."""

    modes: tuple[int, ...]
    n: int
    discrete_inputs: tuple[str, ...]
    n_y: int
    init: tuple[HybridState, ...]
    output: dict[int, OutputFn]
    edges: dict[tuple[int, int], frozenset[str] | None]
    successors: Callable[[int | None, tuple[Weight, ...], StepInput], tuple[HybridState, ...]]
    forms: dict[int, MatrixForm] | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        mode_set = set(self.modes)
        for q in self.output:
            if q not in mode_set:
                raise ValueError(f"unknown mode {q}")
        for q, qq in self.edges:
            if q not in mode_set or qq not in mode_set:
                raise ValueError(f"edge over unknown modes ({q},{qq})")
        for state in self.init:
            if state.mode not in mode_set:
                raise ValueError("initial mode not declared")
            if len(state.x) != self.n:
                raise ValueError("initial state has wrong dimension")


def hybrid_step(
    h: HybridAutomaton, state: HybridState | StepRecord, inp: StepInput
) -> tuple[HybridState, ...]:
    """Successor hybrid states for one event step, sorted by mode, from
    mode None on a run's first step.  The state is anything with a mode
    and an x, such as a run's last record.  Empty result means the
    execution is blocked: the switching rule admits no mode."""
    return h.successors(state.mode, state.x, inp)


@dataclass(frozen=True)
class MahaBehaviour(Stepper):
    """Runs of a hybrid automaton: each step takes the smallest successor
    mode.  Before the first step there is no current mode (None), as a
    switching system's first mode is resolved by its rule rather than
    given; the record before the first step holds the initial state, from
    which hybrid_step takes one step with no previous mode."""

    automaton: HybridAutomaton

    def init(self) -> StepRecord:
        return StepRecord(0, None, self.automaton.init[0].x, (), ())

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        successors = hybrid_step(self.automaton, state, inp)
        if not successors:
            return None
        mode, x = successors[0]
        y = self.automaton.output[mode](x, inp)
        return StepRecord(state.k + 1, mode, x, y, tuple([succ.mode for succ in successors]))

    # perfbench/tracing.py wraps cls.__dict__["trace"] per class.
    trace = Stepper.trace


def run(h: HybridAutomaton, inputs: Sequence[StepInput]) -> Trace:
    """Deterministic execution from the initial state: MahaBehaviour's fold."""
    return MahaBehaviour(h).fold(inputs)


@dataclass(frozen=True)
class _StateCodec:
    """Where a translated automaton keeps the switching system's state.

    read_x and write move between the hybrid state and the system's x.
    u_at is where the hybrid state keeps this step's controlled input,
    which the closed loop's output map must read back from the state its
    step just wrote; None when u is the step input's own (open loop).
    """

    n: int
    init: tuple[Weight, ...]
    read_x: Callable[[tuple[Weight, ...]], tuple[Weight, ...]]
    write: Callable[..., tuple[Weight, ...]]  # (mode, x, u, v) -> hybrid state
    u_at: slice | None
    meta: dict


def _translate(
    s: SmplSystem, codec: _StateCodec, forms: dict[int, MatrixForm] | None = None
) -> HybridAutomaton:
    """One mode per switching mode, over the codec's state.

    The successor function from source mode q (None before the first step)
    resolves the step as smpl.step does, with q as the previous mode, and
    writes each candidate mode through the codec with its next state.
    Every pair of distinct modes is an edge, tagged with the symbols that
    can select its target, and every mode is initial at the codec's state.
    """
    modes = tuple(range(1, s.n_modes + 1))
    read_x, write, rule, dynamics_of = codec.read_x, codec.write, s.switching, s.modes

    def successors(source: int | None, z: tuple[Weight, ...], inp: StepInput) -> tuple[HybridState, ...]:
        x = read_x(z)
        u, v, win, candidates = resolve_step(s, source, x, z, inp)
        return tuple([
            HybridState(cand.mode, write(cand.mode, cand.state_for(dynamics_of[cand.mode], x, win), u, v))
            for cand in candidates
        ])

    def output_fn(mode: int) -> OutputFn:
        # the step checked the widths of the inputs it was given
        output, u_at = dynamics_of[mode].form.eval_output, codec.u_at
        if u_at is None:
            return lambda z, inp: output(read_x(z), inp.u + inp.r + inp.p)
        return lambda z, inp: output(read_x(z), z[u_at] + inp.r + inp.p)

    return HybridAutomaton(
        modes=modes,
        n=codec.n,
        discrete_inputs=rule.symbols or (),
        n_y=s.dims.n_y,
        init=tuple(HybridState(q, codec.init) for q in modes),
        output={q: output_fn(q) for q in modes},
        edges={(q, qq): rule.enabling_symbols(qq) for q in modes for qq in modes if q != qq},
        successors=successors,
        forms=forms,
        meta={**codec.meta, "system": s},
    )


def from_smpl_open(s: SmplSystem) -> HybridAutomaton:
    """Translation whose hybrid state is the switching system's x itself."""
    if s.closed_loop:
        raise ValueError("open-loop translation needs a system without controller hooks")
    codec = _StateCodec(
        n=s.dims.n,
        init=tuple(s.x0),
        read_x=lambda z: z,
        write=lambda mode, x, u, v: x,
        u_at=None,
        meta={"translated_from": "smpl_open"},
    )
    return _translate(s, codec, {q: s.modes[q].form for q in s.modes})


class NonRepresentableController(ValueError):
    """Closed-loop translation needs max-min-plus controller hooks."""


def from_smpl_closed(s: SmplSystem) -> HybridAutomaton:
    """Closed-loop translation over the augmented state (mode, x, u, v).

    The controller is folded into the step: each step decodes the previous
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
        init=s.performance_signal(SmplBehaviour(s).init()),
        read_x=lambda z: z[1 : 1 + n],
        write=lambda mode, x, u, v: (float(mode),) + x + u + v,
        u_at=slice(1 + n, 1 + n + n_u),
        meta={
            "translated_from": "smpl_closed",
            "state_layout": {"mode": 0, "x": (1, 1 + n), "u": (1 + n, 1 + n + n_u)},
        },
    )
    return _translate(s, codec)


def from_smpl(s: SmplSystem) -> HybridAutomaton:
    """The closed-loop translation when the system has a controller, the
    open-loop one otherwise."""
    return from_smpl_closed(s) if s.closed_loop else from_smpl_open(s)


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
    the mode while keeping the label, under each discrete symbol the edge
    carries (all of them when the switching rule declares none).
    """
    if h.forms is None:
        raise AssumptionViolation(
            "finite abstraction reads each mode's matrix form over the "
            "system's x, but a closed loop's state is the augmented "
            "(mode, x, u, v)"
        )
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
        for src, dst in sorted(gf):
            triples.append((_state_name(q, src), STEP_SYMBOL, _state_name(q, dst)))
        for lab in x_labels + u_labels:
            if any(src == lab for src, _ in gh):
                final.add(_state_name(q, lab))
        for lab in u_labels:
            if any(src == lab for src, _ in gf):
                initial.add(_state_name(q, lab))
    for (source, target), symbols in h.edges.items():
        for w in h.discrete_inputs if symbols is None else sorted(symbols):
            for lab in x_labels:
                triples.append((_state_name(source, lab), w, _state_name(target, lab)))
    return FiniteAutomaton(
        states=states,
        alphabet=tuple(h.discrete_inputs) + (STEP_SYMBOL,),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
        meta={"source": "hybrid automaton", "style": "one-step"},
    )


def _unlike_an_mpa_translation(h: HybridAutomaton) -> str | None:
    """Where h departs from the structure of a max-plus automaton's
    translation, which the fused abstraction reads (each mode's A[0] and
    C[0], one symbol per mode), or None when it does not."""
    if h.forms is None:
        return "this is a closed loop, whose state is the augmented (mode, x, u, v)"
    for q in h.modes:
        f = h.forms[q]
        if (len(f.A), len(f.C), f.n_input) != (1, 1, 0):
            return f"mode {q} has L = {len(f.A)}, M = {len(f.C)} and input width {f.n_input}, not 1, 1 and 0"
    if h.n_y != 1:
        return f"it has {h.n_y} outputs, not 1"
    spec = h.meta["system"].switching.spec or {}
    if spec.get("type") != "symbol_liveness" or len(set(h.discrete_inputs)) != len(h.modes):
        return "its switching is not symbol_liveness with one distinct symbol per mode"
    return None


def mpa_chain_abstraction(h: HybridAutomaton) -> FiniteAutomaton:
    """Fused abstraction for automata structured as a max-plus automaton's
    translation (smpl.from_mpa): an open loop whose modes each have one A
    and one C matrix and no inputs, one output, and symbol_liveness
    switching with one distinct symbol per mode.  Any other automaton is
    refused with WrongProvenance, whatever its document's meta says.

    Mode switches and one-step state transitions happen together here: on
    the symbol of mode q', the label moves along q' dynamics from any
    current mode.  The result is comparable, symbol for symbol, with the
    weight-free projection of the original automaton.
    """
    fault = _unlike_an_mpa_translation(h)
    if fault is not None:
        raise WrongProvenance(
            "fused abstraction applies to the translation of a max-plus "
            f"automaton, but {fault}"
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
