"""Max-algebraic hybrid automata: executions, translations, abstractions.

A hybrid state is a (mode, state-vector) pair.  The paper defines an
automaton by per-mode invariants and flows, guarded edges with resets and
a set of allowed inputs, and shows that a switching max-plus linear
system translates into one.  The automata here are those translations: a
HybridAutomaton is the switching system it translates, and every other
attribute is derived from that system.  The paper's general definition,
stepped by a scan of the invariant and the guards, lives on in the tests
as the reference a translation is held to.

The hybrid state is the system's x itself for an open loop and, for a
closed loop, the augmented state z = (mode, x, u, v) that
smpl.performance_signal builds; x_of reads x back through smpl.signal_x,
the one reader of x in z, which the controller reads through too.
Resolving the mode against the pre-step state and flowing with the target
mode is what makes a translation match the system step for step, and a
translation steps through the system's own code for it.  Every mode is
initial at the system's initial state, but a run's first step is one
resolution from that state with no previous mode (mode None), as the
system's first step is.

MahaBehaviour is the automaton's stepper: smpl.SmplBehaviour over the
automaton's system, whose shift_exact flag and program it inherits.  A
run is its fold, and each step is the one smpl.step takes.  On a system
with a program, an input-free open loop, the step is smpl.step itself,
whose records there hold no u or v.  Every other step goes through
smpl.advance, which resolves the inputs once and then runs symbol_step
on the symbol's symbol_steps entry, open loop or closed, or else
evaluates the rule's smallest mode only.  Of that record the
translation keeps no u or v of its own, and x (open loop) or z (closed
loop, through smpl.performance_signal), from start before the first
step.  Any controller hook steps, and so any closed loop translates.
hybrid_step gives the paper's full successor set instead, from mode q as
the previous mode, on the resolved inputs: on a system with symbol_steps
that is every live candidate of the symbol's entry
(smpl.live_candidates), each state map evaluated once and no output map;
on any other system it is every mode smpl.successor_modes admits, each
evaluated once after the rule.  The automaton stores no successor
function or initial states; both are read off the system when asked
for.  Each edge (q, q') between distinct modes carries the symbols that
can select q', when the rule declares them; the one-step abstraction
reads those.
Both finite abstractions read every label move, final label and input
label off each mode's transition graphs (expressions._finite_edges is
the one rule of which weights count), and their x-initial labels are the
finite entries of start: no run steps or starts through +inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .expressions import transition_graph_f, transition_graph_h, u_label, x_label
from .finite import FiniteAutomaton, make_delta
from .smpl import SmplBehaviour, SmplSystem, StepInput, Stepper, StepRecord, Trace
from .smpl import advance, live_candidates, new_record, performance_signal, resolve_inputs, signal_x
from .smpl import step, successor_modes
from .tropical import Weight, is_finite


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
    """The translation of a switching system, open- or closed-loop as the
    system has a controller.  Everything else is read off the system:
    modes; discrete_inputs, the switching rule's alphabet; start, the
    hybrid state at the system's initial state, and n, its length;
    edges, mapping each edge (q, q') to the symbols that can select q'
    (None when the rule does not declare them); meta, the closed loop's
    state_layout."""

    system: SmplSystem

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(range(1, self.system.n_modes + 1))

    @property
    def n(self) -> int:
        """The hybrid state's length."""
        return len(self.start)

    @property
    def start(self) -> tuple[Weight, ...]:
        """x0, or z = (mode, x0, u, v) before the first step on a closed loop."""
        first = SmplBehaviour(self.system).init()
        return performance_signal(first.mode, first.x, first.u, first.v) if self.system.closed_loop else first.x

    @property
    def discrete_inputs(self) -> tuple[str, ...]:
        return self.system.switching.alphabet

    @property
    def edges(self) -> dict[tuple[int, int], frozenset[str] | None]:
        modes, rule = self.modes, self.system.switching
        return {(q, qq): rule.enabling_symbols(qq) for q in modes for qq in modes if q != qq}

    @property
    def meta(self) -> dict:
        """Where a closed loop's state keeps the mode, x and u."""
        if not self.system.closed_loop:
            return {}
        n, n_u = self.system.dims.n, self.system.dims.n_u
        return {"state_layout": {"mode": 0, "x": (1, 1 + n), "u": (1 + n, 1 + n + n_u)}}

    def x_of(self, z: tuple[Weight, ...]) -> tuple[Weight, ...]:
        """The system's x inside the hybrid state z."""
        return signal_x(z, self.system.dims.n) if self.system.closed_loop else z


def hybrid_step(
    h: HybridAutomaton, state: HybridState | StepRecord, inp: StepInput
) -> tuple[HybridState, ...]:
    """Successor hybrid states for one event step, sorted by mode, from
    mode None on a run's first step.  The state is anything with a mode
    and an x, such as a run's last record.  Empty result means the
    execution is blocked: the switching rule admits no mode.  On a system
    with symbol_steps the states are the live candidates of the symbol's
    entry, read as symbol_step reads them, with no output map."""
    s, z = h.system, state.x
    x = h.x_of(z)
    u, v, win = resolve_inputs(s, z, inp)
    table = s.symbol_steps
    if table is not None:
        states = [(q, xq) for q, xq, _ in live_candidates(table.get(inp.w, ()), x, win)]
    else:
        states = [(q, s.modes[q].form.eval_state(x, win)) for q in successor_modes(s, state.mode, x, u, v, inp)]
    if s.closed_loop:
        return tuple([HybridState(q, performance_signal(q, xq, u, v)) for q, xq in states])
    return tuple([HybridState(q, xq) for q, xq in states])


@dataclass(frozen=True)
class MahaBehaviour(SmplBehaviour):
    """Runs of a hybrid automaton: the runs of its system, whose
    shift_exact flag and program it inherits (a system with either is an
    input-free open loop, whose records hold x itself; a closed loop has
    neither).  Each step takes the smallest successor mode.  Before the
    first step there is no current mode (None), as a switching system's
    first mode is resolved by its rule rather than given; the record
    before the first step holds start.  A step is the system's own:
    smpl.step on a system with a program, smpl.advance from the record's
    mode and x (read out of z in a closed loop) otherwise, whose record it
    rewrites: it holds no u or v of its own, and x, or z = (mode, x, u, v)
    in a closed loop."""

    automaton: HybridAutomaton
    system: SmplSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "system", self.automaton.system)

    def init(self) -> StepRecord:
        return StepRecord(0, None, self.automaton.start, (), ())

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        s = self.system
        if s.program is not None:  # an input-free open loop: its records are the system's
            return step(s, state, inp)
        closed, z = s.controller is not None, state.x
        record = advance(s, state.k, state.mode, signal_x(z, s.dims.n) if closed else z, z, inp)
        if record is None:
            return None
        k, mode, x, y, successors, u, v = record
        return new_record(k, mode, performance_signal(mode, x, u, v) if closed else x, y, successors, (), ())

    # perfbench/tracing.py wraps cls.__dict__["trace"] per class.
    trace = Stepper.trace


def run(h: HybridAutomaton, inputs: Sequence[StepInput]) -> Trace:
    """Deterministic execution from the initial state: MahaBehaviour's fold."""
    return MahaBehaviour(h).fold(inputs)


def from_smpl_open(s: SmplSystem) -> HybridAutomaton:
    """Translation whose hybrid state is the switching system's x itself."""
    if s.closed_loop:
        raise ValueError("open-loop translation needs a system without controller hooks")
    return HybridAutomaton(s)


def from_smpl_closed(s: SmplSystem) -> HybridAutomaton:
    """Closed-loop translation over the augmented state (mode, x, u, v).

    The controller is folded into the step: each step reads the previous
    x from the augmented state, asks the controller for this step's
    inputs, advances with the target mode and writes (mode, x, u, v).
    """
    if not s.closed_loop:
        raise ValueError("closed-loop translation needs controller hooks")
    return HybridAutomaton(s)


STEP_SYMBOL = "1"


def _state_name(q: int, label: str) -> str:
    return f"q{q}.{label}"


def _initial_labels(h: HybridAutomaton, x_labels: list[str]) -> set[str]:
    """Abstract states of the finite entries of h.start, in every mode."""
    finite = [lab for lab, value in zip(x_labels, h.start) if is_finite(value)]
    return {_state_name(q, lab) for q in h.modes for lab in finite}


def finite_abstraction(h: HybridAutomaton) -> FiniteAutomaton:
    """One-step transition system over (mode, variable-label) pairs.

    Within a mode, the label moves along the dependency edges of that
    mode's dynamics under the step symbol "1".  A declared mode edge moves
    the mode while keeping the label, under each discrete symbol the edge
    carries (all of them when the switching rule declares none).
    """
    if h.system.closed_loop:
        raise AssumptionViolation(
            "finite abstraction reads each mode's matrix form over the "
            "system's x, but a closed loop's state is the augmented "
            "(mode, x, u, v)"
        )
    if STEP_SYMBOL in h.discrete_inputs:
        raise ValueError("discrete input alphabet collides with the step symbol")
    forms = {q: h.system.modes[q].form for q in h.modes}
    n_u = {forms[q].n_input for q in h.modes}
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
    inputs = set(u_labels)
    for q in h.modes:
        gf = transition_graph_f(forms[q])
        for src, dst in sorted(gf):
            triples.append((_state_name(q, src), STEP_SYMBOL, _state_name(q, dst)))
        final.update(_state_name(q, src) for src, _ in transition_graph_h(forms[q]))
        initial.update(_state_name(q, src) for src, _ in gf if src in inputs)
    for (source, target), symbols in h.edges.items():
        for w in h.discrete_inputs if symbols is None else sorted(symbols):
            for lab in x_labels:
                triples.append((_state_name(source, lab), w, _state_name(target, lab)))
    return FiniteAutomaton(
        states=states,
        alphabet=h.discrete_inputs + (STEP_SYMBOL,),
        delta=make_delta(triples),
        initial=frozenset(initial),
        final=frozenset(final),
        meta={"source": "hybrid automaton", "style": "one-step"},
    )


def _unlike_an_mpa_translation(h: HybridAutomaton) -> str | None:
    """Where h departs from the structure of a max-plus automaton's
    translation, which the fused abstraction reads (one A and one C per
    mode, no inputs, one symbol per mode), or None when it does not."""
    s = h.system
    if s.closed_loop:
        return "this is a closed loop, whose state is the augmented (mode, x, u, v)"
    for q in h.modes:
        f = s.modes[q].form
        if (len(f.A), len(f.C), f.n_input) != (1, 1, 0):
            return f"mode {q} has L = {len(f.A)}, M = {len(f.C)} and input width {f.n_input}, not 1, 1 and 0"
    if s.dims.n_y != 1:
        return f"it has {s.dims.n_y} outputs, not 1"
    spec = s.switching.spec or {}
    if spec.get("type") != "symbol_liveness" or len(h.discrete_inputs) != len(h.modes):
        return "its switching is not symbol_liveness with one distinct symbol per mode"
    return None


def mpa_chain_abstraction(h: HybridAutomaton) -> FiniteAutomaton:
    """Fused abstraction for automata structured as a max-plus automaton's
    translation (smpl.from_mpa): an open loop whose modes each have one A
    and one C matrix and no inputs, one output, and symbol_liveness
    switching with one distinct symbol per mode.  Any other automaton is
    refused with WrongProvenance, whatever its document's meta says.

    Mode switches and one-step state transitions happen together here: on
    the symbol of mode q', the label moves along an edge of q''s graph
    from any current mode, and a label is final where it is a source of
    its mode's output graph.  The result is comparable, symbol for symbol,
    with the weight-free projection of the original automaton.
    """
    fault = _unlike_an_mpa_translation(h)
    if fault is not None:
        raise WrongProvenance(
            "fused abstraction applies to the translation of a max-plus "
            f"automaton, but {fault}"
        )
    symbols, modes = h.system.switching.symbols, h.modes
    x_labels = [x_label(i) for i in range(h.n)]
    names = {q: {lab: _state_name(q, lab) for lab in x_labels} for q in modes}
    forms = {q: h.system.modes[q].form for q in modes}
    triples = [
        (names[source][src], symbols[target - 1], names[target][dst])
        for target in modes
        for src, dst in sorted(transition_graph_f(forms[target]))
        for source in modes
    ]
    return FiniteAutomaton(
        states=tuple(name for q in modes for name in names[q].values()),
        alphabet=h.discrete_inputs,
        delta=make_delta(triples),
        initial=frozenset(_initial_labels(h, x_labels)),
        final=frozenset(names[q][src] for q in modes for src, _ in transition_graph_h(forms[q])),
        meta={"source": "hybrid automaton", "style": "fused"},
    )
