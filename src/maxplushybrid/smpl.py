"""Switching max-plus linear systems over an event counter.

Per event step the switching rule resolves the active mode from the
previous mode, the previous continuous state and the step's inputs; the
resolved mode's dynamics then advance the state and produce the output.
Rules may return several candidate modes; stepping picks the smallest
index and keeps the full candidate set in the record's successor_modes,
which simulate reports but no check reads: behaviour checks follow the
smallest candidate mode, which is also the run their memo of normalised
states keys on.  Checking every run is ROADMAP.md's item 12.  An empty
candidate set halts the run.

One function, resolve_step, resolves a step for the system and for its
hybrid translation alike: it resolves the controlled inputs (the
controller's, shape-checked, or the step input's own), checks the widths
of u, r and p once before the rule sees them, calls the rule's
successor_set once and checks that every candidate is a mode the system
has; its input half is resolve_inputs, which returns at once for a step
with no u, v, r or p on a system that reads none.  On it sits the one
step core, advance: it advances with the first candidate only and
evaluates that mode's output map on the continuous input the resolution
built.  step and hybrid.MahaBehaviour.step are its callers, so a system
and its translation run through the same code and differ only in the
record they write; the translation's full successor set
(hybrid.hybrid_step) calls resolve_step itself.  A run's first step
resolves with no previous mode, in the system and in its translation
alike.  A rule that has to compute a mode's next state to decide on it
(symbol liveness does) hands that state back with the candidate, so a
step evaluates the chosen mode's dynamics once.  The state and inputs are
passed on as the tuples they already are, a rule's output is
deduplicated and sorted only when it holds more than one candidate, or
one that is not a Candidate, and the probe, candidates and record of a
step are built by new_probe, new_candidate and new_record, straight
through tuple.__new__.

Every model class runs through the one stepper protocol defined here
(Stepper: init, step and fold, and the shift_exact flag by which bounded
behaviour checks decide whether to key states), with one StepRecord per
step, whose y is the step's output, and one Trace per run; a run of any
class is Stepper.fold over its inputs, a run halts where step returns
None, and the inputs of a run that does not halt are in the model's
behaviour.
SmplBehaviour is this module's stepper, whose step is the module function
step(s, state, inp): it takes the last step's record (init's before the
first step) and returns the next one, or None when the rule admits no
mode.  A controller reads the performance signal z = (mode, x, u, v) of
that record.  z has one codec: performance_signal builds it and signal_x
reads x back out of it, for the controller, for smpl.step and for the
closed loop's hybrid translation, whose state z is.
hybrid.MahaBehaviour and mpa.MpaBehaviour are the other two steppers.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .expressions import MatrixForm
from .tropical import EPS, EXACT_STATE, TropicalMatrix, Weight, eval_rows, has_finite_entry, integral_below

if TYPE_CHECKING:
    from .mpa import MaxPlusAutomaton


class SwitchingKind(enum.Enum):
    STATE_DEPENDENT_AUTONOMOUS = "state_dependent_autonomous"
    STATE_DEPENDENT_CONTROLLED = "state_dependent_controlled"
    EXTERNALLY_DRIVEN = "externally_driven"
    CONSTRAINED = "constrained"
    CONSTRAINED_CONTROLLED = "constrained_controlled"


class StepInput(NamedTuple):
    """Inputs for one event step.

    u and v are the controlled continuous/discrete inputs, w the exogenous
    discrete symbol and (r, p) the exogenous continuous signals.  Two
    inputs are equal, and hash alike, exactly when their fields are.
    """

    u: tuple[Weight, ...] = ()
    v: tuple[Weight, ...] = ()
    w: str | None = None
    r: tuple[Weight, ...] = ()
    p: tuple[Weight, ...] = ()


class SwitchProbe(NamedTuple):
    """What a switching rule is allowed to look at."""

    prev_mode: int | None
    x: tuple[Weight, ...]
    u: tuple[Weight, ...]
    v: tuple[Weight, ...]
    w: str | None
    r: tuple[Weight, ...]
    p: tuple[Weight, ...]


# Each step builds a SwitchProbe, a Candidate and a StepRecord.  Their
# constructors below hand every field to tuple.__new__ directly, which
# skips the generated __new__ behind a NamedTuple call (about 40% of a
# record's cost); so they take all fields, in the class's order, and check
# none of them.  Their parameters carry no annotations: the classes give
# the fields' types, and annotations here would add to the module's compile
# time.
_tuple_new = tuple.__new__


def new_probe(prev_mode, x, u, v, w, r, p) -> SwitchProbe:
    return _tuple_new(SwitchProbe, (prev_mode, x, u, v, w, r, p))


class Candidate(NamedTuple):
    """A successor mode with the next state the rule computed for it, and
    the mode dynamics that computed it; both None when the rule decided
    without stepping the mode."""

    mode: int
    x: tuple[Weight, ...] | None = None
    dynamics: MatrixMode | None = None

    def state_for(
        self, dynamics: MatrixMode, x: tuple[Weight, ...], win: tuple[Weight, ...]
    ) -> tuple[Weight, ...]:
        """The mode's next state from x: the carried one if these very
        dynamics computed it, else one evaluation of them (a rule built
        over other mode objects gets its states recomputed)."""
        return self.x if self.dynamics is dynamics else dynamics.form.eval_state(x, win)


def new_candidate(mode, x, dynamics) -> Candidate:
    return _tuple_new(Candidate, (mode, x, dynamics))


@dataclass(frozen=True)
class SwitchingRule:
    """successors yields the candidate modes of a probe, as bare mode
    indices or as Candidates carrying their next states.  symbols holds
    one symbol per mode, repeats allowed; alphabet is the input alphabet
    they make."""

    kind: SwitchingKind
    successors: Callable[[SwitchProbe], Iterable[int | Candidate]]
    symbols: tuple[str, ...] | None = None
    spec: dict | None = None

    def successor_set(self, probe: SwitchProbe) -> tuple[Candidate, ...]:
        """The candidates sorted by mode, one per mode (the first yielded).
        An empty tuple, or a tuple of one Candidate as the library rules
        return, comes back as it is."""
        cands = self.successors(probe)
        if type(cands) is not tuple:
            cands = tuple(cands)
        if not cands or len(cands) == 1 and type(cands[0]) is Candidate:
            return cands
        found: dict[int, Candidate] = {}
        for cand in cands:
            if not isinstance(cand, Candidate):
                cand = Candidate(cand)
            found.setdefault(cand.mode, cand)
        return tuple([found[mode] for mode in sorted(found)])

    @property
    def alphabet(self) -> tuple[str, ...]:
        """The distinct symbols in mode order: the symbols a step can read."""
        return tuple(dict.fromkeys(self.symbols or ()))

    @property
    def shift_invariant(self) -> bool:
        """Whether the candidates read only w and which entries of x are
        finite, so that adding one constant to x leaves them as they are:
        true of the rules symbol_liveness_rule and externally_driven_rule
        build, whose successors carry that mark, and of no other."""
        return getattr(self.successors, "shift_invariant", False)

    def enabling_symbols(self, mode: int) -> frozenset[str] | None:
        """Symbols that can select the mode, when declaratively known."""
        if self.spec is None or self.symbols is None:
            return None
        if self.spec.get("type") in ("symbol_liveness", "externally_driven"):
            return frozenset({self.symbols[mode - 1]})
        return None


@dataclass(frozen=True)
class MatrixMode:
    """A mode's dynamics: its max-min-plus matrix form, which steps
    evaluate directly (form.eval_state, form.eval_output)."""

    form: MatrixForm

    @staticmethod
    def from_parts(a, c, b=None, d=None) -> "MatrixMode":
        """Single-branch mode (L = M = 1) from plain row lists."""
        a_m = TropicalMatrix.from_rows(a)
        c_m = TropicalMatrix.from_rows(c)
        b_m = (
            TropicalMatrix.from_rows(b)
            if b is not None
            else TropicalMatrix.epsilon(a_m.rows, 0)
        )
        d_m = (
            TropicalMatrix.from_rows(d)
            if d is not None
            else TropicalMatrix.epsilon(c_m.rows, b_m.cols)
        )
        return MatrixMode(MatrixForm((a_m,), (b_m,), (c_m,), (d_m,)))


@dataclass(frozen=True)
class SmplDims:
    n: int
    n_u: int = 0
    n_v: int = 0
    n_y: int = 1
    n_r: int = 0
    n_p: int = 0

    @property
    def input_width(self) -> int:
        """Width of the continuous input vector fed to mode maps: u ++ r ++ p."""
        return self.n_u + self.n_r + self.n_p


@dataclass(frozen=True)
class ControllerHook:
    """Maps the performance signal z = (mode, x, u, v) and the exogenous
    inputs to this step's (u, v).  spec is the controller's document form,
    which static_feedback sets and serialisation writes; a hook built from
    bare closures has none and no document form."""

    f_u: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    f_v: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    max_min_plus: bool = True
    name: str = "controller"
    spec: dict | None = None


def performance_signal(
    mode: int | None, x: tuple[Weight, ...], u: tuple[Weight, ...], v: tuple[Weight, ...]
) -> tuple[Weight, ...]:
    """z = (mode, x, u, v), the mode as a weight (EPS before the first
    step): what a controller reads and a closed loop's hybrid state."""
    return (EPS if mode is None else float(mode),) + x + u + v


def signal_x(z: tuple[Weight, ...], n: int) -> tuple[Weight, ...]:
    """The n entries of x inside z = performance_signal(mode, x, u, v)."""
    return z[1 : 1 + n]


def static_feedback(gain: TropicalMatrix) -> ControllerHook:
    """u(k) = gain ox x(k-1); v is empty.  A max-plus linear controller,
    whose x is the gain.cols entries that signal_x reads from z."""
    n = gain.cols

    def f_u(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
        return gain.apply(signal_x(z, n))

    def f_v(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
        return ()

    return ControllerHook(
        f_u=f_u,
        f_v=f_v,
        max_min_plus=True,
        name="static feedback",
        spec={"type": "static_feedback", "gain": gain},
    )


class StepRecord(NamedTuple):
    """One step of a run: the mode taken, the state and output after it,
    every mode the step could have taken, and the controlled inputs it
    resolved.  k counts steps from 1; a stepper's record before the first
    step has k = 0 and mode None."""

    k: int
    mode: int | None
    x: tuple[Weight, ...]
    y: tuple[Weight, ...]
    successor_modes: tuple[int, ...]
    u: tuple[Weight, ...] = ()
    v: tuple[Weight, ...] = ()


def new_record(k, mode, x, y, successor_modes, u, v) -> StepRecord:
    return _tuple_new(StepRecord, (k, mode, x, y, successor_modes, u, v))


@dataclass(frozen=True)
class Trace:
    """The records of one run; halted_at is the step that found no
    successor, None when every input was consumed."""

    records: tuple[StepRecord, ...]
    halted_at: int | None = None

    @property
    def completed(self) -> bool:
        return self.halted_at is None


class Stepper:
    """A model's runs, one step at a time, for every model class.

    A state is the StepRecord of the last step and stands for the inputs
    consumed so far.  step returns None once no extension of those inputs
    can be in the model's behaviour (the run halts); a model's behaviour
    is exactly the runs that do not halt, with their outputs.

    shift_exact says whether the runs are shift-invariant in floats
    (False by default): adding a finite c to every finite entry of a
    record's x adds c to every later state and output, exactly, and moves
    no halt.  Two states with one mode whose x agree up to such a c then
    behave alike up to that shift, which lets a bounded behaviour check
    step one of them for both (equivalence.normalised_pair).
    """

    shift_exact = False

    def init(self) -> StepRecord:
        raise NotImplementedError

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        raise NotImplementedError

    def fold(self, inputs: Iterable[StepInput]) -> Trace:
        """The run over the inputs from init, cut at the step that halts."""
        state = self.init()
        records = []
        for k, inp in enumerate(inputs, start=1):
            state = self.step(state, inp)
            if state is None:
                return Trace(tuple(records), halted_at=k)
            records.append(state)
        return Trace(tuple(records))

    def trace(self, inputs: Iterable[StepInput]) -> Trace | None:
        """The run over the inputs, or None when they are outside the
        model's behaviour: the run halts."""
        run = self.fold(inputs)
        return run if run.completed else None


@dataclass(frozen=True)
class SmplSystem:
    n_modes: int
    modes: dict[int, MatrixMode]
    switching: SwitchingRule
    x0: tuple[Weight, ...]
    dims: SmplDims
    controller: ControllerHook | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if set(self.modes) != set(range(1, self.n_modes + 1)):
            raise ValueError("modes must be indexed 1..n_modes")
        if len(self.x0) != self.dims.n:
            raise ValueError("x0 length must match the state dimension")

    @property
    def closed_loop(self) -> bool:
        return self.controller is not None

    @functools.cached_property
    def input_free(self) -> bool:
        """Whether a step reads nothing but w: no controller and no u, v,
        r or p."""
        d = self.dims
        return self.controller is None and d.input_width == 0 and d.n_v == 0

    @functools.cached_property
    def shift_exact(self) -> bool:
        """Whether the system's runs are shift-invariant in floats (see
        Stepper): input-free, a shift-invariant rule, integer weights below
        EXACT_WEIGHT and integral x0 entries below EXACT_STATE.  Decided
        once per system."""
        return (
            self.input_free
            and self.switching.shift_invariant
            and integral_below(self.x0, EXACT_STATE)
            and all(m.exact for f in (mode.form for mode in self.modes.values()) for m in f.A + f.B + f.C + f.D)
        )


def resolve_inputs(
    s: SmplSystem, z: tuple[Weight, ...] | None, inp: StepInput
) -> tuple[tuple[Weight, ...], tuple[Weight, ...], tuple[Weight, ...]]:
    """A step's controlled inputs (u, v) and the continuous input
    u ++ r ++ p fed to the mode maps.  u and v come from the controller
    when there is one, with their shape checked, and are the step input's
    own otherwise; then the widths of u, r and p are checked, part by part
    and in sum.  Only a controller reads the performance signal z, so z
    may be None without one.  An input-free system given no u, v, r or p
    has nothing to resolve."""
    if s.input_free and not (inp.u or inp.v or inp.r or inp.p):
        return (), (), ()
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


def resolve_step(
    s: SmplSystem,
    prev_mode: int | None,
    x_prev: tuple[Weight, ...],
    z: tuple[Weight, ...] | None,
    inp: StepInput,
) -> tuple[tuple[Weight, ...], tuple[Weight, ...], tuple[Weight, ...], tuple[Candidate, ...]]:
    """One step's resolution from the previous mode (None before the first
    step) and state: the step's (u, v, u ++ r ++ p) from resolve_inputs and
    the rule's candidates, once, each a mode the system has."""
    u, v, win = resolve_inputs(s, z, inp)
    candidates = s.switching.successor_set(new_probe(prev_mode, x_prev, u, v, inp.w, inp.r, inp.p))
    if candidates:
        # Candidates come sorted by mode and the modes are 1..n_modes, so
        # the first and the last being known covers every one in between.
        modes, first, last = s.modes, candidates[0].mode, candidates[-1].mode
        if first not in modes or last not in modes:
            raise ValueError(f"switching rule returned unknown mode {last if first in modes else first}")
    return u, v, win, candidates


def advance(
    s: SmplSystem,
    prev_mode: int | None,
    x_prev: tuple[Weight, ...],
    z: tuple[Weight, ...] | None,
    inp: StepInput,
) -> tuple | None:
    """The step core of a system and of its translation: resolve once,
    advance with the first candidate's carried state or one evaluation of
    its mode (as Candidate.state_for), and output through the mode's
    output map on the continuous input u ++ r ++ p that the resolution
    built.  Returns (mode, x, y, successor modes, u, v), a StepRecord's
    fields after k, or None when the rule admits no mode (the run
    halts)."""
    u, v, win, candidates = resolve_step(s, prev_mode, x_prev, z, inp)
    if not candidates:
        return None
    mode, x, carried_by = candidates[0]
    dynamics = s.modes[mode]
    form = dynamics.form
    if carried_by is not dynamics:
        x = form.eval_state(x_prev, win)
    successors = (mode,) if len(candidates) == 1 else tuple([cand.mode for cand in candidates])
    return mode, x, eval_rows(form._output_map, x, win), successors, u, v


def step(s: SmplSystem, state: StepRecord, inp: StepInput) -> StepRecord | None:
    """One event step from the last step's record (SmplBehaviour(s).init()
    before the first), through advance.  None when the rule admits no mode
    (the run halts).  The performance signal is built only for a
    controller to read."""
    z = None if s.controller is None else performance_signal(state.mode, state.x, state.u, state.v)
    stepped = advance(s, state.mode, state.x, z, inp)
    if stepped is None:
        return None
    mode, x, y, successors, u, v = stepped
    return new_record(state.k + 1, mode, x, y, successors, u, v)


@dataclass(frozen=True)
class SmplBehaviour(Stepper):
    """Runs of a switching system.  The record before the first step holds
    x0 and all-EPS u and v, which the first performance signal reads."""

    system: SmplSystem

    def init(self) -> StepRecord:
        s = self.system
        return StepRecord(0, None, tuple(s.x0), (), (), (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v)

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        return step(self.system, state, inp)

    @property
    def shift_exact(self) -> bool:
        return self.system.shift_exact

    # Each stepper class holds its own trace: perfbench/tracing.py wraps
    # cls.__dict__["trace"] per class.
    trace = Stepper.trace


def simulate(s: SmplSystem, inputs: Sequence[StepInput]) -> Trace:
    """The run over the inputs; it stops early on an empty successor set."""
    return SmplBehaviour(s).fold(inputs)


def symbol_liveness_rule(
    modes: dict[int, MatrixMode],
    symbols: Sequence[str],
    input_width: int,
    kind: SwitchingKind = SwitchingKind.CONSTRAINED,
) -> SwitchingRule:
    """Candidate modes are those whose symbol matches the discrete input and
    whose one-step successor state keeps at least one finite entry; each
    candidate carries that state.  Every mode must read inputs of
    input_width, the u ++ r ++ p width a step checks before the rule runs."""
    symbols = tuple(symbols)
    if len(symbols) != len(modes):
        raise ValueError("need exactly one symbol per mode")
    stepped: dict[str, tuple[tuple[int, MatrixMode], ...]] = {}
    for mode, symbol in enumerate(symbols, start=1):
        dynamics = modes[mode]
        if dynamics.form.n_input != input_width:
            raise ValueError(
                f"mode {mode} reads inputs of width {dynamics.form.n_input}, expected {input_width}"
            )
        stepped[symbol] = stepped.get(symbol, ()) + ((mode, dynamics),)

    def successors(probe: SwitchProbe) -> tuple[Candidate, ...]:
        out: tuple[Candidate, ...] = ()
        _, x_prev, u, _, w, r, p = probe
        win = u + r + p
        for mode, dynamics in stepped.get(w, ()):
            x = dynamics.form.eval_state(x_prev, win)
            if has_finite_entry(x):
                out += (new_candidate(mode, x, dynamics),)
        return out

    successors.shift_invariant = True  # which entries are finite does not move under a shift

    return SwitchingRule(
        kind=kind,
        successors=successors,
        symbols=symbols,
        spec={"type": "symbol_liveness", "symbols": list(symbols)},
    )


def externally_driven_rule(symbols: Sequence[str]) -> SwitchingRule:
    """The discrete exogenous symbol names the successor mode directly, so
    each mode's symbol must be its own."""
    symbols = tuple(symbols)
    table = {symbol: (Candidate(mode),) for mode, symbol in enumerate(symbols, start=1)}
    if len(table) != len(symbols):
        repeated = next(symbol for symbol in symbols if symbols.count(symbol) > 1)
        raise ValueError(f"externally driven switching names two modes by the symbol {repeated!r}")

    def successors(probe: SwitchProbe) -> tuple[Candidate, ...]:
        return table.get(probe.w, ())

    successors.shift_invariant = True  # reads w alone

    return SwitchingRule(
        kind=SwitchingKind.EXTERNALLY_DRIVEN,
        successors=successors,
        symbols=symbols,
        spec={"type": "externally_driven", "symbols": list(symbols)},
    )


def from_mpa(a: "MaxPlusAutomaton") -> SmplSystem:
    """Translate a max-plus automaton into a switching system.

    One mode per symbol; the mode matrix is the transposed weight matrix of
    its symbol, the output row collects the final weights and the initial
    state collects the initial weights.  A mode is a candidate only while
    its candidate successor state keeps a finite entry, so runs halt
    exactly where every weighted path has died out.
    """
    n = a.n
    modes: dict[int, MatrixMode] = {}
    for mode, symbol in enumerate(a.alphabet, start=1):
        form = MatrixForm(
            A=(a.mu[symbol].transpose(),),
            B=(TropicalMatrix.epsilon(n, 0),),
            C=(TropicalMatrix.row_vector(a.beta),),
            D=(TropicalMatrix.epsilon(1, 0),),
        )
        modes[mode] = MatrixMode(form)
    dims = SmplDims(n=n, n_u=0, n_v=0, n_y=1, n_r=0, n_p=0)
    rule = symbol_liveness_rule(modes, a.alphabet, dims.input_width)
    return SmplSystem(
        n_modes=len(a.alphabet),
        modes=modes,
        switching=rule,
        x0=tuple(a.alpha),
        dims=dims,
        meta={"translated_from": "mpa", "mpa_states": a.states},
    )


def word_inputs(word: Sequence[str]) -> tuple[StepInput, ...]:
    return tuple(StepInput(w=w) for w in word)
