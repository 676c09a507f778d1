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

A step resolves in two halves, for the system and for its hybrid
translation alike.  resolve_inputs resolves the controlled inputs (the
controller's, shape-checked, or the step input's own) and checks the
widths of u, r and p once before anything reads them.  successor_modes
calls the rule's successor_set once and checks that every candidate is
a mode the system has.  A system whose rule is a library symbol_liveness
rule over the very dynamics the system holds, each mode reading an x of
x0's width and inputs of the system's u ++ r ++ p width, needs no rule
to step: its symbol_steps table lists, for each symbol, every mode the
rule selects, in mode order, with its compiled state and output maps,
open loop or closed.  symbol_step evaluates each candidate's state map
once on the resolved inputs, halts where no candidate's state keeps a
finite entry (as the rule admits no mode then), and otherwise records
the smallest live mode with its output and every live mode as the
successor modes.  A symbol with no entry halts the run.  Only
externally_driven and Python-written rules, and rules over other
dynamics or widths, step through successor_modes.  On the two halves
sits the one step core, advance: it resolves the inputs, then runs
symbol_step on the table entry if there is one, or else evaluates the
rule's smallest mode once, and returns the step's record.  step skips
the input resolution for a bare symbol (no u, v, r or p) of a system
with a program, an input-free system with a table; the translation's
full successor set (hybrid.hybrid_step) reads the live candidates'
states off the same table entry, or runs the two halves itself.  A
run's first step resolves with no previous mode, in the system and in
its translation alike.  A rule yields bare mode indices, which
successor_set deduplicates and sorts, and the record of a step is built
by new_record, straight through tuple.__new__.

Every model class runs through the one stepper protocol defined here
(Stepper: init, step and fold, the shift_exact flag by which bounded
behaviour checks decide whether to key states, and the program by which
they pass over the sequences two models run alike), with one StepRecord
per step, whose y is the step's output, and one Trace per run; a run of
any class is Stepper.fold over its inputs, a run halts where step
returns None, and the inputs of a run that does not halt are in the
model's behaviour.
SmplBehaviour is this module's stepper, whose step is the module function
step(s, state, inp): it takes the last step's record (init's before the
first step) and returns the next one, or None when the rule admits no
mode.  A controller reads the performance signal z = (mode, x, u, v) of
that record.  z has one codec: performance_signal builds it and signal_x
reads x back out of it, for the controller, for smpl.step and for the
closed loop's hybrid translation, whose state z is.
Every model class steps as its switching system: mpa.MpaBehaviour and
hybrid.MahaBehaviour are SmplBehaviour subclasses over their automaton's
system, whose shift_exact flag and program they inherit, and they
override only what differs.  The max-plus automaton's step refuses a
step with no symbol or an unknown one, where the system halts; the
hybrid automaton's step writes no u or v of its own into the record,
and z = (mode, x, u, v) as its x in a closed loop.  from_mpa returns an
automaton's cached system, so an automaton and its translation share
one system and one table.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .expressions import MatrixForm
from .tropical import EPS, EXACT_STATE, CompiledRows, TropicalMatrix, Weight, eval_rows, has_finite_entry
from .tropical import check_weight, integral_below

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


@dataclass(frozen=True)
class SwitchingRule:
    """successors yields the candidate modes of a probe, as mode indices.
    symbols holds one symbol per mode, repeats allowed; alphabet is the
    input alphabet they make.  Only the library's rule constructors,
    symbol_liveness_rule and externally_driven_rule, give a rule a
    document form (spec): it is carried by the successors they build, so
    a rule over any other successors has none, and a rule with one must
    keep the symbols it names."""

    kind: SwitchingKind
    successors: Callable[[SwitchProbe], Iterable[int]]
    symbols: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        named = None if self.spec is None else tuple(self.spec["symbols"])
        if named is not None and named != self.symbols:
            raise ValueError(f"the rule's successors select by the symbols {named}, not {self.symbols}")

    def successor_set(self, probe: SwitchProbe) -> tuple[int, ...]:
        """The candidate modes, sorted and each once."""
        return tuple(sorted(set(self.successors(probe))))

    @property
    def alphabet(self) -> tuple[str, ...]:
        """The distinct symbols in mode order: the symbols a step can read."""
        return tuple(dict.fromkeys(self.symbols or ()))

    @property
    def spec(self) -> dict | None:
        """The rule's document form, which serialisation writes: the one
        its successors carry, None for successors no library rule built."""
        return getattr(self.successors, "spec", None)

    @property
    def shift_invariant(self) -> bool:
        """Whether the candidates read only w and which entries of x are
        finite, so that adding one constant to x leaves them as they are:
        true of the library's rules, those with a document form, and of
        no other."""
        return self.spec is not None

    def enabling_symbols(self, mode: int) -> frozenset[str] | None:
        """Symbols that can select the mode, when declaratively known."""
        return None if self.spec is None else frozenset({self.symbols[mode - 1]})


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
    inputs to this step's (u, v).  A step calls it whatever its maps
    are, and so does the closed loop's hybrid translation.  spec is the
    controller's document form, which static_feedback sets and
    serialisation writes; a hook built from bare closures has none and no
    document form."""

    f_u: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    f_v: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
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

    return ControllerHook(f_u=f_u, f_v=f_v, spec={"type": "static_feedback", "gain": gain})


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


# A step builds its StepRecord through new_record, which hands every field
# to tuple.__new__ directly and so skips the generated __new__ behind a
# NamedTuple call (about 40% of a record's cost); it takes all fields, in
# the class's order, and checks none of them.  Its parameters carry no
# annotations: the class gives the fields' types, and annotations here
# would add to the module's compile time.
_tuple_new = tuple.__new__


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


# Per symbol, its entry: every mode it selects, in mode order, each as a
# candidate (mode, compiled state map, compiled output map).  It is the
# table every step of a system that has one runs through symbol_step, on
# the step's resolved inputs (SmplSystem.symbol_steps).
Candidate = tuple[int, CompiledRows, CompiledRows]
SymbolSteps = dict[str, tuple[Candidate, ...]]
# A stepper's program: its start vector and its SymbolSteps (Stepper.program).
Program = tuple[tuple[Weight, ...], SymbolSteps]


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

    program is None (the default) or what the runs compute: (x0, table),
    the start vector and the SymbolSteps table whose entry for a symbol s
    a step on StepInput(w=s) runs through symbol_step, the one bare-symbol
    step and halt rule of every class.  A switching system gives one
    where it is input-free and has that table (SmplSystem.symbol_steps),
    and so does every stepper over it: a max-plus automaton's, whose
    system that is, and an open-loop translation's.  A closed loop, or a
    system that reads u, v, r or p, has a table but no program.
    Steppers with equal programs run one function on equal data for every
    sequence of such inputs, step for step, which lets a behaviour check
    judge those sequences without a step
    (equivalence.behavioural_inclusion_upto).
    """

    shift_exact = False
    program: Program | None = None

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
        object.__setattr__(self, "x0", tuple(map(check_weight, self.x0)))
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

    @functools.cached_property
    def symbol_steps(self) -> SymbolSteps | None:
        """Per symbol, every mode its rule selects, in mode order, with
        each mode's compiled state and output maps, when the rule is a
        symbol_liveness_rule over the very dynamics the system holds,
        each reading an x of x0's width and inputs of the system's
        u ++ r ++ p width, with or without a controller.  Every step is
        then symbol_step over the symbol's entry on the resolved inputs,
        and a symbol with no entry halts the run, as the rule admits no
        mode for it.  None otherwise, and for any other rule, so a mode of
        another width steps through the rule, whose evaluation refuses it.
        Decided once per system."""
        by_symbol = getattr(self.switching.successors, "modes_by_symbol", None)
        if by_symbol is None:
            return None
        widths = len(self.x0), self.dims.input_width
        table: SymbolSteps = {}
        for symbol, selected in by_symbol.items():
            entry = []
            for mode, dynamics in selected:
                form = dynamics.form
                if self.modes.get(mode) is not dynamics or (form.n_state, form.n_input) != widths:
                    return None
                entry.append((mode, form._state_map, form._output_map))
            table[symbol] = tuple(entry)
        return table

    @functools.cached_property
    def program(self) -> Program | None:
        """The system's program (see Stepper): x0 and symbol_steps, the
        table a step on each symbol runs, where the system is input-free;
        a closed loop or a system that reads u, v, r or p has none.
        Decided once per system."""
        table = self.symbol_steps
        return None if table is None or not self.input_free else (self.x0, table)


def resolve_inputs(
    s: SmplSystem, z: tuple[Weight, ...] | None, inp: StepInput
) -> tuple[tuple[Weight, ...], tuple[Weight, ...], tuple[Weight, ...]]:
    """One step's controlled inputs (u, v) and the continuous input
    u ++ r ++ p fed to the mode maps.  u and v come from the controller
    when there is one, with their shape checked, and are the step input's
    own otherwise; then the widths of u, r and p are checked, part by part
    and in sum.  Only a controller reads the performance signal z, so z
    may be None without one."""
    r, p = inp.r, inp.p
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
    if len(u) != dims.n_u or len(r) != dims.n_r or len(p) != dims.n_p:
        got = (len(u), len(r), len(p))
        want = (dims.n_u, dims.n_r, dims.n_p)
        raise ValueError(
            f"step input has (u, r, p) widths {got}, expected {want}; "
            f"u++r++p width {sum(got)} ({got[0]}+{got[1]}+{got[2]}), expected {dims.input_width}"
        )
    return u, v, u + r + p


def successor_modes(
    s: SmplSystem,
    prev_mode: int | None,
    x_prev: tuple[Weight, ...],
    u: tuple[Weight, ...],
    v: tuple[Weight, ...],
    inp: StepInput,
) -> tuple[int, ...]:
    """The rule's candidate modes from the previous mode (None before the
    first step), state and resolved inputs, once, each a mode the system
    has."""
    modes = s.switching.successor_set(SwitchProbe(prev_mode, x_prev, u, v, inp.w, inp.r, inp.p))
    if modes:
        # Modes come sorted and the system's are 1..n_modes, so the first
        # and the last being known covers every one in between.
        first, last = modes[0], modes[-1]
        if first not in s.modes or last not in s.modes:
            raise ValueError(f"switching rule returned unknown mode {last if first in s.modes else first}")
    return modes


def advance(
    s: SmplSystem,
    k: int,
    prev_mode: int | None,
    x_prev: tuple[Weight, ...],
    z: tuple[Weight, ...] | None,
    inp: StepInput,
) -> StepRecord | None:
    """Step k + 1 of a system and of its translation: resolve the inputs,
    then run symbol_step on the symbol's symbol_steps entry where the
    system has a table, or else take the rule's smallest mode through one
    evaluation of its state map and output through its output map on the
    continuous input u ++ r ++ p.  Returns the step's record, with the
    resolved u and v, or None when no mode is admitted (the run halts)."""
    u, v, win = resolve_inputs(s, z, inp)
    table = s.symbol_steps
    if table is not None:
        entry = table.get(inp.w)
        return None if entry is None else symbol_step(entry, k, x_prev, win, u, v)
    modes = successor_modes(s, prev_mode, x_prev, u, v, inp)
    if not modes:
        return None
    form = s.modes[modes[0]].form
    x = form.eval_state(x_prev, win)
    return new_record(k + 1, modes[0], x, eval_rows(form._output_map, x, win), modes, u, v)


def live_candidates(
    entry: tuple[Candidate, ...], x_prev: tuple[Weight, ...], win: tuple[Weight, ...]
) -> list[tuple[int, tuple[Weight, ...], CompiledRows]]:
    """(mode, next state, output map) of each candidate of a symbol_steps
    entry whose next state from x_prev keeps a finite entry, in mode
    order: the modes symbol liveness admits, each state map evaluated
    once."""
    stepped = [(mode, eval_rows(state_map, x_prev, win), output_map) for mode, state_map, output_map in entry]
    return [candidate for candidate in stepped if has_finite_entry(candidate[1])]


def symbol_step(
    entry: tuple[Candidate, ...],
    k: int,
    x_prev: tuple[Weight, ...],
    win: tuple[Weight, ...] = (),
    u: tuple[Weight, ...] = (),
    v: tuple[Weight, ...] = (),
) -> StepRecord | None:
    """Step k + 1 on a symbol through its symbol_steps entry on the
    continuous input win = u ++ r ++ p, empty on an input-free system:
    each candidate's next state from x_prev, once; None where none has a
    finite entry (the run halts, as symbol liveness admits no mode); else
    the record of the smallest live mode's state and output, with every
    live mode as its successor modes, and the resolved u and v.  It is
    every step of a system with a table and every step of a max-plus
    automaton."""
    if len(entry) == 1:  # one candidate, as on every symbol of an automaton: no list
        (mode, state_map, output_map), = entry
        x = eval_rows(state_map, x_prev, win)
        if not has_finite_entry(x):
            return None
        return new_record(k + 1, mode, x, eval_rows(output_map, x, win), (mode,), u, v)
    live = live_candidates(entry, x_prev, win)
    if not live:
        return None
    mode, x, output_map = live[0]
    return new_record(k + 1, mode, x, eval_rows(output_map, x, win), tuple([c[0] for c in live]), u, v)


def step(s: SmplSystem, state: StepRecord, inp: StepInput) -> StepRecord | None:
    """One event step from the last step's record (SmplBehaviour(s).init()
    before the first): symbol_step for a bare symbol on a system with a
    program, advance for every other step.  None when no mode is admitted
    (the run halts).  The performance signal is built only for a
    controller to read."""
    program = s.program
    if program is not None and not (inp.u or inp.v or inp.r or inp.p):
        entry = program[1].get(inp.w)
        return None if entry is None else symbol_step(entry, state.k, state.x)
    z = None if s.controller is None else performance_signal(state.mode, state.x, state.u, state.v)
    return advance(s, state.k, state.mode, state.x, z, inp)


@dataclass(frozen=True)
class SmplBehaviour(Stepper):
    """Runs of a switching system, and the base of every model class's
    stepper (mpa.MpaBehaviour, hybrid.MahaBehaviour), each of which runs
    its automaton's system.  The record before the first step holds x0
    and all-EPS u and v, which the first performance signal reads."""

    system: SmplSystem

    def init(self) -> StepRecord:
        s = self.system
        return StepRecord(0, None, s.x0, (), (), (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v)

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        return step(self.system, state, inp)

    @property
    def shift_exact(self) -> bool:
        return self.system.shift_exact

    @property
    def program(self) -> Program | None:
        return self.system.program

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
    whose one-step successor state keeps at least one finite entry.  Every
    mode must read inputs of input_width, the u ++ r ++ p width a step
    checks before the rule runs."""
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

    def successors(probe: SwitchProbe) -> tuple[int, ...]:
        _, x_prev, u, _, w, r, p = probe
        win = u + r + p
        return tuple([
            mode for mode, dynamics in stepped.get(w, ()) if has_finite_entry(dynamics.form.eval_state(x_prev, win))
        ])

    successors.spec = {"type": "symbol_liveness", "symbols": list(symbols)}
    successors.modes_by_symbol = stepped  # the modes each symbol selects, for SmplSystem.symbol_steps
    return SwitchingRule(kind=kind, successors=successors, symbols=symbols)


def externally_driven_rule(symbols: Sequence[str]) -> SwitchingRule:
    """The discrete exogenous symbol names the successor mode directly, so
    each mode's symbol must be its own."""
    symbols = tuple(symbols)
    table = {symbol: (mode,) for mode, symbol in enumerate(symbols, start=1)}
    if len(table) != len(symbols):
        repeated = next(symbol for symbol in symbols if symbols.count(symbol) > 1)
        raise ValueError(f"externally driven switching names two modes by the symbol {repeated!r}")

    def successors(probe: SwitchProbe) -> tuple[int, ...]:
        return table.get(probe.w, ())

    successors.spec = {"type": "externally_driven", "symbols": list(symbols)}
    return SwitchingRule(kind=SwitchingKind.EXTERNALLY_DRIVEN, successors=successors, symbols=symbols)


def from_mpa(a: "MaxPlusAutomaton") -> SmplSystem:
    """Translate a max-plus automaton into a switching system: its cached
    MaxPlusAutomaton.system, one mode per symbol over the transposed
    weight matrix, which the automaton's own stepper runs too."""
    return a.system


def word_inputs(word: Sequence[str]) -> tuple[StepInput, ...]:
    return tuple(StepInput(w=w) for w in word)
