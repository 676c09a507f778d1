"""Switching max-plus linear systems over an event counter.

Per event step the switching rule resolves the active mode from the
previous mode, the previous continuous state and the step's inputs; the
resolved mode's dynamics then advance the state and produce the output.
Rules may return several candidate modes; stepping picks the smallest
index but the full candidate set is kept in the trace so equivalence
checks can see the nondeterminism.  An empty candidate set halts the run.

A rule that has to compute a mode's next state to decide on it (symbol
liveness does) hands that state back with the candidate, so a step
evaluates the chosen mode's dynamics once.  Around that one evaluation a
step does little else: without a controller it reads u and v straight
from its input and builds no performance signal, a rule's output is
deduplicated and sorted only when it holds more than one candidate, and
the input window's part widths are checked without building tuples.

Every model class runs through the one stepper protocol defined here
(Stepper: init, step, output, complete), with one StepRecord per step and
one Trace per run; a run of any class is Stepper.fold over its inputs.
SmplBehaviour is this module's stepper; hybrid.MahaBehaviour and
mpa.MpaBehaviour are the other two.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .expressions import MatrixForm, MmpsExpression, eval_expr
from .tropical import EPS, TropicalMatrix, Weight, has_finite_entry

if TYPE_CHECKING:
    from .mpa import MaxPlusAutomaton


class NoSuccessorMode(RuntimeError):
    """The switching rule returned no successor mode (halted run)."""

    def __init__(self, step: int):
        super().__init__(f"no successor mode at step {step}")
        self.step = step


class SwitchingKind(enum.Enum):
    STATE_DEPENDENT_AUTONOMOUS = "state_dependent_autonomous"
    STATE_DEPENDENT_CONTROLLED = "state_dependent_controlled"
    EXTERNALLY_DRIVEN = "externally_driven"
    CONSTRAINED = "constrained"
    CONSTRAINED_CONTROLLED = "constrained_controlled"


# Fields a rule of the given kind must ignore; probed by classify_switching.
_CLAIMED_INDEPENDENT: dict[SwitchingKind, frozenset[str]] = {
    SwitchingKind.STATE_DEPENDENT_AUTONOMOUS: frozenset({"u", "v", "w", "r", "p"}),
    SwitchingKind.STATE_DEPENDENT_CONTROLLED: frozenset({"w", "r", "p"}),
    SwitchingKind.EXTERNALLY_DRIVEN: frozenset({"prev_mode", "x", "u", "v", "r", "p"}),
    SwitchingKind.CONSTRAINED: frozenset({"u", "v", "r", "p"}),
    SwitchingKind.CONSTRAINED_CONTROLLED: frozenset({"u", "r", "p"}),
}


@dataclass(frozen=True)
class StepInput:
    """Inputs for one event step.

    u and v are the controlled continuous/discrete inputs, w the exogenous
    discrete symbol and (r, p) the exogenous continuous signals.
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


class Candidate(NamedTuple):
    """A successor mode with the next state the rule computed for it, and
    the mode dynamics that computed it; both None when the rule decided
    without stepping the mode."""

    mode: int
    x: tuple[Weight, ...] | None = None
    dynamics: ModeDynamics | None = None

    def state_for(self, dynamics: ModeDynamics) -> tuple[Weight, ...] | None:
        """The carried next state if these very dynamics computed it; a
        rule built over other mode objects gets its states recomputed."""
        return self.x if self.dynamics is dynamics else None


@dataclass(frozen=True)
class SwitchingRule:
    """successors yields the admissible modes of a probe, as bare mode
    indices or as Candidates carrying their next states."""

    kind: SwitchingKind
    successors: Callable[[SwitchProbe], Iterable[int | Candidate]]
    symbols: tuple[str, ...] | None = None
    spec: dict | None = None

    def successor_set(self, probe: SwitchProbe) -> tuple[Candidate, ...]:
        """The candidates sorted by mode, one per mode (the first yielded).
        A rule that yields at most one candidate needs neither."""
        cands = [cand if isinstance(cand, Candidate) else Candidate(cand) for cand in self.successors(probe)]
        if len(cands) <= 1:
            return tuple(cands)
        found: dict[int, Candidate] = {}
        for cand in cands:
            found.setdefault(cand.mode, cand)
        return tuple([found[mode] for mode in sorted(found)])

    def enabling_symbols(self, mode: int) -> frozenset[str] | None:
        """Symbols that can select the mode, when declaratively known."""
        if self.spec is None or self.symbols is None:
            return None
        if self.spec.get("type") in ("symbol_liveness", "externally_driven"):
            return frozenset({self.symbols[mode - 1]})
        return None


class ModeDynamics:
    """Shared surface for matrix-form and expression-form mode maps."""

    def next_state(self, x: Sequence[Weight], win: Sequence[Weight]) -> tuple[Weight, ...]:
        raise NotImplementedError

    def output(self, x: Sequence[Weight], win: Sequence[Weight]) -> tuple[Weight, ...]:
        raise NotImplementedError

    @property
    def form(self) -> MatrixForm | None:
        return None


@dataclass(frozen=True)
class MatrixMode(ModeDynamics):
    matrix_form: MatrixForm

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

    def next_state(self, x, win):
        return self.matrix_form.eval_state(x, win)

    def output(self, x, win):
        return self.matrix_form.eval_output(x, win)

    @property
    def form(self) -> MatrixForm:
        return self.matrix_form


@dataclass(frozen=True)
class ExpressionMode(ModeDynamics):
    state_exprs: tuple[MmpsExpression, ...]
    output_exprs: tuple[MmpsExpression, ...]

    def next_state(self, x, win):
        return tuple(eval_expr(e, x, win) for e in self.state_exprs)

    def output(self, x, win):
        return tuple(eval_expr(e, x, win) for e in self.output_exprs)


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
    inputs to this step's (u, v)."""

    f_u: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    f_v: Callable[[tuple[Weight, ...], StepInput], tuple[Weight, ...]]
    max_min_plus: bool = True
    name: str = "controller"


def static_feedback(gain: TropicalMatrix, n: int, name: str = "static feedback") -> ControllerHook:
    """u(k) = gain ox x(k-1); v is empty.  A max-plus linear controller."""

    def f_u(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
        return gain.apply(z[1 : 1 + n])

    def f_v(z: tuple[Weight, ...], inp: StepInput) -> tuple[Weight, ...]:
        return ()

    return ControllerHook(f_u=f_u, f_v=f_v, max_min_plus=True, name=name)


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


@dataclass(frozen=True)
class Trace:
    """The records of one run; halted_at is the step that found no
    successor, None when every input was consumed."""

    records: tuple[StepRecord, ...]
    halted_at: int | None = None

    @property
    def completed(self) -> bool:
        return self.halted_at is None

    def outputs(self) -> tuple[tuple[Weight, ...], ...]:
        return tuple(rec.y for rec in self.records)


class Stepper:
    """A model's runs, one step at a time, for every model class.

    A state is the StepRecord of the last step and stands for the inputs
    consumed so far.  step returns None once no extension of those inputs
    can be in the model's behaviour (the run halts); complete says whether
    the inputs themselves are.  The two differ for a max-plus automaton,
    whose unaccepted words can have accepted extensions.
    """

    def init(self) -> StepRecord:
        raise NotImplementedError

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        raise NotImplementedError

    def output(self, state: StepRecord) -> tuple[Weight, ...]:
        return state.y

    def complete(self, state: StepRecord) -> bool:
        return True

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
        model's behaviour: the run halts or ends incomplete."""
        run = self.fold(inputs)
        if not run.completed:
            return None
        last = run.records[-1] if run.records else self.init()
        return run if self.complete(last) else None


@dataclass(frozen=True)
class SmplSystem:
    n_modes: int
    modes: dict[int, ModeDynamics]
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

    def mode_encoding(self, mode: int | None) -> Weight:
        return float(mode) if mode is not None else EPS

    def performance_signal(
        self,
        prev_mode: int | None,
        x_prev: Sequence[Weight],
        u_prev: Sequence[Weight],
        v_prev: Sequence[Weight],
    ) -> tuple[Weight, ...]:
        return (self.mode_encoding(prev_mode),) + tuple(x_prev) + tuple(u_prev) + tuple(v_prev)

    def initial_performance_signal(self) -> tuple[Weight, ...]:
        return self.performance_signal(
            None, self.x0, (EPS,) * self.dims.n_u, (EPS,) * self.dims.n_v
        )


def resolve_inputs(
    s: SmplSystem, z: tuple[Weight, ...] | None, inp: StepInput
) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """Controlled inputs for this step: from the controller when present,
    verbatim from the step input otherwise.  Only a controller reads the
    performance signal z, so z may be None without one."""
    if s.controller is not None:
        return tuple(s.controller.f_u(z, inp)), tuple(s.controller.f_v(z, inp))
    return tuple(inp.u), tuple(inp.v)


def input_window(
    dims: SmplDims, u: Sequence[Weight], inp: StepInput
) -> tuple[Weight, ...]:
    """The continuous input u ++ r ++ p fed to the mode maps, each part
    checked against its declared width."""
    r, p = inp.r, inp.p
    if len(u) != dims.n_u or len(r) != dims.n_r or len(p) != dims.n_p:
        got = (len(u), len(r), len(p))
        want = (dims.n_u, dims.n_r, dims.n_p)
        raise ValueError(f"step input has (u, r, p) widths {got}, expected {want}")
    if not r and not p:
        return tuple(u)
    return tuple(u) + tuple(r) + tuple(p)


def step(
    s: SmplSystem,
    prev_mode: int | None,
    x_prev: Sequence[Weight],
    inp: StepInput,
    k: int = 1,
    u_prev: Sequence[Weight] | None = None,
    v_prev: Sequence[Weight] | None = None,
) -> StepRecord:
    """One event step: resolve inputs, resolve the mode, advance, output.
    The performance signal is built only for a controller to read; without
    one, u and v are the step input's own."""
    dims = s.dims
    if s.controller is not None:
        u_prev = (EPS,) * dims.n_u if u_prev is None else tuple(u_prev)
        v_prev = (EPS,) * dims.n_v if v_prev is None else tuple(v_prev)
        z = s.performance_signal(prev_mode, x_prev, u_prev, v_prev)
        u, v = resolve_inputs(s, z, inp)
    else:
        u, v = tuple(inp.u), tuple(inp.v)
    if len(u) != dims.n_u or len(v) != dims.n_v:
        raise ValueError(
            f"resolved inputs have shape ({len(u)}, {len(v)}), "
            f"expected ({dims.n_u}, {dims.n_v})"
        )
    probe = SwitchProbe(prev_mode, tuple(x_prev), u, v, inp.w, inp.r, inp.p)
    candidates = s.switching.successor_set(probe)
    if not candidates:
        raise NoSuccessorMode(k)
    successors = tuple([cand.mode for cand in candidates])
    for mode in successors:
        if not 1 <= mode <= s.n_modes:
            raise ValueError(f"switching rule returned unknown mode {mode}")
    mode = successors[0]
    win = input_window(dims, u, inp)
    dynamics = s.modes[mode]
    x = candidates[0].state_for(dynamics)
    if x is None:
        x = dynamics.next_state(probe.x, win)
    y = dynamics.output(x, win)
    return StepRecord(k, mode, x, y, successors, u, v)


@dataclass(frozen=True)
class SmplBehaviour(Stepper):
    """Runs of a switching system.  The record before the first step holds
    x0 and all-EPS u and v, which the first performance signal reads."""

    system: SmplSystem

    def init(self) -> StepRecord:
        s = self.system
        return StepRecord(0, None, tuple(s.x0), (), (), (EPS,) * s.dims.n_u, (EPS,) * s.dims.n_v)

    def step(self, state: StepRecord, inp: StepInput) -> StepRecord | None:
        try:
            return step(self.system, state.mode, state.x, inp, state.k + 1, state.u, state.v)
        except NoSuccessorMode:
            return None

    # Each stepper class holds its own trace: perfbench/tracing.py wraps
    # cls.__dict__["trace"] per class.
    trace = Stepper.trace


def simulate(s: SmplSystem, inputs: Sequence[StepInput]) -> Trace:
    """The run over the inputs; it stops early on an empty successor set."""
    return SmplBehaviour(s).fold(inputs)


def symbol_liveness_rule(
    modes: dict[int, ModeDynamics],
    symbols: Sequence[str],
    input_width: int,
    kind: SwitchingKind = SwitchingKind.CONSTRAINED,
) -> SwitchingRule:
    """Candidate modes are those whose symbol matches the discrete input and
    whose one-step successor state keeps at least one finite entry; each
    candidate carries that state."""
    symbols = tuple(symbols)
    if len(symbols) != len(modes):
        raise ValueError("need exactly one symbol per mode")
    modes_of: dict[str, list[int]] = {}
    for mode, symbol in enumerate(symbols, start=1):
        modes_of.setdefault(symbol, []).append(mode)

    def successors(probe: SwitchProbe) -> list[Candidate]:
        out = []
        win = probe.u + probe.r + probe.p
        if len(win) != input_width:
            raise ValueError(
                f"step input has u++r++p width {len(win)} "
                f"({len(probe.u)}+{len(probe.r)}+{len(probe.p)}), expected {input_width}"
            )
        for mode in modes_of.get(probe.w, ()):
            dynamics = modes[mode]
            x = dynamics.next_state(probe.x, win)
            if has_finite_entry(x):
                out.append(Candidate(mode, x, dynamics))
        return out

    return SwitchingRule(
        kind=kind,
        successors=successors,
        symbols=symbols,
        spec={"type": "symbol_liveness", "symbols": list(symbols)},
    )


def externally_driven_rule(symbols: Sequence[str]) -> SwitchingRule:
    """The discrete exogenous symbol names the successor mode directly."""
    symbols = tuple(symbols)
    table = {symbol: mode for mode, symbol in enumerate(symbols, start=1)}

    def successors(probe: SwitchProbe) -> list[int]:
        return [table[probe.w]] if probe.w in table else []

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
    state collects the initial weights.  A mode is admissible only while
    its candidate successor state keeps a finite entry, so runs halt
    exactly where every weighted path has died out.
    """
    n = a.n
    modes: dict[int, ModeDynamics] = {}
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


class SwitchingClassificationError(ValueError):
    """Declared switching kind conflicts with observed argument sensitivity."""


def classify_switching(s: SmplSystem, probes: int = 12, seed: int = 0) -> SwitchingKind:
    """Validate the declared kind by probing for forbidden sensitivities.

    Each kind claims independence from some arguments; the rule is sampled
    at random base points and each claimed-independent argument is varied
    in isolation.  A change in the successor modes is a contradiction.
    """
    rule = s.switching

    def successor_modes(probe: SwitchProbe) -> tuple[int, ...]:
        return tuple(cand.mode for cand in rule.successor_set(probe))

    rng = random.Random(seed)
    dims = s.dims
    symbols = rule.symbols or ()

    def rand_vec(size: int) -> tuple[Weight, ...]:
        return tuple(
            EPS if rng.random() < 0.25 else float(rng.randint(-5, 9))
            for _ in range(size)
        )

    def rand_probe() -> SwitchProbe:
        return SwitchProbe(
            prev_mode=rng.choice([None] + list(range(1, s.n_modes + 1))),
            x=rand_vec(dims.n),
            u=rand_vec(dims.n_u),
            v=rand_vec(dims.n_v),
            w=rng.choice(symbols) if symbols else None,
            r=rand_vec(dims.n_r),
            p=rand_vec(dims.n_p),
        )

    def variants(probe: SwitchProbe, name: str) -> list[SwitchProbe]:
        out = []
        for _ in range(3):
            repl: dict = {}
            if name == "prev_mode":
                repl["prev_mode"] = rng.choice(
                    [None] + list(range(1, s.n_modes + 1))
                )
            elif name == "w":
                if not symbols:
                    return []
                repl["w"] = rng.choice(symbols)
            else:
                size = len(getattr(probe, name))
                if size == 0:
                    return []
                repl[name] = rand_vec(size)
            out.append(
                SwitchProbe(
                    **{
                        f: repl.get(f, getattr(probe, f))
                        for f in ("prev_mode", "x", "u", "v", "w", "r", "p")
                    }
                )
            )
        return out

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


def word_inputs(word: Sequence[str]) -> tuple[StepInput, ...]:
    return tuple(StepInput(w=w) for w in word)
