"""Bundled example systems and their JSON documents.

The three stock systems are a three-state max-plus automaton over {a, b},
a two-mode production line whose third station takes the earlier of two
feeding routes, and a small two-mode closed-loop system under static
max-plus state feedback.  Each is written once, as its builder; its
document is the builder's model serialised with the name and description
from FIXTURES, so the package carries no data file.
"""

from __future__ import annotations

import random

from .expressions import (
    Const,
    MmpsExpression,
    Plus,
    Var,
    max_of,
    min_of,
    shifted,
    to_conjunctive,
    to_matrix_form,
)
from .mpa import MaxPlusAutomaton
from .serialization import mpa_body, serialize_body, smpl_body
from .smpl import (
    MatrixMode,
    SmplDims,
    SmplSystem,
    static_feedback,
    symbol_liveness_rule,
)
from .tropical import EPS, TropicalMatrix


def gaubert_mpa() -> MaxPlusAutomaton:
    """Three states over {a, b}; only state 1 enters and leaves."""
    return MaxPlusAutomaton(
        states=("1", "2", "3"),
        alphabet=("a", "b"),
        alpha=(0.0, EPS, EPS),
        mu={
            "a": TropicalMatrix.from_rows(
                [[EPS, 1, 3], [EPS, EPS, 4], [EPS, EPS, EPS]]
            ),
            "b": TropicalMatrix.from_rows(
                [[EPS, EPS, EPS], [2, 1, EPS], [7, 5, 1]]
            ),
        },
        beta=(2.0, EPS, EPS),
        meta={"name": "gaubert_mpa"},
    )


def production_line_state_exprs(
    tau: tuple[float, float, float] = (1.0, 2.0, 3.0)
) -> dict[int, tuple[MmpsExpression, ...]]:
    """Completion-time updates of the two operating modes.

    Mode 1 recycles the third station's product to the first; mode 2 routes
    it to the second instead.  The third station always takes whichever of
    its two feeding routes finishes first.
    """
    t1, t2, t3 = tau
    x1, x2, x3 = Var(0), Var(1), Var(2)
    third = max_of(
        shifted(x1, t1),
        shifted(x2, t2),
        shifted(x3, 2 * t3),
        min_of(Plus(x1, Const(t1 + t3)), Plus(x2, Const(t2 + t3))),
    )
    mode1 = (
        max_of(shifted(x1, t1), x2, shifted(x3, t3)),
        max_of(shifted(x1, t1), shifted(x2, t2)),
        third,
    )
    mode2 = (
        max_of(shifted(x1, t1), x2),
        max_of(shifted(x1, t1), shifted(x2, t2), shifted(x3, t3)),
        third,
    )
    return {1: mode1, 2: mode2}


def production_line_output_expr() -> tuple[MmpsExpression, ...]:
    """The line's output is the third station's completion time."""
    return (Var(2),)


def production_line_smpl(
    tau: tuple[float, float, float] = (1.0, 2.0, 3.0)
) -> SmplSystem:
    """Two-mode switching system for the production line.

    Mode matrices come from the conjunctive rewrite of the update
    expressions; a mode is a candidate when its symbol is applied and the
    candidate next state keeps at least one finite completion time.
    """
    exprs = production_line_state_exprs(tau)
    out_exprs = production_line_output_expr()
    modes: dict[int, MatrixMode] = {}
    for mode, state_exprs in exprs.items():
        state_forms = [to_conjunctive(e, 3) for e in state_exprs]
        output_forms = [to_conjunctive(e, 3) for e in out_exprs]
        modes[mode] = MatrixMode(to_matrix_form(state_forms, output_forms, 3))
    dims = SmplDims(n=3, n_u=0, n_v=0, n_y=1)
    rule = symbol_liveness_rule(modes, ("l1", "l2"), dims.input_width)
    return SmplSystem(
        n_modes=2,
        modes=modes,
        switching=rule,
        x0=(0.0, 0.0, EPS),
        dims=dims,
        meta={"name": "production_line", "tau": list(tau)},
    )


FEEDBACK_GAIN = TropicalMatrix.from_rows([[0, -1]])


def feedback_demo_smpl() -> SmplSystem:
    """Two modes with one controlled input under static state feedback."""
    mode1 = MatrixMode.from_parts(
        a=[[1, EPS], [0, 2]], b=[[0], [EPS]], c=[[0, 0]], d=[[EPS]]
    )
    mode2 = MatrixMode.from_parts(
        a=[[2, 0], [EPS, 1]], b=[[EPS], [0]], c=[[0, 0]], d=[[EPS]]
    )
    modes = {1: mode1, 2: mode2}
    dims = SmplDims(n=2, n_u=1, n_v=0, n_y=1)
    rule = symbol_liveness_rule(modes, ("m1", "m2"), dims.input_width)
    return SmplSystem(
        n_modes=2,
        modes=modes,
        switching=rule,
        x0=(0.0, 0.0),
        dims=dims,
        controller=static_feedback(FEEDBACK_GAIN, n=2),
        meta={"name": "feedback_demo"},
    )


def random_mpa(rng: random.Random, n_states: int = 3, symbols: tuple[str, ...] = ("a", "b")) -> MaxPlusAutomaton:
    """Random automaton with integer weights; some initial weight is finite."""
    def maybe(p: float, lo: int, hi: int) -> float:
        return float(rng.randint(lo, hi)) if rng.random() < p else EPS

    states = tuple(str(i + 1) for i in range(n_states))
    mu = {
        symbol: TropicalMatrix.from_rows(
            [[maybe(0.45, 0, 9) for _ in states] for _ in states]
        )
        for symbol in symbols
    }
    alpha = [maybe(0.5, 0, 5) for _ in states]
    if not any(a != EPS for a in alpha):
        alpha[rng.randrange(n_states)] = float(rng.randint(0, 5))
    beta = [maybe(0.5, 0, 5) for _ in states]
    return MaxPlusAutomaton(
        states=states, alphabet=symbols, alpha=tuple(alpha), mu=mu, beta=tuple(beta)
    )


# name -> (builder, description) of each bundled document.
FIXTURES = {
    "gaubert_mpa": (
        gaubert_mpa,
        "Three-state max-plus automaton over {a, b}; state 1 is the only entry and exit.",
    ),
    "production_line": (
        production_line_smpl,
        "Two-mode production line with processing times (1, 2, 3); "
        "the exogenous symbol picks the recycling route.",
    ),
    "feedback_demo": (
        feedback_demo_smpl,
        "Two-mode system with one controlled input under static max-plus state feedback.",
    ),
}
FIXTURE_NAMES = tuple(FIXTURES)


def fixture_text(name: str) -> str:
    """The canonical JSON document of a bundled fixture."""
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    build, description = FIXTURES[name]
    model = build()
    write = mpa_body if isinstance(model, MaxPlusAutomaton) else smpl_body
    return serialize_body(write(model, {"name": name, "description": description}))
