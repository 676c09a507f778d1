"""Expression trees over max, min, plus and scaling, and their normal forms.

The full grammar is

    f := Var(i) | InputVar(i) | Const(c) | Max(f, f) | Min(f, f)
       | Plus(f, f) | Scale(b, f)

A tree is evaluated by ``eval_points`` at a batch of points in one walk:
each node is one pass over the points with its semiring operation
inline, so a caller that evaluates one tree at many points walks it once.
``eval_expr`` is the batch of one point.

The max-min-plus fragment drops Scale and Const (except as one finite
operand of a Plus) and admits a conjunctive normal form (Gunawardena,
"Min-max functions", 1994): a min of max-plus projections, each a max of
variable-plus-constant terms, held as one coefficient row over x ++ u.
``to_conjunctive`` computes it in one walk of the tree, refusing the first
node outside the fragment, by distributing min over max and pruning rows
that are coefficientwise above another (those can never attain the min),
which leaves a sorted antichain.  That antichain is what the one-step
transition graphs are read off from, so its stability matters more than
its size.

A mode's matrix form, min over l of (A[l] ox x oplus B[l] ox u), stacks
the conjunctive forms of its components: level l of A and B holds each
component's l-th row, split at n_state, and a component with fewer rows
repeats its last one.  Each of the form's two maps compiles once, on first
use, to one list of branches per component; a branch is the non-EPS
(index, weight) pairs of one level over x ++ u.  The list keeps each
distinct branch once, so a padded component is evaluated once per step,
not once per level.  A component left with one branch is a plain max for
the kernel (tropical.eval_rows), with no min; one of several branches is
a min of maxes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Union

from .tropical import (
    EPS,
    TOP,
    CompiledRows,
    Pairs,
    TropicalMatrix,
    Weight,
    compile_row,
    eval_rows,
    is_finite,
    oplus,
    otimes,
)


class NotMaxMinPlusError(ValueError):
    """The expression falls outside the max-min-plus fragment."""


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class InputVar:
    index: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Max:
    left: "MmpsExpression"
    right: "MmpsExpression"


@dataclass(frozen=True)
class Min:
    left: "MmpsExpression"
    right: "MmpsExpression"


@dataclass(frozen=True)
class Plus:
    left: "MmpsExpression"
    right: "MmpsExpression"


@dataclass(frozen=True)
class Scale:
    factor: float
    child: "MmpsExpression"


MmpsExpression = Union[Var, InputVar, Const, Max, Min, Plus, Scale]


def max_of(*exprs: MmpsExpression) -> MmpsExpression:
    acc = exprs[0]
    for e in exprs[1:]:
        acc = Max(acc, e)
    return acc


def min_of(*exprs: MmpsExpression) -> MmpsExpression:
    acc = exprs[0]
    for e in exprs[1:]:
        acc = Min(acc, e)
    return acc


def shifted(e: MmpsExpression, c: float) -> MmpsExpression:
    return Plus(e, Const(c)) if c != 0 else e


def _scale(factor: float, v: Weight) -> Weight:
    # 0 * (+-inf) is 0 here: scaling by zero yields the zero function.
    if is_finite(v):
        return factor * v
    if factor == 0:
        return 0.0
    return v if factor > 0 else (EPS if v == TOP else TOP)


def eval_points(
    e: MmpsExpression,
    xs: Sequence[Sequence[Weight]],
    us: Sequence[Sequence[Weight]] | None = None,
) -> list[Weight]:
    """The tree's value at every point (xs[i], us[i]), u empty when us is
    None, in one walk of the tree: each node is one pass over the points.
    EPS absorbs under Plus even against TOP, and max and min keep the first
    of two equal values.  A variable out of range at some point
    (IndexError) or a non-node (TypeError) raises when the walk reaches
    it, leftmost first."""
    if us is None:
        us = [()] * len(xs)
    if isinstance(e, (Var, InputVar)):
        label, vectors = ("state variable x", xs) if isinstance(e, Var) else ("input variable u", us)
        i = e.index
        if vectors and not 0 <= i < min(map(len, vectors)):
            raise IndexError(f"{label}{i} out of range")
        return [v[i] for v in vectors]
    if isinstance(e, Const):
        return [e.value] * len(xs)
    if isinstance(e, Scale):
        return [_scale(e.factor, v) for v in eval_points(e.child, xs, us)]
    if isinstance(e, (Max, Min, Plus)):
        pairs = zip(eval_points(e.left, xs, us), eval_points(e.right, xs, us))
        if isinstance(e, Max):
            return [a if a >= b else b for a, b in pairs]
        if isinstance(e, Min):
            return [a if a <= b else b for a, b in pairs]
        return [EPS if a == EPS or b == EPS else a + b for a, b in pairs]
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: MmpsExpression, x: Sequence[Weight], u: Sequence[Weight] = ()) -> Weight:
    """Evaluate over the completed semiring; EPS wins over TOP under Plus."""
    return eval_points(e, (x,), (u,))[0]


@dataclass(frozen=True)
class ConjunctiveForm:
    """min over rows of max over k of (row[k] + (x ++ u)[k]): each row is
    one max-plus projection's coefficients over x ++ u, its first n_state
    on x.  The rows are sorted, distinct and a minimal antichain: no row is
    coefficientwise above another, so every row can attain the min."""

    rows: tuple[tuple[Weight, ...], ...]
    n_state: int


def _minimal_antichain(rows: list[tuple[Weight, ...]]) -> list[tuple[Weight, ...]]:
    """Keep only rows not coefficientwise above another row (min is unchanged)."""
    rows = sorted(set(rows))
    kept: list[tuple[Weight, ...]] = []
    for r in rows:
        if any(all(a >= b for a, b in zip(r, s)) for s in rows if s != r):
            continue
        kept.append(r)
    return kept


def to_conjunctive(
    e: MmpsExpression, n_state: int, n_input: int = 0
) -> ConjunctiveForm:
    """Distribute min over max and prune to the minimal antichain.

    One walk of the tree, which admits only the max-min-plus fragment:
    Var/InputVar, Max, Min, and Plus with one finite Const operand.  The
    first node outside it raises NotMaxMinPlusError, an out-of-range
    variable IndexError.  Worst-case exponential in the number of min
    nodes; intended for small hand-built dynamics, where the antichain
    stays tiny.
    """
    width = n_state + n_input

    def unit(j: int) -> list[tuple[Weight, ...]]:
        return [tuple(0.0 if k == j else EPS for k in range(width))]

    def rows_of(node: MmpsExpression) -> list[tuple[Weight, ...]]:
        if isinstance(node, Var):
            if not 0 <= node.index < n_state:
                raise IndexError(f"state variable x{node.index} out of range")
            return unit(node.index)
        if isinstance(node, InputVar):
            if not 0 <= node.index < n_input:
                raise IndexError(f"input variable u{node.index} out of range")
            return unit(n_state + node.index)
        if isinstance(node, Plus):
            c, sub = (node.left, node.right) if isinstance(node.left, Const) else (node.right, node.left)
            if isinstance(c, Const) and is_finite(c.value):
                return _minimal_antichain([tuple(otimes(a, c.value) for a in row) for row in rows_of(sub)])
        if isinstance(node, Min):
            return _minimal_antichain(rows_of(node.left) + rows_of(node.right))
        if isinstance(node, Max):
            left, right = rows_of(node.left), rows_of(node.right)
            merged = [
                tuple(oplus(a, b) for a, b in zip(lr, rr))
                for lr in left
                for rr in right
            ]
            return _minimal_antichain(merged)
        raise NotMaxMinPlusError(f"not in the max-min-plus fragment: {node!r}")

    return ConjunctiveForm(tuple(rows_of(e)), n_state)


@dataclass(frozen=True)
class MatrixForm:
    """min over l of (A[l] ox x oplus B[l] ox u), and the C/D pair for outputs."""

    A: tuple[TropicalMatrix, ...]
    B: tuple[TropicalMatrix, ...]
    C: tuple[TropicalMatrix, ...]
    D: tuple[TropicalMatrix, ...]

    def __post_init__(self) -> None:
        if not self.A or not self.C:
            raise ValueError("matrix form needs L >= 1 and M >= 1")
        if len(self.A) != len(self.B):
            raise ValueError("A and B lists must have equal length")
        if len(self.C) != len(self.D):
            raise ValueError("C and D lists must have equal length")
        shape_a = (self.A[0].rows, self.A[0].cols)
        if shape_a[0] != shape_a[1]:
            raise ValueError("A matrices must be square")
        for a in self.A:
            if (a.rows, a.cols) != shape_a:
                raise ValueError("A matrices must share a shape")
        for b in self.B:
            if b.rows != shape_a[0]:
                raise ValueError("B row count must match A")
        rows_c = self.C[0].rows
        for c in self.C:
            if c.rows != rows_c or c.cols != shape_a[0]:
                raise ValueError("C matrices must be n_y x n")
        for d in self.D:
            if d.rows != rows_c:
                raise ValueError("D row count must match C")
        widths = sorted({m.cols for m in self.B + self.D})
        if len(widths) > 1:
            raise ValueError(f"B and D matrices must share one input width, got widths {widths}")

    @property
    def n_state(self) -> int:
        return self.A[0].rows

    @property
    def n_input(self) -> int:
        return self.B[0].cols

    @property
    def n_output(self) -> int:
        return self.C[0].rows

    @functools.cached_property
    def _state_map(self) -> CompiledRows:
        return _compile(self.A, self.B)

    @functools.cached_property
    def _output_map(self) -> CompiledRows:
        return _compile(self.C, self.D)

    def eval_state(self, x: Sequence[Weight], u: Sequence[Weight] = ()) -> tuple[Weight, ...]:
        return eval_rows(self._state_map, x, u)

    def eval_output(self, x: Sequence[Weight], u: Sequence[Weight] = ()) -> tuple[Weight, ...]:
        return eval_rows(self._output_map, x, u)


def _compile(mats: Sequence[TropicalMatrix], input_mats: Sequence[TropicalMatrix]) -> CompiledRows:
    """Per row, the branches in order with later duplicates dropped: a
    duplicate takes the same value, and the min keeps the first of equals."""
    n_x, n_u = mats[0].cols, input_mats[0].cols
    rows = []
    for i in range(mats[0].rows):
        branches: list[Pairs] = []
        for a, b in zip(mats, input_mats):
            pairs = a.row_support[i] + tuple((n_x + j, w) for j, w in b.row_support[i])
            if pairs not in branches:
                branches.append(pairs)
        rows.append(compile_row(branches))
    return tuple(rows), n_x, n_u


def to_matrix_form(
    state_forms: Sequence[ConjunctiveForm],
    output_forms: Sequence[ConjunctiveForm],
    n_state: int,
    n_input: int = 0,
) -> MatrixForm:
    """Stack per-component conjunctive forms into shared-depth matrix lists.

    Components rarely agree on row count, so each list is padded by
    repeating its last row; the min over duplicates is a no-op, which
    keeps the stacked form value-equivalent to the inputs.
    """
    if len(state_forms) != n_state:
        raise ValueError("need one conjunctive form per state component")

    def stack(
        forms: Sequence[ConjunctiveForm],
    ) -> tuple[tuple[TropicalMatrix, ...], tuple[TropicalMatrix, ...]]:
        if not forms:
            raise ValueError("empty conjunctive form list")
        for f in forms:
            if f.n_state != n_state or len(f.rows[0]) != n_state + n_input:
                raise ValueError("projection width disagrees with declared dims")
        depth = max(len(f.rows) for f in forms)
        levels = [[f.rows[min(level, len(f.rows) - 1)] for f in forms] for level in range(depth)]
        mats_x = tuple(
            TropicalMatrix(len(forms), n_state, tuple(w for row in rows for w in row[:n_state]))
            for rows in levels
        )
        mats_u = tuple(
            TropicalMatrix(len(forms), n_input, tuple(w for row in rows for w in row[n_state:]))
            for rows in levels
        )
        return mats_x, mats_u

    a, b = stack(state_forms)
    c, d = stack(output_forms)
    return MatrixForm(A=a, B=b, C=c, D=d)


def x_label(i: int) -> str:
    return f"x{i + 1}"


def u_label(p: int) -> str:
    return f"u{p + 1}"


def y_label(j: int) -> str:
    return f"y{j + 1}"


def _finite_edges(
    mats: Sequence[TropicalMatrix],
    src_label,
    dst_label,
) -> set[tuple[str, str]]:
    """Every finite abstraction's support rule: an edge (i, j) per finite
    (j, i) entry of row_support, which also keeps +inf for the kernel."""
    edges: set[tuple[str, str]] = set()
    for m in mats:
        if m.cols:  # an input-free mode's B and D are n x 0
            src, dst = list(map(src_label, range(m.cols))), list(map(dst_label, range(m.rows)))
            edges.update((src[i], dst[j]) for j, pairs in enumerate(m.row_support) for i, w in pairs if w != TOP)
    return edges


def transition_graph_f(mf: MatrixForm) -> frozenset[tuple[str, str]]:
    """One-step dependency edges, labelled x1..xn and u1..um: (x_i, x_j)
    iff some A[l] has a finite (j,i) entry; same for B."""
    edges = _finite_edges(mf.A, x_label, x_label)
    edges |= _finite_edges(mf.B, u_label, x_label)
    return frozenset(edges)


def transition_graph_h(mf: MatrixForm) -> frozenset[tuple[str, str]]:
    """One-step output edges into y1..yk: (x_i, y_j) iff some C[m] has a
    finite (j,i) entry; same for D."""
    edges = _finite_edges(mf.C, x_label, y_label)
    edges |= _finite_edges(mf.D, u_label, y_label)
    return frozenset(edges)
