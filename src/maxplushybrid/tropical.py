"""Scalar and matrix arithmetic for the completed max-plus semiring.

Weights are plain floats: finite reals plus the two reserved infinities,
``EPS = -inf`` (the max-plus zero) and ``TOP = +inf`` (the min-plus zero).
The completed semiring resolves the otherwise undefined combination of the
two infinities by letting max-plus operations take preference: EPS absorbs
under ``otimes`` even against TOP.  Sums that may mix the two infinities
go through ``otimes``; do not replace it with raw ``+``.  The exception
is the one row kernel, ``eval_rows``, which serves every product:
``TropicalMatrix.otimes`` (and so ``power``), ``apply`` and ``left_apply``,
the compiled mode maps of ``expressions.MatrixForm`` and the value of a
max-plus automaton's row vector.  It adds by hand over non-EPS weights
only, and keeps a sum only when it is strictly above the running maximum:
a finite weight plus EPS is EPS, and TOP plus EPS is NaN, which no
comparison takes, so EPS absorbs there without a check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

Weight = float

EPS: Weight = float("-inf")
TOP: Weight = float("inf")
UNIT: Weight = 0.0


def is_finite(a: Weight) -> bool:
    return a != EPS and a != TOP


def check_weight(a: Weight) -> Weight:
    """Reject NaN, which would silently break the order structure."""
    if math.isnan(a):
        raise ValueError("NaN is not a valid weight")
    return float(a)


def oplus(a: Weight, b: Weight) -> Weight:
    """Max-plus addition: max(a, b).  EPS is the identity, TOP absorbs."""
    return a if a >= b else b


def otimes(a: Weight, b: Weight) -> Weight:
    """Max-plus multiplication: a + b, with EPS absorbing even against TOP."""
    if a == EPS or b == EPS:
        return EPS
    return a + b


def oplus_dual(a: Weight, b: Weight) -> Weight:
    """Min-plus addition: min(a, b).  TOP is the identity, EPS absorbs."""
    return a if a <= b else b


Vector = tuple[Weight, ...]


def has_finite_entry(x: Sequence[Weight]) -> bool:
    for a in x:
        if a != EPS and a != TOP:
            return True
    return False


# A branch is a tuple of (index, weight) pairs whose weight is not EPS.  A
# compiled row is (True, pairs) for a single branch and (False, branches)
# for several; CompiledRows is (rows, x width, u width).
Pairs = tuple[tuple[int, Weight], ...]
Row = tuple[bool, tuple]
CompiledRows = tuple[tuple[Row, ...], int, int]


def compile_row(branches: Sequence[Pairs]) -> Row:
    """The row kind eval_rows runs: a plain max for one branch, a min of
    maxes for several."""
    if len(branches) == 1:
        return True, branches[0]
    return False, tuple(branches)


def eval_rows(compiled: CompiledRows, x: Sequence[Weight], u: Sequence[Weight] = ()) -> Vector:
    """Per row, the max over its pairs (j, a) of x[j] + a with x ++ u read as
    one vector; a row of several branches takes the min of those maxes.

    No term is tested for EPS: a weight is finite or TOP, so a term is EPS
    or NaN (TOP + EPS) when x[j] is EPS, and the strict > never keeps
    either, which is EPS absorbing even against TOP.  So no running max is
    NaN, nor any min.  Ties keep the first maximum and the first minimum.
    u is not read at u width 0.
    """
    rows, n_x, n_u = compiled
    if len(x) != n_x:
        raise ValueError(f"shape mismatch: {len(rows)}x{n_x} by {len(x)}")
    if n_u:
        if len(u) != n_u:
            raise ValueError(f"shape mismatch: {len(rows)}x{n_u} by {len(u)}")
        x = (*x, *u)
    out: list[Weight] = []
    for single, row in rows:
        if single:
            acc = EPS
            for j, a in row:
                term = x[j] + a
                if term > acc:
                    acc = term
            out.append(acc)
            continue
        low = TOP
        for pairs in row:
            acc = EPS
            for j, a in pairs:
                term = x[j] + a
                if term > acc:
                    acc = term
            if acc < low:
                low = acc
        out.append(low)
    return tuple(out)


@dataclass(frozen=True)
class TropicalMatrix:
    """Dense row-major matrix over the completed max-plus semiring."""

    rows: int
    cols: int
    entries: tuple[Weight, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for a in self.entries:
            check_weight(a)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[float]]) -> "TropicalMatrix":
        n = len(rows)
        m = len(rows[0]) if n else 0
        for r in rows:
            if len(r) != m:
                raise ValueError("ragged rows")
        return TropicalMatrix(n, m, tuple(float(a) for row in rows for a in row))

    @staticmethod
    def epsilon(rows: int, cols: int) -> "TropicalMatrix":
        """The all-EPS matrix (absorbing for the matrix product)."""
        return TropicalMatrix(rows, cols, (EPS,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "TropicalMatrix":
        """UNIT on the diagonal, EPS elsewhere."""
        ent = [EPS] * (n * n)
        for i in range(n):
            ent[i * n + i] = UNIT
        return TropicalMatrix(n, n, tuple(ent))

    @staticmethod
    def row_vector(values: Sequence[float]) -> "TropicalMatrix":
        return TropicalMatrix(1, len(values), tuple(float(v) for v in values))

    def __getitem__(self, ij: tuple[int, int]) -> Weight:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "TropicalMatrix":
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return TropicalMatrix(self.cols, self.rows, ent)

    def otimes(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Max-plus matrix product: entry (i,j) = max_k (a_ik + b_kj), each
        row of self through eval_rows over other's columns."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} "
                f"by {other.rows}x{other.cols}"
            )
        columns = other._columns
        ent: list[Weight] = []
        for i in range(self.rows):
            ent += eval_rows(columns, self.row(i))
        return TropicalMatrix(self.rows, other.cols, tuple(ent))

    def oplus(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise max."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch for sum: {self.rows}x{self.cols} "
                f"vs {other.rows}x{other.cols}"
            )
        ent = tuple(oplus(a, b) for a, b in zip(self.entries, other.entries))
        return TropicalMatrix(self.rows, self.cols, ent)

    def power(self, k: int) -> "TropicalMatrix":
        """k-fold max-plus product of a square matrix, k >= 1."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 1:
            raise ValueError("power exponent must be >= 1")
        acc = self
        for _ in range(k - 1):
            acc = acc.otimes(self)
        return acc

    def is_all_epsilon(self) -> bool:
        return all(a == EPS for a in self.entries)

    def has_top_entry(self) -> bool:
        return any(a == TOP for a in self.entries)

    @functools.cached_property
    def row_support(self) -> tuple[Pairs, ...]:
        """Per row, the (column, weight) pairs whose weight is not EPS."""
        m = self.cols
        return tuple(
            tuple((j, a) for j, a in enumerate(self.entries[i * m : (i + 1) * m]) if a != EPS)
            for i in range(self.rows)
        )

    @functools.cached_property
    def compiled(self) -> CompiledRows:
        """row_support as eval_rows rows, one branch each."""
        return tuple((True, pairs) for pairs in self.row_support), self.cols, 0

    def apply(self, x: Sequence[Weight]) -> Vector:
        """Product with a column vector, returned as a plain tuple; only
        each row's non-EPS entries are visited (eval_rows)."""
        return eval_rows(self.compiled, x)

    def left_apply(self, x: Sequence[Weight]) -> Vector:
        """Product of a row vector with the matrix, returned as a plain
        tuple: apply's kernel over the columns' non-EPS entries."""
        if self.rows != len(x):
            raise ValueError(f"shape mismatch: {len(x)} by {self.rows}x{self.cols}")
        return eval_rows(self._columns, x)

    @functools.cached_property
    def _columns(self) -> CompiledRows:
        """The transpose's compiled rows: per column, its non-EPS entries."""
        return self.transpose().compiled
