"""Scalar and matrix arithmetic for the completed max-plus semiring.

Weights are plain floats: finite reals plus the two reserved infinities,
``EPS = -inf`` (the max-plus zero) and ``TOP = +inf`` (the min-plus zero).
The completed semiring resolves the otherwise undefined combination of the
two infinities by letting max-plus operations take preference: EPS absorbs
under ``otimes`` even against TOP, and dually TOP absorbs under
``otimes_dual``.  Both semirings must share these two helpers so that they
agree on mixed values; do not replace them with raw ``+``.  The exceptions
are the hot loops, which add by hand after ruling out EPS on both sides:
the matrix-vector products ``TropicalMatrix.apply`` and ``left_apply``, and
the compiled mode rows of ``expressions.MatrixForm``, which are built from
``TropicalMatrix.row_support``.
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


def otimes_dual(a: Weight, b: Weight) -> Weight:
    """Min-plus multiplication: a + b, with TOP absorbing even against EPS."""
    if a == TOP or b == TOP:
        return TOP
    return a + b


Vector = tuple[Weight, ...]


def vec_leq(x: Sequence[Weight], y: Sequence[Weight]) -> bool:
    """Componentwise order; equivalent to x oplus y == y."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


def has_finite_entry(x: Sequence[Weight]) -> bool:
    for a in x:
        if a != EPS and a != TOP:
            return True
    return False


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

    def to_rows(self) -> list[list[Weight]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "TropicalMatrix":
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return TropicalMatrix(self.cols, self.rows, ent)

    def otimes(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Max-plus matrix product: entry (i,j) = max_k (a_ik + b_kj)."""
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} "
                f"by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        ent: list[Weight] = []
        for i in range(n):
            arow = self.entries[i * m : (i + 1) * m]
            for j in range(p):
                acc = EPS
                for k in range(m):
                    term = otimes(arow[k], other.entries[k * p + j])
                    if term > acc:
                        acc = term
                ent.append(acc)
        return TropicalMatrix(n, p, tuple(ent))

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
    def row_support(self) -> tuple[tuple[tuple[int, Weight], ...], ...]:
        """Per row, the (column, weight) pairs whose weight is not EPS."""
        m = self.cols
        return tuple(
            tuple((j, a) for j, a in enumerate(self.entries[i * m : (i + 1) * m]) if a != EPS)
            for i in range(self.rows)
        )

    def apply(self, x: Sequence[Weight]) -> Vector:
        """Product with a column vector, returned as a plain tuple.

        Only each row's finite support is visited: an EPS entry's term is
        EPS, which never raises the maximum.  A remaining entry is finite
        or TOP, so its term is a plain sum unless x[j] is EPS, which
        absorbs even against TOP.
        """
        if self.cols != len(x):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} by {len(x)}")
        out: list[Weight] = []
        for support in self.row_support:
            acc = EPS
            for j, a in support:
                b = x[j]
                if b != EPS:
                    term = a + b
                    if term > acc:
                        acc = term
            out.append(acc)
        return tuple(out)

    def left_apply(self, x: Sequence[Weight]) -> Vector:
        """Product of a row vector with the matrix, returned as a plain tuple.

        Only x's non-EPS entries and the matching rows' finite support are
        visited, as in apply.
        """
        if self.rows != len(x):
            raise ValueError(f"shape mismatch: {len(x)} by {self.rows}x{self.cols}")
        out = [EPS] * self.cols
        for b, support in zip(x, self.row_support):
            if b != EPS:
                for j, a in support:
                    term = b + a
                    if term > out[j]:
                        out[j] = term
        return tuple(out)
