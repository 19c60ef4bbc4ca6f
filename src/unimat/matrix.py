"""Exact integer matrices and their minors.

Everything here is arbitrary-precision integer arithmetic; nothing rounds.
The matrix type is immutable. Algorithms that need mutation work on plain
lists of rows internally and convert at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable k x n integer matrix with entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                f"matrix dimensions must be at least 1x1, got {self.rows}x{self.cols}"
            )
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"a {self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise ValueError(f"entries must be integers, got {type(e).__name__}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        n = len(rows[0])
        for r in rows:
            if len(r) != n:
                raise ValueError("all rows must have the same length")
        flat = tuple(int(e) for row in rows for e in row)
        return IntMatrix(len(rows), n, flat)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self.to_rows(), other.to_rows()
        flat = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                flat.append(sum(ai[t] * b[t][j] for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError(f"determinant needs a square matrix, got {self.rows}x{self.cols}")
        return _det_rows(self.to_rows())


@dataclass(frozen=True)
class MinorSet:
    """All t x t minors of a matrix, in canonical order.

    Canonical order: row subsets in the outer loop, column subsets in the
    inner loop, each subset sequence in lexicographic order. values[0] is
    therefore the minor on the first t rows and first t columns.
    """

    order: int
    values: tuple[int, ...]


def _det_rows(rows: list[list[int]]) -> int:
    """Exact determinant of a square list-of-rows matrix.

    Closed forms up to 3x3; fraction-free (Bareiss) elimination above that,
    so intermediate values stay integral and of modest size.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [r[:] for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[i][i]
        for r in range(i + 1, n):
            mri = m[r][i]
            mr, mi = m[r], m[i]
            for c in range(i + 1, n):
                # exact division: Bareiss guarantees divisibility by prev
                mr[c] = (mr[c] * pivot - mri * mi[c]) // prev
            mr[i] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _nonzero_minor(rows: Sequence[Sequence[int]]) -> int:
    """|det| of a nonsingular k x k submatrix of a k x n matrix (k <= n),
    or 0 when the rank is below k.

    Fraction-free (Bareiss) elimination that takes each row's pivot in the
    first column where the row is nonzero. After step i every entry is an
    (i+1) x (i+1) minor, so the division by the previous pivot is exact and
    sizes stay within those of the minors; a row left zero lies in the span
    of the rows above it.
    """
    m = [list(r) for r in rows]
    prev = 1
    for i, row in enumerate(m):
        c = next((j for j, e in enumerate(row) if e), None)
        if c is None:
            return 0
        pivot = row[c]
        for mr in m[i + 1 :]:
            f = mr[c]
            mr[:] = [(e * pivot - f * p) // prev for e, p in zip(mr, row)]
        prev = pivot
    return abs(prev)


def _minor_gcd_mod(rows: Sequence[Sequence[int]], r: int) -> int:
    """gcd D of the k x k minors of a k x n matrix (k <= n), given a
    multiple r > 0 of it, by column elimination modulo r without transforms.

    Right multiplication by GL_n(Z) keeps the column lattice L of A, whose
    index in Z^k is D, and D | r means L contains r Z^k. Rows are taken
    bottom-up; the row's entries on the active columns are gathered into
    one pivot column by unimodular 2-column steps, and the row contributes
    d = gcd(pivot, r). The part of L with that row zero has index D / d and
    contains (r / d) Z^(k-1), so the pivot column and the row are dropped
    and the elimination goes on modulo r / d. Every entry stays below r
    (Domich, Kannan & Trotter, Math. Oper. Res. 12, 1987; Cohen, GTM 138,
    Algorithm 2.4.8).
    """
    # columns of the active part, each listed top to bottom; the current
    # row is the last entry of every column, popped once it is done
    cols = [list(c) for c in zip(*rows)]
    prod = 1
    for _ in rows:
        cols = [[e % r for e in c] for c in cols]
        piv = None
        rest = []
        for c in cols:
            x = c[-1]
            if x and piv is None:
                piv = c
                continue
            if x:
                a = piv[-1]
                if x % a == 0:
                    q = x // a
                    c = [(cj - q * pj) % r for pj, cj in zip(piv, c)]
                else:
                    # [[s, -x/g], [t, a/g]] has determinant 1
                    g, s, t = _xgcd(a, x)
                    u, v = x // g, a // g
                    piv, c = (
                        [(s * pj + t * cj) % r for pj, cj in zip(piv, c)],
                        [(v * cj - u * pj) % r for pj, cj in zip(piv, c)],
                    )
            c.pop()
            rest.append(c)
        d = math.gcd(0 if piv is None else piv[-1], r)
        prod *= d
        r //= d
        if r == 1:
            break
        cols = rest
    return prod


def _minor_gcd_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """gcd of all k x k minors of a k x n list-of-rows matrix (k <= n).

    Accumulates the gcd over the first k + 1 column subsets in
    lexicographic order and returns as soon as it hits 1, since gcd(1,
    anything) stays 1; for n <= k + 1 those are all the subsets. Otherwise
    the running gcd g is a multiple of the answer, and column elimination
    modulo g finishes in O(k^2 n) operations instead of C(n, k)
    determinants. If g = 0, fraction-free elimination first finds a nonzero
    minor to use as g, or shows that the rank is below k. The gcd of an
    all-zero collection is 0.
    """
    k = len(rows)
    n = len(rows[0])
    g = 0
    if k == 1:
        for e in rows[0]:
            g = math.gcd(g, e)
            if g == 1:
                return 1
        return g
    subsets = combinations(range(n), k)
    if n > k + 1:
        subsets = islice(subsets, k + 1)
    for cols in subsets:
        sub = [[row[c] for c in cols] for row in rows]
        g = math.gcd(g, _det_rows(sub))
        if g == 1:
            return 1
    if n <= k + 1:
        return g
    if g == 0:
        g = _nonzero_minor(rows)
        if g == 0:
            return 0
    return _minor_gcd_mod(rows, g)


def minors(a: IntMatrix, t: int) -> MinorSet:
    """All t x t minors of a, 1 <= t <= min(k, n), in canonical order."""
    if not (1 <= t <= min(a.rows, a.cols)):
        raise ValueError(
            f"minor order must lie in [1, {min(a.rows, a.cols)}] for a "
            f"{a.rows}x{a.cols} matrix, got {t}"
        )
    rows = a.to_rows()
    values = []
    for rsub in combinations(range(a.rows), t):
        picked = [rows[r] for r in rsub]
        for csub in combinations(range(a.cols), t):
            values.append(_det_rows([[row[c] for c in csub] for row in picked]))
    return MinorSet(t, tuple(values))


def full_rank_minor_gcd(a: IntMatrix) -> int:
    """gcd of all k x k minors of a k x n matrix, k <= n; 0 iff rank < k."""
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    return _minor_gcd_of_rows(a.to_rows())


def is_unimodular(a: IntMatrix) -> bool:
    """Whether the k x n matrix (k <= n) extends to some M in GL_n(Z).

    Equivalent to the gcd of the k x k minors being 1. For k = 1 this is
    coprimality of the entries; for k = n it is |det| = 1.
    """
    return full_rank_minor_gcd(a) == 1
