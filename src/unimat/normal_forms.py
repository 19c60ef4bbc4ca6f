"""Hermite and Smith normal forms over Z, with unimodular transforms.

The Hermite form used here is the column-operation one: for a k x n integer
matrix A (k <= n) it produces H and U in GL_n(Z) with

    A = H @ U.

H is the canonical representative of A under right multiplication by
GL_n(Z): its leading n - r columns are zero (r = rank), pivots occupy the
trailing r columns, one per pivoted row in order, each pivot is positive,
a pivoted row is zero left of its pivot, and entries right of a pivot are
reduced into [0, pivot). A is extendable to a GL_n(Z) matrix exactly when
H = [O | I_k]. Rows never move: right multiplication cannot reorder them,
so a zero row of A stays a zero row of H in place.

The Smith form has both row and column operations available and yields
L @ A @ R = S with S = [O | diag(d_1..d_r)] placed in the bottom-right
corner (zero rows on top), d_i > 0 and d_1 | d_2 | ... | d_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# full_rank_minor_gcd is not called here; kept as a boundary perfbench traces
from .matrix import IntMatrix, _xgcd, full_rank_minor_gcd


class NotUnimodularError(ValueError):
    """Completion was requested for a matrix that does not extend to GL_n(Z).

    Carries the offending gcd of the full-rank minors in `minor_gcd`.
    """

    def __init__(self, minor_gcd: int):
        self.minor_gcd = minor_gcd
        super().__init__(
            f"matrix is not unimodular: gcd of its full-rank minors is "
            f"{minor_gcd}, need 1"
        )


class SmithConvergenceError(RuntimeError):
    """The alternating Hermite reductions of snf did not reach the Smith
    placement within their cap of 200 rounds; no input is known to."""


_SNF_ROUNDS = 200


@dataclass(frozen=True)
class HnfResult:
    """Hermite form H and transform U with A = H @ U, detU = det(U) = +-1."""

    H: IntMatrix
    U: IntMatrix
    detU: int


@dataclass(frozen=True)
class SnfResult:
    """Smith form S = L @ A @ R with |det L| = |det R| = 1.

    invariant_factors are the positive diagonal entries d_1 | d_2 | ... | d_r.
    """

    S: IntMatrix
    invariant_factors: tuple[int, ...]
    L: IntMatrix
    R: IntMatrix


def _transpose_rows(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _column_reduce(
    h: list[list[int]], u: list[list[int]] | None = None, v: list[list[int]] | None = None
) -> int:
    """Reduce h in place to column-Hermite form; h may be any shape.

    Writing A for the input and H for the reduced output, A = H @ U and
    H = A @ V with V = U^-1. The caller passes the n x n identity as u to
    have U built in place, or as v for V, and None for a transform it does
    not keep. A v that is not the identity is multiplied by V in place, so
    a caller can accumulate a product of transforms. Returns
    det(U) = det(V) = +-1.

    Rows are processed bottom-up; each row that is not zero on the remaining
    active columns collects the gcd of those entries into the rightmost free
    column (its pivot), then reduces its entries right of the pivot modulo
    the pivot. Processed rows are never disturbed afterwards: every later
    operation only combines columns in which they vanish.
    """
    n = len(h[0])
    # V's columns move with H's, so the same column steps update both
    col_ops = h if v is None else h + v
    det = 1

    pc = n - 1  # rightmost column not yet claimed by a pivot
    for i in range(len(h) - 1, -1, -1):
        if pc < 0:
            break
        row = h[i]
        for j in range(pc):
            if row[j] == 0:
                continue
            a, b = row[pc], row[j]
            g, x, y = _xgcd(a, b)
            p, q = -(b // g), a // g  # det [[x, p], [y, q]] = (x*a + y*b)/g = 1
            for hr in col_ops:
                hp, hj = hr[pc], hr[j]
                hr[pc] = x * hp + y * hj
                hr[j] = p * hp + q * hj
            if u is not None:
                up, uj = u[pc], u[j]
                u[pc] = [q * up[c] - p * uj[c] for c in range(n)]
                u[j] = [x * uj[c] - y * up[c] for c in range(n)]
        g = row[pc]
        if g == 0:
            continue  # no pivot for this row; the column stays available
        if g < 0:
            g = -g
            for hr in col_ops:
                hr[pc] = -hr[pc]
            if u is not None:
                u[pc] = [-c for c in u[pc]]
            det = -det
        for j in range(pc + 1, n):
            q = row[j] // g  # floor division leaves row[j] mod g in [0, g)
            if q:
                for hr in col_ops:
                    hr[j] -= q * hr[pc]
                if u is not None:
                    u[pc] = [u[pc][c] + q * u[j][c] for c in range(n)]
        pc -= 1
    return det


def hnf(a: IntMatrix) -> HnfResult:
    """Column-operation Hermite normal form: A = H @ U, U in GL_n(Z)."""
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    h = a.to_rows()
    u = IntMatrix.identity(a.cols).to_rows()
    det = _column_reduce(h, u=u)
    return HnfResult(IntMatrix.from_rows(h), IntMatrix.from_rows(u), det)


def _is_oi_block(h: IntMatrix) -> bool:
    k, n = h.rows, h.cols
    for i in range(k):
        for j in range(n):
            if h[i, j] != (1 if j == n - k + i else 0):
                return False
    return True


def is_trivial_hnf(a: IntMatrix) -> bool:
    """Whether the Hermite form of a equals the block [O_{k x (n-k)} | I_k].

    The block itself is canonical, so inputs already equal to it short-circuit
    without recomputing the form.
    """
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    if _is_oi_block(a):
        return True
    return _is_oi_block(hnf(a).H)


def complete_to_gl(a: IntMatrix) -> IntMatrix:
    """Extend a unimodular k x n matrix to an n x n matrix M, |det M| = 1,
    whose last k rows are exactly a.

    For k = n the matrix itself is returned when |det| = 1. Raises
    NotUnimodularError (carrying the minor gcd) otherwise.
    """
    k, n = a.rows, a.cols
    if k > n:
        raise ValueError(f"need k <= n, got {k}x{n}")
    if k == n:
        d = a.det()
        if d in (1, -1):
            return a
        raise NotUnimodularError(abs(d))
    res = hnf(a)
    h = res.H
    if not _is_oi_block(h):  # H is canonical: no second hnf needed
        # A = H @ U keeps the minor gcd. At rank k, H = [O | T] with T lower
        # triangular, so the gcd is det T, the product of its diagonal.
        # Below rank k, the bottom-most row without a pivot is 0 on T's
        # diagonal, and the product is 0.
        raise NotUnimodularError(math.prod(h[i, n - k + i] for i in range(k)))
    # A = [O | I_k] @ U selects the last k rows of U, so U is a completion.
    return res.U


def _diagonal_positions(s: list[list[int]]) -> list[tuple[int, int]] | None:
    """Bottom-right diagonal positions of the nonzeros of s, or None.

    Accepts exactly the Smith placement: r nonzero entries at
    (k - r + l, n - r + l), l = 0..r-1.
    """
    k, n = len(s), len(s[0])
    nonzero = [(i, j) for i in range(k) for j in range(n) if s[i][j] != 0]
    r = len(nonzero)
    want = [(k - r + l, n - r + l) for l in range(r)]
    return want if nonzero == want else None


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: L @ A @ R = S.

    Alternates column-Hermite and row-Hermite (the same kernel on the
    transpose) until the matrix is diagonal in the bottom-right placement,
    then repairs the divisibility chain with the 2x2 gcd step
    diag(a, b) -> diag(gcd, lcm). Raises SmithConvergenceError if the
    alternation has not reached that placement after 200 rounds.
    """
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    k, n = a.rows, a.cols
    s = a.to_rows()
    # L is kept transposed: row steps on s are column steps on its transpose
    lt = IntMatrix.identity(k).to_rows()
    r_rows = IntMatrix.identity(n).to_rows()

    for _ in range(_SNF_ROUNDS):
        _column_reduce(s, v=r_rows)
        if _diagonal_positions(s) is not None:
            break
        t = _transpose_rows(s)
        _column_reduce(t, v=lt)
        s = _transpose_rows(t)
        if _diagonal_positions(s) is not None:
            break
    else:
        raise SmithConvergenceError(
            f"the Smith form did not converge within {_SNF_ROUNDS} rounds of "
            f"alternating column and row Hermite reduction"
        )
    l_rows = _transpose_rows(lt)

    pos = _diagonal_positions(s)
    r = len(pos)
    # Repair divisibility: each fix maps an adjacent violating pair
    # (a, b) to (gcd, lcm) by explicit row/column operations, so the
    # placement is preserved. The loop ends: the step sorts the pair's
    # p-exponents for every prime p, so the number of inverted pairs
    # (l < l' with v_p(d_l) > v_p(d_l')), summed over all primes, falls by
    # at least one each time, since a violating pair has such a prime.
    while True:
        bad = None
        for l in range(r - 1):
            (i1, p1), (i2, p2) = pos[l], pos[l + 1]
            if s[i2][p2] % s[i1][p1]:
                bad = (i1, p1, i2, p2)
                break
        if bad is None:
            break
        i1, p1, i2, p2 = bad
        av, bv = s[i1][p1], s[i2][p2]
        # row_i1 += row_i2: block becomes [[a, b], [0, b]]
        s[i1] = [s[i1][c] + s[i2][c] for c in range(n)]
        l_rows[i1] = [l_rows[i1][c] + l_rows[i2][c] for c in range(k)]
        # column transform sends (a, b) in row i1 to (g, 0)
        g, x, y = _xgcd(av, bv)
        p, q = -(bv // g), av // g
        for rows in (s, r_rows):
            for row in rows:
                c1, c2 = row[p1], row[p2]
                row[p1] = x * c1 + y * c2
                row[p2] = p * c1 + q * c2
        # row_i2 -= y*(b/g) * row_i1 clears the (i2, p1) entry, leaving lcm
        m = y * (bv // g)
        s[i2] = [s[i2][c] - m * s[i1][c] for c in range(n)]
        l_rows[i2] = [l_rows[i2][c] - m * l_rows[i1][c] for c in range(k)]

    factors = tuple(s[i][j] for i, j in pos)
    return SnfResult(
        IntMatrix.from_rows(s),
        factors,
        IntMatrix.from_rows(l_rows),
        IntMatrix.from_rows(r_rows),
    )
