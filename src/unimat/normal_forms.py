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
corner (zero rows on top), d_i > 0 and d_1 | d_2 | ... | d_r. One
least-pivot reduction (_smith) gives it, with a proven bound on its
passes; it also completes the rare rows that no window of _complete fits.

Every exact solve here reads one forward fraction-free echelon,
matrix._bareiss. H comes from matrix._echelon_mod, the elimination modulo
d that also finishes the minor gcd, with d the gcd of the maximal minors
on the last echelon row of A. It carries no transform and writes no entry
above d; its pivots are the diagonal of H, whose product is the minor gcd,
and _sweep reads the rest of H off it by back-substitution. The transforms
all come from one completion M in GL_n(Z) whose last r rows are the r rows
B with A = H_r @ B, H_r the pivot columns of H (so B = A when A is
unimodular): U = M, the completion of a unimodular A is M, and S = L @ A @
R with R = M^-1 @ diag(I, R_r), where L and R_r reduce the k x r block H_r
alone. M is built on a window of r + 1 columns (_complete), which keeps
its entries at about the size of B's; its cofactors above the closed forms
and M^-1 come from back-substitution on the echelon (_solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

# full_rank_minor_gcd is not called here; kept as a boundary perfbench traces
from .matrix import (
    _CLOSED_MAX,
    IntMatrix,
    _bareiss,
    _echelon_mod,
    _minors_kernel,
    _pivot_minor,
    _xgcd,
    full_rank_minor_gcd,
)
from .rng import draws


class NotUnimodularError(ValueError):
    """Completion was requested for a matrix that does not extend to GL_n(Z).

    Carries the offending gcd of the full-rank minors in `minor_gcd`.
    """

    def __init__(self, minor_gcd: int):
        super().__init__(minor_gcd)
        self.minor_gcd = minor_gcd

    def __str__(self) -> str:
        # formatted on demand: a gcd past the int-to-str limit cannot be
        return f"matrix is not unimodular: gcd of its full-rank minors is {self.minor_gcd}, need 1"


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


def _matrix(rows: list[list[int]]) -> IntMatrix:
    """IntMatrix of rows this module built, whose entries are ints."""
    return IntMatrix(len(rows), len(rows[0]), tuple(chain.from_iterable(rows)))


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _sweep(rows: list[list[int]], d: int) -> list[list[int]]:
    """The last r columns of the column Hermite form of r x n rows of rank
    r, read off matrix._echelon_mod(rows, d) for d > 0 a gcd of some of
    their r x r minors. Row l of the result is l zeros, its pivot, then its
    entries in the pivot columns of the rows below.

    Row i's pivot column is a'^-1 times the recorded column above, with the
    pivot g in row i. Only the pivots above row i matter for its entries,
    which are reduced against the pivot columns of the rows above and so
    taken modulo the product M of those pivots, which divides d / g: they
    follow by back-substitution, with no inverse when M = 1, as for every
    unimodular input, whose H is [O | I]."""
    pivots, units, columns = _echelon_mod(rows, d)
    r = len(rows)
    out = [[0] * l + [g] + [0] * (r - 1 - l) for l, g in enumerate(pivots)]
    m = 1
    for i, (g, a, p) in enumerate(zip(pivots, units, columns)):
        if m > 1:
            u = pow(a, -1, m)
            x = [u * e % m for e in p]
            for l in range(i - 1, -1, -1):
                q, x[l] = divmod(x[l], out[l][l])
                if q:
                    for t in range(l):
                        x[t] = (x[t] - q * out[t][l]) % m
                out[l][i] = x[l]
        m *= g
    return out


def _dependencies(rows: list[list[int]]) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """(pivot rows top-down, last pivot row, relations) for rows of rank
    below their number: row i pivots when it is not in the span of the rows
    below it, and each other row i has a vector c with c @ A = 0, c_i != 0
    and c_l = 0 off the pivot rows.

    One _bareiss echelon of [reversed rows | I], pivoting on the columns of
    A: a row that does not pivot is 0 there, a relation read off its
    identity part. The last pivot row is the echelon's, on A's columns."""
    k, n = len(rows), len(rows[0])
    m = [rows[i] + [int(j == i) for j in range(k)] for i in range(k - 1, -1, -1)]
    cols = _bareiss(m, n)
    done = [p for p, c in enumerate(cols) if c is not None]
    rel = {k - 1 - p: m[p][n:] for p, c in enumerate(cols) if c is None}
    return [k - 1 - p for p in reversed(done)], m[done[-1]][:n] if done else [], rel


def _hermite(a: IntMatrix) -> tuple[list[list[int]], list[int], int]:
    """(H, pivot rows top-down, det V) for A @ V = H with det V given at
    rank n (the sign of det A) and 1 below it. The pivot of the l-th pivot
    row is in column n - r + l.

    H comes from _sweep on the pivot rows, modulo the gcd of the last
    _bareiss echelon row. Its entries on the columns that no row above
    pivoted on are the n - r + 1 maximal minors of the pivot rows on the
    pivot columns above plus one column each, and each is a multiple of
    the index of their column lattice. So no entry of H exceeds the
    modulus, a unimodular input often gets modulus 1 and H = [O | I] at
    once, and at r = n the modulus is |det A|. The modulus comes from
    this echelon, not from the minor gcd, though both end in the same
    elimination modulo a multiple of the index (_echelon_mod). Below rank
    k, each other row is a rational combination of the pivot rows below it
    (_dependencies), and column operations keep that combination, so its
    row of H is the same combination of their rows of H, by exact
    division."""
    rows = a.to_rows()
    n = a.cols
    m = [list(row) for row in rows]
    cols = _bareiss(m)
    if None not in cols:
        piv, rel, top, last = list(range(a.rows)), {}, rows, m[-1]
    else:
        piv, last, rel = _dependencies(rows)
        top = [rows[i] for i in piv]
    r = len(piv)
    if r == 0:
        return rows, [], 1
    t = _sweep(top, math.gcd(*last))
    h = [[]] * a.rows
    for i, tr in zip(piv, t):
        h[i] = [0] * (n - r) + tr
    for i, c in rel.items():
        comb = [0] * r
        for p, tp in zip(piv, t):
            if c[p]:
                comb = [x + c[p] * y for x, y in zip(comb, tp)]
        h[i] = [0] * (n - r) + [-(e // c[i]) for e in comb]
    return h, piv, (1 if _pivot_minor(m, cols) > 0 else -1) if r == n else 1


def _pivot_basis(a: list[list[int]], h: list[list[int]], piv: list[int]) -> list[list[int]]:
    """The r rows B with A = H_r @ B, H_r the last r columns of H.

    On the pivot rows H_r is upper triangular with positive diagonal, so B
    follows bottom-up by exact division. Every row of A is a combination of
    B's, since A = H @ U for a U whose last r rows are B; for a unimodular
    A, H_r = I and B = A."""
    r = len(piv)
    off = len(h[0]) - r
    b: list[list[int]] = [[]] * r
    for l in range(r - 1, -1, -1):
        hrow, row = h[piv[l]], a[piv[l]]
        for m in range(l + 1, r):
            f = hrow[off + m]
            if f:
                row = [x - f * y for x, y in zip(row, b[m])]
        p = hrow[off + l]
        b[l] = [x // p for x in row] if p != 1 else list(row)
    return b


def _solve(m: list[list[int]], cols: list[int], rhs: list[list[int]]) -> dict[int, list[int]]:
    """x with sum_c m[i][c] x[c] = rhs[i] over the pivot columns c, for the
    rows m of a _bareiss echelon whose rows all pivot (on columns cols) and
    whose system has an integer solution; x[c] and rhs[i] are vectors, one
    entry per right-hand side.

    Fraction-free back-substitution from the bottom row: row i is 0 at the
    pivot columns above it, so once x is known on the pivot columns below,
    x[cols[i]] follows by one exact division by the pivot."""
    x: dict[int, list[int]] = {}
    for i in range(len(cols) - 1, -1, -1):
        row, acc = m[i], rhs[i]
        for c in cols[i + 1 :]:
            f = row[c]
            if f:
                acc = [e - f * y for e, y in zip(acc, x[c])]
        p = row[cols[i]]
        x[cols[i]] = [e // p for e in acc]
    return x


def _cofactors(bt: list[list[int]]) -> list[int]:
    """c with <x, c> = det [x; bt] for the r x (r + 1) matrix bt, r >= 1:
    c_j = (-1)^j times the minor of bt without column j, all 0 below rank r.

    Up to r = 4 these are closed forms (_minors_kernel lists the minor
    without column j at r - j). Above, c spans the kernel of bt. On its
    _bareiss echelon one column f stays free, and c_f = (-1)^f times the
    minor on the pivot columns (_pivot_minor); the rest follows by
    back-substitution (_solve), with right-hand sides -c_f times column f.
    """
    r = len(bt)
    if r <= _CLOSED_MAX:
        m = _minors_kernel(r, r + 1)(list(chain.from_iterable(bt)))
        return [-m[r - j] if j & 1 else m[r - j] for j in range(r + 1)]
    m = [list(row) for row in bt]
    cols = _bareiss(m)
    if None in cols:
        return [0] * (r + 1)
    (f,) = set(range(r + 1)).difference(cols)
    cf = (-1) ** f * _pivot_minor(m, cols)
    x = _solve(m, cols, [[-cf * row[f]] for row in m])
    return [cf if j == f else x[j][0] for j in range(r + 1)]


def _dot(x: list[int], y: list[int]) -> int:
    return sum(map(int.__mul__, x, y))


def _nearest_plane(x: list[int], bt: list[list[int]]) -> list[int]:
    """x minus the integer combination of bt's rows that Babai's nearest-
    plane rounding picks, in integers only.

    The integral Gram-Schmidt of Cohen (GTM 138, Algorithm 2.6.7) works
    on inner products alone: d_i is the Gram determinant of b_0 .. b_(i-1)
    and lam_(k,j) = d_(j+1) mu_(k,j), all integers, with x taken as one
    more vector. The coefficient of b_i in x is then mu = lam_(x,i) /
    d_(i+1), rounded by floor division, with i running down; subtracting
    q b_i lowers lam_(x,i) by q d_(i+1) and each lam_(x,m), m < i, by
    q lam_(i,m). The result is congruent to x modulo the rows and lies
    within half of each Gram-Schmidt vector b*_i along it."""
    d = [1]
    lam: list[list[int]] = []
    for k, bk in enumerate([*bt, x]):
        row = []
        for j in range(k + 1 if k < len(bt) else k):
            u, lj = _dot(bk, bt[j]), row if j == k else lam[j]
            for m in range(j):
                u = (d[m + 1] * u - row[m] * lj[m]) // d[m]
            row.append(u)
        if k < len(bt):
            d.append(row.pop())
        lam.append(row)
    lx = lam[-1]
    for i in range(len(bt) - 1, -1, -1):
        q = (2 * lx[i] + d[i + 1]) // (2 * d[i + 1])
        if q:
            x = [e - q * f for e, f in zip(x, bt[i])]
            lx[i] -= q * d[i + 1]
            for m in range(i):
                lx[m] -= q * lam[i][m]
    return x


def _unit_row(bt: list[list[int]], c: list[int], det: int) -> list[int]:
    """x with det [x; bt] = <x, c> = det (+-1), given the cofactors c of
    the r x (r + 1) matrix bt, of gcd 1.

    If some c_j is +-1, x is +-e_j, which needs no reduction. Otherwise x
    comes from extended gcds along c, stopping at the first running gcd of
    1, and is reduced by _nearest_plane: the rows of bt span the lattice
    orthogonal to c, so that leaves x about as large as bt."""
    for u in (det, -det):
        if u in c:
            x = [0] * len(c)
            x[c.index(u)] = u * det
            return x
    g, x = c[0], [1] + [0] * len(bt)
    for j in range(1, len(c)):
        if g == 1:
            break
        if c[j]:
            g, s, y = _xgcd(g, c[j])
            x = [s * e for e in x]
            x[j] = y
    return _nearest_plane(x if g == det else [-e for e in x], bt)


def _windows(n: int, r: int):
    """Sorted column sets of the r + 1 cyclically consecutive columns
    ending at n - 1, n - 2, ..., 0, in that order (one set when r + 1 = n)."""
    if r + 1 == n:
        yield list(range(n))
        return
    for s in range(n - r - 1, -r - 1, -1):
        yield sorted((s + j) % n for j in range(r + 1))


def _window(
    b: list[list[int]], n: int
) -> tuple[list[int], list[list[int]] | None, list[list[int]], list[int]] | None:
    """(T, Z, b_T + b_S Z, c) for the completion of _complete, or None.

    T is the first window (_windows) whose r x r minors of b have gcd 1,
    and Z is None. Failing that, the windows are tried again, the m-th
    with b_T + b_S Z_m, S the columns outside T and Z_m an |S| x (r + 1)
    matrix of entries in {-1, 0, 1} read from stream m of rng.draws: a
    column operation that mixes the other columns into T. Over the
    benchmark's analyze corpora for seeds 1-80, 63 of the 7,428 matrices
    of rank 0 < r < n needed one, and none needed more than 7. c is the
    cofactors of the b_T + b_S Z returned."""
    r = len(b)
    for t in _windows(n, r):
        bt = [[row[j] for j in t] for row in b]
        # above the closed forms, first rule out the windows whose minors 2
        # or 3 divides, most of those that fail: the pivots of the
        # elimination modulo 6, which reduces the entries as it reads them,
        # have product 1 exactly when the minor gcd is prime to 6
        if r > _CLOSED_MAX and math.prod(_echelon_mod(bt, 6)[0]) != 1:
            continue
        c = _cofactors(bt)
        if math.gcd(*c) == 1:
            return t, None, bt, c
    for m, t in enumerate(_windows(n, r)):
        out = [j for j in range(n) if j not in t]
        z = list(draws(m, 0, len(out) * (r + 1), 3))
        z = [[e - 1 for e in z[a * (r + 1) : (a + 1) * (r + 1)]] for a in range(len(out))]
        bt = [
            [row[j] + sum(row[s] * zs[i] for s, zs in zip(out, z)) for i, j in enumerate(t)]
            for row in b
        ]
        c = _cofactors(bt)
        if math.gcd(*c) == 1:
            return t, z, bt, c
    return None


def _inverse(m: list[list[int]]) -> list[list[int]]:
    """M^-1 for a square M with det +-1. The _bareiss echelon of [M | I]
    is [E | F] with E = F @ M, so E @ M^-1 = F, and back-substitution
    (_solve) gives the rows of M^-1 with F's rows as right-hand sides."""
    n = len(m)
    e = [row + unit for row, unit in zip(m, _identity_rows(n))]
    x = _solve(e, _bareiss(e), [row[n:] for row in e])
    return [x[c] for c in range(n)]


def _clear_cross(s: list[list[int]], l_rows: list[list[int]], r_rows: list[list[int]], t: int) -> bool:
    """One pass of _smith at position t: clear column t below the pivot p =
    s[t][t] > 0 by row steps, carried in l_rows, then row t right of it by
    column steps, carried in r_rows. Each step takes the nearest-integer
    quotient, so every entry left in the cross is in [-p/2, p/2). Returns
    whether one is nonzero."""
    top, p = s[t], s[t][t]
    for i in range(t + 1, len(s)):
        q = (2 * s[i][t] + p) // (2 * p)
        if q:
            s[i] = [x - q * y for x, y in zip(s[i], top)]
            l_rows[i] = [x - q * y for x, y in zip(l_rows[i], l_rows[t])]
    qs = [(j, q) for j in range(t + 1, len(top)) if (q := (2 * top[j] + p) // (2 * p))]
    if qs:
        # rows above t are 0 in column t
        for row in chain(s[t:], r_rows):
            x = row[t]
            if x:
                for j, q in qs:
                    row[j] -= q * x
    return any(s[i][t] for i in range(t + 1, len(s))) or any(top[t + 1 :])


def _smith(s: list[list[int]], r_rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(S, L) with L @ s @ R = S for any k x m matrix s, R accumulated in
    place into r_rows, whose rows have m entries. S = diag(d_1..d_rank)
    sits top-left, d_i > 0 and d_1 | d_2 | ... .

    Position t runs passes of _clear_cross on the active block s[t:][t:].
    A pass first moves the least nonzero |entry| of the block to (t, t),
    positive, as the pivot p; ties go to the leftmost column (on a random
    20x20 input with 130-bit entries, L then stays at the 2,611 bits of
    d_20, where the top row first gave 5,215). If the pass leaves a
    remainder, the next pivot is at most p/2. If not, and some active
    entry is not a multiple of p, its row is added to row t and the next
    pass keeps p: clearing row t then leaves a remainder. So the pivot at least halves every two
    passes, and position t ends within 2 bits(p_0) passes, p_0 its first
    pivot. Every later entry is an integer combination of that block's
    entries, all multiples of p, so d_t | d_(t+1)."""
    k, m = len(s), len(s[0])
    l_rows = _identity_rows(k)
    for t in range(min(k, m)):
        search = True
        while True:
            if search:
                found = [(abs(e), j, i) for i in range(t, k) for j, e in enumerate(s[i][t:], t) if e]
                if not found:
                    return s, l_rows
                _, j, i = min(found)
                s[t], s[i], l_rows[t], l_rows[i] = s[i], s[t], l_rows[i], l_rows[t]
                if j != t:
                    for row in chain(s, r_rows):
                        row[t], row[j] = row[j], row[t]
                if s[t][t] < 0:
                    s[t], l_rows[t] = [-x for x in s[t]], [-x for x in l_rows[t]]
            search = _clear_cross(s, l_rows, r_rows, t)
            if not search:
                p = s[t][t]
                bad = next((i for i in range(t + 1, k) if any(e % p for e in s[i][t + 1 :])), None)
                if bad is None:
                    break
                s[t] = [x + y for x, y in zip(s[t], s[bad])]
                l_rows[t] = [x + y for x, y in zip(l_rows[t], l_rows[bad])]
    return s, l_rows


def _complete(b: list[list[int]], n: int, inverse: bool) -> list[list[int]]:
    """An n x n matrix M whose last r rows are b (r <= n), with det M = 1
    when r < n, or M^-1 if inverse; b's r x r minors must have gcd 1.

    On the window T of _window, M is the unit rows of the columns outside
    T, then one row x on T (_unit_row), then b. Listing the columns outside
    T first, M = [[I, 0], [C_S, C_T]] with C = [x; b], so det M is det C_T
    times the sign of that column order (one inversion per pair s outside
    T, t in T with t < s), and M^-1 = [[I, 0], [-G C_S, G]] with G = C_T^-1
    = det(C_T) adj(C_T). Up to r = 4, column i of adj(C_T) is (-1)^i times
    the closed-form _cofactors of C_T without row i (column 0 is b_T's own
    c); above, G is _inverse(C_T). G C_S is then formed by products. With a
    Z from _window, W = [[I, Z], [0, I]] (columns outside T first) gives M'
    for b @ W and M = M' @ W^-1: the unit rows gain -Z on T, and M^-1 =
    W @ M'^-1 adds Z times the rows of T to the rows of the other columns.

    For r = n, M = b. When no window has gcd 1, _smith gives L @ b @ R =
    [I | O], as b's invariant factors are all 1, so b is L^-1 times the
    first r rows of R^-1. M is the last n - r rows of R^-1 over those r
    rows times L^-1, and M^-1 is R's last n - r columns, then its first r
    times L; row 0 of M (column 0 of M^-1) is negated if det M = -1. Both
    rare cases invert by _inverse."""
    r = len(b)
    if r == 0:
        return _identity_rows(n)
    if r == n:
        return _inverse(b) if inverse else b
    found = _window(b, n)
    if found is None:
        r_rows = _identity_rows(n)
        l_rows = _smith([list(row) for row in b], r_rows)[1]
        inv = [row[r:] + [_dot(row[:r], col) for col in zip(*l_rows)] for row in r_rows]
        if _matrix(inv).det() < 0:
            for row in inv:
                row[0] = -row[0]
        return inv if inverse else _inverse(inv)
    t, z, bt, c = found
    out = [j for j in range(n) if j not in t]
    det = -1 if sum(1 for s in out for j in t if j < s) & 1 else 1
    x = _unit_row(bt, c, det)
    if not inverse:
        m = [[int(j == s) for j in range(n)] for s in out]
        if z is not None:
            for row, zs in zip(m, z):
                for j, e in zip(t, zs):
                    row[j] = -e
        xs = [0] * n
        for j, e in zip(t, x):
            xs[j] = e
        return m + [xs] + b
    ct, bs = [x, *bt], [[row[j] for j in out] for row in b]
    if r <= _CLOSED_MAX:
        adj = [c] + [_cofactors(ct[:i] + ct[i + 1 :]) for i in range(1, r + 1)]
        gt = [col if (i & 1) == (det < 0) else [-e for e in col] for i, col in enumerate(adj)]
        g = list(zip(*gt))
    else:
        g = _inverse(ct)
    # sol[p] is row p of G [C_S | I]; C_S is 0 in x's row
    sol = [[_dot(gp[1:], col) for col in zip(*bs)] + list(gp) for gp in g]
    inv = [[0] * n for _ in range(n)]
    for a, s in enumerate(out):
        inv[s][a] = 1
    for j, row in zip(t, sol):
        inv[j] = [-e for e in row[: len(out)]] + row[len(out) :]
    if z is not None:
        for s, zs in zip(out, z):
            for j, e in zip(t, zs):
                if e:
                    inv[s] = [p + e * q for p, q in zip(inv[s], inv[j])]
    return inv


def hnf(a: IntMatrix) -> HnfResult:
    """Column-operation Hermite normal form: A = H @ U, U in GL_n(Z).

    U is the completion of the rows B with A = H_r @ B (_complete), so its
    entries stay about as large as A's; det U = 1 below full column rank."""
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    h, piv, det = _hermite(a)
    u = _complete(_pivot_basis(a.to_rows(), h, piv), a.cols, False)
    # at r = n, U = V^-1 is the only transform; below, _complete makes det U = 1
    return HnfResult(_matrix(h), _matrix(u), det if len(piv) == a.cols else 1)


def _is_oi_block(h: list[list[int]]) -> bool:
    """Whether the rows h are the block [O | I_k]."""
    k, n = len(h), len(h[0])
    return all(row[j] == (j == n - k + i) for i, row in enumerate(h) for j in range(n))


def is_trivial_hnf(a: IntMatrix) -> bool:
    """Whether the Hermite form of a equals the block [O_{k x (n-k)} | I_k].

    The block itself is canonical, so inputs already equal to it short-circuit
    without recomputing the form; otherwise H comes from elimination alone.
    """
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    return _is_oi_block(a.to_rows()) or _is_oi_block(_hermite(a)[0])


def complete_to_gl(a: IntMatrix) -> IntMatrix:
    """Extend a unimodular k x n matrix to an n x n matrix M, |det M| = 1,
    whose last k rows are exactly a.

    For k = n the matrix itself is returned when |det| = 1. Raises
    NotUnimodularError (carrying the minor gcd) otherwise.
    """
    k, n = a.rows, a.cols
    if k > n:
        raise ValueError(f"need k <= n, got {k}x{n}")
    h, _, _ = _hermite(a)
    if not _is_oi_block(h):  # H is canonical
        # A = H @ U keeps the minor gcd. At rank k, H = [O | T] with T upper
        # triangular, so the gcd is det T, the product of its diagonal.
        # Below rank k, the bottom-most row without a pivot is 0 on T's
        # diagonal, and the product is 0.
        raise NotUnimodularError(math.prod(h[i][n - k + i] for i in range(k)))
    # H = [O | I_k] makes B = A, so the completion of B completes A
    return _matrix(_complete(a.to_rows(), n, False))


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms: L @ A @ R = S.

    With H = [O | H_r] and M the completion of _complete, A = H_r @ B and
    A @ M^-1 = H. _smith reduces the k x r block H_r alone, L @ H_r @ R_r =
    S_r, and carries R_r on the last r columns of M^-1, so R = M^-1 @
    diag(I, R_r) and S = [O | S_r]. A unimodular A has H_r = S_r = I_k and
    takes L = I, R = M^-1.
    """
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    k, n = a.rows, a.cols
    h, piv, _ = _hermite(a)
    r = len(piv)
    rinv = _complete(_pivot_basis(a.to_rows(), h, piv), n, True)
    if r == 0 or _is_oi_block(h):
        l_rows, s = _identity_rows(k), h
    else:
        tail = [row[n - r :] for row in rinv]
        s_r, l_rows = _smith([row[n - r :] for row in h], tail)
        # _smith places the diagonal top-left; its k - r zero rows go on top
        s_r, l_rows = s_r[r:] + s_r[:r], l_rows[r:] + l_rows[:r]
        s = [[0] * (n - r) + row for row in s_r]
        rinv = [row[: n - r] + t for row, t in zip(rinv, tail)]
    factors = tuple(s[k - r + l][n - r + l] for l in range(r))
    return SnfResult(
        _matrix(s),
        factors,
        _matrix(l_rows),
        _matrix(rinv),
    )
