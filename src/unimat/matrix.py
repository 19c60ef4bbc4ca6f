"""Exact integer matrices and their minors.

Everything here is arbitrary-precision integer arithmetic; nothing rounds.
The matrix type is immutable. Algorithms that need mutation work on plain
lists of rows internally and convert at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from operator import itemgetter
from typing import Callable, Sequence


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
        return _det_at(self.entries, range(self.rows * self.cols))


@dataclass(frozen=True)
class MinorSet:
    """All t x t minors of a matrix, in canonical order.

    Canonical order: row subsets in the outer loop, column subsets in the
    inner loop, each subset sequence in lexicographic order. values[0] is
    therefore the minor on the first t rows and first t columns.
    """

    order: int
    values: tuple[int, ...]


# minors up to this order have closed forms (_laplace); larger ones use
# Bareiss elimination
_CLOSED_MAX = 4


def _laplace(n: int, cols: tuple[int, ...], subs: dict, lines: list[str]) -> str:
    """Closed-form text of the minor on rows 0 .. t-1 and columns `cols`
    (t = len(cols)) of a matrix with n columns whose entry (r, c) is the
    local e{r*n + c}.

    Expands along row t-1. Each minor on fewer rows that the expansion
    uses becomes one local, assigned by a line appended to `lines` and
    named in `subs` under its columns, so later minors sharing columns
    reuse it: a 3x3 costs 9 products and a 4x4 28.
    """
    t = len(cols)
    if t == 1:
        return f"e{cols[0]}"
    plus, minus = [], []
    for i, c in enumerate(cols):
        rest = cols[:i] + cols[i + 1 :]
        name = subs.get(rest)
        if name is None:
            name = _laplace(n, rest, subs, lines)
            if t > 2:
                subs[rest] = f"m{len(subs)}"
                lines.append(f"{subs[rest]} = {name}")
                name = subs[rest]
        (minus if (t - 1 + i) % 2 else plus).append(f"e{(t - 1) * n + c} * {name}")
    return " + ".join(plus) + "".join(f" - {term}" for term in minus)


def _compile(name: str, params: str, body: list[str], env: dict) -> Callable:
    """The function `def name(params)` with the given body lines, whose
    globals are env. Callers build every line from integers and fixed text,
    never from input, so exec runs only code this module wrote; the way
    dataclasses builds __init__."""
    exec(f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in body), env)
    return env[name]


def _det_at(flat: Sequence[int], sub: Sequence[int]) -> int:
    """Exact determinant of the t x t matrix whose entries, row-major, are
    flat[i] for i in sub.

    Up to 4x4 it is the closed form of _laplace, compiled once per t by
    _minors_kernel(t, t); above that it is read off the _bareiss echelon.
    """
    ents = [flat[i] for i in sub]
    t = math.isqrt(len(ents))
    if t <= _CLOSED_MAX:
        return _minors_kernel(t, t)(ents)[0]
    m = [ents[r * t : (r + 1) * t] for r in range(t)]
    return _pivot_minor(m, _bareiss(m))


def _bareiss(m: list[list[int]], width: int | None = None) -> list[int | None]:
    """Reduce the rows m in place to a fraction-free (Bareiss, Math. Comp.
    22, 1968) row echelon form, and return each row's pivot column, or None
    for a row in the span of the pivot rows above it.

    A row pivots on its first nonzero column among the first `width` (all
    by default) that no row above pivoted on. Each row below it then
    becomes (pivot * row - f * pivot row) / previous pivot, f its entry in
    the pivot column, where it becomes 0; the columns pivoted earlier are
    0 in both rows and are left alone. After that step each entry of a row
    below is a minor of the pivot rows so far and that row, so the
    divisions are exact and sizes stay within those of the minors. A row
    that does not pivot is skipped, and the rows below go on as if it were
    not there. So a pivot row is 0 at the pivot columns above it, and
    elsewhere holds its minors on those columns plus one column each: the
    last pivot is a maximal minor (_pivot_minor), and back-substitution
    from the bottom row solves the rows' linear systems by exact division.
    """
    free = list(range(len(m[0])))
    w = len(free) if width is None else width
    cols: list[int | None] = []
    prev = 1
    for i, row in enumerate(m):
        for idx, c in enumerate(free):
            if row[c]:
                break
        else:
            c = w
        if c >= w:
            cols.append(None)
            continue
        del free[idx]
        cols.append(c)
        pivot = row[c]
        for mr in m[i + 1 :]:
            f, mr[c] = mr[c], 0
            for j in free:
                mr[j] = (mr[j] * pivot - f * row[j]) // prev
        prev = pivot
    return cols


def _pivot_minor(m: list[list[int]], cols: list[int | None]) -> int:
    """The minor of the rows that _bareiss reduced to m, on their pivot
    columns cols and signed for those columns in increasing order: the
    last pivot, times -1 for each pair of pivots out of order. It is the
    determinant when m is square, and 0 when a row has no pivot."""
    if None in cols:
        return 0
    inversions = sum(b > c for i, c in enumerate(cols) for b in cols[:i])
    return -m[-1][cols[-1]] if inversions & 1 else m[-1][cols[-1]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g: the cofactors
    the extended Euclidean algorithm returns, |x| <= |b|/(2g), built from
    math.gcd and a modular inverse. For m = |b|/g, x = (a/g)^(-1) mod m
    is taken in (-m/2, m/2], or [-m/2, m/2) when b < 0; x = 0 for m = 1."""
    if not b:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g = math.gcd(a, b)
    m = abs(b) // g
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return g, x, (g - a * x) // b


def _echelon_mod(
    rows: Sequence[Sequence[int]], d: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """(pivots, units, columns) of the elimination modulo d > 0 of k x n
    rows (k <= n), bottom-up and without transforms, that gives both the
    minor gcd and the column Hermite form (Domich, Kannan & Trotter, Math.
    Oper. Res. 12, 1987; Cohen, GTM 138, Algorithm 2.4.8). The rows are
    left as they are.

    Integer column operations of determinant +-1 keep the column lattice L
    of the rows, and L + d Z^k contains d Z^k, so every entry written is
    reduced below the running modulus, which starts at d. Row i, read
    modulo it, gets pivot g, the gcd of the modulus and its entries, and a
    pivot column j whose entry g a' has gcd exactly g with the modulus: the
    first unit entry if there is one (g = 1), else the first entry with
    gcd g, else the column that 2-column xgcd steps gather the row into
    until its entry there has gcd g. units[i] is a', a unit modulo the
    modulus / g, and columns[i] is column j in the rows above, read before
    they are cleared. Each row above then loses f times row i / g, f its
    entry in column j times a'^-1, modulo the modulus / g, and is skipped
    where f is 0. Clearing row i by the column steps c_t - (row i's entry
    in t) / g * a'^-1 c_j and then dropping column j writes exactly the
    same entries: it is the same rank-one update. The part of L that is
    zero on row i has index det L / g, so the elimination goes on modulo
    the modulus / g (Cohen's step 4). Row 0, and a row that is 0 modulo
    the modulus, have nothing to clear and take g at once, with zeros
    above.

    So math.prod(pivots) is the minor gcd D when d is a multiple of D, and
    1 exactly when gcd(D, d) = 1; for rows of rank k and such a d the
    pivots are the diagonal of their Hermite form, whose other entries
    normal_forms._sweep reads off the units and columns. A row with a unit
    entry costs no gcd steps and one list pass per row above. In the Monte
    Carlo finish d is mostly 2, 3 or 4, so most rows take that step, and a
    4x8 finish at B = 10^6 costs about 12 us, against 40 us when every row
    was gathered by 2-column steps.
    """
    k = len(rows)
    rows = list(rows)
    pivots, units, columns = [1] * k, [1] * k, [[]] * k
    for i in range(k - 1, -1, -1):
        if d == 1:
            break  # the rows above all have pivot 1
        row = rows.pop()
        gs = list(map(math.gcd, row, repeat(d)))
        g = 1 if 1 in gs else math.gcd(*gs)
        if i == 0 or g == d:
            pivots[i], columns[i] = g, [0] * i
            d //= g
            continue
        if g in gs:
            j = gs.index(g)
        else:
            row = [e % d for e in row]
            rows = [list(m) for m in rows]
            nz = [t for t, e in enumerate(row) if e]
            j = nz[0]
            for t in nz[1:]:
                # [[x, -b], [y, a]] has determinant 1
                h, x, y = _xgcd(row[j], row[t])
                a, b = row[j] // h, row[t] // h
                for m in (*rows, row):
                    m[j], m[t] = (x * m[j] + y * m[t]) % d, (a * m[t] - b * m[j]) % d
                if math.gcd(h, d) == g:
                    break
        if g > 1:
            row = [e % d // g for e in row]
        a = row[j]
        d //= g
        inv = pow(a, -1, d)
        columns[i] = [m[j] for m in rows]
        for l, m in enumerate(rows):
            f = m[j] * inv % d
            if f:
                rows[l] = [(x - f * y) % d for x, y in zip(m, row)]
        pivots[i], units[i] = g, a
    return pivots, units, columns


@lru_cache(maxsize=256)
def _minor_plan(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The k x k submatrices of a k x n matrix (2 <= k <= n) that the minor
    gcd reads before its modular finish, each as the row-major flat indices
    of its entries.

    For n <= k + 1 that is every column subset, in lexicographic order.
    Otherwise it is k + 1 windows of k cyclically consecutive columns. The
    windows start k apart, plus one each time the starts have gone once
    round the cycle of multiples of k modulo n, so all k + 1 starts differ;
    for n >= 2k the first two windows share no column.
    """
    if n <= k + 1:
        col_sets = combinations(range(n), k)
    else:
        cycle = n // math.gcd(n, k)
        starts = [i * k % n + i // cycle for i in range(k + 1)]
        col_sets = [[(s + j) % n for j in range(k)] for s in starts]
    return tuple(tuple(r * n + c for r in range(k) for c in cols) for cols in col_sets)


@lru_cache(maxsize=64)
def _minors_kernel(t: int, n: int) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """All t x t minors of t x n matrices (t <= n), column subsets in
    lexicographic order, as one function of the flat entries, compiled on
    first use from the closed forms of _laplace. Its size grows as 2^n, so
    it serves small n only: the box census's Pluecker vectors, and _det_at
    up to 4x4 with n = t."""
    body = ["".join(f"e{i}, " for i in range(t * n)) + "= s"]
    subs: dict = {}
    texts = [_laplace(n, cols, subs, body) for cols in combinations(range(n), t)]
    return _compile("minors", "s", [*body, f"return ({', '.join(texts)},)"], {})


@lru_cache(maxsize=256)
def _minor_gcd_kernel(k: int, n: int) -> Callable[[Sequence[int]], int]:
    """The minor gcd of k x n matrices (2 <= k <= n) as one function of
    their flat entries, compiled on first use from _minor_plan(k, n).

    The body is straight-line code: one gcd line per minor it reads, each
    followed by a return of 1 when the running gcd hits 1, and then, unless
    it read every minor, a call of _minor_gcd_finish with the running gcd.
    For k <= 4 it reads the whole plan. The entries the plan reads are
    unpacked into locals and each minor is its closed form (_laplace), with
    the minors of the first rows computed once and shared by the planned
    minors that contain them; for n <= k + 1 the body is one gcd of all of
    them, since reading each minor costs less than testing the gcd after
    it. For k > 4 each minor is one _bareiss determinant, O(k^3), against
    O(k^2 n) for the finish, so it reads at most the first two.
    """
    plan = _minor_plan(k, n)
    env = {"gcd": math.gcd, "det": _det_at, "finish": _minor_gcd_finish}
    body: list[str] = []
    if k <= _CLOSED_MAX:
        # unpack only the entries the plan reads, so that a wide matrix does
        # not compile one local per entry
        used = sorted(set().union(*plan))
        env["take"] = itemgetter(*used)
        names = "".join(f"e{i}, " for i in used)
        body.append(f"{names}= s" if len(used) == k * n else f"{names}= take(s)")
        subs: dict = {}
        # lazy: each minor appends the sub-minor lines it needs to body
        # when its text is made, just before the line that reads it
        texts = (_laplace(n, sub[:k], subs, body) for sub in plan)
    else:
        plan = plan[:2]
        env.update((f"p{i}", sub) for i, sub in enumerate(plan))
        texts = (f"det(s, p{i})" for i in range(len(plan)))
    if k <= _CLOSED_MAX and n <= k + 1:
        body.append(f"return gcd({', '.join(texts)})")
    else:
        for i, text in enumerate(texts):
            body += [f"g = gcd({'g, ' if i else ''}{text})", "if g == 1:", "    return 1"]
        every = len(plan) == math.comb(n, k)
        body.append("return g" if every else f"return finish(s, {k}, {n}, g)")
    return _compile("kernel", "s", body, env)


def _minor_gcd_finish(flat: Sequence[int], k: int, n: int, g: int) -> int:
    """The minor gcd of the k x n matrix with entries flat, given the gcd g
    of some of its minors: the product of the pivots of the elimination
    modulo g, a multiple of the answer (_echelon_mod, the elimination that
    gives the Hermite form). If g = 0, _bareiss first finds a nonzero minor
    to use as g, or shows that the rank is below k. Both cost O(k^2 n)
    operations, whatever C(n, k) is."""
    rows = [flat[t * n : (t + 1) * n] for t in range(k)]
    if g == 0:
        m = [list(row) for row in rows]
        g = abs(_pivot_minor(m, _bareiss(m)))
        if g == 0:
            return 0
    return math.prod(_echelon_mod(rows, g)[0])


def _minor_gcd_of_rows(flat: Sequence[int], k: int, n: int) -> int:
    """gcd of all k x k minors of the k x n matrix (k <= n) whose rows,
    laid end to end, are flat. The gcd of an all-zero collection is 0.

    For k >= 2 this is the compiled kernel of _minor_gcd_kernel(k, n). It
    accumulates the gcd over the minors of `_minor_plan(k, n)`, the first
    two of them for k > 4, and returns as soon as it hits 1, since
    gcd(1, anything) stays 1. When those were all the minors (n <= k + 1
    for k <= 4, n = k for k > 4) the running gcd is the answer. Otherwise
    it is a multiple of the answer, and _minor_gcd_finish takes the product
    of the pivots of the elimination modulo it, the one whose pivots are
    also the diagonal of the Hermite form, in O(k^2 n) operations instead
    of C(n, k) determinants.

    For n > k + 1 the plan reads cyclic column windows rather than the
    first k + 1 subsets in lexicographic order. Those share columns
    0 .. k-2, so their minors often share a factor that the true gcd
    lacks: at 4x8 with entries below 10^6, 55% of random samples fell
    through to the modular finish with the lexicographic subsets and 27%
    with the windows. The finish is exact for any multiple of the answer,
    so the choice changes only the time.

    The kernel's source holds only integers and fixed text, so the exec
    that compiles it never sees input. Against a loop that called one
    determinant helper per planned minor, it saves the calls, the index
    unpacking and most tests of the running gcd. A Monte Carlo sample at
    B = 10^6, drawing included, costs about 1.2 us at 2x3, 2.9 us at 3x4
    and 12 us at 4x8, against 2.4, 4.9 and 19 us with that loop, a finish
    that gathered every row and entries shifted one by one (best of 7,
    2-core VM, CPython 3.11.7).
    """
    if k == 1:
        return math.gcd(*flat)
    return _minor_gcd_kernel(k, n)(flat)


def minors(a: IntMatrix, t: int) -> MinorSet:
    """All t x t minors of a, 1 <= t <= min(k, n), in canonical order."""
    if not (1 <= t <= min(a.rows, a.cols)):
        raise ValueError(
            f"minor order must lie in [1, {min(a.rows, a.cols)}] for a "
            f"{a.rows}x{a.cols} matrix, got {t}"
        )
    n = a.cols
    values = []
    for rsub in combinations(range(a.rows), t):
        for csub in combinations(range(n), t):
            values.append(_det_at(a.entries, [r * n + c for r in rsub for c in csub]))
    return MinorSet(t, tuple(values))


def full_rank_minor_gcd(a: IntMatrix) -> int:
    """gcd of all k x k minors of a k x n matrix, k <= n; 0 iff rank < k."""
    if a.rows > a.cols:
        raise ValueError(f"need k <= n, got {a.rows}x{a.cols}")
    return _minor_gcd_of_rows(a.entries, a.rows, a.cols)


def is_unimodular(a: IntMatrix) -> bool:
    """Whether the k x n matrix (k <= n) extends to some M in GL_n(Z).

    Equivalent to the gcd of the k x k minors being 1. For k = 1 this is
    coprimality of the entries; for k = n it is |det| = 1.
    """
    return full_rank_minor_gcd(a) == 1
