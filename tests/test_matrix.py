"""Exact matrix core: construction, multiplication, determinants, minors,
and the gcd-of-full-rank-minors unimodularity test. Determinants are
cross-checked against an independent permutation-expansion oracle."""

import math
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimat import matrix
from unimat.matrix import (
    IntMatrix,
    _bareiss,
    _echelon_mod,
    _minor_gcd_of_rows,
    _pivot_minor,
    _xgcd,
    _minor_plan,
    full_rank_minor_gcd,
    is_unimodular,
    minors,
)


def _perm_det(rows):
    """Leibniz expansion; independent of the package's elimination route."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inv % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _euclid_xgcd(a, b):
    """The extended Euclidean algorithm, step by step: the oracle for
    _xgcd's cofactors."""
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


def test_xgcd_matches_euclid_on_a_square():
    for a in range(-60, 61):
        for b in range(-60, 61):
            assert _xgcd(a, b) == _euclid_xgcd(a, b), (a, b)


_BIG_INT = st.integers(1, 500).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))


@settings(max_examples=400, deadline=None)
@given(a=_BIG_INT, b=_BIG_INT, scale=st.sampled_from([1, 1, 3, 2**64 + 13]),
       zero=st.sampled_from([None, "a", "b"]))
def test_xgcd_matches_euclid_on_big_entries(a, b, scale, zero):
    a, b = (0 if zero == "a" else a * scale), (0 if zero == "b" else b * scale)
    assert _xgcd(a, b) == _euclid_xgcd(a, b)
    assert _xgcd(a, a * b) == _euclid_xgcd(a, a * b)


def _rand_matrix(r, k, n, lo=-9, hi=9):
    return IntMatrix.from_rows([[r.randint(lo, hi) for _ in range(n)] for _ in range(k)])


def test_construction_validates_shape():
    with pytest.raises(ValueError):
        IntMatrix(0, 2, ())
    with pytest.raises(ValueError):
        IntMatrix(2, 0, ())
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])


def test_indexing_and_rows():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a[0, 0] == 1 and a[1, 2] == 6
    assert a.row(1) == (4, 5, 6)
    assert a.to_rows() == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(IndexError):
        a[2, 0]
    with pytest.raises(IndexError):
        a[0, 3]
    with pytest.raises(IndexError):
        a[-1, 0]


def test_identity_and_matmul():
    a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert IntMatrix.identity(3) @ a == a
    assert a @ IntMatrix.identity(2) == a
    b = IntMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
    ab = a @ b
    assert ab.to_rows() == [[1, 2, 8], [3, 4, 18], [5, 6, 28]]
    with pytest.raises(ValueError):
        b @ b


def test_matmul_associativity_seeded():
    r = random.Random(5)
    for _ in range(50):
        a = _rand_matrix(r, 2, 3)
        b = _rand_matrix(r, 3, 4)
        c = _rand_matrix(r, 4, 2)
        assert (a @ b) @ c == a @ (b @ c)


def test_transpose():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().to_rows() == [[1, 4], [2, 5], [3, 6]]
    assert a.transpose().transpose() == a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_matches_permutation_expansion(n):
    r = random.Random(100 + n)
    for _ in range(60):
        rows = [[r.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == _perm_det(rows)


def test_det_of_signed_permutation_matrices():
    # each row pivots on its permuted column, so every permutation's
    # parity must come out of the pivot order
    r = random.Random(19)
    for perm in permutations(range(5)):
        rows = [[r.choice((-1, 1)) if j == perm[i] else 0 for j in range(5)] for i in range(5)]
        assert IntMatrix.from_rows(rows).det() == _perm_det(rows)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_det_of_sparse_matrices(n):
    # about half the entries are zero, which moves pivots off the diagonal;
    # random dense matrices rarely do that
    r = random.Random(200 + n)
    for _ in range(60 if n < 7 else 15):
        rows = [[r.randint(-9, 9) if r.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows).det() == _perm_det(rows)


def test_det_structured_cases():
    assert IntMatrix.identity(5).det() == 1
    assert IntMatrix.from_rows([[7]]).det() == 7
    z = IntMatrix.from_rows([[0, 0], [0, 0]])
    assert z.det() == 0
    # duplicate rows kill the determinant
    assert IntMatrix.from_rows([[3, 4, 5], [1, 2, 3], [3, 4, 5]]).det() == 0


def test_det_multiplicative_and_transpose_invariant():
    r = random.Random(7)
    for n in (2, 3, 5):
        for _ in range(20):
            a = _rand_matrix(r, n, n)
            b = _rand_matrix(r, n, n)
            assert (a @ b).det() == a.det() * b.det()
            assert a.transpose().det() == a.det()


def test_det_requires_square():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()


def test_det_large_entries_exact():
    big = 10**30
    a = IntMatrix.from_rows([[big, 1], [1, big]])
    assert a.det() == big * big - 1


def test_minors_canonical_order():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert minors(a, 1).values == (1, 2, 3, 4, 5, 6)
    # column pairs in lexicographic order: (0,1), (0,2), (1,2)
    assert minors(a, 2).values == (-3, -6, -3)
    assert minors(a, 2).order == 2


def test_minors_row_subsets_outer():
    a = IntMatrix.from_rows([[1, 0], [0, 1], [2, 3]])
    # row pairs (0,1), (0,2), (1,2) each give one 2x2 det
    assert minors(a, 2).values == (1, 3, -2)


def test_minors_validates_order():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    for t in (0, 3, -1):
        with pytest.raises(ValueError):
            minors(a, t)


def test_full_rank_minor_gcd_row_case():
    assert full_rank_minor_gcd(IntMatrix.from_rows([[4, 6]])) == 2
    assert full_rank_minor_gcd(IntMatrix.from_rows([[4, 7]])) == 1
    assert full_rank_minor_gcd(IntMatrix.from_rows([[0, 0, 0]])) == 0
    assert full_rank_minor_gcd(IntMatrix.from_rows([[-6, 0, 9]])) == 3


def test_full_rank_minor_gcd_square_is_abs_det():
    r = random.Random(11)
    for _ in range(40):
        a = _rand_matrix(r, 3, 3)
        assert full_rank_minor_gcd(a) == abs(a.det())


def test_full_rank_minor_gcd_agrees_with_minorset():
    r = random.Random(13)
    for k, n in ((2, 3), (2, 4), (3, 4)):
        for _ in range(30):
            a = _rand_matrix(r, k, n)
            assert full_rank_minor_gcd(a) == math.gcd(*minors(a, k).values)
    # entries with shared factors of 2 often give the first k + 1 minors a
    # larger gcd than all minors have, which the elimination must reduce
    for k, n in ((2, 4), (2, 6), (3, 5), (3, 7), (4, 7)):
        for _ in range(400):
            rows = [[r.randint(-4, 4) * r.choice((1, 2, 4)) for _ in range(n)] for _ in range(k)]
            a = IntMatrix.from_rows(rows)
            assert full_rank_minor_gcd(a) == math.gcd(*minors(a, k).values)


@st.composite
def _gcd_inputs(draw, k=None, n=None):
    """k x n matrices, by default k <= 5 and n <= 9, that reach every branch
    of the minor gcd: zero matrices, entries up to 2^80, rows and columns
    scaled by 2, 3 or 6 (gcd > 1, and planned minors sharing more than the
    gcd), rank-deficient inputs (gcd 0), and leading zero columns, which
    can make every planned minor 0 while the rank is still k."""
    k = draw(st.integers(1, 5)) if k is None else k
    n = draw(st.integers(k, 9)) if n is None else n
    mag = draw(st.sampled_from([0, 3, 3, 2**80, 2**80]))
    rows = [draw(st.lists(st.integers(-mag, mag), min_size=n, max_size=n)) for _ in range(k)]
    zeros = draw(st.integers(0, n - k))
    for i in range(k):
        rows[i][:zeros] = [0] * zeros
        s = draw(st.sampled_from([1, 1, 2, 3, 6]))
        rows[i] = [s * e for e in rows[i]]
    for j in range(n):
        s = draw(st.sampled_from([1, 1, 2, 3, 6]))
        for row in rows:
            row[j] *= s
    if k > 1 and draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        rows[i] = [sum(c * r[j] for t, (c, r) in enumerate(zip(cs, rows)) if t != i) for j in range(n)]
    return IntMatrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bareiss_is_a_minor_on_its_pivot_columns(data):
    # leading zero columns and dependent rows push pivots right, and a
    # rank below k must give 0
    k = data.draw(st.integers(1, 7))
    a = data.draw(_gcd_inputs(k, data.draw(st.integers(k, k + 3))))
    values = minors(a, k).values
    m = a.to_rows()
    b = _pivot_minor(m, _bareiss(m))
    assert b in values
    assert (b == 0) == (not any(values))


# the planned minors have gcd 6, the answer is 2
_PLANNED_GCD_ABOVE_ANSWER = IntMatrix.from_rows([[-2, -2, 0, 2], [-2, 1, 3, -3]])


def test_example_planned_minors_exceed_the_answer():
    a = _PLANNED_GCD_ABOVE_ANSWER
    planned = []
    for sub in _minor_plan(2, 4):
        e = [a.entries[i] for i in sub]
        planned.append(_perm_det([e[:2], e[2:]]))
    assert math.gcd(*planned) > math.gcd(*minors(a, 2).values)


@settings(max_examples=300, deadline=None)
@given(_gcd_inputs())
@example(_PLANNED_GCD_ABOVE_ANSWER)
def test_full_rank_minor_gcd_property_against_minorset(a):
    assert full_rank_minor_gcd(a) == math.gcd(*minors(a, a.rows).values)


# every shape with a compiled closed-form kernel (k <= 4), and k = 5 and 6,
# whose kernels read at most two planned minors by Bareiss elimination
KERNEL_SHAPES = [(k, n) for k in range(2, 7) for n in range(k, 9)]


@pytest.mark.parametrize("k,n", KERNEL_SHAPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minor_gcd_kernel_against_minorset(k, n, data):
    a = data.draw(_gcd_inputs(k, n))
    assert _minor_gcd_of_rows(a.entries, k, n) == math.gcd(*minors(a, k).values)


def _pivot_cases(pivots, d, gathered):
    """The pivot cases that the rows of one _echelon_mod(rows, d) call took,
    given its pivots and whether it called _xgcd, which only the gather
    does. Without a gather, a row above row 0 whose pivot is below the
    modulus took a unit entry when its pivot is 1, and an entry of gcd
    exactly its pivot otherwise."""
    if gathered:
        return {"gather"}
    cases = set()
    for i in range(len(pivots) - 1, 0, -1):
        g = pivots[i]
        if g < d:
            cases.add("unit" if g == 1 else "exact")
        d //= g
    return cases


def test_echelon_mod_pivots_against_minorset(monkeypatch):
    # any rank, k <= 6 and n <= 9; a spy on _xgcd tells the gathers apart
    calls = []
    xgcd = matrix._xgcd
    monkeypatch.setattr(matrix, "_xgcd", lambda a, b: calls.append(1) or xgcd(a, b))
    seen = set()

    def pivots(rows, d):
        calls.clear()
        before = [list(row) for row in rows]
        out = _echelon_mod(rows, d)[0]
        assert rows == before  # the rows are left as they are
        seen.update(_pivot_cases(out, d, bool(calls)))
        return out

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(_gcd_inputs),
        st.integers(1, 5),
        st.integers(1, 210),
    )
    # modulus 6: the bottom row's 4 and -3 share 2 and 3 with it, so no
    # entry is a unit and the row is gathered
    @example(IntMatrix.from_rows([[0, -2, 0], [0, 4, -3]]), 1, 6)
    @example(IntMatrix.from_rows([[1, 0], [0, 2]]), 2, 4)  # 2 has gcd exactly 2 with 4
    @example(IntMatrix.from_rows([[2, 1, 4], [3, 1, 1]]), 1, 5)  # a unit in every row
    def check(a, c, s):
        rows, d = a.to_rows(), math.gcd(*minors(a, a.rows).values)
        if d:
            assert math.prod(pivots(rows, c * d)) == d
        assert (math.prod(pivots(rows, s)) == 1) == (math.gcd(d, s) == 1)

    check()
    assert seen == {"unit", "exact", "gather"}


def test_wide_matrix_kernel_reads_only_planned_entries():
    # the plan reads at most k(k + 1) columns, so the compiled kernel
    # unpacks those entries only; one local per entry of a 4 x 40000
    # matrix takes about 1 s to compile
    r = random.Random(5)
    k, n = 4, 40000
    rows = [[r.randint(-9, 9) * (3 if i == 0 else 1) for _ in range(n)] for i in range(k)]
    t0 = time.perf_counter()
    assert full_rank_minor_gcd(IntMatrix.from_rows(rows)) == 3
    assert time.perf_counter() - t0 < 0.5


def _gl_rows(r, n, mag):
    """A random GL_n(Z) matrix: unit lower times unit upper, rows shuffled."""
    low = IntMatrix.from_rows([[1 if i == j else r.randint(-mag, mag) if j < i else 0 for j in range(n)] for i in range(n)])
    up = IntMatrix.from_rows([[1 if i == j else r.randint(-mag, mag) if j > i else 0 for j in range(n)] for i in range(n)])
    rows = (low @ up).to_rows()
    r.shuffle(rows)
    return rows


def _with_minor_gcd(r, k, n, mag):
    """(a, d): a = M @ B with det M = d and B the last k rows of a GL_n(Z)
    matrix. Every k x k minor of a is d times one of B's, whose gcd is 1,
    so the minor gcd of a is d (Cauchy-Binet)."""
    diag = [r.choice((1, 2, 3, 5)) for _ in range(k)]
    tri = IntMatrix.from_rows([[diag[i] if i == j else r.randint(-3, 3) if j > i else 0 for j in range(k)] for i in range(k)])
    b = IntMatrix.from_rows(_gl_rows(r, n, mag)[n - k:])
    return IntMatrix.from_rows(_gl_rows(r, k, 2)) @ tri @ b, math.prod(diag)


@pytest.mark.parametrize("mag", [2, 2**64])
def test_full_rank_minor_gcd_scales_past_the_minor_count(mag):
    # C(40, 8) is about 7.7e7 minors
    r = random.Random(mag)
    k, n = 8, 40
    a, d = _with_minor_gcd(r, k, n, mag)
    # rank k - 1: every minor is 0
    c = IntMatrix.from_rows([[r.randint(-3, 3) for _ in range(k - 1)] for _ in range(k)])
    deficient = c @ IntMatrix.from_rows(_gl_rows(r, n, mag)[: k - 1])
    t0 = time.perf_counter()
    assert full_rank_minor_gcd(a) == d
    assert full_rank_minor_gcd(deficient) == 0
    assert time.perf_counter() - t0 < 2.0


def test_near_square_minor_gcd_reads_two_minors():
    # n = k + 1 plans all 41 column subsets, but past two 40 x 40 Bareiss
    # determinants the finish is cheaper: reading all 41 took 4.5-5 s on a
    # 2-core VM
    r = random.Random(40)
    rows = [[r.randrange(-2**64, 2**64) for _ in range(41)] for _ in range(40)]
    assert full_rank_minor_gcd(IntMatrix.from_rows(rows)) == 1
    doubled = [[2 * e for e in rows[0]], *rows[1:]]
    dependent = [*rows[:-1], [x + y for x, y in zip(rows[0], rows[1])]]
    for case, want in ((doubled, 2), (dependent, 0)):
        t0 = time.perf_counter()
        assert full_rank_minor_gcd(IntMatrix.from_rows(case)) == want
        assert time.perf_counter() - t0 < 2.0


def test_full_rank_minor_gcd_with_zero_planned_minors_stays_fast():
    # zero columns 23 and 47 meet every planned window, so every planned
    # minor vanishes at full rank and the gcd must come from elimination
    # alone; the minors without those columns are those of a, so the gcd is
    # still d
    k, n = 24, 48
    a, d = _with_minor_gcd(random.Random(3), k, n - 2, 2**16)
    z = IntMatrix.from_rows([[*r[:23], 0, *r[23:], 0] for r in a.to_rows()])
    assert all({23, 47} & set(sub[:k]) for sub in _minor_plan(k, n))
    t0 = time.perf_counter()
    assert full_rank_minor_gcd(z) == d
    assert time.perf_counter() - t0 < 2.0


def test_minor_plan_shapes():
    # n <= k + 1: every column subset, in lexicographic order
    for k, n in [(2, 2), (2, 3), (3, 4), (5, 5), (5, 6)]:
        expect = [tuple(r * n + c for r in range(k) for c in cols) for cols in combinations(range(n), k)]
        assert list(_minor_plan(k, n)) == expect
    # n > k + 1: k + 1 distinct subsets of k distinct columns, each read in
    # the same column order on every row
    for k, n in [(2, 4), (2, 5), (3, 7), (4, 6), (4, 8), (4, 9), (6, 10), (6, 14), (24, 48)]:
        _minor_plan.cache_clear()
        t0 = time.perf_counter()
        plan = _minor_plan(k, n)
        assert time.perf_counter() - t0 < 0.5
        assert len(plan) == k + 1
        for sub in plan:
            cols = sub[:k]
            assert len(set(cols)) == k and all(0 <= c < n for c in cols)
            assert sub == tuple(r * n + c for r in range(k) for c in cols)
        assert len({frozenset(sub[:k]) for sub in plan}) == k + 1


def test_full_rank_minor_gcd_rejects_wide_side_down():
    with pytest.raises(ValueError):
        full_rank_minor_gcd(IntMatrix.from_rows([[1], [0]]))


def test_gcd_invariant_under_unimodular_row_ops():
    # left multiplication by det +-1 matrices permutes the k-minor lattice
    r = random.Random(17)
    w = IntMatrix.from_rows([[1, 1], [0, 1]])
    winv = IntMatrix.from_rows([[1, -1], [0, 1]])
    for _ in range(40):
        a = _rand_matrix(r, 2, 4)
        assert full_rank_minor_gcd(w @ a) == full_rank_minor_gcd(a)
        assert full_rank_minor_gcd(winv @ a) == full_rank_minor_gcd(a)


def test_is_unimodular_examples():
    assert is_unimodular(IntMatrix.from_rows([[2, 3]]))
    assert not is_unimodular(IntMatrix.from_rows([[2, 4]]))
    assert is_unimodular(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    assert not is_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert is_unimodular(IntMatrix.from_rows([[0, -1], [1, 0]]))
    assert not is_unimodular(IntMatrix.from_rows([[0, 0]]))


def test_is_unimodular_rejects_more_rows_than_cols():
    with pytest.raises(ValueError):
        is_unimodular(IntMatrix.from_rows([[1], [0]]))
