"""Hermite and Smith normal forms with transforms, plus GL_n(Z) completion.

Invariant factors are cross-checked against sympy's Smith normal form as an
independent oracle; everything else is verified through the defining
equations (A = H·U, S = L·A·R, determinant conditions) which leave no room
for a wrong-but-consistent implementation.
"""

import math
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from unimat.matrix import IntMatrix, full_rank_minor_gcd, is_unimodular, minors
from unimat.normal_forms import (
    NotUnimodularError,
    complete_to_gl,
    hnf,
    is_trivial_hnf,
    snf,
)


def _rand_matrix(r, k, n, bound=100):
    return IntMatrix.from_rows(
        [[r.randrange(-bound, bound) for _ in range(n)] for _ in range(k)]
    )


def _assert_hermite_shape(h: IntMatrix) -> None:
    """Fixed-point shape of the column-style convention.

    Scanning rows bottom-up with a pivot cursor starting at the last
    column: each row is either zero left of the cursor inclusive
    (pivotless; its remaining entries are orbit invariants that no column
    operation can still reduce) or carries a positive pivot at the cursor
    with zeros to its left and entries to its right reduced modulo it.
    """
    k, n = h.rows, h.cols
    pc = n - 1
    for i in range(k - 1, -1, -1):
        row = h.row(i)
        if pc < 0 or not any(row[: pc + 1]):
            continue
        assert all(e == 0 for e in row[:pc]), f"row {i} nonzero left of pivot col {pc}"
        assert row[pc] > 0, f"pivot at ({i},{pc}) not positive"
        assert all(
            0 <= row[j] < row[pc] for j in range(pc + 1, n)
        ), f"row {i} not reduced mod its pivot"
        pc -= 1


def _unimodular_transforms(r, n, count):
    """Random GL_n(Z) elements, built from transforms of random squares."""
    out = []
    while len(out) < count:
        res = hnf(_rand_matrix(r, n, n, 10))
        out.append(res.U)
    return out


def test_hnf_worked_examples():
    res = hnf(IntMatrix.from_rows([[4, 6]]))
    assert res.H.to_rows() == [[0, 2]]
    assert res.H @ res.U == IntMatrix.from_rows([[4, 6]])
    assert res.detU in (1, -1)

    res = hnf(IntMatrix.from_rows([[2, 3]]))
    assert res.H.to_rows() == [[0, 1]]

    res = hnf(IntMatrix.identity(2))
    assert res.H == IntMatrix.identity(2)

    # unique form under the own-row reduction convention
    res = hnf(IntMatrix.from_rows([[1, 0], [1, 2]]))
    assert res.H.to_rows() == [[2, 1], [0, 1]]


def test_hnf_unimodular_gives_trailing_identity_block():
    r = random.Random(21)
    found = 0
    while found < 40:
        a = _rand_matrix(r, 2, 4, 30)
        if not is_unimodular(a):
            continue
        found += 1
        h = hnf(a).H
        assert h.to_rows() == [[0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 5), (4, 4)])
def test_hnf_roundtrip_and_shape_seeded(k, n):
    r = random.Random(1000 + 10 * k + n)
    for _ in range(120):
        a = _rand_matrix(r, k, n)
        res = hnf(a)
        assert res.H @ res.U == a
        assert res.U.det() == res.detU
        assert res.detU in (1, -1)
        _assert_hermite_shape(res.H)


def test_hnf_idempotent():
    r = random.Random(33)
    for _ in range(80):
        h = hnf(_rand_matrix(r, 2, 4)).H
        assert hnf(h).H == h


def test_hnf_canonical_under_right_unimodular_action():
    r = random.Random(55)
    for _ in range(40):
        a = _rand_matrix(r, 2, 3, 20)
        h = hnf(a).H
        for w in _unimodular_transforms(r, 3, 3):
            assert hnf(a @ w).H == h


def test_hnf_rank_deficient_rows_stay_in_place():
    # column operations cannot move rows, so a zero row of A stays put
    res = hnf(IntMatrix.from_rows([[1, 1], [0, 0]]))
    assert res.H.to_rows() == [[0, 1], [0, 0]]
    assert res.H @ res.U == IntMatrix.from_rows([[1, 1], [0, 0]])

    # a dependent (but nonzero) row keeps its unreducible leftovers
    res = hnf(IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]]))
    assert res.H.to_rows() == [[0, 0, 2], [0, 0, 1]]


def test_hnf_rejects_more_rows_than_cols():
    with pytest.raises(ValueError):
        hnf(IntMatrix.from_rows([[1], [2]]))


def test_is_trivial_hnf_examples():
    assert is_trivial_hnf(IntMatrix.from_rows([[0, 1]]))
    assert is_trivial_hnf(IntMatrix.from_rows([[2, 3]]))
    assert not is_trivial_hnf(IntMatrix.from_rows([[2, 4]]))
    assert is_trivial_hnf(IntMatrix.identity(3))
    assert not is_trivial_hnf(IntMatrix.from_rows([[0, 0]]))
    with pytest.raises(ValueError):
        is_trivial_hnf(IntMatrix.from_rows([[1], [0]]))


@pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (2, 4), (3, 4)])
def test_unimodular_iff_trivial_hnf(k, n):
    r = random.Random(2000 + 10 * k + n)
    for _ in range(150):
        a = _rand_matrix(r, k, n, 20)
        assert is_unimodular(a) == is_trivial_hnf(a)


def test_complete_to_gl_examples():
    m = complete_to_gl(IntMatrix.from_rows([[0, 1]]))
    assert m.row(1) == (0, 1) and abs(m.det()) == 1

    m = complete_to_gl(IntMatrix.from_rows([[2, 3]]))
    assert m.row(1) == (2, 3) and abs(m.det()) == 1

    with pytest.raises(NotUnimodularError) as exc:
        complete_to_gl(IntMatrix.from_rows([[2, 4]]))
    assert exc.value.minor_gcd == 2


def test_complete_to_gl_square_cases():
    u = IntMatrix.from_rows([[0, -1], [1, 0]])
    assert complete_to_gl(u) == u
    with pytest.raises(NotUnimodularError) as exc:
        complete_to_gl(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert exc.value.minor_gcd == 6


@pytest.mark.parametrize("k,n", [(1, 2), (1, 4), (2, 3), (3, 5)])
def test_complete_to_gl_seeded(k, n):
    r = random.Random(3000 + 10 * k + n)
    done = 0
    while done < 60:
        a = _rand_matrix(r, k, n, 50)
        if not is_unimodular(a):
            with pytest.raises(NotUnimodularError):
                complete_to_gl(a)
            continue
        done += 1
        m = complete_to_gl(a)
        assert m.rows == m.cols == n
        assert abs(m.det()) == 1
        for i in range(k):
            assert m.row(n - k + i) == a.row(i)


def test_snf_worked_examples():
    res = snf(IntMatrix.from_rows([[4, 6]]))
    assert res.S.to_rows() == [[0, 2]]
    assert res.invariant_factors == (2,)

    res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.S.to_rows() == [[1, 0], [0, 6]]
    assert res.invariant_factors == (1, 6)

    res = snf(IntMatrix.from_rows([[2, 3]]))
    assert res.S.to_rows() == [[0, 1]]

    res = snf(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
    assert res.invariant_factors == (2, 2, 156)


def test_snf_zero_and_identity():
    res = snf(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert res.invariant_factors == ()
    assert res.S.to_rows() == [[0, 0], [0, 0]]
    res = snf(IntMatrix.identity(3))
    assert res.invariant_factors == (1, 1, 1)
    assert res.S == IntMatrix.identity(3)


def _assert_smith_placement(s: IntMatrix, factors) -> None:
    """diag(d_1..d_r) sits in the bottom-right corner, zeros elsewhere."""
    k, n, r = s.rows, s.cols, len(factors)
    for i in range(k):
        for j in range(n):
            expect = 0
            if i >= k - r and j - (n - r) == i - (k - r) and j >= n - r:
                expect = factors[i - (k - r)]
            assert s[i, j] == expect, (i, j, s.to_rows(), factors)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 4), (4, 5)])
def test_snf_transforms_and_chain_seeded(k, n):
    r = random.Random(4000 + 10 * k + n)
    for _ in range(60):
        a = _rand_matrix(r, k, n, 30)
        res = snf(a)
        assert res.L @ a @ res.R == res.S
        assert abs(res.L.det()) == 1
        assert abs(res.R.det()) == 1
        d = res.invariant_factors
        assert all(x > 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert y % x == 0
        _assert_smith_placement(res.S, d)


@pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 3), (3, 5)])
def test_snf_matches_sympy_oracle(k, n):
    r = random.Random(5000 + 10 * k + n)
    for _ in range(40):
        a = _rand_matrix(r, k, n, 25)
        ours = snf(a).invariant_factors
        sym = smith_normal_form(sympy.Matrix(a.to_rows()))
        theirs = sorted(abs(sym[i, j]) for i in range(k) for j in range(n) if sym[i, j] != 0)
        assert sorted(ours) == theirs


def test_snf_factor_products_equal_minor_gcds():
    # d_1 * ... * d_t = gcd of all t x t minors, for every t up to the rank
    r = random.Random(6000)
    for _ in range(50):
        k, n = r.choice([(2, 3), (2, 4), (3, 4)])
        a = _rand_matrix(r, k, n, 15)
        d = snf(a).invariant_factors
        prod = 1
        for t, dt in enumerate(d, start=1):
            prod *= dt
            assert prod == math.gcd(*minors(a, t).values)
        if len(d) < min(k, n):
            assert math.gcd(*minors(a, len(d) + 1).values) == 0


def test_snf_unimodular_gives_trailing_identity_block():
    r = random.Random(77)
    done = 0
    while done < 40:
        a = _rand_matrix(r, 2, 4, 20)
        if not is_unimodular(a):
            continue
        done += 1
        assert snf(a).S.to_rows() == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_snf_invariant_under_unimodular_multiplication():
    r = random.Random(88)
    a = _rand_matrix(r, 2, 3, 10)
    s = snf(a).S
    for w in _unimodular_transforms(r, 3, 4):
        assert snf(a @ w).S == s
    for v in _unimodular_transforms(r, 2, 4):
        assert snf(v @ a).S == s


def test_snf_divisibility_repair_has_no_step_cap():
    # diag(2^142, ..., 2) is already diagonal but in reverse divisibility
    # order: sorting it takes C(142, 2) = 10,011 gcd/lcm steps
    n = 142
    a = IntMatrix.from_rows([[2 ** (n - i) if i == j else 0 for j in range(n)] for i in range(n)])
    res = snf(a)
    assert res.invariant_factors == tuple(2**i for i in range(1, n + 1))
    assert res.L @ a @ res.R == res.S
    _assert_smith_placement(res.S, res.invariant_factors)


_small_entries = st.integers(min_value=-60, max_value=60)


@st.composite
def _matrices(draw, max_k=3, max_n=4):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max_n))
    flat = draw(st.lists(_small_entries, min_size=k * n, max_size=k * n))
    return IntMatrix(k, n, tuple(flat))


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_hnf_roundtrip_property(a):
    res = hnf(a)
    assert res.H @ res.U == a
    assert res.detU in (1, -1)
    _assert_hermite_shape(res.H)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_snf_roundtrip_property(a):
    res = snf(a)
    assert res.L @ a @ res.R == res.S
    assert abs(res.L.det()) == 1
    assert abs(res.R.det()) == 1
    for x, y in zip(res.invariant_factors, res.invariant_factors[1:]):
        assert y % x == 0


@st.composite
def _refusal_candidates(draw):
    """k x n matrices, k = n included, that complete_to_gl mostly refuses:
    one row scaled by a factor >= 2, one row zeroed, or one row replaced by
    a combination of the others, which drops the rank below k."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 5))
    entries = st.integers(-9, 9)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    i = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(("scaled", "zero", "dependent")))
    if kind == "scaled":
        c = draw(st.integers(2, 6))
        rows[i] = [c * e for e in rows[i]]
    elif kind == "zero":
        rows[i] = [0] * n
    else:
        coefs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        others = [(c, row) for l, (c, row) in enumerate(zip(coefs, rows)) if l != i]
        rows[i] = [sum(c * row[j] for c, row in others) for j in range(n)]
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(_refusal_candidates())
@example(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))  # rank 1 < k
@example(IntMatrix.from_rows([[0, 0, 0], [3, 5, 7]]))  # zero top row
@example(IntMatrix.from_rows([[2, 4, 6], [0, 0, 0]]))  # zero bottom row
@example(IntMatrix.from_rows([[0, 0, 0, 0], [1, 2, 3, 4], [2, 4, 6, 8]]))  # rank 1 < k = 3
@example(IntMatrix.from_rows([[1, 2], [2, 4]]))  # k = n, det 0
@example(IntMatrix.from_rows([[2, 1], [0, 3]]))  # k = n, det 6
def test_complete_to_gl_refusal_carries_the_minor_gcd(a):
    g = full_rank_minor_gcd(a)
    if g == 1:
        assert abs(complete_to_gl(a).det()) == 1
        return
    with pytest.raises(NotUnimodularError) as exc:
        complete_to_gl(a)
    assert exc.value.minor_gcd == g
