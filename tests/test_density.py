"""Density formulas: zeta evaluation with rigorous error bounds, the exact
density d_{k,n}, its codimension limits, and the per-prime local theory.

mpmath (50-digit working precision, 80 digits for tolerances past 1e-20)
serves as the independent oracle for every transcendental value; rational
quantities are checked exactly.
"""

import functools
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
import sympy

from unimat import density as density_module
from unimat.density import (
    PrimeSet,
    count_full_rank_mod_p,
    density_exact,
    density_limit,
    divisibility_defect,
    first_primes,
    is_prime,
    local_density,
    zeta,
)

mpmath.mp.dps = 50


def _mp_decimal(x) -> Decimal:
    return Decimal(mpmath.nstr(x, 40, strip_zeros=False))


def _mp_density(k: int, n: int) -> Decimal:
    if k == n:
        return Decimal(0)
    prod = mpmath.mpf(1)
    for j in range(n - k + 1, n + 1):
        prod /= mpmath.zeta(j)
    return _mp_decimal(prod)


def _mp_limit(d: int) -> Decimal:
    prod = mpmath.mpf(1)
    for j in range(d + 1, d + 250):
        prod /= mpmath.zeta(j)
    # truncation beyond j = d+250 is far below 1e-40
    return _mp_decimal(prod)


@pytest.mark.parametrize("j", [2, 3, 4, 5, 11, 30])
@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
def test_zeta_within_claimed_bound_and_tol(j, tol):
    res = zeta(j, tol)
    err = abs(res.value - _mp_decimal(mpmath.zeta(j)))
    assert err <= res.error_bound, (j, tol, err, res.error_bound)
    assert res.error_bound <= Decimal(str(tol))
    assert res.terms >= 10


def _mp80(x) -> Decimal:
    """An 80-digit oracle string; call under mpmath.workdps(80)."""
    return Decimal(mpmath.nstr(x, 80, strip_zeros=False))


DEEP_TOLS = [1e-20, 1e-30, 1e-50]


@pytest.mark.parametrize("j", [2, 3, 5, 11, 30])
@pytest.mark.parametrize("tol", DEEP_TOLS)
def test_zeta_deep_tolerance_against_80_digit_oracle(j, tol):
    res = zeta(j, tol)
    with mpmath.workdps(80):
        err = abs(res.value - _mp80(mpmath.zeta(j)))
    assert err <= res.error_bound <= Decimal(tol), (j, tol, err, res.error_bound)


@pytest.mark.parametrize("tol", [1e-30, 1e-50])
def test_density_and_limit_deep_tolerance_against_80_digit_oracle(tol):
    with mpmath.workdps(80):
        oracles = {
            (1, 2): _mp80(1 / mpmath.zeta(2)),
            (2, 3): _mp80(1 / (mpmath.zeta(2) * mpmath.zeta(3))),
            "limit": _mp80(mpmath.fprod(1 / mpmath.zeta(j) for j in range(2, 300))),
        }
    for key, oracle in oracles.items():
        rep = density_limit(1, tol) if key == "limit" else density_exact(*key, tol)
        err = abs(rep.value - oracle)
        assert err <= rep.abs_error_bound <= Decimal(tol), (key, tol, err, rep.abs_error_bound)


@functools.cache
def _zeta80(j: int) -> Decimal:
    with mpmath.workdps(80):
        return _mp80(mpmath.zeta(j))


SWEEP_TOLS = [1e-12, 1e-17, 1e-30]


@pytest.mark.parametrize("lo,hi", [(2, 59), (2, 42), (6, 200)])
@pytest.mark.parametrize("tol", SWEEP_TOLS)
def test_sweep_factors_within_their_bounds_of_80_digit_oracle(lo, hi, tol):
    values, bounds, n_cut = density_module._zeta_sweep(lo, hi, Decimal(tol))
    assert len(values) == len(bounds) == hi - lo + 1
    assert n_cut == zeta(lo, tol).terms
    for j, value, bound in zip(range(lo, hi + 1), values, bounds):
        err = abs(value - _zeta80(j))
        assert err <= bound <= Decimal(tol), (j, tol, err, bound)


@pytest.mark.parametrize("tol", SWEEP_TOLS)
def test_zeta_agrees_with_the_factor_of_a_longer_sweep(tol):
    values, bounds, _ = density_module._zeta_sweep(2, 60, Decimal(tol))
    for j in (2, 3, 7, 19, 41, 60):
        one = zeta(j, tol)
        assert abs(one.value - values[j - 2]) <= one.error_bound + bounds[j - 2], (j, tol)


def _inverse_product80(lo: int, hi: int) -> Decimal:
    with mpmath.workdps(80):
        return _mp80(mpmath.fprod(1 / mpmath.zeta(j) for j in range(lo, hi + 1)))


@pytest.mark.parametrize("tol", SWEEP_TOLS)
def test_limit_and_density_match_80_digit_oracle(tol):
    for d in (1, 2, 3, 5, 20, 60):
        rep = density_limit(d, tol)
        err = abs(rep.value - _inverse_product80(d + 1, d + 300))
        assert err <= rep.abs_error_bound <= Decimal(tol), (d, tol, err, rep.abs_error_bound)
    for k, n in [(1, 2), (2, 3), (1, 3), (2, 4), (3, 5), (4, 8), (1, 200), (50, 60)]:
        rep = density_exact(k, n, tol)
        err = abs(rep.value - _inverse_product80(n - k + 1, n))
        assert err <= rep.abs_error_bound <= Decimal(tol), (k, n, tol, err, rep.abs_error_bound)


def test_zeta_huge_argument_is_one_within_bound():
    # every term past m = 1 lies far below the working precision; none is
    # materialised as an integer of j digits
    res = zeta(10**9, 1e-12)
    assert res.value == 1
    assert res.error_bound <= Decimal(1e-12)


def test_bernoulli_cache_matches_sympy():
    density_module._BERNOULLI[1:] = []
    for i in (3, 1, 40, 17, 90):
        assert density_module._bernoulli(i) == Fraction(str(sympy.bernoulli(2 * i))), i
    assert len(density_module._BERNOULLI) > 90


def test_zeta_domain_errors():
    for j in (1, 0, -3):
        with pytest.raises(ValueError):
            zeta(j, 1e-9)
    with pytest.raises(ValueError):
        zeta(2, 0.0)
    with pytest.raises(ValueError):
        zeta(2, -1e-9)


def test_non_finite_tolerance_is_rejected():
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            zeta(2, tol)
        with pytest.raises(ValueError):
            density_exact(1, 2, tol)
        with pytest.raises(ValueError):
            density_limit(1, tol)


def test_density_known_constants():
    # 1/zeta(2) = 6/pi^2, the coprime-pair density
    rep = density_exact(1, 2, 1e-12)
    assert abs(rep.value - Decimal("0.607927101854")) < Decimal("1e-9")
    # 1/(zeta(2)*zeta(3))
    rep = density_exact(2, 3, 1e-12)
    assert abs(rep.value - Decimal("0.505739038024")) < Decimal("1e-9")


# (50, 60) and (99, 100) reach past the product cutoff, 40 at 1e-9 and 42
# at 1e-12, so their last factors are folded into the error bound
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 6), (4, 9), (50, 60), (99, 100)])
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_density_within_bound_of_oracle(k, n, tol):
    rep = density_exact(k, n, tol)
    err = abs(rep.value - _mp_density(k, n))
    assert err <= rep.abs_error_bound
    assert rep.abs_error_bound <= Decimal(str(tol))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_density_square_is_exactly_zero(n):
    rep = density_exact(n, n, 1e-12)
    assert rep.value == 0
    assert rep.abs_error_bound == 0


def test_density_domain_errors():
    with pytest.raises(ValueError):
        density_exact(0, 2, 1e-9)
    with pytest.raises(ValueError):
        density_exact(3, 2, 1e-9)
    with pytest.raises(ValueError):
        density_exact(1, 2, 0.0)


def test_density_decreasing_in_k_for_fixed_n():
    vals = [density_exact(k, 6, 1e-15).value for k in range(1, 7)]
    for a, b in zip(vals, vals[1:]):
        assert a > b
    assert vals[-1] == 0


def test_limit_known_constant():
    rep = density_limit(1, 1e-10)
    assert abs(rep.value - Decimal("0.43575707677")) < Decimal("1e-10")


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_limit_within_bound_of_oracle(d, tol):
    rep = density_limit(d, tol)
    err = abs(rep.value - _mp_limit(d))
    assert err <= rep.abs_error_bound
    assert rep.abs_error_bound <= Decimal(str(tol))


def test_limit_monotone_increasing_in_d():
    vals = [density_limit(d, 1e-12).value for d in range(1, 6)]
    for a, b in zip(vals, vals[1:]):
        assert a < b
    assert vals[-1] < 1


def test_limit_relation_to_zeta():
    # removing the leading factor: limit(d) = limit(d+1) / zeta(d+1)
    l1 = density_limit(1, 1e-14).value
    l2 = density_limit(2, 1e-14).value
    z2 = zeta(2, 1e-14).value
    assert abs(l1 * z2 - l2) < Decimal("1e-12")


def test_limit_domain_errors():
    with pytest.raises(ValueError):
        density_limit(0, 1e-9)
    with pytest.raises(ValueError):
        density_limit(1, -1.0)


def test_density_approaches_limit_as_n_grows():
    lim = density_limit(1, 1e-13).value
    gaps = [abs(density_exact(n - 1, n, 1e-13).value - lim) for n in (3, 5, 8, 12)]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
    assert gaps[-1] < Decimal("1e-3")


@pytest.mark.parametrize("d", [1, 2, 5])
def test_density_at_huge_k_agrees_with_limit(d):
    tol = 1e-12
    exact = density_exact(10**6, 10**6 + d, tol)
    limit = density_limit(d, tol)
    # the two products differ by far less than 2^-1000000 beyond the cutoff
    assert abs(exact.value - limit.value) <= Decimal(tol)
    assert exact.abs_error_bound <= Decimal(tol)
    assert exact.terms["product_cutoff"] == limit.terms["product_cutoff"]
    assert len(exact.terms["zeta_series_cutoffs"]) <= 42


def test_count_full_rank_known_group_orders():
    assert count_full_rank_mod_p(2, 1, 2) == 3
    assert count_full_rank_mod_p(2, 2, 2) == 6  # |GL_2(F_2)|
    assert count_full_rank_mod_p(2, 3, 3) == 168  # |GL_3(F_2)|
    assert count_full_rank_mod_p(3, 2, 2) == 48  # |GL_2(F_3)|
    assert count_full_rank_mod_p(5, 1, 1) == 4


def test_count_full_rank_domain():
    with pytest.raises(ValueError):
        count_full_rank_mod_p(4, 1, 2)
    with pytest.raises(ValueError):
        count_full_rank_mod_p(2, 3, 2)


def test_local_density_examples():
    assert local_density(PrimeSet((2,)), 1, 2) == Fraction(3, 4)
    assert local_density(PrimeSet((3,)), 1, 2) == Fraction(8, 9)
    assert local_density(PrimeSet((2,)), 2, 2) == Fraction(3, 8)
    assert local_density(PrimeSet((2, 3)), 1, 2) == Fraction(2, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_local_density_equals_count_ratio(p):
    # dual route: product over j versus the counting formula
    for k in range(1, 4):
        for n in range(k, 5):
            got = local_density(PrimeSet((p,)), k, n)
            assert got == Fraction(count_full_rank_mod_p(p, k, n), p ** (k * n))


def _local_density_per_factor(s: PrimeSet, k: int, n: int) -> Fraction:
    """The density as one Fraction factor 1 - p^(-j) per (j, p), multiplied
    and reduced one factor at a time."""
    out = Fraction(1)
    for j in range(n - k + 1, n + 1):
        for p in s.primes:
            out *= 1 - Fraction(1, p**j)
    return out


def test_local_density_equals_per_factor_product():
    r = random.Random(4242)
    primes = [p for p in range(2, 400) if is_prime(p)]
    for _ in range(300):
        s = PrimeSet(tuple(sorted(r.sample(primes, r.randint(1, 10)))))
        n = r.randint(1, 14)
        k = r.randint(1, n)
        assert local_density(s, k, n) == _local_density_per_factor(s, k, n)
        p = s.primes[0]
        assert divisibility_defect(p, k, n) == 1 - _local_density_per_factor(PrimeSet((p,)), k, n)


def test_local_density_multiplicative_over_primes():
    s = PrimeSet((2, 3, 5))
    got = local_density(s, 2, 3)
    prod = Fraction(1)
    for p in (2, 3, 5):
        prod *= local_density(PrimeSet((p,)), 2, 3)
    assert got == prod


def test_local_density_converges_to_density():
    # tail of the Euler product: dropping primes > p_t costs less than 2/p_t
    target = density_exact(2, 4, 1e-15).value
    prev = None
    for t in (2, 5, 10, 25):
        s = first_primes(t)
        approx = local_density(s, 2, 4)
        gap = abs(Decimal(approx.numerator) / Decimal(approx.denominator) - target)
        assert gap < Decimal(2) / s.primes[-1]
        if prev is not None:
            assert gap < prev
        prev = gap


def test_divisibility_defect_values_and_identity():
    assert divisibility_defect(2, 1, 2) == Fraction(1, 4)
    for p, k, n in ((2, 1, 2), (3, 2, 3), (5, 2, 4)):
        assert divisibility_defect(p, k, n) == 1 - local_density(PrimeSet((p,)), k, n)


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_divisibility_defect_bound(p):
    # defect < 2/p^2 whenever k < n
    for k in range(1, 4):
        for n in range(k + 1, 6):
            assert divisibility_defect(p, k, n) < Fraction(2, p * p)


def test_prime_set_validation():
    with pytest.raises(ValueError):
        PrimeSet(())
    with pytest.raises(ValueError):
        PrimeSet((4,))
    with pytest.raises(ValueError):
        PrimeSet((3, 2))  # must be strictly increasing
    with pytest.raises(ValueError):
        PrimeSet((2, 2))
    assert PrimeSet.from_iterable([5, 2, 3, 2]).primes == (2, 3, 5)


def test_first_primes():
    assert first_primes(5).primes == (2, 3, 5, 7, 11)
    with pytest.raises(ValueError):
        first_primes(0)


def test_is_prime_against_sieve():
    limit = 500
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(math.isqrt(limit)) + 1):
        if sieve[i]:
            for m in range(i * i, limit + 1, i):
                sieve[m] = False
    for m in range(limit + 1):
        assert is_prime(m) == sieve[m], m


def test_is_prime_against_sympy_below_2_80():
    r = random.Random(20100)
    sample = [r.getrandbits(r.randrange(2, 81)) for _ in range(2000)]
    sample += [sympy.nextprime(r.getrandbits(b)) for b in (20, 40, 64, 79) for _ in range(50)]
    sample += [sympy.nextprime(r.getrandbits(39)) * sympy.nextprime(r.getrandbits(40)) for _ in range(50)]
    # strong pseudoprimes to bases 2, 3, 5, 7 and to bases 2 .. 23, and Carmichael numbers
    sample += [3215031751, 3825123056546413051, 561, 41041, 825265, 321197185]
    for m in sample:
        assert is_prime(m) == sympy.isprime(m), m


def test_is_prime_refuses_the_first_strong_pseudoprime_to_bases_2_to_41():
    psi13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521
    assert is_prime(psi13 - 2) == sympy.isprime(psi13 - 2)
    for m in (psi13, 2**82):
        with pytest.raises(ValueError, match=str(psi13)):
            is_prime(m)
