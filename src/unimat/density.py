"""Densities of unimodular integer matrices, exactly and to specified error.

A k x n integer matrix with k < n extends to a GL_n(Z) matrix with natural
density prod_{j=n-k+1}^{n} zeta(j)^(-1); for k = n the density is exactly 0.
As n -> infinity at fixed codimension d = n - k the density tends to
prod_{j=d+1}^{infinity} zeta(j)^(-1).

Local (mod p) counterparts are exact rationals: over a finite set S of
primes, the density of k x n matrices whose full-rank minors have gcd
coprime to every p in S is prod_{j=n-k+1}^{n} prod_{p in S} (1 - p^(-j)),
which equals prod_{p in S} |F_p| / p^(kn) for the full-rank count
|F_p| = prod_{j=0}^{k-1} (p^n - p^j) over Z/pZ.

zeta(j) is evaluated by Euler-Maclaurin summation with p correction terms:
the series is summed directly below a cutoff N, and the tail from N on is
replaced by its integral, half its first term and p terms built from the
Bernoulli numbers B_2, ..., B_2p, which are computed exactly and cached.
N grows with the number of requested digits only, so the smallest term of
the expansion, about exp(-2 pi N), lies below the tolerance; the expansion
stops at its first term below tol/2, whose absolute value bounds the
remainder (for real j > 1 the remainder has the sign of that term and
smaller size). The cost is therefore polynomial in log(1/tol): about
log10(1/tol)/2 series terms and 0.6 log10(1/tol) correction terms, against
tol^(-1/(j+1)) series terms for a fixed-length expansion.

The densities are products of zeta(j)^(-1) over a range of j, and one
sweep evaluates every factor: all share one working precision and one N,
so m^(-j) and N^(-j) step from j to j + 1 by one multiplication each and
the correction coefficients are converted once. A factor then costs one
multiplication per series term still above the working precision and one
per correction term; zeta(j) alone is the sweep's one-factor case. Every
reported value carries a rigorous absolute error bound at or below the
requested tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True)
class ZetaValue:
    """zeta(j) truncation: value, rigorous absolute error bound, terms used."""

    value: Decimal
    error_bound: Decimal
    terms: int


@dataclass(frozen=True)
class DensityReport:
    """A density value with its rigorous absolute error bound.

    terms records the truncation parameters: per-j zeta series cutoffs and,
    for limits, the cutoff of the infinite product.
    """

    value: Decimal
    abs_error_bound: Decimal
    terms: dict


# Miller-Rabin with the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson & Webster, Math. Comp. 86 (2017)); the bound itself is one.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic primality for m < 3,317,044,064,679,887,385,961,981:
    Miller-Rabin with the prime bases 2..41. Larger m raise ValueError."""
    if m < 2:
        return False
    if m >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {m}")
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSet:
    """A nonempty, strictly increasing tuple of primes."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("prime set must be nonempty")
        for p in self.primes:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"{p} is not prime")
        for a, b in zip(self.primes, self.primes[1:]):
            if b <= a:
                raise ValueError("primes must be strictly increasing")

    @classmethod
    def from_iterable(cls, it: Iterable[int]) -> "PrimeSet":
        return cls(tuple(sorted(set(int(p) for p in it))))


def first_primes(t: int) -> PrimeSet:
    """The first t primes."""
    if t < 1:
        raise ValueError("need at least one prime")
    out: list[int] = []
    m = 2
    while len(out) < t:
        if is_prime(m):
            out.append(m)
        m += 1
    return PrimeSet(tuple(out))


def _tolerance(tol: float | Decimal) -> Decimal:
    """tol as an exact Decimal, after checking it is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return Decimal(tol)


def _working_digits(tol: Decimal) -> int:
    return max(40, 12 - tol.adjusted())


# _BERNOULLI[i] is B_(2i), exactly; _bernoulli grows the list on demand.
_BERNOULLI: list[Fraction] = [Fraction(1)]


def _bernoulli(i: int) -> Fraction:
    """B_(2i), exactly. Past the end of the cache it recomputes the cache to
    at least twice its length from the tangent numbers T_k, which an
    integer recurrence yields (Brent & Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers", 2013):
    B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    if i >= len(_BERNOULLI):
        n = max(i, 2 * len(_BERNOULLI))
        t = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, n + 1):
            for m in range(k, n + 1):
                t[m] = (m - k) * t[m - 1] + (m - k + 2) * t[m]
        _BERNOULLI[1:] = [
            Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n + 1)
        ]
    return _BERNOULLI[i]


def _zeta_sweep(lo: int, hi: int, tol: Decimal) -> tuple[list[Decimal], list[Decimal], int]:
    """zeta(j) for j = lo, ..., hi (2 <= lo <= hi), each with absolute error
    <= tol: the values, their rigorous error bounds, and the series cutoff N
    that every j shares.

    Euler-Maclaurin at the cutoff N:

        zeta(j) = sum_{m<N} m^(-j) + N^(1-j)/(j-1) + N^(-j)/2
                  + sum_{i=1}^{p} T_i + R_p,
        T_i = c_i * j(j+1)...(j+2i-2) * N^(-j),  c_i = B_(2i)/(2i)! * N^(1-2i).

    Every derivative of x^(-j) of even order is positive, so the remainder
    R_p has the sign of T_(p+1) and |R_p| <= |T_(p+1)|. The |T_i| shrink
    by about ((j+2i)/(2 pi N))^2 per step, down to about exp(-2 pi N)
    before they turn to grow; with D = -floor(log10(tol)),
    N = max(10, ceil(D/2)) puts that low point well below tol/2. p is the
    number of terms before the first one at or below tol/2 (about 0.6 D),
    and that term's absolute value is the remainder bound.

    All j share one decimal context of D + 12 digits (at least 40) and one
    N, so the sweep keeps a table of m^(-j) for 2 <= m < N, stepped from j
    to j + 1 by one multiplication with a rounded 1/m each, and N^(-j),
    stepped by one division by N; an m leaves the table once its power is
    below 10^(-digits), and so does the tail once N^(1-j) is, so a huge j
    costs no j-digit integers.
    The c_i become Decimals once per call. One rounding per arithmetic
    operation is at most half a unit u = 10^(1-digits) of a sum below 10,
    so the bound adds u per series term and correction term and 10 u for
    the rest. The stepped powers start within u/2 relative and lose at
    most u per step; their sum stays below 1, so the bound adds 2 u for
    the start and 2 u per step.
    """
    digits = _working_digits(tol)
    n_cut = max(10, math.ceil(-tol.adjusted() / 2))
    log_n = math.log10(n_cut)
    values: list[Decimal] = []
    bounds: list[Decimal] = []
    with localcontext() as ctx:
        ctx.prec = digits
        zero, half, one, big_n = Decimal(0), Decimal("0.5"), Decimal(1), Decimal(n_cut)
        unit, tiny = one.scaleb(1 - digits), one.scaleb(-digits)
        # terms below 10^(-digits) are left out against the rounding allowance;
        # lo enters the float products clamped, which cannot overflow and, as
        # log10(m) >= 0.3 and log_n >= 1, decides every comparison as lo would
        clamped = min(lo, 4 * digits)
        powers = []
        for m in range(2, n_cut):
            if clamped * math.log10(m) >= digits:
                break
            powers.append(one / Decimal(m**lo))
        steps = [one / m for m in range(2, len(powers) + 2)] if hi > lo else []
        # below the threshold the whole tail sum_{m>=N} m^(-j), at most
        # N^(-j) + N^(1-j)/(j-1), is under 2 * 10^(-digits)
        tail = (clamped - 1) * log_n < digits
        if tail:
            power_n = one / Decimal(n_cut**lo)
            threshold = tol / 2 * n_cut**lo  # (tol/2) / N^(-j)
        coeffs: list[Decimal] = []  # c_(i+1) = B_(2i+2) / scale
        scale = 2 * n_cut  # (2i+2)! * N^(2i+1) for i = len(coeffs)
        for j in range(lo, hi + 1):
            if j > lo:
                powers = list(map(operator.mul, powers, steps))
                while powers and powers[-1] < tiny:
                    powers.pop()
                if tail:
                    tail = (j - 1) * log_n < digits
                    power_n /= n_cut
                    threshold *= n_cut
            s = sum(powers, one)
            p = 0
            remainder = zero
            if tail:
                # T_i / N^(-j), summed before one multiplication by N^(-j)
                corrections = big_n / (j - 1) + half
                rising = j  # j(j+1)...(j+2p), updated in step with p
                while True:
                    if p == len(coeffs):
                        b = _bernoulli(p + 1)
                        coeffs.append(Decimal(b.numerator) / Decimal(b.denominator * scale))
                        scale *= (2 * p + 3) * (2 * p + 4) * n_cut * n_cut
                    term = coeffs[p] * rising
                    if abs(term) <= threshold:
                        remainder = abs(term) * power_n
                        break
                    corrections += term
                    p += 1
                    rising *= (j + 2 * p - 1) * (j + 2 * p)
                s += corrections * power_n
            values.append(s)
            bounds.append(remainder + (n_cut + p + 10 + 2 * (j - lo + 1)) * unit)
    return values, bounds, n_cut


def zeta(j: int, tol: float | Decimal) -> ZetaValue:
    """zeta(j) for integer j >= 2 with absolute error <= tol: the one-factor
    case of _zeta_sweep. terms reports its cutoff N."""
    if not isinstance(j, int) or j <= 1:
        raise ValueError(
            f"zeta is evaluated for integer arguments >= 2 only; the series "
            f"diverges at 1 and below (got {j})"
        )
    (value,), (bound,), n_cut = _zeta_sweep(j, j, _tolerance(tol))
    return ZetaValue(value, bound, n_cut)


def _inverse_zeta_product(
    lo: int, hi: int | None, tol: Decimal
) -> tuple[Decimal, Decimal, dict[int, int], int | None]:
    """prod_{j=lo}^{hi} zeta(j)^(-1), hi None for an infinite product; its
    absolute error bound, at most about 3 tol / 4; the zeta series cutoff of
    each evaluated factor; and the product cutoff, None when every factor
    was evaluated.

    Factors past J = max(lo, 40, ceil(log2(1/tol)) + 2) are dropped, so at
    least one is kept and the cost does not grow with hi. Their product lies
    within 2^(1-J) <= tol/2 of 1, because ln zeta(j) <= zeta(j) - 1 <=
    2^(1-j) for j >= 3, and the kept product is at most 1, so the bound
    grows by 2^(1-J).
    """
    digits = _working_digits(tol)
    j_cut = max(lo, 40, math.ceil(-math.log2(tol)) + 2)
    top = j_cut if hi is None else min(hi, j_cut)
    with localcontext() as ctx:
        ctx.prec = digits
        values, bounds, n_cut = _zeta_sweep(lo, top, tol / (4 * (top - lo + 1)))
        cutoffs = dict.fromkeys(range(lo, top + 1), n_cut)
        value = Decimal(1)
        for z in values:
            value /= z
        err_sum = sum(bounds)
        # |1/z^ - 1/z| <= e/(1-e) per factor and factors stay below 1,
        # so errors add; 1.01 absorbs the 1/(1-e) inflation and rounding.
        bound = err_sum * Decimal("1.01") + Decimal(10) ** (8 - digits)
        if top == hi:
            return value, bound, cutoffs, None
        bound += Decimal(2) ** (1 - j_cut)
    return value, bound, cutoffs, j_cut


def density_exact(k: int, n: int, tol: float) -> DensityReport:
    """Density of k x n integer matrices extendable to GL_n(Z).

    Zero exactly for k = n; otherwise prod_{j=n-k+1}^{n} zeta(j)^(-1)
    evaluated with absolute error at most tol. Factors past the cutoff of
    _inverse_zeta_product are folded into the error bound, which then
    reports that cutoff as product_cutoff, so the cost does not grow with k.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    tol = _tolerance(tol)
    if k == n:
        return DensityReport(Decimal(0), Decimal(0), {"zeta_series_cutoffs": {}, "product_cutoff": None})
    value, bound, cutoffs, j_cut = _inverse_zeta_product(n - k + 1, n, tol)
    return DensityReport(value, bound, {"zeta_series_cutoffs": cutoffs, "product_cutoff": j_cut})


def density_limit(d: int, tol: float) -> DensityReport:
    """Limit density at fixed codimension d = n - k as n grows:
    prod_{j=d+1}^{infinity} zeta(j)^(-1), with absolute error <= tol.

    The product is truncated at J = max(d + 1, 40, ceil(log2(1/tol)) + 2),
    the cutoff of _inverse_zeta_product, so it keeps at least one factor.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"codimension must be an integer >= 1, got {d}")
    value, bound, cutoffs, j_cut = _inverse_zeta_product(d + 1, None, _tolerance(tol))
    return DensityReport(value, bound, {"zeta_series_cutoffs": cutoffs, "product_cutoff": j_cut})


def count_full_rank_mod_p(p: int, k: int, n: int) -> int:
    """Number of full-rank k x n matrices over Z/pZ:
    prod_{j=0}^{k-1} (p^n - p^j)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    out = 1
    for j in range(k):
        out *= p**n - p**j
    return out


def local_density(s: PrimeSet, k: int, n: int) -> Fraction:
    """Exact density of k x n matrices, mod the primes in s, whose reduction
    stays full rank at every p in s:
    prod_{j=n-k+1}^{n} prod_{p in s} (1 - p^(-j))."""
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    num = den = 1
    for j in range(n - k + 1, n + 1):
        for p in s.primes:
            q = p**j
            num *= q - 1
            den *= q
    return Fraction(num, den)  # reduced once, not once per factor


def divisibility_defect(p: int, k: int, n: int) -> Fraction:
    """Probability that p divides every full-rank minor:
    1 - prod_{j=n-k+1}^{n} (1 - p^(-j)), exactly."""
    return 1 - local_density(PrimeSet((p,)), k, n)
