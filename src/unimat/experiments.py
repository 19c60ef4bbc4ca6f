"""Empirical checks of the density formulas.

Exact censuses over boxes, seeded Monte Carlo estimation, convergence
sweeps over growing boxes, and an enumerated census of the mod-p full-rank
counts.

A row box (k = 1) is counted by Moebius inversion over the gcd of the
row, with no enumeration. The censuses of k >= 2 boxes and of matrices
mod p enumerate the first rows of a matrix (the prefix), key the prefix
by an exact invariant that decides how many last rows complete it, and
count those last rows once per key. A box prefix is enumerated as a
weighted multiset of columns, and its last rows are counted by folding
the gcd over value lists of the whole last-row box. A row v over Z/pZ is
coded as the integer sum v_i p^(n-1-i), so a mod-p prefix keeps its span
as a set of ints, each candidate row is one lookup of an int, and the
prefix is extended once per wider span. Every count is exact.

Sampling is counter-addressed: entry e of sample i is draw number
i*k*n + e on [0, 2B) of the stream (see rng), shifted onto [-B, B). Up to
B = 2^63 a draw is the one 64-bit word at counter i*k*n + e, mapped by
multiply-shift; larger bounds take m words per draw. The
sample set is therefore a pure function of (spec, seed); shard boundaries
only partition the index range and can never change what is drawn, so the
estimators read the whole range as one sequential stream of draws.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, compress, filterfalse, product
from operator import countOf

from . import rng
from .density import PrimeSet, count_full_rank_mod_p, density_exact, is_prime, local_density
from .matrix import IntMatrix, _minor_gcd_kernel, _minors_kernel

DEFAULT_BUDGET = 10**8

# domain separation for per-bound sub-seeds in sweeps ("SWEEP-V1")
_SWEEP_SALT = 0x53574545502D5631


class BudgetError(RuntimeError):
    """Enumeration or sampling refused: it would exceed the configured budget.

    `name` and `power` state the amount of work, as in "(2B)^(kn)" and
    "2^9000000", counted in `unit`s: matrices enumerated, or entries drawn
    for sampling. `required` is that number when it was built, and None
    when bit lengths alone decided the refusal.
    """

    def __init__(
        self, required: int | None, budget: int, name: str, power: str,
        work: str = "enumeration", unit: str = "matrices",
    ):
        self.required = required
        self.budget = budget
        least = power if required is None else _int_text(required)
        need = f"{name} = {power}" if required is None else f"{name} = {power} = {least}"
        super().__init__(
            f"{work} needs {need} {unit} but the budget is "
            f"{_int_text(budget)}; raise the budget to at least {least} to proceed"
        )


# integers up to this many bits are printed in decimal, well inside Python's
# default limit of 4,300 digits for converting an integer to a string
_TEXT_BITS = 4096


def _int_text(x: int) -> str:
    """x in decimal, or its size as a power of 2 when x is longer."""
    return str(x) if x.bit_length() <= _TEXT_BITS else f"(about 2^{x.bit_length() - 1})"


def _budgeted(base: int, exponent: int, budget: int, name: str) -> int:
    """The number base^exponent (base >= 2) of matrices to enumerate, or
    BudgetError when it exceeds the budget.

    Since base^exponent >= 2^(exponent * (bitlen(base) - 1)), a power past
    both the budget's bits and _TEXT_BITS is refused without being built;
    a power that is built has at most about twice those bits.
    """
    power = f"{_int_text(base)}^{_int_text(exponent)}"
    if exponent * (base.bit_length() - 1) >= max(budget.bit_length(), _TEXT_BITS):
        raise BudgetError(None, budget, name, power)
    total = base**exponent
    if total > budget:
        raise BudgetError(total, budget, name, power)
    return total


def _check_draws(samples: int, k: int, n: int, budget: int) -> None:
    """BudgetError unless samples k x n matrices, samples * k * n entries,
    fit the budget."""
    entries = samples * k * n
    if entries > budget:
        power = f"{_int_text(samples)}*{_int_text(k)}*{_int_text(n)}"
        raise BudgetError(entries, budget, "samples*k*n", power, "sampling", "entries")


@dataclass(frozen=True)
class BoxSpec:
    """Sampling box: k x n integer matrices, entries uniform on [-bound, bound)."""

    k: int
    n: int
    bound: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")

    @property
    def total(self) -> int:
        """Number of matrices in the box: (2*bound)^(k*n)."""
        return (2 * self.bound) ** (self.k * self.n)


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimate. A pure function of its inputs: no clock, no
    hidden entropy, so repeated runs are bit-identical.

    std_error is sqrt(p*(1-p)/samples) at p = estimate; theory_value is the
    density evaluated to 1e-12; z_score is None when std_error is 0 and the
    estimate differs from theory (nothing to standardize by).
    """

    spec: BoxSpec
    samples: int
    hits: int
    estimate: float
    std_error: float
    seed: int
    shards: int
    theory_value: float
    z_score: float | None


@dataclass(frozen=True)
class ExhaustiveReport:
    """Exact census of a box: hits and density as an exact fraction."""

    spec: BoxSpec
    total: int
    hits: int
    density: Fraction


@dataclass(frozen=True)
class LocalDensityCheck:
    """Brute-force census over Z/pZ against the closed-form count."""

    p: int
    k: int
    n: int
    total: int
    counted: int
    expected_count: int
    empirical: Fraction
    formula: Fraction
    matches: bool


@lru_cache(maxsize=None)
def _theory(k: int, n: int) -> float:
    return float(density_exact(k, n, 1e-12).value)


def sample_matrix(spec: BoxSpec, seed: int, index: int) -> IntMatrix:
    """Sample number `index` of the stream: the same matrix the estimators see."""
    k, n, b = spec.k, spec.n, spec.bound
    return IntMatrix(k, n, tuple(rng.signed_draws(seed, index * k * n, k * n, b)))


def _count_hits(spec: BoxSpec, seed: int, lo: int, hi: int) -> int:
    """Unimodular samples among samples lo .. hi-1 of the stream."""
    k, n, b = spec.k, spec.n, spec.bound
    kn = k * n
    ents = rng.signed_draws(seed, lo * kn, (hi - lo) * kn, b)
    if k == 1:
        return countOf(map(math.gcd, *[ents] * n), 1)
    return countOf(map(_minor_gcd_kernel(k, n), zip(*[ents] * kn)), 1)


def _estimate_report(
    spec: BoxSpec, samples: int, hits: int, seed: int, shards: int
) -> EstimateReport:
    est = hits / samples
    se = math.sqrt(est * (1 - est) / samples)
    theory = _theory(spec.k, spec.n)
    if se > 0:
        z: float | None = (est - theory) / se
    else:
        z = 0.0 if est == theory else None
    return EstimateReport(spec, samples, hits, est, se, seed, shards, theory, z)


def estimate_density(
    spec: BoxSpec, samples: int, seed: int, shards: int = 1, budget: int = DEFAULT_BUDGET
) -> EstimateReport:
    """Monte Carlo density estimate over the box from seeded samples.

    Shards only partition the sample range and never change what is
    drawn, so the range is counted once and `shards` is only reported.
    Refuses with BudgetError, before drawing, when samples * k * n entries
    exceed the budget.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    _check_draws(samples, spec.k, spec.n, budget)
    return _estimate_report(spec, samples, _count_hits(spec, seed, 0, samples), seed, shards)


def exhaustive_density(spec: BoxSpec, budget: int = DEFAULT_BUDGET) -> ExhaustiveReport:
    """Exact density over the box: every one of its (2B)^(kn) matrices is
    counted, by Moebius inversion in O(B) steps for k = 1 (_row_hits) or
    by the prefix census of _box_hits for k >= 2. The budget bounds the
    (2B)^(kn) matrices counted, whichever way they are counted."""
    k, n, b = spec.k, spec.n, spec.bound
    total = _budgeted(2 * b, k * n, budget, "(2B)^(kn)")
    hits = _row_hits(n, b) if k == 1 else _box_hits(k, n, b)
    return ExhaustiveReport(spec, total, hits, Fraction(hits, total))


def _row_hits(n: int, b: int) -> int:
    """Coprime vectors in [-b, b)^n, by Moebius inversion over their gcd.

    The nonzero vectors of the box with every entry divisible by d number
    c_d^n - 1, where c_d = (b - 1) // d + b // d + 1 counts the multiples of
    d in [-b, b). Inverting over d <= b, the largest |entry|, gives
    sum mu(d) * (c_d^n - 1) in O(b) steps. For n = 1 only x = +-1 count,
    and +1 lies in the box iff b >= 2, so no sieve is built.
    """
    if n == 1:
        return 2 if b >= 2 else 1
    return sum(m * (((b - 1) // d + b // d + 1) ** n - 1) for d, m in enumerate(_mobius(b)) if m)


# one byte of sieve state per d: bit 0 is the parity of the number of
# distinct primes dividing d, bit 1 is set once a square of a prime does
_FLIP_PARITY = bytes(s ^ 1 for s in range(256))
_MARK_SQUARE = bytes(s | 2 for s in range(256))
_STATE_TO_MU = bytes((1, 255, 0, 0)) + bytes(252)  # 255 reads as -1 in array("b")


def _mobius(b: int) -> array:
    """mu(0), ..., mu(b) as signed bytes, with mu(0) = 0.

    A sieve of Eratosthenes finds the primes p <= b; each one then updates
    the states of its multiples and of the multiples of p^2 by one slice
    translate, so the loop in Python runs once per prime, not once per d.
    """
    prime = bytearray([1]) * (b + 1)
    prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(b) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, b + 1, p)))
    state = bytearray(b + 1)
    for p in compress(range(b + 1), prime):
        state[p::p] = state[p::p].translate(_FLIP_PARITY)
        state[p * p :: p * p] = state[p * p :: p * p].translate(_MARK_SQUARE)
    mu = array("b", state.translate(_STATE_TO_MU))
    mu[0] = 0
    return mu


@lru_cache(maxsize=64)
def _laplace_plan(k: int, n: int) -> tuple[tuple, ...]:
    """Last-row Laplace expansion of the k-minors of a k x n matrix
    (2 <= k <= n) whose first k - 1 rows are a prefix P and last row is r.

    The (k-1)-minors c_S of P, over the (k-1)-column subsets S in
    lexicographic order, are its Pluecker vector c (_minors_kernel). The
    plan has one entry per k-column subset T: the k-minor on T is
    sum(s * c[i] * r[j]) over its triples (j, s, i), where j runs over T,
    i indexes S = T - {j}, and s is the cofactor sign (-1)^(k-1+t) of j's
    position t in T.
    """
    index = {cols: i for i, cols in enumerate(combinations(range(n), k - 1))}
    return tuple(
        tuple(
            (j, (-1) ** (k - 1 + t), index[cols[:t] + cols[t + 1 :]])
            for t, j in enumerate(cols)
        )
        for cols in combinations(range(n), k)
    )


def _box_hits(k: int, n: int, b: int) -> int:
    """Unimodular k x n matrices in [-b, b)^(kn), 2 <= k <= n.

    Enumerates the prefixes P of k - 1 rows as sorted multisets of columns:
    permuting the columns of [P; r] jointly maps the box to itself and
    keeps the minor gcd, so a multiset with column multiplicities m_i
    stands for its n! / prod(m_i!) arrangements. Negating P changes only
    the signs of its (k-1)-minors and reverses its sorted columns, so a
    multiset and its negation, reversed, share one key (even when the
    negation leaves the box, since only the minors are read).

    By Laplace expansion along the last row r, every k-minor of [P; r] is a
    linear form a . r whose coefficients are +-c_S, the (k-1)-minors of P
    (see _laplace_plan). So the number of good last rows depends on P only
    through its Pluecker vector c; the weights are summed per c. It is 0
    unless gcd(c) = 1, since gcd(c) divides every k-minor. The last rows
    are counted once per set of nonzero forms, each taken up to sign,
    since only |a . r| enters the gcd. When some c_S is +-1, only the
    n - k + 1 forms on the column sets T that contain S are taken: they
    generate every form over Z, since over Z, P is row-equivalent to a
    prefix that is the identity on S, and every integer form that vanishes
    on its rows is an integer combination of the minors on S + {j}, which
    are r_j minus a form in the coordinates of S.

    For k < n the forms' gcd is folded over the whole last-row box
    (_gcd_hits). For k = n the one form is the cofactor vector a, with
    det [P; r] = a . r, and one coordinate of r is solved for (_det_hits);
    a is also sorted, since the box is symmetric under permuting the
    coordinates of r. Negating a single coordinate is not exact, because
    [-b, b) is not symmetric.
    """
    plan = _laplace_plan(k, n)
    through = [[t for t in plan if any(i == s for *_, i in t)] for s in range(math.comb(n, k - 1))]
    plucker = _minors_kernel(k - 1, n)
    gcd = math.gcd
    fact = [math.factorial(m) for m in range(n + 1)]
    columns = list(product(range(-b, b), repeat=k - 1))
    negated = {col: tuple(-x for x in col) for col in columns}
    weights: Counter = Counter()
    for cols in combinations_with_replacement(columns, n):
        cols = min(cols, tuple(map(negated.__getitem__, reversed(cols))))
        c = plucker(sum(zip(*cols), ()))
        if gcd(*c) == 1:
            w = fact[n]
            for col in set(cols):
                w //= fact[cols.count(col)]
            weights[c] += w
    by_forms: Counter = Counter()
    for c, w in weights.items():
        unit = next((i for i, x in enumerate(c) if x in (1, -1)), None)
        forms = set()
        for terms in plan if unit is None else through[unit]:
            a = [0] * n
            for j, s, i in terms:
                a[j] = s * c[i]
            neg = [-x for x in a]
            if k == n:
                a.sort()
                neg.sort()
            forms.add(max(tuple(a), tuple(neg)))
        forms.discard((0,) * n)
        by_forms[frozenset(forms)] += w
    return sum(w * (_det_hits(*f, b) if k == n else _gcd_hits(f, b)) for f, w in by_forms.items())


def _form_values(a: tuple[int, ...], b: int) -> list[int]:
    """a . r for every r in [-b, b)^n, in product order, built one
    coordinate at a time by list comprehensions."""
    vals = [0]
    for aj in a:
        steps = [aj * x for x in range(-b, b)]
        vals = [v + s for v in vals for s in steps]
    return vals


def _gcd_hits(forms: frozenset, b: int) -> int:
    """Rows r in [-b, b)^n with gcd over the (at least two) forms a of
    a . r equal to 1: the value lists of the forms are folded by gcd over
    the whole box at once, keeping two lists of (2b)^n values alive."""
    first, *rest = forms
    g = _form_values(first, b)
    for a in rest:
        g = list(map(math.gcd, g, _form_values(a, b)))
    return countOf(g, 1)


def _det_hits(a: tuple[int, ...], b: int) -> int:
    """Rows r in [-b, b)^n with a . r = +-1, for a with some a_j != 0: the
    values s of the other coordinates' form are tallied once, and r_j is
    solved for, as the x in [-b, b) with s = +-1 - a_j * x."""
    j = max(range(len(a)), key=lambda i: abs(a[i]))
    tally = Counter(_form_values(a[:j] + a[j + 1 :], b))
    return sum(tally[t - a[j] * x] for t in (1, -1) for x in range(-b, b))


def convergence_sweep(
    k: int,
    n: int,
    bounds: tuple[int, ...],
    samples: int,
    seed: int,
    shards: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> list[EstimateReport]:
    """One estimate per bound, all driven by one base seed.

    Bound number t uses the derived sub-seed word(seed ^ SWEEP_SALT, t), so
    runs are reproducible yet uncorrelated across bounds. Boxes with no more
    matrices than the sample budget are enumerated exactly instead of
    sampled (their rows then carry samples = (2B)^(kn) and an exact
    estimate). Refuses with BudgetError, before any bound is drawn or
    enumerated, when one estimate's samples * k * n entries exceed the
    budget.
    """
    if not bounds:
        raise ValueError("need at least one bound")
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            raise ValueError("bounds must be strictly increasing")
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    _check_draws(samples, k, n, budget)
    reports = []
    for idx, bound in enumerate(bounds):
        spec = BoxSpec(k, n, bound)
        sub = rng.derive_seed(seed, idx, _SWEEP_SALT)
        try:
            ex = exhaustive_density(spec, budget=samples)
        except BudgetError:
            reports.append(estimate_density(spec, samples, sub, shards, budget))
        else:
            reports.append(_estimate_report(spec, ex.total, ex.hits, sub, shards))
    return reports


def verify_local_density(p: int, k: int, n: int, budget: int = DEFAULT_BUDGET) -> LocalDensityCheck:
    """Census of all p^(kn) matrices over Z/pZ against the closed forms.

    Counts full-rank matrices row by row (no formula on the counting side,
    see _independent_rows) and compares both the count and the resulting
    exact fraction with count_full_rank_mod_p and local_density.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = _budgeted(p, k * n, budget, "p^(kn)")
    counted = _independent_rows({0}, k, n, p)
    expected = count_full_rank_mod_p(p, k, n)
    empirical = Fraction(counted, total)
    formula = local_density(PrimeSet((p,)), k, n)
    return LocalDensityCheck(
        p, k, n, total, counted, expected, empirical, formula,
        counted == expected and empirical == formula,
    )


def _independent_rows(span: set[int], left: int, n: int, p: int) -> int:
    """Ways to append `left` rows over Z/pZ to an independent prefix whose
    F_p-combinations are `span`, keeping the rows independent.

    A row v is coded as the integer sum v_i p^(n-1-i), so the p^n candidate
    rows are range(p^n), in the order of product(range(p), repeat=n), and
    each costs one set lookup: it is independent of the prefix iff its code
    lies outside the span. A taken row v's wider span W is built by adding
    v to every code of the previous coset span + (c - 1) * v (_add_codes),
    never from |span| = p^t. Every row of W outside the span gives the same
    W, so W is built once, its rows are marked done, and its count is
    multiplied by |W| - |span|, the number of rows that give it.
    """
    rows = range(p**n)
    if left == 1:
        return countOf(map(span.__contains__, rows), False)
    count = 0
    done = set(span)
    for v in filterfalse(done.__contains__, rows):
        wider = set(span)
        coset = span
        for _ in range(p - 1):
            coset = [_add_codes(s, v, p) for s in coset]
            wider.update(coset)
        done |= wider
        count += (len(wider) - len(span)) * _independent_rows(wider, left - 1, n, p)
    return count


def _add_codes(a: int, b: int, p: int) -> int:
    """Code of the digitwise sum mod p of the rows coded a and b.

    a + b adds the digits without reduction, so the sum is a + b less
    p^(e+1) for every digit p^e where the two digits reach p. Once a or b
    has no digit left, no further digit can reach p.
    """
    total = a + b
    place = p
    while a and b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        if x + y >= p:
            total -= place
        place *= p
    return total
