"""Empirical checks of the density formulas.

Exhaustive enumeration over boxes, seeded Monte Carlo estimation,
convergence sweeps over growing boxes, and brute-force verification of the
mod-p full-rank counts.

Sampling is counter-addressed: entry e of sample i is draw number
i*k*n + e on [0, 2B) of the stream (see rng), shifted onto [-B, B). Up to
B = 2^63 a draw is the one 64-bit word at counter i*k*n + e, mapped by
multiply-shift; larger bounds take m words per draw. The
sample set is therefore a pure function of (spec, seed); shard boundaries
only partition the index range and can never change what is drawn. Each
shard reads its index range as one sequential stream of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import rng
from .density import PrimeSet, count_full_rank_mod_p, density_exact, is_prime, local_density
from .matrix import IntMatrix, _minor_gcd_of_rows

DEFAULT_BUDGET = 10**8

# domain separation for per-bound sub-seeds in sweeps ("SWEEP-V1")
_SWEEP_SALT = 0x53574545502D5631


class BudgetError(RuntimeError):
    """Enumeration refused: it would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} evaluations but the budget is "
            f"{budget}; raise the budget to at least {required} to proceed"
        )


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
    ents = tuple(x - b for x in rng.draws(seed, index * k * n, k * n, 2 * b))
    return IntMatrix(k, n, ents)


def _count_hits(spec: BoxSpec, seed: int, lo: int, hi: int) -> int:
    """Unimodular samples among samples lo .. hi-1 of the stream."""
    k, n, b = spec.k, spec.n, spec.bound
    kn = k * n
    # entries x - b, grouped kn at a time into samples
    ents = map(b.__rsub__, rng.draws(seed, lo * kn, (hi - lo) * kn, 2 * b))
    samples = zip(*[ents] * kn)
    hits = 0
    if k == 1:
        gcd = math.gcd
        for s in samples:
            if gcd(*s) == 1:
                hits += 1
        return hits
    for s in samples:
        if _minor_gcd_of_rows(s, k, n) == 1:
            hits += 1
    return hits


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


def estimate_density(spec: BoxSpec, samples: int, seed: int, shards: int = 1) -> EstimateReport:
    """Monte Carlo density estimate over the box from seeded samples."""
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    hits = 0
    for s in range(shards):
        lo = samples * s // shards
        hi = samples * (s + 1) // shards
        hits += _count_hits(spec, seed, lo, hi)
    return _estimate_report(spec, samples, hits, seed, shards)


def exhaustive_density(spec: BoxSpec, budget: int = DEFAULT_BUDGET) -> ExhaustiveReport:
    """Exact density over the box by enumerating all (2B)^(kn) matrices."""
    total = spec.total
    if total > budget:
        raise BudgetError(total, budget)
    k, n, b = spec.k, spec.n, spec.bound
    hits = 0
    gcd = math.gcd
    if k == 1:
        for flat in product(range(-b, b), repeat=n):
            if gcd(*flat) == 1:
                hits += 1
    else:
        for flat in product(range(-b, b), repeat=k * n):
            if _minor_gcd_of_rows(flat, k, n) == 1:
                hits += 1
    return ExhaustiveReport(spec, total, hits, Fraction(hits, total))


def convergence_sweep(
    k: int,
    n: int,
    bounds: tuple[int, ...],
    samples: int,
    seed: int,
    shards: int = 1,
) -> list[EstimateReport]:
    """One estimate per bound, all driven by one base seed.

    Bound number t uses the derived sub-seed word(seed ^ SWEEP_SALT, t), so
    runs are reproducible yet uncorrelated across bounds. Boxes with no more
    matrices than the sample budget are enumerated exactly instead of
    sampled (their rows then carry samples = (2B)^(kn) and an exact
    estimate).
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
    reports = []
    for idx, bound in enumerate(bounds):
        spec = BoxSpec(k, n, bound)
        sub = rng.derive_seed(seed, idx, _SWEEP_SALT)
        if spec.total <= samples:
            ex = exhaustive_density(spec, budget=samples)
            reports.append(_estimate_report(spec, ex.total, ex.hits, sub, shards))
        else:
            reports.append(estimate_density(spec, samples, sub, shards))
    return reports


def _full_rank_mod_p(flat: tuple[int, ...], k: int, n: int, p: int) -> bool:
    """Rank of a k x n matrix over Z/pZ equals k? Entries arrive in [0, p)."""
    if k == 1:
        return any(flat)
    m = [list(flat[t * n : (t + 1) * n]) for t in range(k)]
    need = k
    row = 0
    for c in range(n):
        if need > n - c:
            return False
        pr = -1
        for rr in range(row, k):
            if m[rr][c]:
                pr = rr
                break
        if pr < 0:
            continue
        m[row], m[pr] = m[pr], m[row]
        inv = pow(m[row][c], -1, p)
        mrow = m[row]
        for rr in range(row + 1, k):
            f = (m[rr][c] * inv) % p
            if f:
                mrr = m[rr]
                for cc in range(c, n):
                    mrr[cc] = (mrr[cc] - f * mrow[cc]) % p
        row += 1
        need -= 1
        if need == 0:
            return True
    return False


def verify_local_density(p: int, k: int, n: int, budget: int = DEFAULT_BUDGET) -> LocalDensityCheck:
    """Census of all p^(kn) matrices over Z/pZ against the closed forms.

    Counts full-rank matrices by Gaussian elimination (no formula on the
    counting side) and compares both the count and the resulting exact
    fraction with count_full_rank_mod_p and local_density.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = p ** (k * n)
    if total > budget:
        raise BudgetError(total, budget)
    counted = 0
    for flat in product(range(p), repeat=k * n):
        if _full_rank_mod_p(flat, k, n, p):
            counted += 1
    expected = count_full_rank_mod_p(p, k, n)
    empirical = Fraction(counted, total)
    formula = local_density(PrimeSet((p,)), k, n)
    return LocalDensityCheck(
        p, k, n, total, counted, expected, empirical, formula,
        counted == expected and empirical == formula,
    )
