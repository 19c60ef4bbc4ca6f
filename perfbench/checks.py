"""Output checks for the benchmark, written independently of unimat.

Every check re-derives what it needs with its own arithmetic (fraction-free
determinants, products, the README's definition of the random stream) or
compares with reference values stored in refs.json, which make_refs.py
computed with mpmath and brute force. Nothing here imports unimat, so a
defect in the program cannot hide the same defect in its check.

A check returns None when the output is right and a one-line reason when it
is wrong. classify() turns an Outcome into a verdict:

    "ok"            the output passed its check
    "known:<name>"  it failed in the way a documented defect of the seed
                    commit fails (see KNOWN_DEFECTS)
    "fail:<reason>" any other failure
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

# Exit codes the CLI documents; anything else is a failure by itself.
DOCUMENTED_EXITS = (0, 2, 3, 4)

# Band for Monte Carlo z-scores on any seed. |z| > 5 happens with probability
# below 6e-7 per request when the estimator is right.
Z_BAND = 5.0

@dataclass
class Outcome:
    """What one request did: exit code or raised exception, captured output."""

    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    exc: BaseException | None = None
    timed_out: bool = False
    value: Any = None  # result of a direct library call
    seconds: float = 0.0

    def fingerprint(self) -> tuple:
        """What must repeat exactly when the same request runs again."""
        exc = None if self.exc is None else type(self.exc).__name__
        return (self.code, self.stdout, exc, self.timed_out, repr(self.value))


Check = Callable[[Outcome], "str | None"]


def classify(out: Outcome, check: Check, known: tuple[str, ...] = ()) -> str:
    """Verdict for an outcome: the check's result, mapped onto known defects."""
    reason = _reason(out, check)
    if reason is None:
        return "ok"
    for name in known:
        if KNOWN_DEFECTS[name](out):
            return f"known:{name}"
    return f"fail:{reason}"


def _reason(out: Outcome, check: Check) -> str | None:
    if out.timed_out:
        return "missed its deadline"
    if out.exc is not None:
        return f"raised {type(out.exc).__name__}: {out.exc}"
    if out.code is not None and out.code not in DOCUMENTED_EXITS:
        return f"undocumented exit code {out.code}"
    try:
        return check(out)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def _over_limit(out: Outcome) -> bool:
    return out.code == 2 and "integer string conversion" in out.stderr


def _zero_hits(out: Outcome) -> bool:
    try:
        return out.code == 0 and json.loads(out.stdout)["hits"] == "0"
    except (ValueError, KeyError, TypeError):
        return False


# The documented defects of the seed commit, each told by how it fails.
KNOWN_DEFECTS: dict[str, Callable[[Outcome], bool]] = {
    # analyze exits 2 after computing a result that has an entry past
    # Python's 4,300-digit int-to-str limit
    "over_limit": _over_limit,
    # limit --d 42 raises an uncaught ZeroDivisionError
    "limit_zero_division": lambda out: isinstance(out.exc, ZeroDivisionError),
    # estimate with a bound of 2^70 returns 0 hits
    "huge_bound_zero_hits": _zero_hits,
    # density --tol 1e-30 runs past its deadline
    "zeta_hang": lambda out: out.timed_out,
}


# ----------------------------------------------------------------------------
# exact integer arithmetic, independent of unimat


def det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def minor_gcd(rows: list[list[int]]) -> int:
    """gcd of every k x k minor, by a full scan over column subsets."""
    k, n = len(rows), len(rows[0])
    g = 0
    for cols in combinations(range(n), k):
        g = math.gcd(g, det([[r[c] for c in cols] for r in rows]))
    return g


def ints(matrix: list[list[str]]) -> list[list[int]]:
    return [[int(e) for e in row] for row in matrix]


# ----------------------------------------------------------------------------
# analyze


def _hnf_pivots(h: list[list[int]]) -> list[int] | str:
    """Pivot values of a canonical column-Hermite form, or why it is not one.

    Rows are read bottom-up; a row that is not zero on the columns still
    free has its pivot in the rightmost free column, positive, with zeros to
    its left and entries to its right reduced into [0, pivot).
    """
    n = len(h[0])
    pc = n - 1
    pivots = []
    for i in range(len(h) - 1, -1, -1):
        row = h[i]
        if pc < 0 or not any(row[: pc + 1]):
            continue
        if any(row[:pc]):
            return f"row {i} has a nonzero entry left of column {pc}"
        p = row[pc]
        if p <= 0:
            return f"pivot of row {i} is {p}, not positive"
        for j in range(pc + 1, n):
            if not 0 <= row[j] < p:
                return f"H[{i}][{j}] = {row[j]} is not reduced modulo pivot {p}"
        pivots.append(p)
        pc -= 1
    return pivots


def check_hnf(a: list[list[int]], g: int, payload: dict) -> str | None:
    h, u = ints(payload["H"]), ints(payload["U"])
    if matmul(h, u) != a:
        return "H @ U != A"
    d = det(u)
    if d not in (1, -1) or int(payload["det_U"]) != d:
        return f"det U is {d}, reported {payload['det_U']}"
    pivots = _hnf_pivots(h)
    if isinstance(pivots, str):
        return pivots
    k = len(a)
    if g == 0:
        if len(pivots) >= k:
            return f"rank-deficient input gave {len(pivots)} pivots"
    elif len(pivots) != k or math.prod(pivots) != g:
        return f"pivot product {math.prod(pivots)} != minor gcd {g}"
    if payload["trivial"] != (g == 1):
        return f"trivial={payload['trivial']} for minor gcd {g}"
    return None


def check_snf(a: list[list[int]], g: int, payload: dict) -> str | None:
    s, l, r = ints(payload["S"]), ints(payload["L"]), ints(payload["R"])
    if matmul(matmul(l, a), r) != s:
        return "L @ A @ R != S"
    if det(l) not in (1, -1) or det(r) not in (1, -1):
        return "L or R is not unimodular"
    k, n = len(s), len(s[0])
    factors = [int(d) for d in payload["invariant_factors"]]
    t = len(factors)
    want = {(k - t + i, n - t + i): d for i, d in enumerate(factors)}
    for i in range(k):
        for j in range(n):
            if s[i][j] != want.get((i, j), 0):
                return f"S[{i}][{j}] = {s[i][j]} breaks the Smith placement"
    if any(d <= 0 for d in factors):
        return "an invariant factor is not positive"
    if any(b % a_ for a_, b in zip(factors, factors[1:])):
        return "invariant factors do not form a divisibility chain"
    if g == 0:
        if t >= k:
            return f"rank-deficient input gave {t} invariant factors"
    elif t != k or math.prod(factors) != g:
        return f"product of invariant factors != minor gcd {g}"
    return None


def check_analyze(mode: str, a: list[list[int]], g: int) -> Check:
    """Check for `analyze --mode mode` on matrix a whose minor gcd is g."""

    def check(out: Outcome) -> str | None:
        if mode == "complete" and g != 1:
            if out.code != 3:
                return f"exit {out.code} for a matrix with minor gcd {g}, want 3"
            payload = json.loads(out.stdout)
            if payload["error"] != "not_unimodular" or int(payload["minor_gcd"]) != g:
                return f"refusal reports minor gcd {payload.get('minor_gcd')}, want {g}"
            return None
        if out.code != 0:
            return f"exit {out.code}, want 0"
        payload = json.loads(out.stdout)
        if (payload["rows"], payload["cols"]) != (len(a), len(a[0])):
            return "shape echoed wrongly"
        if mode == "unimodular":
            if int(payload["minor_gcd"]) != g or payload["unimodular"] != (g == 1):
                return f"minor gcd {payload['minor_gcd']}, want {g}"
            return None
        if mode == "hnf":
            return check_hnf(a, g, payload)
        if mode == "snf":
            return check_snf(a, g, payload)
        m = ints(payload["completion"])
        if m[len(m) - len(a):] != a:
            return "completion does not keep A as its last rows"
        if det(m) not in (1, -1):
            return "completion is not unimodular"
        return None

    return check


# ----------------------------------------------------------------------------
# Monte Carlo estimates

_MASK64 = (1 << 64) - 1


def stream_word(seed: int, counter: int) -> int:
    """Word `counter` of the splitmix64 stream, as the README defines it."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_hits(k: int, n: int, bound: int, samples: int, seed: int) -> int:
    """Unimodular samples among the first `samples` of the README stream."""
    r = 2 * bound
    hits = 0
    for i in range(samples):
        e = [(stream_word(seed, i * k * n + t) * r >> 64) - bound for t in range(k * n)]
        hits += minor_gcd([e[t * n : (t + 1) * n] for t in range(k)]) == 1
    return hits


def check_estimate(
    k: int, n: int, bound: int, samples: int, seed: int, theory: float, hits: int | None
) -> Check:
    """Check for an estimate; `hits` is the recorded reference, or None."""

    def check(out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit {out.code}, want 0"
        p = json.loads(out.stdout)
        echoed = (p["k"], p["n"], int(p["bound"]), p["samples"], int(p["seed"]))
        if echoed != (k, n, bound, samples, seed):
            return f"arguments echoed as {echoed}"
        h = int(p["hits"])
        if not 0 <= h <= samples or p["estimate"] != h / samples:
            return f"estimate {p['estimate']} does not match hits {h}"
        if abs(p["theory_value"] - theory) > 1e-12:
            return f"theory_value {p['theory_value']}, want {theory}"
        if hits is not None and h != hits:
            return f"hits {h}, reference stream gives {hits}"
        est = h / samples
        se = math.sqrt(est * (1 - est) / samples)
        if se == 0 or abs(est - theory) / se > Z_BAND:
            return f"hits {h} of {samples} lie outside |z| <= {Z_BAND} of {theory:.6f}"
        return None

    return check


# ----------------------------------------------------------------------------
# densities


def check_density_value(ref: str, tol: float) -> Check:
    """|value - ref| <= abs_error_bound <= tol, with ref from mpmath."""

    def check(out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit {out.code}, want 0"
        p = json.loads(out.stdout)
        with localcontext() as ctx:
            ctx.prec = 60
            value, bound = Decimal(p["value"]), Decimal(p["abs_error_bound"])
            if bound > Decimal(tol):
                return f"error bound {bound} exceeds tol {tol}"
            if abs(value - Decimal(ref)) > bound:
                return f"value {value} is off the reference by more than {bound}"
        return None

    return check


def full_rank_count(p: int, k: int, n: int) -> int:
    """Full-rank k x n matrices over F_p: choose each row outside the span
    of the rows above it."""
    return math.prod(p**n - p**j for j in range(k))


def local_density(primes: list[int], k: int, n: int) -> Fraction:
    """prod over p of |full-rank k x n matrices over F_p| / p^(kn)."""
    out = Fraction(1)
    for p in primes:
        out *= Fraction(full_rank_count(p, k, n), p ** (k * n))
    return out


def check_local(primes: list[int], k: int, n: int) -> Check:
    def check(out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit {out.code}, want 0"
        q = local_density(primes, k, n)
        got = json.loads(out.stdout)["density"]
        if got != f"{q.numerator}/{q.denominator}":
            return f"local density {got}, want {q}"
        return None

    return check


# ----------------------------------------------------------------------------
# census


def coprime_pairs(bound: int) -> int:
    """Pairs in [-B, B)^2 with gcd 1, by Moebius inversion over d | gcd."""
    mu = [1] * (bound + 1)
    prime = [True] * (bound + 1)
    for p in range(2, bound + 1):
        if prime[p]:
            for m in range(p, bound + 1, p):
                prime[m] = m == p
                mu[m] = -mu[m]
            for m in range(p * p, bound + 1, p * p):
                mu[m] = 0
    total = 0
    for d in range(1, bound + 1):
        multiples = (bound - 1) // d + bound // d + 1  # multiples of d in [-B, B)
        total += mu[d] * (multiples * multiples - 1)  # minus the pair (0, 0)
    return total


def check_exhaustive(k: int, n: int, bound: int, hits: int) -> Check:
    def check(out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit {out.code}, want 0"
        p = json.loads(out.stdout)
        total = (2 * bound) ** (k * n)
        q = Fraction(hits, total)
        want = (str(total), str(hits), f"{q.numerator}/{q.denominator}")
        if (p["total"], p["hits"], p["density"]) != want:
            return f"census {p['total']}/{p['hits']}/{p['density']}, want {want}"
        return None

    return check


def check_sweep(k: int, n: int, hits_by_bound: dict[int, int]) -> Check:
    """Every row of an enumerated sweep must repeat the exhaustive census."""

    def check(out: Outcome) -> str | None:
        if out.code != 0:
            return f"exit {out.code}, want 0"
        rows = json.loads(out.stdout)["rows"]
        got = {int(r["bound"]): (r["samples"], int(r["hits"])) for r in rows}
        want = {b: ((2 * b) ** (k * n), h) for b, h in hits_by_bound.items()}
        if got != want:
            return f"sweep rows {got}, exhaustive census gives {want}"
        return None

    return check


def check_local_census(p: int, k: int, n: int) -> Check:
    """Check for a direct verify_local_density(p, k, n) call."""

    def check(out: Outcome) -> str | None:
        r = out.value
        total = p ** (k * n)
        count = full_rank_count(p, k, n)
        if (r.total, r.counted, r.expected_count) != (total, count, count):
            return f"census {r.counted}/{r.total}, closed form {count}/{total}"
        if r.empirical != Fraction(count, total) or r.formula != r.empirical or not r.matches:
            return "census fractions disagree with the closed form"
        return None

    return check
