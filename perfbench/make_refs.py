"""Regenerate refs.json, the reference values the benchmark's checks use.

    python3 perfbench/make_refs.py

Densities and limits come from mpmath's zeta at 60 digits. Hit counts come
from checks.py's own arithmetic: the README's stream definition for the
Monte Carlo default seed, and a brute-force census (|det| = 1 for square
boxes, a full minor scan otherwise) for exhaustive boxes. Neither path
imports unimat. Needs mpmath; the benchmark itself does not.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import mpmath

import checks
import workloads

DIGITS = 60


def density(k: int, n: int) -> str:
    return mpmath.nstr(mpmath.fprod(1 / mpmath.zeta(j) for j in range(n - k + 1, n + 1)), 50)


def limit(d: int) -> str:
    out = mpmath.mpf(1)
    j = d + 1
    while mpmath.zeta(j) - 1 > mpmath.mpf(10) ** -DIGITS:
        out /= mpmath.zeta(j)
        j += 1
    return mpmath.nstr(out, 50)


def census_hits(k: int, n: int, bound: int) -> int:
    hits = 0
    for flat in product(range(-bound, bound), repeat=k * n):
        rows = [list(flat[t * n : (t + 1) * n]) for t in range(k)]
        g = abs(checks.det(rows)) if k == n else checks.minor_gcd(rows)
        hits += g == 1
    return hits


def main() -> None:
    mpmath.mp.dps = DIGITS
    shapes = set(workloads.DENSITY_SHAPES) | set(workloads.MC_SAMPLES)
    boxes = [(k, n, b) for k, n, b in workloads.EXHAUSTIVE_BOXES if (k, n) != (1, 2)]
    k, n, bounds = workloads.SWEEP_BOXES
    boxes += [(k, n, b) for b in bounds]
    refs = {
        "density": {f"{k}x{n}": density(k, n) for k, n in sorted(shapes)},
        "limit": {str(d): limit(d) for d in (*workloads.LIMIT_CODIMS, 42)},
        "estimate_default_seed": {
            f"{k}x{n}": checks.stream_hits(k, n, workloads.MC_BOUND, s, 0)
            for (k, n), s in workloads.MC_SAMPLES.items()
        },
        "exhaustive_hits": {f"{k}x{n}.B{b}": census_hits(k, n, b) for k, n, b in sorted(set(boxes))},
    }
    path = Path(__file__).with_name("refs.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
