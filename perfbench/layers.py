"""Per-layer measurements for the traced run.

Three parts. boundaries() lists the layer boundaries the traced runs wrap,
with the work counts read at each. cli_self_ms() reads cli.main's own time
from those runs. measure() times direct calls into each module's public
functions on fixed, seeded cases, recording a span per call, and returns the
remaining per-layer metrics. Every workload's traced run reports the same
per-layer set; which end-to-end metric each group should move is listed in
README.md.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

from unimat import cli, density, experiments, matrix, matrixfile, normal_forms, rng
from unimat.experiments import BoxSpec
from unimat.matrix import IntMatrix

import workloads
from spans import Tracer

Metrics = dict[str, tuple[float, str]]


def _bits(*mats: IntMatrix) -> int:
    return max(abs(e).bit_length() for m in mats for e in m.entries)


def _count_estimate(c: Counter, args: tuple, kwargs: dict, res) -> None:
    spec, samples = args[0], args[1]
    if kwargs.get("stream", args[4] if len(args) > 4 else "random") == "enumerate":
        c["matrices_enumerated"] += samples
    else:
        c["samples"] += samples
        c["words_upper_bound"] += samples * spec.k * spec.n  # computed, not observed


def _count_total(c: Counter, args: tuple, kwargs: dict, res) -> None:
    c["matrices_enumerated"] += res.total


def _count_zeta(c: Counter, args: tuple, kwargs: dict, res) -> None:
    c["zeta_terms"] += res.terms


def _count_hnf(c: Counter, args: tuple, kwargs: dict, res) -> None:
    c["transform_bits_max"] = max(c["transform_bits_max"], _bits(res.U))


def _count_snf(c: Counter, args: tuple, kwargs: dict, res) -> None:
    c["transform_bits_max"] = max(c["transform_bits_max"], _bits(res.L, res.R))


def boundaries() -> list[tuple[object, str, str, Callable | None]]:
    """(module, attribute, span name, work counter) for every call one
    unimat module makes into another's public functions."""
    return [
        (cli, "parse_matrix", "matrixfile.parse_matrix", None),
        (cli, "full_rank_minor_gcd", "matrix.full_rank_minor_gcd", None),
        (cli, "hnf", "normal_forms.hnf", _count_hnf),
        (cli, "snf", "normal_forms.snf", _count_snf),
        (cli, "is_trivial_hnf", "normal_forms.is_trivial_hnf", None),
        (cli, "complete_to_gl", "normal_forms.complete_to_gl", None),
        (cli, "density_exact", "density.density_exact", None),
        (cli, "density_limit", "density.density_limit", None),
        (cli, "local_density", "density.local_density", None),
        (cli, "estimate_density", "experiments.estimate_density", _count_estimate),
        (cli, "exhaustive_density", "experiments.exhaustive_density", _count_total),
        (cli, "convergence_sweep", "experiments.convergence_sweep", None),
        (normal_forms, "hnf", "normal_forms.hnf", _count_hnf),
        (normal_forms, "full_rank_minor_gcd", "matrix.full_rank_minor_gcd", None),
        (normal_forms, "is_trivial_hnf", "normal_forms.is_trivial_hnf", None),
        (density, "zeta", "density.zeta", _count_zeta),
        (experiments, "estimate_density", "experiments.estimate_density", _count_estimate),
        (experiments, "verify_local_density", "experiments.verify_local_density", _count_total),
    ]


# cases for the direct calls; sized so measure() takes a few seconds
MC_GCD_SAMPLES = {(2, 3): 2000, (3, 4): 1000, (4, 8): 300}
RNG_WORDS = 100_000
ZETA_CASES = [(j, tol) for j in (2, 3, 8) for tol in workloads.TOLERANCES]
EXHAUSTIVE_CASES = ((1, 2, 300), (2, 2, 8), (2, 3, 3), (3, 3, 2))
LOCAL_CENSUS_CASES = ((2, 3, 4), (3, 2, 4))


def cli_self_ms(tracer: Tracer) -> float:
    """Median self time of the traced runs' cli.main spans: argparse, file
    reading and JSON, i.e. cli.main minus its traced callees. Each span's
    case is its subcommand, so the span dump has the breakdown."""
    own = tracer.self_seconds()
    return statistics.median(own[i] for i, s in enumerate(tracer.spans) if s.name == "cli.main") * 1e3


def measure(tracer: Tracer, rnd: random.Random, workdir: Path) -> Metrics:
    m: Metrics = {}
    timed = tracer.timed
    workdir.mkdir()
    corpus = workloads.analyze_corpus(rnd, workdir, lambda shape, size, cls: 1)

    # matrix: minor gcd by shape and class; the size of a full scan
    by_case: dict[str, list[float]] = {}
    for e in corpus:
        case = f"{e.shape}.{e.cls}"
        _, t = timed("matrix.full_rank_minor_gcd", case, matrix.full_rank_minor_gcd,
                     IntMatrix.from_rows(e.rows))
        by_case.setdefault(case, []).append(t)
    for case, ts in by_case.items():
        m[f"matrix.full_rank_minor_gcd.{case}.ms"] = (statistics.median(ts) * 1e3, "ms")
    for k, n in workloads.ANALYZE_SHAPES:
        m[f"matrix.minors_full_scan.{k}x{n}"] = (math.comb(n, k), "count")

    # matrix: minor gcd on the estimator's own samples
    seed = rnd.getrandbits(63)
    for (k, n), count in MC_GCD_SAMPLES.items():
        spec = BoxSpec(k, n, workloads.MC_BOUND)
        mats = [experiments.sample_matrix(spec, seed, i) for i in range(count)]
        _, t = timed("matrix.full_rank_minor_gcd", f"mc.{k}x{n}",
                     lambda: [matrix.full_rank_minor_gcd(a) for a in mats])
        m[f"matrix.full_rank_minor_gcd.mc.{k}x{n}.us"] = (t / count * 1e6, "us")

    # normal_forms: hnf / snf by shape and entry size, completion by shape
    forms: dict[str, list[float]] = {}
    bits: Counter = Counter()
    for e in corpus:
        a = IntMatrix.from_rows(e.rows)
        res, t = timed("normal_forms.hnf", f"{e.shape}.{e.size}", normal_forms.hnf, a)
        forms.setdefault(f"hnf.{e.shape}.{e.size}", []).append(t)
        bits[f"hnf.{e.shape}"] = max(bits[f"hnf.{e.shape}"], _bits(res.U))
        res, t = timed("normal_forms.snf", f"{e.shape}.{e.size}", normal_forms.snf, a)
        forms.setdefault(f"snf.{e.shape}.{e.size}", []).append(t)
        bits[f"snf.{e.shape}"] = max(bits[f"snf.{e.shape}"], _bits(res.L, res.R))
        if e.cls == "uni":
            _, t = timed("normal_forms.complete_to_gl", e.shape, normal_forms.complete_to_gl, a)
            forms.setdefault(f"complete_to_gl.{e.shape}", []).append(t)
    for case, ts in forms.items():
        m[f"normal_forms.{case}.ms"] = (statistics.median(ts) * 1e3, "ms")
    for case, b in bits.items():
        m[f"normal_forms.{case}.transform_bits"] = (b, "bits")

    # matrixfile: format and parse every corpus matrix
    mats = [IntMatrix.from_rows(e.rows) for e in corpus]
    texts, t = timed("matrixfile.format_matrix", "corpus",
                     lambda: [matrixfile.format_matrix(a) for a in mats])
    m["matrixfile.format_matrix.us"] = (t / len(mats) * 1e6, "us")
    _, t = timed("matrixfile.parse_matrix", "corpus",
                 lambda: [matrixfile.parse_matrix(s) for s in texts])
    m["matrixfile.parse_matrix.us"] = (t / len(texts) * 1e6, "us")

    # rng: stream words and bounded draws
    words, t = timed("rng.words", "", lambda: list(rng.words(seed, 0, RNG_WORDS)))
    m["rng.words.ns_per_word"] = (t / RNG_WORDS * 1e9, "ns")
    r = 2 * workloads.MC_BOUND
    _, t = timed("rng.bounded", "", lambda: [rng.bounded(w, r) for w in words])
    m["rng.bounded.ns_per_draw"] = (t / RNG_WORDS * 1e9, "ns")

    # experiments: Monte Carlo per sample, and CPU per wall second across shards
    cpu0, wall0 = _cpu_seconds(), perf_counter()
    for (k, n), samples in workloads.MC_SAMPLES.items():
        spec = BoxSpec(k, n, workloads.MC_BOUND)
        _, t = timed("experiments.estimate_density", f"{k}x{n}", experiments.estimate_density,
                     spec, samples, seed, workloads.SHARDS)
        m[f"experiments.estimate_density.{k}x{n}.us_per_sample"] = (t / samples * 1e6, "us")
    m["experiments.estimate_density.cpu_per_wall"] = (
        (_cpu_seconds() - cpu0) / (perf_counter() - wall0), "ratio")

    # density: zeta by argument and tolerance
    for j, tol in ZETA_CASES:
        z, t = timed("density.zeta", f"j{j}.tol{tol}", density.zeta, j, float(tol))
        m[f"density.zeta.j{j}.tol{tol}.ms"] = (t * 1e3, "ms")
        m[f"density.zeta.j{j}.tol{tol}.terms"] = (z.terms, "count")

    # experiments: the three enumeration paths and mod-p elimination
    for k, n, b in EXHAUSTIVE_CASES:
        rep, t = timed("experiments.exhaustive_density", f"{k}x{n}.B{b}",
                       experiments.exhaustive_density, BoxSpec(k, n, b))
        m[f"experiments.exhaustive_density.{k}x{n}.B{b}.us_per_matrix"] = (t / rep.total * 1e6, "us")
    k, n, bounds = workloads.SWEEP_BOXES
    total = sum((2 * b) ** (k * n) for b in bounds)
    _, t = timed("experiments.convergence_sweep", f"{k}x{n}", experiments.convergence_sweep,
                 k, n, bounds, (2 * bounds[-1]) ** (k * n), seed, workloads.SHARDS)
    m[f"experiments.convergence_sweep.{k}x{n}.B{'-'.join(map(str, bounds))}.us_per_matrix"] = (
        t / total * 1e6, "us")
    for p, k, n in LOCAL_CENSUS_CASES:
        rep, t = timed("experiments.verify_local_density", f"p{p}.{k}x{n}",
                       experiments.verify_local_density, p, k, n)
        m[f"experiments.verify_local_density.p{p}.{k}x{n}.us_per_matrix"] = (t / rep.total * 1e6, "us")
    return m


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total
