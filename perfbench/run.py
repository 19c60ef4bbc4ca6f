"""Benchmark for unimat: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run measures the end-to-end metrics, with --trace 1 the
per-layer ones (see README.md). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts failures other than the documented known defects, and
`correct` is true when it is 0. Known-defect failures still count against
pass_ratio and are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 3
PAIRED_PASSES = 2  # passes that run each request plain and traced, for trace.overhead_ratio
SETUP_STARTS = 21
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import unimat.cli; unimat.cli.build_parser()"
TAIL_BEYOND = 10  # the tail percentile has at least this many requests beyond it
# work counts read at the layer boundaries, over the traced runs of one paired pass
WORK_COUNTS = {
    "requests": "count",
    "samples": "count",
    "words_upper_bound": "count",
    "matrices_enumerated": "count",
    "zeta_terms": "count",
    "transform_bits_max": "bits",
}


def measure_setup(starts: int = SETUP_STARTS) -> float:
    """Median wall time for a fresh interpreter to import unimat.cli and
    build its parser. One untimed start first fills the bytecode cache."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True)
    times = []
    for _ in range(starts):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = sum(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def latency_metrics(latencies: list[list[float]]) -> tuple[float, float, float, int]:
    """(p50, tail, tail percentile, request count) over the requests of one
    pass, each request taken as the median of its runs."""
    per_request = sorted(statistics.median(ts) for ts in latencies)
    n = len(per_request)
    i = max(0, n - 1 - TAIL_BEYOND)
    return statistics.median(per_request), per_request[i], 100 * (i + 1) / n, n


def untraced(wl, ledger, seconds: float) -> dict[str, tuple[float, str]]:
    import client

    walls, latencies = client.run_passes(wl.requests, ledger, seconds, MIN_PASSES)
    # read before the probes and the set-up starts, so that RUSAGE_CHILDREN
    # holds only children the program itself started
    rss = peak_rss_mib()
    client.run_probes(wl.probes, ledger)
    setup = measure_setup()
    p50, tail, pct, count = latency_metrics(latencies)
    print(f"# {len(walls)} passes of {count} requests, {' '.join(f'{w:.3f}' for w in walls)} s; tail is p{pct:.1f}",
          file=sys.stderr)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "req_p50_ms": (p50 * 1e3, "ms"),
        "req_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (rss, "MiB"),
        "pass_ratio": (ledger.counts["ok"] / ledger.attempted, "ratio"),
    }


def traced(wl, ledger, workload: str, seed: int, rnd: random.Random, workdir: Path):
    import client
    import layers
    from spans import Tracer

    tracer = Tracer()
    client.run_passes(wl.requests, ledger, 0, 1)  # warm-up, discarded
    plain = with_spans = 0.0
    work = None
    for i in range(PAIRED_PASSES):
        p, t = client.run_paired_pass(wl.requests, ledger, tracer, layers.boundaries(), i % 2 == 1)
        plain, with_spans = plain + p, with_spans + t
        work = work or dict(tracer.counts)  # the counts of one pass
    client.run_probes(wl.probes, ledger)
    metrics = {
        "trace.overhead_ratio": (with_spans / plain, "ratio"),
        **{f"work.{k}": (work.get(k, 0), unit) for k, unit in WORK_COUNTS.items()},
        "cli.main.self_ms": (layers.cli_self_ms(tracer), "ms"),
        **layers.measure(tracer, rnd, workdir / "layers"),
        "checks.fail_ratio": ((ledger.attempted - ledger.counts["ok"]) / ledger.attempted, "ratio"),
        "checks.known_defects": (ledger.counts["known"], "count"),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.json", {"workload": workload, "seed": seed})
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("montecarlo", "analyze", "density", "census"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import unimat.cli  # the program under test, from this checkout's source
    except ImportError as exc:
        print(f"error: cannot import unimat from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(unimat.cli.__file__).resolve().parents:
        print(f"error: unimat was imported from {unimat.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import client
    import selftest
    import workloads

    broken = selftest.run_all()
    if broken:
        print("error: the benchmark's own checks misjudge known cases:", *broken, sep="\n  ", file=sys.stderr)
        return 2

    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    client.install_deadline_handler()
    rnd = random.Random(f"{args.workload}/{args.seed}")
    workdir = Path(tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=HERE))
    ledger = client.Ledger()
    try:
        wl = workloads.BUILDERS[args.workload](rnd, refs, workdir)
        if args.trace:
            metrics = traced(wl, ledger, args.workload, args.seed, rnd, workdir)
        else:
            metrics = untraced(wl, ledger, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in ledger.failures:
        print(f"# {line[:300]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<64} {value:>14.6g} {unit}")
    failed = ledger.counts["fail"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
