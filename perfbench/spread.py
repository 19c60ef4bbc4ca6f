"""Run the benchmark over several seeds, report each metric's spread, and
write the result in baseline.json's form.

    python3 perfbench/spread.py [--workloads analyze,census] [--seeds 10]

For every workload and end-to-end metric it prints the median over seeds
1..N and the distance between the first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged, and the exit code is then 1. It then
makes one traced run per workload with seed 1 and writes everything to
perfbench/out/baseline.json, the form of perfbench/baseline.json. Run from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: incorrect output\n{done.stderr}", file=sys.stderr)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {
        "hardware": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()}, "
                    f"{platform.python_implementation()} {platform.python_version()}",
        "run_seconds": spec["run_seconds"],
        "seeds": f"1..{args.seeds}",
        "end_to_end": {},
        "fail_ratio": {},
        "per_layer_seed_1": {},
    }
    steady = True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(1, args.seeds + 1):
            result = run(spec, wl, seed, 0)
            steady &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary = baseline["end_to_end"][wl] = {}
        for name, vs in values.items():
            line = f"{wl:>10} {name:<14} median {statistics.median(vs):12.6g} {units[name]:<6}"
            summary[name] = {"median": statistics.median(vs), "unit": units[name]}
            if len(vs) > 1:
                q1, med, q3 = statistics.quantiles(vs, n=4)
                share = (q3 - q1) / med
                summary[name].update(q1=q1, q3=q3)
                line += f" q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:7.2%}  bound {bounds[name]:.0%}"
                if share >= bounds[name] / 3:
                    line += "  <-- wider than a third of the bound"
                    steady = False
            print(line, flush=True)
        baseline["fail_ratio"][wl] = 1 - summary["pass_ratio"]["median"]
    for wl in args.workloads.split(","):
        result = run(spec, wl, 1, 1)
        baseline["per_layer_seed_1"][wl] = {k: v["value"] for k, v in result["metrics"].items()}
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
