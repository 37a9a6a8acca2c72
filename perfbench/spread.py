"""Run-to-run spread of the benchmark.  Run from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--write-baseline]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...) with
BENCHMARK.json's run_seconds and prints, per metric, the median of the runs,
the quartile distance ``(q3 - q1) / median`` as statistics.quantiles(n=4)
gives it, and the metric's bound.  ``--write-baseline`` stores the medians in
perfbench/baseline.json under the workload, beside the other workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BASELINE = Path(__file__).resolve().parent / "baseline.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                            "--trace", str(args.trace)],
                           cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}"
                                          for k, v in res["metrics"].items()
                                          if k in bounds), flush=True)

    medians = {}
    for name, vals in values.items():
        med = medians[name] = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:.2f}" + (
            "  WIDE" if share > bound / 3 else "")
        print(f"{name:45s} median {med:12.6g} {units[name]:6s} spread {share:7.2%}{flag}")

    if args.write_baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        data.setdefault("commit", git or None)
        data.setdefault("python", platform.python_version())
        entry = data.setdefault("workloads", {}).setdefault(args.workload, {})
        entry["per_layer" if args.trace else "end_to_end"] = medians
        entry["runs" if not args.trace else "traced_runs"] = args.runs
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
