"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  * cli-golden reports no failure against an intact copy of golden/, and a
    raised failed_ratio against a copy with one byte flipped;
  * the untraced run reports every end-to-end metric of BENCHMARK.json;
  * the traced run of every workload reports every per-layer metric of
    BENCHMARK.json, and on graded-axiom monomial has the largest self time;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Takes a few minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".perfbench_tmp" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int, *extra: str) -> dict:
    r = bench("--workload", workload, "--seed", "7", "--seconds", "1",
              "--trace", str(trace), *extra)
    if r.returncode != 0:
        fail(f"{workload} trace={trace} exited {r.returncode}: {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def check(cond: bool, msg: str):
    if not cond:
        fail(msg)
    print(f"ok   {msg}")


def main() -> int:
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)

    intact = TMP / "golden"
    shutil.copytree(ROOT / "golden", intact)
    res = result("cli-golden", 0, "--golden-dir", str(intact))
    check(res["correct"] and res["failed"] == 0, "cli-golden passes against an intact golden copy")
    want = {m["name"] for m in SPEC["end_to_end"]}
    check(set(res["metrics"]) == want, "untraced run reports every end-to-end metric")

    flipped = TMP / "golden_flipped"
    shutil.copytree(ROOT / "golden", flipped)
    victim = sorted(flipped.iterdir())[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 1
    victim.write_bytes(bytes(data))
    res = result("cli-golden", 0, "--golden-dir", str(flipped))
    check(not res["correct"] and res["failed"] / res["attempted"] > 0,
          f"one flipped byte in {victim.name} raises failed_ratio "
          f"({res['failed']} of {res['attempted']})")

    want = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        res = result(w["name"], 1)
        check(res["correct"], f"{w['name']} traced run is correct")
        missing = want - set(res["metrics"])
        check(not missing and set(res["metrics"]) == want,
              f"{w['name']} traced run reports every per-layer metric"
              + (f" (missing {sorted(missing)})" if missing else ""))
        if w["name"] == "graded-axiom":
            selfs = {k: v["value"] for k, v in res["metrics"].items()
                     if k.endswith(".self_s") and k.count(".") == 1}
            check(max(selfs, key=selfs.get) == "monomial.self_s",
                  "monomial has the largest layer self time on graded-axiom")

    bare = TMP / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "cli-golden", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=bare)
    check(r.returncode != 0 and '"correct"' not in r.stdout,
          "without the repository the benchmark exits non-zero and prints no result")
    shutil.rmtree(TMP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
