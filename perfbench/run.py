"""Benchmark of gradedlimits: cold-process workloads timed from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--golden-dir DIR]

Run from the root of a checkout.  Every CLI job and every library run gets a
fresh interpreter (``PYTHONPATH=src``), one at a time, so no module-level
cache of the package survives from one job to the next.  The parent never
imports ``gradedlimits``; it times each child from spawn to reap and takes
its CPU time and peak RSS from ``wait4``.

Workloads (see NOTES.md for why each was chosen):
  cli-golden      the nine golden CLI jobs, each compared byte for byte
  semigroup-deep  semigroup_halfstep.spec at --horizon 4000, CSV sha256-pinned
  graded-axiom    the c11 graded-axiom suite in one interpreter

The seed permutes job (or check) order per pass and sets PYTHONHASHSEED of
the children; the inputs are the repository's fixed specs.  With --trace 0
nine set-up probes run first, then as many passes as fit in S seconds (at
least one), and the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are printed.  Human-readable
lines come first, then a JSON run record, then the one-line JSON result.
``--workload all`` measures each workload in turn and ends with one result
line whose metrics are named ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".perfbench_tmp"
CHILD = BENCH / "child.py"
DEADLINE_S = 170.0  # children are killed after this; a run must end within 180 s
SETUP_PROBES = 9

# the jobs of tests/test_cli.py::TestGolden::test_committed_goldens_match
CLI_JOBS = (
    ("semigroup", "specs/semigroup_halfstep.spec"),
    ("semigroup", "specs/semigroup_affine.spec"),
    ("family", "specs/family_valuation12.spec"),
    ("family", "specs/family_nilpair_sigma.spec"),
    ("family", "specs/family_artin_t2.spec"),
    ("series", "specs/series_sigma_s0r1.spec"),
    ("series", "specs/series_lognil_evens.spec"),
    ("volmult", "specs/volmult_valuation12.spec"),
    ("eps", "ideals/x2_xy.ideal"),
)
DEEP_SPEC = "specs/semigroup_halfstep.spec"
DEEP_HORIZON = "4000"
# sha256 of the horizon-4000 CSV, recorded from the seed commit's output
DEEP_SHA256 = "efdf40db5082dec797c2ceeec73ad7847a081be090ec8b57ab961f82cf1151e5"
AXIOM_CHECKS = 16

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict, deadline: float) -> Sample:
    """Run one child to completion; kill it if it outlives the deadline."""
    out_path = TMP / "child.stdout"
    with open(out_path, "wb") as out, open(TMP / "child.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(), (TMP / "child.stderr").read_text())


@dataclass
class Job:
    """One child process of a pass and how its output is judged."""

    name: str
    argv: list[str]          # untraced
    traced_argv: list[str]   # after "--trace OUT" is inserted by the runner
    attempted: int
    judge: Callable[[Sample], int]  # failures among `attempted`
    out: Path | None = None   # output file, removed before the job runs


def _cli_job(i: int, cmd: str, rel: str, golden_dir: Path) -> Job:
    out = TMP / f"cli-{i}.csv"
    extra = ["--horizon", "200", "--expect", "converges"] if cmd == "eps" else []
    args = [cmd, str(ROOT / rel), *extra, "--out", str(out), "--golden", str(golden_dir)]
    golden = golden_dir / f"{Path(rel).stem}__{cmd}.csv"

    def judge(s: Sample) -> int:
        ok = (s.code == 0 and out.exists() and golden.exists()
              and out.read_bytes() == golden.read_bytes())
        return 0 if ok else 1

    return Job(f"{cmd}:{Path(rel).name}", ["-m", "gradedlimits.cli", *args],
               ["cli", *args], 1, judge, out)


def _deep_job() -> Job:
    out = TMP / "semigroup-deep.csv"
    args = ["semigroup", str(ROOT / DEEP_SPEC), "--horizon", DEEP_HORIZON, "--out", str(out)]

    def judge(s: Sample) -> int:
        ok = (s.code == 0 and out.exists()
              and hashlib.sha256(out.read_bytes()).hexdigest() == DEEP_SHA256)
        return 0 if ok else 1

    return Job("semigroup:halfstep@4000", ["-m", "gradedlimits.cli", *args],
               ["cli", *args], 1, judge, out)


def _axiom_job(order: list[int]) -> Job:
    arg = ",".join(map(str, order))

    def judge(s: Sample) -> int:
        if s.code != 0:
            return AXIOM_CHECKS
        try:
            results = json.loads(s.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return AXIOM_CHECKS
        if len(results) != AXIOM_CHECKS:
            return AXIOM_CHECKS
        return sum(1 for r in results if r["ok"] is not True)

    return Job("axiom:c11", [str(CHILD), "axiom", arg], ["axiom", arg], AXIOM_CHECKS, judge)


@dataclass
class Workload:
    name: str
    jobs: Callable[[random.Random], list[Job]]  # one pass, in run order
    probes: list[list[str]]  # set-up probe argvs, cycled to SETUP_PROBES


def workloads(golden_dir: Path) -> dict[str, Workload]:
    def cli_jobs(rng):
        jobs = [_cli_job(i, cmd, rel, golden_dir) for i, (cmd, rel) in enumerate(CLI_JOBS)]
        rng.shuffle(jobs)
        return jobs

    def axiom_jobs(rng):
        order = list(range(AXIOM_CHECKS))
        rng.shuffle(order)
        return [_axiom_job(order)]

    return {
        "cli-golden": Workload(
            "cli-golden", cli_jobs,
            [[str(CHILD), "setup", "cli", cmd, str(ROOT / rel)] for cmd, rel in CLI_JOBS]),
        "semigroup-deep": Workload(
            "semigroup-deep", lambda rng: [_deep_job()],
            [[str(CHILD), "setup", "cli", "semigroup", str(ROOT / DEEP_SPEC)]]),
        "graded-axiom": Workload(
            "graded-axiom", axiom_jobs, [[str(CHILD), "setup", "axiom"]]),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    jobs: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(j["wall_s"] for j in self.jobs)

    @property
    def cpu_s(self) -> float:
        return sum(j["cpu_s"] for j in self.jobs)

    @property
    def rss_mb(self) -> float:
        return max(j["rss_mb"] for j in self.jobs)


def run_pass(wl: Workload, rng: random.Random, traced: bool, env: dict,
             deadline: float) -> Pass:
    p = Pass(traced)
    for job in wl.jobs(rng):
        trace_path = TMP / "trace.json"
        trace_path.unlink(missing_ok=True)
        if job.out is not None:
            job.out.unlink(missing_ok=True)
        argv = [str(CHILD), "--trace", str(trace_path), *job.traced_argv] if traced else job.argv
        s = spawn(argv, env, deadline)
        failed = job.judge(s)
        p.attempted += job.attempted
        p.failed += failed
        p.jobs.append({"job": job.name, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
                       "rss_mb": s.rss_mb, "code": s.code, "failed": failed})
        if failed:
            p.jobs[-1]["stderr_tail"] = s.stderr[-500:]
        if traced and trace_path.exists():
            p.traces.append(json.loads(trace_path.read_text()))
    return p


# ---------------------------------------------------------------------------
# per-layer metrics from merged span summaries
# ---------------------------------------------------------------------------

class Trace:
    def __init__(self, summaries: list[dict]):
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, int] = {}
        for s in summaries:
            for name, agg in s["spans"].items():
                tot = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for k in tot:
                    tot[k] += agg[k]
            for src, dst in ((s["counts"], self.counts), (s["distinct"], self.distinct)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v

    def get(self, name: str, key: str):
        return self.spans.get(name, {}).get(key, 0)

    def layer_self(self, layer: str) -> float:
        return sum(a["self_s"] for n, a in self.spans.items()
                   if n == layer or n.startswith(layer + "."))

    def reuse(self, name: str) -> float:
        calls = self.get(name, "calls")
        return 1.0 - self.distinct.get(name, 0) / calls if calls else 0.0

    def ratio(self, num: str, den: str) -> float:
        d = self.counts.get(den, 0)
        return self.counts.get(num, 0) / d if d else 0.0


def _calls(n):
    return (f"{n}.calls", "count", lambda t: t.get(n, "calls"))


def _secs(n, key="s"):
    return (f"{n}.{key}", "s", lambda t: t.get(n, key))


LAYERS = ("monomial", "families", "semigroup", "series", "lattice", "experiments",
          "specfiles", "cli")

PER_LAYER = (
    _calls("monomial.minimal_generators"), _secs("monomial.minimal_generators"),
    ("monomial.minimal_generators.candidates", "count", lambda t: t.counts.get("candidates", 0)),
    ("monomial.minimal_generators.kept_ratio", "ratio", lambda t: t.ratio("kept", "candidates")),
    _calls("monomial.mul"), _secs("monomial.mul"),
    _calls("monomial.contains"), _secs("monomial.contains"),
    _calls("monomial.colength"), _secs("monomial.colength"),
    _calls("monomial.saturation_quotient_colength"), _secs("monomial.saturation_quotient_colength"),
    _secs("monomial.multiplicity"),
    _calls("families.valuation_gens"), _secs("families.valuation_gens"),
    _secs("families.check_graded"),
    ("families.check_graded.pairs", "count", lambda t: t.counts.get("pairs", 0)),
    _calls("families.ideal"),
    ("families.ideal.reuse_ratio", "ratio", lambda t: t.reuse("families.ideal")),
    _calls("semigroup.level"), _secs("semigroup.level"),
    ("semigroup.points", "count", lambda t: t.counts.get("points", 0)),
    _secs("semigroup.invariants"),
    _secs("series.closure_violations", "self_s"),
    _calls("series.level"),
    ("series.level.reuse_ratio", "ratio", lambda t: t.reuse("series.level")),
    _secs("series.kodaira_iitaka"),
    _calls("lattice.convex_hull"), _secs("lattice.convex_hull"),
    _secs("lattice.lattice_volume"), _secs("lattice.hermite_basis"),
    _secs("experiments.sequence", "self_s"),
    _calls("experiments.convergence_report"), _secs("experiments.convergence_report"),
    _secs("specfiles"),
    *((f"{layer}.self_s", "s", (lambda t, layer=layer: t.layer_self(layer))) for layer in LAYERS),
)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _spread(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    med = statistics.median(values)
    if n >= 20:
        tail = f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"
    else:
        tail = f"max {max(values):.4f}"
    return f"median {med:.4f}  {tail}  n={n}"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or None


def _baseline(workload: str, trace: int) -> dict:
    path = BENCH / "baseline.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {"commit": data.get("commit"),
            "medians": data.get("workloads", {}).get(workload, {}).get(key, {})}


def _vs_baseline(values: dict, baseline: dict) -> dict:
    """Each metric as a share of the baseline median (1.0 = unchanged)."""
    medians = baseline.get("medians", {})
    return {k: v / medians[k] for k, v in values.items() if medians.get(k)}


def preflight() -> str | None:
    for rel in ("src/gradedlimits/cli.py", "specs", "ideals", "golden"):
        if not (ROOT / rel).exists():
            return f"{rel} not found under {ROOT}; run from the root of a checkout"
    return None


def run_workload(wl: Workload, args) -> dict:
    """Measure one workload; print its lines, run record and result; return the result."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    hashseed = args.seed % 2 ** 32
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    rng = random.Random(args.seed)
    load_start = os.getloadavg()

    setup = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            setup.append(spawn(wl.probes[i % len(wl.probes)], env, deadline).wall_s)

    passes: list[Pass] = []
    t0 = time.monotonic()
    rounds = 0
    while True:  # one round is a pass, or an untraced and a traced pass
        passes.append(run_pass(wl, rng, False, env, deadline))
        if args.trace:
            passes.append(run_pass(wl, rng, True, env, deadline))
        rounds += 1
        now = time.monotonic()
        per_round = (now - t0) / rounds
        if now - t0 + per_round > args.seconds or now + per_round > deadline:
            break

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lines = [f"workload {wl.name}  seed {args.seed}  passes {len(plain)} untraced"
             + (f" + {len(traced)} traced" if traced else "")]
    if args.trace:
        per_pass = [{name: fn(Trace(p.traces)) for name, _, fn in PER_LAYER}
                    for p in traced]
        values = {name: statistics.median(pp[name] for pp in per_pass)
                  for name, _, _ in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(p.wall_s for p in plain))
        units = {name: unit for name, unit, _ in PER_LAYER}
        units["trace.overhead_s"] = "s"
        layer_total = sum(values[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        for layer in LAYERS:
            v = values[f"{layer}.self_s"]
            lines.append(f"  self time {layer:<12} {v:9.4f} s  {100 * v / layer_total:5.1f}%")
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": max(p.rss_mb for p in plain),
            "setup_s": statistics.median(setup),
        }
        units = dict(END_TO_END)
        lines.append(f"  wall_s       {_spread([p.wall_s for p in plain])}  (s per pass)")
        lines.append(f"  cpu_s        {_spread([p.cpu_s for p in plain])}  (s per pass)")
        lines.append(f"  peak_rss_mb  max {values['peak_rss_mb']:.1f} MB over "
                     f"{sum(len(p.jobs) for p in plain)} children")
        lines.append(f"  setup_s      {_spread(setup)}  (s per probe)")
    lines.append(f"  failed_ratio {failed / attempted:.4f} ratio  ({failed} of {attempted})")

    baseline = _baseline(wl.name, args.trace)
    record = {
        "workload": wl.name, "seed": args.seed, "pythonhashseed": hashseed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": _git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "elapsed_s": time.monotonic() - started,
        "failed_ratio": failed / attempted,
        "samples": {"setup_s": setup,
                    "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                                "rss_mb": p.rss_mb, "jobs": p.jobs} for p in passes]},
        "baseline": baseline,
        "vs_baseline": _vs_baseline(values, baseline),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    for line in lines:
        print(line)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden-dir", default="golden",
                    help="golden CSV directory for cli-golden (default: golden)")
    args = ap.parse_args(argv)

    problem = preflight()
    wls = workloads((ROOT / args.golden_dir).resolve())
    if problem is None and args.workload not in (*wls, "all"):
        problem = f"unknown workload {args.workload!r}; choose from all, {', '.join(wls)}"
    if problem is not None:
        sys.stderr.write(f"perfbench: {problem}\n")
        return 2
    TMP.mkdir(exist_ok=True)
    if args.workload != "all":
        run_workload(wls[args.workload], args)
        return 0
    results = {name: run_workload(wl, args) for name, wl in wls.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
