"""Benchmark of the carlitz-vmf engine.

    python3 perfbench/run.py --workload hecke-e1-q2 --seed 1 --seconds 30 --trace 0

Runs passes over the workload's jobs, each pass in a fresh interpreter
(``child.py``), one at a time, until another pass would overrun
``--seconds``; at least one pass always runs.  Checks every job's output
against ``reference.json`` and prints, as the last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  See README.md for the workloads and metrics.

    python3 perfbench/run.py --record

re-records ``reference.json`` from the current package (one untraced pass
of every workload); do that only when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(HERE, "out")
# Every child reads the bytecode of its imports from here (README, *How a
# run works*); each run starts it afresh.
PYCACHE = os.path.join(OUT, "pycache")
SETUP_PROBES = 10    # extra set-up-only children per untraced run
HARD_LIMIT = 170.0   # seconds; the run ends by then whatever happens
# Seconds one child.SpeedProbe sample takes at the reference speed.  A
# job's scaled time is its raw time * CAL_REF / (the mean probe sample
# taken while it ran): seconds at the reference speed.  A set-up time is
# scaled by the mean of the samples just before and after it.
CAL_REF = 0.002
# A job with fewer probe samples of its own is scaled by the pass's mean.
MIN_SAMPLES = 3


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.spec = workloads.WORKLOADS[workload]
        self.order = workloads.job_order(workload, seed)
        self.started = clock()
        self.setups = []        # scaled
        self.setups_raw = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        shutil.rmtree(PYCACHE, ignore_errors=True)
        os.makedirs(PYCACHE)
        self.child(setup_only=True, warm=True)

    def child(self, trace: bool = False, setup_only: bool = False,
              warm: bool = False):
        """Start one child, wait for it, and return its report or None.

        The warm child compiles the set-up's imports into PYCACHE and its
        set-up time is not kept; every other child only reads from there.
        """
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--q", str(self.spec["q"]),
               "--jobs", ",".join(self.order), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        budget = max(1.0, self.started + HARD_LIMIT - clock())
        t0 = clock()
        env = dict(os.environ, PYTHONPYCACHEPREFIX=PYCACHE,
                   PYTHONDONTWRITEBYTECODE="1")
        if warm:
            del env["PYTHONDONTWRITEBYTECODE"]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"child killed after {budget:.0f} s")
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"child exited with {proc.returncode}")
            return None
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            self.errors.append(f"child printed no report: {lines[-1][:200]}")
            return None
        if not warm:
            before, after = report["setup_speed"]
            self.setups_raw.append(report["ready"] - t0 - before)
            self.setups.append(self.setups_raw[-1] * CAL_REF
                               / statistics.mean((before, after)))
        report["elapsed"] = clock() - t0
        return report

    def run_pass(self, trace: bool = False):
        """One pass; returns the child's report, with the jobs checked."""
        report = self.child(trace=trace)
        self.attempted += len(self.order)
        if report is None:
            self.failed += len(self.order)
            return None
        refs = load_json(REFERENCE)[self.workload]["jobs"]
        for rec in report["jobs"]:
            problems = [rec["error"]] if rec["error"] else \
                workloads.check_job(self.workload, rec["facts"],
                                    refs[rec["job"]])
            if problems:
                self.failed += 1
                self.errors.append(f"{rec['job']}: " + "; ".join(problems))
        return report

    def fits(self, *durations) -> bool:
        """Whether another round of passes ends within the run."""
        return clock() - self.started + sum(durations) <= self.seconds


def pass_wall(report) -> float:
    return sum(rec["seconds"] or 0.0 for rec in report["jobs"])


def scaled(rec, report) -> float:
    """A job's time at the reference speed, by the probe samples taken
    during the job, or during its whole pass if the job got too few."""
    speed = rec.get("speed") or []
    if len(speed) < MIN_SAMPLES:
        speed = report["speed"]
    return (rec["seconds"] or 0.0) * CAL_REF / statistics.mean(speed)


def end_to_end(run: Run) -> dict:
    for _ in range(SETUP_PROBES):
        run.child(setup_only=True)
    passes = []
    while True:
        rep = run.run_pass()
        if rep is None:
            break
        passes.append(rep)
        if not run.fits(statistics.median(p["elapsed"] for p in passes)):
            break
    if not passes:
        return {}
    med = statistics.median
    print(f"# passes: {len(passes)}; unscaled pass wall s: "
          + " ".join(f"{pass_wall(p):.3f}" for p in passes)
          + "; unscaled slowest job s: "
          + " ".join(f"{max(r['seconds'] or 0.0 for r in p['jobs']):.3f}"
                     for p in passes)
          + f"; unscaled setup s: {med(run.setups_raw):.4f}")
    return {
        "wall_s": {"value": med(sum(scaled(r, p) for r in p["jobs"])
                                for p in passes), "unit": "s"},
        "slowest_job_s": {"value": med(max(scaled(r, p) for r in p["jobs"])
                                       for p in passes), "unit": "s"},
        "setup_s": {"value": med(run.setups), "unit": "s"},
        "peak_rss_mb": {"value": med(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
    }


def per_layer(run: Run) -> dict:
    """Alternate untraced and traced passes; counts must repeat exactly."""
    plain, traced = [], []
    while True:
        rep = run.run_pass()
        rep_t = run.run_pass(trace=True) if rep else None
        if rep is None or rep_t is None:
            break
        plain.append(rep)
        traced.append(rep_t)
        if not run.fits(rep["elapsed"], rep_t["elapsed"]):
            break
    if not traced:
        return {}
    med = statistics.median
    layers = [t["layers"] for t in traced]
    out = {}
    for spec in load_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name in ("trace.overhead_s", "failed_ratio"):
            continue
        if name not in layers[0]:
            run.errors.append(f"the traced pass gave no {name}")
            continue
        values = [lay[name] for lay in layers]
        if unit == "s":
            value = med(values)
        else:
            value = values[0]
            if len(set(values)) > 1:
                run.errors.append(f"{name} differs between passes: {values}")
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {
        "value": med(pass_wall(t) for t in traced)
        - med(pass_wall(p) for p in plain), "unit": "s"}
    out["failed_ratio"] = {"value": run.failed / max(run.attempted, 1),
                           "unit": "ratio"}
    print(f"# traced passes: {len(traced)}; untraced wall s: "
          + " ".join(f"{pass_wall(p):.3f}" for p in plain)
          + "; traced wall s: "
          + " ".join(f"{pass_wall(t):.3f}" for t in traced))
    return out


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def record() -> int:
    """Write reference.json from one pass of every workload."""
    ref = {}
    for name in workloads.WORKLOADS:
        run = Run(name, 0, HARD_LIMIT)
        report = run.child()
        if report is None:
            print(f"{name}: {run.errors}", file=sys.stderr)
            return 1
        jobs = {}
        for rec in report["jobs"]:
            facts = rec["facts"]
            if rec["error"] or (name != "verify-q4" and not facts["identity"]):
                print(f"{name}/{rec['job']}: {rec['error'] or 'identity'}",
                      file=sys.stderr)
                return 1
            jobs[rec["job"]] = {k: v for k, v in facts.items()
                                if k not in ("identity", "exit")}
        ref[name] = {"jobs": dict(sorted(jobs.items()))}
        print(f"recorded {name}")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json and exit")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "carlitz_vmf",
                                       "__init__.py")):
        print("error: the package source src/carlitz_vmf is not in this "
              "checkout", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds)
    print(f"# workload {args.workload}, seed {args.seed}, job order: "
          + ", ".join(run.order))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    for err in run.errors:
        print(f"# FAILED {err}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.attempted, 1),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
