"""One pass of one workload, in a fresh interpreter started by ``run.py``.

The child imports the package from ``src/`` of the checkout, builds F_q,
stamps the time at which it is ready (``CLOCK_MONOTONIC``, which the parent
also reads before starting it), then runs every job of the workload in the
seeded order.  A speed sample just before the imports and one just after
them let the parent scale the set-up time as it scales the jobs.  Only the
package's work is timed; the facts the parent checks (identities,
precisions, digests) are gathered after each job.  The last line of its
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The same list as tracer.LAYERS, repeated so that set-up loads no
# benchmark module.
LAYERS = ("fields", "polys", "scalars", "carlitz", "useries", "forms", "vmf",
          "specialize", "verify", "serialize", "context", "cli")


class SpeedProbe:
    """Samples the machine's speed while a pass runs.

    Every ``INTERVAL`` seconds, from the first job to the end of the last,
    a SIGALRM handler times a fixed loop of small function calls on pairs
    of ints that return tuples, the same kind of work as the engine's F_q
    and ``Poly`` arithmetic but without the package, so no change to the
    package moves it.  The time spent in the handler is subtracted from
    the job that it interrupted.  ``run.py`` scales each job's time by the
    mean sample taken during that job, or by the pass's mean sample if the
    job got too few of its own (README, *Noise*).
    """

    INTERVAL = 0.1
    PAIRS = [(i % 97, i % 89) for i in range(4000)]

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self) -> float:
        """Time the loop once; returns the sample."""
        t0 = time.perf_counter()
        step = _probe_step
        acc = (1, 1)
        for _ in range(2):
            for a, b in self.PAIRS:
                acc = step(acc[0] + a, acc[1] + b)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        return t1 - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _probe_step(a, b):
    return (a * b + a) % 97, (a + b) % 89


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--q", type=int, required=True)
    ap.add_argument("--jobs", required=True, help="comma-separated, in order")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the parent takes the first sample's time off the set-up time
    setup_speed = [SpeedProbe().sample()]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pkg = importlib.import_module("carlitz_vmf")
    for layer in LAYERS:
        importlib.import_module(f"carlitz_vmf.{layer}")
    pkg.fields.field_from_order(args.q)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_speed.append(SpeedProbe().sample())
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(pkg)
        if tracer.missing:
            print("trace hooks not found: " + ", ".join(tracer.missing),
                  file=sys.stderr)

    def dump(f):
        """The serialization step of a check: traced, unlike the rest."""
        if tracer is None:
            return f()
        tracer.on = True
        try:
            return f()
        finally:
            tracer.on = False

    jobs = args.jobs.split(",")
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    probe = SpeedProbe()
    results = []
    # the traced pass is not scaled, so it runs without the probe
    with probe if tracer is None else contextlib.nullcontext():
        for idx, job in enumerate(jobs):
            rec = {"job": job, "seconds": None, "facts": None, "error": None}
            try:
                if tracer is not None:
                    tracer.job, tracer.on = idx, True
                first, spent = len(probe.samples), probe.spent
                t0 = time.perf_counter()
                out = workloads.run_job(pkg, args.workload, job, workdir)
                rec["seconds"] = (time.perf_counter() - t0
                                  - (probe.spent - spent))
                rec["speed"] = probe.samples[first:]
                if tracer is not None:
                    tracer.on = False
                rec["facts"] = workloads.job_facts(pkg, args.workload, job,
                                                   out, dump)
                del out
            except Exception:  # a failing job is reported, the pass goes on
                rec["error"] = traceback.format_exc(limit=6)
            finally:
                if tracer is not None:
                    tracer.on = False
            results.append(rec)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"ready": ready, "setup_speed": setup_speed, "jobs": results,
              "speed": probe.samples, "peak_rss_mb": peak_mb}
    if tracer is not None:
        report["layers"] = tracer.metrics(workloads.SUITES)
        tracer.write_spans(
            os.path.join(workdir, f"spans-{args.workload}.json"), jobs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
