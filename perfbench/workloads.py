"""The benchmark's workloads: the jobs of one pass, how each runs, and the
facts about its output that the correctness gate compares.

Every job builds a fresh ``Context`` (or, for the verify suites, lets the
CLI build its own), so the package's caches start cold, as they do for a
user running the CLI once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

# Monic primes of F_2[theta] of degree 1 and 2, little-endian.
PRIMES = {"theta": (0, 1), "theta+1": (1, 1), "theta^2+theta+1": (1, 1, 1)}

# The 14 suites of `carlitz-vmf verify`, fixed here so that a suite added
# to the package does not change the workload.
SUITES = ("congruence", "det", "eisenstein-aexp", "generators", "hecke-eigen",
          "hecke-mult-tau", "hyperderiv-hecke", "legendre", "oracles",
          "properties", "specialize-petrov", "tau-difference", "vadic",
          "weight-q2-experimental")

# `legendre` runs at the smallest truncation that still defines every one
# of its checks (u^48 is the highest displayed coefficient at q = 4); at
# its default N = 64 it alone takes longer than one benchmark run.
VERIFY_TRUNC = {"legendre": 49}

WORKLOADS = {
    "hecke-e1-q2": {"q": 2, "N": 32, "jobs": tuple(PRIMES)},
    "hecke-he1-q2": {"q": 2, "N": 24, "jobs": tuple(PRIMES)},
    "verify-q4": {"q": 4, "jobs": SUITES},
}


def job_order(workload: str, seed: int) -> list:
    """The seed fixes the order of the jobs; every pass runs all of them,
    so the work per pass does not depend on the seed."""
    jobs = list(WORKLOADS[workload]["jobs"])
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


def digest(pkg, obj) -> str:
    text = pkg.serialize.canonical_dumps(obj)
    return hashlib.sha256(text.encode()).hexdigest()


# -- Hecke jobs ------------------------------------------------------------


def run_hecke(pkg, workload: str, job: str):
    """E1 (times h for hecke-he1-q2) to O(u^N), then its Hecke image."""
    N = WORKLOADS[workload]["N"]
    ctx = pkg.Context(WORKLOADS[workload]["q"])
    e1 = pkg.vmf.eis1(ctx, N)
    H = e1
    if workload == "hecke-he1-q2":
        H = e1.mul_classical(pkg.forms.gen_h(ctx, N))
    T = pkg.vmf.hecke(ctx, PRIMES[job], H)
    return ctx, e1, H, T


def hecke_facts(pkg, workload: str, job: str, out, dump) -> dict:
    """T_p E1 = p E1 and T_p(h E1) = p^2 h E1, to the image's precision."""
    ctx, e1, H, T = out
    k = 2 if workload == "hecke-he1-q2" else 1
    expect = H.scale(ctx.gs(ctx.apoly(PRIMES[job]) ** k))
    return {
        "identity": T.first_difference(expect) is None,
        "input_prec": [e1.h1.prec, e1.h3.prec],
        "prec": [T.h1.prec, T.h3.prec],
        "digest": dump(lambda: digest(pkg, pkg.serialize.vmform_to_json(T))),
    }


def check_hecke(workload: str, facts: dict, ref: dict) -> list:
    N = WORKLOADS[workload]["N"]
    errors = []
    if not facts["identity"]:
        errors.append("Hecke eigen-identity fails")
    if facts["input_prec"] != [N, N]:
        errors.append(f"E1 precision {facts['input_prec']}, requested {N}")
    if facts["prec"] != ref["prec"]:
        errors.append(f"image precision {facts['prec']}, expected {ref['prec']}")
    if facts["digest"] != ref["digest"]:
        errors.append("output digest differs from the reference")
    return errors


# -- verify jobs -----------------------------------------------------------


def run_verify(pkg, workload: str, job: str, workdir: str):
    """`carlitz-vmf verify --suite <job> --q 4 --report <path>`, in-process."""
    path = os.path.join(workdir, f"report-{job}.json")
    argv = ["verify", "--suite", job, "--q", str(WORKLOADS[workload]["q"]),
            "--report", path]
    if job in VERIFY_TRUNC:
        argv += ["--trunc", str(VERIFY_TRUNC[job])]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = pkg.cli.main(argv)
    return rc, path


def verify_facts(pkg, workload: str, job: str, out, dump) -> dict:
    rc, path = out
    with open(path) as fh:
        reports = json.load(fh)
    os.remove(path)
    (rep,) = reports
    return {
        "exit": rc,
        "trunc": rep["trunc"],
        "checks": [[c["name"], c["ok"]] for c in rep["checks"]],
        "digest": dump(lambda: digest(pkg, reports)),
    }


def check_verify(workload: str, facts: dict, ref: dict) -> list:
    """A check that passed in the reference must pass; checks that were red
    there (legendre's psi display values) may stay red."""
    errors = []
    if facts["exit"] not in (0, 1):
        errors.append(f"verify exited with {facts['exit']}")
    if facts["trunc"] != ref["trunc"]:
        errors.append(f"truncation {facts['trunc']}, expected {ref['trunc']}")
    names = [name for name, _ in facts["checks"]]
    if names != [name for name, _ in ref["checks"]]:
        errors.append("the suite's list of checks changed")
    else:
        for (name, ok), (_, was_ok) in zip(facts["checks"], ref["checks"]):
            if was_ok and not ok:
                errors.append(f"check now fails: {name}")
    if facts["digest"] != ref["digest"]:
        errors.append("report digest differs from the reference")
    return errors


def run_job(pkg, workload: str, job: str, workdir: str):
    if workload == "verify-q4":
        return run_verify(pkg, workload, job, workdir)
    return run_hecke(pkg, workload, job)


def job_facts(pkg, workload: str, job: str, out, dump) -> dict:
    """Facts about a job's output; ``dump`` runs the serialization step."""
    if workload == "verify-q4":
        return verify_facts(pkg, workload, job, out, dump)
    return hecke_facts(pkg, workload, job, out, dump)


def check_job(workload: str, facts: dict, ref: dict) -> list:
    """Reasons the job failed; empty when it passed."""
    if workload == "verify-q4":
        return check_verify(workload, facts, ref)
    return check_hecke(workload, facts, ref)
