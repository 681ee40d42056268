"""Command-line surface: compute / verify / bench.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 insufficient precision.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import sys
import time

from . import __version__
from . import serialize as ser
from .context import Context
from .errors import PrecisionError
from .forms import (gen_Delta, gen_E, gen_fs, gen_g, gen_goss_eis, gen_h,
                    para_eisenstein)
from .verify import SUITES, run_suite
from .vmf import eis1, eis_k, hecke, legendre_fstar


def parse_prime(ctx: Context, text: str):
    """Parse a monic prime like 'theta', 'theta+1', 'theta^2+theta+1';
    a constant, a non-monic or a reducible polynomial is a ValueError."""
    text = text.strip().replace(" ", "").replace("θ", "theta")
    if text in ("theta", "t"):
        coeffs = {1: 1}
    else:
        coeffs = {}
        for part in text.replace("-", "+-").split("+"):
            if not part:
                continue
            neg = part.startswith("-")
            if neg:
                part = part[1:]
            if "theta" in part:
                head, _, tail = part.partition("theta")
                c = int(head.rstrip("*")) if head.rstrip("*") else 1
                e = int(tail[1:]) if tail.startswith("^") else 1
            else:
                c, e = int(part), 0
            coeffs[e] = coeffs.get(e, 0) + (-c if neg else c)
    deg = max(coeffs)
    out = tuple(ctx.base_field.from_int(coeffs.get(i, 0)) for i in range(deg + 1))
    if out[-1] != ctx.base_field.one:
        raise ValueError(f"{text!r} is not monic")
    if deg == 0:
        raise ValueError(f"{text!r} is a constant, not a prime")
    if not ctx.is_irreducible(out):
        raise ValueError(f"{text!r} is reducible over F_{ctx.q}")
    return out


# compute selector -> (artifact kind, builder, name of its integer argument);
# a builder with an argument is called as builder(ctx, argument, N)
FORM_SELECTORS = {
    "g": ("classical", gen_g, None),
    "h": ("classical", gen_h, None),
    "Delta": ("classical", gen_Delta, None),
    "E": ("classical", gen_E, None),
    "goss_eis": ("classical", gen_goss_eis, "m"),
    "fs": ("classical", gen_fs, "s"),
    "para": ("classical", para_eisenstein, "k"),
    "E1": ("vmform", eis1, None),
    "Ek": ("vmform", eis_k, "k"),
    "fstar": ("vmform", lambda ctx, N: legendre_fstar(ctx, N)[0], None),
    "d2": ("series", lambda ctx, N: legendre_fstar(ctx, N)[1], None),
    "d3": ("series", lambda ctx, N: legendre_fstar(ctx, N)[2], None),
}
_SELECTOR_NAMES = ", ".join(n + ":" + a if a else n
                            for n, (_, _, a) in FORM_SELECTORS.items())
_TO_JSON = {"classical": ser.classical_to_json, "vmform": ser.vmform_to_json,
            "series": ser.series_to_json}


def compute_artifact(ctx: Context, selector: str, N: int):
    """Returns (kind, trunc, payload)."""
    name, _, arg = selector.partition(":")
    if name not in FORM_SELECTORS:
        raise ValueError(f"unknown form selector {selector!r}; "
                         f"choose from {_SELECTOR_NAMES}")
    kind, build, arg_name = FORM_SELECTORS[name]
    obj = build(ctx, int(arg), N) if arg_name else build(ctx, N)
    return kind, N, _TO_JSON[kind](obj)


def cache_dir_from(args) -> str:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    env = os.environ.get("CARLITZ_VMF_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "carlitz-vmf")


@functools.cache
def _source_digest() -> str:
    """sha256 over the names and bytes of the package's ``*.py`` files, so
    that an edited package never reads a result cached by another."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def _read_cached(path: str):
    """The cached text at path, or None when it is missing or is not JSON."""
    try:
        with open(path) as fh:
            text = fh.read()
        json.loads(text)
    except (OSError, ValueError):
        return None
    return text


def _context(args):
    """The Context of --q, or None after printing the error when the field
    is not valid."""
    try:
        return Context(args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_compute(args) -> int:
    ctx = _context(args)
    if ctx is None:
        return 2
    N = args.trunc
    selector = args.form
    kind = FORM_SELECTORS.get(selector.partition(":")[0], ("classical",))[0]
    if kind != "classical" and N < ctx.q + 2:
        print(f"error: vectorial jobs need trunc >= q+2 = {ctx.q + 2}",
              file=sys.stderr)
        return 2
    request = ser.canonical_dumps({
        "schema": ser.SCHEMA, "version": __version__,
        "sources": _source_digest(),
        "field": {"p": ctx.p, "e": ctx.e}, "selector": selector, "trunc": N,
    })
    key = hashlib.sha256(request.encode()).hexdigest()
    cdir = cache_dir_from(args)
    cpath = os.path.join(cdir, key + ".json")
    text = None if args.no_cache else _read_cached(cpath)
    if text is None:
        try:
            kind, trunc, payload = compute_artifact(ctx, selector, N)
        except PrecisionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = ser.canonical_dumps(ser.envelope(ctx, kind, trunc, payload))
        if not args.no_cache:
            os.makedirs(cdir, exist_ok=True)
            tmp = cpath + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, cpath)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    ctx = _context(args)
    if ctx is None:
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for n in names:
        if n not in SUITES:
            print(f"error: unknown suite {n!r}; choose from "
                  f"{', '.join(sorted(SUITES))} or 'all'", file=sys.stderr)
            return 2
    if args.prime and args.suite not in ("hecke-eigen", "all"):
        print(f"error: --prime applies only to --suite hecke-eigen (or all), "
              f"not {args.suite!r}", file=sys.stderr)
        return 2
    primes = None
    if args.prime:
        try:
            primes = [parse_prime(ctx, p) for p in args.prime.split(",")]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    reports, short = [], []
    for n in names:
        kw = {"primes": primes} if primes and n == "hecke-eigen" else {}
        try:
            reports.append(run_suite(n, ctx.q, args.trunc, **kw))
        except PrecisionError as exc:
            short.append((n, str(exc)))
    failed = False
    for rep in reports:
        status = ("PASS" if rep["ok"] else "FAIL") if rep["ok"] is not None \
            else "REPORT"
        print(f"[{status}] {rep['suite']} (q={rep['q']})")
        for c in rep["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            line = f"    {mark} {c['name']}"
            if c.get("detail") and (not c["ok"] or args.verbose):
                line += f"  -- {c['detail']}"
            print(line)
        if rep.get("verdict"):
            print(f"    verdict: {rep['verdict']}")
        if rep["ok"] is False:
            failed = True
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(reports, fh, indent=1, default=str, sort_keys=True)
    for n, msg in short:
        print(f"error: insufficient precision in suite {n!r}: {msg}; "
              "rerun it with a larger --trunc", file=sys.stderr)
    if short:
        return 3
    return 1 if failed else 0


BENCH_GRID = {2: 128, 3: 81, 4: 320, 5: 450}


def cmd_bench(args) -> int:
    """Time E1, E1*E1 and T_theta E1 on the default (q, N) grid, or on the
    one row that --q and --trunc select."""
    if args.q:
        ctx = _context(args)
        if ctx is None:
            return 2
        grid = [(ctx, BENCH_GRID.get(ctx.q))]
    else:
        grid = [(Context(q), N) for q, N in BENCH_GRID.items()]
    if args.trunc is not None:
        grid = [(ctx, args.trunc) for ctx, _ in grid]
    for ctx, N in grid:
        if N is None:
            print(f"error: q={ctx.q} is not in the default grid; give --trunc",
                  file=sys.stderr)
            return 2
        if N < ctx.q + 2:
            print(f"error: bench needs trunc >= q+2 = {ctx.q + 2}",
                  file=sys.stderr)
            return 2
    rows = []
    for ctx, N in grid:
        t0 = time.perf_counter()
        e1 = eis1(ctx, N)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        _ = e1.h1 * e1.h3
        t_mul = time.perf_counter() - t0
        t0 = time.perf_counter()
        _ = hecke(ctx, (ctx.base_field.zero, ctx.base_field.one), e1)
        t_hecke = time.perf_counter() - t0
        coeffs = len(e1.h1.c) + len(e1.h3.c)
        rows.append((ctx.q, N, t_build, t_mul, t_hecke, coeffs))
    print(f"{'q':>3} {'N':>5} {'build E1':>10} {'mult':>10} {'Hecke':>10} "
          f"{'coeffs':>7}")
    for q, N, tb, tm, th, nc in rows:
        print(f"{q:>3} {N:>5} {tb:>9.2f}s {tm:>9.2f}s {th:>9.2f}s {nc:>7}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitz-vmf",
        description="Exact u-expansion engine for vectorial Drinfeld "
                    "modular forms with Tate-algebra values.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, help="field size q = p^e")
        p.add_argument("--trunc", type=int, default=None,
                       help="series truncation order")

    pc = sub.add_parser("compute", help="compute and serialize one artifact")
    common(pc)
    pc.add_argument("--form", required=True,
                    help="selector: " + _SELECTOR_NAMES)
    pc.add_argument("--out", help="output path (default: stdout)")
    pc.add_argument("--cache-dir", help="cache directory "
                    "(or env CARLITZ_VMF_CACHE)")
    pc.add_argument("--no-cache", action="store_true")
    pc.set_defaults(fn=cmd_compute)

    pv = sub.add_parser("verify", help="run named verification suites")
    common(pv)
    pv.add_argument("--suite", default="all",
                    help="suite name or 'all': " + ", ".join(sorted(SUITES)))
    pv.add_argument("--prime", help="comma-separated primes for hecke-eigen, "
                    "e.g. 'theta,theta+1'")
    pv.add_argument("--report", help="write the JSON report here")
    pv.add_argument("--verbose", action="store_true")
    pv.set_defaults(fn=cmd_verify)

    pb = sub.add_parser("bench", help="timing table over the default (q, N) "
                        "grid, or the one row --q/--trunc select")
    common(pb)
    pb.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command in ("compute", "verify"):
        if not args.q:
            print("error: give --q", file=sys.stderr)
            return 2
        if args.command == "compute" and args.trunc is None:
            print("error: compute needs --trunc", file=sys.stderr)
            return 2
        if args.trunc is not None and args.trunc < 1:
            print(f"error: --trunc must be at least 1, not {args.trunc}",
                  file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except PrecisionError as exc:
        print(f"error: insufficient precision: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
