import gc
import json
import os
import shutil
import subprocess
import sys
import weakref

import pytest

from carlitz_vmf import serialize as ser
from carlitz_vmf import verify
from carlitz_vmf.cli import BENCH_GRID, main, parse_prime
from carlitz_vmf.context import Context
from carlitz_vmf.errors import (CarlitzVMFError, EvaluationPoleError,
                                NotInSpanError, PrecisionError)
from carlitz_vmf.forms import ClassicalForm, gen_g
from carlitz_vmf.scalars import GradedScalar
from carlitz_vmf.useries import USeries
from carlitz_vmf.vmf import eis1
from conftest import shared_context


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_prime():
    ctx = Context(3)
    assert parse_prime(ctx, "theta") == (0, 1)
    assert parse_prime(ctx, "theta+1") == (1, 1)
    assert parse_prime(ctx, "theta^2+theta+2") == (2, 1, 1)
    with pytest.raises(ValueError):
        parse_prime(ctx, "2*theta")  # not monic


@pytest.mark.parametrize("q, prime", [(2, "theta^2"), (4, "1,1")])
def test_verify_refuses_a_prime_that_is_not_irreducible(monkeypatch, capsys,
                                                       q, prime):
    """theta^2 is reducible; "1,1" names two constants.  Either is a usage
    error (exit 2) before any suite runs, not a failed suite."""
    ran = []

    def spy(ctx, N=None, primes=None, *, checks):
        ran.append(primes)
        return verify._report("hecke-eigen", ctx.q, N, checks)
    monkeypatch.setitem(verify.SUITES, "hecke-eigen", spy)
    with pytest.raises(ValueError):
        parse_prime(Context(q), prime.split(",")[0])
    code, out, err = run(["verify", "--suite", "hecke-eigen", "--q", str(q),
                          "--prime", prime], capsys)
    assert code == 2
    assert err.startswith("error: ") and not out
    assert ran == []


def test_compute_matches_library(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(["compute", "--q", "3", "--trunc", "10", "--form", "g",
                      "--out", str(out), "--cache-dir", str(tmp_path / "c")],
                     capsys)
    assert code == 0
    env = json.loads(out.read_text())
    assert env["schema"] == "carlitz-vmf/1"
    assert env["kind"] == "classical"
    ctx = Context(3)
    back = ser.classical_from_json(ctx, env["payload"])
    assert back.series.eq_to_prec(gen_g(ctx, 10).series)


def test_compute_cache_bit_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["compute", "--q", "2", "--trunc", "12", "--form", "E1",
            "--cache-dir", cache]
    code, out1, _ = run(args, capsys)
    assert code == 0
    files = os.listdir(cache)
    assert len(files) == 1
    code, out2, _ = run(args, capsys)
    assert code == 0
    assert out1 == out2
    assert os.listdir(cache) == files


def test_compute_d2_small(tmp_path, capsys):
    code, out, _ = run(["compute", "--q", "2", "--trunc", "8", "--form", "d2",
                        "--no-cache"], capsys)
    assert code == 0
    env = json.loads(out)
    assert env["kind"] == "series"
    # constant term 1, next displayed coefficient theta + t
    coeffs = dict((n, s) for n, s in env["payload"]["coeffs"])
    assert 0 in coeffs and 1 in coeffs


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(["compute", "--q", "3", "--trunc", "10",
                        "--form", "nonsense", "--no-cache"], capsys)
    assert code == 2
    code, _, err = run(["compute", "--q", "3", "--trunc", "3", "--form", "E1",
                        "--no-cache"], capsys)
    assert code == 2 and "q+2" in err
    code, _, err = run(["compute", "--q", "6", "--trunc", "10", "--form", "g",
                        "--no-cache"], capsys)
    assert code == 2
    code, _, err = run(["verify", "--q", "2", "--suite", "no-such-suite"],
                       capsys)
    assert code == 2
    code, _, err = run(["compute", "--trunc", "10", "--form", "g"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "tau-difference", "--q", "3", "--trunc", "0"],
    ["verify", "--suite", "oracles", "--q", "3", "--trunc", "0"],
    ["verify", "--suite", "det", "--q", "2", "--trunc", "-1"],
    ["compute", "--form", "E", "--q", "2", "--trunc", "-2"],
    ["compute", "--form", "g", "--q", "3", "--trunc", "0"],
])
def test_trunc_below_one_is_a_usage_error(args, capsys, tmp_path):
    """A series known only to O(u^0) holds nothing to compare or write:
    --trunc below 1 exits 2 before any suite runs or any file is cached."""
    code, out, err = run(args + (["--cache-dir", str(tmp_path)]
                                 if args[0] == "compute" else []), capsys)
    assert code == 2
    assert err.startswith("error: ") and "--trunc" in err
    assert not out and not any(tmp_path.iterdir())


def test_prime_with_a_suite_that_ignores_it_is_a_usage_error(monkeypatch,
                                                             capsys):
    """--prime reaches hecke-eigen only; naming another suite with it is
    an error that names hecke-eigen, and no suite runs."""
    ran = []

    def spy(ctx, N=None, *, checks):
        ran.append(ctx.q)
        return verify._report("det", ctx.q, N, checks)
    monkeypatch.setitem(verify.SUITES, "det", spy)
    code, out, err = run(["verify", "--suite", "det", "--q", "2",
                          "--prime", "theta"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "hecke-eigen" in err
    assert not out and ran == []


def test_verify_suite_pass(capsys):
    code, out, _ = run(["verify", "--q", "3", "--suite", "generators",
                        "--trunc", "40"], capsys)
    assert code == 0
    assert "[PASS] generators" in out


def test_verify_report_file(tmp_path, capsys):
    rep = tmp_path / "report.json"
    code, _, _ = run(["verify", "--q", "2", "--suite", "det", "--trunc", "20",
                      "--report", str(rep)], capsys)
    assert code == 0
    data = json.loads(rep.read_text())
    assert data[0]["suite"] == "det"
    assert data[0]["ok"] is True


def test_verify_experimental_is_report_only(capsys):
    code, out, _ = run(["verify", "--q", "2", "--suite",
                        "weight-q2-experimental", "--trunc", "16"], capsys)
    assert code == 0
    assert "[REPORT]" in out
    assert "verdict" in out


def _raising_suite(exc):
    def suite(ctx, N=8, *, checks):
        raise exc
    return suite


def _passing_suite(name):
    def suite(ctx, N=8, *, checks):
        return verify._report(name, ctx.q, N,
                              [{"name": "fine", "ok": True, "detail": None}])
    return suite


def test_run_suite_reports_a_raising_suite_as_failed(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "raises", _raising_suite(
        EvaluationPoleError("uncancelled pole at t = theta")))
    rep = verify.run_suite("raises", 2)
    assert rep["ok"] is False
    (check,) = rep["checks"]
    assert check["ok"] is False
    assert check["detail"] == \
        "EvaluationPoleError: uncancelled pole at t = theta"
    assert rep["first_discrepancy"] == {"check": check["name"],
                                        "detail": check["detail"]}
    code, out, _ = run(["verify", "--q", "2", "--suite", "raises"], capsys)
    assert code == 1
    assert "[FAIL] raises" in out
    assert "uncancelled pole at t = theta" in out


def test_run_suite_keeps_the_checks_before_an_exception(monkeypatch):
    def suite(ctx, N=8, *, checks):
        with checks("first identity") as c:
            c.ok(True)
        raise EvaluationPoleError("pole")
    monkeypatch.setitem(verify.SUITES, "half", suite)
    rep = verify.run_suite("half", 2)
    assert rep["ok"] is False
    first, failed = rep["checks"]
    assert first == {"name": "first identity", "ok": True, "detail": None}
    assert failed["ok"] is False
    assert failed["detail"] == "EvaluationPoleError: pole"
    assert rep["first_discrepancy"]["check"] == failed["name"]


def test_run_suite_reports_any_exception_as_a_failed_check(monkeypatch,
                                                          capsys):
    def suite(ctx, N=8, *, checks):
        with checks("first identity") as c:
            c.ok(True)
        return 1 // 0
    for name in list(verify.SUITES):
        monkeypatch.delitem(verify.SUITES, name)
    monkeypatch.setitem(verify.SUITES, "a-divides", suite)
    monkeypatch.setitem(verify.SUITES, "b-passes", _passing_suite("b-passes"))
    rep = verify.run_suite("a-divides", 2)
    assert rep["ok"] is False
    first, failed = rep["checks"]
    assert first == {"name": "first identity", "ok": True, "detail": None}
    assert failed == {"name": "suite ran to completion", "ok": False,
                      "detail": "ZeroDivisionError: integer division or "
                                "modulo by zero"}
    code, out, _ = run(["verify", "--q", "2", "--suite", "all"], capsys)
    assert code == 1
    assert "[FAIL] a-divides" in out and "[PASS] b-passes" in out
    assert "ZeroDivisionError" in out


@pytest.mark.parametrize("suite, N", [("det", 24), ("congruence", None),
                                      ("vadic", None)])
def test_run_suite_frees_the_suite_context(monkeypatch, suite, N):
    """With the cyclic collector off, the context that run_suite hands a
    suite is gone once run_suite returns: its cached builds, which close
    over it, are dropped when the suite ends, and so are those of the
    F_{q^d} contexts that congruence and vadic make for each check."""
    contexts = []
    fn = verify.SUITES[suite]

    def spy(ctx, *args, checks):
        contexts.append(weakref.ref(ctx))
        return fn(ctx, *args, checks=checks)
    monkeypatch.setitem(verify.SUITES, suite, spy)
    gc.disable()
    try:
        rep = verify.run_suite(suite, 2, N)
        (ref,) = contexts
        assert ref() is None
    finally:
        gc.enable()
    assert rep["ok"] is True


def test_a_raising_check_fails_alone(monkeypatch, capsys):
    """The check after a raising one still runs, and first_discrepancy
    names the raising check."""
    def suite(ctx, N=8, *, checks):
        with checks("before") as c:
            c.ok(True)
        with checks("raises") as c:
            c.ok(True)
            raise EvaluationPoleError("pole at t = theta")
        with checks("after") as c:
            c.ok(True, "ran")
        return verify._report("middle", ctx.q, N, checks)
    monkeypatch.setitem(verify.SUITES, "middle", suite)
    rep = verify.run_suite("middle", 2)
    assert rep["ok"] is False
    assert rep["checks"] == [
        {"name": "before", "ok": True, "detail": None},
        {"name": "raises", "ok": False,
         "detail": "EvaluationPoleError: pole at t = theta"},
        {"name": "after", "ok": True, "detail": "ran"},
    ]
    assert rep["first_discrepancy"] == {
        "check": "raises", "detail": "EvaluationPoleError: pole at t = theta"}
    code, out, _ = run(["verify", "--q", "2", "--suite", "middle"], capsys)
    assert code == 1 and "pole at t = theta" in out


def test_check_same_names_the_first_differing_coefficient():
    ctx = Context(3)
    got = eis1(ctx, 10)
    want = got.scale(GradedScalar.from_int(ctx.ring, 2))
    n, a, b = got.h1.first_difference(want.h1)
    checks = verify.Checks()
    with checks("E1 == 2 E1") as c:
        c.same(got, want)
    with checks("E1.h1 == 2 E1.h1") as c:
        c.same(got.h1, want.h1, "col 0 ")
    with checks("E1 == E1") as c:
        c.same(got, got)
    assert checks == [
        {"name": "E1 == 2 E1", "ok": False,
         "detail": f"h1[u^{n}]: got {a}, expected {b}"},
        {"name": "E1.h1 == 2 E1.h1", "ok": False,
         "detail": f"col 0 u^{n}: got {a}, expected {b}"},
        {"name": "E1 == E1", "ok": True, "detail": None},
    ]


def test_a_check_keeps_the_first_failing_detail():
    """A check holds iff every call holds; its detail is the first failing
    call's, else the last detail given (None when none is)."""
    checks = verify.Checks()
    with checks("fails twice") as c:
        c.ok(True, "a pass")
        c.ok(False, "first failure")
        c.ok(False, "second failure")
        c.ok(True, "a later pass")
    with checks("fails, then raises") as c:
        c.ok(False, "first failure")
        raise ArithmeticError("not kept")
    with checks("passes") as c:
        c.ok(True, "a pass")
        c.ok(True)
        c.ok(True, "the last pass")
    with checks("records nothing"):
        pass
    assert [(e["ok"], e["detail"]) for e in checks] == [
        (False, "first failure"), (False, "first failure"),
        (True, "the last pass"), (True, None)]


def test_a_precision_error_inside_a_check_still_exits_3(monkeypatch, capsys):
    reached = []

    def suite(ctx, N=8, *, checks):
        with checks("needs more terms") as c:
            raise PrecisionError("comparison needs O(u^40), have O(u^8)")
        reached.append(c)
        return verify._report("short-check", ctx.q, N, checks)
    monkeypatch.setitem(verify.SUITES, "short-check", suite)
    with pytest.raises(PrecisionError):
        verify.run_suite("short-check", 2)
    code, _, err = run(["verify", "--q", "2", "--suite", "short-check"],
                       capsys)
    assert code == 3
    assert "insufficient precision" in err
    assert reached == []


def test_eisenstein_aexp_fails_both_weight_2q_minus_1_checks(monkeypatch):
    """When eis_k raises at weight 2q-1, both checks that read it are
    listed as failed with the exception, and the four before them pass."""
    eis_k = verify.eis_k

    def stub(ctx, k, N):
        if k == 2 * ctx.q - 1:
            raise CarlitzVMFError("non-constant terms at [3]")
        return eis_k(ctx, k, N)
    monkeypatch.setattr(verify, "eis_k", stub)
    rep = verify.run_suite("eisenstein-aexp", 2, 12)
    assert [c["ok"] for c in rep["checks"]] == [True] * 4 + [False] * 2
    assert [(c["name"], c["detail"]) for c in rep["checks"][4:]] == [
        ("lambda_3 extraction is constant",
         "CarlitzVMFError: non-constant terms at [3]"),
        ("structure decomposition of weight 3 round-trips",
         "CarlitzVMFError: non-constant terms at [3]"),
    ]


def test_a_raising_decomposition_case_keeps_the_later_draws(monkeypatch):
    """In properties, a structure decomposition that raises fails its case
    alone: every later case is still drawn, the same as without the raise,
    and decomposed."""
    decompose = verify.structure_decompose
    seen = {False: [], True: []}

    def spy(ctx, H, raising):
        seen[raising].append(str(H.h1))
        if raising and len(seen[raising]) == 1:
            raise NotInSpanError("form is not in the Eisenstein module")
        return decompose(ctx, H)
    for raising in (False, True):
        monkeypatch.setattr(verify, "structure_decompose",
                            lambda ctx, H: spy(ctx, H, raising))
        rep = verify.run_suite("properties", 2, 12, cases=4)
        failed = [c["name"] for c in rep["checks"] if not c["ok"]]
        assert failed == (["structure decomposition round-trip"] if raising
                          else [])
    assert len(seen[False]) > 1 and seen[True] == seen[False]


def test_context_clear_empties_both_caches():
    """After clear, a build at 20 and a request at 30 give the build at 30:
    a top left behind from the cleared build at 40 would serve the request
    from the build at 20, at precision 20."""
    ctx = Context(2)
    eis1(ctx, 40)
    ctx.clear()
    eis1(ctx, 20)
    got = ser.vmform_to_json(eis1(ctx, 30))
    assert got["trunc"] == 30
    assert got == ser.vmform_to_json(eis1(Context(2), 30))


def _asked_truncations(monkeypatch, suite, builder, qs):
    """The N that each default run of ``suite`` hands ``builder``; the stub
    records it and raises, so no series is built."""
    asked = []

    def stub(ctx, N):
        asked.append(N)
        raise EvaluationPoleError("stub")
    monkeypatch.setattr(verify, builder, stub)
    for q in qs:
        verify.run_suite(suite, q)
    return asked


def test_default_truncations_come_from_q(monkeypatch):
    # legendre reads d2 at u^((q-1) q^2); N = 64 up to q = 4
    assert _asked_truncations(monkeypatch, "legendre", "legendre_fstar",
                              (2, 3, 4, 5)) == [64, 64, 64, 101]
    # generators reads E at u^(1 + (q-1)^2); g, built first and at q=9 to
    # u^586, is stubbed by an exact zero series
    monkeypatch.setattr(verify, "gen_g", lambda ctx, N: ClassicalForm(
        ctx, ctx.q - 1, 0, USeries.zero(ctx)))
    assert _asked_truncations(monkeypatch, "generators", "gen_E",
                              (2, 4, 9)) == [60, 60, 66]


def test_verify_all_continues_past_a_raising_suite(monkeypatch, capsys):
    for name in list(verify.SUITES):
        monkeypatch.delitem(verify.SUITES, name)
    monkeypatch.setitem(verify.SUITES, "a-raises", _raising_suite(
        EvaluationPoleError("pole")))
    monkeypatch.setitem(verify.SUITES, "b-passes", _passing_suite("b-passes"))
    code, out, _ = run(["verify", "--q", "2", "--suite", "all"], capsys)
    assert code == 1
    assert "[FAIL] a-raises" in out
    assert "[PASS] b-passes" in out


def test_verify_precision_error_still_exits_3(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "short", _raising_suite(
        PrecisionError("need more terms")))
    with pytest.raises(PrecisionError):
        verify.run_suite("short", 2)
    code, _, err = run(["verify", "--q", "2", "--suite", "short"], capsys)
    assert code == 3
    assert "insufficient precision" in err


def test_verify_all_keeps_reports_when_a_suite_needs_more_precision(
        monkeypatch, tmp_path, capsys):
    """A suite that asks for a larger --trunc does not discard the reports
    of the others: they are printed and written, the short suite is named,
    and the exit code stays 3."""
    for name in list(verify.SUITES):
        monkeypatch.delitem(verify.SUITES, name)
    monkeypatch.setitem(verify.SUITES, "a-passes", _passing_suite("a-passes"))
    monkeypatch.setitem(verify.SUITES, "b-short", _raising_suite(
        PrecisionError("need more terms")))
    monkeypatch.setitem(verify.SUITES, "c-passes", _passing_suite("c-passes"))
    rep = tmp_path / "report.json"
    code, out, err = run(["verify", "--q", "2", "--suite", "all",
                          "--report", str(rep)], capsys)
    assert code == 3
    assert "[PASS] a-passes" in out and "[PASS] c-passes" in out
    assert "b-short" not in out
    assert "insufficient precision" in err
    assert "'b-short'" in err and "--trunc" in err
    assert [r["suite"] for r in json.loads(rep.read_text())] == [
        "a-passes", "c-passes"]


def test_verify_jobs_passes_prime_through(monkeypatch, tmp_path, capsys):
    for name in list(verify.SUITES):
        if name not in ("det", "hecke-eigen"):
            monkeypatch.delitem(verify.SUITES, name)
    rep = tmp_path / "report.json"
    code, _, _ = run(["verify", "--q", "3", "--suite", "all",
                      "--prime", "theta+1", "--report", str(rep)], capsys)
    assert code == 0
    reports = json.loads(rep.read_text())
    assert [r["suite"] for r in reports] == ["det", "hecke-eigen"]
    names = [c["name"] for c in reports[1]["checks"]]
    assert names and all("p=(1, 1)" in n for n in names)


def test_compute_cache_key_includes_version(monkeypatch, tmp_path, capsys):
    from carlitz_vmf import cli

    cache = tmp_path / "cache"
    args = ["compute", "--q", "3", "--trunc", "8", "--form", "g",
            "--cache-dir", str(cache)]
    assert run(args, capsys)[0] == 0
    first = set(os.listdir(cache))
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    assert run(args, capsys)[0] == 0
    files = set(os.listdir(cache))
    assert len(files) == 2 and first < files


def test_compute_cache_key_includes_the_sources(tmp_path):
    """A cached result does not outlive the code that produced it: the same
    request from a copy of the package with one source edited misses the
    cache, at the same version."""
    import carlitz_vmf

    pkg = os.path.dirname(os.path.abspath(carlitz_vmf.__file__))
    edited = tmp_path / "src"
    shutil.copytree(pkg, edited / "carlitz_vmf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(edited / "carlitz_vmf" / "vmf.py", "a") as fh:
        fh.write("\n# an edit that changes no result\n")
    cache = tmp_path / "cache"
    args = ["compute", "--q", "3", "--trunc", "8", "--form", "g",
            "--cache-dir", str(cache)]
    code = "import sys; from carlitz_vmf.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = []
    for root in (os.path.dirname(pkg), str(edited)):
        env = dict(os.environ, PYTHONPATH=root, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-c", code] + args, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(os.listdir(cache)) == 2


def test_compute_unreadable_cache_entry_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["compute", "--q", "3", "--trunc", "8", "--form", "g",
            "--cache-dir", str(cache)]
    code, good, _ = run(args, capsys)
    assert code == 0
    (entry,) = cache.iterdir()
    entry.write_text('{"schema": "carlitz-vmf/1", "payl')
    code, out, _ = run(args, capsys)
    assert code == 0
    assert out == good
    assert entry.read_text() + "\n" == good


def test_bench_runs_the_selected_row(capsys):
    code, out, _ = run(["bench", "--q", "3", "--trunc", "9"], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == 1
    assert rows[0].split()[:2] == ["3", "9"]
    code, _, err = run(["bench", "--q", "3", "--trunc", "4"], capsys)
    assert code == 2 and "q+2" in err


def test_bench_runs_an_extension_field_row(capsys):
    assert 4 in BENCH_GRID
    code, out, _ = run(["bench", "--q", "4", "--trunc", "8"], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert len(rows) == 1
    assert rows[0].split()[:2] == ["4", "8"]
