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
from carlitz_vmf.errors import EvaluationPoleError, PrecisionError
from carlitz_vmf.forms import ClassicalForm, gen_g
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
        verify._chk(checks, "first identity", True)
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
        verify._chk(checks, "first identity", True)
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


def test_run_suite_frees_the_suite_context(monkeypatch):
    """With the cyclic collector off, the context that run_suite hands a
    suite is gone once run_suite returns: its cached builds, which close
    over it, are dropped when the suite ends."""
    contexts = []
    det = verify.SUITES["det"]

    def spy(ctx, N, *, checks):
        contexts.append(weakref.ref(ctx))
        return det(ctx, N, checks=checks)
    monkeypatch.setitem(verify.SUITES, "det", spy)
    gc.disable()
    try:
        rep = verify.run_suite("det", 2, 24)
        (ref,) = contexts
        assert ref() is None
    finally:
        gc.enable()
    assert rep["ok"] is True


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
