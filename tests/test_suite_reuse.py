"""Objects a verify suite builds once and reads in several checks.

``suite_oracles`` takes one ``coset_power_sums`` table per coset base, at
the largest K its checks read; that is sound because the table is
prefix-stable: the table to K' > K agrees with the table to K for every
n <= K, in coefficients and in precision.  ``hecke-mult-tau`` takes
T_theta(E1) once for the two checks that read it.
"""

import pytest

from carlitz_vmf import verify
from carlitz_vmf.context import Context
from carlitz_vmf.useries import USeries, u_scale


@pytest.mark.parametrize("q", [2, 3, 4])
def test_coset_power_sums_are_prefix_stable(q):
    N = q * q + 6
    ctx = Context(q)
    p = verify.prime_theta(ctx)
    bases = {"u": USeries.u(ctx).truncate(N),
             "u(az)": u_scale(ctx, verify.prime_theta_plus(ctx, 1), N)}
    for name, base in bases.items():
        K = q + 1
        short = verify.coset_power_sums(ctx, p, base, K)
        long = verify.coset_power_sums(ctx, p, base, 2 * K + 3)
        assert sorted(short) == list(range(1, K + 1)), name
        for n in short:
            assert short[n].c == long[n].c, (name, n)
            assert short[n].prec == long[n].prec, (name, n)
        # the top entry is not trivially equal: it carries a coefficient
        assert short[K].c, name


def _counted(monkeypatch, name):
    """Wrap ``verify.<name>``; the returned list gets one entry per call."""
    calls = []
    fn = getattr(verify, name)

    def counted(*args, **kw):
        calls.append(args)
        return fn(*args, **kw)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_oracles_builds_one_power_sum_table_per_coset_base(monkeypatch):
    calls = _counted(monkeypatch, "coset_power_sums")
    rep = verify.run_suite("oracles", 4)
    assert rep["ok"], rep["first_discrepancy"]
    # one over u for the E and g traces, one over u(az) for each of two a
    assert len(calls) == 3
    assert len({id(base) for _, _, base, _ in calls}) == 3


def test_hecke_mult_tau_takes_t_theta_e1_once(monkeypatch):
    calls = _counted(monkeypatch, "hecke")
    rep = verify.run_suite("hecke-mult-tau", 2)
    assert rep["ok"], rep["first_discrepancy"]
    # T_p T_q and T_q T_p on E1 (4), T_theta on E1 read again (0), and
    # T_theta on tau(E1), hF* and tau(hF*) (3)
    assert len(calls) == 7
