"""The verify driver: suites return their checks, and ``run_suite`` alone
applies ``tol``, rescales to the headline tolerance and builds the report."""

import hashlib
import math

import numpy as np
import pytest

from poincarewave import hypersph, verify
from poincarewave.halfint import HalfInt

REPORT_KEYS = ["suite", "cases", "max_residual", "tolerance", "passed", "details"]


def test_all_calls_each_suite_once_in_order(monkeypatch):
    calls = []

    def recorder(name):
        def suite():
            calls.append(name)
            return [(f"{name}_check", 0.5, 1.0)], 1.0, {}
        return suite

    for name in verify._SUITE_FUNCS:
        monkeypatch.setitem(verify._SUITE_FUNCS, name, recorder(name))
    report = verify.run_suite("all")
    assert calls == list(verify._SUITE_FUNCS)
    assert verify.SUITES == (*verify._SUITE_FUNCS, "all")
    assert report.cases == len(calls)
    assert (report.max_residual, report.tolerance, report.passed) == (0.5, 1.0, True)
    assert list(report.details) == calls


def test_radial_report_rescales_its_checks(monkeypatch):
    checks, headline, details = verify._SUITE_FUNCS["radial"]()
    monkeypatch.setitem(verify._SUITE_FUNCS, "radial", lambda: (checks, headline, details))
    names = [n for n, _, _ in checks]
    ratios = [r / t for _, r, t in checks]
    residuals = [r for _, r, _ in checks]

    report = verify.run_suite("radial")
    assert report.max_residual == headline * max(ratios)
    assert report.tolerance == headline
    assert report.passed == all(r <= t for _, r, t in checks)
    assert report.details == {**details, "worst_check": names[ratios.index(max(ratios))]}

    zero = verify.run_suite("radial", tol=0.0)
    assert zero.max_residual == max(residuals)
    assert zero.tolerance == 0.0
    assert zero.passed == all(r <= 0.0 for r in residuals)
    assert zero.details["worst_check"] == names[residuals.index(max(residuals))]


def test_zero_tolerance_ratio_is_inf_for_a_positive_residual(monkeypatch):
    monkeypatch.setitem(verify._SUITE_FUNCS, "gamma", lambda: ([("c", 1e-300, 0.0)], 0.0, {}))
    for name in verify._SUITE_FUNCS:
        if name != "gamma":
            monkeypatch.setitem(verify._SUITE_FUNCS, name, lambda: ([("c", 0.0, 1.0)], 1.0, {}))
    report = verify.run_suite("all")
    assert report.max_residual == math.inf
    assert report.passed is False


def test_report_keys():
    assert list(verify.run_suite("gamma").to_dict()) == REPORT_KEYS


def _pointwise_oracle(idx, theta, tau, cache):
    """The direct summation as it was written per point, with a factor
    cache keyed on (a, b, c, grid value) that the caller passes."""
    import mpmath as mp

    dps = verify._ORACLE_DPS + int(tau / math.log(10))
    with mp.workdps(dps):
        th, ta = mp.mpf(theta), mp.mpf(tau)
        t, h = mp.tan(th / 2), mp.tanh(ta / 2)
        x, y = -t * t, h * h
        pref = mp.cos(th / 2) ** idx.l.twice * mp.cosh(ta / 2) ** idx.l.twice
        s = mp.mpc(0)
        for k in hypersph.sum_index_values(idx):
            n = (idx.m.twice - k.twice) // 2
            a1, b1, c1, a2, b2, c2 = hypersph._term_params(idx, k)
            s += (mp.mpc(0, 1) ** n * t**n * h ** mp.mpf(-k.twice / 2.0)
                  * verify._oracle_factor(a1, b1, c1, (theta, "th"), x, dps, cache)
                  * verify._oracle_factor(a2, b2, c2, (tau, "ta"), y, dps, cache))
        return complex(pref * s)


def test_grid_oracle_matches_pointwise_oracle_bitwise():
    # taus at 25, 26 and 28 digits; the theta factors are computed at the
    # first tau's precision here and at the largest in z_grid_oracle
    thetas, taus = (0.3, 1.7, 3.0), (0.2, 2.5, 7.0)
    for lt, mt in ((0, 0), (1, 1), (1, -1), (3, 1), (7, 7)):
        idx = hypersph.HypersphIndex(HalfInt(lt), HalfInt(mt))
        cache = {}
        want = [[_pointwise_oracle(idx, th, ta, cache) for ta in taus] for th in thetas]
        assert verify.z_grid_oracle(idx, thetas, taus) == want
        assert [[verify.z_assoc_oracle(idx, th, ta) for ta in taus] for th in thetas] == [
            [_pointwise_oracle(idx, th, ta, {}) for ta in taus] for th in thetas]


def _hypersph_report_fails_on_the_grid_check():
    report = verify.run_suite("hypersph")
    assert not report.passed
    assert report.details["worst_check"] == "grid_vs_direct_summation_oracle"


def test_hypersph_grid_check_catches_a_dropped_k_term(monkeypatch):
    z_grid, kernel_plan = hypersph.z_grid, hypersph.kernel_plan

    def dropping(idx, thetas, taus):
        with monkeypatch.context() as m:
            m.setattr(hypersph, "kernel_plan", lambda i: kernel_plan(i)[:-1])
            return z_grid(idx, thetas, taus)

    monkeypatch.setattr(hypersph, "z_grid", dropping)
    _hypersph_report_fails_on_the_grid_check()


def test_hypersph_grid_check_catches_a_wrong_oracle_tanh_power(monkeypatch):
    import mpmath as mp

    tau_column = verify._oracle_tau_column

    def inverted(terms, l2, tau, dps, cache):
        h, _ = verify._oracle_angle_part((tau, "ta"), dps, cache)
        with mp.workdps(dps):  # tanh^{+k} for tanh^{-k}
            return [b * h ** mp.mpf(-2 * e)
                    for b, (_, e, _, _) in zip(tau_column(terms, l2, tau, dps, cache), terms)]

    monkeypatch.setattr(verify, "_oracle_tau_column", inverted)
    _hypersph_report_fails_on_the_grid_check()


@pytest.mark.parametrize("mutation", ["conjugated_i_power", "tan_power_plus_one"])
def test_hypersph_grid_check_catches_a_wrong_oracle_theta_part(monkeypatch, mutation):
    import mpmath as mp

    theta_column = verify._oracle_theta_column

    def wrong(terms, l2, theta, dps, cache):
        t, _ = verify._oracle_angle_part((theta, "th"), dps, cache)
        column = theta_column(terms, l2, theta, dps, cache)
        with mp.workdps(dps):
            if mutation == "conjugated_i_power":  # i^n is the only complex part of A_k
                return [mp.conj(a) for a in column]
            return [a * t for a in column]  # tan^{n+1} for tan^n

    monkeypatch.setattr(verify, "_oracle_theta_column", wrong)
    _hypersph_report_fails_on_the_grid_check()


# sha256 of the float.hex of the real and imaginary part of every value
# z_grid_oracle gives on verify's hypersph grid (15 indices, 20 x 20 each),
# recorded from the per-point sum that the column product replaced: a
# change that moves any reference bit fails here
_HYPERSPH_ORACLE_SHA256 = "db2413bd00f6b75ed4ac13ab2cb6e998ee49148db38b4959d74f31522f231c33"


def test_hypersph_oracle_reference_values_are_pinned():
    thetas = np.linspace(0.1, math.pi - 0.1, 20).tolist()
    taus = np.linspace(0.1, 5.0, 20).tolist()
    digest = hashlib.sha256()
    cache = {}
    grids = 0
    for idx, evaluable in verify.hypersph_index_sweep():
        if evaluable:
            grids += 1
            for row in verify.z_grid_oracle(idx, thetas, taus, cache):
                assert len(row) == 20
                for z in row:
                    digest.update(z.real.hex().encode())
                    digest.update(z.imag.hex().encode())
    assert grids == 15
    assert digest.hexdigest() == _HYPERSPH_ORACLE_SHA256


def test_hypersph_suite_repeats_and_keeps_no_oracle_cache(monkeypatch):
    factors, parts = [], []
    oracle_factor, angle_part = verify._oracle_factor, verify._oracle_angle_part

    def counting(a, b, c, xkey, x, dps, cache):
        if (a, b, c, xkey) not in cache:
            factors.append((a, b, c, xkey, dps))
        return oracle_factor(a, b, c, xkey, x, dps, cache)

    def counting_parts(xkey, dps, cache):
        if (xkey, dps) not in cache:
            parts.append((xkey, dps))
        return angle_part(xkey, dps, cache)

    monkeypatch.setattr(verify, "_oracle_factor", counting)
    monkeypatch.setattr(verify, "_oracle_angle_part", counting_parts)
    first = verify.run_suite("hypersph")
    computed, built = len(factors), len(parts)
    second = verify.run_suite("hypersph")
    assert first == second and first.passed
    # the second run computed every factor and angle part again, in the
    # same order: no oracle value outlived the first
    assert computed > 0 and factors[computed:] == factors[:computed]
    assert parts[built:] == parts[:built]
    # within a run each part is built once across the 15 indices: each tau
    # at its own precision, each theta once, at the grid's largest
    taus = np.linspace(0.1, 5.0, 20).tolist()
    dpss = [verify._ORACLE_DPS + int(tau / math.log(10)) for tau in taus]
    thetas = np.linspace(0.1, math.pi - 0.1, 20).tolist()
    assert parts[:built] == [*(((tau, "ta"), dps) for tau, dps in zip(taus, dpss)),
                             *(((theta, "th"), max(dpss)) for theta in thetas)]
