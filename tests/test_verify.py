"""The verify driver: suites return their checks, and ``run_suite`` alone
applies ``tol``, rescales to the headline tolerance and builds the report."""

import math

from poincarewave import verify

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
