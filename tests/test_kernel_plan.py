"""The compiled kernel plan against the per-call kernel it replaced.

``reference_z_assoc`` below is the kernel as it was before the plan: it
re-derives every term parameter, pole check and Gauss ratio on each call
and shares no code with ``specfun.GaussSeries``.  The plan must give the
same bits and raise the same errors.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarewave import hypersph, specfun
from poincarewave.errors import (
    DomainError,
    NonConvergent,
    PoleInDenominator,
    TermCapExceeded,
)
from poincarewave.halfint import HalfInt, half, unit_range
from poincarewave.hypersph import HypersphIndex, kernel_plan, z_assoc

# ---------------------------------------------------------------- reference


def _ref_nonpos_int(v):
    if v <= 0 and v == round(v):
        return int(round(v))
    return None


def _ref_termination_index(a, b):
    na, nb = _ref_nonpos_int(a), _ref_nonpos_int(b)
    if na is not None and nb is not None:
        return min(-na, -nb)
    if na is not None:
        return -na
    if nb is not None:
        return -nb
    return None


def _ref_check_pole(a, b, c):
    jmax = _ref_termination_index(a, b)
    nc = _ref_nonpos_int(c)
    if nc is not None:
        pole_j = 1 - nc
        if jmax is None or jmax >= pole_j:
            raise PoleInDenominator(
                f"2F1({a}, {b}; {c}; x): denominator pole at term {pole_j} "
                "reached before series termination"
            )
    return jmax


def _ref_sum_series(a, b, c, x, jmax):
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    j = 0
    while True:
        if jmax is not None and j >= jmax:
            return s
        term *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
        s += term
        j += 1
        if jmax is None:
            if abs(term) < specfun.SERIES_RELTOL * abs(s):
                return s
            if j >= specfun.SERIES_TERM_CAP:
                raise TermCapExceeded(
                    f"2F1 series did not converge within {specfun.SERIES_TERM_CAP} terms"
                )


def _ref_hyp2f1(a, b, c, x):
    x = complex(x)
    jmax = _ref_check_pole(a, b, c)
    if jmax is not None:
        return _ref_sum_series(a, b, c, x, jmax)
    if x.imag == 0.0 and x.real < 0.0:
        z = x.real / (x.real - 1.0)
        return (1.0 - x.real) ** (-a) * _ref_hyp2f1(a, c - b, c, z)
    if abs(x) < 1.0:
        return _ref_sum_series(a, b, c, x, None)
    raise NonConvergent(f"2F1 series with |x| = {abs(x):.3g} >= 1 does not terminate")


def _ref_term_params(idx, k):
    l, m = idx.l, idx.m
    a1 = (m.twice - l.twice) / 2.0 + 1.0
    b1 = 1.0 - (l.twice + k.twice) / 2.0
    c1 = (m.twice - k.twice) / 2.0 + 1.0
    a2 = 1.0 - l.twice / 2.0
    c2 = 1.0 - k.twice / 2.0
    return a1, b1, c1, a2, b1, c2


def _ref_theta_factor(a, b, c, t):
    if (a, b, c) == (1.0, 1.0, 2.0):
        t2 = t * t
        return math.log1p(t2) / t2 if t2 else 1.0
    return _ref_hyp2f1(a, b, c, -t * t)


def _ref_tau_factor(a, b, c, tau, h):
    if (a, b, c) == (0.5, 1.0, 1.5):
        return (0.5 * tau) / h
    return _ref_hyp2f1(a, b, c, h * h)


def reference_z_assoc(idx, theta, tau):
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    l, m = idx.l, idx.m
    t = math.tan(0.5 * theta)
    h = math.tanh(0.5 * tau)
    prefactor = math.cos(0.5 * theta) ** l.twice * math.cosh(0.5 * tau) ** l.twice
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for k in unit_range(-l, l):
        n = (m.twice - k.twice) // 2
        unit = (1 + 0j, 1j, -1 + 0j, -1j)[n % 4]
        a1, b1, c1, a2, b2, c2 = _ref_term_params(idx, k)
        term = (
            unit
            * t**n
            * h ** (-k.twice / 2.0)
            * _ref_theta_factor(a1, b1, c1, t)
            * _ref_tau_factor(a2, b2, c2, tau, h)
        )
        yv = term - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
    z = prefactor * total
    if not cmath.isfinite(z):
        raise OverflowError(f"Z^{l}_{m}(theta={theta}, tau={tau}) overflows")
    return z


# ---------------------------------------------------------------- bitwise

# every (l, m) with l <= 7/2, the evaluable ones and the singular ones
INDICES = [HypersphIndex(l, m) for l in map(HalfInt, range(8)) for m in unit_range(-l, l)]


def _ref_first_pole(idx):
    """The message of the first pole of Z^l_m, k from -l up, the theta
    factor before the tau factor; None for an evaluable index."""
    for k in unit_range(-idx.l, idx.l):
        a1, b1, c1, a2, b2, c2 = _ref_term_params(idx, k)
        for a, b, c in ((a1, b1, c1), (a2, b2, c2)):
            try:
                _ref_check_pole(a, b, c)
            except PoleInDenominator as exc:
                return str(exc)
    return None


def _outcome(kernel, idx, theta, tau):
    try:
        z = kernel(idx, theta, tau)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return z.real.hex(), z.imag.hex()


def _assert_same(idx, theta, tau):
    # a non-evaluable index raises its first pole as soon as the domain
    # check passes, where the reference first sums the terms before it
    want = _outcome(reference_z_assoc, idx, theta, tau)
    pole = _ref_first_pole(idx)
    if pole is not None and want[0] is not DomainError:
        want = (PoleInDenominator, pole)
    assert _outcome(z_assoc, idx, theta, tau) == want, (str(idx.l), str(idx.m), theta, tau)
    return want


def test_plan_matches_per_call_kernel_bitwise():
    assert len(INDICES) == 36
    r = random.Random(20261018)
    points = [(r.uniform(1e-3, math.pi - 1e-3), r.uniform(1e-3, 15.0)) for _ in range(8)]
    # the edges: out of the domain, and the l = 1/2 kernel overflowing
    points += [(0.0, 1.0), (math.pi, 1.0), (1.0, 0.0), (math.pi / 2, 1410.0)]
    kinds = set()
    for idx in INDICES:
        for theta, tau in points:
            kinds.add(_assert_same(idx, theta, tau)[0])
    assert {DomainError, PoleInDenominator, OverflowError} <= kinds


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    idx=st.sampled_from(INDICES),
    theta=st.floats(1e-3, math.pi - 1e-3),
    tau=st.floats(1e-3, 15.0),
)
def test_plan_matches_per_call_kernel_property(idx, theta, tau):
    _assert_same(idx, theta, tau)


def test_evaluable_classification_matches_pole_checks():
    for idx in INDICES:
        poles = 0
        for k in unit_range(-idx.l, idx.l):
            a1, b1, c1, a2, b2, c2 = _ref_term_params(idx, k)
            for a, b, c in ((a1, b1, c1), (a2, b2, c2)):
                try:
                    _ref_check_pole(a, b, c)
                except PoleInDenominator:
                    poles += 1
        assert hypersph.index_is_evaluable(idx) == (poles == 0)


# ---------------------------------------------------------------- bounded caches


def test_ratio_prefix_stays_within_the_cap():
    # l = 1, m = 1: the k = -1 theta factor is the non-terminating
    # 2F1(1, 1; 3; -t^2), summed through its Pfaff partner (1, 2; 3); near
    # theta = 3 that runs to ~10^4 terms
    idx = HypersphIndex(half(2), half(2))
    series = kernel_plan(idx)[0].theta
    assert (series.a, series.b, series.c, series.jmax) == (1.0, 1.0, 3.0, None)
    z_assoc(idx, 3.0, 1.0)
    partner = series.pfaff()
    assert len(partner.ratios) == specfun.RATIO_CACHE_CAP
    # a run to the term cap keeps nothing past the cap either
    with pytest.raises(TermCapExceeded):
        z_assoc(idx, math.pi - 1e-3, 1.0)
    assert len(partner.ratios) == specfun.RATIO_CACHE_CAP


def test_terminating_series_keeps_at_most_the_cap():
    long = specfun.GaussSeries(-2.0 * specfun.RATIO_CACHE_CAP, 1.0, 1.0)
    assert long.jmax == 2 * specfun.RATIO_CACHE_CAP
    assert len(long.ratios) == specfun.RATIO_CACHE_CAP
    # the inline tail still sums the whole polynomial: (1 - x)^n
    assert long(1e-4).real == pytest.approx((1.0 - 1e-4) ** (2 * specfun.RATIO_CACHE_CAP),
                                            rel=1e-12)
    assert long(1e-4) == _ref_hyp2f1(long.a, long.b, long.c, 1e-4)


def test_plan_cache_is_bounded():
    assert hypersph._compiled_plan.cache_info().maxsize == 64


def test_each_call_raises_a_fresh_pole_error():
    idx = HypersphIndex(half(3), half(-1))
    with pytest.raises(PoleInDenominator) as info:
        kernel_plan(idx)
    assert str(info.value) == _ref_first_pole(idx)
    raised = []
    for _ in range(2):
        with pytest.raises(PoleInDenominator) as info:
            z_assoc(idx, 1.0, 1.0)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1]) == _ref_first_pole(idx)


def test_pole_raised_before_any_series_is_summed(monkeypatch):
    # l = 3/2, m = -1/2: the k = -3/2 tau series comes before the pole; at
    # tau = 50 it cannot converge, at tau = 14.9 it sums for ~0.07 s
    def no_series(self, x):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(specfun.GaussSeries, "__call__", no_series)
    singular = [idx for idx in INDICES if _ref_first_pole(idx) is not None]
    assert HypersphIndex(half(3), half(-1)) in singular
    for idx in singular:
        for theta, tau in ((1.0, 50.0), (1.16, 14.9)):
            with pytest.raises(PoleInDenominator) as info:
                z_assoc(idx, theta, tau)
            assert str(info.value) == _ref_first_pole(idx)
