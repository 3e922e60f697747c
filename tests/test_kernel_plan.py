"""The compiled kernel plan against the per-call kernel it replaced.

``reference_z_assoc`` below is the kernel as it was before the plan: it
re-derives every term parameter, pole check and Gauss ratio on each call
and shares no code with ``specfun.GaussSeries``.  It writes out the closed
forms the plan switches to past 1/2 on its own.  The plan must give the
same bits and raise the same errors.
"""

import cmath
import math
import random
import time

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
    t2 = t * t
    if (a, b, c) == (1.0, 1.0, 2.0):
        return math.log1p(t2) / t2 if t2 else 1.0
    if (a, b) == (1.0, 1.0) and c >= 3.0 and t2 >= 1.0:
        # 2F1(1, 1; c; -t^2) = (c - 1) [log(1 + t^2) - sum_{k=1}^{c-2} z^k/k]
        # / ((1 + t^2) z^{c-1}), z = t^2/(1 + t^2) >= 1/2
        z = t2 / (1.0 + t2)
        powers = [z]
        while len(powers) < c - 2:
            powers.append(powers[-1] * z)
        log = -math.log1p(-z) if t2 < 4.0 else math.log1p(t2)
        bracket = math.fsum([log, *(-zk / k for k, zk in enumerate(powers, 1))])
        return (c - 1.0) * bracket / ((1.0 + t2) * powers[-1] * z)
    return _ref_hyp2f1(a, b, c, -t * t)


def _ref_tau_factor(a, b, c, tau, h):
    if (a, b, c) == (0.5, 1.0, 1.5):
        return (0.5 * tau) / h
    terminating = _ref_termination_index(a, b) is not None
    if h * h < 0.5:
        return _ref_hyp2f1(a, b, c, h * h)
    e = math.exp(-tau)
    if (a, b, c) == (1.0, 1.0, 1.0):  # cosh^2(tau/2)
        return math.cosh(0.5 * tau) ** 2
    if not terminating:  # (1 - l, 1; 1 + l), l = n + 1/2
        n = round(c - 1.5)
        e2n = [e * e]
        while len(e2n) < 2 * n:
            e2n.append(e2n[-1] * e * e)
        e2n.insert(0, 1.0)  # E^{2j}, j = 0 ... 2n
        s = (-1) ** n * math.comb(2 * n, n) * tau * e2n[n]
        for j in range(1, n + 1):
            s += (-1) ** (n - j) * math.comb(2 * n, n - j) / (2 * j) * (e2n[n - j] - e2n[n + j])
        return (c - 1.0) * s / ((1.0 - e * e) ** (2 * n - 1) * (1.0 - e) ** 2)
    if a == c and b <= -2.0 and a != round(a):  # (1 - l, 1 - 2l; 1 - l) = sech^{4l-2}
        return (4.0 * e / ((1.0 + e) * (1.0 + e))) ** -b
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


# The evaluable-index rule that kernel_plan states after the failing term.
RULE = ("Z^l_m is evaluable for every m at l in {0, 1/2, 1}, for m = -l or m >= l - 1 "
        "at half-integer l >= 3/2, and for no m at integer l >= 2")


def _ref_pole_message(idx):
    """The PoleInDenominator message of a non-evaluable index."""
    return f"{_ref_first_pole(idx)}; {RULE}"


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
        want = (PoleInDenominator, _ref_pole_message(idx))
    # a prefactor cos^2l(theta/2) cosh^2l(tau/2) past the double range
    # raises the kernel's own overflow message, where the reference lets
    # math's out; either way before any term is summed
    if want[0] is OverflowError:
        want = (OverflowError, f"Z^{idx.l}_{idx.m}(theta={theta}, tau={tau}) overflows")
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


# ---------------------------------------------------------------- the term cap


def _fastest_raise(error, call):
    """The best of three times in seconds for ``call`` to raise ``error``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(error):
            call()
        times.append(time.perf_counter() - start)
    return min(times)


def test_series_past_the_term_cap_fail_fast():
    assert specfun.SERIES_TERM_CAP == 1000
    # 2F1(1, 1; 2; 0.999) needs ~3 x 10^4 terms to converge
    assert _fastest_raise(TermCapExceeded, lambda: specfun.hyp2f1(1.0, 1.0, 2.0, 0.999)) < 0.01
    # a polynomial of degree 1001 is refused when it is compiled
    assert specfun.GaussSeries(-1000.0, 1.0, 1.0).jmax == 1000
    assert _fastest_raise(TermCapExceeded, lambda: specfun.GaussSeries(-1001.0, 1.0, 1.0)) < 0.01


def test_longest_sampled_verify_series_fits_the_cap(monkeypatch):
    # 2F1(4, 4; 1/2; 0.9), the corner of verify's gauss_contiguity box,
    # takes 500 terms
    import mpmath as mp

    with mp.workdps(30):
        want = complex(mp.hyp2f1(4, 4, 0.5, 0.9))
    assert abs(specfun.hyp2f1(4.0, 4.0, 0.5, 0.9) - want) <= 1e-12 * abs(want)
    monkeypatch.setattr(specfun, "SERIES_TERM_CAP", 499)
    with pytest.raises(TermCapExceeded):
        specfun.hyp2f1(4.0, 4.0, 0.5, 0.9)


# the switch of the tau factors sits at tanh^2(tau/2) = 1/2, tau = 1.7627...
CAP_THETAS = (1e-8, 1.0, math.pi / 2, 3.0, math.pi - 1e-4, math.pi - 1e-8)
CAP_TAUS = (1e-3, 1.0, 1.7627, 20.0, 316.0)


def _kernel_outcomes(indices):
    kinds = set()
    for idx in indices:
        for theta in CAP_THETAS:
            for tau in CAP_TAUS:
                try:
                    z_assoc(idx, theta, tau)
                    kinds.add(None)
                except (ValueError, ArithmeticError) as exc:
                    kinds.add(type(exc))
    return kinds


def test_kernel_series_stay_far_below_the_term_cap(monkeypatch):
    # every series the kernel sums stops within 53 terms, so a cap of 64
    # leaves each evaluable index with l <= 15/2 only its overflows
    evaluable = [idx for l in map(HalfInt, range(16)) for m in unit_range(-l, l)
                 if hypersph.index_is_evaluable(idx := HypersphIndex(l, m))]
    assert len(evaluable) == 27
    monkeypatch.setattr(specfun, "SERIES_TERM_CAP", 64)
    assert _kernel_outcomes(evaluable) == {None, OverflowError}
    # and the points reach the longest of those series
    monkeypatch.setattr(specfun, "SERIES_TERM_CAP", 52)
    assert TermCapExceeded in _kernel_outcomes(evaluable)


def test_plan_past_the_term_cap_is_refused_after_the_pole_checks():
    # a polynomial factor of Z^l_m has degree up to 2l - 1, which passes the
    # cap of 1000 at l = 1003/2; whether an index is evaluable still rests
    # on its poles alone, and a non-evaluable one still raises its pole
    for l2, m2, evaluable in ((1003, -1003, True), (1003, 1003, True), (1003, 1, False),
                              (1002, -1002, False), (1101, -1101, True), (1101, 1101, True)):
        idx = HypersphIndex(half(l2), half(m2))
        assert hypersph.index_is_evaluable(idx) is evaluable
        if not evaluable:
            with pytest.raises(PoleInDenominator):
                z_assoc(idx, 1.0, 1.0)
    with pytest.raises(TermCapExceeded, match="1002 terms, past the cap of 1000"):
        z_assoc(HypersphIndex(half(1003), half(-1003)), 1.0, 1.0)
    # refused before any factor is built: at l = 1101/2 the binomial
    # coefficients of the k = -l closed form are past the double range
    for m2 in (-1101, 1101):
        idx = HypersphIndex(half(1101), half(m2))
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(TermCapExceeded, match="at l = 1101/2 .*1100 terms, past the cap"):
                z_assoc(idx, 1.0, 1.0)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.05


def test_plan_cache_is_bounded():
    assert hypersph._compiled_plan.cache_info().maxsize == 64


def test_each_call_raises_a_fresh_pole_error():
    idx = HypersphIndex(half(3), half(-1))
    with pytest.raises(PoleInDenominator) as info:
        kernel_plan(idx)
    assert str(info.value) == _ref_pole_message(idx)
    raised = []
    for _ in range(2):
        with pytest.raises(PoleInDenominator) as info:
            z_assoc(idx, 1.0, 1.0)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1]) == _ref_pole_message(idx)


def test_pole_raised_before_any_series_is_summed(monkeypatch):
    # l = 3/2, m = -1/2: the k = -3/2 tau factor comes before the pole; the
    # plan is refused before any factor, series or closed form, is built
    def no_series(self, *args):
        raise AssertionError("a series was summed")

    monkeypatch.setattr(specfun.GaussSeries, "__call__", no_series)
    singular = [idx for idx in INDICES if _ref_first_pole(idx) is not None]
    assert HypersphIndex(half(3), half(-1)) in singular
    for idx in singular:
        for theta, tau in ((1.0, 50.0), (1.16, 14.9)):
            with pytest.raises(PoleInDenominator) as info:
                z_assoc(idx, theta, tau)
            assert str(info.value) == _ref_pole_message(idx)
