import cmath
import math
import re

import numpy as np
import pytest

from poincarewave import hypersph
from poincarewave.errors import DomainError, InvalidIndex, PoleInDenominator
from poincarewave.halfint import HalfInt, half
from poincarewave.hypersph import (
    EulerAngles,
    HypersphIndex,
    index_is_evaluable,
    kernel_plan,
    m_assoc,
    m_assoc_dotted,
    sum_index_values,
    z_assoc,
    z_grid,
)
from poincarewave.specfun import GaussSeries
from poincarewave.verify import hypersph_index_sweep

# frozen high-precision direct-summation values
GOLDEN_HALF_HALF = 1.1729352093275558 + 0.4065083666624422j  # l=m=1/2, theta=pi/2, tau=1
GOLDEN_HALF_MINUS = 0.5864676046637778 - 1.1729352093275558j  # l=1/2, m=-1/2, same point
GOLDEN_ONE_ZERO = 0.8456883771116035 - 4.190344839203636j  # l=1, m=0, theta=pi/3, tau=0.7
EVALUABLE = [idx for idx, evaluable in hypersph_index_sweep() if evaluable]  # l <= 7/2


def test_index_validation():
    HypersphIndex(half(1), half(-1))
    with pytest.raises(InvalidIndex):
        HypersphIndex(half(-1), half(-1))
    with pytest.raises(InvalidIndex):
        HypersphIndex(half(2), half(1))  # m not congruent to l mod 1
    with pytest.raises(InvalidIndex):
        HypersphIndex(half(1), half(3))  # |m| > l


def test_sum_runs_over_2l_plus_1_terms():
    assert len(sum_index_values(HypersphIndex(half(0), half(0)))) == 1
    assert sum_index_values(HypersphIndex(half(1), half(1))) == [half(-1), half(1)]
    assert len(sum_index_values(HypersphIndex(half(7), half(1)))) == 8


def test_golden_values():
    got = z_assoc(HypersphIndex(half(1), half(1)), math.pi / 2, 1.0)
    assert got == pytest.approx(GOLDEN_HALF_HALF, rel=1e-12)
    got = z_assoc(HypersphIndex(half(1), half(-1)), math.pi / 2, 1.0)
    assert got == pytest.approx(GOLDEN_HALF_MINUS, rel=1e-12)
    got = z_assoc(HypersphIndex(half(2), half(0)), math.pi / 3, 0.7)
    assert got == pytest.approx(GOLDEN_ONE_ZERO, rel=1e-12)


def test_open_domain_enforced():
    idx = HypersphIndex(half(1), half(1))
    for theta, tau in ((0.0, 1.0), (math.pi, 1.0), (-0.1, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(DomainError):
            z_assoc(idx, theta, tau)


@pytest.mark.parametrize("field", ["phi", "eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_angle_rejected(field, value):
    # m_assoc would return nan at phi = nan, and 0j at eps = inf
    with pytest.raises(DomainError, match="phi and eps must be finite"):
        EulerAngles(**{field: value, "theta": 1.0, "tau": 1.0})


@pytest.mark.parametrize("fn, sign", [(m_assoc, "+"), (m_assoc_dotted, "-")])
def test_phase_overflow_names_the_point(fn, sign):
    ang = EulerAngles(phi=0.5, eps=-1e6, theta=1.0, tau=1.0)
    with pytest.raises(OverflowError, match=re.escape(
            f"e^(-m(eps {sign} i phi)) at m=1/2, phi=0.5, eps=-1000000.0 overflows")):
        fn(HypersphIndex(half(1), half(1)), ang)
    # m * phi past the double range makes the exponent's imaginary part infinite
    ang = EulerAngles(phi=1.5e308, eps=0.0, theta=1.0, tau=1.0)
    with pytest.raises(OverflowError, match="phi=1.5e\\+308"):
        fn(HypersphIndex(half(3), half(-3)), ang)


def test_second_angle_pair_must_vanish():
    with pytest.raises(DomainError):
        EulerAngles(phi=0.1, eps=0.2, theta=1.0, tau=1.0, phi2=0.3)
    with pytest.raises(DomainError):
        EulerAngles(eps2=1.0)


def test_evaluable_classification():
    # half-integer l: m in {-l, l-1, l}; l = 1/2 and integer l in {0, 1}
    # admit every m; integer l >= 2 admits none
    assert index_is_evaluable(HypersphIndex(half(0), half(0)))
    assert index_is_evaluable(HypersphIndex(half(1), half(-1)))
    assert index_is_evaluable(HypersphIndex(half(2), half(0)))
    assert index_is_evaluable(HypersphIndex(half(3), half(3)))
    assert index_is_evaluable(HypersphIndex(half(3), half(1)))  # m = l - 1
    assert index_is_evaluable(HypersphIndex(half(3), half(-3)))
    assert not index_is_evaluable(HypersphIndex(half(3), half(-1)))
    assert not index_is_evaluable(HypersphIndex(half(4), half(0)))
    assert not index_is_evaluable(HypersphIndex(half(4), half(4)))
    assert not index_is_evaluable(HypersphIndex(half(7), half(3)))


def test_evaluable_index_rule_up_to_2l_30():
    # README "Admissible index pairs", over every (l, m) with 2l <= 30
    for lt in range(31):
        for mt in range(-lt, lt + 1, 2):
            if lt <= 2:
                want = True
            elif lt % 2:  # half-integer l >= 3/2
                want = mt == -lt or mt >= lt - 2
            else:  # integer l >= 2
                want = False
            assert index_is_evaluable(HypersphIndex(half(lt), half(mt))) == want, (lt, mt)


def test_singular_pair_raises_on_evaluation():
    with pytest.raises(PoleInDenominator):
        z_assoc(HypersphIndex(half(3), half(-1)), 1.0, 1.0)
    with pytest.raises(PoleInDenominator):
        z_assoc(HypersphIndex(half(4), half(2)), 1.0, 1.0)


def test_phase_prefactor_undotted():
    idx = HypersphIndex(half(1), half(1))
    ang = EulerAngles(phi=0.2, eps=0.1, theta=math.pi / 2, tau=1.0)
    want = cmath.exp(-0.5 * (0.1 + 0.2j)) * GOLDEN_HALF_HALF
    assert m_assoc(idx, ang) == pytest.approx(want, rel=1e-12)


def test_phase_prefactor_dotted():
    idx = HypersphIndex(half(1), half(-1))
    ang = EulerAngles(phi=0.4, eps=0.2, theta=math.pi / 2, tau=1.0)
    want = cmath.exp(0.5 * (0.2 - 0.4j)) * GOLDEN_HALF_MINUS
    assert m_assoc_dotted(idx, ang) == pytest.approx(want, rel=1e-12)
    assert m_assoc_dotted(idx, ang) == pytest.approx(
        0.3776933163930303 - 1.3992212279801826j, rel=1e-12
    )


def test_dotted_undotted_ratio_is_phase():
    # M / Mdot = e^{-2 i m phi}, independent of eps, theta, tau
    idx = HypersphIndex(half(3), half(3))
    ang = EulerAngles(phi=0.7, eps=-0.3, theta=1.2, tau=2.5)
    ratio = m_assoc(idx, ang) / m_assoc_dotted(idx, ang)
    assert ratio == pytest.approx(cmath.exp(-2j * 1.5 * 0.7), rel=1e-13)


def test_zero_index_closed_form():
    # l = m = 0: single k = 0 term with both factors 2F1(1,1;1;.) geometric,
    # giving cos^2(theta/2) cosh^2(tau/2)
    theta, tau = 1.3, 2.1
    want = math.cos(theta / 2) ** 2 * math.cosh(tau / 2) ** 2
    got = z_assoc(HypersphIndex(half(0), half(0)), theta, tau)
    assert got == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_values_finite_on_grid():
    idx = HypersphIndex(HalfInt(3), HalfInt(1))
    for theta in (0.05, 1.0, 3.0):
        for tau in (0.05, 1.0, 6.0):
            v = z_assoc(idx, theta, tau)
            assert math.isfinite(v.real) and math.isfinite(v.imag)


def test_kernel_overflow_raises():
    # the l = 1/2 product prefactor * sum overflows before cosh(tau/2) does
    for m in (1, -1):
        with pytest.raises(OverflowError):
            z_assoc(HypersphIndex(half(1), half(m)), math.pi / 2, 1410.0)
    assert cmath.isfinite(z_assoc(HypersphIndex(half(1), half(1)), math.pi / 2, 1400.0))


# theta -> pi and tau out to 50: where the l = 1/2 series used to run out
# of terms (theta >~ 3.135, tau >~ 13)
TAIL_THETAS = (1e-4, 0.5, 2.0, 3.1, math.pi - 1e-4)
TAIL_TAUS = (1e-4, 1.0, 13.0, 30.0, 50.0)


@pytest.mark.parametrize("m", (1, -1))
def test_half_kernel_matches_oracle_into_the_tails(m):
    from poincarewave.verify import z_assoc_oracle

    idx = HypersphIndex(half(1), half(m))
    for theta in TAIL_THETAS:
        for tau in TAIL_TAUS:
            want = z_assoc_oracle(idx, theta, tau)
            assert z_assoc(idx, theta, tau) == pytest.approx(want, rel=1e-12), (theta, tau)


# theta -> pi and tau out to 50 for every evaluable index, where summing the
# k = -l factors of l >= 1 as series would run out of terms or meet |x| = 1
ALL_TAIL_THETAS = (1e-4, 0.5, math.pi / 2, 2.0, 2.5, 3.1, 3.137, 3.14, math.pi - 1e-4)
ALL_TAIL_TAUS = (1.0, 2.0, 4.0, 8.0, 12.0, 13.5, 20.0, 30.0, 50.0)


@pytest.mark.parametrize("idx", EVALUABLE, ids=lambda idx: f"l={idx.l},m={idx.m}")
def test_kernel_matches_oracle_into_the_tails(idx):
    from poincarewave.verify import z_grid_oracle

    refs = z_grid_oracle(idx, ALL_TAIL_THETAS, ALL_TAIL_TAUS)
    for theta, row in zip(ALL_TAIL_THETAS, refs):
        for tau, want in zip(ALL_TAIL_TAUS, row):
            assert z_assoc(idx, theta, tau) == pytest.approx(want, rel=1e-12), (theta, tau)


# the switch: z = t^2/(1 + t^2) = 1/2 at t^2 = 1, tanh^2(tau/2) = 1/2 here
TAU_SWITCH = 2.0 * math.atanh(math.sqrt(0.5))
SWITCH_T2 = [*(1.0 + d for d in (-0.2, -1e-3, -1e-12, 0.0, 1e-12, 1e-3)),
             *np.linspace(1.01, 1.5, 50).tolist(), 3.99, 4.0, 10.0, 1e4, 1e16, 1e32]
SWITCH_TAUS = [*(TAU_SWITCH + d for d in (-0.3, -1e-3, -1e-12, 0.0, 1e-12, 1e-3)),
               *np.linspace(1.8, 3.0, 25).tolist(), 8.0, 20.0, 38.0, 50.0]


@pytest.mark.parametrize("c", range(3, 9))
def test_theta_closed_form_matches_mpmath_on_both_sides_of_its_switch(c):
    import mpmath as mp

    factor = hypersph._theta_factor(GaussSeries(1.0, 1.0, float(c)))
    for t2 in SWITCH_T2:
        want = mp.hyp2f1(1, 1, c, -mp.mpf(t2))
        assert factor(complex(-t2)) == pytest.approx(complex(want), rel=1e-13), t2


@pytest.mark.parametrize("abc", [
    (1.0, 1.0, 1.0),  # l = 0: cosh^2(tau/2)
    *((0.5 - n, 1.0, 1.5 + n) for n in range(4)),  # k = -l, l = n + 1/2
    *((0.5 - n, -2.0 * n, 0.5 - n) for n in range(1, 4)),  # k = l: sech^{4n}(tau/2)
], ids=str)
def test_tau_closed_form_matches_mpmath_on_both_sides_of_its_switch(abc):
    import mpmath as mp

    factor = hypersph._tau_factor(GaussSeries(*abc))
    for tau in SWITCH_TAUS:
        with mp.workdps(60):
            want = mp.hyp2f1(*abc, mp.tanh(mp.mpf(tau) / 2) ** 2)
        h = math.tanh(0.5 * tau)
        assert factor(complex(h * h), tau) == pytest.approx(complex(want), rel=1e-13), tau


def test_slow_tau_factor_is_not_truncated_early():
    # 2F1(-1/2, 1; 5/2; tanh^2(10)), the k = -3/2 tau factor of l = 3/2 at
    # tau = 20: its series stopped after 170,917 terms, 8.3e-12 off
    import mpmath as mp

    factor = kernel_plan(HypersphIndex(half(3), half(-3)))[0].tau
    h = math.tanh(10.0)
    with mp.workdps(40):
        want = complex(mp.hyp2f1(-0.5, 1, 2.5, mp.tanh(10) ** 2))
    assert factor(complex(h * h), 20.0) == pytest.approx(want, rel=1e-14)


def test_no_plan_holds_a_bare_non_terminating_series():
    # z_assoc evaluates exactly the factors of the index's plan.  Each is a
    # closed form (None, at l = 1/2), a series that stops after a fixed
    # number of terms, or one that switches to a closed form past 1/2
    def factors(idx):
        return [f for term in kernel_plan(idx) for f in (term.theta, term.tau)]

    switched = 0
    for idx in EVALUABLE:
        for f in factors(idx):
            if isinstance(f, GaussSeries):
                # l = 0's theta factor 2F1(1, 1; 1; -t^2) has the Pfaff
                # partner (1, 0; 1), which every negative argument takes
                assert f.jmax is not None or f.pfaff().jmax is not None, (idx, f.a, f.b, f.c)
            else:
                switched += f is not None
    # theta: m = l at l in {1, 3/2, 5/2, 7/2}; tau: k = -l at l = 0 and, for
    # each of the 3 evaluable m, at l in {3/2, 5/2, 7/2}, and k = l there too
    assert switched == 4 + (1 + 3 * 3) + 3 * 3
    for m in (1, -1):
        fs = factors(HypersphIndex(half(1), half(m)))
        assert all(f is None or f.jmax is not None for f in fs)


# verify's 20 x 20 grid, with tail values appended: theta near 0 and pi, small tau
GRID_THETAS = [*np.linspace(0.1, math.pi - 0.1, 20).tolist(), 1e-8, 1e-4, 3.0]
GRID_TAUS = [*np.linspace(0.1, 5.0, 20).tolist(), 1e-12, 1e-4]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("idx", EVALUABLE, ids=lambda idx: f"l={idx.l},m={idx.m}")
def test_grid_matches_pointwise_bitwise(idx):
    want = [[z_assoc(idx, theta, tau) for tau in GRID_TAUS] for theta in GRID_THETAS]
    assert z_grid(idx, GRID_THETAS, GRID_TAUS) == want


@pytest.mark.parametrize("m", (1, -1))
def test_half_grid_matches_pointwise_up_to_the_overflow(m):
    # Z^1/2 overflows at tau ~ 1408-1421 depending on theta and m
    idx = HypersphIndex(half(1), half(m))
    thetas, taus = (0.01, 1.0, math.pi / 2, 3.0, math.pi - 1e-4), (30.0, 700.0, 1400.0, 1405.0)
    want = [[z_assoc(idx, theta, tau) for tau in taus] for theta in thetas]
    assert z_grid(idx, thetas, taus) == want
    for tau in (1409.5, 1410.0):
        with pytest.raises(OverflowError) as exc:
            z_grid(idx, thetas, (*taus, tau))
        assert any(_outcome(z_assoc, idx, theta, t) == (OverflowError, str(exc.value))
                   for theta in thetas for t in (*taus, tau))


@pytest.mark.parametrize("lt, mt, bad_theta, bad_tau, error", [
    (1, 1, None, 5e-324, OverflowError),  # tanh(tau/2) underflows to 0
    (3, -3, None, 5e-324, OverflowError),
    (1, 1, None, 1410.0, OverflowError),  # the value overflows
    (1, 1, None, 1409.5731128551818, OverflowError),  # both parts finite, the modulus not
    (7, 7, None, 800.0, OverflowError),  # cosh(tau/2)**7 overflows
    (0, 0, None, 1500.0, OverflowError),  # cosh(tau/2) overflows
    (3, -3, 1e-300, None, OverflowError),  # tan^n(theta/2), n < 0, overflows
    (2, -2, 5e-324, None, OverflowError),  # tan(theta/2) = 0 to a power n < 0
    (7, 7, None, 1e-200, OverflowError),  # tanh^{-k}(tau/2), k > 0, overflows
    (3, -3, 1e-300, 800.0, OverflowError),  # the prefactor cosh^3(tau/2) comes first
    (1, 1, 0.0, None, DomainError),
    (1, 1, None, 0.0, DomainError),
    (3, -1, None, None, PoleInDenominator),
])
def test_grid_with_a_bad_point_raises_the_pointwise_error(lt, mt, bad_theta, bad_tau, error):
    idx = HypersphIndex(half(lt), half(mt))
    thetas = [0.5, 1.0 if bad_theta is None else bad_theta, 2.5]
    taus = [0.5, 1.0 if bad_tau is None else bad_tau, 2.0]
    want = _outcome(z_assoc, idx, thetas[1], taus[1])
    assert want[0] is error
    assert _outcome(z_grid, idx, thetas[1:2], taus[1:2]) == want
    with pytest.raises(error) as exc:
        z_grid(idx, thetas, taus)
    # the grid's error is z_assoc's at its first failing point in row order
    outcomes = (_outcome(z_assoc, idx, theta, tau) for theta in thetas for tau in taus)
    assert next(o for o in outcomes if isinstance(o, tuple)) == (error, str(exc.value))


def test_grid_raises_the_error_of_its_first_failing_point():
    # l = 3/2, m = -3/2: at theta = 1e-300 the k = 1/2 term's tan^{-2}(theta/2)
    # overflows; at tau = 800 the prefactor cosh^3(tau/2) does, before any
    # term.  (1e-300, 1.0) comes first in row order.
    idx = HypersphIndex(half(3), half(-3))
    thetas, taus = [1e-300, 1.0], [1.0, 800.0]
    first = _outcome(z_assoc, idx, 1e-300, 1.0)
    assert first == (OverflowError, "Z^3/2_-3/2(theta=1e-300, tau=1.0) overflows")
    for theta in thetas:
        assert _outcome(z_assoc, idx, theta, 800.0) == (
            OverflowError, f"Z^3/2_-3/2(theta={theta}, tau=800.0) overflows")
    assert _outcome(z_grid, idx, thetas, taus) == first


def test_points_past_the_old_series_limits_evaluate():
    # tau = 50 rounds tanh^2(tau/2) to 1, where the k = -l tau series of
    # l = 3/2 cannot converge; at theta = pi - 1e-4 the theta series of
    # m = l runs to the term cap
    from poincarewave.verify import z_assoc_oracle

    for lt, mt, theta, tau in ((3, -3, 1.0, 50.0), (3, -3, 1e-3, 50.0), (0, 0, 2.5, 50.0),
                               (3, 3, math.pi - 1e-4, 1.0), (7, 7, math.pi - 1e-4, 50.0)):
        idx = HypersphIndex(half(lt), half(mt))
        want = z_assoc(idx, theta, tau)
        assert z_grid(idx, [0.5, theta, 2.5], [0.5, tau, 2.0])[1][1] == want
        assert want == pytest.approx(z_assoc_oracle(idx, theta, tau), rel=1e-12), (lt, mt)


def test_grid_sums_each_series_once_per_value_and_call(monkeypatch):
    # tau = 2.0 puts tanh^2(tau/2) past 1/2, so the k = -7/2 and k = 7/2 tau
    # factors are closed forms there and series at tau = 0.5
    idx = HypersphIndex(half(7), half(5))
    thetas, taus = [0.5, 1.5, 2.5], [0.5, 2.0]
    want = z_grid(idx, thetas, taus)
    calls = []

    def counted(f):  # notes (factor, arguments) on every evaluation
        def factor(*args):
            calls.append((id(f), args))
            return f(*args)
        return factor

    plan = tuple(term._replace(theta=counted(term.theta), tau=counted(term.tau))
                 for term in kernel_plan(idx))
    monkeypatch.setattr(hypersph, "kernel_plan", lambda _: plan)
    for _ in range(2):
        calls.clear()
        assert z_grid(idx, thetas, taus) == want
        # 8 k-terms, each with a theta and a tau factor: one call per value
        assert len(calls) == len(set(calls)) == 8 * (len(thetas) + len(taus))


def test_vanishing_tanh_is_refused_naming_tau():
    for grid in (False, True):
        for m in (1, -1):
            idx = HypersphIndex(half(1), half(m))
            with pytest.raises(OverflowError, match="tanh.*tau=5e-324"):
                z_grid(idx, [1.0], [5e-324]) if grid else z_assoc(idx, 1.0, 5e-324)
    # l = 0 has no k > 0 term, and tau = 5e-324 stays a point of it
    idx = HypersphIndex(half(0), half(0))
    assert z_grid(idx, [1.0], [5e-324]) == [[z_assoc(idx, 1.0, 5e-324)]]
    assert z_assoc(idx, 1.0, 5e-324) == pytest.approx(math.cos(0.5) ** 2, rel=1e-15)
