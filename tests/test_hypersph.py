import cmath
import math

import numpy as np
import pytest

from poincarewave.errors import DomainError, InvalidIndex, NonConvergent, PoleInDenominator
from poincarewave.halfint import HalfInt, half
from poincarewave.hypersph import (
    EulerAngles,
    HypersphIndex,
    index_is_evaluable,
    kernel_plan,
    m_assoc,
    m_assoc_dotted,
    m_assoc_pair,
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


def test_pair_matches_separate_calls_bitwise():
    ang = EulerAngles(phi=0.7, eps=-0.4, theta=1.1, tau=2.3)
    for l, l_dot, m in ((1, 1, 1), (1, 1, -1), (1, 3, 1), (7, 7, 5)):
        idx, idx_dot = HypersphIndex(half(l), half(m)), HypersphIndex(half(l_dot), half(m))
        got = m_assoc_pair(idx, idx_dot, ang)
        assert got == (m_assoc(idx, ang), m_assoc_dotted(idx_dot, ang))


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


def test_half_kernel_sums_no_non_terminating_series():
    # z_assoc evaluates exactly the factors of the index's plan: a closed
    # form (None) or a compiled GaussSeries
    def factors(idx):
        return [f for term in kernel_plan(idx) for f in (term.theta, term.tau)]

    for m in (1, -1):
        fs = factors(HypersphIndex(half(1), half(m)))
        assert fs and all(f is None or (isinstance(f, GaussSeries) and f.jmax is not None)
                          for f in fs)
    # every other l keeps the series, the non-terminating ones included
    assert any(isinstance(f, GaussSeries) and (f.a, f.b, f.c, f.jmax) == (1.0, 1.0, 3.0, None)
               for f in factors(HypersphIndex(half(2), half(2))))


# verify's 20 x 20 grid, with tail values appended: theta near 0 and pi, small tau
GRID_THETAS = [*np.linspace(0.1, math.pi - 0.1, 20).tolist(), 1e-8, 1e-4, 3.0]
GRID_TAUS = [*np.linspace(0.1, 5.0, 20).tolist(), 1e-12, 1e-4]
EVALUABLE = [idx for idx, evaluable in hypersph_index_sweep() if evaluable]  # l <= 7/2


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
    (7, 7, None, 800.0, OverflowError),  # cosh(tau/2)**7 overflows
    (0, 0, None, 1500.0, OverflowError),  # cosh(tau/2) overflows
    (3, -3, None, 50.0, NonConvergent),  # tanh^2(tau/2) rounds to 1
    (3, -3, 1e-300, None, OverflowError),  # tan^n(theta/2), n < 0, overflows
    (2, -2, 5e-324, None, OverflowError),  # tan(theta/2) = 0 to a power n < 0
    (7, 7, None, 1e-200, OverflowError),  # tanh^{-k}(tau/2), k > 0, overflows
    (3, -3, 1e-300, 50.0, NonConvergent),  # the tau factor comes first
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
    # overflows; at tau = 50 the k = -3/2 term's tau factor, summed first,
    # raises NonConvergent.  (1e-300, 1.0) comes first in row order.
    idx = HypersphIndex(half(3), half(-3))
    thetas, taus = [1e-300, 1.0], [1.0, 50.0]
    first = _outcome(z_assoc, idx, 1e-300, 1.0)
    assert first == (OverflowError, "Z^3/2_-3/2(theta=1e-300, tau=1.0) overflows")
    assert _outcome(z_assoc, idx, 1e-300, 50.0)[0] is NonConvergent
    assert _outcome(z_grid, idx, thetas, taus) == first


def test_grid_sums_each_series_once_per_value_and_call(monkeypatch):
    idx = HypersphIndex(half(7), half(5))
    thetas, taus = [0.5, 1.5, 2.5], [0.5, 2.0]
    calls = []
    series_call = GaussSeries.__call__

    def counting(self, x):
        calls.append((id(self), x))
        return series_call(self, x)

    monkeypatch.setattr(GaussSeries, "__call__", counting)
    grids = []
    for _ in range(2):
        calls.clear()
        grids.append(z_grid(idx, thetas, taus))
        # 8 k-terms, each with a theta and a tau series: one call per value
        assert len(calls) == len(set(calls)) == 8 * (len(thetas) + len(taus))
    assert grids[0] == grids[1]


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
