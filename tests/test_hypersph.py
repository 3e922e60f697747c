import cmath
import math

import pytest

from poincarewave.errors import DomainError, InvalidIndex, PoleInDenominator
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
)
from poincarewave.specfun import GaussSeries

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
