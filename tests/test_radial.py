import math

import pytest

from poincarewave.errors import NonPositiveProduct
from poincarewave.halfint import half
from poincarewave.radial import (
    RadialParams,
    RadialPoint,
    _f1_with_derivatives,
    argument_scale,
    f1_solution,
    f4_from_f1,
    full_system_residual,
    reduced_system_residual,
)
from poincarewave.specfun import bessel_j_half
from poincarewave.verify import _bessel_ode_parts, resolve_scale


def params(kappa=0.5, kappa_dot=0.5, C1=1.0, C2=0.0, l=half(1)):
    return RadialParams(kappa=kappa, kappa_dot=kappa_dot, C1=C1, C2=C2, l=l, l_dot=l)


class TestParamsValidation:
    def test_zero_kappa_rejected(self):
        with pytest.raises(NonPositiveProduct):
            params(kappa=0.0)

    def test_integer_l_rejected(self):
        with pytest.raises(ValueError):
            params(l=half(2))
        with pytest.raises(ValueError):
            params(l=half(-1))

    def test_nonpositive_z_rejected(self):
        with pytest.raises(ValueError):
            RadialPoint(0.0)
        with pytest.raises(ValueError):
            RadialPoint(-1.0)


class TestResolveScale:
    # the scale decision is part of the radial verification suite

    def test_doubled_root_wins(self):
        assert resolve_scale(0.5, 0.5) == pytest.approx(1.0)
        assert resolve_scale(1.0, 1.0) == pytest.approx(2.0)

    def test_scaling_law(self):
        assert resolve_scale(2.0, 0.5) == pytest.approx(2.0 * resolve_scale(0.5, 0.5))

    def test_complex_pair_with_real_product(self):
        a = resolve_scale(0.5j, -0.5j)
        assert a == pytest.approx(1.0)

    def test_nonpositive_product_rejected(self):
        with pytest.raises(NonPositiveProduct):
            resolve_scale(1.0, -1.0)
        with pytest.raises(NonPositiveProduct):
            resolve_scale(1.0, 1.0j)

    def test_closed_form_is_the_winner_bitwise(self):
        for kappa, kappa_dot in ((0.5, 0.5), (2.0, 0.5), (0.7, 0.9), (0.5j, -0.5j), (1.3, 0.4)):
            assert argument_scale(kappa, kappa_dot) == resolve_scale(kappa, kappa_dot)

    def test_closed_form_rejects_nonpositive_product(self):
        with pytest.raises(NonPositiveProduct):
            argument_scale(1.0, -1.0)
        with pytest.raises(NonPositiveProduct):
            argument_scale(1.0, 1.0j)


class TestClosedForms:
    def test_f1_reduces_to_sine_seed(self):
        # C1 = 1, C2 = 0, l = 1/2: f1 = z J_{1/2}(z) with a = 1
        rp = params()
        z = math.pi / 2
        want = z * bessel_j_half(half(1), z)
        assert f1_solution(rp, RadialPoint(z), 1.0) == pytest.approx(want)

    def test_f1_second_branch(self):
        rp = params(C1=0.0, C2=1.0)
        z = math.pi / 2  # J_{-1/2}(pi/2) = 0
        assert f1_solution(rp, RadialPoint(z), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_f4_golden(self):
        # f4 = z J_{3/2}(z) / (2 kappa z) * ...  collapses to J_{3/2}(1) here
        rp = params()
        want = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        assert f4_from_f1(rp, RadialPoint(1.0), 1.0) == pytest.approx(want, rel=1e-13)

    def test_f1_derivative_matches_fd(self):
        rp = params(C1=0.8 + 0.1j, C2=-0.4 + 0.6j, l=half(3))
        a = argument_scale(rp.kappa, rp.kappa_dot)
        z, h = 2.3, 1e-6
        fd = (
            f1_solution(rp, RadialPoint(z + h), a) - f1_solution(rp, RadialPoint(z - h), a)
        ) / (2 * h)
        assert _f1_with_derivatives(rp, z, a)[1] == pytest.approx(fd, rel=1e-8)


class TestResiduals:
    def test_ode_residual_vanishes(self):
        for lt in (1, 3, 5):
            rp = params(C1=0.7, C2=0.3, l=half(lt))
            a = argument_scale(rp.kappa, rp.kappa_dot)
            for z in (0.5, 1.7, 8.0):
                assert abs(_bessel_ode_parts(rp, z, a)[0]) < 1e-10

    def test_ode_residual_detects_non_solution(self):
        # wrong scale: z J_l(sqrt(kappa kappa_dot) z) fails the equation
        rp = params(kappa=1.0, kappa_dot=1.0)
        res = _bessel_ode_parts(rp, 2.0, 1.0)[0]
        assert abs(res) > 1e-2

    def test_reduced_system_vanishes(self):
        rp = params(C1=0.7 - 0.2j, C2=0.3 + 0.5j, l=half(3))
        a = argument_scale(rp.kappa, rp.kappa_dot)
        for z in (0.6, 2.0, 11.0):
            r1, r2 = reduced_system_residual(rp, RadialPoint(z), a)
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_reduced_system_needs_equal_masses(self):
        # the f4 prefactor 1/(2 kappa) closes the pair only for kappa = kappa_dot
        rp = params(kappa=1.0, kappa_dot=0.25)
        a = argument_scale(rp.kappa, rp.kappa_dot)
        r1, r2 = reduced_system_residual(rp, RadialPoint(1.5), a)
        assert max(abs(r1), abs(r2)) > 1e-3

    def test_full_system_vanishes_plus_minus(self):
        rp = params(C1=1.0, C2=0.4, l=half(3))
        a = argument_scale(rp.kappa, rp.kappa_dot)
        for z in (0.6, 2.0, 11.0):
            for e in full_system_residual(rp, RadialPoint(z), a, "+-"):
                assert abs(e) < 1e-12

    def test_full_system_other_pair_does_not_vanish(self):
        # under f2 = -f1, f3 = +f4 the same radial profile is not a solution
        rp = params()
        a = argument_scale(rp.kappa, rp.kappa_dot)
        res = full_system_residual(rp, RadialPoint(1.0), a, "-+")
        assert max(abs(e) for e in res) > 1e-2

    def test_pairwise_coincidence_both_sign_pairs(self):
        # the substitution collapses the four equations pairwise:
        # e2 = s e1 and e3 = -s e4 exactly, for either sign pair
        rp = params(C1=0.3, C2=0.8, l=half(5))
        a = argument_scale(rp.kappa, rp.kappa_dot)
        for signs, s in (("+-", 1.0), ("-+", -1.0)):
            e1, e2, e3, e4 = full_system_residual(rp, RadialPoint(1.7), a, signs)
            assert e2 == pytest.approx(s * e1, rel=1e-12, abs=1e-12)
            assert e3 == pytest.approx(-s * e4, rel=1e-12, abs=1e-12)

    def test_perturbed_f4_breaks_first_equation(self):
        rp = params()
        a = argument_scale(rp.kappa, rp.kappa_dot)
        pt = RadialPoint(1.0)
        f1 = f1_solution(rp, pt, a)
        f4 = f4_from_f1(rp, pt, a)
        r1, _ = reduced_system_residual(rp, pt, a)
        # shifting f4 by delta adds l_dot/z * delta to the first equation
        delta = 0.1
        shifted = r1 + (rp.l_dot.twice / 2.0) / pt.z * delta
        assert abs(shifted) > 1e-3
        assert abs(f1) > 0 and abs(f4) > 0
