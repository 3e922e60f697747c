import math

import pytest

from poincarewave.errors import DomainError, NonPositiveProduct
from poincarewave.halfint import half
from poincarewave.radial import (
    RadialParams,
    RadialPoint,
    argument_scale,
    f1_solution,
    f4_from_f1,
    full_system_residual,
    radial_values,
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

    @pytest.mark.parametrize("field", ["kappa", "kappa_dot", "C1", "C2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(math.nan, 1.0)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            params(**{field: value})

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
        with pytest.raises(NonPositiveProduct):
            argument_scale(math.nan, 1.0)

    @pytest.mark.parametrize("kappa, kappa_dot", [(1e200, 1e200), (1e200j, -1e200j)])
    def test_closed_form_rejects_overflowing_product(self, kappa, kappa_dot):
        # a = inf would otherwise reach bessel_j_half
        with pytest.raises(NonPositiveProduct, match=r"is not finite, kappa=.*, kappa_dot="):
            argument_scale(kappa, kappa_dot)


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
        assert radial_values(rp, z, a)[1] == pytest.approx(fd, rel=1e-8)


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

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND: one f1/f4 serves both sign pairs, but under f2 = -f1, f3 = +f4 "
        "e1 = 0 needs f4' = ((l_dot + 1)/z) f4 - 2 kappa f1, not the reduced "
        "pair's f4' = -(l_dot/z) f4 + 2 kappa f1, so '-+' leaves residuals near 3"))
    def test_full_system_vanishes_minus_plus(self):
        rp = params(C1=0.8 + 0.1j, C2=-0.4 + 0.6j)
        a = argument_scale(rp.kappa, rp.kappa_dot)
        assert max(map(abs, full_system_residual(rp, RadialPoint(1.3), a, "+-"))) < 1e-12
        assert max(map(abs, full_system_residual(rp, RadialPoint(1.3), a, "-+"))) < 1e-12

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


def _hex(v: complex) -> tuple[str, str]:
    return v.real.hex(), v.imag.hex()


# f1, f4 and both residuals, recorded before f1 and f4 came from one Bessel
# evaluation: (2l, kappa, kappa_dot, C1, C2, z) -> f1, f4, reduced pair,
# full system under the sign pair '-+'
PINNED = [
    ((1, 0.5, 0.5, 1.0, 0.0, 1.0),
     ("0x1.57c14f27a1dc5p-1", "0x0.0p+0"), ("0x1.ec214602ad3c8p-3", "0x0.0p+0"),
     [("-0x1.0000000000000p-53", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0")],
     [("-0x1.b971fb4ded1a5p+0", "0x0.0p+0"), ("0x1.b971fb4ded1a5p+0", "0x0.0p+0"),
      ("0x1.b971fb4ded1a6p+0", "0x0.0p+0"), ("0x1.b971fb4ded1a6p+0", "0x0.0p+0")]),
    ((3, 0.7, 0.7, 0.8 + 0.1j, -0.4 + 0.6j, 2.3),
     ("0x1.c8a0d3a3dd603p-1", "0x1.e3d8a78755bf2p-2"),
     ("0x1.7dd7e4f319abfp+0", "-0x1.9eb1b18e67198p-2"),
     [("0x0.0p+0", "0x1.0000000000000p-53"), ("0x0.0p+0", "0x0.0p+0")],
     [("0x1.8cbbcb1ca32f0p-3", "-0x1.037f4211a9d9bp+2"),
      ("-0x1.8cbbcb1ca32f0p-3", "0x1.037f4211a9d9bp+2"),
      ("-0x1.500bf1de58d66p+2", "0x1.f4a762112aab2p+1"),
      ("-0x1.500bf1de58d66p+2", "0x1.f4a762112aab2p+1")]),
    ((5, 1.3, 0.4, 0.3 - 0.2j, 0.8 + 0.5j, 0.6),
     ("0x1.5debdc65f3434p+1", "0x1.b26342fc3852bp+0"),
     ("0x1.078cba84fdc64p+3", "0x1.49628609a51b7p+2"),
     [("-0x1.3aeddff55aef5p+2", "-0x1.86f2ef7c9917ap+1"),
      ("-0x1.da63b62295981p+3", "-0x1.2872456f1498cp+3")],
     [("0x1.24420cee9b5f0p+7", "0x1.6d93ced475333p+6"),
      ("-0x1.24420cee9b5f0p+7", "-0x1.6d93ced475333p+6"),
      ("-0x1.544065ee51378p+0", "-0x1.0f83688524748p+0"),
      ("-0x1.544065ee51378p+0", "-0x1.0f83688524748p+0")]),
    ((1, 0.5j, -0.5j, 0.0, 1.0, 11.0),
     ("0x1.7fc47641787a7p-7", "0x0.0p+0"), ("0x0.0p+0", "0x1.5295b004eec22p+1"),
     [("0x0.0p+0", "-0x1.7fc47641787a0p-6"), ("0x1.5295b004eec22p+2", "0x0.0p+0")],
     [("0x0.0p+0", "0x1.ec7ca2efe6ebdp-1"), ("0x0.0p+0", "-0x1.ec7ca2efe6ebdp-1"),
      ("0x1.171a848cb4800p-8", "0x0.0p+0"), ("0x1.171a848cb4800p-8", "0x0.0p+0")]),
]


@pytest.mark.parametrize("point, f1, f4, reduced, full", PINNED)
def test_radial_values_pinned_bitwise(point, f1, f4, reduced, full):
    lt, kappa, kappa_dot, C1, C2, z = point
    rp = params(kappa=kappa, kappa_dot=kappa_dot, C1=C1, C2=C2, l=half(lt))
    a = argument_scale(kappa, kappa_dot)
    pt = RadialPoint(z)
    assert _hex(f1_solution(rp, pt, a)) == f1
    assert _hex(f4_from_f1(rp, pt, a)) == f4
    assert [_hex(v) for v in reduced_system_residual(rp, pt, a)] == reduced
    assert [_hex(v) for v in full_system_residual(rp, pt, a, "-+")] == full
    values = radial_values(rp, z, a)
    assert (_hex(values[0]), _hex(values[3])) == (f1, f4)


# f1 and f4 where (a z)^2 is a subnormal, as the code gave them before the
# underflow to 0 was refused: refusing it leaves them bitwise as they were.
@pytest.mark.parametrize("C1, C2, f1, f4", [
    (1.0, 0.0, ("0x1.547fe3c2b78afp-798", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0")),
    (0.0, 1.0, ("0x1.e4620a90961d8p-267", "0x0.0p+0"), ("0x1.588884e3aa42ap+265", "0x0.0p+0")),
    (0.6 + 0.2j, 0.1, ("0x1.8381a20d44e46p-270", "0x1.10664fcef93bfp-800"),
     ("0x1.13a06a4fbb686p+262", "-0x1.0000000000000p-320")),
])
def test_vanishing_argument_refused_before_the_division(C1, C2, f1, f4):
    rp = params(C1=C1, C2=C2)
    values = radial_values(rp, 1e-160, 1.0)
    assert (_hex(values[0]), _hex(values[3])) == (f1, f4)
    with pytest.raises(DomainError, match=r"\(a\*z\)\^2 underflows to 0 at z=1.5e-162, a\*z=1.5e-162"):
        radial_values(rp, 1.5e-162, 1.0)
