import math

import pytest

from poincarewave.errors import (
    IntegerOrderUnsupported,
    NonConvergent,
    NonPositiveArgument,
    PoleInDenominator,
)
from poincarewave.halfint import half
from poincarewave.specfun import (
    bessel_j_half,
    bessel_j_half_derivative,
    hyp2f1,
)


class TestHyp2F1:
    def test_a_zero_gives_one(self):
        # jmax = 0 truncation: only the leading 1 survives
        assert hyp2f1(0.0, 1.7, 2.3, 0.9) == 1.0 + 0.0j

    def test_terminating_polynomial(self):
        # 1 + (-1)(2)/3 * 0.5 = 2/3
        assert hyp2f1(-1.0, 2.0, 3.0, 0.5) == pytest.approx(2.0 / 3.0)

    def test_log_series(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x
        got = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert got.real == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert got.imag == 0.0

    def test_termination_beats_argument_size(self):
        # terminating series sum exactly even for |x| > 1
        got = hyp2f1(-2.0, 1.0, 1.0, 3.0)
        # (1 - x)^2 at x = 3
        assert got == pytest.approx(4.0)

    def test_pfaff_continuation_negative_axis(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x holds for all x < 1
        for x in (-0.5, -1.0, -4.0):
            got = hyp2f1(1.0, 1.0, 2.0, x)
            assert got.real == pytest.approx(-math.log(1.0 - x) / x, rel=1e-13)

    def test_nonconvergent_raises(self):
        with pytest.raises(NonConvergent):
            hyp2f1(0.5, 0.7, 1.9, 1.5)

    def test_pole_before_termination_raises(self):
        with pytest.raises(PoleInDenominator):
            hyp2f1(0.3, 0.7, -1.0, 0.5)
        with pytest.raises(PoleInDenominator):
            hyp2f1(-3.0, 5.0, -1.0, 0.5)

    def test_termination_before_pole_is_fine(self):
        # a = -1 terminates at j = 1; pole of c = -1 sits at j = 2
        got = hyp2f1(-1.0, 2.0, -1.0, 0.5)
        assert got == pytest.approx(2.0)


class TestBesselHalf:
    def test_seed_values(self):
        x = math.pi / 2
        assert bessel_j_half(half(1), x) == pytest.approx(math.sqrt(2.0 / (math.pi * x)))
        assert bessel_j_half(half(-1), x) == pytest.approx(0.0, abs=1e-16)

    def test_three_halves(self):
        want = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        assert bessel_j_half(half(3), 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.2402978, abs=1e-7)

    def test_negative_three_halves(self):
        x = 2.0
        want = math.sqrt(2.0 / (math.pi * x)) * (-math.cos(x) / x - math.sin(x))
        assert bessel_j_half(half(-3), x) == pytest.approx(want, rel=1e-14)

    def test_derivative_identity(self):
        x = 1.7
        h = 1e-6
        fd = (bessel_j_half(half(3), x + h) - bessel_j_half(half(3), x - h)) / (2 * h)
        assert bessel_j_half_derivative(half(3), x) == pytest.approx(fd, rel=1e-8)

    def test_integer_order_rejected(self):
        with pytest.raises(IntegerOrderUnsupported):
            bessel_j_half(half(2), 1.0)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(NonPositiveArgument):
            bessel_j_half(half(1), 0.0)
        with pytest.raises(NonPositiveArgument):
            bessel_j_half(half(1), -2.0)
