import hashlib
import math
import re

import pytest

from poincarewave.errors import (
    DomainError,
    IntegerOrderUnsupported,
    NonConvergent,
    NonPositiveArgument,
    PoleInDenominator,
    TermCapExceeded,
)
from poincarewave.halfint import half
from poincarewave.specfun import (
    bessel_j_half,
    bessel_j_half_derivative,
    hyp2f1,
)


_BESSEL_SHA256 = "d0fbcba414904e3cd467fa10ec0b8ea5466cf9242b52127a2827515225c53d40"


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

    def test_errors_name_the_callers_input(self):
        with pytest.raises(NonConvergent, match=re.escape("2F1(0.5, 0.7; 1.9; 1.5): |x| = 1.5")):
            hyp2f1(0.5, 0.7, 1.9, 1.5)
        # x < 0 runs the Pfaff partner (1, 2; 3) on x/(x - 1) = 1 - 2.5e-7,
        # yet the error names the triple and the x given
        x = -math.tan(0.5 * (math.pi - 1e-3)) ** 2
        with pytest.raises(TermCapExceeded) as info:
            hyp2f1(1.0, 1.0, 3.0, x)
        assert str(info.value) == (
            f"2F1(1.0, 1.0; 3.0; {x}): the series did not converge within 1000 terms")

    @pytest.mark.parametrize("a, b, c, x", [
        (math.nan, 1.0, 2.0, 0.5),
        (1.0, -math.inf, 2.0, 0.5),
        (1.0, 1.0, math.inf, 0.5),
        (1.0, 1.0, 2.0, -math.inf),
        (1.0, 1.0, 2.0, math.nan),
        (1.0, 1.0, 2.0, complex(0.1, math.nan)),
    ])
    def test_non_finite_input_is_a_domain_error(self, a, b, c, x):
        with pytest.raises(DomainError, match=re.escape(f"2F1({a}, {b}; {c}; ")):
            hyp2f1(a, b, c, x)

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

    def test_values_are_pinned_where_the_recurrence_is_stable(self):
        # the recurrence's values, bit for bit, on the geometric grid
        # x = 1e-3 * 1.125^i up to 1e3: every x for nu = -41/2 ... -1/2, and
        # x >= nu for nu = 1/2 ... 41/2; x < nu is left out, where the upward
        # recurrence loses accuracy and another method may replace it
        xs = [1e-3]
        while xs[-1] * 1.125 <= 1e3:
            xs.append(xs[-1] * 1.125)
        digest = hashlib.sha256()
        pinned = 0
        for twice in range(-41, 42, 2):
            for x in xs:
                if twice < 0 or x >= twice / 2:
                    digest.update(bessel_j_half(half(twice), x).hex().encode())
                    pinned += 1
        assert (len(xs), pinned) == (118, 3347)
        assert digest.hexdigest() == _BESSEL_SHA256

    def test_integer_order_rejected(self):
        with pytest.raises(IntegerOrderUnsupported):
            bessel_j_half(half(2), 1.0)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(NonPositiveArgument):
            bessel_j_half(half(1), 0.0)
        with pytest.raises(NonPositiveArgument):
            bessel_j_half(half(1), -2.0)
