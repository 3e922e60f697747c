import math

import numpy as np
import pytest

from poincarewave.dirac import (
    GAMMA,
    METRIC,
    FourMomentum,
    adjoint,
    dirac_residual,
    dirac_residual_fd,
    momentum_slash,
    plane_wave,
    u_amplitude,
    v_amplitude,
)
from poincarewave.errors import OffShellError


def test_gamma_anticommutators_exact():
    gs = GAMMA
    for mu in range(4):
        for nu in range(4):
            anti = gs[mu] @ gs[nu] + gs[nu] @ gs[mu]
            assert np.array_equal(anti, 2.0 * METRIC[mu, nu] * np.eye(4))


def test_gamma_entries():
    g0, g1, g2, g3 = GAMMA
    assert np.array_equal(g0, np.diag([1, 1, -1, -1]).astype(complex))
    assert g1[0, 3] == 1 and g1[3, 0] == -1
    assert g2[0, 3] == -1j and g2[3, 0] == -1j
    assert g3[0, 2] == 1 and g3[1, 3] == -1


def test_on_shell_constructor():
    p = FourMomentum.on_shell(0.0, 0.0, 0.75, 1.0)
    assert p.E == pytest.approx(1.25)
    assert p.is_on_shell()


def test_off_shell_rejected_by_default():
    with pytest.raises(OffShellError):
        FourMomentum(2.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(OffShellError):
        FourMomentum(1.0, 0.0, 0.0, 0.0, -1.0)


def test_off_shell_escape_hatch():
    p = FourMomentum.off_shell(1.1, 0.0, 0.0, 0.0, 1.0)
    assert not p.is_on_shell()
    with pytest.raises(OffShellError):
        u_amplitude(1, p)


def test_rest_frame_spinors():
    p = FourMomentum.on_shell(0.0, 0.0, 0.0, 1.0)
    np.testing.assert_allclose(u_amplitude(1, p).components, [1, 0, 0, 0])
    np.testing.assert_allclose(u_amplitude(2, p).components, [0, 1, 0, 0])
    np.testing.assert_allclose(v_amplitude(1, p).components, [0, 0, 1, 0])
    np.testing.assert_allclose(v_amplitude(2, p).components, [0, 0, 0, 1])


def test_moving_frame_u1():
    p = FourMomentum.on_shell(0.0, 0.0, 0.75, 1.0)
    # sqrt((E+m)/2m) (1, 0, pz/(E+m), 0) = (3/(2 sqrt 2)) (1, 0, 1/3, 0)
    want = [3.0 / (2.0 * math.sqrt(2.0)), 0.0, 1.0 / (2.0 * math.sqrt(2.0)), 0.0]
    np.testing.assert_allclose(u_amplitude(1, p).components, want, atol=1e-15)


def test_shell_identities():
    p = FourMomentum.on_shell(0.3, -0.4, 0.9, 1.2)
    slash = momentum_slash(p)
    for r in (1, 2):
        u = u_amplitude(r, p).components
        v = v_amplitude(r, p).components
        assert np.linalg.norm((slash - p.m * np.eye(4)) @ u) < 1e-14
        assert np.linalg.norm((slash + p.m * np.eye(4)) @ v) < 1e-14


def test_normalization():
    p = FourMomentum.on_shell(0.5, 0.1, -0.7, 0.9)
    for r in (1, 2):
        for s in (1, 2):
            uu = adjoint(u_amplitude(r, p).components) @ u_amplitude(s, p).components
            vv = adjoint(v_amplitude(r, p).components) @ v_amplitude(s, p).components
            d = 1.0 if r == s else 0.0
            assert uu == pytest.approx(d, abs=1e-14)
            assert vv == pytest.approx(-d, abs=1e-14)


def test_plane_wave_phase():
    p = FourMomentum.on_shell(0.0, 0.0, 0.75, 1.0)
    x = (0.0, 0.0, 0.0, 1.0)
    assert plane_wave(x, p, "+") == pytest.approx(np.exp(-1.25j))
    assert plane_wave(x, p, "-") == pytest.approx(np.exp(1.25j))
    assert abs(plane_wave((0.4, -2.0, 1.0, 0.3), p, "+")) == pytest.approx(1.0)


def test_analytic_residual_vanishes():
    p = FourMomentum.on_shell(0.3, -0.2, 0.7, 1.0)
    x = (0.1, -0.4, 2.0, 0.8)
    for kind in ("+", "-"):
        for r in (1, 2):
            assert np.linalg.norm(dirac_residual(kind, r, p, x)) < 1e-14


def test_fd_residual_matches_analytic():
    p = FourMomentum.on_shell(0.3, -0.2, 0.7, 1.0)
    x = (0.1, -0.4, 2.0, 0.8)
    assert np.linalg.norm(dirac_residual_fd("+", 1, p, x)) < 1e-6
    assert np.linalg.norm(dirac_residual_fd("-", 2, p, x)) < 1e-6


def test_off_shell_negative_control():
    off = FourMomentum.off_shell(1.1, 0.0, 0.0, 0.0, 1.0)
    assert np.linalg.norm(dirac_residual("+", 1, off, (0, 0, 0, 0))) > 1e-2
