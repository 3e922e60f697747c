import cmath
import collections
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarewave import dirac, hypersph, specfun
from poincarewave.assembly import (
    GRID_AXES,
    GroupPoint,
    Linspace,
    SpinConfig,
    _max_abs,
    bispinor,
    grid_eval,
    grid_rows,
    lorentz_factor,
    sweep,
    translation_factor,
)
from poincarewave.dirac import FourMomentum
from poincarewave.errors import DomainError, OrderNotEvaluable, PhaseOverflow, SizeCapExceeded
from poincarewave.halfint import half
from poincarewave.hypersph import EulerAngles
from poincarewave.radial import RadialParams


ANG = EulerAngles(phi=0.4, eps=0.2, theta=math.pi / 2, tau=1.0)


def config(sign_pair="+-", r=1, C1=1.0, C2=0.0):
    rp = RadialParams(kappa=0.5, kappa_dot=0.5, C1=C1, C2=C2, l=half(1), l_dot=half(1))
    p = FourMomentum.on_shell(0.0, 0.0, 0.75, 1.0)
    return SpinConfig(p=p, r=r, rp=rp, radius=1.0, sign_pair=sign_pair)


def test_config_validation():
    with pytest.raises(ValueError):
        config(sign_pair="++")
    with pytest.raises(ValueError):
        config(r=3)


def test_lorentz_factor_golden():
    # frozen composition of the verified radial and hyperspherical parts
    lo = lorentz_factor(config(), ANG)
    want = (
        0.7474225531292459 + 0.10046855321828263j,
        0.5993967906615951 - 0.7665251541658812j,
        -0.23238835620403334 - 0.1372924554740495j,
        0.09075888778060598 - 0.33622983753926583j,
    )
    for got, ref in zip(lo, want):
        assert got == pytest.approx(ref, rel=1e-12)


def test_bispinor_golden():
    gp = GroupPoint((0.0, 0.0, 0.0, 1.0), ANG)
    b = bispinor(config(), gp).as_tuple()
    want = (
        0.3511020177933485 - 0.7187166177308385j,
        0.0,
        0.06046949128888185 - 0.27982798797874686j,
        0.0,
    )
    for got, ref in zip(b, want):
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_factorization():
    rng = np.random.default_rng(7)
    cfg = config(C1=0.6 + 0.2j, C2=-0.3 + 0.1j, r=2)
    for _ in range(100):
        ang = EulerAngles(
            phi=float(rng.uniform(-3, 3)),
            eps=float(rng.uniform(-1, 1)),
            theta=float(rng.uniform(0.2, 2.9)),
            tau=float(rng.uniform(0.2, 4.0)),
        )
        gp = GroupPoint(tuple(rng.uniform(-2, 2, size=4)), ang)
        b = bispinor(cfg, gp).as_tuple()
        t = translation_factor(cfg, gp)
        lo = lorentz_factor(cfg, gp.ang)
        for i in range(4):
            assert b[i] == pytest.approx(t[i] * lo[i], rel=1e-14, abs=1e-300)


def test_sign_pair_flip_negates_middle_components():
    gp = GroupPoint((0.3, -0.7, 1.1, 0.4), ANG)
    b = bispinor(config("+-", C1=0.6, C2=0.2), gp).as_tuple()
    f = bispinor(config("-+", C1=0.6, C2=0.2), gp).as_tuple()
    assert f[0] == pytest.approx(b[0], rel=1e-15)
    assert f[1] == pytest.approx(-b[1], rel=1e-15)
    assert f[2] == pytest.approx(-b[2], rel=1e-15)
    assert f[3] == pytest.approx(b[3], rel=1e-15)


def test_translation_moves_only_phase():
    cfg = config()
    a = bispinor(cfg, GroupPoint((0.0, 0.0, 0.0, 0.0), ANG)).as_tuple()
    b = bispinor(cfg, GroupPoint((1.3, -0.2, 0.8, 2.0), ANG)).as_tuple()
    for va, vb in zip(a, b):
        assert abs(va) == pytest.approx(abs(vb), abs=1e-14)


def test_half_integer_l_above_one_half_refused_by_config():
    # (l, -1/2) hits a pole of the kernel's sum at half-integer l >= 3/2, so
    # the config refuses the order at once, naming it, before any evaluation
    assert not hypersph.index_is_evaluable(hypersph.HypersphIndex(half(3), half(-1)))
    for l, l_dot, name in ((3, 3, "l"), (1, 3, "l_dot"), (5, 1, "l")):
        rp = RadialParams(kappa=0.5, kappa_dot=0.5, C1=1.0, C2=0.0, l=half(l), l_dot=half(l_dot))
        with pytest.raises(OrderNotEvaluable, match=f"^{name} must be 1/2") as exc:
            SpinConfig(p=FourMomentum.on_shell(0, 0, 0, 1.0), r=1, rp=rp, radius=1.0)
        assert exc.value.name == name
        assert isinstance(exc.value, DomainError)


def test_grid_ordering_lexicographic():
    cfg = config()
    base = GroupPoint((0.0, 0.0, 0.0, 0.0), ANG)
    axes = {"x3": [0.0, 1.0], "x4": [0.0, 0.5, 1.0]}
    rows = grid_eval(cfg, base, axes)
    assert len(rows) == 6
    coords = [(gp.x[2], gp.x[3]) for gp, _ in rows]
    assert coords == [(0, 0), (0, 0.5), (0, 1), (1, 0), (1, 0.5), (1, 1)]


def test_grid_rows_match_pointwise_calls():
    cfg = config(C1=0.6 + 0.2j, C2=-0.3 + 0.1j)
    base = GroupPoint((0.1, 0.2, 0.3, 0.4), ANG)
    axes = {"theta": [0.5, 1.5, 2.5], "tau": [0.4, 2.0]}
    for gp, row in grid_eval(cfg, base, axes):
        direct = bispinor(cfg, gp).as_tuple()
        assert row.as_tuple() == direct  # bitwise equality
        assert gp.x == base.x
    # x and angle axes interleaved, in an order other than GRID_AXES; phi
    # takes both signed zeros, which compare equal but are distinct points
    axes = {"tau": [0.4, 2.0], "x4": [-1.0, 0.5, 2.0], "phi": [0.0, -0.0], "theta": [0.5, 2.5],
            "x1": [0.0, 1.5]}
    rows = grid_eval(cfg, base, axes)
    assert len(rows) == 48
    for (gp, row), (ta, x4, ph, th, x1) in zip(rows, itertools.product(*axes.values())):
        assert (gp.ang.tau, gp.x[3], gp.ang.theta, gp.x[0]) == (ta, x4, th, x1)
        assert math.copysign(1.0, gp.ang.phi) == math.copysign(1.0, ph)
        assert (gp.x[1], gp.x[2], gp.ang.eps) == (0.2, 0.3, ANG.eps)
        assert row.as_tuple() == bispinor(cfg, gp).as_tuple()
        assert repr(row.as_tuple()) == repr(bispinor(cfg, gp).as_tuple())  # signed zeros


def _counted(monkeypatch, module, name):
    calls = [0]
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _counted_kernel_factors(monkeypatch, thetas, taus):
    """Count the calls of each factor of the plans of Z^{1/2}_{+-1/2} by
    factor and arguments; with them, the count of each call when each
    theta factor runs once per theta and each tau factor once per tau."""
    calls = collections.Counter()

    def counted(f):
        def factor(*args):
            calls[id(f), args] += 1
            return f(*args)
        return f and factor  # None marks a closed form of the kernel's own

    plans = {m: hypersph.kernel_plan(hypersph.HypersphIndex(half(1), half(m))) for m in (1, -1)}
    counting = {m: tuple(term._replace(theta=counted(term.theta), tau=counted(term.tau))
                         for term in plan) for m, plan in plans.items()}
    monkeypatch.setattr(hypersph, "kernel_plan", lambda idx: counting[idx.m.twice])
    once = {key: 1 for plan in plans.values() for term in plan for key in (
        *((id(term.theta), (complex(-math.tan(0.5 * th) ** 2),)) for th in thetas if term.theta),
        *((id(term.tau), (complex(math.tanh(0.5 * ta) ** 2), ta)) for ta in taus if term.tau))}
    return calls, once


@pytest.mark.parametrize("n_ang, n_x", [(1, 1), (3, 2), (2, 5)])
def test_grid_evaluates_each_factor_once_per_sub_grid_point(monkeypatch, n_ang, n_x):
    # l = l_dot = 1/2: each factor of the two kernels' plans once per theta
    # and once per tau and no pointwise kernel, two plane waves per x
    # point, and the radial Bessel work once per call
    kernel = _counted(monkeypatch, hypersph, "z_assoc")
    waves = _counted(monkeypatch, dirac, "plane_wave")
    bessel = _counted(monkeypatch, specfun, "bessel_j_half")
    cfg = config(C1=0.6 + 0.2j, C2=-0.3 + 0.1j)
    base = GroupPoint((0.1, 0.2, 0.3, 0.4), ANG)
    axes = {
        "x2": list(np.linspace(-1.0, 1.0, n_x)),
        "theta": list(np.linspace(0.5, 2.5, n_ang)),
        "x3": [0.0, 0.7],
        "tau": [0.4, 2.0],
    }
    factors, once = _counted_kernel_factors(monkeypatch, axes["theta"], axes["tau"])
    rows = grid_eval(cfg, base, axes)
    assert len(rows) == 4 * n_ang * n_x
    assert kernel[0] == 0
    assert len(once) == 3 * n_ang + 2 * 2  # 3 theta and 2 tau factors are not closed forms
    assert factors == once
    assert waves[0] == 2 * (2 * n_x)
    assert bessel[0] == 6  # f1 and f4 together, from 3 Bessel values per branch


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_x_rejected(value):
    # bispinor would return four NaNs at x1 = nan
    for i in range(4):
        x = [0.1, 0.2, 0.3, 0.4]
        x[i] = value
        with pytest.raises(DomainError, match="x must be finite"):
            GroupPoint(tuple(x), ANG)


@pytest.mark.parametrize("x", [(0.1, 0.2, 0.3), (0.1, 0.2, 0.3, 0.4, 0.5), (), [0.1] * 8])
def test_group_point_holds_exactly_four_coordinates(x):
    # a fifth coordinate was ignored in silence, and a missing fourth raised
    # IndexError from bispinor
    with pytest.raises(DomainError) as e:
        GroupPoint(x, ANG)
    assert str(e.value) == f"x must hold four coordinates, got {x}"


def _psi_bits(values):
    return [struct.pack("2d", v.real, v.imag) for v in values]


def _point(values):
    """The GroupPoint of a point of the grid over GRID_AXES."""
    return GroupPoint(values[:4], EulerAngles(*values[4:]))


def test_grid_rows_takes_every_axis():
    cfg = config()
    axes = {"x1": [0.0], "x2": [0.0], "x3": [0.0, 1.0], "x4": [0.5],
            "phi": [ANG.phi], "eps": [ANG.eps], "theta": [ANG.theta], "tau": [ANG.tau]}
    rows = list(grid_rows(cfg, axes))
    points = list(itertools.product(*axes.values()))
    assert len(rows) == len(points) == 2
    for psi, point in zip(rows, points):
        assert _psi_bits(psi) == _psi_bits(bispinor(cfg, _point(point)).as_tuple())
    base = GroupPoint((0.0, 0.0, 0.0, 0.5), ANG)
    assert list(map(_psi_bits, rows)) == [
        _psi_bits(row.as_tuple()) for _, row in grid_eval(cfg, base, {"x3": [0.0, 1.0]})]
    del axes["eps"]
    with pytest.raises(DomainError, match="missing"):
        grid_rows(cfg, axes)


def test_grid_axis_validation():
    cfg = config()
    base = GroupPoint((0.0, 0.0, 0.0, 0.0), ANG)
    with pytest.raises(DomainError):
        grid_eval(cfg, base, {"x9": [0.0]})
    with pytest.raises(DomainError):
        grid_eval(cfg, base, {"theta": [0.0]})
    with pytest.raises(DomainError):
        grid_eval(cfg, base, {"tau": [-1.0]})
    # a fixed angle outside the domain is refused the same way
    with pytest.raises(DomainError, match=r"theta must lie in \(0, pi\), got 0.0"):
        grid_eval(cfg, GroupPoint((0.0, 0.0, 0.0, 0.0), EulerAngles(theta=0.0, tau=1.0)),
                  {"x1": [0.0, 1.0]})
    with pytest.raises(SizeCapExceeded):
        grid_eval(cfg, base, {"x1": [0.0] * 4000, "x2": [0.0] * 4000})
    # a count past the index size, which len() cannot return, is refused by
    # the cap before any value is read
    axes = {name: [0.5] for name in GRID_AXES}
    for name in ("x1", "theta"):
        with pytest.raises(SizeCapExceeded, match=f"grid of {10**23} points exceeds cap"):
            grid_rows(cfg, {**axes, name: Linspace(0.0, 1.0, 10**23)})


def test_plane_wave_enters_with_opposite_signs():
    # moving only x4 rotates rows 1-2 and rows 3-4 by conjugate phases
    cfg = config(C1=0.5, C2=0.5)
    a = bispinor(cfg, GroupPoint((0, 0, 0, 0.0), ANG)).as_tuple()
    b = bispinor(cfg, GroupPoint((0, 0, 0, 1.0), ANG)).as_tuple()
    rot_u = b[0] / a[0]
    rot_v = b[2] / a[2]
    assert rot_u == pytest.approx(cmath.exp(-1.25j), rel=1e-12)
    assert rot_v == pytest.approx(cmath.exp(1.25j), rel=1e-12)


def test_streamed_grid_rows_match_pointwise_calls(monkeypatch):
    # x axes first, as in GRID_AXES: the translation factor is streamed; the
    # rows equal pointwise calls at the points of the grid in GRID_AXES
    # order bitwise, whatever the order of the axes mapping.  phi and eps
    # take both signed zeros, whose phases differ in the sign of a zero, so
    # a row out of its place differs from the call at that place.
    cfg = config(C1=0.6 + 0.2j, C2=-0.3 + 0.1j, r=2)
    axes = {"x1": Linspace(-1.0, 2.0, 3), "x2": [0.2], "x3": [-0.0, 0.0], "x4": [0.4, -1.5],
            "phi": [0.0, -0.0, 0.3], "eps": [-0.0, 0.0], "theta": [0.5, 2.5], "tau": [0.4, 2.0]}
    kernel = _counted(monkeypatch, hypersph, "z_assoc")
    phase = _counted(monkeypatch, hypersph, "phase")
    factors, once = _counted_kernel_factors(monkeypatch, axes["theta"], axes["tau"])
    rows = list(grid_rows(cfg, axes))
    assert len(rows) == 3 * 2 * 2 * 3 * 2 * 2 * 2
    # each kernel factor once per theta and once per tau and no pointwise
    # kernel, four phases per (phi, eps) point
    assert (factors, kernel[0], phase[0]) == (once, 0, 4 * 3 * 2)
    for psi, point in zip(rows, itertools.product(*axes.values())):
        assert _psi_bits(psi) == _psi_bits(bispinor(cfg, _point(point)).as_tuple())
    order = ("theta", "x4", "phi", "x1", "tau", "eps", "x3", "x2")
    interleaved = list(grid_rows(cfg, {name: axes[name] for name in order}))
    assert list(map(_psi_bits, interleaved)) == list(map(_psi_bits, rows))


def test_streamed_factor_is_evaluated_as_the_rows_are_read():
    # an outer point (a, b) has entries (a, b, 1) and an inner point c has
    # (1, 1, c), so each row's entries (a, b, c) name the pair it is from
    calls = []

    def outer():
        for a, b in itertools.product(Linspace(0.0, 1.0, 4), [1.0, 2.0]):
            calls.append((a, b))
            yield complex(a), complex(b), 1.0

    inner = [(1.0, 1.0, complex(c)) for c in (3.0, 4.0, 5.0)]
    rows = sweep(outer(), inner, [1.0, 2.0, 1.0])
    assert calls == []
    first = next(rows)
    assert calls == [(0.0, 1.0)] and first == (0.0, 1.0, 3.0)
    rest = list(rows)
    assert len(rest) == 4 * 2 * 3 - 1
    # each outer point read once, in order, and paired with every inner one
    assert calls == list(itertools.product(Linspace(0.0, 1.0, 4), [1.0, 2.0]))
    assert [first, *rest] == [(a, b, c) for (a, b), c in
                              itertools.product(calls, [3.0, 4.0, 5.0])]
    # the product bound is checked before any outer point is read
    calls.clear()
    with pytest.raises(OverflowError, match="a product of the grid factors overflows"):
        sweep(outer(), inner, [1.0, 2.0, 1e308])
    assert calls == []


def test_an_inner_entry_whose_modulus_overflows_is_not_finite():
    # both parts finite, |entry| past the double range: abs() raises, and
    # sweep names the factor instead
    with pytest.raises(OverflowError, match="^a grid factor is not finite$"):
        sweep(iter([(1.0,)]), [(1.0,), (complex(1.3e308, 1.3e308),)], [1.0])


def test_phase_bound_raised_before_any_x_is_evaluated(monkeypatch):
    cfg = SpinConfig(p=FourMomentum.on_shell(1e150, 0.0, 0.0, 1.0), r=1,
                     rp=config().rp, radius=1.0)
    waves = _counted(monkeypatch, dirac, "plane_wave")
    axes = {name: [0.0] for name in GRID_AXES} | {"theta": [1.0], "tau": [1.0]}
    for x1 in ([1e200], Linspace(-1e200, 1e10, 3), Linspace(-1e200, 1.0, 1)):
        with pytest.raises(PhaseOverflow, match=r"\(E, px, py, pz\) = \(1e\+150, 1e\+150, "
                           r"0.0, 0.0\), \|x\| up to \(1e\+200, 0.0, 0.0, 0.0\)"):
            grid_rows(cfg, {**axes, "x1": x1})
    assert waves[0] == 0
    # the bound of the largest |x| on the axis, not of a value
    assert len(list(grid_rows(cfg, {**axes, "x1": [1e150, -1e157]}))) == 2


@pytest.mark.parametrize("fn", [translation_factor, bispinor])
def test_non_finite_phase_raises_naming_p_and_x(fn):
    cfg = SpinConfig(p=FourMomentum.on_shell(1e150, 0.0, 0.0, 1.0), r=1,
                     rp=config().rp, radius=1.0)
    with pytest.raises(PhaseOverflow, match=r"p\.x overflows at \(E, px, py, pz\) = "
                       r"\(1e\+150, 1e\+150, 0.0, 0.0\), x = \(1e\+200, 0.0, 0.0, 0.0\)"):
        fn(cfg, GroupPoint((1e200, 0.0, 0.0, 0.0), ANG))


def _listed(lo, hi, n):
    # the list the CLI built before its axes were lazy, bitwise np.linspace
    span = hi - lo
    step = span / (n - 1) if n > 1 else 0.0
    head = [i * step + lo if step != 0 else (i / (n - 1)) * span + lo for i in range(n - 1)]
    return head + [hi if n > 1 else 0.0 * span + lo]


def _bits(values):
    return [struct.pack("d", v) for v in values]


@pytest.mark.parametrize("lo, hi, n", [
    (0.3, 7.0, 1), (-0.0, 5.0, 1), (-0.0, 0.0, 1),  # one point is 0*span + lo
    (0.0, 5e-324, 3), (0.0, 9 * 5e-324, 7),  # a step that underflows, or is subnormal
    (1.0, 1.0 + 2**-52, 5),  # values that round onto an end
    (-0.0, 0.0, 4), (-0.0, 1.0, 3), (1.0, -0.0, 3), (-0.0, -0.0, 2),  # signed zero ends
    (2.5, -1.5, 6), (-1e300, -2e300, 11),  # hi < lo
    (-1e308, 1e308, 3),  # the span overflows: no value past the first is finite
])
def test_linspace_axis_equals_the_listed_axis_bitwise(lo, hi, n):
    axis, want = Linspace(lo, hi, n), _listed(lo, hi, n)
    assert len(axis) == n
    assert _bits(axis) == _bits(want)
    assert _bits(axis[i] for i in range(-n, n)) == _bits(want + want)
    if all(map(math.isfinite, want)):
        assert _bits(np.linspace(lo, hi, n)) == _bits(want)
    with pytest.raises(IndexError):
        axis[n]


def test_linspace_largest_modulus_from_its_ends():
    assert _max_abs(Linspace(2.5, -7.0, 4)) == 7.0
    assert _max_abs(Linspace(-3.0, 1.0, 1)) == 3.0
    assert _max_abs(Linspace(-1e300, 1e300, 10**7)) == 1e300
    # a subnormal step can overshoot hi, here by 5e-324; no bound moves by it
    assert max(Linspace(0.0, 9 * 5e-324, 7)) == 5e-323 > _max_abs(Linspace(0.0, 9 * 5e-324, 7))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(allow_nan=False), hi=st.floats(allow_nan=False), n=st.integers(1, 40))
def test_linspace_axis_equals_the_listed_axis_property(lo, hi, n):
    axis, want = Linspace(lo, hi, n), _listed(lo, hi, n)
    assert _bits(axis) == _bits(want)
    if all(map(math.isfinite, want)) and abs(hi - lo) / max(n - 1, 1) >= 2.0**-1022:
        assert _max_abs(axis) == max(map(abs, want))
