"""Property-check suites with machine-readable reports.

Each suite replays the residual and oracle checks for one part of the
library and reports the worst residual against its tolerance.  Double
precision lives in the library kernels; the oracles here run in mpmath
at >= 25 significant digits, imported by the oracles themselves so that
importing the package or its CLI does not load mpmath.

When a suite mixes checks with different tolerances, the reported
``max_residual`` is the worst residual rescaled to the suite's headline
tolerance (max over checks of residual/tolerance, times the headline), so
that ``passed == (max_residual <= tolerance)`` holds exactly.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import assembly, dirac, hypersph, radial, specfun
from .errors import DomainError, PoleInDenominator
from .halfint import HalfInt, unit_range

SUITES = ("gamma", "dirac", "bessel", "hyp2f1", "radial", "hypersph", "assembly", "all")

_SEED = 20260824


@dataclass
class RunReport:
    suite: str
    cases: int
    max_residual: float
    tolerance: float
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "elapsed": self.elapsed,
            "details": self.details,
        }


def _assemble(suite, checks, primary_tol, tol_override, t0, details=None):
    """checks: list of (name, residual, tolerance)."""
    checks = [(n, float(r), float(t)) for n, r, t in checks]
    if tol_override is not None:
        checks = [(n, r, tol_override) for n, r, _ in checks]
        primary_tol = tol_override
    passed = all(r <= t for _, r, t in checks)
    if primary_tol == 0.0:
        worst = max((r for _, r, _ in checks), default=0.0)
    else:
        ratio = 0.0
        for _, r, t in checks:
            ratio = max(ratio, math.inf if t == 0.0 and r > 0.0 else (r / t if t else 0.0))
        worst = primary_tol * ratio
    det = dict(details or {})
    det["worst_check"] = max(checks, key=lambda c: (c[1] / c[2] if c[2] else c[1]))[0] if checks else None
    return RunReport(
        suite=suite,
        cases=len(checks),
        max_residual=worst,
        tolerance=primary_tol,
        passed=passed,
        elapsed=time.perf_counter() - t0,
        details=det,
    )


# ---------------------------------------------------------------- gamma

def verify_gamma(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    gs = dirac.GAMMA
    checks = []
    for mu in range(4):
        for nu in range(4):
            anti = gs[mu] @ gs[nu] + gs[nu] @ gs[mu]
            target = 2.0 * dirac.METRIC[mu, nu] * np.eye(4)
            res = float(np.max(np.abs(anti - target)))
            checks.append((f"anticommutator[{mu},{nu}]", res, 0.0))
    return _assemble("gamma", checks, 0.0, tol, t0)


# ---------------------------------------------------------------- dirac

def _random_momenta(rng, n):
    out = []
    for _ in range(n):
        m = rng.uniform(0.5, 2.0)
        vec = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec *= rng.uniform(0.0, 10.0 * m) / norm
        out.append(dirac.FourMomentum.on_shell(*vec, m))
    return out


def verify_dirac(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    checks = []

    worst_u = worst_v = 0.0
    for p in _random_momenta(rng, 1000):
        slash = dirac.momentum_slash(p)
        for r in (1, 2):
            u = dirac.u_amplitude(r, p).components
            v = dirac.v_amplitude(r, p).components
            worst_u = max(worst_u, np.linalg.norm((slash - p.m * np.eye(4)) @ u) / np.linalg.norm(u))
            worst_v = max(worst_v, np.linalg.norm((slash + p.m * np.eye(4)) @ v) / np.linalg.norm(v))
    checks.append(("u_shell_identity", worst_u, 1e-10))
    checks.append(("v_shell_identity", worst_v, 1e-10))

    worst = 0.0
    for p in _random_momenta(rng, 50):
        for r in (1, 2):
            for s in (1, 2):
                uu = dirac.adjoint(dirac.u_amplitude(r, p).components) @ dirac.u_amplitude(s, p).components
                vv = dirac.adjoint(dirac.v_amplitude(r, p).components) @ dirac.v_amplitude(s, p).components
                d = 1.0 if r == s else 0.0
                worst = max(worst, abs(uu - d), abs(vv + d))
    checks.append(("spinor_normalization", worst, 1e-10))

    worst = 0.0
    for p in _random_momenta(rng, 100):
        x = rng.uniform(-2.0, 2.0, size=4)
        for kind, r in (("+", 1), ("+", 2), ("-", 1), ("-", 2)):
            worst = max(worst, float(np.linalg.norm(dirac.dirac_residual(kind, r, p, x))))
    checks.append(("plane_wave_residual_analytic", worst, 1e-12))

    p = dirac.FourMomentum.on_shell(0.3, -0.2, 0.7, 1.0)
    worst = 0.0
    axis = np.linspace(-1.0, 1.0, 4)
    for x1 in axis:
        for x2 in axis:
            for x3 in axis:
                for x4 in axis:
                    x = (x1, x2, x3, x4)
                    for kind, r in (("+", 1), ("-", 2)):
                        worst = max(worst, float(np.linalg.norm(dirac.dirac_residual_fd(kind, r, p, x))))
    checks.append(("plane_wave_residual_central_difference", worst, 1e-6))

    off = dirac.FourMomentum.off_shell(1.1, 0.0, 0.0, 0.0, 1.0)
    norm = float(np.linalg.norm(dirac.dirac_residual("+", 1, off, (0.0, 0.0, 0.0, 0.0))))
    checks.append(("offshell_negative_control", 0.0 if norm > 1e-2 else math.inf, 1e-10))

    return _assemble("dirac", checks, 1e-10, tol, t0)


# ---------------------------------------------------------------- bessel

def _closed_form_j(tw: int, x: float) -> float:
    s = math.sqrt(2.0 / (math.pi * x))
    forms = {
        1: s * math.sin(x),
        -1: s * math.cos(x),
        3: s * (math.sin(x) / x - math.cos(x)),
        -3: s * (-math.cos(x) / x - math.sin(x)),
    }
    return forms[tw]


def verify_bessel(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    checks = []
    xs = np.geomspace(0.1, 50.0, 40)

    worst = 0.0
    for tw in (3, -3):
        for x in xs:
            ref = _closed_form_j(tw, float(x))
            got = specfun.bessel_j_half(HalfInt(tw), float(x))
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    checks.append(("recurrence_vs_closed_form", worst, 1e-12))

    worst = 0.0
    two = HalfInt(4)
    for tw in (1, -1, 3, -3, 5, -5, 7, -7):
        nu = HalfInt(tw)
        nuf = tw / 2.0
        for x in xs:
            x = float(x)
            y = specfun.bessel_j_half(nu, x)
            d1 = specfun.bessel_j_half_derivative(nu, x)
            d2 = 0.25 * (
                specfun.bessel_j_half(nu - two, x)
                - 2.0 * y
                + specfun.bessel_j_half(nu + two, x)
            )
            res = x * x * d2 + x * d1 + (x * x - nuf * nuf) * y
            scale = abs(x * x * d2) + abs(x * d1) + abs((x * x - nuf * nuf) * y)
            worst = max(worst, abs(res) / max(scale, 1e-300))
    checks.append(("bessel_ode_residual", worst, 1e-8))

    return _assemble("bessel", checks, 1e-8, tol, t0)


# ---------------------------------------------------------------- hyp2f1

def mp_hyp2f1_series(a, b, c, x, jmax=None, dps=50):
    """Brute-force term-by-term summation at high working precision."""
    import mpmath as mp

    with mp.workdps(dps):
        s = mp.mpf(1)
        term = mp.mpc(1)
        j = 0
        while True:
            if jmax is not None and j >= jmax:
                return mp.mpc(s)
            term = term * (a + j) * (b + j) / ((c + j) * (j + 1)) * x
            s += term
            j += 1
            if jmax is None and abs(term) < mp.mpf(10) ** (-dps) * abs(s):
                return mp.mpc(s)
            if j > 10**6:
                raise RuntimeError("oracle series did not converge")


def verify_hyp2f1(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    checks = []

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 7))
        other = float(rng.uniform(-3.0, 3.0))
        if rng.integers(0, 2):
            a, b = -n, other
        else:
            a, b = other, -n
        c = float(rng.uniform(0.5, 4.0))
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        got = specfun.hyp2f1(a, b, c, x)
        ref = complex(mp_hyp2f1_series(a, b, c, x, jmax=n))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    checks.append(("terminating_vs_brute_force_oracle", worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        c = float(rng.uniform(0.5, 4.0))
        x = float(rng.uniform(-0.9, 0.9))
        f0 = specfun.hyp2f1(a, b, c, x)
        f1 = specfun.hyp2f1(a + 1, b, c, x)
        f2 = specfun.hyp2f1(a + 1, b + 1, c + 1, x)
        lhs = c * f0 - c * f1 + b * x * f2
        scale = abs(c * f0) + abs(c * f1) + abs(b * x * f2)
        worst = max(worst, abs(lhs) / max(scale, 1e-300))
    checks.append(("gauss_contiguity", worst, 1e-10))

    return _assemble("hyp2f1", checks, 1e-12, tol, t0)


# ---------------------------------------------------------------- hypersph

_ORACLE_DPS = 25
_factor_cache: dict = {}


def _oracle_factor(a, b, c, xkey, x, dps):
    """One hypergeometric factor at high precision, cached per grid value."""
    import mpmath as mp

    key = (a, b, c, xkey)
    if key in _factor_cache:
        return _factor_cache[key]
    jmax = specfun._termination_index(a, b)
    if jmax is not None:
        val = mp_hyp2f1_series(mp.mpf(a), mp.mpf(b), mp.mpf(c), x, jmax=jmax, dps=dps)
    else:
        with mp.workdps(dps):
            val = mp.hyp2f1(a, b, c, x)
    _factor_cache[key] = val
    return val


def z_assoc_oracle(idx: hypersph.HypersphIndex, theta: float, tau: float) -> complex:
    """Independent high-precision direct summation of the Z kernel."""
    import mpmath as mp

    # 1 - tanh^2(tau/2) ~ 4 e^{-tau}: forming tanh^2 cancels tau/ln(10)
    # digits, which the tau factors (singular at tanh^2 = 1) need back
    dps = _ORACLE_DPS + int(tau / math.log(10))
    with mp.workdps(dps):
        l, m = idx.l, idx.m
        th = mp.mpf(theta)
        ta = mp.mpf(tau)
        t = mp.tan(th / 2)
        h = mp.tanh(ta / 2)
        x = -t * t
        y = h * h
        pref = mp.cos(th / 2) ** l.twice * mp.cosh(ta / 2) ** l.twice
        s = mp.mpc(0)
        for k in hypersph.sum_index_values(idx):
            n = (m.twice - k.twice) // 2
            a1, b1, c1, a2, b2, c2 = hypersph._term_params(idx, k)
            term = (
                mp.mpc(0, 1) ** n
                * t**n
                * h ** mp.mpf(-k.twice / 2.0)
                * _oracle_factor(a1, b1, c1, (theta, "th"), x, dps)
                * _oracle_factor(a2, b2, c2, (tau, "ta"), y, dps)
            )
            s += term
        return complex(pref * s)


def hypersph_index_sweep():
    """(idx, evaluable) for every |m| <= l with l <= 7/2."""
    out = []
    for lt in range(8):
        l = HalfInt(lt)
        for m in unit_range(-l, l):
            idx = hypersph.HypersphIndex(l, m)
            out.append((idx, hypersph.index_is_evaluable(idx)))
    return out


def verify_hypersph(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    checks = []
    thetas = np.linspace(0.1, math.pi - 0.1, 20)
    taus = np.linspace(0.1, 5.0, 20)

    n_eval = n_sing = 0
    worst = 0.0
    singular_ok = True
    for idx, evaluable in hypersph_index_sweep():
        if evaluable:
            n_eval += 1
            for th in thetas:
                for ta in taus:
                    got = hypersph.z_assoc(idx, float(th), float(ta))
                    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
                        worst = math.inf
                        continue
                    ref = z_assoc_oracle(idx, float(th), float(ta))
                    worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
        else:
            n_sing += 1
            try:
                hypersph.z_assoc(idx, float(thetas[0]), float(taus[0]))
                singular_ok = False
            except PoleInDenominator:
                pass
    checks.append(("grid_vs_direct_summation_oracle", worst, 1e-9))
    checks.append(("singular_pairs_rejected", 0.0 if singular_ok else math.inf, 1e-9))

    half = HalfInt(1)
    golden = hypersph.z_assoc(hypersph.HypersphIndex(half, half), math.pi / 2, 1.0)
    pinned = 1.1729352093275558 + 0.4065083666624422j
    checks.append(("pinned_golden", abs(golden - pinned) / abs(pinned), 1e-9))

    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(20):
        idx = hypersph.HypersphIndex(HalfInt(3), HalfInt(1))
        ang = hypersph.EulerAngles(
            phi=float(rng.uniform(-3, 3)),
            eps=float(rng.uniform(-1, 1)),
            theta=float(rng.uniform(0.2, 2.9)),
            tau=float(rng.uniform(0.2, 4.0)),
        )
        z = hypersph.z_assoc(idx, ang.theta, ang.tau)
        if z != 0:
            expect = cmath.exp(-(idx.m.twice / 2.0) * (ang.eps + 1j * ang.phi))
            worst = max(worst, abs(hypersph.m_assoc(idx, ang) / z - expect))
    checks.append(("phase_prefactor_exactness", worst, 1e-13))

    worst = 0.0
    idx = hypersph.HypersphIndex(HalfInt(1), HalfInt(1))
    dtau = 1e-3
    taus_fine = np.arange(0.1, 5.0, 0.05)
    for ta in taus_fine:
        ta = float(ta)
        v0 = hypersph.z_assoc(idx, 1.0, ta)
        v1 = hypersph.z_assoc(idx, 1.0, ta + dtau)
        slope = abs(hypersph.z_assoc(idx, 1.0, ta + 0.05) - v0) / 0.05
        if abs(v1 - v0) >= 10.0 * dtau * max(slope, 1e-6):
            worst = math.inf
    checks.append(("continuity_probe", worst, 1e-9))

    return _assemble(
        "hypersph",
        checks,
        1e-9,
        tol,
        t0,
        details={"evaluable_pairs": n_eval, "singular_pairs": n_sing},
    )


# ---------------------------------------------------------------- radial

def _bessel_ode_parts(rp: radial.RadialParams, z: float, a: float):
    """z^2 f1'' - z f1' - (l^2 - 1 - 4 kappa kappa_dot z^2) f1, and the sum
    of its terms' moduli that the residual is measured against."""
    f1, d1, d2 = radial._f1_with_derivatives(rp, z, a)
    lsq = (rp.l.twice / 2.0) ** 2
    kk4 = 4.0 * rp.kappa * rp.kappa_dot
    res = z * z * d2 - z * d1 - (lsq - 1.0 - kk4 * z * z) * f1
    scale = abs(z * z * d2) + abs(z * d1) + abs((lsq - 1.0) * f1) + abs(kk4 * z * z * f1)
    return res, max(scale, 1e-300)


def resolve_scale(kappa: complex, kappa_dot: complex) -> float:
    """Bessel argument scale a such that z J_l(a z) solves the radial ODE.

    The equation's coefficient 4 kappa kappa_dot implies a = 2 sqrt(k kd)
    while the printed solution writes sqrt(k kd); the two candidates are
    compared by their ODE residuals at l = 1/2 over z in [0.5, 20] and the
    winner is returned.  The doubled candidate wins at machine precision,
    and it is bitwise ``radial.argument_scale``, the closed form the
    evaluator uses.
    """
    root = cmath.sqrt(radial._positive_product(kappa, kappa_dot)).real
    half = HalfInt(1)
    probe = radial.RadialParams(kappa, kappa_dot, 1.0, 0.3, half, half)
    best_a, best_res = None, None
    for a in (root, 2.0 * root):
        worst = 0.0
        for z in np.geomspace(0.5, 20.0, 9):
            r, scale = _bessel_ode_parts(probe, float(z), a)
            worst = max(worst, abs(r) / scale)
        if best_res is None or worst < best_res:
            best_a, best_res = a, worst
    return best_a


def verify_radial(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    checks = []

    root = resolve_scale(0.5, 0.5)
    scale_detail = "2*sqrt(kappa*kappa_dot)" if abs(root - 1.0) < 1e-12 else "sqrt(kappa*kappa_dot)"

    zs = np.geomspace(0.5, 20.0, 50)
    worst_ode = worst_red = worst_full = 0.0
    for lt in (1, 3, 5):
        l = HalfInt(lt)
        for prod in (0.25, 1.0, 4.0):
            k = math.sqrt(prod)
            rp = radial.RadialParams(
                kappa=k,
                kappa_dot=k,
                C1=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                C2=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                l=l,
                l_dot=l,
            )
            a = radial.argument_scale(rp.kappa, rp.kappa_dot)
            for z in zs:
                pt = radial.RadialPoint(float(z))
                res, sc = _bessel_ode_parts(rp, pt.z, a)
                worst_ode = max(worst_ode, abs(res) / sc)

                f1 = radial.f1_solution(rp, pt, a)
                f4 = radial.f4_from_f1(rp, pt, a)
                sc = max(abs(2.0 * rp.kappa * f1), abs(2.0 * rp.kappa_dot * f4), 1e-300)
                r1, r2 = radial.reduced_system_residual(rp, pt, a)
                worst_red = max(worst_red, abs(r1) / sc, abs(r2) / sc)

                for e in radial.full_system_residual(rp, pt, a, "+-"):
                    worst_full = max(worst_full, abs(e) / (4.0 * sc))
    checks.append(("bessel_ode_residual", worst_ode, 1e-8))
    checks.append(("reduced_system_residual", worst_red, 1e-8))
    checks.append(("full_system_residual", worst_full, 1e-8))

    # analytic vs central-difference derivatives (a = 1 family)
    rp = radial.RadialParams(0.5, 0.5, 0.8 + 0.1j, -0.4 + 0.6j, HalfInt(1), HalfInt(1))
    a = radial.argument_scale(rp.kappa, rp.kappa_dot)
    worst = 0.0
    for z in np.geomspace(0.5, 10.0, 20):
        z = float(z)
        h = 1e-6 * z
        d_an = radial._f1_with_derivatives(rp, z, a)[1]
        d_fd = (
            radial.f1_solution(rp, radial.RadialPoint(z + h), a)
            - radial.f1_solution(rp, radial.RadialPoint(z - h), a)
        ) / (2.0 * h)
        worst = max(worst, abs(d_an - d_fd))
        f4_an = radial.f4_from_f1(rp, radial.RadialPoint(z), a)
        f4_fd = (
            (rp.l.twice / 2.0 + 1.0) / z * radial.f1_solution(rp, radial.RadialPoint(z), a) - d_fd
        ) / (2.0 * rp.kappa)
        worst = max(worst, abs(f4_an - f4_fd))
    checks.append(("analytic_vs_finite_difference", worst, 1e-7))

    # structural fit: f4 proportional to C1 z J_{l+1}(az) - C2 z J_{-l-1}(az)
    one = HalfInt(2)
    worst = 0.0
    for lt in (1, 3, 5):
        l = HalfInt(lt)
        for Csel in ((1.0, 0.0), (0.0, 1.0)):
            rp = radial.RadialParams(0.5, 0.5, Csel[0], Csel[1], l, l)
            a = radial.argument_scale(rp.kappa, rp.kappa_dot)
            nu = l + one if Csel[0] else -(l + one)
            sgn = 1.0 if Csel[0] else -1.0
            zfit = 1.3
            basis = sgn * zfit * specfun.bessel_j_half(nu, a * zfit)
            coef = radial.f4_from_f1(rp, radial.RadialPoint(zfit), a) / basis
            for z in np.linspace(0.7, 15.0, 20):
                z = float(z)
                lhs = radial.f4_from_f1(rp, radial.RadialPoint(z), a)
                rhs = coef * sgn * z * specfun.bessel_j_half(nu, a * z)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    checks.append(("bessel_recurrence_structure", worst, 1e-10))

    return _assemble("radial", checks, 1e-8, tol, t0, details={"resolve_scale": scale_detail})


# ---------------------------------------------------------------- assembly

def _random_config(rng):
    # l = 1/2 is the only admissible radial order here: the Lorentz factor
    # needs both M^{+1/2}_l and M^{-1/2}_l, and for half-integer l > 1/2 the
    # pair (l, -1/2) hits a denominator pole in the defining sum.
    l = HalfInt(1)
    k = math.sqrt(float(rng.choice([0.25, 1.0, 4.0])))
    rp = radial.RadialParams(
        kappa=k,
        kappa_dot=k,
        C1=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        C2=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        l=l,
        l_dot=l,
    )
    p = dirac.FourMomentum.on_shell(*rng.uniform(-1.0, 1.0, size=3), float(rng.uniform(0.5, 2.0)))
    return assembly.SpinConfig(
        p=p,
        r=int(rng.integers(1, 3)),
        rp=rp,
        radius=float(rng.uniform(0.5, 3.0)),
        sign_pair="+-" if rng.integers(0, 2) else "-+",
    )


def _random_point(rng):
    ang = hypersph.EulerAngles(
        phi=float(rng.uniform(-3, 3)),
        eps=float(rng.uniform(-1, 1)),
        theta=float(rng.uniform(0.2, 2.9)),
        tau=float(rng.uniform(0.2, 4.0)),
    )
    return assembly.GroupPoint(tuple(rng.uniform(-2.0, 2.0, size=4)), ang)


def verify_assembly(tol: float | None = None) -> RunReport:
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    checks = []

    worst_fact = worst_sign = worst_xinv = 0.0
    for _ in range(1000):
        cfg = _random_config(rng)
        gp = _random_point(rng)
        b = assembly.bispinor(cfg, gp).as_tuple()
        t = assembly.translation_factor(cfg, gp)
        lo = assembly.lorentz_factor(cfg, gp.ang)
        for i in range(4):
            prod = t[i] * lo[i]
            worst_fact = max(worst_fact, abs(b[i] - prod) / max(abs(prod), 1e-300))

        flipped = assembly.SpinConfig(
            cfg.p, cfg.r, cfg.rp, cfg.radius, "-+" if cfg.sign_pair == "+-" else "+-"
        )
        bf = assembly.bispinor(flipped, gp).as_tuple()
        for got, want in zip(bf, (b[0], -b[1], -b[2], b[3])):
            worst_sign = max(worst_sign, abs(got - want) / max(abs(want), 1e-300))

        gp2 = assembly.GroupPoint(tuple(rng.uniform(-2.0, 2.0, size=4)), gp.ang)
        b2 = assembly.bispinor(cfg, gp2).as_tuple()
        for i in range(4):
            worst_xinv = max(worst_xinv, abs(abs(b2[i]) - abs(b[i])) / max(abs(b[i]), 1e-300))
    checks.append(("factorization", worst_fact, 1e-14))
    checks.append(("sign_pair_flip", worst_sign, 1e-14))
    checks.append(("translation_pure_phase", worst_xinv, 1e-13))

    return _assemble("assembly", checks, 1e-14, tol, t0)


# ---------------------------------------------------------------- driver

_SUITE_FUNCS = {
    "gamma": verify_gamma,
    "dirac": verify_dirac,
    "bessel": verify_bessel,
    "hyp2f1": verify_hyp2f1,
    "radial": verify_radial,
    "hypersph": verify_hypersph,
    "assembly": verify_assembly,
}


def run_suite(name: str, tol: float | None = None) -> RunReport:
    """Run one suite, or all of them.  ``tol``, when given, replaces every
    check's tolerance; it must be finite and non-negative."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tolerance must be finite and non-negative, got {tol}")
    if name == "all":
        t0 = time.perf_counter()
        reports = [fn(tol) for fn in _SUITE_FUNCS.values()]
        ratio = 0.0
        for r in reports:
            if r.tolerance == 0.0:
                ratio = max(ratio, math.inf if r.max_residual > 0 else 0.0)
            else:
                ratio = max(ratio, r.max_residual / r.tolerance)
        return RunReport(
            suite="all",
            cases=sum(r.cases for r in reports),
            max_residual=ratio,
            tolerance=1.0,
            passed=all(r.passed for r in reports),
            elapsed=time.perf_counter() - t0,
            details={
                r.suite: {
                    "max_residual": float(r.max_residual),
                    "tolerance": float(r.tolerance),
                    "passed": r.passed,
                }
                for r in reports
            },
        )
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCS[name](tol)
