"""Checks of the program's outputs, made apart from the program.

Every reference value is built here from mpmath (``besselj``, ``hyp2f1``,
elementary functions) and the formulas of the paper, not from the
package's own kernels or its verification oracles.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import random

import mpmath as mp

DPS = 30
REL_TOL = 1e-9  # sampled rows and kernel points against mpmath
PHASE_TOL = 1e-12  # psi(x)/psi(x0) against e^{-+ip.(x-x0)}
COORD_TOL = 1e-12  # row coordinates against the requested axes

COMPONENTS = ("psi1", "psi2", "psi1_dot", "psi2_dot")


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- references

def _f21(a, b, c, x):
    """2F1 at high precision; a terminating series (a or b a non-positive
    integer) is summed exactly up to its last term."""
    stop = [int(-p) for p in (a, b) if p <= 0 and p == int(p)]
    if stop:
        s, term = mp.mpf(1), mp.mpf(1)
        for j in range(min(stop)):
            term *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x
            s += term
        return s
    return mp.hyp2f1(a, b, c, x)


def z_kernel(l2: int, m2: int, theta: float, tau: float) -> mp.mpc:
    """Z^l_m(theta, tau) by its defining k-sum, with 2l = l2 and 2m = m2.

    For l = 1/2 the two non-terminating factors are replaced by their
    elementary forms 2F1(1,1;2;-t^2) = log(1+t^2)/t^2 and
    2F1(1/2,1;3/2;tanh^2(tau/2)) = (tau/2)/tanh(tau/2), which stay exact
    where the series converge slowly.
    """
    with mp.workdps(DPS):
        th, ta = mp.mpf(theta) / 2, mp.mpf(tau) / 2
        t, h = mp.tan(th), mp.tanh(ta)
        s = mp.mpc(0)
        for k2 in range(-l2, l2 + 1, 2):
            n = (m2 - k2) // 2
            a1 = mp.mpf(m2 - l2) / 2 + 1
            b = 1 - mp.mpf(l2 + k2) / 2
            c1 = mp.mpf(m2 - k2) / 2 + 1
            a2 = 1 - mp.mpf(l2) / 2
            c2 = 1 - mp.mpf(k2) / 2
            if l2 == 1 and (a1, b, c1) == (1, 1, 2):
                f_theta = mp.log(1 + t * t) / (t * t)
            else:
                f_theta = _f21(a1, b, c1, -t * t)
            if l2 == 1 and (a2, b, c2) == (mp.mpf(1) / 2, 1, mp.mpf(3) / 2):
                f_tau = ta / h
            else:
                f_tau = _f21(a2, b, c2, h * h)
            s += mp.mpc(0, 1) ** n * t**n * h ** (-mp.mpf(k2) / 2) * f_theta * f_tau
        return (mp.cos(th) * mp.cosh(ta)) ** l2 * s


def m_kernel(dotted: bool, l2: int, m2: int, theta, tau, phi, eps) -> mp.mpc:
    """M^l_m = e^{-m(eps + i phi)} Z, or e^{-m(eps - i phi)} Z when dotted."""
    with mp.workdps(DPS):
        sgn = -1 if dotted else 1
        m = mp.mpf(m2) / 2
        return mp.exp(-m * (mp.mpf(eps) + sgn * mp.mpc(0, 1) * mp.mpf(phi))) * z_kernel(
            l2, m2, theta, tau)


def _amplitudes(cfg: dict):
    """u_r and v_r of the spin-1/2 plane waves, on shell."""
    m = mp.mpf(cfg["m"])
    px, py, pz = (mp.mpf(cfg[k]) for k in ("px", "py", "pz"))
    E = mp.sqrt(m * m + px * px + py * py + pz * pz)
    n = mp.sqrt((E + m) / (2 * m))
    d = E + m
    pp, pm = mp.mpc(px, py), mp.mpc(px, -py)
    if cfg["r"] == 1:
        u = [n, 0, n * pz / d, n * pp / d]
        v = [n * pz / d, n * pp / d, n, 0]
    else:
        u = [0, n, n * pm / d, -n * pz / d]
        v = [n * pm / d, -n * pz / d, 0, n]
    return E, u, v


def _radial(cfg: dict):
    """f1 = C1 a z J_l(az) + C2 a z J_{-l}(az) and
    f4 = (a^2 / 2 kappa) z (C1 J_{l+1}(az) - C2 J_{-l-1}(az)),
    with a = 2 sqrt(kappa kappa_dot)."""
    k, kd = mp.mpf(cfg["kappa"]), mp.mpf(cfg["kappa_dot"])
    c1, c2 = mp.mpc(cfg["c1"]), mp.mpc(cfg["c2"])
    z = mp.mpf(cfg["radius"])
    l = mp.mpf(cfg["l2"]) / 2
    a = 2 * mp.sqrt(k * kd)
    az = a * z
    f1 = c1 * az * mp.besselj(l, az) + c2 * az * mp.besselj(-l, az)
    f4 = a * a / (2 * k) * z * (c1 * mp.besselj(l + 1, az) - c2 * mp.besselj(-l - 1, az))
    return f1, f4


def psi_reference(cfg: dict, row: dict) -> list[complex]:
    """psi = (u_r e^{-ip.x}, v_r e^{+ip.x}) rows times (f1 M, f4 Mdot)."""
    with mp.workdps(DPS):
        E, u, v = _amplitudes(cfg)
        x1, x2, x3, x4 = (mp.mpf(row[k]) for k in ("x1", "x2", "x3", "x4"))
        pdotx = E * x4 - mp.mpf(cfg["px"]) * x1 - mp.mpf(cfg["py"]) * x2 - mp.mpf(cfg["pz"]) * x3
        wu, wv = mp.exp(-1j * pdotx), mp.exp(1j * pdotx)
        f1, f4 = _radial(cfg)
        s = 1 if cfg["sign_pair"] == "+-" else -1
        l2 = cfg["l2"]
        ang = (row["theta"], row["tau"], row["phi"], row["eps"])
        return [complex(z) for z in (
            u[0] * wu * f1 * m_kernel(False, l2, 1, *ang),
            u[1] * wu * s * f1 * m_kernel(False, l2, -1, *ang),
            v[2] * wv * (-s) * f4 * m_kernel(True, l2, 1, *ang),
            v[3] * wv * f4 * m_kernel(True, l2, -1, *ang),
        )]


def _close(got: complex, ref: complex, scale: float, tol: float) -> bool:
    return abs(got - ref) <= tol * (abs(ref) if ref != 0 else scale)


# ---------------------------------------------------------------- wf checks

def parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        return [{k: float(v) for k, v in row.items()} for row in reader]
    doc = json.loads(text)
    _require(doc.get("command") == "wavefunction", "json output is not a wavefunction document")
    return doc["rows"]


def _psi(row: dict) -> list[complex]:
    return [complex(row[f"{c}_re"], row[f"{c}_im"]) for c in COMPONENTS]


def check_wf(p, text: str, sample_rng: random.Random, sample: int) -> int:
    """Check one wavefunction pass, ``sample`` of its rows against mpmath;
    return its row count."""
    rows = parse_rows(text, p.fmt)
    names = list(p.axes)
    expect = list(itertools.product(*(p.axes[n] for n in names)))
    _require(len(rows) == len(expect), f"{len(rows)} rows, expected {len(expect)}")
    for row, combo in zip(rows, expect):
        coords = dict(p.scalars, **dict(zip(names, combo)))
        for name, want in coords.items():
            _require(abs(row[name] - want) <= COORD_TOL * max(1.0, abs(want)),
                     f"row coordinate {name}={row[name]} out of grid order (want {want})")
        psi = _psi(row)
        for c, val in zip(COMPONENTS, psi):
            _require(math.isfinite(val.real) and math.isfinite(val.imag), f"non-finite {c}")
            _require(abs(row[f"{c}_abs"] - abs(val)) <= 1e-15 * abs(val) + 1e-300, f"{c}_abs")
            _require(abs(row[f"{c}_abs_factors"] - abs(val)) <= 1e-12 * abs(val) + 1e-300,
                     f"{c}_abs_factors")
    for row in sample_rng.sample(rows, min(sample, len(rows))):
        got, ref = _psi(row), psi_reference(p.config, row)
        scale = max(abs(r) for r in ref)
        for c, g, r in zip(COMPONENTS, got, ref):
            _require(_close(g, r, scale, REL_TOL),
                     f"{c} at {[row[n] for n in ('x1','x2','x3','x4','theta','tau')]}: {g} vs mpmath {r}")
    if p.fmt == "json":
        _check_translation_phase(p.config, rows)
    return len(rows)


def _check_translation_phase(cfg: dict, rows: list[dict]) -> None:
    """At fixed angles psi(x)/psi(x0) = e^{-ip.(x-x0)} on the u rows and
    e^{+ip.(x-x0)} on the v rows, whatever the Lorentz factor is."""
    with mp.workdps(DPS):
        E, _, _ = _amplitudes(cfg)
        p = (mp.mpf(cfg["px"]), mp.mpf(cfg["py"]), mp.mpf(cfg["pz"]))
        x0 = [mp.mpf(rows[0][k]) for k in ("x1", "x2", "x3", "x4")]
        psi0 = _psi(rows[0])
        for row in rows:
            dx = [mp.mpf(row[k]) - b for k, b in zip(("x1", "x2", "x3", "x4"), x0)]
            phase = E * dx[3] - p[0] * dx[0] - p[1] * dx[1] - p[2] * dx[2]
            want = (complex(mp.exp(-1j * phase)),) * 2 + (complex(mp.exp(1j * phase)),) * 2
            for c, g, g0, w in zip(COMPONENTS, _psi(row), psi0, want):
                if g0 == 0:
                    _require(g == 0, f"{c} vanishes at x0 but not at x")
                    continue
                _require(abs(g / g0 - w) <= PHASE_TOL, f"{c}: psi(x)/psi(x0) = {g / g0}, want {w}")


# ---------------------------------------------------------------- other checks

def check_point(pt, value: complex) -> None:
    ref = complex(m_kernel(pt.dotted, pt.l2, pt.m2, pt.theta, pt.tau, pt.phi, pt.eps))
    _require(cmath.isfinite(value), f"non-finite value at {pt}")
    _require(_close(value, ref, abs(ref), REL_TOL), f"{pt}: {value} vs mpmath {ref}")


def check_report(text: str) -> int:
    """A verify report: the suite passed; return its number of cases."""
    doc = json.loads(text)
    rep = doc["report"]
    _require(rep["passed"] is True, f"verify report did not pass: {rep.get('details')}")
    _require(rep["cases"] >= 1, "verify report has no cases")
    return int(rep["cases"])
