"""Inputs and passes of the four benchmark workloads.

A *pass* is one unit of timed work: one CLI command on the ``wf-*`` and
``verify-all`` workloads, one round of library calls on ``kernel-tail``.
Pass ``i`` of a run draws its inputs from ``(workload, seed, i)`` alone, so
the same seed gives the same inputs, and every pass of a run gets new
angles or coordinates (a cache that lives across calls cannot carry one
pass's work into the next).  The seeds move angles only inside narrow
windows, and the other inputs only where the cost of an evaluation does
not depend on them, so the cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import numpy as np

from poincarewave import cli, hypersph
from poincarewave.halfint import HalfInt

# Axis order the CLI sweeps in (first axis slowest).
WF_AXES = ("x1", "x2", "x3", "x4", "phi", "eps", "theta", "tau")

# Points per axis: wf-angles sweeps a theta x tau grid, wf-spacetime an
# x1 x x2 x x3 x x4 grid.  A timed pass is a command of 25 rows (~45 ms on
# a 2.1 GHz Xeon) or 256 rows (~0.2 s), so a run makes dozens to hundreds.
# On wf-spacetime, 256 rows keep the per-row work nine tenths of a command
# even once the Lorentz factor is evaluated once per command (see
# hoist_share.py).  The memory pass is one large command (900 and 1296
# rows), so memory that grows with the output shows.
GRID_N = {"wf-angles": 5, "wf-spacetime": 4}
MEMORY_GRID_N = {"wf-angles": 30, "wf-spacetime": 6}


def _rng(workload: str, seed: int, i: int | None = None) -> random.Random:
    return random.Random(f"{workload}:{seed}:{'cfg' if i is None else i}")


def _num(v: float) -> str:
    return repr(float(v))


@dataclass
class CliPass:
    """One CLI command and what its output must look like."""

    argv: list[str]
    fmt: str  # "csv", "json" or "report"
    config: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)  # swept axis -> values, CLI order
    scalars: dict = field(default_factory=dict)  # fixed axis -> value


def _wf_config(workload: str, seed: int) -> dict:
    """Spin configuration shared by every pass of a run.

    l = 1/2 is the only order whose Lorentz factor is evaluable.  C1 and
    C2 are both non-zero so the radial layer always evaluates both Bessel
    branches; a*radius stays >= 0.5, away from the small-argument regime
    where the upward Bessel recurrence loses accuracy.
    """
    r = _rng(workload, seed)
    cfg = {
        "m": r.uniform(0.8, 1.5),
        "px": r.uniform(-0.8, 0.8),
        "py": r.uniform(-0.8, 0.8),
        "pz": r.uniform(-0.8, 0.8),
        "r": r.choice([1, 2]),
        "l2": 1,
        "kappa": r.uniform(0.4, 1.2),
        "kappa_dot": r.uniform(0.4, 1.2),
        "c1": complex(r.uniform(0.2, 1.0), r.uniform(-1.0, 1.0)),
        "c2": complex(r.uniform(0.2, 1.0), r.uniform(-1.0, 1.0)),
        "radius": r.uniform(0.8, 2.0),
        "sign_pair": r.choice(["+-", "-+"]),
    }
    return cfg


def _wf_argv(cfg: dict, fmt: str) -> list[str]:
    # "--flag=value": argparse would read a value such as "-1.5:0.5:5" or
    # "-+" as an option of its own.
    opts = {
        "m": _num(cfg["m"]), "px": _num(cfg["px"]), "py": _num(cfg["py"]),
        "pz": _num(cfg["pz"]), "r": str(cfg["r"]), "l": "1/2",
        "kappa": _num(cfg["kappa"]), "kappa-dot": _num(cfg["kappa_dot"]),
        "c1": f"{_num(cfg['c1'].real)},{_num(cfg['c1'].imag)}",
        "c2": f"{_num(cfg['c2'].real)},{_num(cfg['c2'].imag)}",
        "radius": _num(cfg["radius"]), "sign-pair": cfg["sign_pair"], "format": fmt,
    }
    return ["wavefunction"] + [f"--{k}={v}" for k, v in opts.items()]


def _grid(lo: float, hi: float, n: int) -> tuple[str, list[float]]:
    return f"{_num(lo)}:{_num(hi)}:{n}", [float(v) for v in np.linspace(lo, hi, n)]


def wf_pass(workload: str, seed: int, i: int, n: int) -> CliPass:
    """Pass ``i`` of a run, with ``n`` points on each swept axis."""
    cfg = _wf_config(workload, seed)
    r = _rng(workload, seed, i)
    specs: dict[str, str] = {}
    axes: dict[str, list[float]] = {}
    scalars: dict[str, float] = {}
    if workload == "wf-angles":
        # Every row has new angles; x is fixed.  The grid is shifted by less
        # than a step per pass, so its cost stays flat.
        dth, dta = r.uniform(0.0, 0.01), r.uniform(0.0, 0.01)
        specs["theta"], axes["theta"] = _grid(0.15 + dth, 2.95 + dth, n)
        specs["tau"], axes["tau"] = _grid(0.1 + dta, 3.9 + dta, n)
        for name in ("x1", "x2", "x3", "x4"):
            scalars[name] = r.uniform(-2.0, 2.0)
        scalars["phi"] = r.uniform(-3.0, 3.0)
        scalars["eps"] = r.uniform(-1.0, 1.0)
        fmt = "csv"
    elif workload == "wf-spacetime":
        # Fixed angles, so the Lorentz factor is the same on every row.
        for name in ("x1", "x2", "x3", "x4"):
            lo = r.uniform(-2.0, -1.0)
            specs[name], axes[name] = _grid(lo, lo + r.uniform(2.0, 3.0), n)
        scalars["phi"] = r.uniform(-3.0, 3.0)
        scalars["eps"] = r.uniform(-1.0, 1.0)
        scalars["theta"] = 1.1 + r.uniform(-0.01, 0.01)
        scalars["tau"] = 1.25 + r.uniform(-0.01, 0.01)
        fmt = "json"
    else:
        raise ValueError(workload)
    argv = _wf_argv(cfg, fmt)
    for name in WF_AXES:
        argv.append(f"--{name}={specs[name] if name in specs else _num(scalars[name])}")
    ordered = {name: axes[name] for name in WF_AXES if name in axes}
    return CliPass(argv, fmt, cfg, ordered, scalars)


def verify_pass() -> CliPass:
    """`verify --suite all`; its inputs are fixed by the suites themselves."""
    return CliPass(["verify", "--suite", "all"], "report")


def cli_pass(workload: str, seed: int, i: int) -> CliPass:
    if workload == "verify-all":
        return verify_pass()
    return wf_pass(workload, seed, i, GRID_N[workload])


def memory_pass(workload: str, seed: int) -> CliPass:
    if workload == "verify-all":
        return verify_pass()
    return wf_pass(workload, seed, -1, MEMORY_GRID_N[workload])


# ---------------------------------------------------------------- CLI passes

class RowRecorder(io.TextIOBase):
    """Stand-in for stdout that writes through to a file and notes when the
    first output row (or, for a verify report, the first byte) arrives."""

    def __init__(self, path: str, fmt: str):
        self._fh = open(path, "w")
        self._fmt = fmt
        self._head = ""
        self.first_row_ns: int | None = None

    def _has_row(self) -> bool:
        if self._fmt == "csv":
            return self._head.count("\n") >= 2
        if self._fmt == "json":
            at = self._head.find('"rows"')
            return at >= 0 and self._head.find("}", at) >= 0
        return len(self._head) > 0

    def write(self, s: str) -> int:
        self._fh.write(s)
        if self.first_row_ns is None:
            self._head += s
            if self._has_row():
                self.first_row_ns = time.perf_counter_ns()
                self._head = ""
        return len(s)

    def close(self) -> None:
        self._fh.close()
        super().close()


@dataclass
class CliResult:
    rc: int
    wall_s: float
    first_row_s: float | None


def run_cli(p: CliPass, out_path: str, main=None) -> CliResult:
    """Run one command in process, stdout written through to ``out_path``.

    ``main`` replaces ``cli.main`` (the traced run passes a wrapped one).
    """
    main = main or cli.main
    rec = RowRecorder(out_path, p.fmt)
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(rec):
            rc = main(list(p.argv))
        t1 = time.perf_counter_ns()
    finally:
        rec.close()
    first = None if rec.first_row_ns is None else (rec.first_row_ns - t0) / 1e9
    return CliResult(rc, (t1 - t0) / 1e9, first)


# ---------------------------------------------------------------- kernel-tail

@dataclass(frozen=True)
class KernelPoint:
    dotted: bool
    l2: int  # twice l
    m2: int  # twice m
    theta: float
    tau: float
    phi: float
    eps: float
    expect_fail: bool = False


# The fault the workload keeps: at these points the non-terminating 2F1
# series has an argument so close to 1 that it runs to SERIES_TERM_CAP and
# raises TermCapExceeded, every time.  They do not depend on the seed.
FAILING_POINTS = (
    KernelPoint(False, 1, 1, 3.137, 13.5, 0.4, 0.1, True),
    KernelPoint(True, 1, -1, 3.138, 14.0, -0.7, 0.2, True),
)

_L_HALF_COMBOS = ((False, 1), (False, -1), (True, 1), (True, -1))
# Every point sits in a window of +-JITTER around a fixed centre, narrow
# enough that its cost does not depend on the seed.
JITTER = 0.01
# Cheap l = 1/2 points, run back to back: the latency of one call,
# first_row_s on this workload, is their mean.
CHEAP_POINTS = 128
_CHEAP_CENTRE = (1.05, 1.05)  # (theta, tau)
# (theta, tau) centres of the moderate l = 1/2 bulk of a sweep.
_BULK = ((0.3, 0.2), (0.5, 4.5), (0.7, 1.5), (0.9, 5.5), (1.1, 2.5), (1.3, 0.6),
         (1.5, 3.5), (1.7, 6.0), (1.9, 1.0), (2.1, 4.0), (2.3, 2.0), (2.5, 5.0),
         (2.6, 3.0), (2.7, 0.4), (2.8, 4.8))
_TAU_TAIL = ((0.6, 8.0), (1.0, 9.0), (1.4, 10.0), (1.7, 11.0), (2.0, 12.0))
# theta tail; theta is jittered by 1e-4 there, since the cost climbs steeply.
_THETA_TAIL = ((3.0, 0.6), (3.05, 1.2), (3.1, 1.8), (3.12, 2.4), (3.13, 3.0))
_L72_M2 = (-7, 5, 7)  # the evaluable m for l = 7/2
_L72 = ((0.4, 1.0), (1.1, 4.0), (1.8, 8.0), (2.5, 12.0))


def kernel_round(seed: int, i: int) -> list[KernelPoint]:
    """One round: 165 seeded points that evaluate, then the 2 fixed failing
    points.  Every round has the same make-up, so the failed share of a run
    is exactly 2/167 however many rounds it makes."""
    r = _rng("kernel-tail", seed, i)
    pts: list[KernelPoint] = []

    def point(dotted, l2, m2, theta, tau, dtheta=JITTER):
        pts.append(KernelPoint(dotted, l2, m2, theta + r.uniform(-dtheta, dtheta),
                               tau + r.uniform(-JITTER, JITTER),
                               r.uniform(-3.0, 3.0), r.uniform(-1.0, 1.0)))

    for _ in range(CHEAP_POINTS):
        point(False, 1, 1, *_CHEAP_CENTRE)
    # l = 1/2, moderate angles: the bulk of a sweep.
    for j, (theta, tau) in enumerate(_BULK):
        dotted, m2 = _L_HALF_COMBOS[j % 4]
        point(dotted, 1, m2, theta, tau)
    # l = 1/2, tau tail up to 12: the direct tanh^2 series dominates.
    for j, (theta, tau) in enumerate(_TAU_TAIL):
        dotted, m2 = _L_HALF_COMBOS[j % 4]
        point(dotted, 1, m2, theta, tau)
    # l = 1/2, m = +1/2, theta tail up to 3.13: the Pfaff series dominates.
    for j, (theta, tau) in enumerate(_THETA_TAIL):
        point(j % 2 == 1, 1, 1, theta, tau, dtheta=1e-4)
    # l = 7/2, every evaluable m, away from theta -> pi: terminating series
    # but for one k-term of m = 7/2, which converges fast there.
    for m2 in _L72_M2:
        for j, (theta, tau) in enumerate(_L72):
            point(j % 2 == 1, 7, m2, theta, tau)
    return pts + list(FAILING_POINTS)


@dataclass
class PointResult:
    value: complex | None  # None when the call raised
    error: str | None
    elapsed_s: float


def eval_point(pt: KernelPoint) -> PointResult:
    """Evaluate one point through the library's public entry points."""
    fn = hypersph.m_assoc_dotted if pt.dotted else hypersph.m_assoc
    idx = hypersph.HypersphIndex(HalfInt(pt.l2), HalfInt(pt.m2))
    ang = hypersph.EulerAngles(phi=pt.phi, eps=pt.eps, theta=pt.theta, tau=pt.tau)
    t0 = time.perf_counter_ns()
    try:
        val = fn(idx, ang)
    except (ArithmeticError, ValueError) as exc:
        return PointResult(None, type(exc).__name__, (time.perf_counter_ns() - t0) / 1e9)
    return PointResult(complex(val), None, (time.perf_counter_ns() - t0) / 1e9)


def dump_values(results: list[PointResult]) -> str:
    """Exact text form of a round's values, for cross-process comparison."""
    return json.dumps([
        None if res.value is None else [res.value.real.hex(), res.value.imag.hex()]
        for res in results
    ])
