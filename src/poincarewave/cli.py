"""Command-line front end.

Subcommands: ``spinor`` (plane-wave amplitudes), ``hypersph`` (associated
hyperspherical functions over grids), ``wavefunction`` (assembled bispinor
over grids) and ``verify`` (property suites with JSON reports).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
JSON serializes every complex value as {"re": ..., "im": ...}; CSV uses
17-significant-digit decimals so emitted values round-trip exactly.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import sys

import numpy as np

from . import assembly, dirac, hypersph, radial, verify
from .errors import DomainError, SizeCapExceeded
from .halfint import HalfInt


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _c(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def _axes(specs: list[str]) -> list[list[float]]:
    """Parse each 'value' or 'lo:hi:n' spec into a list of finite floats.

    The grid the axes span is checked against ``assembly.GRID_SIZE_CAP``
    before any axis is built.
    """
    parsed = []
    total = 1
    for spec in specs:
        try:
            if ":" in spec:
                lo, hi, n = spec.split(":")
                lo, hi, n = float(lo), float(hi), int(n)
            else:
                lo, hi, n = float(spec), None, None
        except ValueError:
            raise DomainError(
                f"grid axis {spec!r} is neither 'value' nor 'lo:hi:n' with an integer n"
            ) from None
        if n is not None:
            if n < 1:
                raise DomainError(f"grid axis needs at least one point, got {n}")
            total *= n
        parsed.append((spec, lo, hi, n))
    if total > assembly.GRID_SIZE_CAP:
        raise SizeCapExceeded(f"grid of {total} points exceeds cap {assembly.GRID_SIZE_CAP}")
    out = []
    for spec, lo, hi, n in parsed:
        # np.linspace prints RuntimeWarnings for a span that is not finite,
        # so such a span is refused before it runs
        if n is not None and not math.isfinite(hi - lo):
            raise DomainError(f"grid axis {spec!r} has a non-finite value")
        values = [lo] if n is None else [float(v) for v in np.linspace(lo, hi, n)]
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"grid axis {spec!r} has a non-finite value")
        out.append(values)
    return out


def _emit(doc: dict, fmt: str, out_path: str | None, fields=()) -> None:
    """Write ``doc`` to ``out_path``, or to stdout, one row at a time.

    ``doc["rows"]``, when present, is an iterable of tuples of numbers in
    ``fields`` order.  JSON writes the whole document, CSV only its rows.
    """
    rows = doc.get("rows")
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        if rows is None:
            fh.write(json.dumps(doc, indent=2) + "\n")
        elif fmt == "csv":
            fh.write(",".join(fields) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        else:
            # The text of json.dumps(doc, indent=2): its head and tail come
            # from a one-row placeholder, each row's numbers from json.dumps
            # of the row, set out as the indented encoder sets out a dict
            # two levels deep.
            text = json.dumps({**doc, "rows": [None]}, indent=2) + "\n"
            head, _, tail = text.partition("null\n  ]")
            item = "{\n" + ",\n".join(f"      {json.dumps(f)}: %s" for f in fields) + "\n    }"
            fh.write(head)
            sep = ""
            for row in rows:
                fh.write(sep + item % tuple(json.dumps(row)[1:-1].split(", ")))
                sep = ",\n    "
            fh.write("\n  ]" + tail)


def _complex_flag(s: str) -> complex:
    """Parse 're,im' or a bare real into a finite complex."""
    if "," in s:
        re, im = s.split(",")
        v = complex(float(re), float(im))
    else:
        v = complex(float(s))
    if not cmath.isfinite(v):
        raise DomainError(f"complex value {s!r} is non-finite")
    return v


# ---------------------------------------------------------------- spinor

def cmd_spinor(args) -> int:
    if args.off_shell:
        if args.E is None:
            raise DomainError("--off-shell requires an explicit --E")
        p = dirac.FourMomentum.off_shell(args.E, args.px, args.py, args.pz, args.m)
    else:
        p = dirac.FourMomentum.on_shell(args.px, args.py, args.pz, args.m)
    amp = (dirac._u_components if args.kind == "u" else dirac._v_components)(args.r, p)
    kind_sign = "+" if args.kind == "u" else "-"
    # an off-shell residual of finite amplitudes can still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(dirac.dirac_residual(kind_sign, args.r, p, (0.0, 0.0, 0.0, 0.0))))
    if not math.isfinite(residual):
        raise OverflowError(f"the Dirac residual norm at E = {p.E} is not finite")
    doc = {
        "command": "spinor",
        "inputs": {
            "kind": args.kind,
            "r": args.r,
            "E": p.E,
            "px": p.px,
            "py": p.py,
            "pz": p.pz,
            "m": p.m,
        },
        "rows": [(i + 1, float(amp[i].real), float(amp[i].imag)) for i in range(4)],
        "residual_norm": residual,
    }
    _emit(doc, args.format, args.out, fields=("component", "re", "im"))
    return 0


# ---------------------------------------------------------------- hypersph

def cmd_hypersph(args) -> int:
    idx = hypersph.HypersphIndex(HalfInt.from_value(args.l), HalfInt.from_value(args.m))
    fields = ("theta", "tau", "phi", "eps")
    axes = dict(zip(fields, _axes([args.theta, args.tau, args.phi, args.eps])))
    # m_assoc is phase(phi, eps) * Z(theta, tau): the kernel once per
    # (theta, tau) point, the phase once per (phi, eps) point
    rows = assembly.sweep(
        axes,
        ("theta", "tau"),
        lambda theta, tau: ((theta, tau), (hypersph.z_assoc(idx, theta, tau),)),
        lambda phi, eps: ((phi, eps), (hypersph.phase(
            idx.m, hypersph.EulerAngles(phi=phi, eps=eps), args.dotted),)),
    )
    doc = {
        "command": "hypersph",
        "inputs": {"l": str(idx.l), "m": str(idx.m), "dotted": bool(args.dotted)},
        "rows": ((*zk, *pk, v.real, v.imag) for zk, pk, (v,) in rows),
    }
    _emit(doc, args.format, args.out, fields=(*fields, "re", "im"))
    return 0


# ---------------------------------------------------------------- wavefunction

def cmd_wavefunction(args) -> int:
    l = HalfInt.from_value(args.l)
    rp = radial.RadialParams(
        kappa=_complex_flag(args.kappa),
        kappa_dot=_complex_flag(args.kappa_dot),
        C1=_complex_flag(args.c1),
        C2=_complex_flag(args.c2),
        l=l,
        l_dot=HalfInt.from_value(args.l_dot) if args.l_dot else l,
    )
    cfg = assembly.SpinConfig(
        p=dirac.FourMomentum.on_shell(args.px, args.py, args.pz, args.m),
        r=args.r,
        rp=rp,
        radius=args.radius,
        sign_pair=args.sign_pair,
    )
    specs = [getattr(args, name) for name in assembly.GRID_AXES]
    values = dict(zip(assembly.GRID_AXES, _axes(specs)))
    # GRID_AXES is x1..x4 then the angles in EulerAngles field order; an
    # axis of one value is fixed in the base point, the grid sweeps the rest
    first = [vals[0] for vals in values.values()]
    base = assembly.GroupPoint(tuple(first[:4]), hypersph.EulerAngles(*first[4:]))
    axes = {name: vals for name, vals in values.items() if len(vals) > 1}
    rows = assembly.grid_rows(cfg, base, axes)
    doc = {
        "command": "wavefunction",
        "inputs": {
            "r": args.r, "l": str(rp.l), "l_dot": str(rp.l_dot),
            "kappa": _c(rp.kappa), "kappa_dot": _c(rp.kappa_dot),
            "C1": _c(rp.C1), "C2": _c(rp.C2),
            "radius": cfg.radius, "sign_pair": cfg.sign_pair,
            "px": cfg.p.px, "py": cfg.p.py, "pz": cfg.p.pz, "m": cfg.p.m,
        },
        "rows": (_wavefunction_row(x, ang, psi) for x, ang, psi in rows),
    }
    _emit(doc, args.format, args.out, fields=_WAVEFUNCTION_FIELDS)
    return 0


_WAVEFUNCTION_FIELDS = (
    *assembly.GRID_AXES,
    *(f"{name}_{part}" for name in ("psi1", "psi2", "psi1_dot", "psi2_dot")
      for part in ("re", "im", "abs", "abs_factors")),
)


def _wavefunction_row(x, ang: hypersph.EulerAngles, psi) -> tuple:
    cells = [*x, ang.phi, ang.eps, ang.theta, ang.tau]
    for v in psi:
        # each component is formed as t_i * L_i, the product of the two
        # factors, so its modulus is also the abs_factors column bitwise
        a = abs(v)
        cells += (v.real, v.imag, a, a)
    return tuple(cells)


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, tol=args.tol)
    # elapsed is wall-clock noise; dropping it keeps repeated runs
    # byte-identical, which downstream tooling relies on
    rd = report.to_dict()
    del rd["elapsed"]
    doc = {"command": "verify", "inputs": {"suite": args.suite, "tol": args.tol},
           "report": rd}
    _emit(doc, "json", args.out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="poincarewave")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spinor", help="plane-wave Dirac amplitudes")
    sp.add_argument("--kind", choices=["u", "v"], required=True)
    sp.add_argument("--r", type=int, choices=[1, 2], required=True)
    sp.add_argument("--px", type=float, default=0.0)
    sp.add_argument("--py", type=float, default=0.0)
    sp.add_argument("--pz", type=float, default=0.0)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--E", type=float, default=None)
    sp.add_argument("--off-shell", action="store_true")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_spinor)

    hp = sub.add_parser("hypersph", help="associated hyperspherical functions")
    hp.add_argument("--l", required=True)
    hp.add_argument("--m", required=True)
    hp.add_argument("--theta", default="1.5707963267948966")
    hp.add_argument("--tau", default="1.0")
    hp.add_argument("--phi", default="0.0")
    hp.add_argument("--eps", default="0.0")
    hp.add_argument("--dotted", action="store_true")
    hp.add_argument("--format", choices=["json", "csv"], default="json")
    hp.add_argument("--out", default=None)
    hp.set_defaults(func=cmd_hypersph)

    wf = sub.add_parser("wavefunction", help="assembled bispinor over grids")
    wf.add_argument("--px", type=float, default=0.0)
    wf.add_argument("--py", type=float, default=0.0)
    wf.add_argument("--pz", type=float, default=0.0)
    wf.add_argument("--m", type=float, required=True)
    wf.add_argument("--r", type=int, choices=[1, 2], default=1)
    wf.add_argument("--l", required=True)
    wf.add_argument("--l-dot", dest="l_dot", default=None)
    wf.add_argument("--kappa", required=True)
    wf.add_argument("--kappa-dot", dest="kappa_dot", required=True)
    wf.add_argument("--c1", default="1")
    wf.add_argument("--c2", default="0")
    wf.add_argument("--radius", type=float, default=1.0)
    wf.add_argument("--sign-pair", dest="sign_pair", choices=["+-", "-+"], default="+-")
    for name in assembly.GRID_AXES:
        wf.add_argument(f"--{name.replace('_', '-')}", dest=name,
                        default={"theta": "1.5707963267948966", "tau": "1.0"}.get(name, "0.0"))
    wf.add_argument("--threads", type=int, default=1)
    wf.add_argument("--format", choices=["json", "csv"], default="json")
    wf.add_argument("--out", default=None)
    wf.set_defaults(func=cmd_wavefunction)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", choices=list(verify.SUITES), required=True)
    vf.add_argument("--tol", type=float, default=None)
    vf.add_argument("--threads", type=int, default=1)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=cmd_verify)

    return ap


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join '--flag -value' into '--flag=-value'.

    argparse reads a token such as '-+', '-1.5:1:4' or '-0.3,0.1' as an
    option of its own.  No option here has a single-dash name except -h,
    so such a token right after a '--flag' is that flag's value.
    """
    out: list[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # DomainError, OffShellError and SizeCapExceeded are ValueErrors;
    # NonConvergent, TermCapExceeded and OverflowError are ArithmeticErrors;
    # an --out path that cannot be opened is an OSError
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
