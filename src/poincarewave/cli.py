"""Command-line front end.

Subcommands: ``spinor`` (plane-wave amplitudes), ``hypersph`` (associated
hyperspherical functions over grids), ``wavefunction`` (assembled bispinor
over grids) and ``verify`` (property suites with JSON reports).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
JSON serializes every complex value as {"re": ..., "im": ...}; CSV uses
17-significant-digit decimals so emitted values round-trip exactly.  One
writer, ``_emit``, serves every command: each axis value is rendered to
text once (a streamed axis value when the rows reach it, a tabled one once
per command), each modulus once per row, and each row is that text plus
one format of its re and im parts.  The text is byte-identical to
``json.dumps(doc, indent=2)`` or to ``format(v, ".17g")`` per cell.  The
parser is built once per process, on the first ``main`` call, not at import.

The CLI runs on the standard library, and imports only what a command
uses.  ``json`` is loaded only for JSON output (``--format json``) and by
``verify``; ``verify``, the one module that imports numpy, is loaded only by
the ``verify`` command and by ``spinor``'s JSON output for its residual norm.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import itertools
import math
import sys

from . import assembly, dirac, hypersph, radial
from .errors import DomainError, OrderNotEvaluable
from .halfint import HalfInt


def _c(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def _axes(specs: list[str]) -> list:
    """Parse each 'value' or 'lo:hi:n' spec into an axis of finite floats:
    a list of the one value, or an ``assembly.Linspace`` of n points, which
    computes each value when it is read and so takes constant memory.

    The grid the axes span is checked against ``assembly.GRID_SIZE_CAP``
    from the parsed point counts, before any value is read, so a count
    past the index size is refused by the cap too.  An axis that
    overflows, such as a span past the double range, has a value that is
    not finite and is refused; the values of a Linspace lie between its
    ends, so the ends decide.
    """
    axes = []
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
        if n is None:
            axes.append((spec, [lo], 1))
        else:
            axes.append((spec, assembly.Linspace(lo, hi, n), n))
    assembly.check_grid_size(n for _, _, n in axes)
    for spec, axis, _ in axes:
        if not (math.isfinite(axis[0]) and math.isfinite(axis[-1])):
            raise DomainError(f"grid axis {spec!r} has a non-finite value")
    return [axis for _, axis, _ in axes]


def _output(path: str | None):
    """``path`` opened for writing, or stdout when no --out is given."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# The text of one value: CSV prints format(v, ".17g"), and JSON what
# json.dumps prints for a finite float, an np.float64 among them, or an int.
_RENDER = {"csv": "%.17g".__mod__, "json": str}


def _emit(doc: dict, fmt: str, out_path: str | None, fields, axes: list,
          streamed: int = 0, moduli: bool = False) -> None:
    """Write ``doc`` to ``out_path``, or to stdout, one row at a time.

    The rows are the points of the grid ``product(*axes)``, the first axis
    slowest, and ``doc["rows"]`` gives, in the same order, each point's
    values: a tuple of numbers, each written as its re and im, and when
    ``moduli`` its modulus after them twice (the abs and abs_factors
    columns).  ``fields`` names every cell.  JSON writes the whole
    document, CSV only its rows.

    Each axis value and modulus is rendered once: a value of the first
    ``streamed`` axes when the rows reach it, a value of the others once
    per command.  A row is one ``%`` format of a template made once per
    command, with that text in its slots and re and im formatted by it.
    """
    render = _RENDER[fmt]
    number = "%.17g" if fmt == "csv" else "%s"  # how the template prints re and im
    parts = [number, number, "%s", "%s"] if moduli else [number, number]
    slots = ["%s"] * len(axes) + parts * ((len(fields) - len(axes)) // len(parts))
    if fmt == "csv":
        head, first, end = ",".join(fields) + "\n", ",".join(slots) + "\n", ""
        rest = first
    else:
        import json

        # The text of json.dumps(doc, indent=2): its head and tail come
        # from a one-row placeholder, and each row is set out as the
        # indented encoder sets out a dict two levels deep
        text = json.dumps({**doc, "rows": [None]}, indent=2) + "\n"
        head, _, tail = text.partition("null\n  ]")
        first = "{\n" + ",\n".join(f"      {json.dumps(f)}: {slot}"
                                    for f, slot in zip(fields, slots)) + "\n    }"
        rest, end = ",\n    " + first, "\n  ]" + tail

    tables = [list(map(render, axis)) for axis in axes[streamed:]]
    keys = ((*outer, *inner) for outer in assembly._product(axes[:streamed], render)
            for inner in itertools.product(*tables))
    with _output(out_path) as fh:
        fh.write(head)
        line = first
        for key, values in zip(keys, doc["rows"]):
            cells = [*key]
            for v in values:
                if moduli:
                    a = render(abs(v))
                    cells += (v.real, v.imag, a, a)
                else:
                    cells += (v.real, v.imag)
            fh.write(line % tuple(cells))
            line = rest
        fh.write(end)


def _complex_flag(s: str) -> complex:
    """Parse 're,im' or a bare real into a finite complex."""
    try:
        re, im = s.split(",") if "," in s else (s, "0")
        v = complex(float(re), float(im))
    except ValueError:
        raise DomainError(f"complex value {s!r} is neither 're,im' nor a real number") from None
    if not cmath.isfinite(v):
        raise DomainError(f"complex value {s!r} is non-finite")
    return v


# ---------------------------------------------------------------- spinor

def cmd_spinor(args) -> int:
    if args.off_shell:
        if args.E is None:
            raise DomainError("--off-shell requires an explicit --E")
        p = dirac.FourMomentum.off_shell(args.E, args.px, args.py, args.pz, args.m)
    elif args.E is not None:  # an E off the shell raises OffShellError
        p = dirac.FourMomentum(args.E, args.px, args.py, args.pz, args.m)
    else:
        p = dirac.FourMomentum.on_shell(args.px, args.py, args.pz, args.m)
    amp = dirac._components(args.kind, args.r, p)
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
        "rows": [(v,) for v in amp],
    }
    if args.format == "json":  # CSV writes the rows alone, so only JSON loads verify
        from . import verify

        doc["residual_norm"] = verify.spinor_residual_norm(args.kind, args.r, p)
    _emit(doc, args.format, args.out, ("component", "re", "im"), [range(1, len(amp) + 1)])
    return 0


# ---------------------------------------------------------------- hypersph

def cmd_hypersph(args) -> int:
    idx = hypersph.HypersphIndex(HalfInt.from_value(args.l), HalfInt.from_value(args.m))
    axes = thetas, taus, phis, epss = _axes([args.theta, args.tau, args.phi, args.eps])
    # m_assoc is phase(phi, eps) * Z(theta, tau): the kernel over the
    # (theta, tau) sub-grid in one z_table call, streamed in row order over
    # a table of the phase at each (phi, eps) point.  The index and the
    # (theta, tau) domain are checked first, as z_table checks them; then
    # the phase table, of n_phi n_eps points, is built before the kernel
    # table, of n_theta n_tau, so a phase overflow costs no kernel work
    hypersph.check_domain(thetas, taus, (idx,))
    phases = [(hypersph.phase(idx.m, hypersph.EulerAngles(*pe), args.dotted),)
              for pe in itertools.product(phis, epss)]
    zs, = hypersph.z_table((idx,), thetas, taus)
    doc = {
        "command": "hypersph",
        "inputs": {"l": str(idx.l), "m": str(idx.m), "dotted": bool(args.dotted)},
        "rows": assembly.sweep(zip(zs), phases, [max(map(abs, zs))]),
    }
    _emit(doc, args.format, args.out, ("theta", "tau", "phi", "eps", "re", "im"), axes, streamed=2)
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
    try:
        cfg = assembly.SpinConfig(
            p=dirac.FourMomentum.on_shell(args.px, args.py, args.pz, args.m),
            r=args.r,
            rp=rp,
            radius=args.radius,
            sign_pair=args.sign_pair,
        )
    except OrderNotEvaluable as exc:
        raise DomainError(f"--{exc.name.replace('_', '-')}: {exc}") from None
    axes = _axes([getattr(args, name) for name in assembly.GRID_AXES])
    doc = {
        "command": "wavefunction",
        "inputs": {
            "r": args.r, "l": str(rp.l), "l_dot": str(rp.l_dot),
            "kappa": _c(rp.kappa), "kappa_dot": _c(rp.kappa_dot),
            "C1": _c(rp.C1), "C2": _c(rp.C2),
            "radius": cfg.radius, "sign_pair": cfg.sign_pair,
            "px": cfg.p.px, "py": cfg.p.py, "pz": cfg.p.pz, "m": cfg.p.m,
        },
        "rows": assembly.grid_rows(cfg, dict(zip(assembly.GRID_AXES, axes))),
    }
    # the x axes are the streamed factor of the grid, the angles its table
    _emit(doc, args.format, args.out, _WAVEFUNCTION_FIELDS, axes, streamed=4, moduli=True)
    return 0


# each component is formed as t_i * L_i, the product of the two factors, so
# its modulus is also the abs_factors column bitwise
_WAVEFUNCTION_FIELDS = (
    *assembly.GRID_AXES,
    *(f"{name}_{part}" for name in ("psi1", "psi2", "psi1_dot", "psi2_dot")
      for part in ("re", "im", "abs", "abs_factors")),
)


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    import json

    from . import verify

    # --suite and --tol are checked and --out opened before any suite
    # runs, so each fails at once, and a bad --suite or --tol leaves no file
    verify.check_arguments(args.suite, args.tol)
    with _output(args.out) as fh:
        report = verify.run_suite(args.suite, tol=args.tol)
        doc = {"command": "verify", "inputs": {"suite": args.suite, "tol": args.tol},
               "report": report.to_dict()}
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it; a
    parse keeps no state on it."""
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
    vf.add_argument("--suite", required=True, help="a suite name, or 'all'")
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
