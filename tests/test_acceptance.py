"""Acceptance gate: one check per numbered criterion, printed pass/fail.

Criteria 1-8 exercise the library suites directly with their pinned
tolerances; criterion 9 drives the CLI in `src/` through subprocesses.
The whole gate must finish well under a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poincarewave import verify


def _report(line, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def _suite_ok(name, tolerance):
    r = verify.run_suite(name)
    ok = r.passed and r.tolerance == tolerance
    _report(
        f"criterion: suite '{name}' max_residual={r.max_residual:.3e} "
        f"tolerance={r.tolerance:g} cases={r.cases}",
        ok,
    )
    return r


def test_criterion_1_gamma_algebra_exact():
    r = _suite_ok("gamma", 0.0)
    assert r.max_residual == 0.0


def test_criterion_2_on_shell_spinor_identities():
    r = verify.run_suite("dirac")
    _report(
        f"criterion 2: shell identities and normalization at 1e-10 "
        f"(max_residual={r.max_residual:.3e})",
        r.passed and r.tolerance == 1e-10,
    )


def test_criterion_3_dirac_residuals_and_negative_control():
    # same suite carries the analytic (1e-12), central-difference (1e-6)
    # and off-shell control checks; any miss flips passed
    r = verify.run_suite("dirac")
    _report(
        f"criterion 3: plane-wave residuals, off-shell control "
        f"(worst_check={r.details['worst_check']})",
        r.passed,
    )


def test_criterion_4_hyp2f1_oracle_and_contiguity():
    _suite_ok("hyp2f1", 1e-12)


def test_criterion_5_bessel_closed_forms_and_ode():
    _suite_ok("bessel", 1e-8)


def test_criterion_6_radial_system():
    r = _suite_ok("radial", 1e-8)
    winner = r.details["resolve_scale"]
    _report(f"criterion 6: resolve_scale winner is {winner}",
            winner == "2*sqrt(kappa*kappa_dot)")


def test_criterion_7_hypersph_vs_oracle_and_golden():
    r = _suite_ok("hypersph", 1e-9)
    _report(
        f"criterion 7: {r.details['evaluable_pairs']} evaluable and "
        f"{r.details['singular_pairs']} singular (l,m) pairs through l=7/2",
        r.details["evaluable_pairs"] + r.details["singular_pairs"] == 36,
    )


def test_criterion_8_assembly_factorization():
    _suite_ok("assembly", 1e-14)


def _cli(*argv):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "poincarewave.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


def test_criterion_9_cli():
    r_all = _cli("verify", "--suite", "all")
    _report("criterion 9a: verify --suite all exits 0", r_all.returncode == 0)
    doc = json.loads(r_all.stdout)
    assert doc["report"]["passed"] is True
    assert len(doc["report"]["details"]) == 7  # all seven suites present

    r_tight = _cli("verify", "--suite", "radial", "--tol", "1e-15")
    _report(
        "criterion 9b: --tol 1e-15 on suite radial exits 1",
        r_tight.returncode == 1 and json.loads(r_tight.stdout)["report"]["passed"] is False,
    )

    r_rep = _cli("verify", "--suite", "all")
    _report(
        "criterion 9c: verify output byte-identical across repeated runs",
        r_rep.stdout == r_all.stdout,
    )

    wf = ("wavefunction", "--m", "1", "--pz", "0.75", "--l", "1/2",
          "--kappa", "0.5", "--kappa-dot", "0.5", "--theta", "0.3:2.8:5",
          "--tau", "0.5:3.0:4", "--format", "csv")
    out1 = _cli(*wf, "--threads", "1")
    out4 = _cli(*wf, "--threads", "4")
    _report(
        "criterion 9d: evaluation output byte-identical across --threads",
        out1.returncode == 0 and out1.stdout == out4.stdout,
    )
