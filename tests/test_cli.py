import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewave import GRID_AXES, assembly, cli, dirac, hypersph, radial, specfun, verify
from poincarewave.cli import main
from poincarewave.halfint import half


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spinor_json(capsys):
    code, out, _ = run(capsys, "spinor", "--kind", "u", "--r", "1", "--pz", "0.75", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spinor"
    assert doc["inputs"]["E"] == pytest.approx(1.25)
    assert doc["rows"][0]["re"] == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)))
    assert doc["rows"][2]["re"] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert doc["residual_norm"] < 1e-12


def test_spinor_csv(capsys):
    code, out, _ = run(capsys, "spinor", "--kind", "v", "--r", "2", "--m", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "component,re,im"
    assert len(lines) == 5
    assert lines[4].startswith("4,1,")
    # CSV does not write the residual norm, so a residual that overflows
    # does not refuse the finite amplitudes; JSON refuses them (see
    # test_range_errors_exit_2_naming_the_input)
    code, out, err = run(capsys, "spinor", "--kind", "u", "--r", "1", "--m", "1", "--off-shell",
                         "--E", "1e300", "--pz", "0.5", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.split("\n")[1:-1] == ["1,7.0710678118654757e+149,0", "2,0,0",
                                      "3,3.535533905932738e-151,0", "4,0,0"]


def test_spinor_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "spinor", "--kind", "u", "--r", "1", "--m", "-1")
    assert code == 2
    assert "error" in err
    # off shell with E + m <= 0 no amplitude exists
    for argv, E in ((("--kind", "v", "--r", "2", "--E", "-3", "--pz", "0.3"), -3.0),
                    (("--kind", "u", "--r", "1", "--E", "-1"), -1.0)):
        code, out, err = run(capsys, "spinor", *argv, "--m", "1", "--off-shell")
        assert (code, out) == (2, ""), argv
        assert err == f"error: spinor amplitudes need E + m > 0, got E = {E}, m = 1.0\n"


def test_spinor_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["spinor", "--kind", "w", "--r", "1", "--m", "1"])
    assert e.value.code == 2
    capsys.readouterr()
    # the suite name is checked by verify, not by argparse
    code, out, err = run(capsys, "verify", "--suite", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown suite 'bogus'") and err.count("\n") == 1, err


def test_hypersph_single_point(capsys):
    code, out, _ = run(capsys, "hypersph", "--l", "1/2", "--m", "1/2",
                       "--theta", str(math.pi / 2), "--tau", "1.0")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["re"] == pytest.approx(1.1729352093275558, rel=1e-12)
    assert row["im"] == pytest.approx(0.4065083666624422, rel=1e-12)


def test_hypersph_grid_row_count_and_order(capsys):
    code, out, _ = run(capsys, "hypersph", "--l", "1", "--m", "0",
                       "--theta", "0.5:2.5:3", "--tau", "0.5:2.0:2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 6
    thetas = [r["theta"] for r in doc["rows"]]
    assert thetas == sorted(thetas)  # theta is the slowest axis
    assert [r["tau"] for r in doc["rows"][:2]] == [0.5, 2.0]


def test_hypersph_singular_pair_exit_2(capsys):
    pole = ("error: 2F1(-1.0, -1.0; 0.0; x): denominator pole at term 1 "
            "reached before series termination; Z^l_m is evaluable for every m at "
            "l in {0, 1/2, 1}, for m = -l or m >= l - 1 at half-integer l >= 3/2, "
            "and for no m at integer l >= 2\n")
    # at tau = 50 the k = -3/2 tau factor before the pole is never evaluated
    for argv in (("--l", "3/2", "--m=-1/2"), ("--l", "3/2", "--m=-1/2", "--tau", "50")):
        code, out, err = run(capsys, "hypersph", *argv)
        assert (code, out, err) == (2, "", pole), argv


def test_hypersph_bad_domain_exit_2(capsys):
    for argv, why in (
        (("--l", "1/2", "--m", "1/2", "--tau", "0"), "tau must be positive"),
        # cosh(tau/2)**7 overflows
        (("--l", "7/2", "--m", "7/2", "--tau", "800"), "tau=800.0) overflows"),
        # the kernel's product overflows
        (("--l", "1/2", "--m", "1/2", "--tau", "1410"), "tau=1410.0) overflows"),
        # cosh(tau/2) itself overflows
        (("--l", "0", "--m", "0", "--tau", "1500"), "tau=1500.0) overflows"),
        (("--l", "inf", "--m", "1/2"), "not a half-integer: inf"),
        # the span overflows
        (("--l", "1/2", "--m", "1/2", "--theta=-1e308:1e308:3"), "non-finite value"),
    ):
        code, out, err = run(capsys, "hypersph", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert why in err, err


WAVEFUNCTION = ("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5")


@pytest.mark.parametrize("fixed, swept, message", [
    (("--theta", "0"), ("--theta", "0:1:3"), "theta must lie in (0, pi), got 0.0"),
    (("--theta", "4"), ("--theta", "1:4:3"), "theta must lie in (0, pi), got 4.0"),
    (("--tau", "0"), ("--tau", "0:1:2"), "tau must be positive, got 0.0"),
    (("--tau=-1",), ("--tau=-1:1:3",), "tau must be positive, got -1.0"),
])
def test_angle_domain_error_same_for_fixed_and_swept_axis(capsys, fixed, swept, message):
    # one owner of the (theta, tau) domain: z_assoc's message either way,
    # and the same as the hypersph command's
    for argv in (WAVEFUNCTION + fixed, WAVEFUNCTION + swept,
                 ("hypersph", "--l", "1/2", "--m", "1/2") + fixed,
                 ("hypersph", "--l", "1/2", "--m", "1/2") + swept):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_malformed_axis_spec_exit_2_naming_the_spec(capsys):
    for spec in ("1:2", "0:1:x"):
        code, out, err = run(capsys, "hypersph", "--l", "1/2", "--m", "1/2", f"--theta={spec}")
        assert code == 2, spec
        assert out == ""
        assert err == (f"error: grid axis {spec!r} is neither 'value' nor 'lo:hi:n' "
                       "with an integer n\n")


def test_wavefunction_non_finite_axis_exit_2(capsys):
    for value in ("nan", "inf", "0:nan:3"):
        code, out, err = run(capsys, "wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5",
                             "--kappa-dot", "0.5", "--x3", value)
        assert code == 2, value
        assert out == ""
        assert "non-finite" in err


def _finite_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_flags_exit_2(capsys):
    wf = ("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5")
    for argv in (
        (*wf, "--c1", "nan"),
        (*wf, "--c2", "1,inf"),
        ("spinor", "--kind", "u", "--r", "1", "--m", "1", "--px", "inf"),
        ("spinor", "--kind", "u", "--r", "1", "--m", "1", "--off-shell", "--E", "inf"),
        (*wf, "--radius", "inf"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "finite" in err


def test_grid_size_cap_checked_before_building(capsys):
    for argv in (
        ("hypersph", "--l", "1/2", "--m", "1/2", "--theta", "0.1:3:4000", "--tau", "0.1:3:4000"),
        ("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5",
         "--x1", "0:1:10000001"),
        # a count past the index size, which len() cannot return
        ("hypersph", "--l", "1/2", "--m", "1/2", "--theta=0:1:100000000000000000000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "exceeds cap" in err


def test_half_kernel_tail_writes_finite_json(capsys):
    for argv in (
        ("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5",
         "--tau", "30"),
        ("hypersph", "--l", "1/2", "--m", "1/2", "--tau", "40"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        rows = _finite_json(out)["rows"]
        assert rows and all(math.isfinite(v) for row in rows for v in row.values()
                            if isinstance(v, float))


@pytest.mark.parametrize("l2, m2, argv", [
    (2, 2, ("--theta", "3.14")),  # the m = l theta series ran to the term cap
    (3, -3, ("--tau", "50")),  # tanh^2(tau/2) rounds to 1 under the tau series
    (0, 0, ("--tau", "12")),  # the geometric l = 0 tau series ran to the term cap
])
def test_kernel_tail_points_exit_0_near_the_oracle(capsys, l2, m2, argv):
    idx = hypersph.HypersphIndex(half(l2), half(m2))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hypersph", "--l", str(idx.l), f"--m={idx.m}", *argv)
    assert time.perf_counter() - t0 < 0.3
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][0]
    want = verify.z_assoc_oracle(idx, row["theta"], row["tau"])  # phi = eps = 0
    assert complex(row["re"], row["im"]) == pytest.approx(want, rel=1e-12)


def test_wavefunction_factor_overflow_exit_2(capsys):
    base = ("wavefunction", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5", "--tau", "1400")
    for argv, why in (
        ((*base, "--m", "1", "--c1", "1e300"), "not finite"),  # a Lorentz factor entry
        ((*base, "--m", "1e-10", "--pz", "1e10"), "overflows"),  # finite factors, their product
        # cosh(tau/2) in the kernel's prefactor
        (("wavefunction", "--m", "1", "--pz", "0.75", "--l", "1/2", "--kappa", "0.5",
          "--kappa-dot", "0.5", "--tau", "1e300"), "tau=1e+300) overflows"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert why in err


def test_vanishing_tanh_exit_2_naming_tau(capsys):
    # tanh(tau/2) underflows to 0 at the smallest positive tau
    for argv in (
        ("hypersph", "--l", "1/2", "--m", "1/2", "--tau", "5e-324"),
        ("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5",
         "--tau", "5e-324"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "tau=5e-324" in err, err


@pytest.mark.parametrize("argv, point", [
    # tan^{m-k}(theta/2) with m - k < 0: overflows, or 0 to a negative power
    (("--l", "3/2", "--m=-3/2", "--theta", "1e-300"), "theta=1e-300, tau=1.0"),
    (("--l", "1", "--m=-1", "--theta", "5e-324"), "theta=5e-324, tau=1.0"),
    # tanh^{-k}(tau/2) with k > 0
    (("--l", "7/2", "--m=-7/2", "--tau", "1e-200"), "theta=1.5707963267948966, tau=1e-200"),
    (("--l", "7/2", "--m", "7/2", "--tau", "1e-200"), "theta=1.5707963267948966, tau=1e-200"),
    # a grid names its first failing point in row order
    (("--l", "3/2", "--m=-3/2", "--theta=1:1e-300:2", "--tau=1:2:2"), "theta=1e-300, tau=1.0"),
])
def test_kernel_term_power_overflow_exit_2_naming_the_point(capsys, argv, point):
    code, out, err = run(capsys, "hypersph", *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"({point}) overflows" in err, err


def test_hypersph_evaluates_kernel_once_per_theta_tau_point(monkeypatch, capsys):
    # each theta factor of the plan runs once per theta, each tau factor once
    # per tau, closed forms included, and no kernel is evaluated point by point
    idx = hypersph.HypersphIndex(half(7), half(5))
    calls = collections.Counter()

    def counted(f):
        def factor(*args):
            calls[id(f), args] += 1
            return f(*args)
        return factor

    plan = hypersph.kernel_plan(idx)
    counting = tuple(term._replace(theta=counted(term.theta), tau=counted(term.tau))
                     for term in plan)
    monkeypatch.setattr(hypersph, "kernel_plan", lambda _: counting)
    monkeypatch.setattr(hypersph, "z_assoc", lambda *args: pytest.fail("pointwise z_assoc"))
    thetas, taus = (0.5, 1.5, 2.5), (0.5, 2.0)
    code, out, _ = run(capsys, "hypersph", "--l", "7/2", "--m", "5/2", "--theta", "0.5:2.5:3",
                       "--tau", "0.5:2:2", "--phi", "-1:2:3", "--eps", "-0.5:0.5:2")
    assert code == 0
    expected = {key: 1 for term in plan for key in (
        *((id(term.theta), (complex(-math.tan(0.5 * th) ** 2),)) for th in thetas),
        *((id(term.tau), (complex(math.tanh(0.5 * ta) ** 2), ta)) for ta in taus))}
    # 8 k-terms, none the l = 1/2 closed form; at tau = 2 the k = -7/2 and
    # k = 7/2 tau factors are closed forms
    assert len(expected) == 8 * (3 + 2)
    assert calls == expected
    monkeypatch.undo()
    rows = json.loads(out)["rows"]
    assert len(rows) == 36
    for row in rows:
        ang = hypersph.EulerAngles(phi=row["phi"], eps=row["eps"], theta=row["theta"],
                                   tau=row["tau"])
        assert complex(row["re"], row["im"]) == hypersph.m_assoc(idx, ang)  # bitwise


def test_error_at_last_grid_point_writes_nothing(tmp_path, capsys):
    path = tmp_path / "rows.json"
    argv = ("hypersph", "--l", "1/2", "--m", "1/2", "--theta", "0.5:3.5:4")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "3.5" in err
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("spinor", "--kind", "u", "--r", "1", "--pz", "0.75", "--m", "1"),
    ("hypersph", "--l", "1", "--m", "0", "--theta", "0.5:2.5:3", "--eps", "0:1:2"),
    ("wavefunction", "--m", "1", "--pz", "0.75", "--l", "1/2", "--kappa", "0.5",
     "--kappa-dot", "0.5", "--x1", "0:1:2", "--theta", "0.5:2.5:2", "--tau", "0.4:2:2"),
])
def test_json_rows_written_as_the_indented_document(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_wavefunction_csv_factorization_columns(capsys):
    code, out, _ = run(capsys, "wavefunction", "--m", "1", "--pz", "0.75",
                       "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5",
                       "--x3", "0:1:3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 4
    i_abs = header.index("psi1_abs")
    i_fac = header.index("psi1_abs_factors")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[i_abs]) == pytest.approx(float(cells[i_fac]), rel=1e-14)


def test_values_starting_with_dash_parse_as_values(capsys):
    common = ["wavefunction", "--m", "1", "--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5",
              "--theta", "0.5:2.5:2", "--format", "csv"]
    _, spaced, _ = run(capsys, *common, "--sign-pair", "-+", "--x1", "-1.5:1:4")
    code, joined, _ = run(capsys, *common, "--sign-pair=-+", "--x1=-1.5:1:4")
    assert code == 0
    assert spaced == joined
    assert len(joined.strip().split("\n")) == 1 + 4 * 2
    _, spaced, _ = run(capsys, "hypersph", "--l", "1/2", "--m", "-1/2")
    _, joined, _ = run(capsys, "hypersph", "--l", "1/2", "--m=-1/2")
    assert spaced == joined
    assert json.loads(spaced)["inputs"]["m"] == "-1/2"


def test_imports_do_not_load_mpmath():
    # nor numpy: only verify imports it, and the evaluation commands do not
    # load verify
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import poincarewave, poincarewave.cli; "
            "assert 'mpmath' not in sys.modules, 'mpmath imported'; "
            "assert 'numpy' not in sys.modules, 'numpy imported'; "
            "from poincarewave.cli import main; "
            "assert main(['hypersph', '--l', '1/2', '--m', '1/2', '--theta', '0.5:2.5:3']) == 0; "
            "assert main(['wavefunction', '--m', '1', '--pz', '0.75', '--l', '1/2', "
            "'--kappa', '0.5', '--kappa-dot', '0.5', '--x1', '0:1:2', '--format', 'csv']) == 0; "
            "assert 'numpy' not in sys.modules, 'numpy imported by a command'; "
            "assert 'mpmath' not in sys.modules, 'mpmath imported by a command'; "
            "from poincarewave import RunReport, run_suite")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60,
                   capture_output=True)


def test_import_and_csv_command_load_only_what_they_use():
    # dataclasses would bring inspect, ast, dis and tokenize; json is loaded
    # only for JSON output and by verify, and verify (with numpy) only by
    # verify and by spinor's JSON output
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import poincarewave, poincarewave.cli; "
            "unused = ('dataclasses', 'inspect', 'json', 'numpy', 'mpmath'); "
            "loaded = [name for name in unused if name in sys.modules]; "
            "assert loaded == [], f'imported: {loaded}'; "
            "assert poincarewave.cli.main(['wavefunction', '--m', '1', '--pz', '0.75', "
            "'--l', '1/2', '--kappa', '0.5', '--kappa-dot', '0.5', '--x1', '0:1:2', "
            "'--format', 'csv']) == 0; "
            "assert 'json' not in sys.modules, 'json imported by a CSV command'; "
            "assert poincarewave.cli.main(['spinor', '--kind', 'u', '--r', '1', '--m', '1', "
            "'--format', 'csv']) == 0; "
            "loaded = [name for name in ('numpy', 'poincarewave.verify') if name in sys.modules]; "
            "assert loaded == [], f'imported by spinor --format csv: {loaded}'")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import poincarewave

    missing = [name for name in poincarewave.__all__ if not hasattr(poincarewave, name)]
    assert missing == []


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "poincarewave", "verify", "--suite", "gamma"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["passed"] is True


def test_verify_pass_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gamma")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert list(doc["report"]) == ["suite", "cases", "max_residual", "tolerance", "passed",
                                   "details"]


def test_verify_tight_tolerance_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bessel", "--tol", "1e-15")
    assert code == 1
    assert json.loads(out)["report"]["passed"] is False


def test_verify_byte_identical_repeats(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "gamma")
    _, out2, _ = run(capsys, "verify", "--suite", "gamma")
    assert out1 == out2


def test_evaluation_byte_identical_across_threads(capsys):
    args = ["wavefunction", "--m", "1", "--pz", "0.75", "--l", "1/2",
            "--kappa", "0.5", "--kappa-dot", "0.5", "--theta", "0.5:2.5:4"]
    _, out1, _ = run(capsys, *args, "--threads", "1")
    _, out2, _ = run(capsys, *args, "--threads", "4")
    assert out1 == out2


def test_bad_threads_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "gamma", "--threads", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("spinor", "--kind", "u", "--r", "1", "--m", "1"),
    ("hypersph", "--l", "1/2", "--m", "1/2"),
    ("verify", "--suite", "all"),
])
def test_unopenable_out_path_exit_2(tmp_path, capsys, monkeypatch, argv):
    # verify opens --out before any suite runs
    def suite_must_not_run(*_):
        pytest.fail("a verify suite ran before --out was opened")

    for name in verify._SUITE_FUNCS:
        monkeypatch.setitem(verify._SUITE_FUNCS, name, suite_must_not_run)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_bad_tol_leaves_no_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    for argv, message in (
        (("--suite", "gamma", "--tol", "nan"), "tolerance must be finite and non-negative, got nan"),
        (("--suite", "bogus"), f"unknown suite 'bogus'; choose from {verify.SUITES}"),
    ):
        code, out, err = run(capsys, "verify", *argv, "--out", str(path))
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n"
        assert not path.exists(), argv


@pytest.mark.parametrize("argv", [
    ("spinor", "--kind", "u", "--r", "1", "--m", "1", "--pz", "1e200"),
    ("wavefunction", "--m", "1", "--pz", "1e200", "--l", "1/2", "--kappa", "0.5",
     "--kappa-dot", "0.5"),
])
def test_overflowing_momentum_is_named_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1e+200" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["report"]["passed"] is True


# Axis values: ordinary ones, valid on every axis, and the edges of the
# domain, overflowing and non-finite ones.
_VALUES = st.one_of(
    st.floats(0.05, 3.0),
    st.sampled_from([0.0, -1.0, 1e-300, math.pi, 40.0, 1410.0, 1e300, -1e300, math.nan,
                     math.inf]),
)
_SPECS = st.one_of(
    _VALUES.map(repr),
    st.tuples(_VALUES, _VALUES, st.integers(0, 3)).map(lambda t: f"{t[0]!r}:{t[1]!r}:{t[2]}"),
)
_HYPERSPH = st.builds(
    lambda lm, dotted, axes: ["hypersph", f"--l={lm[0]}", f"--m={lm[1]}", *dotted,
                              *(f"--{k}={v}" for k, v in axes.items())],
    st.sampled_from([("1/2", "1/2"), ("1/2", "-1/2"), ("1", "0"), ("1", "1"), ("3/2", "-3/2"),
                     ("7/2", "5/2"), ("3/2", "-1/2"), ("1/2", "1"), ("x", "1/2")]),
    st.sampled_from([(), ("--dotted",)]),
    st.dictionaries(st.sampled_from(["theta", "tau", "phi", "eps"]), _SPECS, max_size=4),
)
_WAVEFUNCTION = st.builds(
    lambda flags, axes: ["wavefunction", *(f"--{k}={v}" for k, v in {**flags, **axes}.items())],
    st.fixed_dictionaries({
        "m": st.sampled_from(["1", "1e-10", "-1"]),
        "pz": st.sampled_from(["0.75", "0", "1e10", "1e200"]),
        "l": st.sampled_from(["1/2", "3/2"]),
        "kappa": st.sampled_from(["0.5", "0.5,0.1", "-0.5"]),
        "kappa-dot": st.sampled_from(["0.5", "0.5,-0.1"]),
        "c1": st.sampled_from(["1", "0.6,0.2", "1e300"]),
        "sign-pair": st.sampled_from(["+-", "-+"]),
    }),
    st.dictionaries(st.sampled_from(GRID_AXES), _SPECS, max_size=3),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=st.one_of(_HYPERSPH, _WAVEFUNCTION))
# the amplitude normalization overflows
@example(argv=["wavefunction", "--m=1e-320", "--pz=1", "--l=1/2", "--kappa=0.5",
               "--kappa-dot=0.5"])
# the phase bound |E| max|x4| + sum |p_i| max|x_i| overflows
@example(argv=["wavefunction", "--m=1", "--px=1e150", "--l=1/2", "--kappa=0.5",
               "--kappa-dot=0.5", "--x1=-1e200:1:3"])
# the largest product of the factors, with the margin of the translation
# bound, just inside and just past the double range
@example(argv=["wavefunction", "--m=1", "--pz=1e10", "--l=1/2", "--kappa=0.5",
               "--kappa-dot=0.5", "--c1=3.050326724116863e+303", "--x3=0:1e290:3",
               "--x4=-1:1:2"])
@example(argv=["wavefunction", "--m=1", "--pz=1e10", "--l=1/2", "--kappa=0.5",
               "--kappa-dot=0.5", "--c1=3.0503267241168634e+303", "--x3=0:1e290:3",
               "--x4=-1:1:2"])
def test_grid_commands_exit_0_with_finite_json_or_2_with_nothing(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        _finite_json(out.getvalue())


_MOMENTA = st.sampled_from(["0", "0.75", "1e200", "1e308"])
_SPINOR = st.builds(
    lambda kind, r, m, p, off: ["spinor", f"--kind={kind}", f"--r={r}", f"--m={m}",
                                *(f"--{k}={v}" for k, v in p.items()), *off],
    st.sampled_from(["u", "v"]),
    st.sampled_from(["1", "2"]),
    st.sampled_from(["1", "1e-320", "-1"]),
    st.dictionaries(st.sampled_from(["px", "py", "pz"]), _MOMENTA, max_size=3),
    st.one_of(st.just(()), st.sampled_from(["1", "1.25", "1e-320", "1e308"]).map(
        lambda e: ("--off-shell", f"--E={e}"))),
)
_VERIFY = st.builds(
    lambda tol: ["verify", "--suite=gamma", f"--tol={tol!r}"],
    st.one_of(st.sampled_from([math.nan, math.inf, -1.0, 0.0, 1e-12]), st.floats()),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(argv=st.one_of(_SPINOR, _VERIFY))
# the amplitude normalization overflows; off shell, an amplitude entry or
# the residual overflows
@example(argv=["spinor", "--kind=u", "--r=1", "--m=1e-320", "--pz=1"])
@example(argv=["spinor", "--kind=v", "--r=2", "--m=1e-320", "--off-shell", "--E=1e-320",
               "--py=1"])
@example(argv=["spinor", "--kind=u", "--r=1", "--m=1", "--off-shell", "--E=1e308",
               "--px=1e308"])
# off shell with E + m <= 0: no amplitude exists
@example(argv=["spinor", "--kind", "v", "--r", "2", "--m", "1", "--off-shell", "--E", "-3",
               "--pz", "0.3"])
@example(argv=["spinor", "--kind", "u", "--r", "1", "--m", "1", "--off-shell", "--E", "-1"])
# a tolerance that is not finite, or negative
@example(argv=["verify", "--suite=gamma", "--tol=nan"])
@example(argv=["verify", "--suite=gamma", "--tol=inf"])
@example(argv=["verify", "--suite=gamma", "--tol=-1"])
def test_spinor_and_verify_exit_0_or_1_with_finite_json_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
    else:
        assert code in ((0, 1) if argv[0] == "verify" else (0,)), argv
        assert err.getvalue() == "", argv
        doc = _finite_json(out.getvalue())
        if argv[0] == "verify":
            assert doc["report"]["tolerance"] >= 0.0, argv


# A fixed corpus of commands, each run in both formats, to stdout and with
# --out.  Its digest was recorded before rows were written with one format
# operation each and the parser was built once per process, so it pins the
# bytes and exit codes of the CLI across that change.  It was recorded
# again when the kernel's k = -l and k = l tau factors of l = 7/2 became
# closed forms past tanh^2(tau/2) = 1/2: only the two l = 7/2 cells at
# (theta, tau) = (2.5, 2) moved, each by a few ulp, and both old and new
# values are within 7e-16 of the mpmath oracle.
_WF = ("wavefunction", "--m", "1", "--pz", "0.75", "--l", "1/2", "--kappa", "0.5",
       "--kappa-dot", "0.5")
_CORPUS = (
    *(("spinor", "--kind", kind, "--r", r, "--px", "0.3", "--pz", "0.75", "--m", "1")
      for kind in ("u", "v") for r in ("1", "2")),
    ("spinor", "--kind", "v", "--r", "2", "--m", "1", "--off-shell", "--E", "1.25",
     "--py", "0.5"),
    ("hypersph", "--l", "1/2", "--m", "1/2", "--theta", "0.5:2.5:3", "--tau", "0.3:2:3",
     "--phi", "0:1:2", "--eps", "0:1e-300:3"),
    ("hypersph", "--l", "1/2", "--m", "-1/2", "--dotted", "--theta", "1e-300:3:2",
     "--eps", "-0.5"),
    ("hypersph", "--l", "7/2", "--m", "5/2", "--theta", "0.5:2.5:2", "--tau", "0.5:2:2",
     "--phi", "-1:1:2"),
    ("hypersph", "--l", "1/2", "--m", "1/2", "--tau", "700"),
    (*_WF, "--theta", "0.5:2.5:4", "--tau", "0.3:3:3", "--x1", "0.25"),
    (*_WF, "--x1", "0:1:3", "--x4", "-1:1:3", "--phi", "0.7", "--eps", "-0.2"),
    (*_WF, "--kappa", "0.5,0.1", "--kappa-dot", "0.5,-0.1", "--c1",
     "0.6,0.2", "--c2", "0.1", "--sign-pair", "-+", "--r", "2", "--x2", "-1e-310:1:2",
     "--tau", "1e-3:20:2"),
    (*_WF, "--theta", "0"),
)
_CORPUS_SHA256 = "20347fd21fd14b7eca45878162d375e96d19bcd7c6cbf6fc17d69a9c7cc5e36f"


def test_corpus_output_digest(tmp_path, capsys):
    path = tmp_path / "out"
    digest = hashlib.sha256()
    for argv in _CORPUS:
        for fmt in ("json", "csv"):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            digest.update(f"{argv} {fmt} {code}\n{out}".encode())
            code, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(path))
            assert out == ""
            text = path.read_text() if path.exists() else None
            digest.update(f"{code}\n{text}".encode())
            path.unlink(missing_ok=True)
    assert digest.hexdigest() == _CORPUS_SHA256


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_rows_match_the_per_cell_formats(tmp_path, fmt):
    # axis i is streamed and axis a tabled; a row's value is anything with
    # .real and .imag, and its cells are its re, im and, with moduli, |v| twice
    axes = [[1, 2, 3], [-0.0, 1e308]]
    values = [complex(5e-324, 1e-310), np.float64(1.5), np.float64(-2.5e-320),
              complex(0.1, -1e16), np.float64(1 / 3), 2]
    path = tmp_path / "out"
    for moduli in (False, True):
        fields = ("i", "a", "re", "im", *(("abs", "abs_factors") if moduli else ()))
        rows = [(i, a, v.real, v.imag, *((abs(v), abs(v)) if moduli else ()))
                for (i, a), v in zip(itertools.product(*axes), values)]
        doc = {"command": "t", "inputs": {"x": 0.5}, "rows": ((v,) for v in values),
               "tail": [1e-5]}
        cli._emit(doc, fmt, str(path), fields, axes, streamed=1, moduli=moduli)
        if fmt == "json":
            want = json.dumps({**doc, "rows": [dict(zip(fields, row)) for row in rows]},
                              indent=2) + "\n"
        else:
            want = "".join(",".join(format(float(v), ".17g") if isinstance(v, float)
                                    else str(v) for v in row) + "\n" for row in [fields, *rows])
        assert path.read_text() == want, moduli


_PSI_FIELDS = tuple(f"{name}_{part}" for name in ("psi1", "psi2", "psi1_dot", "psi2_dot")
                    for part in ("re", "im", "abs", "abs_factors"))


def _expected_text(fmt, doc, fields, rows):
    if fmt == "json":
        return json.dumps({**doc, "rows": [dict(zip(fields, row)) for row in rows]},
                          indent=2) + "\n"
    return "".join(",".join(format(v, ".17g") if isinstance(v, float) else v for v in row)
                   + "\n" for row in [fields, *rows])


def _linspace(spec):
    lo, hi, n = spec.split(":")
    return [float(v) for v in np.linspace(float(lo), float(hi), int(n))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_grid_cells_match_the_per_cell_formats(capsys, fmt):
    # eps holds 0.0 and -0.0, so text looked up by value would print one
    # for the other; keys run from subnormal to 1e308, values near 1e307;
    # each side of the grid has a swept and a one-value axis
    wf = {"x1": "-1e-310:1:2", "x2": "5e-324", "x3": "1e308", "x4": "0.25",
          "phi": "-0.7", "eps": "0:-0.0:2", "theta": "1.1", "tau": "0.5:2:2"}
    code, out, _ = run(capsys, *_WF, "--px", "0.3", "--c1", "1e307", "--format", fmt,
                       *(f"--{name}={spec}" for name, spec in wf.items()))
    assert code == 0
    rp = radial.RadialParams(kappa=0.5 + 0j, kappa_dot=0.5 + 0j, C1=1e307 + 0j, C2=0j,
                             l=half(1), l_dot=half(1))
    cfg = assembly.SpinConfig(p=dirac.FourMomentum.on_shell(0.3, 0.0, 0.75, 1.0), r=1, rp=rp,
                              radius=1.0)
    axes = [_linspace(spec) if ":" in spec else [float(spec)] for spec in wf.values()]
    rows = []
    for point in itertools.product(*axes):
        ang = hypersph.EulerAngles(*point[4:])
        psi = assembly.bispinor(cfg, assembly.GroupPoint(point[:4], ang)).as_tuple()
        rows.append((*point, *(c for v in psi for c in (v.real, v.imag, abs(v), abs(v)))))
    assert len(rows) == 8 and {math.copysign(1.0, row[5]) for row in rows} == {1.0, -1.0}
    doc = {"command": "wavefunction", "inputs": json.loads(out)["inputs"]} if fmt == "json" else {}
    assert out == _expected_text(fmt, doc, (*GRID_AXES, *_PSI_FIELDS), rows)

    hs = {"theta": "1e-310:3:2", "tau": "1405", "phi": "1e308", "eps": "0:-0.0:2"}
    code, out, _ = run(capsys, "hypersph", "--l", "1/2", "--m", "1/2", "--format", fmt,
                       *(f"--{name}={spec}" for name, spec in hs.items()))
    assert code == 0
    idx = hypersph.HypersphIndex(half(1), half(1))
    axes = [_linspace(spec) if ":" in spec else [float(spec)] for spec in hs.values()]
    rows = []
    for theta, tau, phi, eps in itertools.product(*axes):
        v = hypersph.m_assoc(idx, hypersph.EulerAngles(phi=phi, eps=eps, theta=theta, tau=tau))
        rows.append((theta, tau, phi, eps, v.real, v.imag))
    assert max(abs(row[4]) for row in rows) > 1e306
    doc = {"command": "hypersph", "inputs": {"l": "1/2", "m": "1/2", "dotted": False}}
    assert out == _expected_text(fmt, doc, ("theta", "tau", "phi", "eps", "re", "im"), rows)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_each_axis_value_and_modulus_rendered_once(tmp_path, monkeypatch, fmt):
    # the angles once per command, x1 once per x1 value, x2 and x3 once per
    # x1 value, x4 once per row, and each |psi_i| once per row
    rendered = []
    render = cli._RENDER[fmt]

    def counting(v):
        rendered.append(v)
        return render(v)

    monkeypatch.setitem(cli._RENDER, fmt, counting)
    path = tmp_path / "out"
    angles = {"phi": 0.7, "eps": -0.2, "theta": 1.1, "tau": 1.25}
    assert main([*_WF, "--x1=0:1:3", "--x2=0.25", "--x3=0.375", "--x4=-1:1:4",
                 *(f"--{name}={v}" for name, v in angles.items()),
                 f"--format={fmt}", f"--out={path}"]) == 0
    text = path.read_text()
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        header, *lines = text.splitlines()
        rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert len(rows) == 12
    moduli = [row[field] for row in rows for field in _PSI_FIELDS if field.endswith("_abs")]
    x1s, x4s = _linspace("0:1:3"), _linspace("-1:1:4")
    want = [*angles.values(), *x1s, *[0.25, 0.375] * 3, *x4s * 3, *moduli]
    assert len(rendered) == 4 + 3 + 6 + 12 + 48
    assert collections.Counter(rendered) == collections.Counter(want)


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    good = (*_WF, "--theta", "0.5:2.5:3", "--format", "csv")
    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = run(capsys, *good)
    assert first[0] == 0 and built
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *_WF, "--tau", "0")[:2] == (2, "")
    assert run(capsys, *good) == first
    assert run(capsys, *good) == first
    assert built == []


def test_import_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import argparse; "
            "init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = lambda *a, **k: sys.exit('parser built'); "
            "import poincarewave, poincarewave.cli; "
            "argparse.ArgumentParser.__init__ = init; "
            "assert poincarewave.cli.main(['hypersph', '--l', '1/2', '--m', '1/2']) == 0")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60,
                   capture_output=True)


@pytest.mark.parametrize("argv, named", [
    (("hypersph", "--l", "1/2", "--m", "1/2", "--eps=-1e6"), "eps=-1000000.0"),
    (("hypersph", "--l", "1/2", "--m", "1/2", "--dotted", "--eps", "0:-1e6:3"), "eps=-500000.0"),
    ((*_WF, "--eps", "1e6"), "eps=1000000.0"),
    ((*_WF, "--eps", "0:1e6:3"), "eps=500000.0"),
    (("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "1e200", "--kappa-dot", "1e200"),
     "kappa=(1e+200+0j), kappa_dot=(1e+200+0j)"),
    ((*_WF, "--radius", "1e-320"), "z=1e-320, a*z=1e-320"),
    (("wavefunction", "--m", "1", "--l", "1/2", "--kappa", "1e100", "--kappa-dot", "1e100",
      "--radius", "1e300"), "z=1e+300, a*z=inf"),
    (("wavefunction", "--m", "1", "--px", "1e150", "--l", "1/2", "--kappa", "0.5",
      "--kappa-dot", "0.5", "--x1", "1e200"),
     "(E, px, py, pz) = (1e+150, 1e+150, 0.0, 0.0), |x| up to (1e+200, 0.0, 0.0, 0.0)"),
    (("wavefunction", "--m", "1", "--l", "3/2", "--kappa", "0.5", "--kappa-dot", "0.5"),
     "--l: l must be 1/2, got 3/2"),
    ((*_WF, "--l-dot", "5/2"), "--l-dot: l_dot must be 1/2, got 5/2"),
    # both parts of Z finite, its modulus past the double range
    (("hypersph", "--l", "1/2", "--m", "1/2", "--theta", "1.0", "--tau", "1409.5731128551818"),
     "Z^1/2_1/2(theta=1.0, tau=1409.5731128551818) overflows"),
    # a kernel and a phase both overflow: the kernel table is built first
    ((*_WF, "--tau=1:1410:2", "--eps", "1e6"),
     "Z^1/2_1/2(theta=1.5707963267948966, tau=1410.0) overflows"),
    # both parts of the phase finite, its modulus past the double range
    (("hypersph", "--l", "1/2", "--m", "-1/2", "--eps", "1420", "--phi", "1.5707963267948966"),
     "at m=-1/2, phi=1.5707963267948966, eps=1420.0 overflows"),
    ((*_WF, "--eps", "1420", "--phi", "1.5707963267948966"),
     "at m=-1/2, phi=1.5707963267948966, eps=1420.0 overflows"),
    ((*_WF, "--c1", "1,2,3"), "complex value '1,2,3' is neither 're,im' nor a real number"),
    ((*_WF, "--c1", "1,"), "complex value '1,' is neither 're,im' nor a real number"),
    # each square is finite, their sum m^2 + |p|^2 is not
    (("spinor", "--kind", "u", "--r", "1", "--m", "1", "--px", "1.2e154", "--py", "1.2e154"),
     "the shell energy of (px, py, pz, m) = (1.2e+154, 1.2e+154, 0.0, 1.0) overflows a double"),
    (("wavefunction", "--m", "1", "--px", "1.2e154", "--py", "1.2e154", "--l", "1/2",
      "--kappa", "0.5", "--kappa-dot", "0.5"),
     "the shell energy of (px, py, pz, m) = (1.2e+154, 1.2e+154, 0.0, 1.0) overflows a double"),
    # finite amplitudes, an off-shell residual past the double range
    (("spinor", "--kind", "u", "--r", "1", "--m", "1", "--off-shell", "--E", "1e300", "--pz",
      "0.5", "--format", "json"), "the Dirac residual norm at E = 1e+300 is not finite"),
])
def test_range_errors_exit_2_naming_the_input(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_shell_energy_underflow_exit_2_naming_the_momentum(capsys):
    # m^2 + |p|^2 below the smallest normal double: the squares have lost
    # E, which would come out as 0.0 (u_4 = 7.07e19 for 7.07e9) or with a
    # relative error of 5.6e-6
    wf = ("--l", "1/2", "--kappa", "0.5", "--kappa-dot", "0.5")
    for argv, named in (
        (("spinor", "--kind", "u", "--r", "1", "--m", "1e-320", "--px", "1e-300"),
         "(1e-300, 0.0, 0.0, 1e-320)"),
        (("wavefunction", "--m", "1e-320", "--px", "1e-300", *wf), "(1e-300, 0.0, 0.0, 1e-320)"),
        (("spinor", "--kind", "u", "--r", "1", "--m", "1e-160", "--px", "3e-160"),
         "(3e-160, 0.0, 0.0, 1e-160)"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: the shell energy of (px, py, pz, m) = {named} underflows a double\n"
    # m^2 just past the smallest normal double still evaluates
    code, out, _ = run(capsys, "spinor", "--kind", "u", "--r", "1", "--m", "1.5e-154")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["E"] == pytest.approx(1.5e-154, rel=1e-15)
    assert [complex(c["re"], c["im"]) for c in doc["rows"]] == [1, 0, 0, 0]
    assert run(capsys, "wavefunction", "--m", "1.5e-154", *wf)[0] == 0


def test_product_bound_at_the_edge_of_the_double_range(capsys):
    # |u_1| max|L_1| times 1 + 2**-40 sits just below, then just past, the
    # largest double; every written value, |psi| among them, is finite
    edge = ("wavefunction", "--m", "1", "--pz", "1e10", "--l", "1/2", "--kappa", "0.5",
            "--kappa-dot", "0.5", "--x3=0:1e290:3", "--x4=-1:1:2", "--format", "csv")
    code, out, _ = run(capsys, *edge, "--c1", "3.050326724116863e+303")
    assert code == 0
    cells = [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
    assert len(cells) == 6 * 24 and all(map(math.isfinite, cells))
    assert max(cells) > 1.7976931348e308
    code, out, err = run(capsys, *edge, "--c1", "3.0503267241168634e+303")
    assert (code, out, err) == (2, "", "error: a product of the grid factors overflows\n")


def test_first_row_written_after_one_x_entry(monkeypatch):
    # the translation factor is streamed: two plane waves (one x point)
    # before the first row, two per x point in all
    waves = [0]
    plane_wave = dirac.plane_wave

    def counting(*args):
        waves[0] += 1
        return plane_wave(*args)

    class Recorder(io.StringIO):
        def write(self, s):
            seen.append(waves[0])
            return super().write(s)

    seen = []
    monkeypatch.setattr(dirac, "plane_wave", counting)
    with contextlib.redirect_stdout(Recorder()):
        code = main([*_WF, "--x1=0:1:50", "--x4=-1:1:4", "--theta=0.5:2.5:3", "--format=csv"])
    assert code == 0
    assert seen[:2] == [0, 2]  # the header, then the first row
    assert waves[0] == 2 * 50 * 4


def test_x_only_grid_memory_does_not_grow_with_the_row_count():
    # the x factor is streamed and each axis computes its values on demand,
    # so a grid of 10**5 rows peaks no higher than one of 10**4
    def peak(n):
        tracemalloc.start()
        try:
            code = main([*_WF, f"--x1=0:1:{n}", "--format=csv", f"--out={os.devnull}"])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main([*_WF, "--format=csv", f"--out={os.devnull}"])  # parser and imports first
    (small_code, small), (large_code, large) = peak(10**4), peak(10**5)
    assert small_code == large_code == 0
    assert large < small + 64 * 1024, (small, large)


def test_hypersph_kernel_memory_per_point():
    # the kernel is held once, as z_grid's rows, and streamed over the
    # phase table: a 100 x 100 (theta, tau) grid peaks at about 54 B per
    # point, where a second table of it keyed by (theta, tau) besides took
    # about 244 B
    main(["hypersph", "--l", "1/2", "--m", "1/2", "--format=csv", f"--out={os.devnull}"])
    tracemalloc.start()
    try:
        code = main(["hypersph", "--l", "1/2", "--m", "1/2", "--theta=0.1:3:100",
                     "--tau=0.1:3:100", "--phi=0:1:2", "--format=csv", f"--out={os.devnull}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 100 * 100 * 100, peak


def test_wavefunction_angle_table_memory_per_point():
    # the (phi, eps, theta, tau) table holds one Lorentz 4-tuple per point
    # and no key: a 100 x 100 (theta, tau) grid peaks at about 400 B per
    # point, where a table that also held an EulerAngles per point took
    # about 590 B
    main([*_WF, "--format=csv", f"--out={os.devnull}"])
    tracemalloc.start()
    try:
        code = main([*_WF, "--theta=0.1:3:100", "--tau=0.1:3:100", "--format=csv",
                     f"--out={os.devnull}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 450 * 100 * 100, peak
