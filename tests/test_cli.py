import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincarewave import GRID_AXES, hypersph, specfun, verify
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
            "reached before series termination\n")
    # at tau = 50 the k = -3/2 tau series before the pole cannot converge
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
    # per tau, and no kernel is evaluated point by point
    idx = hypersph.HypersphIndex(half(7), half(5))
    plan = hypersph.kernel_plan(idx)
    calls = collections.Counter()
    series_call = specfun.GaussSeries.__call__

    def counting(self, x):
        calls[id(self), x] += 1
        return series_call(self, x)

    monkeypatch.setattr(specfun.GaussSeries, "__call__", counting)
    monkeypatch.setattr(hypersph, "z_assoc", lambda *args: pytest.fail("pointwise z_assoc"))
    thetas, taus = (0.5, 1.5, 2.5), (0.5, 2.0)
    code, out, _ = run(capsys, "hypersph", "--l", "7/2", "--m", "5/2", "--theta", "0.5:2.5:3",
                       "--tau", "0.5:2:2", "--phi", "-1:2:3", "--eps", "-0.5:0.5:2")
    assert code == 0
    expected = {key: 1 for term in plan for key in (
        *((id(term.theta), complex(-math.tan(0.5 * th) ** 2)) for th in thetas),
        *((id(term.tau), complex(math.tanh(0.5 * ta) ** 2)) for ta in taus))}
    assert len(expected) == 8 * (3 + 2)  # 8 k-terms, none a closed form
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
