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

from poincarewave import GRID_AXES, hypersph
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


def test_spinor_usage_error_exit_2():
    for argv in (["spinor", "--kind", "w", "--r", "1", "--m", "1"],
                 ["verify", "--suite", "bogus"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


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
    for argv in (
        ("--l", "1/2", "--m", "1/2", "--tau", "0"),
        ("--l", "7/2", "--m", "7/2", "--tau", "800"),  # cosh(tau/2)**7 overflows
        ("--l", "1/2", "--m", "1/2", "--tau", "1410"),  # the kernel's product overflows
        ("--l", "inf", "--m", "1/2"),
        ("--l", "1/2", "--m", "1/2", "--theta=-1e308:1e308:3"),  # the span overflows
    ):
        code, out, err = run(capsys, "hypersph", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


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
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert why in err


def test_hypersph_evaluates_kernel_once_per_theta_tau_point(monkeypatch, capsys):
    calls = [0]
    z_assoc = hypersph.z_assoc

    def counting(*args):
        calls[0] += 1
        return z_assoc(*args)

    monkeypatch.setattr(hypersph, "z_assoc", counting)
    code, out, _ = run(capsys, "hypersph", "--l", "7/2", "--m", "5/2", "--theta", "0.5:2.5:3",
                       "--tau", "0.5:2:2", "--phi", "-1:2:3", "--eps", "-0.5:0.5:2")
    assert code == 0
    assert calls[0] == 6
    rows = json.loads(out)["rows"]
    assert len(rows) == 36
    idx = hypersph.HypersphIndex(half(7), half(5))
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
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import poincarewave, poincarewave.cli; "
            "assert 'mpmath' not in sys.modules, 'mpmath imported'; "
            "from poincarewave import RunReport, run_suite")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=60)


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
    assert "elapsed" not in doc["report"]


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
    ("verify", "--suite", "gamma"),
])
def test_unopenable_out_path_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


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
