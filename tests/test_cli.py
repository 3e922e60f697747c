import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poincarewave.cli import main


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
    code, _, err = run(capsys, "hypersph", "--l", "3/2", "--m=-1/2")
    assert code == 2
    assert "pole" in err.lower() or "error" in err.lower()


def test_hypersph_bad_domain_exit_2(capsys):
    for argv in (
        ("--l", "1/2", "--m", "1/2", "--tau", "0"),
        ("--l", "7/2", "--m", "7/2", "--tau", "800"),  # cosh(tau/2)**7 overflows
        ("--l", "inf", "--m", "1/2"),
    ):
        code, out, _ = run(capsys, "hypersph", *argv)
        assert code == 2, argv
        assert out == ""


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


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["report"]["passed"] is True
