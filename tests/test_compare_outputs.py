import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


def make_tree(root, mass):
    (root / "run").mkdir(parents=True)
    (root / "run" / "diagnostics.csv").write_text(
        f"t,mass\r\n0.0,1.0\r\n0.5,{mass}\r\n")
    (root / "entropy.csv").write_text(
        'c,phi_id,residual\r\n0.25,"a=0,r=1",-0.0\r\n')


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_identical_trees(tmp_path):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", "1.0")
    result = compare(tmp_path / "a", tmp_path / "b")
    assert result.returncode == 0, result.stdout
    assert "2 of 2 paired CSVs byte-identical" in result.stdout
    assert "DIFFERENT" not in result.stdout


def test_one_changed_value(tmp_path):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", "1.0000000000000002")
    result = compare(tmp_path / "a", tmp_path / "b")
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    at = lines.index("run/diagnostics.csv: DIFFERENT")
    assert lines[at + 1].split() == ["t:", "max", "abs", "0.000e+00", "max",
                                     "rel", "0.000e+00"]
    assert lines[at + 2].split() == ["mass:", "max", "abs", "2.220e-16", "max",
                                     "rel", "2.220e-16"]
    assert "entropy.csv: byte-identical" in lines
    assert "phi_id: 0 of 1 differ (as strings)" in result.stdout


def compare_within(a, b, *options):
    return subprocess.run([sys.executable, str(SCRIPT), *options, str(a),
                           str(b)], capture_output=True, text=True, timeout=60)


def test_one_ulp_passes_a_relative_tolerance_only_when_asked(tmp_path):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", "1.0000000000000002")
    assert compare_within(tmp_path / "a", tmp_path / "b").returncode == 1
    result = compare_within(tmp_path / "a", tmp_path / "b", "--rtol", "1e-12")
    assert result.returncode == 0, result.stdout
    assert "run/diagnostics.csv: within tolerance" in result.stdout
    assert "1 of 2 paired CSVs byte-identical" in result.stdout
    assert "1 more within rtol=1e-12, atol=0" in result.stdout


def test_a_difference_near_zero_passes_only_the_absolute_tolerance(tmp_path):
    # the per-column relative maximum reads 0.5 here, though the values are
    # 1e-15 apart
    make_tree(tmp_path / "a", "1e-15")
    make_tree(tmp_path / "b", "2e-15")
    a, b = tmp_path / "a", tmp_path / "b"
    assert compare_within(a, b, "--rtol", "1e-12").returncode == 1
    assert compare_within(a, b, "--atol", "1e-16").returncode == 1
    assert compare_within(a, b, "--atol", "1e-14").returncode == 0
    assert compare_within(a, b, "--rtol", "1e-12",
                          "--atol", "1e-14").returncode == 0


@pytest.mark.parametrize("value_b, why", [
    ("nan", "NaN against a number"),
    ("inf", "an infinity against a number"),
    ("one", "text against a number"),
])
def test_a_tolerance_keeps_nan_infinity_and_text_exact(tmp_path, value_b, why):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", value_b)
    result = compare_within(tmp_path / "a", tmp_path / "b",
                            "--rtol", "1.0", "--atol", "1e300")
    assert result.returncode == 1, why
    assert "run/diagnostics.csv: DIFFERENT" in result.stdout


def test_a_tolerance_keeps_rows_and_headers_exact(tmp_path):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", "1.0")
    path = tmp_path / "b" / "run" / "diagnostics.csv"
    path.write_text(path.read_text() + "1.0,1.0\r\n")
    options = ("--rtol", "1.0", "--atol", "1e300")
    assert compare_within(tmp_path / "a", tmp_path / "b",
                          *options).returncode == 1
    path.write_text("t,mass_\r\n0.0,1.0\r\n0.5,1.0\r\n")
    assert compare_within(tmp_path / "a", tmp_path / "b",
                          *options).returncode == 1
    nans = tmp_path / "a" / "run" / "diagnostics.csv"
    nans.write_text("t,mass\r\n0.0,nan\r\n")
    path.write_text("t,mass\r\n0.0,nan\r\n")
    assert compare_within(tmp_path / "a", tmp_path / "b",
                          *options).returncode == 0


@pytest.mark.parametrize("options, n_dirs", [
    (["--rtol", "-1"], 2), (["--atol", "nan"], 2), (["--atol", "inf"], 2),
    (["--rtol"], 2), ([], 1),
])
def test_usage_errors_exit_2(tmp_path, options, n_dirs):
    make_tree(tmp_path / "a", "1.0")
    make_tree(tmp_path / "b", "1.0")
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")][:n_dirs]
    result = subprocess.run([sys.executable, str(SCRIPT), *options, *dirs],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
