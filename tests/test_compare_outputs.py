import subprocess
import sys
from pathlib import Path

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
