"""The README's Library snippet runs against the package as it is, and
its CSV schemas are the headers of the tables the package writes."""

import os
import re
import subprocess
import sys
from pathlib import Path

from partmob import diagnostics as diag
from partmob import variational as var
from partmob.cli import main
from partmob.reconstruct import SNAPSHOT_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def test_library_snippet_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def readme_headers() -> dict:
    """CSV schema name -> documented header, from the README's list."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("CSV schemas:", 1)[1].split("\n## ", 1)[0]
    return {name: header.split(",") for name, header
            in re.findall(r"^- ([a-z ]+): `([^`]+)`", section, re.M)}


def cli_header(tmp_path, command, csv_name):
    out = tmp_path / command
    assert main(["--config", str(ROOT / "configs" / "reduction.cfg"),
                 "--out-dir", str(out),
                 "--override", "discretization.N=20",
                 "--override", "discretization.N_list=10,20",
                 "--override", "oracle.fv_dx=0.01", command]) == 0
    return (out / csv_name).read_text().splitlines()[0].split(",")


def test_table_keys_are_the_documented_headers(tmp_path, short_attractive_run,
                                               attractive_problem):
    traj = short_attractive_run
    headers = readme_headers()
    phis = diag.standard_bump_grid(float(traj.times[-1]), -1.5, 1.5,
                                   n_centers=1)
    tables = {
        "diagnostics": diag.diagnostics_records(traj.fields,
                                                attractive_problem),
        "variational": var.gradient_records(traj),
        "entropy": diag.entropy_report(traj.fields, attractive_problem,
                                       [0.5], phis, time_stride=10),
    }
    for name, table in tables.items():
        assert list(table) == headers[name], name
        assert len({len(column) for column in table.values()}) == 1, name
    assert cli_header(tmp_path, "converge", "refinement.csv") == \
        headers["refinement"]
    assert cli_header(tmp_path, "oracle-compare", "oracle_compare.csv") == \
        headers["oracle comparison"]
    assert headers["snapshots"] == list(SNAPSHOT_COLUMNS)
