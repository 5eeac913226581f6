"""Output checks and seed handling of the benchmark."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checks import changed_outputs, check_pass, failed_share  # noqa: E402
from workloads import (AMPLITUDE, AMPLITUDE_JITTER, HEADERS,  # noqa: E402
                       WORKLOADS, command_lines, seed_overrides)


def _write_csv(directory: Path, name: str, rows=("0.0,1.0",)):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(HEADERS[name] + "\n" + "\n".join(rows) + "\n")


def test_digest_check_flags_an_edited_csv(tmp_path):
    out = tmp_path / "oracle"
    _write_csv(out, "oracle_compare.csv", ["0.5,0.0123"])
    steps = [("oracle-compare:reduction", "oracle-compare")]
    recorded = check_pass(steps, [0], [out]).digests
    assert changed_outputs(check_pass(steps, [0], [out]).digests, recorded) == []

    _write_csv(out, "oracle_compare.csv", ["0.5,0.0124"])
    again = check_pass(steps, [0], [out])
    assert again.failed == 0
    assert changed_outputs(again.digests, recorded) == [
        "oracle-compare:reduction/oracle_compare.csv"]


def test_failed_ops_counts_a_nonzero_exit(tmp_path):
    ok, bad = tmp_path / "ok", tmp_path / "bad"
    _write_csv(ok, "entropy.csv", ["0.25,a,0.1"])
    _write_csv(bad, "entropy.csv", ["0.25,a,-1.0"])
    steps = [("entropy-check:a", "entropy-check"),
             ("entropy-check:b", "entropy-check")]
    check = check_pass(steps, [0, 2], [ok, bad])
    assert (check.attempted, check.failed) == (2, 1)
    assert failed_share([check]) == 0.5
    assert list(check.digests) == ["entropy-check:a/entropy.csv"]


def test_missing_csv_or_wrong_header_fails(tmp_path):
    run_dir = tmp_path / "run"
    _write_csv(run_dir, "snapshots.csv")
    _write_csv(run_dir, "variational.csv")
    steps = [("run:x", "run")]
    assert check_pass(steps, [0], [run_dir]).failed == 1   # no diagnostics
    (run_dir / "diagnostics.csv").write_text("t,mass\n0,1\n")
    check = check_pass(steps, [0], [run_dir])
    assert check.failed == 1 and "header" in check.problems[0]


def test_seed_zero_runs_configs_exactly_and_other_seeds_repeat():
    configs = ["a.cfg", "b.cfg"]
    assert seed_overrides(0, configs) == {"a.cfg": (), "b.cfg": ()}
    first = seed_overrides(7, configs)
    assert first == seed_overrides(7, configs)
    assert first != seed_overrides(8, configs)
    for items in first.values():
        amp = float(items[0].split("=", 1)[1])
        assert abs(amp - AMPLITUDE) <= AMPLITUDE_JITTER


def test_command_lines_pass_only_generated_overrides(tmp_path):
    lines = command_lines(WORKLOADS["reduction"], 3, tmp_path)
    key, command, argv = lines[0]
    assert (key, command) == ("converge:reduction", "converge")
    assert argv[:2] == ["--config", str(tmp_path / "configs/reduction.cfg")]
    assert argv[-1] == "converge"
    overrides = [argv[i + 1] for i, a in enumerate(argv) if a == "--override"]
    assert overrides[0] == "discretization.N_list=50,100,200,400"
    assert [o.split("=")[0] for o in overrides[1:]] == [
        "problem.initial.amplitude", "problem.initial.center"]
