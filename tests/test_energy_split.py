"""run's stored-time split, as cases of the fork harness in
test_fork_join.py: from cpus.RUN_FORK_MIN snapshot values on, each side
formats its half of snapshots.csv and computes its half of every per-time
column of diagnostics.csv and variational.csv, the energies F_h and Fhat_h
among them."""

from pathlib import Path

import pytest

from partmob import cli, cpus

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", ["abs", "morse", "zero", "no-norms",
                                  "no-edb", "balance", "h1"])
def test_two_cpus_give_the_one_process_bits(case, harness):
    code, out, err, _ = harness.same_outputs(f"run-{case}")
    if code == cli.EXIT_OK:
        assert (out, err) == ("run ok: 31 stored times, outputs in OUT\n",
                              "")


@pytest.mark.parametrize("kind", ["abs", "morse", "zero"])
@pytest.mark.parametrize("failure", ["worker", "fork"])
def test_a_failed_worker_is_replaced_by_the_caller(kind, failure, harness):
    harness.worker_failure(f"run-{kind}", failure)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_caller_failure_propagates_and_reaps_the_worker(error, harness):
    harness.caller_failure("run-morse", error)


@pytest.mark.parametrize("threshold, n_forks", [(2_325, 1), (2_326, 0)])
def test_the_threshold_counts_snapshot_values(threshold, n_forks, harness,
                                              monkeypatch):
    # 31 stored times x (3 x 24 + 3) values
    monkeypatch.setattr(cpus, "RUN_FORK_MIN", threshold)
    assert harness.outputs("run-abs", "run", on=None)[0] == cli.EXIT_OK
    harness.assert_forks(n_forks)


def test_small_runs_stay_in_one_process(tmp_path, capfd, forks):
    # the benchmark's traced N = 20 run: 21 stored times x 63 values; the
    # figure configs (1001 x 603) and morse.cfg (11 x 1,203) split
    assert 21 * 63 < cpus.RUN_FORK_MIN <= 11 * 1_203 < 1_001 * 603
    code = cli.main(["--config", str(ROOT / "configs" / "attractive.cfg"),
                     "--out-dir", str(tmp_path), "--override",
                     "discretization.N=20", "--override",
                     "discretization.t_end=0.02", "run"])
    assert code == cli.EXIT_OK
    assert "run ok: 21 stored times" in capfd.readouterr().out
    assert forks[0] == []
