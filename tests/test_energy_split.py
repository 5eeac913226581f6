"""run's stored-time split, as cases of the fork harness in
test_fork_join.py: from cpus.RUN_FORK_MIN particle-rows on, each side
formats its half of snapshots.csv and computes its half of every per-time
column of diagnostics.csv and variational.csv, the energies F_h and Fhat_h
among them."""

import pytest

from partmob import cli


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
