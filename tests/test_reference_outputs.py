import importlib.util
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "reference_outputs.py"
spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
ref = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ref)


class FakeRun:
    """Stands in for ``subprocess.Popen`` and ``os.killpg``: each command
    exits 0, or 3 for ``failing``, and leaves a process of its session
    running for ``leaving``; records how many commands ran at once and
    which sessions were killed."""

    def __init__(self, failing=None, leaving=None):
        self.failing, self.leaving = failing, leaving
        self.lock = threading.Lock()
        self.running = self.most = 0
        self.killed = []

    def __call__(self, args, **kwargs):
        assert kwargs["start_new_session"]
        cfg = Path(args[args.index("--config") + 1]).relative_to(ref.ROOT)
        return FakeProcess(self, (cfg.as_posix(), args[-1]))

    def killpg(self, pgid, sig):
        if ref.COMMANDS[pgid] != self.leaving:
            raise ProcessLookupError(pgid)
        if sig:
            self.killed.append(ref.COMMANDS[pgid])


class FakeProcess:
    def __init__(self, run, command):
        self.run, self.command = run, command
        self.pid = ref.COMMANDS.index(command)
        with run.lock:
            run.running += 1
            run.most = max(run.most, run.running)

    def wait(self):
        # the first command of each pair ends after the second one
        time.sleep(0.02 if self.pid % 2 == 0 else 0.0)
        with self.run.lock:
            self.run.running -= 1
        return 3 if self.command == self.run.failing else 0


def run_script(monkeypatch, capsys, cpus, failing=None, leaving=None):
    fake = FakeRun(failing, leaving)
    monkeypatch.setattr(ref.subprocess, "Popen", fake)
    monkeypatch.setattr(ref.os, "killpg", fake.killpg)
    monkeypatch.setattr(ref.os, "sched_getaffinity", lambda pid: cpus)
    code = ref.main(["out"])
    return code, capsys.readouterr().out.splitlines(), fake


@pytest.mark.parametrize("cpus, at_once", [({0}, 1), ({0, 1}, 2),
                                           ({0, 1, 2, 3}, 2)])
def test_lines_in_fixed_order(monkeypatch, capsys, cpus, at_once):
    code, lines, fake = run_script(monkeypatch, capsys, cpus)
    assert code == 0
    assert lines == [f"{cfg} {cmd}: exit 0" for cfg, cmd in ref.COMMANDS] \
        + ["16 of 16 commands exited 0 and left nothing running"]
    assert fake.most == at_once
    assert fake.killed == []


def test_one_failing_command_exits_1(monkeypatch, capsys):
    failing = ("configs/reduction.cfg", "converge")
    code, lines, _ = run_script(monkeypatch, capsys, {0, 1}, failing)
    assert code == 1
    assert lines[ref.COMMANDS.index(failing)] \
        == "configs/reduction.cfg converge: exit 3"
    assert lines[-1] == "15 of 16 commands exited 0 and left nothing running"


def test_a_command_that_leaves_a_process_running_fails(monkeypatch, capsys):
    leaving = ("perfbench/configs/morse.cfg", "edb-check")
    code, lines, fake = run_script(monkeypatch, capsys, {0, 1},
                                   leaving=leaving)
    assert code == 1
    assert lines[ref.COMMANDS.index(leaving)] == \
        "perfbench/configs/morse.cfg edb-check: exit 0, left a process running"
    assert lines[-1] == "15 of 16 commands exited 0 and left nothing running"
    assert fake.killed == [leaving]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_a_real_leftover_is_seen_and_killed(monkeypatch, capsys):
    # the first command forks a child that outlives it; the second does not
    leaver = ("import os, time\n"
              "if os.fork() == 0:\n"
              "    time.sleep(60)\n"
              "    os._exit(0)\n")
    popen = subprocess.Popen
    started = []

    def stand_in(args, **kwargs):
        script = leaver if not started else "pass"
        proc = popen([sys.executable, "-c", script], **kwargs)
        started.append(proc.pid)
        return proc

    monkeypatch.setattr(ref, "COMMANDS", ref.COMMANDS[:2])
    monkeypatch.setattr(ref.subprocess, "Popen", stand_in)
    monkeypatch.setattr(ref.os, "sched_getaffinity", lambda pid: {0})
    assert ref.main(["out"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["configs/attractive.cfg run: exit 0, left a process "
                     "running", "configs/attractive.cfg edb-check: exit 0",
                     "1 of 2 commands exited 0 and left nothing running"]


def test_usage_error_exits_2(capsys):
    assert ref.main([]) == 2
    assert ref.main(["a", "b"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
