import importlib.util
import subprocess
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
    """Stands in for ``subprocess.run``: exits 0, or 3 for ``failing``,
    and records how many commands ran at once."""

    def __init__(self, failing=None):
        self.failing = failing
        self.lock = threading.Lock()
        self.running = self.most = 0

    def __call__(self, args, **kwargs):
        cfg = Path(args[args.index("--config") + 1]).relative_to(ref.ROOT)
        command = (cfg.as_posix(), args[-1])
        with self.lock:
            self.running += 1
            self.most = max(self.most, self.running)
        # the first command of each pair ends after the second one
        time.sleep(0.02 if ref.COMMANDS.index(command) % 2 == 0 else 0.0)
        with self.lock:
            self.running -= 1
        return subprocess.CompletedProcess(
            args, 3 if command == self.failing else 0)


def run_script(monkeypatch, capsys, cpus, failing=None):
    fake = FakeRun(failing)
    monkeypatch.setattr(ref.subprocess, "run", fake)
    monkeypatch.setattr(ref.os, "sched_getaffinity", lambda pid: cpus)
    code = ref.main(["out"])
    return code, capsys.readouterr().out.splitlines(), fake.most


@pytest.mark.parametrize("cpus, at_once", [({0}, 1), ({0, 1}, 2),
                                           ({0, 1, 2, 3}, 2)])
def test_lines_in_fixed_order(monkeypatch, capsys, cpus, at_once):
    code, lines, most = run_script(monkeypatch, capsys, cpus)
    assert code == 0
    assert lines == [f"{cfg} {cmd}: exit 0" for cfg, cmd in ref.COMMANDS] \
        + ["16 of 16 commands exited 0"]
    assert most == at_once


def test_one_failing_command_exits_1(monkeypatch, capsys):
    failing = ("configs/reduction.cfg", "converge")
    code, lines, _ = run_script(monkeypatch, capsys, {0, 1}, failing)
    assert code == 1
    assert lines[ref.COMMANDS.index(failing)] \
        == "configs/reduction.cfg converge: exit 3"
    assert lines[-1] == "15 of 16 commands exited 0"


def test_usage_error_exits_2(capsys):
    assert ref.main([]) == 2
    assert ref.main(["a", "b"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
