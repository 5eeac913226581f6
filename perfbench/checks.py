"""Output checks for one pass: exit codes, CSV headers, CSV digests."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from workloads import HEADERS, OUTPUTS


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def command_problem(command: str, returncode, out_dir: Path) -> str | None:
    """Why a command counts as failed, or None when its exit code is 0 and
    every CSV it documents exists with the documented header."""
    if returncode != 0:
        return f"exit code {returncode}"
    for name in OUTPUTS[command]:
        path = out_dir / name
        if not path.is_file():
            return f"{name} missing"
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n")
        if header != HEADERS[name]:
            return f"{name} header {header!r}"
    return None


@dataclass
class PassCheck:
    """Checks of one pass; ``digests`` maps ``<step key>/<csv>`` to sha256."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def check_pass(steps, returncodes, out_dirs) -> PassCheck:
    """``steps`` is [(key, command)], aligned with exit codes and output
    directories."""
    result = PassCheck()
    for (key, command), code, out_dir in zip(steps, returncodes, out_dirs):
        result.attempted += 1
        problem = command_problem(command, code, out_dir)
        if problem is not None:
            result.failed += 1
            result.problems.append(f"{key}: {problem}")
            continue
        for name in OUTPUTS[command]:
            result.digests[f"{key}/{name}"] = sha256_file(out_dir / name)
    return result


def changed_outputs(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """CSVs whose digest differs from, or is missing in, the reference."""
    return sorted(key for key, value in digests.items()
                  if reference.get(key) != value)


def failed_share(checks) -> float:
    return sum(c.failed for c in checks) / sum(c.attempted for c in checks)
