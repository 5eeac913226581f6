#!/usr/bin/env python3
"""Compare the CSV outputs of two directories, file by file and column by
column.

    python scripts/compare_outputs.py DIR_A DIR_B

CSVs are paired by their path relative to each directory.  For every pair
the script says whether the bytes are identical and prints, per column,
the largest absolute and relative difference of the values, read as
floats; a column with a value that is not a number on either side is
compared as strings and reports how many values differ.  Files found on
one side only are named.  The exit status is 0 only when every pair is
byte-identical and no file is missing on either side, 1 otherwise, and 2
for a usage error.
"""

import csv
import math
import sys
from pathlib import Path


def csv_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*.csv") if p.is_file()}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def column_summary(values_a: list[str], values_b: list[str]) -> str:
    nums_a = [as_float(v) for v in values_a]
    nums_b = [as_float(v) for v in values_b]
    if None in nums_a or None in nums_b:
        differ = sum(a != b for a, b in zip(values_a, values_b))
        return f"{differ} of {len(values_a)} differ (as strings)"
    max_abs = max_rel = 0.0
    for a, b in zip(nums_a, nums_b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b)
        if diff < math.inf:
            rel = diff / max(abs(a), abs(b))
        else:   # a NaN or an infinity on one side only
            diff = rel = math.inf
        max_abs, max_rel = max(max_abs, diff), max(max_rel, rel)
    return f"max abs {max_abs:.3e}  max rel {max_rel:.3e}"


def compare_file(rel: Path, path_a: Path, path_b: Path) -> bool:
    """Print the per-column report of one pair; True if byte-identical."""
    same = path_a.read_bytes() == path_b.read_bytes()
    print(f"{rel}: {'byte-identical' if same else 'DIFFERENT'}")
    rows_a, rows_b = read_rows(path_a), read_rows(path_b)
    header_a = rows_a[0] if rows_a else []
    header_b = rows_b[0] if rows_b else []
    if header_a != header_b:
        print(f"  header differs: {header_a} vs {header_b}")
    body_a, body_b = rows_a[1:], rows_b[1:]
    n_rows = min(len(body_a), len(body_b))
    if len(body_a) != len(body_b):
        print(f"  row count differs: {len(body_a)} vs {len(body_b)}; "
              f"comparing the first {n_rows}")
    for j, name in enumerate(header_a[:len(header_b)]):
        col_a = [row[j] if j < len(row) else "" for row in body_a[:n_rows]]
        col_b = [row[j] if j < len(row) else "" for row in body_b[:n_rows]]
        print(f"  {name:>16}: {column_summary(col_a, col_b)}")
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py DIR_A DIR_B (two directories)",
              file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    files_a, files_b = csv_files(root_a), csv_files(root_b)
    for root, rels in ((root_a, files_a - files_b), (root_b, files_b - files_a)):
        for rel in sorted(rels):
            print(f"only in {root}: {rel}")
    paired = sorted(files_a & files_b)
    identical = sum(compare_file(rel, root_a / rel, root_b / rel)
                    for rel in paired)
    print(f"{identical} of {len(paired)} paired CSVs byte-identical; "
          f"{len(files_a ^ files_b)} on one side only")
    return 0 if identical == len(paired) and files_a == files_b else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
