#!/usr/bin/env python3
"""Compare the CSV outputs of two directories, file by file and column by
column.

    python scripts/compare_outputs.py [--rtol R] [--atol A] DIR_A DIR_B

CSVs are paired by their path relative to each directory.  For every pair
the script says whether the bytes are identical and prints, per column,
the largest absolute and relative difference of the values, read as
floats; a column with a value that is not a number on either side is
compared as strings and reports how many values differ.  Files found on
one side only are named.  The exit status is 0 only when every pair is
byte-identical and no file is missing on either side, 1 otherwise, and 2
for a usage error.

Given ``--rtol`` or ``--atol`` (each 0 by default), a pair that is not
byte-identical still passes when every value pair ``a, b`` that reads as
floats on both sides satisfies ``|a - b| <= max(rtol * max(|a|, |b|),
atol)``, tested value by value: per-column maxima cannot decide it near
zero.  Everything else stays exact: the headers, the row counts, the
cells that are not numbers, and where NaN and the infinities stand.
"""

import argparse
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


def within(text_a: str, text_b: str, rtol: float, atol: float) -> bool:
    """Whether two cells agree: equal text, or floats on both sides within
    ``max(rtol * max(|a|, |b|), atol)`` of each other, NaN only with NaN
    and an infinity only with itself."""
    if text_a == text_b:
        return True
    a, b = as_float(text_a), as_float(text_b)
    if a is None or b is None:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def rows_within(rows_a, rows_b, rtol: float, atol: float) -> bool:
    """The same header, row count and row lengths, and every cell
    :func:`within` its counterpart."""
    return (rows_a[:1] == rows_b[:1] and len(rows_a) == len(rows_b)
            and all(len(ra) == len(rb)
                    and all(within(a, b, rtol, atol) for a, b in zip(ra, rb))
                    for ra, rb in zip(rows_a[1:], rows_b[1:])))


def compare_file(rel: Path, path_a: Path, path_b: Path,
                 tolerance=None) -> str:
    """Print the per-column report of one pair; return "byte-identical",
    "within tolerance" (only given ``(rtol, atol)``) or "DIFFERENT"."""
    rows_a, rows_b = read_rows(path_a), read_rows(path_b)
    if path_a.read_bytes() == path_b.read_bytes():
        verdict = "byte-identical"
    elif tolerance is not None and rows_within(rows_a, rows_b, *tolerance):
        verdict = "within tolerance"
    else:
        verdict = "DIFFERENT"
    print(f"{rel}: {verdict}")
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
    return verdict


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_outputs.py",
        description="Compare the CSV outputs of two directories.")
    parser.add_argument("--rtol", type=float, default=None,
                        help="relative tolerance per value (default: exact)")
    parser.add_argument("--atol", type=float, default=None,
                        help="absolute tolerance per value (default: exact)")
    parser.add_argument("dirs", nargs=2, metavar="DIR")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # usage error, or --help
        return 2 if exc.code else 0
    tolerances = (args.rtol, args.atol)
    if not all(Path(d).is_dir() for d in args.dirs) or \
            not all(t is None or 0.0 <= t < math.inf for t in tolerances):
        print("usage: compare_outputs.py [--rtol R] [--atol A] DIR_A DIR_B "
              "(two directories, finite non-negative tolerances)",
              file=sys.stderr)
        return 2
    tolerance = None if tolerances == (None, None) else \
        tuple(t or 0.0 for t in tolerances)
    root_a, root_b = map(Path, args.dirs)
    files_a, files_b = csv_files(root_a), csv_files(root_b)
    for root, rels in ((root_a, files_a - files_b), (root_b, files_b - files_a)):
        for rel in sorted(rels):
            print(f"only in {root}: {rel}")
    paired = sorted(files_a & files_b)
    verdicts = [compare_file(rel, root_a / rel, root_b / rel, tolerance)
                for rel in paired]
    identical = verdicts.count("byte-identical")
    close = verdicts.count("within tolerance")
    print(f"{identical} of {len(paired)} paired CSVs byte-identical; "
          f"{len(files_a ^ files_b)} on one side only")
    if tolerance is not None:
        print(f"{close} more within rtol={tolerance[0]:g}, "
              f"atol={tolerance[1]:g}")
    passed = identical + close == len(paired) and files_a == files_b
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
