"""Correctness gate: compare a run's artifacts with the recorded reference.

A reference keeps, for every artifact (``summary.json`` and each CSV), the
SHA-256 of its bytes, a hash of its non-numeric skeleton, the count of its
numbers and, for every row of numbers, their mean and their mean weighted
by position (weights 1, 2, ..., n).  A CSV row is a line of the file; each
number of ``summary.json`` is a row of its own.  The full files are not
committed: one ``ts_maps`` run writes about 7 MB of CSV.

Byte-identical artifacts pass with drift 0.  Otherwise the skeleton and
the count must match, and the drift is the largest absolute difference of
a row's mean or weighted mean from the reference; the artifact passes if
the drift is at most ``TOLERANCE``.  Both are averages with positive
weights, so the drift never exceeds the largest difference of any single
number: a change that moves no number by more than ``TOLERANCE`` passes.
Rows give the check its reach: a map swapped by rows or reordered within
a row moves the means of the rows it touches, and an error ``e`` in one
number of a 251-number map row moves that row's mean by ``e / 251``, so
it fails once ``e`` exceeds about 2.5e-6.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The ROADMAP lets a change that reorders floating point move each
# parameter-shift gradient entry by up to 1e-12.  Adding +-1e-12 to every
# gradient entry moved the artifacts of config seed 11 by at most 6.3e-11
# (ts_readme), 2.1e-9 (ts_wide_t2) and 1.7e-11 (ts_maps); summing the
# gradient in reverse order moved them by at most 7.1e-15.  1e-8 admits
# such changes with a margin of five, and any real defect, which moves
# losses and map values by orders of magnitude more, fails.
TOLERANCE = 1e-8


def _number_rows_and_skeleton(path: Path) -> tuple[list[list[float]], str]:
    if path.suffix == ".json":
        rows: list[list[float]] = []

        def walk(node):
            if isinstance(node, bool) or node is None or isinstance(node, str):
                return node
            if isinstance(node, (int, float)):
                rows.append([float(node)])
                return "#"
            if isinstance(node, list):
                return [walk(v) for v in node]
            return {k: walk(v) for k, v in sorted(node.items())}

        skeleton = walk(json.loads(path.read_text()))
        return rows, json.dumps(skeleton, sort_keys=True)
    rows = []
    layout = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            cells = []
            numbers = []
            for cell in row:
                try:
                    numbers.append(float(cell))
                    cells.append("#")
                except ValueError:
                    cells.append(cell)
            if numbers:
                rows.append(numbers)
            layout.append(cells)
    return rows, json.dumps(layout)


def _row_means(numbers: list[float]) -> list[float]:
    """[mean, mean weighted by position 1..n] of one row."""
    n = len(numbers)
    weighted = math.fsum((i + 1) * x for i, x in enumerate(numbers))
    return [math.fsum(numbers) / n, weighted / (n * (n + 1) / 2)]


def fingerprint(path: Path) -> dict:
    data = path.read_bytes()
    rows, skeleton = _number_rows_and_skeleton(path)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "skeleton": hashlib.sha256(skeleton.encode()).hexdigest(),
        "count": sum(len(r) for r in rows),
        "rows": [_row_means(r) for r in rows],
    }


def artifacts(out_dir: Path) -> list[Path]:
    """Every file a run left, except ``config.txt``, which names the output
    directory and so differs between runs."""
    return sorted(p for p in out_dir.iterdir() if p.name != "config.txt")


def check(out_dir: Path, reference: dict) -> tuple[float, list[str]]:
    """(max_abs_drift, problems) of one run against its reference; the run
    passes if there are no problems."""
    problems: list[str] = []
    drift = 0.0
    found = {p.name: p for p in artifacts(out_dir)}
    for name in sorted(set(found) ^ set(reference)):
        problems.append(f"{name}: {'unexpected' if name in found else 'missing'}")
    for name in sorted(set(found) & set(reference)):
        ref = reference[name]
        path = found[name]
        if hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]:
            continue
        try:
            got = fingerprint(path)
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if got["skeleton"] != ref["skeleton"] or got["count"] != ref["count"]:
            problems.append(f"{name}: layout differs")
            continue
        diffs = [abs(a - b) for row, ref_row in zip(got["rows"], ref["rows"])
                 for a, b in zip(row, ref_row)]
        file_drift = math.nan if any(map(math.isnan, diffs)) else max(diffs, default=0.0)
        if not file_drift <= TOLERANCE:  # also catches NaN
            problems.append(f"{name}: drift {file_drift:.3g} > {TOLERANCE:g}")
        if file_drift > drift or math.isnan(file_drift):
            drift = file_drift
    return drift, problems
