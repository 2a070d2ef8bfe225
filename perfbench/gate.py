"""Correctness gate: decides whether one CLI op produced a right answer.

Solve ops are checked against a reference objective computed outside
barylp (``reference.py``); export ops are checked against the paper's
closed-form model sizes, written out here rather than taken from
``barylp.models.predict_sizes``.  Every function returns a list of
problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math

OBJECTIVE_TOL = 1e-8

# vertex solutions satisfy these; the CLI reports them as advisory checks
REQUIRED_CHECKS = ("total-mass", "marginals", "cost", "sparsity", "non-mass-splitting")

EXPORT_FORMULATIONS = ("original", "reduced", "general", "hybrid")


def closed_form_size(formulation: str, n: int, p: int) -> tuple[int, int]:
    """(rows, columns) of a general-position model with n measures of p
    points each, every combination yielding a distinct mean."""
    if formulation == "original":
        return n * p**n + n * p, n * p ** (n + 1) + p**n
    if formulation == "reduced":
        return n * p**n + n * p, (1 + n) * p**n
    if formulation in ("general", "hybrid"):
        return n * p, p**n
    raise ValueError(f"no closed form for {formulation!r}")


def check_solution(path: str, reference: float) -> list[str]:
    """Problems with the solution JSON a ``solve --out`` op wrote."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable solution {path}: {exc}"]
    problems = []
    if doc.get("status") != "optimal":
        problems.append(f"status {doc.get('status')!r}")
    for key in ("objective", "cost"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{key} {value!r} is not a finite number")
        elif abs(value - reference) > OBJECTIVE_TOL:
            problems.append(f"{key} {value!r} is {abs(value - reference):.3g} from reference {reference!r}")
    checks = doc.get("verification")
    if not isinstance(checks, dict):
        problems.append("no verification report")
        checks = {}
    for name in REQUIRED_CHECKS:
        if name not in checks:
            problems.append(f"verification lacks {name}")
    problems.extend(f"verification {name} failed" for name, ok in checks.items() if ok is not True)
    return problems


def mps_size(path: str) -> tuple[int, int]:
    """(constraint rows, distinct columns) of a fixed-format MPS file,
    read line by line so the check adds no large allocation."""
    section = None
    rows = 0
    columns = set()
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            if not line[0].isspace():
                section = line.split()[0]
                continue
            fields = line.split()
            if section == "ROWS" and fields[0] != "N":
                rows += 1
            elif section == "COLUMNS":
                columns.add(fields[0])
    return rows, len(columns)


def check_export(prefix: str, n: int, p: int) -> list[str]:
    """Problems with the MPS files an ``export --formulation all`` op wrote."""
    problems = []
    for formulation in EXPORT_FORMULATIONS:
        path = f"{prefix}-{formulation}.mps"
        try:
            got = mps_size(path)
        except (OSError, IndexError, UnicodeDecodeError) as exc:
            problems.append(f"unreadable model {path}: {exc}")
            continue
        want = closed_form_size(formulation, n, p)
        if got != want:
            problems.append(f"{path}: {got[0]} rows x {got[1]} columns, closed form {want[0]} x {want[1]}")
    return problems
