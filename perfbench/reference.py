"""Reference objectives for barycenter problems, independent of barylp.

Reads problem JSON files (the format ``barylp solve`` takes), assembles the
fixed-transport ("general") LP with numpy, one column per combination of
support points, and solves it with scipy's HiGHS.  Prints one JSON object
mapping each path to its optimal objective.

    python3 perfbench/reference.py problem1.json [problem2.json ...]

The benchmark runs this in a child process so that the memory HiGHS uses
does not count towards the high-water RSS of the process that runs the CLI.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# tighter than HiGHS's defaults (1e-7), so the reference objective is
# accurate well inside the benchmark's 1e-8 acceptance tolerance
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def general_lp(doc: dict):
    """Cost vector, equality matrix and right-hand side of the general LP."""
    points = [np.asarray(m["points"], dtype=np.float64) for m in doc["measures"]]
    masses = [np.asarray(m["masses"], dtype=np.float64) for m in doc["measures"]]
    n = len(points)
    weights = np.asarray(doc.get("weights") or [1.0 / n] * n, dtype=np.float64)
    sizes = [len(p) for p in points]

    combos = np.indices(sizes).reshape(n, -1).T  # (columns, n) point indices
    gathered = np.stack([points[i][combos[:, i]] for i in range(n)])  # (n, C, d)
    mean = np.einsum("i,icd->cd", weights, gathered)
    cost = np.einsum("i,ic->c", weights, ((gathered - mean) ** 2).sum(axis=2))

    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    columns = combos.shape[0]
    matrix = sp.csc_matrix(
        (
            np.ones(columns * n),
            (combos + offsets).ravel(),
            np.arange(0, columns * n + 1, n),
        ),
        shape=(sum(sizes), columns),
    )
    return cost, matrix, np.concatenate(masses)


def reference_objective(doc: dict) -> float:
    cost, matrix, rhs = general_lp(doc)
    res = linprog(
        cost, A_eq=matrix, b_eq=rhs, bounds=(0, None), method="highs",
        options=HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return float(res.fun)


def main(paths: list[str]) -> int:
    objectives = {}
    for path in paths:
        with open(path) as fh:
            objectives[path] = reference_objective(json.load(fh))
    print(json.dumps(objectives))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
