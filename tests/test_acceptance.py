"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single ``ACCEPTANCE criterion N`` line on success (visible
with ``pytest -s``); under ``pytest -v`` the per-test PASS/FAIL lines serve
the same purpose.
"""

import math
import time

import numpy as np
import pytest

from barylp import generators
from barylp.models import (
    build_general,
    build_hybrid,
    build_original,
    build_reduced,
    predict_sizes,
    variable_reduction,
)
from barylp.oracle import (
    basis_enumeration_solve,
    dice_enumeration,
    enumerate_duplicates,
    mean_key,
)
from barylp.solver import extract_barycenter, solve
from barylp.support import (
    build_atlas_exact,
    build_atlas_grid,
    hybrid_split,
)

from conftest import count_dice

SEED = 20260810

# ten full-grid cases covering n in {2,3,4}, K in {2,3,4}, d in {1,2}
GRID_CASES = [
    (2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 4, 1), (4, 4, 1),
    (2, 2, 2), (2, 4, 2), (3, 3, 2), (4, 2, 2), (4, 3, 1),
]

ZY_FORMS = ("original", "reduced", "hybrid")


def _solve_record(problem, kind, params):
    atlas = build_atlas_exact(problem)
    split = hybrid_split(atlas)
    models = {
        "original": build_original(atlas, problem),
        "reduced": build_reduced(atlas, problem),
        "general": build_general(problem),
        "hybrid": build_hybrid(atlas, split, problem),
    }
    solutions = {}
    barys = {}
    for name, model in models.items():
        solution = solve(model)
        assert solution.status == "optimal", (kind, params, name, solution.status)
        solutions[name] = solution
        barys[name] = extract_barycenter(
            solution, model, problem, atlas=atlas if name in ZY_FORMS else None
        )
    return {
        "kind": kind,
        "params": params,
        "problem": problem,
        "atlas": atlas,
        "models": models,
        "solutions": solutions,
        "barys": barys,
    }


@pytest.fixture(scope="module")
def suite():
    """50 seeded general-position + 10 full-grid instances, all solved with
    every applicable formulation."""
    start = time.perf_counter()
    records = []
    rng = np.random.default_rng(SEED)
    for idx in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        random_w = bool(rng.integers(0, 2))
        problem = generators.general_position(
            n, p, d, seed=SEED + idx, random_weights=random_w
        )
        record = _solve_record(problem, "general-position", (n, p, d))
        # the suite relies on the draw truly being in general position
        assert record["atlas"].point_count == problem.combination_total()
        records.append(record)
    for n, K, d in GRID_CASES:
        problem = generators.grid(n, K, d, seed=SEED + 100 * n + 10 * K + d)
        records.append(_solve_record(problem, "full-grid", (n, K, d)))
    return {"records": records, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def grid_442():
    problem = generators.grid(4, 4, 2, seed=SEED)
    return {
        "problem": problem,
        "exact": build_atlas_exact(problem),
        "grid": build_atlas_grid(problem),
    }


def test_criterion_01_cross_formulation_optimality(suite):
    for record in suite["records"]:
        objectives = {
            name: sol.objective_value for name, sol in record["solutions"].items()
        }
        spread = max(objectives.values()) - min(objectives.values())
        assert spread <= 1e-8, (record["kind"], record["params"], objectives)
    n_gp = sum(1 for r in suite["records"] if r["kind"] == "general-position")
    n_grid = sum(1 for r in suite["records"] if r["kind"] == "full-grid")
    assert (n_gp, n_grid) == (50, 10)
    assert suite["elapsed"] < 120.0, f"suite took {suite['elapsed']:.1f}s"
    print(
        f"ACCEPTANCE criterion 1 PASS - objectives agree within 1e-8 on "
        f"{n_gp} general-position + {n_grid} full-grid instances "
        f"({suite['elapsed']:.1f}s)"
    )


def test_criterion_02_general_position_size_formulas(suite):
    checked = 0
    for record in suite["records"]:
        if record["kind"] != "general-position":
            continue
        n, p, _ = record["params"]
        for name in ("original", "reduced", "general", "hybrid"):
            model = record["models"][name]
            pred = predict_sizes("general-position", name, n, p)
            assert model.num_vars == pred.variables, (record["params"], name)
            assert model.num_constraints == pred.constraints, (record["params"], name)
            checked += 1
    assert checked == 200
    print(f"ACCEPTANCE criterion 2 PASS - {checked} built models match the closed forms")


def test_criterion_03_full_grid_size_formula(grid_442):
    for n in (2, 3, 4):
        for K in (2, 3, 4):
            for d in (1, 2):
                if (n, K, d) == (4, 4, 2):
                    problem = grid_442["problem"]
                    atlas = grid_442["exact"]
                else:
                    problem = generators.grid(n, K, d, seed=SEED + n + K + d)
                    atlas = build_atlas_exact(problem)
                model = build_original(atlas, problem)
                fine = (n * K - n + 1) ** d
                assert model.num_vars == fine * (1 + n * K**d), (n, K, d)
                assert model.num_constraints == n * K**d + n * fine, (n, K, d)
    big = build_original(grid_442["exact"], grid_442["problem"])
    assert (big.num_vars, big.num_constraints) == (10_985, 740)
    # worst-case sizing of the fixed-transport model on the same instance:
    # the raw product of support sizes, squeezed into 169 candidates
    big_general = build_general(grid_442["problem"])
    assert (big_general.num_vars, big_general.num_constraints) == (16**4, 64)
    assert grid_442["exact"].point_count == 169
    print("ACCEPTANCE criterion 3 PASS - full-grid sizes match, incl. 10985/740 at n=4,K=4,d=2")


def test_criterion_04_percentage_reductions():
    limit = 100.0 * variable_reduction("original", "reduced", p=256)
    assert abs(limit - 99.61) < 0.01, limit
    ratio = 100.0 * variable_reduction("reduced", "general", n=4)
    assert abs(ratio - 80.0) < 0.01, ratio
    # the exact (n, p) formula agrees with the closed-form sizes
    for n in (2, 3, 4):
        for p in (4, 16, 256):
            frm = predict_sizes("general-position", "original", n, p).variables
            to = predict_sizes("general-position", "reduced", n, p).variables
            got = variable_reduction("original", "reduced", n=n, p=p)
            assert abs(got - (1.0 - to / frm)) < 1e-12
            assert abs(got - (1.0 - (1.0 + n) / (1.0 + n * p))) < 1e-12
    print(
        f"ACCEPTANCE criterion 4 PASS - reductions {limit:.4f}% (p=256) "
        f"and {ratio:.1f}% (n=4) within 0.01 points"
    )


def test_criterion_05_dice_counting_formula():
    checked = 0
    for sides in range(1, 7):
        for dice in range(1, 5):
            for total in range(dice - 1, sides * dice + 2):
                assert count_dice(total, sides, dice) == dice_enumeration(
                    total, sides, dice
                ), (total, sides, dice)
                checked += 1
    assert count_dice(10, 4, 4) == 44
    print(f"ACCEPTANCE criterion 5 PASS - formula matches enumeration on {checked} cases")


def test_criterion_06_grid_geometry(grid_442):
    exact = grid_442["exact"]
    fast = grid_442["grid"]
    assert exact.point_count == 169
    assert fast.point_count == 169
    assert np.array_equal(exact.support_points, fast.support_points)
    assert exact.multiplicity == fast.multiplicity
    for j in range(fast.point_count):
        assert exact.sources(j) == fast.sources(j), j
    print("ACCEPTANCE criterion 6 PASS - exact and grid atlases identical, |S| = 169")


def test_criterion_07_sparsity_and_no_splitting(suite):
    checked = 0
    for record in suite["records"]:
        problem = record["problem"]
        bound = sum(problem.sizes) - problem.n + 1
        for name, bary in record["barys"].items():
            assert len(bary.support) <= bound, (record["params"], name)
            assert bary.verification["sparsity"].passed
            assert bary.verification["non-mass-splitting"].passed, (
                record["params"],
                name,
            )
            checked += 1
    print(
        f"ACCEPTANCE criterion 7 PASS - {checked} extracted vertices sparse "
        "and non-mass-splitting"
    )


def test_criterion_08_oracle_equivalence():
    shapes = [(2, 2), (2, 3), (3, 2)]
    models_checked = 0
    for seed in range(50):
        n, p = shapes[seed % len(shapes)]
        problem = generators.general_position(
            n, p, 1 + seed % 2, seed=SEED + 300 + seed, random_weights=seed % 2 == 0
        )
        model = build_general(problem)
        reference = basis_enumeration_solve(model)
        assert reference.status == "optimal"
        solution = solve(model)
        assert solution.status == "optimal"
        assert abs(solution.objective_value - reference.value) <= 1e-9
        models_checked += 1
    assert models_checked >= 50

    duplicate_cases = [
        generators.general_position(3, 3, 2, seed=SEED + 400),
        generators.general_position(2, 4, 1, seed=SEED + 401, random_weights=True),
        generators.grid(3, 3, 1, seed=SEED + 402),
        generators.grid(4, 4, 1, seed=SEED + 403),
        generators.grid(2, 3, 2, seed=SEED + 404),
        generators.grid(3, 2, 2, seed=SEED + 405),
        generators.mixed(3, 2, 2, seed=SEED + 406),
        generators.mixed(2, 3, 1, seed=SEED + 407),
    ]
    for problem in duplicate_cases:
        atlas = build_atlas_exact(problem)
        counts = enumerate_duplicates(problem)
        assert len(counts) == atlas.point_count
        assert sum(counts.values()) == problem.combination_total()
        for j, point in enumerate(atlas.support_points):
            assert counts[mean_key(problem, point)] == atlas.multiplicity[j]
    print(
        f"ACCEPTANCE criterion 8 PASS - simplex matches basis enumeration on "
        f"{models_checked} models; multiplicities match on "
        f"{len(duplicate_cases)} instances"
    )


def _feasible_cells(total, K, m):
    # lattice values one measure may contribute when m measures sum to total
    return max(0, min(K, total - (m - 1)) - max(1, total - (m - 1) * K) + 1)


def mixed_variable_counts(n, K, extra):
    """Exact model sizes for the shared-grid-plus-extras shape (d=2).

    Combinations decompose by which measures pick one of their own far-away
    points; the grid-choosing remainder collapses by per-axis sums.  Counts
    are exact provided the extra points create no accidental collisions,
    which the generator guarantees by construction.
    """
    cells = K * K
    support_size = cells + extra
    counts = {
        "general": support_size**n,
        "reduced": 0,
        "hybrid": 0,
        "points": 0,
        "on_y": 0,
    }
    for t in range(n + 1):
        m = n - t  # measures contributing grid cells
        choices = math.comb(n, t) * extra**t
        if m == 0:
            counts["points"] += choices
            counts["reduced"] += choices * (1 + n)
            counts["hybrid"] += choices  # multiplicity 1: keep fixed transport
            continue
        for s1 in range(m, m * K + 1):
            c1 = _feasible_cells(s1, K, m)
            f1 = count_dice(s1, K, m)
            for s2 in range(m, m * K + 1):
                c2 = _feasible_cells(s2, K, m)
                f2 = count_dice(s2, K, m)
                multiplicity = f1 * f2
                sources = t + m * c1 * c2
                counts["points"] += choices
                counts["reduced"] += choices * (1 + sources)
                if multiplicity > sources + 1:
                    counts["hybrid"] += choices * (1 + sources)
                    counts["on_y"] += choices
                else:
                    counts["hybrid"] += choices * multiplicity
    return counts


def test_criterion_09_hybrid_advantage_mixed_shape():
    # Scaled twin of the stated shape: built models validate the exact
    # counting used for the full-size instance.
    twin = generators.mixed(3, 3, 3, seed=SEED + 500)
    twin_counts = mixed_variable_counts(3, 3, 3)
    atlas = build_atlas_exact(twin)
    split = hybrid_split(atlas)
    assert atlas.point_count == twin_counts["points"]
    assert split.on_y.sum() == twin_counts["on_y"]
    built = {
        "reduced": build_reduced(atlas, twin),
        "general": build_general(twin),
        "hybrid": build_hybrid(atlas, split, twin),
    }
    for name, model in built.items():
        assert model.num_vars == twin_counts[name], name

    objectives = {}
    for name, model in built.items():
        solution = solve(model)
        assert solution.status == "optimal", name
        objectives[name] = solution.objective_value
    spread = max(objectives.values()) - min(objectives.values())
    assert spread <= 1e-8, objectives
    assert built["hybrid"].num_vars < built["reduced"].num_vars
    assert built["hybrid"].num_vars < built["general"].num_vars

    # Stated scale: n=5, shared 5x5 grid, 3 extra points -> |P_i| = 28.
    stated = mixed_variable_counts(5, 5, 3)
    assert stated["general"] == 28**5 == 17_210_368
    assert stated["hybrid"] < stated["reduced"], stated
    assert stated["hybrid"] < stated["general"], stated
    # Solving the stated instance needs ~5 * points balance rows; a dense
    # basis inverse over that many rows is beyond the built-in solver, so
    # objective equality is demonstrated on the same shape at twin scale
    # (see the project notes for the full analysis).
    rows_reduced = 5 * stated["points"] + 5 * 28
    assert rows_reduced > 200_000
    print(
        "ACCEPTANCE criterion 9 PASS - hybrid strictly smallest: "
        f"stated scale vars hybrid={stated['hybrid']} < "
        f"reduced={stated['reduced']} < general={stated['general']} "
        f"(counts validated against built models at twin scale; objective "
        f"equality verified at twin scale, spread {spread:.2e})"
    )


def test_criterion_10_excluded_reproductions_documented():
    from pathlib import Path

    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text()
    # wall-clock tables and external datasets are not reproduced; the data
    # formats needed to rerun them must be documented
    assert "grid-csv" in readme
    assert '"measures"' in readme or "JSON problem" in readme
    lowered = readme.lower()
    assert "wall-clock" in lowered or "timing" in lowered
    print("ACCEPTANCE criterion 10 PASS - input formats and exclusions documented")
