"""Shared fixtures, small instance builders and the dice count."""

import math

import numpy as np
import pytest

from barylp.measures import DiscreteMeasure, Problem, uniform_weights


def measure(points, masses=None):
    pts = tuple(tuple(float(c) for c in p) for p in points)
    if masses is None:
        masses = [1.0 / len(pts)] * len(pts)
    return DiscreteMeasure(pts, tuple(float(m) for m in masses))


def problem(measures, weights=None, grid=None):
    measures = tuple(measures)
    if weights is None:
        weights = uniform_weights(len(measures))
    return Problem(measures, tuple(float(w) for w in weights), grid=grid)


def _comb_or_zero(a: int, b: int) -> int:
    if a < 0 or b < 0 or a < b:
        return 0
    return math.comb(a, b)


def count_dice(total: int, sides: int, dice: int) -> int:
    """Number of ``dice``-tuples in {1..sides} summing to ``total``: the
    multiplicity of a full-grid candidate per axis, in closed form.

    Inclusion-exclusion in exact integer arithmetic; sums outside
    [dice, dice*sides] count zero.
    """
    if sides < 1 or dice < 1:
        raise ValueError(f"need sides >= 1 and dice >= 1, got {sides}, {dice}")
    return sum(
        (-1) ** m * math.comb(dice, m) * _comb_or_zero(total - m * sides - 1, dice - 1)
        for m in range(dice + 1)
    )


def assert_atlases_equal(grid, exact, p):
    """Every array of two atlases of ``p``, and their maps from
    combinations to candidate rows, are equal."""
    for name in ("support_points", "source_indptr", "source_measure", "source_point"):
        assert np.array_equal(getattr(grid, name), getattr(exact, name)), name
    assert np.array_equal(grid.multiplicity, exact.multiplicity)
    assert np.array_equal(grid.combination_candidates(p), exact.combination_candidates(p))


def assert_optimal_on_every_column(model, solution, tol=1e-9):
    """An optimality certificate independent of the columns the solver
    priced: duals recovered from the final basis by least squares on
    B^T y = c_B leave no column of the model a reduced cost below -tol."""
    basis = solution.basis
    assert basis.size and (basis < model.num_vars).all()
    A = model.constraints.tocsc()
    cost = np.asarray(model.objective, dtype=np.float64)
    B_T = A[:, basis].T.toarray()
    duals = np.linalg.lstsq(B_T, cost[basis], rcond=None)[0]
    assert np.abs(B_T @ duals - cost[basis]).max() <= tol
    reduced = cost - A.T @ duals
    assert reduced.min() >= -tol, (int(np.argmin(reduced)), float(reduced.min()))


@pytest.fixture
def twin_grid_problem():
    """Two copies of the measure on {0, 2} with equal masses.

    Means collapse: candidates {0, 1, 2} with multiplicities (1, 2, 1).
    """
    m = measure([[0.0], [2.0]])
    return problem([m, m])


@pytest.fixture
def forced_problem():
    """Single combination: one point per measure, objective is forced."""
    return problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])
