"""Shared fixtures and small instance builders."""

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


def assert_atlases_equal(grid, exact, p):
    """Every array of two atlases of ``p``, and their maps from
    combinations to candidate rows, are equal."""
    for name in ("support_points", "source_indptr", "source_measure", "source_point"):
        assert np.array_equal(getattr(grid, name), getattr(exact, name)), name
    assert grid.multiplicity == exact.multiplicity
    assert np.array_equal(grid.combination_candidates(p), exact.combination_candidates(p))


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
