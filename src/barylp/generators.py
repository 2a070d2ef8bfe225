"""Seeded instance generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .measures import DiscreteMeasure, GridSpec, Problem, uniform_weights


def _random_masses(rng: np.random.Generator, count: int) -> tuple[float, ...]:
    raw = rng.uniform(0.1, 1.0, count)
    raw /= raw.sum()
    return tuple(float(v) for v in raw)


def general_position(
    n: int, p: int, d: int, seed: int = 0, random_weights: bool = False
) -> Problem:
    """Measures with i.i.d. uniform support points (distinct means a.s.)."""
    rng = np.random.default_rng(seed)
    measures = []
    for _ in range(n):
        pts = rng.uniform(0.0, 1.0, (p, d))
        measures.append(
            DiscreteMeasure(
                tuple(tuple(float(c) for c in pt) for pt in pts),
                _random_masses(rng, p),
            )
        )
    if random_weights:
        weights = _random_masses(rng, n)
    else:
        weights = uniform_weights(n)
    return Problem(tuple(measures), weights)


def grid(
    n: int, K: int, d: int, density: float = 1.0, seed: int = 0
) -> Problem:
    """Measures on the integer lattice {1..K}^d with random masses.

    ``density`` < 1 keeps each cell independently (at least one survives),
    modelling raster data supported on a subset of its grid.
    """
    rng = np.random.default_rng(seed)
    spec = GridSpec(dim=d, side=K, origin=(0.0,) * d, step=1.0)
    cells = [
        tuple(int(v) + 1 for v in idx)
        for idx in np.ndindex(*(K,) * d)
    ]
    measures = []
    for _ in range(n):
        if density >= 1.0:
            chosen = cells
        else:
            keep = rng.uniform(size=len(cells)) < density
            chosen = [cell for cell, flag in zip(cells, keep) if flag]
            if not chosen:
                chosen = [cells[int(rng.integers(len(cells)))]]
        measures.append(
            DiscreteMeasure(
                tuple(spec.point(cell) for cell in chosen),
                _random_masses(rng, len(chosen)),
            )
        )
    return Problem(tuple(measures), uniform_weights(n), grid=spec)


def mixed(
    n: int = 5, K: int = 5, extra: int = 3, seed: int = 0
) -> Problem:
    """Partially structured instances: one shared K x K grid per measure
    plus ``extra`` far-away points in general position.

    The extra points sit beyond the reach of any grid-only mean, so means
    of combinations touching them never collide with the refined grid.
    They lie off the lattice, so the problem declares none.
    """
    rng = np.random.default_rng(seed)
    spec = GridSpec(dim=2, side=K, origin=(0.0,) * 2, step=1.0)
    grid_points = [
        spec.point((a + 1, b + 1)) for a in range(K) for b in range(K)
    ]
    offset = 2.0 * n * K
    measures = []
    for _ in range(n):
        extras = rng.uniform(offset, offset + K, (extra, 2))
        pts = tuple(grid_points) + tuple(
            tuple(float(c) for c in pt) for pt in extras
        )
        measures.append(DiscreteMeasure(pts, _random_masses(rng, len(pts))))
    return Problem(tuple(measures), uniform_weights(n))
