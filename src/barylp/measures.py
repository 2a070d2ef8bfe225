"""Discrete probability measures, weighted problem instances, and ingestion.

A measure is a finite set of support points in R^d with strictly positive
masses summing to one.  A problem bundles n >= 2 such measures (of common
dimension) with a positive weight vector summing to one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

MASS_TOL = 1e-12
LOAD_MASS_TOL = 1e-9


class ParseError(ValueError):
    """Input bytes do not parse under the declared format."""


class InvariantError(ValueError):
    """Parsed data violates a measure or problem invariant."""


class WeightError(ValueError):
    """Weight vector is missing, mis-sized, nonpositive, or not normalized."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: points with aligned masses."""

    points: tuple[tuple[float, ...], ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "points", tuple(tuple(float(c) for c in p) for p in self.points)
        )
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return len(self.points[0]) if self.points else 0


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice: ``side`` points per axis starting at ``origin``,
    uniformly spaced by ``step`` in each of ``dim`` axes."""

    dim: int
    side: int
    origin: tuple[float, ...]
    step: float

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(c) for c in self.origin))

    def point(self, cell: Sequence[int]) -> tuple[float, ...]:
        """Coordinates of the 1-based lattice cell ``cell``."""
        return tuple(self.origin[l] + self.step * (cell[l] - 1) for l in range(self.dim))

    def cell(self, point: Sequence[float], tol: float = 1e-9) -> tuple[int, ...]:
        """Inverse of :meth:`point`; raises ``InvariantError`` off-lattice."""
        idx = []
        for l in range(self.dim):
            a = (point[l] - self.origin[l]) / self.step + 1.0
            r = round(a)
            if abs(a - r) > tol or not 1 <= r <= self.side:
                raise InvariantError(f"point {tuple(point)} not on lattice (axis {l})")
            idx.append(int(r))
        return tuple(idx)


@dataclass(frozen=True)
class Problem:
    """n measures of common dimension plus a positive weight vector."""

    measures: tuple[DiscreteMeasure, ...]
    weights: tuple[float, ...]
    grid: GridSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def n(self) -> int:
        return len(self.measures)

    @property
    def dimension(self) -> int:
        return self.measures[0].dimension

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.measures)

    def combination_total(self) -> int:
        """Number of ways to pick one support point from every measure."""
        return math.prod(self.sizes)

    def has_uniform_weights(self, tol: float = MASS_TOL) -> bool:
        return all(abs(w - 1.0 / self.n) <= tol for w in self.weights)


def validate_measure(m: DiscreteMeasure) -> list[str]:
    """Report every violated measure invariant; empty list means valid."""
    violations: list[str] = []
    if len(m.points) != len(m.masses):
        violations.append(
            f"{len(m.points)} points but {len(m.masses)} masses"
        )
    if not m.points:
        violations.append("measure has no support points")
        return violations
    d = len(m.points[0])
    if d < 1:
        violations.append("points have dimension 0")
    for k, p in enumerate(m.points):
        if len(p) != d:
            violations.append(f"point at index {k} has dimension {len(p)} != {d}")
    for k, mass in enumerate(m.masses):
        if not mass > 0.0:
            violations.append(f"mass {mass} at index {k} is not strictly positive")
        if not math.isfinite(mass):
            violations.append(f"mass at index {k} is not finite")
    total = math.fsum(m.masses)
    if abs(total - 1.0) > MASS_TOL:
        violations.append(f"masses sum {total} != 1")
    seen: dict[tuple[float, ...], int] = {}
    for k, p in enumerate(m.points):
        if p in seen:
            violations.append(f"duplicate support point at indices {seen[p]},{k}")
        else:
            seen[p] = k
    return violations


def validate_problem(p: Problem) -> list[str]:
    """Report every violated problem invariant, including per-measure ones."""
    violations: list[str] = []
    if p.n < 2:
        violations.append(f"problem needs at least 2 measures, got {p.n}")
    if len(p.weights) != p.n:
        violations.append(f"{p.n} measures but {len(p.weights)} weights")
    for i, w in enumerate(p.weights):
        if not w > 0.0:
            violations.append(f"weight {w} at index {i} is not strictly positive")
    if p.weights and abs(math.fsum(p.weights) - 1.0) > MASS_TOL:
        violations.append(f"weights sum {math.fsum(p.weights)} != 1")
    dims = {m.dimension for m in p.measures}
    if len(dims) > 1:
        violations.append(f"measures have mixed dimensions {sorted(dims)}")
    for i, m in enumerate(p.measures):
        violations.extend(f"measure {i}: {v}" for v in validate_measure(m))
    return violations


def uniform_weights(n: int) -> tuple[float, ...]:
    """The uniform weight vector (1/n, ..., 1/n)."""
    if n < 1:
        raise WeightError(f"cannot build weights for n={n}")
    return (1.0 / n,) * n


def _normalize_masses(masses: list[float], where: str, normalize: bool) -> list[float]:
    # Strict mode still rescales exactly inside the 1e-9 acceptance band so
    # that loaded measures always meet the 1e-12 sum invariant.
    total = math.fsum(masses)
    if normalize:
        if total <= 0.0:
            raise InvariantError(f"{where}: masses sum {total}, cannot normalize")
    elif abs(total - 1.0) > LOAD_MASS_TOL:
        raise InvariantError(f"{where}: masses sum {total} != 1")
    return [m / total for m in masses]


def _as_text(source) -> str:
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            source = fh.read()
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    if isinstance(source, str):
        return source
    raise ParseError(f"unsupported source type {type(source).__name__}")


def _load_json(source) -> Problem:
    text = _as_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "measures" not in doc:
        raise ParseError('JSON problem must be an object with a "measures" list')
    raw_measures = doc["measures"]
    if not isinstance(raw_measures, list) or not raw_measures:
        raise ParseError('"measures" must be a non-empty list')
    normalize = bool(doc.get("normalize", False))

    measures = []
    for i, entry in enumerate(raw_measures):
        if not isinstance(entry, dict) or "points" not in entry or "masses" not in entry:
            raise ParseError(f'measure {i} needs "points" and "masses"')
        try:
            points = [tuple(float(c) for c in pt) for pt in entry["points"]]
            masses = [float(m) for m in entry["masses"]]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"measure {i}: non-numeric data: {exc}") from exc
        if len(points) != len(masses):
            raise ParseError(
                f"measure {i}: {len(points)} points vs {len(masses)} masses"
            )
        masses = _normalize_masses(masses, f"measure {i}", normalize)
        measures.append(DiscreteMeasure(tuple(points), tuple(masses)))

    n = len(measures)
    if "weights" in doc and doc["weights"] is not None:
        try:
            weights = tuple(float(w) for w in doc["weights"])
        except (TypeError, ValueError) as exc:
            raise WeightError(f"non-numeric weights: {exc}") from exc
        if len(weights) != n:
            raise WeightError(f"{n} measures but {len(weights)} weights")
    else:
        weights = uniform_weights(n)
    return Problem(tuple(measures), weights)


def _load_grid_csv_measure(source, where: str) -> tuple[DiscreteMeasure, GridSpec]:
    text = _as_text(source)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{where}: empty grid-csv input")
    header = lines[0].split(",")
    if len(header) < 4:
        raise ParseError(f"{where}: header needs K,d,origin...,step")
    try:
        side = int(header[0])
        dim = int(header[1])
        origin = tuple(float(c) for c in header[2 : 2 + dim])
        step = float(header[2 + dim])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"{where}: bad header {lines[0]!r}: {exc}") from exc
    if len(header) != 3 + dim:
        raise ParseError(f"{where}: header has {len(header)} fields, expected {3 + dim}")
    if side < 1 or dim < 1 or not step > 0.0:
        raise InvariantError(f"{where}: invalid lattice K={side} d={dim} step={step}")
    grid = GridSpec(dim=dim, side=side, origin=origin, step=step)

    points: list[tuple[float, ...]] = []
    masses: list[float] = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != dim + 1:
            raise ParseError(f"{where}: cell line {ln!r} needs {dim + 1} fields")
        try:
            cell = [int(v) for v in fields[:dim]]
            mass = float(fields[dim])
        except ValueError as exc:
            raise ParseError(f"{where}: bad cell line {ln!r}: {exc}") from exc
        if any(not 1 <= c <= side for c in cell):
            raise ParseError(f"{where}: cell index {cell} outside 1..{side}")
        if mass == 0.0:
            continue  # zero cells carry no support
        if mass < 0.0:
            raise InvariantError(f"{where}: negative mass {mass} in cell {cell}")
        points.append(grid.point(cell))
        masses.append(mass)
    if not points:
        raise InvariantError(f"{where}: no cells with positive mass")
    return DiscreteMeasure(tuple(points), tuple(masses)), grid


def load_problem(
    source,
    format: str = "json",
    *,
    weights: Sequence[float] | None = None,
    normalize: bool = False,
) -> Problem:
    """Load a problem from ``source`` and validate every invariant.

    A source is an ``os.PathLike`` naming a file to read, whose ``OSError``
    propagates, or the content itself: a ``str``, ``bytes`` or a stream.
    ``format="json"`` takes a single source holding the whole problem.
    ``format="grid-csv"`` takes a sequence of sources, one raster per
    measure, all sharing one lattice header; ``weights`` then
    defaults to uniform.  Masses are rescaled to sum exactly to one only when
    the JSON document sets ``"normalize": true`` (or ``normalize=True`` for
    grid-csv); otherwise sums off by more than 1e-9 are rejected.
    """
    if format == "json":
        problem = _load_json(source)
        if weights is not None:
            raise WeightError("weights for JSON problems belong in the document")
    elif format == "grid-csv":
        if isinstance(source, (str, bytes, os.PathLike)) or hasattr(source, "read"):
            source = [source]
        loaded = [
            _load_grid_csv_measure(s, f"measure {i}") for i, s in enumerate(source)
        ]
        grids = [g for _, g in loaded]
        if any(g != grids[0] for g in grids):
            raise InvariantError("grid-csv measures declare different lattices")
        measures = tuple(
            DiscreteMeasure(
                m.points,
                tuple(_normalize_masses(list(m.masses), f"measure {i}", normalize)),
            )
            for i, (m, _) in enumerate(loaded)
        )
        if weights is not None:
            w = tuple(float(x) for x in weights)
        else:
            w = uniform_weights(len(measures))
        problem = Problem(measures, w, grid=grids[0])
    else:
        raise ParseError(f"unknown problem format {format!r}")

    violations = validate_problem(problem)
    if violations:
        weighty = [v for v in violations if "weight" in v]
        if weighty and len(weighty) == len(violations):
            raise WeightError("; ".join(violations))
        raise InvariantError("; ".join(violations))
    return problem
