"""Sparse LP model construction for the barycenter formulations.

Four interchangeable models of the same optimization problem:

- ``original``: mass variables on every candidate point plus transport
  variables to every original support point.
- ``reduced``: transport variables kept only where the candidate's mean
  computation actually uses the target point; always strictly smaller for
  nontrivial input.
- ``general``: one fixed-transport variable per combination of original
  support points; no candidate deduplication, minimal constraint count.
  With two measures it is the classical transportation problem.
- ``hybrid``: per-candidate mix of the reduced and general strategies.

All models are pure equality-constrained LPs over nonnegative variables.
Columns are ordered z-block, then y-block by (i, j, k), then w-block by
combination ordinal, and rows balance-block, then marginal-block, each
block named by one int64 index array, so builds are deterministic.  The z-
and y-blocks and the balance rows come from one builder shared by
``original``, ``reduced`` and ``hybrid``, which reads the y-columns off the
atlas's CSR incidence arrays (every point for ``original``) and computes
their entries, costs and names as whole arrays; the w-block of ``general``
and ``hybrid`` is computed by the combination kernel of
:mod:`barylp.support` and assembled column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .measures import Problem
from .support import (
    DEFAULT_COMBINATION_CAP,
    HybridSplit,
    SupportAtlas,
    combination_chunks,
)


class FormulationError(ValueError):
    """Formulation preconditions violated (wrong n, inconsistent split)."""


@dataclass(frozen=True)
class LpModel:
    """Equality-constrained LP  min c.x  s.t.  A x = b, x >= 0.

    The columns are three blocks in order, each named by an int64 array
    with one entry (or row) per column: ``z[c]`` is the candidate j of the
    c-th mass column, ``y[c]`` the (i, j, k) of the c-th transport column
    (candidate j to point k of measure i), and ``w[c]`` the combination
    ordinal h of the c-th fixed-transport column; so model column
    ``len(z) + c`` is ``y[c]``.  The rows are two blocks: ``balance`` holds
    the (i, j) of each balance row, then ``marginal`` the (i, k) of each
    marginal row.
    """

    formulation: str
    objective: np.ndarray
    constraints: sp.csr_matrix
    rhs: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    balance: np.ndarray
    marginal: np.ndarray

    @property
    def num_vars(self) -> int:
        return int(self.constraints.shape[1])

    @property
    def num_constraints(self) -> int:
        return int(self.constraints.shape[0])

    @property
    def num_nonzeros(self) -> int:
        return int(self.constraints.nnz)

    def check(self) -> None:
        """Raise if a structural model invariant is broken."""
        if len(self.z) + len(self.y) + len(self.w) != self.num_vars:
            raise AssertionError("column blocks are not a bijection onto columns")
        if len(self.balance) + len(self.marginal) != self.num_constraints:
            raise AssertionError("row blocks are not a bijection onto rows")
        if any(len(np.unique(ids, axis=0)) != len(ids) for ids in (self.z, self.y, self.w)):
            raise AssertionError("duplicate variable identity")
        if not np.all(np.isfinite(self.rhs)):
            raise AssertionError("non-finite rhs")
        if np.any(self.objective < 0.0):
            raise AssertionError("negative objective coefficient")
        row_counts = np.diff(self.constraints.indptr)
        if np.any(row_counts == 0):
            raise AssertionError("empty constraint row")
        for b in self.rhs[len(self.balance):].tolist():
            if not 0.0 < b <= 1.0:
                raise AssertionError(f"marginal rhs {b} outside (0, 1]")


class _Assembler:
    """Accumulates rows and blocks of columns, then freezes a model.  All
    columns of a block hold equally many entries, each equal to the
    block's one value.  The builders set the identity arrays of the
    blocks their model has; the others stay empty."""

    def __init__(self, formulation: str):
        self.formulation = formulation
        self.rhs: list[float] = []
        self._costs: list[np.ndarray] = []
        self._blocks: list[tuple[np.ndarray, float]] = []
        self.z = self.w = np.empty(0, dtype=np.int64)
        self.y = np.empty((0, 3), dtype=np.int64)
        self.balance = self.marginal = np.empty((0, 2), dtype=np.int64)

    def add_rows(self, rhs: Sequence[float]) -> int:
        """Append rows; returns the index of the first."""
        first = len(self.rhs)
        self.rhs.extend(rhs)
        return first

    def add_columns(self, costs: np.ndarray, rows: np.ndarray, val: float) -> None:
        """Append one column per cost; column c holds ``val`` in each of
        the rows ``rows[c]``."""
        self._costs.append(costs)
        self._blocks.append((rows, val))

    def freeze(self) -> LpModel:
        blocks = [
            sp.csc_matrix(
                (np.full(rows.size, val), rows.ravel(), rows.shape[1] * np.arange(len(rows) + 1)),
                shape=(len(self.rhs), len(rows)),
            )
            for rows, val in self._blocks
        ]
        return LpModel(
            formulation=self.formulation,
            objective=np.concatenate(self._costs),
            constraints=sp.hstack(blocks, format="csr"),
            rhs=np.asarray(self.rhs, dtype=np.float64),
            z=self.z, y=self.y, w=self.w,
            balance=self.balance, marginal=self.marginal,
        )


def _marginal_rows(asm: _Assembler, problem: Problem) -> np.ndarray:
    """Add the marginal rows; returns the first row of each measure's."""
    asm.marginal = np.column_stack((
        np.repeat(np.arange(problem.n), problem.sizes),
        np.concatenate([np.arange(size) for size in problem.sizes]),
    ))
    return np.array([asm.add_rows(m.masses) for m in problem.measures])


def _mass_transport(
    asm: _Assembler,
    atlas: SupportAtlas,
    problem: Problem,
    candidates: np.ndarray,
    pruned: bool,
) -> np.ndarray:
    """Add the z-columns and balance rows of the ascending ``candidates``,
    the marginal rows, then one y-column from each candidate j to each
    point k of each measure i: every point, or with ``pruned`` only the
    pairs (i, k) in ``atlas.sources(j)``.  Returns the first marginal row
    of each measure.
    """
    n = problem.n
    # Global point g numbers measure i's points from offsets[i].
    offsets = np.cumsum((0,) + problem.sizes)
    if pruned:
        indptr, measure, point = atlas.source_indptr, atlas.source_measure, atlas.source_point
    else:
        # every candidate reaches every point
        g = np.tile(np.arange(offsets[-1]), atlas.point_count)
        measure = np.searchsorted(offsets, g, side="right") - 1
        point = g - offsets[measure]
        indptr = offsets[-1] * np.arange(atlas.point_count + 1)

    c = len(candidates)
    # the balance row of (i, candidates[p]) is balance + i*c + p
    balance = asm.add_rows([0.0] * (n * c))
    asm.balance = np.column_stack((np.repeat(np.arange(n), c), np.tile(candidates, n)))
    marginal = _marginal_rows(asm, problem)
    z_rows = balance + np.arange(c)[:, None] + c * np.arange(n)
    asm.add_columns(np.zeros(c), z_rows, -1.0)
    asm.z = candidates

    # The incidence entries of the candidates, reordered by (i, j, k).
    position = np.full(atlas.point_count, -1)
    position[candidates] = np.arange(c)
    pos = np.repeat(position, np.diff(indptr))
    keep = np.flatnonzero(pos >= 0)
    keep = keep[np.argsort(measure[keep], kind="stable")]
    yi, pos, yk = measure[keep], pos[keep], point[keep]
    yj = candidates[pos]
    asm.y = np.column_stack((yi, yj, yk))

    # Squares summed axis by axis from zero, as the scalar expression
    # lam * sum((a - b) ** 2 ...) does; float_power rounds like ``** 2``.
    points = np.concatenate([np.asarray(m.points, dtype=np.float64) for m in problem.measures])
    diff = atlas.support_points[yj] - points[offsets[yi] + yk]
    sq = np.zeros(len(keep))
    for column in diff.T:
        sq += np.float_power(column, 2.0)
    asm.add_columns(
        np.asarray(problem.weights)[yi] * sq,
        np.column_stack((balance + yi * c + pos, marginal[yi] + yk)),
        1.0,
    )
    return marginal


def _fixed_transport(
    asm: _Assembler,
    problem: Problem,
    marginal: np.ndarray,
    ordinals: np.ndarray | None,
    cap: int,
) -> None:
    """Add one w-column per combination ordinal h (every combination when
    None) with unit entries in its n marginal rows, where measure i's rows
    start at ``marginal[i]``.

    Its cost routes one unit of mass from the combination's weighted mean
    to each constituent point: sum_i lambda_i |mean - x_{i,k_i}|^2.
    """
    points = [np.asarray(m.points, dtype=np.float64) for m in problem.measures]
    rows, costs = [], []
    for idx, mean in combination_chunks(problem, problem.weights, ordinals, cap):
        cost = np.zeros(len(idx))
        for i, lam in enumerate(problem.weights):
            diff = mean - points[i][idx[:, i]]
            sq = np.zeros(len(idx))
            for l in range(problem.dimension):
                sq += diff[:, l] ** 2
            cost += lam * sq
        rows.append(idx + marginal)
        costs.append(cost)
    rows = np.concatenate(rows)
    asm.add_columns(np.concatenate(costs), rows, 1.0)
    asm.w = np.arange(len(rows)) if ordinals is None else ordinals


def build_original(atlas: SupportAtlas, problem: Problem) -> LpModel:
    """Baseline model: every candidate transports to every original point."""
    asm = _Assembler("original")
    _mass_transport(asm, atlas, problem, np.arange(atlas.point_count), pruned=False)
    return asm.freeze()


def build_reduced(atlas: SupportAtlas, problem: Problem) -> LpModel:
    """Original model restricted to transports the mean structure allows."""
    asm = _Assembler("reduced")
    _mass_transport(asm, atlas, problem, np.arange(atlas.point_count), pruned=True)
    return asm.freeze()


def build_general(
    problem: Problem, cap: int = DEFAULT_COMBINATION_CAP
) -> LpModel:
    """Fixed-transport model: one variable per combination, no candidate
    deduplication (worst-case size, minimal constraints)."""
    asm = _Assembler("general")
    _fixed_transport(asm, problem, _marginal_rows(asm, problem), None, cap)
    return asm.freeze()


def build_hybrid(
    atlas: SupportAtlas,
    split: HybridSplit,
    problem: Problem,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> LpModel:
    """Mixed model: mass/transport variables for the split's chosen
    candidates, fixed-transport variables for every other combination."""
    if len(split.on_y) != atlas.point_count:
        raise FormulationError(
            f"split covers {len(split.on_y)} candidates, atlas has "
            f"{atlas.point_count}"
        )
    asm = _Assembler("hybrid")
    marginal = _mass_transport(asm, atlas, problem, np.flatnonzero(split.on_y), pruned=True)
    fixed = np.flatnonzero(~split.on_y[atlas.combination_candidates(problem, cap)])
    _fixed_transport(asm, problem, marginal, fixed, cap)
    return asm.freeze()


@dataclass(frozen=True)
class SizePrediction:
    variables: int
    constraints: int
    regime: str
    formulation: str


def predict_sizes(
    regime: str, formulation: str, n: int, p_or_K: int, d: int | None = None
) -> SizePrediction:
    """Closed-form model dimensions.

    ``general-position`` sizes assume all measures share support size p and
    every combination yields a distinct mean.  ``full-grid`` sizes assume
    all measures fully support a d-dimensional lattice of side K with
    uniform weights; closed forms exist for the original and general models
    only (reduced and hybrid grid sizes are reported from built models).
    """
    if regime == "general-position":
        p = p_or_K
        if formulation == "original":
            return SizePrediction(n * p ** (n + 1) + p**n, n * p**n + n * p, regime, formulation)
        if formulation == "reduced":
            return SizePrediction((1 + n) * p**n, n * p**n + n * p, regime, formulation)
        if formulation in ("general", "hybrid"):
            return SizePrediction(p**n, n * p, regime, formulation)
        raise ValueError(f"no closed form for {formulation!r} in general position")
    if regime == "full-grid":
        if d is None:
            raise ValueError("full-grid prediction needs the dimension d")
        K = p_or_K
        fine = (n * K - n + 1) ** d
        cells = K**d
        if formulation == "original":
            return SizePrediction(fine * (1 + n * cells), n * cells + n * fine, regime, formulation)
        if formulation == "general":
            return SizePrediction(cells**n, n * cells, regime, formulation)
        raise ValueError(f"no closed form for {formulation!r} on full grids")
    raise ValueError(f"unknown regime {regime!r}")


def variable_reduction(
    source: str, target: str, *, n: int | None = None, p: int | None = None
) -> float:
    """Fractional drop in variable count between two general-position models.

    original->reduced depends on (n, p) as 1 - (1+n)/(1+n*p); with ``n``
    omitted it returns the many-measures limit 1 - 1/p.  reduced->general
    (or hybrid) depends only on n as n/(n+1).  Other pairs are evaluated
    from the closed-form sizes.
    """
    if source == "original" and target == "reduced":
        if p is None:
            raise ValueError("original->reduced reduction needs p")
        if n is None:
            return 1.0 - 1.0 / p
        return 1.0 - (1.0 + n) / (1.0 + n * p)
    if source == "reduced" and target in ("general", "hybrid"):
        if n is None:
            raise ValueError("reduced->general reduction needs n")
        return n / (n + 1.0)
    if n is None or p is None:
        raise ValueError(f"{source}->{target} reduction needs both n and p")
    frm = predict_sizes("general-position", source, n, p).variables
    to = predict_sizes("general-position", target, n, p).variables
    return 1.0 - to / frm
