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
Variables are ordered z-block, then y-block by (i, j, k), then w-block by
combination ordinal, so builds are deterministic.  The z- and y-blocks and
the balance rows come from one builder shared by ``original``, ``reduced``
and ``hybrid``; the w-block of ``general`` and ``hybrid`` is computed by the
combination kernel of :mod:`barylp.support` and assembled column-wise.
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

    ``var_meta[c]`` tags column c with its role: ``("z", j)`` candidate
    mass, ``("y", i, j, k)`` transport from candidate j to point k of
    measure i, ``("w", h)`` fixed transport of combination h.  ``row_meta``
    tags rows ``("balance", i, j)`` or ``("marginal", i, k)``.
    """

    formulation: str
    objective: np.ndarray
    constraints: sp.csr_matrix
    rhs: np.ndarray
    var_meta: tuple
    row_meta: tuple

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
        if len(self.var_meta) != self.num_vars:
            raise AssertionError("var_meta is not a bijection onto columns")
        if len(self.row_meta) != self.num_constraints:
            raise AssertionError("row_meta is not a bijection onto rows")
        if len(set(self.var_meta)) != self.num_vars:
            raise AssertionError("duplicate variable identity")
        if not np.all(np.isfinite(self.rhs)):
            raise AssertionError("non-finite rhs")
        if np.any(self.objective < 0.0):
            raise AssertionError("negative objective coefficient")
        row_counts = np.diff(self.constraints.indptr)
        if np.any(row_counts == 0):
            raise AssertionError("empty constraint row")
        for meta, b in zip(self.row_meta, self.rhs.tolist()):
            if meta[0] == "marginal" and not 0.0 < b <= 1.0:
                raise AssertionError(f"marginal rhs {b} outside (0, 1]")


def _sq_dist(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((ai - bi) ** 2 for ai, bi in zip(a, b))


class _Assembler:
    """Accumulates triplets and metadata, then freezes a model."""

    def __init__(self, formulation: str):
        self.formulation = formulation
        self.obj: list[float] = []
        self.var_meta: list = []
        self.row_meta: list = []
        self.rhs: list[float] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._fixed_rows = np.empty((0, 0), dtype=np.int64)

    def add_var(self, meta, cost: float) -> int:
        self.var_meta.append(meta)
        self.obj.append(cost)
        return len(self.var_meta) - 1

    def add_row(self, meta, rhs: float) -> int:
        self.row_meta.append(meta)
        self.rhs.append(rhs)
        return len(self.row_meta) - 1

    def add_entry(self, row: int, col: int, val: float) -> None:
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(val)

    def add_fixed_transport(
        self,
        problem: Problem,
        marginal: list[list[int]],
        ordinals: np.ndarray | None,
        cap: int,
    ) -> None:
        """Append one ``("w", h)`` column per combination ordinal h (every
        combination when None) with unit entries in its n marginal rows.

        Its cost routes one unit of mass from the combination's weighted
        mean to each constituent point: sum_i lambda_i |mean - x_{i,k_i}|^2.
        Must be the last columns added.
        """
        first_row = np.array([rows[0] for rows in marginal], dtype=np.int64)
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
            rows.append(idx + first_row)
            costs.append(cost)
        self._fixed_rows = np.concatenate(rows)
        if ordinals is None:
            ordinals = np.arange(len(self._fixed_rows))
        self.var_meta.extend(("w", h) for h in ordinals.tolist())
        self.obj.extend(np.concatenate(costs).tolist())

    def freeze(self) -> LpModel:
        shape = (len(self.rhs), len(self.obj))
        fixed, n = self._fixed_rows.shape
        matrix = sp.csr_matrix(
            (self._vals, (self._rows, self._cols)),
            shape=(shape[0], shape[1] - fixed),
            dtype=np.float64,
        )
        if fixed:
            # every fixed-transport column holds exactly n unit entries
            block = sp.csc_matrix(
                (np.ones(fixed * n), self._fixed_rows.ravel(), n * np.arange(fixed + 1)),
                shape=(shape[0], fixed),
            )
            matrix = sp.hstack([matrix, block], format="csr")
        return LpModel(
            formulation=self.formulation,
            objective=np.asarray(self.obj, dtype=np.float64),
            constraints=matrix,
            rhs=np.asarray(self.rhs, dtype=np.float64),
            var_meta=tuple(self.var_meta),
            row_meta=tuple(self.row_meta),
        )


def _marginal_rows(asm: _Assembler, problem: Problem) -> list[list[int]]:
    rows = []
    for i, m in enumerate(problem.measures):
        rows.append(
            [asm.add_row(("marginal", i, k), m.masses[k]) for k in range(len(m))]
        )
    return rows


def _mass_transport(
    asm: _Assembler,
    atlas: SupportAtlas,
    problem: Problem,
    candidates: Sequence[int],
    pruned: bool,
) -> list[list[int]]:
    """Add the z-columns and balance rows of ``candidates``, the marginal
    rows, then one y-column from each candidate j to each point k of each
    measure i: every point, or with ``pruned`` only the pairs (i, k) in
    ``atlas.sources(j)``.  Returns the marginal rows."""
    n = problem.n
    z_col = {j: asm.add_var(("z", j), 0.0) for j in candidates}
    balance = {}
    for i in range(n):
        for j in candidates:
            r = asm.add_row(("balance", i, j), 0.0)
            asm.add_entry(r, z_col[j], -1.0)
            balance[i, j] = r
    marginal = _marginal_rows(asm, problem)

    for i, m in enumerate(problem.measures):
        lam = problem.weights[i]
        for j in candidates:
            xj = atlas.support_points[j]
            if pruned:
                targets = [k for src_i, k in atlas.sources(j) if src_i == i]
            else:
                targets = range(len(m))
            for k in targets:
                c = asm.add_var(("y", i, j, k), lam * _sq_dist(xj, m.points[k]))
                asm.add_entry(balance[i, j], c, 1.0)
                asm.add_entry(marginal[i][k], c, 1.0)
    return marginal


def build_original(atlas: SupportAtlas, problem: Problem) -> LpModel:
    """Baseline model: every candidate transports to every original point."""
    asm = _Assembler("original")
    _mass_transport(asm, atlas, problem, range(atlas.point_count), pruned=False)
    return asm.freeze()


def build_reduced(atlas: SupportAtlas, problem: Problem) -> LpModel:
    """Original model restricted to transports the mean structure allows."""
    asm = _Assembler("reduced")
    _mass_transport(asm, atlas, problem, range(atlas.point_count), pruned=True)
    return asm.freeze()


def build_general(
    problem: Problem, cap: int = DEFAULT_COMBINATION_CAP
) -> LpModel:
    """Fixed-transport model: one variable per combination, no candidate
    deduplication (worst-case size, minimal constraints)."""
    asm = _Assembler("general")
    asm.add_fixed_transport(problem, _marginal_rows(asm, problem), None, cap)
    return asm.freeze()


def build_hybrid(
    atlas: SupportAtlas,
    split: HybridSplit,
    problem: Problem,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> LpModel:
    """Mixed model: mass/transport variables for the split's chosen
    candidates, fixed-transport variables for every other combination."""
    if len(split.budgets) != atlas.point_count:
        raise FormulationError(
            f"split covers {len(split.budgets)} candidates, atlas has "
            f"{atlas.point_count}"
        )
    if split.y_points and max(split.y_points) >= atlas.point_count:
        raise FormulationError("split references unknown candidate indices")
    asm = _Assembler("hybrid")
    y_sorted = sorted(split.y_points)
    marginal = _mass_transport(asm, atlas, problem, y_sorted, pruned=True)
    on_y = np.zeros(atlas.point_count, dtype=bool)
    on_y[y_sorted] = True
    fixed = np.flatnonzero(~on_y[atlas.combination_candidates(problem, cap)])
    asm.add_fixed_transport(problem, marginal, fixed, cap)
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
