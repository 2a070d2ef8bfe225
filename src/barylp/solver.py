"""LP solving, MPS export, and barycenter extraction/verification.

The solver is a two-phase revised simplex over a dense basis.  A refactor
(every ``REFACTOR_EVERY`` pivots, and at each phase end) only LU-factors
the basis (LAPACK ``dgetrf``) and takes x_B and the duals from triangular
solves (``dgetrs``); the explicit inverse is formed over the factors
(``dgetri``) when a pivot needs it, and each pivot updates it in place by a
rank-1 ``dger`` update.  A phase end whose optimality check holds thus
costs one factorization and no inversion.  Phase 1 starts from a
triangular crash basis: every row with right-hand side 0 (the balance
rows of the original, reduced and hybrid models) takes its cheapest column
with no other nonzero in such a row, and every other row its artificial.
Up to a permutation that basis is [[D, 0], [E, I]], so its inverse
[[D^-1, 0], [-E D^-1, I]] is written out directly.  Pivots take the most
negative reduced cost, and among columns within ``OPT_TOL`` of it the
cheapest, then the lowest index, so phase 1 ends at a vertex chosen with
the cost in view.  A long degenerate streak, a sign of cycling on these
transportation-like polytopes, switches the solve to Bland's rule.  Models
whose dense basis would exceed ``MAX_BASIS_BYTES`` are refused as
``too-large``; export them in MPS format and solve them externally.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork, dgetrs

from .measures import Problem
from .models import LpModel
from .support import SupportAtlas, _Quantizer, combination_chunks

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DROP_THRESHOLD = 1e-11
REFACTOR_EVERY = 200
MAX_BASIS_BYTES = 1 << 30  # 8 m^2 bytes of dense basis: m <= 11585


class ExtractionError(ValueError):
    """Solution extraction preconditions violated."""


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a simplex run.

    ``values`` holds the model variables; redundant constraint rows are
    detected after phase 1 and dropped internally, so an optimal basis
    contains model variables only (its size is the constraint rank).
    """

    # optimal | infeasible | unbounded | iteration-limit | numeric-failure | too-large
    status: str
    objective_value: float
    values: np.ndarray
    basis: tuple[int, ...]
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _Simplex:
    """Two-phase revised simplex over a dense basis, as LU factors or inverse."""

    def __init__(self, model: LpModel, max_iters: int):
        A = model.constraints.tocsc()
        b = np.array(model.rhs, dtype=np.float64)
        flip = b < 0.0
        if flip.any():
            signs = np.where(flip, -1.0, 1.0)
            A = sp.diags(signs).dot(A).tocsc()
            b = b * signs
        self.A = A
        # a CSR view over A's arrays, held because A.T builds a new wrapper
        # per call; pricing computes A_T @ y row-wise
        self.A_T = A.T
        self.b = b
        self.cost = np.array(model.objective, dtype=np.float64)
        self.m, self.nv = A.shape
        self.max_iters = max_iters
        self.bland = False  # set once cycling is suspected
        self.basis = np.arange(self.nv, self.nv + self.m, dtype=np.int64)
        self.in_basis = np.zeros(self.nv, dtype=bool)
        # the explicit inverse (Fortran order, for dger), or None while only
        # the LU factors (lu, piv) of a refactor are held in _lu
        self._binv = np.eye(self.m, order="F")
        self.x_basic = b.copy()
        self.iterations = 0
        self._since_refactor = 0
        self._degenerate_streak = 0
        self._cycle_guard = 1000 + 2 * (self.m + self.nv)
        self._duals = None  # maintained incrementally, exact after refactor
        self.feas_threshold = FEAS_TOL * (1.0 + float(np.abs(b).sum()))
        self.crash()

    def crash(self) -> None:
        """Start each b = 0 row on a structural column instead of its artificial.

        A column is eligible for a b = 0 row when its entry there exceeds
        ``PIVOT_TOL`` and it has no other nonzero in any b = 0 row; each row
        takes its cheapest eligible column, the lowest index on ties.  Its
        other entries lie in rows that keep their artificials, so the basis
        is triangular up to a permutation and nonsingular, and the crash
        columns sit at 0: the start is primal feasible, with the phase-1
        infeasibility of the all-artificial start.  Rows with b != 0 and
        b = 0 rows without an eligible column keep their artificials.
        """
        zero_row = self.b == 0.0
        if not zero_row.any():
            return
        A = self.A
        col = np.repeat(np.arange(self.nv), np.diff(A.indptr))
        in_zero = zero_row[A.indices] & (A.data != 0.0)
        count = np.bincount(col[in_zero], minlength=self.nv)
        pick = in_zero & (count[col] == 1) & (np.abs(A.data) > PIVOT_TOL)
        if not pick.any():
            return
        rows, cols, pivots = A.indices[pick], col[pick], A.data[pick]
        order = np.lexsort((cols, self.cost[cols], rows))
        rows, cols, pivots = rows[order], cols[order], pivots[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        rows, cols, pivots = rows[first], cols[first], pivots[first]
        # the artificial of row r sits at basis position r
        self.basis[rows] = cols
        self.in_basis[cols] = True
        # the basis is [[D, 0], [E, I]] with D the crash entries, up to a
        # permutation: its inverse is [[D^-1, 0], [-E D^-1, I]], and x_B is b
        entry, lens = _entries(A, cols)
        binv_cols = -A.data[entry] / np.repeat(pivots, lens)
        self._binv[A.indices[entry], np.repeat(rows, lens)] = binv_cols
        self._binv[rows, rows] = 1.0 / pivots

    def refactor(self) -> None:
        """LU-factor the basis and recompute x_B from the factors."""
        dense = np.zeros((self.m, self.m), order="F")
        pos = np.flatnonzero(self.basis < self.nv)
        entry, lens = _entries(self.A, self.basis[pos])
        dense[self.A.indices[entry], np.repeat(pos, lens)] = self.A.data[entry]
        art = np.flatnonzero(self.basis >= self.nv)
        dense[self.basis[art] - self.nv, art] = 1.0
        if self.m == 0:  # every row was dropped; LAPACK rejects empty matrices
            self._binv = dense
        else:
            lu, piv, info = dgetrf(dense, overwrite_a=1)
            if info > 0:
                raise np.linalg.LinAlgError("singular basis")
            self._binv, self._lu = None, (lu, piv)
        self.x_basic = self._solve(self.b)
        self._since_refactor = 0
        self._duals = None

    def inverse(self) -> np.ndarray:
        """The explicit basis inverse, formed over the LU factors on first use."""
        if self._binv is None:
            # the default workspace is unblocked, several times slower
            lwork = int(dgetri_lwork(self.m)[0])
            self._binv = dgetri(*self._lu, lwork=lwork, overwrite_lu=1)[0]
        return self._binv

    def _solve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """B^-1 rhs, or B^-T rhs with ``trans``, from whichever form is held."""
        if self._binv is not None:
            return rhs @ self._binv if trans else self._binv @ rhs
        return dgetrs(*self._lu, rhs, trans=trans)[0]

    def column(self, var: int) -> np.ndarray:
        start, end = self.A.indptr[var], self.A.indptr[var + 1]
        return self.inverse()[:, self.A.indices[start:end]] @ self.A.data[start:end]

    def apply_pivot(
        self, entering: int, leave_pos: int, u: np.ndarray, d_entering: float = 0.0
    ) -> None:
        step = max(self.x_basic[leave_pos], 0.0) / u[leave_pos]
        leaving = int(self.basis[leave_pos])
        self.x_basic -= step * u
        self.x_basic[leave_pos] = step
        binv = self.inverse()
        pivot_row = binv[leave_pos] / u[leave_pos]
        # rank-1 basis-inverse update in place; it zeroes the leaving row,
        # which the pivot row replaces
        self._binv = dger(-1.0, u, pivot_row, a=binv, overwrite_a=1)
        self._binv[leave_pos] = pivot_row
        if self._duals is not None:
            # dual update: only the entering column's reduced cost changes sign
            self._duals = self._duals + d_entering * pivot_row
        self.basis[leave_pos] = entering
        self.in_basis[entering] = True
        if leaving < self.nv:
            self.in_basis[leaving] = False
        self.iterations += 1
        self._since_refactor += 1
        if self._since_refactor >= REFACTOR_EVERY:
            self.refactor()
        if step <= 1e-12:
            self._degenerate_streak += 1
            if self._degenerate_streak > self._cycle_guard:
                self.bland = True  # cycling suspected; Bland terminates
                self._degenerate_streak = 0
        else:
            self._degenerate_streak = 0

    def run_phase(self, phase: int) -> str:
        """Price-and-pivot until the phase objective is optimal.  Duals are
        updated incrementally between refactors; apparent optimality is
        re-checked once against duals from a fresh factorization."""
        self._duals = None
        verified = False
        # the phase's costs of the model variables, then of the artificials
        costs = np.concatenate(
            (np.zeros(self.nv), np.ones(self.m)) if phase == 1
            else (self.cost, np.zeros(self.m))
        )
        while True:
            if self.iterations >= self.max_iters:
                return "iteration-limit"
            if self._duals is None:
                self._duals = self._solve(costs[self.basis], trans=1)
            reduced = costs[:self.nv] - self.A_T @ self._duals
            eligible = np.nonzero((reduced < -OPT_TOL) & ~self.in_basis)[0]
            if eligible.size == 0:
                if verified:
                    return "optimal"
                self.refactor()
                verified = True
                continue
            verified = False
            if self.bland:
                entering = int(eligible[0])
            else:
                # the most negative reduced cost; near-ties go to the cheapest
                # column, then the lowest index
                steepest = reduced[eligible]
                near = eligible[steepest <= steepest.min() + OPT_TOL]
                entering = int(near[np.argmin(self.cost[near])])

            u = self.column(entering)
            blockers = np.nonzero(u > PIVOT_TOL)[0]
            if blockers.size == 0:
                # Phase 1 is bounded below, so this can only be numerics.
                return "numeric-failure" if phase == 1 else "unbounded"
            ratios = np.maximum(self.x_basic[blockers], 0.0) / u[blockers]
            best = float(np.min(ratios))
            ties = blockers[ratios <= best + 1e-12]
            leave_pos = int(ties[np.argmin(self.basis[ties])])
            self.apply_pivot(entering, leave_pos, u, float(reduced[entering]))

    def cleanup_artificials(self) -> None:
        """Pivot leftover artificials out; drop the rows that cannot.

        After a feasible phase 1 every basic artificial sits at ~zero.  A
        row whose artificial admits no usable pivot is a dependent
        constraint and is removed outright, so phase 2 runs on model
        variables only.
        """
        drop_rows: list[int] = []
        for pos in np.nonzero(self.basis >= self.nv)[0]:
            row_vec = self.A_T @ self._solve(np.eye(1, self.m, pos)[0], trans=1)
            row_vec = np.where(self.in_basis, 0.0, row_vec)
            candidates = np.nonzero(np.abs(row_vec) > 1e-7)[0]
            if candidates.size:
                entering = int(candidates[np.argmax(np.abs(row_vec[candidates]))])
                self.apply_pivot(entering, int(pos), self.column(entering))
            else:
                drop_rows.append(int(self.basis[pos]) - self.nv)
        if not drop_rows:
            return
        keep = np.ones(self.m, dtype=bool)
        keep[drop_rows] = False
        self.A = self.A[keep].tocsc()
        self.A_T = self.A.T
        self.b = self.b[keep]
        self.m = int(keep.sum())
        self.basis = self.basis[self.basis < self.nv]
        assert len(self.basis) == self.m, "basis inconsistent after row drop"
        self.refactor()

    def solution(self, status: str) -> LpSolution:
        values = np.zeros(self.nv)
        inside = self.basis < self.nv
        values[self.basis[inside]] = self.x_basic[inside]
        objective = float(self.cost @ values) if status == "optimal" else math.nan
        if status == "unbounded":
            objective = -math.inf
        basis = tuple(self.basis.tolist())
        return LpSolution(status, objective, values, basis, self.iterations)


def solve(model: LpModel, *, max_iters: int = 100_000) -> LpSolution:
    """Minimize the model with a two-phase dense-basis revised simplex.

    Deterministic for fixed options.  Returns a basic (vertex) solution
    when optimal; failures are reported in ``status``, never silently.
    A model whose dense basis would exceed ``MAX_BASIS_BYTES`` is refused
    as ``too-large`` before anything is allocated.
    """
    m = model.num_constraints
    if 8 * m * m > MAX_BASIS_BYTES:
        return LpSolution("too-large", math.nan, np.zeros(model.num_vars), (), 0)
    state = _Simplex(model, max_iters)

    # run_phase reports "optimal" only straight after its own refactor,
    # so x_basic is freshly computed at both phase ends
    status = state.run_phase(1)
    if status != "optimal":
        return state.solution(status)
    infeasibility = float(state.x_basic[state.basis >= state.nv].sum())
    if infeasibility > state.feas_threshold:
        return state.solution("infeasible")
    state.cleanup_artificials()

    status = state.run_phase(2)
    if status != "optimal":
        return state.solution(status)
    result = state.solution("optimal")
    residual = np.abs(model.constraints @ result.values - model.rhs).max()
    if residual > 1e-7:
        return replace(result, status="numeric-failure", objective_value=math.nan)
    return result


def _entries(A: sp.csc_matrix, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``A.indices``/``A.data`` of the entries of columns
    ``cols``, column by column, and each column's entry count."""
    starts = A.indptr[cols]
    lens = A.indptr[cols + 1] - starts
    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens), lens


# ---------------------------------------------------------------------------
# MPS export

_MPS_FIELD_STARTS = (1, 4, 14, 24, 39, 49)  # 0-based starts of fields 1..6


def _mps_line(*fields: tuple[int, str]) -> str:
    line = ""
    for field_no, text in fields:
        start = _MPS_FIELD_STARTS[field_no - 1]
        if len(line) < start:
            line = line.ljust(start)
        else:
            line += "  "
        line += text
    return line


def _mps_value(v: float) -> str:
    s = f"{v:.10g}"
    if len(s) > 12:
        s = f"{v:.6g}"
    return s


def var_name(meta) -> str:
    """MPS column name for a variable tag (1-based indices)."""
    kind = meta[0]
    if kind == "z":
        return f"z{meta[1] + 1}"
    if kind == "y":
        return f"y{meta[1] + 1}_{meta[2] + 1}_{meta[3] + 1}"
    if kind == "w":
        return f"w{meta[1] + 1}"
    raise ValueError(f"unknown variable tag {meta!r}")


def row_name(meta) -> str:
    """MPS row name for a constraint tag (1-based indices)."""
    kind = meta[0]
    if kind == "balance":
        return f"B{meta[1] + 1}_{meta[2] + 1}"
    if kind == "marginal":
        return f"M{meta[1] + 1}_{meta[2] + 1}"
    raise ValueError(f"unknown row tag {meta!r}")


def export_mps(model: LpModel, sink) -> None:
    """Write the model in fixed-format MPS (all rows E, default bounds).

    Columns are grouped per variable with up to two row/value pairs per
    line; zero objective coefficients and zero right-hand sides are
    omitted.  ``sink`` may be a path or a text/binary stream.
    """
    rows = [row_name(meta) for meta in model.row_meta]
    lines = ["NAME".ljust(14) + f"BARYLP_{model.formulation.upper()}"]
    lines.append("ROWS")
    lines.append(_mps_line((1, "N"), (2, "COST")))
    for name in rows:
        lines.append(_mps_line((1, "E"), (2, name)))

    lines.append("COLUMNS")
    csc = model.constraints.tocsc()
    for col, meta in enumerate(model.var_meta):
        name = var_name(meta)
        pairs: list[tuple[str, float]] = []
        if model.objective[col] != 0.0:
            pairs.append(("COST", float(model.objective[col])))
        start, end = csc.indptr[col], csc.indptr[col + 1]
        for r, v in zip(csc.indices[start:end], csc.data[start:end]):
            pairs.append((rows[r], float(v)))
        for i in range(0, len(pairs), 2):
            chunk = pairs[i : i + 2]
            fields = [(2, name), (3, chunk[0][0]), (4, _mps_value(chunk[0][1]))]
            if len(chunk) == 2:
                fields += [(5, chunk[1][0]), (6, _mps_value(chunk[1][1]))]
            lines.append(_mps_line(*fields))

    lines.append("RHS")
    rhs_pairs = [
        (rows[r], float(v)) for r, v in enumerate(model.rhs) if v != 0.0
    ]
    for i in range(0, len(rhs_pairs), 2):
        chunk = rhs_pairs[i : i + 2]
        fields = [(2, "RHS"), (3, chunk[0][0]), (4, _mps_value(chunk[0][1]))]
        if len(chunk) == 2:
            fields += [(5, chunk[1][0]), (6, _mps_value(chunk[1][1]))]
        lines.append(_mps_line(*fields))
    lines.append("ENDATA")
    text = "\n".join(lines) + "\n"

    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as fh:
            fh.write(text)
    elif hasattr(sink, "write"):
        try:
            sink.write(text)
        except TypeError:
            sink.write(text.encode())
    else:
        raise TypeError(f"cannot write MPS to {type(sink).__name__}")


# ---------------------------------------------------------------------------
# Barycenter extraction and verification

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    advisory: bool = False


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    dropped_mass: float = 0.0

    @property
    def passed(self) -> bool:
        """All non-advisory checks pass (advisory ones are informational)."""
        return all(c.passed for c in self.checks if not c.advisory)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "; ".join(f"{c.name} {'OK' if c.passed else 'FAIL'}" for c in self.checks)


@dataclass(frozen=True)
class BarycenterSolution:
    """Barycenter measure plus its transport plan.

    ``support`` holds (point, mass) in lexicographic point order;
    ``transport`` entries (i, j, k, mass) route mass from support point j
    to point k of measure i.
    """

    support: tuple[tuple[tuple[float, ...], float], ...]
    transport: tuple[tuple[int, int, int, float], ...]
    cost: float
    source_formulation: str
    verification: VerificationReport

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(mass for _, mass in self.support)

    @property
    def points(self) -> tuple[tuple[float, ...], ...]:
        return tuple(pt for pt, _ in self.support)


def _plan_cost(
    support: Sequence[tuple[tuple[float, ...], float]],
    transport: Sequence[tuple[int, int, int, float]],
    problem: Problem,
) -> float:
    acc = 0.0
    for i, j, k, mass in transport:
        if not (0 <= i < problem.n and 0 <= j < len(support)):
            raise IndexError(f"transport entry ({i},{j},{k}) out of range")
        pts = problem.measures[i].points
        if not 0 <= k < len(pts):
            raise IndexError(f"transport entry ({i},{j},{k}) out of range")
        source = support[j][0]
        target = pts[k]
        acc += problem.weights[i] * sum(
            (a - bb) ** 2 for a, bb in zip(source, target)
        ) * mass
    return acc


def extract_barycenter(
    solution: LpSolution,
    model: LpModel,
    problem: Problem,
    atlas: SupportAtlas | None = None,
) -> BarycenterSolution:
    """Read a barycenter measure out of an optimal LP solution.

    Mass on fixed-transport variables is credited to the combination's
    weighted mean (merged under the atlas dedup rule when an atlas is
    supplied) and routed to each constituent point.  Dust below
    ``DROP_THRESHOLD`` is discarded and the remainder rescaled; the
    discarded total is recorded in the verification report.
    """
    if solution.status != "optimal":
        raise ExtractionError(f"cannot extract from status {solution.status!r}")
    if len(model.var_meta) != len(solution.values):
        raise ExtractionError("solution does not match model metadata")

    quant = atlas._quantizer if atlas is not None else _Quantizer(problem)
    point_by_key: dict[tuple[float, ...], tuple[float, ...]] = {}
    mass_by_key: dict[tuple[float, ...], float] = {}
    flow: dict[tuple[int, tuple[float, ...], int], float] = {}

    def credit(key, point, mass):
        point_by_key.setdefault(key, point)
        mass_by_key[key] = mass_by_key.get(key, 0.0) + mass

    values = np.asarray(solution.values, dtype=np.float64)
    metas = model.var_meta
    dropped = 0.0
    for col in np.flatnonzero((values > 0.0) & (values <= DROP_THRESHOLD)).tolist():
        if metas[col][0] != "y":
            dropped += float(values[col])
    kept = np.flatnonzero(values > DROP_THRESHOLD).tolist()

    # Means of the kept fixed-transport combinations, and the candidates
    # the kept mass ("z", j) and transport ("y", i, j, k) variables name,
    # in scaled coordinates so both merge under the same key.
    w_cols = [col for col in kept if metas[col][0] == "w"]
    ordinals = np.array([metas[col][1] for col in w_cols], dtype=np.int64)
    # the model already holds these columns, so the cap is moot
    chunks = combination_chunks(
        problem, quant.scaled_weights, ordinals, cap=problem.combination_total()
    )
    idx, scaled = (np.concatenate(parts) for parts in zip(*chunks))
    combos = zip(
        map(tuple, quant.keys(scaled).tolist()),
        map(tuple, (scaled / quant.scale).tolist()),
        idx.tolist(),
    )
    js = [
        meta[1] if meta[0] == "z" else meta[2]
        for meta in map(metas.__getitem__, kept)
        if meta[0] in ("z", "y")
    ]
    if js and atlas is None:
        raise ExtractionError("mass variables need the atlas for points")
    points = atlas.support_points[js] if js else np.empty((0, problem.dimension))
    candidates = zip(
        map(tuple, quant.keys(points * quant.scale).tolist()),
        map(tuple, points.tolist()),
    )

    for col in kept:
        meta = metas[col]
        value = float(values[col])
        kind = meta[0]
        if kind == "z":
            credit(*next(candidates), value)
        elif kind == "w":
            key, point, indices = next(combos)
            credit(key, point, value)
            for i, k in enumerate(indices):
                flow[(i, key, k)] = flow.get((i, key, k), 0.0) + value
        elif kind == "y":
            # transport variables reference atlas points directly
            _, i, _, k = meta
            key, _ = next(candidates)
            flow[(i, key, k)] = flow.get((i, key, k), 0.0) + value
        else:
            raise ExtractionError(f"unknown variable tag {meta!r}")

    keys = sorted(mass_by_key, key=lambda key: point_by_key[key])
    index_of = {key: idx for idx, key in enumerate(keys)}
    kept = math.fsum(mass_by_key.values())
    rescale = 1.0 / kept if dropped > 0.0 and kept > 0.0 else 1.0
    support = tuple(
        (point_by_key[key], mass_by_key[key] * rescale) for key in keys
    )
    transport = tuple(
        sorted(
            (i, index_of[key], k, mass * rescale)
            for (i, key, k), mass in flow.items()
            if key in index_of
        )
    )
    cost = _plan_cost(support, transport, problem)
    report = _verify(support, transport, cost, problem, dropped)
    return BarycenterSolution(
        support=support,
        transport=transport,
        cost=cost,
        source_formulation=model.formulation,
        verification=report,
    )


def verify_solution(bary: BarycenterSolution, problem: Problem) -> VerificationReport:
    """Re-run all solution checks against a problem."""
    return _verify(
        bary.support, bary.transport, bary.cost, problem,
        bary.verification.dropped_mass,
    )


def _verify(support, transport, cost, problem: Problem, dropped: float) -> VerificationReport:
    total = math.fsum(mass for _, mass in support)
    received: dict[tuple[int, int], float] = {}
    targets: dict[tuple[int, int], int] = {}
    for i, j, k, mass in transport:
        received[(i, k)] = received.get((i, k), 0.0) + mass
        if mass > 1e-9:
            targets[(i, j)] = targets.get((i, j), 0) + 1
    worst = 0.0
    for i, m in enumerate(problem.measures):
        for k, target in enumerate(m.masses):
            worst = max(worst, abs(received.get((i, k), 0.0) - target))
    recomputed = _plan_cost(support, transport, problem)
    bound = sum(problem.sizes) - problem.n + 1
    splits = sum(1 for count in targets.values() if count > 1)
    checks = (
        CheckResult("total-mass", abs(total - 1.0) <= 1e-8, f"sum {total:.12g}"),
        CheckResult("marginals", worst <= 1e-8, f"max deviation {worst:.3g}"),
        CheckResult(
            "cost", abs(recomputed - cost) <= 1e-8,
            f"stored {cost:.12g} recomputed {recomputed:.12g}",
        ),
        CheckResult(
            "sparsity", len(support) <= bound,
            f"{len(support)} support points, bound {bound}", advisory=True,
        ),
        CheckResult(
            "non-mass-splitting", splits == 0,
            f"{splits} split support points", advisory=True,
        ),
    )
    return VerificationReport(checks=checks, dropped_mass=dropped)


def solution_json(
    solution: LpSolution, bary: BarycenterSolution | None = None
) -> str:
    """JSON dump of a solve outcome (and the extracted measure if any)."""
    doc: dict = {
        "status": solution.status,
        "objective": None if math.isnan(solution.objective_value) else solution.objective_value,
    }
    if bary is not None:
        doc["support"] = [
            {"point": list(pt), "mass": mass} for pt, mass in bary.support
        ]
        doc["transport"] = [[i, j, k, mass] for i, j, k, mass in bary.transport]
        doc["cost"] = bary.cost
        doc["formulation"] = bary.source_formulation
        doc["verification"] = {
            c.name: bool(c.passed) for c in bary.verification.checks
        }
        doc["dropped_mass"] = bary.verification.dropped_mass
    return json.dumps(doc, indent=2)
