"""LP solving, MPS export, and barycenter extraction/verification.

The solver is a two-phase revised simplex over a dense basis.  A refactor
(every ``REFACTOR_EVERY`` pivots, and at each phase end) only LU-factors
the basis (LAPACK ``dgetrf``) and takes x_B and the duals from triangular
solves (``dgetrs``); the explicit inverse is formed over the factors
(``dgetri``) when a pivot needs it, and each pivot updates it in place by a
rank-1 ``dger`` update.  A phase end whose optimality check holds thus
costs one factorization and no inversion.

The start depends on the matrix.  A fixed-transport matrix (every
right-hand side positive and every entry 1: ``general``, and ``hybrid``
with no candidate on the mass/transport side) starts from a least-cost
greedy plan: the cheapest column whose rows all keep mass takes the least
remaining mass of its rows, until no such column is left.  The plan is a
triangular basis, factored once.  Other models start from a triangular
crash basis: every row with right-hand side 0 (the balance rows of the
original, reduced and hybrid models) takes its cheapest column with no
other nonzero in such a row, and every other row its artificial.  Up to
a permutation that basis is [[D, 0], [E, I]], so its inverse
[[D^-1, 0], [-E D^-1, I]] is written out directly.  Phase 1 runs only
when the start's artificials carry mass, which the greedy start of a
model with balanced marginals does not.

The model keeps every row, although the marginal rows carry n - 1
dependencies: an artificial that no column can replace after the start
or phase 1 sits on a dependent row and stays basic at zero.

Pricing reads a working set of columns, in the master/pricing split of
column generation: when no column in it prices below ``-OPT_TOL``, one
sweep over every column adds the most negative ones outside it,
``REFILL_PER_ROW`` per basic model column.  A phase ends only when a
sweep on fresh duals finds none, so the check covers every column.
The set only grows and stays sorted, so refills are finitely many and
Bland's rule still terminates between them.  A greedy-started model's set
starts as the greedy basis; on the general-position shapes the final set
holds about 5% of the columns or less.  A crash-started model's set
starts as every column, so its sweeps never add one: those models have
many rows for their columns, and a smaller set cost them more than it
saved.

Pivots take the most negative reduced cost, and among columns within
``OPT_TOL`` of it the cheapest, then the lowest index, so phase 1 ends at
a vertex chosen with the cost in view.  A long degenerate streak, a sign
of cycling on these transportation-like polytopes, switches the solve to
Bland's rule.  Models whose dense basis would exceed ``MAX_BASIS_BYTES``
are refused as ``too-large``; export them in MPS format and solve them
externally.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork, dgetrs

from .measures import Problem
from .models import LpModel, weighted_sq_distance
from .support import SupportAtlas, _Quantizer, _lexsort_rows, _unique_rows, combination_chunks

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DROP_THRESHOLD = 1e-11
REFACTOR_EVERY = 200
# columns a sweep adds to a working set, per basic model column
REFILL_PER_ROW = 4
MAX_BASIS_BYTES = 1 << 30  # 8 m^2 bytes of dense basis: m <= 11585


class ExtractionError(ValueError):
    """Solution extraction preconditions violated."""


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a simplex run.

    ``values`` holds the model variables and ``basis`` the basic ones in
    position order, never an artificial: an optimal basis has rank(A).
    ``phase_iterations`` counts the pivots of phase 1 and of phase 2;
    ``iterations`` is the total, which also counts the pivots that take
    leftover artificials out of the basis between the phases.
    ``working_set`` is the number of columns priced at the end of the
    solve: every column unless the model started greedy, and 0 when the
    model was refused as too large.
    """

    # optimal | infeasible | unbounded | iteration-limit | numeric-failure | too-large
    status: str
    objective_value: float
    values: np.ndarray
    basis: np.ndarray  # int64
    iterations: int
    phase_iterations: tuple[int, int] = (0, 0)
    working_set: int = 0

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
        # the explicit inverse (Fortran order, for dger), or None while only
        # the LU factors (lu, piv) of a refactor are held in _lu
        self._binv = np.eye(self.m, order="F")
        self.x_basic = b.copy()
        self.iterations = 0
        self.phase_iterations = [0, 0]
        self._since_refactor = 0
        self._degenerate_streak = 0
        self._cycle_guard = 1000 + 2 * (self.m + self.nv)
        self._duals = None  # maintained incrementally, exact after refactor
        self.feas_threshold = FEAS_TOL * (1.0 + float(np.abs(b).sum()))
        # the sorted columns priced
        if self.fixed_transport():
            self.greedy(model.constraints.tocsr())
            self.working = np.sort(self.basis[self.basis < self.nv])
        else:
            self.crash()
            self.working = np.arange(self.nv)

    def fixed_transport(self) -> bool:
        """Whether every right-hand side is positive and every column holds
        entries equal to 1 only, at least one: the matrices of ``general``
        and of ``hybrid`` with no candidate on y.  Read off the matrix, as
        the model's column and row labels need not describe it."""
        A = self.A
        return bool(
            (self.b > 0.0).all() and (A.data == 1.0).all() and (np.diff(A.indptr) > 0).all()
        )

    def greedy(self, rows: sp.csr_matrix) -> None:
        """Start from the least-cost greedy plan of a fixed-transport matrix.

        Step by step, the cheapest column (lowest index on ties) whose rows
        all keep more than ``FEAS_TOL`` of their right-hand side takes the
        least remainder among its rows.  The rows left at or below
        ``FEAS_TOL`` are exhausted: the column takes the basis position of
        the first of them, the others keep their artificials, and every
        column of an exhausted row, read off the CSR ``rows``, drops out.
        In step order each column's position lies in none of the later
        columns, so the basis is triangular with unit diagonal, hence
        nonsingular, and every basic value is nonnegative.  With balanced
        marginals every row ends exhausted and the start is feasible.
        """
        A = self.A
        remaining = self.b.copy()
        price = self.cost.copy()  # inf once the column has dropped out
        while True:
            col = int(np.argmin(price))
            if price[col] == np.inf:
                break
            support = A.indices[A.indptr[col]:A.indptr[col + 1]]
            remaining[support] -= remaining[support].min()
            exhausted = support[remaining[support] <= FEAS_TOL]
            # the artificial of row r sits at basis position r
            self.basis[exhausted[0]] = col
            entry, _ = _entries(rows, exhausted)
            price[rows.indices[entry]] = np.inf
        self.refactor()

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
        if self.m == 0:  # a model with no rows; LAPACK rejects empty matrices
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
        re-checked once against duals from a fresh factorization.  Only
        the working set's columns are priced, and at their optimum a sweep
        over every column on those fresh duals refills the set; the phase
        ends when the sweep finds no column to add."""
        self._duals = None
        verified = False
        # the phase's costs of the model variables, then of the artificials
        costs = np.concatenate(
            (np.zeros(self.nv), np.ones(self.m)) if phase == 1
            else (self.cost, np.zeros(self.m))
        )
        # cleanup_artificials may have pivoted in a column from outside
        self.working = np.union1d(self.working, self.basis[self.basis < self.nv])
        priced, A_T, model_cost, slot = self._priced(costs)
        while True:
            if self.iterations >= self.max_iters:
                return "iteration-limit"
            if self._duals is None:
                self._duals = self._solve(costs[self.basis], trans=1)
            reduced = priced - A_T @ self._duals
            # basic columns price at 0; scattering over the m basis positions
            # is cheaper than a mask over every column
            basic = self.basis[self.basis < self.nv]
            reduced[slot[basic]] = 0.0
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -OPT_TOL:
                if not verified:
                    self.refactor()
                    verified = True
                    continue
                if not self.refill(costs):
                    return "optimal"
                priced, A_T, model_cost, slot = self._priced(costs)
                continue
            verified = False
            if self.bland:
                entering = int(np.argmax(reduced < -OPT_TOL))
            else:
                # the most negative reduced cost; near-ties go to the cheapest
                # column, then the lowest index
                near = np.flatnonzero(reduced <= reduced[entering] + OPT_TOL)
                if near.size > 1:
                    near = near[reduced[near] < -OPT_TOL]
                    entering = int(near[np.argmin(model_cost[near])])
            d_entering = float(reduced[entering])
            entering = int(self.working[entering])

            u = self.column(entering)
            blockers = np.nonzero(u > PIVOT_TOL)[0]
            if blockers.size == 0:
                # Phase 1 is bounded below, so this can only be numerics.
                return "numeric-failure" if phase == 1 else "unbounded"
            ratios = np.maximum(self.x_basic[blockers], 0.0) / u[blockers]
            best = float(np.min(ratios))
            ties = blockers[ratios <= best + 1e-12]
            leave_pos = int(ties[np.argmin(self.basis[ties])])
            self.apply_pivot(entering, leave_pos, u, d_entering)
            self.phase_iterations[phase - 1] += 1

    def _priced(self, costs: np.ndarray):
        """What pricing reads of the priced columns, in working-set order:
        their phase costs, their rows of A^T and their model costs, and the
        position of every column among them (-1 outside the set).  A set
        of every column reads the arrays themselves, with no copy."""
        if len(self.working) == self.nv:
            return costs[:self.nv], self.A_T, self.cost, np.arange(self.nv)
        slot = np.full(self.nv, -1, dtype=np.int64)
        slot[self.working] = np.arange(len(self.working))
        return costs[self.working], self.A_T[self.working], self.cost[self.working], slot

    def refill(self, costs: np.ndarray) -> bool:
        """Sweep every column on the current duals and add to the working
        set the ``REFILL_PER_ROW`` per basic model column outside it that
        price lowest below ``-OPT_TOL``; False when no column outside it
        does, with no sweep when the set holds every column."""
        if len(self.working) == self.nv:
            return False
        reduced = costs[:self.nv] - self.A_T @ self._duals
        reduced[self.working] = 0.0  # the set holds the basic columns
        entering = np.flatnonzero(reduced < -OPT_TOL)
        if entering.size == 0:
            return False
        keep = REFILL_PER_ROW * np.count_nonzero(self.basis < self.nv)
        if entering.size > keep:
            entering = entering[np.argpartition(reduced[entering], keep - 1)[:keep]]
        # disjoint from the set, so a sort merges the two
        self.working = np.sort(np.concatenate((self.working, entering)))
        return True

    def cleanup_artificials(self) -> None:
        """Pivot out every leftover artificial that a column can replace.

        After a feasible start or phase 1 every basic artificial sits at
        ~zero.  One that no column can replace sits on a dependent row: its
        row of B^-1 A is zero for every column, and stays zero under later
        pivots, so it stays basic at zero and no ratio test reads it.
        """
        for pos in np.nonzero(self.basis >= self.nv)[0]:
            row_vec = self.A_T @ self._solve(np.eye(1, self.m, pos)[0], trans=1)
            row_vec[self.basis[self.basis < self.nv]] = 0.0
            candidates = np.nonzero(np.abs(row_vec) > 1e-7)[0]
            if candidates.size:
                entering = int(candidates[np.argmax(np.abs(row_vec[candidates]))])
                self.apply_pivot(entering, int(pos), self.column(entering))

    def solution(self, status: str) -> LpSolution:
        values = np.zeros(self.nv)
        inside = self.basis < self.nv
        values[self.basis[inside]] = self.x_basic[inside]
        objective = float(self.cost @ values) if status == "optimal" else math.nan
        if status == "unbounded":
            objective = -math.inf
        return LpSolution(
            status, objective, values, self.basis[inside], self.iterations,
            tuple(self.phase_iterations), len(self.working),
        )

    def infeasibility(self) -> float:
        """The mass the basic artificials carry: the phase-1 objective."""
        return float(self.x_basic[self.basis >= self.nv].sum())


def solve(model: LpModel, *, max_iters: int = 100_000) -> LpSolution:
    """Minimize the model with a two-phase dense-basis revised simplex.

    Deterministic for fixed options.  Returns a basic (vertex) solution
    when optimal; failures are reported in ``status``, never silently.
    A model whose dense basis would exceed ``MAX_BASIS_BYTES`` is refused
    as ``too-large`` before anything is allocated.
    """
    m = model.num_constraints
    if 8 * m * m > MAX_BASIS_BYTES:
        return LpSolution("too-large", math.nan, np.zeros(model.num_vars), np.empty(0, np.int64), 0)
    state = _Simplex(model, max_iters)

    # the start's x_basic is exact or freshly factored, and run_phase
    # reports "optimal" only straight after its own refactor, so x_basic is
    # freshly computed at both phase ends; phase 1 runs only when the
    # start is infeasible
    if state.infeasibility() > state.feas_threshold:
        status = state.run_phase(1)
        if status != "optimal":
            return state.solution(status)
        if state.infeasibility() > state.feas_threshold:
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


def column_names(model: LpModel) -> list[str]:
    """MPS names of the model's columns, in order (1-based indices)."""
    return (
        [f"z{j + 1}" for j in model.z.tolist()]
        + [f"y{i + 1}_{j + 1}_{k + 1}" for i, j, k in model.y.tolist()]
        + [f"w{h + 1}" for h in model.w.tolist()]
    )


def row_names(model: LpModel) -> list[str]:
    """MPS names of the model's rows, in order (1-based indices)."""
    return (
        [f"B{i + 1}_{j + 1}" for i, j in model.balance.tolist()]
        + [f"M{i + 1}_{k + 1}" for i, k in model.marginal.tolist()]
    )


def export_mps(model: LpModel, sink) -> None:
    """Write the model in fixed-format MPS (all rows E, default bounds).

    Columns are grouped per variable with up to two row/value pairs per
    line; zero objective coefficients and zero right-hand sides are
    omitted.  ``sink`` may be a path or a text/binary stream.
    """
    rows = row_names(model)
    lines = ["NAME".ljust(14) + f"BARYLP_{model.formulation.upper()}"]
    lines.append("ROWS")
    lines.append(_mps_line((1, "N"), (2, "COST")))
    for name in rows:
        lines.append(_mps_line((1, "E"), (2, name)))

    lines.append("COLUMNS")
    csc = model.constraints.tocsc()
    for col, name in enumerate(column_names(model)):
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
    points: np.ndarray, routes: np.ndarray, flow: np.ndarray, problem: Problem
) -> float:
    """Cost of routing ``flow[t]`` from support point ``routes[t, 1]`` to
    point ``routes[t, 2]`` of measure ``routes[t, 0]``, summed exactly."""
    i, j, k = routes.T
    # negative indices too: numpy would wrap them
    bad = (i < 0) | (i >= problem.n) | (j < 0) | (j >= len(points)) | (k < 0)
    bad |= k >= np.asarray(problem.sizes)[np.where(bad, 0, i)]
    if bad.any():
        raise IndexError("transport entry ({},{},{}) out of range".format(*routes[bad][0]))
    offsets = np.cumsum((0,) + problem.sizes)
    targets = np.concatenate([np.asarray(m.points, dtype=np.float64) for m in problem.measures])
    terms = weighted_sq_distance(
        np.asarray(problem.weights)[i], points[j], targets[offsets[i] + k]
    )
    return math.fsum((terms * flow).tolist())


def extract_barycenter(
    solution: LpSolution,
    model: LpModel,
    problem: Problem,
    atlas: SupportAtlas | None = None,
) -> BarycenterSolution:
    """Read a barycenter measure out of an optimal LP solution.

    Every kept column names a point: a z- or y-column its candidate, a
    w-column its combination's weighted mean.  Points merge when their
    ``_Quantizer.keys`` rows are equal (the atlas's quantizer when one is
    supplied), the rule the atlas dedups by.  z- and w-columns credit their
    mass to their point, y-columns route theirs from it, and a w-column
    routes its mass to each constituent point.  Each support point is the
    point of its first crediting column; routes from points no column
    credits are dropped.  Dust below ``DROP_THRESHOLD`` is discarded and the
    remainder rescaled; the discarded total is recorded in the verification
    report, whose cost check compares the plan's cost with the LP objective.
    """
    if solution.status != "optimal":
        raise ExtractionError(f"cannot extract from status {solution.status!r}")
    if model.num_vars != len(solution.values):
        raise ExtractionError("solution does not match the model's columns")

    quant = atlas._quantizer if atlas is not None else _Quantizer(problem)
    values = np.asarray(solution.values, dtype=np.float64)
    z_vals, y_vals, w_vals = np.split(values, np.cumsum([len(model.z), len(model.y)]))
    dust = np.concatenate((z_vals, w_vals))
    dropped = math.fsum(dust[(dust > 0.0) & (dust <= DROP_THRESHOLD)].tolist())
    z_kept, y_kept, w_kept = (
        np.flatnonzero(vals > DROP_THRESHOLD) for vals in (z_vals, y_vals, w_vals)
    )
    js = np.concatenate((model.z[z_kept], model.y[y_kept, 1]))
    if js.size and atlas is None:
        raise ExtractionError("mass variables need the atlas for points")
    candidates = atlas.support_points[js] if js.size else np.empty((0, problem.dimension))
    # the model already holds these columns, so the cap is moot
    chunks = combination_chunks(
        problem, quant.scaled_weights, model.w[w_kept], cap=problem.combination_total()
    )
    idx, scaled = (np.concatenate(parts) for parts in zip(*chunks))

    # One row per kept column, the crediting z- and w-rows first, so that
    # every label's first row is its first crediting one, if any.
    nz, nw = len(z_kept), len(w_kept)
    points = np.concatenate((candidates[:nz], scaled / quant.scale, candidates[nz:]))
    scaled = np.concatenate((candidates[:nz] * quant.scale, scaled, candidates[nz:] * quant.scale))
    _, first, label = _unique_rows(quant.keys(scaled))
    credit = np.concatenate((z_vals[z_kept], w_vals[w_kept]))
    mass = np.bincount(label[:nz + nw], weights=credit, minlength=len(first))
    credited = np.flatnonzero(first < nz + nw)
    support = credited[_lexsort_rows(points[first[credited]])]
    rank = np.full(len(first), -1)
    rank[support] = np.arange(len(support))

    # Routes in column order, y then w, summed per (measure, point, target).
    i = np.concatenate((model.y[y_kept, 0], np.repeat(np.arange(problem.n), nw)))
    j = rank[np.concatenate((label[nz + nw:], np.tile(label[nz:nz + nw], problem.n)))]
    k = np.concatenate((model.y[y_kept, 2], idx.T.ravel()))
    flow = np.concatenate((y_vals[y_kept], np.tile(w_vals[w_kept], problem.n)))
    live = j >= 0
    shape = (problem.n, len(support), max(problem.sizes))
    codes, entry = np.unique(
        np.ravel_multi_index((i[live], j[live], k[live]), shape), return_inverse=True
    )
    routes = np.column_stack(np.unravel_index(codes, shape))
    flow = np.bincount(entry, weights=flow[live], minlength=len(codes))

    points, mass = points[first[support]], mass[support]
    kept = math.fsum(mass.tolist())
    rescale = 1.0 / kept if dropped > 0.0 and kept > 0.0 else 1.0
    mass, flow = mass * rescale, flow * rescale
    cost = _plan_cost(points, routes, flow, problem)
    report = _verify(mass, routes, flow, cost, solution.objective_value, problem, dropped)
    return BarycenterSolution(
        support=tuple(zip(map(tuple, points.tolist()), mass.tolist())),
        transport=tuple(zip(*routes.T.tolist(), flow.tolist())),
        cost=cost,
        source_formulation=model.formulation,
        verification=report,
    )


def verify_solution(bary: BarycenterSolution, problem: Problem) -> VerificationReport:
    """Re-run all solution checks against a problem; the cost check
    recomputes the plan's cost and compares it with the stored one."""
    points = np.array(bary.points, dtype=np.float64).reshape(-1, problem.dimension)
    routes = np.array([entry[:3] for entry in bary.transport], dtype=np.int64).reshape(-1, 3)
    flow = np.array([entry[3] for entry in bary.transport], dtype=np.float64)
    return _verify(
        np.array(bary.masses, dtype=np.float64), routes, flow,
        _plan_cost(points, routes, flow, problem), bary.cost, problem,
        bary.verification.dropped_mass,
    )


def _verify(
    masses: np.ndarray, routes: np.ndarray, flow: np.ndarray, cost: float, stored: float,
    problem: Problem, dropped: float,
) -> VerificationReport:
    """The checks of a plan whose cost is ``cost``; the cost check compares
    it with ``stored``, the value the solution claims for it."""
    total = math.fsum(masses.tolist())
    offsets = np.cumsum((0,) + problem.sizes)
    received = np.bincount(
        offsets[routes[:, 0]] + routes[:, 2], weights=flow, minlength=offsets[-1]
    )
    target = np.concatenate([m.masses for m in problem.measures])
    worst = float(np.abs(received - target).max())
    bound = sum(problem.sizes) - problem.n + 1
    _, targets = np.unique(routes[flow > 1e-9, :2], axis=0, return_counts=True)
    splits = int((targets > 1).sum())
    checks = (
        CheckResult("total-mass", abs(total - 1.0) <= 1e-8, f"sum {total:.12g}"),
        CheckResult("marginals", worst <= 1e-8, f"max deviation {worst:.3g}"),
        CheckResult(
            "cost", abs(cost - stored) <= 1e-8 * max(1.0, abs(stored)),
            f"stored {stored:.12g} recomputed {cost:.12g}",
        ),
        CheckResult(
            "sparsity", len(masses) <= bound,
            f"{len(masses)} support points, bound {bound}", advisory=True,
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
    return json.dumps(doc)
