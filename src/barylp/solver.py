"""LP solving, MPS export, and barycenter extraction/verification.

The solver is a revised simplex over an explicit dense basis inverse.  A
solve has three steps: start, simplex, verify.

Start.  A fixed-transport matrix (every right-hand side positive and every
entry 1: ``general``, and ``hybrid`` with no candidate on the
mass/transport side) starts from a greedy plan on centred prices: the
column of least ``c - A^T u`` whose rows all keep mass takes the least
remaining mass of its rows, until no such column is left.  Row r's
potential u_r is its mean column cost, each column weighted by the
product of its rows' right-hand sides; on ``general`` that is the cost
expected given k_i = k under the product of the marginals, so the
centred price keeps only the interaction part of the cost.  Every plan
with A x = b pays (A^T u).x = u.b, so the prices shift the cost of all
feasible plans by one constant and rank them as the costs do; the phases
still price the costs.  The plan is a triangular basis, LU-factored
(LAPACK ``dgetrf``) and inverted (``dgetri``) once.  Other
models start from a triangular crash basis: every row with right-hand
side 0 (the balance rows of the original, reduced and hybrid models)
takes its cheapest column with no other nonzero in such a row, and every
other row its artificial.  Up to a permutation that basis is
[[D, 0], [E, I]], so its inverse [[D^-1, 0], [-E D^-1, I]] is written out
directly.

Simplex.  On the mass/transport models, whose costs are >= 0, the crash
start is dual feasible: a balance row's dual is its crash column's cost
over its entry, every other row's is 0, and every column prices at >= 0.
This is checked, not assumed, and
a dual feasible crash start goes to the optimum by a dual simplex with no
phase 1 (``run_dual``).  Any other start runs the primal simplex: phase 1
when its artificials carry mass, which the greedy start of a model with
balanced marginals does not, then phase 2 (``run_phase``).  Between the
two, leftover artificials that a column can replace are pivoted out.  The
dual simplex reports an optimum only when every column prices at
``-OPT_TOL`` or above on its refreshed duals, and phase 2 runs after it
only when that check failed or a leftover artificial was pivoted out.
The inverse is held row-major.  Each pivot's rank-1 change to it touches
only the rows where the entering column of B^-1 A is nonzero; when at
most m/5 are, ``dger`` updates just those rows, gathered, and otherwise
the whole inverse.  A pivot with a zero step leaves x_B as it is.

Verify.  At each phase end, and every ``REFACTOR_EVERY`` pivots, x_B and
the duals are recomputed from the held inverse, their residuals against
the sparse basis are tested explicitly, and each is refined once
(``refresh``); only a failed test LU-factors the basis and rebuilds the
inverse.  A status is reported only on refreshed values.  An optimal
solve frees the inverse, factors the final basis once to report an x_B
that depends on that basis alone, and checks the residual of A x = b
against 1e-7 times the larger of 1 and max|b|.

The model keeps every row, although the marginal rows carry n - 1
dependencies: an artificial that no column can replace after the start,
phase 1 or the dual simplex sits on a dependent row and stays basic at
zero.

Pricing reads a working set of columns, in the master/pricing split of
column generation: when no column in it prices below ``-OPT_TOL``, one
sweep over every column adds the most negative ones outside it,
``REFILL_PER_ROW`` per basic model column.  A phase ends only when a
sweep on refreshed duals finds none, so the check covers every column.
The set only grows and stays sorted, so refills are finitely many and
Bland's rule still terminates between them.  A greedy-started model's set
starts as the greedy basis; on the general-position shapes the final set
holds about 5% of the columns or less.  A crash-started model's set
starts as every column, so its sweeps never add one: those models have
many rows for their columns, and a smaller set cost them more than it
saved.

Primal pivots take the most negative reduced cost, and among columns
within ``OPT_TOL`` of it the cheapest, then the lowest index, so phase 1
ends at a vertex chosen with the cost in view; the dual simplex breaks
its near-ties the same way.  A long degenerate streak, a sign of cycling
on these transportation-like polytopes, switches the solve to
smallest-index choices (Bland's rule).  Models whose dense basis would
exceed ``MAX_BASIS_BYTES`` are refused as ``too-large``; export them in
MPS format and solve them externally.
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
REFACTOR_EVERY = 200  # pivots between residual checks
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
    ``phase_iterations`` counts the pivots of phase 1, or of the dual
    simplex that replaces it, and of phase 2; ``iterations`` is the total,
    which also counts the pivots that take leftover artificials out of the
    basis between the phases.
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
    """Primal and dual revised simplex over an explicit dense basis inverse."""

    def __init__(self, model: LpModel, max_iters: int):
        # the models are built in CSC, which this reads as it is
        A = model.constraints.asformat("csc")
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
        # the explicit basis inverse, row-major: pivots read and update rows
        self.binv = np.eye(self.m)
        self.x_basic = b.copy()
        self.iterations = 0
        self.phase_iterations = [0, 0]
        self._since_refresh = 0
        self._degenerate_streak = 0
        self._cycle_guard = 1000 + 2 * (self.m + self.nv)
        self._duals = None  # maintained incrementally, refined by refresh
        # the phase-1 objective's tolerance, and a basic value's or a
        # residual entry's: both scale with the right-hand side
        self.feas_threshold = FEAS_TOL * (1.0 + float(np.abs(b).sum()))
        self.feas_tol = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
        # the sorted columns priced
        if self.fixed_transport():
            self.greedy(model.constraints.tocsr())
            self.working = np.sort(self.basis[self.basis < self.nv])
            self.dual_start = False
        else:
            self.crash()
            self.working = np.arange(self.nv)
            self.dual_start = self.dual_feasible()

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
        """Start from the greedy plan of a fixed-transport matrix on the
        centred prices ``c - A^T u``, u from ``row_potentials``.

        Step by step, the column of least centred price (lowest index on
        ties) whose rows all keep more than ``FEAS_TOL`` of their right-hand
        side takes the least remainder among its rows.  The rows left at or
        below ``FEAS_TOL`` are exhausted: the column takes the basis
        position of the first of them, the others keep their artificials,
        and every column of an exhausted row, read off the CSR ``rows``,
        drops out.  In step order each column's position lies in none of
        the later columns, so the basis is triangular with unit diagonal,
        hence nonsingular, and every basic value is nonnegative, whatever
        the order of the columns.  With balanced marginals every row ends
        exhausted and the start is feasible.

        Every x with A x = b pays (A^T u).x = u.b, so the centred prices
        move the cost of every feasible plan by one constant: they rank
        plans as the costs do, and the phases still price the costs.
        """
        A = self.A
        remaining = self.b.copy()
        # inf once the column has dropped out
        price = self.cost - self.A_T @ row_potentials(A, self.A_T, self.b, self.cost)
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
        self.binv[A.indices[entry], np.repeat(rows, lens)] = binv_cols
        self.binv[rows, rows] = 1.0 / pivots

    def phase_costs(self, phase: int) -> np.ndarray:
        """The costs of the model variables, then of the artificials: phase 1
        minimises the artificials' mass, phase 2 and the dual simplex the
        model's cost."""
        if phase == 1:
            return np.concatenate((np.zeros(self.nv), np.ones(self.m)))
        return np.concatenate((self.cost, np.zeros(self.m)))

    def dual_feasible(self) -> bool:
        """Whether every model column prices at ``-OPT_TOL`` or above on the
        model-cost duals of the current basis."""
        duals = self.phase_costs(2)[self.basis] @ self.binv
        reduced = self.cost - self.A_T @ duals
        reduced[self.basis[self.basis < self.nv]] = 0.0
        return bool((reduced >= -OPT_TOL).all())

    def basis_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the basis as (row, position, value) arrays: the
        entries of each position's model column, or an artificial's unit
        entry."""
        pos = np.flatnonzero(self.basis < self.nv)
        art = np.flatnonzero(self.basis >= self.nv)
        entry, lens = _entries(self.A, self.basis[pos])
        return (
            np.concatenate((self.A.indices[entry], self.basis[art] - self.nv)),
            np.concatenate((np.repeat(pos, lens), art)),
            np.concatenate((self.A.data[entry], np.ones(len(art)))),
        )

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of the dense basis (LAPACK ``dgetrf``)."""
        rows, pos, values = self.basis_entries()
        dense = np.zeros((self.m, self.m), order="F")
        dense[rows, pos] = values
        lu, piv, info = dgetrf(dense, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular basis")
        return lu, piv

    def refactor(self) -> None:
        """Rebuild the inverse from an LU factorization of the basis, freeing
        the held one first; x_B comes from the factors."""
        self.binv = None
        lu, piv = self.factor()
        self.x_basic = dgetrs(lu, piv, self.b)[0]
        # the default workspace is unblocked, several times slower
        lwork = int(dgetri_lwork(self.m)[0])
        # dgetri returns the inverse column-major; it is held row-major
        self.binv = np.ascontiguousarray(dgetri(lu, piv, lwork=lwork, overwrite_lu=1)[0])
        self._since_refresh = 0
        self._duals = None

    def refresh(self, costs: np.ndarray) -> None:
        """Recompute x_B and the duals for ``costs`` from the held inverse.

        The residuals of both are tested explicitly against the sparse
        basis, and then each takes one step of iterative refinement.  Only
        a failed test refactors, and both are then taken from the rebuilt
        inverse.
        """
        x_basic, duals, accurate = self._refined(costs)
        if not accurate:
            self.refactor()
            x_basic, duals, _ = self._refined(costs)
        self.x_basic, self._duals = x_basic, duals
        self._since_refresh = 0

    def _refined(self, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        """x_B and the duals from the held inverse, each refined once, and
        whether the inverse is accurate: the residuals before refinement
        within ``feas_tol``, and ``OPT_TOL`` times the costs' scale.  The
        refined residuals would be about the square of the inverse's error,
        and pivots read the inverse unrefined."""
        rows, pos, values = self.basis_entries()

        def residual(rhs, solution, transposed):
            # rhs - B solution, or rhs - B^T solution, over the basis entries
            into, read = (pos, rows) if transposed else (rows, pos)
            return rhs - np.bincount(into, values * solution[read], minlength=self.m)

        binv, c_B = self.binv, costs[self.basis]
        x_basic = binv @ self.b
        primal = residual(self.b, x_basic, False)
        x_basic += binv @ primal
        duals = c_B @ binv
        dual = residual(c_B, duals, True)
        duals += dual @ binv
        accurate = (
            np.abs(primal).max(initial=0.0) <= self.feas_tol
            and np.abs(dual).max(initial=0.0) <= OPT_TOL * (1.0 + np.abs(c_B).max(initial=0.0))
        )
        return x_basic, duals, accurate

    def finish(self) -> None:
        """Free the held inverse and take x_B from one LU factorization of
        the final basis.

        The refreshed x_B passed the residual test already, but its last
        bits depend on the pivots that built the inverse; x_B from the
        factors depends on the final basis alone.  So two solves that end
        on the same basis report the same values, bit for bit, and so do
        the solution files written from them, whatever updates built the
        inverse.  On the gp-fixed benchmark models (seed 1) the refreshed
        x_B differs from the factored one in the last bit of 23-33 values
        per model.
        """
        self.binv = None
        if self.m:  # LAPACK rejects empty matrices
            self.x_basic = dgetrs(*self.factor(), self.b)[0]

    def column(self, var: int) -> np.ndarray:
        """Column ``var`` of B^-1 A."""
        start, end = self.A.indptr[var], self.A.indptr[var + 1]
        return self.binv[:, self.A.indices[start:end]] @ self.A.data[start:end]

    def apply_pivot(
        self, entering: int, leave_pos: int, u: np.ndarray, step: float,
        d_entering: float, degenerate: bool,
    ) -> None:
        """Pivot ``entering``, whose column of B^-1 A is ``u``, into basis
        position ``leave_pos`` at the value ``step``; ``degenerate`` marks a
        pivot that leaves the objective as it was."""
        if step != 0.0:
            self.x_basic -= step * u
        self.x_basic[leave_pos] = step
        binv = self.binv
        pivot_row = binv[leave_pos] / u[leave_pos]
        # rank-1 basis-inverse update in place, by dger on the transpose,
        # which is column-major; it zeroes the leaving row, which the pivot
        # row replaces.  Only the rows where u is nonzero change, and dger
        # on just those, gathered, is faster while they are at most a fifth
        # of m: the copies in and out cost as much as the update past about
        # 20-25% at m = 330-1560 (one BLAS thread).  u is a median 6%
        # nonzero on the grid-reduced models, and 87% on the small
        # fixed-transport bases of gp-fixed
        rows = np.flatnonzero(u)
        if 5 * len(rows) > self.m:
            dger(-1.0, pivot_row, u, a=binv.T, overwrite_a=1)
        else:
            block = binv[rows]
            dger(-1.0, pivot_row, u[rows], a=block.T, overwrite_a=1)
            binv[rows] = block
        binv[leave_pos] = pivot_row
        if self._duals is not None:
            # dual update: only the entering column's reduced cost changes sign
            self._duals = self._duals + d_entering * pivot_row
        self.basis[leave_pos] = entering
        self.iterations += 1
        self._since_refresh += 1
        if degenerate:
            self._degenerate_streak += 1
            if self._degenerate_streak > self._cycle_guard:
                self.bland = True  # cycling suspected; Bland terminates
                self._degenerate_streak = 0
        else:
            self._degenerate_streak = 0

    def run_phase(self, phase: int) -> str:
        """Price-and-pivot until the phase objective is optimal.  Duals are
        updated incrementally between refreshes; apparent optimality is
        re-checked once against refreshed duals.  Only the working set's
        columns are priced, and at their optimum a sweep over every column
        on those duals refills the set; the phase ends when the sweep finds
        no column to add."""
        self._duals = None
        verified = False
        costs = self.phase_costs(phase)
        # cleanup_artificials may have pivoted in a column from outside
        self.working = np.union1d(self.working, self.basis[self.basis < self.nv])
        priced, A_T, model_cost, slot = self._priced(costs)
        while True:
            if self.iterations >= self.max_iters:
                return "iteration-limit"
            if self._since_refresh >= REFACTOR_EVERY:
                self.refresh(costs)
            if self._duals is None:
                self._duals = costs[self.basis] @ self.binv
            reduced = priced - A_T @ self._duals
            # basic columns price at 0; scattering over the m basis positions
            # is cheaper than a mask over every column
            basic = self.basis[self.basis < self.nv]
            reduced[slot[basic]] = 0.0
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -OPT_TOL:
                if not verified:
                    self.refresh(costs)
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
            step = max(self.x_basic[leave_pos], 0.0) / u[leave_pos]
            self.apply_pivot(entering, leave_pos, u, step, d_entering, step <= 1e-12)
            self.phase_iterations[phase - 1] += 1

    def run_dual(self) -> str:
        """Dual simplex from a dual feasible basis until x_B is feasible.

        The leaving position holds the largest primal infeasibility: |x| for
        an artificial, whose only feasible value is 0, and -x for a model
        column.  A nonbasic model column is eligible when its entry alpha_j
        in the leaving row of B^-1 A exceeds ``PIVOT_TOL`` with the sign of
        the leaving value, and the one with the least ratio d_j/|alpha_j|
        enters.  Near-ties, the ratios up to the largest step that keeps
        every eligible reduced cost at ``-OPT_TOL`` or above, go to the
        cheapest column, then the lowest index, as in the primal.  A row
        with no eligible column proves the model infeasible.  Reduced costs
        are updated along the leaving row between refreshes, and a status
        is reported only on refreshed x_B and duals: "optimal" when every
        nonbasic reduced cost is ``-OPT_TOL`` or above on those duals, and
        "feasible" when x_B is feasible but some column prices below, which
        leaves the optimum to phase 2.  Once the cycle guard
        trips, the infeasible position with the lowest basic index leaves
        and the tied column with the lowest index enters.
        """
        costs = self.phase_costs(2)
        self._duals = None
        reduced = None
        verified = False
        while True:
            if self.iterations >= self.max_iters:
                return "iteration-limit"
            if self._since_refresh >= REFACTOR_EVERY:
                self.refresh(costs)
                reduced = None
            if reduced is None:
                if self._duals is None:
                    self._duals = costs[self.basis] @ self.binv
                reduced = self.cost - self.A_T @ self._duals
                reduced[self.basis[self.basis < self.nv]] = 0.0
                # the reduced costs are updated along the leaving row, so
                # apply_pivot need not update the duals
                self._duals = None
            artificial = self.basis >= self.nv
            infeasibility = np.where(artificial, np.abs(self.x_basic), -self.x_basic)
            status = "feasible" if infeasibility.max(initial=0.0) <= self.feas_tol else None
            if status is None:
                if self.bland:
                    rows = np.flatnonzero(infeasibility > self.feas_tol)
                    leave_pos = int(rows[np.argmin(self.basis[rows])])
                else:
                    leave_pos = int(np.argmax(infeasibility))
                # the leaving row of B^-1 A, signed so that eligible entries
                # are positive
                alpha = self.A_T @ self.binv[leave_pos]
                if self.x_basic[leave_pos] < 0.0:
                    np.negative(alpha, out=alpha)
                eligible = alpha > PIVOT_TOL
                eligible[self.basis[~artificial]] = False
                eligible = np.flatnonzero(eligible)
                if eligible.size == 0:
                    status = "infeasible"
            if status is not None:
                if verified:
                    # reduced is priced on the refreshed duals
                    if status == "feasible" and (reduced >= -OPT_TOL).all():
                        return "optimal"
                    return status
                self.refresh(costs)
                reduced = None
                verified = True
                continue
            verified = False
            d, a = np.maximum(reduced[eligible], 0.0), alpha[eligible]
            ratios = d / a
            if self.bland:
                entering = int(eligible[np.argmax(ratios <= ratios.min() + 1e-12)])
            else:
                near = eligible[ratios <= ((d + OPT_TOL) / a).min()]
                entering = int(near[np.argmin(self.cost[near])])
            d_entering = float(reduced[entering])
            u = self.column(entering)
            step = self.x_basic[leave_pos] / u[leave_pos]
            dual_step = max(d_entering, 0.0) / alpha[entering]
            self.apply_pivot(entering, leave_pos, u, step, d_entering, dual_step <= 1e-12)
            reduced -= (d_entering / alpha[entering]) * alpha
            reduced[self.basis[self.basis < self.nv]] = 0.0
            self.phase_iterations[0] += 1

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

    def cleanup_artificials(self) -> bool:
        """Pivot out every leftover artificial that a column can replace;
        returns whether any was.

        After a feasible start, phase 1 or the dual simplex every basic
        artificial sits at ~zero.  One that no column can replace sits on a
        dependent row: its row of B^-1 A is zero for every column, and
        stays zero under later pivots, so it stays basic at zero and no
        ratio test reads it.
        """
        pivots = self.iterations
        for pos in np.flatnonzero(self.basis >= self.nv):
            row = self.A_T @ self.binv[pos]
            row[self.basis[self.basis < self.nv]] = 0.0
            candidates = np.flatnonzero(np.abs(row) > 1e-7)
            if candidates.size:
                entering = int(candidates[np.argmax(np.abs(row[candidates]))])
                u = self.column(entering)
                step = max(self.x_basic[pos], 0.0) / u[pos]
                self.apply_pivot(entering, int(pos), u, step, 0.0, step <= 1e-12)
        return self.iterations > pivots

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
    """Minimize the model with a dense-basis revised simplex.

    Deterministic for fixed options.  Returns a basic (vertex) solution
    when optimal; failures are reported in ``status``, never silently.
    A model whose dense basis would exceed ``MAX_BASIS_BYTES`` is refused
    as ``too-large`` before anything is allocated.
    """
    m = model.num_constraints
    if 8 * m * m > MAX_BASIS_BYTES:
        return LpSolution("too-large", math.nan, np.zeros(model.num_vars), np.empty(0, np.int64), 0)
    state = _Simplex(model, max_iters)

    # a dual feasible crash start reaches the optimum by the dual simplex;
    # another start runs phase 1 only when it is infeasible.  Both loops
    # report a status only on refreshed x_B and duals
    dual_optimal = False
    if state.dual_start:
        status = state.run_dual()
        if status not in ("optimal", "feasible"):
            return state.solution(status)
        dual_optimal = status == "optimal"
    elif state.infeasibility() > state.feas_threshold:
        status = state.run_phase(1)
        if status != "optimal":
            return state.solution(status)
        if state.infeasibility() > state.feas_threshold:
            return state.solution("infeasible")
    # phase 2 runs unless the dual simplex ended optimal and the cleanup
    # left its basis as it was
    if state.cleanup_artificials() or not dual_optimal:
        status = state.run_phase(2)
        if status != "optimal":
            return state.solution(status)
    state.finish()
    result = state.solution("optimal")
    residual = np.abs(model.constraints @ result.values - model.rhs).max()
    # one ulp of b passes 1e-7 from b ~ 1e9 on
    if residual > 1e-7 * max(1.0, np.abs(model.rhs).max(initial=0.0)):
        return replace(result, status="numeric-failure", objective_value=math.nan)
    return result


def row_potentials(
    A: sp.csc_matrix, A_T: sp.csr_matrix, b: np.ndarray, cost: np.ndarray
) -> np.ndarray:
    """Each row's mean column cost, each column weighted by
    ``exp(A^T log b)``: for a fixed-transport matrix, the product of its
    rows' right-hand sides.  Zeros, the plain cost order, when a weight
    sum underflows or a potential is not finite."""
    with np.errstate(all="ignore"):
        w = np.exp(A_T @ np.log(b))
        u = (A @ (w * cost)) / (A @ w)
    return u if np.isfinite(u).all() else np.zeros(len(b))


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
        np.asarray(problem.weights)[i],
        np.take(points, j, axis=0),
        np.take(targets, offsets[i] + k, axis=0),
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
    if js.size:
        candidates = np.take(atlas.support_points, js, axis=0)
    else:
        candidates = np.empty((0, problem.dimension))
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
