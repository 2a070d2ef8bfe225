"""LP solving, MPS export, and barycenter extraction/verification.

The solver is a two-phase revised simplex over an explicit dense basis
inverse: each pivot updates the inverse in place by a rank-1 ``dger``
update, and every ``REFACTOR_EVERY`` pivots it is rebuilt from scratch by
an LU-based inversion.  Phase 1 starts from a triangular crash basis:
every row with right-hand side 0 (the balance rows of the original,
reduced and hybrid models) takes its cheapest column that has no other
nonzero in such a row, and every other row starts on its artificial.  The
start is primal feasible at the same phase-1 infeasibility as an
all-artificial basis, but skips the degenerate pivots that would only
swap zero-valued artificials out of those rows.  Phase 2 re-prices the
original objective.  Bland's rule is the default pivot rule (termination
guarantee on the heavily degenerate transportation-like polytopes these
models produce); the largest-reduced-cost rule is available for speed and
falls back to Bland when a long degenerate streak suggests cycling.

Large instances are meant to be exported in MPS format and solved
externally; the built-in method targets desk scale.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dger

from .measures import Problem
from .models import LpModel
from .support import SupportAtlas, _key_tuples, _Quantizer, combination_chunks

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DROP_THRESHOLD = 1e-11
REFACTOR_EVERY = 200


class ExtractionError(ValueError):
    """Solution extraction preconditions violated."""


@dataclass(frozen=True)
class LpSolution:
    """Outcome of a simplex run.

    ``values`` holds the model variables; redundant constraint rows are
    detected after phase 1 and dropped internally, so an optimal basis
    contains model variables only (its size is the constraint rank).
    """

    status: str  # optimal | infeasible | unbounded | iteration-limit | numeric-failure
    objective_value: float
    values: np.ndarray
    basis: tuple[int, ...]
    is_vertex: bool
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _Simplex:
    """Two-phase revised simplex with a dense basis inverse."""

    def __init__(self, model: LpModel, max_iters: int, pivot_rule: str):
        A = model.constraints.tocsc()
        b = np.array(model.rhs, dtype=np.float64)
        flip = b < 0.0
        if flip.any():
            signs = np.where(flip, -1.0, 1.0)
            A = sp.diags(signs).dot(A).tocsc()
            b = b * signs
        self.A = A  # A.T is a CSR view: pricing computes A.T @ y row-wise
        self.b = b
        self.cost = np.array(model.objective, dtype=np.float64)
        self.m, self.nv = A.shape
        self.max_iters = max_iters
        self.rule = pivot_rule
        self.basis = np.arange(self.nv, self.nv + self.m, dtype=np.int64)
        self.in_basis = np.zeros(self.nv, dtype=bool)
        self.binv = np.eye(self.m, order="F")
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
        rows, cols = A.indices[pick], col[pick]
        order = np.lexsort((cols, self.cost[cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        # the artificial of row r sits at basis position r
        self.basis[rows[first]] = cols[first]
        self.in_basis[cols[first]] = True
        self.refactor()

    def refactor(self) -> None:
        dense = np.zeros((self.m, self.m), order="F")
        for pos, var in enumerate(self.basis):
            if var >= self.nv:
                dense[var - self.nv, pos] = 1.0
            else:
                start, end = self.A.indptr[var], self.A.indptr[var + 1]
                dense[self.A.indices[start:end], pos] = self.A.data[start:end]
        # LU inversion in place, so the result stays Fortran-ordered for dger.
        # assume_a="general" skips the structure scan; with overwrite_a that
        # scan's symmetric path crashes the process in scipy 1.17 (seen on
        # the 2x2 basis [[1, 1], [1, 0]]).
        self.binv = scipy.linalg.inv(
            dense, overwrite_a=True, check_finite=False, assume_a="general"
        )
        self.x_basic = self.binv @ self.b
        self._since_refactor = 0
        self._duals = None

    def column(self, var: int) -> np.ndarray:
        start, end = self.A.indptr[var], self.A.indptr[var + 1]
        return self.binv[:, self.A.indices[start:end]] @ self.A.data[start:end]

    def exact_duals(self, phase: int) -> np.ndarray:
        if phase == 1:
            c_basic = np.where(self.basis >= self.nv, 1.0, 0.0)
        else:
            safe = np.minimum(self.basis, self.nv - 1)
            c_basic = np.where(self.basis < self.nv, self.cost[safe], 0.0)
        return c_basic @ self.binv

    def apply_pivot(
        self, entering: int, leave_pos: int, u: np.ndarray, d_entering: float = 0.0
    ) -> None:
        step = max(self.x_basic[leave_pos], 0.0) / u[leave_pos]
        leaving = int(self.basis[leave_pos])
        self.x_basic -= step * u
        self.x_basic[leave_pos] = step
        pivot_row = self.binv[leave_pos] / u[leave_pos]
        u_rest = u.copy()
        u_rest[leave_pos] = 0.0
        # rank-1 basis-inverse update in place
        self.binv = dger(-1.0, u_rest, pivot_row, a=self.binv, overwrite_a=1)
        self.binv[leave_pos] = pivot_row
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
            if self.rule == "dantzig" and self._degenerate_streak > self._cycle_guard:
                self.rule = "bland"  # cycling suspected; Bland terminates
                self._degenerate_streak = 0
        else:
            self._degenerate_streak = 0

    def run_phase(self, phase: int) -> str:
        """Price-and-pivot until the phase objective is optimal.

        Duals are updated incrementally between refactorizations; apparent
        optimality is re-checked once against freshly factorized duals
        before the phase is allowed to end.
        """
        self._duals = None
        verified = False
        reduced_base = np.zeros(self.nv) if phase == 1 else self.cost
        while True:
            if self.iterations >= self.max_iters:
                return "iteration-limit"
            if self._duals is None:
                self._duals = self.exact_duals(phase)
            reduced = reduced_base - self.A.T @ self._duals
            eligible = np.nonzero((reduced < -OPT_TOL) & ~self.in_basis)[0]
            if eligible.size == 0:
                if verified:
                    return "optimal"
                self.refactor()
                verified = True
                continue
            verified = False
            if self.rule == "bland":
                entering = int(eligible[0])
            else:
                entering = int(eligible[np.argmin(reduced[eligible])])

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
            row_vec = self.A.T @ self.binv[int(pos)]
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
        self.b = self.b[keep]
        self.m = int(keep.sum())
        kept_vars = [int(v) for v in self.basis if v < self.nv]
        assert len(kept_vars) == self.m, "basis inconsistent after row drop"
        self.basis = np.array(kept_vars, dtype=np.int64)
        self._duals = None
        self.refactor()

    def solution(self, status: str) -> LpSolution:
        values = _model_values(self.x_basic, self.basis, self.nv)
        objective = float(self.cost @ values) if status == "optimal" else math.nan
        if status == "unbounded":
            objective = -math.inf
        return LpSolution(
            status, objective, values, tuple(int(v) for v in self.basis),
            True, self.iterations,
        )


def solve(
    model: LpModel, *, max_iters: int = 100_000, pivot_rule: str = "bland"
) -> LpSolution:
    """Minimize the model with a two-phase dense-basis revised simplex.

    Deterministic for fixed options.  Returns a basic (vertex) solution
    when optimal; failures are reported in ``status``, never silently.
    """
    if pivot_rule not in ("bland", "dantzig"):
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    state = _Simplex(model, max_iters, pivot_rule)

    # run_phase reports "optimal" only straight after its own refactor,
    # so x_basic is freshly computed at both phase ends
    status = state.run_phase(1)
    if status != "optimal":
        return state.solution(status)
    art = state.basis >= state.nv
    infeasibility = float(state.x_basic[art].sum()) if art.any() else 0.0
    if infeasibility > state.feas_threshold:
        return state.solution("infeasible")
    state.cleanup_artificials()

    status = state.run_phase(2)
    if status != "optimal":
        return state.solution(status)
    result = state.solution("optimal")
    residual = np.abs(model.constraints @ result.values - model.rhs).max()
    if residual > 1e-7:
        return LpSolution(
            "numeric-failure", math.nan, result.values, result.basis,
            True, result.iterations,
        )
    return result


def _model_values(x_basic: np.ndarray, basis: np.ndarray, nv: int) -> np.ndarray:
    values = np.zeros(nv)
    inside = basis < nv
    values[basis[inside]] = x_basic[inside]
    return values


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
        return "; ".join(
            f"{c.name} {'OK' if c.passed else 'FAIL'}" for c in self.checks
        )


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


def total_cost(bary: "BarycenterSolution", problem: Problem) -> float:
    """Transport cost of a solution: weighted squared distances times masses."""
    return _plan_cost(bary.support, bary.transport, problem)


def extract_barycenter(
    solution: LpSolution,
    model: LpModel,
    problem: Problem,
    atlas: SupportAtlas | None = None,
    drop_threshold: float = DROP_THRESHOLD,
) -> BarycenterSolution:
    """Read a barycenter measure out of an optimal LP solution.

    Mass on fixed-transport variables is credited to the combination's
    weighted mean (merged under the atlas dedup rule when an atlas is
    supplied) and routed to each constituent point.  Dust below the drop
    threshold is discarded and the remainder rescaled; the discarded total
    is recorded in the verification report.
    """
    if solution.status != "optimal":
        raise ExtractionError(f"cannot extract from status {solution.status!r}")
    if len(model.var_meta) != len(solution.values):
        raise ExtractionError("solution does not match model metadata")

    quant = atlas._quantizer if atlas is not None else _Quantizer(problem)
    point_by_key: dict[tuple[int, ...], tuple[float, ...]] = {}
    mass_by_key: dict[tuple[int, ...], float] = {}
    flow: dict[tuple[int, tuple[int, ...], int], float] = {}

    def credit(key, point, mass):
        point_by_key.setdefault(key, point)
        mass_by_key[key] = mass_by_key.get(key, 0.0) + mass

    values = np.asarray(solution.values, dtype=np.float64)
    metas = model.var_meta
    dropped = 0.0
    for col in np.flatnonzero((values > 0.0) & (values <= drop_threshold)).tolist():
        if metas[col][0] != "y":
            dropped += float(values[col])
    kept = np.flatnonzero(values > drop_threshold).tolist()

    # Means of the kept fixed-transport combinations, in scaled coordinates
    # so they merge with atlas points under the same key.
    w_cols = [col for col in kept if metas[col][0] == "w"]
    ordinals = np.array([metas[col][1] for col in w_cols], dtype=np.int64)
    # the model already holds these columns, so the cap is moot
    chunks = combination_chunks(
        problem, quant.scaled_weights, ordinals, cap=problem.combination_total()
    )
    idx, scaled = (np.concatenate(parts) for parts in zip(*chunks))
    w_row = {col: r for r, col in enumerate(w_cols)}
    w_keys = list(_key_tuples(quant.keys(scaled)))
    w_points = list(map(tuple, (scaled / quant.scale).tolist()))
    w_indices = idx.tolist()

    for col in kept:
        meta = metas[col]
        value = float(values[col])
        kind = meta[0]
        if kind == "z":
            if atlas is None:
                raise ExtractionError("mass variables need the atlas for points")
            point = atlas.support_points[meta[1]]
            credit(quant.key_of_point(point), point, value)
        elif kind == "w":
            r = w_row[col]
            key = w_keys[r]
            credit(key, w_points[r], value)
            for i, k in enumerate(w_indices[r]):
                flow[(i, key, k)] = flow.get((i, key, k), 0.0) + value
        elif kind != "y":
            raise ExtractionError(f"unknown variable tag {meta!r}")

    # Transport variables reference atlas points directly.
    for col in kept:
        meta = metas[col]
        if meta[0] != "y":
            continue
        _, i, j, k = meta
        point = atlas.support_points[j]
        key = quant.key_of_point(point)
        flow[(i, key, k)] = flow.get((i, key, k), 0.0) + float(values[col])

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
    checks = []

    total = math.fsum(mass for _, mass in support)
    checks.append(
        CheckResult("total-mass", abs(total - 1.0) <= 1e-8, f"sum {total:.12g}")
    )

    received: dict[tuple[int, int], float] = {}
    for i, _, k, mass in transport:
        received[(i, k)] = received.get((i, k), 0.0) + mass
    worst = 0.0
    for i, m in enumerate(problem.measures):
        for k, target in enumerate(m.masses):
            worst = max(worst, abs(received.get((i, k), 0.0) - target))
    checks.append(
        CheckResult("marginals", worst <= 1e-8, f"max deviation {worst:.3g}")
    )

    recomputed = _plan_cost(support, transport, problem)
    checks.append(
        CheckResult(
            "cost", abs(recomputed - cost) <= 1e-8,
            f"stored {cost:.12g} recomputed {recomputed:.12g}",
        )
    )

    bound = sum(problem.sizes) - problem.n + 1
    checks.append(
        CheckResult(
            "sparsity", len(support) <= bound,
            f"{len(support)} support points, bound {bound}", advisory=True,
        )
    )

    targets: dict[tuple[int, int], int] = {}
    for i, j, k, mass in transport:
        if mass > 1e-9:
            targets[(i, j)] = targets.get((i, j), 0) + 1
    splits = sum(1 for count in targets.values() if count > 1)
    checks.append(
        CheckResult(
            "non-mass-splitting", splits == 0,
            f"{splits} split support points", advisory=True,
        )
    )
    return VerificationReport(checks=tuple(checks), dropped_mass=dropped)


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
