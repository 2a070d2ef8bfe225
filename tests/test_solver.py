"""Simplex solver, MPS export, extraction, verification."""

import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from barylp import generators, solver
from barylp.models import (
    LpModel,
    build_general,
    build_hybrid,
    build_original,
    build_reduced,
)
from barylp.solver import (
    FEAS_TOL,
    PIVOT_TOL,
    BarycenterSolution,
    ExtractionError,
    VerificationReport,
    column_names,
    export_mps,
    extract_barycenter,
    solution_json,
    solve,
    verify_solution,
    _Simplex,
)
from barylp.support import build_atlas_exact, build_atlas_grid, hybrid_split

from conftest import assert_optimal_on_every_column, measure, problem


def raw_model(cost, dense, rhs, formulation="general"):
    """The LP with these coefficients, its columns all w-columns and its
    rows all marginal rows of measure 0."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = dense.shape
    return LpModel(
        formulation=formulation,
        objective=np.asarray(cost, dtype=float),
        constraints=sp.csr_matrix(dense),
        rhs=np.asarray(rhs, dtype=float),
        z=np.empty(0, dtype=np.int64),
        y=np.empty((0, 3), dtype=np.int64),
        w=np.arange(cols),
        balance=np.empty((0, 2), dtype=np.int64),
        marginal=np.column_stack((np.zeros(rows, dtype=np.int64), np.arange(rows))),
    )


def assert_vertex(model, solution):
    """The columns of the positive variables are linearly independent, and
    there are at most rank(A) of them."""
    A = model.constraints.toarray()
    positive = A[:, solution.values > 0.0]
    assert np.linalg.matrix_rank(positive) == positive.shape[1]
    assert positive.shape[1] <= np.linalg.matrix_rank(A)


class TestSolve:
    def test_forced_single_combination(self, forced_problem):
        model = build_general(forced_problem)
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(0.25, abs=1e-12)
        assert_vertex(model, solution)

    def test_identity_transport_costs_nothing(self):
        m = measure([[0.0], [2.0]])
        p = problem([m, m])
        solution = solve(build_general(p))
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_hand_solved_transportation_fixture(self):
        # moving the 0.3 mass imbalance across distance 2 at cost
        # 0.25 * 4 = 1 gives optimum 0.3
        p = problem(
            [measure([[0.0], [2.0]], [0.3, 0.7]), measure([[0.0], [2.0]], [0.6, 0.4])]
        )
        solution = solve(build_general(p))
        assert solution.objective_value == pytest.approx(0.3, abs=1e-10)

    def test_deterministic_bit_for_bit(self):
        p = generators.general_position(3, 3, 2, seed=17)
        model = build_general(p)
        a = solve(model)
        b = solve(model)
        assert a.status == b.status
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.basis, b.basis)

    def test_iteration_limit_reported(self):
        p = generators.general_position(3, 3, 2, seed=1)
        solution = solve(build_general(p), max_iters=2)
        assert solution.status == "iteration-limit"
        assert math.isnan(solution.objective_value)

    def test_infeasible_detected(self):
        model = raw_model(
            [0.0], [[1.0], [1.0]], [1.0, 2.0]
        )  # x = 1 and x = 2
        assert solve(model).status == "infeasible"

    def test_unbounded_detected(self):
        model = raw_model([-1.0, 0.0], [[1.0, -1.0]], [0.0])
        assert solve(model).status == "unbounded"

    def test_solution_invariants(self):
        instances = [generators.general_position(3, 2, 2, seed=s) for s in range(4)]
        instances.append(generators.mixed(3, 3, 1, seed=7))
        for p in instances:
            atlas = build_atlas_exact(p)
            for model in (
                build_general(p),
                build_reduced(atlas, p),
                build_hybrid(atlas, hybrid_split(atlas), p),
            ):
                solution = solve(model)
                assert solution.status == "optimal"
                assert np.all(solution.values >= -1e-10)
                residual = model.constraints @ solution.values - model.rhs
                assert np.max(np.abs(residual)) <= 1e-9
                assert_vertex(model, solution)

    def test_degenerate_cycling_instance_terminates(self, monkeypatch):
        # Beale's cycling LP, with the last row's slack scaled by 2 so that
        # phase 1 enters it and phase 2 starts at the textbook's degenerate
        # vertex: the greedy rule cycles there and must hand over to the
        # smallest-index rule to finish
        from barylp.oracle import basis_enumeration_solve

        cost = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
        dense = [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0],
        ]
        model = raw_model(cost, dense, [0.0, 0.0, 1.0])
        reference = basis_enumeration_solve(model)
        # labelled all-w, but its matrix is not fixed-transport: it keeps
        # the crash start
        start = _Simplex(model, 100)
        assert not start.fixed_transport()
        crashed = {pos: int(var) for pos, var in enumerate(start.basis) if var < start.nv}
        assert crashed == reference_crash(model)

        states = []
        init = _Simplex.__init__

        def recording_init(self, *args):
            init(self, *args)
            states.append(self)

        monkeypatch.setattr(_Simplex, "__init__", recording_init)
        solution = solve(model)
        assert [state.bland for state in states] == [True]
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(reference.value, abs=1e-9)
        # a crash start prices every column
        assert solution.working_set == model.num_vars

    def test_combination_ordinals_decode_round_trip(self):
        import itertools

        from barylp.support import combination_chunks

        p = problem(
            [
                measure([[0.0], [1.0]]),
                measure([[0.0], [1.0], [2.0]]),
                measure([[5.0], [6.0]]),
            ]
        )
        direct = list(itertools.product(*(range(s) for s in p.sizes)))
        ordinals = np.array([7, 0, 11, 3, 3])
        ((idx, _),) = combination_chunks(p, p.weights, ordinals)
        assert [tuple(row) for row in idx.tolist()] == [direct[h] for h in ordinals]

    def test_redundant_rows_handled(self):
        # transportation rows always carry one dependency; degenerate masses
        # add more
        p = problem(
            [measure([[0.0], [1.0]], [0.5, 0.5]), measure([[0.0], [1.0]], [0.5, 0.5])]
        )
        solution = solve(build_general(p))
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("instance", ["general", "duplicated-row"])
    def test_dependent_rows_keep_their_artificials(self, monkeypatch, instance):
        # the solver keeps the model it was built with: an artificial that no
        # column can replace stays basic at zero on its dependent row, and
        # the reported basis lists the model columns only
        if instance == "general":
            # three measures: n - 1 = 2 dependent marginal rows
            model = build_general(generators.general_position(3, 3, 2, seed=0))
            dependent = 2
        else:
            # not fixed-transport, so it starts on artificials
            model = raw_model(
                [1.0, 2.0, 3.0], [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 0.0]],
                [1.0, 1.0, 1.0],
            )
            dependent = 1
        states = []
        init = _Simplex.__init__

        def recording_init(self, *args):
            init(self, *args)
            states.append(self)

        monkeypatch.setattr(_Simplex, "__init__", recording_init)
        solution = solve(model)
        assert solution.status == "optimal"
        (state,) = states
        assert state.m == model.num_constraints
        assert state.A.shape == model.constraints.shape
        assert np.array_equal(state.b, model.rhs)
        artificial = state.basis >= state.nv
        assert np.count_nonzero(artificial) == dependent
        assert np.abs(state.x_basic[artificial]).max() <= FEAS_TOL
        rank = np.linalg.matrix_rank(model.constraints.toarray())
        assert rank == model.num_constraints - dependent
        assert len(solution.basis) == rank
        assert (solution.basis < model.num_vars).all()
        assert_vertex(model, solution)

    def test_tied_entering_columns_go_to_the_cheaper(self, monkeypatch):
        # column 2 has the least centred price, so the start gives it row
        # 0 and drops columns 0 and 1, and row 1's artificial keeps its
        # mass.  Columns 0 and 1 are equal, so their phase-1 reduced costs
        # tie; column 1 is cheaper and must enter, column 0 never
        model = raw_model([2.0, 1.0, -1.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [1.0, 1.0])
        state = _Simplex(model, 100)
        assert state.basis.tolist() == [2, 4] and state.infeasibility() == 1.0
        entered = []
        apply_pivot = _Simplex.apply_pivot

        def recording_pivot(self, entering, *args):
            entered.append(entering)
            apply_pivot(self, entering, *args)

        monkeypatch.setattr(_Simplex, "apply_pivot", recording_pivot)
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(1.0, abs=1e-12)
        assert entered[0] == 1 and 0 not in entered

    @pytest.mark.parametrize("formulation,conversions", [("reduced", []), ("general", ["tocsr"])])
    def test_models_reach_the_solver_in_csc(self, monkeypatch, formulation, conversions):
        # a crash start reads the CSC matrix as built; only the greedy start
        # asks for the rows
        p = generators.grid(3, 3, 2, seed=44)
        if formulation == "reduced":
            model = build_reduced(build_atlas_grid(p), p)
        else:
            model = build_general(p)
        assert model.constraints.format == "csc"
        calls = []
        for cls in (sp.csc_matrix, sp.csr_matrix):
            for name in ("tocsr", "tocsc"):

                def counting(self, *args, _method=getattr(cls, name), _name=name, **kwargs):
                    calls.append(_name)
                    return _method(self, *args, **kwargs)

                monkeypatch.setattr(cls, name, counting)
        assert solve(model).status == "optimal"
        assert calls == conversions

    def test_too_large_basis_is_refused_before_allocating(self, monkeypatch):
        model = build_general(generators.general_position(2, 3, 2, seed=5))
        m = model.num_constraints
        monkeypatch.setattr(solver, "MAX_BASIS_BYTES", 8 * m * m)
        assert solve(model).status == "optimal"

        def refuse(*args):
            raise AssertionError("the simplex was set up")

        monkeypatch.setattr(solver, "MAX_BASIS_BYTES", 8 * m * m - 1)
        monkeypatch.setattr(_Simplex, "__init__", refuse)
        solution = solve(model)
        assert solution.status == "too-large"
        assert math.isnan(solution.objective_value) and solution.iterations == 0


def crash_model(instance, formulation):
    if instance == "grid":
        p = generators.grid(3, 3, 2, seed=44)
        atlas = build_atlas_grid(p)
    else:
        p = generators.mixed(3, 3, 1, seed=7)
        atlas = build_atlas_exact(p)
    if formulation == "hybrid":
        return build_hybrid(atlas, hybrid_split(atlas), p)
    return {"original": build_original, "reduced": build_reduced}[formulation](atlas, p)


def reference_crash(model):
    """The crash choice by a plain loop over columns: {b = 0 row: column}."""
    A = model.constraints.tocsc()
    best = {}
    for c in range(model.num_vars):
        start, end = A.indptr[c], A.indptr[c + 1]
        entries = [
            (int(r), float(v))
            for r, v in zip(A.indices[start:end], A.data[start:end])
            if model.rhs[r] == 0.0 and v != 0.0
        ]
        if len(entries) == 1 and abs(entries[0][1]) > PIVOT_TOL:
            row = entries[0][0]
            key = (float(model.objective[c]), c)
            if row not in best or key < best[row]:
                best[row] = key
    return {row: c for row, (_, c) in best.items()}


def count_lapack(monkeypatch):
    """Patch the LU factorization and the inversion to count their calls."""
    calls = {"dgetrf": 0, "dgetri": 0}

    def counting(name):
        routine = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    return calls


class TestCrashBasis:
    @pytest.mark.parametrize("instance", ["grid", "mixed"])
    @pytest.mark.parametrize("formulation", ["original", "reduced", "hybrid"])
    def test_crash_start_is_nonsingular_feasible_and_covering(
        self, instance, formulation
    ):
        model = crash_model(instance, formulation)
        state = _Simplex(model, 100)
        m, nv = state.m, state.nv

        expected = reference_crash(model)
        assert expected, "the model has balance rows with eligible columns"
        crashed = {pos: int(var) for pos, var in enumerate(state.basis) if var < nv}
        assert crashed == expected
        assert np.count_nonzero(state.basis < nv) == len(expected)

        full = sp.hstack([model.constraints, sp.identity(m)], format="csc")
        basis_matrix = full[:, state.basis].toarray()
        assert np.linalg.matrix_rank(basis_matrix) == m
        assert np.allclose(state.binv @ basis_matrix, np.eye(m), atol=1e-10)
        # the crash writes its inverse out, so x_B is b exactly
        assert np.array_equal(state.x_basic, model.rhs)

        assert state.x_basic.min() >= -FEAS_TOL
        assert np.abs(state.x_basic[list(expected)]).max() <= FEAS_TOL
        artificial = state.basis >= nv
        # same phase-1 infeasibility as the all-artificial start
        assert state.x_basic[artificial].sum() == pytest.approx(model.rhs.sum())

    @pytest.mark.parametrize("instance", ["grid", "mixed"])
    @pytest.mark.parametrize("formulation", ["original", "reduced", "hybrid"])
    def test_crash_inverse_is_written_out(self, monkeypatch, instance, formulation):
        model = crash_model(instance, formulation)

        def refuse(*args, **kwargs):
            raise AssertionError("the crash basis was factored")

        monkeypatch.setattr(solver, "dgetrf", refuse)
        state = _Simplex(model, 100)
        full = sp.hstack([model.constraints, sp.identity(state.m)], format="csc")
        expected = np.linalg.inv(full[:, state.basis].toarray())
        assert np.abs(state.binv - expected).max() <= 1e-12

    def test_optimal_start_basis_forms_no_inverse(self, monkeypatch):
        # every row has b = 0 and crashes onto columns 0 and 1, which are
        # optimal; the start is feasible and dual feasible, so no loop
        # pivots, and only the final basis is factored, to report x_B
        model = raw_model([1.0, 1.0, 3.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.0, 0.0])
        calls = count_lapack(monkeypatch)
        solution = solve(model)
        assert solution.status == "optimal" and solution.iterations == 0
        assert solution.objective_value == 0.0
        assert calls == {"dgetrf": 1, "dgetri": 0}
        assert solution.phase_iterations == (0, 0)

    def test_refactor_inverts_a_symmetric_basis(self):
        # factor and invert in place (dgetrf, then dgetri); a
        # symmetric basis once crashed a structure-detecting inversion
        model = raw_model([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [2.0, 1.0])
        state = _Simplex(model, 100)
        state.basis[:] = [0, 1]
        state.refactor()
        assert np.allclose(state.binv, [[0.0, 1.0], [1.0, -1.0]])
        assert np.allclose(state.x_basic, [1.0, 1.0])


def dual_model(instance, formulation):
    """A crash-started model on a grid, mixed or general-position draw."""
    if instance != "gp":
        return crash_model(instance, formulation)
    p = generators.general_position(3, 3, 2, seed=1)
    return {"original": build_original, "reduced": build_reduced}[formulation](
        build_atlas_exact(p), p
    )


def general_objective(instance):
    p = {
        "grid": lambda: generators.grid(3, 3, 2, seed=44),
        "mixed": lambda: generators.mixed(3, 3, 1, seed=7),
        "gp": lambda: generators.general_position(3, 3, 2, seed=1),
    }[instance]()
    return solve(build_general(p)).objective_value


def record_loops(monkeypatch):
    """Patch the simplex loops to append "dual", 1 or 2 to a list as they run."""
    loops = []
    run_dual, run_phase = _Simplex.run_dual, _Simplex.run_phase

    def recording_dual(self):
        loops.append("dual")
        return run_dual(self)

    def recording_phase(self, phase):
        loops.append(phase)
        return run_phase(self, phase)

    monkeypatch.setattr(_Simplex, "run_dual", recording_dual)
    monkeypatch.setattr(_Simplex, "run_phase", recording_phase)
    return loops


# on general-position data no candidate is on y, so hybrid starts greedy
DUAL_CASES = [
    (instance, formulation)
    for instance in ("grid", "mixed", "gp")
    for formulation in ("original", "reduced", "hybrid")
    if (instance, formulation) != ("gp", "hybrid")
]


class TestDualSimplex:
    @pytest.mark.parametrize("instance,formulation", DUAL_CASES)
    def test_crash_started_models_take_the_dual_loop(
        self, monkeypatch, instance, formulation
    ):
        model = dual_model(instance, formulation)
        assert _Simplex(model, 100).dual_start
        loops = record_loops(monkeypatch)
        solution = solve(model)
        # the dual loop's optimum stands: no artificial is left to pivot out
        assert loops == ["dual"]
        assert solution.status == "optimal"
        assert solution.phase_iterations[0] > 0
        assert solution.objective_value == pytest.approx(
            general_objective(instance), abs=1e-12
        )
        assert_vertex(model, solution)
        assert_optimal_on_every_column(model, solution)

    def test_inconsistent_marginals_are_infeasible_in_the_dual_loop(self, monkeypatch):
        model = crash_model("grid", "reduced")
        rhs = model.rhs.copy()
        rhs[len(model.balance):][model.marginal[:, 0] == 0] *= 1.5
        model = replace(model, rhs=rhs)
        assert _Simplex(model, 100).dual_start
        loops = record_loops(monkeypatch)
        assert solve(model).status == "infeasible"
        assert loops == ["dual"]

    def test_dual_loop_ends_feasible_when_a_column_prices_below(self, monkeypatch):
        # the crash start on columns 0 and 1 is feasible, and column 2, at
        # cost -5, prices at -7 on its duals; passed off as dual feasible,
        # the start leaves the dual loop "feasible" and phase 2 pivots
        model = raw_model([1.0, 1.0, -5.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.0, 0.0])
        state = _Simplex(model, 100)
        assert list(state.basis) == [0, 1] and not state.dual_start
        assert state.run_dual() == "feasible"
        monkeypatch.setattr(_Simplex, "dual_feasible", lambda self: True)
        loops = record_loops(monkeypatch)
        solution = solve(model)
        assert loops == ["dual", 2]
        assert solution.status == "optimal" and solution.objective_value == 0.0
        assert solution.phase_iterations == (0, 1)
        assert_optimal_on_every_column(model, solution)

    def test_start_that_is_not_dual_feasible_runs_phase_1(self, monkeypatch):
        # row 1 has b = 0 and crashes onto column 1; column 3, only in row 0,
        # costs -1 and prices below 0 on the start's duals
        model = raw_model(
            [1.0, 1.0, 1.0, -1.0], [[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]], [1.0, 0.0]
        )
        state = _Simplex(model, 100)
        assert state.basis[1] == 1 and not state.dual_start
        loops = record_loops(monkeypatch)
        solution = solve(model)
        assert loops == [1, 2]
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(-1.0, abs=1e-12)
        assert solution.phase_iterations[0] > 0
        assert_vertex(model, solution)

    @pytest.mark.parametrize("error", [1e-2, 1e-6])
    def test_corrupted_inverse_fails_the_residual_test(self, monkeypatch, error):
        # a relative error of 1e-6 leaves refined values accurate to about
        # 1e-12, so the test must read the residuals before refinement
        model = crash_model("grid", "reduced")
        expected = solve(model).objective_value
        calls = count_lapack(monkeypatch)
        checks = []
        refresh, refined = _Simplex.refresh, _Simplex._refined

        def corrupting_refresh(self, costs):
            if not checks:
                self.binv *= 1.0 + error
            refresh(self, costs)

        def recording_refined(self, costs):
            result = refined(self, costs)
            checks.append(result[2])
            return result

        monkeypatch.setattr(_Simplex, "refresh", corrupting_refresh)
        monkeypatch.setattr(_Simplex, "_refined", recording_refined)
        solution = solve(model)
        # the corrupted inverse fails, the rebuilt one passes, later checks pass
        assert checks[:2] == [False, True] and all(checks[1:])
        assert calls == {"dgetrf": 2, "dgetri": 1}
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(expected, abs=1e-12)
        assert_vertex(model, solution)

    def test_rounded_dependent_row_is_feasible_at_large_mass(self, monkeypatch):
        # row 2 is row 0 plus row 1, and its right-hand side is their sum
        # rounded: 1.5e-8 off, which the artificial of the dependent row
        # keeps, with no column to pivot on there
        b0, b1 = 100000000.63696168, 100000000.26978672
        assert Fraction(b0) + Fraction(b1) != Fraction(b0 + b1)
        model = raw_model(
            [1.0, 2.0, 3.0, 1.0],
            [[2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [2.0, 1.0, 1.0, 1.0]],
            [b0, b1, b0 + b1],
        )
        assert _Simplex(model, 100).dual_start
        loops = record_loops(monkeypatch)
        solution = solve(model)
        assert loops == ["dual"]
        assert solution.status == "optimal"
        # x0 = b0 / 2 at cost 1 and x3 = b1 at cost 1
        assert solution.objective_value == pytest.approx(b0 / 2 + b1, rel=1e-15)
        assert_vertex(model, solution)

    def test_residual_bound_scales_with_the_right_hand_side(self):
        # the raw LP above drawn at b ~ 1e9, where one ulp of b is 2.4e-7:
        # the optimal plan keeps the dependent row's rounding as its residual
        b0, b1 = np.random.default_rng(0).uniform(1e9, 2e9, size=2)
        assert Fraction(b0) + Fraction(b1) != Fraction(b0 + b1)
        model = raw_model(
            [1.0, 2.0, 3.0, 1.0],
            [[2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [2.0, 1.0, 1.0, 1.0]],
            [b0, b1, b0 + b1],
        )
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(b0 / 2 + b1, rel=1e-15)
        residual = np.abs(model.constraints @ solution.values - model.rhs).max()
        assert 1e-7 < residual <= 1e-7 * (b0 + b1)

    def test_residual_of_2e_7_fails_at_unit_mass(self, monkeypatch):
        model = build_general(generators.general_position(2, 3, 2, seed=5))
        assert model.rhs.max() <= 1.0
        finish = _Simplex.finish

        def perturbed_finish(self):
            finish(self)
            self.x_basic[np.argmax(self.basis < self.nv)] += 2e-7

        monkeypatch.setattr(_Simplex, "finish", perturbed_finish)
        solution = solve(model)
        assert solution.status == "numeric-failure"
        assert math.isnan(solution.objective_value)

    def test_grid_reduced_factors_once_and_never_inverts(self, monkeypatch):
        # over 400 pivots: the residual checks every REFACTOR_EVERY pivots
        # and at the phase ends read the held inverse, and only the final
        # basis is factored
        p = generators.grid(4, 4, 2, seed=1)
        model = build_reduced(build_atlas_grid(p), p)
        calls = count_lapack(monkeypatch)
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.iterations > 2 * solver.REFACTOR_EVERY
        assert calls == {"dgetrf": 1, "dgetri": 0}

    @pytest.mark.parametrize("instance", ["grid", "mixed"])
    def test_smallest_index_rule_reaches_the_optimum(self, monkeypatch, instance):
        # a guard of 0 hands the dual loop to the smallest-index rule at its
        # first degenerate pivot
        model = crash_model(instance, "reduced")
        states = []
        init = _Simplex.__init__

        def guarded_init(self, *args):
            init(self, *args)
            self._cycle_guard = 0
            states.append(self)

        monkeypatch.setattr(_Simplex, "__init__", guarded_init)
        solution = solve(model)
        assert [state.bland for state in states] == [True]
        assert solution.status == "optimal"
        assert solution.objective_value == pytest.approx(
            general_objective(instance), abs=1e-12
        )
        assert_vertex(model, solution)


class TestCleanup:
    def test_artificials_on_independent_rows_are_pivoted_out(self, monkeypatch):
        # b = 0 rows 2 and 3 have no crash column, so their artificials stay
        # basic at zero through the dual loop; columns replace both
        model = raw_model(
            [2.0, 2.0, 2.0, 3.0, 1.0, 4.0],
            [[2, 1, 1, 0, 2, 1], [0, 2, 0, 0, 2, 0], [0, 0, 1, 2, 0, 0], [0, 0, 2, 2, 0, 0]],
            [6.0, 4.0, 0.0, 0.0],
        )
        seen = []
        cleanup = _Simplex.cleanup_artificials

        def counting_cleanup(self):
            seen.append(np.count_nonzero(self.basis >= self.nv))
            pivoted = cleanup(self)
            seen.append(np.count_nonzero(self.basis >= self.nv))
            return pivoted

        monkeypatch.setattr(_Simplex, "cleanup_artificials", counting_cleanup)
        loops = record_loops(monkeypatch)
        solution = solve(model)
        assert solution.status == "optimal"
        assert seen == [2, 0]
        # the cleanup moved the basis, so phase 2 confirms the optimum
        assert loops == ["dual", 2]
        assert_vertex(model, solution)


def centred_prices(model):
    """c - A^T u by plain loops: row r's potential u_r is the mean cost of
    its columns, each weighted by the product of its rows' masses."""
    A = model.constraints.tocsc()
    cost, rhs = model.objective.tolist(), model.rhs.tolist()
    rows_of = [A.indices[A.indptr[c] : A.indptr[c + 1]].tolist() for c in range(model.num_vars)]
    weighted, weights = [0.0] * len(rhs), [0.0] * len(rhs)
    for c, rows in enumerate(rows_of):
        w = math.prod(rhs[r] for r in rows)
        for r in rows:
            weighted[r] += w * cost[c]
            weights[r] += w
    u = [a / b for a, b in zip(weighted, weights)]
    return [cost[c] - sum(u[r] for r in rows) for c, rows in enumerate(rows_of)]


def reference_greedy(model):
    """The greedy start by a plain loop over columns in (centred price,
    index) order: {basis position: (column, value)}."""
    A = model.constraints.tocsc()
    remaining = model.rhs.tolist()
    alive = set(range(model.num_constraints))
    start = {}
    price = centred_prices(model)
    for c in sorted(range(model.num_vars), key=lambda c: (price[c], c)):
        rows = A.indices[A.indptr[c] : A.indptr[c + 1]].tolist()
        if not set(rows) <= alive:
            continue
        take = min(remaining[r] for r in rows)
        for r in rows:
            remaining[r] -= take
        exhausted = [r for r in rows if remaining[r] <= FEAS_TOL]
        start[exhausted[0]] = (c, take)
        alive -= set(exhausted)
    return start


def greedy_instance(name):
    if name == "gp-random-weights":
        return generators.general_position(2, 3, 2, seed=5, random_weights=True)
    if name == "uniform-masses":
        return problem(
            [measure([[0.0], [1.0]]), measure([[0.0], [3.0]]), measure([[1.0], [2.0], [4.0]])]
        )
    if name == "full-grid":
        return generators.grid(2, 3, 1, seed=8)
    if name == "mixed":
        return generators.mixed(2, 1, 2, seed=3)
    if name == "n=1":
        return problem([measure([[0.0], [1.0], [5.0], [2.0]], [0.1, 0.4, 0.3, 0.2])])
    # n = 2: the transportation problem
    return problem([
        measure([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]], [0.5, 0.25, 0.25]),
        measure([[2.0, 2.0], [0.0, 1.0], [1.0, 0.0], [4.0, 4.0]], [0.1, 0.2, 0.3, 0.4]),
    ])


GREEDY_INSTANCES = ["gp-random-weights", "uniform-masses", "full-grid", "mixed", "n=1", "n=2"]


class TestGreedyStart:
    def test_fixed_transport_models_start_greedy(self):
        model = build_general(generators.general_position(2, 3, 2, seed=5))
        state = _Simplex(model, 100)
        expected = reference_greedy(model)
        started = {pos: int(var) for pos, var in enumerate(state.basis) if var < state.nv}
        assert started == {pos: c for pos, (c, _) in expected.items()}
        assert np.count_nonzero(state.basis < state.nv) == len(expected)
        values = np.array([take for _, take in expected.values()])
        assert np.allclose(state.x_basic[list(expected)], values, atol=1e-12)

    @pytest.mark.parametrize("name", GREEDY_INSTANCES)
    def test_start_is_feasible_and_skips_phase_1(self, name):
        from barylp.oracle import basis_enumeration_solve

        model = build_general(greedy_instance(name))
        state = _Simplex(model, 100)
        started = {pos: int(var) for pos, var in enumerate(state.basis) if var < state.nv}
        assert started == {pos: c for pos, (c, _) in reference_greedy(model).items()}
        full = sp.hstack([model.constraints, sp.identity(state.m)], format="csc")
        assert np.linalg.matrix_rank(full[:, state.basis].toarray()) == state.m
        assert state.x_basic.min() >= -FEAS_TOL
        assert state.infeasibility() <= state.feas_threshold

        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.phase_iterations[0] == 0
        assert sum(solution.phase_iterations) <= solution.iterations
        reference = basis_enumeration_solve(model)
        assert solution.objective_value == pytest.approx(reference.value, abs=1e-12)
        assert_vertex(model, solution)
        assert_optimal_on_every_column(model, solution)

    def test_disagreeing_marginals_are_infeasible_through_phase_1(self, monkeypatch):
        model = build_general(greedy_instance("n=2"))
        rhs = model.rhs.copy()
        rhs[model.marginal[:, 0] == 0] *= 1.5  # measure 0 now has mass 1.5
        model = replace(model, rhs=rhs)
        state = _Simplex(model, 100)
        assert (state.basis < state.nv).any()
        assert state.infeasibility() > state.feas_threshold

        phases = []
        run_phase = _Simplex.run_phase

        def recording_phase(self, phase):
            phases.append(phase)
            return run_phase(self, phase)

        monkeypatch.setattr(_Simplex, "run_phase", recording_phase)
        assert solve(model).status == "infeasible"
        assert phases == [1]

    @pytest.mark.parametrize("instance", ["gp", "mixed"])
    def test_only_fixed_transport_matrices_start_greedy(self, instance):
        if instance == "gp":
            p = generators.general_position(3, 2, 2, seed=4)
        else:
            p = generators.mixed(3, 3, 1, seed=7)
        atlas = build_atlas_exact(p)
        hybrid = build_hybrid(atlas, hybrid_split(atlas), p)
        # general position puts no candidate on y, so its hybrid is all w
        assert _Simplex(hybrid, 100).fixed_transport() == (instance == "gp")
        assert not _Simplex(build_reduced(atlas, p), 100).fixed_transport()


def plain_cost_order(monkeypatch):
    """Zero potentials: the greedy ranks columns by their costs."""
    monkeypatch.setattr(solver, "row_potentials", lambda A, A_T, b, cost: np.zeros(len(b)))


def tiny_mass_problem(tiny):
    """n = 3, one point of each measure holding ``tiny`` of its mass."""
    return problem([
        measure([[0.0, 0.0], [1.0, 0.3], [0.2, 1.0]], [0.5, 0.5 - tiny, tiny]),
        measure([[0.5, 0.1], [0.9, 0.8], [0.1, 0.6]], [tiny, 0.5, 0.5 - tiny]),
        measure([[0.3, 0.3], [0.7, 0.2], [0.4, 0.9]], [0.5 - tiny, tiny, 0.5]),
    ])


class TestCentredStart:
    @pytest.mark.parametrize("name", GREEDY_INSTANCES)
    def test_prices_match_the_plain_loops(self, name):
        model = build_general(greedy_instance(name))
        state = _Simplex(model, 100)
        price = state.cost - state.A_T @ solver.row_potentials(
            state.A, state.A_T, state.b, state.cost
        )
        assert np.allclose(price, centred_prices(model), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("instance", ["gp", "full-grid", "mixed"])
    def test_centred_start_takes_fewer_pivots(self, monkeypatch, instance):
        if instance == "gp":
            p = generators.general_position(4, 5, 2, seed=1)
        elif instance == "full-grid":
            p = generators.grid(3, 4, 2, seed=1)
        else:
            p = generators.mixed(3, 3, 3, seed=1)
        model = build_general(p)
        centred = solve(model)
        plain_cost_order(monkeypatch)
        plain = solve(model)
        assert centred.status == plain.status == "optimal"
        assert centred.iterations < plain.iterations
        assert centred.objective_value == pytest.approx(plain.objective_value, abs=1e-12)
        assert_optimal_on_every_column(model, centred)

    @pytest.mark.parametrize("tiny", [1e-20, 1e-100, 1e-200])
    def test_tiny_masses_solve_without_a_floating_point_warning(self, tiny):
        # warnings are errors in this suite; the products of three masses
        # underflow from about 1e-108 on
        model = build_general(tiny_mass_problem(tiny))
        solution = solve(model)
        assert solution.status == "optimal"
        assert_optimal_on_every_column(model, solution)

    def test_underflowed_or_non_finite_potentials_fall_back_to_the_costs(self, monkeypatch):
        model = build_general(tiny_mass_problem(0.25))
        state = _Simplex(model, 100)
        potentials = solver.row_potentials(state.A, state.A_T, state.b, state.cost)
        assert np.isfinite(potentials).all() and potentials.any()
        # every weight underflows to 0, and so does every weight sum
        assert not solver.row_potentials(state.A, state.A_T, state.b * 1e-200, state.cost).any()
        cost = state.cost.copy()
        cost[0] = np.inf
        assert not solver.row_potentials(state.A, state.A_T, state.b, cost).any()

        # a start on the zero potentials is the plain cost order's
        scaled = replace(model, rhs=model.rhs * 1e-200)
        centred = _Simplex(scaled, 100).basis
        plain_cost_order(monkeypatch)
        assert np.array_equal(centred, _Simplex(scaled, 100).basis)
        assert solve(scaled).status == "optimal"


class TestWorkingSet:
    def test_fixed_transport_models_price_a_small_set(self):
        p = generators.general_position(4, 12, 2, seed=1)
        atlas = build_atlas_exact(p)
        split = hybrid_split(atlas)
        assert not split.on_y.any()
        for model in (build_general(p), build_hybrid(atlas, split, p)):
            solution = solve(model)
            assert solution.status == "optimal"
            assert solution.working_set < model.num_vars / 10, model.formulation
            assert_optimal_on_every_column(model, solution)

    @pytest.mark.parametrize("formulation", ["original", "reduced", "hybrid"])
    def test_crash_started_models_price_every_column(self, formulation):
        model = crash_model("grid", formulation)
        if formulation == "hybrid":
            assert len(model.y), "some candidate is on y"
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.working_set == model.num_vars

    def test_refills_reach_the_optimum_of_every_column(self, monkeypatch):
        # m columns per refill: several sweeps, each must find columns the
        # set lacks, and the last must find none
        monkeypatch.setattr(solver, "REFILL_PER_ROW", 1)
        p = generators.general_position(3, 4, 2, seed=2)
        model = build_general(p)
        sweeps = []
        refill = _Simplex.refill

        def recording_refill(self, costs):
            sweeps.append(refill(self, costs))
            return sweeps[-1]

        monkeypatch.setattr(_Simplex, "refill", recording_refill)
        solution = solve(model)
        assert solution.status == "optimal"
        assert sweeps.count(True) > 1 and sweeps[-1] is False
        assert solution.objective_value == pytest.approx(
            solve(build_reduced(build_atlas_exact(p), p)).objective_value, abs=1e-12
        )
        assert_optimal_on_every_column(model, solution)


class TestCrossFormulation:
    def test_objectives_agree_small_random_suite(self):
        for seed in range(6):
            p = generators.general_position(
                2 + seed % 3, 2 + seed % 2, 1 + seed % 2, seed=100 + seed
            )
            atlas = build_atlas_exact(p)
            split = hybrid_split(atlas)
            objectives = {}
            for name, model in (
                ("original", build_original(atlas, p)),
                ("reduced", build_reduced(atlas, p)),
                ("general", build_general(p)),
                ("hybrid", build_hybrid(atlas, split, p)),
            ):
                solution = solve(model)
                assert solution.status == "optimal", (name, seed)
                objectives[name] = solution.objective_value
            spread = max(objectives.values()) - min(objectives.values())
            assert spread <= 1e-8, objectives


class TestGridRegimeSolving:
    def test_full_grid_atlas_models_reach_same_optimum(self):
        p = generators.grid(3, 3, 2, seed=44)
        fast = build_atlas_grid(p)
        reference = solve(build_general(p))
        for build in (build_original, build_reduced):
            model = build(fast, p)
            solution = solve(model)
            assert solution.status == "optimal"
            assert solution.objective_value == pytest.approx(
                reference.objective_value, abs=1e-8
            )

    def test_sparse_grid_atlas_keeps_the_optimum(self):
        for seed in range(3):
            p = generators.grid(3, 3, 2, density=0.5, seed=90 + seed)
            fast = build_atlas_grid(p)
            reference = solve(build_general(p))
            model = build_reduced(fast, p)
            exact = build_reduced(build_atlas_exact(p), p)
            assert model.constraints.shape == exact.constraints.shape
            solution = solve(model)
            assert solution.status == "optimal"
            assert solution.objective_value == pytest.approx(
                reference.objective_value, abs=1e-8
            )
            bary = extract_barycenter(solution, model, p, atlas=fast)
            assert bary.verification.passed


GOLDEN_MPS = (
    "NAME          BARYLP_GENERAL\n"
    "ROWS\n"
    " N  COST\n"
    " E  M1_1\n"
    "COLUMNS\n"
    "    w1        COST      0.25           M1_1      1\n"
    "RHS\n"
    "    RHS       M1_1      1\n"
    "ENDATA\n"
)


def parse_mps(text):
    """Minimal independent fixed-MPS reader for round-trip checks."""
    section = None
    rows = []
    row_types = {}
    columns = {}
    rhs = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head = line.split()
        if line[0] not in " \t":
            section = head[0]
            continue
        if section == "ROWS":
            row_types[head[1]] = head[0]
            rows.append(head[1])
        elif section == "COLUMNS":
            name = head[0]
            entries = columns.setdefault(name, {})
            for row, value in zip(head[1::2], head[2::2]):
                entries[row] = float(value)
        elif section == "RHS":
            for row, value in zip(head[1::2], head[2::2]):
                rhs[row] = float(value)
    return rows, row_types, columns, rhs


class TestMpsExport:
    def test_golden_single_variable_model(self):
        model = raw_model([0.25], [[1.0]], [1.0])
        buf = io.StringIO()
        export_mps(model, buf)
        assert buf.getvalue() == GOLDEN_MPS

    def test_round_trip_transportation(self):
        p = generators.general_position(2, 2, 1, seed=23)
        model = build_general(p)
        buf = io.StringIO()
        export_mps(model, buf)
        rows, row_types, columns, rhs = parse_mps(buf.getvalue())
        constraint_rows = [r for r in rows if row_types[r] == "E"]
        assert len(constraint_rows) == 4
        assert set(row_types.values()) == {"N", "E"}
        assert len(columns) == 4
        # nonzero pattern identical to the model
        csc = model.constraints.tocsc()
        for col, name in enumerate(column_names(model)):
            entries = columns[name]
            structural = {r for r in entries if r != "COST"}
            expected = {
                constraint_rows[r]
                for r in csc.indices[csc.indptr[col] : csc.indptr[col + 1]]
            }
            assert structural == expected
        assert all(abs(v - 0.5) < 1e-12 or 0 < v <= 1 for v in rhs.values())

    def test_round_trip_reduced_dimensions(self):
        p = generators.general_position(2, 3, 2, seed=31)
        model = build_reduced(build_atlas_exact(p), p)
        buf = io.StringIO()
        export_mps(model, buf)
        rows, row_types, columns, _ = parse_mps(buf.getvalue())
        assert len([r for r in rows if row_types[r] == "E"]) == model.num_constraints
        assert len(columns) == model.num_vars
        nnz = sum(
            1 for entries in columns.values() for r in entries if r != "COST"
        )
        assert nnz == model.num_nonzeros

    def test_round_trip_hybrid_mixed_variable_kinds(self):
        # hybrid models carry z, y and w columns at once
        p = generators.mixed(3, 3, 1, seed=6)
        atlas = build_atlas_exact(p)
        split = hybrid_split(atlas)
        model = build_hybrid(atlas, split, p)
        assert len(model.z) and len(model.y) and len(model.w)
        buf = io.StringIO()
        export_mps(model, buf)
        rows, row_types, columns, rhs = parse_mps(buf.getvalue())
        assert len(columns) == model.num_vars
        assert len([r for r in rows if row_types[r] == "E"]) == model.num_constraints
        nnz = sum(1 for entries in columns.values() for r in entries if r != "COST")
        assert nnz == model.num_nonzeros

    def test_names_not_padded(self):
        model = replace(
            raw_model([0.0] * 3, np.ones((1, 3)), [1.0]),
            z=np.array([1233]), y=np.array([[0, 11, 2]]), w=np.array([41]),
        )
        assert column_names(model) == ["z1234", "y1_12_3", "w42"]

    def test_binary_sink(self, forced_problem):
        model = build_general(forced_problem)
        buf = io.BytesIO()
        export_mps(model, buf)
        assert buf.getvalue().startswith(b"NAME")


class TestExtraction:
    def test_fixed_transport_solution_merges_means(self):
        # w mass 0.5 on ([0],[0]) and 0.5 on ([0],[2]) gives support
        # {0: 0.5, 1: 0.5} at cost 0.5
        p = problem(
            [measure([[0.0]], [1.0]), measure([[0.0], [2.0]], [0.5, 0.5])]
        )
        model = build_general(p)
        solution = solve(model)
        bary = extract_barycenter(solution, model, p)
        assert bary.support == (((0.0,), 0.5), ((1.0,), 0.5))
        assert bary.cost == pytest.approx(0.5, abs=1e-12)
        assert bary.verification.passed

    def test_formulations_extract_identical_measures(self):
        # unique optimum: compare the extracted measures themselves
        p = problem(
            [measure([[0.0]], [1.0]), measure([[0.0], [2.0]], [0.5, 0.5])]
        )
        atlas = build_atlas_exact(p)
        split = hybrid_split(atlas)
        results = []
        for model, use_atlas in (
            (build_original(atlas, p), True),
            (build_reduced(atlas, p), True),
            (build_general(p), False),
            (build_hybrid(atlas, split, p), True),
        ):
            solution = solve(model)
            bary = extract_barycenter(
                solution, model, p, atlas=atlas if use_atlas else None
            )
            results.append(bary)
        first = results[0]
        for other in results[1:]:
            assert other.points == first.points
            assert other.masses == pytest.approx(first.masses, abs=1e-9)
            assert other.cost == pytest.approx(first.cost, abs=1e-9)

    def test_sparsity_bound_small_instance(self):
        # bound |P1| + |P2| - n + 1 = 2
        p = problem([measure([[0.0]], [1.0]), measure([[0.0], [2.0]], [0.4, 0.6])])
        model = build_general(p)
        bary = extract_barycenter(solve(model), model, p)
        assert len(bary.support) <= 2
        assert bary.verification["sparsity"].passed

    def test_rejects_non_optimal(self, forced_problem):
        model = build_general(forced_problem)
        limited = solve(model, max_iters=0)
        with pytest.raises(ExtractionError):
            extract_barycenter(limited, model, forced_problem)

    def test_mass_and_y_need_atlas(self, twin_grid_problem):
        atlas = build_atlas_exact(twin_grid_problem)
        model = build_reduced(atlas, twin_grid_problem)
        solution = solve(model)
        with pytest.raises(ExtractionError, match="atlas"):
            extract_barycenter(solution, model, twin_grid_problem)

    def test_support_sorted_lexicographically(self):
        p = generators.general_position(2, 4, 2, seed=3)
        model = build_general(p)
        bary = extract_barycenter(solve(model), model, p)
        assert list(bary.points) == sorted(bary.points)


class TestVerification:
    def test_pipeline_solutions_pass_all_checks(self):
        for seed in range(3):
            p = generators.general_position(3, 3, 2, seed=60 + seed)
            model = build_general(p)
            bary = extract_barycenter(solve(model), model, p)
            report = verify_solution(bary, p)
            assert report.passed
            assert all(c.passed for c in report.checks)

    def test_hand_built_split_detected(self):
        p = problem(
            [measure([[0.0], [2.0]], [0.5, 0.5]), measure([[1.0]], [1.0])]
        )
        # one support point sending mass to both points of measure 0
        bary = BarycenterSolution(
            support=(((1.0,), 1.0),),
            transport=((0, 0, 0, 0.5), (0, 0, 1, 0.5), (1, 0, 0, 1.0)),
            cost=0.5 * (0.5 * 1.0 + 0.5 * 1.0) + 0.0,
            source_formulation="original",
            verification=VerificationReport(checks=()),
        )
        report = verify_solution(bary, p)
        assert not report["non-mass-splitting"].passed
        assert report["total-mass"].passed
        assert report["marginals"].passed

    def test_mass_deficit_detected(self):
        p = problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])
        bary = BarycenterSolution(
            support=(((0.5,), 0.9),),
            transport=((0, 0, 0, 0.9), (1, 0, 0, 0.9)),
            cost=0.9 * 0.25,
            source_formulation="general",
            verification=VerificationReport(checks=()),
        )
        report = verify_solution(bary, p)
        assert not report["total-mass"].passed
        assert not report["marginals"].passed


class TestTotalCost:
    """The plan cost a solution stores, and its recomputation by
    ``verify_solution``."""

    def test_zero_transport(self):
        p = problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])
        bary = BarycenterSolution(
            support=(((0.5,), 1.0),),
            transport=(),
            cost=0.0,
            source_formulation="general",
            verification=VerificationReport(checks=()),
        )
        assert verify_solution(bary, p)["cost"].detail == "stored 0 recomputed 0"

    def test_forced_instance_cost(self, forced_problem):
        model = build_general(forced_problem)
        solution = solve(model)
        bary = extract_barycenter(solution, model, forced_problem)
        assert bary.cost == pytest.approx(0.25, abs=1e-12)
        assert verify_solution(bary, forced_problem)["cost"].passed

    def test_objective_mismatch_fails(self, forced_problem):
        # the check compares the plan's cost with the LP objective; it used
        # to compare the plan's cost with itself
        model = build_general(forced_problem)
        solution = solve(model)
        shifted = replace(solution, objective_value=solution.objective_value + 1e-6)
        report = extract_barycenter(shifted, model, forced_problem).verification
        assert not report["cost"].passed
        assert not report.passed

    def test_matches_objective_on_solved_instances(self):
        for seed in range(4):
            p = generators.general_position(2, 3, 2, seed=70 + seed)
            atlas = build_atlas_exact(p)
            model = build_reduced(atlas, p)
            solution = solve(model)
            bary = extract_barycenter(solution, model, p, atlas=atlas)
            assert bary.cost == pytest.approx(solution.objective_value, abs=1e-8)
            assert verify_solution(bary, p)["cost"].passed
            # the scalar loop the array kernel replaced, summed left to
            # right: a few terms, so a few ulps apart at most
            loop = 0.0
            for i, j, k, mass in bary.transport:
                source, target = bary.support[j][0], p.measures[i].points[k]
                loop += p.weights[i] * sum((a - b) ** 2 for a, b in zip(source, target)) * mass
            assert bary.cost == pytest.approx(loop, rel=1e-14)

    def test_bad_indices_rejected(self):
        p = problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])
        # a negative index would wrap round an array, so it is out of range too
        for entry in ((0, 5, 0, 1.0), (0, -1, 0, 1.0)):
            bary = BarycenterSolution(
                support=(((0.5,), 1.0),),
                transport=(entry,),
                cost=0.0,
                source_formulation="general",
                verification=VerificationReport(checks=()),
            )
            with pytest.raises(IndexError):
                verify_solution(bary, p)


class TestSolutionJson:
    def test_shape(self, forced_problem):
        import json

        model = build_general(forced_problem)
        solution = solve(model)
        bary = extract_barycenter(solution, model, forced_problem)
        doc = json.loads(solution_json(solution, bary))
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(0.25)
        assert doc["support"] == [{"point": [0.5], "mass": 1.0}]
        assert doc["transport"] == [[0, 0, 0, 1.0], [1, 0, 0, 1.0]]

    def test_without_extraction(self, forced_problem):
        import json

        solution = solve(build_general(forced_problem), max_iters=0)
        doc = json.loads(solution_json(solution))
        assert doc["status"] == "iteration-limit"
        assert doc["objective"] is None
