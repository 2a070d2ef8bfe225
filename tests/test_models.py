"""Model construction: sizes, costs, structure, closed-form predictions."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from barylp import generators, models
from barylp.cli import _build_model
from barylp.models import (
    FormulationError,
    LpModel,
    build_general,
    build_hybrid,
    build_original,
    build_reduced,
    predict_sizes,
    variable_reduction,
)
from barylp.solver import column_names, row_names
from barylp.support import (
    DEFAULT_COMBINATION_CAP,
    HybridSplit,
    build_atlas_exact,
    hybrid_split,
)

from conftest import measure, problem


def build_all(p, atlas=None):
    atlas = atlas or build_atlas_exact(p)
    split = hybrid_split(atlas)
    return {
        "original": build_original(atlas, p),
        "reduced": build_reduced(atlas, p),
        "general": build_general(p),
        "hybrid": build_hybrid(atlas, split, p),
    }


def assert_same_identities(a: LpModel, b: LpModel) -> None:
    """The two models name every column and row alike, block by block."""
    for block in ("z", "y", "w", "balance", "marginal"):
        assert np.array_equal(getattr(a, block), getattr(b, block)), block


def plain_fixed_costs(p):
    """Fixed-transport cost of every combination in ordinal order, in plain
    Python: sum_i lambda_i |mean - x_{i,k_i}|^2."""
    costs = []
    for picks in itertools.product(*(m.points for m in p.measures)):
        mean = [sum(w * pt[l] for w, pt in zip(p.weights, picks)) for l in range(p.dimension)]
        costs.append(
            sum(
                w * sum((a - b) ** 2 for a, b in zip(mean, pt))
                for w, pt in zip(p.weights, picks)
            )
        )
    return costs


class TestCostFixed:
    def test_shared_point_costs_nothing(self):
        q = [1.0, -3.0]
        p = problem([measure([q], [1.0])] * 3)
        assert build_general(p).objective.tolist() == [0.0]

    def test_hand_arithmetic_and_factored_form(self):
        p = problem([measure([[0.0]], [1.0]), measure([[2.0]], [1.0])])
        (cost,) = build_general(p).objective
        # mean 1.0; both points at squared distance 1
        assert cost == pytest.approx(1.0, abs=1e-15)
        # two-measure factorization: lambda (1 - lambda) ||xk - xl||^2
        assert cost == pytest.approx(0.5 * 0.5 * 4.0, abs=1e-15)

    def test_quadratic_homogeneity(self):
        p = generators.general_position(3, 2, 2, seed=3)
        scaled = problem(
            [
                measure([[5.0 * c for c in pt] for pt in m.points], m.masses)
                for m in p.measures
            ],
            weights=p.weights,
        )
        assert build_general(scaled).objective == pytest.approx(
            25.0 * build_general(p).objective, rel=1e-12
        )


class TestBuildOriginal:
    def test_general_position_2x2_sizes(self):
        n, p_size = 2, 2
        p = generators.general_position(n, p_size, 1, seed=1)
        model = build_original(build_atlas_exact(p), p)
        model.check()
        assert model.num_vars == n * p_size ** (n + 1) + p_size**n == 20
        assert model.num_constraints == n * p_size**n + n * p_size == 12

    def test_single_point_measures(self):
        from barylp.solver import solve

        p = problem([measure([[float(i)]], [1.0]) for i in range(3)])
        model = build_original(build_atlas_exact(p), p)
        assert model.num_vars == 1 + 3
        assert model.num_constraints == 2 * 3
        # the single feasible point is forced: z = 1, every y = 1
        solution = solve(model)
        assert solution.status == "optimal"
        assert solution.values == pytest.approx([1.0, 1.0, 1.0, 1.0])
        assert solution.objective_value == pytest.approx(
            plain_fixed_costs(p)[0], abs=1e-12
        )

    def test_full_grid_dimensions(self):
        p = generators.grid(4, 4, 2, seed=0)
        model = build_original(build_atlas_exact(p), p)
        fine = (4 * 4 - 4 + 1) ** 2
        assert model.num_vars == fine * (1 + 4 * 16) == 10_985
        assert model.num_constraints == 4 * 16 + 4 * fine == 740

    def test_objective_coefficients(self):
        p = generators.general_position(2, 3, 2, seed=2)
        atlas = build_atlas_exact(p)
        model = build_original(atlas, p)
        assert np.all(model.objective >= 0.0)
        nz = len(model.z)
        assert nz + len(model.y) == model.num_vars
        assert np.all(model.objective[:nz] == 0.0)
        for c, (i, j, k) in enumerate(model.y.tolist()):
            xj = atlas.support_points[j]
            xik = p.measures[i].points[k]
            expected = p.weights[i] * sum((a - b) ** 2 for a, b in zip(xj, xik))
            assert model.objective[nz + c] == pytest.approx(expected, rel=1e-12)


class TestBuildReduced:
    def test_general_position_variable_count(self):
        for n, p_size in [(2, 3), (3, 2), (3, 3)]:
            p = generators.general_position(n, p_size, 2, seed=n * p_size)
            model = build_reduced(build_atlas_exact(p), p)
            model.check()
            assert model.num_vars == (1 + n) * p_size**n

    def test_collapsed_means_instance(self, twin_grid_problem):
        # candidates {0,1,2}; every original point reaches two of them
        atlas = build_atlas_exact(twin_grid_problem)
        assert [atlas.sources(j) for j in range(3)] == [
            ((0, 0), (1, 0)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            ((0, 1), (1, 1)),
        ]
        model = build_reduced(atlas, twin_grid_problem)
        assert model.num_vars == 3 + 8 == 11
        original = build_original(atlas, twin_grid_problem)
        assert original.num_vars == 15
        assert model.num_vars < original.num_vars

    def test_single_point_measures_identical_to_original(self):
        p = problem([measure([[float(i)]], [1.0]) for i in range(3)])
        atlas = build_atlas_exact(p)
        reduced = build_reduced(atlas, p)
        original = build_original(atlas, p)
        assert_same_identities(reduced, original)
        assert (reduced.constraints != original.constraints).nnz == 0
        assert np.array_equal(reduced.objective, original.objective)

    def test_strictly_fewer_variables_than_original(self):
        for seed, (n, p_size, d) in enumerate(
            [(2, 2, 1), (2, 4, 2), (3, 3, 2), (4, 2, 1)]
        ):
            p = generators.general_position(n, p_size, d, seed=seed)
            atlas = build_atlas_exact(p)
            assert (
                build_reduced(atlas, p).num_vars
                < build_original(atlas, p).num_vars
            )
        g = generators.grid(3, 3, 2, seed=1)
        atlas = build_atlas_exact(g)
        assert build_reduced(atlas, g).num_vars < build_original(atlas, g).num_vars

    def test_nonzero_pattern_strict_subset_of_original(self):
        p = generators.grid(2, 3, 1, seed=4)
        atlas = build_atlas_exact(p)
        reduced = build_reduced(atlas, p)
        original = build_original(atlas, p)

        def nonzeros(model):
            rows, columns = row_names(model), column_names(model)
            coo = model.constraints.tocoo()
            return {(rows[r], columns[c]) for r, c in zip(coo.row, coo.col)}

        reduced_nnz = nonzeros(reduced)
        original_nnz = nonzeros(original)
        assert reduced_nnz < original_nnz  # strict subset


class TestBuildGeneral:
    def test_sizes(self):
        p = generators.general_position(2, 2, 1, seed=7)
        model = build_general(p)
        model.check()
        assert model.num_vars == 4
        assert model.num_constraints == 4

    def test_worst_case_sizing_ignores_structure(self, twin_grid_problem):
        # duplicate means are never merged: size is the raw product
        model = build_general(twin_grid_problem)
        assert model.num_vars == 4
        assert len(model.z) == len(model.y) == 0
        assert model.w.tolist() == [0, 1, 2, 3]

    def test_costs_match_cost_fixed(self):
        for p in [
            generators.general_position(3, 2, 2, seed=8),
            generators.general_position(3, 3, 3, seed=8, random_weights=True),
        ]:
            model = build_general(p)
            assert model.objective == pytest.approx(plain_fixed_costs(p), rel=1e-12)


class TestBuildTransportation:
    """``--formulation transportation``: the two-measure general model."""

    @staticmethod
    def transportation(p):
        return _build_model("transportation", p, None, DEFAULT_COMBINATION_CAP)

    def test_factored_costs(self):
        first = measure([[0.0, 1.0], [2.0, -1.0], [3.0, 0.5]], [0.2, 0.3, 0.5])
        second = measure([[1.0, 1.0], [-2.0, 0.0]], [0.6, 0.4])
        lam = 0.3
        model = self.transportation(problem([first, second], weights=[lam, 1.0 - lam]))
        # combination (k, l) sits at column k * p2 + l
        factored = [
            lam * (1.0 - lam) * sum((a - b) ** 2 for a, b in zip(xk, xl))
            for xk in first.points
            for xl in second.points
        ]
        assert model.objective == pytest.approx(factored, rel=1e-12, abs=1e-15)

    def test_same_shape_as_general(self):
        p = generators.general_position(2, 3, 2, seed=5)
        transport = self.transportation(p)
        general = build_general(p)
        assert transport.num_vars == general.num_vars
        assert transport.num_constraints == general.num_constraints
        assert_same_identities(transport, general)
        assert np.allclose(transport.objective, general.objective, atol=1e-12)


class TestAssembler:
    @pytest.mark.parametrize("instance", ["gp", "mixed"])
    def test_frozen_matrix_equals_the_stacked_blocks(self, monkeypatch, instance):
        # freeze concatenates the blocks' arrays; sp.hstack of one CSC
        # matrix per block gives the same arrays, dtypes included
        if instance == "gp":
            p = generators.general_position(3, 4, 2, seed=2)
        else:
            p = generators.mixed(3, 3, 1, seed=13)
        stacked = []
        freeze = models._Assembler.freeze

        def stacking_freeze(self):
            blocks = [
                sp.csc_matrix(
                    (np.full(rows.size, val), rows.ravel(), rows.shape[1] * np.arange(len(rows) + 1)),
                    shape=(len(self.rhs), len(rows)),
                )
                for rows, val in self._blocks
            ]
            stacked.append(sp.hstack(blocks, format="csc"))
            return freeze(self)

        monkeypatch.setattr(models._Assembler, "freeze", stacking_freeze)
        built = build_all(p)
        assert len(stacked) == len(built)
        for expected, model in zip(stacked, built.values()):
            A = model.constraints
            assert A.format == "csc" and A.shape == expected.shape, model.formulation
            for name in ("indptr", "indices", "data"):
                actual, reference = getattr(A, name), getattr(expected, name)
                assert actual.dtype == reference.dtype, (model.formulation, name)
                assert np.array_equal(actual, reference), (model.formulation, name)


class TestBuildHybrid:
    def test_all_fixed_split_identical_to_general(self):
        # gp(2,300) streams two chunks
        for n, p_size in ((3, 3), (2, 300)):
            p = generators.general_position(n, p_size, 2, seed=6)
            atlas = build_atlas_exact(p)
            split = hybrid_split(atlas)
            assert not split.on_y.any()
            hybrid = build_hybrid(atlas, split, p)
            general = build_general(p)
            assert_same_identities(hybrid, general)
            assert np.array_equal(hybrid.objective, general.objective)
            assert hybrid.constraints.format == general.constraints.format == "csc"
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(
                    getattr(hybrid.constraints, name), getattr(general.constraints, name)
                ), name

    def test_all_mass_split_identical_to_reduced(self):
        p = generators.grid(2, 3, 1, seed=9)
        atlas = build_atlas_exact(p)
        all_y = HybridSplit(
            on_y=np.ones(atlas.point_count, dtype=bool),
            budgets=np.zeros(atlas.point_count, dtype=np.int64),
        )
        hybrid = build_hybrid(atlas, all_y, p)
        reduced = build_reduced(atlas, p)
        assert_same_identities(hybrid, reduced)
        assert np.array_equal(hybrid.objective, reduced.objective)
        assert (hybrid.constraints != reduced.constraints).nnz == 0

    def test_mixed_instance_strictly_smallest(self):
        p = generators.mixed(n=3, K=3, extra=1, seed=13)
        atlas = build_atlas_exact(p)
        split = hybrid_split(atlas)
        assert split.on_y.any()  # the refined-grid interior prefers mass vars
        models = build_all(p, atlas)
        assert models["hybrid"].num_vars < models["reduced"].num_vars
        assert models["hybrid"].num_vars < models["general"].num_vars

    def test_inconsistent_split_rejected(self):
        p = generators.grid(2, 2, 1, seed=1)
        atlas = build_atlas_exact(p)
        bad = HybridSplit(on_y=np.zeros(1, dtype=bool), budgets=np.ones(1, dtype=np.int64))
        with pytest.raises(FormulationError):
            build_hybrid(atlas, bad, p)

    def test_grid_regime_hybrid_uses_constant_budget(self):
        from barylp.solver import solve
        from barylp.support import build_atlas_grid

        p = generators.grid(4, 3, 1, seed=20)
        fast = build_atlas_grid(p)
        split = hybrid_split(fast)
        assert set(split.budgets) == {4 * 3 + 1}
        model = build_hybrid(fast, split, p)
        model.check()
        reference = solve(build_general(p))
        solution = solve(model)
        assert solution.objective_value == pytest.approx(
            reference.objective_value, abs=1e-8
        )


class TestSizeConformance:
    def test_general_position_all_formulations(self):
        for seed, (n, p_size, d) in enumerate(
            [(2, 2, 1), (2, 5, 2), (3, 3, 2), (4, 2, 2), (3, 4, 1), (4, 5, 2)]
        ):
            p = generators.general_position(n, p_size, d, seed=40 + seed)
            models = build_all(p)
            for name, model in models.items():
                pred = predict_sizes("general-position", name, n, p_size)
                assert model.num_vars == pred.variables, (name, n, p_size)
                assert model.num_constraints == pred.constraints, (name, n, p_size)

    def test_full_grid_original(self):
        for n, K, d in [(2, 2, 1), (3, 2, 2), (2, 4, 2), (4, 3, 1), (3, 3, 2)]:
            p = generators.grid(n, K, d, seed=n * K * d)
            model = build_original(build_atlas_exact(p), p)
            pred = predict_sizes("full-grid", "original", n, K, d)
            assert model.num_vars == pred.variables, (n, K, d)
            assert model.num_constraints == pred.constraints, (n, K, d)

    def test_full_grid_general(self):
        for n, K, d in [(2, 2, 1), (3, 2, 2), (2, 4, 2)]:
            p = generators.grid(n, K, d, seed=n + K + d)
            model = build_general(p)
            pred = predict_sizes("full-grid", "general", n, K, d)
            assert model.num_vars == pred.variables
            assert model.num_constraints == pred.constraints


class TestPredictSizes:
    def test_table_rows_general_position(self):
        n, p_size = 4, 256
        original = predict_sizes("general-position", "original", n, p_size)
        assert original.variables == n * p_size ** (n + 1) + p_size**n
        assert original.constraints == n * p_size**n + n * p_size
        reduced = predict_sizes("general-position", "reduced", n, p_size)
        assert reduced.variables == (1 + n) * p_size**n
        assert reduced.constraints == original.constraints
        general = predict_sizes("general-position", "general", n, p_size)
        assert general.variables == p_size**n
        assert general.constraints == n * p_size
        hybrid = predict_sizes("general-position", "hybrid", n, p_size)
        assert (hybrid.variables, hybrid.constraints) == (
            general.variables,
            general.constraints,
        )

    def test_table_rows_full_grid(self):
        pred = predict_sizes("full-grid", "original", 4, 4, 2)
        assert (pred.variables, pred.constraints) == (10_985, 740)
        general = predict_sizes("full-grid", "general", 4, 4, 2)
        assert (general.variables, general.constraints) == (16**4, 64)

    def test_unsupported_pairs(self):
        with pytest.raises(ValueError):
            predict_sizes("full-grid", "reduced", 4, 4, 2)
        with pytest.raises(ValueError):
            predict_sizes("full-grid", "hybrid", 4, 4, 2)
        with pytest.raises(ValueError):
            predict_sizes("general-position", "transportation", 2, 4)
        with pytest.raises(ValueError):
            predict_sizes("nonsense", "original", 2, 4)
        with pytest.raises(ValueError):
            predict_sizes("full-grid", "original", 2, 4)  # missing d


class TestVariableReduction:
    def test_large_n_limit_at_256(self):
        limit = variable_reduction("original", "reduced", p=256)
        assert limit == pytest.approx(255.0 / 256.0)
        assert abs(100.0 * limit - 99.61) < 0.01

    def test_exact_formula_matches_sizes(self):
        for n in (2, 3, 4):
            for p_size in (2, 16, 256):
                frm = predict_sizes("general-position", "original", n, p_size).variables
                to = predict_sizes("general-position", "reduced", n, p_size).variables
                assert variable_reduction(
                    "original", "reduced", n=n, p=p_size
                ) == pytest.approx(1.0 - to / frm, rel=1e-12)

    def test_reduced_to_general_depends_only_on_n(self):
        assert variable_reduction("reduced", "general", n=4) == pytest.approx(0.8)
        assert variable_reduction("reduced", "hybrid", n=4) == pytest.approx(0.8)
        assert variable_reduction("reduced", "general", n=9) == pytest.approx(0.9)

    def test_original_to_general_headline(self):
        red = variable_reduction("original", "general", n=4, p=256)
        assert abs(100.0 * red - 99.9) < 0.01

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            variable_reduction("original", "reduced")
        with pytest.raises(ValueError):
            variable_reduction("reduced", "general", p=4)
