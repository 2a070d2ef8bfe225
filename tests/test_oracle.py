"""Brute-force reference implementations and pipeline agreement."""

import numpy as np
import pytest
import scipy.sparse as sp

from barylp import generators
from barylp.models import LpModel, build_general
from barylp.oracle import (
    OracleCapError,
    basis_enumeration_solve,
    dice_enumeration,
    enumerate_duplicates,
    mean_key,
)
from barylp.solver import solve
from barylp.support import build_atlas_exact

from conftest import count_dice, measure, problem


class TestDiceEnumeration:
    def test_textbook_two_dice(self):
        assert dice_enumeration(7, 6, 2) == 6
        assert dice_enumeration(2, 6, 2) == 1

    def test_four_tetrahedral(self):
        assert dice_enumeration(10, 4, 4) == 44

    def test_cap(self):
        with pytest.raises(OracleCapError):
            dice_enumeration(50, 10, 8)

    def test_formula_matches_full_range(self):
        for sides in range(1, 7):
            for dice in range(1, 5):
                for total in range(dice, sides * dice + 1):
                    assert count_dice(total, sides, dice) == dice_enumeration(
                        total, sides, dice
                    )


class TestBasisEnumeration:
    def test_forced_instance(self, forced_problem):
        model = build_general(forced_problem)
        result = basis_enumeration_solve(model)
        assert result.status == "optimal"
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert result.witnesses

    def test_hand_solved_fixture(self):
        p = problem(
            [measure([[0.0], [2.0]], [0.3, 0.7]), measure([[0.0], [2.0]], [0.6, 0.4])]
        )
        result = basis_enumeration_solve(build_general(p))
        assert result.value == pytest.approx(0.3, abs=1e-10)

    def test_infeasible_toy_system(self):
        model = LpModel(
            formulation="general",
            objective=np.array([0.0]),
            constraints=sp.csr_matrix(np.array([[1.0], [1.0]])),
            rhs=np.array([1.0, 2.0]),
            z=np.empty(0, dtype=np.int64),
            y=np.empty((0, 3), dtype=np.int64),
            w=np.array([0]),
            balance=np.array([[0, 0], [0, 1]]),
            marginal=np.empty((0, 2), dtype=np.int64),
        )
        assert basis_enumeration_solve(model).status == "infeasible"

    def test_caps_enforced(self):
        p = generators.general_position(2, 4, 1, seed=1)  # 16 vars > 14
        with pytest.raises(OracleCapError):
            basis_enumeration_solve(build_general(p))

    def test_deterministic_hash(self, forced_problem):
        model = build_general(forced_problem)
        a = basis_enumeration_solve(model)
        b = basis_enumeration_solve(model)
        assert a.instance_hash == b.instance_hash
        assert a.value == b.value

    def test_agrees_with_simplex(self):
        shapes = [(2, 2), (2, 3), (3, 2)]
        for seed in range(12):
            n, p_size = shapes[seed % len(shapes)]
            p = generators.general_position(
                n, p_size, 1 + seed % 2, seed=200 + seed, random_weights=seed % 2 == 0
            )
            model = build_general(p)
            oracle = basis_enumeration_solve(model)
            simplex = solve(model)
            assert simplex.status == "optimal"
            assert oracle.value == pytest.approx(simplex.objective_value, abs=1e-9)


class TestEnumerateDuplicates:
    def test_general_position_all_unique(self):
        p = generators.general_position(3, 3, 2, seed=5)
        counts = enumerate_duplicates(p)
        assert len(counts) == 27
        assert set(counts.values()) == {1}

    def test_canonical_collapse(self, twin_grid_problem):
        counts = enumerate_duplicates(twin_grid_problem)
        by_mean = {
            mean_key(twin_grid_problem, (v,)): m
            for v, m in [(0.0, 1), (1.0, 2), (2.0, 1)]
        }
        assert counts == by_mean

    def test_full_grid_multiplicities_match_dice_counts(self):
        p = generators.grid(4, 4, 1, seed=3)
        counts = enumerate_duplicates(p)
        assert len(counts) == 4 * 4 - 4 + 1
        for s in range(4, 17):
            point = (s / 4.0 - 1.0,)
            assert counts[mean_key(p, point)] == count_dice(s, 4, 4)

    def test_total_is_combination_count(self):
        for seed in range(3):
            p = generators.grid(3, 2, 2, seed=seed)
            assert sum(enumerate_duplicates(p).values()) == p.combination_total()

    def test_cap(self):
        pts = [[float(v)] for v in range(32)]
        p = problem([measure(pts)] * 4)
        with pytest.raises(OracleCapError):
            enumerate_duplicates(p)

    def test_matches_atlas_multiplicities(self):
        cases = [
            generators.general_position(3, 2, 2, seed=1),
            generators.grid(3, 3, 1, seed=2),
            generators.grid(2, 3, 2, seed=3),
            generators.mixed(3, 2, 1, seed=4),
            # rational non-uniform weights: the integer-scaled path
            problem(generators.grid(2, 4, 2, seed=5).measures, weights=[0.25, 0.75]),
            problem(generators.grid(3, 3, 1, seed=6).measures, weights=[0.25, 0.25, 0.5]),
            # irrational-looking random weights: the unscaled path
            generators.general_position(3, 3, 2, seed=7, random_weights=True),
            generators.grid(2, 3, 3, seed=8),
            problem([*generators.grid(2, 3, 2, seed=9).measures, measure([[2.0, 1.0]], [1.0])]),
            # 7^6 = 117 649 combinations: more than one kernel chunk
            generators.grid(3, 7, 2, seed=10),
        ]
        for p in cases:
            atlas = build_atlas_exact(p)
            counts = enumerate_duplicates(p)
            assert len(counts) == atlas.point_count
            for j, point in enumerate(atlas.support_points):
                assert counts[mean_key(p, point)] == atlas.multiplicity[j]
