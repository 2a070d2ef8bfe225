"""Combination kernel, atlas construction, counting, hybrid split."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barylp import generators
from barylp.measures import GridSpec, InvariantError
from barylp.models import build_hybrid
from barylp.support import (
    COMBINATION_CHUNK,
    CombinationBlowupError,
    GridRegimeError,
    build_atlas_exact,
    build_atlas_grid,
    combination_chunks,
    hybrid_split,
    _lexsort_rows,
)

from conftest import assert_atlases_equal, count_dice, measure, problem


def kernel(p, ordinals=None, weights=None, cap=10**8):
    """Index rows and means of the combinations, concatenated over chunks."""
    weights = p.weights if weights is None else weights
    chunks = list(combination_chunks(p, weights, ordinals, cap))
    idx = np.concatenate([c[0] for c in chunks])
    means = np.concatenate([c[1] for c in chunks])
    return [tuple(row) for row in idx.tolist()], [tuple(m) for m in means.tolist()]


def plain_means(p):
    """Weighted mean of every combination in ordinal order, summed left to
    right in plain Python: the reference for the kernel."""
    out = []
    for picks in itertools.product(*(m.points for m in p.measures)):
        mean = [0.0] * p.dimension
        for w, pt in zip(p.weights, picks):
            for l in range(p.dimension):
                mean[l] += w * pt[l]
        out.append(tuple(mean))
    return out


def repeated_points(n, p, seed):
    """General-position measures where measure 1 repeats measure 0's
    points, under random integer weights with the first two equal, so that
    swapping the first two picks lands on the same mean."""
    base = generators.general_position(n, p, 2, seed=seed)
    measures = list(base.measures)
    measures[1] = measure(measures[0].points, measures[1].masses)
    weights = np.random.default_rng(seed).integers(1, 5, n).astype(float)
    weights[1] = weights[0]
    return problem(measures, weights / weights.sum())


def nearest_candidate(atlas, point):
    """Row of the candidate closest to ``point`` (the first on ties)."""
    gaps = atlas.support_points - np.asarray(point, dtype=np.float64)
    return int(np.argmin((gaps * gaps).sum(axis=1)))


class TestEnumeration:
    def test_two_by_two_lexicographic(self):
        p = problem([measure([[0.0], [1.0]]), measure([[2.0], [3.0]])])
        indices, _ = kernel(p)
        assert indices == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # explicit ordinals decode to the same rows in any order
        assert kernel(p, np.array([3, 0, 2]))[0] == [(1, 1), (0, 0), (1, 0)]

    def test_single_point_measures(self):
        p = problem([measure([[0.0]], [1.0])] * 3)
        indices, _ = kernel(p)
        assert indices == [(0, 0, 0)]

    def test_three_measures_of_four_points(self):
        # oracle: the full product in lexicographic order
        pts = [[float(v)] for v in range(4)]
        p = problem([measure(pts)] * 3)
        direct = list(itertools.product(range(4), repeat=3))
        assert len(direct) == 64
        assert kernel(p)[0] == direct

    def test_blowup_guard_fires_before_iteration(self):
        pts = [[float(v)] for v in range(10)]
        p = problem([measure(pts)] * 3)
        with pytest.raises(CombinationBlowupError, match="combination blowup"):
            combination_chunks(p, p.weights, cap=999)

    def test_chunks_cover_stream_in_order(self):
        p = generators.grid(3, 7, 2, seed=3)
        total = p.combination_total()
        assert total > COMBINATION_CHUNK
        sizes = [len(idx) for idx, _ in combination_chunks(p, p.weights)]
        assert len(sizes) == math.ceil(total / COMBINATION_CHUNK)
        assert sum(sizes) == total
        ordinals = np.array([0, COMBINATION_CHUNK, total - 1])
        direct = list(itertools.product(*(range(s) for s in p.sizes)))
        assert kernel(p, ordinals)[0] == [direct[h] for h in ordinals]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generators.general_position(2, 300, 2, seed=1),
            lambda: generators.general_position(7, 5, 2, seed=1),
            lambda: generators.grid(3, 7, 2, seed=3),
        ],
        ids=["gp(2,300)", "gp(7,5)", "grid(3,7)"],
    )
    def test_stream_equals_decoded_ordinals(self, make):
        # the broadcast stream cuts prefix blocks at chunk boundaries; both
        # paths yield int32 index matrices
        p = make()
        total = p.combination_total()
        stream = list(combination_chunks(p, p.weights))
        decoded = list(combination_chunks(p, p.weights, np.arange(total)))
        assert len(stream) == len(decoded) > 1
        for (idx, means), (idx_d, means_d) in zip(stream, decoded):
            assert idx.dtype == idx_d.dtype == np.int32 and np.array_equal(idx, idx_d)
            assert means.dtype == means_d.dtype and means.tobytes() == means_d.tobytes()


class TestWeightedMean:
    def test_midpoint(self):
        p = problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])
        assert kernel(p)[1] == [(0.5,)]

    def test_idempotent_on_shared_point(self):
        q = [0.75, -2.0]
        p = problem([measure([q], [1.0])] * 4)
        assert kernel(p)[1][0] == pytest.approx(tuple(q))

    def test_hand_arithmetic(self):
        p = problem(
            [measure([[0.0, 0.0]], [1.0]), measure([[4.0, 8.0]], [1.0])],
            weights=[0.25, 0.75],
        )
        assert kernel(p)[1] == [(3.0, 6.0)]
        # integer-scaled weights give the scaled mean
        assert kernel(p, weights=(1.0, 3.0))[1] == [(12.0, 24.0)]

    def test_affine_scaling(self):
        base = generators.general_position(3, 3, 2, seed=5)
        scaled = problem(
            [
                measure([[4.0 * c for c in pt] for pt in m.points], m.masses)
                for m in base.measures
            ],
            weights=base.weights,
        )
        for mb, ms in zip(kernel(base)[1], kernel(scaled)[1]):
            assert ms == pytest.approx(tuple(4.0 * v for v in mb), abs=1e-12)

    def test_equals_plain_left_to_right_sum(self):
        # same operations in the same order: equal to the last bit
        for p in [
            generators.general_position(3, 4, 3, seed=2, random_weights=True),
            generators.mixed(3, 2, 1, seed=4),
        ]:
            assert kernel(p)[1] == plain_means(p)


class TestExactAtlas:
    def test_canonical_collapse(self, twin_grid_problem):
        atlas = build_atlas_exact(twin_grid_problem)
        assert np.array_equal(atlas.support_points, [[0.0], [1.0], [2.0]])
        assert np.array_equal(atlas.multiplicity, (1, 2, 1))
        assert atlas.multiplicity.dtype == np.int64
        assert atlas.combination_total == 4

    def test_general_position_random(self):
        p = generators.general_position(3, 3, 2, seed=11)
        atlas = build_atlas_exact(p)
        assert atlas.point_count == atlas.combination_total == 27
        assert all(v == 1 for v in atlas.multiplicity)

    def test_full_grids_collapse_to_refined_grid(self):
        p = generators.grid(4, 4, 2, seed=3)
        atlas = build_atlas_exact(p)
        assert atlas.point_count == 169  # (4*4 - 4 + 1) ** 2

    def test_multiplicity_conserves_combinations(self):
        for seed in range(4):
            p = generators.grid(3, 2, 2, seed=seed)
            atlas = build_atlas_exact(p)
            assert sum(atlas.multiplicity) == atlas.combination_total

    def test_duality_exhaustive(self):
        # sources(j) is exactly the set of (i, k) used by some combination
        # whose plain-Python mean lands on candidate j
        for p in (
            generators.general_position(3, 3, 2, seed=1),
            generators.grid(3, 3, 1, seed=2),
            generators.grid(2, 3, 2, seed=4),
            generators.grid(3, 3, 2, seed=6),   # |S*| = 729
            generators.mixed(3, 3, 1, seed=8),  # |S*| = 1000
        ):
            atlas = build_atlas_exact(p)
            used = [set() for _ in range(atlas.point_count)]
            combos = itertools.product(*(range(len(m)) for m in p.measures))
            for picks, mean in zip(combos, plain_means(p)):
                used[nearest_candidate(atlas, mean)].update(enumerate(picks))
            for j in range(atlas.point_count):
                assert atlas.sources(j) == tuple(sorted(used[j])), j

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generators.mixed(3, 3, 1, seed=8),
            lambda: repeated_points(3, 6, seed=2),
            lambda: repeated_points(4, 5, seed=3),
            lambda: repeated_points(2, 300, seed=4),  # shares candidates across chunks
        ],
        ids=["mixed(3,3,1)", "repeated(3,6)", "repeated(4,5)", "repeated(2,300)"],
    )
    def test_incidence_is_every_used_pair(self, make):
        # the (candidate, measure, point) triples of every combination, by
        # brute force over the combination-to-candidate map
        p = make()
        atlas = build_atlas_exact(p)
        assert max(atlas.multiplicity) > 1 and min(atlas.multiplicity) == 1
        candidates = atlas.combination_candidates(p).tolist()
        combos = itertools.product(*(range(len(m)) for m in p.measures))
        expected = sorted(
            {(j, i, k) for j, picks in zip(candidates, combos) for i, k in enumerate(picks)}
        )
        assert [
            (j, i, k) for j in range(atlas.point_count) for i, k in atlas.sources(j)
        ] == expected

    def test_points_sorted_lexicographically(self):
        p = generators.general_position(2, 4, 2, seed=9)
        atlas = build_atlas_exact(p)
        order = np.lexsort(atlas.support_points.T[::-1])
        assert np.array_equal(order, np.arange(atlas.point_count))

    def test_cap_guard(self):
        pts = [[float(v)] for v in range(10)]
        p = problem([measure(pts)] * 3)
        with pytest.raises(CombinationBlowupError):
            build_atlas_exact(p, cap=10)

    def test_combo_candidate_matches_mean(self):
        # every fixed-transport column of the hybrid model is a combination
        # whose plain-Python mean lands on a candidate left to fixed transport
        p = generators.grid(3, 3, 2, seed=8)
        for atlas in (build_atlas_exact(p), build_atlas_grid(p)):
            split = hybrid_split(atlas)
            assert split.on_y.any()
            model = build_hybrid(atlas, split, p)
            means = plain_means(p)
            for h in model.w.tolist():
                mean = means[h]
                j = nearest_candidate(atlas, mean)
                assert atlas.support_points[j] == pytest.approx(mean, abs=1e-9)
                assert not split.on_y[j], atlas.regime


@st.composite
def tied_rows(draw):
    """Integer-valued float rows, some zeros as -0.0, whose later columns
    tie heavily.  The first column ties heavily, or holds distinct values
    but a few copied to other rows: ties an evenly spaced probe may miss."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([0, 1, 511, 512, 2000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 2, (n, d)).astype(np.float64)
    if draw(st.booleans()):
        rows[:, 0] = rng.integers(0, draw(st.sampled_from([1, 3, 50])), n)
    else:
        rows[:, 0] = rng.permutation(n) * 7.0
        into = rng.random(n) < draw(st.sampled_from([0.002, 0.01]))
        rows[into, 0] = rows[rng.integers(0, n, into.sum()), 0]
    # -0.0 ties 0.0, so the sort must keep the two in index order
    rows[(rows == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    return rows


class TestLexsortRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tied_rows())
    def test_equals_lexsort(self, rows):
        order = _lexsort_rows(rows)
        assert np.array_equal(order, np.lexsort(rows.T[::-1]))
        assert order.dtype == np.intp


class TestGridAtlas:
    def test_refined_grid_size(self):
        p = generators.grid(4, 4, 2, seed=0)
        atlas = build_atlas_grid(p)
        assert atlas.point_count == 169
        assert atlas.regime == "grid"
        assert atlas.fine_grid.side == 13
        assert atlas.fine_grid.step == 0.25

    def test_corner_sources_one_per_measure(self):
        p = generators.grid(4, 4, 2, seed=0)
        atlas = build_atlas_grid(p)
        corner = nearest_candidate(atlas, (0.0, 0.0))
        srcs = atlas.sources(corner)
        assert len(srcs) == 4
        assert sorted(i for i, _ in srcs) == [0, 1, 2, 3]
        for i, k in srcs:
            assert p.measures[i].points[k] == (0.0, 0.0)

    def test_center_keeps_every_pair(self):
        # per-axis sum 10 admits every lattice value on every axis
        p = generators.grid(4, 4, 2, seed=0)
        atlas = build_atlas_grid(p)
        center = nearest_candidate(atlas, (10.0 / 4.0 - 1.0, 10.0 / 4.0 - 1.0))
        assert len(atlas.sources(center)) == 4 * 16

    @pytest.mark.parametrize("n, K, d, density", [
        (1, 4, 2, 1.0), (2, 2, 1, 1.0), (2, 4, 1, 1.0), (3, 3, 1, 1.0), (4, 4, 1, 1.0),
        (2, 3, 2, 1.0), (3, 2, 2, 1.0), (4, 2, 2, 1.0), (3, 3, 2, 1.0), (2, 2, 3, 1.0),
        (1, 4, 2, 0.5), (3, 5, 1, 0.4), (4, 4, 1, 0.6), (5, 2, 1, 0.5),
        (2, 4, 2, 0.5), (3, 3, 2, 0.6), (3, 4, 2, 0.8), (4, 3, 2, 0.8), (5, 2, 2, 0.5),
        (2, 3, 3, 0.5), (3, 2, 3, 0.6), (2, 4, 3, 0.15),
    ])
    def test_equals_exact_atlas(self, n, K, d, density):
        for seed in range(3):
            p = generators.grid(n, K, d, density=density, seed=seed)
            fast = build_atlas_grid(p)
            assert_atlases_equal(fast, build_atlas_exact(p), p)
            if density == 1.0:
                # per-axis index sums of each candidate, rolled as n dice
                sums = np.rint(n * fast.support_points).astype(int) + n
                assert np.array_equal(fast.multiplicity, [
                    math.prod(count_dice(s, K, n) for s in row) for row in sums.tolist()
                ])

    def test_rejects_nonuniform_weights(self):
        p = generators.grid(2, 2, 1, seed=0)
        skewed = problem(p.measures, weights=[0.3, 0.7], grid=p.grid)
        with pytest.raises(GridRegimeError, match="uniform"):
            build_atlas_grid(skewed)

    def test_nearly_uniform_weights_stay_consistent(self):
        # weights a hair off 1/n either rationalize back to exactly 1/n
        # (every combination still lands on the candidate nearest its
        # mean) or are refused outright; they must never silently put a
        # combination on the wrong lattice candidate
        from barylp.support import _Quantizer

        p = generators.grid(3, 2, 1, seed=0)
        w = 1.0 / 3.0
        perturbed = problem(
            p.measures, weights=[w + 9e-13, w, w - 9e-13], grid=p.grid
        )
        quant = _Quantizer(perturbed)
        if quant.scale == 3.0 and set(quant.scaled_weights) == {1.0}:
            atlas = build_atlas_grid(perturbed)
            candidates = atlas.combination_candidates(perturbed)
            for h, mean in enumerate(plain_means(perturbed)):
                assert candidates[h] == nearest_candidate(atlas, mean), h
        else:
            with pytest.raises(GridRegimeError, match="uniform"):
                build_atlas_grid(perturbed)

    def test_rejects_off_lattice_points(self):
        g = GridSpec(dim=1, side=2, origin=(0.0,), step=1.0)
        p = problem([measure([[0.0], [0.5]]), measure([[1.0]], [1.0])], grid=g)
        with pytest.raises(InvariantError):
            build_atlas_grid(p)


def brute_force_dice(total, sides, dice):
    return sum(
        1
        for tup in itertools.product(range(1, sides + 1), repeat=dice)
        if sum(tup) == total
    )


class TestCountDice:
    def test_two_dice_minimum(self):
        assert count_dice(2, 6, 2) == 1

    def test_two_dice_seven(self):
        assert brute_force_dice(7, 6, 2) == 6
        assert count_dice(7, 6, 2) == 6

    def test_four_tetrahedral_dice(self):
        assert brute_force_dice(10, 4, 4) == 44
        assert count_dice(10, 4, 4) == 44

    def test_all_dice_maximal(self):
        for sides, dice in [(6, 2), (4, 4), (3, 5)]:
            assert count_dice(sides * dice, sides, dice) == 1

    def test_out_of_range_is_zero(self):
        assert count_dice(1, 6, 2) == 0
        assert count_dice(13, 6, 2) == 0
        assert count_dice(-3, 6, 2) == 0

    def test_matches_enumeration_everywhere(self):
        for sides in range(1, 7):
            for dice in range(1, 5):
                for total in range(0, sides * dice + 2):
                    assert count_dice(total, sides, dice) == brute_force_dice(
                        total, sides, dice
                    ), (total, sides, dice)

    def test_symmetry(self):
        # includes out-of-range sums, which mirror onto out-of-range sums
        for sides in range(1, 7):
            for dice in range(1, 5):
                for total in range(dice - 3, sides * dice + 4):
                    mirrored = dice * (sides + 1) - total
                    assert count_dice(total, sides, dice) == count_dice(
                        mirrored, sides, dice
                    )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            count_dice(1, 0, 2)


class TestCombinationCount:
    """Grid multiplicities are products of per-axis dice counts."""

    def test_corner(self):
        atlas = build_atlas_grid(generators.grid(4, 4, 2, seed=0))
        corner = nearest_candidate(atlas, (0.0, 0.0))
        assert atlas.multiplicity[corner] == count_dice(4, 4, 4) ** 2 == 1

    def test_center_square(self):
        atlas = build_atlas_grid(generators.grid(4, 4, 2, seed=0))
        center = nearest_candidate(atlas, (1.5, 1.5))
        assert atlas.multiplicity[center] == count_dice(10, 4, 4) ** 2 == 1936


class TestHybridSplit:
    def test_general_position_all_fixed(self):
        p = generators.general_position(3, 3, 2, seed=21)
        atlas = build_atlas_exact(p)
        split = hybrid_split(atlas)
        assert not split.on_y.any()

    def test_grid_center_prefers_mass_variables(self):
        p = generators.grid(4, 4, 2, seed=0)
        atlas = build_atlas_grid(p)
        split = hybrid_split(atlas)
        center = nearest_candidate(atlas, (1.5, 1.5))
        assert atlas.multiplicity[center] == 1936
        assert split.budgets[center] == 4 * 16 + 1
        assert split.on_y[center]

    def test_multiplicities_past_int64(self):
        # 16**40 combinations: the split compares them as Python ints
        atlas = build_atlas_grid(generators.grid(40, 16, 1, seed=0))
        split = hybrid_split(atlas)
        assert atlas.point_count == 601
        assert atlas.multiplicity.dtype == object and max(atlas.multiplicity) > 2**63
        for j, multiplicity in enumerate(atlas.multiplicity):
            assert split.on_y[j] == (multiplicity > int(split.budgets[j])), j

    def test_grid_corner_prefers_fixed(self):
        p = generators.grid(4, 4, 2, seed=0)
        atlas = build_atlas_grid(p)
        split = hybrid_split(atlas)
        corner = nearest_candidate(atlas, (0.0, 0.0))
        assert not split.on_y[corner]

    @pytest.mark.parametrize("n, K, d, density", [
        (3, 3, 1, 1.0), (2, 3, 2, 1.0), (2, 2, 3, 1.0),
        (3, 4, 1, 0.5), (2, 4, 2, 0.5), (2, 3, 3, 0.5),
    ])
    def test_partition_covers_each_combination_once(self, n, K, d, density):
        p = generators.grid(n, K, d, density=density, seed=7)
        means = plain_means(p)
        for atlas in (build_atlas_exact(p), build_atlas_grid(p)):
            candidates = atlas.combination_candidates(p)
            split = hybrid_split(atlas)
            model = build_hybrid(atlas, split, p)
            w = model.w.tolist()
            assert len(w) == len(set(w))
            for h, mean in enumerate(means):
                j = nearest_candidate(atlas, mean)
                assert candidates[h] == j, (atlas.regime, h)
                assert (h in w) == (not split.on_y[j]), (atlas.regime, h)
