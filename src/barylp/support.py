"""Candidate-support construction for barycenter LPs.

Every barycenter is supported on weighted means of one support point per
measure.  This module holds the one kernel that decodes such combinations
and computes their means (``combination_chunks``), deduplicates the means
into a candidate point set (the "atlas"): one row-sorted ``(N, d)`` array
of points, where a candidate is named by its row index.  Alongside it
the atlas stores the incidence: for each candidate, the (measure, point)
pairs some combination reaching it uses, stored once as CSR arrays.  It
also counts how many combinations collapse onto each candidate, and
splits candidates between fixed-transport and mass/transport variable
representations for the hybrid model.

Two construction regimes exist: ``exact`` walks every combination and
deduplicates (smallest possible models, exponential effort), ``grid``
generates the refined lattice that contains all means of lattice-supported
measures with uniform weights (polynomial effort, possibly unreachable
candidates), with each support point reaching a box of candidates given in
closed form by the per-axis index sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .measures import GridSpec, InvariantError, Problem

DEFAULT_COMBINATION_CAP = 10**8
DEFAULT_DEDUP_TOL = 1e-9

_RATIONALIZE_DENOM_CAP = 10**6

# Combinations per kernel chunk: bounds the kernel's temporaries to a few MB.
COMBINATION_CHUNK = 1 << 16


class CombinationBlowupError(RuntimeError):
    """Raised when the combination count exceeds the configured cap."""


class GridRegimeError(InvariantError):
    """Grid-regime preconditions violated (off-lattice point or weights)."""


def combination_chunks(
    problem: Problem,
    weights: Sequence[float],
    ordinals: np.ndarray | None = None,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index matrices and weighted means of combinations, chunk by chunk.

    A combination picks point ``k_i`` of every measure i; its ordinal is its
    position in the lexicographic order of ``(k_1, ..., k_n)``.  For each
    chunk of ``ordinals`` (every combination in order when None) yields the
    ``(len, n)`` index matrix and the ``(len, d)`` means
    ``sum_i weights[i] * x_{i,k_i}``, summed measure by measure from zero so
    they equal the scalar left-to-right sum exactly.  At least one chunk is
    yielded, even for no ordinals.  Refuses up front, before any chunk,
    when the problem has more than ``cap`` combinations.
    """
    total = problem.combination_total()
    if total > cap:
        raise CombinationBlowupError(
            f"combination blowup: {total} combinations exceed cap {cap}"
        )
    sizes = np.asarray(problem.sizes, dtype=np.int64)
    strides = np.ones_like(sizes)
    strides[:-1] = np.cumprod(sizes[::-1])[::-1][1:]
    scaled = [
        w * np.asarray(m.points, dtype=np.float64)
        for w, m in zip(weights, problem.measures)
    ]
    count = total if ordinals is None else len(ordinals)

    def generate():
        for start in range(0, max(count, 1), COMBINATION_CHUNK):
            stop = min(start + COMBINATION_CHUNK, count)
            h = (
                np.arange(start, stop, dtype=np.int64)
                if ordinals is None
                else np.asarray(ordinals[start:stop], dtype=np.int64)
            )
            idx = h[:, None] // strides % sizes
            means = np.zeros((len(h), problem.dimension))
            for i, pts in enumerate(scaled):
                means += pts[idx[:, i]]
            yield idx, means

    return generate()


class _Quantizer:
    """Coordinate bucketing under which coincident means collide exactly.

    Weights are rescaled to integers when they rationalize (uniform weights
    scale by n), so lattice-supported data dedups in integer arithmetic.
    Buckets are sized relative to the coordinate span, so points in general
    position never collide.
    """

    def __init__(self, problem: Problem, dedup_tol: float = DEFAULT_DEDUP_TOL):
        fracs = [Fraction(w).limit_denominator(_RATIONALIZE_DENOM_CAP) for w in problem.weights]
        exact = all(abs(float(f) - w) <= 1e-12 for f, w in zip(fracs, problem.weights))
        denom = math.lcm(*(f.denominator for f in fracs)) if exact else 0
        if 0 < denom <= _RATIONALIZE_DENOM_CAP:
            self.scale = float(denom)
            self.scaled_weights = tuple(
                float(f.numerator * (denom // f.denominator)) for f in fracs
            )
        else:
            self.scale = 1.0
            self.scaled_weights = tuple(problem.weights)

        d = problem.dimension
        span = 0.0
        for l in range(d):
            lo = sum(
                sw * min(pt[l] for pt in m.points)
                for sw, m in zip(self.scaled_weights, problem.measures)
            )
            hi = sum(
                sw * max(pt[l] for pt in m.points)
                for sw, m in zip(self.scaled_weights, problem.measures)
            )
            span = max(span, hi - lo)
        self.quantum = float(dedup_tol) * span if span > 0.0 else 1.0

    def keys(self, scaled_points: np.ndarray) -> np.ndarray:
        """Bucket key of every row of scaled points: each coordinate in
        quanta, rounded half to even by ``np.rint``.  Two points merge
        when their key rows are equal (-0.0 equals 0.0)."""
        return np.rint(scaled_points / self.quantum)


@dataclass(frozen=True)
class SupportAtlas:
    """Candidate support points with their incidence structure.

    ``support_points`` is one ``(N, d)`` float64 array whose rows are
    sorted lexicographically by coordinate; candidate j is row j.  The
    incidence is stored once, in CSR form over candidates: entries
    ``source_indptr[j]:source_indptr[j + 1]`` of ``source_measure`` and
    ``source_point`` are the (measure i, point k) pairs that can contribute
    to candidate j, sorted by i, then k; ``sources(j)`` reads them as
    tuples.  In the exact regime these are the pairs some combination
    landing on j uses; on grids, the pairs the per-axis box rule of
    ``build_atlas_grid`` admits.  ``multiplicity[j]`` counts combinations
    collapsing onto candidate j (exactly in the exact regime, by the
    closed-form dice count on grids).  The exact regime also stores the
    candidate of every combination, by ordinal; ``combination_candidates``
    returns it in both regimes.
    """

    support_points: np.ndarray = field(repr=False)
    multiplicity: tuple[int, ...]
    regime: str
    sizes: tuple[int, ...]
    combination_total: int
    source_indptr: np.ndarray = field(repr=False)
    source_measure: np.ndarray = field(repr=False)
    source_point: np.ndarray = field(repr=False)
    fine_grid: GridSpec | None = None
    _quantizer: _Quantizer | None = field(repr=False, default=None)
    _combo_to_index: np.ndarray | None = field(repr=False, default=None)

    @property
    def point_count(self) -> int:
        return len(self.support_points)

    def sources(self, j: int) -> tuple[tuple[int, int], ...]:
        """(measure, point) index pairs contributing to candidate j."""
        a, b = self.source_indptr[j], self.source_indptr[j + 1]
        return tuple(zip(self.source_measure[a:b].tolist(), self.source_point[a:b].tolist()))

    def combination_candidates(
        self, problem: Problem, cap: int = DEFAULT_COMBINATION_CAP
    ) -> np.ndarray:
        """Candidate index of every combination's weighted mean, by ordinal.

        The exact regime stores this map.  On grids every mean lies on the
        refined lattice, so its per-axis offset from the origin in steps is
        an integer digit, and the candidate is those digits read in base
        ``side``, the first axis most significant, as ``build_atlas_grid``
        numbers them; rounding leaves a margin of half a step.  Refuses
        when the problem has more than ``cap`` combinations.
        """
        if self._combo_to_index is not None:
            return self._combo_to_index
        fine = self.fine_grid
        place = fine.side ** np.arange(fine.dim - 1, -1, -1)
        return np.concatenate([
            np.rint((means - fine.origin) / fine.step).astype(np.int64) @ place
            for _, means in combination_chunks(problem, problem.weights, cap=cap)
        ])


def _incidence(
    codes: np.ndarray, sizes: Sequence[int], count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence from ``candidate * P + g`` codes, where P is the total
    point count and g numbers measure i's points from ``sum(sizes[:i])``:
    the candidate pointer (``count + 1`` entries) and the measure and point
    index of every distinct code, in code order."""
    offsets = np.cumsum((0,) + tuple(sizes))
    j, g = np.divmod(_distinct(codes), offsets[-1])
    measure = np.searchsorted(offsets, g, side="right") - 1
    return np.searchsorted(j, np.arange(count + 1)), measure, g - offsets[measure]


def build_atlas_exact(
    problem: Problem,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    cap: int = DEFAULT_COMBINATION_CAP,
) -> SupportAtlas:
    """Enumerate every combination and deduplicate the weighted means.

    Means accumulate with the quantizer's scaled weights, so rational
    weights stay in integer arithmetic.  Each candidate keeps the mean of
    the first combination (by ordinal) that hits its key.
    """
    quant = _Quantizer(problem, dedup_tol)
    # refuses over the cap before the combination-sized arrays below exist
    chunks = combination_chunks(problem, quant.scaled_weights, cap=cap)
    n = problem.n
    total = problem.combination_total()

    # Per chunk: its distinct keys with their first mean, every
    # combination's chunk-local label (offset to be unique across chunks),
    # and per measure the distinct (point, label) pairs.
    chunk_keys, chunk_means = [], []
    chunk_pairs: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(n)]
    local = np.empty(total, dtype=np.int64)
    start = offset = 0
    for idx, scaled in chunks:
        keys, first, inverse = _unique_rows(quant.keys(scaled))
        chunk_keys.append(keys)
        chunk_means.append(scaled[first])
        local[start:start + len(idx)] = inverse + offset
        u = len(keys)
        for i in range(n):
            code = _distinct(idx[:, i] * u + inverse)
            chunk_pairs[i].append((code // u, code % u + offset))
        start += len(idx)
        offset += u

    # Across chunks the earliest chunk holding a key supplies its mean.
    _, first, inverse = _unique_rows(np.concatenate(chunk_keys))
    scaled_points = np.concatenate(chunk_means)[first]

    # Canonical indexing: sort candidates lexicographically by coordinate.
    order = np.lexsort(scaled_points.T[::-1])
    npts = len(order)
    relabel = np.empty(npts, dtype=np.int64)
    relabel[order] = np.arange(npts)
    label = relabel[inverse]
    combo_to_index = label[local]

    # Distinct (candidate, global point) incidences, where measure i's
    # points are numbered from offsets[i].
    offsets = np.cumsum((0,) + problem.sizes).tolist()
    codes = [
        label[np.concatenate([ls for _, ls in chunk_pairs[i]])] * offsets[-1]
        + np.concatenate([ks for ks, _ in chunk_pairs[i]]) + offsets[i]
        for i in range(n)
    ]
    indptr, measure, point = _incidence(np.concatenate(codes), problem.sizes, npts)

    return SupportAtlas(
        support_points=scaled_points[order] / quant.scale,
        multiplicity=tuple(np.bincount(combo_to_index, minlength=npts).tolist()),
        regime="exact",
        sizes=problem.sizes,
        combination_total=total,
        source_indptr=indptr,
        source_measure=measure,
        source_point=point,
        fine_grid=None,
        _quantizer=quant,
        _combo_to_index=combo_to_index,
    )


def build_atlas_grid(problem: Problem, grid: GridSpec | None = None) -> SupportAtlas:
    """Generate the refined-lattice candidate set without touching the
    combination stream.

    Requires uniform weights and every support point on ``grid``.  All
    ``(n*K - n + 1)**d`` refined-lattice points become candidates whether or
    not sparse supports can actually reach them.  A candidate is indexed by
    its per-axis lattice index sums s in [n, n*K].  The point in lattice
    cell c (indices 1..K) is a source of it when, on every axis l, the
    remaining sum ``s_l - c_l`` is achievable by n-1 lattice values, that
    is ``c_l + n - 1 <= s_l <= c_l + (n - 1)*K``: a box of candidates.  On
    full grids these are exactly the pairs some combination uses; sparse
    supports keep pairs no combination may use.
    """
    if grid is None:
        grid = problem.grid
    if grid is None:
        raise GridRegimeError("grid regime requires a lattice specification")
    n = problem.n
    if not problem.has_uniform_weights():
        raise GridRegimeError("grid regime requires uniform weights 1/n")
    if grid.dim != problem.dimension:
        raise GridRegimeError(
            f"lattice dimension {grid.dim} != problem dimension {problem.dimension}"
        )
    K = grid.side
    d = grid.dim

    # Lattice cell of every support point (raises off-lattice).
    cells = np.array(
        [grid.cell(pt) for m in problem.measures for pt in m.points], dtype=np.int64
    ).reshape(-1, d)

    quant = _Quantizer(problem)
    if quant.scale != float(n) or any(w != 1.0 for w in quant.scaled_weights):
        # candidate coordinates below rely on the weights rescaling to
        # exactly one; nearly-uniform weights would mis-key the lattice
        raise GridRegimeError("grid regime requires exactly uniform weights 1/n")
    side = n * K - n + 1
    fine = GridSpec(dim=d, side=side, origin=grid.origin, step=grid.step / n)

    # Candidate j has index sums n + (digits of j in base ``side``), the
    # first axis most significant.
    sums = np.indices((side,) * d).reshape(d, -1).T + n
    scaled = n * np.asarray(grid.origin) + grid.step * (sums - n)

    # A point's box starts at candidate sums c + n - 1, i.e. digits c - 1,
    # and spans (n - 1)*(K - 1) + 1 sums per axis.
    place = side ** np.arange(d - 1, -1, -1)
    width = (n - 1) * (K - 1) + 1
    box = np.indices((width,) * d).reshape(d, -1).T @ place
    corner = (cells - 1) @ place
    g = np.arange(len(cells))
    codes = (corner[:, None] + box[None, :]) * len(cells) + g[:, None]
    indptr, measure, point = _incidence(codes.ravel(), problem.sizes, side**d)

    return SupportAtlas(
        support_points=scaled / quant.scale,
        multiplicity=tuple(combination_count(s, K, n) for s in sums.tolist()),
        regime="grid",
        sizes=problem.sizes,
        combination_total=problem.combination_total(),
        source_indptr=indptr,
        source_measure=measure,
        source_point=point,
        fine_grid=fine,
        _quantizer=quant,
        _combo_to_index=None,
    )


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``:
    the sorted distinct rows, each one's first index and every row's label.
    A stable lexsort and a neighbour compare do it faster than the
    structured-view sort of ``np.unique``."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values; on integer codes a plain sort is several
    times faster than ``np.unique``, which hashes them."""
    codes = np.sort(codes)
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def _comb_or_zero(a: int, b: int) -> int:
    if a < 0 or b < 0 or a < b:
        return 0
    return math.comb(a, b)


def count_dice(total: int, sides: int, dice: int) -> int:
    """Number of ``dice``-tuples in {1..sides} summing to ``total``.

    Inclusion-exclusion in exact integer arithmetic; sums outside
    [dice, dice*sides] count zero.
    """
    if sides < 1 or dice < 1:
        raise ValueError(f"need sides >= 1 and dice >= 1, got {sides}, {dice}")
    return sum(
        (-1) ** m * math.comb(dice, m) * _comb_or_zero(total - m * sides - 1, dice - 1)
        for m in range(dice + 1)
    )


def combination_count(axis_sums: Sequence[int], sides: int, dice: int) -> int:
    """Combinations collapsing onto the lattice candidate whose per-axis
    index sums are ``axis_sums``: the product of per-axis dice counts."""
    out = 1
    for s in axis_sums:
        out *= count_dice(int(s), sides, dice)
    return out


@dataclass(frozen=True)
class HybridSplit:
    """Per-candidate choice between variable representations.

    Candidates j with ``on_y[j]`` (a bool array over candidates) get one
    mass variable plus transport variables; every combination collapsing
    onto any other candidate gets its own fixed-transport variable.
    ``budgets[j]`` (an int64 array) is the bound the multiplicity was
    compared against.  The fixed-transport combinations themselves are
    picked by ``build_hybrid`` from the atlas's combination-to-candidate
    map.
    """

    on_y: np.ndarray
    budgets: np.ndarray


def hybrid_split(atlas: SupportAtlas) -> HybridSplit:
    """Assign each candidate the cheaper representation.

    A candidate j costs ``multiplicity[j]`` fixed-transport variables or
    ``budget`` mass/transport variables, where the budget is the per-point
    variable count: ``n*K^d + 1`` on full grids, ``len(sources(j)) + 1``
    in the exact regime.  Transport variables win only on a strict excess,
    so general-position data (all multiplicities 1) stays all fixed.
    """
    if atlas.regime == "grid":
        n = len(atlas.sizes)
        # refined side is n*K - n + 1, so K recovers exactly
        K = (atlas.fine_grid.side - 1) // n + 1
        budgets = np.full(atlas.point_count, n * K ** atlas.fine_grid.dim + 1, dtype=np.int64)
    else:
        budgets = np.diff(atlas.source_indptr).astype(np.int64) + 1
    # grid multiplicities may pass 2**63, so compare them as Python ints
    on_y = np.array(
        [m > b for m, b in zip(atlas.multiplicity, budgets.tolist())], dtype=bool
    )
    return HybridSplit(on_y=on_y, budgets=budgets)
