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
deduplicates (exponential effort), ``grid`` reads the same atlas of
lattice-supported measures with uniform weights off convolutions of their
cell indicators on the refined lattice (polynomial effort).  On lattice
data the two atlases are equal arrays; the regime only sets the cost.
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
    tuples: the pairs some combination landing on j uses.
    ``multiplicity[j]`` counts the combinations collapsing onto candidate
    j.  Both regimes hold equal arrays on lattice data; the grid regime
    reads them off convolutions (see ``build_atlas_grid``).  The exact
    regime also stores the candidate of every combination, by ordinal;
    ``combination_candidates`` returns it in both regimes.
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

        The exact regime stores this map.  On grids every mean's per-axis
        offset from the origin, in refined steps, is an integer digit
        (rounding leaves half a step); read as in ``build_atlas_grid`` the
        digits give its lattice code, which a ``searchsorted`` finds among
        the candidates' codes.  Refuses when the problem has more than
        ``cap`` combinations.
        """
        if self._combo_to_index is not None:
            return self._combo_to_index
        fine = self.fine_grid
        place = fine.side ** np.arange(fine.dim - 1, -1, -1)
        chunks = combination_chunks(problem, problem.weights, cap=cap)
        codes = [
            np.rint((points - fine.origin) / fine.step).astype(np.int64) @ place
            for points in [self.support_points, *(means for _, means in chunks)]
        ]
        return np.searchsorted(codes[0], np.concatenate(codes[1:]))


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
    """The exact atlas of lattice data, without walking the combinations.

    Requires uniform weights and every support point on ``grid``.  Every
    mean then lies on the refined lattice of side ``n*K - n + 1``.  Codes
    read the per-axis cell digits (``c - 1``) in base ``side``, first axis
    most significant; a sum of n digits never carries between axes, so the
    1-D convolution of the measures' flattened cell indicators is their
    d-dimensional one.  The n-fold convolution counts the combinations
    landing on each lattice code: its nonzero codes are the candidates and
    its values their multiplicities.  Point c of measure i is a source of
    candidate s exactly when the other n - 1 indicators convolve to a
    nonzero value at ``s - c``.
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
    place = side ** np.arange(d - 1, -1, -1)
    code = (cells - 1) @ place
    offsets = np.cumsum((0,) + problem.sizes)
    indicators = [np.bincount(code[a:b]) for a, b in zip(offsets, offsets[1:])]

    # Multiplicities exactly: int64 while the combination count fits it,
    # Python ints past that.  Reach by bool prefix and suffix products.
    exact = np.int64 if problem.combination_total() < 2**63 else object
    count = np.ones(1, dtype=exact)
    prefix, suffix = [np.ones(1, dtype=bool)], [np.ones(1, dtype=bool)]
    for ind in indicators:
        count = np.convolve(count, ind.astype(exact))
    for i in range(n - 1):
        prefix.append(np.convolve(prefix[-1], indicators[i] > 0))
        suffix.insert(0, np.convolve(suffix[0], indicators[n - 1 - i] > 0))
    candidates = np.flatnonzero(count)

    # Incidence over lattice codes; a code no combination reaches holds no
    # entries, so each candidate's pointers are read off at its code.
    codes = np.concatenate([
        ((code[a:b, None] + np.flatnonzero(np.convolve(before, after))) * offsets[-1]
         + np.arange(a, b)[:, None]).ravel()
        for a, b, before, after in zip(offsets, offsets[1:], prefix, suffix)
    ])
    indptr, measure, point = _incidence(codes, problem.sizes, side**d)

    scaled = n * np.asarray(grid.origin) + grid.step * (candidates[:, None] // place % side)
    return SupportAtlas(
        support_points=scaled / quant.scale,
        multiplicity=tuple(count[candidates].tolist()),
        regime="grid",
        sizes=problem.sizes,
        combination_total=problem.combination_total(),
        source_indptr=indptr[np.append(candidates, side**d)],
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
    variable count: ``n*K^d + 1`` (every point of a full grid) in the grid
    regime, ``len(sources(j)) + 1`` in the exact regime.  Transport
    variables win only on a strict excess, so general-position data (all
    multiplicities 1) stays all fixed.

    The budgets stay per regime although both atlases are equal on
    lattice data: on full grids ``len(sources(j)) + 1`` puts more
    candidates on y, and the dense simplex pays for the extra rows
    (grid(4,4,2): 644 against 500 rows, 0.63 against 0.28 s to solve).
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
