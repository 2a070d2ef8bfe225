"""Candidate-support construction for barycenter LPs.

Every barycenter is supported on weighted means of one support point per
measure.  This module holds the one kernel that streams such combinations
with their means (``combination_chunks``), deduplicates the means
into a candidate point set (the "atlas"): one row-sorted ``(N, d)`` array
of points, where a candidate is named by its row index.  Alongside it
the atlas stores the incidence: for each candidate, the (measure, point)
pairs some combination reaching it uses, stored once as CSR arrays.  It
also counts how many combinations collapse onto each candidate, and
splits candidates between fixed-transport and mass/transport variable
representations for the hybrid model.

The whole stream is built by broadcasting, chunk by chunk: a chunk fixes
the points of its leading measures and adds the trailing measures' points
as outer sums, measure by measure from zero, so each mean equals the
left-to-right sum bit for bit; only explicit ordinals are decoded digit by
digit.  The exact regime derives the incidence from the map of
combinations to candidates: a candidate hit by one combination takes that
combination's n points as its sources, and only the combinations of
candidates hit more than once go through a sort of distinct pairs.

Two construction regimes exist: ``exact`` walks every combination and
deduplicates (exponential effort), ``grid`` reads the same atlas of
lattice-supported measures with uniform weights off convolutions of their
cell indicators on the refined lattice (polynomial effort).  On lattice
data the two atlases hold equal multiplicities and incidence arrays, and
the same points: equal arrays on integer lattices, while off them a
coordinate may differ by an ulp, as the two regimes compute the points
by different arithmetic.  The regime sets the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .measures import GridSpec, InvariantError, Problem

DEFAULT_COMBINATION_CAP = 10**8
# bucket size for merging means, relative to their coordinate span
DEDUP_TOL = 1e-9

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

    Explicit ordinals are decoded digit by digit and their points
    gathered.  The whole stream is built by broadcasting instead: its
    chunks end at multiples of ``COMBINATION_CHUNK`` and cover prefix
    blocks, the runs of combinations that share their leading measures'
    points, where the trailing measures make blocks of at most a chunk.
    Each covering block sums its leading points, then adds the trailing
    measures' points as outer sums, measure by measure, so its means are
    the decoded ones bit for bit; a chunk that cuts a block slices it.
    """
    total = problem.combination_total()
    if total > cap:
        raise CombinationBlowupError(
            f"combination blowup: {total} combinations exceed cap {cap}"
        )
    sizes = tuple(problem.sizes)
    n, d = len(sizes), problem.dimension
    strides = np.cumprod((1,) + sizes[:0:-1], dtype=np.int64)[::-1]
    scaled = [
        w * np.asarray(m.points, dtype=np.float64)
        for w, m in zip(weights, problem.measures)
    ]

    def decoded():
        for start in range(0, max(len(ordinals), 1), COMBINATION_CHUNK):
            h = np.asarray(ordinals[start:start + COMBINATION_CHUNK], dtype=np.int64)
            idx = h[:, None] // strides % sizes
            means = np.zeros((len(h), d))
            for i, pts in enumerate(scaled):
                means += np.take(pts, idx[:, i], axis=0)
            yield idx, means

    def broadcast():
        # a prefix block holds the `block` combinations that share the
        # points of the measures before `lead`: at most a chunk
        lead, block = 0, total
        while block > COMBINATION_CHUNK:
            block //= sizes[lead]
            lead += 1
        for start in range(0, total, COMBINATION_CHUNK):
            stop = min(start + COMBINATION_CHUNK, total)
            first, last = start // block, -(-stop // block)
            heads = np.arange(first, last, dtype=np.int64)[:, None] * block
            heads = heads // strides[:lead] % sizes[:lead]
            idx = np.empty((last - first,) + sizes[lead:] + (n,), dtype=np.int64)
            for i in range(lead):
                idx[..., i] = heads[:, i].reshape((-1,) + (1,) * (n - lead))
            for i in range(lead, n):
                idx[..., i] = np.arange(sizes[i]).reshape((-1,) + (1,) * (n - 1 - i))
            means = np.empty((idx.size // n, d))
            # coordinate by coordinate: the outer sums' inner loops then run
            # over a measure's points rather than over d coordinates
            for l in range(d):
                coord = np.zeros(last - first)
                for i, pts in enumerate(scaled):
                    if i < lead:
                        coord += pts[heads[:, i], l]
                    else:
                        coord = (coord[:, None] + pts[:, l]).ravel()
                means[:, l] = coord
            cut = slice(start - first * block, stop - first * block)
            yield idx.reshape(-1, n)[cut], means[cut]

    return broadcast() if ordinals is None else decoded()


class _Quantizer:
    """Coordinate bucketing under which coincident means collide exactly.

    Weights are rescaled to integers when they rationalize (uniform weights
    scale by n), so lattice-supported data dedups in integer arithmetic.
    Buckets are sized relative to the coordinate span, so points in general
    position never collide.
    """

    def __init__(self, problem: Problem):
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
        self.quantum = DEDUP_TOL * span if span > 0.0 else 1.0

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
    j.  On lattice data both regimes hold equal multiplicities and
    incidence, and points equal up to an ulp (exactly equal on integer
    lattices); the grid regime reads them off convolutions (see
    ``build_atlas_grid``).  The exact regime also stores the candidate of
    every combination, by ordinal; ``combination_candidates`` returns it
    in both regimes.
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
    idx: np.ndarray, combo_to_index: np.ndarray, multiplicity: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR incidence from every combination's index row and candidate: the
    candidate pointer and the measure and point index of every entry.

    A candidate hit by one combination takes that combination's n points,
    one per measure, in measure order.  Only the combinations of candidates
    hit more than once give ``candidate * P + g`` codes, where P is the
    total point count and g numbers measure i's points from
    ``sum(sizes[:i])``; their distinct codes, taken chunk by chunk and then
    across chunks, are those candidates' entries in CSR order.
    """
    n, npts = len(sizes), len(multiplicity)
    offsets = np.cumsum((0,) + tuple(sizes))
    shared = multiplicity > 1
    codes = []
    for start in range(0, max(len(idx), 1), COMBINATION_CHUNK):
        labels = combo_to_index[start:start + COMBINATION_CHUNK]
        hit = shared[labels]
        rows = idx[start:start + COMBINATION_CHUNK][hit]
        codes.append(_distinct((labels[hit, None] * offsets[-1] + offsets[:-1] + rows).ravel()))
    j, g = np.divmod(_distinct(np.concatenate(codes)), offsets[-1])

    counts = np.where(shared, 0, n) + np.bincount(j, minlength=npts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    measure = np.empty(indptr[-1], dtype=np.int64)
    point = np.empty(indptr[-1], dtype=np.int64)
    # the shared candidates' slots, in CSR order, are the codes' order
    in_shared = np.repeat(shared, counts)
    measure[in_shared] = np.searchsorted(offsets, g, side="right") - 1
    point[in_shared] = g - offsets[measure[in_shared]]
    # and the other slots are the lone combinations' rows, by candidate
    combo = np.empty(npts, dtype=np.int64)
    combo[combo_to_index] = np.arange(len(combo_to_index))
    single = np.flatnonzero(~shared)
    measure[~in_shared] = np.tile(np.arange(n), len(single))
    point[~in_shared] = np.take(idx, combo[single], axis=0).ravel()
    return indptr, measure, point


def build_atlas_exact(problem: Problem, cap: int = DEFAULT_COMBINATION_CAP) -> SupportAtlas:
    """Enumerate every combination and deduplicate the weighted means.

    Means accumulate with the quantizer's scaled weights, so rational
    weights stay in integer arithmetic.  Each candidate keeps the mean of
    the first combination (by ordinal) that hits its key.  The incidence
    is derived from the combination-to-candidate map (see ``_incidence``).
    """
    quant = _Quantizer(problem)
    # refuses over the cap before the combination-sized arrays below exist
    chunks = combination_chunks(problem, quant.scaled_weights, cap=cap)
    total = problem.combination_total()

    # Per chunk: its distinct keys with their first mean, its index
    # matrix, and every combination's chunk-local label (offset to be
    # unique across chunks).
    chunk_keys, chunk_means, chunk_idx = [], [], []
    local = np.empty(total, dtype=np.int64)
    start = offset = 0
    for idx, scaled in chunks:
        keys, first, inverse = _unique_rows(quant.keys(scaled))
        chunk_keys.append(keys)
        chunk_means.append(np.take(scaled, first, axis=0))
        chunk_idx.append(idx)
        local[start:start + len(idx)] = inverse + offset
        start += len(idx)
        offset += len(keys)

    # Across chunks the earliest chunk holding a key supplies its mean.  A
    # single chunk's keys are distinct and sorted already.
    if len(chunk_keys) == 1:
        scaled_points, merged = chunk_means[0], None
    else:
        _, first, merged = _unique_rows(np.concatenate(chunk_keys))
        scaled_points = np.concatenate(chunk_means)[first]

    # Canonical indexing: sort candidates lexicographically by coordinate.
    order = _lexsort_rows(scaled_points)
    npts = len(order)
    label = np.empty(npts, dtype=np.int64)
    label[order] = np.arange(npts)
    if merged is not None:
        label = label[merged]
    combo_to_index = label[local]
    multiplicity = np.bincount(combo_to_index, minlength=npts)
    indptr, measure, point = _incidence(
        np.concatenate(chunk_idx), combo_to_index, multiplicity, problem.sizes
    )

    return SupportAtlas(
        support_points=np.take(scaled_points, order, axis=0) / quant.scale,
        multiplicity=tuple(multiplicity.tolist()),
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
    N = len(candidates)
    row = np.full(side**d, -1)
    row[candidates] = np.arange(N)

    # Incidence.  The candidates a point reaches are distinct, so every
    # (candidate, measure) block gets one slot per source, and filling the
    # next free slot of each candidate of each point, measure by measure
    # and point by point, writes the entries in CSR order: no sort.
    targets = [
        (code[a:b], np.flatnonzero(np.convolve(before, after)))
        for a, b, before, after in zip(offsets, offsets[1:], prefix, suffix)
    ]
    counts = np.column_stack([
        np.bincount(row[(cells_i[:, None] + reach).ravel()], minlength=N)
        for cells_i, reach in targets
    ])
    slots = counts.ravel()
    start = (np.cumsum(slots) - slots).reshape(counts.shape)
    point = np.empty(slots.sum(), dtype=np.int64)
    for free, (cells_i, reach) in zip(start.T.copy(), targets):
        for k, c in enumerate(cells_i.tolist()):
            reached = row[c + reach]
            point[free[reached]] = k
            free[reached] += 1

    scaled = n * np.asarray(grid.origin) + grid.step * (candidates[:, None] // place % side)
    return SupportAtlas(
        support_points=scaled / quant.scale,
        multiplicity=tuple(count[candidates].tolist()),
        regime="grid",
        sizes=problem.sizes,
        combination_total=problem.combination_total(),
        source_indptr=np.append(start[:, 0], len(point)),
        source_measure=np.repeat(np.tile(np.arange(n), N), slots),
        source_point=point,
        fine_grid=fine,
        _quantizer=quant,
        _combo_to_index=None,
    )


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)``:
    the sorted distinct rows, each one's first index and every row's label.
    A stable lexsort and a neighbour compare do it faster than the
    structured-view sort of ``np.unique``.  Rows are gathered by
    ``np.take`` and compared column by column: on rows of a few columns,
    fancy indexing and ``any(axis=1)`` cost several times more."""
    order = _lexsort_rows(rows)
    ordered = np.take(rows, order, axis=0)
    new = np.zeros(len(rows), dtype=bool)
    new[0] = True
    for column in ordered.T:
        new[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return np.compress(new, ordered, axis=0), order[new], inverse


def _lexsort_rows(rows: np.ndarray) -> np.ndarray:
    """``np.lexsort(rows.T[::-1])``: the stable order of the rows by first
    column, then second, and so on.  A quicksort of the first column
    leaves only its runs of equal values to lexsort, each run's rows first
    put back in index order so that the result stays stable.  When a probe
    of about 256 evenly spaced values of that column already holds ties,
    the runs would cover most rows, and one lexsort of all is cheaper; so
    it is below 512 rows, where the probe costs about what it can save."""
    if len(rows) < 512 or rows.shape[1] < 2:
        return np.lexsort(rows.T[::-1])
    first = rows[:, 0]
    probe = np.sort(first[:: len(first) // 256])
    if not (probe[1:] > probe[:-1]).all():
        return np.lexsort(rows.T[::-1])
    order = np.argsort(first)
    key = first[order]
    # not greater, rather than equal: NaNs sort last and tie with each other
    tie = ~(key[1:] > key[:-1])
    in_run = np.zeros(len(rows), dtype=bool)
    in_run[1:] = tie
    in_run[:-1] |= tie
    if in_run.any():
        run = np.sort(order[in_run])
        order[in_run] = run[np.lexsort(rows[run].T[::-1])]
    return order


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values; on integer codes a plain sort is several
    times faster than ``np.unique``, which hashes them."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


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
    if atlas.combination_total < 2**63:
        multiplicity = np.fromiter(atlas.multiplicity, np.int64, atlas.point_count)
        on_y = multiplicity > budgets
    else:
        # grid multiplicities may pass 2**63, so compare them as Python ints
        on_y = np.array(
            [m > b for m, b in zip(atlas.multiplicity, budgets.tolist())], dtype=bool
        )
    return HybridSplit(on_y=on_y, budgets=budgets)
