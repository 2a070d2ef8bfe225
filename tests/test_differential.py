"""Differential test: every formulation reaches the general model's optimum.

Problems are drawn at random and kept small, with the degenerate shapes the
formulations disagree on most easily: lattice points whose combinations
share a weighted mean (under uniform and under random weights), collinear
supports, one-point measures and d = 3.  Lattice draws with uniform
weights build the grid atlas as well, which must equal the exact atlas
array for array, and the three atlas formulations on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barylp.cli import detect_grid
from barylp.models import build_general, build_hybrid, build_original, build_reduced
from barylp.solver import extract_barycenter, solve
from barylp.support import build_atlas_exact, build_atlas_grid, hybrid_split

from conftest import assert_atlases_equal, measure, problem

OBJECTIVE_TOL = 1e-8


@st.composite
def problems(draw):
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 3))
    collinear = draw(st.booleans())
    direction = draw(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    )
    measures = []
    for _ in range(n):
        p = draw(st.integers(1, 3))
        if collinear:
            steps = draw(
                st.lists(st.integers(-3, 3), min_size=p, max_size=p, unique=True)
            )
            points = [[t * c for c in direction] for t in steps]
        else:
            points = draw(
                st.lists(
                    st.tuples(*[st.integers(0, 3)] * d),
                    min_size=p, max_size=p, unique=True,
                )
            )
        masses = draw(st.lists(st.integers(1, 5), min_size=p, max_size=p))
        measures.append(measure(points, [m / sum(masses) for m in masses]))
    if draw(st.booleans()):
        weights = None  # uniform
    else:
        raw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        weights = [w / sum(raw) for w in raw]
    return problem(measures, weights)


def assert_balance_rows_hold_transport(model):
    """Every balance row holds a y entry besides its -z_j."""
    nz, ny = len(model.z), len(model.y)
    transport = model.constraints[: len(model.balance), nz : nz + ny]
    assert np.all(np.diff(transport.indptr) > 0), model.formulation


def assert_all_checks_pass(bary):
    failed = [c.name for c in bary.verification.checks if not c.passed]
    assert not failed, bary.verification.summary()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems())
def test_formulations_agree_with_general(p):
    general = build_general(p)
    reference = solve(general)
    assert reference.status == "optimal"
    assert_all_checks_pass(extract_barycenter(reference, general, p))

    atlases = [build_atlas_exact(p)]
    spec = detect_grid(p)
    if spec is not None and p.has_uniform_weights():
        atlases.append(build_atlas_grid(p, spec))
        assert_atlases_equal(atlases[1], atlases[0], p)
    for atlas in atlases:
        models = (
            build_original(atlas, p),
            build_reduced(atlas, p),
            build_hybrid(atlas, hybrid_split(atlas), p),
        )
        for model in models[1:]:
            assert_balance_rows_hold_transport(model)
        for model in models:
            label = (atlas.regime, model.formulation)
            solution = solve(model)
            assert solution.status == "optimal", label
            assert solution.objective_value == pytest.approx(
                reference.objective_value, abs=OBJECTIVE_TOL
            ), label
            assert_all_checks_pass(extract_barycenter(solution, model, p, atlas=atlas))
