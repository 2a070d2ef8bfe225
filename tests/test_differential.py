"""Differential test: every formulation reaches the general model's optimum.

Problems are drawn at random and kept small, with the degenerate shapes the
formulations disagree on most easily: lattice points whose combinations
share a weighted mean (under uniform and under random weights), collinear
supports, one-point measures and d = 3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barylp.models import build_general, build_hybrid, build_original, build_reduced
from barylp.solver import extract_barycenter, solve
from barylp.support import build_atlas_exact, hybrid_split

from conftest import measure, problem

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


def assert_all_checks_pass(bary):
    failed = [c.name for c in bary.verification.checks if not c.passed]
    assert not failed, bary.verification.summary()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems())
def test_formulations_agree_with_general(p):
    general = build_general(p)
    reference = solve(general, pivot_rule="bland")
    assert reference.status == "optimal"
    assert_all_checks_pass(extract_barycenter(reference, general, p))

    atlas = build_atlas_exact(p)
    models = (
        build_original(atlas, p),
        build_reduced(atlas, p),
        build_hybrid(atlas, hybrid_split(atlas), p),
    )
    for model in models:
        for rule in ("bland", "dantzig"):
            solution = solve(model, pivot_rule=rule)
            assert solution.status == "optimal", (model.formulation, rule)
            assert solution.objective_value == pytest.approx(
                reference.objective_value, abs=OBJECTIVE_TOL
            ), (model.formulation, rule)
            assert_all_checks_pass(extract_barycenter(solution, model, p, atlas=atlas))
