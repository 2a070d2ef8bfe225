"""Measure and problem validation, ingestion formats, weights."""

import io
import json
import math

import pytest

from barylp.measures import (
    DiscreteMeasure,
    GridSpec,
    InvariantError,
    ParseError,
    WeightError,
    load_problem,
    uniform_weights,
    validate_measure,
    validate_problem,
)

from conftest import measure, problem


class TestValidateMeasure:
    def test_canonical_valid_measure(self):
        assert validate_measure(measure([[0.0], [2.0]], [0.5, 0.5])) == []

    def test_mass_sum_violation(self):
        report = validate_measure(measure([[0.0], [2.0]], [0.5, 0.6]))
        assert len(report) == 1
        assert "sum" in report[0] and "1.1" in report[0]

    def test_duplicate_point_violation(self):
        report = validate_measure(measure([[0.0], [0.0]], [0.5, 0.5]))
        assert any("duplicate" in v and "0,1" in v for v in report)

    def test_nonpositive_mass(self):
        report = validate_measure(measure([[0.0], [1.0]], [1.0, 0.0]))
        assert any("index 1" in v and "positive" in v for v in report)

    def test_dimension_mismatch_inside_measure(self):
        bad = DiscreteMeasure(((0.0,), (1.0, 2.0)), (0.5, 0.5))
        report = validate_measure(bad)
        assert any("dimension" in v for v in report)

    def test_mass_sum_tolerance_is_tight(self):
        # 1e-12 band: barely inside passes, just outside fails
        ok = measure([[0.0], [1.0]], [0.5, 0.5 + 0.5e-12])
        assert validate_measure(ok) == []
        bad = measure([[0.0], [1.0]], [0.5, 0.5 + 1e-11])
        assert validate_measure(bad) != []

    def test_mutations_of_valid_fixture_each_flagged(self):
        base_points = [[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]]
        base_masses = [0.25, 0.25, 0.5]
        assert validate_measure(measure(base_points, base_masses)) == []
        mutations = [
            measure(base_points, [0.25, 0.25, 0.25]),          # bad sum
            measure(base_points, [0.25, -0.25, 1.0]),          # negative mass
            measure([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0]], base_masses),  # duplicate
            DiscreteMeasure(((0.0, 0.0), (1.0,), (2.0, 2.0)), tuple(base_masses)),
        ]
        for mutant in mutations:
            assert validate_measure(mutant) != []


class TestValidateProblem:
    def test_valid(self):
        assert validate_problem(problem([measure([[0.0]], [1.0]), measure([[1.0]], [1.0])])) == []

    def test_single_measure_rejected(self):
        p = problem([measure([[0.0]], [1.0])])
        assert any("at least 2" in v for v in validate_problem(p))

    def test_weights_must_be_positive_and_normalized(self):
        m = measure([[0.0]], [1.0])
        p = problem([m, m], weights=[0.7, 0.4])
        assert any("sum" in v for v in validate_problem(p))
        p = problem([m, m], weights=[1.5, -0.5])
        assert any("positive" in v for v in validate_problem(p))

    def test_mixed_dimensions_rejected(self):
        p = problem([measure([[0.0]], [1.0]), measure([[1.0, 2.0]], [1.0])])
        assert any("mixed dimensions" in v for v in validate_problem(p))


class TestUniformWeights:
    def test_four(self):
        assert uniform_weights(4) == (0.25, 0.25, 0.25, 0.25)

    def test_one(self):
        assert uniform_weights(1) == (1.0,)

    def test_three_sums_to_one(self):
        assert abs(math.fsum(uniform_weights(3)) - 1.0) <= 1e-15

    def test_zero_rejected(self):
        with pytest.raises(WeightError):
            uniform_weights(0)


def problem_json(**overrides):
    doc = {
        "measures": [
            {"points": [[0.0], [2.0]], "masses": [0.5, 0.5]},
            {"points": [[1.0], [3.0]], "masses": [0.25, 0.75]},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestLoadJson:
    def test_omitted_weights_default_uniform(self):
        p = load_problem(problem_json())
        assert p.weights == (0.5, 0.5)

    def test_explicit_weights(self):
        p = load_problem(problem_json(weights=[0.25, 0.75]))
        assert p.weights == (0.25, 0.75)

    def test_dimension_mismatch_across_measures(self):
        doc = {
            "measures": [
                {"points": [[0.0, 1.0]], "masses": [1.0]},
                {"points": [[0.0, 1.0, 2.0]], "masses": [1.0]},
            ]
        }
        with pytest.raises(InvariantError, match="dimension"):
            load_problem(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            load_problem("{not json")

    def test_missing_measures_key(self):
        with pytest.raises(ParseError):
            load_problem(json.dumps({"weights": [1.0]}))

    def test_wrong_weight_count(self):
        with pytest.raises(WeightError):
            load_problem(problem_json(weights=[1.0]))

    def test_nonpositive_mass_rejected(self):
        doc = {
            "measures": [
                {"points": [[0.0], [1.0]], "masses": [1.0, 0.0]},
                {"points": [[0.0]], "masses": [1.0]},
            ]
        }
        with pytest.raises(InvariantError):
            load_problem(json.dumps(doc))

    def test_normalize_flag_rescales(self):
        doc = {
            "measures": [
                {"points": [[0.0], [1.0]], "masses": [2.0, 6.0]},
                {"points": [[0.0]], "masses": [5.0]},
            ],
            "normalize": True,
        }
        p = load_problem(json.dumps(doc))
        assert p.measures[0].masses == (0.25, 0.75)
        assert p.measures[1].masses == (1.0,)

    def test_off_sums_rejected_without_normalize(self):
        doc = {
            "measures": [
                {"points": [[0.0], [1.0]], "masses": [0.5, 0.5001]},
                {"points": [[0.0]], "masses": [1.0]},
            ]
        }
        with pytest.raises(InvariantError, match="sum"):
            load_problem(json.dumps(doc))

    def test_tiny_sum_error_rescaled_exactly(self):
        # inside the 1e-9 acceptance band the loader fixes the sum exactly
        doc = {
            "measures": [
                {"points": [[0.0], [1.0]], "masses": [0.5, 0.5 + 3e-10]},
                {"points": [[0.0]], "masses": [1.0]},
            ]
        }
        p = load_problem(json.dumps(doc))
        assert abs(math.fsum(p.measures[0].masses) - 1.0) <= 1e-12

    def test_duplicate_points_rejected_not_merged(self):
        doc = {
            "measures": [
                {"points": [[0.0], [0.0]], "masses": [0.5, 0.5]},
                {"points": [[1.0]], "masses": [1.0]},
            ]
        }
        with pytest.raises(InvariantError, match="duplicate"):
            load_problem(json.dumps(doc))

    def test_deterministic_on_identical_bytes(self):
        text = problem_json()
        assert load_problem(text) == load_problem(text)

    def test_accepts_bytes_and_streams(self):
        text = problem_json()
        assert load_problem(text.encode()) == load_problem(io.StringIO(text))

    def test_missing_path_raises_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_problem(tmp_path / "missing.json")

    def test_str_is_content_not_a_path(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(problem_json())
        assert load_problem(path) == load_problem(problem_json())
        # the str naming the file is parsed as JSON, which it is not
        with pytest.raises(ParseError, match="invalid JSON"):
            load_problem(str(path))


def grid_csv_16x16():
    return "\n".join(
        [
            "16,2,0.0,0.0,1.0",
            "1,1,0.25",
            "8,9,0.5",
            "16,16,0.25",
        ]
    )


class TestLoadGridCsv:
    def test_nonzero_cell_extraction(self):
        other = "16,2,0.0,0.0,1.0\n2,2,1.0"
        p = load_problem([grid_csv_16x16(), other], "grid-csv")
        assert p.sizes == (3, 1)
        assert p.dimension == 2
        assert p.grid == GridSpec(dim=2, side=16, origin=(0.0, 0.0), step=1.0)
        assert p.measures[0].points[0] == (0.0, 0.0)
        assert p.measures[0].points[1] == (7.0, 8.0)
        assert p.weights == (0.5, 0.5)

    def test_zero_cells_dropped(self):
        src = "4,1,0.0,1.0\n1,0.5\n2,0.0\n3,0.5"
        p = load_problem([src, src], "grid-csv")
        assert p.sizes == (2, 2)

    def test_negative_mass_rejected(self):
        src = "4,1,0.0,1.0\n1,0.5\n2,-0.5\n3,1.0"
        with pytest.raises(InvariantError, match="negative"):
            load_problem([src, src], "grid-csv")

    def test_cell_index_out_of_range(self):
        src = "4,1,0.0,1.0\n5,1.0"
        with pytest.raises(ParseError, match="outside"):
            load_problem([src, src], "grid-csv")

    def test_mismatched_lattices_rejected(self):
        a = "4,1,0.0,1.0\n1,1.0"
        b = "5,1,0.0,1.0\n1,1.0"
        with pytest.raises(InvariantError, match="lattice"):
            load_problem([a, b], "grid-csv")

    def test_header_errors(self):
        with pytest.raises(ParseError):
            load_problem(["bogus header"], "grid-csv")
        with pytest.raises(ParseError):
            load_problem(["4,2,0.0,1.0\n1,1,1.0"], "grid-csv")  # origin too short

    def test_weights_parameter(self):
        a = "2,1,0.0,1.0\n1,1.0"
        p = load_problem([a, a], "grid-csv", weights=[0.25, 0.75])
        assert p.weights == (0.25, 0.75)


class TestGridSpec:
    def test_point_cell_roundtrip(self):
        g = GridSpec(dim=2, side=4, origin=(1.0, -1.0), step=0.5)
        for cell in [(1, 1), (4, 4), (2, 3)]:
            assert g.cell(g.point(cell)) == cell

    def test_off_lattice_rejected(self):
        g = GridSpec(dim=1, side=4, origin=(0.0,), step=1.0)
        with pytest.raises(InvariantError):
            g.cell((0.5,))
