"""End-to-end CLI behavior: commands, exit codes, reproducibility."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import barylp
from barylp import cli
from barylp.cli import main


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def forced_path(tmp_path):
    return write_problem(
        tmp_path,
        {
            "measures": [
                {"points": [[0.0]], "masses": [1.0]},
                {"points": [[1.0]], "masses": [1.0]},
            ]
        },
    )


@pytest.fixture
def small_path(tmp_path):
    return write_problem(
        tmp_path,
        {
            "measures": [
                {"points": [[0.0], [2.0]], "masses": [0.3, 0.7]},
                {"points": [[0.5], [1.5]], "masses": [0.5, 0.5]},
            ]
        },
        name="small.json",
    )


@pytest.fixture
def gp552_path(tmp_path):
    """gp(5,5,2): original and reduced have 15650 rows, a 1.96 GB dense
    basis, which the simplex refuses as too large."""
    path = str(tmp_path / "gp552.json")
    argv = ["gen", "general", "-n", "5", "-p", "5", "-d", "2", "--seed", "3"]
    assert main([*argv, "--out", path]) == 0
    return path


# `solve --formulation all` stdout on three seeded instances, byte for byte
# the `gen` arguments of the instances whose outputs are pinned
PINNED_GEN_ARGS = (
    ["general", "-n", "3", "-p", "3"],
    ["grid", "-n", "2", "-K", "3", "--density", "0.6"],
    ["mixed", "-n", "3", "-K", "2", "--extra", "1"],
)

GP_STDOUT = """\
measures: n=3 sizes=[3, 3, 3] d=2
combinations |S*|: 27
candidates |S|: 27 (regime exact)
formulation: original
  model: 270 vars, 90 rows, 567 nonzeros
  status: optimal
  objective: 0.10906656
  support size: 7 (sparsity bound 7)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: reduced
  model: 108 vars, 90 rows, 243 nonzeros
  status: optimal
  objective: 0.10906656
  support size: 7 (sparsity bound 7)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: general
  model: 27 vars, 9 rows, 81 nonzeros
  status: optimal
  objective: 0.10906656
  support size: 7 (sparsity bound 7)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: hybrid
  model: 27 vars, 9 rows, 81 nonzeros
  status: optimal
  objective: 0.10906656
  support size: 7 (sparsity bound 7)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
"""

GRID_STDOUT = """\
measures: n=2 sizes=[4, 7] d=2
combinations |S*|: 28
candidates |S|: 20 (regime grid)
formulation: original
  model: 240 vars, 51 rows, 480 nonzeros
  status: optimal
  objective: 0.3674014404
  support size: 10 (sparsity bound 10)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: reduced
  model: 76 vars, 51 rows, 152 nonzeros
  status: optimal
  objective: 0.3674014404
  support size: 10 (sparsity bound 10)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: general
  model: 28 vars, 11 rows, 56 nonzeros
  status: optimal
  objective: 0.3674014404
  support size: 10 (sparsity bound 10)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: hybrid
  model: 28 vars, 11 rows, 56 nonzeros
  status: optimal
  objective: 0.3674014404
  support size: 10 (sparsity bound 10)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
"""

MIXED_STDOUT = """\
measures: n=3 sizes=[5, 5, 5] d=2
combinations |S*|: 125
candidates |S|: 56 (regime exact)
formulation: original
  model: 896 vars, 183 rows, 1848 nonzeros
  status: optimal
  objective: 12.66950907
  support size: 13 (sparsity bound 13)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: reduced
  model: 326 vars, 183 rows, 708 nonzeros
  status: optimal
  objective: 12.66950907
  support size: 13 (sparsity bound 13)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: general
  model: 125 vars, 15 rows, 375 nonzeros
  status: optimal
  objective: 12.66950907
  support size: 13 (sparsity bound 13)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
formulation: hybrid
  model: 125 vars, 15 rows, 375 nonzeros
  status: optimal
  objective: 12.66950907
  support size: 13 (sparsity bound 13)
  checks: total-mass OK; marginals OK; cost OK; sparsity OK; non-mass-splitting OK
"""


class TestSolve:
    def test_forced_general(self, forced_path, capsys):
        assert main(["solve", "--formulation", "general", forced_path]) == 0
        out = capsys.readouterr().out
        assert "objective: 0.25" in out
        assert "status: optimal" in out

    def test_all_formulations_agree(self, small_path, capsys):
        assert main(["solve", "--formulation", "all", small_path]) == 0
        out = capsys.readouterr().out
        objectives = [
            float(line.split(":")[1]) for line in out.splitlines() if "objective" in line
        ]
        assert len(objectives) == 4
        assert max(objectives) - min(objectives) <= 1e-8

    def test_blowup_exit_code(self, small_path, capsys):
        assert main(["solve", "--cap", "2", small_path]) == 3
        assert "combination blowup" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("fmt", ["json", "grid-csv"])
    def test_missing_input_reports_the_os_error(self, tmp_path, capsys, fmt):
        # a missing path used to be parsed as literal content
        missing = str(tmp_path / "missing")
        assert main(["solve", "--format", fmt, missing]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and missing in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_coordinate_exit_code(self, tmp_path, capsys, literal):
        # NaN used to end in a traceback, Infinity in exit 4
        path = tmp_path / "non-finite.json"
        path.write_text(
            '{"measures": [{"points": [[0.0], [%s]], "masses": [0.5, 0.5]},'
            ' {"points": [[1.0]], "masses": [1.0]}]}' % literal
        )
        assert main(["solve", str(path)]) == 2
        assert "non-finite coordinate" in capsys.readouterr().err

    def test_non_utf8_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"measures": "\u00e9"}'.encode("latin-1"))
        assert main(["solve", str(bad)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare", "export"])
    @pytest.mark.parametrize("flag", [["--regime", "exact"], ["--tol", "1e-9"]])
    def test_no_atlas_or_tolerance_flags(self, small_path, capsys, command, flag):
        # the data choose the atlas and the dedup tolerance is a constant
        with pytest.raises(SystemExit) as exc:
            main([command, *flag, small_path])
        assert exc.value.code == 2

    def test_solution_written(self, forced_path, tmp_path, capsys):
        out_path = tmp_path / "solution.json"
        assert main(
            ["solve", "--formulation", "general", "--out", str(out_path), forced_path]
        ) == 0
        # one line: json's C encoder, which an indent would bypass
        assert "\n" not in out_path.read_text()
        doc = json.loads(out_path.read_text())
        assert doc["objective"] == pytest.approx(0.25)
        assert doc["support"] == [{"point": [0.5], "mass": 1.0}]

    def test_all_writes_one_solution_per_formulation(self, small_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", "--formulation", "all", "--out", str(out), small_path]) == 0
        for name in ("original", "reduced", "general", "hybrid"):
            doc = json.loads((tmp_path / f"sol-{name}.json").read_text())
            assert doc["status"] == "optimal"

    def test_reproducible_stdout(self, small_path, capsys):
        main(["solve", "--formulation", "all", small_path])
        first = capsys.readouterr().out
        main(["solve", "--formulation", "all", small_path])
        second = capsys.readouterr().out
        assert first == second

    def test_pinned_stdout(self, tmp_path, capsys):
        for gen_args, expected in zip(PINNED_GEN_ARGS, (GP_STDOUT, GRID_STDOUT, MIXED_STDOUT)):
            path = str(tmp_path / f"{gen_args[0]}.json")
            assert main(["gen", *gen_args, "--seed", "0", "--out", path]) == 0
            capsys.readouterr()
            assert main(["solve", "--formulation", "all", path]) == 0
            assert capsys.readouterr().out == expected, gen_args[0]

    def test_pinned_solution_files(self, tmp_path, capsys):
        # support, transport and checks of every formulation's --out file,
        # floats at 12 significant digits so BLAS builds do not flip them
        def rounded(value):
            if isinstance(value, float):
                return float(f"{value:.12g}")
            if isinstance(value, list):
                return [rounded(v) for v in value]
            if isinstance(value, dict):
                return {key: rounded(v) for key, v in value.items()}
            return value

        docs = []
        for gen_args in PINNED_GEN_ARGS:
            path = str(tmp_path / f"{gen_args[0]}.json")
            out = str(tmp_path / f"{gen_args[0]}-solution.json")
            assert main(["gen", *gen_args, "--seed", "0", "--out", path]) == 0
            assert main(["solve", "--formulation", "all", "--out", out, path]) == 0
            for name in cli.FORMULATIONS:
                doc = json.loads(Path(cli._suffixed(out, name)).read_text())
                docs.append({key: doc[key] for key in ("support", "transport", "verification")})
        digest = hashlib.sha256(json.dumps(rounded(docs), sort_keys=True).encode()).hexdigest()
        assert digest == "d65d43ee7307b55a6c64893d762f3f54d38f1540c737201cb3c9a81ee4ab50aa"

    def test_grid_csv_input(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("2,1,0.0,1.0\n1,0.5\n2,0.5\n")
        b.write_text("2,1,0.0,1.0\n1,0.5\n2,0.5\n")
        assert main(
            ["solve", "--format", "grid-csv", "--formulation", "reduced", str(a), str(b)]
        ) == 0
        out = capsys.readouterr().out
        assert "regime grid" in out
        assert "objective: 0" in out

    def test_auto_regime_skips_uneconomical_lattice(self, tmp_path, capsys):
        # sparse points on a very fine lattice: the refined grid would dwarf
        # the combination stream, so auto falls back to the exact regime
        path = write_problem(
            tmp_path,
            {
                "measures": [
                    {"points": [[0.0], [512.0]], "masses": [0.5, 0.5]},
                    {"points": [[1.0], [256.0]], "masses": [0.5, 0.5]},
                ]
            },
        )
        assert main(["solve", "--formulation", "general", path]) == 0
        captured = capsys.readouterr()
        assert "regime exact" in captured.out
        assert "finer than the combination stream" in captured.err

    def test_sparse_raster_pipeline(self, tmp_path, capsys):
        # digit-style input: two sparse 8x8 rasters of 20 cells each; their
        # 400 combinations outnumber the 225 points of the refined lattice,
        # so the grid regime is chosen
        import numpy as np

        rng = np.random.default_rng(5)
        paths = []
        for i in range(2):
            cells = sorted(divmod(int(c), 8) for c in rng.choice(64, 20, replace=False))
            masses = rng.uniform(0.1, 1.0, len(cells))
            masses /= masses.sum()
            lines = ["8,2,0.0,0.0,1.0"] + [
                f"{a + 1},{b + 1},{m:.17g}" for (a, b), m in zip(cells, masses)
            ]
            path = tmp_path / f"digit{i}.csv"
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        assert main(["solve", "--format", "grid-csv", "--formulation", "reduced", *paths]) == 0
        out = capsys.readouterr().out
        assert "regime grid" in out
        assert "status: optimal" in out
        assert "non-mass-splitting OK" in out

    def test_transportation_requires_two_measures(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "measures": [
                    {"points": [[0.0]], "masses": [1.0]},
                    {"points": [[1.0]], "masses": [1.0]},
                    {"points": [[2.0]], "masses": [1.0]},
                ]
            },
        )
        assert main(["solve", "--formulation", "transportation", path]) == 2

    @pytest.mark.parametrize("command", ["solve", "compare", "export"])
    @pytest.mark.parametrize("formulation", ["general", "transportation"])
    def test_atlas_free_formulations_build_no_atlas(
        self, small_path, tmp_path, capsys, monkeypatch, command, formulation
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the atlas was built")

        monkeypatch.setattr(cli, "build_atlas_exact", refuse)
        monkeypatch.setattr(cli, "build_atlas_grid", refuse)
        out = str(tmp_path / "model")
        assert main([command, "--formulation", formulation, "--out", out, small_path]) == 0
        text = capsys.readouterr().out
        if command != "export":
            assert "|S*|" in text and "not built" in text
            assert "regime exact" in text or "regime=exact" in text

    def test_general_blowup_exit_code(self, small_path, capsys):
        assert main(["solve", "--formulation", "general", "--cap", "2", small_path]) == 3
        assert "combination blowup" in capsys.readouterr().err

    def test_too_large_basis_exit_code(self, gp552_path, capsys):
        # the dense basis used to end in a MemoryError traceback or an
        # out-of-memory kill
        start = time.perf_counter()
        assert main(["solve", gp552_path]) == 4
        assert time.perf_counter() - start < 10.0
        out = capsys.readouterr().out
        statuses = [line.split(": ")[1] for line in out.splitlines() if "status:" in line]
        assert statuses == ["too-large", "too-large", "optimal", "optimal"]
        assert out.count("15650 rows") == 2


def test_readme_flags_match_the_parsers():
    # every --flag of the README's "Flags:" paragraph exists in the solve or
    # gen parser, and every flag of those parsers is documented there
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Flags:"):].split("\n\n")[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        flag
        for command in ("solve", "gen")
        for action in subparsers.choices[command]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == parsed


def test_cli_import_leaves_out_heavy_scipy_modules():
    # importing these adds about 2 MB (scipy.sparse.linalg), 16 MB
    # (scipy.optimize) and 43 MB (scipy.signal) of resident memory to every
    # run; the grid atlas convolves with numpy instead
    heavy = ("scipy.sparse.linalg", "scipy.optimize", "scipy.signal", "scipy.ndimage")
    code = f"import sys, barylp.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(barylp.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


# arguments out of range, each refused with exit 2 before any work or
# file; the render cases read a solution file the test writes first
OUT_OF_RANGE_ARGS = (
    ["gen", "general", "-n", "1"],
    ["gen", "general", "-p", "0"],
    ["gen", "general", "-d", "0"],
    ["gen", "grid", "-K", "0"],
    ["gen", "mixed", "--extra", "-1"],
    ["sizes", "--regime", "general", "-n", "3", "-p", "0"],
    ["sizes", "--regime", "general", "-n", "0", "-p", "3"],
    ["render", "--step", "0"],
    ["render", "--step", "-1"],
)


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGS, ids=" ".join)
def test_arguments_out_of_range_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "render":
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"support": [{"point": [0.0, 1.0], "mass": 1.0}]}))
        argv = [*argv, str(solution)]
    if argv[0] != "sizes":
        argv = [*argv, "--out", str(out)]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == before


class TestGen:
    def test_general_then_solve(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(
            ["gen", "general", "-n", "2", "-p", "2", "-d", "1", "--seed", "3", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["solve", "--formulation", "all", str(out)]) == 0

    def test_grid_detected_as_lattice(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(
            ["gen", "grid", "-n", "2", "-K", "3", "-d", "1", "--seed", "1", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["solve", "--formulation", "reduced", str(out)]) == 0
        assert "regime grid" in capsys.readouterr().out

    def test_mixed_shape(self, tmp_path, capsys):
        out = tmp_path / "mixed.json"
        assert main(
            ["gen", "mixed", "-n", "3", "-K", "2", "--extra", "1", "--seed", "2", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert len(doc["measures"]) == 3
        assert all(len(m["points"]) == 5 for m in doc["measures"])

    def test_mixed_declares_no_lattice(self):
        # its extra points lie off the K x K grid, so no lattice holds them all
        assert cli.detect_grid(barylp.generators.mixed(3, 2, 1)) is None

    def test_stdout_output(self, capsys):
        assert main(["gen", "general", "-n", "2", "-p", "2", "-d", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["measures"]) == 2


class TestSizes:
    def test_headline_reduction_at_256(self, capsys):
        assert main(["sizes", "--regime", "general", "-n", "4", "-p", "256"]) == 0
        out = capsys.readouterr().out
        assert "large-n limit 99.6094%" in out
        assert "reduction reduced->general: 80.0000%" in out

    def test_compare_pair(self, capsys):
        assert main(
            ["sizes", "--regime", "general", "-n", "4", "-p", "256",
             "--compare", "reduced", "general"]
        ) == 0
        assert "80.0000%" in capsys.readouterr().out

    def test_grid_original_row(self, capsys):
        assert main(
            ["sizes", "--regime", "grid", "-n", "4", "-K", "4", "-d", "2",
             "--formulation", "original"]
        ) == 0
        out = capsys.readouterr().out
        assert "10985" in out and "740" in out

    def test_unsupported_grid_closed_form(self, capsys):
        assert main(
            ["sizes", "--regime", "grid", "-n", "4", "-K", "4", "-d", "2",
             "--formulation", "reduced"]
        ) == 2


class TestCompare:
    def test_general_position_general_equals_hybrid(self, small_path, capsys):
        assert main(["compare", small_path]) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: line.split()[1:4]
            for line in out.splitlines()
            if line.split() and line.split()[0] in ("original", "reduced", "general", "hybrid")
        }
        assert rows["general"] == rows["hybrid"]
        assert "objective agreement: OK" in out

    def test_grid_reduced_smaller_than_original(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        main(["gen", "grid", "-n", "3", "-K", "3", "-d", "2", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out)]) == 0
        text = capsys.readouterr().out
        cols = {}
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in ("original", "reduced", "general", "hybrid"):
                cols[parts[0]] = int(parts[2])
        assert cols["reduced"] < cols["original"]

    def test_transportation_alias_matches_general(self, tmp_path, capsys):
        path = str(tmp_path / "two.json")
        main(["gen", "general", "-n", "2", "-p", "4", "--seed", "3", "--out", path])
        capsys.readouterr()
        rows = {}
        for name in ("transportation", "general"):
            assert main(["compare", "--formulation", name, path]) == 0
            out = capsys.readouterr().out
            rows[name] = next(
                line.split()[1:] for line in out.splitlines() if line.startswith(name)
            )
        # rows, columns, nonzeros and objective
        assert rows["transportation"] == rows["general"]

    def test_mixed_hybrid_has_fewest_columns(self, tmp_path, capsys):
        out = tmp_path / "mixed.json"
        main(["gen", "mixed", "-n", "3", "-K", "3", "--extra", "1", "--seed", "7", "--out", str(out)])
        capsys.readouterr()
        assert main(["compare", str(out)]) == 0
        text = capsys.readouterr().out
        cols = {}
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in ("original", "reduced", "general", "hybrid"):
                cols[parts[0]] = int(parts[2])
        assert cols["hybrid"] < min(cols["reduced"], cols["general"], cols["original"])


    def test_unsolved_formulation_keeps_the_other_rows(self, gp552_path, capsys):
        capsys.readouterr()
        assert main(["compare", gp552_path]) == 4
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line.split() and line.split()[0] in ("original", "reduced", "general", "hybrid")
        }
        assert list(rows) == ["original", "reduced", "general", "hybrid"]
        assert rows["original"] == ["15650", "81250", "171875", "too-large"]
        assert rows["reduced"][0] == "15650" and rows["reduced"][-1] == "too-large"
        assert rows["general"] == rows["hybrid"]
        # the spread covers only the two formulations that solved
        assert "objective agreement: OK" in out


class TestExport:
    def test_transportation_row_count(self, small_path, tmp_path, capsys):
        prefix = str(tmp_path / "model")
        assert main(
            ["export", "--formulation", "transportation", "--out", prefix, small_path]
        ) == 0
        text = (tmp_path / "model-transportation.mps").read_text()
        rows = [ln for ln in text.splitlines() if ln.startswith(" E")]
        assert len(rows) == 4  # n * p = 2 * 2

    def test_all_formulations_write_four_files(self, small_path, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        assert main(["export", "--formulation", "all", "--out", prefix, small_path]) == 0
        for name in ("original", "reduced", "general", "hybrid"):
            assert (tmp_path / f"out-{name}.mps").exists()

    def test_transportation_needs_two_measures(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            {
                "measures": [
                    {"points": [[0.0]], "masses": [1.0]},
                    {"points": [[1.0]], "masses": [1.0]},
                    {"points": [[2.0]], "masses": [1.0]},
                ]
            },
        )
        assert main(["export", "--formulation", "transportation", path]) == 2
        assert "n=2" in capsys.readouterr().err


class TestRender:
    def solve_to_json(self, tmp_path, doc, capsys):
        src = write_problem(tmp_path, doc, name="render-problem.json")
        out = tmp_path / "sol.json"
        code = main(["solve", "--formulation", "general", "--out", str(out), src])
        capsys.readouterr()
        assert code == 0
        return out

    def test_single_point_single_cell(self, tmp_path, capsys):
        sol = self.solve_to_json(
            tmp_path,
            {
                "measures": [
                    {"points": [[0.0, 0.0]], "masses": [1.0]},
                    {"points": [[1.0, 1.0]], "masses": [1.0]},
                ]
            },
            capsys,
        )
        prefix = str(tmp_path / "img")
        assert main(["render", str(sol), "--out", prefix]) == 0
        pgm = (tmp_path / "img.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        cells = " ".join(pgm[3:]).split()
        assert sum(1 for c in cells if c != "0") == 1

    def test_nonzero_cells_match_support(self, tmp_path, capsys):
        gen_out = tmp_path / "mixed.json"
        main(["gen", "mixed", "-n", "3", "-K", "2", "--extra", "1", "--seed", "9", "--out", str(gen_out)])
        sol_out = tmp_path / "sol.json"
        assert main(
            ["solve", "--formulation", "general", "--out", str(sol_out), str(gen_out)]
        ) == 0
        capsys.readouterr()
        prefix = str(tmp_path / "img")
        assert main(["render", str(sol_out), "--out", prefix]) == 0
        support_size = len(json.loads(sol_out.read_text())["support"])
        pgm = (tmp_path / "img.pgm").read_text().splitlines()
        cells = " ".join(pgm[3:]).split()
        assert sum(1 for c in cells if c != "0") == support_size
        csv_rows = (tmp_path / "img.csv").read_text().splitlines()[1:]
        assert len(csv_rows) == support_size

    def test_refuses_non_planar(self, tmp_path, capsys):
        sol = self.solve_to_json(
            tmp_path,
            {
                "measures": [
                    {"points": [[0.0, 0.0, 0.0]], "masses": [1.0]},
                    {"points": [[1.0, 1.0, 1.0]], "masses": [1.0]},
                ]
            },
            capsys,
        )
        assert main(["render", str(sol)]) == 2
        assert "2-dimensional" in capsys.readouterr().err
