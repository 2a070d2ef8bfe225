"""Self-tests of the benchmark's correctness gate and tracer.

    python3 -m pytest -q perfbench

A wrong objective, a corrupted solution file or a model of the wrong size
must each count as a failed op.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from barylp import cli  # noqa: E402


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "gp.json"
    code, _ = run.quiet_call(
        cli.main, ["gen", "general", "-n", "3", "-p", "3", "-d", "2", "--seed", "7", "--out", str(path)]
    )
    assert code == 0
    return path


def solve_op(instance, tmp_path, formulation="general"):
    op = run.Op("solve", formulation, instance, tmp_path / f"sol-{formulation}.json", n=3, p=3)
    op.reference = reference.reference_objective(json.loads(instance.read_text()))
    return op


def export_op(instance, tmp_path):
    return run.Op("export", "all", instance, tmp_path / "model", n=3, p=3)


def failed_ops(batch):
    attempted, failed, _ = run.failure_summary([batch])
    assert attempted == len(batch.problems)
    return failed


def test_right_answers_pass(instance, tmp_path):
    ops = [solve_op(instance, tmp_path, f) for f in ("general", "hybrid", "reduced")]
    ops.append(export_op(instance, tmp_path))
    batch = run.run_batch(cli, ops)
    assert batch.problems == [[], [], [], []]
    assert failed_ops(batch) == 0


def test_perturbed_reference_fails(instance, tmp_path):
    op = solve_op(instance, tmp_path)
    op.reference += 1e-6
    batch = run.run_batch(cli, [op])
    assert failed_ops(batch) == 1
    assert any("from reference" in p for p in batch.problems[0])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc.update(objective=doc["objective"] + 1e-7),
        lambda doc: doc.update(status="iteration-limit"),
        lambda doc: doc["verification"].update({"sparsity": False}),
        lambda doc: doc["verification"].pop("non-mass-splitting"),
        lambda doc: doc.update(cost=None),
    ],
)
def test_corrupted_solution_fails(instance, tmp_path, corrupt):
    op = solve_op(instance, tmp_path)
    code, _ = run.quiet_call(cli.main, op.argv)
    assert op.problems(code) == []
    doc = json.loads(op.out.read_text())
    corrupt(doc)
    op.out.write_text(json.dumps(doc))
    assert op.problems(code) != []


def test_missing_solution_and_exit_code_fail(instance, tmp_path):
    op = solve_op(instance, tmp_path)
    assert op.problems(0) != []  # never ran, so no solution file
    assert op.problems(4) == ["exit code 4"]


def test_wrong_model_size_fails(instance, tmp_path):
    op = export_op(instance, tmp_path)
    code, _ = run.quiet_call(cli.main, op.argv)
    assert op.problems(code) == []
    path = op.outputs[0]
    lines = path.read_text().splitlines(keepends=True)
    first_column = lines.index("COLUMNS\n") + 1
    name = lines[first_column].split()[0]
    path.write_text("".join(l for l in lines if l.split()[:1] != [name]))
    assert any("closed form" in p for p in op.problems(code))


def sizes_table(n, p):
    """(rows, columns) per formulation from ``barylp sizes --regime general``."""
    code, out = run.quiet_call(cli.main, ["sizes", "--regime", "general", "-n", str(n), "-p", str(p)])
    assert code == 0
    table = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] in gate.EXPORT_FORMULATIONS:
            table[fields[0]] = (int(fields[2]), int(fields[1]))
    return table


@pytest.mark.parametrize("n,p", [(3, 10), (4, 6), (4, 12), (5, 7), (6, 5)])
def test_closed_form_sizes_match_sizes_table(n, p):
    table = sizes_table(n, p)
    assert set(table) == set(gate.EXPORT_FORMULATIONS)
    for formulation, size in table.items():
        assert gate.closed_form_size(formulation, n, p) == size


@pytest.mark.parametrize("n,p", [(2, 5), (4, 2)])
def test_closed_form_sizes_match_exported_models(n, p, tmp_path):
    path = tmp_path / "gp.json"
    code, _ = run.quiet_call(
        cli.main, ["gen", "general", "-n", str(n), "-p", str(p), "-d", "2", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    op = run.Op("export", "all", path, tmp_path / "model", n=n, p=p)
    code, _ = run.quiet_call(cli.main, op.argv)
    for formulation, model in zip(gate.EXPORT_FORMULATIONS, op.outputs):
        assert gate.mps_size(str(model)) == gate.closed_form_size(formulation, n, p)


def test_tracer_covers_every_layer_and_restores(instance, tmp_path):
    import barylp.solver

    original_solve = barylp.solver.solve
    ops = [solve_op(instance, tmp_path, "hybrid"), export_op(instance, tmp_path)]
    plain = run.run_batch(cli, ops)
    tracer = tracing.Tracer()
    found = tracer.install()
    try:
        assert cli.solve is not original_solve
        traced = run.run_batch(cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert cli.solve is original_solve and barylp.solver.solve is original_solve
    assert "barylp.cli.detect_grid" in found and "barylp.solver.export_mps" in found
    assert traced.digests == plain.digests
    assert traced.problems == [[], []]
    assert {s.layer for s in traced.spans} == set(tracing.LAYERS)
    metrics = tracing.summarize(traced.spans, traced.wall_s)
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(sum(traced.op_s), rel=0.05)
    assert metrics["support.combinations"][0] == 2 * 27
    assert metrics["solver.export_mb"][0] > 0


def test_changed_stdout_fails():
    batches = [run.Batch(1.0, digests=["a", "b"], problems=[[], []]) for _ in range(2)]
    batches[1].digests[1] = "c"
    run.mark_unstable(batches, batches[0].digests)
    assert run.failure_summary(batches)[1] == 1


def test_last_batch_stops_at_deadline(instance, tmp_path):
    ops = [solve_op(instance, tmp_path), export_op(instance, tmp_path)]
    batch = run.run_batch(cli, ops, deadline=0.0)
    assert batch.op_s == [] and batch.problems == []
    full = run.Batch(1.0, op_s=[1.0, 2.0])
    part = run.Batch(0.5, op_s=[3.0])
    assert run.repeats([full, part], ops) == [[1.0, 3.0], [2.0]]
    assert run.whole([full, part], ops) == [full]
