"""End-to-end benchmark of the barylp command-line interface.

    python3 perfbench/run.py --workload gp-fixed --seed 1 --seconds 50 --trace 0

Run from the root of a checkout that holds ``src/barylp``; the program is
imported from there and nowhere else.  Set-up generates the workload's
instances from ``--seed`` with ``barylp gen``, computes reference
objectives in a child process (``reference.py``) and runs one untimed
warm-up op.  Then one closed-loop client calls ``barylp.cli.main(argv)``
in-process on the workload's fixed batch of ops, batch after batch, for
``--seconds``; the last batch stops at the deadline, part-way if need be.
Every op is checked by ``gate.py`` and its stdout digest must repeat
across batches.  An op's time is the slowest of its repeats.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with ``tracing.py`` patched in, and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is
the result JSON; the line before it is a report with the environment, op
counts and any failures, also written under ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# One BLAS thread.  With two OpenBLAS threads on a 2-core machine, the dense
# simplex on m = 170-360 rows ran 3-20x slower than with one and varied widely
# from run to run.  Must be set before numpy is imported.  barylp itself runs
# with whatever the environment gives, so blas_probe.py times one op at that
# thread count and the report shows the gap the pin hides.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
INHERITED_BLAS = {var: os.environ.get(var) for var in BLAS_VARS}
for var in BLAS_VARS:
    os.environ[var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "workloads.json").read_text())

SETUP_REPEATS = 3
REFERENCE_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 60


@dataclass
class Op:
    """One CLI invocation: ``<kind> --formulation F --out OUT INSTANCE``."""

    kind: str  # "solve" or "export"
    formulation: str
    instance: Path
    out: Path  # the solution file, or the prefix of the exported MPS files
    n: int
    p: int | None
    reference: float | None = None
    argv: list[str] = field(init=False)

    def __post_init__(self):
        self.argv = [self.kind, "--formulation", self.formulation,
                     "--out", str(self.out), str(self.instance)]

    @property
    def outputs(self) -> list[Path]:
        if self.kind == "solve":
            return [self.out]
        return [Path(f"{self.out}-{f}.mps") for f in gate.EXPORT_FORMULATIONS]

    def problems(self, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if self.kind == "solve":
            return gate.check_solution(str(self.out), self.reference)
        return gate.check_export(str(self.out), self.n, self.p)


@dataclass
class Batch:
    wall_s: float
    op_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    spans: list = field(default_factory=list)


def import_program():
    """Import barylp from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "barylp" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src}/barylp not found; run from a barylp checkout")
    sys.path.insert(0, str(src))
    import barylp.cli

    if src.resolve() not in Path(barylp.__file__).resolve().parents:
        sys.exit(f"perfbench: imported barylp from {barylp.__file__}, not {src}")
    return barylp.cli


def quiet_call(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        result = fn(*args)
    return result, out.getvalue()


def generate(cli, workload: dict, seed: int, work: Path) -> list[Op]:
    """Write the workload's instances with ``barylp gen``; return its ops."""
    kind = {"general_position": "general", "grid": "grid"}[workload["generator"]]
    ops = []
    index = 0
    for shape in workload["instances"]:
        for _ in range(shape["count"]):
            path = work / f"instance{index}.json"
            argv = ["gen", kind, "-n", str(shape["n"]), "-d", str(workload["d"]),
                    "--seed", str(1000 * seed + index), "--out", str(path)]
            if kind == "general":
                argv += ["-p", str(shape["p"])]
            else:
                argv += ["-K", str(shape["K"]), "--density", str(shape["density"])]
            code, _ = quiet_call(cli.main, argv)
            if code != 0:
                sys.exit(f"perfbench: barylp {' '.join(argv)} exited {code}")
            for spec in workload["ops"]:
                out = work / f"instance{index}-{spec['formulation']}"
                if spec["command"] == "solve":
                    out = out.with_suffix(".json")
                ops.append(Op(spec["command"], spec["formulation"], path, out,
                              shape["n"], shape.get("p")))
            index += 1
    return ops


def reference_objectives(paths: list[str]) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), *paths],
        capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: reference.py failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def set_up(cli, workload: dict, seed: int, work: Path) -> tuple[float, list[Op]]:
    """Generate instances, compute references, warm up; returns (seconds, ops)."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = generate(cli, workload, seed, work)
    solve_inputs = sorted({str(op.instance) for op in ops if op.kind == "solve"})
    if solve_inputs:
        refs = reference_objectives(solve_inputs)
        for op in ops:
            if op.kind == "solve":
                op.reference = refs[str(op.instance)]
    quiet_call(cli.main, ops[0].argv)  # warm-up, untimed and unchecked
    return time.perf_counter() - start, ops


def run_batch(cli, ops: list[Op], tracer=None, batch_no: int = 0, deadline=None) -> Batch:
    """Run the ops in order; with a deadline, start none after it."""
    for op in ops:
        for path in op.outputs:
            path.unlink(missing_ok=True)
    first_span = len(tracer.spans) if tracer else 0
    codes = []
    batch = Batch(wall_s=0.0)
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code, stdout = quiet_call(cli.main, op.argv)
            else:
                code, stdout = quiet_call(tracer.op, f"{batch_no}.{i}", cli.main, op.argv)
        except Exception as exc:  # a crash fails the op, not the benchmark
            code, stdout = f"crash {exc!r}", ""
        batch.op_s.append(time.perf_counter() - t0)
        codes.append(code)
        batch.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
    batch.wall_s = time.perf_counter() - start
    if tracer is not None:
        batch.spans = tracer.spans[first_span:]
    batch.problems = [op.problems(code) for op, code in zip(ops, codes)]
    return batch


def measure(cli, ops, seconds: float, min_repeats: int, tracer=None, first_no: int = 0):
    """min_repeats whole batches, then batches until ``seconds`` have passed;
    the last of those may stop part-way."""
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < min_repeats or time.perf_counter() < deadline:
        late = deadline if len(batches) >= min_repeats else None
        batches.append(run_batch(cli, ops, tracer, first_no + len(batches), late))
    return batches


def whole(batches: list[Batch], ops: list[Op]) -> list[Batch]:
    return [b for b in batches if len(b.op_s) == len(ops)]


def mark_unstable(batches: list[Batch], expected: list[str]) -> None:
    """Fail every op whose stdout digest differs from the expected one."""
    for batch in batches:
        for i, digest in enumerate(batch.digests):
            if digest != expected[i]:
                batch.problems[i].append("stdout differs from the first batch")


def repeats(batches: list[Batch], ops: list[Op]) -> list[list[float]]:
    """Each op's times over the batches, in op order."""
    return [[b.op_s[i] for b in batches if i < len(b.op_s)] for i in range(len(ops))]


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():  # a plain source tree; keep git from searching parent directories
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git installed
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_probe(op: Op, pinned_s: float) -> dict:
    """Seconds per call of ``op`` in a child process at the BLAS thread count
    the environment gives barylp, against ``pinned_s`` measured here."""
    env = dict(os.environ)
    for var, value in INHERITED_BLAS.items():
        if value is None:
            env.pop(var)
        else:
            env[var] = value
    probe = {"argv": op.argv, "pinned_s": pinned_s}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "blas_probe.py"), *op.argv],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        probe["default_s"] = f"over {PROBE_TIMEOUT_S} s"
        return probe
    if proc.returncode != 0:
        probe["default_s"] = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return probe
    probe["default_s"] = float(proc.stdout)
    probe["default_over_pinned"] = probe["default_s"] / pinned_s
    return probe


def environment(ops_per_batch: int) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "openblas_threads": min(BLAS_THREADS, nproc),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "ops_per_batch": ops_per_batch,
    }


def failure_summary(batches: list[Batch]) -> tuple[int, int, list[str]]:
    attempted = sum(len(b.problems) for b in batches)
    failed = sum(1 for b in batches for p in b.problems if p)
    messages = [
        f"batch {n} op {i}: {'; '.join(p)}"
        for n, b in enumerate(batches) for i, p in enumerate(b.problems) if p
    ]
    return attempted, failed, messages[:5]


def run(cli, args, name: str, workload: dict, import_s: float, work: Path) -> tuple[dict, dict]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, ops = set_up(cli, workload, args.seed, work)
        setup_times.append(seconds)
    setup_s = import_s + statistics.median(setup_times)
    min_repeats = workload["min_repeats"]
    report = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": SPEC["loop"],
        "environment": environment(len(ops)),
        "setup": {"import_s": import_s, "repeats_s": setup_times},
    }

    if not args.trace:
        batches = measure(cli, ops, args.seconds, min_repeats)
        mark_unstable(batches, batches[0].digests)
        times = repeats(batches, ops)
        # An op's time is its slowest repeat.  A shared 2-vCPU virtual
        # machine ran this allocation-heavy Python at two speeds about 1.5x
        # apart, switching every few seconds to minutes.  A median or mean of
        # repeats follows the share of the run spent at each speed; the
        # slowest repeat reads the slow speed whenever the run meets it once,
        # and had the smallest worst-case spread between runs (README.md).
        op_s = [max(t) for t in times]
        metrics = {
            "wall_s": (sum(op_s), "s"),
            "op_s_p50": (statistics.median(op_s), "s"),
            "op_s_tail": (max(op_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
        report.update({
            "batches": len(batches),
            "ops_timed": sum(map(len, times)),
            "repeats_per_op": [min(map(len, times)), max(map(len, times))],
            "op_s": op_s,
            "op_repeats_s": times,
            "whole_batch_wall_s": [b.wall_s for b in whole(batches, ops)],
        })
        solves = [i for i, op in enumerate(ops) if op.kind == "solve"]
        if solves:
            pinned_s = statistics.median(times[solves[0]])
            report["blas_threads_probe"] = blas_probe(ops[solves[0]], pinned_s)
    else:
        untraced = measure(cli, ops, args.seconds / 2.0, 2)
        tracer = tracing.Tracer()
        report["traced_functions"] = tracer.install()
        try:
            traced = measure(cli, ops, args.seconds / 2.0, 2, tracer, first_no=len(untraced))
        finally:
            tracer.uninstall()
        batches = untraced + traced
        mark_unstable(batches, untraced[0].digests)
        untraced_wall = statistics.median(b.wall_s for b in whole(untraced, ops))
        traced_wall = statistics.median(b.wall_s for b in whole(traced, ops))
        per_batch = [tracing.summarize(b.spans, b.wall_s) for b in whole(traced, ops)]
        metrics = {}
        for key, (_, unit) in per_batch[0].items():
            value = statistics.median(m[key][0] for m in per_batch)
            metrics[key] = (int(value) if unit == "count" else value, unit)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - untraced_wall) / untraced_wall, "%")
        spans_file = WORK / f"spans-{name}-seed{args.seed}.jsonl"
        with open(spans_file, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
        report.update({
            "batches": {"untraced": len(untraced), "traced": len(traced)},
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "spans_file": str(spans_file.relative_to(ROOT)),
        })

    attempted, failed, messages = failure_summary(batches)
    report.update({
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_frac": failed / attempted,
        "failures": messages,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    cli = import_program()
    import_s = time.perf_counter() - start
    workload = SPEC["workloads"][args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        report, result = run(cli, args, args.workload, workload, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1)
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
