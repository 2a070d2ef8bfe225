"""Command-line front end: solve, sizes, compare, export, render, gen.

The data choose the candidate atlas; no flag does.  ``solve``, ``compare``
and ``export`` build the grid atlas when the measures share a lattice,
declared by grid-csv input or detected, with uniform weights, and its
refined lattice is no larger than the combination stream; otherwise they
enumerate the combinations (the exact regime).  On lattice data both give
the same atlas.

Summaries go to stdout and are byte-reproducible for fixed inputs and
flags; wall-clock timings go to stderr.  Exit codes: 0 success, 2 input or
configuration error, 3 combination blowup, 4 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import generators
from .measures import (
    GridSpec,
    InvariantError,
    ParseError,
    Problem,
    WeightError,
    load_problem,
    validate_problem,
)
from .models import (
    FormulationError,
    LpModel,
    build_general,
    build_hybrid,
    build_original,
    build_reduced,
    predict_sizes,
    variable_reduction,
)
from .solver import export_mps, extract_barycenter, solution_json, solve
from .support import (
    DEFAULT_COMBINATION_CAP,
    CombinationBlowupError,
    SupportAtlas,
    build_atlas_exact,
    build_atlas_grid,
    hybrid_split,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BLOWUP = 3
EXIT_SOLVER = 4

FORMULATIONS = ("original", "reduced", "general", "hybrid")
# the formulations that read the candidate atlas; general and
# transportation never do
ATLAS_FORMULATIONS = ("original", "reduced", "hybrid")
MAX_DETECTED_SIDE = 1024


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _float_gcd(values, tol: float) -> float:
    g = 0.0
    for v in values:
        v = abs(v)
        if v <= tol:
            continue
        if g == 0.0:
            g = v
            continue
        while v > tol:
            g, v = v, math.fmod(g, v)
        g = abs(g)
    return g


def detect_grid(problem: Problem, tol: float = 1e-9) -> GridSpec | None:
    """Best-effort common-lattice detection (exact decision is hard).

    Rationalizes coordinates against the gcd of offsets from the per-axis
    minimum; requires uniform weights, as the grid atlas does (for a
    declared lattice too), and a sane lattice side.
    """
    if not problem.has_uniform_weights():
        return None
    if problem.grid is not None:
        return problem.grid
    d = problem.dimension
    origins = []
    offsets = []
    for l in range(d):
        coords = [pt[l] for m in problem.measures for pt in m.points]
        lo = min(coords)
        origins.append(lo)
        offsets.extend(c - lo for c in coords)
    span = max(offsets) if offsets else 0.0
    if span <= 0.0:
        return None
    scaled_tol = tol * span
    step = _float_gcd(offsets, scaled_tol)
    if step <= scaled_tol:
        return None
    side = int(round(span / step)) + 1
    if side > MAX_DETECTED_SIDE:
        return None
    for off in offsets:
        ratio = off / step
        if abs(ratio - round(ratio)) > 1e-6:
            return None
        if not 0 <= round(ratio) <= side - 1:
            return None
    return GridSpec(dim=d, side=side, origin=tuple(origins), step=step)


def _lattice(problem: Problem, cap: int) -> GridSpec | None:
    """The lattice the grid regime builds on, or None for the exact regime."""
    spec = detect_grid(problem)
    if spec is None:
        print("note: no common lattice detected, using exact regime", file=sys.stderr)
        return None
    # the lattice path only pays off while the refined grid stays
    # smaller than the combination stream
    refined = (problem.n * (spec.side - 1) + 1) ** spec.dim
    if refined <= min(cap, problem.combination_total()):
        return spec
    print(
        "note: detected lattice is finer than the combination stream, "
        "using exact regime",
        file=sys.stderr,
    )
    return None


def _resolve_atlas(problem: Problem, cap: int, names) -> tuple[str, SupportAtlas | None]:
    """The atlas regime, and the atlas itself when one of the formulations
    ``names`` reads it (None otherwise)."""
    spec = _lattice(problem, cap)
    if not any(name in ATLAS_FORMULATIONS for name in names):
        atlas = None
    elif spec is None:
        atlas = build_atlas_exact(problem, cap)
    else:
        atlas = build_atlas_grid(problem, spec)
    return ("exact" if spec is None else "grid"), atlas


def _candidate_count(atlas: SupportAtlas | None) -> str:
    return "not built" if atlas is None else str(atlas.point_count)


def _build_model(
    formulation: str, problem: Problem, atlas: SupportAtlas | None, cap: int
) -> LpModel:
    if formulation == "original":
        return build_original(atlas, problem)
    if formulation == "reduced":
        return build_reduced(atlas, problem)
    if formulation in ("general", "transportation"):
        # transportation is general with n = 2 (_select_formulations checks n)
        return build_general(problem, cap)
    if formulation == "hybrid":
        return build_hybrid(atlas, hybrid_split(atlas), problem, cap)
    raise CliError(EXIT_INPUT, f"unknown formulation {formulation!r}")


def _load(fmt: str, inputs: list[str]) -> Problem:
    """Read the input files and parse them; the files are opened here, so
    a missing or unreadable one raises its ``OSError`` instead of being
    parsed as literal content."""
    if fmt == "json" and len(inputs) != 1:
        raise CliError(EXIT_INPUT, "JSON problems take exactly one input file")
    contents = []
    for path in inputs:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    if fmt == "json":
        return load_problem(contents[0], "json")
    return load_problem(contents, "grid-csv")


def _select_formulations(flag: str, problem: Problem) -> tuple[str, ...]:
    if flag == "all":
        return FORMULATIONS
    if flag == "transportation" and problem.n != 2:
        raise CliError(EXIT_INPUT, "transportation formulation requires n=2")
    return (flag,)


def _run(
    name: str, problem: Problem, atlas: SupportAtlas | None, cap: int, max_iters: int
):
    """Build and solve one formulation, timing both on stderr; extract the
    barycenter when the solve is optimal (otherwise it is None)."""
    t0 = time.perf_counter()
    model = _build_model(name, problem, atlas, cap)
    t1 = time.perf_counter()
    solution = solve(model, max_iters=max_iters)
    t2 = time.perf_counter()
    print(f"[time] {name} build {t1 - t0:.3f}s solve {t2 - t1:.3f}s", file=sys.stderr)
    if solution.status != "optimal":
        return model, solution, None
    bary = extract_barycenter(
        solution, model, problem,
        atlas=atlas if name in ATLAS_FORMULATIONS else None,
    )
    return model, solution, bary


def cmd_solve(args) -> int:
    problem = _load(args.format, args.input)
    formulations = _select_formulations(args.formulation, problem)
    regime, atlas = _resolve_atlas(problem, args.cap, formulations)

    print(f"measures: n={problem.n} sizes={list(problem.sizes)} d={problem.dimension}")
    print(f"combinations |S*|: {problem.combination_total()}")
    print(f"candidates |S|: {_candidate_count(atlas)} (regime {regime})")
    bound = sum(problem.sizes) - problem.n + 1
    failures = 0
    for name in formulations:
        model, solution, bary = _run(name, problem, atlas, args.cap, args.max_iters)
        print(f"formulation: {name}")
        print(f"  model: {model.num_vars} vars, {model.num_constraints} rows, {model.num_nonzeros} nonzeros")
        print(f"  status: {solution.status}")
        if bary is None:
            failures += 1
            continue
        print(f"  objective: {solution.objective_value:.10g}")
        print(f"  support size: {len(bary.support)} (sparsity bound {bound})")
        print(f"  checks: {bary.verification.summary()}")
        if args.out:
            path = args.out if len(formulations) == 1 else _suffixed(args.out, name)
            with open(path, "w") as fh:
                fh.write(solution_json(solution, bary))
    return EXIT_SOLVER if failures else EXIT_OK


def _suffixed(path: str, name: str) -> str:
    if path.endswith(".json"):
        return f"{path[:-5]}-{name}.json"
    return f"{path}-{name}"


def cmd_compare(args) -> int:
    problem = _load(args.format, args.input)
    formulations = _select_formulations(args.formulation, problem)
    regime, atlas = _resolve_atlas(problem, args.cap, formulations)
    bound = sum(problem.sizes) - problem.n + 1

    print(f"measures: n={problem.n} sizes={list(problem.sizes)} d={problem.dimension}")
    print(f"|S*|={problem.combination_total()} |S|={_candidate_count(atlas)} regime={regime}")
    header = f"{'formulation':<15}{'rows':>8}{'columns':>10}{'nonzeros':>10}{'objective':>16}"
    print(header)
    objectives = {}
    support_ok = True
    for name in formulations:
        model, solution, bary = _run(name, problem, atlas, args.cap, args.max_iters)
        if bary is None:
            # the status takes the objective column; the spread skips it
            objective = f"{solution.status:>16}"
        else:
            objectives[name] = solution.objective_value
            support_ok = support_ok and len(bary.support) <= bound
            objective = f"{solution.objective_value:>16.10g}"
        print(
            f"{name:<15}{model.num_constraints:>8}{model.num_vars:>10}"
            f"{model.num_nonzeros:>10}{objective}"
        )
    spread = max(objectives.values(), default=0.0) - min(objectives.values(), default=0.0)
    agree = spread <= 1e-8
    # a spread of a few ulps would carry the objectives' last bits to stdout
    shown = "< 1e-12" if spread < 1e-12 else f"{spread:.3g}"
    print(f"objective agreement: {'OK' if agree else 'FAIL'} (spread {shown})")
    print(f"sparsity bound {bound}: {'OK' if support_ok else 'FAIL'}")
    if not agree:
        raise CliError(EXIT_SOLVER, f"objectives disagree by {spread:.3g}")
    return EXIT_OK if len(objectives) == len(formulations) else EXIT_SOLVER


def cmd_sizes(args) -> int:
    minimums = (("-n", args.n, 2), ("-p", args.p, 1), ("-K", args.K, 1), ("-d", args.d, 1))
    for flag, value, least in minimums:
        if value is not None and value < least:
            raise CliError(EXIT_INPUT, f"sizes need {flag} >= {least}, got {value}")
    regime = {"general": "general-position", "grid": "full-grid"}[args.regime]
    if regime == "general-position":
        if args.p is None:
            raise CliError(EXIT_INPUT, "general-position sizes need -p")
        size_param = args.p
        names = FORMULATIONS if args.formulation == "all" else (args.formulation,)
    else:
        if args.K is None:
            raise CliError(EXIT_INPUT, "full-grid sizes need -K")
        if args.d is None:
            raise CliError(EXIT_INPUT, "full-grid sizes need -d")
        size_param = args.K
        names = ("original", "general") if args.formulation == "all" else (args.formulation,)

    if args.compare:
        src, dst = args.compare
        if regime != "general-position":
            raise CliError(EXIT_INPUT, "percentage reductions are defined for the general-position regime")
        try:
            print(_reduction_line(src, dst, args.n, args.p))
        except ValueError as exc:
            raise CliError(EXIT_INPUT, str(exc))
        return EXIT_OK

    print(f"regime: {regime} n={args.n} "
          + (f"p={args.p}" if regime == "general-position" else f"K={args.K} d={args.d}"))
    print(f"{'formulation':<15}{'variables':>14}{'constraints':>14}")
    for name in names:
        try:
            pred = predict_sizes(regime, name, args.n, size_param, args.d)
        except ValueError as exc:
            raise CliError(EXIT_INPUT, str(exc))
        print(f"{name:<15}{pred.variables:>14}{pred.constraints:>14}")
    if regime == "general-position" and args.formulation == "all":
        for src, dst in (("original", "reduced"), ("reduced", "general"), ("original", "general")):
            print(_reduction_line(src, dst, args.n, args.p))
    return EXIT_OK


def _reduction_line(src: str, dst: str, n: int, p: int | None) -> str:
    exact = variable_reduction(src, dst, n=n, p=p)
    line = f"reduction {src}->{dst}: {100.0 * exact:.4f}%"
    if (src, dst) == ("original", "reduced"):
        limit = variable_reduction(src, dst, p=p)
        line += f" (large-n limit {100.0 * limit:.4f}%)"
    return line


def cmd_export(args) -> int:
    problem = _load(args.format, args.input)
    names = _select_formulations(args.formulation, problem)
    _, atlas = _resolve_atlas(problem, args.cap, names)
    prefix = args.out or "model"
    for name in names:
        model = _build_model(name, problem, atlas, args.cap)
        path = prefix if prefix.endswith(".mps") and len(names) == 1 else f"{prefix}-{name}.mps"
        export_mps(model, path)
        print(f"wrote {path}: {model.num_constraints} rows, {model.num_vars} columns")
    return EXIT_OK


def cmd_render(args) -> int:
    if args.step is not None and not (math.isfinite(args.step) and args.step > 0.0):
        raise CliError(EXIT_INPUT, f"--step must be finite and positive, got {args.step}")
    try:
        with open(args.solution) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_INPUT, f"cannot read solution: {exc}")
    support = doc.get("support")
    if not support:
        raise CliError(EXIT_INPUT, "solution has no support to render")
    points = [tuple(float(c) for c in entry["point"]) for entry in support]
    masses = [float(entry["mass"]) for entry in support]
    if any(len(pt) != 2 for pt in points):
        raise CliError(EXIT_INPUT, "render requires a 2-dimensional solution")

    x0 = min(pt[0] for pt in points)
    y0 = min(pt[1] for pt in points)
    span = max(
        max(pt[0] for pt in points) - x0, max(pt[1] for pt in points) - y0
    )

    def raster_cells(step):
        width = int(round((max(pt[0] for pt in points) - x0) / step)) + 1
        height = int(round((max(pt[1] for pt in points) - y0) / step)) + 1
        return width, height

    if args.step is not None:
        step = args.step
    else:
        # lattice gcd when the support really is a grid, otherwise the
        # smallest positive coordinate gap still separates all points
        candidates = []
        offs = []
        for l in (0, 1):
            lo = min(pt[l] for pt in points)
            offs.extend(pt[l] - lo for pt in points)
        gcd_step = _float_gcd(offs, 1e-9 * span if span > 0 else 1e-9)
        if gcd_step > 0.0:
            candidates.append(gcd_step)
        gaps = []
        for l in (0, 1):
            ordered = sorted({pt[l] for pt in points})
            gaps.extend(b - a for a, b in zip(ordered, ordered[1:]) if b > a)
        if gaps:
            candidates.append(min(gaps))
        candidates.append(1.0)
        step = next(
            (s for s in candidates if math.prod(raster_cells(s)) <= 4_000_000),
            None,
        )
        if step is None:
            raise CliError(EXIT_INPUT, "cannot infer a workable bin size; pass --step")
    width, height = raster_cells(step)
    if width * height > 4_000_000:
        raise CliError(EXIT_INPUT, f"raster {width}x{height} too large; pass --step")

    raster = [[0.0] * width for _ in range(height)]
    for pt, mass in zip(points, masses):
        cx = int(round((pt[0] - x0) / step))
        cy = int(round((pt[1] - y0) / step))
        raster[cy][cx] += mass

    prefix = args.out or "barycenter"
    csv_path = f"{prefix}.csv"
    pgm_path = f"{prefix}.pgm"
    with open(csv_path, "w") as fh:
        fh.write("x,y,mass\n")
        for cy in range(height):
            for cx in range(width):
                if raster[cy][cx] > 0.0:
                    fh.write(f"{x0 + cx * step:.12g},{y0 + cy * step:.12g},{raster[cy][cx]:.12g}\n")
    peak = max(max(row) for row in raster)
    with open(pgm_path, "w") as fh:
        fh.write(f"P2\n{width} {height}\n255\n")
        for cy in range(height - 1, -1, -1):  # top row first
            fh.write(" ".join(str(int(round(255 * v / peak))) for v in raster[cy]) + "\n")
    print(f"wrote {csv_path} and {pgm_path} ({width}x{height} cells)")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        if args.kind == "general":
            problem = generators.general_position(args.n, args.p, args.d, args.seed)
        elif args.kind == "grid":
            problem = generators.grid(args.n, args.K, args.d, args.density, args.seed)
        else:
            problem = generators.mixed(args.n, args.K, args.extra, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"cannot generate {args.kind}: {exc}")
    violations = validate_problem(problem)
    if violations:
        raise CliError(EXIT_INPUT, f"generated problem is invalid: {'; '.join(violations)}")
    doc = {
        "weights": list(problem.weights),
        "measures": [
            {"points": [list(pt) for pt in m.points], "masses": list(m.masses)}
            for m in problem.measures
        ],
    }
    text = json.dumps(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}: n={problem.n} sizes={list(problem.sizes)}")
    else:
        print(text)
    return EXIT_OK


def _add_pipeline_flags(sub):
    sub.add_argument("--formulation", default="all",
                     choices=("original", "reduced", "general", "hybrid", "transportation", "all"))
    sub.add_argument("--cap", type=int, default=DEFAULT_COMBINATION_CAP,
                     help="combination count guard")
    sub.add_argument("--max-iters", dest="max_iters", type=int, default=100_000)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", default="json", choices=("json", "grid-csv"))
    sub.add_argument("input", nargs="+")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about 25 parses, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="barylp",
                                     description="Discrete barycenters via sparse LPs")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="solve a problem and write the barycenter")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("compare", help="build and solve several formulations")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("sizes", help="closed-form model sizes and reductions")
    sub.add_argument("--regime", required=True, choices=("general", "grid"))
    sub.add_argument("-n", type=int, required=True)
    sub.add_argument("-p", type=int, default=None)
    sub.add_argument("-K", type=int, default=None)
    sub.add_argument("-d", type=int, default=None)
    sub.add_argument("--formulation", default="all",
                     choices=("original", "reduced", "general", "hybrid", "all"))
    sub.add_argument("--compare", nargs=2, metavar=("FROM", "TO"), default=None)
    sub.set_defaults(func=cmd_sizes)

    sub = subs.add_parser("export", help="write models in fixed MPS format")
    _add_pipeline_flags(sub)
    sub.set_defaults(func=cmd_export)

    sub = subs.add_parser("render", help="rasterize a 2-d solution")
    sub.add_argument("solution")
    sub.add_argument("--out", default=None)
    sub.add_argument("--step", type=float, default=None)
    sub.set_defaults(func=cmd_render)

    sub = subs.add_parser("gen", help="generate benchmark problems")
    sub.add_argument("kind", choices=("general", "grid", "mixed"))
    sub.add_argument("-n", type=int, default=5)
    sub.add_argument("-p", type=int, default=4)
    sub.add_argument("-K", type=int, default=5)
    sub.add_argument("-d", type=int, default=2)
    sub.add_argument("--extra", type=int, default=3)
    sub.add_argument("--density", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CombinationBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ParseError, WeightError, InvariantError, FormulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
