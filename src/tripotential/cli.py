"""Command-line interface.

Subcommands:

* ``center``        solve for the electrostatic center and its diagnostics
* ``search-value``  distance from the center to side BC (encyclopedia key)
* ``rp-center``     extreme point of the distance-power potential V_p
* ``arc``           sweep of V_p extreme points over a range of exponents
* ``lambda-curve``  the curve traced by freeing the lambda parameter
* ``grid``          potential/field samples over a padded bounding box
* ``survey``        empirical band of (lambda - lambda0)/shape parameter
* ``verify``        golden-value regression; exit 1 on any failure

Exit codes: 0 success, 1 verification failure, 2 input, solver, arithmetic
or output error (e.g. ``--out`` into a missing directory, a stdout
closed by its reader, or an overflow of the lambda estimate at sizes
beyond 1e+-100). On those errors a machine-readable ``{"error": ...}``
object is printed to stdout, if it is still open.
``grid`` rows come from the array kernel ``potential_field_batch``, block by
block of whole grid rows once every input has been validated; CSV formats
each block column by column and writes it in one piece. Every row carries
the closed-form potential, boundary rows included; rows within 1e-9 *
diameter of the boundary, and exterior rows, leave the field columns empty
(the field diverges at the boundary). Outputs are deterministic for
identical flags; JSON numbers use shortest round-trip formatting, CSV uses
``,`` separators and ``.`` decimal points regardless of locale.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys

import numpy as np

# Lets argparse accept tokens like "-1,0" as values rather than options.
_NEGATIVE_VALUE = re.compile(r"^-\d[\d.,eE+-]*$")

from . import estimates, riesz
from .center import (
    center_function_trilinears,
    electrostatic_center,
    kimberling_search_value,
    lambda_curve,
    ratio_band_survey,
    solve_lambda,
    stationarity_spreads,
)
from .errors import TripotentialError
from .geometry import (
    Point2,
    SideLengths,
    Triangle,
    centroid,
    diameter,
    side_lengths,
    triangle_from_sides,
)
from .potential import field_closed, potential_field_batch

# Golden reference values for the verify command.
_REF_TRIANGLE = ((-1.0, 0.0), (2.0, 0.0), (0.0, 2.0))
_REF_LAMBDA = 4.010297202743007522718690055346
_REF_CENTER = (0.272557906914867702, 0.704148189723077020)
_REF_SEARCH_VALUE = 2.110731796690289177459836888182


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _add_triangle_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--vertices",
        nargs=3,
        type=_parse_pair,
        metavar="X,Y",
        help="three vertices, e.g. --vertices -1,0 2,0 0,2",
    )
    group.add_argument(
        "--sides",
        type=_parse_triple,
        metavar="A,B,C",
        help="three side lengths; uses the canonical pose with B at the "
        "origin and C on the positive x axis",
    )


def _add_common_options(
    parser: argparse.ArgumentParser, default_tol: float | None
) -> None:
    """--format and --out, plus --tol unless default_tol is None."""
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    if default_tol is not None:
        parser.add_argument(
            "--tol", type=float, default=default_tol, help="solver tolerance"
        )
    parser.add_argument("--out", help="write output to this path instead of stdout")


def _triangle_from_args(args) -> Triangle:
    if args.vertices is not None:
        pts = [Point2(x, y) for x, y in args.vertices]
        return Triangle(*pts)
    return triangle_from_sides(*args.sides)


def _check_tol(tol: float) -> float:
    if not 1e-14 <= tol <= 1e-4:
        raise ValueError(f"tolerance must lie in [1e-14, 1e-4], got {tol}")
    return tol


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, numpy included
    return str(value)


@contextlib.contextmanager
def _output(out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe fails here, inside main


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _csv_table(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines)


def _report(args, report: dict, header: list[str], rows: list[list]) -> int:
    """Write report as JSON, or header and rows as CSV, per --format."""
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.out)
    else:
        _emit(_csv_table(header, rows), args.out)
    return 0


def _triangle_info(tri: Triangle) -> dict:
    sl = side_lengths(tri)
    return {
        "vertices": [[v.x, v.y] for v in tri.vertices],
        "sides": [sl.a, sl.b, sl.c],
    }


def _rows_report(
    command: str, tri: Triangle, header: list[str], rows: list[list]
) -> dict:
    """JSON report of a table command: one object per row."""
    return {
        "command": command,
        "triangle": _triangle_info(tri),
        "rows": [dict(zip(header, row)) for row in rows],
    }


def _cmd_center(args) -> int:
    tol = _check_tol(args.tol)
    tri = _triangle_from_args(args)
    point, sol = electrostatic_center(tri, tol)
    tau = center_function_trilinears(side_lengths(tri), tol)
    spread_side, spread_tan = stationarity_spreads(tri, point)
    field_norm = field_closed(tri, point).norm()
    report = {
        "command": "center",
        "triangle": _triangle_info(tri),
        "tolerance": tol,
        "lambda": sol.lam,
        "u": sol.u,
        "v": sol.v,
        "w": sol.w,
        "r_a": sol.r_a,
        "r_b": sol.r_b,
        "r_c": sol.r_c,
        "center": [point.x, point.y],
        "trilinears": [tau.tau_a, tau.tau_b, tau.tau_c],
        "side_relation_spread": spread_side,
        "tangent_relation_spread": spread_tan,
        "field_norm": field_norm,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "units": {
            "lambda": "dimensionless",
            "u/v/w": "length (input units)",
            "r_a/r_b/r_c": "length (input units)",
            "center": "length (input units)",
            "trilinears": "homogeneous (ratio only)",
            "side_relation_spread": "1/length",
            "tangent_relation_spread": "dimensionless",
            "field_norm": "dimensionless (potential per length)",
            "residual": "length^2",
        },
    }
    header = [
        "lambda", "u", "v", "w", "r_a", "r_b", "r_c",
        "center_x", "center_y", "tau_a", "tau_b", "tau_c",
        "side_relation_spread", "tangent_relation_spread",
        "field_norm", "residual", "iterations",
    ]
    row = [
        sol.lam, sol.u, sol.v, sol.w, sol.r_a, sol.r_b, sol.r_c,
        point.x, point.y, tau.tau_a, tau.tau_b, tau.tau_c,
        spread_side, spread_tan, field_norm, sol.residual, sol.iterations,
    ]
    return _report(args, report, header, [row])


def _cmd_search_value(args) -> int:
    tol = _check_tol(args.tol)
    if not 1 <= args.digits <= 15:
        raise ValueError(
            "digits must be between 1 and 15; double precision carries "
            "no more than ~15.9 significant digits"
        )
    sides = SideLengths(*args.sides)
    d_a = kimberling_search_value(sides, tol)
    formatted = f"{d_a:.{args.digits}g}"
    report = {
        "command": "search-value",
        "sides": [sides.a, sides.b, sides.c],
        "digits": args.digits,
        "d_a": d_a,
        "formatted": formatted,
    }
    return _report(args, report, ["d_a"], [[formatted]])


def _cmd_rp_center(args) -> int:
    tol = _check_tol(args.tol)
    tri = _triangle_from_args(args)
    rep = riesz.rp_center(tri, args.p, tol)
    report = {
        "command": "rp-center",
        "triangle": _triangle_info(tri),
        "p": rep.p,
        "point": [rep.point.x, rep.point.y],
        "residual_norm": rep.residual_norm,
        "iterations": rep.iterations,
    }
    header = ["p", "x", "y", "residual_norm", "iterations"]
    row = [rep.p, rep.point.x, rep.point.y, rep.residual_norm, rep.iterations]
    return _report(args, report, header, [row])


def _arc_rows(tri: Triangle, points: list[riesz.RpSolveReport]) -> list[list]:
    return [
        [ap.p, ap.point.x, ap.point.y, ap.residual_norm, ap.iterations,
         ap.converged, riesz.thomson_residual(tri, ap.point)]
        for ap in points
    ]


def _cmd_arc(args) -> int:
    tol = _check_tol(args.tol)
    tri = _triangle_from_args(args)
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    if args.p_max <= args.p_min:
        raise ValueError("--p-max must exceed --p-min")
    step = (args.p_max - args.p_min) / (args.steps - 1)
    p_values = [args.p_min + i * step for i in range(args.steps)]
    points = riesz.potential_arc(tri, p_values, tol)
    if not any(ap.converged for ap in points):
        raise TripotentialError("no arc point converged")
    rows = _arc_rows(tri, points)
    header = ["p", "x", "y", "residual", "iterations", "converged", "thomson"]
    return _report(args, _rows_report("arc", tri, header, rows), header, rows)


def _cmd_lambda_curve(args) -> int:
    tri = _triangle_from_args(args)
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    if not 0.0 < args.lambda_min < args.lambda_max:
        raise ValueError("need 0 < --lambda-min < --lambda-max")
    if args.spacing == "log":
        ratio = (args.lambda_max / args.lambda_min) ** (1.0 / (args.steps - 1))
        values = [args.lambda_min * ratio**i for i in range(args.steps)]
    else:
        step = (args.lambda_max - args.lambda_min) / (args.steps - 1)
        values = [args.lambda_min + i * step for i in range(args.steps)]
    if args.include_lambda_max:
        lam_root = solve_lambda(side_lengths(tri), _check_tol(args.tol)).lam
        values = sorted(set(values) | {lam_root})
    curve = lambda_curve(tri, values)
    header = ["lambda", "x", "y"]
    rows = [[lam, pt.x, pt.y] for lam, pt in curve]
    return _report(
        args, _rows_report("lambda-curve", tri, header, rows), header, rows
    )


# Points per block of grid rows evaluated at once: large enough to amortize
# numpy's per-call overhead, small enough to keep memory flat at n=2048.
_GRID_BLOCK_POINTS = 4096


def _grid_blocks(tri: Triangle, xs: list[float], ys: list[float]):
    """Yield (y values, FieldBatch) per block of whole grid rows, its
    points in row-major order."""
    n = len(xs)
    rows = max(1, _GRID_BLOCK_POINTS // n)
    x_block = np.array(xs * rows)
    for j0 in range(0, len(ys), rows):
        y_rows = ys[j0:j0 + rows]
        yield y_rows, potential_field_batch(
            tri, x_block[:n * len(y_rows)], np.repeat(y_rows, n)
        )


def _cmd_grid(args) -> int:
    tri = _triangle_from_args(args)
    n = args.n
    if not 8 <= n <= 2048:
        raise ValueError(f"grid resolution must be in [8, 2048], got {n}")
    vx = [v.x for v in tri.vertices]
    vy = [v.y for v in tri.vertices]
    pad_x = 0.2 * (max(vx) - min(vx))
    pad_y = 0.2 * (max(vy) - min(vy))
    x0, x1 = min(vx) - pad_x, max(vx) + pad_x
    y0, y1 = min(vy) - pad_y, max(vy) + pad_y
    xs = [x0 + (x1 - x0) * i / (n - 1) for i in range(n)]
    ys = [y0 + (y1 - y0) * j / (n - 1) for j in range(n)]
    header = ["x", "y", "V", "Ex", "Ey", "inside"]
    blocks = _grid_blocks(tri, xs, ys)
    if args.format == "json":
        rows = []
        for y_rows, batch in blocks:
            ex, ey = (np.where(np.isnan(batch.ex), None, f).tolist()
                      for f in (batch.ex, batch.ey))
            points = ((x, y) for y in y_rows for x in xs)
            rows.extend([x, y, *values] for (x, y), *values in zip(
                points, batch.v.tolist(), ex, ey, batch.interior.astype(int).tolist()))
        report = {
            "command": "grid",
            "triangle": _triangle_info(tri),
            "header": header,
            "rows": rows,
        }
        _emit(json.dumps(report, indent=2), args.out)
        return 0
    # CSV by columns, one join per block: one repr per number, x and y
    # cells formed once, a constant tail for each row without a field.
    x_cells = [repr(x) + "," for x in xs]
    with _output(args.out) as fh:
        fh.write(",".join(header) + "\n")
        for y_rows, batch in blocks:
            tails = np.array([",,,0\n", ",,,1\n"], dtype=object)[batch.interior.astype(int)]
            field = ~np.isnan(batch.ex)
            tails[field] = [f",{ex!r},{ey!r},1\n" for ex, ey in zip(
                batch.ex[field].tolist(), batch.ey[field].tolist())]
            cells = [""] * (4 * len(tails))
            cells[0::4] = x_cells * len(y_rows)
            cells[1::4] = [t for y in y_rows for t in [repr(y) + ","] * n]
            cells[2::4] = [repr(v) for v in batch.v.tolist()]
            cells[3::4] = tails.tolist()
            fh.write("".join(cells))
    return 0


def _cmd_survey(args) -> int:
    summary = ratio_band_survey(args.n, args.seed)
    report = {
        "command": "survey",
        "n_samples": summary.n_samples,
        "n_used": summary.n_used,
        "seed": summary.seed,
        "min": summary.minimum,
        "max": summary.maximum,
        "mean": summary.mean,
    }
    header = ["min", "max", "mean", "n_samples", "n_used", "seed"]
    row = [summary.minimum, summary.maximum, summary.mean,
           summary.n_samples, summary.n_used, summary.seed]
    return _report(args, report, header, [row])


def _verify_checks(tol_override: float | None) -> list[dict]:
    def tol(default: float) -> float:
        return tol_override if tol_override is not None else default

    checks = []

    def record(name, computed, reference, error, tolerance):
        checks.append(
            {
                "name": name,
                "computed": computed,
                "reference": reference,
                "error": error,
                "tolerance": tolerance,
                "passed": bool(error <= tolerance),
            }
        )

    tri = Triangle(*(Point2(x, y) for x, y in _REF_TRIANGLE))
    point, sol = electrostatic_center(tri, 1e-13)
    record(
        "lambda_golden",
        sol.lam,
        _REF_LAMBDA,
        abs(sol.lam - _REF_LAMBDA) / _REF_LAMBDA,
        tol(1e-12),
    )

    err = max(abs(point.x - _REF_CENTER[0]), abs(point.y - _REF_CENTER[1]))
    record("center_golden", [point.x, point.y], list(_REF_CENTER), err, tol(1e-10))

    d_a = kimberling_search_value(SideLengths(6.0, 9.0, 13.0), 1e-13)
    record(
        "search_value_6_9_13",
        d_a,
        _REF_SEARCH_VALUE,
        abs(d_a - _REF_SEARCH_VALUE) / _REF_SEARCH_VALUE,
        tol(1e-10),
    )

    lam0 = estimates.lambda_equilateral()
    sol_eq = solve_lambda(SideLengths(1.0, 1.0, 1.0), 1e-13)
    record(
        "lambda_equilateral",
        sol_eq.lam,
        lam0,
        abs(sol_eq.lam - lam0) / lam0,
        tol(1e-12),
    )

    tri_eq = triangle_from_sides(1.0, 1.0, 1.0)
    center_eq, _ = electrostatic_center(tri_eq, 1e-13)
    g_eq = centroid(tri_eq)
    record(
        "equilateral_center_is_centroid",
        [center_eq.x, center_eq.y],
        [g_eq.x, g_eq.y],
        center_eq.distance_to(g_eq) / diameter(tri_eq),
        tol(1e-12),
    )

    rep = riesz.rp_center(tri, 2.0)
    g = centroid(tri)
    record(
        "p2_center_is_centroid",
        [rep.point.x, rep.point.y],
        [g.x, g.y],
        rep.point.distance_to(g) / diameter(tri),
        tol(1e-9),
    )

    worst = 0.0
    for t in (tri, triangle_from_sides(4.0, 5.0, 6.0)):
        pt, _ = electrostatic_center(t, 1e-13)
        worst = max(worst, *stationarity_spreads(t, pt))
    record("center_identity_spreads", worst, 0.0, worst, tol(1e-9))

    return checks


def _cmd_verify(args) -> int:
    if args.tol is not None and not args.tol > 0:  # nan included
        raise ValueError("tolerance must be positive")
    checks = _verify_checks(args.tol)
    passed = all(c["passed"] for c in checks)
    if args.json:
        args.format = "json"
    if args.format != "table":
        header = ["name", "error", "tolerance", "passed"]
        rows = [[c["name"], c["error"], c["tolerance"], c["passed"]]
                for c in checks]
        report = {"command": "verify", "passed": passed, "checks": checks}
        _report(args, report, header, rows)
    else:
        width = max(len(c["name"]) for c in checks)
        lines = []
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"{status}  {c['name']:<{width}}  error={c['error']:.3e}  "
                f"tolerance={c['tolerance']:.3e}"
            )
        lines.append("all checks passed" if passed else "FAILURES PRESENT")
        _emit("\n".join(lines), args.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripotential",
        description="Electrostatic and distance-power potentials of a "
        "uniformly charged triangle and their extreme points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_center = sub.add_parser("center", help="solve for the electrostatic center")
    _add_triangle_options(p_center)
    _add_common_options(p_center, 1e-12)
    p_center.set_defaults(func=_cmd_center)

    p_sv = sub.add_parser(
        "search-value", help="distance from the center to side BC"
    )
    p_sv.add_argument("--sides", type=_parse_triple, required=True, metavar="A,B,C")
    p_sv.add_argument("--digits", type=int, default=15,
                      help="significant digits to print (max 15)")
    _add_common_options(p_sv, 1e-12)
    p_sv.set_defaults(func=_cmd_search_value)

    p_rp = sub.add_parser("rp-center", help="extreme point of V_p")
    _add_triangle_options(p_rp)
    p_rp.add_argument("--p", type=float, required=True, help="potential exponent")
    _add_common_options(p_rp, 1e-10)
    p_rp.set_defaults(func=_cmd_rp_center)

    p_arc = sub.add_parser("arc", help="sweep V_p extreme points over p")
    _add_triangle_options(p_arc)
    p_arc.add_argument("--p-min", type=float, required=True)
    p_arc.add_argument("--p-max", type=float, required=True)
    p_arc.add_argument("--steps", type=int, default=41)
    _add_common_options(p_arc, 1e-10)
    p_arc.set_defaults(func=_cmd_arc)

    p_lc = sub.add_parser("lambda-curve", help="curve traced by the lambda parameter")
    _add_triangle_options(p_lc)
    p_lc.add_argument("--lambda-min", type=float, required=True)
    p_lc.add_argument("--lambda-max", type=float, required=True)
    p_lc.add_argument("--steps", type=int, default=41)
    p_lc.add_argument("--spacing", choices=("log", "linear"), default="log")
    p_lc.add_argument(
        "--include-lambda-max",
        action="store_true",
        help="insert the solved lambda root into the value list",
    )
    _add_common_options(p_lc, 1e-12)
    p_lc.set_defaults(func=_cmd_lambda_curve)

    p_grid = sub.add_parser("grid", help="potential/field samples on a grid")
    _add_triangle_options(p_grid)
    p_grid.add_argument("--n", type=int, default=64,
                        help="grid resolution per axis (8..2048)")
    _add_common_options(p_grid, None)
    p_grid.set_defaults(func=_cmd_grid)

    p_survey = sub.add_parser("survey", help="empirical lambda-excess ratio band")
    p_survey.add_argument("--n", type=int, default=1000)
    p_survey.add_argument("--seed", type=int, default=0)
    _add_common_options(p_survey, None)
    p_survey.set_defaults(func=_cmd_survey)

    p_verify = sub.add_parser("verify", help="golden-value regression")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_verify.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every check tolerance (any positive value)",
    )
    p_verify.add_argument("--format", choices=("json", "csv", "table"),
                          default="table")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    for sp in (p_center, p_sv, p_rp, p_arc, p_lc, p_grid, p_survey, p_verify):
        sp._negative_number_matcher = _NEGATIVE_VALUE
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: building it costs
    far more than parsing one command line."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TripotentialError, ArithmeticError, ValueError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        try:
            sys.stdout.write(json.dumps(error, indent=2) + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone (e.g. `| head -1`): point stdout at devnull
            # so that the flush at exit does not fail a second time.
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fileno = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fileno)
                os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
