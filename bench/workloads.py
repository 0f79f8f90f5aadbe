"""Workload inputs, ops and output checks.

Every workload is a closed loop: one caller, no threads, and the next op
starts only when the previous one returns. Inputs come only from the
seed; the library receives them as plain numbers or CLI arguments.

Output checks run outside the timed region and do not trust the code
under test: each tolerance below is fixed from the library's documented
accuracy (README and the acceptance criteria in ``tests/``), not from
what a seed happens to produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("centers", "field_map", "riesz_arc")

# Reference triangle and golden values from the README / verify command.
REF_VERTICES = ((-1.0, 0.0), (2.0, 0.0), (0.0, 2.0))
REF_LAMBDA = 4.010297202743007
REF_CENTER = (0.2725579069148677, 0.7041481897230770)
REF_LAMBDA_RTOL = 1e-12  # acceptance criterion 1
REF_CENTER_ATOL = 1e-10  # acceptance criterion 2

# |E(center)| * diameter / V(center): acceptance criterion 6.
FIELD_RESIDUAL_TOL = 1e-8
# Closed form against the quadrature oracle: acceptance criterion 8.
ORACLE_RTOL = 1e-9
# p = 2 row against the centroid, p = -1 row against the electrostatic
# center, both relative to the diameter: acceptance criterion 9.
P2_CENTROID_TOL = 1e-9
PM1_CENTER_TOL = 1e-8

# centers: size of the seeded triangle pool the run cycles through.
CENTERS_POOL = 1 << 16
CENTERS_WARMUP = 1000
# field_map: one cycle of grid ops, (n, pose). Two n=256 grids spread
# evenly among six n=64 grids, half in canonical pose (--sides) and half
# in general pose (--vertices).
GRID_CYCLE = (
    (256, "sides"), (64, "vertices"), (64, "sides"), (64, "vertices"),
    (256, "vertices"), (64, "sides"), (64, "vertices"), (64, "sides"),
)
GRID_SAMPLE_ROWS = 4
# field_map and riesz_arc: op i gets a shape whose smallest angle is
# log-uniform in band i % len(bands) of its workload (radians); the other
# two angles split the rest evenly to within SHAPE_SPLIT. A sliver leaves
# few interior grid points, and an arc costs about 2x more on a 0.02 rad
# triangle than on a fat one and as much again with how the larger angles
# split. So narrow bands, each drawn from in a fixed order, keep runs of
# different seeds comparable.
SHAPE_BANDS = {
    # Thin, fat, middling; an odd band count puts the median op in the
    # middle band.
    "field_map": ((0.02, 0.025), (0.5, 0.6), (0.1, 0.12)),
    # One band: a run holds only a dozen arcs, each swinging about 20% with
    # the machine's speed, and the median of ops drawn from bands 2x apart
    # then depends on which band's ops the swings hit.
    "riesz_arc": ((0.1, 0.12),),
}
SHAPE_SPLIT = 0.1
ARC_ARGS = ("--p-min", "-10", "--p-max", "10", "--steps", "81")
# Inputs generated per run for the CLI workloads. A run cycles through
# them, and finishes the first pass untimed if its time runs out inside
# it, so the pools are small: a run covers them about once on a slow
# machine. field_map's is a multiple of its cycle and of its band count.
CLI_OPS = {"field_map": 24, "riesz_arc": 10}
# Ops per cycle of op kinds; a timed run of a CLI workload ends on a whole cycle.
CYCLE = {"field_map": len(GRID_CYCLE), "riesz_arc": len(SHAPE_BANDS["riesz_arc"])}


# ----------------------------------------------------------------- inputs


def survey_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Triangle angles by the library's survey rule: two angles uniform on
    (0, pi/2), the third closes the sum. Slivers appear naturally."""
    two = rng.uniform(0.0, 0.5 * math.pi, size=(n, 2))
    return np.column_stack([two, math.pi - two.sum(axis=1)])


def banded_angles(rng: np.random.Generator, n: int, bands) -> np.ndarray:
    """Angles whose minimum is log-uniform within the band of each slot,
    the other two within SHAPE_SPLIT of an even split of the rest."""
    out = np.empty((n, 3))
    for i in range(n):
        lo, hi = bands[i % len(bands)]
        small = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        mid = 0.5 * (math.pi - small) * rng.uniform(1.0 - SHAPE_SPLIT, 1.0 + SHAPE_SPLIT)
        out[i] = rng.permutation([small, mid, math.pi - small - mid])
    return out


def place(rng: np.random.Generator, angles: np.ndarray) -> np.ndarray:
    """Vertices (n, 3, 2) for the given angles at A, B, C in general pose:
    random rotation, log-uniform diameter in 1e-3..1e3 and the centroid
    1 to 4 diameters from the origin."""
    n = len(angles)
    sides = np.sin(angles)  # a, b, c opposite A, B, C (law of sines)
    sides /= sides.max(axis=1, keepdims=True)
    a, c = sides[:, 0], sides[:, 2]
    beta = angles[:, 1]
    local = np.zeros((n, 3, 2))
    local[:, 0] = np.column_stack([c * np.cos(beta), c * np.sin(beta)])
    local[:, 2, 0] = a
    local -= local.mean(axis=1, keepdims=True)
    scale = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    rot = np.stack(
        [np.column_stack([np.cos(theta), -np.sin(theta)]),
         np.column_stack([np.sin(theta), np.cos(theta)])], axis=1
    )
    dist = rng.uniform(1.0, 4.0, size=n) * scale
    psi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    offset = np.column_stack([dist * np.cos(psi), dist * np.sin(psi)])
    return (
        np.einsum("nij,nkj->nki", rot, local) * scale[:, None, None]
        + offset[:, None, :]
    )


def _side_lengths(verts: np.ndarray) -> np.ndarray:
    """|BC|, |CA|, |AB| per triangle."""
    return np.linalg.norm(verts[:, [2, 0, 1]] - verts[:, [1, 2, 0]], axis=2)


def _triangle_args(pose: str, verts: np.ndarray) -> list[str]:
    if pose == "sides":
        return ["--sides", ",".join(repr(float(v)) for v in _side_lengths(verts[None])[0])]
    return ["--vertices"] + [f"{float(x)!r},{float(y)!r}" for x, y in verts]


@dataclass(frozen=True, eq=False)
class Inputs:
    """Everything a run feeds the library, derived from the seed alone:
    vertex arrays (n, 3, 2) on centers, CLI argument tuples otherwise."""

    ops: np.ndarray | tuple
    warmup: np.ndarray | tuple

    def __eq__(self, other):
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in ((self.ops, other.ops), (self.warmup, other.warmup))
        )


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "centers":
        tris = place(rng, survey_angles(rng, CENTERS_POOL))
        return Inputs(tris, place(rng, survey_angles(rng, CENTERS_WARMUP)))
    # The CLI workloads warm up on the fixed reference triangle, so that
    # set-up time does not depend on which shapes a seed draws.
    ref = np.array(REF_VERTICES)
    n_ops = CLI_OPS[workload]
    verts = place(rng, banded_angles(rng, n_ops, SHAPE_BANDS[workload]))
    if workload == "field_map":
        ops = []
        for i in range(n_ops):
            n, pose = GRID_CYCLE[i % len(GRID_CYCLE)]
            ops.append(("grid", *_triangle_args(pose, verts[i]), "--n", str(n),
                        "--format", "csv"))
        warm = tuple(
            ("grid", *_triangle_args(pose, ref), "--n", "16", "--format", "csv")
            for pose in ("sides", "vertices")
        )
        return Inputs(tuple(ops), warm)
    ops = tuple(
        ("arc", *_triangle_args("vertices", v), *ARC_ARGS, "--format", "csv")
        for v in verts
    )
    warm = (("arc", *_triangle_args("vertices", ref), "--p-min", "-1", "--p-max", "2",
             "--steps", "3", "--format", "csv"),)
    return Inputs(ops, warm)


# ------------------------------------------------------------------- ops


def centers_op(tp, verts) -> tuple:
    """The numbers ``tripotential center`` reports, via library calls."""
    (ax, ay), (bx, by), (cx, cy) = verts
    tri = tp.Triangle(tp.Point2(ax, ay), tp.Point2(bx, by), tp.Point2(cx, cy))
    point, sol = tp.electrostatic_center(tri)
    tau = tp.center_function_trilinears(tp.side_lengths(tri))
    spreads = tp.stationarity_spreads(tri, point)
    field_norm = tp.field_closed(tri, point).norm()
    return (point.x, point.y, sol.lam, tau.tau_a, tau.tau_b, tau.tau_c,
            spreads[0], spreads[1], field_norm)


def cli_op(cli, args: tuple, out: Path) -> int:
    return cli.main([*args, "--out", str(out)])


# ---------------------------------------------------------------- checks


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _edge_terms(verts: np.ndarray, p: np.ndarray):
    """Per edge: outward unit normal, distance from p to the edge's line,
    and the line integral of 1/|PQ| along the edge.

    The line integral is log((r1 + r2 + L)/(r1 + r2 - L)); the small
    denominator is rewritten as 2 (u x w)^2 / ((r1 r2 - u.w)(r1 + r2 + L))
    so that points close to an edge keep full precision.
    """
    v1 = verts
    v2 = verts[:, [1, 2, 0]]
    u = v1 - p[:, None, :]
    w = v2 - p[:, None, :]
    e = v2 - v1
    length = np.linalg.norm(e, axis=2)
    r1 = np.linalg.norm(u, axis=2)
    r2 = np.linalg.norm(w, axis=2)
    cross = _cross(u, w)
    dot = (u * w).sum(axis=2)
    total = r1 + r2 + length
    ell = np.log(total * total * (r1 * r2 - dot) / (2.0 * cross * cross))
    orient = np.sign(_cross(verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]))
    orient = orient[:, None]
    normal = orient[..., None] * np.stack([e[..., 1], -e[..., 0]], axis=2)
    normal /= length[..., None]
    dist = orient * cross / length
    return normal, dist, ell


def strictly_inside(verts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """True where p lies strictly inside its triangle (own sign test)."""
    v1 = verts
    v2 = verts[:, [1, 2, 0]]
    cross = _cross(v1 - p[:, None, :], v2 - p[:, None, :])
    return np.all(cross > 0, axis=1) | np.all(cross < 0, axis=1)


def field_residual(verts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """|E(p)| * diameter / V(p), with V and E from the boundary forms

        V(P) = sum_edges d_e * l_e,    E(P) = sum_edges n_e * l_e

    (divergence theorem on the polar kernel), independent of the
    library's log-tangent closed forms."""
    normal, dist, ell = _edge_terms(verts, p)
    field = (normal * ell[..., None]).sum(axis=1)
    potential = (dist * ell).sum(axis=1)
    diam = _side_lengths(verts).max(axis=1)
    return np.linalg.norm(field, axis=1) * diam / potential


def check_centers(verts: np.ndarray, results: np.ndarray) -> np.ndarray:
    """Per triangle: the center is strictly inside and the field vanishes
    there to the documented accuracy."""
    centers = results[:, :2]
    finite = np.all(np.isfinite(results), axis=1)
    inside = strictly_inside(verts, centers)
    with np.errstate(all="ignore"):
        resid = field_residual(verts, centers)
    return finite & inside & (resid < FIELD_RESIDUAL_TOL)


def check_reference(tp) -> list[str]:
    """Golden lambda and center of the README's reference triangle."""
    tri = tp.Triangle(*(tp.Point2(x, y) for x, y in REF_VERTICES))
    point, sol = tp.electrostatic_center(tri)
    problems = []
    if abs(sol.lam - REF_LAMBDA) > REF_LAMBDA_RTOL * REF_LAMBDA:
        problems.append(f"reference lambda {sol.lam!r} != {REF_LAMBDA!r}")
    if max(abs(point.x - REF_CENTER[0]), abs(point.y - REF_CENTER[1])) > REF_CENTER_ATOL:
        problems.append(f"reference center ({point.x!r}, {point.y!r}) != {REF_CENTER!r}")
    return problems


def triangle_of(tp, args: tuple):
    """The triangle the CLI builds from an op's arguments."""
    if args[1] == "--sides":
        return tp.triangle_from_sides(*(float(v) for v in args[2].split(",")))
    pts = [tp.Point2(*(float(v) for v in args[k].split(","))) for k in (2, 3, 4)]
    return tp.Triangle(*pts)


@dataclass
class GridCheck:
    passed: bool
    nan_rows: int
    output_bytes: int


def check_grid(tp, args: tuple, out: Path, rng: np.random.Generator) -> GridCheck:
    """n^2 rows, no nan row, and seeded sample interior rows against the
    quadrature oracle (documented to 1e-9 at interior points)."""
    n = int(args[args.index("--n") + 1])
    size = out.stat().st_size
    rows = 0
    nan_rows = 0
    interior = []
    with out.open(encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            rows += 1
            if "nan" in line:
                nan_rows += 1
            elif line.endswith(",1\n"):
                interior.append(line)
    passed = header == "x,y,V,Ex,Ey,inside\n" and rows == n * n and nan_rows == 0
    tri = triangle_of(tp, args)
    picks = rng.choice(len(interior), size=min(GRID_SAMPLE_ROWS, len(interior)),
                       replace=False)
    for k in picks:
        x, y, v = (float(f) for f in interior[k].split(",")[:3])
        try:
            ref = tp.potential_quadrature(tri, tp.Point2(x, y))
        except tp.TripotentialError:
            passed = False
            continue
        if not abs(v - ref) <= ORACLE_RTOL * abs(ref):
            passed = False
    return GridCheck(passed, nan_rows, size)


@dataclass
class ArcCheck:
    points: int
    failed: int
    output_bytes: int


def check_arc(tp, args: tuple, out: Path) -> ArcCheck:
    """Every arc point converged and strictly inside; the p = 2 row is the
    centroid and the p = -1 row the electrostatic center."""
    size = out.stat().st_size
    tri = triangle_of(tp, args)
    verts = np.array([[(v.x, v.y) for v in tri.vertices]])
    diam = float(_side_lengths(verts).max())
    centroid = verts[0].mean(axis=0)
    try:
        center, _ = tp.electrostatic_center(tri)
    except tp.TripotentialError:
        center = None  # the p = -1 row cannot be confirmed, so it fails
    with out.open(encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    steps = int(args[args.index("--steps") + 1])
    points = max(steps, len(lines) - 1)
    failed = points - (len(lines) - 1)
    seen = set()
    for line in lines[1:]:
        p, x, y, _, _, converged, _ = line.split(",")
        p = float(p)
        ok = converged == "1" and x != "" and y != ""
        if ok:
            xy = np.array([float(x), float(y)])
            ok = bool(strictly_inside(verts, xy[None])[0])
            if p == 2.0:
                seen.add(p)
                ok = ok and np.linalg.norm(xy - centroid) < P2_CENTROID_TOL * diam
            elif p == -1.0:
                seen.add(p)
                ok = ok and center is not None and (
                    math.hypot(xy[0] - center.x, xy[1] - center.y)
                    < PM1_CENTER_TOL * diam
                )
        failed += 0 if ok else 1
    # A sweep over [-10, 10] must contain both reference rows.
    failed += 2 - len(seen)
    return ArcCheck(points, failed, size)

