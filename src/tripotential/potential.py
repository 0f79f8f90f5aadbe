"""Electrostatic potential and field of a uniformly charged triangle.

The potential is V(P) = integral over the triangle of 1/|PQ| dQ, with the
physical constants (Coulomb constant, charge density) normalized to 1.

The closed forms are boundary forms (divergence theorem). Each edge e,
of length L and with endpoints at distances r1, r2 from P, contributes
one logarithm, the line integral of 1/|PQ| along it:

    l_e = log((r1 + r2 + L) / (r1 + r2 - L)),

and with h_e the signed distance from P to the edge's line (positive on
the triangle's side) and n_e the outward unit normal,

    V = sum_e h_e * l_e,        E = -grad V = sum_e n_e * l_e

(the classical polygon potential integrals; Wilton et al., IEEE TAP
32(3), 1984). ``potential_closed`` and ``field_closed`` evaluate them at
one point, ``potential_field_batch`` over point arrays. The same pass
decides where the field is defined: h_e L = u x w (u, w from P to the
edge's endpoints) gives the interior test, and r1, r2 or |u x w|/L the
distance to the boundary. Independently, the triangle is the signed
union of the three cones spanned at P by its edges; inside each cone the
radial part of the integral is exact, which leaves the 1D angular
integral of the ray length R(phi), integrated numerically as the
cross-check ``potential_quadrature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TooCloseToBoundary, ToleranceNotReached, NotInterior
from .geometry import (
    Point2,
    Triangle,
    _clears_boundary,
    _cross,
    _locate,
    _side_distances,
    diameter,
)
from .quadrature import _NODES, _WK, integrate_adaptive

__all__ = [
    "FieldVector",
    "QuadratureConfig",
    "potential_closed",
    "potential_quadrature",
    "field_closed",
    "FieldBatch",
    "potential_field_batch",
    "brute_force_max",
]

# The closed-form field rejects points closer to the boundary than this
# times the diameter (TooCloseToBoundary, and the ``excluded`` mask): next
# to the middle of an edge E is only as accurate as the rounded u x w.
# The potential has no band; it is continuous across the boundary and
# evaluated in closed form everywhere.
BOUNDARY_EXCLUSION_RTOL = 1e-9


@dataclass(frozen=True)
class FieldVector:
    """A 2D field value (potential per unit length)."""

    ex: float
    ey: float

    def norm(self) -> float:
        return math.hypot(self.ex, self.ey)


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the adaptive angular quadrature."""

    target_rel_tol: float = 1e-10
    max_subdivisions: int = 20

    def __post_init__(self):
        if not 0.0 < self.target_rel_tol <= 1e-2:
            raise ValueError(
                f"target_rel_tol must be in (0, 1e-2], got {self.target_rel_tol}"
            )
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def cone_windows(tri: Triangle, p: Point2):
    """Angular windows of the three edge cones about p.

    Returns a list of (phi_start, delta, R) per non-degenerate cone, where
    the cone spans polar angles [phi_start, phi_start + delta] (delta is
    signed by orientation) and R(phi) is the vectorized distance from p to
    the edge's line along direction phi. Cones that collapse (p at a
    vertex or on an edge's line) are omitted; their integral contribution
    vanishes in the limit.
    """
    windows = []
    for v1, v2 in tri.edges():
        ux, uy = v1.x - p.x, v1.y - p.y
        wx, wy = v2.x - p.x, v2.y - p.y
        cr = _cross(p.x, p.y, v1.x, v1.y, v2.x, v2.y)
        ru = math.hypot(ux, uy)
        rw = math.hypot(wx, wy)
        if ru == 0.0 or rw == 0.0 or abs(cr) <= 1e-15 * ru * rw:
            continue
        delta = math.atan2(cr, ux * wx + uy * wy)
        phi_start = math.atan2(uy, ux)
        ex, ey = v2.x - v1.x, v2.y - v1.y

        def ray_length(phis, ex=ex, ey=ey, cu=cr):
            return cu / (np.cos(phis) * ey - np.sin(phis) * ex)

        windows.append((phi_start, delta, ray_length))
    return windows


def _edge_sums(tri: Triangle, p: Point2):
    """(V, Ex, Ey, cr_min, dist) at p from one log per edge.

    With u, w the vectors from p to the edge's endpoints (r1, r2 their
    lengths), the small denominator of l_e is formed without
    cancellation: r1 + r2 - L = 2*m/(r1 + r2 + L) with m = r1*r2 + u.w,
    which equals (u x w)^2/(r1*r2 - u.w) and is computed so when u.w < 0.
    An edge with m = 0 (p on its segment, endpoints included) adds nothing
    to V, the limit of h_e * l_e; its field term diverges and is left out.
    cr_min (the smallest u x w) and dist decide ``field_closed``'s verdicts.
    """
    v = fx = fy = 0.0
    cr_min = dist = math.inf
    for v1, v2 in tri.edges():
        ux, uy = v1.x - p.x, v1.y - p.y
        wx, wy = v2.x - p.x, v2.y - p.y
        cr = ux * wy - uy * wx
        dot = ux * wx + uy * wy
        r1, r2 = math.hypot(ux, uy), math.hypot(wx, wy)
        ex, ey = v2.x - v1.x, v2.y - v1.y
        length = math.hypot(ex, ey)
        # the distance to the edge's segment, as in distance_to_boundary
        d = r1 if ux * ex + uy * ey >= 0.0 else (
            r2 if wx * ex + wy * ey <= 0.0 else abs(cr) / length
        )
        if d < dist:
            dist = d
        if cr < cr_min:
            cr_min = cr
        s = r1 + r2 + length
        m = r1 * r2 + dot if dot >= 0.0 else cr * (cr / (r1 * r2 - dot))
        if m == 0.0:
            continue
        ell = math.log(0.5 * s * (s / m)) / length  # l_e / L
        v += cr * ell
        fx += ey * ell
        fy -= ex * ell
    return v, fx, fy, cr_min, dist


def potential_closed(tri: Triangle, p: Point2) -> float:
    """Potential at p from the boundary form V = sum_e h_e * l_e.

    Valid at every finite point: interior, exterior, and on or next to
    the boundary (an edge's term h_e * l_e tends to 0 on its own segment).
    h_e is negative for an edge whose line separates p from the triangle.
    """
    return _edge_sums(tri, p)[0]


def potential_quadrature(
    tri: Triangle, p: Point2, cfg: QuadratureConfig | None = None
) -> float:
    """Potential at p by adaptive angular quadrature (the oracle path).

    The radial integral of (1/r) * r dr is exact, so only the 1D integral
    of R(phi) over each edge cone remains; those are integrated
    adaptively. Handles interior, boundary, and exterior points (the cone
    of an edge containing p degenerates and is skipped).

    Raises
    ------
    ToleranceNotReached
        If the subdivision budget is exhausted before the target relative
        tolerance; the exception carries the achieved tolerance.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    windows = cone_windows(tri, p)
    if not windows:
        return 0.0
    # First-pass magnitudes set the absolute error budget per window.
    coarse = 0.0
    for phi_start, delta, ray in windows:
        est = abs(delta) * float(ray(np.array([phi_start + 0.5 * delta]))[0])
        coarse += abs(est)
    abs_tol = cfg.target_rel_tol * coarse / (2.0 * len(windows))

    total = 0.0
    err = 0.0
    for phi_start, delta, ray in windows:
        res = integrate_adaptive(
            ray,
            phi_start,
            phi_start + delta,
            abs_tol=abs_tol,
            max_depth=cfg.max_subdivisions,
        )
        total += float(res.value.real if np.iscomplexobj(res.value) else res.value)
        err += res.error
    achieved = err / abs(total) if total != 0.0 else err
    if achieved > cfg.target_rel_tol:
        raise ToleranceNotReached(
            f"angular quadrature reached {achieved:.3e} relative "
            f"(target {cfg.target_rel_tol:.3e})",
            achieved=achieved,
            target=cfg.target_rel_tol,
        )
    return total


def field_closed(tri: Triangle, p: Point2) -> FieldVector:
    """Field E = -grad V at a strictly interior point, in closed form.

    E = sum_e n_e * l_e with n_e the outward unit normal of edge e: the
    same pass over the edges as ``potential_closed``, which also decides:

    Raises
    ------
    NotInterior
        If p is outside or on the boundary (the field diverges there).
    TooCloseToBoundary
        If p is interior but within 1e-9 * diameter of the boundary.
    """
    _, ex, ey, cr_min, dist = _edge_sums(tri, p)
    if not _locate(tri, cr_min)[0]:
        raise NotInterior(f"field is only defined strictly inside, got {p}")
    if dist <= BOUNDARY_EXCLUSION_RTOL * diameter(tri):
        raise TooCloseToBoundary(
            f"{p} is within {BOUNDARY_EXCLUSION_RTOL:g} * diameter of the boundary"
        )
    return FieldVector(ex, ey)


class FieldBatch(NamedTuple):
    """Closed-form potential and field at an array of points.

    ``v`` is finite at every point, boundary included; ``ex`` and ``ey``
    are nan except at strictly interior points outside the field's
    exclusion band. The masks carry the same verdicts as
    ``classify_point`` (interior, exterior; neither means the boundary
    band) and the exclusion test of ``field_closed``, from the same pass.
    """

    v: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    interior: np.ndarray
    exterior: np.ndarray
    excluded: np.ndarray


def potential_field_batch(tri: Triangle, x, y) -> FieldBatch:
    """``potential_closed`` and ``field_closed`` over point arrays at once.

    One pass of ``_edge_sums``'s arithmetic gives V, E and the masks. Where
    ``field_closed`` would raise, the masks say why and the field is nan.
    For one point the scalar functions are faster.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = fx = fy = 0.0
    cr_min = dist = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for v1, v2 in tri.edges():
            ux, uy = v1.x - x, v1.y - y
            wx, wy = v2.x - x, v2.y - y
            cr = ux * wy - uy * wx
            dot = ux * wx + uy * wy
            r1, r2 = np.hypot(ux, uy), np.hypot(wx, wy)
            ex, ey = v2.x - v1.x, v2.y - v1.y
            length = math.hypot(ex, ey)
            d = np.where(
                ux * ex + uy * ey >= 0.0,
                r1,
                np.where(wx * ex + wy * ey <= 0.0, r2, np.abs(cr) / length),
            )
            cr_min, dist = np.minimum(cr_min, cr), np.minimum(dist, d)
            s = r1 + r2 + length
            r1r2 = r1 * r2
            m = np.where(dot >= 0.0, r1r2 + dot, cr * (cr / (r1r2 - dot)))
            ell = np.log(0.5 * s * (s / m)) / length
            v = v + np.where(m == 0.0, 0.0, cr * ell)
            fx = fx + ey * ell
            fy = fy - ex * ell
    interior, exterior = _locate(tri, cr_min)
    excluded = dist <= BOUNDARY_EXCLUSION_RTOL * diameter(tri)
    has_field = interior & ~excluded
    return FieldBatch(
        v,
        np.where(has_field, fx, math.nan),
        np.where(has_field, fy, math.nan),
        interior,
        exterior,
        excluded,
    )


def _potential_quadrature_batch(tri: Triangle, px, py, panels: int):
    """Composite Kronrod-15 polar quadrature at many strictly interior
    points at once.

    Fixed-order version of ``potential_quadrature`` (same cone
    decomposition, `panels` equal sub-panels per window) vectorized over
    points; used for grid scans where per-point adaptivity would dominate
    the runtime. On interior windows the composite rule is accurate to
    roughly 1e-9 (4 panels) / 1e-12 (8 panels) relative.
    """
    offsets = (np.arange(panels) + 0.5) / panels
    values = np.zeros_like(px)
    for v1, v2 in tri.edges():
        ux, uy = v1.x - px, v1.y - py
        wx, wy = v2.x - px, v2.y - py
        cr = _cross(px, py, v1.x, v1.y, v2.x, v2.y)
        delta = np.arctan2(cr, ux * wx + uy * wy)
        phi0 = np.arctan2(uy, ux)
        ex, ey = v2.x - v1.x, v2.y - v1.y
        phi = (
            phi0[:, None, None]
            + delta[:, None, None]
            * (offsets[None, :, None] + _NODES[None, None, :] / (2.0 * panels))
        )
        ray = cr[:, None, None] / (np.cos(phi) * ey - np.sin(phi) * ex)
        values += (delta / (2.0 * panels)) * (ray @ _WK).sum(axis=1)
    return values


def _interior_lattice(tri: Triangle, n: int):
    """Strictly interior barycentric lattice points, ~n^2/2 of them."""
    A, B, C = tri.vertices
    points = []
    for i in range(1, n):
        for j in range(1, n - i):
            k = n - i - j
            points.append(
                Point2(
                    (i * A.x + j * B.x + k * C.x) / n,
                    (i * A.y + j * B.y + k * C.y) / n,
                )
            )
    return points


def brute_force_max(
    tri: Triangle,
    grid_n: int = 64,
    refine_iters: int = 6,
    *,
    evaluator: str = "closed",
) -> Point2:
    """Locate the potential maximum by grid search plus local refinement.

    Scans a barycentric lattice of about grid_n^2 / 2 strictly interior
    points, then refines around the best point with a 9x9 local grid whose
    extent shrinks by a factor of 4 per round. Fully deterministic; ties
    resolve to the lowest grid index. The result is always interior.

    Parameters
    ----------
    evaluator : {"closed", "quadrature"}
        Which potential evaluation backs the scan. The quadrature mode
        uses the fixed-order composite polar rule (vectorized over grid
        points), keeping this maximizer independent of the closed forms
        it is used to check.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    if evaluator not in ("closed", "quadrature"):
        raise ValueError(f"unknown evaluator {evaluator!r}")
    diam = diameter(tri)
    margin = 2.0 * BOUNDARY_EXCLUSION_RTOL * diam

    def evaluate(px, py, panels):
        if evaluator == "quadrature":
            return _potential_quadrature_batch(tri, px, py, panels)
        return potential_field_batch(tri, px, py).v

    lattice = _interior_lattice(tri, grid_n)
    px = np.array([q.x for q in lattice])
    py = np.array([q.y for q in lattice])
    best = int(np.argmax(evaluate(px, py, 4)))  # argmax takes the first max
    best_x, best_y = float(px[best]), float(py[best])

    extent = diam / grid_n
    # the 9x9 local grid row by row, without its center
    dx, dy = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))
    probe = (dx != 0.0) | (dy != 0.0)
    dx, dy = dx[probe], dy[probe]
    for _ in range(refine_iters):
        qx, qy = best_x + dx * extent, best_y + dy * extent
        keep = _clears_boundary(_side_distances(tri, qx, qy), margin)
        # center first so it wins ties against its own probes
        px = np.concatenate(([best_x], qx[keep]))
        py = np.concatenate(([best_y], qy[keep]))
        panels = 4 if extent > 1e-3 * diam else 8
        best = int(np.argmax(evaluate(px, py, panels)))
        best_x, best_y = float(px[best]), float(py[best])
        extent /= 4.0
    return Point2(best_x, best_y)
