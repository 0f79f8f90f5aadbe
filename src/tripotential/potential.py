"""Electrostatic potential and field of a uniformly charged triangle.

The potential is V(P) = integral over the triangle of 1/|PQ| dQ, with the
physical constants (Coulomb constant, charge density) normalized to 1.

Everything here works through the polar decomposition about the
evaluation point: the triangle is the signed union of the three cones
spanned at P by its edges, and inside each cone the radial part of the
integral is exact. For V that leaves the 1D angular integral of the
ray length R(phi), which has the elementary antiderivative
d * log tan(psi/2) per edge (``potential_closed``) and is also integrated
numerically as an independent cross-check (``potential_quadrature``).
``potential_field_batch`` evaluates the closed forms of V and E over point
arrays with the scalar functions' arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TooCloseToBoundary, ToleranceNotReached, NotInterior
from .geometry import (
    BOUNDARY_BAND_RTOL,
    Point2,
    PointLocation,
    Triangle,
    _distance_to_boundary_array,
    _normalized_edge_heights,
    cevian_angles,
    classify_point,
    diameter,
    distance_to_boundary,
    side_lengths,
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

# Closed forms reject points closer to the boundary than this times the
# diameter: the log tan(psi/2) antiderivative loses all precision there.
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
        cr = ux * wy - uy * wx
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


def _require_off_boundary(tri: Triangle, p: Point2) -> None:
    if distance_to_boundary(tri, p) <= BOUNDARY_EXCLUSION_RTOL * diameter(tri):
        raise TooCloseToBoundary(
            f"{p} is within {BOUNDARY_EXCLUSION_RTOL:g} * diameter of the boundary"
        )


def potential_closed(tri: Triangle, p: Point2) -> float:
    """Potential at p via the per-edge log-tangent antiderivative.

    Valid for interior and exterior points. Each edge cone (p, V1, V2)
    contributes sign * d * [log tan(psi/2)] between its entry and exit
    angles, where d is the distance from p to the edge's line and the
    sign is the cone's orientation; the signed cones sum to the triangle.

    Raises
    ------
    TooCloseToBoundary
        If p is within 1e-9 * diameter of a boundary segment.
    """
    _require_off_boundary(tri, p)
    total = 0.0
    for v1, v2 in tri.edges():
        ux, uy = v1.x - p.x, v1.y - p.y
        wx, wy = v2.x - p.x, v2.y - p.y
        cr = ux * wy - uy * wx
        ru = math.hypot(ux, uy)
        rw = math.hypot(wx, wy)
        if abs(cr) <= 1e-15 * ru * rw:
            continue  # collapsed cone: p on the edge's line, zero measure
        ex, ey = v2.x - v1.x, v2.y - v1.y
        d = abs(cr) / math.hypot(ex, ey)
        # Angles of the cone at the edge's endpoints, in (0, pi).
        theta1 = math.atan2(abs(cr), -(ux * ex + uy * ey))
        theta2 = math.atan2(abs(cr), wx * ex + wy * ey)
        # antiderivative log tan(psi/2) between psi=theta1 and psi=pi-theta2
        piece = math.log(math.tan(0.5 * (math.pi - theta2))) - math.log(
            math.tan(0.5 * theta1)
        )
        total += math.copysign(d, cr) * piece
    return total


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

    Assembles the per-edge antiderivative of the polar field integral;
    the vertex log-distance terms cancel pairwise between adjacent edges,
    leaving one log-tangent-product term per edge directed along that
    edge, rotated by -90 degrees:

        E = -i * sum_edges (unit edge vector) * log(tan(t1/2) tan(t2/2))

    with t1, t2 the angles the point subtends at the edge's endpoints.

    Raises
    ------
    NotInterior
        If p is outside or on the boundary (the field diverges there).
    TooCloseToBoundary
        If p is interior but within 1e-9 * diameter of the boundary.
    """
    if classify_point(tri, p) is not PointLocation.INTERIOR:
        raise NotInterior(f"field is only defined strictly inside, got {p}")
    _require_off_boundary(tri, p)
    ang = cevian_angles(tri, p)
    sl = side_lengths(tri)
    A, B, C = tri.vertices
    a_vec = complex(B.x - C.x, B.y - C.y) / sl.a  # direction of CB
    b_vec = complex(C.x - A.x, C.y - A.y) / sl.b  # direction of AC
    c_vec = complex(A.x - B.x, A.y - B.y) / sl.c  # direction of BA
    log_a = math.log(math.tan(0.5 * ang.beta1) * math.tan(0.5 * ang.gamma2))
    log_b = math.log(math.tan(0.5 * ang.gamma1) * math.tan(0.5 * ang.alpha2))
    log_c = math.log(math.tan(0.5 * ang.alpha1) * math.tan(0.5 * ang.beta2))
    e = -1j * (a_vec * log_a + b_vec * log_b + c_vec * log_c)
    return FieldVector(e.real, e.imag)


class FieldBatch(NamedTuple):
    """Closed-form potential and field at an array of points.

    ``v`` is nan where ``excluded``; ``ex`` and ``ey`` are nan except at
    strictly interior points outside the exclusion band. The masks carry
    the same verdicts as ``classify_point`` (interior, exterior; neither
    means the boundary band) and the exclusion test of the scalar
    closed forms.
    """

    v: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    interior: np.ndarray
    exterior: np.ndarray
    excluded: np.ndarray


def _potential_array(tri: Triangle, x, y):
    """``potential_closed``'s per-edge sum, elementwise, without the
    exclusion test."""
    total = np.zeros(x.shape)
    for v1, v2 in tri.edges():
        ux, uy = v1.x - x, v1.y - y
        wx, wy = v2.x - x, v2.y - y
        cr = ux * wy - uy * wx
        ex, ey = v2.x - v1.x, v2.y - v1.y
        d = np.abs(cr) / math.hypot(ex, ey)
        theta1 = np.arctan2(np.abs(cr), -(ux * ex + uy * ey))
        theta2 = np.arctan2(np.abs(cr), wx * ex + wy * ey)
        piece = np.log(np.tan(0.5 * (math.pi - theta2))) - np.log(
            np.tan(0.5 * theta1)
        )
        collapsed = np.abs(cr) <= 1e-15 * np.hypot(ux, uy) * np.hypot(wx, wy)
        total += np.where(collapsed, 0.0, np.copysign(d, cr) * piece)
    return total


def _field_array(tri: Triangle, x, y):
    """``field_closed``'s per-edge sum, elementwise, at strictly interior
    points; same arithmetic, edge order BC, CA, AB."""
    A, B, C = tri.vertices
    sum_x = sum_y = 0.0
    for v1, v2 in ((B, C), (C, A), (A, B)):
        length = v1.distance_to(v2)
        # angles the point subtends at v1 and at v2, as in cevian_angles
        px, py = x - v1.x, y - v1.y
        qx, qy = v2.x - v1.x, v2.y - v1.y
        t1 = np.arctan2(np.abs(qx * py - qy * px), qx * px + qy * py)
        px, py = x - v2.x, y - v2.y
        qx, qy = v1.x - v2.x, v1.y - v2.y
        t2 = np.arctan2(np.abs(px * qy - py * qx), px * qx + py * qy)
        log_t = np.log(np.tan(0.5 * t1) * np.tan(0.5 * t2))
        sum_x = sum_x + (v1.x - v2.x) / length * log_t
        sum_y = sum_y + (v1.y - v2.y) / length * log_t
    return sum_y, -sum_x


def potential_field_batch(tri: Triangle, x, y) -> FieldBatch:
    """``potential_closed`` and ``field_closed`` over point arrays at once.

    Evaluates the scalar functions' per-edge closed forms with the same
    arithmetic, vectorized over points, so results agree to rounding of
    the elementary functions. Where a scalar function would raise, the
    masks say why and the value is nan. For one point the scalar
    functions are faster.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eta_min = np.minimum.reduce(_normalized_edge_heights(tri, x, y))
    interior = eta_min > BOUNDARY_BAND_RTOL
    exterior = eta_min < -BOUNDARY_BAND_RTOL
    excluded = (
        _distance_to_boundary_array(tri, x, y)
        <= BOUNDARY_EXCLUSION_RTOL * diameter(tri)
    )
    has_field = interior & ~excluded
    ex = np.full(x.shape, math.nan)
    ey = np.full(x.shape, math.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = _potential_array(tri, x, y)
        ex[has_field], ey[has_field] = _field_array(tri, x[has_field], y[has_field])
    v[excluded] = math.nan
    return FieldBatch(v, ex, ey, interior, exterior, excluded)


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
        cr = ux * wy - uy * wx
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


def _interior_beyond(tri: Triangle, x, y, margin: float):
    """Elementwise: ``classify_point`` says interior and
    ``distance_to_boundary`` exceeds margin."""
    eta_min = np.minimum.reduce(_normalized_edge_heights(tri, x, y))
    return (eta_min > BOUNDARY_BAND_RTOL) & (
        _distance_to_boundary_array(tri, x, y) > margin
    )


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
        batch = potential_field_batch(tri, px, py)
        if batch.excluded.any():  # where potential_closed would raise
            raise TooCloseToBoundary(
                f"a scan point is within {BOUNDARY_EXCLUSION_RTOL:g} * diameter "
                "of the boundary"
            )
        return batch.v

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
        keep = _interior_beyond(tri, qx, qy, margin)
        # center first so it wins ties against its own probes
        px = np.concatenate(([best_x], qx[keep]))
        py = np.concatenate(([best_y], qy[keep]))
        panels = 4 if extent > 1e-3 * diam else 8
        best = int(np.argmax(evaluate(px, py, panels)))
        best_x, best_y = float(px[best]), float(py[best])
        extent /= 4.0
    return Point2(best_x, best_y)
