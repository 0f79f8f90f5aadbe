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
decides where the field is defined: h_e = u x w / L (u, w from P to
the edge's endpoints), and min h_e over the edges gives both the
interior test and the field's band. Independently, the triangle is the signed
union of the three cones spanned at P by its edges; inside each cone the
radial part of the integral is exact, which leaves the 1D angular
integral of the ray length R(phi), integrated numerically as the
cross-check ``potential_quadrature``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import TooCloseToBoundary, ToleranceNotReached, NotInterior
from .geometry import (
    BOUNDARY_BAND_RTOL,
    Point2,
    Triangle,
    _clears_boundary,
    _cross,
    _side_distances,
    diameter,
)
from .quadrature import _NODES, _WK, integrate_adaptive

__all__ = [
    "FieldVector",
    "potential_closed",
    "potential_quadrature",
    "field_closed",
    "FieldBatch",
    "potential_field_batch",
    "brute_force_max",
]

# The closed-form field rejects interior points within this times the
# diameter of a side line (TooCloseToBoundary, and nan in the batch): next
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


# potential_quadrature's relative target: the closed forms are checked
# against it to 1e-9 and better.
_QUADRATURE_RTOL = 1e-10


def _cones(tri: Triangle, x, y):
    """Per edge, the cone it spans at the point (x, y), floats or numpy
    arrays: (phi_start, delta, cr, ex, ey).

    The cone spans polar angles [phi_start, phi_start + delta], delta
    signed by orientation. (ex, ey) is the edge table's edge vector and cr
    its u x w (u, w from the point to the endpoints) over 2^-e: both are
    world values times 2^-e, in range at every size, and their ray length
    along phi, ``_ray_length(phi, cr, ex, ey)``, is in world units.
    """
    k = tri._scale
    px, py = x * k, y * k
    for x1, y1, x2, y2, ex, ey, _, _, _ in tri._edges:
        ux, uy = x1 - px, y1 - py
        wx, wy = x2 - px, y2 - py
        cr = ux * wy - uy * wx
        delta = np.arctan2(cr, ux * wx + uy * wy)
        yield np.arctan2(uy, ux), delta, cr / k, ex, ey


def _ray_length(phis, cr, ex, ey):
    """Distance from the cone's apex to its edge's line along angle phis."""
    return cr / (np.cos(phis) * ey - np.sin(phis) * ex)


def cone_windows(tri: Triangle, p: Point2):
    """Angular windows of the three edge cones about p.

    Returns a list of (phi_start, delta, R) per non-degenerate cone, where
    the cone spans polar angles [phi_start, phi_start + delta] (delta is
    signed by orientation) and R(phi) is the vectorized distance from p to
    the edge's line along direction phi, in world units. Cones that
    collapse (p at a vertex or on an edge's line, |sin delta| <= 1e-15)
    are omitted; their integral contribution vanishes in the limit.
    """
    return [
        (phi_start, delta, partial(_ray_length, cr=cr, ex=ex, ey=ey))
        for phi_start, delta, cr, ex, ey in _cones(tri, p.x, p.y)
        if abs(math.sin(delta)) > 1e-15
    ]


def _edge_sums(tri: Triangle, p: Point2):
    """(V, Ex, Ey, tau_min, ells) at p from one log per edge.

    With u, w the vectors from p to the edge's endpoints (r1, r2 their
    lengths), the small denominator of l_e is formed without
    cancellation: r1 + r2 - L = 2*m/(r1 + r2 + L) with m = r1*r2 + u.w,
    which equals (u x w)^2/(r1*r2 - u.w) and is computed so when u.w < 0.
    An edge with m = 0 (p on its segment, endpoints included) adds nothing
    to V, the limit of h_e * l_e; its field term diverges and is left out.
    tau_min, the smallest u x w / L, gives the verdicts; ells lists the
    other edges' l_e / L in the edge table's units (1/length times 2^e).
    p is scaled like the edge table, so that no product leaves double
    range, and V and tau_min are scaled back at the end. A far point (see
    ``Triangle._far_quarter_distance``) sees a point charge: V = area / |p - A|,
    no field, tau_min = -inf and no ells.
    """
    quarter = tri._far_quarter_distance(p.x, p.y)
    if quarter:
        return _far_potential(tri, quarter), math.nan, math.nan, -math.inf, []
    k = tri._scale
    px, py = p.x * k, p.y * k
    v = fx = fy = 0.0
    tau_min = math.inf
    ells = []
    for x1, y1, x2, y2, ex, ey, length, _, _ in tri._edges:
        ux, uy = x1 - px, y1 - py
        wx, wy = x2 - px, y2 - py
        cr = ux * wy - uy * wx
        dot = ux * wx + uy * wy
        r1, r2 = math.hypot(ux, uy), math.hypot(wx, wy)
        tau = cr / length
        if tau < tau_min:
            tau_min = tau
        s = r1 + r2 + length
        m = r1 * r2 + dot if dot >= 0.0 else cr * (cr / (r1 * r2 - dot))
        if m == 0.0:
            continue
        ell = math.log(0.5 * s * (s / m)) / length  # l_e / L
        ells.append(ell)
        v += cr * ell
        fx += ey * ell
        fy -= ex * ell
    return v / k, fx, fy, tau_min / k, ells


def _far_potential(tri: Triangle, quarter, ldexp=math.ldexp):
    """area / |p - A| from quarter = |p - A| / 4 (np.ldexp for arrays):
    right to rounding at a far point, whose distance to every point of the
    triangle is |p - A| to 2^-510 relative."""
    e, bx, by, cx, cy = tri._frame
    return ldexp(0.5 * _cross(0.0, 0.0, bx, by, cx, cy) / quarter, 2 * e - 2)


def potential_closed(tri: Triangle, p: Point2) -> float:
    """Potential at p from the boundary form V = sum_e h_e * l_e.

    Valid at every finite point: interior, exterior, and on or next to
    the boundary (an edge's term h_e * l_e tends to 0 on its own segment).
    h_e is negative for an edge whose line separates p from the triangle.
    """
    return _edge_sums(tri, p)[0]


def potential_quadrature(tri: Triangle, p: Point2) -> float:
    """Potential at p by adaptive angular quadrature (the oracle path).

    The radial integral of (1/r) * r dr is exact, so only the 1D integral
    of R(phi) over each edge cone remains; those are integrated
    adaptively to 1e-10 relative. Handles interior, boundary, and
    exterior points (the cone of an edge containing p degenerates and is
    skipped).

    Raises
    ------
    ToleranceNotReached
        If a window misses its error target: at once when its intervals
        at the depth cap alone exceed it (near-poles of R on slivers),
        else when the subdivision budget is spent. The exception carries
        the achieved tolerance.
    """
    windows = cone_windows(tri, p)
    if not windows:
        return 0.0
    # First-pass magnitudes set the absolute error budget per window.
    coarse = sum(abs(delta * ray(phi + 0.5 * delta)) for phi, delta, ray in windows)
    abs_tol = _QUADRATURE_RTOL * coarse / (2.0 * len(windows))

    total = 0.0
    err = 0.0
    for phi_start, delta, ray in windows:
        res = integrate_adaptive(ray, phi_start, phi_start + delta, abs_tol=abs_tol)
        total += float(res.value)
        err += res.error
    achieved = err / abs(total) if total != 0.0 else err
    if achieved > _QUADRATURE_RTOL:
        raise ToleranceNotReached(
            f"angular quadrature reached {achieved:.3e} relative "
            f"(target {_QUADRATURE_RTOL:.3e})",
            achieved=achieved,
            target=_QUADRATURE_RTOL,
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
        If p is interior but within 1e-9 * diameter of a side line.
    """
    _, ex, ey, tau_min, _ = _edge_sums(tri, p)
    diam = diameter(tri)
    if not tau_min > BOUNDARY_BAND_RTOL * diam:
        raise NotInterior(f"field is only defined strictly inside, got {p}")
    if not tau_min > BOUNDARY_EXCLUSION_RTOL * diam:
        raise TooCloseToBoundary(
            f"{p} is within {BOUNDARY_EXCLUSION_RTOL:g} * diameter of the boundary"
        )
    return FieldVector(ex, ey)


class FieldBatch(NamedTuple):
    """Closed-form potential and field at an array of points.

    ``v`` is finite at every point, boundary included; ``ex`` and ``ey``
    are nan exactly where ``field_closed`` raises: outside the interior
    and in the field's exclusion band. The masks carry the same verdicts
    as ``classify_point`` (interior, exterior; neither means the boundary
    band), from the same pass's min tau.
    """

    v: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    interior: np.ndarray
    exterior: np.ndarray


def potential_field_batch(tri: Triangle, x, y) -> FieldBatch:
    """``potential_closed`` and ``field_closed`` over point arrays at once.

    One pass of ``_edge_sums``'s arithmetic, frame scaling included, gives
    V, E and the masks; far points, if the arrays' extremes admit any, take
    the pass at A and then ``_edge_sums``'s point-charge values. Where
    ``field_closed`` would raise, the field is nan. For one point the
    scalar functions are faster.
    """
    k = tri._scale
    px, py = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    A, far = tri.a_vertex, None
    if px.size and py.size and any(  # the extremes hold the farthest offsets
        tri._far_quarter_distance(x, y)
        for x in (px.min(), px.max()) for y in (py.min(), py.max())
    ):
        quarter = np.vectorize(tri._far_quarter_distance)(px, py)
        far = quarter > 0.0
        px, py = np.where(far, A.x, px), np.where(far, A.y, py)
    px, py = px * k, py * k
    v = fx = fy = 0.0
    tau_min = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for x1, y1, x2, y2, ex, ey, length, _, _ in tri._edges:
            ux, uy = x1 - px, y1 - py
            wx, wy = x2 - px, y2 - py
            cr = ux * wy - uy * wx
            dot = ux * wx + uy * wy
            r1, r2 = np.hypot(ux, uy), np.hypot(wx, wy)
            tau_min = np.minimum(tau_min, cr / length)
            s = r1 + r2 + length
            r1r2 = r1 * r2
            m = np.where(dot >= 0.0, r1r2 + dot, cr * (cr / (r1r2 - dot)))
            ell = np.log(0.5 * s * (s / m)) / length
            v = v + np.where(m == 0.0, 0.0, cr * ell)
            fx = fx + ey * ell
            fy = fy - ex * ell
    v, tau_min = v / k, tau_min / k
    if far is not None:
        v = np.where(far, _far_potential(tri, np.where(far, quarter, np.inf), np.ldexp), v)
        tau_min = np.where(far, -np.inf, tau_min)
    diam = diameter(tri)
    has_field = tau_min > BOUNDARY_EXCLUSION_RTOL * diam
    return FieldBatch(
        v,
        np.where(has_field, fx, math.nan),
        np.where(has_field, fy, math.nan),
        tau_min > BOUNDARY_BAND_RTOL * diam,
        tau_min < -BOUNDARY_BAND_RTOL * diam,
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
    for phi0, delta, cr, ex, ey in _cones(tri, px, py):
        phi = (
            phi0[:, None, None]
            + delta[:, None, None]
            * (offsets[None, :, None] + _NODES[None, None, :] / (2.0 * panels))
        )
        ray = _ray_length(phi, cr[:, None, None], ex, ey)
        values += (delta / (2.0 * panels)) * (ray @ _WK).sum(axis=1)
    return values


def _interior_lattice(tri: Triangle, n: int):
    """(x, y) arrays of the strictly interior barycentric lattice points,
    ~n^2/2 of them, row by row, as A + (j(B - A) + k(C - A))/n: relative to
    A, so that no product leaves the double range."""
    i, j = np.mgrid[1:n, 1:n].reshape(2, -1)
    i, j = i[i + j < n], j[i + j < n]
    k = n - i - j
    A, B, C = tri.vertices
    return (A.x + (j * (B.x - A.x) + k * (C.x - A.x)) / n,
            A.y + (j * (B.y - A.y) + k * (C.y - A.y)) / n)


def brute_force_max(tri: Triangle, grid_n: int = 64, refine_iters: int = 6) -> Point2:
    """Locate the potential maximum by grid search plus local refinement.

    Scans a barycentric lattice of about grid_n^2 / 2 strictly interior
    points, then refines around the best point with a 9x9 local grid whose
    extent shrinks by a factor of 4 per round. Fully deterministic; ties
    resolve to the lowest grid index. The result is always interior.
    Every scan runs on the fixed-order composite polar rule (vectorized
    over grid points), which keeps this maximizer independent of the
    closed forms it is used to check.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    if refine_iters < 0:
        raise ValueError("refine_iters must be >= 0")
    diam = diameter(tri)
    margin = 2.0 * BOUNDARY_EXCLUSION_RTOL * diam

    px, py = _interior_lattice(tri, grid_n)
    # argmax takes the first max
    best = int(np.argmax(_potential_quadrature_batch(tri, px, py, 4)))
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
        best = int(np.argmax(_potential_quadrature_batch(tri, px, py, panels)))
        best_x, best_y = float(px[best]), float(py[best])
        extent /= 4.0
    return Point2(best_x, best_y)
