"""Planar triangle primitives.

Conventions used throughout the package:

* Triangles are stored positively oriented (counterclockwise); the
  constructor normalizes the vertex order, so callers never deal with
  orientation signs.
* Side lengths follow the classical labelling ``a = |BC|``, ``b = |CA|``,
  ``c = |AB|``; angles ``alpha, beta, gamma`` sit at vertices A, B, C.
* Trilinear coordinates from a point (``cartesian_to_trilinear``) are in
  the "exact" gauge: ``tau_a, tau_b, tau_c`` are the actual signed
  distances from the point to sides BC, CA, AB, so that
  ``a*tau_a + b*tau_b + c*tau_c == 2*area``. The center function
  (``center.center_function_trilinears``) keeps the paper's gauge, T_a/a,
  which is twice that: its sum is ``4*area``.
* Computed points and scale-sensitive values come from the triangle's
  local frame: A at the origin, lengths scaled exactly by the power of
  two 2^-e that brings the diameter into [0.5, 1), so nothing overflows
  or underflows at any size and an offset costs only the way back, one
  ``ldexp`` and one add per coordinate (``TripotentialError`` if the
  point is not finite).
* One criterion per decision: a triangle is valid by its side lengths
  (``SideLengths``), and a point is inside by more than m when min tau
  > m, over its signed distances tau = u x w / L to the side lines.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateTriangle, DegenerateTrilinears, NotInterior, TripotentialError,
)

__all__ = [
    "Point2",
    "Triangle",
    "SideLengths",
    "Trilinears",
    "CevianAngles",
    "PointLocation",
    "side_lengths",
    "triangle_from_sides",
    "area",
    "inradius",
    "diameter",
    "distance_to_boundary",
    "classify_point",
    "cartesian_to_trilinear",
    "trilinear_to_cartesian",
    "cevian_angles",
    "vertex_distances",
    "centroid",
    "incenter",
    "circumcenter",
    "orthocenter",
]

# Relative tolerance below which a triangle counts as degenerate: the
# smallest slack of the triangle inequality, min(b + c - a, ...), must
# exceed this times the longest side.
DEGENERACY_RTOL = 1e-12

# Half-width of classify_point's boundary band, times the diameter.
BOUNDARY_BAND_RTOL = 1e-12


@dataclass(frozen=True)
class Point2:
    """A point in the plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got {self}")

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _cross(ox, oy, ax, ay, bx, by, scale=1.0):
    """Twice the signed area of triangle (o, a, b) times scale, a power of
    two that multiplies one factor of each product (exact, and the frame's
    2^-e keeps the products in range); floats or numpy arrays.

    With o a point and (a, b) an edge, this u x w (u, w from the point to
    the endpoints) is the package's one point-versus-edge orientation.
    """
    return (ax - ox) * scale * (by - oy) - (ay - oy) * scale * (bx - ox)


@dataclass(frozen=True)
class Triangle:
    """A non-degenerate, positively oriented triangle.

    Any vertex order may be passed in; the constructor swaps two vertices
    if needed so that (A, B, C) runs counterclockwise. The relabelling is
    consistent: side lengths and angle names follow the stored order.
    Raises DegenerateTriangle if the side lengths fail ``SideLengths``,
    TripotentialError if one exceeds the double range.
    """

    a_vertex: Point2
    b_vertex: Point2
    c_vertex: Point2
    # Side lengths a = |BC|, b = |CA|, c = |AB|, validated at construction.
    sides: "SideLengths" = field(init=False, repr=False, compare=False)
    # The local frame (e, bx, by, cx, cy): B - A and C - A scaled exactly
    # by 2^-e, which brings the diameter into [0.5, 1).
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B, C = self.vertices
        a, b, c = B.distance_to(C), C.distance_to(A), A.distance_to(B)
        e = math.frexp(max(a, b, c))[1]
        bx, by = math.ldexp(B.x - A.x, -e), math.ldexp(B.y - A.y, -e)
        cx, cy = math.ldexp(C.x - A.x, -e), math.ldexp(C.y - A.y, -e)
        if _cross(0.0, 0.0, bx, by, cx, cy) < 0.0:  # normalize to counterclockwise
            object.__setattr__(self, "b_vertex", C)
            object.__setattr__(self, "c_vertex", B)
            b, c, bx, by, cx, cy = c, b, cx, cy, bx, by
        object.__setattr__(self, "sides", SideLengths(a, b, c))
        object.__setattr__(self, "_frame", (e, bx, by, cx, cy))

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        return (self.a_vertex, self.b_vertex, self.c_vertex)

    def edges(self) -> tuple[tuple[Point2, Point2], ...]:
        """Directed edges (A,B), (B,C), (C,A) in counterclockwise order."""
        A, B, C = self.vertices
        return ((A, B), (B, C), (C, A))

    @functools.cached_property
    def _local(self) -> "Triangle":
        """The frame as a triangle, for the solvers that take one."""
        _, bx, by, cx, cy = self._frame
        return Triangle(Point2(0.0, 0.0), Point2(bx, by), Point2(cx, cy))

    def _to_frame(self, p: Point2) -> Point2:
        """p in frame coordinates."""
        e, A = self._frame[0], self.a_vertex
        return Point2(math.ldexp(p.x - A.x, -e), math.ldexp(p.y - A.y, -e))

    def _from_frame(self, x: float, y: float) -> Point2:
        """The point at frame coordinates (x, y); TripotentialError if that
        is not a finite point."""
        e, A = self._frame[0], self.a_vertex
        try:
            return Point2(A.x + math.ldexp(x, e), A.y + math.ldexp(y, e))
        except (OverflowError, ValueError):
            raise TripotentialError(
                f"frame point ({x!r}, {y!r}) times 2^{e} is not a finite point"
            ) from None


@dataclass(frozen=True)
class SideLengths:
    """Side lengths a = |BC|, b = |CA|, c = |AB| with semiperimeter."""

    a: float
    b: float
    c: float
    s: float = field(init=False)

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (0.0 < a and 0.0 < b and 0.0 < c):
            raise DegenerateTriangle(f"side lengths must be positive, got {a}, {b}, {c}")
        if max(a, b, c) == math.inf:
            raise TripotentialError(f"side lengths ({a}, {b}, {c}) exceed the double range")
        slack = min(b + c - a, c + a - b, a + b - c)
        if slack <= DEGENERACY_RTOL * max(a, b, c):
            raise DegenerateTriangle(
                f"sides ({a}, {b}, {c}) violate the strict triangle inequality"
            )
        object.__setattr__(self, "s", 0.5 * (a + b + c))

    @functools.cached_property
    def _roots(self) -> dict:  # lambda solutions by tol, see center._root
        return {}


@dataclass(frozen=True)
class Trilinears:
    """Homogeneous trilinear coordinates; only the ratio is meaningful.

    ``cartesian_to_trilinear`` gives the exact gauge (the actual signed
    distances to the sides, a*tau_a + b*tau_b + c*tau_c = 2*area), which
    makes numerical comparison between construction paths well defined;
    ``center_function_trilinears`` gives the center function T_a/a, twice
    the exact gauge (the sum is 4*area).
    """

    tau_a: float
    tau_b: float
    tau_c: float

    def __post_init__(self):
        if self.tau_a == 0.0 and self.tau_b == 0.0 and self.tau_c == 0.0:
            raise DegenerateTrilinears("all three trilinears are zero")

    def normalized_by_a(self) -> tuple[float, float, float]:
        return (1.0, self.tau_b / self.tau_a, self.tau_c / self.tau_a)


@dataclass(frozen=True)
class CevianAngles:
    """The six angles an interior point P subtends at the vertices.

    ``alpha1 = angle BAP``, ``alpha2 = angle PAC``, and cyclically:
    ``beta1 = angle CBP``, ``beta2 = angle PBA``, ``gamma1 = angle ACP``,
    ``gamma2 = angle PCB``. Pair sums reproduce the triangle's angles.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float


class PointLocation(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def side_lengths(tri: Triangle) -> SideLengths:
    """Side lengths of a triangle, a = |BC|, b = |CA|, c = |AB| (cached on it)."""
    return tri.sides


def triangle_from_sides(a: float, b: float, c: float) -> Triangle:
    """Build the canonical-pose triangle with the given side lengths.

    The pose is fixed for reproducibility: B at the origin, C at (a, 0),
    and A in the upper half-plane at distance c from B and b from C.

    Raises
    ------
    DegenerateTriangle
        If the strict triangle inequality fails (within relative
        tolerance 1e-12).
    TripotentialError
        If the area exceeds the largest double (``heron_area``).
    """
    sides = SideLengths(a, b, c)  # validates the triangle inequality
    x_a = (a * a + c * c - b * b) / (2.0 * a)
    # Height via the numerically stable Heron form rather than sqrt(c^2-x^2).
    y_a = 2.0 * heron_area(sides) / a
    return Triangle(Point2(x_a, y_a), Point2(0.0, 0.0), Point2(a, 0.0))


def area(tri: Triangle) -> float:
    """Area of the triangle: half the frame's cross product, times 4^e.

    Raises
    ------
    TripotentialError
        If the area exceeds the largest double.
    """
    e, bx, by, cx, cy = tri._frame
    return _area_from_frame(0.5 * _cross(0.0, 0.0, bx, by, cx, cy), e)


def _area_from_frame(unit: float, e: int) -> float:
    """An area measured in a frame scaled by 2^-e, in world units."""
    try:
        return math.ldexp(unit, 2 * e)
    except OverflowError:
        raise TripotentialError(
            f"the area {unit!r} * 2**{2 * e} exceeds the largest double"
        ) from None


def heron_area(sides: SideLengths) -> float:
    """Area from side lengths alone, sqrt(s(s-a)(s-b)(s-c)).

    Kahan's ordering keeps Heron stable for needle triangles. The sides
    are scaled by the power of two 2^-e that brings the longest into
    [0.5, 1), which is exact, so the product of the four side-sized
    factors neither overflows nor underflows at any triangle size.

    Raises
    ------
    TripotentialError
        If the area itself exceeds the largest double.
    """
    e = math.frexp(max(sides.a, sides.b, sides.c))[1]
    x, y, z = sorted(
        (math.ldexp(sides.a, -e), math.ldexp(sides.b, -e), math.ldexp(sides.c, -e)),
        reverse=True,
    )
    unit = 0.25 * math.sqrt(
        (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    )
    return _area_from_frame(unit, e)


def inradius(tri: Triangle) -> float:
    """Radius of the inscribed circle, area / semiperimeter, in the frame."""
    e, bx, by, cx, cy = tri._frame
    unit = 0.5 * _cross(0.0, 0.0, bx, by, cx, cy) / math.ldexp(tri.sides.s, -e)
    return math.ldexp(unit, e)


def diameter(tri: Triangle) -> float:
    """Longest side; the natural length scale for relative tolerances."""
    sl = side_lengths(tri)
    return max(sl.a, sl.b, sl.c)


def distance_to_boundary(tri: Triangle, p: Point2) -> float:
    """Euclidean distance from p to the triangle's boundary (3 segments):
    per edge, with u, w from p to its endpoints and e = w - u, |u| if
    u.e >= 0, |w| if w.e <= 0, else |u x w| / |e|. Margin tests use
    ``_clears_boundary`` (min tau) instead."""
    dist = math.inf
    for v1, v2 in tri.edges():
        ux, uy = v1.x - p.x, v1.y - p.y
        wx, wy = v2.x - p.x, v2.y - p.y
        ex, ey = v2.x - v1.x, v2.y - v1.y
        if ux * ex + uy * ey >= 0.0:
            dist = min(dist, math.hypot(ux, uy))
        elif wx * ex + wy * ey <= 0.0:
            dist = min(dist, math.hypot(wx, wy))
        else:
            dist = min(dist, abs(ux * wy - uy * wx) / math.hypot(ex, ey))
    return dist


def classify_point(tri: Triangle, p: Point2) -> PointLocation:
    """Locate p by its smallest signed distance to the side lines, min tau:
    Interior above BOUNDARY_BAND_RTOL * diameter, Exterior below minus
    that, Boundary in between."""
    tau_min = min(_side_distances(tri, p.x, p.y))
    band = BOUNDARY_BAND_RTOL * diameter(tri)
    if tau_min > band:
        return PointLocation.INTERIOR
    return PointLocation.EXTERIOR if tau_min < -band else PointLocation.BOUNDARY


def _side_distances(tri: Triangle, x, y):
    """Signed distances (tau_a, tau_b, tau_c) of (x, y) to the side lines
    BC, CA, AB: per side u x w over its length, both scaled exactly by the
    frame's 2^-e so that no product leaves double range. Floats or numpy
    arrays."""
    A, B, C = tri.vertices
    sl = tri.sides
    k = math.ldexp(1.0, -tri._frame[0])
    return (
        _cross(x, y, B.x, B.y, C.x, C.y, k) / (k * sl.a),
        _cross(x, y, C.x, C.y, A.x, A.y, k) / (k * sl.b),
        _cross(x, y, A.x, A.y, B.x, B.y, k) / (k * sl.c),
    )


def _clears_boundary(tau, margin):
    """min tau > margin, for trilinears tau from ``_side_distances``: inside
    and more than margin > 1e-12 * diameter from the boundary, since from
    inside the nearest boundary point lies on the nearest side line."""
    tau_a, tau_b, tau_c = tau
    return (tau_a > margin) & (tau_b > margin) & (tau_c > margin)


def cartesian_to_trilinear(tri: Triangle, p: Point2) -> Trilinears:
    """Exact-gauge trilinears: signed distances from p to sides BC, CA, AB,
    each u x w over the side's length (accurate next to a vertex too)."""
    return Trilinears(*_side_distances(tri, p.x, p.y))


def trilinear_to_cartesian(tri: Triangle, t: Trilinears) -> Point2:
    """Cartesian point for trilinears t (any gauge).

    Uses the fact that (a*tau_a : b*tau_b : c*tau_c) are barycentric
    coordinates; with A at the frame's origin only B and C weigh in.

    Raises
    ------
    DegenerateTrilinears
        If a*tau_a + b*tau_b + c*tau_c vanishes (point at infinity).
    """
    _, bx, by, cx, cy = tri._frame
    sl = side_lengths(tri)
    wa, wb, wc = sl.a * t.tau_a, sl.b * t.tau_b, sl.c * t.tau_c
    den = wa + wb + wc
    scale = abs(wa) + abs(wb) + abs(wc)
    if abs(den) <= 1e-14 * scale:
        raise DegenerateTrilinears(f"barycentric normalizer vanishes for {t}")
    return tri._from_frame((wb * bx + wc * cx) / den, (wb * by + wc * cy) / den)


def _angle_between(ux, uy, vx, vy) -> float:
    """Unsigned angle in (0, pi) between two nonzero vectors."""
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def cevian_angles(tri: Triangle, p: Point2) -> CevianAngles:
    """The six vertex angles subtended by a strictly interior point.

    Raises
    ------
    NotInterior
        If p is on the boundary or outside.
    """
    if classify_point(tri, p) is not PointLocation.INTERIOR:
        raise NotInterior(f"{p} is not strictly inside the triangle")
    # every coordinate scaled exactly by the frame's 2^-e, so that the
    # differences' products stay in range
    k = math.ldexp(1.0, -tri._frame[0])
    (ax, ay), (bx, by), (cx, cy), (px, py) = (
        (q.x * k, q.y * k) for q in (*tri.vertices, p)
    )
    return CevianAngles(
        alpha1=_angle_between(bx - ax, by - ay, px - ax, py - ay),
        alpha2=_angle_between(px - ax, py - ay, cx - ax, cy - ay),
        beta1=_angle_between(cx - bx, cy - by, px - bx, py - by),
        beta2=_angle_between(px - bx, py - by, ax - bx, ay - by),
        gamma1=_angle_between(ax - cx, ay - cy, px - cx, py - cy),
        gamma2=_angle_between(px - cx, py - cy, bx - cx, by - cy),
    )


def vertex_distances(tri: Triangle, p: Point2) -> tuple[float, float, float]:
    """Distances (|PA|, |PB|, |PC|) from p to the three vertices."""
    A, B, C = tri.vertices
    return (p.distance_to(A), p.distance_to(B), p.distance_to(C))


def centroid(tri: Triangle) -> Point2:
    A, B, C = tri.vertices
    return Point2((A.x + B.x + C.x) / 3.0, (A.y + B.y + C.y) / 3.0)


def incenter(tri: Triangle) -> Point2:
    return trilinear_to_cartesian(tri, Trilinears(1.0, 1.0, 1.0))


def circumcenter(tri: Triangle) -> Point2:
    _, bx, by, cx, cy = tri._frame
    d = 2.0 * (bx * cy - by * cx)
    sb, sc = bx * bx + by * by, cx * cx + cy * cy
    return tri._from_frame((cy * sb - by * sc) / d, (bx * sc - cx * sb) / d)


def orthocenter(tri: Triangle) -> Point2:
    # With A at the origin, H . (C - B) = 0 and (H - B) . C = 0.
    _, bx, by, cx, cy = tri._frame
    k = (bx * cx + by * cy) / (bx * cy - by * cx)
    return tri._from_frame((cy - by) * k, (bx - cx) * k)
