"""Scale-free evaluation at triangle sizes far from 1 and offsets far
beyond the diameter (warnings are errors, see pyproject.toml).

The per-function tests probe rows of the contract table of
test_properties.py at sizes 10^k inside the lambda path's exact range,
on their own shapes in their own vertex order: each row matches size 1
there, or raises where its literal value leaves the doubles. The sweep
over every row, shape, order and range edge is in test_properties.py.
The other tests check more than equivariance: the point-charge limit far
out, typed-error messages, the lambda solve bit for bit on slivers,
rp_center's iteration counts, far slivers, vertex labelling and the
edge table."""

import itertools
import math
from dataclasses import astuple

import pytest

from tripotential import (
    NotInterior,
    Point2,
    PointLocation,
    SideLengths,
    Triangle,
    TripotentialError,
    area,
    centroid,
    classify_point,
    diameter,
    distance_to_boundary,
    electrostatic_center,
    field_closed,
    kimberling_search_value,
    potential_closed,
    potential_field_batch,
    potential_quadrature,
    rp_center,
    side_lengths,
    solve_lambda,
    thomson_residual,
    triangle_from_sides,
)

from conftest import exact_doubled_area, make_rng, sliver_triangles
from test_properties import PUBLIC_CALLS, SHAPES, probe

EXPONENTS = (-150, -110, -70, 70, 110, 150)
ACUTE = SHAPES["acute"]
FOUR_FIVE_SIX = [astuple(v) for v in triangle_from_sides(4.0, 5.0, 6.0).vertices]
STATIONARITY = tuple(f"stationarity_residual({p})" for p in (-4, -2, -1, 0, 2, 5))
LAMBDA = [name for name, row in PUBLIC_CALLS.items() if row.lam]


@pytest.mark.parametrize("k", EXPONENTS)
def test_rp_center_and_arc_are_scale_free(k):
    probe(("rp_center(-10)", "rp_center(-1)", "rp_center(0)", "rp_center(5)", "rp_center(10)",
           "potential_arc"), ACUTE, 10.0**k)


@pytest.mark.parametrize("k", EXPONENTS + (-300, -160, 160, 300))
def test_stationarity_residual_is_scale_covariant(k):
    probe(STATIONARITY, ACUTE, 10.0**k,
          raises={name for name in STATIONARITY if abs(PUBLIC_CALLS[name].dim * k) > 300})


@pytest.mark.parametrize("k", EXPONENTS)
def test_inversion_first_moment_is_scale_covariant(k):
    probe(("inversion_first_moment",), ACUTE, 10.0**k,
          raises={"inversion_first_moment"} if 3 * abs(k) > 300 else ())


@pytest.mark.parametrize("k", (-100, 100))
def test_illuminating_spread_is_scale_covariant(k):
    probe(("illuminating_spread",), ACUTE, 2.0**k)  # bit for bit


@pytest.mark.parametrize("k", EXPONENTS + (-300, -160, 160, 300))
def test_stationarity_spreads_are_scale_covariant(k):
    for s in (2.0**k, 10.0**k):  # bit for bit under 2^k
        probe(("stationarity_spreads",), ACUTE, s)


@pytest.mark.parametrize("k", (-150, -110, 110, 150))
def test_lambda_curve_is_scale_free(k):
    probe(("lambda_curve",), ACUTE, 10.0**k)


@pytest.mark.parametrize("k", EXPONENTS)
def test_thomson_residual_is_scale_free(k):
    # at (0.3, 0.2) and (0.5, 0.1); at the centroid, on the cubic, it is 0
    for weights in ((71 / 130, 27 / 130, 32 / 130), (55 / 130, 59 / 130, 16 / 130)):
        probe(("thomson_residual",), ACUTE, 10.0**k, weights=weights)
    tri = Triangle(*(Point2(x * 10.0**k, y * 10.0**k) for x, y in ACUTE))
    assert abs(thomson_residual(tri, centroid(tri))) <= 1e-15


@pytest.mark.parametrize("k", EXPONENTS)
def test_heron_and_triangle_from_sides_are_scale_free(k):
    probe(("triangle_from_sides", "area", "lambda_residual"), FOUR_FIVE_SIX, 10.0**k)


@pytest.mark.parametrize("k", (-150, -110, -100, -80, 80, 100, 110, 150))
def test_electrostatic_center_is_scale_free(k):
    probe(LAMBDA, ACUTE, 10.0**k)


def test_electrostatic_center_at_the_range_edge():
    # at 1e-160 the area is subnormal: the solve refuses it by name
    shape = ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
    probe(LAMBDA, shape, 1e-150)
    probe(LAMBDA, shape, 1e-160, raises=LAMBDA)
    with pytest.raises(TripotentialError, match="area"):
        electrostatic_center(Triangle(*(Point2(1e-160 * x, 1e-160 * y) for x, y in shape)))


def test_an_area_beyond_double_range_is_a_typed_error():
    with pytest.raises(TripotentialError, match="area"):
        kimberling_search_value(SideLengths(1e155, 1e155, 1e155))


_RIGHT = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
_TINY_RIGHT = Triangle(Point2(0.0, 0.0), Point2(1e-300, 0.0), Point2(0.0, 1e-300))


@pytest.mark.parametrize("tri, p, v", [
    (_RIGHT, Point2(1e160, 0.0), 5e-161),
    (_RIGHT, Point2(3e307, 0.0), 0.5 / 3e307),
    (_TINY_RIGHT, Point2(1e10, 1e10), 0.0),  # 3.5e-611 rounds to 0
])
def test_a_far_point_sees_a_point_charge(tri, p, v):
    # more than 2^510 frame units from A the differences' products would
    # leave the double range, and the triangle is a point to double
    # precision: V = area / |P - A|, the point and the field are
    # exterior, and every distance to the triangle is |P - A|
    assert potential_closed(tri, p) == pytest.approx(v, rel=1e-15)
    assert classify_point(tri, p) is PointLocation.EXTERIOR
    with pytest.raises(NotInterior):
        field_closed(tri, p)
    assert distance_to_boundary(tri, p) == pytest.approx(math.hypot(p.x, p.y), rel=1e-15)
    batch = potential_field_batch(tri, [p.x, 0.25 * tri.sides.c], [p.y, 0.25 * tri.sides.b])
    assert batch.v[0] == potential_closed(tri, p)
    assert batch.v[1] == potential_closed(tri, Point2(0.25 * tri.sides.c, 0.25 * tri.sides.b))
    assert math.isnan(batch.ex[0]) and math.isnan(batch.ey[0])
    assert batch.exterior.tolist() == [True, False]
    assert batch.interior.tolist() == [False, True]


def test_a_diameter_below_the_frame_range_is_a_typed_error():
    # the frame's 2^-e would exceed the largest double
    with pytest.raises(TripotentialError, match="2\\^-1024"):
        Triangle(Point2(0.0, 0.0), Point2(1e-310, 0.0), Point2(0.0, 1e-310))


def test_a_distance_past_the_largest_double_is_a_typed_error():
    with pytest.raises(TripotentialError, match="largest double"):
        distance_to_boundary(_RIGHT, Point2(1.7e308, 1.7e308))


def _solution_bits(sides, k):
    """solve_lambda on sides scaled by 2^k, with every length mapped back
    by 2^-k and every area by 2^-2k, or the type and message it raises."""
    scaled = SideLengths(*(math.ldexp(v, k) for v in (sides.a, sides.b, sides.c)))
    try:
        sol = solve_lambda(scaled)
    except TripotentialError as exc:
        return type(exc), str(exc)
    lengths = (sol.u, sol.v, sol.w, sol.r_a, sol.r_b, sol.r_c)
    areas = (*sol.terms, sol.residual)
    return (sol.lam, sol.iterations, *(math.ldexp(v, -k) for v in lengths),
            *(math.ldexp(v, -2 * k) for v in areas))


def test_solve_lambda_is_exactly_equivariant_on_slivers():
    # the Newton step takes the log of the ratio RHS/LHS, the same double
    # at every size, and the slope's length^3 products stay in range
    returned = 0
    for tri in sliver_triangles(make_rng(300), 300, 1e-2):
        sides = side_lengths(tri)
        ref = _solution_bits(sides, 0)
        returned += isinstance(ref[0], float)
        for k in (-300, -3, 1, 300):
            assert _solution_bits(sides, k) == ref, (sides, k)
    assert returned >= 100


def _moved(tri, shift, scale=1.0):
    """(near, moved): tri scaled, moved by (shift, shift) with the rounding
    that brings, and moved back exactly, so that moved = near + shift."""
    moved = Triangle(*(Point2(v.x * scale + shift, v.y * scale + shift) for v in tri.vertices))
    near = Triangle(*(Point2(v.x - shift, v.y - shift) for v in moved.vertices))
    return near, moved


@pytest.mark.parametrize("shift", (1e7, 1e9))
def test_rp_center_is_translation_free(shift):
    # the iteration runs in the frame; in absolute coordinates each
    # iterate was rounded to ulp(shift) and Newton stalled above tol
    near, moved = _moved(triangle_from_sides(4.0, 5.0, 6.0), shift)
    tol = math.ulp(shift) + 1e-12 * diameter(near)
    for p, iterations in ((-4.0, 5), (-1.0, 4), (5.0, 4)):
        ref, rep = rp_center(near, p), rp_center(moved, p)
        assert rep.iterations == ref.iterations == iterations, p
        assert abs(rep.point.x - shift - ref.point.x) <= tol, p
        assert abs(rep.point.y - shift - ref.point.y) <= tol, p


def test_rp_center_matches_the_center_at_huge_scale_far_out():
    s = math.ldexp(1.0, 493)
    _, tri = _moved(triangle_from_sides(4.0, 5.0, 6.0), 6e12 * s, s)
    point, _ = electrostatic_center(tri)
    assert rp_center(tri, -1.0).point.distance_to(point) <= 1e-8 * diameter(tri)


@pytest.mark.parametrize("height, x, k, shift", [
    (1e-6, 0.3, -300, 1e10), (1e-5, 0.1, -300, 1e11),
    (1e-5, 0.5, 300, 1e11), (1e-4, 0.5, 300, 1e12),
])
def test_electrostatic_center_of_a_far_sliver(height, x, k, shift):
    # rounded to ulp(shift), the world point of these slivers' centers
    # falls in the boundary band; interiority is tested on the frame point
    s = math.ldexp(1.0, k)
    base = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(x, height))
    near, moved = _moved(base, shift * s, s)
    ref, _ = electrostatic_center(near)
    point, _ = electrostatic_center(moved)
    tol = 2.0 * math.ulp(shift * s) + 1e-10 * diameter(near)
    assert abs(point.x - shift * s - ref.x) <= tol
    assert abs(point.y - shift * s - ref.y) <= tol


def test_classical_centers_are_translation_free():
    # 4,5,6 scaled by 1e-3, 1e12 out: absolute-coordinate formulas put the
    # circumcenter 8e12 diameters off
    probe(("incenter", "circumcenter", "orthocenter"), FOUR_FIVE_SIX, 1e-3, 1e12 / 6e-3)


@pytest.mark.parametrize("k", EXPONENTS)
def test_classical_centers_are_scale_free(k):
    probe(("incenter", "circumcenter", "orthocenter", "trilinear_to_cartesian"), ACUTE, 10.0**k)


# (0,0), (4,0), (1,3): diameter |BC| = sqrt(18)
_COVARIANCE_SHAPE = ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))


@pytest.mark.parametrize("diameters_out", [0.0, 1e8])
@pytest.mark.parametrize("s", [1.0, 1e160, 1e-160])
def test_vertex_order_covariance(s, diameters_out):
    # every vertex order, scaled by s and moved diameters_out diameters
    # along (1, 1): the stored triangle runs counterclockwise, keeps the
    # first vertex as A, labels every side by its opposite vertex with the
    # same bits, and locates the centroid, a vertex and the centroid
    # reflected across AB the same way. At the centroid the batch gives
    # the scalar V and E bit for bit, and the angular quadrature of V
    # meets its 1e-10 target; the area, 6e+-320, is not a normal double.
    # (The sweep in test_properties holds the values to the unit triangle.)
    shift = diameters_out * math.sqrt(18.0) * s
    pts = [Point2(s * x + shift, s * y + shift) for x, y in _COVARIANCE_SHAPE]
    g = Point2(s * (5.0 / 3.0) + shift, s + shift)
    probes = {
        g: PointLocation.INTERIOR,
        pts[1]: PointLocation.BOUNDARY,
        Point2(g.x, shift - s): PointLocation.EXTERIOR,
    }
    opposite = None
    for order in itertools.permutations(range(3)):
        perm = [pts[i] for i in order]
        tri = Triangle(*perm)
        A, B, C = tri.vertices
        assert exact_doubled_area(tri) > 0
        assert A == perm[0] and {B, C} == set(perm[1:])
        labels = {A: tri.sides.a, B: tri.sides.b, C: tri.sides.c}
        assert labels == {A: B.distance_to(C), B: C.distance_to(A), C: A.distance_to(B)}
        opposite = opposite or labels
        assert labels == opposite
        assert [classify_point(tri, q) for q in probes] == list(probes.values())
        v, e = potential_closed(tri, g), field_closed(tri, g)
        batch = potential_field_batch(tri, [g.x], [g.y])
        assert (batch.v[0], batch.ex[0], batch.ey[0]) == (v, e.ex, e.ey)
        assert abs(potential_quadrature(tri, g) - v) <= 1e-10 * abs(v)
        if s != 1.0:
            with pytest.raises(TripotentialError, match="normal doubles"):
                area(tri)


@pytest.mark.parametrize("diameters_out", [0.0, 1e8])
@pytest.mark.parametrize("s", [1.0, 1e160, 1e-160])
def test_edge_table_rows_are_the_scaled_edges(s, diameters_out):
    # every point-versus-edge pass reads these rows in place of its own
    # scaled differences; that keeps their bits because hypot is
    # equivariant under 2^k, so the length side * 2^-e is the hypot of
    # the scaled edge vector
    shift = diameters_out * math.sqrt(18.0) * s
    pts = [Point2(s * x + shift, s * y + shift) for x, y in _COVARIANCE_SHAPE]
    for order in itertools.permutations(range(3)):
        tri = Triangle(*(pts[i] for i in order))
        k = tri._scale
        assert k == math.ldexp(1.0, -tri._frame[0])
        sides = (tri.sides.c, tri.sides.a, tri.sides.b)
        for (v1, v2), side, row in zip(tri.edges(), sides, tri._edges, strict=True):
            x1, y1, x2, y2, ex, ey, length, ux, uy = row
            assert (x1, y1, x2, y2) == (v1.x * k, v1.y * k, v2.x * k, v2.y * k)
            assert (ex, ey) == (x2 - x1, y2 - y1)
            assert length == math.hypot(ex, ey) == side * k
            assert (ux, uy) == (ex / length, ey / length)
