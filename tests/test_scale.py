"""Scale-free evaluation: the lambda path, the Riesz solver, its residuals,
the classical centers and the side-length constructions at triangle sizes
far from 1 and offsets far beyond the diameter (warnings are errors, see
pyproject.toml)."""

import itertools
import math
from dataclasses import astuple

import pytest

from tripotential import (
    Point2,
    PointLocation,
    SideLengths,
    Triangle,
    TripotentialError,
    cartesian_to_trilinear,
    center_function_trilinears,
    centroid,
    cevian_angles,
    circumcenter,
    classify_point,
    diameter,
    electrostatic_center,
    field_closed,
    incenter,
    inradius,
    inversion_first_moment,
    kimberling_search_value,
    lambda_curve,
    orthocenter,
    potential_arc,
    potential_closed,
    potential_field_batch,
    rp_center,
    side_lengths,
    solve_lambda,
    stationarity_residual,
    thomson_residual,
    triangle_from_sides,
    trilinear_to_cartesian,
)
from tripotential.geometry import area, heron_area

from conftest import exact_doubled_area, make_rng, sliver_triangles

EXPONENTS = (-150, -110, -70, 70, 110, 150)
RIESZ_P = (-10.0, -1.0, 0.0, 5.0, 10.0)


def _scaled(k):
    s = 10.0**k
    return Triangle(Point2(0.0, 0.0), Point2(s, 0.0), Point2(0.375 * s, 0.8125 * s))


UNIT = _scaled(0)


@pytest.mark.parametrize("k", EXPONENTS)
def test_rp_center_and_arc_are_scale_free(k):
    s, tri = 10.0**k, _scaled(k)
    for p in RIESZ_P:
        unit = rp_center(UNIT, p).point
        point = rp_center(tri, p).point
        assert math.hypot(point.x / s - unit.x, point.y / s - unit.y) < 1e-14, p
    unit_arc = potential_arc(UNIT, [-2.0, 0.0, 3.0])
    arc = potential_arc(tri, [-2.0, 0.0, 3.0])
    assert [ap.p for ap in arc] == [ap.p for ap in unit_arc]
    for ap, ref in zip(arc, unit_arc):
        assert ap.converged
        assert math.hypot(ap.point.x / s - ref.point.x, ap.point.y / s - ref.point.y) < 1e-12


@pytest.mark.parametrize("k", EXPONENTS)
def test_stationarity_residual_is_scale_covariant(k):
    # the literal integral has length degree p + 1; where its power of
    # 10^k leaves double range (beyond 1e+-300 here, none lies near the
    # edge) the residual must be refused with a typed error, never
    # returned as a false zero or a bare OverflowError
    s, tri = 10.0**k, _scaled(k)
    q = Point2(0.3, 0.2)
    for p in (-4.0, -2.0, -1.0, 0.0, 2.0, 5.0):
        ref = stationarity_residual(UNIT, q, p)
        if abs((p + 1.0) * k) > 300:
            with pytest.raises(TripotentialError):
                stationarity_residual(tri, Point2(q.x * s, q.y * s), p)
            continue
        res = stationarity_residual(tri, Point2(q.x * s, q.y * s), p)
        factor = s ** (p + 1.0)
        assert res.ex / factor == pytest.approx(ref.ex, rel=1e-11, abs=1e-13 * ref.norm())
        assert res.ey / factor == pytest.approx(ref.ey, rel=1e-11, abs=1e-13 * ref.norm())


@pytest.mark.parametrize("k", EXPONENTS)
def test_inversion_first_moment_is_scale_covariant(k):
    # the moment has length degree -3; where 10^(-3k) leaves double range
    # it must be refused with a typed error, never returned as nan or a
    # false zero
    s, tri = 10.0**k, _scaled(k)
    q = Point2(0.3, 0.2)
    ref = inversion_first_moment(UNIT, q)
    if 3 * abs(k) > 300:
        with pytest.raises(TripotentialError):
            inversion_first_moment(tri, Point2(q.x * s, q.y * s))
        return
    moment = inversion_first_moment(tri, Point2(q.x * s, q.y * s))
    assert moment * s**3 == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("k", (-150, -110, 110, 150))
def test_lambda_curve_is_scale_free(k):
    s = 10.0**k
    lams = [0.1, 1.0, 10.0]
    for (lam, point), (_, ref) in zip(lambda_curve(_scaled(k), lams), lambda_curve(UNIT, lams)):
        assert math.hypot(point.x / s - ref.x, point.y / s - ref.y) < 1e-14, lam


@pytest.mark.parametrize("k", EXPONENTS)
def test_thomson_residual_is_scale_free(k):
    s, tri = 10.0**k, _scaled(k)
    for q in (Point2(0.3, 0.2), Point2(0.5, 0.1), centroid(UNIT)):
        ref = thomson_residual(UNIT, q)
        value = thomson_residual(tri, Point2(q.x * s, q.y * s))
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("k", EXPONENTS)
def test_heron_and_triangle_from_sides_are_scale_free(k):
    s = 10.0**k
    tri = triangle_from_sides(4.0 * s, 5.0 * s, 6.0 * s)
    unit = triangle_from_sides(4.0, 5.0, 6.0)
    assert heron_area(side_lengths(tri)) / s / s == pytest.approx(
        heron_area(side_lengths(unit)), rel=1e-14
    )
    assert area(tri) / s / s == pytest.approx(area(unit), rel=1e-14)
    for v, w in zip(tri.vertices, unit.vertices):
        assert v.x / s == pytest.approx(w.x, rel=1e-14, abs=1e-15)
        assert v.y / s == pytest.approx(w.y, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("k", (-150, -110, -100, -80, 80, 100, 110, 150))
def test_electrostatic_center_is_scale_free(k):
    s, tri = 10.0**k, _scaled(k)
    unit, unit_sol = electrostatic_center(UNIT)
    point, sol = electrostatic_center(tri)
    assert math.hypot(point.x / s - unit.x, point.y / s - unit.y) < 1e-12
    assert sol.lam == pytest.approx(unit_sol.lam, rel=1e-12)
    unit_sides, sides = side_lengths(UNIT), side_lengths(tri)
    tau = center_function_trilinears(sides)
    unit_tau = center_function_trilinears(unit_sides)
    for got, ref in zip(
        (tau.tau_a, tau.tau_b, tau.tau_c),
        (unit_tau.tau_a, unit_tau.tau_b, unit_tau.tau_c),
    ):
        assert got / s == pytest.approx(ref, rel=1e-12)
    assert kimberling_search_value(sides) / s == pytest.approx(
        kimberling_search_value(unit_sides), rel=1e-12
    )


def _shape_4_0_1_3(s):
    return Triangle(Point2(0.0, 0.0), Point2(4.0 * s, 0.0), Point2(1.0 * s, 3.0 * s))


def test_electrostatic_center_at_the_range_edge():
    # at 1e-160 the area is subnormal: the solve refuses it by name
    unit, _ = electrostatic_center(_shape_4_0_1_3(1.0))
    tri = _shape_4_0_1_3(1e-150)
    point, _ = electrostatic_center(tri)
    assert math.hypot(point.x - 1e-150 * unit.x, point.y - 1e-150 * unit.y) <= (
        1e-12 * diameter(tri)
    )
    with pytest.raises(TripotentialError, match="area"):
        electrostatic_center(_shape_4_0_1_3(1e-160))


def test_an_area_beyond_double_range_is_a_typed_error():
    for build in (
        lambda: kimberling_search_value(SideLengths(1e155, 1e155, 1e155)),
        lambda: triangle_from_sides(1e155, 1e155, 1e155),
    ):
        with pytest.raises(TripotentialError, match="area"):
            build()


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
    near, moved = _moved(triangle_from_sides(4e-3, 5e-3, 6e-3), 1e12)
    tol = math.ulp(1e12) + 1e-12 * diameter(near)
    for f in (incenter, circumcenter, orthocenter):
        ref, got = f(near), f(moved)
        assert abs(got.x - 1e12 - ref.x) <= tol, f.__name__
        assert abs(got.y - 1e12 - ref.y) <= tol, f.__name__


@pytest.mark.parametrize("k", EXPONENTS)
def test_classical_centers_are_scale_free(k):
    s, tri = 10.0**k, _scaled(k)

    def roundtrip(t):
        return trilinear_to_cartesian(t, cartesian_to_trilinear(t, centroid(t)))

    for f in (incenter, circumcenter, orthocenter, roundtrip):
        point, ref = f(tri), f(UNIT)
        assert math.hypot(point.x / s - ref.x, point.y / s - ref.y) < 1e-14, k


# (0,0), (4,0), (1,3): diameter |BC| = sqrt(18)
_COVARIANCE_SHAPE = ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))


@pytest.mark.parametrize("diameters_out", [0.0, 1e8])
@pytest.mark.parametrize("s", [1.0, 1e160, 1e-160])
def test_vertex_order_covariance(s, diameters_out):
    # every vertex order, scaled by s and moved diameters_out diameters
    # along (1, 1): the stored triangle runs counterclockwise, keeps the
    # first vertex as A, labels every side by its opposite vertex with the
    # same bits, and locates the centroid, a vertex and the centroid
    # reflected across AB the same way. At the centroid, V, E (scalar and
    # batch alike), the inradius and the cevian angles match the unit
    # triangle in the same vertex order, and the area does where it is a
    # double; the coordinates carry ulp(offset), about 2^-52 * diameters_out
    # diameters, which the tolerance allows for.
    shift = diameters_out * math.sqrt(18.0) * s
    pts = [Point2(s * x + shift, s * y + shift) for x, y in _COVARIANCE_SHAPE]
    g = Point2(s * (5.0 / 3.0) + shift, s + shift)
    probes = {
        g: PointLocation.INTERIOR,
        pts[1]: PointLocation.BOUNDARY,
        Point2(g.x, shift - s): PointLocation.EXTERIOR,
    }
    tol = 1e-14 * (1.0 + diameters_out)
    unit_g = Point2(5.0 / 3.0, 1.0)
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
        unit = Triangle(*(Point2(*_COVARIANCE_SHAPE[i]) for i in order))
        v, e, e_unit = potential_closed(tri, g), field_closed(tri, g), field_closed(unit, unit_g)
        batch = potential_field_batch(tri, [g.x], [g.y])
        assert (batch.v[0], batch.ex[0], batch.ey[0]) == (v, e.ex, e.ey)
        assert v / s == pytest.approx(potential_closed(unit, unit_g), rel=tol)
        assert math.hypot(e.ex - e_unit.ex, e.ey - e_unit.ey) <= tol * e_unit.norm()
        assert inradius(tri) / s == pytest.approx(inradius(unit), rel=tol)
        assert astuple(cevian_angles(tri, g)) == pytest.approx(
            astuple(cevian_angles(unit, unit_g)), abs=tol)
        if s > 1.0:  # 6e320
            with pytest.raises(TripotentialError, match="largest double"):
                area(tri)
        else:  # 6e-320 is subnormal
            assert area(tri) == pytest.approx(6.0 * s * s, rel=tol, abs=2.0**-1070)
