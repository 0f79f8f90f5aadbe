import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripotential import (
    DegenerateTriangle,
    DegenerateTrilinears,
    NotInterior,
    Point2,
    PointLocation,
    SideLengths,
    Triangle,
    Trilinears,
    TripotentialError,
    area,
    cartesian_to_trilinear,
    centroid,
    cevian_angles,
    circumcenter,
    classify_point,
    incenter,
    inradius,
    orthocenter,
    side_lengths,
    triangle_from_sides,
    trilinear_to_cartesian,
    vertex_distances,
)
from tripotential.geometry import heron_area

from conftest import (
    exact_doubled_area,
    make_rng,
    random_interior_point,
    random_triangle,
    transform_point,
    transform_triangle,
)

SQ560 = 23.664319132398465  # sqrt(560), Heron by hand for sides (6, 9, 13)


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)


def test_collinear_vertices_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(Point2(0, 0), Point2(1, 1), Point2(2, 2))


def test_side_lengths_reference_triangle(golden_triangle):
    sl = side_lengths(golden_triangle)
    assert sl.a == pytest.approx(math.sqrt(8), rel=1e-15)
    assert sl.b == pytest.approx(math.sqrt(5), rel=1e-15)
    assert sl.c == pytest.approx(3.0, rel=1e-15)
    assert sl.s == pytest.approx((math.sqrt(8) + math.sqrt(5) + 3) / 2, rel=1e-15)


def test_side_lengths_cached_and_a_needle_refused_at_construction(golden_triangle):
    assert side_lengths(golden_triangle) is side_lengths(golden_triangle)
    # The side lengths are the one validity test: a needle whose sides
    # fail it is refused at construction, in every vertex order.
    needle = (Point2(0, 0), Point2(1, 0), Point2(0.5, 1e-7))
    for perm in itertools.permutations(needle):
        with pytest.raises(DegenerateTriangle):
            Triangle(*perm)


def test_side_lengths_equilateral_any_pose():
    tri = transform_triangle(
        triangle_from_sides(1, 1, 1), angle=0.83, dx=-4.2, dy=1.7
    )
    sl = side_lengths(tri)
    assert sl.a == pytest.approx(1.0, rel=1e-12)
    assert sl.b == pytest.approx(1.0, rel=1e-12)
    assert sl.c == pytest.approx(1.0, rel=1e-12)
    assert sl.s == pytest.approx(1.5, rel=1e-12)


def test_sides_6_9_13_are_constructible():
    # 6 + 9 > 13 holds, so this is a valid (obtuse) triangle.
    sl = SideLengths(6, 9, 13)
    assert sl.s == 14.0
    # a finite semiperimeter whose perimeter exceeds the largest double
    assert SideLengths(0.7e308, 0.7e308, 0.7e308).s == 1.05e308


def test_triangle_from_sides_6_9_13_canonical_pose():
    tri = triangle_from_sides(6, 9, 13)
    A, B, C = tri.vertices
    assert (B.x, B.y) == (0.0, 0.0)
    assert (C.x, C.y) == (6.0, 0.0)
    # Two-circle intersection by hand: x = (a^2 + c^2 - b^2) / 2a = 124/12,
    # y = 2 * area / a = sqrt(560)/3.
    assert A.x == pytest.approx(124.0 / 12.0, rel=1e-14)
    assert A.y == pytest.approx(SQ560 / 3.0, rel=1e-14)


def test_triangle_from_sides_equilateral_height():
    tri = triangle_from_sides(1, 1, 1)
    assert tri.a_vertex.y == pytest.approx(math.sqrt(3) / 2, rel=1e-14)


def test_a_side_beyond_double_range_is_a_range_error():
    # B - A overflows to inf: the shape is fine, the input is out of range
    with pytest.raises(TripotentialError, match="double range") as info:
        Triangle(Point2(-1e308, 0.0), Point2(1e308, 0.0), Point2(0.0, 1e308))
    assert not isinstance(info.value, DegenerateTriangle)
    with pytest.raises(TripotentialError, match="double range") as info:
        SideLengths(1.0, math.inf, math.inf)
    assert not isinstance(info.value, DegenerateTriangle)


def test_triangle_from_sides_degenerate():
    with pytest.raises(DegenerateTriangle):
        triangle_from_sides(1, 1, 2)
    with pytest.raises(DegenerateTriangle):
        triangle_from_sides(1, 1, 2 - 1e-14)
    with pytest.raises(DegenerateTriangle):
        triangle_from_sides(-1, 1, 1)


def test_area_examples(golden_triangle):
    assert area(triangle_from_sides(3, 4, 5)) == pytest.approx(6.0, rel=1e-14)
    assert area(golden_triangle) == pytest.approx(3.0, rel=1e-14)
    assert area(triangle_from_sides(6, 9, 13)) == pytest.approx(SQ560, rel=1e-14)


def test_inradius_examples():
    assert inradius(triangle_from_sides(3, 4, 5)) == pytest.approx(1.0, rel=1e-14)
    assert inradius(triangle_from_sides(1, 1, 1)) == pytest.approx(
        1 / (2 * math.sqrt(3)), rel=1e-14
    )
    assert inradius(triangle_from_sides(6, 9, 13)) == pytest.approx(
        SQ560 / 14.0, rel=1e-14
    )
    # sides near the largest double: this isosceles triangle's
    # semiperimeter exceeds it, its inradius does not
    huge = Triangle(Point2(0.0, 0.0), Point2(1.3e308, 0.0), Point2(0.65e308, 1.1e308))
    leg = math.hypot(0.65, 1.1)
    assert huge.sides.s == math.inf
    assert inradius(huge) == pytest.approx(0.65 * 1.1 / (0.65 + leg) * 1e308, rel=1e-14)
    # its coordinate sums overflow too: the centroid and the incenter's
    # barycentric weights are scaled exactly by powers of two
    g, i = centroid(huge), incenter(huge)
    assert (g.x, g.y) == pytest.approx((0.65e308, 1.1e308 / 3.0), rel=1e-15)
    assert (i.x, i.y) == pytest.approx((0.65e308, inradius(huge)), rel=1e-15)


def test_classify_point(golden_triangle):
    tri = golden_triangle
    assert classify_point(tri, centroid(tri)) is PointLocation.INTERIOR
    assert classify_point(tri, tri.a_vertex) is PointLocation.BOUNDARY
    # reflect the centroid across side AB (the x axis here): y -> -y
    g = centroid(tri)
    assert classify_point(tri, Point2(g.x, -g.y)) is PointLocation.EXTERIOR


def test_classify_point_band_is_min_tau_against_the_diameter():
    # side BC on the x axis from the origin and x = 0.5: tau_a is the height
    # exactly, and the diameter |BC| is 1, so the band's edges are hit to
    # the bit (0.9e-12 lies inside 1e-12 times the diameter, outside 1e-12
    # times the height 0.75 over BC)
    tri = Triangle(Point2(0.375, 0.75), Point2(0.0, 0.0), Point2(1.0, 0.0))
    band = 1e-12
    expected = {
        math.nextafter(band, 1.0): PointLocation.INTERIOR,
        band: PointLocation.BOUNDARY,
        0.9e-12: PointLocation.BOUNDARY,
        0.0: PointLocation.BOUNDARY,
        -band: PointLocation.BOUNDARY,
        math.nextafter(-band, -1.0): PointLocation.EXTERIOR,
    }
    for height, location in expected.items():
        assert cartesian_to_trilinear(tri, Point2(0.5, height)).tau_a == height
        assert classify_point(tri, Point2(0.5, height)) is location, height


def test_orientation_normalized_over_permutations():
    pts = [Point2(-1, 0), Point2(2, 0), Point2(0, 2)]
    reference = sorted(
        (side_lengths(Triangle(*pts)).a,
         side_lengths(Triangle(*pts)).b,
         side_lengths(Triangle(*pts)).c)
    )
    for perm in itertools.permutations(pts):
        tri = Triangle(*perm)
        A, B, C = tri.vertices
        doubled = (B.x - A.x) * (C.y - A.y) - (B.y - A.y) * (C.x - A.x)
        assert doubled > 0  # counterclockwise
        sl = side_lengths(tri)
        assert sorted((sl.a, sl.b, sl.c)) == pytest.approx(reference, rel=1e-15)
        # labels stay consistent with the stored vertex order
        assert sl.a == pytest.approx(B.distance_to(C), rel=1e-15)
        assert sl.b == pytest.approx(C.distance_to(A), rel=1e-15)
        assert sl.c == pytest.approx(A.distance_to(B), rel=1e-15)


def test_heron_matches_cross_product_on_random_triangles():
    rng = make_rng(20240501)
    for _ in range(1000):
        tri = random_triangle(rng)
        assert heron_area(side_lengths(tri)) == pytest.approx(
            area(tri), rel=1e-12
        )


def test_trilinears_incenter_equidistant():
    tri = triangle_from_sides(4, 5, 6)
    tau = cartesian_to_trilinear(tri, incenter(tri))
    rho = inradius(tri)
    assert tau.tau_a == pytest.approx(rho, rel=1e-12)
    assert tau.tau_b == pytest.approx(rho, rel=1e-12)
    assert tau.tau_c == pytest.approx(rho, rel=1e-12)


def test_trilinears_vertex_and_exterior_signs(golden_triangle):
    tri = golden_triangle
    tau = cartesian_to_trilinear(tri, tri.a_vertex)
    assert tau.tau_b == pytest.approx(0.0, abs=1e-14)
    assert tau.tau_c == pytest.approx(0.0, abs=1e-14)
    assert tau.tau_a > 0
    # beyond side BC: reflect the incenter across the line BC
    A, B, C = tri.vertices
    inc = incenter(tri)
    ex, ey = C.x - B.x, C.y - B.y
    t = ((inc.x - B.x) * ex + (inc.y - B.y) * ey) / (ex * ex + ey * ey)
    foot = Point2(B.x + t * ex, B.y + t * ey)
    mirrored = Point2(2 * foot.x - inc.x, 2 * foot.y - inc.y)
    assert cartesian_to_trilinear(tri, mirrored).tau_a < 0


def test_exact_gauge_normalization():
    rng = make_rng(7)
    for _ in range(50):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri)
        tau = cartesian_to_trilinear(tri, p)
        sl = side_lengths(tri)
        gauge = sl.a * tau.tau_a + sl.b * tau.tau_b + sl.c * tau.tau_c
        assert gauge == pytest.approx(2 * area(tri), rel=1e-12)


def test_trilinear_to_cartesian_classical_points():
    tri = triangle_from_sides(4, 5, 6)
    sl = side_lengths(tri)
    inc = trilinear_to_cartesian(tri, Trilinears(1, 1, 1))
    assert inc.distance_to(incenter(tri)) < 1e-14
    g = trilinear_to_cartesian(tri, Trilinears(1 / sl.a, 1 / sl.b, 1 / sl.c))
    assert g.distance_to(centroid(tri)) < 1e-14


def test_trilinear_round_trip_on_random_points():
    rng = make_rng(20240502)
    for _ in range(1000):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri, margin=0.0)
        q = trilinear_to_cartesian(tri, cartesian_to_trilinear(tri, p))
        scale = max(abs(p.x), abs(p.y), 1e-30)
        assert q.distance_to(p) <= 1e-10 * scale


def test_degenerate_trilinears_rejected():
    tri = triangle_from_sides(4, 5, 6)
    sl = side_lengths(tri)
    with pytest.raises(DegenerateTrilinears):
        # on the line at infinity: a*tau_a + b*tau_b + c*tau_c = 0
        trilinear_to_cartesian(tri, Trilinears(1.0, 1.0, -(sl.a + sl.b) / sl.c))
    with pytest.raises(DegenerateTrilinears):
        Trilinears(0.0, 0.0, 0.0)


def test_cevian_angles_equilateral_centroid():
    tri = triangle_from_sides(1, 1, 1)
    ang = cevian_angles(tri, centroid(tri))
    for value in (ang.alpha1, ang.alpha2, ang.beta1, ang.beta2,
                  ang.gamma1, ang.gamma2):
        assert value == pytest.approx(math.pi / 6, rel=1e-12)


def test_cevian_angles_incenter_bisects():
    tri = triangle_from_sides(4, 5, 6)
    ang = cevian_angles(tri, incenter(tri))
    assert ang.alpha1 == pytest.approx(ang.alpha2, rel=1e-12)
    assert ang.beta1 == pytest.approx(ang.beta2, rel=1e-12)
    assert ang.gamma1 == pytest.approx(ang.gamma2, rel=1e-12)


def test_cevian_angle_pair_sums_match_triangle_angles():
    rng = make_rng(20240503)
    for _ in range(200):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri)
        ang = cevian_angles(tri, p)
        sl = side_lengths(tri)
        alpha = math.acos((sl.b**2 + sl.c**2 - sl.a**2) / (2 * sl.b * sl.c))
        beta = math.acos((sl.c**2 + sl.a**2 - sl.b**2) / (2 * sl.c * sl.a))
        gamma = math.pi - alpha - beta
        assert ang.alpha1 + ang.alpha2 == pytest.approx(alpha, abs=1e-12)
        assert ang.beta1 + ang.beta2 == pytest.approx(beta, abs=1e-12)
        assert ang.gamma1 + ang.gamma2 == pytest.approx(gamma, abs=1e-12)


def test_cevian_angles_requires_interior(golden_triangle):
    with pytest.raises(NotInterior):
        cevian_angles(golden_triangle, Point2(10.0, 10.0))
    with pytest.raises(NotInterior):
        cevian_angles(golden_triangle, golden_triangle.a_vertex)


def test_vertex_distances_examples():
    tri = triangle_from_sides(4, 5, 6)  # acute
    o = circumcenter(tri)
    da, db, dc = vertex_distances(tri, o)
    assert da == pytest.approx(db, rel=1e-12)
    assert db == pytest.approx(dc, rel=1e-12)

    sl = side_lengths(tri)
    da, db, dc = vertex_distances(tri, tri.a_vertex)
    assert da == 0.0
    assert db == pytest.approx(sl.c, rel=1e-14)
    assert dc == pytest.approx(sl.b, rel=1e-14)

    eq = triangle_from_sides(1, 1, 1)
    for d in vertex_distances(eq, centroid(eq)):
        assert d == pytest.approx(1 / math.sqrt(3), rel=1e-13)


def test_trilinear_ratios_similarity_invariant():
    rng = make_rng(20240504)
    for _ in range(100):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri)
        angle = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-3, 3, size=2)
        scale = rng.uniform(0.2, 5.0)
        tri2 = transform_triangle(tri, angle, dx, dy, scale)
        p2 = transform_point(p, angle, dx, dy, scale)
        t1 = cartesian_to_trilinear(tri, p).normalized_by_a()
        t2 = cartesian_to_trilinear(tri2, p2).normalized_by_a()
        assert t2[1] == pytest.approx(t1[1], rel=1e-10)
        assert t2[2] == pytest.approx(t1[2], rel=1e-10)


def test_orthocenter_circumcenter_euler_line():
    tri = triangle_from_sides(4, 5, 6)
    g, o, h = centroid(tri), circumcenter(tri), orthocenter(tri)
    # centroid divides OH in ratio 1:2
    assert g.x == pytest.approx((2 * o.x + h.x) / 3, rel=1e-12)
    assert g.y == pytest.approx((2 * o.y + h.y) / 3, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    ax=st.floats(-10, 10), ay=st.floats(-10, 10),
    bx=st.floats(-10, 10), by=st.floats(-10, 10),
    cx=st.floats(-10, 10), cy=st.floats(-10, 10),
)
# needles that pass an area-versus-longest^2 test but not the side slack
@example(ax=0.0, ay=0.0, bx=1.0, by=1.192092896e-07, cx=2.0, cy=0.0)
@example(ax=0.0, ay=0.0, bx=1.0, by=0.0, cx=0.5, cy=1e-7)
def test_constructor_orientation_hypothesis(ax, ay, bx, by, cx, cy):
    # the constructor refuses exactly what SideLengths refuses of the same
    # distances, and stores everything else counterclockwise: the area is
    # positive, exactly (in floats it underflows for sides below ~1e-154)
    A, B, C = Point2(ax, ay), Point2(bx, by), Point2(cx, cy)
    try:
        SideLengths(B.distance_to(C), C.distance_to(A), A.distance_to(B))
    except DegenerateTriangle:
        with pytest.raises(DegenerateTriangle):
            Triangle(A, B, C)
        return
    assert exact_doubled_area(Triangle(A, B, C)) > 0
