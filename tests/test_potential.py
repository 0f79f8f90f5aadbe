import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tripotential import (
    NotInterior,
    Point2,
    ToleranceNotReached,
    TooCloseToBoundary,
    Triangle,
    area,
    brute_force_max,
    cartesian_to_trilinear,
    centroid,
    classify_point,
    diameter,
    distance_to_boundary,
    field_closed,
    incenter,
    potential_closed,
    potential_field_batch,
    potential_quadrature,
    triangle_from_sides,
    PointLocation,
)
from tripotential.potential import BOUNDARY_EXCLUSION_RTOL

from conftest import (
    GOLDEN_CENTER,
    make_rng,
    random_interior_point,
    random_sides,
    random_triangle,
    transform_point,
    transform_triangle,
)

# Unit equilateral triangle, potential at the centroid: each side
# contributes rho * 2 * log cot(pi/12), so V = sqrt(3) * log(2 + sqrt(3)).
V_EQUILATERAL_CENTROID = 2.2810379889028387


def test_closed_equilateral_centroid_value():
    tri = triangle_from_sides(1, 1, 1)
    v = potential_closed(tri, centroid(tri))
    assert v == pytest.approx(V_EQUILATERAL_CENTROID, rel=1e-14)


def test_closed_matches_quadrature_on_random_points():
    rng = make_rng(101)
    for _ in range(25):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri, margin=0.005)
        vc = potential_closed(tri, p)
        vq = potential_quadrature(tri, p)
        assert vc == pytest.approx(vq, rel=1e-10)


def test_closed_matches_quadrature_exterior():
    rng = make_rng(102)
    for _ in range(10):
        tri = random_triangle(rng)
        g = centroid(tri)
        d = diameter(tri)
        angle = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.8, 3.0) * d
        p = Point2(g.x + r * math.cos(angle), g.y + r * math.sin(angle))
        if classify_point(tri, p) is not PointLocation.EXTERIOR:
            continue
        if distance_to_boundary(tri, p) < 0.05 * d:
            continue
        assert potential_closed(tri, p) == pytest.approx(
            potential_quadrature(tri, p), rel=1e-9
        )


def test_far_field_monopole_limit(golden_triangle):
    tri = golden_triangle
    g = centroid(tri)
    last = math.inf
    for dist in (1e2, 1e3, 1e4):
        p = Point2(g.x + dist / math.sqrt(2), g.y + dist / math.sqrt(2))
        ratio = potential_closed(tri, p) * p.distance_to(g) / area(tri)
        deviation = abs(ratio - 1.0)
        assert deviation < 10.0 / dist**2 + 1e-11
        assert deviation < last
        last = deviation


def test_far_field_uniform_bound():
    # V(P) <= 4R arcsin(R / (dist(P, T) - R)) for any disk of radius R
    # around a fixed interior point that contains the triangle.
    tri = triangle_from_sides(3, 4, 5)
    g = centroid(tri)
    radius = max(g.distance_to(v) for v in tri.vertices) * 1.0001
    rng = make_rng(103)
    for k in range(20):
        d = radius * (3.2 + 0.7 * k)
        angle = rng.uniform(0, 2 * math.pi)
        p = Point2(g.x + d * math.cos(angle), g.y + d * math.sin(angle))
        dist_t = distance_to_boundary(tri, p)
        assert dist_t > 2 * radius  # the bound only applies out here
        bound = 4 * radius * math.asin(radius / (dist_t - radius))
        assert potential_closed(tri, p) <= bound


def test_mirror_symmetry_of_potential():
    # isosceles triangle, symmetric about x = 0
    tri = Triangle(Point2(0, 2), Point2(-1, 0), Point2(1, 0))
    for p in (Point2(0.3, 0.5), Point2(2.2, -0.7), Point2(0.9, 3.0)):
        mirrored = Point2(-p.x, p.y)
        assert potential_closed(tri, p) == pytest.approx(
            potential_closed(tri, mirrored), rel=1e-13
        )
    # points on the axis through the base midpoint evaluate fine too
    assert potential_closed(tri, Point2(0.0, -3.0)) > 0


def test_positivity_everywhere():
    rng = make_rng(104)
    for _ in range(50):
        tri = random_triangle(rng)
        g = centroid(tri)
        d = diameter(tri)
        p = Point2(g.x + rng.uniform(-3, 3) * d, g.y + rng.uniform(-3, 3) * d)
        if distance_to_boundary(tri, p) < 1e-6 * d:
            continue
        assert potential_closed(tri, p) > 0


def test_rigid_motion_invariance_and_scaling():
    rng = make_rng(105)
    for _ in range(30):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri)
        v = potential_closed(tri, p)
        angle, dx, dy = rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5), rng.uniform(-5, 5)
        tri_m = transform_triangle(tri, angle, dx, dy)
        p_m = transform_point(p, angle, dx, dy)
        assert potential_closed(tri_m, p_m) == pytest.approx(v, rel=1e-12)
        factor = rng.uniform(0.1, 10.0)
        tri_s = transform_triangle(tri, scale=factor)
        p_s = transform_point(p, scale=factor)
        assert potential_closed(tri_s, p_s) == pytest.approx(factor * v, rel=1e-12)


def test_closed_rejects_boundary_band(golden_triangle):
    # Only the field has a band; the potential is continuous across the
    # boundary and stays in closed form there.
    tri = golden_triangle
    d = diameter(tri)
    mid_ab = Point2(0.5, 0.0)  # on side AB
    for p in (Point2(mid_ab.x, mid_ab.y + 1e-11 * d), mid_ab):
        v_ref = boundary_form_reference(tri, p)[0]
        assert abs(potential_closed(tri, p) - v_ref) <= 1e-13 * v_ref
    with pytest.raises(TooCloseToBoundary):
        field_closed(tri, Point2(mid_ab.x, mid_ab.y + 1e-11 * d))


def test_quadrature_handles_boundary_and_vertices(golden_triangle):
    tri = golden_triangle
    v_vertex = potential_quadrature(tri, tri.a_vertex)
    assert math.isfinite(v_vertex) and v_vertex > 0
    v_edge = potential_quadrature(tri, Point2(0.5, 0.0))
    assert math.isfinite(v_edge) and v_edge > 0
    # continuity: a nearby interior point has nearly the same potential
    v_near = potential_closed(tri, Point2(0.5, 1e-5))
    assert v_edge == pytest.approx(v_near, rel=1e-3)


def test_field_is_minus_gradient():
    rng = make_rng(106)
    for _ in range(20):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri, margin=0.05)
        h = 1e-6 * diameter(tri)
        ex = -(potential_closed(tri, Point2(p.x + h, p.y))
               - potential_closed(tri, Point2(p.x - h, p.y))) / (2 * h)
        ey = -(potential_closed(tri, Point2(p.x, p.y + h))
               - potential_closed(tri, Point2(p.x, p.y - h))) / (2 * h)
        field = field_closed(tri, p)
        scale = max(field.norm(), 1e-12)
        assert math.hypot(field.ex - ex, field.ey - ey) <= 1e-5 * scale


def test_field_zero_at_equilateral_centroid():
    tri = triangle_from_sides(1, 1, 1)
    assert field_closed(tri, centroid(tri)).norm() < 1e-14


def test_field_requires_interior(golden_triangle):
    with pytest.raises(NotInterior):
        field_closed(golden_triangle, Point2(5.0, 5.0))


def test_field_points_outward_near_incenter_displacement():
    # moving from the max toward the boundary the potential drops, so E
    # (minus the gradient) gains a component along the displacement
    tri = triangle_from_sides(4, 5, 6)
    inc = incenter(tri)
    g = centroid(tri)
    shift = Point2(inc.x + 0.3 * (g.x - inc.x), inc.y + 0.3 * (g.y - inc.y))
    f = field_closed(tri, shift)
    assert math.isfinite(f.ex) and math.isfinite(f.ey)


def test_brute_force_max_equilateral_hits_centroid():
    tri = triangle_from_sides(1, 1, 1)
    best = brute_force_max(tri, grid_n=32, refine_iters=4)
    assert best.distance_to(centroid(tri)) < 1e-3


def test_brute_force_max_reference_triangle(golden_triangle):
    best = brute_force_max(golden_triangle, grid_n=64, refine_iters=6)
    ref = Point2(*GOLDEN_CENTER)
    assert best.distance_to(ref) < 1e-4 * diameter(golden_triangle)
    assert classify_point(golden_triangle, best) is PointLocation.INTERIOR


def test_brute_force_max_interior_and_deterministic():
    rng = make_rng(107)
    tri = random_triangle(rng)
    first = brute_force_max(tri, grid_n=24, refine_iters=3)
    second = brute_force_max(tri, grid_n=24, refine_iters=3)
    assert (first.x, first.y) == (second.x, second.y)
    assert classify_point(tri, first) is PointLocation.INTERIOR


def test_refinement_filter_keeps_what_the_scalar_filter_keeps():
    from tripotential.geometry import _clears_boundary, _side_distances

    # side BC on the x axis from the origin: the distance to BC is |y|
    # exactly, so the margin and the 1e-12 band can be hit to the bit
    tri = Triangle(Point2(0.375, 0.75), Point2(0.0, 0.0), Point2(1.0, 0.0))
    margin = 2.0 * BOUNDARY_EXCLUSION_RTOL * diameter(tri)
    band = 1e-12 * 0.75  # BOUNDARY_BAND_RTOL times the height over BC
    heights = [
        -1e-13, -0.0, 0.0, 1e-13, 0.5 * band, band, np.nextafter(band, 1.0),
        2.0 * band, np.nextafter(margin, 0.0), margin, np.nextafter(margin, 1.0),
        2.0 * margin, 0.3,
    ]
    xs = [0.25, 0.5, 0.625]
    x = np.array([xv for xv in xs for _ in heights])
    y = np.array(heights * len(xs))
    rng = make_rng(108)
    x = np.concatenate([x, rng.uniform(-0.1, 1.1, 2000)])
    y = np.concatenate([y, rng.uniform(-0.1, 0.85, 2000)])

    def scalar(q):
        return (
            classify_point(tri, q) is PointLocation.INTERIOR
            and not distance_to_boundary(tri, q) <= margin
        )

    expected = [scalar(Point2(float(a), float(b))) for a, b in zip(x, y)]
    assert _clears_boundary(_side_distances(tri, x, y), margin).tolist() == expected
    kept = [h for h, keep in zip(heights, expected) if keep]
    assert kept == [np.nextafter(margin, 1.0), 2.0 * margin, 0.3]
    assert sum(expected) > 500


def test_field_band_is_the_margin_predicate():
    from tripotential.geometry import _clears_boundary, _side_distances

    # side BC on the x axis from the origin, as above: the band's edge can
    # be hit to the bit from both sides
    tri = Triangle(Point2(0.375, 0.75), Point2(0.0, 0.0), Point2(1.0, 0.0))
    band = BOUNDARY_EXCLUSION_RTOL * diameter(tri)
    heights = [
        -band, -0.0, 0.0, 1e-13, 0.5 * band, np.nextafter(band, 0.0), band,
        np.nextafter(band, 1.0), 2.0 * band, 0.3,
    ]
    xs = [0.25, 0.5, 0.625]
    x = np.array([xv for xv in xs for _ in heights])
    y = np.array(heights * len(xs))
    rng = make_rng(109)
    x = np.concatenate([x, rng.uniform(-0.1, 1.1, 2000)])
    y = np.concatenate([y, rng.uniform(-0.1, 0.85, 2000)])

    def scalar(q):
        try:
            field_closed(tri, q)
        except (NotInterior, TooCloseToBoundary):
            return False
        return True

    expected = _clears_boundary(_side_distances(tri, x, y), band).tolist()
    assert [scalar(Point2(float(a), float(b))) for a, b in zip(x, y)] == expected
    batch = potential_field_batch(tri, x, y)
    assert (batch.interior & ~np.isnan(batch.ex)).tolist() == expected
    kept = [h for h, keep in zip(heights * len(xs), expected) if keep]
    assert kept == [np.nextafter(band, 1.0), 2.0 * band, 0.3] * len(xs)
    assert sum(expected) > 500


def test_brute_force_validates_grid():
    tri = triangle_from_sides(1, 1, 1)
    with pytest.raises(ValueError):
        brute_force_max(tri, grid_n=8)


def test_quadrature_tolerance_failure_is_reported():
    tri = triangle_from_sides(1, 1, 1)
    # nearly on a vertex: two cones carry near-singular angular windows,
    # which stop at the bisection depth
    p = Point2(1e-9, 1e-10)
    with pytest.raises(ToleranceNotReached) as info:
        potential_quadrature(tri, p)
    assert info.value.achieved > info.value.target


def assert_batch_matches_scalar(tri, xs, ys):
    """potential_field_batch against classify_point, distance_to_boundary,
    potential_closed and field_closed, point for point; in the field's
    exclusion band V also against the 50-digit boundary form."""
    batch = potential_field_batch(tri, xs, ys)
    limit = BOUNDARY_EXCLUSION_RTOL * diameter(tri)
    for k, (x, y) in enumerate(zip(xs, ys)):
        p = Point2(x, y)
        loc = classify_point(tri, p)
        assert batch.interior[k] == (loc is PointLocation.INTERIOR)
        assert batch.exterior[k] == (loc is PointLocation.EXTERIOR)
        in_band = distance_to_boundary(tri, p) <= limit
        if batch.interior[k]:
            assert math.isnan(batch.ex[k]) == in_band
        v = potential_closed(tri, p)
        assert abs(batch.v[k] - v) <= 1e-13 * abs(v)
        if in_band:
            v_ref = boundary_form_reference(tri, p)[0]
            assert abs(v - v_ref) <= 1e-13 * v_ref
        if batch.interior[k] and not in_band:
            field = field_closed(tri, p)
            err = math.hypot(batch.ex[k] - field.ex, batch.ey[k] - field.ey)
            assert err <= 1e-13 * field.norm()
        else:
            with pytest.raises(
                TooCloseToBoundary if batch.interior[k] else NotInterior
            ):
                field_closed(tri, p)
            assert math.isnan(batch.ex[k]) and math.isnan(batch.ey[k])
    return batch


def test_field_batch_matches_scalar_closed_forms():
    rng = make_rng(108)
    counts = {PointLocation.INTERIOR: 0, PointLocation.EXTERIOR: 0}
    for _ in range(12):
        sides = random_sides(rng, min_angle=0.1)
        tri = transform_triangle(
            triangle_from_sides(sides.a, sides.b, sides.c),
            angle=rng.uniform(0.0, 2.0 * math.pi),
            dx=rng.uniform(-3.0, 3.0),
            dy=rng.uniform(-3.0, 3.0),
        )
        g = centroid(tri)
        d = diameter(tri)
        xs = g.x + d * rng.uniform(-0.7, 0.7, 200)
        ys = g.y + d * rng.uniform(-0.7, 0.7, 200)
        batch = assert_batch_matches_scalar(tri, xs, ys)
        counts[PointLocation.INTERIOR] += int(batch.interior.sum())
        counts[PointLocation.EXTERIOR] += int(batch.exterior.sum())
    assert min(counts.values()) > 200


def test_field_batch_grid_row_on_side_bc():
    # The grid CLI's canonical pose puts row j=9 of n=64 exactly on side
    # BC (y0 = -0.2 h, y1 = 1.2 h, 63 / 7 = 9): the points between B and C
    # lie in the boundary band and in the field's exclusion band, where V
    # is still closed-form and checked against the 50-digit reference.
    tri = triangle_from_sides(
        0.004278252983131883, 0.037139396333608216, 0.03666741467607147
    )
    vx = [v.x for v in tri.vertices]
    vy = [v.y for v in tri.vertices]
    pad_x, pad_y = 0.2 * (max(vx) - min(vx)), 0.2 * (max(vy) - min(vy))
    x0, x1 = min(vx) - pad_x, max(vx) + pad_x
    y0, y1 = min(vy) - pad_y, max(vy) + pad_y
    n = 64
    y = y0 + (y1 - y0) * 9 / (n - 1)
    assert y == 0.0
    xs = [x0 + (x1 - x0) * i / (n - 1) for i in range(n)]
    batch = assert_batch_matches_scalar(tri, xs, [y] * n)
    on_side = [0.0 <= x <= tri.c_vertex.x for x in xs]
    assert not batch.interior.any()
    assert list(batch.exterior) == [not s for s in on_side]
    # just off the side, inside the relative band of classify_point
    height = tri.a_vertex.y
    for offset in (1e-13 * height, -1e-13 * height):
        batch = assert_batch_matches_scalar(tri, xs, [offset] * n)
        assert not batch.interior.any()
        assert list(batch.exterior) == [not s for s in on_side]
    # strictly inside, yet too close to the side for the closed-form field
    batch = assert_batch_matches_scalar(tri, xs, [1e-10 * height] * n)
    inside = batch.interior
    assert list(np.isnan(batch.ex[inside])) == list(np.array(on_side)[inside])
    assert (inside & np.isnan(batch.ex)).sum() > 25


def boundary_form_reference(tri, p):
    """(V, Ex, Ey) at p from the boundary form with 50 digits:
    l_e = log((r1 + r2 + L)/(r1 + r2 - L)), V = sum h_e l_e and
    E = sum n_e l_e over the counterclockwise edges.

    r1 + r2 - L is taken as 2*m/(r1 + r2 + L), with m = r1*r2 + u.w =
    (u x w)^2/(r1*r2 - u.w) (exact identities), so that points on or
    next to a segment keep their digits. An edge through p (u x w = 0)
    adds nothing to V, the limit of h_e l_e; its field term is left out.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        px, py = Decimal(p.x), Decimal(p.y)
        v = ex = ey = Decimal(0)
        for v1, v2 in tri.edges():
            ux, uy = Decimal(v1.x) - px, Decimal(v1.y) - py
            wx, wy = Decimal(v2.x) - px, Decimal(v2.y) - py
            cross = ux * wy - uy * wx
            if cross == 0:
                continue
            dot = ux * wx + uy * wy
            dx, dy = wx - ux, wy - uy
            length = (dx * dx + dy * dy).sqrt()
            r1r2 = ((ux * ux + uy * uy) * (wx * wx + wy * wy)).sqrt()
            m = r1r2 + dot if dot >= 0 else cross * cross / (r1r2 - dot)
            s = (ux * ux + uy * uy).sqrt() + (wx * wx + wy * wy).sqrt() + length
            ell = (s * s / (2 * m)).ln() / length
            v += cross * ell
            ex += dy * ell
            ey -= dx * ell
        return float(v), float(ex), float(ey)


def points_next_to_vertices(tri):
    """Per vertex and adjacent edge: 1e-6 of the edge's length along it
    from the vertex, and 2e-9, 1e-8, 1e-7 diameters inside it."""
    d = diameter(tri)
    g = centroid(tri)
    points = []
    for v1, v2 in tri.edges():
        for start, end in ((v1, v2), (v2, v1)):
            length = start.distance_to(end)
            tx, ty = (end.x - start.x) / length, (end.y - start.y) / length
            nx, ny = -ty, tx
            if (g.x - start.x) * nx + (g.y - start.y) * ny < 0.0:
                nx, ny = -nx, -ny
            for h in (2e-9, 1e-8, 1e-7):
                points.append(Point2(
                    start.x + 1e-6 * length * tx + h * d * nx,
                    start.y + 1e-6 * length * ty + h * d * ny,
                ))
    return points


def trilinear_reference(tri, p):
    """Exact-gauge trilinears (tau_a, tau_b, tau_c) of p with 50 digits:
    per side, u x w over its length, u and w from p to its endpoints."""
    A, B, C = tri.vertices
    with localcontext() as ctx:
        ctx.prec = 50
        px, py = Decimal(p.x), Decimal(p.y)
        taus = []
        for v1, v2 in ((B, C), (C, A), (A, B)):
            ux, uy = Decimal(v1.x) - px, Decimal(v1.y) - py
            wx, wy = Decimal(v2.x) - px, Decimal(v2.y) - py
            length = ((wx - ux) ** 2 + (wy - uy) ** 2).sqrt()
            taus.append(float((ux * wy - uy * wx) / length))
        return taus


@pytest.mark.parametrize("sides", [(4, 5, 6), (1, 1, 1), (1, 1, 1.9)])
def test_closed_forms_next_to_vertices_against_high_precision(sides):
    tri = triangle_from_sides(*sides)
    points = points_next_to_vertices(tri)
    batch = potential_field_batch(
        tri, [p.x for p in points], [p.y for p in points]
    )
    assert batch.interior.all() and not np.isnan(batch.ex).any()
    for k, p in enumerate(points):
        v_ref, ex_ref, ey_ref = boundary_form_reference(tri, p)
        e_ref = math.hypot(ex_ref, ey_ref)
        field = field_closed(tri, p)
        assert math.hypot(field.ex - ex_ref, field.ey - ey_ref) <= 1e-13 * e_ref
        assert math.hypot(batch.ex[k] - ex_ref, batch.ey[k] - ey_ref) <= 1e-13 * e_ref
        assert abs(potential_closed(tri, p) - v_ref) <= 1e-14 * v_ref
        assert abs(batch.v[k] - v_ref) <= 1e-14 * v_ref
        tau = cartesian_to_trilinear(tri, p)
        for got, ref in zip((tau.tau_a, tau.tau_b, tau.tau_c), trilinear_reference(tri, p)):
            assert abs(got - ref) <= 1e-13 * abs(ref)


def points_on_and_next_to_edges(tri):
    """Per edge: its vertices, points on the segment at fractions 0,
    1e-12, 0.37, 0.5 and 1 from its first vertex, and the points at
    fractions 1e-12, 0.37 and 0.5 moved +-1e-13 and +-1e-10 of the
    triangle's height over the edge off it."""
    height = 2.0 * area(tri) / max(
        v1.distance_to(v2) for v1, v2 in tri.edges()
    )
    points = list(tri.vertices)
    for v1, v2 in tri.edges():
        dx, dy = v2.x - v1.x, v2.y - v1.y
        length = math.hypot(dx, dy)
        nx, ny = -dy / length, dx / length
        for t in (0.0, 1e-12, 0.37, 0.5, 1.0):
            on = Point2(v1.x + t * dx, v1.y + t * dy)
            points.append(on)
            if 0.0 < t < 1.0:
                for h in (1e-13, -1e-13, 1e-10, -1e-10):
                    points.append(Point2(
                        on.x + h * height * nx, on.y + h * height * ny
                    ))
    return points


GRID_SLIVER = (0.004278252983131883, 0.037139396333608216, 0.03666741467607147)


@pytest.mark.parametrize("sides", [(4, 5, 6), (1, 1, 1.9), GRID_SLIVER])
def test_field_batch_masks_match_scalar_in_general_pose(sides):
    # rotated and translated, so no edge lies on a coordinate axis and the
    # points next to the boundary are rounded in both coordinates
    tri = transform_triangle(triangle_from_sides(*sides), angle=0.7, dx=3.1, dy=-1.7)
    points = points_next_to_vertices(tri) + points_on_and_next_to_edges(tri)
    batch = assert_batch_matches_scalar(tri, [p.x for p in points], [p.y for p in points])
    assert (batch.interior & ~np.isnan(batch.ex)).any()
    assert (batch.interior & np.isnan(batch.ex)).any()
    assert batch.exterior.any()


@pytest.mark.parametrize("sides", [(4, 5, 6), (1, 1, 1), (1, 1, 1.9), GRID_SLIVER])
def test_potential_on_and_next_to_boundary_against_high_precision(sides):
    tri = triangle_from_sides(*sides)
    points = points_on_and_next_to_edges(tri)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = potential_field_batch(
            tri, [p.x for p in points], [p.y for p in points]
        )
        scalar = [potential_closed(tri, p) for p in points]
    assert np.isnan(batch.ex[batch.interior]).all()
    assert sum(distance_to_boundary(tri, p) == 0.0 for p in points) >= 9
    for k, p in enumerate(points):
        v_ref = boundary_form_reference(tri, p)[0]
        assert v_ref > 0.0
        assert abs(scalar[k] - v_ref) <= 1e-13 * v_ref
        assert abs(batch.v[k] - v_ref) <= 1e-13 * v_ref
