import math
from decimal import Decimal, localcontext

import pytest

import tripotential.center as center
from tripotential import (
    BracketFailure,
    NotInterior,
    Point2,
    SideLengths,
    brute_force_max,
    cartesian_to_trilinear,
    center_function_trilinears,
    centroid,
    cevian_angles,
    classify_point,
    diameter,
    electrostatic_center,
    field_closed,
    initial_guess,
    kimberling_search_value,
    lambda_equilateral,
    lambda_residual,
    potential_closed,
    side_lengths,
    solve_lambda,
    stationarity_spreads,
    triangle_from_sides,
    trilinear_to_cartesian,
    vertex_distances,
    PointLocation,
    Triangle,
    TripotentialError,
)
from tripotential.center import coth_parts, point_from_coth_parts
from tripotential.geometry import heron_area

from conftest import (
    GOLDEN_CENTER,
    GOLDEN_LAMBDA,
    SEARCH_VALUE_6_9_13,
    make_rng,
    random_interior_point,
    random_sides,
    random_triangle,
    sliver_triangles,
    transform_point,
    transform_triangle,
)


def uvw(sides, lam):
    """u, v, w = a*coth(a*lam/2s) and cyclic, from their coth parts."""
    inv_t, ga, gb, gc = coth_parts(sides, lam)
    return inv_t + ga, inv_t + gb, inv_t + gc


def test_coth_parts_equilateral_closed_form():
    # at the equilateral root, coth(lambda/3) = 2/sqrt(3)
    sides = SideLengths(1, 1, 1)
    u, v, w = uvw(sides, lambda_equilateral())
    assert u == pytest.approx(2 / math.sqrt(3), rel=1e-14)
    assert v == u and w == u


def test_coth_parts_limits():
    sides = SideLengths(3, 4, 5)
    u, v, w = uvw(sides, 1e8)
    assert (u, v, w) == pytest.approx((3.0, 4.0, 5.0), rel=1e-14)
    lam = 1e-6
    u, v, w = uvw(sides, lam)
    leading = 2 * sides.s / lam
    for val in (u, v, w):
        assert val == pytest.approx(leading, rel=1e-3)


def test_coth_parts_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        coth_parts(SideLengths(3, 4, 5), 0.0)


def test_lambda_residual_equilateral_root():
    sides = SideLengths(1, 1, 1)
    rhs = 4 * heron_area(sides)
    assert abs(lambda_residual(sides, lambda_equilateral())) < 1e-12 * rhs


def test_lambda_residual_reference_value(golden_triangle):
    sides = side_lengths(golden_triangle)
    rhs = 4 * heron_area(sides)
    assert abs(lambda_residual(sides, GOLDEN_LAMBDA)) < 1e-12 * rhs


def test_lambda_residual_sign_change_around_root(golden_triangle):
    sides = side_lengths(golden_triangle)
    lam = solve_lambda(sides).lam
    assert lambda_residual(sides, lam / 2) > 0
    assert lambda_residual(sides, 2 * lam) < 0


def test_residual_strictly_decreasing():
    # geometric grid spanning [guess/16, 16*guess]; far beyond that the
    # left side underflows below eps * RHS and float strictness saturates
    rng = make_rng(301)
    for _ in range(10):
        sides = random_sides(rng)
        guess = initial_guess(sides)
        lams = [guess / 16.0 * (256.0) ** (k / 99.0) for k in range(100)]
        values = [lambda_residual(sides, lam) for lam in lams]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_solve_lambda_reference(golden_triangle):
    sol = solve_lambda(side_lengths(golden_triangle))
    assert sol.lam == pytest.approx(GOLDEN_LAMBDA, rel=1e-12)
    assert sol.residual <= 1e-12 * 4 * heron_area(side_lengths(golden_triangle))


def test_solve_lambda_equilateral():
    sol = solve_lambda(SideLengths(1, 1, 1))
    assert sol.lam == pytest.approx(lambda_equilateral(), rel=1e-12)


def test_solve_lambda_scale_invariant():
    rng = make_rng(302)
    sides = random_sides(rng)
    base = solve_lambda(sides).lam
    for factor in (0.01, 1.0, 100.0):
        scaled = SideLengths(factor * sides.a, factor * sides.b, factor * sides.c)
        assert solve_lambda(scaled).lam == pytest.approx(base, rel=1e-12)


def test_lambda_solution_distance_identities():
    rng = make_rng(303)
    for _ in range(50):
        sides = random_sides(rng)
        sol = solve_lambda(sides)
        assert sol.u > sides.a and sol.v > sides.b and sol.w > sides.c
        assert sol.r_a > 0 and sol.r_b > 0 and sol.r_c > 0
        assert sol.r_b + sol.r_c == pytest.approx(sol.u, rel=1e-14)
        assert sol.r_c + sol.r_a == pytest.approx(sol.v, rel=1e-14)
        assert sol.r_a + sol.r_b == pytest.approx(sol.w, rel=1e-14)


def test_electrostatic_center_reference(golden_triangle):
    point, sol = electrostatic_center(golden_triangle)
    assert point.x == pytest.approx(GOLDEN_CENTER[0], abs=1e-10)
    assert point.y == pytest.approx(GOLDEN_CENTER[1], abs=1e-10)
    assert classify_point(golden_triangle, point) is PointLocation.INTERIOR


def test_electrostatic_center_equilateral_is_centroid():
    tri = triangle_from_sides(1, 1, 1)
    point, _ = electrostatic_center(tri)
    assert point.distance_to(centroid(tri)) < 1e-12 * diameter(tri)


def test_center_consistent_with_vertex_distances():
    rng = make_rng(304)
    for _ in range(50):
        tri = random_triangle(rng)
        point, sol = electrostatic_center(tri)
        da, db, dc = vertex_distances(tri, point)
        tol = 1e-9 * diameter(tri)
        assert abs(da - sol.r_a) < tol
        assert abs(db - sol.r_b) < tol
        assert abs(dc - sol.r_c) < tol


def test_center_matches_brute_force():
    rng = make_rng(305)
    for _ in range(5):
        tri = random_triangle(rng)
        point, _ = electrostatic_center(tri)
        approx = brute_force_max(tri, grid_n=48, refine_iters=5)
        assert point.distance_to(approx) < 2e-4 * diameter(tri)


def test_field_vanishes_at_center():
    rng = make_rng(306)
    for _ in range(25):
        tri = random_triangle(rng)
        point, _ = electrostatic_center(tri)
        v = potential_closed(tri, point)
        assert field_closed(tri, point).norm() < 1e-8 * v / diameter(tri)


def test_center_is_local_max():
    rng = make_rng(307)
    tri = random_triangle(rng)
    point, _ = electrostatic_center(tri)
    v0 = potential_closed(tri, point)
    h = 1e-3 * diameter(tri)
    for k in range(16):
        angle = 2 * math.pi * k / 16
        probe = Point2(point.x + h * math.cos(angle), point.y + h * math.sin(angle))
        assert potential_closed(tri, probe) < v0


def test_center_covariance_under_similarity():
    rng = make_rng(308)
    for _ in range(20):
        tri = random_triangle(rng)
        point, sol = electrostatic_center(tri)
        angle = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-4, 4, size=2)
        factor = rng.uniform(0.2, 5.0)
        tri2 = transform_triangle(tri, angle, dx, dy, factor)
        point2, sol2 = electrostatic_center(tri2)
        expected = transform_point(point, angle, dx, dy, factor)
        assert point2.distance_to(expected) < 1e-10 * diameter(tri2)
        assert sol2.lam == pytest.approx(sol.lam, rel=1e-12)


def test_spreads_vanish_at_center_not_centroid():
    rng = make_rng(309)
    for _ in range(25):
        tri = random_triangle(rng, scalene_gap=0.05)
        point, _ = electrostatic_center(tri)
        s_side, s_tan = stationarity_spreads(tri, point)
        assert s_side < 1e-9
        assert s_tan < 1e-9
        g_side, g_tan = stationarity_spreads(tri, centroid(tri))
        assert g_side > 1e-6
        assert g_tan > 1e-6


def test_tangent_product_identity_at_any_interior_point():
    # tan(alpha1/2) * tan(beta2/2) = (r_A + r_B - c)/(r_A + r_B + c)
    # holds at every interior point, not only the center.
    rng = make_rng(310)
    for _ in range(50):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri)
        ang = cevian_angles(tri, p)
        sl = side_lengths(tri)
        r_a, r_b, r_c = vertex_distances(tri, p)
        lhs = math.tan(0.5 * ang.alpha1) * math.tan(0.5 * ang.beta2)
        rhs = (r_a + r_b - sl.c) / (r_a + r_b + sl.c)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lhs = math.tan(0.5 * ang.beta1) * math.tan(0.5 * ang.gamma2)
        rhs = (r_b + r_c - sl.a) / (r_b + r_c + sl.a)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _decimal_side_spread(tri, p):
    """The side triple's spread, (1/a) log((r_B + r_C - a)/(r_B + r_C + a))
    and cyclic, at 60 digits from the exact vertices and point."""
    with localcontext() as ctx:
        ctx.prec = 60
        verts = [(Decimal(v.x), Decimal(v.y)) for v in tri.vertices]
        dist = [
            ((x - Decimal(p.x)) ** 2 + (y - Decimal(p.y)) ** 2).sqrt() for x, y in verts
        ]
        triple = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            (xj, yj), (xk, yk) = verts[j], verts[k]
            side = ((xj - xk) ** 2 + (yj - yk) ** 2).sqrt()
            pair = dist[j] + dist[k]
            triple.append(((pair - side) / (pair + side)).ln() / side)
        return float(max(triple) - min(triple))


def _spread_cases():
    """Slivers (0,0), (1,0), (x,h) with h from 1e-6 to 1 at their
    centroids, and posed random triangles at random interior points."""
    rng = make_rng(313)
    cases = [(tri, centroid(tri)) for tri in sliver_triangles(rng, 100, 1.0)]
    for _ in range(100):
        tri = random_triangle(rng)
        cases.append((tri, random_interior_point(rng, tri)))
    return cases


def test_side_spread_matches_a_60_digit_evaluation():
    # the side triple is -l_e / L_e, the field's edge logs, whose small
    # denominator r_B + r_C - a is formed without cancellation
    for tri, p in _spread_cases():
        ref = _decimal_side_spread(tri, p)
        assert stationarity_spreads(tri, p)[0] == pytest.approx(ref, rel=1e-12), tri


def test_tangent_spread_is_the_angle_relation():
    # the tangent triple from the cevian angles, an independent path
    for tri, p in _spread_cases():
        ang = cevian_angles(tri, p)
        alpha, beta = ang.alpha1 + ang.alpha2, ang.beta1 + ang.beta2
        gamma = ang.gamma1 + ang.gamma2
        triple = (
            math.log(math.tan(0.5 * ang.beta1) * math.tan(0.5 * ang.gamma2)) / math.sin(alpha),
            math.log(math.tan(0.5 * ang.gamma1) * math.tan(0.5 * ang.alpha2)) / math.sin(beta),
            math.log(math.tan(0.5 * ang.alpha1) * math.tan(0.5 * ang.beta2)) / math.sin(gamma),
        )
        spread = max(triple) - min(triple)
        assert stationarity_spreads(tri, p)[1] == pytest.approx(spread, rel=1e-10), tri


def test_stationarity_spreads_refuse_the_boundary(golden_triangle):
    A, B, _ = golden_triangle.vertices
    for p in (A, Point2(0.5 * (A.x + B.x), A.y), Point2(10.0, 10.0)):
        with pytest.raises(NotInterior):
            stationarity_spreads(golden_triangle, p)


def test_center_function_trilinears_match_cartesian_path():
    rng = make_rng(311)
    for _ in range(20):
        tri = random_triangle(rng)
        sides = side_lengths(tri)
        tau = center_function_trilinears(sides)
        point, _ = electrostatic_center(tri)
        via_trilinears = trilinear_to_cartesian(tri, tau)
        assert via_trilinears.distance_to(point) < 1e-9 * diameter(tri)
        # compare the gauges directly as well
        exact = cartesian_to_trilinear(tri, point)
        ratio = exact.tau_a / tau.tau_a
        assert tau.tau_b * ratio == pytest.approx(exact.tau_b, rel=1e-9)
        assert tau.tau_c * ratio == pytest.approx(exact.tau_c, rel=1e-9)


def test_center_function_gauge_is_twice_the_exact_gauge():
    # T_a/a (and cyclic): a*tau_a + b*tau_b + c*tau_c = T_a + T_b + T_c is
    # 4*area at the root, where the exact gauge of the same point sums to
    # 2*area
    rng = make_rng(313)
    for tri in [triangle_from_sides(4, 5, 6)] + [random_triangle(rng) for _ in range(20)]:
        sides = side_lengths(tri)
        tau = center_function_trilinears(sides)
        total = sides.a * tau.tau_a + sides.b * tau.tau_b + sides.c * tau.tau_c
        assert total == pytest.approx(4.0 * heron_area(sides), rel=2e-12)
        exact = cartesian_to_trilinear(tri, electrostatic_center(tri)[0])
        for got, ref in zip((tau.tau_a, tau.tau_b, tau.tau_c),
                            (exact.tau_a, exact.tau_b, exact.tau_c)):
            assert got == pytest.approx(2.0 * ref, rel=1e-9)


def test_center_function_equilateral_and_symmetry():
    tau = center_function_trilinears(SideLengths(1, 1, 1))
    assert tau.tau_a == pytest.approx(tau.tau_b, rel=1e-12)
    assert tau.tau_b == pytest.approx(tau.tau_c, rel=1e-12)
    # f(a, c, b) = f(a, b, c): swap the last two sides
    t1 = center_function_trilinears(SideLengths(4, 5, 6))
    t2 = center_function_trilinears(SideLengths(4, 6, 5))
    assert t1.tau_a == pytest.approx(t2.tau_a, rel=1e-12)


def test_center_function_homogeneous_degree_one():
    t1 = center_function_trilinears(SideLengths(4, 5, 6))
    t10 = center_function_trilinears(SideLengths(40, 50, 60))
    assert t10.tau_b / t10.tau_a == pytest.approx(t1.tau_b / t1.tau_a, rel=1e-12)
    assert t10.tau_c / t10.tau_a == pytest.approx(t1.tau_c / t1.tau_a, rel=1e-12)


def test_kimberling_search_value_reference():
    d_a = kimberling_search_value(SideLengths(6, 9, 13))
    assert d_a == pytest.approx(SEARCH_VALUE_6_9_13, rel=1e-10)


def test_kimberling_search_value_equilateral():
    d_a = kimberling_search_value(SideLengths(2, 2, 2))
    assert d_a == pytest.approx(2 / (2 * math.sqrt(3)), rel=1e-12)


def test_kimberling_value_equals_height_of_center():
    # canonical pose puts side BC on the x axis, so the distance from the
    # center to BC is just its y coordinate
    tri = triangle_from_sides(6, 9, 13)
    point, _ = electrostatic_center(tri)
    assert point.y == pytest.approx(SEARCH_VALUE_6_9_13, rel=1e-10)


def test_point_from_coth_parts_consistency(golden_triangle):
    sides = side_lengths(golden_triangle)
    sol = solve_lambda(sides)
    xy = point_from_coth_parts(golden_triangle, *coth_parts(sides, sol.lam))
    p = golden_triangle._from_frame(*xy)
    assert p.x == pytest.approx(GOLDEN_CENTER[0], abs=1e-12)
    assert p.y == pytest.approx(GOLDEN_CENTER[1], abs=1e-12)


def test_solve_lambda_tolerance_validation():
    with pytest.raises(ValueError):
        solve_lambda(SideLengths(3, 4, 5), tol=1e-15)


def _count_solves(monkeypatch):
    """The tolerances of every center.solve_lambda call from now on."""
    calls = []
    solve = center.solve_lambda

    def counted(sides, tol=1e-12):
        calls.append(tol)
        return solve(sides, tol)

    monkeypatch.setattr(center, "solve_lambda", counted)
    return calls


def test_center_trilinears_and_search_value_share_one_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    tri = random_triangle(make_rng(310))
    sides = side_lengths(tri)
    fresh = SideLengths(sides.a, sides.b, sides.c)
    shown = (repr(sides), hash(sides))
    point, sol = electrostatic_center(tri, 1e-13)
    tau = center_function_trilinears(sides, 1e-13)
    d_a = kimberling_search_value(sides, 1e-13)
    assert calls == [1e-13]
    # bit-equal to the same calls without the memo
    assert (point, sol) == electrostatic_center(Triangle(*tri.vertices), 1e-13)
    assert sol == solve_lambda(fresh, 1e-13)
    assert tau == center_function_trilinears(fresh, 1e-13)
    assert d_a == kimberling_search_value(SideLengths(sides.a, sides.b, sides.c), 1e-13)
    # the memo is no part of the value
    assert (repr(sides), hash(sides)) == shown
    assert sides == fresh and hash(sides) == hash(fresh)


def test_each_tolerance_solves_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    sides = SideLengths(4.0, 5.0, 6.0)
    for tol in (1e-12, 1e-13, 1e-12, 1e-13):
        center_function_trilinears(sides, tol)
        kimberling_search_value(sides, tol)
    assert calls == [1e-12, 1e-13]
    with pytest.raises(ValueError):
        center_function_trilinears(sides, 1e-15)
    with pytest.raises(ValueError):
        electrostatic_center(triangle_from_sides(4.0, 5.0, 6.0), 1e-15)


def test_a_failed_solve_caches_nothing(monkeypatch):
    calls = _count_solves(monkeypatch)
    sides = SideLengths(3.0, 4.0, 5.0)
    with monkeypatch.context() as m:
        m.setattr(center, "initial_guess", lambda sides: 1e300)
        for consumer in (center_function_trilinears, kimberling_search_value):
            with pytest.raises(BracketFailure):
                consumer(sides)
    assert len(calls) == 2
    tau = center_function_trilinears(sides)
    kimberling_search_value(sides)
    assert len(calls) == 3
    assert tau == center_function_trilinears(SideLengths(3.0, 4.0, 5.0))


def test_center_in_the_boundary_band_is_refused(monkeypatch, golden_triangle):
    # a point's smallest distance to a side line is at most the inradius,
    # below half the diameter, so a band of half the diameter refuses
    # every center
    monkeypatch.setattr(center, "BOUNDARY_BAND_RTOL", 0.5)
    with pytest.raises(TripotentialError, match="not interior"):
        electrostatic_center(golden_triangle)


def test_center_is_the_point_of_its_trilinears_on_slivers():
    # the point and the trilinears are both the root's terms, so they agree
    # to rounding even where the terms themselves are inaccurate
    solved = 0
    for tri in sliver_triangles(make_rng(12345), 200, 1e-3):
        try:
            point, _ = electrostatic_center(tri)
        except TripotentialError:
            continue
        solved += 1
        ref = trilinear_to_cartesian(tri, center_function_trilinears(side_lengths(tri)))
        assert point.distance_to(ref) <= 1e-14 * diameter(tri), tri
    assert solved >= 100


@pytest.mark.parametrize("h", [1e-4, 1e-5])
def test_needle_center_is_field_free(h):
    tri = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, h))
    point, _ = electrostatic_center(tri)
    field = field_closed(tri, point).norm()
    assert field * diameter(tri) / potential_closed(tri, point) < 1e-6
