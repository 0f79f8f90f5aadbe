import math
from unittest import mock

import numpy as np
import pytest

import tripotential.riesz as rz
from tripotential import (
    NoConvergence,
    NotInterior,
    Point2,
    Triangle,
    centroid,
    circumcenter,
    diameter,
    electrostatic_center,
    field_closed,
    illuminating_spread,
    incenter,
    inversion_first_moment,
    lambda_curve,
    orthocenter,
    potential_arc,
    rp_center,
    side_lengths,
    solve_lambda,
    stationarity_residual,
    thomson_residual,
    ToleranceNotReached,
    triangle_from_sides,
)
from tripotential.potential import cone_windows
from tripotential import quadrature
from tripotential.quadrature import integrate_adaptive

from conftest import (
    make_rng,
    random_interior_point,
    random_triangle,
    transform_point,
    transform_triangle,
)


def test_residual_for_p_minus_one_is_negated_field():
    rng = make_rng(501)
    for _ in range(10):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri, margin=0.05)
        res = stationarity_residual(tri, p, -1.0)
        field = field_closed(tri, p)
        scale = max(field.norm(), 1e-12)
        assert abs(res.ex + field.ex) <= 1e-10 * scale
        assert abs(res.ey + field.ey) <= 1e-10 * scale


def test_residual_small_at_special_points(golden_triangle):
    tri = golden_triangle
    assert stationarity_residual(tri, centroid(tri), 2.0).norm() < 1e-10
    point, _ = electrostatic_center(tri)
    assert stationarity_residual(tri, point, -1.0).norm() < 1e-9


def test_residual_vanishes_at_equilateral_centroid_for_many_exponents():
    tri = triangle_from_sides(1, 1, 1)
    g = centroid(tri)
    for p in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        assert stationarity_residual(tri, g, p).norm() < 1e-10


def test_residual_requires_interior(golden_triangle):
    with pytest.raises(NotInterior):
        stationarity_residual(golden_triangle, Point2(9.0, 9.0), 2.0)


def test_rp_center_p2_is_centroid():
    rng = make_rng(502)
    for _ in range(8):
        tri = random_triangle(rng)
        rep = rp_center(tri, 2.0)
        assert rep.point.distance_to(centroid(tri)) < 1e-9 * diameter(tri)


def test_rp_center_p_minus_one_is_electrostatic_center():
    rng = make_rng(503)
    for _ in range(8):
        tri = random_triangle(rng)
        rep = rp_center(tri, -1.0)
        point, _ = electrostatic_center(tri)
        assert rep.point.distance_to(point) < 1e-8 * diameter(tri)


def test_rp_center_logarithmic_case_solves():
    # p = 0 is the logarithmic potential; no closed reference, accepted
    # purely through the residual
    tri = triangle_from_sides(4, 5, 6)
    rep = rp_center(tri, 0.0)
    assert rep.residual_norm < 1e-10


def test_rp_center_rejects_loose_tolerance():
    tri = triangle_from_sides(4, 5, 6)
    with pytest.raises(ValueError):
        rp_center(tri, 2.0, tol=1e-13)


def test_illuminating_property_at_p_minus_two():
    rng = make_rng(504)
    for _ in range(8):
        tri = random_triangle(rng)
        rep = rp_center(tri, -2.0)
        assert illuminating_spread(tri, rep.point) < 1e-8


def test_illuminating_spread_discriminates():
    tri = triangle_from_sides(4, 5, 6)
    assert illuminating_spread(tri, centroid(tri)) > 1e-4
    eq = triangle_from_sides(1, 1, 1)
    assert illuminating_spread(eq, centroid(eq)) < 1e-13


def test_oracles_refuse_a_point_in_the_exclusion_band():
    # 1e-10 diameters inside AB of 4,5,6, between the 1e-12 boundary band
    # and the 1e-9 exclusion band: all three oracles refuse it alike
    tri = triangle_from_sides(4, 5, 6)
    A, B = tri.a_vertex, tri.b_vertex
    ex, ey = B.x - A.x, B.y - A.y
    inward = 1e-10 * diameter(tri) / math.hypot(ex, ey)  # left of A -> B
    q = Point2(0.5 * (A.x + B.x) - ey * inward, 0.5 * (A.y + B.y) + ex * inward)
    for oracle in (
        lambda: illuminating_spread(tri, q),
        lambda: stationarity_residual(tri, q, -1.0),
        lambda: inversion_first_moment(tri, q),
    ):
        with pytest.raises(NotInterior):
            oracle()


def test_inversion_centroid_property_at_p_minus_four():
    rng = make_rng(505)
    for _ in range(5):
        tri = random_triangle(rng)
        rep = rp_center(tri, -4.0)
        assert inversion_first_moment(tri, rep.point) < 1e-8


def test_inversion_moment_factor_three_identity():
    rng = make_rng(506)
    for _ in range(10):
        tri = random_triangle(rng)
        p = random_interior_point(rng, tri, margin=0.05)
        moment = inversion_first_moment(tri, p)
        res = stationarity_residual(tri, p, -4.0)
        assert moment == pytest.approx(res.norm() / 3.0, abs=1e-10)


def test_inversion_moment_zero_at_equilateral_centroid():
    tri = triangle_from_sides(1, 1, 1)
    assert inversion_first_moment(tri, centroid(tri)) < 1e-12


def test_arc_inserts_special_exponents_and_passes_centroid():
    tri = triangle_from_sides(4, 5, 6)
    points = potential_arc(tri, [-2.5, -0.5, 1.5, 2.5])
    ps = [ap.p for ap in points]
    assert -1.0 in ps and 2.0 in ps
    assert ps == sorted(ps)
    at2 = next(ap for ap in points if ap.p == 2.0)
    assert at2.converged
    assert at2.point.distance_to(centroid(tri)) < 1e-9 * diameter(tri)


def test_arc_requires_sorted_input():
    tri = triangle_from_sides(4, 5, 6)
    with pytest.raises(ValueError):
        potential_arc(tri, [1.0, -1.0])


def test_rp_center_no_convergence_carries_best_iterate(monkeypatch):
    tri = triangle_from_sides(4, 5, 6)
    monkeypatch.setattr(rz, "_MAX_NEWTON_ITERATIONS", 1)
    with pytest.raises(NoConvergence) as info:
        rp_center(tri, -1.0)
    assert info.value.best_point is not None
    assert info.value.iterations == 1
    assert math.isfinite(info.value.residual_norm)


def test_arc_records_failures_without_aborting(monkeypatch):
    import tripotential.riesz as rz

    tri = triangle_from_sides(4, 5, 6)
    real = rz.rp_center

    def flaky(tri, p, tol=1e-10, *, x0=None):
        if p == 0.5:
            raise NoConvergence(
                "forced", best_point=x0, residual_norm=1.0,
                iterations=rz._MAX_NEWTON_ITERATIONS,
            )
        return real(tri, p, tol, x0=x0)

    monkeypatch.setattr(rz, "rp_center", flaky)
    points = rz.potential_arc(tri, [0.0, 0.5, 1.0])
    assert [ap.p for ap in points if not ap.converged] == [0.5]
    assert all(ap.converged for ap in points if ap.p != 0.5)


def test_arc_continuation_is_smooth():
    tri = triangle_from_sides(4, 5, 6)
    p_values = [-6.0 + 0.5 * k for k in range(25)]
    points = potential_arc(tri, p_values)
    assert all(ap.converged for ap in points)
    steps = [
        points[i].point.distance_to(points[i + 1].point)
        for i in range(len(points) - 1)
    ]
    median = sorted(steps)[len(steps) // 2]
    assert max(steps) <= 10.0 * median


def test_arc_endpoints_acute_triangle():
    # as p -> -inf the extreme point drifts to the incenter, as
    # p -> +inf (acute triangle) to the circumcenter; probe at
    # p = -10,-20,-30 and 10,20,30 and extrapolate linearly in 1/p
    tri = triangle_from_sides(4, 5, 6)
    inc, circ = incenter(tri), circumcenter(tri)
    diam = diameter(tri)

    neg = [rp_center(tri, p).point for p in (-10.0, -20.0, -30.0)]
    d_neg = [q.distance_to(inc) for q in neg]
    assert d_neg[0] > d_neg[1] > d_neg[2]
    extrapolated = Point2(
        neg[2].x + 2.0 * (neg[2].x - neg[1].x),
        neg[2].y + 2.0 * (neg[2].y - neg[1].y),
    )
    assert extrapolated.distance_to(inc) < 0.02 * diam

    pos = [rp_center(tri, p).point for p in (10.0, 20.0, 30.0)]
    d_pos = [q.distance_to(circ) for q in pos]
    assert d_pos[0] > d_pos[1] > d_pos[2]
    extrapolated = Point2(
        pos[2].x + 2.0 * (pos[2].x - pos[1].x),
        pos[2].y + 2.0 * (pos[2].y - pos[1].y),
    )
    assert extrapolated.distance_to(circ) < 0.02 * diam


def test_arc_endpoint_obtuse_triangle():
    # for an obtuse triangle the p -> +inf limit is the midpoint of the
    # longest side (the min enclosing circle center)
    tri = triangle_from_sides(6, 9, 13)
    sl = side_lengths(tri)
    assert max(sl.a, sl.b, sl.c) == sl.c  # longest side is AB
    A, B, _ = tri.vertices
    mid = Point2(0.5 * (A.x + B.x), 0.5 * (A.y + B.y))
    pts = [rp_center(tri, p).point for p in (10.0, 20.0, 30.0)]
    d = [q.distance_to(mid) for q in pts]
    assert d[0] > d[1] > d[2]
    assert d[2] < 0.05 * diameter(tri)


def test_rp_center_symmetry_pinning():
    # isosceles: every extreme point sits on the symmetry axis
    tri = Triangle(Point2(0, 2.3), Point2(-1, 0), Point2(1, 0))
    for p in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0):
        rep = rp_center(tri, p)
        assert abs(rep.point.x) < 1e-10 * diameter(tri)


def test_rp_center_similarity_covariance():
    rng = make_rng(507)
    tri = random_triangle(rng)
    for p in (-2.0, 0.5, 2.0):
        rep = rp_center(tri, p)
        angle, dx, dy, factor = 0.7, 1.3, -2.1, 3.0
        tri2 = transform_triangle(tri, angle, dx, dy, factor)
        rep2 = rp_center(tri2, p)
        expected = transform_point(rep.point, angle, dx, dy, factor)
        assert rep2.point.distance_to(expected) < 1e-8 * diameter(tri2)


def test_lambda_curve_reproduces_center_at_root():
    tri = triangle_from_sides(4, 5, 6)
    sol = solve_lambda(side_lengths(tri))
    [(_, at_root)] = lambda_curve(tri, [sol.lam])
    point, _ = electrostatic_center(tri)
    assert at_root.distance_to(point) < 1e-10 * diameter(tri)


def test_lambda_curve_limits_are_classical_centers():
    # numerical limits only: small lambda approaches one classical
    # center, large lambda another; report which by nearest distance
    tri = triangle_from_sides(4, 5, 6)
    diam = diameter(tri)
    classical = {
        "incenter": incenter(tri),
        "centroid": centroid(tri),
        "circumcenter": circumcenter(tri),
        "orthocenter": orthocenter(tri),
    }

    def nearest(q):
        return min(classical.items(), key=lambda kv: q.distance_to(kv[1]))

    (_, small_a), (_, small_b) = lambda_curve(tri, [1e-7, 1e-6])
    assert small_a.distance_to(small_b) < 1e-8 * diam  # Cauchy
    name_small, ref_small = nearest(small_a)
    assert small_a.distance_to(ref_small) < 1e-6 * diam

    (_, big_a), (_, big_b) = lambda_curve(tri, [1e6, 1e7])
    assert big_a.distance_to(big_b) < 1e-8 * diam
    name_big, ref_big = nearest(big_a)
    assert big_a.distance_to(ref_big) < 1e-6 * diam

    assert {name_small, name_big} <= set(classical)
    assert name_small != name_big
    print(f"lambda->0 limit: {name_small}; lambda->inf limit: {name_big}")


def test_lambda_curve_rejects_nonpositive():
    tri = triangle_from_sides(4, 5, 6)
    with pytest.raises(ValueError):
        lambda_curve(tri, [1.0, -2.0])


def test_thomson_residual_zeros():
    tri = triangle_from_sides(4, 5, 6)
    diam = diameter(tri)
    A, B, C = tri.vertices
    special = [
        incenter(tri),
        centroid(tri),
        circumcenter(tri),
        orthocenter(tri),
        A, B, C,
        Point2(0.5 * (B.x + C.x), 0.5 * (B.y + C.y)),
        Point2(0.5 * (C.x + A.x), 0.5 * (C.y + A.y)),
        Point2(0.5 * (A.x + B.x), 0.5 * (A.y + B.y)),
    ]
    for q in special:
        assert abs(thomson_residual(tri, q)) < 1e-10


def test_thomson_residual_discriminates():
    tri = triangle_from_sides(4, 5, 6)
    point, _ = electrostatic_center(tri)
    assert abs(thomson_residual(tri, point)) > 1e-6
    # the p = -3 extreme point is suspected to lie on the cubic; record
    # the measured residual without asserting the open question
    rep = rp_center(tri, -3.0)
    value = thomson_residual(tri, rep.point)
    assert math.isfinite(value)
    print(f"thomson residual at p=-3 extreme point: {value:.3e}")


def test_thomson_residual_scale_free():
    tri = triangle_from_sides(4, 5, 6)
    point, _ = electrostatic_center(tri)
    value = thomson_residual(tri, point)
    tri2 = transform_triangle(tri, scale=17.0)
    point2 = transform_point(point, scale=17.0)
    assert thomson_residual(tri2, point2) == pytest.approx(value, rel=1e-9)


# ---- the edge-panel evaluator behind rp_center

EDGE_RULE_EXPONENTS = (-30.0, -10.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 2.0, 10.0, 30.0)


def _angular_reference(tri, q, p):
    """The stationarity integral of the edge rule (R scaled by the ray
    scale) by adaptive angular quadrature per cone window, driven to the
    rounding floor."""
    kern, r0 = rz._kernel(p), rz._ray_scale(tri, q)
    total = 0.0 + 0.0j
    with mock.patch.object(quadrature, "_MAX_DEPTH", 50):
        for start, delta, ray in cone_windows(tri, q):

            def f(phis, ray=ray):
                return kern(ray(phis) / r0) * np.exp(1j * phis)

            total += integrate_adaptive(
                f, start, start + delta, abs_tol=0.0, rel_tol=1e-15
            ).value
    return total


def _inside_edge(tri, v1, v2, distance):
    """The point `distance` inside the midpoint of edge (v1, v2)."""
    length = v1.distance_to(v2)
    nx, ny = -(v2.y - v1.y) / length, (v2.x - v1.x) / length
    mx, my = 0.5 * (v1.x + v2.x), 0.5 * (v1.y + v2.y)
    g = centroid(tri)
    if (g.x - mx) * nx + (g.y - my) * ny < 0.0:
        nx, ny = -nx, -ny
    return Point2(mx + distance * nx, my + distance * ny)


def test_edge_rule_matches_references_inside_and_next_to_an_edge(monkeypatch):
    rng = make_rng(508)
    interior = []
    for _ in range(2):
        tri = random_triangle(rng)
        interior.append((tri, random_interior_point(rng, tri, margin=0.05), 1.0))
    tri = triangle_from_sides(4, 5, 6)
    A, B, _ = tri.vertices
    near = [
        (tri, _inside_edge(tri, A, B, rel * diameter(tri)), rel)
        for rel in (1e-2, 1e-4, 2e-6)
    ]
    for tri, q, rel in interior + near:
        r0 = rz._ray_scale(tri, q)
        for p in EDGE_RULE_EXPONENTS:
            value, mag, error, _ = rz._edge_rule(tri, q, p, r0)
            budget = 1e-13 * max(1.0, mag)
            assert error <= budget
            # the angular reference: at 1e-4 and 2e-6 diameters from AB
            # and p > 0 it can run to its 20000-interval limit (~1.5 s),
            # and at p = 10, 30 it misses by up to 2.3e-6 * magnitude (the
            # ray length is ill-conditioned at the window ends), so there
            # the rule is checked only against itself on narrower panels
            if rel >= 1e-2 or p <= 0.0:
                ref = _angular_reference(tri, q, p)
                assert abs(value - ref) <= 1e-12 * max(1.0, mag), (p, rel)
            with monkeypatch.context() as m:
                m.setattr(rz, "_PANEL_HALF_WIDTH", rz._PANEL_HALF_WIDTH / 4.0)
                m.setattr(rz, "_PANEL_HALF_WIDTH_P", rz._PANEL_HALF_WIDTH_P / 4.0)
                fine, fine_mag, _, _ = rz._edge_rule(tri, q, p, r0)
            assert abs(value - fine) <= budget, (p, rel)
            # a normalizer only: |log| has a kink where R = r0 at p = -1
            assert mag == pytest.approx(fine_mag, rel=1e-3)


def test_edge_rule_jacobian_matches_central_differences():
    rng = make_rng(509)
    for _ in range(2):
        tri = random_triangle(rng)
        q = random_interior_point(rng, tri, margin=0.05)
        h = 2e-5 * diameter(tri)
        for p in (-4.0, -1.0, 0.0, 2.5):

            def lit(x, y):
                res = stationarity_residual(tri, Point2(x, y), p)
                return np.array([res.ex, res.ey])

            fd = np.column_stack([
                (lit(q.x + h, q.y) - lit(q.x - h, q.y)) / (2.0 * h),
                (lit(q.x, q.y + h) - lit(q.x, q.y - h)) / (2.0 * h),
            ])
            r0 = rz._ray_scale(tri, q)
            _, _, _, jac = rz._edge_rule(tri, q, p, r0)
            # the rule's Jacobian is per unit r0 and holds r0 fixed, so
            # per unit length it is the literal integral's Jacobian
            # divided by r0^(p+1)
            jac = jac / r0
            if p != -1.0:
                jac = jac * r0 ** (p + 1.0)
            assert np.abs(jac - fd).max() <= 1e-5 * np.abs(fd).max(), p


def test_rp_center_raises_when_the_panel_rule_is_too_coarse(monkeypatch):
    tri = triangle_from_sides(4, 5, 6)
    monkeypatch.setattr(rz, "_PANEL_HALF_WIDTH", 8.0)
    monkeypatch.setattr(rz, "_PANEL_HALF_WIDTH_P", 100.0)
    with pytest.raises(ToleranceNotReached):
        rz.rp_center(tri, -1.0)


def test_arc_points_pass_the_angular_oracle():
    tri = triangle_from_sides(4, 5, 6)
    tol = 1e-10
    points = potential_arc(tri, [-10.0 + 0.25 * k for k in range(81)], tol)
    assert len(points) == 81 and all(ap.converged for ap in points)
    for ap in points:
        total, magnitude, _ = rz._scaled_residual(tri, ap.point, ap.p)
        assert abs(total) / magnitude < tol, ap.p


# ---- continuation from p = 2 and the Newton trial point


def _sliver(min_angle):
    """The scalene sliver with smallest angle min_angle and another of 1.2."""
    third = math.pi - min_angle - 1.2
    return triangle_from_sides(math.sin(min_angle), math.sin(1.2), math.sin(third))


COARSE_SWEEP = [-30.0 + 5.0 * k for k in range(13)]


def test_arc_81_steps_costs_at_most_190_evaluations():
    tri = triangle_from_sides(4, 5, 6)
    points = potential_arc(tri, [-10.0 + 0.25 * k for k in range(81)])
    assert len(points) == 81 and all(ap.converged for ap in points)
    assert sum(ap.iterations for ap in points) <= 190
    assert max(ap.iterations for ap in points) <= 4
    [at2] = [ap for ap in points if ap.p == 2.0]
    assert at2.iterations == 1


def test_arc_81_steps_on_a_thin_isosceles_costs_at_most_190_evaluations():
    # the shape of the riesz_arc benchmark's band: smallest angle 0.11 rad,
    # the other two equal
    rest = 0.5 * (math.pi - 0.11)
    tri = triangle_from_sides(math.sin(0.11), math.sin(rest), math.sin(rest))
    points = potential_arc(tri, [-10.0 + 0.25 * k for k in range(81)])
    assert len(points) == 81 and all(ap.converged for ap in points)
    assert sum(ap.iterations for ap in points) <= 190
    assert max(ap.iterations for ap in points) <= 4


def test_edge_rule_layouts_are_read_only():
    edge, centers = rz._panel_layout((2, 3, 4))
    assert edge.tolist() == [0, 0, 1, 1, 1, 2, 2, 2, 2]
    assert centers.tolist() == [1, 3, 1, 3, 5, 1, 3, 5, 7]
    for array in (edge, centers):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "tri",
    [triangle_from_sides(4, 5, 6), triangle_from_sides(1, 1, 1.9), _sliver(0.005)],
    ids=["4,5,6", "1,1,1.9", "sliver"],
)
def test_coarse_sweep_predictor_costs_no_more_than_previous_point(tri, monkeypatch):
    points = potential_arc(tri, COARSE_SWEEP)
    assert all(ap.converged for ap in points)
    with monkeypatch.context() as m:
        m.setattr(rz, "_predict", lambda tri, history, p, diam: history[-1][1])
        plain = potential_arc(tri, COARSE_SWEEP)
    assert all(ap.converged for ap in plain)
    assert sum(ap.iterations for ap in points) <= sum(ap.iterations for ap in plain)


def test_arc_keeps_duplicate_exponents_and_empty_sweeps():
    tri = triangle_from_sides(4, 5, 6)
    points = potential_arc(tri, [0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    assert [ap.p for ap in points] == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0]
    assert all(ap.converged for ap in points)
    assert points[1].point.distance_to(points[2].point) < 1e-9 * diameter(tri)
    assert [ap.iterations for ap in points[3:5]] == [1, 1]
    assert potential_arc(tri, []) == []


@pytest.mark.parametrize("lo, hi", [(-10.0, -5.0), (3.0, 10.0)])
def test_arc_without_p2_converges(lo, hi):
    tri = triangle_from_sides(4, 5, 6)
    p_values = [lo + 0.25 * k for k in range(int(4 * (hi - lo)) + 1)]
    points = potential_arc(tri, p_values)
    assert [ap.p for ap in points] == p_values
    assert all(ap.converged for ap in points)


def test_arc_predictor_ignores_failed_points(monkeypatch):
    tri = triangle_from_sides(4, 5, 6)
    real_solve, real_predict = rz.rp_center, rz._predict
    failed = {-1.5, 3.5}
    histories = []

    def flaky(tri, p, tol=1e-10, *, x0=None):
        if p in failed:
            raise NoConvergence(
                "forced", best_point=Point2(0.0, 0.0), residual_norm=1.0,
                iterations=rz._MAX_NEWTON_ITERATIONS,
            )
        return real_solve(tri, p, tol, x0=x0)

    def spy(tri, history, p, diam):
        histories.append([hp for hp, _ in history])
        return real_predict(tri, history, p, diam)

    monkeypatch.setattr(rz, "rp_center", flaky)
    monkeypatch.setattr(rz, "_predict", spy)
    points = rz.potential_arc(tri, [-3.0 + 0.5 * k for k in range(15)])
    assert {ap.p for ap in points if not ap.converged} == failed
    assert all(ap.converged for ap in points if ap.p not in failed)
    assert histories and not any(failed & set(h) for h in histories)


def test_arc_points_match_solves_from_the_centroid():
    tri = triangle_from_sides(4, 5, 6)
    points = {ap.p: ap for ap in potential_arc(tri, [-10.0 + 0.25 * k for k in range(81)])}
    for p in (-10.0, -1.0, 0.0, 2.0, 5.0, 10.0):
        alone = rp_center(tri, p)
        assert points[p].point.distance_to(alone.point) < 1e-9 * diameter(tri), p


def test_singular_jacobian_takes_the_least_squares_step(monkeypatch):
    tri = triangle_from_sides(4, 5, 6)
    real_rule, real_lstsq = rz._edge_rule, np.linalg.lstsq
    calls = []

    def rank_one_first(tri, q, p, r0):
        val, mag, err, jac = real_rule(tri, q, p, r0)
        if not calls:
            jac = np.array([jac[0], jac[0]])  # singular: two equal rows
        return val, mag, err, jac

    def counted(*args, **kwargs):
        calls.append(args)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(rz, "_edge_rule", rank_one_first)
    monkeypatch.setattr(rz.np.linalg, "lstsq", counted)
    rep = rz.rp_center(tri, -1.0)
    assert len(calls) == 1
    assert rep.residual_norm < 1e-10
    point, _ = electrostatic_center(tri)
    assert rep.point.distance_to(point) < 1e-8 * diameter(tri)


def test_admissibility_matches_classify_and_boundary_distance():
    from tripotential.geometry import PointLocation, classify_point, distance_to_boundary

    rng = make_rng(510)
    agree = 0
    for _ in range(2000):
        tri = random_triangle(rng)
        A, B, C = tri.vertices
        w = rng.uniform(-0.1, 1.0, size=3)
        w /= w.sum()
        q = Point2(
            w[0] * A.x + w[1] * B.x + w[2] * C.x,
            w[0] * A.y + w[1] * B.y + w[2] * C.y,
        )
        diam = diameter(tri)
        reference = (
            classify_point(tri, q) is PointLocation.INTERIOR
            and distance_to_boundary(tri, q) > rz.INTERIOR_MARGIN_RTOL * diam
        )
        assert (rz._admissible_ray_scale(tri, q, diam) is not None) == reference
        agree += reference
    assert 0 < agree < 2000


def test_stationarity_residual_refuses_an_unconverged_magnitude_pass():
    # at p = 10 on this sliver the magnitude pass of a window stops short
    # of its 1e-3 relative target; its value would set the integral's
    # tolerance
    tri = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.5, 1e-6))
    with pytest.raises(ToleranceNotReached, match="magnitude"):
        stationarity_residual(tri, centroid(tri), 10.0)
