"""Scale-free evaluation: the lambda path, the Riesz solver, its residuals
and the side-length constructions at triangle sizes far from 1 (warnings
are errors, see pyproject.toml)."""

import math

import pytest

from tripotential import (
    Point2,
    Triangle,
    TripotentialError,
    center_function_trilinears,
    centroid,
    electrostatic_center,
    inversion_first_moment,
    kimberling_search_value,
    lambda_curve,
    potential_arc,
    rp_center,
    side_lengths,
    stationarity_residual,
    thomson_residual,
    triangle_from_sides,
)
from tripotential.geometry import area, heron_area

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
