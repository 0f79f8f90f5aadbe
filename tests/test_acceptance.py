"""End-to-end acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (run with -s or -v to see them). Golden values
carry more digits than double precision resolves; tolerances are pinned
at what float64 supports (1e-10 .. 1e-12 relative).
"""

import math
import time
from contextlib import contextmanager

from tripotential import (
    Point2,
    SideLengths,
    brute_force_max,
    center_function_trilinears,
    centroid,
    diameter,
    electrostatic_center,
    field_closed,
    illuminating_spread,
    initial_guess,
    kimberling_search_value,
    lambda_equilateral,
    lambda_residual,
    potential_closed,
    potential_quadrature,
    ratio_band_survey,
    rp_center,
    side_lengths,
    solve_lambda,
    stationarity_spreads,
    triangle_from_sides,
)

from conftest import (
    GOLDEN_CENTER,
    GOLDEN_LAMBDA,
    SEARCH_VALUE_6_9_13,
    make_rng,
    random_interior_point,
    random_sides,
    random_triangle,
    transform_point,
    transform_triangle,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def best_runtime(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_lambda_golden_value(golden_triangle):
    with criterion(1, "lambda golden value to 1e-12 relative, under 1 ms"):
        sides = side_lengths(golden_triangle)
        sol = solve_lambda(sides)
        assert abs(sol.lam - GOLDEN_LAMBDA) / GOLDEN_LAMBDA < 1e-12
        assert best_runtime(lambda: solve_lambda(sides)) < 1e-3


def test_criterion_02_center_golden_value(golden_triangle):
    with criterion(2, "center golden value to 1e-10 absolute, under 1 ms"):
        point, _ = electrostatic_center(golden_triangle)
        assert abs(point.x - GOLDEN_CENTER[0]) < 1e-10
        assert abs(point.y - GOLDEN_CENTER[1]) < 1e-10
        assert best_runtime(
            lambda: electrostatic_center(golden_triangle)
        ) < 1e-3


def test_criterion_03_kimberling_search_value():
    with criterion(3, "search value for sides (6,9,13) to 1e-10 relative"):
        d_a = kimberling_search_value(SideLengths(6, 9, 13))
        assert abs(d_a - SEARCH_VALUE_6_9_13) / SEARCH_VALUE_6_9_13 < 1e-10


def test_criterion_04_equilateral_closed_form():
    with criterion(4, "equilateral root 3 log(2+sqrt(3)) and centroid center"):
        sol = solve_lambda(SideLengths(1, 1, 1))
        lam0 = lambda_equilateral()
        assert abs(sol.lam - lam0) / lam0 < 1e-12
        tri = triangle_from_sides(1, 1, 1)
        point, _ = electrostatic_center(tri)
        assert point.distance_to(centroid(tri)) < 1e-12 * diameter(tri)


def test_criterion_05_characteristic_identities():
    with criterion(5, "identity spreads < 1e-9 at centers, > 1e-6 at centroids"):
        rng = make_rng(81001)
        for _ in range(100):
            tri = random_triangle(rng, scalene_gap=0.05)
            point, _ = electrostatic_center(tri)
            side_spread, tan_spread = stationarity_spreads(tri, point)
            assert side_spread < 1e-9
            assert tan_spread < 1e-9
            g_side, g_tan = stationarity_spreads(tri, centroid(tri))
            assert g_side > 1e-6
            assert g_tan > 1e-6


def test_criterion_06_stationarity_and_maximality():
    with criterion(6, "field vanishes at centers; local maximality holds"):
        rng = make_rng(81002)
        for _ in range(100):
            tri = random_triangle(rng)
            point, _ = electrostatic_center(tri)
            v0 = potential_closed(tri, point)
            diam = diameter(tri)
            assert field_closed(tri, point).norm() < 1e-8 * v0 / diam
            h = 1e-3 * diam
            for k in range(16):
                angle = 2 * math.pi * k / 16
                probe = Point2(
                    point.x + h * math.cos(angle), point.y + h * math.sin(angle)
                )
                assert potential_closed(tri, probe) < v0


def test_criterion_07_brute_force_oracle_agreement():
    with criterion(7, "quadrature-backed maximizer within 1e-4 diam, < 10 s"):
        rng = make_rng(81003)
        start = time.perf_counter()
        for _ in range(20):
            tri = random_triangle(rng)
            approx = brute_force_max(tri, grid_n=64, refine_iters=6)
            point, _ = electrostatic_center(tri)
            assert approx.distance_to(point) < 1e-4 * diameter(tri)
        assert time.perf_counter() - start < 10.0


def test_criterion_08_closed_form_vs_quadrature():
    with criterion(8, "closed form vs adaptive quadrature to 1e-9 relative"):
        rng = make_rng(81004)
        for _ in range(100):
            tri = random_triangle(rng)
            p = random_interior_point(rng, tri, margin=0.001)
            vc = potential_closed(tri, p)
            vq = potential_quadrature(tri, p)
            assert abs(vc - vq) / abs(vq) < 1e-9


def test_criterion_09_general_exponent_specializations():
    with criterion(9, "p=2 centroid, p=-1 electrostatic, p=-2 illuminating"):
        rng = make_rng(81005)
        for _ in range(20):
            tri = random_triangle(rng)
            diam = diameter(tri)
            rep2 = rp_center(tri, 2.0)
            assert rep2.point.distance_to(centroid(tri)) < 1e-9 * diam
            rep_m1 = rp_center(tri, -1.0)
            point, _ = electrostatic_center(tri)
            assert rep_m1.point.distance_to(point) < 1e-8 * diam
            rep_m2 = rp_center(tri, -2.0, tol=1e-12)
            assert illuminating_spread(tri, rep_m2.point) < 1e-8


def test_criterion_10_residual_monotonicity():
    with criterion(10, "residual strictly decreasing on geometric grids"):
        rng = make_rng(81006)
        violations = 0
        for _ in range(100):
            sides = random_sides(rng)
            guess = initial_guess(sides)
            lams = [guess / 16.0 * 256.0 ** (k / 99.0) for k in range(100)]
            values = [lambda_residual(sides, lam) for lam in lams]
            violations += sum(
                1 for x, y in zip(values, values[1:]) if not x > y
            )
        assert violations == 0


def test_criterion_11_covariance_suite():
    with criterion(11, "similarity covariance of centers, lambda, trilinears"):
        rng = make_rng(81007)
        for _ in range(20):
            tri = random_triangle(rng)
            point, sol = electrostatic_center(tri)
            angle = rng.uniform(0, 2 * math.pi)
            dx, dy = rng.uniform(-4, 4, size=2)
            factor = rng.uniform(0.1, 10.0)
            tri2 = transform_triangle(tri, angle, dx, dy, factor)
            point2, sol2 = electrostatic_center(tri2)
            expected = transform_point(point, angle, dx, dy, factor)
            assert point2.distance_to(expected) < 1e-10 * diameter(tri2)
            # lambda is a pure shape parameter
            assert abs(sol2.lam - sol.lam) / sol.lam < 1e-12
            # trilinear ratios survive pure scaling
            sides = side_lengths(tri)
            scaled = SideLengths(
                factor * sides.a, factor * sides.b, factor * sides.c
            )
            t1 = center_function_trilinears(sides)
            t2 = center_function_trilinears(scaled)
            assert abs(
                t2.tau_b / t2.tau_a - t1.tau_b / t1.tau_a
            ) < 1e-12 * abs(t1.tau_b / t1.tau_a)
            assert abs(
                t2.tau_c / t2.tau_a - t1.tau_c / t1.tau_a
            ) < 1e-12 * abs(t1.tau_c / t1.tau_a)


def test_criterion_12_empirical_ratio_band():
    with criterion(12, "lambda-excess ratio band inside [0.40, 1.10]"):
        summary = ratio_band_survey(1000, seed=20240809)
        assert 0.40 <= summary.minimum
        assert summary.maximum <= 1.10
        assert 0.5 <= summary.mean <= 1.0
