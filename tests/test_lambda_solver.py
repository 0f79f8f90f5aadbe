"""The lambda solver: analytic slope, agreement with bisection, work bound,
and the center's reconstruction far from the origin."""

import math
from decimal import Decimal, localcontext

import pytest

import tripotential.center as center
from tripotential.geometry import heron_area
from tripotential import (
    BracketFailure,
    Point2,
    SideLengths,
    Triangle,
    TripotentialError,
    center_function_trilinears,
    diameter,
    electrostatic_center,
    field_closed,
    lambda_residual,
    side_lengths,
    solve_lambda,
    stationarity_spreads,
    triangle_from_sides,
)

from conftest import make_rng

TOLS = (1e-12, 1e-13, 1e-14)


def survey_sides(seed, n):
    """Shapes by the library's survey rule (two angles uniform on
    (0, pi/2)), slivers included; shapes the library rejects are skipped."""
    out = []
    for alpha, beta in make_rng(seed).uniform(0.0, 0.5 * math.pi, size=(n, 2)):
        gamma = math.pi - alpha - beta
        try:
            sides = SideLengths(math.sin(alpha), math.sin(beta), math.sin(gamma))
        except TripotentialError:
            continue
        out.append(sides)
    return out


SLIVERS = [
    SideLengths(4.059529120638217e-05, 0.038430792547736556, 0.03847135781808261),
    SideLengths(0.005004276110466243, 0.04325422958769839, 0.04825328057896306),
    SideLengths(1.0, 1.0, 1e-3),
    SideLengths(1.0, 0.6, 0.4 + 1e-4),
]


def sliver_sides(seed, n):
    """Shapes whose smallest angle is log-uniform in 1e-4..1e-2 rad."""
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        small = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2)))
        mid = rng.uniform(small, 0.5 * (math.pi - small))
        out.append(SideLengths(*map(math.sin, (small, mid, math.pi - small - mid))))
    return out


def bisection_reference(sides):
    """Sign bisection down to adjacent floats: (lambda, tols) where tols
    are those for which the solver's own acceptance test passes at some
    midpoint, checked as bisection with that test would stop."""
    rhs = 4.0 * heron_area(sides)
    lo = hi = 4.0
    while lambda_residual(sides, lo) <= 0.0:
        lo *= 0.5
    while lambda_residual(sides, hi) >= 0.0:
        hi *= 2.0
    solved = set()
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, solved
        f = lambda_residual(sides, mid)
        if f > 0.0:
            lo = mid
        elif f < 0.0:
            hi = mid
        else:
            return mid, set(TOLS)
        solved.update(
            tol for tol in TOLS if abs(f) < tol * rhs and hi - lo < tol * mid
        )


def slope_reference(sides, lam):
    """dLHS/dlambda at lam by a central difference of LHS in 50 digits,
    with D = y*coth(yt) - z*coth(zt) and csch written out from exp."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c = (Decimal(x) for x in (sides.a, sides.b, sides.c))

        def lhs(lam):
            t = lam / (a + b + c)
            total = 0
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                ey, ez, ex = (2 * y * t).exp(), (2 * z * t).exp(), (2 * x * t).exp()
                d = y * (ey + 1) / (ey - 1) - z * (ez + 1) / (ez - 1)
                total += 2 * x * (x * t).exp() / (ex - 1) * (x * x - d * d).sqrt()
            return total

        lam = Decimal(lam)
        h = lam * Decimal("1e-15")
        return float((lhs(lam + h) - lhs(lam - h)) / (2 * h))


FAT = [SideLengths(4, 5, 6), SideLengths(3, 4, 5), SideLengths(1, 1, 1.9),
       SideLengths(1, 1, 1)]


@pytest.mark.parametrize("u", [1e-3, 0.03, 0.1, 0.125, 0.126, 0.5, 2.0, 30.0])
def test_g_prime_against_high_precision(u):
    # The slope takes x^2*g'(xt) from g itself; u = xt is put on the
    # shortest and on the longest side in turn (lambda from 2e-3 to 120).
    for sides in FAT:
        for x in (min(sides.a, sides.b, sides.c), max(sides.a, sides.b, sides.c)):
            lam = 2.0 * sides.s * u / x
            _, slope, _ = center._lhs_terms(sides, lam)
            assert slope == pytest.approx(slope_reference(sides, lam), rel=1e-13)


@pytest.mark.parametrize("sides", SLIVERS)
def test_slope_on_slivers_against_high_precision(sides):
    root = solve_lambda(sides).lam
    for lam in (0.5 * root, root, 2.0 * root):
        _, slope, _ = center._lhs_terms(sides, lam)
        assert slope == pytest.approx(slope_reference(sides, lam), rel=1e-8)


@pytest.mark.parametrize("sides", survey_sides(401, 40) + SLIVERS)
def test_slope_matches_central_differences(sides):
    root = solve_lambda(sides).lam
    for lam in (0.5 * root, root, 2.0 * root):
        _, slope, _ = center._lhs_terms(sides, lam)
        h = 1e-4 * lam
        fd = lambda_residual(sides, lam + h) - lambda_residual(sides, lam - h)
        fd /= 2 * h
        assert math.isfinite(slope) and slope < 0.0
        assert slope == pytest.approx(fd, rel=1e-5)


def test_lambda_matches_bisection_reference():
    for sides in survey_sides(402, 2000):
        lam_ref, solved = bisection_reference(sides)
        for tol in TOLS:
            if tol not in solved:
                continue
            sol = solve_lambda(sides, tol)
            assert sol.lam == pytest.approx(lam_ref, rel=1e-12)
            assert sol.residual < tol * 4.0 * heron_area(sides)


@pytest.mark.parametrize("tol", TOLS)
def test_survey_sliver_solves_without_area_cross_check(tol):
    # Seed-1 survey shape with smallest angle 1.78e-5 rad: a quartic
    # side-length form of 4*area disagreed with Kahan's Heron by more than
    # 1e-7 here and used to reject it.
    sides = SideLengths(1.7811521018302825e-05, 0.8887664427558987, 0.8887746067099218)
    sol = solve_lambda(sides, tol)
    assert sol.lam == pytest.approx(21.61798234660115, rel=1e-13)
    assert sol.iterations <= 5
    assert sol.residual < tol * 4.0 * heron_area(sides)


def test_work_is_bounded():
    evals = [solve_lambda(sides, 1e-12).iterations for sides in survey_sides(402, 2000)]
    assert sum(evals) / len(evals) <= 4.5
    assert max(evals) <= 10
    # The seed-1 survey of 20,000 shapes (measured mean 3.5363, max 10).
    evals = [solve_lambda(sides, 1e-12).iterations for sides in survey_sides(1, 20000)]
    assert sum(evals) / len(evals) <= 3.54
    assert max(evals) <= 10
    # LHS decays exponentially in lambda on slivers; the log form keeps
    # Newton fast there (measured mean 4.0, max 5; 5.9 and 8 without it).
    evals = [solve_lambda(sides, 1e-12).iterations for sides in sliver_sides(403, 300)]
    assert sum(evals) / len(evals) <= 4.5
    assert max(evals) <= 6


def test_bracket_rescues_a_bad_slope(monkeypatch):
    # A slope 1000x too shallow overshoots on every step; bisection in the
    # sign bracket must still reach the same root.
    shapes = SLIVERS + survey_sides(404, 20)
    expected = [solve_lambda(sides).lam for sides in shapes]
    lhs_terms = center._lhs_terms

    def shallow(sides, lam):
        terms, slope, parts = lhs_terms(sides, lam)
        return terms, 1e-3 * slope, parts

    monkeypatch.setattr(center, "_lhs_terms", shallow)
    for sides, lam in zip(shapes, expected):
        assert solve_lambda(sides).lam == pytest.approx(lam, rel=2e-12)


def test_iterations_count_residual_evaluations(monkeypatch):
    calls = []
    lhs_terms = center._lhs_terms

    def counted(sides, lam):
        calls.append(lam)
        return lhs_terms(sides, lam)

    monkeypatch.setattr(center, "_lhs_terms", counted)
    for sides in SLIVERS:
        calls.clear()
        assert solve_lambda(sides).iterations == len(calls)


def test_the_root_takes_its_coth_parts_from_its_last_evaluation(monkeypatch):
    # One coth_parts pass per residual evaluation and none after: u, v, w
    # and the distances come from the evaluation at the accepted lambda.
    calls = []
    parts = center.coth_parts

    def counted(sides, lam):
        calls.append(lam)
        return parts(sides, lam)

    monkeypatch.setattr(center, "coth_parts", counted)
    for sides in SLIVERS + FAT:
        calls.clear()
        sol = solve_lambda(sides)
        assert sol.iterations == len(calls) and calls[-1] == sol.lam
        inv_t, ga, gb, gc = parts(sides, sol.lam)
        assert (sol.u, sol.v, sol.w) == (inv_t + ga, inv_t + gb, inv_t + gc)
        assert sol.r_a == 0.5 * (inv_t + gb + gc - ga)


def test_center_report_evaluates_the_equation_in_one_solve(monkeypatch):
    # The library calls behind the CLI's center report: the trilinears
    # reuse the root and the terms of the center's solve.
    calls = []
    lhs_terms = center._lhs_terms

    def counted(sides, lam):
        calls.append(lam)
        return lhs_terms(sides, lam)

    monkeypatch.setattr(center, "_lhs_terms", counted)
    shapes = survey_sides(405, 25)[:20]
    assert len(shapes) == 20
    for sides in shapes:
        calls.clear()
        tri = triangle_from_sides(sides.a, sides.b, sides.c)
        point, sol = electrostatic_center(tri)
        center_function_trilinears(side_lengths(tri))
        stationarity_spreads(tri, point)
        field_closed(tri, point)
        assert len(calls) == sol.iterations


@pytest.mark.parametrize("guess", [1e300, 1e-300])
def test_bracket_failure_after_sixty_expansions(monkeypatch, guess):
    monkeypatch.setattr(center, "initial_guess", lambda sides: guess)
    with pytest.raises(BracketFailure):
        solve_lambda(SideLengths(3, 4, 5))


@pytest.mark.parametrize("offset", [1e3, 1e4, 1e6, 1e8])
def test_center_far_from_origin(offset):
    # Dyadic vertices, so the translated triangle is the same triangle.
    base = ((0.0, 0.0), (1.0, 0.0), (0.375, 0.8125))
    tri0 = Triangle(*(Point2(x, y) for x, y in base))
    p0, _ = electrostatic_center(tri0)
    p, _ = electrostatic_center(
        Triangle(*(Point2(x + offset, y + offset) for x, y in base))
    )
    bound = 8.0 * math.ulp(offset) + 1e-12 * diameter(tri0)
    assert abs(p.x - (p0.x + offset)) <= bound
    assert abs(p.y - (p0.y + offset)) <= bound
