"""The electrostatic center: the unique interior maximum of the potential.

At the zero-field point the three quantities

    (1/a) * log((r_B + r_C - a)/(r_B + r_C + a))     (and cyclic)

coincide; writing their common value as -lambda/s turns the pairwise
vertex-distance sums into u = a*coth(a*lambda/2s) (and cyclic), and the
requirement that the three sub-triangles cut off by the point tile the
whole triangle becomes one scalar equation in lambda:

    sum_cyc sqrt((u^2 - a^2)(a^2 - (v - w)^2)) = 4 * area .

The left side is strictly decreasing in lambda, so the root is unique.
It is found by safeguarded Newton steps on log(LHS/RHS) with the
analytic slope: LHS decays exponentially in lambda on slivers, and the
log form stays close to linear there. By Heron's formula on a, r_B, r_C
each term T_a is four times the area of PBC (and cyclic): the root's
terms are the center's barycentric coordinates, and give its point (in
the local frame, see ``geometry``), its trilinears T_a/a and search value.
Freeing lambda traces ``lambda_curve``; ``ratio_band_survey`` samples roots.

Numerical care: the differences the equation consumes (u - a, v - w) are
evaluated through g(x) = coth(x) - 1/x and 1/sinh(x) so that no
catastrophic cancellation occurs for small or large arguments. g is
evaluated in one place, ``coth_parts``; the Newton slope comes from the
same pass, since g' = 1 - g^2 - 2g/x follows from coth' = 1 - coth^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, NegativeRadicand, TripotentialError
from .estimates import initial_guess, lambda_equilateral, shape_parameter
from .geometry import (
    BOUNDARY_BAND_RTOL,
    Point2,
    SideLengths,
    Triangle,
    Trilinears,
    _clears_boundary,
    _cross,
    cevian_angles,
    heron_area,
    side_lengths,
    vertex_distances,
)

__all__ = [
    "LambdaSolution",
    "lambda_residual",
    "solve_lambda",
    "electrostatic_center",
    "stationarity_spreads",
    "center_function_trilinears",
    "kimberling_search_value",
    "lambda_curve",
    "RatioBandSummary",
    "ratio_band_survey",
]


def _coth_less_inv(x: float) -> float:
    """coth(x) - 1/x without cancellation; this is what differences
    of the form b*coth(bt) - c*coth(ct) reduce to (the 1/t poles cancel
    exactly)."""
    if x <= 0.125:
        x2 = x * x
        # Laurent tail of coth: x/3 - x^3/45 + 2x^5/945 - x^7/4725 + ...
        return x * (
            1.0 / 3.0
            + x2
            * (
                -1.0 / 45.0
                + x2
                * (
                    2.0 / 945.0
                    + x2
                    * (-1.0 / 4725.0 + x2 * (2.0 / 93555.0 - x2 * 1382.0 / 638512875.0))
                )
            )
        )
    return 1.0 / math.tanh(x) - 1.0 / x


def _inv_sinh(x: float) -> float:
    """1/sinh(x) for x > 0; decays to 0 without overflow for large x."""
    if x <= 350.0:
        return 1.0 / math.sinh(x)
    return 2.0 * math.exp(-x)  # exp(-2x) correction is below underflow


@dataclass(frozen=True)
class LambdaSolution:
    """Root of the side-length equation with the derived quantities.

    Attributes
    ----------
    lam : float
        The dimensionless parameter solving the equation.
    u, v, w : float
        a*coth(a*lam/2s) and cyclic; the pairwise sums of vertex distances.
    r_a, r_b, r_c : float
        Distances from the center to vertices A, B, C, from u, v, w.
    residual : float
        |LHS - RHS| at the accepted root.
    iterations : int
        Residual evaluations spent, Newton steps and bracketing fallbacks
        alike (each evaluation also yields the slope).
    terms : tuple of float
        T_a, T_b, T_c at the root: barycentrics; T_a / a is the center function.
    """

    lam: float
    u: float
    v: float
    w: float
    r_a: float
    r_b: float
    r_c: float
    residual: float
    iterations: int
    terms: tuple[float, float, float]


def _lhs_terms(
    sides: SideLengths, lam: float
) -> tuple[tuple[float, float, float], float, tuple[float, float, float, float]]:
    """The three square-root terms of the lambda equation, dLHS/dlambda,
    and the ``coth_parts`` they come from.

    With t = lambda/2s each term is T_x = x*csch(xt)*sqrt(x^2 - D^2),
    D = y*g(yt) - z*g(zt) and g(u) = coth(u) - 1/u, which keeps both
    factors accurate. Its slope is

        dT_x/dt = -x*csch(xt)*[x*coth(xt)*sqrt(x^2 - D^2) + D*D'/sqrt(x^2 - D^2)]

    with D' = y^2*g'(yt) - z^2*g'(zt). The g parts come from one
    ``coth_parts`` pass, and g' from g itself: coth' = 1 - coth^2 gives
    g'(u) = 1 - g^2 - 2g/u, so x^2*g'(xt) = x^2 - x*g*(x*g + 2/t). A
    radicand may graze zero from roundoff near the root; it is clamped at
    0 if above -1e-12 relative, below which genuine negativity is an
    invariant violation. The slope is nan when a radicand clamps to 0
    (the square root's derivative is unbounded there).
    """
    inv_t, ga, gb, gc = coth_parts(sides, lam)
    t = lam / (2.0 * sides.s)
    a, b, c = sides.a, sides.b, sides.c
    dga = a * a - ga * (ga + 2.0 * inv_t)
    dgb = b * b - gb * (gb + 2.0 * inv_t)
    dgc = c * c - gc * (gc + 2.0 * inv_t)
    terms = []
    dt = 0.0
    for x, gx, diff, ddiff in (
        (a, ga, gb - gc, dgb - dgc),
        (b, gb, gc - ga, dgc - dga),
        (c, gc, ga - gb, dga - dgb),
    ):
        rad = (x - diff) * (x + diff)
        if rad <= 0.0:
            if rad < -1e-12 * x * x:
                raise NegativeRadicand(
                    f"radicand {rad} for side {x} at lambda={lam}"
                )
            terms.append(0.0)
            dt = math.nan
            continue
        root = math.sqrt(rad)
        csch_x = _inv_sinh(x * t)
        terms.append(x * csch_x * root)
        # x*coth(xt) = 1/t + x*g(xt)
        dt -= x * csch_x * ((inv_t + gx) * root + diff * ddiff / root)
    return tuple(terms), dt / (2.0 * sides.s), (inv_t, ga, gb, gc)


def lambda_residual(sides: SideLengths, lam: float) -> float:
    """LHS(lambda) - RHS of the side-length equation.

    Strictly decreasing in lambda: positive left of the root, negative
    right of it.
    """
    return math.fsum(_lhs_terms(sides, lam)[0]) - 4.0 * heron_area(sides)


# Residual evaluations after which solve_lambda gives up.
_MAX_EVALS = 300


def solve_lambda(sides: SideLengths, tol: float = 1e-12) -> LambdaSolution:
    """Find the unique positive root of the lambda equation.

    Always solves; the center, its trilinears and the search value share
    one solve per side lengths and tol instead (``_root``).

    Runs Newton's method on log(LHS(lambda)/RHS) from the shape-based
    initial guess, with the analytic slope from the same pass that
    computes the three terms. LHS decays exponentially in lambda on
    slivers, which the log form turns into a near-linear function. Every
    evaluation tightens a sign bracket [lo, hi]; a step that leaves the
    bracket, is not finite, or comes from a clamped radicand is replaced
    by bisection, or by doubling/halving while one end of the bracket is
    still missing. Converged when the residual is below tol*RHS and
    either the Newton step or the bracket width is below tol*lambda.

    Raises
    ------
    BracketFailure
        If no sign change appears within 60 doublings/halvings
        (degenerate input).
    TripotentialError
        If 4*area is not a finite normal double, the bracket shrinks to
        adjacent floats, or 300 evaluations pass before the residual test
        is met (roundoff in LHS can exceed a tol near 1e-14 on slivers).
    """
    if tol < 1e-14:
        raise ValueError(f"tol must be >= 1e-14, got {tol}")
    rhs = 4.0 * heron_area(sides)
    if not sys.float_info.min <= rhs < math.inf:
        raise TripotentialError(f"4*area = {rhs!r} is not a finite normal double")
    lam = initial_guess(sides)
    lo, hi = 0.0, math.inf
    expansions = 0
    for evals in range(1, _MAX_EVALS + 1):
        terms, slope, parts = _lhs_terms(sides, lam)
        lhs = math.fsum(terms)
        f = lhs - rhs
        if f > 0.0:
            lo = lam
        elif f < 0.0:
            hi = lam
        else:
            break
        step = math.nan
        if lhs > 0.0 and slope < 0.0:
            step = math.log(rhs / lhs) * lhs / slope
        if abs(f) < tol * rhs and (abs(step) <= tol * lam or hi - lo < tol * lam):
            break
        lam_next = lam + step
        if not lo < lam_next < hi:  # also catches a nan step
            if lo > 0.0 and hi < math.inf:
                lam_next = 0.5 * (lo + hi)
                if not lo < lam_next < hi:
                    raise TripotentialError(
                        f"lambda bracket [{lo!r}, {hi!r}] collapsed with residual "
                        f"{abs(f) / rhs:.3g}*RHS above tol={tol}"
                    )
            else:
                expansions += 1
                if expansions > 60:
                    missing = "negative" if lo > 0.0 else "positive"
                    raise BracketFailure(
                        f"no {missing} residual reached by lambda={lam}"
                    )
                lam_next = 2.0 * lam if lo > 0.0 else 0.5 * lam
        lam = lam_next
    else:
        raise TripotentialError("lambda iteration failed to converge")

    inv_t, ga, gb, gc = parts
    return LambdaSolution(
        lam=lam,
        u=inv_t + ga,
        v=inv_t + gb,
        w=inv_t + gc,
        r_a=0.5 * (inv_t + gb + gc - ga),
        r_b=0.5 * (inv_t + gc + ga - gb),
        r_c=0.5 * (inv_t + ga + gb - gc),
        residual=abs(f),
        iterations=evals,
        terms=terms,
    )


def _root(sides: SideLengths, tol: float) -> LambdaSolution:
    """``solve_lambda(sides, tol)``, kept on ``sides`` unless it raises."""
    sol = sides._roots.get(tol)
    if sol is None:
        sol = sides._roots[tol] = solve_lambda(sides, tol)
    return sol


# Samples with t below this are excluded from ratio statistics (0/0).
_T_CUTOFF = 1e-6


@dataclass(frozen=True)
class RatioBandSummary:
    """Empirical band of (lambda - L0)/t over sampled triangles."""

    minimum: float
    maximum: float
    mean: float
    n_samples: int
    n_used: int
    seed: int


def ratio_band_survey(n_triangles: int, seed: int) -> RatioBandSummary:
    """Sample random triangle shapes and summarize (lambda - L0)/t.

    Triangles are drawn by two angles alpha, beta uniform on (0, pi/2)
    (every triangle has at least two acute angles, so this covers all
    shapes up to similarity); sides are sin(alpha) : sin(beta) :
    sin(gamma). Near-equilateral samples with t < 1e-6 are excluded from
    the statistics since the ratio degenerates to 0/0 there. Fully
    deterministic for a fixed seed.
    """
    if n_triangles < 100:
        raise ValueError(f"need at least 100 samples, got {n_triangles}")
    lam0 = lambda_equilateral()
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 0.5 * math.pi, size=(n_triangles, 2))
    ratios = []
    for alpha, beta in angles:
        gamma = math.pi - alpha - beta
        sides = SideLengths(math.sin(alpha), math.sin(beta), math.sin(gamma))
        t = shape_parameter(sides)
        if t < _T_CUTOFF:
            continue
        ratios.append((solve_lambda(sides).lam - lam0) / t)
    return RatioBandSummary(
        minimum=min(ratios),
        maximum=max(ratios),
        mean=math.fsum(ratios) / len(ratios),
        n_samples=n_triangles,
        n_used=len(ratios),
        seed=seed,
    )


def point_from_coth_parts(
    tri: Triangle, inv_t: float, ga: float, gb: float, gc: float
) -> tuple[float, float]:
    """The point whose vertex-distance sums are u = inv_t + ga (and cyclic),
    in the local frame: ``lambda_curve``'s point at each lambda.

    Subtracting the three vertex-distance circle equations pairwise
    yields a linear system (radical-center style) solved, A at 0, by

        x = [(|B|^2 - wu) yC - (|C|^2 - uv) yB - vw (yB - yC)] / [2 (xB yC - xC yB)]

    and the mirrored expression for y. The products vw, wu, uv all carry
    the common pole inv_t^2 = (2s/lambda)^2, which multiplies the
    telescoping sums sum(yB - yC) = 0 and drops out exactly; it is
    cancelled analytically here, since evaluating it numerically destroys
    the result for small lambda. The g parts, lengths of the triangle's
    own size, are scaled into the frame first.
    """
    e, bx, by, cx, cy = tri._frame
    k = math.ldexp(1.0, -e)
    inv_t, ga, gb, gc = k * inv_t, k * ga, k * gb, k * gc
    qa = -gb * gc
    qb = bx * bx + by * by - gc * ga
    qc = cx * cx + cy * cy - ga * gb
    gy = ga * (by - cy) + gb * cy - gc * by
    gx = ga * (bx - cx) + gb * cx - gc * bx
    num_x = qa * (by - cy) + qb * cy - qc * by + inv_t * gy
    num_y = qa * (bx - cx) + qb * cx - qc * bx + inv_t * gx
    den = 2.0 * (bx * cy - cx * by)
    return num_x / den, -num_y / den


def coth_parts(sides: SideLengths, lam: float) -> tuple[float, float, float, float]:
    """(2s/lambda, a*g(at), b*g(bt), c*g(ct)) with g(x) = coth(x) - 1/x;
    u, v, w are inv_t plus the respective g part. The only place g is
    evaluated: the lambda equation's terms and slope, the solved
    distances and the center's point all take it from here."""
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    t = lam / (2.0 * sides.s)
    return (
        2.0 * sides.s / lam,
        sides.a * _coth_less_inv(sides.a * t),
        sides.b * _coth_less_inv(sides.b * t),
        sides.c * _coth_less_inv(sides.c * t),
    )


def lambda_curve(
    tri: Triangle, lambda_values
) -> list[tuple[float, Point2]]:
    """The planar curve traced by freeing the lambda parameter.

    For each lambda > 0 the coth quantities u, v, w are formed directly
    (no root solve) and their vertex-distance circles intersected into a
    point (off the root the equation's terms do not tile the triangle);
    at the lambda root this reproduces the electrostatic center, elsewhere
    it sweeps a curve whose small- and large-lambda limits are classical
    centers. Stable coth evaluation keeps the extremes usable.
    """
    lams = [float(v) for v in lambda_values]
    if any(not math.isfinite(v) or v <= 0.0 for v in lams):
        raise ValueError("all lambda values must be positive and finite")
    sides = side_lengths(tri)
    return [
        (lam, tri._from_frame(*point_from_coth_parts(tri, *coth_parts(sides, lam))))
        for lam in lams
    ]


def electrostatic_center(
    tri: Triangle, tol: float = 1e-12
) -> tuple[Point2, LambdaSolution]:
    """The unique interior point where the field vanishes (max of V).

    The terms (T_a, T_b, T_c) of the sides' lambda root (one solve per
    sides and tol, see ``_root``) are its barycentric coordinates: in the
    local frame, A at 0, P = (T_b*B + T_c*C) / (T_a + T_b + T_c), checked
    there to be interior.
    """
    sides = side_lengths(tri)
    sol = _root(sides, tol)
    t_a, t_b, t_c = sol.terms
    total = t_a + t_b + t_c
    e, bx, by, cx, cy = tri._frame
    x, y = (t_b * bx + t_c * cx) / total, (t_b * by + t_c * cy) / total
    # classify_point's test on the frame point (the world point is rounded)
    k = math.ldexp(1.0, -e)
    a, b, c = k * sides.a, k * sides.b, k * sides.c
    tau = (_cross(x, y, bx, by, cx, cy) / a, _cross(x, y, cx, cy, 0.0, 0.0) / b,
           _cross(x, y, 0.0, 0.0, bx, by) / c)
    if not _clears_boundary(tau, BOUNDARY_BAND_RTOL * max(a, b, c)):
        raise TripotentialError(f"computed center {tri._from_frame(x, y)} is not interior")
    return tri._from_frame(x, y), sol


def stationarity_spreads(tri: Triangle, p: Point2) -> tuple[float, float]:
    """How far p is from satisfying the zero-field characterizations.

    Returns (side_relation_spread, angle_relation_spread): the max-min
    spreads of the log-scaled vertex-distance triple

        (1/a) log((r_B + r_C - a)/(r_B + r_C + a))   (and cyclic)

    and of the log-scaled tangent triple

        (1/sin alpha) log(tan(beta1/2) tan(gamma2/2))   (and cyclic).

    Both spreads vanish exactly at the field's stationary point and only
    there; the log forms avoid the underflow the exponentiated relations
    suffer on thin triangles.
    """
    ang = cevian_angles(tri, p)  # validates interiority
    sl = side_lengths(tri)
    r_a, r_b, r_c = vertex_distances(tri, p)

    q = (
        math.log((r_b + r_c - sl.a) / (r_b + r_c + sl.a)) / sl.a,
        math.log((r_c + r_a - sl.b) / (r_c + r_a + sl.b)) / sl.b,
        math.log((r_a + r_b - sl.c) / (r_a + r_b + sl.c)) / sl.c,
    )
    alpha = ang.alpha1 + ang.alpha2
    beta = ang.beta1 + ang.beta2
    gamma = ang.gamma1 + ang.gamma2
    tq = (
        math.log(math.tan(0.5 * ang.beta1) * math.tan(0.5 * ang.gamma2))
        / math.sin(alpha),
        math.log(math.tan(0.5 * ang.gamma1) * math.tan(0.5 * ang.alpha2))
        / math.sin(beta),
        math.log(math.tan(0.5 * ang.alpha1) * math.tan(0.5 * ang.beta2))
        / math.sin(gamma),
    )
    return (max(q) - min(q), max(tq) - min(tq))


def center_function_trilinears(sides: SideLengths, tol: float = 1e-12) -> Trilinears:
    """Trilinears of the center from its triangle center function.

    The generating function is

        f(a, b, c) = sqrt((coth^2(a L / (a+b+c)) - 1)
                          * (a^2 - (b coth(b L / (a+b+c))
                                    - c coth(c L / (a+b+c)))^2))

    evaluated with the one lambda root L shared by all three cyclic
    permutations (the root is symmetric in the sides). f is homogeneous
    of order 1 and symmetric in its last two arguments. f(a, b, c) is the
    equation's term T_a over a, from the root that ``electrostatic_center``
    and ``kimberling_search_value`` share (one solve per sides and tol).
    So a*tau_a + b*tau_b + c*tau_c = 4*area, twice the exact gauge of
    ``cartesian_to_trilinear``; the CLI's ``trilinears`` are these values.
    """
    t_a, t_b, t_c = _root(sides, tol).terms
    return Trilinears(t_a / sides.a, t_b / sides.b, t_c / sides.c)


def kimberling_search_value(sides: SideLengths, tol: float = 1e-12) -> float:
    """Distance from the center to side BC (the encyclopedia search key).

    The barycentric T_a / (T_a + T_b + T_c) from the lambda root's terms
    times the height 2 * area / a: a ratio of at most 1 times a length.
    """
    t_a, t_b, t_c = _root(sides, tol).terms
    return t_a / (t_a + t_b + t_c) * (2.0 * heron_area(sides) / sides.a)
