"""Extreme points of the distance-power potentials V_p.

V_p integrates |PQ|^p over the triangle (p = -1 is the electrostatic
case; p <= -2 is understood as potential differences, which leaves the
stationarity condition unchanged). Any interior stationary point of V_p
satisfies

    integral over [0, 2pi) of R(phi)^(p+1) e^{i phi} dphi = 0

with R(phi) the ray length from the point to the boundary. For p = -1
the correct degenerate form of the condition replaces R^0 by log R (the
limit kernel of (R^(p+1) - 1)/(p + 1)), which reproduces the negated
electrostatic field.

``rp_center`` integrates it edge by edge (``_edge_rule``): the half along
the edge in closed form, the normal half on a fixed rule graded toward
the foot of the perpendicular, and the exact Jacobian from the boundary
form (divergence theorem, n_e the outward normal)

    integral of R^(p+1) e^{i phi} dphi
        = (p+1)/p * sum over edges of n_e * integral of |PQ|^p dS

(log|PQ| in place of (p+1)/p |PQ|^p at p = 0, -|PQ|^-1 at p = -1).
R is measured in units of the ray scale r0, the geometric mean of the
point's distances to the three side lines, so the kernel, the residual
and the Newton step are free of the triangle's size.
``stationarity_residual`` keeps the adaptive angular quadrature as the
independent check.

``potential_arc`` traces the extreme points over a sweep of exponents by
predictor-corrector continuation (Allgower & Georg, Introduction to
Numerical Continuation Methods, 1990): it starts at p = 2, where the
answer is the centroid, and predicts each next start by gated Neville
extrapolation, of degree up to 5, along the points already solved.

Special values: p = 2 lands on the centroid, p = -2 on the equal
angle-per-area "illuminating" point, p = -4 on the point whose
unit-circle inversion of the boundary encloses a region with centroid at
the point itself.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, NotInterior, ToleranceNotReached, TripotentialError
from .geometry import (
    Point2,
    Triangle,
    _clears_boundary,
    _side_distances,
    centroid,
    diameter,
    inradius,
)
from .potential import BOUNDARY_EXCLUSION_RTOL, FieldVector, _cones, cone_windows
from .quadrature import _NODES, _WK, _gk15_panels, integrate_adaptive

__all__ = [
    "RpSolveReport",
    "stationarity_residual",
    "rp_center",
    "illuminating_spread",
    "inversion_first_moment",
    "potential_arc",
    "thomson_residual",
]

# Newton iterates keep at least this margin (times diameter) from the
# boundary, where the kernel R^(p+1) becomes ill-conditioned for p < -1.
INTERIOR_MARGIN_RTOL = 1e-6

# Half-width in s of the composite Kronrod-15 panels of the edge rule,
# min(_PANEL_HALF_WIDTH, _PANEL_HALF_WIDTH_P / (|p| + 1)): the kernel
# grows or decays like cosh(s)^(p+1), so panels narrow as |p| grows.
_PANEL_HALF_WIDTH = 0.25
_PANEL_HALF_WIDTH_P = 1.5
# Panels per edge above which the edge rule refuses the exponent.
_MAX_PANELS = 2**16
# Newton iterations before rp_center raises NoConvergence.
_MAX_NEWTON_ITERATIONS = 200

# The angular oracle's absolute tolerance per cone window, and the
# inversion check's composite Simpson panels per cone window.
_ORACLE_ABS_TOL = 1e-12
_INVERSION_PANELS = 4096


@dataclass(frozen=True)
class RpSolveReport:
    """An extreme point of V_p with solver diagnostics: from ``rp_center``
    (always converged) and per exponent of ``potential_arc``, where an
    unconverged row carries the best iterate."""

    p: float
    point: Point2
    residual_norm: float
    iterations: int
    converged: bool


def _ray_scale(tri: Triangle, p_pt: Point2) -> float:
    """The ray scale r0 at an interior point, used to normalize R before
    exponentiation so large |p| stays in range. Raises NotInterior unless
    p_pt clears the boundary by the exclusion band."""
    r0 = _admissible_ray_scale(tri, p_pt, diameter(tri), BOUNDARY_EXCLUSION_RTOL)
    if r0 is None:
        raise NotInterior(f"{p_pt} is not inside by more than the exclusion band")
    return r0


def _admissible_ray_scale(
    tri: Triangle, q: Point2, diam: float, margin_rtol: float = INTERIOR_MARGIN_RTOL
) -> float | None:
    """The ray scale r0 at q if q clears the boundary by margin_rtol * diam,
    else None: the geometric mean of q's distances to the side lines, on
    diameter-normalized values so it neither underflows nor overflows."""
    tau = tau_a, tau_b, tau_c = _side_distances(tri, q.x, q.y)
    if not _clears_boundary(tau, margin_rtol * diam):
        return None
    return diam * ((tau_a / diam) * (tau_b / diam) * (tau_c / diam)) ** (1.0 / 3.0)


def _kernel(p: float):
    if p == -1.0:
        return np.log
    expo = p + 1.0
    return lambda x: x**expo


def _require_converged(res, target: float, what: str) -> None:
    """ToleranceNotReached unless a window's quadrature result converged."""
    if not res.converged:
        raise ToleranceNotReached(
            f"stationarity window {what} reached {res.error:.3e} absolute "
            f"(target {target:.3e})",
            achieved=res.error,
            target=target,
        )


def _scaled_residual(tri: Triangle, p_pt: Point2, p: float):
    """The stationarity integral with R normalized by the local ray scale,
    by adaptive quadrature over the cone windows.

    Returns (complex integral, magnitude normalizer, ray scale). The
    normalizer is the coarse integral of |kernel|, which makes the ratio
    |integral| / normalizer a dimensionless asymmetry measure.
    """
    kern = _kernel(p)
    r0 = _ray_scale(tri, p_pt)
    _rescaled((), r0, p + 1.0)  # refuse the factor before integrating
    total = 0.0 + 0.0j
    magnitude = 0.0
    for phi_start, delta, ray in cone_windows(tri, p_pt):

        def f_abs(phis, ray=ray):
            return np.abs(kern(ray(phis) / r0))

        mag = integrate_adaptive(
            f_abs, phi_start, phi_start + delta, abs_tol=0.0, rel_tol=1e-3
        )
        _require_converged(mag, 1e-3 * abs(mag.value), "magnitude")
        window_mag = abs(mag.value)
        # For exponents far from -1 the normalized kernel still integrates
        # to large values; the per-window budget scales with it so the
        # absolute tolerance keeps meaning "digits of the window".
        window_tol = _ORACLE_ABS_TOL * max(1.0, window_mag)

        def f(phis, ray=ray):
            return kern(ray(phis) / r0) * np.exp(1j * phis)

        res = integrate_adaptive(f, phi_start, phi_start + delta, abs_tol=window_tol)
        _require_converged(res, window_tol, "quadrature")
        total += res.value
        magnitude += window_mag
    return total, magnitude, r0


@functools.lru_cache(maxsize=64)
def _panel_layout(panels: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The edge rule's layout for (panels per edge): each panel's edge
    index, and its center's offset 2k + 1 in half-widths from the edge's
    s1, k the panel's index along its edge. The arrays are shared between
    calls, so they are read-only."""
    edge = np.repeat(np.arange(3), panels)
    centers = np.concatenate([2.0 * np.arange(n) + 1.0 for n in panels])
    edge.flags.writeable = centers.flags.writeable = False
    return edge, centers


def _edge_rule(tri: Triangle, p_pt: Point2, p: float, r0: float):
    """The stationarity integral of ``_scaled_residual`` on sinh-graded
    edge panels, with its exact Jacobian.

    Returns (S, magnitude, error, jacobian): S is the integral of
    kern(R/r0) e^{i phi} dphi with r0 the ray scale at p_pt, magnitude
    the integral of |kern(R/r0)| dphi, error the panels' summed K15 - G7
    estimate, and jacobian d(Re S, Im S)/d(x/r0, y/r0) at fixed r0 (whose
    own variation contributes nothing at a root of S).

    Edge (V1, V2) of the counterclockwise triangle, with unit direction u
    and outward normal n = (u_y, -u_x), lies at d = (V1 - P) . n > 0. With
    t = d sinh(s) from the foot of the perpendicular, r = d cosh(s), k =
    d/r0, rho = r/r0 = k cosh(s), dphi = ds / cosh(s) and e^{i phi} = n
    sech(s) + u tanh(s), the edge adds n N + u U to S and -n (x) M to
    dS/d(P/r0), M the integral of kern'(rho) e^{i phi} ds. Only N is
    integrated on the panels, so the error estimate is N's. For p != -1
    the integrand of S is k rho^p e^{i phi}, U = (k/p) [rho^p] over the
    edge's ends (k log(r2/r1) at p = 0) and M = (p+1)/k (n N + u U). At
    p = -1, kern = log rho and kern' = 1/rho give U = [-sech(s) (log rho
    + 1)] and M = (n [tanh(s)] - u [sech(s)]) / k.
    """
    width = 2.0 * min(_PANEL_HALF_WIDTH, _PANEL_HALF_WIDTH_P / (abs(p) + 1.0))
    counts, rows, ends = [], [], []
    # in the edge table's units: only ratios of lengths enter
    px, py, r0 = p_pt.x * tri._scale, p_pt.y * tri._scale, r0 * tri._scale
    for x1, y1, x2, y2, _, _, _, ux, uy in tri._edges:
        ax, ay, bx, by = x1 - px, y1 - py, x2 - px, y2 - py
        d = ax * uy - ay * ux
        t1, t2 = ax * ux + ay * uy, bx * ux + by * uy
        s1, s2 = math.asinh(t1 / d), math.asinh(t2 / d)
        count = (s2 - s1) / width
        if not count <= _MAX_PANELS:
            raise TripotentialError(f"p={p:g} needs {count:.3g} panels on an edge")
        counts.append(math.ceil(count))
        k, r1, r2, moment = d / r0, math.hypot(ax, ay), math.hypot(bx, by), None
        rows.append((s1, 0.5 * (s2 - s1) / counts[-1], k))
        if p == -1.0:
            along = d / r1 * (math.log(r1 / r0) + 1.0) - d / r2 * (math.log(r2 / r0) + 1.0)
            moment = (t2 / r2 - t1 / r1) / k, (d / r1 - d / r2) / k
        elif p == 0.0:
            along = k * math.log(r2 / r1)
        else:  # expm1 where the ends' powers are close, else their difference
            rho1, rho2, x = r1 / r0, r2 / r0, p * math.log(r2 / r1)
            try:
                jump = rho2**p - rho1**p if abs(x) > 1.0 else rho1**p * math.expm1(x)
            except OverflowError:  # inf, as numpy gives: the kernel overflows
                jump = math.inf
            along = k * jump / p
        ends.append((ux, uy, k, along, moment))
    edge, centers = _panel_layout(tuple(counts))
    s1, half, scale = np.array(rows)[edge].T  # one row per panel
    cosh = np.cosh((s1 + centers * half)[:, None] + half[:, None] * _NODES)
    if p == -1.0:
        kern = np.log(scale[:, None] * cosh) / cosh  # kern(rho) sech(s)
        magnitude = half @ (np.abs(kern) @ _WK)
    else:
        kern = scale[:, None] * (scale[:, None] * cosh) ** p  # k rho^p
        magnitude = half @ (kern @ _WK)
    values, errors = _gk15_panels(kern / cosh, half)
    sx = sy = gxx = gxy = gyx = gyy = 0.0
    normals = np.bincount(edge, values, 3).tolist()  # N per edge
    for (ux, uy, k, along, moment), normal in zip(ends, normals):
        sx += uy * normal + ux * along
        sy += uy * along - ux * normal
        mn, mu = moment or ((p + 1.0) / k * normal, (p + 1.0) / k * along)
        mx, my = uy * mn + ux * mu, uy * mu - ux * mn  # M = n mn + u mu
        gxx, gxy, gyx, gyy = gxx - uy * mx, gxy - uy * my, gyx + ux * mx, gyy + ux * my
    jac = np.array([[gxx, gxy], [gyx, gyy]])
    return complex(sx, sy), float(magnitude), float(errors.sum()), jac


def _rescaled(parts, r0: float, expo: float) -> list[float]:
    """parts times r0**expo, back from units of r0, as Python floats;
    TripotentialError unless the factor and each nonzero product are
    finite normal doubles."""
    try:
        factor = r0**expo
    except OverflowError:
        factor = math.inf
    tiny = sys.float_info.min
    if not tiny <= factor < math.inf or any(
        part != 0.0 and not tiny <= abs(part * factor) < math.inf for part in parts
    ):
        raise TripotentialError(
            f"the result times r0**{expo:g} = {r0:.3e}**{expo:g} leaves the "
            "range of normal doubles"
        )
    return [float(part * factor) for part in parts]


def stationarity_residual(tri: Triangle, p_pt: Point2, p: float) -> FieldVector:
    """Real and imaginary parts of the V_p stationarity integral at p_pt.

    Integrated per edge cone by adaptive quadrature to 1e-12 absolute on
    the ray lengths normalized by their local geometric-mean scale; the
    returned value is rescaled back to the literal integral. For p = -1
    the kernel is log R and the result equals the negated closed-form
    field (sign convention: this integral is -E).

    Raises
    ------
    NotInterior
        Point outside, on the boundary, or inside the exclusion band.
    ToleranceNotReached
        A window's magnitude pass or its integral could not reach its
        tolerance within 20 bisections.
    TripotentialError
        The factor r0**(p + 1) or a nonzero component of the literal
        integral is not a finite normal double at this triangle size.
    """
    if not math.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p}")
    total, _, r0 = _scaled_residual(tri, p_pt, p)
    return FieldVector(*_rescaled((total.real, total.imag), r0, p + 1.0))


def rp_center(
    tri: Triangle,
    p: float,
    tol: float = 1e-10,
    *,
    x0: Point2 | None = None,
) -> RpSolveReport:
    """Solve for the interior extreme point of V_p.

    Damped 2D Newton on the stationarity residual, starting from the
    centroid unless x0 is given. Each iterate evaluates the residual,
    its error estimate and its exact Jacobian together on sinh-graded
    Kronrod-15 edge panels (see the module docstring); the 2x2 Newton
    system is solved by Cramer's rule, by least squares when singular.
    Steps are halved until the iterate stays interior with a
    1e-6 * diameter margin, tested in one trilinear pass that also
    yields the next ray scale. Convergence is on the scale-normalized
    residual (|integral| / integral of |kernel|) so the same tol is
    meaningful across exponents and triangle sizes. It iterates in the
    triangle's local frame; the point is rounded once, on the way back.

    Raises
    ------
    NotInterior
        x0 lacks the interior margin.
    NoConvergence
        After 200 iterations; carries the best iterate and its residual.
    ToleranceNotReached
        The panel rule's error estimate exceeds min(1e-12, 1e-3 * tol)
        times max(1, integral of |kernel|), or is nan (kernel overflow).
    TripotentialError
        |p| needs over 2^16 panels on an edge, or the Jacobian is not finite.
    """
    if not math.isfinite(p):
        raise ValueError(f"exponent must be finite, got {p}")
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    local = tri._local
    diam = diameter(local)
    quad_tol = min(1e-12, max(1e-14, 1e-3 * tol))

    x = tri._to_frame(x0) if x0 is not None else centroid(local)
    r0 = _admissible_ray_scale(local, x, diam)
    if r0 is None:
        raise NotInterior(f"starting point {x0 or centroid(tri)} lacks interior margin")

    best_x, best_norm = x, math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: a nan estimate
        for iteration in range(1, _MAX_NEWTON_ITERATIONS + 1):
            val, mag, err, jac = _edge_rule(local, x, p, r0)
            budget = quad_tol * max(1.0, mag)
            if not err <= budget:  # also catches a nan estimate
                raise ToleranceNotReached(
                    f"edge panel quadrature reached {err:.3e} absolute "
                    f"(target {budget:.3e})",
                    achieved=err,
                    target=budget,
                )
            norm = abs(val) / mag
            if norm < best_norm:
                best_x, best_norm = x, norm
            if norm < tol:
                return RpSolveReport(p, tri._from_frame(x.x, x.y), norm, iteration, True)
            dx, dy = _newton_step(jac, val)
            scale = r0  # the Jacobian is per unit r0
            for _ in range(60):
                cand = Point2(x.x + scale * dx, x.y + scale * dy)
                cand_r0 = _admissible_ray_scale(local, cand, diam)
                if cand_r0 is not None:
                    break
                scale *= 0.5
            else:
                cand, cand_r0 = x, r0  # fully damped; no admissible direction left
            x, r0 = cand, cand_r0
    raise NoConvergence(
        f"no convergence for p={p} after {_MAX_NEWTON_ITERATIONS} iterations "
        f"(best residual {best_norm:.3e})",
        best_point=tri._from_frame(best_x.x, best_x.y),
        residual_norm=best_norm,
        iterations=_MAX_NEWTON_ITERATIONS,
    )


def _newton_step(jac: np.ndarray, val: complex) -> tuple[float, float]:
    """The solution of jac @ step = -(Re val, Im val) by Cramer's rule; by
    least squares, dropping singular values below 1e-12 of the largest,
    when the determinant is not finite or within 1e-12 of the entries'
    squared norm, where it is no more than their rounding."""
    (a, b), (c, d) = jac.tolist()
    det = a * d - b * c
    if abs(det) > 1e-12 * (a * a + b * b + c * c + d * d) and math.isfinite(det):
        return (b * val.imag - d * val.real) / det, (c * val.real - a * val.imag) / det
    if not np.isfinite(jac).all():
        raise TripotentialError("the edge rule's Jacobian is not finite")
    step = np.linalg.lstsq(jac, [-val.real, -val.imag], rcond=1e-12)[0]
    return float(step[0]), float(step[1])


def illuminating_spread(tri: Triangle, p_pt: Point2) -> float:
    """Spread of the three angle/area ratios at p_pt.

    At the V_{-2} extreme point the angle each side subtends divided by
    the area of the corresponding sub-triangle is the same for all three
    sides; the max-min spread of the ratios is returned (0 exactly at
    that point), from areas in the edge table's units and mapped back
    with its unit length r0 = 2^e. As in ``stationarity_residual``,
    NotInterior and TripotentialError mark the exclusion band and a
    spread out of double range.
    """
    _ray_scale(tri, p_pt)
    k = tri._scale
    cones = _cones(tri, p_pt.x, p_pt.y)
    ratios = [abs(delta) / (0.5 * abs(cr) * k) for _, delta, cr, _, _ in cones]
    return _rescaled((max(ratios) - min(ratios),), 1.0 / k, -2.0)[0]


def inversion_first_moment(tri: Triangle, p_pt: Point2) -> float:
    """Norm of the centroid defect of the inverted boundary region.

    Inverting the boundary in the unit circle about p_pt encloses a
    region with radial extent 1/R(phi); its first moment about p_pt is
    (1/3) * integral of R(phi)^(-3) e^{i phi} dphi, evaluated here with a
    composite Simpson rule (4096 panels per edge window) so the check
    stays independent of the adaptive machinery. The moment equals one
    third of the p = -4 stationarity integral and vanishes exactly at
    the V_{-4} extreme point. R is taken in units of the ray scale r0;
    as in ``stationarity_residual``, NotInterior and TripotentialError
    mark a point in the exclusion band and a result out of double range.
    """
    n = _INVERSION_PANELS
    r0 = _ray_scale(tri, p_pt)
    _rescaled((), r0, -3.0)  # refuse the factor before integrating
    moment = 0.0 + 0.0j
    for phi_start, delta, ray in cone_windows(tri, p_pt):
        phi_end = phi_start + delta
        phis = np.linspace(phi_start, phi_end, n + 1)
        y = (ray(phis) / r0) ** -3.0 * np.exp(1j * phis)
        h = (phi_end - phi_start) / n
        moment += (h / 3.0) * (
            y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
        )
    return _rescaled((abs(moment / 3.0),), r0, -3.0)[0]


def _predict(tri: Triangle, history, p: float, diam: float) -> Point2:
    """Start for the solve at p from the last converged (p_i, x_i) of one
    direction of a sweep, distinct in p and ordered toward p.

    One Neville tableau over the last six points (fewer if there are not
    as many) gives ext[n], the Lagrange extrapolation to p of degree n
    through the last n + 1 points. ext[n] is taken if ext[n - 1] lies
    within 10% of ext[n]'s own step from the previous point, for n = 5,
    4, 3, 2 in turn: the highest degree with enough points whose gate
    passes wins. The accepted start must also be finite and keep the
    Newton margin; otherwise the previous point is returned.
    """
    dp = [p - hp for hp, _ in history[-6:]]
    row = [complex(q.x, q.y) for _, q in history[-6:]]
    ext = [row[-1]]
    for j in range(1, len(row)):
        for i in range(len(row) - j):  # row[i]: through points i..i+j
            row[i] = (dp[i] * row[i + 1] - dp[i + j] * row[i]) / (dp[i] - dp[i + j])
        ext.append(row[-1 - j])
    for n in range(min(5, len(ext) - 1), 1, -1):
        if abs(ext[n] - ext[n - 1]) <= 0.1 * abs(ext[n] - ext[0]):
            guess = Point2(ext[n].real, ext[n].imag) if cmath.isfinite(ext[n]) else None
            if guess is not None and _admissible_ray_scale(tri, guess, diam) is not None:
                return guess
            break
    return history[-1][1]


def potential_arc(
    tri: Triangle, p_values, tol: float = 1e-10
) -> list[RpSolveReport]:
    """Trace the curve of V_p extreme points over a sorted exponent sweep.

    The exponents -1 and 2 are inserted when they fall inside the swept
    range. The exponent nearest 2, where the extreme point is the
    centroid, is solved first from the centroid; the sweep then runs up
    and down from it, each solve warm-started from the gated polynomial
    extrapolation, of degree up to 5, of the points already solved in its
    direction (predictor-corrector continuation, see ``_predict``). Results come
    in ascending p, one row per exponent, duplicates included. A solve
    that raises NoConvergence is recorded with converged=False, does not
    abort the sweep and does not feed the predictor; any other error of
    one solve ends the sweep.
    """
    ps = [float(q) for q in p_values]
    if ps != sorted(ps):
        raise ValueError("p_values must be sorted ascending")
    if not ps:
        return []
    lo, hi = ps[0], ps[-1]
    for special in (-1.0, 2.0):
        if lo <= special <= hi and special not in ps:
            ps.append(special)
    ps.sort()

    local = tri._local  # the sweep runs in the frame
    diam = diameter(local)
    g = centroid(local)
    results: list[RpSolveReport] = [None] * len(ps)

    def solve(i: int, start: Point2) -> Point2 | None:
        try:
            rep = rp_center(local, ps[i], tol, x0=start)
        except NoConvergence as exc:
            results[i] = RpSolveReport(
                ps[i], exc.best_point, exc.residual_norm, exc.iterations, False
            )
            return None
        results[i] = rep
        return rep.point

    first = min(range(len(ps)), key=lambda i: abs(ps[i] - 2.0))
    x = solve(first, g)
    seed = [] if x is None else [(ps[first], x)]
    for sweep in (range(first + 1, len(ps)), range(first - 1, -1, -1)):
        history = list(seed)
        for i in sweep:
            start = _predict(local, history, ps[i], diam) if history else g
            x = solve(i, start)
            if x is None:
                continue
            if history and history[-1][0] == ps[i]:
                history[-1] = (ps[i], x)  # a duplicate exponent
            else:
                history.append((ps[i], x))
    return [replace(ap, point=tri._from_frame(ap.point.x, ap.point.y)) for ap in results]


def thomson_residual(tri: Triangle, p_pt: Point2) -> float:
    """Scale-free residual of the classical cubic through the centers.

    Evaluates b c tau_a (tau_b^2 - tau_c^2) + cyclic on exact-gauge
    trilinears and divides by a*b*c*rho^2. The cubic is homogeneous of
    total length degree 5 (3 in the trilinears, 2 in the sides) and so is
    the normalizer, making "near zero" mean the same thing for any
    triangle size. Vanishes at the incenter, centroid, circumcenter,
    orthocenter, the vertices, and the side midpoints. It is evaluated
    in the triangle's local frame, where the degree-5 products neither
    underflow nor overflow.
    """
    local, q = tri._local, tri._to_frame(p_pt)
    ta, tb, tc = _side_distances(local, q.x, q.y)
    a, b, c = local.sides.a, local.sides.b, local.sides.c
    rho = inradius(local)
    val = (
        b * c * ta * (tb * tb - tc * tc)
        + c * a * tb * (tc * tc - ta * ta)
        + a * b * tc * (ta * ta - tb * tb)
    )
    return val / (a * b * c * rho * rho)
