"""The API contract by property, over the functions that compute in the
triangle's local frame: at any size from 2^-498 to 2^498, offset up to
1e12 diameters, smallest angle down to 1e-6, rotation and vertex order,
each call returns finite values or raises a TripotentialError. Scaling
the triangle by 2^k scales every length it returns by 2^k, and moving it
by an offset moves every point it returns by that offset. The oracle
layer keeps the same contract at the centroid, without the scaling.

Vertices are built from Python floats: numpy scalars would turn an
overflow into a RuntimeWarning, which pytest makes an error."""

import dataclasses
import inspect
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripotential
from tripotential import (
    DegenerateTriangle,
    Point2,
    PointLocation,
    Triangle,
    Trilinears,
    TripotentialError,
    area,
    brute_force_max,
    cartesian_to_trilinear,
    center_function_trilinears,
    centroid,
    cevian_angles,
    circumcenter,
    classify_point,
    diameter,
    distance_to_boundary,
    electrostatic_center,
    field_closed,
    illuminating_spread,
    incenter,
    initial_guess,
    inradius,
    inversion_first_moment,
    kimberling_search_value,
    lambda_curve,
    lambda_equilateral,
    lambda_residual,
    orthocenter,
    potential_arc,
    potential_closed,
    potential_field_batch,
    potential_quadrature,
    ratio_band_survey,
    rp_center,
    shape_parameter,
    side_lengths,
    solve_lambda,
    stationarity_residual,
    stationarity_spreads,
    thomson_residual,
    triangle_from_sides,
    trilinear_to_cartesian,
    vertex_distances,
)

# Relative accuracy compared, lengths in units of the diameter. Both
# transformations are exact on the frame, so every call but the lambda
# solve sees the same frame before and after. The solve works on the side
# lengths: it is exactly equivariant under 2^k while its slope's length^3
# products stay in range (about 2^+-330, see test_scale), but translation
# rounds the side lengths, and 2^+-498 lies outside that range. On slivers
# those last bits move the center, and decide whether the bracket
# collapses, so it is held to the loose end of the documented 1e-10 ..
# 1e-12, and a typed error on one side of a comparison only is accepted.
RTOL = {"electrostatic_center": 1e-10}


def _poses(angle_q, split, turn, offset_q, direction, order):
    """Vertices, as Python floats, of a triangle with diameter 1 and angles
    min_angle <= beta <= gamma, rotated and relabelled, near the origin
    and moved off it by (ox, oy): (near, moved, (ox, oy)), moved exactly
    near + (ox, oy).

    Each draw is a quantile in [0, 1]: the smallest angle is
    1e-6**angle_q, beta sits at split of its range, the rotation and the
    offset's direction are turn and direction of a full turn, and the
    offset is 10**(14 offset_q - 2) diameters. Its components are rounded
    to integers, 0 below 2, so that both triangles are exact.
    """
    min_angle = 1e-6**angle_q
    beta = min_angle + split * (0.5 * (math.pi - min_angle) - min_angle)
    gamma = math.pi - min_angle - beta
    b = math.sin(beta) / math.sin(gamma)
    local = [(0.0, 0.0), (1.0, 0.0), (b * math.cos(min_angle), b * math.sin(min_angle))]
    cs, sn = math.cos(2.0 * math.pi * turn), math.sin(2.0 * math.pi * turn)
    dist = 10.0 ** (14.0 * offset_q - 2.0)
    ox, oy = (
        float(round(dist * f(2.0 * math.pi * direction))) for f in (math.cos, math.sin)
    )
    ox, oy = (o if abs(o) >= 2.0 else 0.0 for o in (ox, oy))
    near = [
        ((cs * x - sn * y + ox) - ox, (sn * x + cs * y + oy) - oy)
        for x, y in (local[i] for i in order)
    ]
    return near, [(x + ox, y + oy) for x, y in near], (ox, oy)


def _calls(tri, q):
    """(name, thunk) per contract call; a thunk returns (point coordinates,
    scale-free values). q is the Thomson residual's point."""

    def point(p):
        return [p.x, p.y]

    def rp(p):
        rep = rp_center(tri, p)
        return point(rep.point), [rep.residual_norm, rep.iterations]

    def center():
        p, sol = electrostatic_center(tri)
        return point(p), [sol.lam]

    def curve():
        return [v for _, p in lambda_curve(tri, [0.1, 1.0, 10.0]) for v in point(p)], []

    def roundtrip():
        return point(trilinear_to_cartesian(tri, cartesian_to_trilinear(tri, centroid(tri)))), []

    return [
        ("incenter", lambda: (point(incenter(tri)), [])),
        ("circumcenter", lambda: (point(circumcenter(tri)), [])),
        ("orthocenter", lambda: (point(orthocenter(tri)), [])),
        ("centroid", lambda: (point(centroid(tri)), [])),
        ("trilinear_to_cartesian", roundtrip),
        ("electrostatic_center", center),
        ("lambda_curve", curve),
        ("thomson_residual", lambda: ([], [thomson_residual(tri, q)])),
        ("rp_center(-4)", lambda: rp(-4.0)),
        ("rp_center(5)", lambda: rp(5.0)),
    ]


def _outcomes(vertices, q):
    """Per call, its values, checked finite, or None for a typed error."""
    tri = Triangle(*(Point2(x, y) for x, y in vertices))
    out = []
    for name, thunk in _calls(tri, Point2(*q)):
        try:
            coords, free = thunk()
        except TripotentialError:
            out.append((name, None))
            continue
        assert all(math.isfinite(v) for v in coords + free), name
        out.append((name, (coords, free)))
    return out


def _agree(ref, got, to_ref, tol):
    """The outcomes of two triangles agree once to_ref(i, v) maps got's
    i-th point coordinate v back, within tol(rtol, v)."""
    for (name, r), (_, g) in zip(ref, got):
        rtol = RTOL.get(name, 1e-12)
        if r is None or g is None:
            assert r is g or name in RTOL, name
            continue
        for i, (v, w) in enumerate(zip(g[0], r[0])):
            assert abs(to_ref(i, v) - w) <= tol(rtol, v), (name, v, w)
        for v, w in zip(g[1], r[1]):
            assert abs(v - w) <= rtol * max(1.0, abs(w)), (name, v, w)


QUANTILE = st.floats(0.0, 1.0)


@settings(max_examples=300)
@given(
    angle_q=QUANTILE, split=QUANTILE, turn=QUANTILE, offset_q=QUANTILE,
    direction=QUANTILE, order=st.permutations(range(3)), scale_q=QUANTILE,
)
# the shape of 4,5,6 (smallest angle 0.7227) 1e12 diameters out, at
# scale 2^-10 (the circumcenter was 8e12 diameters off) and 2^493 (the
# circumcenter overflowed to nan)
@example(angle_q=0.02353, split=0.42, turn=0.0, offset_q=1.0, direction=0.125,
         order=[0, 1, 2], scale_q=488 / 996)
@example(angle_q=0.02353, split=0.42, turn=0.1, offset_q=1.0, direction=0.125,
         order=[2, 1, 0], scale_q=991 / 996)
def test_frame_functions_keep_the_contract_and_are_equivariant(
    angle_q, split, turn, offset_q, direction, order, scale_q
):
    k = round(996 * scale_q) - 498
    near, moved, (ox, oy) = _poses(angle_q, split, turn, offset_q, direction, order)
    try:
        diam = diameter(Triangle(*(Point2(x, y) for x, y in near)))
    except DegenerateTriangle:
        return
    # an interior point off the Thomson cubic, rounded as the vertices are
    q = [0.5 * a + 0.3 * b + 0.2 * c for a, b, c in zip(*near)]
    q = ((q[0] + ox) - ox, (q[1] + oy) - oy)
    q_moved = (q[0] + ox, q[1] + oy)
    ref = _outcomes(near, q)
    got = _outcomes(moved, q_moved)
    shift = (ox, oy)
    # a moved point carries the rounding of the last add, ulp(offset)
    _agree(ref, got, lambda i, v: v - shift[i % 2],
           lambda rtol, v: rtol * diam + 2.0 * math.ulp(v))
    scaled = _outcomes(
        [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in moved],
        (math.ldexp(q_moved[0], k), math.ldexp(q_moved[1], k)),
    )
    _agree(got, scaled, lambda i, v: math.ldexp(v, -k),
           lambda rtol, v: rtol * diam + math.ulp(math.ldexp(v, -k)))


def _oracle_values(tri, g):
    """Per oracle-layer call at the point g, its values as a list of
    floats, checked finite, or None for a typed error."""
    calls = {
        "potential_closed": lambda: potential_closed(tri, g),
        "field_closed": lambda: field_closed(tri, g),
        "potential_quadrature": lambda: potential_quadrature(tri, g),
        "illuminating_spread": lambda: illuminating_spread(tri, g),
        "stationarity_residual(-4)": lambda: stationarity_residual(tri, g, -4.0),
        "stationarity_residual(5)": lambda: stationarity_residual(tri, g, 5.0),
        "inversion_first_moment": lambda: inversion_first_moment(tri, g),
        "cevian_angles": lambda: cevian_angles(tri, g),
        "stationarity_spreads": lambda: stationarity_spreads(tri, g),
    }
    out = {}
    for name, thunk in calls.items():
        try:
            value = thunk()
        except TripotentialError:
            out[name] = None
            continue
        if isinstance(value, float):
            value = [value]
        elif not isinstance(value, tuple):
            value = vars(value).values()  # FieldVector, CevianAngles
        out[name] = list(value)
        assert all(math.isfinite(v) for v in out[name]), (name, out[name])
    return out


@settings(max_examples=30)
@given(
    angle_q=QUANTILE, split=QUANTILE, turn=QUANTILE, offset_q=QUANTILE,
    direction=QUANTILE, order=st.permutations(range(3)),
)
def test_oracle_layer_keeps_the_contract(
    angle_q, split, turn, offset_q, direction, order
):
    """At the centroid, near the origin and moved off it, every oracle and
    point test returns finite values or raises a TripotentialError, and
    the angular quadrature, where it returns, agrees with the closed form
    to its 1e-10 relative target."""
    for vertices in _poses(angle_q, split, turn, offset_q, direction, order)[:2]:
        try:
            tri = Triangle(*(Point2(x, y) for x, y in vertices))
        except DegenerateTriangle:
            return
        g = centroid(tri)
        assert isinstance(classify_point(tri, g), PointLocation)
        values = _oracle_values(tri, g)
        closed, quad = values["potential_closed"], values["potential_quadrature"]
        if closed is not None and quad is not None:
            assert abs(quad[0] - closed[0]) <= 1e-10 * abs(closed[0])


def _public_calls(tri, g):
    """One call per public function of the package, on tri and its
    interior point g."""
    sides = tri.sides
    return {
        "side_lengths": lambda: side_lengths(tri),
        "triangle_from_sides": lambda: triangle_from_sides(3.0, 4.0, 5.0),
        "area": lambda: area(tri),
        "inradius": lambda: inradius(tri),
        "diameter": lambda: diameter(tri),
        "distance_to_boundary": lambda: distance_to_boundary(tri, g),
        "classify_point": lambda: classify_point(tri, g),
        "cartesian_to_trilinear": lambda: cartesian_to_trilinear(tri, g),
        "trilinear_to_cartesian": lambda: trilinear_to_cartesian(tri, Trilinears(1.0, 2.0, 3.0)),
        "cevian_angles": lambda: cevian_angles(tri, g),
        "vertex_distances": lambda: vertex_distances(tri, g),
        "centroid": lambda: centroid(tri),
        "incenter": lambda: incenter(tri),
        "circumcenter": lambda: circumcenter(tri),
        "orthocenter": lambda: orthocenter(tri),
        "potential_closed": lambda: potential_closed(tri, g),
        "potential_quadrature": lambda: potential_quadrature(tri, g),
        "field_closed": lambda: field_closed(tri, g),
        "potential_field_batch": lambda: potential_field_batch(tri, [g.x], [g.y]),
        "brute_force_max": lambda: brute_force_max(tri, 16, 1),
        "lambda_residual": lambda: lambda_residual(sides, 4.0),
        "solve_lambda": lambda: solve_lambda(sides),
        "electrostatic_center": lambda: electrostatic_center(tri),
        "stationarity_spreads": lambda: stationarity_spreads(tri, g),
        "center_function_trilinears": lambda: center_function_trilinears(sides),
        "kimberling_search_value": lambda: kimberling_search_value(sides),
        "lambda_curve": lambda: lambda_curve(tri, [1.0, 4.0]),
        "ratio_band_survey": lambda: ratio_band_survey(100, 1),
        "lambda_equilateral": lambda: lambda_equilateral(),
        "shape_parameter": lambda: shape_parameter(sides),
        "initial_guess": lambda: initial_guess(sides),
        "stationarity_residual(-1)": lambda: stationarity_residual(tri, g, -1.0),
        "stationarity_residual(3)": lambda: stationarity_residual(tri, g, 3.0),
        "rp_center": lambda: rp_center(tri, 2.0),
        "illuminating_spread": lambda: illuminating_spread(tri, g),
        "inversion_first_moment": lambda: inversion_first_moment(tri, g),
        "potential_arc": lambda: potential_arc(tri, [1.0, 2.0]),
        "thomson_residual": lambda: thomson_residual(tri, g),
    }


def _leaves(value):
    """The scalars in a result, through tuples, lists and dataclasses;
    arrays and enums are leaves too."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name))
    else:
        yield value


def test_every_float_valued_public_result_is_a_python_float():
    """numpy scalars are floats by isinstance, but print as np.float64(...)
    and turn an overflow into a warning: public results are plain floats."""
    tri = Triangle(Point2(-1.0, 0.0), Point2(2.0, 0.0), Point2(0.0, 2.0))
    calls = _public_calls(tri, centroid(tri))
    functions = {
        name for name in tripotential.__all__
        if inspect.isfunction(getattr(tripotential, name))
    }
    assert functions == {name.split("(")[0] for name in calls}
    for name, thunk in calls.items():
        for leaf in _leaves(thunk()):
            if isinstance(leaf, float):
                assert type(leaf) is float, (name, leaf)
