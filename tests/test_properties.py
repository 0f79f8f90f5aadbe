"""The API contract, declared once in PUBLIC_CALLS: one row per public
function, with its call on a triangle and an interior point q, the length
dimension k of the numbers it returns (a value scales as s^k with the
triangle's size s; a point maps by the similarity), their tolerance, its
looser tolerance on the sliver and the sizes at which it raises.

* The sweep runs every row over three shapes, all six vertex orders,
  sizes 1e-300 .. 1e300 and offsets 0 and 1e8 diameters along (1, 1).
  Each call raises a TripotentialError at exactly the sizes its row
  pins, on every shape, offset and vertex order, or matches the same
  call at size 1 without offset, in the same vertex order, on the pose
  mapped back; bit for bit at a power-of-two size without offset,
  outside the lambda family. A bare exception, a non-finite value or a
  RuntimeWarning (an error, see pyproject.toml) fails.
* ``probe`` runs rows the same way on one shape at one size and interior
  point, for the per-function tests of test_scale.py.
* The hypothesis properties run rows over random shapes down to 1e-6
  rad, rotations, sizes 2^-498 .. 2^498 and offsets up to 1e12
  diameters, where both transformations are exact.

Vertices are built from Python floats: numpy scalars would turn an
overflow into a RuntimeWarning."""

import dataclasses
import inspect
import itertools
import math
from dataclasses import astuple
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tripotential
from tripotential import (
    DegenerateTriangle,
    Point2,
    PointLocation,
    Triangle,
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


SHAPES = {
    "acute": ((0.0, 0.0), (1.0, 0.0), (0.375, 0.8125)),
    "obtuse": ((0.0, 0.0), (1.0, 0.0), (0.2, 0.1)),
    "sliver": ((0.0, 0.0), (1.0, 0.0), (0.4, 1e-5)),
}
SIZES = (1e-300, 2.0**-500, 1e-160, 1.0, 1e160, 2.0**500, 1e300)
OFFSETS = (0.0, 1e8)  # diameters along (1, 1)


class Row(NamedTuple):
    """call(tri, q); dim, the length dimension of every number in the
    result, or a tuple with one per number in order (None: not compared),
    or None for a call that does not take the triangle (run once); rtol,
    relative to the largest number of a dimension, and to the diameter on
    a point (see _mismatch); shapes, those it is swept on; sliver, a
    looser rtol on the sliver; raises, the sizes at which the call raises
    a TripotentialError on every shape, offset and vertex order; lam, a row
    that solves the lambda equation: outside about 2^+-330 the slope's
    length^3 products leave the doubles and the solve bisects, so at
    2^+-500 it matches to rtol only."""

    call: Callable
    dim: object
    rtol: float = 1e-14
    shapes: tuple = tuple(SHAPES)
    sliver: float = 0.0
    raises: frozenset = frozenset()
    lam: bool = False


# The area, 4*area and the lambda family's area leave the normal doubles
# at 1e+-160 and beyond (the lambda family until its sides are scaled
# into range at its entry), and so do literal values of dimension -2;
# those of dimension -3, 3, 4 and 6 leave them at every size but 1.
_FAR = frozenset({1e-300, 1e-160, 1e160, 1e300})
_NOT_1 = frozenset(SIZES) - {1.0}
_LAM = {"raises": _FAR, "lam": True}
_ACUTE, _NOT_SLIVER = ("acute",), ("acute", "obtuse")

# LambdaSolution: lam, u, v, w, r_a, r_b, r_c, residual, iterations,
# terms. The residual and the count are not equivariant, and r_a, r_b,
# r_c cancel on slivers (test_scale holds them bit for bit under 2^k).
_SOLUTION = (0, 1, 1, 1, None, None, None, None, None, 2, 2, 2)
# RpSolveReport: p, point, residual_norm (held in the frame property),
# iterations, converged
_REPORT = (0, None, 0)


def _converged(arc):
    assert all(point.converged for point in arc), arc
    return arc


# On the sliver, the rounding that separates a 10^k pose from its unit
# pose, an ulp of each coordinate, is amplified: by up to diameter/slack
# in the rows that work from the side lengths (the slack is 1e-10 of the
# diameter), by diameter/height in the field at q, 5e-6 diameters from
# the long side, and in the circumcenter and orthocenter, 1e4 diameters
# out. Rows leave the sliver out where its V_p solves do not converge
# from the centroid (p < 0 and p = 10), and for time where a quadrature
# takes 0.05-0.8 s a row there; V, the arc and the p = -1 and 0 integrals
# (up to 0.15 s a row on the obtuse shape) run on the acute shape only.
PUBLIC_CALLS = {
    "side_lengths": Row(lambda tri, q: side_lengths(tri), 1),
    # vertices in the canonical pose, which does not move with the triangle
    "triangle_from_sides": Row(lambda tri, q: [astuple(v) for v in triangle_from_sides(
        *astuple(tri.sides)[:3]).vertices], 1, sliver=1e-6),
    "area": Row(lambda tri, q: area(tri), 2, raises=_FAR),
    "inradius": Row(lambda tri, q: inradius(tri), 1),
    "diameter": Row(lambda tri, q: diameter(tri), 1),
    "distance_to_boundary": Row(distance_to_boundary, 1),
    "classify_point": Row(classify_point, 0),
    "cartesian_to_trilinear": Row(cartesian_to_trilinear, 1),
    "trilinear_to_cartesian": Row(
        lambda tri, q: trilinear_to_cartesian(tri, cartesian_to_trilinear(tri, q)), 0),
    "cevian_angles": Row(cevian_angles, 0, 5e-15),
    "vertex_distances": Row(vertex_distances, 1),
    "centroid": Row(lambda tri, q: centroid(tri), 0),
    "incenter": Row(lambda tri, q: incenter(tri), 0),
    "circumcenter": Row(lambda tri, q: circumcenter(tri), 0, sliver=1e-11),
    "orthocenter": Row(lambda tri, q: orthocenter(tri), 0, sliver=1e-11),
    "potential_closed": Row(potential_closed, 1),
    "potential_quadrature": Row(potential_quadrature, 1, shapes=_ACUTE),
    "field_closed": Row(field_closed, 0, sliver=1e-13),
    "potential_field_batch": Row(
        lambda tri, q: potential_field_batch(tri, [q.x], [q.y]), (1, 0, 0), sliver=1e-13),
    "brute_force_max": Row(lambda tri, q: brute_force_max(tri, 16, 2), 0, shapes=_NOT_SLIVER),
    "lambda_residual": Row(lambda tri, q: lambda_residual(tri.sides, 4.0), 2, raises=_FAR),
    "solve_lambda": Row(lambda tri, q: solve_lambda(tri.sides), _SOLUTION, 1e-12, **_LAM),
    "electrostatic_center": Row(
        lambda tri, q: electrostatic_center(tri), _SOLUTION, 1e-12, **_LAM),
    "stationarity_spreads": Row(stationarity_spreads, (-1, 0)),
    "center_function_trilinears": Row(
        lambda tri, q: center_function_trilinears(tri.sides), 1, 1e-12, **_LAM),
    "kimberling_search_value": Row(
        lambda tri, q: kimberling_search_value(tri.sides), 1, 1e-12, **_LAM),
    "lambda_curve": Row(lambda tri, q: lambda_curve(tri, [0.1, 1.0, 10.0]), 0, sliver=1e-10),
    "ratio_band_survey": Row(lambda tri, q: ratio_band_survey(100, 1), None),
    "lambda_equilateral": Row(lambda tri, q: lambda_equilateral(), None),
    "shape_parameter": Row(lambda tri, q: shape_parameter(tri.sides), 0, 1e-12, sliver=1e-7),
    "initial_guess": Row(lambda tri, q: initial_guess(tri.sides), 0, sliver=1e-7),
    # the literal integral has length dimension p + 1
    **{f"stationarity_residual({p:g})": Row(
        lambda tri, q, p=p: stationarity_residual(tri, q, p), int(p) + 1, 1e-13,
        _ACUTE if p in (-1.0, 0.0) else _NOT_SLIVER if p > -2.0 else tuple(SHAPES),
        raises=_NOT_1 if abs(p + 1.0) > 2.0 else frozenset())
       for p in (-4.0, -2.0, -1.0, 0.0, 2.0, 3.0, 5.0)},
    **{f"rp_center({p:g})": Row(lambda tri, q, p=p: rp_center(tri, p), _REPORT,
                                shapes=_NOT_SLIVER if p < 0.0 or p == 10.0 else tuple(SHAPES))
       for p in (-10.0, -4.0, -1.0, 0.0, 5.0, 10.0)},
    "illuminating_spread": Row(illuminating_spread, -2, raises=_FAR),
    "inversion_first_moment": Row(inversion_first_moment, -3, raises=_NOT_1),
    # -1 and 2 are inserted
    "potential_arc": Row(lambda tri, q: _converged(potential_arc(tri, [-2.0, 0.0, 3.0])),
                         _REPORT * 5, shapes=_ACUTE),
    # 2e-14 at (0.5, 0.1) of the acute shape, where it is -0.008
    "thomson_residual": Row(thomson_residual, 0, 1e-13),
}


def _leaves(value):
    """The points and scalars of a result, through tuples, lists, numpy
    arrays and dataclasses, in order; a Point2 is one leaf."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, Point2):
        return _leaves([getattr(value, f.name) for f in dataclasses.fields(value)])
    return [value]


def _is_number(leaf):
    return isinstance(leaf, (int, float)) and not isinstance(leaf, bool)


def _outcome(row, tri, q):
    try:
        return row.call(tri, q)
    except TripotentialError as exc:
        return exc


def _back(v, s, k):
    """v of length dimension k at size s, at size 1: divided by s k times,
    which stays in range between two in-range values."""
    for _ in range(abs(k)):
        v = v / s if k > 0 else v * s
    return v


def _mismatch(row, got, ref, ref_tri, s, shift, rtol, floor=0.0, ulps=1.0):
    """The first leaf of got, the call at ref_tri's pose scaled by s and
    moved by shift = (x, y), that does not match ref, the call on ref_tri,
    as (got, ref), or None. A number is held to rtol times the largest
    number of its dimension in ref, or floor if larger; a point to rtol
    times the diameter, plus ulps ulps of its coordinates for the way
    back. rtol 0 asks for the same bits."""
    got, ref = _leaves(got), _leaves(ref)
    numbers = [i for i, leaf in enumerate(ref) if _is_number(leaf)]
    dims = row.dim if isinstance(row.dim, tuple) else (row.dim,) * len(numbers)
    dim_of = dict(zip(numbers, dims, strict=True))
    scale = {k: max(floor, *(abs(ref[i]) for i in dim_of if dim_of[i] == k)) for k in set(dims)}
    tol = rtol * diameter(ref_tri)
    for i, (g, r) in enumerate(zip(got, ref, strict=True)):
        k = dim_of.get(i)
        if isinstance(r, Point2):
            for v, w, o in ((g.x, r.x, shift[0]), (g.y, r.y, shift[1])):
                if not abs((v - o) / s - w) <= tol + (ulps * math.ulp(v) / s if rtol else 0.0):
                    return g, r
        elif i not in dim_of:
            if g != r:
                return g, r
        elif k is not None and not abs(_back(g, s, k) - r) <= rtol * scale[k]:
            return g, r
    return None


def _pose(pts, order, s, diameters_out, weights=(0.25, 0.25, 0.5)):
    """The triangle pts in the vertex order, its point q at barycentric
    weights of pts, both scaled by s and moved diameters_out diameters
    along (1, 1), and that shift."""
    shift = diameters_out * s * max(math.dist(u, v) for u, v in itertools.combinations(pts, 2))
    qx, qy = (sum(w * v for w, v in zip(weights, coords)) for coords in zip(*pts))
    tri = Triangle(*(Point2(pts[i][0] * s + shift, pts[i][1] * s + shift) for i in order))
    return tri, Point2(qx * s + shift, qy * s + shift), shift


def _check(name, pts, order, s, diameters_out, refs, rtol, weights=(0.25, 0.25, 0.5)):
    """'raised' if the row named raises a typed error at this pose, else
    None if it matches the call at size 1 on the pose mapped back (kept in
    refs), else a description of the mismatch."""
    row = PUBLIC_CALLS[name]
    tri, q, shift = _pose(pts, order, s, diameters_out, weights)
    got = _outcome(row, tri, q)
    if isinstance(got, TripotentialError):
        return "raised"
    key = tuple(Point2((v.x - shift) / s, (v.y - shift) / s) for v in (*tri.vertices, q))
    if key not in refs:
        unit = Triangle(*key[:3])
        refs[key] = unit, _outcome(row, unit, key[3])
    unit, ref = refs[key]
    if isinstance(ref, TripotentialError):
        return f"{name} answers {got} where size 1 raises {ref!r}"
    exact = not row.lam and diameters_out == 0.0 and math.frexp(s)[0] == 0.5
    bad = _mismatch(row, got, ref, unit, s, (shift, shift), 0.0 if exact else rtol)
    return bad and f"{name} at {s!r}, {diameters_out} out, order {order}: {bad}"


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_every_call_matches_size_1_or_raises_where_pinned(name):
    row = PUBLIC_CALLS[name]
    if row.dim is None:
        leaves = _leaves(row.call(None, None))
        assert all(math.isfinite(v) for v in leaves if _is_number(v)), leaves
        return
    refs = {}
    for shape, order, s, out in itertools.product(row.shapes, itertools.permutations(range(3)),
                                                  SIZES, OFFSETS):
        rtol = max(row.rtol, row.sliver) if shape == "sliver" else row.rtol
        outcome = _check(name, SHAPES[shape], order, s, out, refs, rtol)
        assert outcome == ("raised" if s in row.raises else None), (shape, outcome)


_PROBE_REFS = {name: {} for name in PUBLIC_CALLS}


def probe(names, pts, s, diameters_out=0.0, raises=(), weights=(0.25, 0.25, 0.5)):
    """The rows named hold on the triangle pts, in its own vertex order, at
    size s and q at the barycentric weights: those in raises raise a
    typed error, the others match size 1 (kept across probes)."""
    for name in names:
        outcome = _check(name, pts, (0, 1, 2), s, diameters_out, _PROBE_REFS[name],
                         PUBLIC_CALLS[name].rtol, weights)
        assert outcome == ("raised" if name in raises else None), (name, outcome)


def test_the_table_has_one_row_per_public_function():
    functions = {name for name in tripotential.__all__
                 if inspect.isfunction(getattr(tripotential, name))}
    assert functions == {name.split("(")[0] for name in PUBLIC_CALLS}


def test_every_float_valued_public_result_is_a_python_float():
    """numpy scalars are floats by isinstance, but print as np.float64(...)
    and turn an overflow into a warning: public results are plain floats."""
    tri = Triangle(Point2(-1.0, 0.0), Point2(2.0, 0.0), Point2(0.0, 2.0))
    for name, row in PUBLIC_CALLS.items():
        for leaf in _leaves(row.call(tri, centroid(tri))):
            for value in (leaf.x, leaf.y) if isinstance(leaf, Point2) else (leaf,):
                if isinstance(value, float):
                    assert type(value) is float, (name, value)


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


# The frame functions the first property runs. The lambda solve works on
# the side lengths, which translation rounds; on slivers those last bits
# move the center and decide whether the bracket collapses, so the center
# is held to the loose end of the documented 1e-10 .. 1e-12, the others
# to 1e-12, and a typed error on one side of a comparison only is
# accepted for the center.
FRAME_CALLS = ("incenter", "circumcenter", "orthocenter", "centroid", "trilinear_to_cartesian",
               "electrostatic_center", "lambda_curve", "thomson_residual", "rp_center(-4)",
               "rp_center(5)")


def _outcomes(vertices, q):
    """Per frame call, its result, or None for a typed error."""
    tri = Triangle(*(Point2(x, y) for x, y in vertices))
    values = {name: _outcome(PUBLIC_CALLS[name], tri, Point2(*q)) for name in FRAME_CALLS}
    return tri, {k: None if isinstance(v, TripotentialError) else v for k, v in values.items()}


def _agree(ref, got, s, shift, ulps):
    """Two outcomes agree once got's values are mapped back by s and
    shift; numbers to rtol times at least 1."""
    (ref_tri, ref), (_, got) = ref, got
    for name in FRAME_CALLS:
        r, g = ref[name], got[name]
        center = name == "electrostatic_center"
        if r is None or g is None:
            assert r is g or center, name
            continue
        rtol = 1e-10 if center else 1e-12
        bad = _mismatch(PUBLIC_CALLS[name], g, r, ref_tri, s, shift, rtol, floor=1.0, ulps=ulps)
        assert bad is None, (name, bad)
        if name.startswith("rp_center"):
            assert abs(g.residual_norm - r.residual_norm) <= rtol * max(1.0, r.residual_norm)


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
    near, moved, shift = _poses(angle_q, split, turn, offset_q, direction, order)
    try:
        Triangle(*(Point2(x, y) for x, y in near))
    except DegenerateTriangle:
        return
    # an interior point off the Thomson cubic, rounded as the vertices are
    q = [0.5 * a + 0.3 * b + 0.2 * c for a, b, c in zip(*near)]
    q = ((q[0] + shift[0]) - shift[0], (q[1] + shift[1]) - shift[1])
    q_moved = (q[0] + shift[0], q[1] + shift[1])
    got = _outcomes(moved, q_moved)
    # a moved point carries the rounding of its world coordinates: two
    # ulps, as the centroid sums three
    _agree(_outcomes(near, q), got, 1.0, shift, 2.0)
    scaled = _outcomes(
        [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in moved],
        (math.ldexp(q_moved[0], k), math.ldexp(q_moved[1], k)),
    )
    _agree(got, scaled, math.ldexp(1.0, k), (0.0, 0.0), 1.0)


ORACLE_CALLS = ("potential_closed", "field_closed", "potential_quadrature",
                "illuminating_spread", "stationarity_residual(-4)",
                "stationarity_residual(5)", "inversion_first_moment", "cevian_angles",
                "stationarity_spreads")


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
        values = {name: _outcome(PUBLIC_CALLS[name], tri, g) for name in ORACLE_CALLS}
        answers = {k: v for k, v in values.items() if not isinstance(v, TripotentialError)}
        for name, value in answers.items():
            assert all(math.isfinite(v) for v in _leaves(value)), (name, value)
        if {"potential_closed", "potential_quadrature"} <= answers.keys():
            closed = answers["potential_closed"]
            assert abs(answers["potential_quadrature"] - closed) <= 1e-10 * abs(closed)
