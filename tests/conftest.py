import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

# Hypothesis draws the same examples on every run and keeps no example
# database, so the tier-1 suite is reproducible.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

from tripotential import (
    Point2,
    SideLengths,
    Triangle,
    diameter,
    distance_to_boundary,
    triangle_from_sides,
)


def make_rng(seed):
    return np.random.default_rng(seed)


def exact_doubled_area(tri):
    """Twice the signed area of the stored vertices in exact rational
    arithmetic: positive exactly when they run counterclockwise."""
    (ax, ay), (bx, by), (cx, cy) = (
        (Fraction(v.x), Fraction(v.y)) for v in tri.vertices
    )
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def random_sides(rng, min_angle=0.35, scale=(0.5, 2.0), scalene_gap=0.0):
    """Side lengths of a random well-conditioned triangle shape.

    Sampled by two angles (every triangle has two acute angles), with a
    floor on all angles so the shapes stay numerically benign, then
    scaled so the longest side lands in the given range.
    """
    while True:
        alpha = rng.uniform(min_angle, 0.5 * math.pi)
        beta = rng.uniform(min_angle, 0.5 * math.pi)
        gamma = math.pi - alpha - beta
        if gamma < min_angle:
            continue
        a, b, c = math.sin(alpha), math.sin(beta), math.sin(gamma)
        factor = rng.uniform(*scale) / max(a, b, c)
        a, b, c = a * factor, b * factor, c * factor
        if scalene_gap:
            gap = scalene_gap * max(a, b, c)
            if abs(a - b) < gap or abs(b - c) < gap or abs(c - a) < gap:
                continue
        return SideLengths(a, b, c)


def sliver_triangles(rng, n, max_height):
    """Triangles (0,0), (1,0), (x,h): x uniform in 0.05..0.95 and h
    log-uniform in 1e-6..max_height."""
    xs = rng.uniform(0.05, 0.95, n)
    hs = np.exp(rng.uniform(math.log(1e-6), math.log(max_height), n))
    return [
        Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(float(x), float(h)))
        for x, h in zip(xs, hs)
    ]


def transform_triangle(tri, angle=0.0, dx=0.0, dy=0.0, scale=1.0):
    """Rotate, scale, then translate every vertex."""
    cs, sn = math.cos(angle), math.sin(angle)

    def move(p):
        return Point2(
            scale * (cs * p.x - sn * p.y) + dx,
            scale * (sn * p.x + cs * p.y) + dy,
        )

    return Triangle(*(move(v) for v in tri.vertices))


def transform_point(p, angle=0.0, dx=0.0, dy=0.0, scale=1.0):
    cs, sn = math.cos(angle), math.sin(angle)
    return Point2(
        scale * (cs * p.x - sn * p.y) + dx,
        scale * (sn * p.x + cs * p.y) + dy,
    )


def random_triangle(rng, min_angle=0.35, scale=(0.5, 2.0), posed=True,
                    scalene_gap=0.0):
    sides = random_sides(rng, min_angle, scale, scalene_gap)
    tri = triangle_from_sides(sides.a, sides.b, sides.c)
    if posed:
        tri = transform_triangle(
            tri,
            angle=rng.uniform(0.0, 2.0 * math.pi),
            dx=rng.uniform(-2.0, 2.0),
            dy=rng.uniform(-2.0, 2.0),
        )
    return tri


def random_interior_point(rng, tri, margin=0.02):
    """Uniform interior point, resampled to keep a boundary margin."""
    A, B, C = tri.vertices
    floor = margin * diameter(tri)
    while True:
        wa, wb, wc = rng.dirichlet((1.0, 1.0, 1.0))
        p = Point2(
            wa * A.x + wb * B.x + wc * C.x,
            wa * A.y + wb * B.y + wc * C.y,
        )
        if distance_to_boundary(tri, p) > floor:
            return p


@pytest.fixture
def golden_triangle():
    """The reference triangle A(-1,0), B(2,0), C(0,2)."""
    return Triangle(Point2(-1.0, 0.0), Point2(2.0, 0.0), Point2(0.0, 2.0))


# Thirty-digit reference values for the golden triangle and the
# encyclopedia search triangle (double precision holds ~16 of them).
GOLDEN_LAMBDA = 4.010297202743007522718690055346
GOLDEN_CENTER = (0.272557906914867702024319226991, 0.704148189723077020171531030875)
SEARCH_VALUE_6_9_13 = 2.110731796690289177459836888182
