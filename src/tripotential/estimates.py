"""Shape-based estimation of the lambda parameter.

For the equilateral triangle the side-length equation collapses to
3 a^2 sqrt(coth^2(L/3) - 1) = a^2 sqrt(3) with the closed-form root
L0 = 3 log(2 + sqrt(3)). For general triangles the excess lambda - L0
correlates empirically with the scale-free shape parameter

    t = log(s^2 / (27 rho^2)) = log(s^3 / (27 (s-a)(s-b)(s-c))) >= 0,

the observed ratio staying roughly within [1/2, 1] (see
``center.ratio_band_survey``): a cheap initial guess for the root solver.
"""

from __future__ import annotations

import math

from .geometry import SideLengths

__all__ = [
    "lambda_equilateral",
    "shape_parameter",
    "initial_guess",
]

# Midpoint of the observed band for (lambda - L0)/t; tunable.
_GUESS_SLOPE = 0.75


def lambda_equilateral() -> float:
    """The equilateral root 3*log(2 + sqrt(3)) = 3.9508736907744497..."""
    return 3.0 * math.log(2.0 + math.sqrt(3.0))


def shape_parameter(sides: SideLengths) -> float:
    """Deviation from equilateral: t = log(s^3 / (27 (s-a)(s-b)(s-c))).

    Equals log(s^2 / (27 rho^2)) via rho^2 = (s-a)(s-b)(s-c)/s. Zero
    exactly for equilateral triangles and positive otherwise (AM-GM);
    roundoff-negative values are clamped to 0. Lengths are scaled by the
    power of two of s first, as in ``heron_area``, so the cubes stay in range.
    """
    s, a, b, c = sides.s, sides.a, sides.b, sides.c
    m, e = math.frexp(s)
    prod = math.ldexp(s - a, -e) * math.ldexp(s - b, -e) * math.ldexp(s - c, -e)
    return max(0.0, math.log(m**3 / (27.0 * prod)))


def initial_guess(sides: SideLengths) -> float:
    """Heuristic starting lambda: L0 + 0.75 * t.

    Only a bracketing seed; correctness means the root solver converges
    from it, not any accuracy bound.
    """
    return lambda_equilateral() + _GUESS_SLOPE * shape_parameter(sides)
