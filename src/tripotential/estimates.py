"""Shape-based estimation of the lambda parameter.

For the equilateral triangle the side-length equation collapses to
3 a^2 sqrt(coth^2(L/3) - 1) = a^2 sqrt(3) with the closed-form root
L0 = 3 log(2 + sqrt(3)). For general triangles the excess lambda - L0
correlates empirically with the scale-free shape parameter

    t = log(s^2 / (27 rho^2)) = log(s^3 / (27 (s-a)(s-b)(s-c))) >= 0,

the observed ratio staying roughly within [1/2, 1]. That yields a cheap
initial guess for the root solver and a reproducible survey of the
empirical band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SideLengths

__all__ = [
    "lambda_equilateral",
    "shape_parameter",
    "initial_guess",
    "RatioBandSummary",
    "ratio_band_survey",
]

# Midpoint of the observed band for (lambda - L0)/t; tunable.
_GUESS_SLOPE = 0.75

# Samples with t below this are excluded from ratio statistics (0/0).
_T_CUTOFF = 1e-6


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
    from . import center  # deferred: center depends on this module's guess

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
        ratios.append((center.solve_lambda(sides).lam - lam0) / t)
    return RatioBandSummary(
        minimum=min(ratios),
        maximum=max(ratios),
        mean=math.fsum(ratios) / len(ratios),
        n_samples=n_triangles,
        n_used=len(ratios),
        seed=seed,
    )
