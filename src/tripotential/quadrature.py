"""Adaptive 1D quadrature on Gauss-Kronrod 7/15 pairs.

Internal utility used for the angular integrals that arise when triangle
integrals are reduced to polar form. The integrands are smooth inside
each angular window, so a globally adaptive bisection scheme driven by
the |K15 - G7| error estimate converges quickly. Integrands may be real
or complex valued and must accept numpy arrays of nodes.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["QuadResult", "integrate_adaptive"]

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights.
_XK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WK_CENTER = 0.209482141084728
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
)
_WG_CENTER = 0.417959183673469

_NODES = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
# K15 - G7 weights: the Gauss-7 nodes are the odd-indexed Kronrod nodes.
_WK_MINUS_WG = _WK.copy()
_WK_MINUS_WG[1::2] -= list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF))
_MAX_INTERVALS = 20000  # bisections before integrate_adaptive gives up
_MAX_DEPTH = 20  # bisections of [a, b] after which an interval is final


class QuadResult(NamedTuple):
    value: complex
    error: float
    converged: bool
    nfev: int


def _gk15_panels(y, half):
    """Kronrod-15 values and error estimates of panels sampled at _NODES.

    y holds the integrand at the 15 nodes of each panel on its last axis,
    shape (panels, 15) or (15,), real or complex; half is each panel's
    half-width, shape (panels,) or scalar. Returns (K15 values, error
    estimates), one per panel.
    """
    total = y @ _WK
    k15 = half * total
    raw = abs(half * (y @ _WK_MINUS_WG))
    # QUADPACK-style rescaling: |K15 - G7| tracks the error of G7, which
    # grossly overstates the accepted K15 value on smooth integrands.
    resasc = abs(half) * (abs(y - 0.5 * total[..., None]) @ _WK)
    # resasc = 0 only where the integrand is the same at every node
    # (zero, in practice): the estimate is then 0, not 0 / 0.
    ratio = 200.0 * raw / (resasc + (resasc == 0.0))
    return k15, resasc * np.minimum(1.0, ratio**1.5)


def _gk15(f: Callable, a: float, b: float):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return _gk15_panels(f(center + half * _NODES), half)


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    *,
    abs_tol: float,
    rel_tol: float = 0.0,
) -> QuadResult:
    """Integrate f over [a, b] (b < a integrates with reversed sign).

    Bisects the interval with the largest |K15 - G7| estimate until the
    accumulated error drops below the target max(abs_tol, rel_tol *
    |integral|), or _MAX_INTERVALS bisections are spent. An interval
    bisected _MAX_DEPTH times is final: its error estimate stays in the
    total and can never shrink, so once the final intervals' errors alone
    exceed the target the call gives up at once with converged=False.
    Deterministic: heap ties go by insertion order.
    """
    if a == b:
        return QuadResult(0.0, 0.0, True, 0)
    value, error = _gk15(f, a, b)
    nfev = 15
    total_val = value
    total_err = error
    final_err = 0.0
    heap = [(-error, 0, a, b, 0, value, error)]
    seq = 1
    n_intervals = 1
    while heap:
        target = max(abs_tol, rel_tol * abs(total_val))
        if total_err <= target:
            break
        neg_err, _, lo, hi, depth, val, err = heapq.heappop(heap)
        if depth >= _MAX_DEPTH:
            final_err += err
            if final_err > target:
                break
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        nfev += 30
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, seq, lo, mid, depth + 1, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, depth + 1, v2, e2))
        seq += 2
        n_intervals += 1
        if n_intervals > _MAX_INTERVALS:
            break
    converged = total_err <= max(abs_tol, rel_tol * abs(total_val))
    return QuadResult(total_val, total_err, bool(converged), nfev)
