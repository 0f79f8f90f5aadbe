import math

import numpy as np
import pytest

from tripotential import quadrature
from tripotential.quadrature import integrate_adaptive


def test_polynomial_exactness_single_panel():
    # The 15-point Kronrod rule integrates degree <= 22 exactly.
    for k in range(14):
        res = integrate_adaptive(lambda x, k=k: x**k, 0.0, 1.0, abs_tol=1e-13)
        assert res.value == pytest.approx(1.0 / (k + 1), rel=1e-14)
        assert res.nfev == 15


def test_reversed_limits_flip_sign():
    fwd = integrate_adaptive(np.sin, 0.0, 2.0, abs_tol=1e-13)
    rev = integrate_adaptive(np.sin, 2.0, 0.0, abs_tol=1e-13)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-14)


def test_adaptive_peak():
    # sharp Lorentzian peak needs real subdivision
    eps = 1e-4
    res = integrate_adaptive(
        lambda x: 1.0 / (eps + x * x), -1.0, 1.0, abs_tol=1e-9
    )
    exact = 2.0 * math.atan(1.0 / math.sqrt(eps)) / math.sqrt(eps)
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-11)
    assert res.nfev > 100


def test_complex_integrand():
    res = integrate_adaptive(
        lambda x: np.exp(1j * x), 0.0, 2.0 * math.pi, abs_tol=1e-13
    )
    assert abs(res.value) < 1e-13


def test_depth_exhaustion_reported(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    res = integrate_adaptive(
        lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-15), 0.0, 1.0,
        abs_tol=1e-13,
    )
    assert not res.converged
    assert res.error > 1e-13


def test_out_of_reach_target_stops_early():
    # The pole's intervals at the depth cap carry more error than the
    # target; once they do, further bisection elsewhere cannot help.
    res = integrate_adaptive(
        lambda x: 1.0 / np.abs(x - 1.0 / 3.0), 0.0, 1.0, abs_tol=1e-13
    )
    assert not res.converged
    assert res.nfev <= 1000


def test_disk_kernel_value():
    # The polar reduction of the 1/(distance) integral over a disk of
    # radius R centered at the evaluation point: the radial part is
    # exact and the angular integrand is the constant R, so the total
    # must be 2*pi*R.
    radius = 1.7
    res = integrate_adaptive(
        lambda phis: radius * np.ones_like(phis),
        0.0,
        2.0 * math.pi,
        abs_tol=1e-13,
    )
    assert res.value == pytest.approx(2.0 * math.pi * radius, rel=1e-14)


def _separate_sums(y, half):
    """K15, G7 and the QUADPACK estimate of one panel from separate
    Kronrod and Gauss-7 sums over its nodes."""
    gauss = [0.129484966168870, 0.279705391489277, 0.381830050505119,
             0.417959183673469, 0.381830050505119, 0.279705391489277,
             0.129484966168870]
    k15 = half * sum(w * v for w, v in zip(quadrature._WK, y))
    g7 = half * sum(w * v for w, v in zip(gauss, y[1::2]))
    mean = k15 / (2.0 * half)
    resasc = abs(half) * sum(w * abs(v - mean) for w, v in zip(quadrature._WK, y))
    return k15, g7, resasc * min(1.0, (200.0 * abs(k15 - g7) / resasc) ** 1.5)


def test_gk15_panels_on_rows_match_single_panels_and_separate_sums():
    rng = np.random.default_rng(15)
    half = rng.uniform(0.01, 2.0, 40)
    x = rng.uniform(-3.0, 3.0, 40)[:, None] + half[:, None] * quadrature._NODES
    for y in (np.exp(x) * (2.0 + np.cos(3.0 * x)), np.exp(1j * x) / (1.1 + np.cos(x))):
        values, errors = quadrature._gk15_panels(y, half)
        assert values.shape == errors.shape == (40,)
        compared = 0
        for row, h, value, error in zip(y, half, values, errors):
            one_value, one_error = quadrature._gk15_panels(row, h)
            assert abs(value - one_value) <= 1e-15 * abs(one_value)
            k15, g7, estimate = _separate_sums(row, h)
            if abs(k15 - g7) > 1e-8 * abs(k15):
                assert error == pytest.approx(estimate, rel=1e-6)
                assert one_error == pytest.approx(estimate, rel=1e-6)
                compared += 1
        assert compared >= 10
