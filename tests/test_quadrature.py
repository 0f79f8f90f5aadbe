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
