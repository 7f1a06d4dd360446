"""Adaptive Gauss-Kronrod engine on known integrals."""

import math

import numpy as np
import pytest

from simplexvol.errors import ToleranceError
from simplexvol.quadrature import adaptive_gk, oscillation_edges


def test_polynomial_exact():
    vals, errs, _ = adaptive_gk(lambda x: x ** 5 - 2 * x + 1, np.linspace(0.0, 2.0, 5), 1e-13)
    assert vals[0] == pytest.approx(2.0 ** 6 / 6 - 4 + 2, rel=1e-14)


def test_gaussian_integral():
    vals, errs, _ = adaptive_gk(lambda x: np.exp(-x * x / 2), np.linspace(0.0, 12.0, 5), 1e-13)
    assert vals[0] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)
    assert errs[0] < 1e-12


def test_complex_oscillatory():
    # int_0^L exp(i x^2) dx against the fresnel form from scipy
    from scipy.special import fresnel
    L = 8.0
    edges = oscillation_edges(L, 2.0)
    vals, errs, _ = adaptive_gk(lambda x: np.exp(1j * x * x), edges, 1e-12)
    s, c = fresnel(L * math.sqrt(2.0 / math.pi))
    want = math.sqrt(math.pi / 2.0) * complex(c, s)
    assert abs(vals[0] - want) < 1e-11


def test_vector_components_share_panels():
    def f(x):
        return np.vstack([np.sin(x), np.cos(3 * x), x * x])

    vals, errs, _ = adaptive_gk(f, np.linspace(0.0, math.pi, 5), 1e-12)
    assert vals[0] == pytest.approx(2.0, abs=1e-12)
    assert vals[1] == pytest.approx(math.sin(3 * math.pi) / 3, abs=1e-12)
    assert vals[2] == pytest.approx(math.pi ** 3 / 3, rel=1e-13)


def test_empty_interval():
    vals, errs, n = adaptive_gk(lambda x: x, np.linspace(1.0, 1.0, 5), 1e-12)
    assert vals[0] == 0.0


def test_reversed_limits_negate():
    vals, errs, _ = adaptive_gk(lambda x: x, np.linspace(1.0, 0.0, 5), 1e-12)
    assert vals[0] == pytest.approx(-0.5, rel=1e-14)
    assert errs[0] < 1e-12


def test_tolerance_error_carries_best_result():
    # a needle the panel budget cannot resolve
    def f(x):
        return 1.0 / (1e-12 + (x - 0.3141) ** 2)

    with pytest.raises(ToleranceError) as exc:
        adaptive_gk(f, np.linspace(0.0, 1.0, 5), 1e-13, max_panels=8)
    total, toterr, neval = exc.value.result
    assert np.isfinite(total[0]) and toterr[0] > 0


def test_oscillation_edges_pacing():
    edges = oscillation_edges(10.0, 2.0)
    phases = edges ** 2  # phase = rate * y^2 / 2 = y^2
    assert np.all(np.diff(phases) <= math.pi + 1e-9)
