"""Orthocentric parameterization, curvature bounds, vertex realization."""

import math

import numpy as np
import pytest

from simplexvol.engine import regular_volume
from simplexvol.errors import GeometryDomainError
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
    regular_parameters, side_length,
)


def test_min_curvature_equilateral():
    assert min_curvature(OrthocentricParams((1.0, 1.0, 1.0))) == pytest.approx(-1.5)


def test_min_curvature_skewed():
    # tau = (1, 2, 2): s = 9, minimum at the smallest tau: -1*9/(9-1) = -9/8
    assert min_curvature(OrthocentricParams((1.0, 2.0, 2.0))) == pytest.approx(-9.0 / 8.0)


def test_min_curvature_homogeneity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        taus = tuple(rng.uniform(0.3, 3.0, int(rng.integers(3, 8))))
        c = float(rng.uniform(0.2, 5.0))
        k0 = min_curvature(OrthocentricParams(taus))
        k0c = min_curvature(OrthocentricParams(tuple(c * t for t in taus)))
        assert k0c == pytest.approx(c * c * k0, rel=1e-13)


def test_side_length_equilateral_value():
    # equal tau = 1, kappa = -1, d = 2: arccosh((s-k)/(s+kd)) = arccosh(4)
    p = OrthocentricParams((1.0, 1.0, 1.0))
    got = side_length(p, 0, 1, -1.0)
    assert got == pytest.approx(math.acosh(4.0), abs=1e-14)


def test_side_length_symmetric_and_equal():
    p = OrthocentricParams((0.8, 0.8, 0.8, 0.8))
    vals = [side_length(p, j, k, -0.7) for j in range(4) for k in range(4) if j != k]
    assert max(vals) / min(vals) == 1.0


def test_side_length_blows_up_at_curvature_bound():
    p = OrthocentricParams((0.5, 1.5, 1.5))
    k0 = min_curvature(p)
    near = side_length(p, 0, 1, k0 * (1 - 1e-12))
    assert near > 10.0


def test_side_length_rejects_bad_kappa():
    p = OrthocentricParams((1.0, 1.0, 1.0))
    with pytest.raises(GeometryDomainError):
        side_length(p, 0, 1, -2.0)
    with pytest.raises(GeometryDomainError):
        side_length(p, 0, 0, -1.0)


def test_regular_parameters_round_trip_grid():
    # The equal parameter approaches its ideal limit like exp(-ell*sqrt(-kappa)),
    # so recovering large ell from double-precision parameters is limited to
    # ~eps*cosh(ell*sqrt(-kappa)) absolute by conditioning alone; the 1e-10
    # round-trip is asserted wherever that floor allows it.
    eps = np.finfo(float).eps
    for d in range(2, 11):
        for kappa in (-0.5, -1.0, -2.0):
            for ell in np.geomspace(1e-3, 20.0, 7):
                p = regular_parameters(d, float(ell), kappa)
                got = side_length(p, 0, 1, kappa)
                floor = 50.0 * eps * math.cosh(min(ell * math.sqrt(-kappa), 30.0))
                tol = max(ell * 1e-10, 1e-12, floor)
                assert abs(got - ell) <= tol, (d, kappa, ell)


def test_regular_parameters_ideal_limit():
    p = regular_parameters(4, math.inf, -2.0)
    assert p.taus[0] ** 2 == pytest.approx(2.0 * 4 / 5, rel=1e-14)


def test_regular_parameters_put_only_the_ideal_simplex_at_kappa0():
    # the engine reads a request at or below the computed kappa0 as ideal:
    # regular_parameters moves tau by at most 2 ulp so that ideal taus are
    # there and finite ones, even those that round to the ideal taus, are not
    rng = np.random.default_rng(5)
    for kappa in (-1.0, -4.0, -0.3, *(-np.exp(rng.uniform(-8.0, 8.0, 12)))):
        kappa = float(kappa)
        for d in range(2, 41):
            p = regular_parameters(d, math.inf, kappa)
            assert kappa <= min_curvature(p), (d, kappa)
            tau = math.sqrt(-kappa * d / (d + 1.0))
            assert abs(p.taus[0] - tau) <= 2 * math.ulp(tau)
            for ell in (20.0, 34.5, 36.3, 37.0, 40.0, 100.0, 600.0):
                q = regular_parameters(d, ell / math.sqrt(-kappa), kappa)
                assert min_curvature(q) < kappa, (d, kappa, ell)


def test_regular_parameters_small_side_blows_up():
    assert regular_parameters(3, 1e-8, -1.0).taus[0] > 1e7


def test_regular_parameters_needs_an_integer_dimension():
    # a fractional d is rejected, not truncated; NumPy integers are integers
    with pytest.raises(GeometryDomainError):
        regular_parameters(2.7, 1.0, -1.0)
    with pytest.raises(GeometryDomainError):
        regular_volume(2.7, 1.0)
    assert repr(regular_volume(np.int64(3), 1.0)) == repr(regular_volume(3, 1.0))


def _coupling(d, ell, kappa):
    # mu^2 (s - kappa) = cosh(u) / (1 + d cosh(u)) with u = ell sqrt(-kappa),
    # the squared coupling of the volume integrand, in (1/(d+1), 1/d]
    p = regular_parameters(d, ell, kappa)
    return p.multipliers()[0] ** 2 * (p.s - kappa)


def test_cosh_ratio_limits():
    assert _coupling(4, math.inf, -1.0) == pytest.approx(0.25, rel=1e-15)
    assert _coupling(3, 1e-9, -1.0) == pytest.approx(0.25, abs=1e-9)
    assert _coupling(2, math.acosh(2.0), -1.0) == pytest.approx(0.4, abs=1e-14)
    # overflow-safe routing to the ideal value
    assert _coupling(3, 800.0, -1.0) == pytest.approx(1/3)


def test_realize_vertices_equilateral():
    p = OrthocentricParams((1.0, 1.0, 1.0))
    v = realize_vertices(p)
    assert v.shape == (3, 2)
    for j in range(3):
        assert v[j] @ v[j] == pytest.approx(2.0 / 3.0, abs=1e-13)
        for k in range(3):
            if j != k:
                assert v[j] @ v[k] == pytest.approx(-1.0 / 3.0, abs=1e-13)
                assert (v[j] - v[k]) @ (v[j] - v[k]) == pytest.approx(2.0, abs=1e-13)


def test_gram_residuals_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        taus = tuple(rng.uniform(0.2, 4.0, int(rng.integers(3, 9))))
        p = OrthocentricParams(taus)
        v = realize_vertices(p)
        # closed form: -1/s off the diagonal, -1/s + 1/tau_j^2 on it
        want = np.full((len(taus), len(taus)), -1.0 / p.s)
        want[np.diag_indices_from(want)] += [1.0 / t ** 2 for t in p.taus]
        assert np.max(np.abs(v @ v.T - want)) < 1e-12


@pytest.mark.parametrize("tau, d", [(1e11, 2), (1e24, 12), (1e100, 3), (1e-100, 3)])
def test_realize_vertices_at_any_scale(tau, d):
    # the rank test must not depend on the scale of the taus: the edge
    # vectors' Gram matrix is diag(tau_j^-2) + tau_0^-2 11^T at every scale
    p = OrthocentricParams((tau,) * (d + 1))
    v = realize_vertices(p)
    edges = v[1:] - v[0]
    want = np.diag([t ** -2 for t in p.taus[1:]]) + p.taus[0] ** -2
    assert np.max(np.abs(edges @ edges.T - want)) <= 1e-14 * np.max(np.abs(want))


def test_euclidean_volume_equilateral():
    # edge sqrt(2) equilateral triangle: area = sqrt(3)/2
    p = OrthocentricParams((1.0, 1.0, 1.0))
    vol = euclidean_volume(p)
    assert vol == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-13)


def test_euclidean_volume_matches_vertex_determinant():
    # the closed form against |det(v_1 - v_0, ..., v_d - v_0)| / d! of the
    # realized vertices, over seeded taus
    rng = np.random.default_rng(12)
    for _ in range(100):
        d = int(rng.integers(2, 13))
        p = OrthocentricParams(tuple(rng.uniform(0.2, 4.0, d + 1)))
        v = realize_vertices(p)
        det = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(d)
        assert euclidean_volume(p) == pytest.approx(det, rel=1e-12, abs=0.0)


def test_type_validation():
    with pytest.raises(GeometryDomainError):
        OrthocentricParams((1.0, 2.0))  # d = 1 not supported
    with pytest.raises(GeometryDomainError):
        OrthocentricParams((1.0, -1.0, 1.0))
    with pytest.raises(GeometryDomainError):
        regular_parameters(1, 1.0, -1.0)
    with pytest.raises(GeometryDomainError):
        regular_parameters(3, 1.0, 1.0)  # spherical regular simplices not supported
    with pytest.raises(GeometryDomainError):
        regular_parameters(3, 0.0, -1.0)
