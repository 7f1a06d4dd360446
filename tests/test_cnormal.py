"""Complex normal CDF: frozen examples, symmetries, sector behavior."""

import math

import numpy as np
import pytest

from simplexvol.cnormal import norm_cdf, norm_cdf_array
from simplexvol.errors import OverflowRegionError

from conftest import mp_norm_cdf, mp_norm_cdf_real_bruteforce

TARGET = 1e-12

# frozen oracle values (mpmath, 40 digits)
PHI_ONE = 0.8413447460685429        # real CDF at 1
PHI_I_IMAG = 0.4767191346256304     # Im of CDF at i, = int_0^1 e^{t^2/2} dt / sqrt(2 pi)


def test_value_at_zero():
    assert norm_cdf(0.0) == 0.5


def test_value_at_one():
    assert abs(norm_cdf(1.0) - PHI_ONE) < TARGET


def test_value_at_i():
    got = norm_cdf(1j)
    assert abs(got.real - 0.5) < TARGET
    assert abs(got.imag - PHI_I_IMAG) < TARGET


def test_stokes_ray_limit_at_radius_ten():
    # |N(10 e^{i pi/4}) - 1| is the tail modulus 1/(sqrt(2 pi)*10) up to O(1e-2)
    z = 10.0 * np.exp(1j * np.pi / 4)
    got = norm_cdf(z)
    tail = abs(got - 1.0)
    assert abs(tail - 1.0 / (math.sqrt(2 * math.pi) * 10.0)) < 5e-4
    assert abs(got - mp_norm_cdf(z)) < TARGET


@pytest.mark.parametrize("x", [-9.0, -3.5, -1.0, -0.2, 0.1, 0.9, 2.7, 6.0, 11.5])
def test_real_axis_vs_bruteforce_quadrature(x):
    assert abs(norm_cdf(x) - mp_norm_cdf_real_bruteforce(x)) < TARGET


def test_accuracy_across_the_plane():
    rng = np.random.default_rng(1)
    r = rng.uniform(0.0, 12.0, 300)
    th = rng.uniform(-np.pi, np.pi, 300)
    z = r * np.exp(1j * th)
    got = norm_cdf_array(z)
    for zi, gi in zip(z, got):
        want = mp_norm_cdf(zi)
        assert abs(gi - want) <= TARGET * max(1.0, abs(want))


def test_bounded_sector_absolute_error():
    # |arg(+-z)| <= pi/4 is where N stays bounded; the claim there is absolute
    rng = np.random.default_rng(6)
    r = rng.uniform(0.0, 40.0, 500)
    th = rng.uniform(-np.pi / 4, np.pi / 4, 500)
    z = rng.choice([-1.0, 1.0], 500) * r * np.exp(1j * th)
    got = norm_cdf_array(z)
    want = np.array([mp_norm_cdf(zi) for zi in z])
    assert np.max(np.abs(got - want)) <= 2e-15


def test_reflection_identity():
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 10, 10_000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 10_000))
    v, vm = norm_cdf_array(z), norm_cdf_array(-z)
    scale = np.maximum(1.0, np.maximum(np.abs(v), np.abs(vm)))
    assert np.max(np.abs(v + vm - 1.0) / scale) <= 10 * TARGET
    # strict absolute bound where the function is bounded
    bounded = np.abs(np.abs(np.angle(z)) - np.pi / 2) >= np.pi / 4
    assert np.max(np.abs((v + vm - 1.0)[bounded])) <= 10 * TARGET
    # exact, by construction: the ray integrand takes prod N(-c y) as prod (1 - N(c y))
    axes = np.linspace(-10.0, 10.0, 2001)
    z = np.concatenate([z, axes, 1j * axes, [0j]])
    assert np.array_equal(norm_cdf_array(-z), 1 - norm_cdf_array(z))


def test_conjugation_identity():
    rng = np.random.default_rng(3)
    z = rng.uniform(0, 10, 10_000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 10_000))
    v = norm_cdf_array(z)
    vc = norm_cdf_array(np.conj(z))
    assert np.max(np.abs(vc - np.conj(v)) / np.maximum(1.0, np.abs(v))) <= 10 * TARGET


@pytest.mark.parametrize("R", [10.0, 20.0, 40.0])
def test_sector_limits(R):
    th = np.linspace(-np.pi / 4, np.pi / 4, 65)
    z = R * np.exp(1j * th)
    v = norm_cdf_array(z)
    bound = 1.5 / (math.sqrt(2 * math.pi) * R)
    assert np.max(np.abs(v - 1.0)) <= bound
    assert np.max(np.abs(norm_cdf_array(-z))) <= bound


def test_sector_boundedness():
    rng = np.random.default_rng(4)
    r = rng.uniform(1.0, 40.0, 2000)
    th = rng.uniform(-np.pi / 4, np.pi / 4, 2000)
    z = r * np.exp(1j * th)
    assert np.max(np.abs(norm_cdf_array(z))) <= 1.2
    assert np.max(np.abs(norm_cdf_array(-z))) <= 1.2


def test_derivative_matches_density():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        num = (norm_cdf(z + h) - norm_cdf(z - h)) / (2 * h)
        want = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        assert abs(num - want) < 1e-7 * max(1.0, abs(want))


def test_growth_sector_modulus():
    # |N(z)| ~ e^{-Re z^2/2}/(sqrt(2 pi)|z|) in the growth sector
    z = 8.0 * np.exp(3j * np.pi / 8)
    got = norm_cdf(z)
    want = math.exp(-0.5 * (z * z).real) / (math.sqrt(2 * math.pi) * abs(z))
    assert abs(abs(got) / want - 1.0) < 0.02
    assert abs(got - mp_norm_cdf(z)) <= TARGET * abs(got)


def test_overflow_region_raises():
    with pytest.raises(OverflowRegionError):
        norm_cdf(45j)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        norm_cdf(complex(np.inf, 0.0))
