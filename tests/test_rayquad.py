"""Ray integrals: head/tail split, split-point invariance, rotation invariance."""

import math

import numpy as np
import pytest

from simplexvol import rayquad
from simplexvol.cnormal import SQRT_2PI
from simplexvol.engine import orthant_probability
from simplexvol.errors import NearPoleError, SectorError
from simplexvol.geometry import (
    OrthocentricParams, min_curvature, regular_parameters,
)
from simplexvol.rayquad import (
    SPLIT_A, HalfPlane, RayIntegralProblem, head_integral, ibp_tail, ray_integral,
)

BOUNDARY_RAYS = [(1 - 1j, HalfPlane.UPPER), (1 + 1j, HalfPlane.LOWER)]

# N(x) + N(-x) = 1, so int_0^inf (N(x) + N(-x)) e^{-x^2/2} dx = sqrt(2 pi) / 2
D0_RAY_VALUE = SQRT_2PI / 2


def test_head_empty_interval_is_zero():
    p = RayIntegralProblem((1.0,), 1.0, 1.0)
    assert head_integral(p, 0.0).value == 0.0


def test_single_factor_real_ray_oracle():
    r = ray_integral(RayIntegralProblem((1.0,), 1.0, 1.0))
    assert abs(r.value - D0_RAY_VALUE) < 1e-12
    assert abs(r.value.imag) < 1e-14


def test_single_factor_boundary_ray_matches_oracle():
    r = ray_integral(RayIntegralProblem((1.0,), 1.0, 1 - 1j))
    assert abs(r.value - D0_RAY_VALUE) < 1e-11
    assert r.abs_error_estimate < 1e-10


def test_equal_factor_ray_closed_form():
    # int_0^inf (N(x)^m + N(-x)^m) e^{-x^2/2} dx = int_R N(x)^m e^{-x^2/2} dx
    # = sqrt(2 pi) / (m+1): the chance that the largest of m+1 iid normals is
    # a given one; on the real ray and on both boundary rays
    for m in range(1, 6):
        for om, hp in [(1.0, HalfPlane.UPPER)] + BOUNDARY_RAYS:
            r = ray_integral(RayIntegralProblem((1.0,) * m, 1.0, om, hp))
            assert abs(r.value - SQRT_2PI / (m + 1)) <= r.abs_error_estimate
            assert r.abs_error_estimate < 1e-12


def test_interior_ray_matches_real_ray():
    # absolutely convergent rotated ray agrees with the real axis
    pa = RayIntegralProblem((1.0, 1.0), 1.0, np.exp(1j * np.pi / 8))
    pb = RayIntegralProblem((1.0, 1.0), 1.0, 1.0)
    ra, rb = ray_integral(pa), ray_integral(pb)
    assert abs(ra.value - rb.value) < 1e-10


def test_rotation_invariance_three_factors():
    results = []
    for om, hp in [(1.0, HalfPlane.UPPER), (np.exp(1j * np.pi / 8), HalfPlane.UPPER),
                   (1 - 1j, HalfPlane.UPPER), (1 + 1j, HalfPlane.LOWER)]:
        p = RayIntegralProblem((1.0, 1.0, 1.0), 4.0, om, hp)
        results.append(ray_integral(p))
    for a in results:
        for b in results:
            diff = abs(a.value - b.value)
            assert diff < 1e-10
            if a is not b:
                assert diff <= a.abs_error_estimate + b.abs_error_estimate


def test_real_positive_z_gives_real_value():
    for om, hp in [(1 - 1j, HalfPlane.UPPER), (1 + 1j, HalfPlane.LOWER)]:
        r = ray_integral(RayIntegralProblem((0.6, 1.1, 1.7), 2.5, om, hp))
        assert abs(r.value.imag) < 1e-10


def test_conjugation_between_half_planes():
    z = 1.5 + 0.8j
    ru = ray_integral(RayIntegralProblem((0.7, 1.3), z, 1 - 1j, HalfPlane.UPPER))
    rl = ray_integral(RayIntegralProblem((0.7, 1.3), np.conj(z), 1 + 1j,
                                         HalfPlane.LOWER))
    assert abs(ru.value - np.conj(rl.value)) < 1e-10


def _split_point_gap(p, A, B):
    """|head(A) + tail(A) - head(B) - tail(B)|: the ray integral split at A vs at B,
    and the sum of the four claimed bars."""
    parts = [head_integral(p, A), ibp_tail(p, A), head_integral(p, B), ibp_tail(p, B)]
    gap = abs(parts[0].value + parts[1].value - parts[2].value - parts[3].value)
    return gap, sum(r.abs_error_estimate for r in parts)


def test_split_point_invariance_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        mus = tuple(rng.uniform(0.3, 2.0, m) * rng.choice([-1.0, 1.0], m))
        z = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.0, 2.5))
        p = RayIntegralProblem(mus, z, 1 - 1j)
        A = float(rng.uniform(0.8, 3.0))
        B = float(rng.uniform(8.0, 20.0))
        assert _split_point_gap(p, A, B)[0] < 1e-9


def test_split_point_invariance_large_A():
    # the tail's rates grow like A^2 and its factors sit deep in the erfcx
    # asymptotics; the split stays exact far out
    p = RayIntegralProblem((1.0, 0.8), 1.0 + 0.5j, 1 - 1j)
    assert _split_point_gap(p, 12.0, 30.0)[0] < 1e-9


def test_boundary_ray_at_z_zero():
    # every factor is N(0) = 1/2, so the integral is 2^(1-m) int_0^inf e^{-t^2/2} dt
    for m in range(1, 6):
        for om, hp in BOUNDARY_RAYS:
            r = ray_integral(RayIntegralProblem((1.0,) * m, 0.0, om, hp))
            assert abs(r.value - 2.0 ** -m * SQRT_2PI) <= r.abs_error_estimate
            assert r.abs_error_estimate < 1e-12


def test_ibp_assembly_matches_interior_ray_for_upper_z():
    # For Im z > 0 an interior ray keeps the CDF arguments inside the bounded
    # sectors and decays exponentially, giving an independent reference for
    # the boundary-ray head + stabilized tail
    z = 1.0 + 1.5j
    assembled = ray_integral(RayIntegralProblem((0.9, 1.4), z, 1 - 1j))
    interior = ray_integral(RayIntegralProblem((0.9, 1.4), z, np.exp(-0.5j)))
    assert abs(assembled.value - interior.value) < 1e-10


def test_near_pole_is_rejected():
    mus = (1.0, 0.5)
    z = -1.0 + 1e-12  # within the guard band of -1/mu^2 for mu = 1
    with pytest.raises(NearPoleError):
        ibp_tail(RayIntegralProblem(mus, z, 1 - 1j), SPLIT_A)


def test_problem_validation():
    with pytest.raises(ValueError):
        RayIntegralProblem((), 1.0, 1.0)
    with pytest.raises(ValueError):
        RayIntegralProblem((0.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        RayIntegralProblem((1.0,), 1.0, 1j)  # arg = pi/2 > pi/4
    with pytest.raises(ValueError):
        RayIntegralProblem((1.0,), -1j, 1 - 1j, HalfPlane.UPPER)  # Im z < 0


def test_branch_sqrt_half_plane_convention():
    def root(z, hp):
        return RayIntegralProblem((1.0,), z, 1.0, hp).branch_sqrt_z()

    # the cut: +i sqrt(r) above, -i sqrt(r) below, whatever the sign of Im z = 0
    for im in (0.0, -0.0):
        assert root(complex(-4.0, im), HalfPlane.UPPER) == pytest.approx(2j, abs=1e-15)
        assert root(complex(-4.0, im), HalfPlane.LOWER) == pytest.approx(-2j, abs=1e-15)
    for hp in HalfPlane:
        assert root(0j, hp) == 0
    rng = np.random.default_rng(3)
    for hp, (lo, hi) in [(HalfPlane.UPPER, (0.0, math.pi)),
                         (HalfPlane.LOWER, (-math.pi, 0.0))]:
        for r, th in zip(rng.uniform(0.1, 10.0, 20), rng.uniform(lo, hi, 20)):
            want = math.sqrt(r) * np.exp(0.5j * th)
            assert root(r * np.exp(1j * th), hp) == pytest.approx(want, rel=1e-14)


def test_half_plane_omega_mismatch():
    p = RayIntegralProblem((1.0,), 1.0 + 1j, 1 + 1j, HalfPlane.UPPER)
    with pytest.raises(SectorError):
        ray_integral(p)


def test_interior_ray_sector_guard():
    # complex z pushes the CDF arguments outside the bounded sectors
    p = RayIntegralProblem((1.0,), 4j, np.exp(1j * np.pi / 8), HalfPlane.UPPER)
    with pytest.raises(SectorError):
        ray_integral(p)


def _half_kappa0(taus):
    params = OrthocentricParams(taus)
    return params, min_curvature(params) / 2


@pytest.mark.parametrize("params, kappa", [
    # ideal regular d = 5: all six factors equal (1 + 6 + 15 integrals, 3 distinct)
    (regular_parameters(5, math.inf, -1.0), -1.0),
    # distinct taus: all 1 + 5 + 10 integrals differ
    _half_kappa0((1.0, 1.4, 0.7, 1.1, 0.9)),
    # two repeated pairs: 1 + 3 + 5 distinct integrals
    _half_kappa0((1.0, 1.0, 1.3, 1.3, 0.8)),
], ids=["ideal-regular-d5", "distinct-d4", "two-pairs-d4"])
def test_ibp_tail_runs_one_tail_pass_per_ray(monkeypatch, params, kappa):
    nodes = []
    real = rayquad.tail_product_integral

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        nodes.append(result[2])
        return result

    monkeypatch.setattr(rayquad, "tail_product_integral", counted)
    p = RayIntegralProblem(params.multipliers(), kappa - params.s, 1 - 1j)
    r = ibp_tail(p, SPLIT_A)
    assert len(nodes) == 1
    # every node of the pass, and nothing else
    assert r.evaluations == nodes[0]
    # a transform integrates both CDF products on one ray, in one tail pass
    nodes.clear()
    orthant_probability(params.multipliers(), kappa - params.s)
    assert len(nodes) == 1


def _hyperbolic_rays():
    """Seeded distinct-tau rays, then the ideal regular rays d = 2..8 (the only
    ones with a composition of rate exactly 0, whose tail decays algebraically)."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        params = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, int(rng.integers(3, 8)))))
        z = float(rng.uniform(0.2, 0.8)) * min_curvature(params) - params.s
        yield params, z, float(rng.uniform(1.0, 3.0)), float(rng.uniform(5.0, 8.0))
    for d in range(2, 9):
        params = regular_parameters(d, math.inf, -1.0)
        yield (params, -1.0 - params.s,
               float(rng.uniform(1.0, 3.0)), float(rng.uniform(5.0, 8.0)))


def test_split_point_invariance_hyperbolic_rays():
    # real z < 0, as every hyperbolic volume has, on both half planes; the two
    # splits see different tail rates X |g_n|, rotations and truncation points
    for params, z, A, B in _hyperbolic_rays():
        for om, hp in BOUNDARY_RAYS:
            p = RayIntegralProblem(params.multipliers(), z, om, hp)
            gap, bars = _split_point_gap(p, A, B)
            assert gap <= bars
            assert gap < 1e-10
