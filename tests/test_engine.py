"""Volume engine: orthant transform properties and assembled volumes."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from simplexvol.engine import (
    Branch, VolumeRequest, curvature_scaling_residual, orthant_probability,
    regular_volume, sphere_surface_area, volume,
)
from simplexvol.errors import GeometryDomainError, NearPoleError
from simplexvol.geometry import (
    OrthocentricParams, RegularSimplexSpec, euclidean_volume, min_curvature,
    realize_vertices,
)
from simplexvol.oracles import direct_klein_volume
from simplexvol.rayquad import HalfPlane
from simplexvol import _hp
from simplexvol._hp import ideal_volume_highprec

IDEAL_D3 = 1.0149416064096535          # -3 int_0^{pi/3} log(2 sin t) dt
IDEAL_D4 = 0.2688956601693112          # (10 pi/3) asin(1/3) - pi^2/3


def test_sphere_surface_area_values():
    assert sphere_surface_area(1) == pytest.approx(2 * math.pi)
    assert sphere_surface_area(2) == pytest.approx(4 * math.pi)
    assert sphere_surface_area(3) == pytest.approx(2 * math.pi ** 2)
    assert sphere_surface_area(4) == pytest.approx(8 * math.pi ** 2 / 3)


def test_transform_vanishes_at_minus_s():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = int(rng.integers(2, 7))
        taus = rng.uniform(0.5, 2.0, d + 1)
        s = float(np.sum(taus ** 2))
        mus = tuple(taus / s)
        tr = orthant_probability(mus, -s)
        assert abs(tr.value) <= 1e-9


def test_transform_real_and_equal_across_branches_for_positive_z():
    mus = (0.4, 0.9, 1.3)
    up = orthant_probability(mus, 2.0, half_plane=HalfPlane.UPPER)
    lo = orthant_probability(mus, 2.0, half_plane=HalfPlane.LOWER)
    assert abs(up.value.imag) < 1e-12
    assert abs(up.value - lo.value) < 1e-12


def test_transform_increases_to_one_half():
    mus = (0.5, 0.5, 0.5)
    vals = [orthant_probability(mus, z).value.real
            for z in (1.0, 4.0, 16.0, 64.0, 1e4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5
    assert 0.5 - vals[-1] < 0.02


def test_transform_conjugation_between_branches():
    mus = (0.7, 1.1)
    z = 0.8 + 1.3j
    up = orthant_probability(mus, z, half_plane=HalfPlane.UPPER)
    lo = orthant_probability(mus, np.conj(z), half_plane=HalfPlane.LOWER)
    assert abs(up.value - np.conj(lo.value)) < 1e-10


def test_transform_at_zero_closed_form():
    assert orthant_probability((1.0, 2.0, 3.0), 0.0).value == 0.125


def test_transform_pole_guard():
    with pytest.raises(NearPoleError):
        orthant_probability((1.0, 0.5), -1.0 + 1e-12)


def test_ideal_d2_is_pi():
    r = regular_volume(2, math.inf, -1.0)
    assert r.volume == pytest.approx(math.pi, abs=1e-8)
    assert r.residual_imag < 1e-10


def test_ideal_d3_value():
    r = regular_volume(3, math.inf, -1.0)
    assert r.volume == pytest.approx(IDEAL_D3, abs=1e-8)


def test_ideal_d4_value():
    r = regular_volume(4, math.inf, -1.0)
    assert r.volume == pytest.approx(IDEAL_D4, abs=1e-8)


def test_degenerate_side_length_gives_zero():
    r = regular_volume(2, 1e-6, -1.0)
    assert abs(r.volume) < 1e-11


def test_spherical_at_kappa_equals_s():
    # all CDF factors become 1/2: volume = area/(8 kappa) in d = 2
    p = OrthocentricParams((1.0, 1.0, 1.0))
    r = volume(VolumeRequest(geometry=p, kappa=3.0))
    assert r.volume == pytest.approx(4 * math.pi / 24.0, rel=1e-12)


def test_realness_grid():
    for d in (2, 3, 5, 8):
        for ell in (0.1, 0.5, 1.0, 2.0, 5.0, math.inf):
            r = regular_volume(d, ell, -1.0)
            assert r.residual_imag <= 1e-8 * max(abs(r.volume), 1e-30) + 1e-12, (d, ell)


def test_monotone_in_side_length_with_ideal_supremum():
    for d in (2, 3, 4):
        vols = [regular_volume(d, ell, -1.0).volume
                for ell in (0.1, 0.5, 1.0, 2.0, 5.0)]
        ideal = regular_volume(d, math.inf, -1.0)
        assert all(b > a for a, b in zip(vols, vols[1:]))
        assert all(v <= ideal.volume + ideal.abs_error for v in vols)


def test_branch_agreement():
    spec = RegularSimplexSpec(3, 1.5, -1.0)
    up = volume(VolumeRequest(geometry=spec))
    lo = volume(VolumeRequest(geometry=spec, use_lower_branch=True))
    assert up.branch is Branch.UPPER_RAY and lo.branch is Branch.LOWER_RAY
    assert abs(up.volume - lo.volume) < 1e-10


def test_orthocentric_spherical_general_kappa():
    # 0 < kappa < s exercises the boundary-ray path with positive curvature
    p = OrthocentricParams((0.9, 1.2, 1.0, 1.1))
    r = volume(VolumeRequest(geometry=p, kappa=0.5 * p.s))
    assert r.volume > 0
    assert r.residual_imag < 1e-10


def test_euclidean_limit():
    rng = np.random.default_rng(22)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        p = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, d + 1)))
        ev = euclidean_volume(realize_vertices(p))
        for kap in (1e-4, -1e-4):
            r = volume(VolumeRequest(geometry=p, kappa=kap))
            assert abs(r.volume - ev) / ev < 1e-3


def test_euclidean_kappa_zero_path():
    p = OrthocentricParams((1.0, 1.3, 0.8))
    r = volume(VolumeRequest(geometry=p, kappa=0.0))
    assert r.volume == pytest.approx(euclidean_volume(realize_vertices(p)), rel=1e-12)
    assert r.branch is Branch.REAL_AXIS


def test_kappa_below_bound_rejected():
    p = OrthocentricParams((1.0, 1.0, 1.0))
    with pytest.raises(GeometryDomainError):
        volume(VolumeRequest(geometry=p, kappa=-1.6))


def test_kappa_just_below_s_is_fast_and_continuous():
    # z = kappa - s -> 0- shrinks every tail coefficient to 0; the exact tail
    # needs no longer head there, and the volume tends to its value at kappa = s
    p = OrthocentricParams((0.8, 1.1, 1.4))
    at_s = volume(VolumeRequest(geometry=p, kappa=p.s)).volume
    for frac in (0.999, 1.0 - 1e-9):
        t0 = time.perf_counter()
        r = volume(VolumeRequest(geometry=p, kappa=frac * p.s))
        assert time.perf_counter() - t0 < 1.0
        assert 0.0 < r.volume and r.abs_error < 1e-6 * r.volume
    assert abs(r.volume - at_s) < 1e-9
    r = volume(VolumeRequest(geometry=p, kappa=0.9 * p.s))
    assert abs(r.volume - 0.43000525759131) < 1e-11


def test_tight_klein_agreement_on_criterion_6_cases():
    # criterion 6's hyperbolic cases against a 1e-11 Klein-model integration:
    # the engine lands within 1e-12 and inside its own error bar
    rng = np.random.default_rng(77)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = float(rng.uniform(0.1, 0.9)) * min_curvature(p)
        ref = direct_klein_volume(realize_vertices(p), kappa, rel_tol=1e-11)
        r = volume(VolumeRequest(geometry=p, kappa=kappa))
        assert abs(r.volume - ref) <= 1e-12
        assert abs(r.volume - ref) <= r.abs_error


def test_boundary_kappa_accepted():
    # vertices exactly on the model boundary: the ideal triangle in the
    # curvature -3/2 model, volume pi/|kappa0|
    p = OrthocentricParams((1.0, 1.0, 1.0))
    k0 = min_curvature(p)
    r = volume(VolumeRequest(geometry=p, kappa=k0))
    assert r.volume == pytest.approx(math.pi / abs(k0), abs=1e-8)


def test_curvature_scaling():
    spec = RegularSimplexSpec(3, 1.0, -4.0)
    assert curvature_scaling_residual(spec) < 1e-9
    assert curvature_scaling_residual(RegularSimplexSpec(3, 1.0, -1.0)) < 1e-12
    r = regular_volume(2, math.inf, -4.0)
    assert r.volume == pytest.approx(math.pi / 4.0, abs=1e-8)


def test_highprec_ideal_matches_known_values():
    assert abs(float(ideal_volume_highprec(3)) - IDEAL_D3) < 1e-13
    assert abs(float(ideal_volume_highprec(4)) - IDEAL_D4) < 1e-13
    # double engine agrees with the arbitrary-precision twin
    assert float(ideal_volume_highprec(6)) == pytest.approx(
        regular_volume(6, math.inf, -1.0).volume, abs=1e-9)


def test_highprec_kappa_scaling():
    v1 = ideal_volume_highprec(3, kappa=-4.0)
    v2 = ideal_volume_highprec(3, kappa=-1.0)
    assert abs(float(v1) - float(v2) / 8.0) < 1e-15


@pytest.mark.parametrize("d, expected", [
    (3, "1.01494160640965362502112223363"),
    (5, "0.0575647376851779272462273249443"),
    (12, "2.05778857928775985627737024734e-8"),  # includes the n = d frequency
])
def test_highprec_pinned_values(d, expected):
    with mp.workdps(40):
        ref = mp.mpf(expected)
        assert abs(ideal_volume_highprec(d) - ref) <= 1e-28 * ref


def test_highprec_rejects_bad_input():
    with pytest.raises(ValueError):
        ideal_volume_highprec(1)
    with pytest.raises(ValueError):
        ideal_volume_highprec(3, kappa=0.0)


@pytest.mark.parametrize("d, n", [(12, 0), (12, 1), (12, 11), (12, 13), (20, 0), (20, 21)])
def test_gamma_ladder_matches_direct_gammainc(d, n):
    # (12, 0) and (12, 1) start at the orders a = 1/2 and a = 0, n = d + 1 is
    # the reflected term, and d = 20 reaches the most negative orders
    with mp.workdps(_hp._DPS):
        # the twin's split point: |c| A = 10.5 with |c| = sqrt(2/d), rounded
        # up to a whole number of half-oscillation panels
        A = mp.mpf("10.5") / mp.sqrt(mp.mpf(2) / d)
        A = mp.sqrt(mp.pi * mp.ceil(A * A / mp.pi))
        Q = mp.mpc(0, -2) * (d - n) / d
        w = Q * A * A / 2
        ladder = _hp._gamma_ladder(Q, A, n, _hp._NSER)
        for K, g in enumerate(ladder):
            a = (1 - mp.mpf(n + 2 * K)) / 2
            direct = mp.mpf(1) / 2 * (2 / Q) ** a * mp.gammainc(a, w)
            assert abs(g - direct) <= 1e-35 * abs(direct), (K, a)


def test_request_validation():
    with pytest.raises(GeometryDomainError):
        VolumeRequest(geometry=OrthocentricParams((1.0, 1.0, 1.0)))  # no kappa
    with pytest.raises(ValueError):
        VolumeRequest(geometry=RegularSimplexSpec(2, 1.0, -1.0), tolerance=0.0)
    with pytest.raises(GeometryDomainError):
        VolumeRequest(geometry=RegularSimplexSpec(2, 1.0, -1.0), kappa=-2.0)
