"""Volume engine: orthant transform properties and assembled volumes."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from simplexvol.engine import (
    Branch, VolumeRequest, orthant_probability, regular_volume,
    sphere_surface_area, volume,
)
from simplexvol.errors import GeometryDomainError, NearPoleError
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
    regular_parameters,
)
from simplexvol.oracles import direct_klein_volume
from simplexvol.rayquad import HalfPlane
from simplexvol import _hp
from simplexvol._hp import ideal_volume_highprec

IDEAL_D3 = 1.0149416064096535          # -3 int_0^{pi/3} log(2 sin t) dt
IDEAL_D4 = 0.2688956601693112          # (10 pi/3) asin(1/3) - pi^2/3

#: ideal regular volumes (kappa = -1) from the mpmath twin at 40 digits
HP_PINNED = {
    3: "1.01494160640965362502112223363",
    5: "0.0575647376851779272462273249443",
    10: "2.50524779083904730211784044675e-6",
    11: "2.37517016038058723579683319592e-7",
    12: "2.05778857928775985627737024734e-8",  # includes the n = d frequency
}


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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 11, 12])
def test_ideal_regular_bar_covers_error(d):
    # closed forms for d <= 4, the twin's pinned values (good to about 2e-16
    # relative at d = 12) above
    ref = float(HP_PINNED[d]) if d >= 5 else {2: math.pi, 3: IDEAL_D3, 4: IDEAL_D4}[d]
    r = regular_volume(d, math.inf, -1.0)
    assert abs(r.volume - ref) <= r.abs_error


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
    p = regular_parameters(3, 1.5, -1.0)
    up = volume(VolumeRequest(geometry=p, kappa=-1.0))
    lo = volume(VolumeRequest(geometry=p, kappa=-1.0, use_lower_branch=True))
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
        ev = euclidean_volume(p)
        for kap in (1e-4, -1e-4):
            r = volume(VolumeRequest(geometry=p, kappa=kap))
            assert abs(r.volume - ev) / ev < 1e-3


def test_euclidean_kappa_zero_path():
    p = OrthocentricParams((1.0, 1.3, 0.8))
    r = volume(VolumeRequest(geometry=p, kappa=0.0))
    v = realize_vertices(p)
    det = abs(np.linalg.det(v[1:] - v[0])) / math.factorial(2)
    assert r.volume == pytest.approx(det, rel=1e-12)
    assert r.branch is Branch.REAL_AXIS


@pytest.mark.parametrize("d, tau", [(2, 1e7), (2, 1e11), (3, 1e100), (3, 1e-100),
                                    (12, 1e24), (12, 1e-24)])
def test_euclidean_volume_far_from_unit_scale(d, tau):
    # regular simplices of volume sqrt(d+1)/(d! tau^d), where prod_j tau_j may
    # leave the float range; the bar stays relative to the volume
    r = volume(VolumeRequest(geometry=OrthocentricParams((tau,) * (d + 1)), kappa=0.0))
    with mp.workdps(50):
        ref = mp.sqrt(d + 1) / (mp.factorial(d) * mp.mpf(tau) ** d)
        assert abs(mp.mpf(r.volume) - ref) <= r.abs_error
    assert 0.0 < r.abs_error < r.volume


def test_euclidean_bar_covers_rounding():
    # the closed form sqrt(s)/(d! prod tau) of the same float taus at 50 digits
    rng = np.random.default_rng(13)
    with mp.workdps(50):
        for _ in range(200):
            d = int(rng.integers(2, 13))
            taus = tuple(rng.uniform(0.2, 4.0, d + 1) * 10.0 ** rng.uniform(-3, 3))
            r = volume(VolumeRequest(geometry=OrthocentricParams(taus), kappa=0.0))
            s = mp.fsum(mp.mpf(t) ** 2 for t in taus)
            ref = mp.sqrt(s) / (mp.factorial(d) * mp.fprod(mp.mpf(t) for t in taus))
            assert abs(mp.mpf(r.volume) - ref) <= r.abs_error, (d, taus)


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


def curvature_scaling_residual(d, ell, kappa, tolerance=1e-10):
    """|Vol_{d,kappa}(ell) - |kappa|^{-d/2} Vol_{d,-1}(ell sqrt(|kappa|))|.

    The coupling of the volume integrand depends on ell*sqrt(-kappa) only, so
    this vanishes identically up to quadrature error.
    """
    v1 = regular_volume(d, ell, kappa, tolerance)
    v2 = regular_volume(d, ell * math.sqrt(-kappa), -1.0, tolerance)
    return abs(v1.volume - abs(kappa) ** (-d / 2.0) * v2.volume)


def test_curvature_scaling():
    assert curvature_scaling_residual(3, 1.0, -4.0) < 1e-9
    assert curvature_scaling_residual(3, 1.0, -1.0) < 1e-12
    r = regular_volume(2, math.inf, -4.0)
    assert r.volume == pytest.approx(math.pi / 4.0, abs=1e-8)


@pytest.mark.parametrize("d", range(2, 9))
def test_ideal_curvature_scaling_within_bars(d):
    # at ideal vertices some tail rates vanish exactly, and rounding leaves
    # them +-eps off 0 by an amount that depends on kappa; the scaled volumes
    # must still agree with kappa = -1 inside both claimed bars
    ref = regular_volume(d, math.inf, -1.0)
    for kappa in (-0.3, -0.7, -2.0, -3.0, -5.0, -6.0, -7.0, -10.0, -11.0, -13.0):
        r = regular_volume(d, math.inf, kappa)
        scale = abs(kappa) ** (d / 2.0)
        assert abs(scale * r.volume - ref.volume) <= scale * r.abs_error + ref.abs_error
        if d == 2:
            assert r.volume == pytest.approx(math.pi / abs(kappa), rel=1e-13)


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


@pytest.mark.parametrize("d, expected", sorted(HP_PINNED.items()))
def test_highprec_pinned_values(d, expected):
    with mp.workdps(40):
        ref = mp.mpf(expected)
        assert abs(ideal_volume_highprec(d) - ref) <= 1e-28 * ref


def test_highprec_pinned_value_d20():
    # 40-digit rounding alone can move d = 20 by about 1e-22 relative
    with mp.workdps(40):
        ref = mp.mpf("5.13024082044692292411725455970e-18")
        assert abs(ideal_volume_highprec(20) - ref) <= 1e-21 * ref


def _head_by_nodes(d, a, b):
    """One panel of the twin's head with one mp.erf call per node."""
    sqrt2d = mp.sqrt(2 * d)
    mid, half = (a + b) / 2, (b - a) / 2
    acc = mp.mpc(0)
    for x, w in _hp._gl_nodes(mp.mp.prec):
        y = mid + half * x
        p = (1 + mp.erf(mp.mpc(y, y) / sqrt2d)) / 2
        acc += w * (p ** (d + 1) + (1 - p) ** (d + 1)) * mp.expj(y * y)
    return acc * half


@pytest.mark.parametrize("d", [3, 12])
def test_head_kernel_matches_per_node_erf(d):
    # the twin's panels have edges sqrt(pi k), k < kmax; the first is the
    # widest and needs the longest Taylor series, the last is furthest out
    kmax = int(math.ceil(10.5 ** 2 * d / (2 * math.pi)))
    rng = np.random.default_rng(5)
    ks = [0, 1, kmax - 1] + [int(k) for k in rng.integers(2, kmax - 1, 4)]
    for k in ks:
        with mp.workdps(_hp._DPS):
            a, b = mp.sqrt(mp.pi * k), mp.sqrt(mp.pi * (k + 1))
            fast = _hp._head(d, [a, b])
        with mp.workdps(60):
            ref = _head_by_nodes(d, a, b)
        # a twin's head sums up to 350 panels and must stay within about 1e-37
        assert abs(fast - ref) <= 1e-40, (k, abs(fast - ref))


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
    with pytest.raises(TypeError):
        VolumeRequest(geometry=OrthocentricParams((1.0, 1.0, 1.0)))  # no kappa
    p = regular_parameters(2, 1.0, -1.0)
    with pytest.raises(ValueError):
        VolumeRequest(geometry=p, kappa=-1.0, tolerance=0.0)
    with pytest.raises(ValueError):
        VolumeRequest(geometry=p, kappa=-1.0, tolerance=math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryDomainError, match="kappa"):
            VolumeRequest(geometry=OrthocentricParams((1.0, 1.0, 1.0)), kappa=bad)
        with pytest.raises(GeometryDomainError, match="kappa"):
            regular_volume(2, 1.0, bad)
