"""Volume engine: orthant transform properties and assembled volumes."""

import json
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from simplexvol.engine import (
    Branch, VolumeRequest, orthant_probability, regular_volume,
    sphere_surface_area, volume,
)
from simplexvol.errors import GeometryDomainError, NearPoleError, ToleranceError
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
    regular_parameters,
)
from simplexvol.oracles import direct_klein_volume
from simplexvol.rayquad import RayIntegralProblem, ray_integral
from simplexvol import _hp, engine
from simplexvol._hp import ideal_volume_highprec

from conftest import mp_series_table

IDEAL_D3 = 1.0149416064096535          # -3 int_0^{pi/3} log(2 sin t) dt
IDEAL_D4 = 0.2688956601693112          # (10 pi/3) asin(1/3) - pi^2/3

#: ideal regular volumes (kappa = -1) from the retired mpmath twin of the
#: ray representation, at 40 digits
HP_PINNED = {
    3: "1.01494160640965362502112223363",
    5: "0.0575647376851779272462273249443",
    6: "0.0102392754201766402586577152401",
    7: "0.00155286593651748395182962677811",
    8: "0.00020497686689883607910952226273",
    9: "2.39362772736196783402640136966e-5",
    10: "2.50524779083904730211784044675e-6",
    11: "2.37517016038058723579683319592e-7",
    12: "2.05778857928775985627737024734e-8",  # includes the n = d frequency
}

#: how far the series reference and the twin's pinned values may differ,
#: relative: the twin's own error (its docstring gave 3e-21 at d = 5, 3e-18
#: at d = 10, 2e-16 at d = 12 and 5e-8 at d = 20, about tenfold per
#: dimension); the reference is within 1e-30 of the closed forms at d <= 4
TWIN_ERROR = {3: 1e-17, 5: 1e-20, 6: 1e-19, 7: 1e-18, 8: 1e-17, 9: 1e-16,
              10: 1e-15, 11: 1e-15, 12: 1e-15, 20: 1e-7}


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
    up = orthant_probability(mus, 2.0, use_lower_branch=False)
    lo = orthant_probability(mus, 2.0, use_lower_branch=True)
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
    up = orthant_probability(mus, z, use_lower_branch=False)
    lo = orthant_probability(mus, np.conj(z), use_lower_branch=True)
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


#: the ideal volume at kappa = -1 to 30 digits for d = 2, 3, 4
IDEAL_CLOSED_FORMS = {
    2: lambda: mp.pi,
    3: lambda: 3 * mp.clsin(2, 2 * mp.pi / 3) / 2,
    4: lambda: 10 * mp.pi / 3 * mp.asin(mp.mpf(1) / 3) - mp.pi ** 2 / 3,
}


@pytest.mark.parametrize("d", range(2, 61))
def test_ideal_regular_bar_covers_error(d):
    # the ideal simplex takes the series at every d; the references are
    # closed forms for d <= 4 and the 30-digit series reference past them
    with mp.workdps(40):
        ref = IDEAL_CLOSED_FORMS[d]() if d <= 4 else ideal_volume_highprec(d)
        for kappa in (-1.0, -4.0, -0.3):
            r = regular_volume(d, math.inf, kappa)
            exact = ref * mp.mpf(-kappa) ** (-mp.mpf(d) / 2)
            assert r.branch is Branch.SERIES and r.residual_imag == 0.0
            assert abs(mp.mpf(r.volume) - exact) <= r.abs_error, kappa
            assert r.abs_error <= 1e-12 * r.volume, kappa


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
    # a regular upper request takes the curvature series, summed at ell = 1.5
    # and with its closed-form tail at the near-ideal ell = 8, and so does an
    # orthocentric one at 0.9 kappa0, summed over its groups of equal taus;
    # each agrees with the lower ray across paths
    for ell in (1.5, 8.0):
        p = regular_parameters(3, ell, -1.0)
        up = volume(VolumeRequest(geometry=p, kappa=-1.0))
        lo = volume(VolumeRequest(geometry=p, kappa=-1.0, use_lower_branch=True))
        assert up.branch is Branch.SERIES and lo.branch is Branch.LOWER_RAY
        assert abs(up.volume - lo.volume) < 1e-10
    p = OrthocentricParams((0.9, 1.2, 1.0, 1.1))
    up = volume(VolumeRequest(geometry=p, kappa=0.9 * min_curvature(p)))
    lo = volume(VolumeRequest(geometry=p, kappa=0.9 * min_curvature(p), use_lower_branch=True))
    assert up.branch is Branch.SERIES and lo.branch is Branch.LOWER_RAY
    assert abs(up.volume - lo.volume) < 1e-10


def _ray_cases():
    rng = np.random.default_rng(2902)
    return [(d, tuple(float(t) for t in rng.uniform(0.6, 1.8, d + 1)),
             float(rng.uniform(0.2, 0.9))) for d in range(2, 9) for _ in range(2)]


@pytest.mark.parametrize("d, taus, frac", _ray_cases())
def test_upper_ray_agrees_with_the_series(d, taus, frac):
    # volume() sends these requests to the series, so the upper ray is
    # called directly: the two paths share nothing past the taus
    req = VolumeRequest(OrthocentricParams(taus), frac * min_curvature(OrthocentricParams(taus)))
    ser = volume(req)
    ray = engine._evaluate(req, req.kappa)
    assert ser.branch is Branch.SERIES and ray.branch is Branch.UPPER_RAY
    assert abs(ser.volume - ray.volume) <= ser.abs_error + ray.abs_error


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
    # at ideal vertices some of the ray's tail rates vanish exactly, and
    # rounding leaves them +-eps off 0 by an amount that depends on kappa; the
    # scaled volumes must still agree with kappa = -1 inside both claimed bars.
    # The ideal simplex takes the series on the upper branch, so this is the
    # lower-branch ray
    def ray(kappa):
        p = regular_parameters(d, math.inf, kappa)
        r = volume(VolumeRequest(p, kappa, use_lower_branch=True))
        assert r.branch is Branch.LOWER_RAY
        return r

    ref = ray(-1.0)
    for kappa in (-0.3, -0.7, -2.0, -3.0, -5.0, -6.0, -7.0, -10.0, -11.0, -13.0):
        r = ray(kappa)
        scale = abs(kappa) ** (d / 2.0)
        assert abs(scale * r.volume - ref.volume) <= scale * r.abs_error + ref.abs_error
        if d == 2:
            assert r.volume == pytest.approx(math.pi / abs(kappa), rel=1e-13)


def test_highprec_ideal_matches_known_values():
    assert abs(float(ideal_volume_highprec(3)) - IDEAL_D3) < 1e-13
    assert abs(float(ideal_volume_highprec(4)) - IDEAL_D4) < 1e-13
    # the double engine agrees with the arbitrary-precision reference
    assert float(ideal_volume_highprec(6)) == pytest.approx(
        regular_volume(6, math.inf, -1.0).volume, abs=1e-9)


def test_highprec_kappa_scaling():
    v1 = ideal_volume_highprec(3, kappa=-4.0)
    v2 = ideal_volume_highprec(3, kappa=-1.0)
    assert abs(float(v1) - float(v2) / 8.0) < 1e-15


@pytest.mark.parametrize("d, expected", sorted(HP_PINNED.items()))
def test_highprec_pinned_values(d, expected):
    # the curvature series against the ray representation beyond double
    # precision: the twin's values were computed from the ray
    with mp.workdps(40):
        ref = mp.mpf(expected)
        assert abs(ideal_volume_highprec(d) - ref) <= TWIN_ERROR[d] * ref


def test_highprec_pinned_value_d20():
    # the twin's least accurate pin
    with mp.workdps(40):
        ref = mp.mpf("5.13024082044692292411725455970e-18")
        assert abs(ideal_volume_highprec(20) - ref) <= TWIN_ERROR[20] * ref


def test_highprec_matches_the_stored_benchmark_reference():
    # benchmarks/references.json's d = 5 value, 25 digits of the twin
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "references.json"
    with mp.workdps(40):
        ref = mp.mpf(json.loads(path.read_text())["ideal_volume_highprec"]["5"])
        assert abs(ideal_volume_highprec(5) - ref) <= 1e-20 * ref


def test_highprec_rejects_bad_input():
    with pytest.raises(ValueError):
        ideal_volume_highprec(1)
    with pytest.raises(ValueError):
        ideal_volume_highprec(3, kappa=0.0)


@pytest.mark.parametrize("d", [2, 3, 4], ids=["pi", "log-sine", "closed-form"])
def test_series_reference_matches_closed_forms(d):
    # the closed-form tail past T_512 is 3.4% of the sum at d = 2; the
    # reference is 7.2e-32, 1.3e-31 and 4.1e-32 off, relative, at d = 2, 3, 4
    with mp.workdps(40):
        ref = IDEAL_CLOSED_FORMS[d]()
        assert abs(ideal_volume_highprec(d) - ref) <= 1e-28 * ref


@pytest.mark.parametrize("n", range(3, 22))
def test_series_reference_table_matches_the_engine_table(n):
    # two implementations of one recurrence: the engine's float doubling scan
    # and the reference's term-by-term fixed-point loop
    K = 79
    fast = engine._series_table(n, K, ((1.0, n),))
    with mp.workdps(60):
        ref = _hp._series_table(n, K)
    assert len(fast) == len(ref) == K + 1
    for k, (a, b) in enumerate(zip(fast, ref)):
        assert abs(a - b) <= 1e-13 * b, (k, a, b)


@pytest.mark.parametrize("dps", [30, 60])
@pytest.mark.parametrize("n, K", [(3, 79), (13, 79), (31, 400), (151, 400)])
def test_fixed_point_series_table_matches_the_mpf_loop(n, K, dps):
    # the mpf loop rounds at every step, up to about (n + K) units of 2^-prec
    # in all; the fixed-point table rounds each entry once, even where it
    # falls to 1e-88 (n = 151, K = 400)
    with mp.workdps(dps):
        fixed = _hp._series_table(n, K)
        ref = mp_series_table(n, K)
        tol = 4 * (n + K) * mp.mpf(2) ** -mp.mp.prec
        assert len(fixed) == len(ref) == K + 1
        for k, (a, b) in enumerate(zip(fixed, ref)):
            assert abs(a - b) <= tol * b, (k, a, b)


@pytest.mark.parametrize("d", [3, 12])
def test_series_reference_kappa_scaling(d):
    # the finite-side reference: doubling tau at kappa = -4 keeps rho and
    # scales the volume by |kappa|^(-d/2) = 2^-d, exact in binary
    tau = regular_parameters(d, 2.0, -1.0).taus[0]
    v1 = _hp._series_volume((2 * tau,) * (d + 1), -4.0)
    v2 = _hp._series_volume((tau,) * (d + 1), -1.0)
    with mp.workdps(30):
        assert abs(v1 * 2 ** d - v2) <= 1e-28 * v2


def test_gate_refuses_an_ideal_volume_its_bar_swallows():
    # the ray cancels at d = 16: 4.96e-13 +- 5.6e-12 came back unflagged on the
    # upper branch, which now takes the series; the lower branch still takes
    # the ray, and returns 5.39e-13 +- 6.1e-12
    p = regular_parameters(16, math.inf, -1.0)
    with pytest.raises(ToleranceError, match="not certified") as info:
        volume(VolumeRequest(p, -1.0, use_lower_branch=True))
    res = info.value.result
    assert res.branch is Branch.LOWER_RAY
    assert not res.abs_error < abs(res.volume)


@pytest.mark.parametrize("kappa", [1e-4])
def test_gate_refuses_a_flat_limit_the_ray_cancels(kappa):
    # at kappa > 0 distinct taus take the ray, which returned -8.4e-3 +- 17
    # for a Euclidean volume of 3.43e-3
    rng = np.random.default_rng(3)
    p = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, 7)))
    with pytest.raises(ToleranceError) as info:
        volume(VolumeRequest(geometry=p, kappa=kappa))
    assert info.value.result.abs_error > 1.0


def test_series_certifies_the_flat_limit_the_ray_cancels():
    # the same simplex at kappa = -1e-4 came back from the ray as 1.4e-2 +- 17
    # and was refused; the series sums 4 terms.  To first order,
    # Vol/Vol_E - 1 = -kappa (sum_j tau_j^-2/(n + 1) - n/(2 s)), n = d + 1,
    # from a^(-h) and term_1
    rng = np.random.default_rng(3)
    p = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, 7)))
    ve = euclidean_volume(p)
    n = len(p.taus)
    exact = sum(t ** -2 for t in p.taus) / (n + 1) - n / (2.0 * p.s)
    for kappa in (-1e-4, -1e-6):
        r = volume(VolumeRequest(geometry=p, kappa=kappa))
        assert r.branch is Branch.SERIES and r.abs_error <= 1e-14 * r.volume
        assert abs(((r.volume / ve - 1.0) / -kappa) / exact - 1.0) <= -10.0 * kappa


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


@pytest.mark.parametrize("error_bar", [
    lambda: regular_volume(2, 0.1).abs_error,
    lambda: volume(VolumeRequest(OrthocentricParams((1.0, 1.0, 1.0)), 4.0)).abs_error,
    lambda: volume(VolumeRequest(OrthocentricParams((1.0, 1.3, 0.8)), 0.0)).abs_error,
    lambda: ray_integral(RayIntegralProblem((0.3, 0.3, 0.3), -2.0, 1 - 1j)).abs_error_estimate,
], ids=["hyperbolic", "spherical", "euclidean", "boundary-ray"])
def test_error_bars_are_python_floats(error_bar):
    assert type(error_bar()) is float
