"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including measured values, tolerances, and wall time.
"""

import math
import time

import numpy as np

from simplexvol.cnormal import norm_cdf, norm_cdf_array
from simplexvol.engine import VolumeRequest, orthant_probability, regular_volume, volume
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
)
from simplexvol.oracles import (
    direct_klein_volume, ideal_tetrahedron_volume, mc_spherical_volumes,
    regular_tetrahedron_volume,
)
from simplexvol.rayquad import RayIntegralProblem, ray_integral

from conftest import mp_norm_cdf_real_bruteforce


def _report(num, name, ok, detail, t0, limit):
    dt = time.perf_counter() - t0
    line = (f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"({dt:.2f}s, limit {limit:g}s)")
    print(line)
    assert ok, line
    assert dt < limit, f"criterion {num} exceeded its runtime limit: {dt:.2f}s"


def test_criterion_01_ideal_d2_pi():
    t0 = time.perf_counter()
    r = regular_volume(2, math.inf, -1.0)
    err = abs(r.volume - math.pi)
    _report(1, "ideal d=2 equals pi", err <= 1e-8,
            f"|vol - pi| = {err:.3g} (tol 1e-8)", t0, 1.0)


def test_criterion_02_ideal_d3_log_sine():
    t0 = time.perf_counter()
    r = regular_volume(3, math.inf, -1.0)
    ref = ideal_tetrahedron_volume()
    ok = round(r.volume, 5) == 1.01494 and abs(r.volume - ref) <= 1e-8
    _report(2, "ideal d=3 equals the log-sine integral",
            ok, f"vol = {r.volume!r}, |vol - oracle| = {abs(r.volume - ref):.3g} "
                f"(tol 1e-8, 5 decimals = 1.01494)", t0, 1.0)


def test_criterion_03_ideal_d4_closed_form():
    t0 = time.perf_counter()
    r = regular_volume(4, math.inf, -1.0)
    ref = 10 * math.pi / 3 * math.asin(1.0 / 3.0) - math.pi ** 2 / 3
    err = abs(r.volume - ref)
    _report(3, "ideal d=4 equals the arcsin closed form", err <= 1e-8,
            f"|vol - ref| = {err:.3g} (tol 1e-8)", t0, 1.0)


def test_criterion_04_regular_d3_vs_tetrahedron_integral():
    t0 = time.perf_counter()
    worst = 0.0
    for ell in (0.25, 0.5, 1.0, 2.0, 4.0):
        got = regular_volume(3, ell, -1.0).volume
        worst = max(worst, abs(got - regular_tetrahedron_volume(ell)))
    _report(4, "regular d=3 matches the side-length integral", worst <= 1e-7,
            f"worst |engine - oracle| = {worst:.3g} over 5 side lengths (tol 1e-7)",
            t0, 5.0)


#: the chi-squared(20) quantile at 1 - 1e-4 and the two-sided 1e-4 normal
#: quantile (scipy.stats.chi2.isf(1e-4, 20), scipy.stats.norm.isf(5e-5)):
#: criterion 5 fails correct code with probability at most 2e-4
_CHI2_20_AT_1E4 = 52.386
_NORMAL_AT_1E4 = 3.891


def _mc_rule(zs):
    """Criterion 5's joint rule on 20 signed z-scores: the sum of squares
    within the chi-squared(20) quantile, and the mean scaled to N(0, 1)
    within the normal quantile, both at 1e-4."""
    chi2 = sum(z * z for z in zs)
    mean = abs(sum(zs)) / math.sqrt(len(zs))
    return chi2 <= _CHI2_20_AT_1E4 and mean <= _NORMAL_AT_1E4, chi2, mean


def test_criterion_05_spherical_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250810)
    jobs = []
    for _ in range(20):
        d = int(rng.integers(2, 7))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = p.s * float(rng.uniform(1.0, 3.0))
        jobs.append((p, kappa, 10_000_000, int(rng.integers(2 ** 31))))
    zscores = []
    for (p, kappa, _, _), rep in zip(jobs, mc_spherical_volumes(jobs)):
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        zscores.append((eng - rep.estimate) / rep.std_error)
    ok, chi2, mean = _mc_rule(zscores)
    _report(5, "spherical Monte Carlo cross-check", ok,
            f"max |z| = {max(map(abs, zscores)):.2f}, sum z^2 = {chi2:.2f} "
            f"(tol {_CHI2_20_AT_1E4}), |sum z|/sqrt(20) = {mean:.2f} "
            f"(tol {_NORMAL_AT_1E4})", t0, 120.0)


def test_criterion_05_rule_has_scipys_quantiles_and_rejects_a_shifted_engine():
    from scipy import stats
    assert _CHI2_20_AT_1E4 == round(stats.chi2.isf(1e-4, 20), 3)
    assert _NORMAL_AT_1E4 == round(stats.norm.isf(5e-5), 3)
    # 20 z-scores at the normal quantiles pass; shifting every engine value
    # by +1 se, or one of them by 10 se, fails
    zs = stats.norm.ppf((np.arange(20) + 0.5) / 20).tolist()
    assert _mc_rule(zs)[0]
    assert not _mc_rule([z + 1.0 for z in zs])[0]
    assert not _mc_rule(zs[:10] + [zs[10] + 10.0] + zs[11:])[0]


def test_criterion_06_hyperbolic_direct_integration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 4))
        p = OrthocentricParams(tuple(rng.uniform(0.5, 2.0, d + 1)))
        kappa = float(rng.uniform(0.1, 0.9)) * min_curvature(p)
        ref = direct_klein_volume(realize_vertices(p), kappa, rel_tol=1e-7)
        eng = volume(VolumeRequest(geometry=p, kappa=kappa)).volume
        worst = max(worst, abs(eng - ref) / abs(ref))
    _report(6, "hyperbolic direct Klein integration", worst <= 1e-4,
            f"worst relative deviation = {worst:.3g} over 10 cases (tol 1e-4)",
            t0, 120.0)


def test_criterion_07_contour_rotation():
    t0 = time.perf_counter()
    worst = 0.0
    for mus in ((1.0,), (1.0, 1.0, 1.0), (0.5, 1.5)):
        for z in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            vals = []
            for om in [1.0, np.exp(1j * np.pi / 8), 1 - 1j, 1 + 1j]:
                r = ray_integral(RayIntegralProblem(mus, z, om))
                vals.append(r.value)
            worst = max(worst, max(abs(a - b) for a in vals for b in vals))
    _report(7, "contour rotation invariance", worst <= 1e-10,
            f"worst pairwise deviation = {worst:.3g} over 18 grids x 4 rays "
            "(tol 1e-10)", t0, 30.0)


def test_criterion_08_cdf_identity_suite():
    t0 = time.perf_counter()
    target = 1e-12
    rng = np.random.default_rng(8)
    z = rng.uniform(0, 10, 10_000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 10_000))
    v, vm, vc = norm_cdf_array(z), norm_cdf_array(-z), norm_cdf_array(np.conj(z))
    scale = np.maximum(1.0, np.maximum(np.abs(v), np.abs(vm)))
    refl = float(np.max(np.abs(v + vm - 1.0) / scale))
    conj = float(np.max(np.abs(vc - np.conj(v)) / np.maximum(1.0, np.abs(v))))
    xs = np.linspace(-10, 10, 81)
    ax = max(abs(norm_cdf(float(x)) - mp_norm_cdf_real_bruteforce(float(x)))
             for x in xs)
    sector_ok = True
    for R in (10.0, 20.0, 40.0):
        th = np.linspace(-np.pi / 4, np.pi / 4, 65)
        w = norm_cdf_array(R * np.exp(1j * th))
        wm = norm_cdf_array(-R * np.exp(1j * th))
        bound = 1.5 / (math.sqrt(2 * math.pi) * R)
        sector_ok &= float(np.max(np.abs(w - 1.0))) <= bound
        sector_ok &= float(np.max(np.abs(wm))) <= bound
    ok = refl <= 10 * target and conj <= 10 * target and ax <= target and sector_ok
    _report(8, "normal-CDF identity suite", ok,
            f"reflection {refl:.2g}, conjugation {conj:.2g} (tol 1e-11), "
            f"real-axis {ax:.2g} (tol 1e-12), sector limits "
            f"{'ok' if sector_ok else 'VIOLATED'}", t0, 10.0)


def test_criterion_09_transform_zero_at_minus_s():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 7))
        taus = rng.uniform(0.5, 2.0, d + 1)
        s = float(np.sum(taus ** 2))
        tr = orthant_probability(tuple(taus / s), -s)
        worst = max(worst, abs(tr.value))
    _report(9, "transform vanishes at -s", worst <= 1e-9,
            f"worst |value at -s| = {worst:.3g} over 10 parameter sets (tol 1e-9)",
            t0, 30.0)


def test_criterion_10_large_dimension_asymptotics():
    t0 = time.perf_counter()
    ratios = []
    for d in range(10, 21):
        v = regular_volume(d, math.inf, -1.0).volume
        ratios.append(v * math.factorial(d) / (math.e * math.sqrt(d)))
    devs = [abs(r - 1.0) for r in ratios]
    ok = (all(r > 0 and 0.5 <= r <= 1.5 for r in ratios)
          and all(b < a for a, b in zip(devs, devs[1:])))
    _report(10, "volume asymptotics ~ e sqrt(d)/d!", ok,
            f"ratios d=10..20 in [{min(ratios):.4f}, {max(ratios):.4f}], "
            f"|ratio-1| decreasing: {all(b < a for a, b in zip(devs, devs[1:]))}",
            t0, 120.0)


def test_criterion_11_euclidean_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 4))
        p = OrthocentricParams(tuple(rng.uniform(0.6, 1.8, d + 1)))
        ev = euclidean_volume(p)
        for kap in (1e-4, -1e-4):
            r = volume(VolumeRequest(geometry=p, kappa=kap))
            worst = max(worst, abs(r.volume - ev) / ev)
    _report(11, "flat-space limit at kappa = +-1e-4", worst <= 1e-3,
            f"worst relative deviation = {worst:.3g} over 5 cases x 2 signs "
            "(tol 1e-3)", t0, 30.0)
