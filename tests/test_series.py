"""The curvature-series path at kappa < 0: regular simplices and, grouped by
equal taus, every other orthocentric one."""

import functools
import math
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import mpf_mul, mpf_sum

from simplexvol import engine
from simplexvol.engine import Branch, VolumeRequest, regular_volume, volume
from simplexvol.errors import GeometryDomainError, OverflowRegionError, ToleranceError
from simplexvol.geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, regular_parameters,
)
from simplexvol.oracles import regular_tetrahedron_volume


def _side(rho, kappa=-1.0):
    """The side length whose series ratio is rho: rho = 1 - 1/cosh(ell sqrt(-kappa))."""
    return math.acosh(1.0 / (1.0 - rho)) / math.sqrt(-kappa)


def mp_terms(sigmas, rho, K):
    """term_k = rho^k [t^k]prod_j F(sigma_j t) / ((n+1)/2)_k, k = 0..K, n =
    len(sigmas), from the product multiplied out factor by factor by plain
    convolution of the coefficients sigma_j^i (1/2)_i, in the current mp
    precision.  Each entry is mp.fdot's: the exact products summed with one
    rounding, here on the raw mpf tuples."""
    f = [mp.rf(mp.mpf(1) / 2, i) for i in range(K + 1)]
    p = [mp.mpf(1)._mpf_] + [mp.mpf(0)._mpf_] * K
    prec, rounding = mp.mp._prec_rounding
    for sigma in sigmas:
        g = [(mp.mpf(sigma) ** i * f[i])._mpf_ for i in range(K + 1)]
        p = [mpf_sum([mpf_mul(a, b) for a, b in zip(p[:k + 1], g[k::-1])], prec, rounding)
             for k in range(K + 1)]
    n = len(sigmas)
    return [mp.mpf(rho) ** k * mp.make_mpf(p[k]) / mp.rf(mp.mpf(n + 1) / 2, k)
            for k in range(K + 1)]


def mp_recurrence_terms(n, rho, K):
    """The same terms from the first-order recurrence in the stage m that
    engine._series_terms runs (see its docstring), in the current mp precision."""
    c = [mp.mpf(1)] + [mp.mpf(0)] * K
    for m in range(1, n + 1):
        r = mp.mpf(1)
        new = [c[0]]
        for k in range(1, K + 1):
            r *= mp.mpf(m - 3 + 2 * k) / (m - 2 + 2 * k)  # r(m)_k
            new.append(new[-1] / m + r * c[k])
        c = new
    terms, r = [], mp.mpf(1)
    for k in range(K + 1):
        if k:
            r *= mp.mpf(n - 2 + 2 * k) / (n - 1 + 2 * k)  # r(n + 1)_k
        terms.append(mp.mpf(rho) ** k * c[k] * r)
    return terms


def mp_series_volume(d, tau, kappa, dps=30):
    """The series volume of the regular simplex with parameter tau at dps
    digits, summed until the engine's tail bound is below 10^-(dps + 2) of it."""
    with mp.workdps(dps):
        n = d + 1
        h = mp.mpf(n) / 2
        tau2 = mp.mpf(tau) ** 2
        s = n * tau2
        a = 1 - mp.mpf(kappa) / s
        rho = -(mp.mpf(kappa) / a) / tau2
        eps = mp.mpf(10) ** -(dps + 2)
        prefactor = mp.sqrt(s) / (mp.factorial(d) * mp.mpf(tau) ** n) * a ** -h
        size = 2 * engine._series_guess(n, float(rho))  # twice the digits
        while True:
            terms = mp_recurrence_terms(n, rho, size)
            partial = mp.mpf(0)
            for K in range(size):
                partial += terms[K]
                q = rho * (h + K) / (K + 1)
                if q < 1 and terms[K + 1] / (1 - q) < eps * partial:
                    return prefactor * mp.fsum(terms[:K + 1])
            size *= 2


@pytest.mark.parametrize("n", [3, 4, 7, 13])
def test_terms_match_the_convolution_of_f(n):
    # the recurrence against F^n multiplied out, 40 digits
    t = engine._series_terms(0.7, 60, engine._series_table(n, 60, ((1.0, n),)))
    with mp.workdps(40):
        ref = mp_terms([1] * n, 0.7, 60)
        worst = max(abs(mp.mpf(float(a)) - b) / b for a, b in zip(t, ref))
    assert worst < 1e-13


@pytest.mark.parametrize("ell", [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0,
                                 # near-ideal, with the closed-form tail
                                 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0])
def test_d3_rows_match_the_tetrahedron_integral(ell):
    r = regular_volume(3, ell, -1.0)
    assert r.branch is Branch.SERIES
    assert r.residual_imag == 0.0 and r.evaluations > 0
    ref = regular_tetrahedron_volume(ell)
    assert abs(r.volume - ref) <= r.abs_error + 1e-14 * ref
    assert abs(r.volume - ref) <= 1e-14 * ref


@pytest.mark.parametrize("d", range(2, 13))
def test_flat_limit_first_order_coefficient(d):
    # at fixed taus, Vol/Vol_E - 1 = -kappa d/(2 (d + 2) tau^2) + O(kappa^2):
    # the mean of |y|^2 = Q - 1/s over the simplex is d/((d + 1)(d + 2) tau^2)
    tau = 0.8
    p = OrthocentricParams((tau,) * (d + 1))
    exact = d / (2.0 * (d + 2) * tau * tau)
    ve = euclidean_volume(p)
    for kappa in (-1e-5, -1e-6):
        r = volume(VolumeRequest(p, kappa))
        assert r.branch is Branch.SERIES
        coef = (r.volume / ve - 1.0) / -kappa
        assert abs(coef / exact - 1.0) <= -kappa


def _random_cases():
    rng = np.random.default_rng(20241018)
    cases = []
    for _ in range(16):
        d = int(rng.integers(2, 13))
        kappa = -float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        rho = float(rng.uniform(0.0, 0.995))
        cases.append((d, _side(rho, kappa), kappa))
    # tiny simplices, where the ray cancels, and rows near rho = 0.995, which
    # sum more terms than the table holds and so add the closed-form tail
    return cases + [(12, 0.1, -1.0), (8, 0.01, -1.0), (6, 1e-3, -2.0),
                    (2, _side(0.994), -1.0), (12, _side(0.98, -3.0), -3.0)]


@pytest.mark.parametrize("d, ell, kappa", _random_cases())
def test_bar_covers_a_30_digit_sum(d, ell, kappa):
    r = regular_volume(d, ell, kappa)
    assert r.branch is Branch.SERIES
    ref = mp_series_volume(d, regular_parameters(d, ell, kappa).taus[0], kappa)
    assert r.volume > 0
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error
    assert r.abs_error <= 1e-12 * r.volume


def test_small_simplices_the_ray_cancels():
    # the ray returned 5.5e-15 +- 3.8e-11 and -1.8e-14 +- 1.4e-10 here
    r = regular_volume(12, 0.1)
    assert r.branch is Branch.SERIES
    assert abs(r.volume / 1.1522445e-22 - 1.0) < 1e-7
    assert regular_volume(8, 0.01).volume > 0


@pytest.mark.parametrize("d", [3, 5, 8])
def test_agrees_with_the_ray_where_both_claim_1e_10(d):
    # a lower-branch request takes the ray; at d = 8 the ray's bar passes
    # 1e-10 below ell = 2, where its cancellation sets in
    compared = 0
    for ell in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        p = regular_parameters(d, ell, -1.0)
        ser = volume(VolumeRequest(p, -1.0))
        ray = volume(VolumeRequest(p, -1.0, 1e-12, use_lower_branch=True))
        assert ser.branch is Branch.SERIES and ray.branch is Branch.LOWER_RAY
        if max(ser.abs_error, ray.abs_error) <= 1e-10:
            compared += 1
            assert abs(ser.volume - ray.volume) <= ser.abs_error + ray.abs_error
    assert compared >= 4


@pytest.mark.parametrize("d", [3, 7, 12])
def test_curvature_scaling(d):
    # Vol_{d,kappa}(ell) = |kappa|^(-d/2) Vol_{d,-1}(ell sqrt|kappa|), within both bars
    for ell, kappa in ((0.3, -2.0), (1.0, -0.5), (0.7, -9.0), (2.0, -1.7)):
        r = regular_volume(d, ell, kappa)
        unit = regular_volume(d, ell * math.sqrt(-kappa), -1.0)
        assert r.branch is Branch.SERIES and unit.branch is Branch.SERIES
        f = abs(kappa) ** (-d / 2.0)
        assert abs(r.volume - f * unit.volume) <= r.abs_error + f * unit.abs_error


def test_routing():
    # every upper-branch request at kappa < 0 takes the series, at any d and
    # whatever its groups of equal taus, up to the ideal simplex and up to
    # kappa0, a tau one ulp apart included; the lower branch and kappa > 0
    # take the ray.  Near and at kappa0 the orthocentric row agrees with the
    # upper ray, called directly, within both bars
    for d in (3, 30, 31):
        for ell in (math.inf, _side(0.998), _side(0.99)):
            assert regular_volume(d, ell).branch is Branch.SERIES, (d, ell)
    p = regular_parameters(4, 1.0, -1.0)
    assert volume(VolumeRequest(p, -1.0, use_lower_branch=True)).branch is Branch.LOWER_RAY
    q = OrthocentricParams((1.0, 1.0, 1.0, 1.0 + 2.0 ** -52))
    assert volume(VolumeRequest(q, -1.0)).branch is Branch.SERIES
    assert volume(VolumeRequest(p, 0.5 * p.s)).branch is Branch.UPPER_RAY
    o = OrthocentricParams((0.9, 1.2, 1.0, 1.1))
    for f in (0.2, 0.9, 0.95):
        assert volume(VolumeRequest(o, f * min_curvature(o))).branch is Branch.SERIES, f
    # at kappa0 rho is 1 exactly, so even at d = 2, where the volume's
    # conditioning in rho grows without bound, the bar stays at rounding
    for g in (o, OrthocentricParams((0.9, 1.2, 1.0))):
        for f in (0.999, 1.0):
            req = VolumeRequest(g, f * min_curvature(g))
            r = volume(req)
            ray = engine._evaluate(req, engine._checked_kappa(req)[0])
            assert r.branch is Branch.SERIES and ray.branch is Branch.UPPER_RAY, f
            assert abs(r.volume - ray.volume) <= r.abs_error + ray.abs_error, f
            assert f < 1.0 or r.abs_error <= 1e-13 * r.volume


@pytest.mark.parametrize("n", [3, 13, 31])
def test_terms_at_the_cap_stay_finite_and_positive(n):
    # the longest table the series reads, at the largest rho below 1
    rho = math.nextafter(1.0, 0.0)
    K = engine._IDEAL_K
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        t = engine._series_terms(rho, K, engine._series_table(n, K, ((1.0, n),)))
    assert len(t) == K + 1
    assert np.all(np.isfinite(t)) and np.all(t > 0.0) and np.all(t <= 1.0)
    if n == 3:
        with mp.workdps(30):
            ref = mp_recurrence_terms(n, rho, K)
            for k in (1, 100, K // 2, K):
                assert abs(mp.mpf(float(t[k])) / ref[k] - 1) < 1e-11



def test_a_short_window_reads_on_to_the_tail(monkeypatch):
    # the first guess from _series_guess has sufficed in every case scanned,
    # so only a shortened guess reaches a window below T_(_IDEAL_K) where no
    # index passes the stopping test: the row reads its table on to
    # T_(_IDEAL_K) and adds the closed-form tail, a regular row and one of
    # three groups alike
    o = OrthocentricParams((0.9, 1.2, 0.9, 1.1))
    reqs = [VolumeRequest(regular_parameters(3, 1.0, -1.0), -1.0),
            VolumeRequest(o, 0.5 * min_curvature(o))]
    full = engine.volumes(reqs)
    monkeypatch.setattr(engine, "_series_guess", lambda n, rho: 4)
    for req, f in zip(reqs, full):
        short = volume(req)
        assert short.branch is Branch.SERIES and short.evaluations == engine._IDEAL_K + 1
        assert f.evaluations < short.evaluations
        assert abs(short.volume - f.volume) <= short.abs_error + f.abs_error


def _fresh_table(n, K, groups):
    """_series_table(n, K, groups) from a plan built for it: the kept plans
    are cleared first.  Returns the table and the length of its plan."""
    engine._table_plan.cache_clear()
    return (engine._series_table(n, K, groups),
            next((p for p in engine._PLAN_LENGTHS if p >= K + 1), K + 1))


@pytest.mark.parametrize("n", [3, 4, 6, 9, 13])
def test_table_entries_do_not_depend_on_its_length(n):
    # each table is built from its own plan, and every longer one reads a
    # longer plan: K = 1 and 2, say, would both read the 16-entry one
    rng = np.random.default_rng(n)
    # the scan's shifts hold entries to u up to 8 _SCALE_K (_series_table)
    cap = 8 * engine._SCALE_K
    for K in [1, 7, 40, *rng.integers(41, cap // 2, 2)]:
        K = int(K)
        head, length = _fresh_table(n, K, ((1.0, n),))
        assert len(head) == K + 1
        for longer in (2 * K + 16, cap):
            table, longer_length = _fresh_table(n, longer, ((1.0, n),))
            assert longer_length > length
            assert table[:K + 1].tobytes() == head.tobytes()


def _grid(d, rng):
    """25 side lengths at kappa = -1: 21 seeded ones at rho up to 0.995, two
    near-ideal ones, a tiny simplex and the ideal one."""
    rhos = np.concatenate([rng.uniform(0.0, 0.995, 21), [0.997, 0.9999]])
    return [_side(float(rho)) for rho in rhos] + [1e-3, math.inf]


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_grid_rows_equal_single_volumes(d):
    # one volumes() call shares a table per dimension; each row is still bit
    # for bit the volume() of its request alone, branch and term count included
    reqs = [VolumeRequest(regular_parameters(d, ell, -1.0), -1.0)
            for ell in _grid(d, np.random.default_rng(100 + d))]
    got = engine.volumes(reqs)
    assert [r.branch for r in got] == [Branch.SERIES] * 25
    # the near-ideal and ideal rows sum _IDEAL_K + 1 terms and add the
    # closed-form tail
    assert [r.evaluations for r in got[21:23]] == [engine._IDEAL_K + 1] * 2
    for req, r in zip(reqs, got):
        alone = volume(req)
        assert (repr(r.volume), repr(r.abs_error), r.residual_imag, r.branch, r.evaluations) \
            == (repr(alone.volume), repr(alone.abs_error), alone.residual_imag,
                alone.branch, alone.evaluations)


def test_volumes_returns_each_error_in_place():
    # a domain error, an ideal volume the lower-branch ray refuses (8.3e-12 +-
    # 1.1e-11) and two good rows, in request order
    good = VolumeRequest(regular_parameters(3, 1.0, -1.0), -1.0)
    low = VolumeRequest(OrthocentricParams((1.0, 1.0, 1.0)), -1.6)
    refused = VolumeRequest(regular_parameters(15, math.inf, -1.0), -1.0, use_lower_branch=True)
    ideal = VolumeRequest(regular_parameters(3, math.inf, -1.0), -1.0)
    out = engine.volumes([good, low, refused, ideal])
    assert out[0] == volume(good) and out[3] == volume(ideal)
    assert isinstance(out[1], GeometryDomainError)
    assert isinstance(out[2], ToleranceError) and out[2].result.branch is Branch.LOWER_RAY
    for req, err in ((low, GeometryDomainError), (refused, ToleranceError)):
        with pytest.raises(err):
            volume(req)
    assert engine.volumes([]) == []


def test_every_ideal_request_is_at_kappa0():
    # regular_parameters rounds ideal taus so that their computed kappa0 is at
    # least kappa: each request is clamped, and none is summed from rho
    rng = np.random.default_rng(22)
    kappas = [-1.0, -4.0, -0.3, *(-np.exp(rng.uniform(-5.0, 5.0, 12)))]
    for d in range(2, 61):
        for kappa in kappas:
            p = regular_parameters(d, math.inf, float(kappa))
            assert kappa <= min_curvature(p), (d, kappa)
            assert volume(VolumeRequest(p, float(kappa))).branch is Branch.SERIES, (d, kappa)


@pytest.mark.parametrize("d, ell", [(2, 34.5), (3, 35.0), (2, 37.0), (5, 40.0)])
def test_a_large_finite_side_is_not_ideal(d, ell):
    # kappa0/kappa - 1 = (d + 1)/(d (cosh ell - 1)) is a few ulp here, and
    # past ell ~ 36 the taus round to the ideal ones; the ideal series would
    # return pi at d = 2, where the area is pi - 3 alpha, alpha ~ 2 e^(-ell/2).
    # The request takes the closed-form tail at its rho < 1, below the ideal
    # value
    r = regular_volume(d, ell)
    assert r.branch is Branch.SERIES
    assert r.volume < regular_volume(d, math.inf).volume


def test_a_request_just_past_kappa0_is_not_ideal():
    # 1e-13 relative above kappa0 is outside the window: rho = 1 - 1e-13,
    # whose volume is below the ideal one at kappa0 by more than both bars
    # (the deficit is 1.9e-12 relative, the larger scale |kappa|^(-3/2)
    # 1.5e-13)
    p = regular_parameters(3, math.inf, -1.0)
    near = volume(VolumeRequest(p, min_curvature(p) * (1.0 - 1e-13)))
    ideal = volume(VolumeRequest(p, min_curvature(p)))
    assert near.branch is Branch.SERIES and ideal.branch is Branch.SERIES
    assert near.volume + near.abs_error < ideal.volume - ideal.abs_error
    assert volume(VolumeRequest(p, min_curvature(p) * (1.0 + 1e-13))).branch is Branch.SERIES


@pytest.mark.parametrize("d", [2, 3, 7, 12, 20, 30])
def test_ideal_row_curvature_scaling(d):
    # Vol_d(kappa) = |kappa|^(-d/2) Vol_d(-1): bit for bit when |kappa| is a
    # power of 4, where the power is exact, and within both bars otherwise
    unit = regular_volume(d, math.inf, -1.0)
    for kappa in (-4.0, -0.25, -16.0):
        r = regular_volume(d, math.inf, kappa)
        f = abs(kappa) ** (-d / 2.0)
        assert (r.volume, r.abs_error) == (f * unit.volume, f * unit.abs_error)
    rng = np.random.default_rng(d)
    for kappa in -np.exp(rng.uniform(math.log(0.05), math.log(20.0), 6)):
        r = regular_volume(d, math.inf, float(kappa))
        f = abs(kappa) ** (-d / 2.0)
        assert r.branch is Branch.SERIES
        assert abs(r.volume - f * unit.volume) <= r.abs_error + f * unit.abs_error


def test_an_ideal_volume_past_the_double_range_is_refused():
    # the volume is about 6e418, and |kappa|^(-d/2) = 1e450 alone overflows
    with pytest.raises(OverflowRegionError):
        regular_volume(30, math.inf, -1e-30)


def test_a_volume_scale_past_the_double_range_is_refused():
    # at kappa = -1e-30 the ideal 31-simplex on the lower branch takes the
    # ray, whose |kappa|^(d/2) = 1e-465 underflows to 0; on the upper branch
    # it takes the series, whose |kappa|^(-d/2) overflows; the 30-simplex of
    # side 1e15 (rho = 0.35) sums the series and that of side 8e15 (rho near
    # 1) takes the closed-form tail, and their Vol_E passes 1e400.  They
    # raised a bare ZeroDivisionError, OverflowError, OverflowError and
    # ZeroDivisionError
    ideal = regular_parameters(31, math.inf, -1e-30)
    with pytest.raises(OverflowRegionError):
        volume(VolumeRequest(ideal, -1e-30, use_lower_branch=True))
    for d, ell in ((31, math.inf), (30, 1e15), (30, 8e15)):
        with pytest.raises(OverflowRegionError):
            regular_volume(d, ell, -1e-30)
    good = VolumeRequest(regular_parameters(3, 1.0, -1.0), -1.0)
    big = VolumeRequest(ideal, -1e-30, use_lower_branch=True)
    out = engine.volumes([good, big, good])
    assert isinstance(out[1], OverflowRegionError)
    assert out[0] == out[2] == volume(good)


@pytest.mark.parametrize("d, ell, kappa", [
    (168, 1.5, -1.0), (30, 1e-12, -1.0), (170, 1.0, -1.0), (12, 1e26, 0.0), (12, 3.3e26, 0.0)])
def test_a_volume_below_the_double_range_is_refused(d, ell, kappa):
    # 5.9e-322 +- 0 at d = 168 and 7.5e-321 +- 0 at kappa = 0 (taus 1e26)
    # came back, their last digits gone (3.1e-3 and 3.1e-4 relative); the
    # other three were 0 +- 0, refused as a ToleranceError
    if kappa == 0.0:
        req = VolumeRequest(OrthocentricParams((ell,) * (d + 1)), 0.0)
    else:
        req = VolumeRequest(regular_parameters(d, ell, kappa), kappa)
    with pytest.raises(OverflowRegionError, match="past the double range"):
        volume(req)
    assert isinstance(engine.volumes([req])[0], OverflowRegionError)


def test_a_cancelled_value_with_a_large_bar_is_a_tolerance_error():
    # a ray value that cancels to 0 or below the double range keeps its bar,
    # so it is refused as uncertified with the result attached, not as an
    # overflow
    for vol in (0.0, 5e-324, -1e-310):
        res = engine.VolumeResult(vol, 1e-3, 0.0, Branch.UPPER_RAY, 100)
        with pytest.raises(ToleranceError) as info:
            engine._certified(res)
        assert info.value.result is res


def _mp_orthocentric_series(taus, kappa):
    """(prefactor, rho, sigmas, h) of the orthocentric series in the current
    mp precision: Vol = prefactor sum_k rho^k T_k, sigma_j = tau_min^2/tau_j^2."""
    t = [mp.mpf(x) for x in taus]
    n = len(t)
    h = mp.mpf(n) / 2
    s = mp.fsum(x * x for x in t)
    a = 1 - mp.mpf(kappa) / s
    least = min(t) ** 2
    rho = -(mp.mpf(kappa) / a) / least
    prefactor = mp.sqrt(s) / (mp.factorial(n - 1) * mp.fprod(t)) * a ** -h
    return prefactor, rho, [least / (x * x) for x in t], h


def mp_orthocentric_volume(taus, kappa, dps=30):
    """The series volume of the orthocentric simplex with these taus at dps
    digits, from mp_terms with sigma_j = tau_min^2/tau_j^2 and rho from
    tau_min, summed until the engine's tail bound is below 10^-(dps + 2) of
    it."""
    with mp.workdps(dps):
        prefactor, rho, sigmas, h = _mp_orthocentric_series(taus, kappa)
        n = len(taus)
        eps = mp.mpf(10) ** -(dps + 2)
        size = 2 * engine._series_guess(n, float(rho))
        while True:
            terms = mp_terms(sigmas, rho, size)
            partial = mp.mpf(0)
            for K in range(size):
                partial += terms[K]
                q = rho * (h + K) / (K + 1)
                if q < 1 and terms[K + 1] / (1 - q) < eps * partial:
                    return prefactor * mp.fsum(terms[:K + 1])
            size *= 2


def _state_row(d, kappa):
    """The request of the d-simplex with taus from default_rng(d).uniform(0.6,
    1.8): at kappa0/2 if kappa is None."""
    p = OrthocentricParams(tuple(np.random.default_rng(d).uniform(0.6, 1.8, d + 1)))
    return VolumeRequest(p, 0.5 * min_curvature(p) if kappa is None else kappa)


@pytest.mark.parametrize("groups", [
    ((1.0, 1), (0.5, 1), (0.25, 1)), ((1.0, 2), (0.7, 3)), ((1.0, 1), (0.9, 4), (0.2, 2), (0.05, 1)),
    ((1.0, 5), (0.999, 1), (0.3, 1), (0.3000001, 2), (0.6, 3))])
def test_group_table_matches_the_convolution_of_f(groups):
    # the staged groups and their merges against the product multiplied out
    # factor by factor, 40 digits
    n = sum(m for _, m in groups)
    table = engine._series_table(n, 60, groups)
    sigmas = [sg for sg, m in groups for _ in range(m)]
    with mp.workdps(40):
        ref = mp_terms(sigmas, 1, 60)
        worst = max(abs(mp.mpf(float(a)) - b) / b for a, b in zip(table, ref))
    assert worst < 1e-13


def _merge(a, alphas, b, betas):
    """_merge_groups as one level of len(alphas) merges of the rows of a with
    those of b, with the Pochhammer rows from _merge_factors."""
    factors = engine._merge_factors(list(zip(alphas, betas)), a.shape[1])
    return engine._merge_groups(a, b, *factors)


def test_group_table_entries_do_not_depend_on_its_length():
    # a merge is one convolution, and np.convolve sums its one full-overlap
    # entry in another order than the partial ones: the trailing zero on
    # both inputs keeps every entry a partial one, whatever the length.  The
    # four merges run as one level of stacked rows.  Each table is built
    # from its own plan; K + 1 reads K's plan, so it checks the merges,
    # which run at the table's own length, and the others read longer plans
    groups = ((1.0, 3), (0.6, 1), (0.35, 2), (0.1, 1))
    for K in (50, 200):
        head, length = _fresh_table(7, K, groups)
        for longer in (K + 1, 2 * K, 300, 1024):
            table, longer_length = _fresh_table(7, longer, groups)
            assert longer_length > length or longer == K + 1
            assert table[:K + 1].tobytes() == head.tobytes()
    rng = np.random.default_rng(32)
    alphas, betas = [0.5, 1.5, 3.0, 43.0], [0.5, 2.0, 0.5, 43.0]
    a, b = np.stack([10.0 ** rng.uniform(-3.0, 3.0, (2, 41)) for _ in alphas], axis=1)
    full = _merge(a, alphas, b, betas)
    for L in range(2, 41):
        assert _merge(a[:, :L], alphas, b[:, :L], betas).tobytes() == full[:, :L].tobytes()


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.5, 85.5), (43.0, 43.0), (150.0, 150.0)])
def test_merge_matches_a_25_digit_sum_past_1024_entries(alpha, beta):
    # p_k = sum_i W_ki a_i b_(k-i), W_ki = (alpha)_i (beta)_(k-i)/(alpha + beta)_k,
    # with the weights run down i in mpf; a merge whose weights pass below
    # the least normal double must not lose the entries past there.  The
    # two input shapes run as one level of two merges
    L = 1300
    a = np.stack((np.ones(L), np.arange(1.0, L + 1.0) ** -1.5))
    b = np.stack((np.ones(L), 0.99 ** np.arange(L)))
    ps = _merge(a, [alpha] * 2, b, [beta] * 2)
    for a, b, p in zip(a, b, ps):
        with mp.workdps(25):
            am, bm = [mp.mpf(v) for v in a], [mp.mpf(v) for v in b]
            for k in (0, 1, 5, 100, 512, 1024, 1200, 1299):
                w = [mp.rf(mp.mpf(beta), k) / mp.rf(mp.mpf(alpha + beta), k)]
                for i in range(k):
                    w.append(w[-1] * (alpha + i) / (beta + k - i - 1))
                ref = mp.fdot(w, [am[i] * bm[k - i] for i in range(k + 1)])
                assert abs(mp.mpf(p[k]) - ref) <= 1e-14 * ref


def _fold_merge(a, alpha, b, beta):
    """One merge on its own by _merge_groups' formula, with x, y and z from
    their own cumprods and each input padded by np.append."""
    c = 2.0 ** round((math.lgamma(alpha + beta + engine._SCALE_K) - math.lgamma(alpha + beta))
                     / (engine._SCALE_K * math.log(2.0)))
    js = np.arange(len(a) - 1.0)
    x, y, z = (np.cumprod(np.append(1.0, (v + js) / c)) for v in (alpha, beta, alpha + beta))
    p = np.convolve(np.append(x * a, 0.0), np.append(y * b, 0.0))[:len(a)] / z
    return p, alpha + beta


def _fold_table(n, K, groups):
    """_series_table as a fold: each group's stages on a vector of its own,
    r(m) built for every m <= n + 1, and the parts merged two at a time by
    _fold_merge, the odd last part carried."""
    k2 = 2.0 * np.arange(1, K + 1)
    ms = np.arange(1.0, n + 1.0)[:, None]
    r = np.ones((n, K + 1))
    np.cumprod((k2 + (ms - 2.0)) / (k2 + (ms - 1.0)), axis=1, out=r[:, 1:])
    C = 8 * engine._SCALE_K
    parts = []
    for sigma, m_g in groups:
        t = np.ones(K + 1)
        for m in range(2, m_g + 1):
            t *= r[m - 2]
            log_stop = (math.log(engine._U) + math.lgamma(C + 0.5) - math.lgamma(0.5)
                        + math.lgamma(m / 2.0) - math.lgamma(C + m / 2.0))
            s = 1
            while s <= K and -s * math.log(m) > log_stop:
                t[s:] += float(m) ** -s * t[:-s]
                s *= 2
        if sigma != 1.0:
            t *= np.power(sigma, np.arange(K + 1.0))
        parts.append((t, m_g / 2.0))
    while len(parts) > 1:
        parts = [_fold_merge(*parts[i], *parts[i + 1]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0][0] * r[n - 1]


def test_batched_table_is_the_pairwise_fold_bit_for_bit():
    # 240 seeded tau sets at d = 2..24: distinct taus, taus drawn from a few
    # values (groups with m_g >= 2), and all taus equal (one group); group
    # counts odd and even, and K from 1 to 1,024
    rng = np.random.default_rng(34)
    seen = set()
    for case in range(240):
        d = int(rng.integers(2, 25))
        kind = case % 3
        if kind == 0:
            taus = rng.uniform(0.6, 1.8, d + 1)
        elif kind == 1:
            taus = rng.choice(rng.uniform(0.6, 1.8, int(rng.integers(2, 8))), d + 1)
        else:
            taus = np.full(d + 1, rng.uniform(0.6, 1.8))
        K = 1024 if case % 40 == 0 else int(np.exp(rng.uniform(0.0, math.log(1024.5))))
        groups = engine._series_groups(tuple(float(t) for t in taus))
        seen.add("one group" if len(groups) == 1 else "odd" if len(groups) % 2 else "even")
        if len(groups) > 1 and max(m for _, m in groups) > 1:
            seen.add("m_g >= 2")
        seen.add(K if K in (1, 1024) else None)
        assert engine._series_table(d + 1, K, groups).tobytes() \
            == _fold_table(d + 1, K, groups).tobytes(), (taus, K)
    assert seen == {"one group", "odd", "even", "m_g >= 2", 1, 1024, None}


@pytest.mark.parametrize("taus", [
    (1.1,) * 6, (0.7, 0.9, 1.3), (0.6, 0.8, 1.0, 1.2, 1.4, 1.6),
    (0.6, 0.6, 0.9, 0.9, 0.9, 1.2, 1.5, 1.5, 1.7)],
    ids=["one-group", "odd", "even", "repeated"])
def test_tables_do_not_depend_on_the_order_of_the_calls(taus):
    # the plans are kept per (multiplicities, length), each built to a fixed
    # length at least the one asked for (K = 300 and 500 share one): a table
    # must be the same doubles as the fold at its own length, whichever
    # request built the plan it reads
    groups = engine._series_groups(taus)
    n = len(taus)
    refs = {K: _fold_table(n, K, groups).tobytes() for K in (1024, 500, 300, 10)}
    for order in ((1024, 500, 10, 300), (10, 300, 500, 1024)):
        engine._table_plan.cache_clear()
        for K in order:
            assert engine._series_table(n, K, groups).tobytes() == refs[K], (order, K)


def test_kept_plans_are_read_only():
    # every call reads the same kept arrays: a write into one (sigma^k
    # scaling a view of a staged row in place, say) must raise, and a
    # one-group table is a view of its plan
    plan = engine._table_plan(9, (2, 3, 1, 2, 1), engine._IDEAL_K + 1)
    kept = [plan.last, plan.stages, *(a for level in plan.levels for a in level[1:]),
            plan.tail, engine._series_table(6, 40, ((1.0, 6),))]
    for a in kept:
        with pytest.raises(ValueError):
            a *= 1
    # a grouped table is the caller's own
    groups = engine._series_groups((0.6, 0.6, 0.9, 1.2, 1.5))
    t = engine._series_table(5, 40, groups)
    ref = t.tobytes()
    t[:] = 0.0
    assert engine._series_table(5, 40, groups).tobytes() == ref


def test_kept_plans_and_fits_stay_within_their_bound():
    # the closed-form tail's matrices live in the full-length plans, one
    # per dimension for regular simplices
    rng = np.random.default_rng(35)
    engine._table_plan.cache_clear()
    for _ in range(200):
        d = int(rng.integers(2, 15))
        taus = rng.choice(rng.uniform(0.6, 1.8, int(rng.integers(1, d + 2))), d + 1)
        groups = engine._series_groups(tuple(float(t) for t in taus))
        engine._series_table(d + 1, int(rng.integers(5, 200)), groups)
    info = engine._table_plan.cache_info()
    assert info.misses > engine._PLANS and info.currsize <= engine._PLANS
    engine._table_plan.cache_clear()
    J = engine._TAIL_J
    for n in range(3, engine._PLANS + 11):
        assert engine._table_plan(n, (n,), engine._IDEAL_K + 1).tail.shape == (J + 1, J + 1)
    assert engine._table_plan.cache_info().currsize <= engine._PLANS


def test_threads_sharing_the_plans_get_the_serial_results():
    # four threads race to build and read the same plans; each gets what
    # one serial call gives
    o = OrthocentricParams((0.6, 0.6, 0.9, 0.9, 0.9, 1.2, 1.5, 1.5, 1.7))
    reqs = [VolumeRequest(regular_parameters(5, 1.0, -1.0), -1.0),
            VolumeRequest(regular_parameters(8, 8.0, -1.0), -1.0),
            VolumeRequest(regular_parameters(3, math.inf, -1.0), -1.0),
            VolumeRequest(o, 0.5 * min_curvature(o)), VolumeRequest(o, 0.9 * min_curvature(o)),
            _state_row(6, None), _state_row(12, None)]

    def key(results):
        return [(repr(r.volume), repr(r.abs_error), r.branch, r.evaluations) for r in results]

    engine._table_plan.cache_clear()
    serial = key(engine.volumes(reqs))
    engine._table_plan.cache_clear()
    got = [None] * 4

    def work(i):
        got[i] = key(engine.volumes(reqs))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial] * 4


def _orthocentric_cases():
    # seeded taus, some of them repeated, and kappa from near 0 to 0.8 kappa0
    rng = np.random.default_rng(2029)
    cases = []
    for i in range(12):
        d = int(rng.integers(2, 15))
        if i % 3 == 2:
            taus = rng.choice(rng.uniform(0.6, 1.8, 3), d + 1)
        else:
            taus = rng.uniform(0.6, 1.8, d + 1)
        cases.append((tuple(float(t) for t in taus), float(np.exp(rng.uniform(-9.0, -0.22)))))
    return cases


@pytest.mark.parametrize("taus, frac", _orthocentric_cases())
def test_orthocentric_bar_covers_a_30_digit_sum(taus, frac):
    p = OrthocentricParams(taus)
    kappa = frac * min_curvature(p)
    r = volume(VolumeRequest(p, kappa))
    assert r.branch is Branch.SERIES
    ref = mp_orthocentric_volume(taus, kappa)
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error
    assert r.abs_error <= 1e-13 * r.volume


def _stopping_terms(p, kappa):
    """The terms the series of p at kappa sums to pass _series_volume's
    stopping test, read over 1,024 terms: the first K' whose ratio bound is
    below 2u of the sum, plus one."""
    rho, h, L = engine._series_ratio(p, kappa), len(p.taus) / 2.0, 1024
    t = engine._series_terms(rho, L, engine._series_table(len(p.taus), L,
                                                          engine._series_groups(p.taus)))
    ks = np.arange(L + 0.0)
    q = rho * (h + ks) / (ks + 1.0)
    passes = (q < 1.0) & (t[1:] <= 2.0 * engine._U * (1.0 - q) * np.cumsum(t[:-1]))
    return int(np.argmax(passes)) + 1


@pytest.mark.parametrize("sigmas, frac", [
    ((1.0, 0.5, 0.25, 0.09, 0.09), 0.3),
    ((1.0, 0.6, 0.3, 0.3, 0.09, 0.09), 0.7),
    ((1.0, 0.5, 0.25, 0.09, 0.09, 0.5, 0.5, 0.5, 0.5), 0.9),
    ((1.0, 1.0, 0.8, 0.4, 0.2, 0.2, 0.09, 0.09, 0.09, 0.09, 0.4), 0.5),
    ((1.0, 0.5, 0.25, 0.09, 0.09) + (0.5,) * 8, 0.95),
    ((1.0, 0.5, 0.25, 0.09, 0.09) + (0.5,) * 8, 0.99),
], ids=["d4-0.3", "d5-0.7", "d8-0.9", "d10-0.5", "d12-0.95", "d12-0.99"])
def test_grouped_bar_covers_the_sum_when_later_groups_fall_like_sigma_k(sigmas, frac):
    # the merges of the later groups hold entries whose leading products fall
    # below the least normal double (0.25^k 0.09^k passes 1e-300 near k = 180),
    # where _merge_groups' count does not hold; the bar must still cover
    # the sum.  The reference multiplies the product out factor by factor to
    # 32 terms past the engine's, or, where the engine takes the closed-form
    # tail, past where the stopping test would stop the sum, and adds their
    # tail bound to the gap
    taus = tuple(1.0 / math.sqrt(sg) for sg in sigmas)
    p = OrthocentricParams(taus)
    kappa = frac * min_curvature(p)
    r = volume(VolumeRequest(p, kappa))
    assert r.branch is Branch.SERIES and len(engine._series_groups(taus)) >= 4
    K = (r.evaluations if r.evaluations <= engine._IDEAL_K else _stopping_terms(p, kappa)) + 32
    with mp.workdps(30):
        prefactor, rho, sig, h = _mp_orthocentric_series(taus, kappa)
        terms = mp_terms(sig, rho, K)
        q = rho * (h + K - 1) / K
        assert q < 1
        ref = prefactor * mp.fsum(terms[:K])
        assert abs(mp.mpf(r.volume) - ref) + prefactor * terms[K] / (1 - q) <= r.abs_error


@pytest.mark.parametrize("d, kappa", [(10, None), (12, None), (14, None), (8, -1e-2), (12, -1e-2)])
def test_rows_the_ray_refused_come_back_certified(d, kappa):
    # the ray's bar was 0.28 at d = 10 and kappa0/2, and it refused the
    # other four rows
    req = _state_row(d, kappa)
    r = volume(req)
    assert r.branch is Branch.SERIES
    ref = mp_orthocentric_volume(req.geometry.taus, req.kappa)
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error <= 1e-13 * r.volume


def test_orthocentric_rows_are_bit_identical_alone_and_in_a_batch():
    # the same taus at four curvatures share one table, built to the longest
    # window; a regular row, a lower-branch row, a kappa > 0 row and a
    # domain error sit between them, and the row at 0.999 kappa0 takes the
    # closed-form tail
    o = OrthocentricParams((0.9, 1.2, 1.0, 1.1, 0.9, 1.6))
    k0 = min_curvature(o)
    reqs = [VolumeRequest(o, 0.1 * k0), VolumeRequest(regular_parameters(5, 1.0, -1.0), -1.0),
            VolumeRequest(o, 0.5 * k0, use_lower_branch=True), VolumeRequest(o, 0.9 * k0),
            VolumeRequest(o, 0.3 * o.s), VolumeRequest(o, 0.999 * k0), VolumeRequest(o, 2 * k0),
            VolumeRequest(o, 0.5 * k0), _state_row(12, None)]
    got = engine.volumes(reqs)
    assert isinstance(got[6], GeometryDomainError)
    assert [got[i].branch for i in (0, 1, 3, 5, 7, 8)] == [Branch.SERIES] * 6
    assert got[5].evaluations == engine._IDEAL_K + 1
    for i, (req, r) in enumerate(zip(reqs, got)):
        if i == 6:
            continue
        alone = volume(req)
        assert (repr(r.volume), repr(r.abs_error), r.branch, r.evaluations) \
            == (repr(alone.volume), repr(alone.abs_error), alone.branch, alone.evaluations)


@pytest.mark.parametrize("d, ell, kappa, vol, err, terms", [
    (2, 1.0, -1.0, "0.38519903705571124", "3.2938975580452885e-15", 31),
    (3, math.inf, -1.0, "1.0149416064096535", "3.294569058491882e-14", 257),
    (5, 0.5, -4.0, "6.285733575735719e-05", "1.1463157008209623e-18", 28),
    (8, 8.0, -1.0, "0.0002042495372512476", "8.481248424820665e-18", 257),
    (12, 0.1, -1.0, "1.1522445091267267e-22", "3.916911096956728e-36", 7),
    (20, 3.0, -0.25, "1.3596113007497777e-14", "9.240008027121719e-28", 31)])
def test_regular_rows_keep_their_bits(d, ell, kappa, vol, err, terms):
    # a regular simplex is the one-group table: the grouped table and its
    # merged count leave its value, bar and term count as they were.  The
    # rows of 257 terms add the closed-form tail
    r = regular_volume(d, ell, kappa)
    assert (repr(r.volume), repr(r.abs_error), r.evaluations) == (vol, err, terms)


@pytest.mark.parametrize("taus, frac, vol, err, terms", [
    (2, 0.5, "0.9120557719684045", "4.634686527948979e-15", 51),
    (5, 0.5, "0.01410663489260143", "1.1182991372561165e-16", 40),
    (8, 0.5, "2.62754817764846e-05", "2.9931624415303306e-19", 35),
    (12, 0.5, "6.8178509218559935e-09", "1.0815035560012692e-22", 30),
    (14, 0.5, "1.3224951555804578e-12", "2.3771193497549245e-26", 28),
    ((0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8), 0.99,
     "2.2461165198054983e-09", "3.6424248885867016e-23", 257),
    ((0.6, 0.6, 0.9, 0.9, 0.9, 1.2, 1.5, 1.5, 1.7), 0.5,
     "8.265513646356584e-05", "1.619944630285753e-18", 35)],
    ids=["state2", "state5", "state8", "state12", "state14", "ci13-0.99", "repeated"])
def test_grouped_rows_keep_their_bits(taus, frac, vol, err, terms):
    # the grouped table is built one merge level at a time; the rows, each
    # on the series path, keep the value, bar and term count they had when
    # every merge ran on its own (an int is a State row's d); the 13-tau row
    # adds the closed-form tail to 257 terms
    if isinstance(taus, int):
        taus = tuple(np.random.default_rng(taus).uniform(0.6, 1.8, taus + 1))
    p = OrthocentricParams(taus)
    r = volume(VolumeRequest(p, frac * min_curvature(p)))
    assert r.branch is Branch.SERIES
    assert (repr(r.volume), repr(r.abs_error), r.evaluations) == (vol, err, terms)


#: the tau sets whose closed-form tails are checked against 30-digit tables:
#: two State rows, repeated taus whose second pair (sigma = 0.94) keeps a
#: share of T_k past k = 128, and sigma = 1, .998, .5, .4, .3, whose second
#: group still holds 0.6 of T_256
_TAIL_TAUS = {
    "state8": tuple(np.random.default_rng(8).uniform(0.6, 1.8, 9)),
    "state12": tuple(np.random.default_rng(12).uniform(0.6, 1.8, 13)),
    "repeated": (0.6, 0.6, 0.62, 0.62, 1.0),
    "sigma-0.998": tuple(1.0 / math.sqrt(sg) for sg in (1.0, 0.998, 0.5, 0.4, 0.3)),
}


@functools.lru_cache(maxsize=None)
def _mp_table(name):
    """T_0..T_512 of the tau set _TAIL_TAUS[name] at 30 digits (mp_terms at
    rho = 1, with the sigmas in mp), kept for the tests that share it."""
    with mp.workdps(30):
        return tuple(mp_terms(_mp_orthocentric_series(_TAIL_TAUS[name], -1.0)[2], 1, 512))


@pytest.mark.parametrize("name", list(_TAIL_TAUS))
def test_tail_expansion_matches_a_30_digit_table(name):
    # the closed-form tail's expansion, from the first entries of the float
    # table, against the table multiplied out factor by factor: its relative
    # error past K/2 = 128 stays within the gap to the float table over
    # [K/2, K] that the bar reads (up to that table's own rounding at 128),
    # and at k = 512 it is within 2e-14
    taus = _TAIL_TAUS[name]
    n, h = len(taus), len(taus) / 2.0
    groups = engine._series_groups(taus)
    sigma, c, gap = engine._tail_expansion(n, engine._series_table(n, engine._IDEAL_K, groups),
                                           groups)
    ref = _mp_table(name)
    errs = []
    for k in (128, 256, 512):
        got = float(np.sum(sigma ** k * (c[:, :-1] @ float(k) ** -(h + np.arange(engine._TAIL_J)))))
        errs.append(float(abs(mp.mpf(got) / ref[k] - 1)))
    assert errs[0] <= gap + 1e-14 and max(errs[1:]) <= gap, (errs, gap)
    assert errs[2] <= 2e-14, errs


def _mp_lerch_tail(x, s, q):
    """sum_(k >= q) x^k k^(-s) for 0 < x <= 1 by mpmath, at the digits of
    q^s more than the working precision: lerchphi's error is absolute."""
    with mp.workdps(mp.mp.dps + int(s * math.log10(q)) + 5):
        return mp.zeta(s, q) if x == 1 else x ** q * mp.lerchphi(x, s, q)


def _mp_volume_at_kappa0(name, J=16):
    """The series volume of _TAIL_TAUS[name] at kappa0 in 30 digits: rho = 1,
    T_0..T_K from _mp_table, K = 512, and the closed-form tail with J powers
    of 1/k past K, for each group whose sigma^K is above 1e-32.  Each group's d_i is
    m [u^i] P(u/sigma)/F(u) by series division, and each (1/2)_(k-i)/(h +
    1/2)_k's powers of 1/k come from DLMF 5.8 and 5.11 with a = 1/2 - i:
    ln Gamma(k + a) - ln Gamma(k + b) - (a - b) ln k = sum_m (-1)^(m+1)
    (B_(m+1)(a) - B_(m+1)(b))/(m (m + 1) k^m), exponentiated."""
    taus = _TAIL_TAUS[name]
    T = _mp_table(name)
    K = len(T) - 1
    with mp.workdps(30):
        t = [mp.mpf(x) for x in taus]
        n, half = len(t), mp.mpf(1) / 2
        h, s, least = mp.mpf(n) / 2, mp.fsum(x * x for x in t), min(t) ** 2
        pre = mp.sqrt(s) / (mp.factorial(n - 1) * mp.fprod(t)) * (s / (s - least)) ** -h
        inv = [mp.mpf(1)]  # [u^i](1/F)
        for i in range(1, J):
            inv.append(-mp.fsum(mp.rf(half, j) * inv[i - j] for j in range(1, i + 1)))
        expansions = []  # per i < J, the powers k^(-h-i-j), j < J - i, of (1/2)_(k-i)/(h + 1/2)_k
        for i in range(J):
            a, b = half - i, h + half
            logs = [(-1) ** (m + 1) * (mp.bernpoly(m + 1, a) - mp.bernpoly(m + 1, b))
                    / (m * (m + 1)) for m in range(1, J)]
            g = [mp.mpf(1)]
            for j in range(1, J - i):
                g.append(mp.fsum(m * logs[m - 1] * g[j - m] for m in range(1, j + 1)) / j)
            expansions.append([x * (mp.gamma(b) / mp.gamma(half)) for x in g])
        tail = mp.mpf(0)
        for sg, m in engine._series_groups(taus):
            sg = least / (mp.mpf(min(taus) / math.sqrt(sg)) ** 2)  # sigma_g in mp
            if sg ** K < mp.mpf(10) ** -32:
                continue
            p = [sg ** -i * T[i] * mp.rf(h + half, i) for i in range(J)]  # [u^i]P(u/sigma)
            d = [m * mp.fsum(p[j] * inv[i - j] for j in range(i + 1)) for i in range(J)]
            c = [mp.fsum(d[i] * expansions[i][j - i] for i in range(j + 1)) for j in range(J)]
            tail += mp.fsum(cj * _mp_lerch_tail(sg, h + j, K + 1) for j, cj in enumerate(c))
        return pre * (mp.fsum(T) + tail)


@pytest.mark.parametrize("name", ["state8", "state12"])
def test_state_rows_at_kappa0_match_a_30_digit_expansion(name):
    # the ray refused the d = 12 row and gave the d = 8 one 4.7e-5 relative:
    # both now take the series, 257 terms and the closed-form tail, against
    # the same expansion at 30 digits with 513 terms and 16 powers
    p = OrthocentricParams(_TAIL_TAUS[name])
    r = volume(VolumeRequest(p, min_curvature(p)))
    assert r.branch is Branch.SERIES and r.evaluations == engine._IDEAL_K + 1
    ref = _mp_volume_at_kappa0(name)
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error <= 1e-13 * r.volume


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(taus=st.integers(2, 5).flatmap(
           lambda d: st.lists(st.floats(0.6, 1.8), min_size=d + 1, max_size=d + 1)),
       frac=st.floats(0.99, 1.0))
def test_series_agrees_with_the_ray_near_kappa0(taus, frac):
    # every grouping takes the series up to kappa0 (rho = 1 exactly there);
    # the upper ray, called directly, must agree within both bars
    p = OrthocentricParams(tuple(taus))
    req = VolumeRequest(p, frac * min_curvature(p))
    r = volume(req)
    ray = engine._evaluate(req, engine._checked_kappa(req)[0])
    assert r.branch is Branch.SERIES and ray.branch is Branch.UPPER_RAY
    assert abs(r.volume - ray.volume) <= r.abs_error + ray.abs_error
