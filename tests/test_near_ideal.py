"""The fitted curvature series of the near-ideal and ideal regular simplex
(0.995 < rho <= 1 at kappa < 0) against independent references."""

import math

import mpmath as mp
import pytest
from hypothesis import given, seed, settings, strategies as st

from simplexvol import _hp, engine
from simplexvol.engine import Branch, regular_volume
from simplexvol.geometry import regular_parameters

#: bounded and reproducible: the same examples on every run
PROPERTY = settings(max_examples=8, derandomize=True, database=None, deadline=None)


def _side(rho, kappa=-1.0):
    """The side length whose series ratio is rho: rho = 1 - 1/cosh(ell sqrt(-kappa))."""
    return math.acosh(1.0 / (1.0 - rho)) / math.sqrt(-kappa)


def _lerch(rho, s, q):
    """sum_(k >= q) rho^k k^(-s) by mpmath.lerchphi, whose error is about
    10^-dps absolute: the working precision grows by the digits of q^s."""
    with mp.workdps(mp.mp.dps + int(s * math.log10(q)) + 5):
        return rho ** q * mp.lerchphi(rho, s, q)


_TABLES = {}


def mp_fitted_volume(d, tau, kappa, K=400, J=8, dps=30):
    """The volume of the regular simplex with parameter tau at kappa < 0 in
    dps digits: sum_(k <= K) rho^k T_k with T from _hp._series_table, plus
    the fit T_k = sum_(j < J) b_j k^(-h-j) through J indices in [K/2, K]
    summed against rho^k by mpmath.lerchphi.  It is within 7e-17 relative of
    the same sum at K = 800, J = 20 and 60 digits at d = 2, 3, 4, 7 and 16,
    ell = 6.2 to 30 (at d = 2, J = 6 would leave 5e-14)."""
    with mp.workdps(dps):
        n = d + 1
        if (n, K) not in _TABLES:
            _TABLES[n, K] = _hp._series_table(n, K)
        T = _TABLES[n, K]
        h = mp.mpf(n) / 2
        tau2 = mp.mpf(tau) ** 2
        s = n * tau2
        a = 1 - mp.mpf(kappa) / s
        rho = -(mp.mpf(kappa) / a) / tau2
        ks = [K // 2 + (K - K // 2) * i // (J - 1) for i in range(J)]
        c = mp.lu_solve(mp.matrix([[(mp.mpf(K) / k) ** j for j in range(J)] for k in ks]),
                        mp.matrix([(mp.mpf(k) / K) ** h * T[k] for k in ks]))
        tail = mp.fsum(c[j] * mp.mpf(K) ** (h + j) * _lerch(rho, h + j, K + 1)
                       for j in range(J))
        head = mp.fsum(rho ** k * T[k] for k in range(K + 1))
        return mp.sqrt(s) / (mp.factorial(d) * mp.mpf(tau) ** n) * a ** -h * (head + tail)


@pytest.mark.parametrize("ell", [8.0, 12.0, 20.0, 28.0, 32.0, 34.5])
def test_regular_triangle_against_its_area(ell):
    # the area pi - 3 alpha, cos alpha = cosh ell/(1 + cosh ell); the ray
    # returned pi +- 1.5e-11 at ell = 34.5, where the area is pi - 1.9e-7.
    # Past ell ~ 20 the bar is mostly rho's input rounding: tau carries
    # 1 - rho ~ 2 e^(-ell) to about one ulp
    r = regular_volume(2, ell)
    assert r.branch is Branch.SERIES and r.residual_imag == 0.0
    with mp.workdps(40):
        ch = mp.cosh(ell)
        area = mp.pi - 3 * mp.acos(ch / (1 + ch))
        assert abs(mp.mpf(r.volume) - area) <= r.abs_error
    assert r.abs_error < 1e-7 * r.volume


@pytest.mark.parametrize("s0, lam, q", [
    (0.5, 1e-13, 513.0), (1.0, 1e-6, 1025.0), (1.5, 0.005, 1025.0), (2.0, 0.003, 513.0),
    (7.0, 0.005, 513.0), (14.5, 1e-3, 1025.0), (23.0, 0.0049, 1025.0)])
def test_lerch_tails_match_mpmath(s0, lam, q):
    # the Euler-Maclaurin tails at q = K/2 + 1 and K + 1, across the
    # recurrence's start values (z = lam q on both sides of 2)
    got = engine._lerch_tails(s0, 2, lam, q)
    with mp.workdps(30):
        rho = mp.exp(-mp.mpf(lam))
        for i, g in enumerate(got):
            ref = _lerch(rho, s0 + i, q)
            assert abs(g - ref) <= 1e-14 * ref, s0 + i


def test_expint_matches_mpmath():
    for s0 in (0.5, 1.0, 3.5, 12.0, 20.5):
        for z in (1e-12, 0.3, 1.0, 2.0, 2.0001, 3.7, 5.2):
            with mp.workdps(30):
                for i, e in enumerate(engine._expint(s0, 4, z)):
                    ref = mp.expint(s0 + i, z)
                    assert abs(e - ref) <= 1e-14 * ref, (s0 + i, z)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 30])
def test_summed_and_fitted_series_agree_below_the_crossover(d):
    # the series' two evaluators on the same request, at rho where both
    # apply: they agreed to 4e-16 relative, under 0.01 of their bars
    for rho0 in (0.99, 0.995):
        p = regular_parameters(d, _side(rho0), -1.0)
        n = d + 1
        rho = engine._series_ratio(p, -1.0)[1]
        K = engine._series_guess(n, rho)
        tables = {n: engine._series_table(n, max(K + 1, engine._IDEAL_K))}
        summed = engine._series_volume(p, -1.0, K, tables)
        fitted = engine._fitted_volume(p, -1.0, rho, tables[n])
        assert abs(summed.volume - fitted.volume) <= summed.abs_error + fitted.abs_error


#: 1 - rho on a log scale across (1e-12, 1 - _RHO_MAX)
_GAP = st.floats(math.log(1e-12), math.log(1.0 - engine._RHO_MAX) - 1e-9)
_KAPPA = st.sampled_from([-1.0, -4.0, -0.3, -1e-3, -25.0])


@settings(PROPERTY, max_examples=5)
@seed(23)
@given(d=st.integers(2, engine._IDEAL_DMAX), gap=_GAP, kappa=_KAPPA)
def test_bar_covers_a_30_digit_reference(d, gap, kappa):
    # about a second per example, most of it in lerchphi
    ell = _side(1.0 - math.exp(gap), kappa)
    r = regular_volume(d, ell, kappa)
    assert r.branch is Branch.SERIES and r.volume > 0
    ref = mp_fitted_volume(d, regular_parameters(d, ell, kappa).taus[0], kappa)
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error
    assert r.abs_error <= 1e-6 * r.volume


@PROPERTY
@seed(23)
@given(d=st.integers(2, engine._IDEAL_DMAX),
       gap=st.floats(math.log(1e-9) + 0.3, math.log(1.0 - engine._RHO_MAX)),
       shrink=st.floats(0.3, 6.0), kappa=_KAPPA)
def test_volume_increases_in_ell_to_the_ideal_one(d, gap, shrink, kappa):
    # 1 - rho shrinks at least e^0.3-fold and stays above 1e-9, so the
    # volumes' gaps (at least 1e-9 (1 - e^-0.3) relative) exceed both bars
    near = regular_volume(d, _side(1.0 - math.exp(gap), kappa), kappa)
    nearer = regular_volume(d, _side(1.0 - math.exp(max(gap - shrink, math.log(1e-9))),
                                     kappa), kappa)
    ideal = regular_volume(d, math.inf, kappa)
    assert near.volume + near.abs_error < nearer.volume - nearer.abs_error
    assert nearer.volume + nearer.abs_error < ideal.volume - ideal.abs_error


@PROPERTY
@seed(23)
@given(d=st.integers(2, engine._IDEAL_DMAX), gap=_GAP, kappa=_KAPPA)
def test_curvature_scaling_within_both_bars(d, gap, kappa):
    # Vol_(d,kappa)(ell) = |kappa|^(-d/2) Vol_(d,-1)(ell sqrt|kappa|)
    ell = _side(1.0 - math.exp(gap))
    unit = regular_volume(d, ell, -1.0)
    r = regular_volume(d, ell / math.sqrt(-kappa), kappa)
    f = abs(kappa) ** (-d / 2.0)
    assert r.branch is Branch.SERIES and unit.branch is Branch.SERIES
    assert abs(r.volume - f * unit.volume) <= r.abs_error + f * unit.abs_error
