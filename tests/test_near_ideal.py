"""The curvature series of the near-ideal and ideal regular simplex at
kappa < 0, summed or with its closed-form tail, against independent
references."""

import math

import mpmath as mp
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from simplexvol import _hp, engine
from simplexvol.engine import Branch, regular_volume
from simplexvol.errors import OverflowRegionError
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
    (7.0, 0.005, 513.0), (14.5, 1e-3, 1025.0), (23.0, 0.0049, 1025.0),
    *((s0, 0.0, q) for q in (257.0, 513.0, 1025.0, 4097.0) for s0 in (1.5, 2.0))])
def test_lerch_tails_match_mpmath(s0, lam, q):
    # the Euler-Maclaurin tails at q = K/2 + 1 and K + 1, across the
    # recurrence's start values (z = lam q on both sides of 2); lam = 0
    # (rho = 1) is the Hurwitz zeta, checked against SciPy's at s = 1.5..25
    # in steps of 1/2 (two runs of 24 orders)
    if not lam:
        from scipy.special import zeta

        for i, g in enumerate(engine._lerch_tails(s0, 24, lam, q)):
            ref = zeta(s0 + i, q)
            assert abs(g - ref) <= 1.5e-15 * ref, (s0 + i, q)
        return
    got = engine._lerch_tails(s0, 2, lam, q)
    with mp.workdps(30):
        rho = mp.exp(-mp.mpf(lam))
        for i, g in enumerate(got):
            ref = _lerch(rho, s0 + i, q)
            assert abs(g - ref) <= 1e-14 * ref, s0 + i


@pytest.mark.parametrize("gap, s", [(0.1, 1.5), (1e-4, 11.0), (1e-12, 37.5)])
def test_mp_lerch_reference_matches_lerchphi(gap, s):
    # the reference's tails at q = K + 1 = 401, across the range of 1 - rho
    # and of s = h + j that its callers here reach (d <= 60, j < 8)
    with mp.workdps(30):
        rho = 1 - mp.mpf(gap)
        ref = _lerch(rho, s, 401)
        assert abs(_hp._lerch(rho, s, 401) - ref) <= 1e-25 * ref


def test_expint_matches_mpmath():
    # z = 0 is the Hurwitz zeta's E_s(0) = 1/(s - 1), inf at s <= 1
    for s0 in (0.5, 1.0, 3.5, 12.0, 20.5):
        for z in (0.0, 1e-12, 0.3, 1.0, 2.0, 2.0001, 3.7, 5.2):
            with mp.workdps(30):
                for i, e in enumerate(engine._expint(s0, 4, z)):
                    ref = mp.expint(s0 + i, z)
                    if mp.isinf(ref):
                        assert e == math.inf, (s0 + i, z)
                    else:
                        assert abs(e - ref) <= 1e-14 * ref, (s0 + i, z)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 30])
def test_summed_and_fitted_series_agree_below_the_crossover(d):
    # the series' two tails on the same request, at rho where both apply:
    # regular_volume adds the closed-form tail past T_256, and the test sums
    # the same terms over the first guess's window (934 to 6,490 terms);
    # they agree to 2e-16 relative, under 0.006 of the bar
    for rho0 in (0.99, 0.995):
        r = regular_volume(d, _side(rho0))
        p = regular_parameters(d, _side(rho0), -1.0)
        n = d + 1
        rho = engine._series_ratio(p, -1.0)
        K = engine._series_guess(n, rho)
        terms = engine._series_terms(rho, K, engine._series_table(n, K, ((1.0, n),)))
        summed = engine._series_prefactor(p, -1.0, rho)[0] * math.fsum(terms.tolist())
        if rho0 == 0.995:
            assert r.evaluations == engine._IDEAL_K + 1  # the closed-form tail
        assert r.branch is Branch.SERIES
        assert abs(r.volume - summed) <= r.abs_error, rho0


#: 1 - rho on a log scale across (1e-12, 0.1): rows whose sum stops within
#: T_0..T_256 and rows that add the closed-form tail past it
_GAP = st.floats(math.log(1e-12), math.log(0.1))
#: d up to twice the range first checked against these references
_D = st.integers(2, 60)
_KAPPA = st.sampled_from([-1.0, -4.0, -0.3, -1e-3, -25.0])


@settings(PROPERTY, max_examples=6)
@seed(23)
@given(d=_D, gap=_GAP, kappa=_KAPPA)
# near rho = 0.95-0.99, where the generated examples are few: rows of four
# dimensions that add the closed-form tail past T_256
@example(d=2, gap=math.log(0.02), kappa=-1.0)
@example(d=16, gap=math.log(0.01), kappa=-1.0)
@example(d=30, gap=math.log(0.01), kappa=-1.0)
@example(d=60, gap=math.log(0.05), kappa=-1.0)
def test_bar_covers_a_30_digit_reference(d, gap, kappa):
    ell = _side(1.0 - math.exp(gap), kappa)
    r = regular_volume(d, ell, kappa)
    assert r.branch is Branch.SERIES and r.volume > 0
    ref = _hp._regular_volume(d, regular_parameters(d, ell, kappa).taus[0], kappa)
    assert abs(mp.mpf(r.volume) - ref) <= r.abs_error
    assert r.abs_error <= 1e-6 * r.volume


@PROPERTY
@seed(23)
@given(d=_D, gap=st.floats(math.log(1e-9) + 0.3, math.log(0.1)),
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
@given(d=_D, gap=_GAP, kappa=_KAPPA)
def test_curvature_scaling_within_both_bars(d, gap, kappa):
    # Vol_(d,kappa)(ell) = |kappa|^(-d/2) Vol_(d,-1)(ell sqrt|kappa|)
    ell = _side(1.0 - math.exp(gap))
    unit = regular_volume(d, ell, -1.0)
    r = regular_volume(d, ell / math.sqrt(-kappa), kappa)
    f = abs(kappa) ** (-d / 2.0)
    assert r.branch is Branch.SERIES and unit.branch is Branch.SERIES
    assert abs(r.volume - f * unit.volume) <= r.abs_error + f * unit.abs_error


@pytest.mark.parametrize("d", [31, 60, 100, 150, 171, 172, 200, 400])
def test_large_dimensions_give_the_series_or_an_overflow(d):
    # every regular row at kappa = -1 is a series result within its bar, up
    # to d = 150 (bars 9e-14 to 8e-13 relative), or, from d = 171 on, where
    # d! passes the double range, an OverflowRegionError
    for ell in (1.0, 8.0, math.inf):
        if d > 170:
            with pytest.raises(OverflowRegionError):
                regular_volume(d, ell)
            continue
        r = regular_volume(d, ell)
        assert r.branch is Branch.SERIES and r.volume > 0, ell
        ref = (_hp.ideal_volume_highprec(d) if ell == math.inf else
               _hp._regular_volume(d, regular_parameters(d, ell, -1.0).taus[0], -1.0))
        assert abs(mp.mpf(r.volume) - ref) <= r.abs_error, ell
        assert r.abs_error <= 1e-12 * r.volume, ell
