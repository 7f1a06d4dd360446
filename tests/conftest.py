"""Shared high-precision oracles, independent of the package's own code paths."""

import itertools
import operator

import mpmath as mp
import pytest


def mp_norm_cdf(z, dps=40):
    """Reference complex normal CDF via mpmath's arbitrary-precision erf."""
    with mp.workdps(dps):
        return complex(mp.mpf(1) / 2 + mp.erf(mp.mpc(z) / mp.sqrt(2)) / 2)


def mp_norm_cdf_real_bruteforce(x, dps=30):
    """Real-axis CDF by direct quadrature of the density (no erf involved)."""
    with mp.workdps(dps):
        val = mp.quad(lambda t: mp.exp(-t * t / 2), [0, mp.mpf(x)])
        return float(mp.mpf(1) / 2 + val / mp.sqrt(2 * mp.pi))


def mp_series_table(n, K):
    """T_0..T_K of the regular simplex's curvature series, the one-group
    table of engine._series_table and _hp._series_table: the recurrence
    c(m)_k = c(m)_(k-1)/m + r(m)_k c(m-1)_k from c(1)_k = 1, r(m)_k =
    ((m-1)/2)_k/(m/2)_k, run term by term in mpf, every step rounded to the
    working precision, and T_k = c(n)_k r(n+1)_k."""
    def ratios(m):
        return list(itertools.accumulate(
            (mp.mpf(m - 3 + 2 * k) / (m - 2 + 2 * k) for k in range(1, K + 1)),
            operator.mul, initial=mp.mpf(1)))

    c = [mp.mpf(1)] * (K + 1)
    for m in range(2, n + 1):
        r = ratios(m)
        for k in range(1, K + 1):
            c[k] = c[k - 1] / m + r[k] * c[k]
    return [ck * rk for ck, rk in zip(c, ratios(n + 1))]


@pytest.fixture(scope="session")
def mp_cdf():
    return mp_norm_cdf
