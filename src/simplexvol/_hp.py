"""Arbitrary-precision volumes of the regular simplex at kappa < 0.

The engine sums the paper's curvature series in doubles and, past T_256,
adds a tail in closed form, whose coefficients come from the table's first
entries (engine._tail_matrix).  This module evaluates the same series at
_DPS digits, so that the tests and the benchmark's stored values can check
the engine beyond double precision: the sum of rho^k T_k over k <= _K,
with the table T from fixed-point integers, plus a tail fitted to T at _J
indices in [_K/2, _K] and summed against rho^k by Euler-Maclaurin
(_lerch).  Its tail shares nothing with the engine's but the exponents
k^(-h-j).  No production path calls it.

Against the closed forms its relative error is 6.6e-17, 2.5e-18 and
1.1e-19 at d = 2, 3 and 4 (the fitted tail's truncation, which falls
with d); against the same sum at K = 800, J = 20 and 60 digits it is
below 4e-26 at d = 10..20.
"""

import functools
import math

import mpmath as mp

_K = 400  # terms summed exactly
_J = 8  # terms of the fitted tail T_k = sum_(j < _J) b_j k^(-h-j)
_DPS = 30  # working precision in decimal digits


def _series_table(n, K):
    """T_0..T_K of engine._series_table(n, K, ((1.0, n),)), the regular
    simplex's one group, in the working precision: T_k = c(n)_k r(n+1)_k
    from the same positive recurrence

        c(m)_k = c(m)_{k-1}/m + r(m)_k c(m-1)_k,

    from c(1)_k = 1, with r(m)_k = ((m-1)/2)_k/(m/2)_k the running product
    of the exact neighbour ratios (m - 3 + 2k)/(m - 2 + 2k).  It runs term
    by term rather than as a doubling scan, in integers scaled by 2^P, and
    rounds each entry to an mpf once, at the end.  Each integer step
    truncates by at most one unit of 2^-P, so an entry's absolute error
    stays within a few n K units.  P is the working precision, plus log2 of
    1/F for the floor F = (1/2)_K/((n+1)/2)_K = (1/2)_K/(n/2)_K r(n+1)_K
    that no entry falls below, plus 2 bitlen(n + K) + 16 guard bits; so
    even the smallest entry keeps the working precision relative.  At
    n = 151, K = 400 the entries reach 1e-88, where a scale of
    2^-(prec + guard) would keep no digit of them."""
    floor_bits = (math.lgamma(K + (n + 1) / 2) + math.lgamma(0.5)
                  - math.lgamma(K + 0.5) - math.lgamma((n + 1) / 2)) / math.log(2)
    P = mp.mp.prec + math.ceil(floor_bits) + 2 * (n + K).bit_length() + 16
    one = 1 << P
    c = [one] * (K + 1)
    for m in range(2, n + 1):
        r = one
        for k in range(1, K + 1):
            r = r * (m - 3 + 2 * k) // (m - 2 + 2 * k)
            c[k] = c[k - 1] // m + (r * c[k] >> P)
    table = [mp.mpf(1)]
    r = one
    for k in range(1, K + 1):
        r = r * (n - 2 + 2 * k) // (n - 1 + 2 * k)
        table.append(mp.mpf((c[k] * r, -2 * P)))
    return table


@functools.lru_cache(maxsize=None)
def _table(n):
    with mp.workdps(_DPS):
        return tuple(_series_table(n, _K))


def _lerch(rho, s, q):
    """sum_(k >= q) rho^k k^(-s) for 0 < rho <= 1 and an integer q well
    above s, by Euler-Maclaurin in mpf, each term to the working precision:
    the Hurwitz zeta at rho = 1; otherwise, with lam = -ln rho and z = lam q,
    the m-th derivative of rho^x x^(-s) at q is (-1)^m rho^q q^(-s-m) P_m,
    P_m = sum_(i <= m) C(m, i) z^(m-i) (s)_i, and

        sum = q^(1-s) E_s(z) + rho^q q^(-s) (1/2 + sum_j B_2j/(2j)! q^(1-2j) P_(2j-1))

    summed until a correction falls below the working precision.  At
    q = _K + 1 and s <= 37.5 each correction is about ((z + s + 2j)/(2 pi q))^2
    of the one before."""
    q = mp.mpf(q)
    if rho == 1:
        return mp.zeta(s, q)
    z = -mp.log(rho) * q
    acc, j = mp.mpf(0.5), 1
    while True:
        m = 2 * j - 1
        p = mp.fsum(mp.binomial(m, i) * z ** (m - i) * mp.rf(s, i) for i in range(m + 1))
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * q ** (1 - 2 * j) * p
        acc += term
        if abs(term) < mp.eps * acc:
            return q ** (1 - s) * mp.expint(s, z) + rho ** q * q ** -s * acc
        j += 1


def _fitted_sum(n, rho):
    """sum_k rho^k T_k at 0 < rho <= 1 in the working precision: the terms
    k <= _K, plus the fit T_k = sum_(j < _J) b_j k^(-h-j), h = n/2, through
    _J indices in [_K/2, _K] summed against rho^k past _K.  The exponents
    are the singularity's at rho = 1 (T_k ~ k^(-h); Flajolet-Odlyzko 1990);
    at d = 2, _J = 6 would leave 5e-14."""
    T = _table(n)
    h = mp.mpf(n) / 2
    ks = [_K // 2 + (_K - _K // 2) * i // (_J - 1) for i in range(_J)]
    b = mp.lu_solve(mp.matrix([[(mp.mpf(_K) / k) ** j for j in range(_J)] for k in ks]),
                    mp.matrix([(mp.mpf(k) / _K) ** h * T[k] for k in ks]))
    tail = mp.fsum(b[j] * mp.mpf(_K) ** (h + j) * _lerch(rho, h + j, _K + 1)
                   for j in range(_J))
    return mp.fsum(rho ** k * T[k] for k in range(_K + 1)) + tail


def ideal_volume_highprec(d, kappa=-1.0):
    """Volume of the ideal regular d-simplex at curvature kappa < 0, via mpmath.

    The curvature series at rho = 1: sqrt(d)/d! |kappa|^(-d/2) sum_k T_k,
    in _DPS digits.  Returns an mpmath mpf, with no error estimate; see
    the module docstring for its accuracy.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not kappa < 0:
        raise ValueError("ideal simplices require kappa < 0")
    with mp.workdps(_DPS):
        return (mp.sqrt(d) / mp.factorial(d) * _fitted_sum(d + 1, mp.mpf(1))
                / abs(mp.mpf(kappa)) ** (mp.mpf(d) / 2))


def _regular_volume(d, tau, kappa):
    """Volume of the regular d-simplex whose parameters all equal the double
    tau, at curvature kappa < 0, in _DPS digits: the curvature series at
    rho = (-kappa/a)/tau^2, a = 1 - kappa/s, s = (d + 1) tau^2, with the
    engine's prefactor sqrt(s)/(d! tau^(d+1)) a^(-(d+1)/2)."""
    with mp.workdps(_DPS):
        n = d + 1
        tau = mp.mpf(tau)
        s = n * tau ** 2
        a = 1 - mp.mpf(kappa) / s
        rho = -(mp.mpf(kappa) / a) / tau ** 2
        return mp.sqrt(s) / (mp.factorial(d) * tau ** n) * a ** (-mp.mpf(n) / 2) * _fitted_sum(n, rho)
