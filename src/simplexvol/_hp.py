"""Arbitrary-precision volumes of orthocentric simplices at kappa < 0.

The engine sums the paper's curvature series in doubles and, past T_256,
adds a tail in closed form, whose coefficients come from the table's first
entries (engine._tail_matrix).  This module sums the same series at _DPS
digits, so that the tests and the benchmark's stored values can check the
engine beyond double precision.  _series_volume(taus, kappa) takes any
taus at kappa0 <= kappa < 0: the table T of the groups of equal taus
(_table: each group's row from fixed-point integers, the groups multiplied
by exact convolution), summed against rho^k until a ratio bound is below
10^-(_DPS + 2) of the sum, or to T_(_K) with the closed-form tail of _J
powers of 1/k past it (_tail), summed against (rho sigma_g)^k by
Euler-Maclaurin (_lerch).  ideal_volume_highprec is its ideal regular
simplex.  No production path calls it.

Against the closed forms its relative error is below 1.3e-31 at d = 2,
3 and 4.
"""

import functools
import math
from itertools import groupby

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sum

from .geometry import OrthocentricParams, min_curvature, regular_parameters

_K = 512  # the last term summed before the tail
_J = 16  # powers of 1/k in the closed-form tail
_DPS = 30  # working precision in decimal digits
#: the table lengths a sum reads, each cached once built: the first whose
#: ratio bound can pass, then the next if it does not
_LENGTHS = (65, 129, 257, _K + 1)


def _stages(n, ms, K):
    """P and, for each m in ms (each at most n), the row c(m)_0..c(m)_K of
    engine._series_table's positive recurrence

        c(m)_k = c(m)_{k-1}/m + r(m)_k c(m-1)_k,

    from c(1)_k = 1, with r(m)_k = ((m-1)/2)_k/(m/2)_k the running product
    of the exact neighbour ratios (m - 3 + 2k)/(m - 2 + 2k), in integers
    scaled by 2^P.  It runs term by term rather than as a doubling scan.
    Each integer step truncates by at most one unit of 2^-P, so an entry's
    absolute error stays within a few n K units.  P is the working
    precision, plus log2 of 1/F for the floor F = (1/2)_K/((n+1)/2)_K =
    (1/2)_K/(n/2)_K r(n+1)_K that no entry of T, nor of any c(m), falls
    below, plus 2 bitlen(n + K) + 16 guard bits; so even the smallest entry
    keeps the working precision relative.  At n = 151, K = 400 the entries
    reach 1e-88, where a scale of 2^-(prec + guard) would keep no digit of
    them."""
    floor_bits = (math.lgamma(K + (n + 1) / 2) + math.lgamma(0.5)
                  - math.lgamma(K + 0.5) - math.lgamma((n + 1) / 2)) / math.log(2)
    P = mp.mp.prec + math.ceil(floor_bits) + 2 * (n + K).bit_length() + 16
    one = 1 << P
    c = [one] * (K + 1)
    rows = {1: c[:]}
    for m in range(2, max(ms) + 1):
        r = one
        for k in range(1, K + 1):
            r = r * (m - 3 + 2 * k) // (m - 2 + 2 * k)
            c[k] = c[k - 1] // m + (r * c[k] >> P)
        if m in ms:
            rows[m] = c[:]
    return P, [rows[m] for m in ms]


def _series_table(n, K):
    """T_0..T_K of engine._series_table(n, K, ((1.0, n),)), the regular
    simplex's one group, in the working precision: T_k = c(n)_k r(n+1)_k
    from _stages, with r(n+1) in the same integers, each entry rounded to
    an mpf once, at the end."""
    P, (c,) = _stages(n, (n,), K)
    table = [mp.mpf(1)]
    r = 1 << P
    for k in range(1, K + 1):
        r = r * (n - 2 + 2 * k) // (n - 1 + 2 * k)
        table.append(mp.mpf((c[k] * r, -2 * P)))
    return table


@functools.lru_cache(maxsize=None)
def _table(groups, L):
    """T_0..T_(L-1) = [t^k]prod_j F(sigma_j t) / ((n+1)/2)_k in _DPS digits,
    over the groups (sigma_g, m_g) with sigma_g an mpf, the first exactly
    1 (_groups).  One group is _series_table.  Otherwise each group's row
    [t^k]F(sigma_g t)^(m_g) = sigma_g^k c(m_g)_k (m_g/2)_k comes from
    _stages, and the rows are multiplied by convolution, each entry the
    exact products summed with one rounding; then each is divided by
    ((n+1)/2)_k."""
    n = sum(m for _, m in groups)
    with mp.workdps(_DPS):
        if len(groups) == 1:
            return tuple(_series_table(n, L - 1))
        P, stages = _stages(n, [m for _, m in groups], L - 1)
        prec, rounding = mp.mp._prec_rounding
        p = None
        for (sigma, m), c in zip(groups, stages):
            row, poch = [], 1  # poch: 2^k (m/2)_k
            for k in range(L):
                row.append(mpf_mul(from_man_exp(c[k] * poch, -P - k, prec, rounding),
                                   (sigma ** k)._mpf_, prec, rounding))
                poch *= m + 2 * k
            p = row if p is None else [
                mpf_sum([mpf_mul(a, b) for a, b in zip(p[:k + 1], row[k::-1])], prec, rounding)
                for k in range(L)]
        table, poch = [], 1  # poch: 2^k ((n+1)/2)_k
        for k in range(L):
            table.append(mp.ldexp(mp.make_mpf(p[k]), k) / poch)
            poch *= n + 1 + 2 * k
        return tuple(table)


def _groups(taus):
    """(sigma_g, m_g) for each group of m_g equal taus, in increasing tau,
    with sigma_g = tau_min^2/tau_g^2 in _DPS digits, exactly 1 for the
    first group: the key of _table."""
    ts = sorted(taus)
    with mp.workdps(_DPS):
        least = mp.mpf(ts[0]) ** 2
        return tuple((least / mp.mpf(t) ** 2, len(list(run))) for t, run in groupby(ts))


def _lerch(rho, s, q):
    """sum_(k >= q) rho^k k^(-s) for 0 < rho <= 1 and an integer q well
    above s, by Euler-Maclaurin in mpf, each term to the working precision:
    with lam = -ln rho and z = lam q, the m-th derivative of rho^x x^(-s)
    at q is (-1)^m rho^q q^(-s-m) P_m, P_m = sum_(i <= m) C(m, i) z^(m-i) (s)_i,
    and

        sum = q^(1-s) E_s(z) + rho^q q^(-s) (1/2 + sum_j B_2j/(2j)! q^(1-2j) P_(2j-1))

    summed until a correction falls below the working precision.  At
    q = _K + 1 and s <= 41.5 each correction is about ((z + s + 2j)/(2 pi q))^2
    of the one before.  rho = 1 is the Hurwitz zeta zeta(s, q), with
    E_s(0) = 1/(s - 1) and P_m = (s)_m; every term is relative to the sum,
    where mpmath's zeta(s, q) has an absolute error (2.9e-10 relative at
    s = 14.5, q = 513, 30 digits)."""
    q = mp.mpf(q)
    z = -mp.log(rho) * q
    rfs, zs = [mp.mpf(1)], [mp.mpf(1)]  # (s)_i and z^i
    acc, j = mp.mpf(0.5), 1
    while True:
        m = 2 * j - 1
        while len(rfs) <= m:
            rfs.append(rfs[-1] * (s + len(rfs) - 1))
            zs.append(zs[-1] * z)
        p = mp.fsum(math.comb(m, i) * zs[m - i] * rfs[i] for i in range(m + 1))
        term = mp.bernoulli(2 * j) / math.factorial(2 * j) * q ** (1 - 2 * j) * p
        acc += term
        if abs(term) < mp.eps * acc:
            return q ** (1 - s) * mp.expint(s, z) + rho ** q * q ** -s * acc
        j += 1


@functools.lru_cache(maxsize=None)
def _expansions(n):
    """([u^i](1/F) for i < _J, and per i < _J the coefficients of
    k^(-h-i-j), j < _J - i, in Gamma(1/2)/Gamma(h + 1/2) times
    (1/2)_(k-i)/(h + 1/2)_k, h = n/2), in _DPS digits.  Those powers come
    from DLMF 5.11.8 with a = 1/2 - i and b = h + 1/2: ln Gamma(k + a) -
    ln Gamma(k + b) - (a - b) ln k = sum_m (-1)^(m+1) (B_(m+1)(a) -
    B_(m+1)(b))/(m (m + 1) k^m), exponentiated."""
    with mp.workdps(_DPS):
        half, h = mp.mpf(1) / 2, mp.mpf(n) / 2
        inv = [mp.mpf(1)]
        for i in range(1, _J):
            inv.append(-mp.fsum(mp.rf(half, j) * inv[i - j] for j in range(1, i + 1)))
        at_b = [mp.bernpoly(m + 1, h + half) for m in range(1, _J)]
        at_a = [mp.bernpoly(m + 1, half) for m in range(1, _J)]
        expansions = []
        for i in range(_J):
            if i:  # B_n(a - 1) = B_n(a) - n (a - 1)^(n-1)
                at_a = [b - (m + 1) * (half - i) ** m for m, b in enumerate(at_a, 1)]
            logs = [(-1) ** (m + 1) * (at_a[m - 1] - at_b[m - 1])
                    / (m * (m + 1)) for m in range(1, _J - i)]
            g = [mp.mpf(1)]
            for j in range(1, _J - i):
                g.append(mp.fsum(m * logs[m - 1] * g[j - m] for m in range(1, j + 1)) / j)
            expansions.append(g)
        return inv, expansions


def _tail(groups, T, rho, total):
    """sum_(k > _K) rho^k T_k in the working precision, T_k = sum_g sigma_g^k
    Gamma(h + 1/2)/Gamma(1/2) sum_(j < _J) c_gj k^(-h-j) (Bender's theorem;
    Flajolet-Odlyzko 1990 for the k^(-h) singularity at rho sigma_g = 1):
    c_gj = sum_(i <= j) d_i G_i(j - i), with d_i = m_g [u^i] P(u/sigma_g)/F(u)
    by series division, [u^i]P(u/sigma_g) = sigma_g^-i T_i (h + 1/2)_i, and
    G_i from _expansions.  Each power sums against (rho sigma_g)^k by _lerch.
    A group is left out where a bound on its leading term, c_g0 x^q q^(-h)
    (1 + min(1/lam, q/(h - 1))) at x = rho sigma_g = e^(-lam) and q = _K + 1,
    is below 10^-(_DPS + 5) = 1e-35 of total, the sum to T_(_K): each group
    but the first at a small sigma_g, and every group from n = 42 on, so
    wherever the expansion in 1/k diverges at k = _K (n >= 53)."""
    n = sum(m for _, m in groups)
    h, q = mp.mpf(n) / 2, _K + 1
    inv, expansions = _expansions(n)
    scale = mp.gamma(h + 0.5) / mp.gamma(0.5)
    tail = mp.mpf(0)
    for sigma, m in groups:
        x = rho * sigma
        p = [sigma ** -i * T[i] * mp.rf(h + 0.5, i) for i in range(_J)]
        d = [m * mp.fsum(p[j] * inv[i - j] for j in range(i + 1)) for i in range(_J)]
        c = [scale * mp.fsum(d[i] * expansions[i][j - i] for i in range(j + 1)) for j in range(_J)]
        spread = q / (h - 1) if x == 1 else min(-1 / mp.log(x), q / (h - 1))
        if abs(c[0]) * x ** q * q ** -h * (1 + spread) < mp.mpf(10) ** -(_DPS + 5) * total:
            continue
        tail += mp.fsum(cj * _lerch(x, h + j, q) for j, cj in enumerate(c))
    return tail


def _series_volume(taus, kappa):
    """The volume of the orthocentric simplex with these double taus at the
    double kappa0 <= kappa < 0, by its curvature series in _DPS digits: an
    mpf, with no error estimate.  As in engine.volumes, a kappa at or below
    the double kappa0 (geometry.min_curvature) is the simplex at kappa0,
    rho = 1, with the prefactor Vol_E a^(-h), a = s/(s - tau_min^2), from
    the taus alone, or for equal taus sqrt(d)/d! |kappa|^(-d/2) at kappa;
    above it, rho = (-kappa/a)/tau_min^2 with a = 1 - kappa/s.  The sum of
    rho^k T_k stops at the first K' whose ratio bound term_(K'+1)/(1 - q),
    q = rho (h + K')/(K' + 1) < 1 (engine._series_volume), is below
    10^-(_DPS + 2) of the sum; where none does by K' = _K, it adds _tail."""
    params = OrthocentricParams(tuple(taus))
    with mp.workdps(_DPS):
        t = [mp.mpf(x) for x in params.taus]
        n = len(t)
        d, h = n - 1, mp.mpf(n) / 2
        s, least = mp.fsum(x * x for x in t), min(t) ** 2
        vol_e = mp.sqrt(s) / (mp.factorial(d) * mp.fprod(t))
        kappa = mp.mpf(kappa)
        if kappa <= min_curvature(params):
            rho = mp.mpf(1)
            pre = (mp.sqrt(d) / mp.factorial(d) * (-kappa) ** (-mp.mpf(d) / 2)
                   if min(t) == max(t) else vol_e * (s / (s - least)) ** -h)
        else:
            a = 1 - kappa / s
            rho = -(kappa / a) / least
            pre = vol_e * a ** -h
        groups = _groups(params.taus)
        eps = mp.mpf(10) ** -(_DPS + 2)
        for L in _LENGTHS:
            if L < _K + 1 and rho * (h + L - 2) / (L - 1) >= 1:
                continue  # q >= 1 at every index of this table: no K' passes
            T = _table(groups, L)
            terms, power = [], mp.mpf(1)
            for entry in T:
                terms.append(power * entry)
                power *= rho
            partial = mp.mpf(0)
            for k in range(L - 1):
                partial += terms[k]
                ratio = rho * (h + k) / (k + 1)
                if ratio < 1 and terms[k + 1] / (1 - ratio) < eps * partial:
                    return pre * mp.fsum(terms[:k + 1])
        total = mp.fsum(terms)
        return pre * (total + _tail(groups, T, rho, total))


def ideal_volume_highprec(d, kappa=-1.0):
    """Volume of the ideal regular d-simplex at curvature kappa < 0, via mpmath.

    The curvature series at rho = 1: sqrt(d)/d! |kappa|^(-d/2) sum_k T_k,
    in _DPS digits (_series_volume at the ideal taus).  Returns an mpmath
    mpf, with no error estimate; see the module docstring for its accuracy.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not kappa < 0:
        raise ValueError("ideal simplices require kappa < 0")
    return _series_volume(regular_parameters(d, math.inf, kappa).taus, kappa)
