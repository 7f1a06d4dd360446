"""Arbitrary-precision evaluation of ideal regular simplex volumes.

The double-precision engine computes the contour integral from pieces of
order ~1; since the ideal volume itself decays super-exponentially in the
dimension (about e*sqrt(d)/d!), cancellation swallows all double digits once
d is around 14.  Two mpmath evaluators keep the large-dimension asymptotics
testable, and each checks the other:

* ideal_volume_highprec, the twin, evaluates the paper's ray representation
  at 40 digits.  It is deliberately limited to the equal-parameter (regular
  ideal) case, where the binomial collapse keeps the tail expansion linear
  in d.  It is the independent check of that representation beyond double
  precision.
* ideal_volume_series sums the engine's curvature series at rho = 1 at 60
  digits, accelerated by a capped Levin u-transform.  Every term is
  positive, so nothing cancels, and its coefficient table is built in
  fixed-point integers and rounded to mpf once per entry.  It is the faster
  of the two (about 2 ms against 250-650 ms at d = 10..20), and from d = 10
  on the more accurate.
"""

import functools
import itertools
import math

import mpmath as mp
from mpmath.libmp import NoConvergence, from_man_exp, mpf_cos_sin, to_fixed

_DPS = 40   # working precision in decimal digits
_NSER = 30  # terms of the tail's binomial series
_GUARD_BITS = 20  # extra precision of the gamma ladder's fraction and recurrence
_HEAD_GUARD_BITS = 40  # fixed-point bits of the head kernel beyond the working precision
_MAX_TAYLOR_TERMS = 400  # the erf and phase series on a twin panel need under 100
_MAX_CF_TERMS = 400  # the twin's continued fractions for Gamma(a, w) need 13-55 steps
_SERIES_DPS = 60  # working precision of ideal_volume_series
_LEVIN_TERMS = 80  # partial sums the Levin transform takes, its order cap (see ideal_volume_series)
_LEVIN_RTOL = 1e-5  # the largest relative gap between two Levin orders whose value is returned


@functools.lru_cache(maxsize=None)
def _gl_nodes(prec):
    from mpmath.calculus.quadrature import GaussLegendre
    rule = GaussLegendre(mp.mp)
    deg = 4  # 3*2^(deg-1) = 24 nodes per half-oscillation panel
    return rule.calc_nodes(deg, prec)


@functools.lru_cache(maxsize=None)
def _fixed_nodes(prec):
    """The _gl_nodes rule in fixed point with prec + _HEAD_GUARD_BITS
    fractional bits: one (x, x^2, w, cos(pi x/2), sin(pi x/2)) tuple per
    node pair +-x."""
    W = prec + _HEAD_GUARD_BITS
    table = []
    with mp.workprec(W):
        for x, w in _gl_nodes(prec):
            if x > 0:
                xf = to_fixed(x._mpf_, W)
                table.append((xf, xf * xf >> W, to_fixed(w._mpf_, W),
                              to_fixed(mp.cospi(x / 2)._mpf_, W),
                              to_fixed(mp.sinpi(x / 2)._mpf_, W)))
    return tuple(table)


def _tdiv(a, b):
    """a / b rounded toward zero for b > 0; floor division would leave a
    decaying negative sequence standing at -1."""
    return a // b if a >= 0 else -(-a // b)


def _taylor_terms(al, be, W):
    """[t_0, t_1, ...] up to the last nonzero term of t_0 = 1, t_-1 = 0,
    t_(n+1) = -i (al t_n + be t_(n-1))/(n+1), with real al, be; all values
    are (re, im) pairs in fixed point with W fractional bits."""
    terms = []
    ur, ui, vr, vi = 1 << W, 0, 0, 0  # t_(n-1) and t_(n-2)
    for n in range(1, _MAX_TAYLOR_TERMS):
        den = n << W
        sr, si = al * ur + be * vr, al * ui + be * vi
        nr, ni = _tdiv(si, den), _tdiv(-sr, den)
        if not (ur or ui or nr or ni):
            return terms  # t_(n-1) = t_n = 0, so every later term is zero
        terms.append((ur, ui))
        ur, ui, vr, vi = nr, ni, ur, ui
    raise NoConvergence("Taylor series did not terminate")


def _horner_pm(coefs, xf, sf, W):
    """The even and odd parts at x of the series sum_k coefs[k] x^k, so that
    its values at +-x are even +- odd; sf = x^2, all in fixed point."""
    er = ei = 0
    for cr, ci in reversed(coefs[::2]):
        er, ei = (er * sf >> W) + cr, (ei * sf >> W) + ci
    orr = oi = 0
    for cr, ci in reversed(coefs[1::2]):
        orr, oi = (orr * sf >> W) + cr, (oi * sf >> W) + ci
    return er, ei, orr * xf >> W, oi * xf >> W


def _fixed_cpow(re, im, n, W):
    """(re + i im)^n for n >= 1, all values fixed point with W fractional bits."""
    out = None
    while True:
        if n & 1:
            out = (re, im) if out is None else (
                (out[0] * re - out[1] * im) >> W, (out[0] * im + out[1] * re) >> W)
        n >>= 1
        if not n:
            return out
        re, im = (re * re - im * im) >> W, (re * im) >> (W - 1)


def _head(d, edges):
    """Sum over the panels [a, b] between consecutive edges of the 24-node
    _gl_nodes rule for int_a^b (p^(d+1) + (1 - p)^(d+1)) e^(i y^2) dy, where
    p = N(c y) = (1 + erf(z))/2 with z = (1 + i) y/sqrt(2 d).

    On a panel with midpoint m and half-width h, y = m + h x with the node
    variable x in [-1, 1], so z = z0 + rho x with z0 = (1 + i) m/sqrt(2 d)
    and rho = (1 + i) h/sqrt(2 d).  One mp.erf call gives erf(z0); the nodes
    take the Taylor series erf(z0 + rho x) = erf(z0) + (2/sqrt(pi))
    e^(-z0^2) rho sum_k (-1)^(k-1) u_(k-1) x^k/k, where u_n = H_n(z0)
    rho^n/n! follows the scaled Hermite recurrence
    u_(n+1) = (2 z0 rho u_n - 2 rho^2 u_(n-1))/(n+1) and
    e^(-z0^2) = e^(-i m^2/d).

    The phase splits as e^(i y^2) = e^(i m^2) e^(i pi x/2) e^(i (delta x +
    h^2 x^2)) with delta = 2 m h - pi/2: one cos/sin call per panel for
    e^(i m^2), a cached table for e^(i pi x/2), and for the last factor the
    Taylor series sum_n q_n x^n with q_(n+1) = i (delta q_n + 2 h^2
    q_(n-1))/(n+1).  On the twin's half-oscillation panels delta = 0, but
    the series runs until its terms vanish, so any edges are exact; its
    terms peak near e^|delta|, so the panels should stay short.  The
    series, the powers and the node sum run in integers scaled by 2^W,
    W = prec + _HEAD_GUARD_BITS.
    """
    prec = mp.mp.prec
    W = prec + _HEAD_GUARD_BITS
    one = 1 << W
    nodes = _fixed_nodes(prec)
    head_re = head_im = 0
    with mp.workprec(W):
        def fx(v):
            return to_fixed(v._mpf_, W)

        scale = 1 / mp.sqrt(2 * d)
        rsqpi = 1 / mp.sqrt(mp.pi)
        quarter = fx(mp.pi / 2)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            t, r = mid * scale, half * scale  # z0 = (1 + i) t, rho = (1 + i) r
            e0 = mp.erf(mp.mpc(t, t))
            # the Taylor coefficient of x^k in p is g (-1)^(k-1) u_(k-1)/k
            g = mp.expj(-mid * mid / d) * mp.mpc(r, r) * rsqpi
            gr, gi = fx(g.real), fx(g.imag)
            # 2 z0 rho = i al and 2 rho^2 = i be with real al, be; the
            # series carries v_n = (-1)^n u_n, so
            # v_(n+1) = -i (al v_n + be v_(n-1))/(n+1)
            al, be = fx(2 * mid * half / d), fx(2 * half * half / d)
            cdf = [((one + fx(e0.real)) >> 1, fx(e0.imag) >> 1)]
            for k, (ur, ui) in enumerate(_taylor_terms(al, be, W), 1):
                den = k << W
                cdf.append(((gr * ur - gi * ui) // den, (gr * ui + gi * ur) // den))

            # the phase series: q_(n+1) = -i (-delta q_n - 2 h^2 q_(n-1))/(n+1)
            mf, hf = fx(mid), fx(half)
            delta = (mf * hf >> (W - 1)) - quarter
            phase = _taylor_terms(-delta, -(hf * hf >> (W - 1)), W)
            panel_re = panel_im = 0
            for xf, sf, wf, cq, sq in nodes:
                er, ei, orr, oi = _horner_pm(cdf, xf, sf, W)
                qer, qei, qor, qoi = _horner_pm(phase, xf, sf, W)
                pair_re = pair_im = 0
                # at -x both series flip their odd parts and e^(i pi x/2)
                # becomes its conjugate
                for p_re, p_im, q_re, q_im, s in (
                        (er + orr, ei + oi, qer + qor, qei + qoi, sq),
                        (er - orr, ei - oi, qer - qor, qei - qoi, -sq)):
                    ar, ai = _fixed_cpow(p_re, p_im, d + 1, W)
                    br, bi = _fixed_cpow(one - p_re, -p_im, d + 1, W)
                    fr, fi = ar + br, ai + bi
                    cy, sy = (cq * q_re - s * q_im) >> W, (cq * q_im + s * q_re) >> W
                    pair_re += fr * cy - fi * sy
                    pair_im += fr * sy + fi * cy
                panel_re += wf * pair_re
                panel_im += wf * pair_im
            cos, sin = mpf_cos_sin(from_man_exp(mf * mf, -2 * W), W)
            cm, sm = to_fixed(cos, W), to_fixed(sin, W)
            head_re += (panel_re * cm - panel_im * sm) * hf >> 4 * W
            head_im += (panel_re * sm + panel_im * cm) * hf >> 4 * W
    return mp.mpc(mp.mpf((head_re, -W)), mp.mpf((head_im, -W)))


def _series_coeffs(nterms):
    c = [mp.mpf(1)]
    for k in range(1, nterms):
        c.append(-c[-1] * (2 * k - 1))
    return c


def _poly_mul(a, b, maxlen):
    """The product of two coefficient lists, truncated to maxlen terms."""
    out = [mp.mpf(0)] * maxlen
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:maxlen - i]):
            out[i + j] += ai * bj
    return out


def _upper_gamma_cf(a, w):
    """Gamma(a, w) / (w^a e^-w) by Legendre's continued fraction (DLMF
    8.9.2) in its even contraction 1/(w + 1 - a - 1 (1 - a)/(w + 3 - a -
    2 (2 - a)/(w + 5 - a - ...))), evaluated forward with Lentz's algorithm
    until a step changes it by less than the working precision.  It
    converges for w off the negative real axis, fastest when |w| is large
    against |a|."""
    b = w + 1 - a
    g = c = b
    dd = 0
    for j in range(1, _MAX_CF_TERMS):
        an = -j * (j - a)
        b += 2
        dd = 1 / (b + an * dd)
        c = b + an / c
        step = c * dd
        g *= step
        if abs(step - 1) <= mp.eps:
            return 1 / g
    raise NoConvergence("continued fraction for Gamma(a, w) did not converge")


def _gamma_ladder(Q, A, m0, count):
    """[G(m0), G(m0 + 2), ..., G(m0 + 2 (count - 1))] with
    G(m) = int_A^inf y^-m exp(-Q y^2/2) dy.

    G(m) = A^(1 - m)/(m - 1) at Q = 0; otherwise
    G(m) = (2/Q)^a Gamma(a, w) / 2 with a = (1 - m)/2 and
    w = Q A^2/2, on mpmath's principal branch.  Legendre's continued
    fraction (_upper_gamma_cf) gives the most negative order; the others
    follow from the upward recurrence
    Gamma(a + 1, w) = a Gamma(a, w) + w^a e^-w, which scales an error in
    Gamma(a, w) by about |a/w| per step, below 1 while |a| < |w|.  The
    fraction and the recurrence run with guard bits, so each Gamma(a, w) is
    rounded once to the working precision, as a direct gammainc call would
    be.  The twin's w = -i (d - n) A^2/d has |w| >= 55, where the fraction
    takes 13-55 steps; mp.gammainc takes slow hypergeometric paths there.
    """
    ms = range(m0, m0 + 2 * count, 2)
    if Q == 0:
        return [A ** (1 - m) / (m - 1) for m in ms]
    w = Q * A * A / 2
    orders = [(1 - mp.mpf(m)) / 2 for m in ms]
    with mp.extraprec(_GUARD_BITS):
        a = orders[-1]
        wpow = w ** a * mp.exp(-w)
        gam = wpow * _upper_gamma_cf(a, w)
        gams = [gam]
        for _ in range(count - 1):
            gam = a * gam + wpow
            a += 1
            wpow *= w
            gams.append(gam)
    return [mp.mpf(1) / 2 * (2 / Q) ** order * +gam
            for order, gam in zip(orders, reversed(gams))]


def ideal_volume_highprec(d, kappa=-1.0):
    """Volume of the ideal regular d-simplex at curvature kappa < 0, via mpmath.

    Returns an mpmath mpf, with no error estimate.  The volume is a small
    difference of order-1 terms, so the relative error grows about tenfold
    per dimension.  It is set by the tail's _NSER-term asymptotic series at
    the split |c| A = 10.5: against the same formula with |c| A = 16 at 60
    digits, the relative error measured 1e-23 at d = 2, 3e-21 at d = 5,
    3e-18 at d = 10, 2e-16 at d = 12, 3e-12 at d = 16 and 5e-8 at d = 20.
    Rounding at _DPS digits adds far less: against a 60-digit run of the
    same formula, 2e-34 at d = 10, 4e-32 at d = 12, 2e-28 at d = 16 and
    3e-24 at d = 20.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not kappa < 0:
        raise ValueError("ideal simplices require kappa < 0")
    with mp.workdps(_DPS):
        c = (1 + 1j) / mp.sqrt(d)      # CDF argument per unit y along the ray
        omega = mp.mpc(1, -1)
        om2 = omega * omega            # exactly -2i
        # head length: the tail series floor exp(-|c A|^2/2) must undercut the
        # target; |c|A = 10.5 puts it near 1e-24, enough for the ratio tests
        A = mp.mpf("10.5") / abs(c)
        kmax = int(mp.ceil(A * A / mp.pi))
        A = mp.sqrt(mp.pi * kmax)
        edges = [mp.sqrt(mp.pi * k) for k in range(kmax + 1)]
        head = _head(d, edges)

        sq2pi = mp.sqrt(2 * mp.pi)
        base = _series_coeffs(_NSER)
        c2 = c * c
        c2_pows = [c2 ** (-K) for K in range(_NSER)]

        rho_p = -1 / (sq2pi * c)
        rho_m = 1 / (sq2pi * c)
        tail = mp.mpc(0)
        sn = [mp.mpf(1)] + [mp.mpf(0)] * (_NSER - 1)  # base ** n, truncated
        for n in range(0, d + 2):
            if n:
                sn = _poly_mul(sn, base, _NSER)
            G = _gamma_ladder(om2 * mp.mpf(d - n) / d, A, n, _NSER)
            term = mp.mpc(0)
            for K in range(_NSER):
                if sn[K] == 0:
                    continue
                term += sn[K] * c2_pows[K] * G[K]
            coef = mp.binomial(d + 1, n) * rho_p ** n
            if n == d + 1:
                coef += rho_m ** n  # the reflected product is all-residual
            tail += coef * term

        transform = (head + tail) * omega / sq2pi
        area = 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)
        vol = area * transform / (1j ** d * abs(mp.mpf(kappa)) ** (mp.mpf(d) / 2))
        return mp.mpf(vol.real)


def _series_table(n, K):
    """T_0..T_K of engine._series_table(n, K) in the working precision:
    T_k = c(n)_k r(n+1)_k from the same positive recurrence

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
    2^-(prec + guard) would keep no digit of them.  At 60 digits and K = 79
    it takes 0.25-0.84 ms at n = 4..21, 9-17 times less than the same loop
    in mpf arithmetic on mpmath's python backend."""
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


def _levin_u(partial, N):
    """The Levin u-transform of the partial sums S_0..S_(N-1) in Levin's
    closed form, with beta = 1:

        L = sum_j c_j S_j / sum_j c_j,   c_j = (-1)^j C(N-1, j) (j+1)^(N-3) / a_j,

    with a_j = S_j - S_(j-1); the u-variant's remainder estimates
    (j+1) a_j are folded into the weights.  It is the value that
    mp.levin(method="levin", variant="u").update_psum(partial[:N]) returns,
    in O(N) operations with exact integer binomial weights instead of that
    triangular scheme's O(N^2) factor evaluations."""
    k = N - 1
    num = den = mp.mpf(0)
    prev = mp.mpf(0)
    for j, s in enumerate(partial[:N]):
        c = (-1) ** j * math.comb(k, j) * (j + 1) ** (k - 2) / (s - prev)
        num += c * s
        den += c
        prev = s
    return num / den


def ideal_volume_series(d, kappa=-1.0):
    """Volume of the ideal regular d-simplex at curvature kappa < 0 from the
    curvature series, via mpmath.

    At rho = 1 the engine's series reads V = sqrt(d)/d! * sum_k T_k *
    |kappa|^(-d/2), every T_k positive and T_k ~ k^(-(d+1)/2), so the sum
    converges only algebraically; engine._series_volume sums T_0..T_1024 in
    doubles and fits the rest, at every d.  This reference is independent of
    that fit: T comes from _series_table, in fixed-point integers rounded to
    mpf once per entry, and the first _LEVIN_TERMS partial sums, at
    _SERIES_DPS digits, go through the Levin u-transform (_levin_u, which
    is mp.levin(method="levin", variant="u") to rounding; Levin 1973; Sidi,
    Practical Extrapolation Methods, 2003).  The
    order is capped because the transform cancels: at 60 digits it gains up
    to 80 partial sums and degrades past about 100 (at d = 2, 2e-8 relative
    error from 80, 8e-2 from 120).

    Self-check: the transforms of the first 3/4 of the partial sums and of
    all of them must agree to _LEVIN_RTOL relative, else NoConvergence is
    raised.  That gap bounded the actual error at every d measured: against
    pi, the log-sine integral and the d = 4 closed form it is 4e-6, 8e-8 and
    3e-9 for relative errors of 2.2e-8, 3.8e-10 and 1.1e-11 at d = 2, 3, 4;
    it falls about tenfold per dimension, to 7e-16 at d = 10, 2e-19 at
    d = 14 and 1e-23 at d = 20.  Against the twin recomputed with its split
    at |c| A = 16 and 60 digits, the relative errors are 4e-13 at d = 5,
    1e-15 at d = 7, 6e-18 at d = 9, 5e-19 at d = 10, 4e-21 at d = 12 and
    5e-23 at d = 14; ideal_volume_highprec itself is off by 3e-18 at
    d = 10, 2e-16 at d = 12 and 2.2e-14 at d = 13 and 14 (see its
    docstring for d = 16 and 20).  Returns an mpmath mpf.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not kappa < 0:
        raise ValueError("ideal simplices require kappa < 0")
    with mp.workdps(_SERIES_DPS):
        partial = list(itertools.accumulate(_series_table(d + 1, _LEVIN_TERMS - 1)))
        total = _levin_u(partial, _LEVIN_TERMS)
        gap = abs(total - _levin_u(partial, _LEVIN_TERMS * 3 // 4))
        if not gap <= _LEVIN_RTOL * total:
            raise NoConvergence(
                f"Levin transforms of orders {_LEVIN_TERMS * 3 // 4} and {_LEVIN_TERMS} "
                f"differ by {mp.nstr(gap / abs(total), 3)} relative at d = {d}")
        return mp.sqrt(d) / mp.factorial(d) * total / abs(mp.mpf(kappa)) ** (mp.mpf(d) / 2)
