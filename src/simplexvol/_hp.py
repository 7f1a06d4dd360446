"""Arbitrary-precision evaluation of ideal regular simplex volumes.

The double-precision engine computes the contour integral from pieces of
order ~1; since the ideal volume itself decays super-exponentially in the
dimension (about e*sqrt(d)/d!), cancellation swallows all double digits once
d is around 14.  This twin evaluates the same representation with mpmath so
the large-dimension asymptotics remain testable.  It is deliberately limited
to the equal-parameter (regular ideal) case, where the binomial collapse
keeps the tail expansion linear in d.
"""

import functools

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_cos_sin, to_fixed

_DPS = 40   # working precision in decimal digits
_NSER = 30  # terms of the tail's binomial series
_GUARD_BITS = 20  # extra precision of the gamma ladder's recurrence
_HEAD_GUARD_BITS = 40  # fixed-point bits of the head kernel beyond the working precision
_MAX_TAYLOR_TERMS = 400  # the erf series on a panel needs under 100


@functools.lru_cache(maxsize=None)
def _gl_nodes(prec):
    from mpmath.calculus.quadrature import GaussLegendre
    rule = GaussLegendre(mp.mp)
    deg = 4  # 3*2^(deg-1) = 24 nodes per half-oscillation panel
    return rule.calc_nodes(deg, prec)


@functools.lru_cache(maxsize=None)
def _fixed_nodes(prec):
    """The _gl_nodes rule in fixed point with prec + _HEAD_GUARD_BITS
    fractional bits: one (x, x^2, w) triple per node pair +-x."""
    W = prec + _HEAD_GUARD_BITS
    table = []
    for x, w in _gl_nodes(prec):
        if x > 0:
            xf = to_fixed(x._mpf_, W)
            table.append((xf, xf * xf >> W, to_fixed(w._mpf_, W)))
    return tuple(table)


def _tdiv(a, b):
    """a / b rounded toward zero for b > 0; floor division would leave a
    decaying negative sequence standing at -1."""
    return a // b if a >= 0 else -(-a // b)


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

    On a panel with midpoint m and half-width h, z = z0 + rho x with
    z0 = (1 + i) m/sqrt(2 d), rho = (1 + i) h/sqrt(2 d) and the node variable
    x in [-1, 1].  One mp.erf call gives erf(z0); the nodes take the Taylor
    series erf(z0 + rho x) = erf(z0) + (2/sqrt(pi)) e^(-z0^2) rho
    sum_k (-1)^(k-1) u_(k-1) x^k/k, where u_n = H_n(z0) rho^n/n! follows the
    scaled Hermite recurrence u_(n+1) = (2 z0 rho u_n - 2 rho^2 u_(n-1))/(n+1)
    and e^(-z0^2) = e^(-i m^2/d).  The series, the powers and the node sum
    run in integers scaled by 2^W, W = prec + _HEAD_GUARD_BITS.
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
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            t, r = mid * scale, half * scale  # z0 = (1 + i) t, rho = (1 + i) r
            e0 = mp.erf(mp.mpc(t, t))
            # the Taylor coefficient of x^k in p is g (-1)^(k-1) u_(k-1)/k
            g = mp.expj(-mid * mid / d) * mp.mpc(r, r) * rsqpi
            gr, gi = fx(g.real), fx(g.imag)
            # 2 z0 rho = i al and 2 rho^2 = i be with real al, be; the
            # recurrence below carries v_n = (-1)^n u_n, so
            # v_(n+1) = -i (al v_n + be v_(n-1))/(n+1)
            al, be = fx(2 * mid * half / d), fx(2 * half * half / d)
            coefs = [((one + fx(e0.real)) >> 1, fx(e0.imag) >> 1)]
            ur, ui, vr, vi = one, 0, 0, 0  # v_(k-1) and v_(k-2)
            for k in range(1, _MAX_TAYLOR_TERMS):
                den = k << W
                sr, si = al * ur + be * vr, al * ui + be * vi
                nr, ni = _tdiv(si, den), _tdiv(-sr, den)
                if not (ur or ui or nr or ni):
                    break  # v_(k-1) = v_k = 0, so every later term is zero
                coefs.append(((gr * ur - gi * ui) // den, (gr * ui + gi * ur) // den))
                ur, ui, vr, vi = nr, ni, ur, ui
            else:
                raise mp.NoConvergence("erf Taylor series did not terminate")
            even, odd = coefs[::2][::-1], coefs[1::2][::-1]

            mf, hf = fx(mid), fx(half)
            panel_re = panel_im = 0
            for xf, sf, wf in nodes:
                er = ei = 0
                for cr, ci in even:
                    er, ei = (er * sf >> W) + cr, (ei * sf >> W) + ci
                orr = oi = 0
                for cr, ci in odd:
                    orr, oi = (orr * sf >> W) + cr, (oi * sf >> W) + ci
                orr, oi = orr * xf >> W, oi * xf >> W
                hx = hf * xf >> W
                pair_re = pair_im = 0
                for p_re, p_im, y in ((er + orr, ei + oi, mf + hx),
                                      (er - orr, ei - oi, mf - hx)):
                    ar, ai = _fixed_cpow(p_re, p_im, d + 1, W)
                    br, bi = _fixed_cpow(one - p_re, -p_im, d + 1, W)
                    fr, fi = ar + br, ai + bi
                    cos, sin = mpf_cos_sin(from_man_exp(y * y, -2 * W), W)
                    cy, sy = to_fixed(cos, W), to_fixed(sin, W)
                    pair_re += fr * cy - fi * sy
                    pair_im += fr * sy + fi * cy
                panel_re += wf * pair_re
                panel_im += wf * pair_im
            head_re += panel_re * hf >> 3 * W
            head_im += panel_im * hf >> 3 * W
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


def _gamma_ladder(Q, A, m0, count):
    """[G(m0), G(m0 + 2), ..., G(m0 + 2 (count - 1))] with
    G(m) = int_A^inf y^-m exp(-Q y^2/2) dy.

    G(m) = A^(1 - m)/(m - 1) at Q = 0; otherwise
    G(m) = (2/Q)^a Gamma(a, w) / 2 with a = (1 - m)/2 and
    w = Q A^2/2, on mpmath's principal branch.  One gammainc call gives the
    most negative order; the others follow from the upward recurrence
    Gamma(a + 1, w) = a Gamma(a, w) + w^a e^-w, which scales an error in
    Gamma(a, w) by about |a/w| per step, below 1 while |a| < |w|.  The
    recurrence runs with guard bits, so each Gamma(a, w) is rounded once to
    the working precision, as a direct gammainc call would be.
    """
    ms = range(m0, m0 + 2 * count, 2)
    if Q == 0:
        return [A ** (1 - m) / (m - 1) for m in ms]
    w = Q * A * A / 2
    orders = [(1 - mp.mpf(m)) / 2 for m in ms]
    with mp.extraprec(_GUARD_BITS):
        a = orders[-1]
        gam = mp.gammainc(a, w)
        wpow = w ** a * mp.exp(-w)
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
