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

_DPS = 40   # working precision in decimal digits
_NSER = 30  # terms of the tail's binomial series
_GUARD_BITS = 20  # extra precision of the gamma ladder's recurrence


@functools.lru_cache(maxsize=None)
def _gl_nodes(prec):
    from mpmath.calculus.quadrature import GaussLegendre
    rule = GaussLegendre(mp.mp)
    deg = 4  # 3*2^(deg-1) = 24 nodes per half-oscillation panel
    return rule.calc_nodes(deg, prec)


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

    Returns an mpmath mpf.  Accuracy is limited by the working precision and
    the tail-series floor (far below 1e-25).
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
        sqrt2 = mp.sqrt(2)

        def head_igd(y):
            p = mp.mpf(1) / 2 + mp.erf(c * y / sqrt2) / 2   # N(c y)
            return ((p ** (d + 1) + (1 - p) ** (d + 1))
                    * mp.exp(-om2 * y * y / 2) * omega)

        nodes = _gl_nodes(mp.mp.prec)
        head = mp.mpc(0)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            acc = mp.mpc(0)
            for x, w in nodes:
                acc += w * head_igd(mid + half * x)
            head += acc * half

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
        tail *= omega

        transform = (head + tail) / sq2pi
        area = 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)
        vol = area * transform / (1j ** d * abs(mp.mpf(kappa)) ** (mp.mpf(d) / 2))
        return mp.mpf(vol.real)
