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


def _ncdf(w):
    return mp.mpf(1) / 2 + mp.erf(w / mp.sqrt(2)) / 2


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


def _poly_pow(base, n, maxlen):
    out = [mp.mpf(1)] + [mp.mpf(0)] * (maxlen - 1)
    for _ in range(n):
        new = [mp.mpf(0)] * maxlen
        for i, bi in enumerate(out):
            if bi == 0:
                continue
            for j, cj in enumerate(base):
                if i + j < maxlen:
                    new[i + j] += bi * cj
        out = new
    return out


def ideal_volume_highprec(d, kappa=-1.0, dps=40, nser=30):
    """Volume of the ideal regular d-simplex at curvature kappa < 0, via mpmath.

    Returns an mpmath mpf.  Accuracy is limited by the working precision and
    the tail-series floor (far below 1e-25 at the default settings).
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if not kappa < 0:
        raise ValueError("ideal simplices require kappa < 0")
    with mp.workdps(dps):
        c = (1 + 1j) / mp.sqrt(d)      # CDF argument per unit y along the ray
        omega = mp.mpc(1, -1)
        om2 = omega * omega            # exactly -2i
        # head length: the tail series floor exp(-|c A|^2/2) must undercut the
        # target; |c|A = 10.5 puts it near 1e-24, enough for the ratio tests
        A = mp.mpf("10.5") / abs(c)
        kmax = int(mp.ceil(A * A / mp.pi))
        A = mp.sqrt(mp.pi * kmax)
        edges = [mp.sqrt(mp.pi * k) for k in range(kmax + 1)]

        def head_igd(y):
            p = _ncdf(c * y)
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
        base = _series_coeffs(nser)
        c2 = c * c

        def g_ladder(ms, n):
            # G(m) = int_A^inf y^-m exp(-Q y^2/2) dy, Q = om2 (d-n)/d
            if n == d:  # exactly zero frequency
                return {m: A ** (1 - m) / (m - 1) for m in ms}
            Q = om2 * mp.mpf(d - n) / d
            w = Q * A * A / 2
            return {m: mp.mpf(1) / 2 * (2 / Q) ** ((1 - mp.mpf(m)) / 2)
                       * mp.gammainc((1 - mp.mpf(m)) / 2, w) for m in ms}

        rho_p = -1 / (sq2pi * c)
        rho_m = 1 / (sq2pi * c)
        tail = mp.mpc(0)
        for n in range(0, d + 2):
            sn = _poly_pow(base, n, nser)
            G = g_ladder([n + 2 * K for K in range(nser)], n)
            term = mp.mpc(0)
            for K in range(nser):
                if sn[K] == 0:
                    continue
                term += sn[K] * c2 ** (-K) * G[n + 2 * K]
            coef = mp.binomial(d + 1, n) * rho_p ** n
            if n == d + 1:
                coef += rho_m ** n  # the reflected product is all-residual
            tail += coef * term
        tail *= omega

        transform = (head + tail) / sq2pi
        area = 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)
        vol = area * transform / (1j ** d * abs(mp.mpf(kappa)) ** (mp.mpf(d) / 2))
        return mp.mpf(vol.real)
