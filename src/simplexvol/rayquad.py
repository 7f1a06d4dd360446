"""Improper ray integrals of products of complex normal CDFs.

Evaluates integrals of the form

    I = lim_{B->inf} int_0^B prod_j N(mu_j sqrt(z) omega y) exp(-omega^2 y^2/2) omega dy

where N is the analytically continued normal CDF.  On the boundary rays
arg(omega) = -+pi/4 the integral converges only conditionally; it is split at
y = A into a finite head (adaptive quadrature) plus a stabilized tail obtained
by one integration by parts in x = y^2.  The tail pieces are products of CDFs
times x^(-p) exp(-gamma x) with Re(gamma) >= 0; each CDF factor is within its
asymptotic regime there, so the products reduce to linear combinations of
incomplete-gamma-type integrals

    EE(q, gamma, X) = int_X^inf x^(-q) exp(-gamma x) dx,

evaluated on a rotated contour where the integrand decays monotonically.
Everything is deterministic and pure.
"""

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .cnormal import SQRT_2PI, norm_cdf_array
from .errors import CostLimitError, NearPoleError, SectorError
from .quadrature import adaptive_gk, oscillation_edges

#: |c_j| * A must reach this radius before the tail expansion of a CDF factor
#: is trusted (Poincare floor ~ sqrt(2) exp(-R^2/2) ~ 5e-16 at R = 8.5)
_R_ASYM = 8.5

#: terms kept in each factor's tail series (reaches the floor at |u| = 8.5)
_KMAX = 26

_ARG_TOL = 1e-12

#: largest oscillation-paced head grid a boundary ray may start from; the grid
#: has ~A**2/pi panels and A grows like |z|**(-1/2) as z -> 0, so without a cap
#: a point just below kappa = s runs for minutes and exhausts memory
_MAX_HEAD_PANELS = 4096


class HalfPlane(Enum):
    UPPER = "upper"
    LOWER = "lower"


class IntegralPath(Enum):
    DIRECT_RAY = "direct_ray"
    STABILIZED_IBP = "stabilized_ibp"


@dataclass(frozen=True)
class RayIntegralProblem:
    """One ray integral: multipliers, evaluation point, ray direction, branch."""

    mus: tuple
    z: complex
    omega: complex
    half_plane: HalfPlane = HalfPlane.UPPER

    def __post_init__(self):
        mus = tuple(float(m) for m in self.mus)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "omega", complex(self.omega))
        if not mus or any(m == 0.0 for m in mus):
            raise ValueError("mus must be a nonempty tuple of nonzero reals")
        if self.omega == 0 or abs(cmath.phase(self.omega)) > math.pi / 4 + _ARG_TOL:
            raise ValueError("omega must satisfy 0 < |arg(omega)| <= pi/4")
        if self.half_plane is HalfPlane.UPPER and self.z.imag < 0:
            raise ValueError("upper half-plane problems require Im z >= 0")
        if self.half_plane is HalfPlane.LOWER and self.z.imag > 0:
            raise ValueError("lower half-plane problems require Im z <= 0")
        for m in mus:
            if abs(self.z + 1.0 / (m * m)) == 0.0:
                raise NearPoleError(f"z coincides with the excluded pole -1/mu^2, mu={m}")

    def branch_sqrt_z(self):
        return branch_sqrt(self.z, self.half_plane)


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the head/tail split and the adaptive quadrature."""

    split_point_A: float = 6.0
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_subdivisions: int = 512

    def __post_init__(self):
        if self.split_point_A < 0:
            raise ValueError("split_point_A must be >= 0")
        for t in (self.rel_tol, self.abs_tol):
            if not (1e-14 <= t <= 1e-4):
                raise ValueError("tolerances must lie in [1e-14, 1e-4]")
        if self.max_subdivisions <= 0:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    abs_error_estimate: float
    evaluations: int
    path: IntegralPath


def branch_sqrt(z, half_plane):
    """Square root with the half-plane branch convention.

    UPPER: sqrt(r e^{i theta}) = sqrt(r) e^{i theta/2} with theta in [0, pi]
    (so sqrt(-r) = +i sqrt(r)); LOWER mirrors with theta in [-pi, 0].
    """
    zc = complex(z)
    r = abs(zc)
    if r == 0.0:
        return 0j
    th = math.atan2(zc.imag, zc.real)
    if zc.imag == 0.0:
        if half_plane is HalfPlane.UPPER:
            th = math.pi if zc.real < 0 else 0.0
        else:
            th = -math.pi if zc.real < 0 else 0.0
    return math.sqrt(r) * cmath.exp(0.5j * th)


def _canonical_omega(half_plane):
    return 1 - 1j if half_plane is HalfPlane.UPPER else 1 + 1j


def _coefficients(p):
    """c_j = mu_j * sqrt(z) * omega for each multiplier."""
    sq = p.branch_sqrt_z()
    return np.array([m * sq * p.omega for m in p.mus])


def _product_integrand(cs, omega):
    om2 = omega * omega
    csa = np.asarray(cs)

    def f(y):
        args = csa[:, None] * y[None, :]
        vals = norm_cdf_array(args)
        return np.prod(vals, axis=0) * np.exp(-0.5 * om2 * y * y) * omega

    return f


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def head_integral(p, cfg=DEFAULT_CONFIG):
    """Integral of the CDF product over the finite segment [0, A] of the ray."""
    A = cfg.split_point_A
    cs = _coefficients(p)
    f = _product_integrand(cs, p.omega)
    rate = abs((p.omega * p.omega).imag)
    edges = oscillation_edges(0.0, A, rate) if A > 0 else None
    # the oscillation-paced initial grid must be allowed to refine locally
    cap = cfg.max_subdivisions if edges is None else max(cfg.max_subdivisions,
                                                         3 * len(edges))
    vals, errs, neval = adaptive_gk(
        f, 0.0, A, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol,
        max_panels=cap, initial_edges=edges)
    return IntegralResult(complex(vals[0]), float(errs[0]) + len(cs) * A * 2e-15,
                          neval, IntegralPath.DIRECT_RAY)


# ---------------------------------------------------------------------------
# tail machinery
# ---------------------------------------------------------------------------

_DFACT = [1.0]
for _k in range(1, _KMAX + 2):
    _DFACT.append(_DFACT[-1] * (2 * _k - 1))

#: coefficients of S(u) = sum_k (-1)^k (2k-1)!! u^(-2k)
_S_BASE = np.array([(-1.0) ** k * _DFACT[k] for k in range(_KMAX)])

_S_POWERS = {1: _S_BASE}


def _s_power(n):
    """Coefficient array of S^n (in the variable u^(-2)), truncated at _KMAX."""
    if n == 0:
        out = np.zeros(_KMAX)
        out[0] = 1.0
        return out
    if n not in _S_POWERS:
        prev = _s_power(n - 1)
        out = np.convolve(prev, _S_BASE)[:_KMAX]
        _S_POWERS[n] = out
    return _S_POWERS[n]


def _ee_ladder(qs, gamma, X, tol):
    """EE(q, gamma, X) = int_X^inf x^(-q) exp(-gamma x) dx for each q (Re gamma >= 0).

    Evaluated on the rotated contour x = X(1 + e^{i a}(e^v - 1)) with
    a = -arg(gamma), where the integrand decays monotonically; this avoids
    both the oscillatory tail (gamma imaginary) and the cancellation of
    incomplete-gamma recurrences near gamma = 0.
    """
    qs = np.asarray(qs, dtype=float)
    g = complex(gamma)
    gX = abs(g) * X
    if gX < 1e-14:
        if np.any(qs <= 1.0):
            raise NearPoleError("zero-frequency tail integral with q <= 1 diverges")
        vals = X ** (1.0 - qs) / (qs - 1.0)
        return vals.astype(complex), np.abs(vals) * (gX + 1e-15)
    alpha = -cmath.phase(g)
    ea = cmath.exp(1j * alpha)
    qmin = float(qs.min())

    # truncation point: q*log((1+w)/sqrt(2)) + gX*w >= 45, w = e^v - 1
    def decayed(v):
        w = math.expm1(v)
        return max(qmin - 1.0, 0.5) * math.log1p(w / 1.4142135623730951) + gX * w

    vhi = 1.0
    while decayed(vhi) < 45.0 and vhi < 745.0:
        vhi *= 1.5
    edges = np.unique(np.concatenate([[0.0], np.geomspace(min(0.05, vhi / 8), vhi, 9)]))

    def f(v):
        ev = np.exp(v)
        w = np.expm1(v)
        base = 1.0 + ea * w
        lb = np.log(base)
        return np.exp(-np.multiply.outer(qs, lb) - gX * w) * ev

    vals, errs, _ = adaptive_gk(f, 0.0, vhi, abs_tol=tol, rel_tol=tol,
                                max_panels=1024, initial_edges=edges)
    pref = ea * cmath.exp(-g * X) * X ** (1.0 - qs)
    return pref * vals, np.abs(pref) * (errs + 1e-16)


def tail_product_integral(cs, p_exp, gamma, X, cfg=DEFAULT_CONFIG):
    """T = int_X^inf prod_j N(c_j sqrt(x)) x^(-p) exp(-gamma x) dx.

    Requires |c_j| sqrt(X) >= _R_ASYM for every factor and Re(gamma) >= 0.
    Each factor is expanded as N(c sqrt(x)) = H(c) + rho(c) x^(-1/2)
    exp(-c^2 x/2) S(c^2 x); the product is a finite sum over which factors
    contribute their residual, each term a single-frequency integral handled
    by the EE ladder.  Returns (value, error_bound, n_special_evals).
    """
    cs = list(cs)
    if any(abs(c) * math.sqrt(X) < _R_ASYM - 1e-9 for c in cs):
        raise SectorError("tail split point too small for the asymptotic regime; "
                          f"need |c|*sqrt(X) >= {_R_ASYM}")
    # group identical coefficients (regular simplices collapse to one group)
    groups = []
    for c in cs:
        for g in groups:
            if g[0] == c:
                g[1] += 1
                break
        else:
            groups.append([c, 1])

    tol = cfg.abs_tol / (4.0 * max(1, len(groups)) ** 2)
    total = 0.0 + 0.0j
    err = 0.0
    plateau = sum(math.sqrt(2) * math.exp(-0.5 * (abs(c) ** 2) * X) for c in cs)

    def compositions(idx):
        if idx == len(groups):
            yield []
            return
        c, mult = groups[idx]
        hs = 1 if c.real > 0 else 0
        lo = 0 if hs == 1 else mult
        for n in range(lo, mult + 1):
            for rest in compositions(idx + 1):
                yield [n] + rest

    for comp in compositions(0):
        ntot = sum(comp)
        coef = 1.0 + 0.0j
        series = np.zeros(_KMAX, dtype=complex)
        series[0] = 1.0
        g_shift = 0.0 + 0.0j
        for (c, mult), n in zip(groups, comp):
            coef *= math.comb(mult, n) * (-1.0 / (SQRT_2PI * c)) ** n
            if n:
                sc = _s_power(n) * (c * c) ** (-np.arange(_KMAX))
                series = np.convolve(series, sc)[:_KMAX]
                g_shift += n * c * c / 2.0
        gam = gamma + g_shift
        q0 = p_exp + 0.5 * ntot
        # trim the ladder where coefficients stop contributing
        scale = np.abs(coef) * np.abs(series) * X ** (-np.arange(_KMAX, dtype=float))
        keep = max(int(np.max(np.nonzero(scale > 1e-18 * max(scale.max(), 1e-300))[0],
                              initial=0)) + 1, 1)
        qs = q0 + np.arange(keep, dtype=float)
        vals, verrs = _ee_ladder(qs, gam, X, tol)
        term = coef * np.dot(series[:keep], vals)
        total += term
        err += float(np.abs(coef) * np.dot(np.abs(series[:keep]), verrs))
        err += float(np.abs(term)) * plateau * max(ntot, 1)
        # first omitted series order, if any coefficient was actually dropped
        if keep < _KMAX and series[keep] != 0.0:
            q_next = q0 + keep
            err += float(np.abs(coef) * np.abs(series[keep])
                         * X ** (1.0 - q_next) / max(q_next - 1.0, 0.5))
    return total, err


# ---------------------------------------------------------------------------
# integration-by-parts tail
# ---------------------------------------------------------------------------

def _ibp_pieces(p, cfg, B=None):
    """Boundary terms and tail integrals of the integration-by-parts identity.

    With B=None the three tail integrals run to infinity via the asymptotic
    expansion; with finite B they run to B^2 and everything is evaluated by
    direct quadrature (used for the finite-segment identity).
    """
    omega = _canonical_omega(p.half_plane)
    if abs(cmath.phase(p.omega) - cmath.phase(omega)) > _ARG_TOL:
        raise SectorError("stabilized tail requires arg(omega) = -pi/4 (upper) "
                          "or +pi/4 (lower)")
    A = cfg.split_point_A
    if A <= 0:
        raise ValueError("the stabilized tail requires split_point_A > 0")
    sqz = p.branch_sqrt_z()
    mus = np.asarray(p.mus)
    cs = mus * sqz * omega
    z = p.z
    om2 = omega * omega
    denons = 1.0 + mus ** 2 * z
    if np.min(np.abs(denons)) < 1e-8:
        raise NearPoleError("1 + mu^2 z vanishes to within 1e-8: evaluation point "
                            "is numerically at an excluded pole")

    X = A * A
    neval = 0

    def cdf_at(yy):
        nonlocal neval
        res = norm_cdf_array(cs * yy)
        neval += cs.size
        return res

    phiA = cdf_at(A)
    # boundary term at x = A^2 from the first integration by parts
    b1 = np.prod(phiA) / (A * omega) * cmath.exp(-0.5 * om2 * X)
    # boundary terms at x = A^2 from the second integration by parts
    prod_all = np.prod(phiA)
    b2 = 0.0 + 0.0j
    for l in range(len(mus)):
        pl = prod_all / phiA[l]
        pref = mus[l] * sqz / (SQRT_2PI * om2 * denons[l])
        b2 += pref * pl / X * cmath.exp(-0.5 * om2 * X * denons[l])

    err = float(len(cs)) * 2e-15 * (abs(b1) + abs(b2) + 1.0)

    if B is not None:
        phiB = cdf_at(B)
        XB = B * B
        b1 -= np.prod(phiB) / (B * omega) * cmath.exp(-0.5 * om2 * XB)
        for l in range(len(mus)):
            pl = np.prod(phiB) / phiB[l]
            pref = mus[l] * sqz / (SQRT_2PI * om2 * denons[l])
            b2 -= pref * pl / XB * cmath.exp(-0.5 * om2 * XB * denons[l])

    def tail_T(skip, p_exp, gam):
        nonlocal neval
        keep = [c for j, c in enumerate(cs) if j not in skip]
        if B is None:
            return tail_product_integral(keep, p_exp, gam, X, cfg)
        # finite upper limit: direct quadrature in x
        ka = np.asarray(keep)

        def f(x):
            nonlocal neval
            vals = norm_cdf_array(ka[:, None] * np.sqrt(x)[None, :]) if len(keep) \
                else np.ones((1, x.size))
            neval += x.size * max(len(keep), 0)
            return np.prod(vals, axis=0) * x ** (-p_exp) * np.exp(-gam * x)

        # place edges linearly in x at the oscillation period of exp(-gam x)
        per = 2 * math.pi / max(abs(complex(gam).imag), 1e-30)
        npan = max(4, min(4000, int((XB - X) / per * 2)))
        edges = np.linspace(X, XB, npan + 1)
        vals, errs, ne = adaptive_gk(f, X, XB, abs_tol=cfg.abs_tol,
                                     rel_tol=cfg.rel_tol,
                                     max_panels=max(cfg.max_subdivisions, 2 * npan),
                                     initial_edges=edges)
        return complex(vals[0]), float(errs[0])

    # term (single IBP): -(1/(2 omega)) * T(all, 3/2, om2/2)
    tv, te = tail_T((), 1.5, om2 / 2.0)
    t1 = -tv / (2.0 * omega)
    err += te / (2.0 * abs(omega))
    # second-IBP single-sum term
    t2 = 0.0 + 0.0j
    for l in range(len(mus)):
        pref = mus[l] * sqz / (SQRT_2PI * om2 * denons[l])
        tv, te = tail_T((l,), 2.0, om2 * denons[l] / 2.0)
        t2 -= pref * tv
        err += abs(pref) * te
    # second-IBP double-sum term, grouped over unordered pairs
    t3 = 0.0 + 0.0j
    for l1 in range(len(mus)):
        for l2 in range(l1 + 1, len(mus)):
            pref = (mus[l1] * mus[l2] * z / (4 * math.pi * omega)
                    * (1.0 / denons[l1] + 1.0 / denons[l2]))
            gam = om2 * (1.0 + (mus[l1] ** 2 + mus[l2] ** 2) * z) / 2.0
            tv, te = tail_T((l1, l2), 1.5, gam)
            t3 += pref * tv
            err += abs(pref) * te
    return b1 + b2 + t1 + t2 + t3, err, neval


def ibp_tail(p, cfg=DEFAULT_CONFIG):
    """Everything beyond y = A: boundary terms plus absolutely convergent tails."""
    val, err, neval = _ibp_pieces(p, cfg, B=None)
    return IntegralResult(val, err, neval, IntegralPath.STABILIZED_IBP)


def finite_segment_identity_residual(p, A, B, cfg=DEFAULT_CONFIG):
    """|direct integral over [A, B] - integration-by-parts form| (both finite).

    The two sides are equal as an identity for entire integrands; the residual
    measures quadrature error plus any implementation slip in the tail terms.
    """
    omega = _canonical_omega(p.half_plane)
    pn = replace(p, omega=omega)
    cfA = replace(cfg, split_point_A=A)
    rhs, rerr, _ = _ibp_pieces(pn, cfA, B=B)
    cs = _coefficients(pn)
    f = _product_integrand(cs, omega)
    edges = oscillation_edges(A, B, abs((omega * omega).imag))
    vals, errs, _ = adaptive_gk(f, A, B, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol,
                                max_panels=4 * cfg.max_subdivisions,
                                initial_edges=edges)
    return abs(complex(vals[0]) - rhs)


# ---------------------------------------------------------------------------
# assembled ray integral
# ---------------------------------------------------------------------------

def required_split_point(p):
    """Smallest head length A for which the stabilized tail is valid."""
    omega = _canonical_omega(p.half_plane)
    cmin = min(abs(m) * abs(p.branch_sqrt_z()) * abs(omega) for m in p.mus)
    return _R_ASYM / cmin


def ray_integral(p, cfg=DEFAULT_CONFIG):
    """The improper ray integral, via the path appropriate for arg(omega).

    Raises CostLimitError before any quadrature when a boundary ray's head
    grid would exceed _MAX_HEAD_PANELS panels.
    """
    th = cmath.phase(p.omega)
    boundary = abs(abs(th) - math.pi / 4) <= _ARG_TOL
    if boundary:
        want = -math.pi / 4 if p.half_plane is HalfPlane.UPPER else math.pi / 4
        if abs(th - want) > _ARG_TOL:
            raise SectorError("boundary-ray direction must match the half plane: "
                              "omega ~ 1-i (upper) or 1+i (lower)")
        pn = replace(p, omega=_canonical_omega(p.half_plane))
        A = max(cfg.split_point_A, required_split_point(pn))
        panels = abs((pn.omega * pn.omega).imag) * A * A / (2.0 * math.pi)
        if panels > _MAX_HEAD_PANELS:
            raise CostLimitError(
                f"head integral needs ~{panels:.0f} oscillation panels (limit "
                f"{_MAX_HEAD_PANELS}): the smallest |mu_j*sqrt(z)| stretches the "
                f"head to A = {A:.3g} (z = {p.z:.3g}; z near 0 means kappa just "
                "below s)")
        cfg_eff = replace(cfg, split_point_A=A)
        head = head_integral(pn, cfg_eff)
        tail = ibp_tail(pn, cfg_eff)
        return IntegralResult(head.value + tail.value,
                              head.abs_error_estimate + tail.abs_error_estimate,
                              head.evaluations + tail.evaluations,
                              IntegralPath.STABILIZED_IBP)

    # interior ray: absolutely convergent, direct truncated quadrature
    sqz = p.branch_sqrt_z()
    if abs(cmath.phase(sqz * p.omega)) > math.pi / 4 + _ARG_TOL:
        raise SectorError("interior-ray evaluation requires the CDF arguments to "
                          "stay in the bounded sectors: |arg(sqrt(z)*omega)| <= pi/4")
    re_om2 = (p.omega * p.omega).real
    d1 = len(p.mus)
    bound = 1.2 ** d1 * abs(p.omega)
    Y = math.sqrt(2.0 * (math.log(bound / min(cfg.abs_tol, 1e-10)) + 5.0) / re_om2)
    cs = _coefficients(p)
    f = _product_integrand(cs, p.omega)
    edges = oscillation_edges(0.0, Y, abs((p.omega * p.omega).imag), min_panels=8)
    vals, errs, neval = adaptive_gk(f, 0.0, Y, abs_tol=cfg.abs_tol,
                                    rel_tol=cfg.rel_tol,
                                    max_panels=cfg.max_subdivisions,
                                    initial_edges=edges)
    trunc = bound * math.exp(-0.5 * re_om2 * Y * Y) / (re_om2 * Y)
    return IntegralResult(complex(vals[0]), float(errs[0]) + trunc + d1 * Y * 2e-15,
                          neval, IntegralPath.DIRECT_RAY)
