"""Improper ray integrals of products of complex normal CDFs.

Evaluates integrals of the form

    I = lim_{B->inf} int_0^B prod_j N(mu_j sqrt(z) omega y) exp(-omega^2 y^2/2) omega dy

where N is the analytically continued normal CDF.  On the boundary rays
arg(omega) = -+pi/4 the integral converges only conditionally; it is split at
the fixed point y = SPLIT_A into a finite head (adaptive quadrature) plus a
stabilized tail obtained by one integration by parts in x = y^2.  The tail
pieces are products of CDFs times x^(-p) exp(-gamma x) with Re(gamma) >= 0.
Each CDF factor splits exactly into its limit H(c) in {0, 1} plus a residual
written with the scaled complementary error function,

    N(c sqrt(x)) - H(c) = -(s/2) exp(-c^2 x/2) erfcx(s c sqrt(x/2)),  s = sign(Re c),

so the product is a finite sum of terms with a single exponential rate each.
Every term is integrated on its own rotated contour, where it decays without
oscillating, and all terms of one tail integral share one adaptive pass.  The
split is exact for every split point, so no asymptotic regime constrains it.
Everything is deterministic and pure.
"""

import cmath
import collections
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.special import erfcx

from .cnormal import SQRT_2PI, norm_cdf_array
from .errors import NearPoleError, SectorError
from .quadrature import adaptive_gk, oscillation_edges

#: where boundary-ray integrals split into head and stabilized tail
SPLIT_A = 4.0

#: default absolute and relative quadrature tolerance
DEFAULT_TOL = 1e-12

_MAX_PANELS = 512

_ARG_TOL = 1e-12

#: evaluation points with |1 + mu^2 z| below this are rejected as poles
_POLE_GUARD = 1e-8


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
            if abs(1.0 + m * m * self.z) < _POLE_GUARD:
                raise NearPoleError(
                    f"1 + mu^2 z vanishes to within {_POLE_GUARD:g}: z is numerically "
                    f"at the excluded pole -1/mu^2 for mu={m}")

    def branch_sqrt_z(self):
        return branch_sqrt(self.z, self.half_plane)


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

def head_integral(p, A, tol=DEFAULT_TOL):
    """Integral of the CDF product over the finite segment [0, A] of the ray."""
    cs = _coefficients(p)
    f = _product_integrand(cs, p.omega)
    rate = abs((p.omega * p.omega).imag)
    edges = oscillation_edges(0.0, A, rate) if A > 0 else None
    # the oscillation-paced initial grid must be allowed to refine locally
    cap = _MAX_PANELS if edges is None else max(_MAX_PANELS, 3 * len(edges))
    vals, errs, neval = adaptive_gk(f, 0.0, A, abs_tol=tol, rel_tol=tol,
                                    max_panels=cap, initial_edges=edges)
    return IntegralResult(complex(vals[0]), float(errs[0]) + len(cs) * A * 2e-15,
                          neval, IntegralPath.DIRECT_RAY)


# ---------------------------------------------------------------------------
# tail integrals
# ---------------------------------------------------------------------------

def tail_product_integral(cs, p_exp, gamma, X, tol=DEFAULT_TOL):
    """T = int_X^inf prod_j N(c_j sqrt(x)) x^(-p) exp(-gamma x) dx.

    Requires X > 0, p > 1, Re(gamma) >= 0 and |arg(s_j c_j)| <= pi/4 with
    s_j = sign(Re c_j), as on the canonical boundary rays.  Each factor is
    H_j + R_j with R_j = -(s_j/2) exp(-c_j^2 x/2) erfcx(s_j c_j sqrt(x/2))
    (exact), and equal coefficients are grouped, so the product is a sum over
    compositions: how many factors of each group contribute R.  A composition
    with rate g = gamma + sum_j n_j c_j^2/2 is integrated along
    x = X(1 + e^{ia}(e^v - 1)), a = -arg(g), where exp(-g x) decays
    monotonically and every erfcx argument keeps Re >= 0 (so |erfcx| <= 1).
    Compositions sharing a rotation share their erfcx values, and all of them
    are summed inside one adaptive pass over v.  Returns (value, error_bound,
    evaluations), the last being the pass's quadrature node count.
    `_ibp_pieces` calls it once per distinct tail integral of a ray (3 for a
    regular simplex) and reuses the result for repeated inputs.
    """
    groups = collections.Counter(complex(c) for c in cs)
    gc = np.array(list(groups), dtype=complex)
    sgn = np.where(gc.real > 0, 1.0, -1.0)
    # a factor with limit H = 0 contributes its residual in every composition
    comps = np.array(list(itertools.product(
        *(range(m + 1) if s > 0 else (m,) for s, m in zip(sgn, groups.values())))),
        dtype=int)
    coef = np.ones(len(comps))
    for g, m in enumerate(groups.values()):
        binom = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
        coef *= binom[comps[:, g]] * (-0.5 * sgn[g]) ** comps[:, g]
    rate = gamma + comps @ (0.5 * gc * gc)
    rate = np.maximum(rate.real, 0.0) + 1j * rate.imag   # rounding below Re = 0
    alpha = -np.angle(rate)
    gX = np.abs(rate) * X
    pref = coef * np.exp(1j * alpha - rate * X) * X ** (1.0 - p_exp)
    rotations, cls = np.unique(alpha, return_inverse=True)
    ea = np.exp(1j * rotations)
    arg_scale = sgn * gc * math.sqrt(0.5 * X)
    members = [np.nonzero(cls == u)[0] for u in range(len(rotations))]

    # truncation: (p-1) log((1+w)/sqrt(2)) + gX w >= 45 for the slowest rate
    slowest = float(gX.min())

    def decayed(v):
        w = math.expm1(v)
        return max(p_exp - 1.0, 0.5) * math.log1p(w / math.sqrt(2)) + slowest * w

    vhi = 1.0
    while decayed(vhi) < 45.0:
        vhi *= 1.5
    edges = np.unique(np.concatenate([[0.0], np.geomspace(min(0.05, vhi / 8), vhi, 9)]))

    def f(v):
        w = np.expm1(v)
        base = 1.0 + ea[:, None] * w[None, :]                       # (U, n)
        log_e = np.log(erfcx(arg_scale[:, None, None]
                             * np.sqrt(base)[None, :, :]))           # (G, U, n)
        expo = v - gX[:, None] * w - p_exp * np.log(base)[cls]
        for u, rows in enumerate(members):
            expo[rows] += comps[rows] @ log_e[:, u, :]
        return pref @ np.exp(expo)

    vals, errs, neval = adaptive_gk(f, 0.0, vhi, abs_tol=tol / 4, rel_tol=tol / 4,
                                    max_panels=1024, initial_edges=edges)
    # |integrand| <= |pref| 2^(p/2) (1+w)^(-p) per composition, in dw = e^v dv
    size = float(np.abs(pref).sum()) * 2.0 ** (0.5 * p_exp) / (p_exp - 1.0)
    return complex(vals[0]), float(errs[0]) + max(len(cs), 1) * 2e-15 * size, neval


# ---------------------------------------------------------------------------
# integration-by-parts tail
# ---------------------------------------------------------------------------

def _ibp_pieces(p, A, tol):
    """Boundary terms at y = A plus the three tail integrals of the identity.

    The identity names 1 + (d+1) + C(d+1, 2) tail integrals, but equal
    multipliers make many of them the same integral: each distinct one, keyed
    on its exact inputs, is computed once per call (3 per ray for a regular
    simplex, at any d).  The sums then add the same numbers in the same order,
    so the value does not depend on the reuse.  Returns (value, error,
    evaluations): the boundary CDF points plus the nodes of the tail passes run.
    """
    omega = _canonical_omega(p.half_plane)
    if abs(cmath.phase(p.omega) - cmath.phase(omega)) > _ARG_TOL:
        raise SectorError("stabilized tail requires arg(omega) = -pi/4 (upper) "
                          "or +pi/4 (lower)")
    if A <= 0:
        raise ValueError("the stabilized tail requires a split point A > 0")
    sqz = p.branch_sqrt_z()
    mus = np.asarray(p.mus)
    cs = mus * sqz * omega
    z = p.z
    om2 = omega * omega
    denons = 1.0 + mus ** 2 * z
    X = A * A

    phiA = norm_cdf_array(cs * A)
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

    passes = {}

    def tail_T(skip, p_exp, gam):
        keep = tuple(c for j, c in enumerate(cs) if j not in skip)
        key = (keep, p_exp, gam)
        if key not in passes:
            passes[key] = tail_product_integral(keep, p_exp, gam, X, tol)
        return passes[key][:2]

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
    return b1 + b2 + t1 + t2 + t3, err, len(cs) + sum(r[2] for r in passes.values())


def ibp_tail(p, A, tol=DEFAULT_TOL):
    """Everything beyond y = A: boundary terms plus absolutely convergent tails."""
    val, err, neval = _ibp_pieces(p, A, tol)
    return IntegralResult(val, err, neval, IntegralPath.STABILIZED_IBP)


# ---------------------------------------------------------------------------
# assembled ray integral
# ---------------------------------------------------------------------------

def ray_integral(p, tol=DEFAULT_TOL):
    """The improper ray integral, via the path appropriate for arg(omega)."""
    th = cmath.phase(p.omega)
    if abs(abs(th) - math.pi / 4) <= _ARG_TOL:
        # ibp_tail raises SectorError if omega is the other half plane's ray
        head = head_integral(replace(p, omega=_canonical_omega(p.half_plane)),
                             SPLIT_A, tol)
        tail = ibp_tail(p, SPLIT_A, tol)
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
    Y = math.sqrt(2.0 * (math.log(bound / min(tol, 1e-10)) + 5.0) / re_om2)
    cs = _coefficients(p)
    f = _product_integrand(cs, p.omega)
    edges = oscillation_edges(0.0, Y, abs((p.omega * p.omega).imag), min_panels=8)
    vals, errs, neval = adaptive_gk(f, 0.0, Y, abs_tol=tol, rel_tol=tol,
                                    max_panels=_MAX_PANELS, initial_edges=edges)
    trunc = bound * math.exp(-0.5 * re_om2 * Y * Y) / (re_om2 * Y)
    return IntegralResult(complex(vals[0]), float(errs[0]) + trunc + d1 * Y * 2e-15,
                          neval, IntegralPath.DIRECT_RAY)
