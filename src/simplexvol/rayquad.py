"""Improper ray integrals of the orthant transform's sum of two CDF products.

Evaluates integrals of the form

    I = lim_{B->inf} int_0^B [prod_j N(c_j y) + prod_j N(-c_j y)]
                             exp(-omega^2 y^2/2) omega dy,

c_j = mu_j sqrt(z) omega, where N is the analytically continued normal CDF:
the whole integrand of one orthant transform, so a transform is one ray
integral.  As N(-w) = 1 - N(w) holds exactly, one set of CDF values gives
both products, and equal multipliers share their values: a ray groups its
factors once, and every stage evaluates one CDF row (or erfcx row) per
distinct multiplier.  One routine integrates this integrand directly along
omega over a finite segment [0, L]: on an interior ray, where the integral
converges absolutely, the segment runs to a truncation point past which the
Gaussian factor leaves less than the tolerance.  On the boundary rays
arg(omega) = -+pi/4 the integral converges only conditionally; there the
same routine gives the head [0, SPLIT_A], and the tail beyond it is taken
in x = y^2.  Each CDF factor of the tail splits exactly into its limit
H(c) in {0, 1} plus a residual written with the scaled complementary error
function,

    N(c sqrt(x)) - H(c) = -(s/2) exp(-c^2 x/2) erfcx(s c sqrt(x/2)),  s = sign(Re c),

and N(-c sqrt(x)) = 1 - H(c) minus the same residual, so the tail integrand
is a finite sum over compositions (which factors contribute their residual),
each with a single exponential rate shared by both products.  Every
composition is integrated on its own rotated contour, where it decays
without oscillating, and the whole tail of a ray is one adaptive pass.  The
split is exact for every split point, so no asymptotic regime constrains it.
Everything is deterministic and pure.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cnormal import norm_cdf_array
from .errors import NearPoleError, SectorError
from .quadrature import adaptive_gk, oscillation_edges

#: where boundary-ray integrals split into head and stabilized tail
SPLIT_A = 4.0

#: default quadrature tolerance (see adaptive_gk)
DEFAULT_TOL = 1e-12

_MAX_PANELS = 512

_ARG_TOL = 1e-12

#: evaluation points with |1 + mu^2 z| below this are rejected as poles
_POLE_GUARD = 1e-8

#: at most this many compositions of one rotation class are summed at once
#: in the tail integrand
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RayIntegralProblem:
    """One ray integral of the sum of both CDF products (see module doc):
    multipliers, evaluation point and ray direction.

    The ray also carries the branch: a boundary ray, |arg(omega)| = pi/4
    within _ARG_TOL, is normalised to exactly 1 - i or 1 + i, and it must not
    face z across the real axis (Im z * Im omega > 0 raises ValueError).

    It also groups its factors once, for every stage: ``distinct`` holds the
    distinct multipliers in order of first appearance, ``counts`` how many
    factors each has, and ``index`` each factor's position in ``distinct``
    (so mus[j] == distinct[index[j]]).
    """

    mus: tuple
    z: complex
    omega: complex
    distinct: tuple = field(init=False, repr=False, compare=False)
    counts: tuple = field(init=False, repr=False, compare=False)
    index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mus = tuple(float(m) for m in self.mus)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "omega", complex(self.omega))
        if not mus or any(m == 0.0 for m in mus):
            raise ValueError("mus must be a nonempty tuple of nonzero reals")
        if self.omega == 0 or abs(cmath.phase(self.omega)) > math.pi / 4 + _ARG_TOL:
            raise ValueError("omega must satisfy 0 < |arg(omega)| <= pi/4")
        if self.on_boundary():
            object.__setattr__(self, "omega", 1 + 1j if self.omega.imag > 0 else 1 - 1j)
            if self.z.imag * self.omega.imag > 0:
                raise ValueError("the boundary ray 1 - i needs Im z >= 0, and 1 + i "
                                 "needs Im z <= 0")
        first = {}
        index = tuple(first.setdefault(m, len(first)) for m in mus)
        object.__setattr__(self, "distinct", tuple(first))
        object.__setattr__(self, "counts", tuple(index.count(g) for g in range(len(first))))
        object.__setattr__(self, "index", index)
        for m in self.distinct:
            if abs(1.0 + m * m * self.z) < _POLE_GUARD:
                raise NearPoleError(
                    f"1 + mu^2 z vanishes to within {_POLE_GUARD:g}: z is numerically "
                    f"at the excluded pole -1/mu^2 for mu={m}")

    def on_boundary(self):
        """Whether omega is a boundary ray, |arg(omega)| = pi/4."""
        return abs(abs(cmath.phase(self.omega)) - math.pi / 4) <= _ARG_TOL

    def branch_sqrt_z(self):
        """The principal sqrt(z), except on the cut (Im z = 0 of either sign,
        Re z < 0), where the ray picks the root: +i sqrt(r) for 1 - i and
        -i sqrt(r) for 1 + i."""
        root = cmath.sqrt(complex(self.z.real, abs(self.z.imag)))
        below = self.z.imag < 0 or (self.z.imag == 0 and self.omega.imag > 0)
        return root.conjugate() if below else root


@dataclass(frozen=True)
class IntegralResult:
    """A ray integral (or one of its parts, or an orthant transform): value,
    error bound and the number of integrand nodes evaluated."""

    value: complex
    abs_error_estimate: float
    evaluations: int


def _segment(p, L, tol, min_panels):
    """Integral of the symmetric CDF integrand along p.omega over y in [0, L].

    The integrand is (prod_j N(c_j y) + prod_j N(-c_j y)) exp(-omega^2 y^2/2)
    omega, both products from one CDF call, as N(-w) = 1 - N(w) exactly.  The
    call evaluates one row per distinct multiplier (p.distinct), and the rows
    are gathered back into factor order (p.index) before the products, so
    they equal the per-factor ones bit for bit.  Returns (value, error_bound,
    evaluations); the bound adds a few eps per CDF factor (not per distinct
    row) of each product and unit length for rounding.
    """
    cs = np.array(p.distinct) * p.branch_sqrt_z() * p.omega
    rows = np.array(p.index)
    om2 = p.omega * p.omega

    def f(y):
        vals = norm_cdf_array(cs[:, None] * y[None, :])[rows]
        return ((np.prod(vals, axis=0) + np.prod(1.0 - vals, axis=0))
                * np.exp(-0.5 * om2 * y * y) * p.omega)

    edges = oscillation_edges(L, abs(om2.imag), min_panels=min_panels)
    # the oscillation-paced initial grid must be allowed to refine locally
    vals, errs, neval = adaptive_gk(f, edges, tol,
                                    max_panels=max(_MAX_PANELS, 3 * len(edges)))
    return complex(vals[0]), float(errs[0]) + 2 * len(p.mus) * L * 2e-15, neval


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def head_integral(p, A, tol=DEFAULT_TOL):
    """Integral of both CDF products over the finite segment [0, A] of the ray."""
    return IntegralResult(*_segment(p, A, tol, 4))


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------

def tail_product_integral(p, X, tol=DEFAULT_TOL):
    """The whole tail of the ray p beyond x = X, in one pass.

    Requires X > 0 and p a boundary ray, omega = 1 - i or 1 + i, whose root
    of z (p.branch_sqrt_z) keeps |arg(s_j c_j)| <= pi/4 below; ibp_tail checks
    both.  In x = y^2 the tail is

        (omega/2) int_X^inf x^(-1/2) exp(-gamma_0 x)
                  [prod_j N(c_j sqrt(x)) + prod_j N(-c_j sqrt(x))] dx,

    with c_j = mu_j sqrt(z) omega and gamma_0 = omega^2/2.  Each factor is
    N(c_j sqrt(x)) = H_j + R_j with R_j = rho_j exp(-c_j^2 x/2)
    erfcx(s_j c_j sqrt(x/2)) (exact), s_j = sign(Re c_j), rho_j = -s_j/2 and
    H_j = (1 + s_j)/2, and N(-c_j sqrt(x)) = (1 - H_j) - R_j.  With equal
    multipliers grouped as the ray groups them (group g is p.distinct[g],
    with m_g = p.counts[g] factors), both products are sums over
    the same compositions n (how many factors of group g contribute R), each
    with one rate g_n = gamma_0 + sum_g n_g c_g^2/2, so

        tail = (omega/2) sum_n coef_n int_X^inf x^(-1/2) exp(-g_n x) prod_g erfcx_g^n_g dx,
        coef_n = prod_g C(m_g, n_g) rho_g^n_g
                 * [prod_g H_g^(m_g-n_g) + (-1)^|n| prod_g (1 - H_g)^(m_g-n_g)].

    The first product reaches only the compositions in which every group with
    H = 0 contributes all its residuals, the second only those in which every
    group with H = 1 does; both reach only the all-residual one, whose parts
    cancel when the number of factors is odd.  Compositions with coefficient
    exactly 0 are dropped.  A composition is integrated along
    x = X(1 + e^{ia}(e^v - 1)), a = -arg(g_n), where exp(-g_n x) decays
    monotonically and every erfcx argument keeps Re >= 0 (so |erfcx| <= 1); a
    rate within rounding of 0 is set to exactly 0, so that composition's
    algebraic tail is not cut at a spurious exponential scale.  Compositions
    sharing a rotation share their erfcx values (one row per group), and all
    of them are summed inside one adaptive pass over v, once per ray.  The same pass integrates the rounding bound, an eps-scaled
    sum_n |term_n|, as a second component.  Returns (value, error_bound,
    evaluations), the last being the pass's quadrature node count.
    """
    # SciPy is imported by the first ray, not by the package
    from scipy.special import erfcx

    omega = p.omega
    gc = np.array(p.distinct) * p.branch_sqrt_z() * omega
    sgn = np.where(gc.real > 0, 1.0, -1.0)
    rho = -0.5 * sgn
    H = 0.5 * (1.0 + sgn)
    sizes = np.array(p.counts)
    comps = np.array(list(itertools.product(*(range(m + 1) for m in sizes))), dtype=int)
    rest = sizes - comps
    # the limits' products are exactly 0 or 1, so the bracket is an exact integer
    coef = (np.prod(H ** rest, axis=1)
            + (-1.0) ** comps.sum(axis=1) * np.prod((1.0 - H) ** rest, axis=1))
    comps, coef = comps[coef != 0], coef[coef != 0]
    for g, m in enumerate(sizes):
        binom = np.array([math.comb(m, k) for k in range(m + 1)], dtype=float)
        coef *= binom[comps[:, g]] * rho[g] ** comps[:, g]
    half_c2 = 0.5 * gc * gc
    gamma = 0.5 * omega * omega
    rate = gamma + comps @ half_c2
    # rates that vanish in exact arithmetic (ideal vertices) keep rounding-level
    # parts; a rotation by their phase would cut an algebraic tail at e^(-eps x)
    band = 16.0 * np.finfo(float).eps * (abs(gamma) + comps @ np.abs(half_c2))
    rate[np.abs(rate) <= band] = 0.0
    rate = np.maximum(rate.real, 0.0) + 1j * rate.imag   # rounding below Re = 0
    alpha = -np.angle(rate)
    gX = np.abs(rate) * X
    # dx = X e^{ia} e^v dv and x^(-1/2) = X^(-1/2) base^(-1/2) on a contour
    pref = 0.5 * omega * coef * np.exp(1j * alpha - rate * X) * math.sqrt(X)
    # rounding: a few eps per factor of each term's actual size; a bound needs
    # no more than a factor of accuracy, so it is integrated already scaled
    apref = np.abs(pref) * (len(p.mus) * 2e-15)
    rotations, cls = np.unique(alpha, return_inverse=True)
    ea = np.exp(1j * rotations)
    arg_scale = sgn * gc * math.sqrt(0.5 * X)
    blocks = []
    for u in range(len(rotations)):
        rows = np.nonzero(cls == u)[0]
        blocks += [(u, rows[i:i + _BLOCK_ROWS]) for i in range(0, len(rows), _BLOCK_ROWS)]

    # truncation: (p-1) log((1+w)/sqrt(2)) + gX w >= 45 for the slowest rate,
    # p = 3/2 being the slowest algebraic decay of a composition of rate 0:
    # it has at least two residual factors, each erfcx ~ x^(-1/2), because a
    # single one would sit at the pole 1 + mu^2 z = 0 that RayIntegralProblem
    # rejects (the others decay exponentially)
    slowest = float(gX.min())

    def decayed(v):
        w = math.expm1(v)
        return 0.5 * math.log1p(w / math.sqrt(2)) + slowest * w

    vhi = 1.0
    while decayed(vhi) < 45.0:
        vhi *= 1.5
    edges = np.unique(np.concatenate([[0.0], np.geomspace(min(0.05, vhi / 8), vhi, 9)]))

    def f(v):
        w = np.expm1(v)
        base = 1.0 + ea[:, None] * w[None, :]                             # (U, n)
        log_e = np.log(erfcx(arg_scale[:, None, None] * np.sqrt(base)[None]))  # (G, U, n)
        shared = v - 0.5 * np.log(base)
        out = np.zeros((2, len(v)), dtype=complex)
        # in place, one block of one rotation class at a time, so the few
        # (rows, n) arrays alive at once stay small at any d
        for u, rows in blocks:
            term = comps[rows] @ log_e[:, u, :]
            term += shared[u]
            term -= gX[rows, None] * w
            np.exp(term, out=term)
            out[0] += pref[rows] @ term
            out[1] += apref[rows] @ np.abs(term)
        return out

    vals, errs, neval = adaptive_gk(f, edges, tol / 4, max_panels=1024)
    return complex(vals[0]), float(errs[0] + abs(vals[1])), neval


def ibp_tail(p, A, tol=DEFAULT_TOL):
    """Everything beyond y = A on a boundary ray: the composition sum of
    tail_product_integral.  Raises SectorError on an interior ray."""
    if not p.on_boundary():
        raise SectorError("the stabilized tail requires a boundary ray, "
                          "arg(omega) = -pi/4 or +pi/4")
    if A <= 0:
        raise ValueError("the stabilized tail requires a split point A > 0")
    return IntegralResult(*tail_product_integral(p, A * A, tol))


# ---------------------------------------------------------------------------
# assembled ray integral
# ---------------------------------------------------------------------------

def ray_integral(p, tol=DEFAULT_TOL):
    """The improper ray integral of the sum of both CDF products, via the path
    that p.on_boundary() picks: head and composition-sum tail on a boundary
    ray, the direct segment on an interior ray, which raises SectorError
    when the CDF arguments leave the bounded sectors (z on the cut, say)."""
    if p.on_boundary():
        head = head_integral(p, SPLIT_A, tol)
        tail = ibp_tail(p, SPLIT_A, tol)
        return IntegralResult(head.value + tail.value,
                              head.abs_error_estimate + tail.abs_error_estimate,
                              head.evaluations + tail.evaluations)

    # interior ray: absolutely convergent, direct truncated quadrature
    if abs(cmath.phase(p.branch_sqrt_z() * p.omega)) > math.pi / 4 + _ARG_TOL:
        raise SectorError("interior-ray evaluation requires the CDF arguments to "
                          "stay in the bounded sectors: |arg(sqrt(z)*omega)| <= pi/4")
    re_om2 = (p.omega * p.omega).real
    bound = 2.0 * 1.2 ** len(p.mus) * abs(p.omega)
    Y = math.sqrt(2.0 * (math.log(bound / min(tol, 1e-10)) + 5.0) / re_om2)
    value, err, neval = _segment(p, Y, tol, 8)
    trunc = bound * math.exp(-0.5 * re_om2 * Y * Y) / (re_om2 * Y)
    return IntegralResult(value, err + trunc, neval)
