"""Volumes of orthocentric and regular simplices in constant-curvature spaces.

The volume of an orthocentric simplex Q with parameters tau_0..tau_d in the
model of curvature kappa is

    Vol = omega_{d+1} * P(kappa - s) / (i^d |kappa|^{d/2})     (kappa < 0)
    Vol = omega_{d+1} * P(kappa - s) / kappa^{d/2}             (kappa > 0)

where s = sum tau_j^2, omega_{d+1} is the surface area of the unit d-sphere,
and P is the analytic continuation of the Gaussian orthant probability

    P(z) = Prob[xi_j <= (tau_j/s) sqrt(z) xi  for all j]
         = (2 pi)^{-1/2} int_0^{ray} ( prod_j N(mu_j sqrt(z) x)
                                     + prod_j N(-mu_j sqrt(z) x) ) e^{-x^2/2} dx

with mu_j = tau_j/s, taken along the ray 1-i with sqrt(-r) = +i sqrt(r)
(upper branch) or along 1+i with the mirrored convention (lower branch).
The exact volume is real; the imaginary residual of the assembled expression
is reported as a numerical health diagnostic.

A regular simplex is the equal-tau case: regular_volume turns (d, side
length, kappa) into OrthocentricParams with geometry.regular_parameters,
which is where those three inputs are checked.  At kappa < 0 an
upper-branch request takes a second, cancellation-free path, at every d
and whatever its groups of equal taus: the curvature power series of its
Klein-model volume.  Every term is positive, and the terms shrink like
rho^k with rho = (-kappa/a)/tau_min^2, a = 1 - kappa/s (for a regular
simplex, rho = 1 - 1/cosh(side length * sqrt(-kappa))).  Term k is rho^k
T_k, and the table T (_series_table) depends on the request's groups of
equal taus only, on d alone for a regular simplex: each group runs one
recurrence, and the groups merge with positive weights.  One evaluator,
_series_volumes, takes all the rows of one table at once, and a single
request is its one-row case.  Where a proven tail bound falls below
rounding within T_0.._IDEAL_K, the sum stops there.  Elsewhere it
sums the first _IDEAL_K + 1 terms and adds the closed-form tail: T_k is
sum_g sigma_g^k k^(-h) times a power series in 1/k, h = (d + 1)/2, whose
coefficients come from the table's first entries (Bender's theorem;
_tail_matrix), so the tail is a sum of Lerch transcendents (_lerch_tails),
and at rho = 1 the same evaluator gives Hurwitz zetas, its lam = -ln rho
= 0 case.  rho = 1 is a request with kappa at or below kappa0 (as
_checked_kappa decides, not by rho, which rounding puts a few ulp either
side of 1 there), where the tau_min vertex is ideal: the ideal regular
simplex, and any other simplex at its kappa0 (regular_parameters rounds
the taus so that this holds for side length inf and for no finite one); a
finite side whose rho rounds to 1 or past it is held just below.  A series
result has branch SERIES and residual_imag 0.  Every other request (kappa
> 0 and the lower branch) takes the ray, the only path that loads SciPy.

volumes(requests) is the one entry point: it checks and routes every
request, reads one table per set of groups of equal taus for all of its
series rows, runs their stopping tests in one pass and expands the
closed-form tail at most once per table, and returns each result, or the
SimplexVolError its request raised, in order.  What a table holds that depends on the groups'
multiplicities only (every entry, for a regular simplex) is built on
first use and kept for the process, at most _PLANS plans (_table_plan),
and so is the closed-form tail's matrix of each h (_tail_matrix), at
most _PLANS of them: the engine's only kept state.  They are the same
doubles whatever was asked before, so no result depends on them being
kept.
volume(req) is volumes([req]) with the error raised.  Whatever the path, a
result whose error bar is not below its magnitude, or a negative volume, is
refused with ToleranceError, and one whose magnitude and bar are both
below the least normal double with OverflowRegionError (_certified).
"""

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .cnormal import SQRT_2PI
from .errors import (
    GeometryDomainError, OverflowRegionError, SimplexVolError, ToleranceError,
)
from .geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, regular_parameters,
    sphere_surface_area,
)
from .rayquad import IntegralResult, RayIntegralProblem, ray_integral

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

#: the unit roundoff of a double
_U = 2.0 ** -53

#: the series sums at most T_0.._IDEAL_K; where its tail bound does not fall
#: below rounding within them, it adds the closed-form tail of _TAIL_J
#: powers of 1/k (_tail_matrix)
_IDEAL_K = 256
_TAIL_J = 8
#: the table length that the doubling scan's cap (8 _SCALE_K) and the
#: merges' powers of two are set for; every table entry's bits depend on it,
#: so it is a constant of its own, not _IDEAL_K
_SCALE_K = 1024

#: the lengths _series_table builds its plans to (_table_plan): a table of
#: L entries reads the first that is at least L, and a longer one (only
#: tests build those) its own length
_PLAN_LENGTHS = (16, 32, 64, 128, _IDEAL_K + 1)
#: the most plans kept at once; the least recently used goes first
_PLANS = 32

#: B_2j/(2j)! for j = 1..5, the Euler-Maclaurin corrections of _lerch_tails,
#: whose lam = 0 case (rho = 1) is the Hurwitz zeta
_EM_COEFFS = (1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600, 1.0 / 47900160)

#: Euler's constant, the continued fraction's cap on steps and the start
#: value Lentz's method needs, for _expint
_EULER_GAMMA = 0.5772156649015329
_CF_STEPS = 100
_TINY = 1e-300

#: k = 0.._IDEAL_K, the indices of every series window, shared read-only
_KS = np.arange(_IDEAL_K + 1.0)
_KS.flags.writeable = False


class Branch(Enum):
    UPPER_RAY = "upper_ray"
    LOWER_RAY = "lower_ray"
    REAL_AXIS = "real_axis"
    SERIES = "series"


@dataclass(frozen=True)
class VolumeRequest:
    """What to compute: a geometry, a curvature, and an accuracy target.

    geometry is the OrthocentricParams of the simplex (a regular simplex is
    the equal-tau case; regular_parameters builds it from a side length).
    kappa is any finite curvature >= kappa0; kappa = 0 gives the Euclidean
    volume in closed form, and a non-finite kappa raises GeometryDomainError.
    tolerance is absolute on the ray's orthant-transform values, which
    surfaces as roughly 1e2*tolerance relative on volumes; the curvature
    series does not read it.  use_lower_branch evaluates the transform on
    the mirrored ray 1 + i; such a request always takes the ray, also where
    the series would take it.
    """

    geometry: OrthocentricParams
    kappa: float
    tolerance: float = 1e-10
    use_lower_branch: bool = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.kappa):
            raise GeometryDomainError(f"kappa must be finite; got {self.kappa}")
        object.__setattr__(self, "kappa", float(self.kappa))


@dataclass(frozen=True)
class VolumeResult:
    volume: float
    abs_error: float
    residual_imag: float
    branch: Branch
    evaluations: int = 0


def _quad_tol(tolerance):
    """Quadrature tolerance for the one ray integral of a transform to tolerance."""
    return min(max(tolerance / 8.0, 1e-14), 1e-4)


def orthant_probability(mus, z, tol=_quad_tol(VolumeRequest.tolerance),
                        use_lower_branch=False):
    """Analytic continuation of the Gaussian orthant probability (see module doc).

    For real z > 0 this is the plain real-axis integral.  Elsewhere it is
    evaluated on the boundary ray 1 - i (upper branch, Im z >= 0), or on
    1 + i (lower branch, Im z <= 0) if use_lower_branch is set; on the cut
    the ray picks the root of z (see RayIntegralProblem.branch_sqrt_z).  The
    inputs are validated by RayIntegralProblem, which raises NearPoleError
    within 1e-8 of the excluded points z = -1/mu_j^2.  Returns the ray
    integral's IntegralResult scaled by (2 pi)^(-1/2); at z = 0 it is the
    exact 2^(-len(mus)) with no evaluations.
    """
    z = complex(z)
    omega = (1.0 if z.imag == 0 and z.real > 0 else
             1 + 1j if use_lower_branch else 1 - 1j)
    p = RayIntegralProblem(mus, z, omega)
    if z == 0:
        return IntegralResult(complex(2.0 ** (-len(p.mus))), 1e-16, 0)
    r = ray_integral(p, tol)
    return IntegralResult(r.value / SQRT_2PI, r.abs_error_estimate / SQRT_2PI,
                          r.evaluations)


def _series_table(n, K, groups):
    """T_k = [t^k]prod_j F(sigma_j t) / ((n+1)/2)_k for k = 0..K, F(t) =
    sum_i (1/2)_i t^i, over the n factors of groups, whose pairs (sigma_g,
    m_g) give m_g factors F(sigma_g t) each (_series_groups; a regular
    simplex is the one group (1, n)): the curvature series' terms with rho
    factored out, term_k = rho^k T_k.

    F satisfies F - 1 = t(t d/dt + 1/2)F, so c(m)_k = [t^k]F^m / (m/2)_k obeys
    the positive recurrence

        c(m)_k = c(m)_{k-1}/m + r(m)_k c(m-1)_k,   r(m)_k = ((m-1)/2)_k / (m/2)_k,

    from c(0) = [k = 0].  Stage 1 is c(1)_k = 1 exactly; each later stage m
    is a first-order filter of ratio 1/m, run as a doubling scan.  Every r
    is a running product of exact neighbour ratios, and every value is
    positive and at most 1.  The scan's shifts are s = 1, 2, 4, ... up to the
    first with m^-s <= u (1/2)_C/(m/2)_C, C = 8 _SCALE_K: what the shifts
    left out add to entry k is m^-s c(m)_{k-s}, and as c(m) lies between
    (1/2)_k/(m/2)_k and 1 that is at most u of the entry for every k <= C,
    32 times the longest table the engine reads.  r is built for the
    stages read only: r(2)..r(max m_g), and r(n+1).

    Each group's row c(m_g) is one row of an array, and every row but the
    first (sigma = 1) takes its factor sigma_g^k, all in one power.  The
    rows then merge pairwise into [t^k]prod_j F(sigma_j t) / (n/2)_k, one
    level of the merge tree at a time (_merge_groups), rows 0 and 1, 2 and
    3, ..., with an odd last row carried up unchanged.  The m_g fix every
    merge's alpha and beta, so the tree and the Pochhammer rows of all its
    merges (_merge_factors) are planned from them alone.  Each entry is the
    same double as in a fold that merges two parts at a time in that order.
    T_k is the merged row times r(n+1)_k; with one group, T_k = c(n)_k
    r(n+1)_k.  No step reads an entry past k to make entry k, so an entry's
    bits are the same whatever length the table is built to.

    Everything but sigma_g^k and the merges depends on the m_g and the
    length only: the r rows, the staged rows, the tree and its x, y and z
    rows, and for one group the whole table.  _table_plan builds those once
    and keeps them; each call reads their first K + 1 entries and runs only
    the powers, the convolutions and the quotients by z.  A one-group table
    is a read-only view of the kept one.
    """
    L = K + 1
    plan = _table_plan(n, tuple(m for _, m in groups),
                       next((p for p in _PLAN_LENGTHS if p >= L), L))
    if len(groups) == 1:
        return plan.last[:L]
    parts = plan.stages[:, :L].copy()
    sigmas = np.array([sigma for sigma, _ in groups[1:]])[:, None]
    parts[1:] *= np.power(sigmas, np.arange(K + 1.0))
    for M, x, y, z in plan.levels:
        merged = _merge_groups(parts[0:2 * M:2], parts[1:2 * M:2], x[:, :L], y[:, :L], z[:, :L])
        parts = np.concatenate((merged, parts[2 * M:])) if 2 * M < len(parts) else merged
    return np.multiply(parts[0], plan.last[:L], out=parts[0])


class _TablePlan(NamedTuple):
    """The rows of a _series_table that depend on its groups' multiplicities
    and its length only (_table_plan)."""

    #: r(n+1), which the merged row is multiplied by; for one group, the
    #: whole table c(n) r(n+1)
    last: np.ndarray
    #: the staged row c(m_g) of each group, in group order
    stages: np.ndarray
    #: per level of the merge tree, its number of merges M and their x, y and
    #: z rows (_merge_factors)
    levels: tuple


@functools.lru_cache(maxsize=_PLANS)
def _table_plan(n, ms, L):
    """The _TablePlan of the tables of n factors in groups of ms factors each,
    in group order, to L entries.  Built on the first call for (ms, L), and
    kept while it is among the _PLANS most recently used; every array in it
    is read-only, as every caller reads the same one.  Two threads that
    miss at once each build it, to the same doubles.  L is one of
    _PLAN_LENGTHS, or a length past them, which only tests ask for; a plan's
    entries are the same doubles whatever its length (_series_table), so no
    result depends on which plans are kept or on the order of the calls."""
    k2 = 2.0 * np.arange(1, L)
    stage_ms = np.array([*range(1, max(ms)), n], dtype=float)[:, None]
    r = np.ones((len(stage_ms), L))  # row m - 2 holds r(m), the last row r(n + 1)
    np.cumprod((k2 + (stage_ms - 2.0)) / (k2 + (stage_ms - 1.0)), axis=1, out=r[:, 1:])
    C = 8 * _SCALE_K
    t = np.ones(L)  # c(1), then each stage in turn
    staged = [t.copy()]  # c(m) at m - 1
    for m in range(2, max(ms) + 1):
        t *= r[m - 2]  # c(m - 1) r(m)
        # the log of u (1/2)_C / (m/2)_C, u times the least c(m)_k over k <= C
        log_stop = (math.log(_U) + math.lgamma(C + 0.5) - math.lgamma(0.5)
                    + math.lgamma(m / 2.0) - math.lgamma(C + m / 2.0))
        s = 1
        while s < L and -s * math.log(m) > log_stop:
            t[s:] += float(m) ** -s * t[:-s]  # NumPy buffers the overlap
            s *= 2
        staged.append(t.copy())
    if len(ms) == 1:
        t *= r[-1]
        return _read_only(_TablePlan(t, None, ()))
    # the merge tree, level by level: the (alpha, beta) of each of its merges
    levels, level = [], [m / 2.0 for m in ms]
    while len(level) > 1:
        merges = list(zip(level[0::2], level[1::2]))
        levels.append((len(merges), *_read_only(_merge_factors(merges, L))))
        level = [a + b for a, b in merges] + level[2 * len(merges):]
    return _read_only(_TablePlan(r[-1].copy(), np.array([staged[m - 1] for m in ms]),
                                 tuple(levels)))


@functools.lru_cache(maxsize=_PLANS)
def _tail_matrix(h):
    """The (J + 1) x (J + 1) matrix B, J = _TAIL_J, that turns a table's
    first entries into its closed-form tail (_series_volumes): a group
    (sigma, m) of the table T of n = 2h factors contributes to T_k

        sigma^k Gamma(h + 1/2)/Gamma(1/2) sum_(s <= J) c_s k^(-h-s),
        c_s = m sum_(i <= s) sigma^-i T_i B_is,

    to within the power past J.  By Bender's theorem (J. London Math. Soc.
    (2) 9, 1975) on the product P(t) = prod_j F(sigma_j t), whose factors'
    coefficients grow factorially, the group's share of T_k is sigma^k
    sum_i d_i (1/2)_(k-i)/(h + 1/2)_k, with d_i = m [u^i] P(u/sigma)/F(u)
    and [u^i]P(u/sigma) = sigma^-i T_i (h + 1/2)_i.  Row l of the
    expansion, (1/2)_(k-l)/(h + 1/2)_k = Gamma(h + 1/2)/Gamma(1/2) sum_s
    G_ls k^(-h-s) (DLMF 5.11.13), starts at l = 0 from the exponential of
    ln Gamma(k + 1/2) - ln Gamma(k + h + 1/2) + h ln k = sum_(m >= 1)
    (-1)^(m+1) (B_(m+1)(1/2) - B_(m+1)(h + 1/2))/(m (m + 1) k^m) (DLMF
    5.11.8, B_m the Bernoulli polynomials), and row l is row l - 1 times
    1/(k - l + 1/2) = sum_r (l - 1/2)^r k^(-r-1).  The division by F is
    back-substitution: b_i = sum_(l >= i) [u^(l-i)](1/F) G_l solves G_i =
    sum_j (1/2)_j b_(i+j), and B_is = (h + 1/2)_i b_is.  B depends on h
    only: it is built on the first call for h and kept, read-only, while it
    is among the _PLANS most recently used."""
    J = _TAIL_J
    bern = [1.0, -0.5] + [0.0] * J  # B_0..B_(J+1), B_2j from B_2j/(2j)!
    bern[2::2] = [c * math.factorial(2 * j) for j, c in enumerate(_EM_COEFFS[:J // 2], 1)]
    # ln Gamma(k + 1/2) - ln Gamma(k + h + 1/2) + h ln k = sum_m logs_m k^-m
    logs = [(-1) ** (m + 1) / (m * (m + 1.0)) * sum(
        math.comb(m + 1, i) * bern[i] * (0.5 ** (m + 1 - i) - (h + 0.5) ** (m + 1 - i))
        for i in range(m + 2)) for m in range(1, J + 1)]
    g = [1.0]  # its exponential, row 0
    for j in range(1, J + 1):
        g.append(sum(m * logs[m - 1] * g[j - m] for m in range(1, j + 1)) / j)
    # row l: G_ls, as (1/2)_(k-l) = (1/2)_(k-l+1)/(k - l + 1/2)
    rows = [np.array(g)]
    for l in range(1, J + 1):
        rows.append(np.convolve(rows[-1], np.append(0.0, (l - 0.5) ** np.arange(J)))[:J + 1])
    # b_i = sum_(l >= i) [u^(l-i)](1/F) G_l solves G_i = sum_j (1/2)_j b_(i+j)
    b, half = np.array(rows), np.cumprod(np.arange(J) + 0.5)
    for i in range(J - 1, -1, -1):
        b[i] -= half[:J - i] @ b[i + 1:]
    B = np.cumprod(np.append(1.0, h + 0.5 + np.arange(J)))[:, None] * b  # (h + 1/2)_i b_i
    B.flags.writeable = False
    return B


def _read_only(arrays):
    """arrays, with each of its NumPy arrays made read-only."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


def _merge_factors(merges, L):
    """The rows x, y and z of _merge_groups, L entries each, of the merges
    (alpha, beta) in merges (one level of the tree), all from one cumprod:
    row i of each is the running product of (v + j)/c, v the alpha, the
    beta or their sum of merge i, and c its power of two."""
    vs, cs = [], []
    for alpha, beta in merges:
        vs += (alpha, beta, alpha + beta)
        cs += 3 * [2.0 ** round((math.lgamma(alpha + beta + _SCALE_K) - math.lgamma(alpha + beta))
                                / (_SCALE_K * math.log(2.0)))]
    q = np.ones((len(vs), L))
    np.cumprod((np.array(vs)[:, None] + np.arange(L - 1.0)) / np.array(cs)[:, None],
               axis=1, out=q[:, 1:])
    return q[0::3], q[1::3], q[2::3]


def _merge_groups(a, b, x, y, z):
    """The normalised coefficients of the products of pairs of groups: one
    level of _series_table's merge tree, whose merge i takes row i of a and
    of b, and row i of the rows x, y and z of its alpha and beta
    (_merge_factors).

    a_k = [t^k]A / (alpha)_k and b_k = [t^k]B / (beta)_k, alpha and beta half
    the two groups' factor counts, give p_k = [t^k]AB / (alpha + beta)_k =
    sum_(i <= k) W_ki a_i b_(k-i) with the weights

        W_ki = (alpha)_i (beta)_(k-i) / (alpha + beta)_k,

    each positive and at most 1 (by Vandermonde, sum_i C(k, i) W_ki = 1).
    Split into its three Pochhammer factors, the sum is one convolution:
    with x_i = (alpha)_i c^-i, y_j = (beta)_j c^-j and z_k = (alpha + beta)_k
    c^-k, each a running product of (v + j)/c, p_k = sum_i (x_i a_i)(y_(k-i)
    b_(k-i)) / z_k, and the powers of c cancel.  c is the power of two
    nearest the geometric mean of alpha + beta + j over j < _SCALE_K, from
    lgamma: every division by it is exact, and it depends on alpha + beta
    only, so no entry's bits depend on the table's length.  The level makes
    x a and y b in one product each over all its rows, one np.convolve per
    merge, and one quotient by z; a merge's entries do not depend on the
    other rows.

    The range.  The terms that carry p_k are within a factor k + 1 of
    p_k z_k.  c holds z_(_SCALE_K) within 2^(+-_SCALE_K/2) of 1, and z_k
    stays between 1e-221 and 1e278 for alpha + beta <= 600 and k <= 1,300,
    so those terms stay normal wherever p_k z_k does.  Where it does not,
    as where both inputs fall like sigma^k (a merge without the tau_min
    group), the entry keeps less, but T_k reads it only times far larger
    ones: against a 30-digit per-factor convolution, the tables of the
    State taus (default_rng(d).uniform(0.6, 1.8, d + 1)) at d = 2, 3, 8
    and 14, and of random taus up to d = 30 with sigma down to 0.005, are
    within 5.6e-15 at every k <= 1,100.

    Both inputs of np.convolve take a trailing zero: it sums its one
    full-overlap entry in another order than the partial ones, and with
    the zero every entry kept is a partial one, whatever the length.
    Entry k, where its leading products x_i a_i y_(k-i) b_(k-i) stay
    normal, rounds by at most (3k + 4)u: x_i by i u, y_(k-i) by (k - i)u,
    z_k by k u, the three products and the quotient by 4, and the sum by
    k.  The count does not hold where they fall below the least normal
    double: with a = 0.6^k and b = 0.3^k at alpha, beta <= 43, the entries
    between about 1e-116 and 1e-300 are off by up to 100%.  As under The
    range, T_k reads such entries only beside far larger ones.
    """
    M, L = a.shape
    xa, yb = np.zeros((2, M, L + 1))  # the trailing zero
    np.multiply(x, a, out=xa[:, :L])
    np.multiply(y, b, out=yb[:, :L])
    p = np.empty((M, L))
    for i in range(M):
        p[i] = np.convolve(xa[i], yb[i])[:L]
    p /= z
    return p


def _series_groups(taus):
    """(sigma_g, m_g) for each group of m_g equal taus, in increasing tau, with
    sigma_g = tau_min^2/tau_g^2, exactly 1 for the first group."""
    ts = sorted(taus)
    t2 = ts[0] * ts[0]
    return tuple((t2 / (t * t), len(list(run))) for t, run in groupby(ts))


def _series_terms(rho, K, table):
    """term_k = rho^k T_k for k = 0..K, with T from table, a _series_table of
    at least K + 1 entries; rho a float, or a column of them for one row of
    terms each."""
    return np.power(rho, np.arange(K + 1.0)) * table[:K + 1]


def _series_guess(n, rho):
    """A first table length: where rho^K times the terms' large-k size
    n Gamma(h + 1/2)/sqrt(pi) K^(-h) falls below eps (1 - rho), with 1 -
    rho read as at least u (rho = 1 gives a length past every window)."""
    h = n / 2.0
    log_rho = math.log(max(rho, 1e-300))
    target = (math.log(_U * max(1.0 - rho, _U)) - math.log(n / math.sqrt(math.pi))
              - math.lgamma(h + 0.5))
    # Newton on the convex, decreasing K log(rho) - h log(K + 1) - target,
    # from K = 0, approaches its root from below
    K = 0.0
    for _ in range(6):
        K -= (K * log_rho - h * math.log1p(K) - target) / (log_rho - h / (K + 1.0))
    # and past where the tail bound's ratio rho (h + K)/(K + 1) drops below 1
    return int(max(1.1 * K, 1.25 * (rho * h - 1.0) / max(1.0 - rho, _U))) + 8


def _series_ratio(params, kappa):
    """The term ratio rho = -(kappa/a)/tau_min^2, a = 1 - kappa/s, of the
    simplex params at kappa0 < kappa < 0.  A finite side's rho can round to 1
    or past it: it is held below 1."""
    a = 1.0 - kappa / params.s
    t = min(params.taus)
    return min(-(kappa / a) / (t * t), math.nextafter(1.0, 0.0))


def _series_prefactor(params, kappa, rho):
    """The series' prefactor Vol_E a^(-h), h = (d + 1)/2, and its rounding in
    units u, to (3d + 11)u: Vol_E to (d + 5)u, a to 4u raised to -h with 2u
    of its own, and two products.  Below rho = 1, a = 1 - kappa/s.  rho = 1
    is a request at kappa0, where the tau_min vertex is ideal: there a = s/(s
    - tau_min^2), from the taus alone (as kappa0 = -tau_min^2 a), where
    s's rounding moves a by at most half its own and tau_min^2's by half a
    u.  At rho = 1 the ideal regular simplex's volume depends on d and kappa
    only: sqrt(d)/d! |kappa|^(-d/2) at the requested kappa, to 7u (sqrt(d),
    d! as a float, the quotient, the power (2u) and the two products).
    Raises OverflowRegionError past the double range."""
    d = params.dimension
    t = min(params.taus)
    try:
        if rho == 1.0 and t == max(params.taus):
            return math.sqrt(d) / math.factorial(d) * (-kappa) ** (-d / 2.0), 7
        a = params.s / (params.s - t * t) if rho == 1.0 else 1.0 - kappa / params.s
        return euclidean_volume(params) * a ** (-(d + 1) / 2.0), 3 * d + 11
    except OverflowError:
        raise OverflowRegionError(
            f"the {d}-simplex at kappa = {kappa} has a volume past the double range") from None


def _expint(s0, count, z):
    """E_s(z) = int_1^inf e^(-z t) t^(-s) dt at s = s0, s0 + 1, ..,
    s0 + count - 1, for z >= 0 and s0 a positive integer or half-integer.

    At z = 0 it is 1/(s - 1), and inf for s <= 1, where the integral
    diverges.  Elsewhere the recurrence E_(s+1) = (e^(-z) - z E_s)/s gives
    every order from one of them.  A step up multiplies the error it inherits by about z/s, and a
    step down by s/z.  At z <= 2 the recurrence runs up from E_(1/2) =
    sqrt(pi/z) erfc(sqrt z) for half-integer s, and for integer s from E_1 by
    its power series, whose terms stay below e^z times the sum.  Past z = 2
    it starts from the order nearest z, by its continued fraction (modified
    Lentz: 55 steps at most, at z just past 2), and runs down below it and
    up above it, so no step amplifies.  Against mpmath.expint at s <= 25.5
    and z <= 5.3 the worst error is 52u, at z = 2 from E_(1/2).
    """
    if z == 0.0:
        return [1.0 / (s0 + i - 1.0) if s0 + i > 1.0 else math.inf for i in range(count)]
    ez = math.exp(-z)
    out = [0.0] * count
    if z > 2.0:
        m = min(max(round(z - s0), 0), count - 1)
        # E_s(z) = e^(-z)/(z + s - 1 s/(z + s + 2 - 2 (s + 1)/(z + s + 4 - ...)))
        s = s0 + m
        b = z + s
        c, dd = 1.0 / _TINY, 1.0 / b
        e = dd
        for i in range(1, _CF_STEPS):
            a = -i * (s - 1.0 + i)
            b += 2.0
            dd = 1.0 / (a * dd + b)
            c = b + a / c
            e *= c * dd
            if abs(c * dd - 1.0) <= _U:
                break
        out[m] = e * ez
        for i in range(m, 0, -1):
            out[i - 1] = (ez - (s0 + i - 1) * out[i]) / z
    else:
        if s0 % 1.0:
            s, e = 0.5, math.sqrt(math.pi / z) * math.erfc(math.sqrt(z))
        else:
            s, e, term, k = 1.0, -_EULER_GAMMA - math.log(z), 1.0, 1
            while abs(term) > _U * abs(e):
                term *= -z / k
                e -= term / k
                k += 1
        while s < s0:
            e = (ez - z * e) / s
            s += 1.0
        out[0], m = e, 0
    for i in range(m, count - 1):
        out[i + 1] = (ez - z * out[i]) / (s0 + i)
    return out


def _lerch_tails(s0, count, lam, q):
    """Phi_s = sum_(k >= 0) e^(-lam (q + k)) (q + k)^(-s) at s = s0, s0 + 1, ..,
    s0 + count - 1, for lam >= 0 and q >= 256: the Lerch transcendent's tail
    that _series_volumes' closed-form tail needs, by Euler-Maclaurin from
    k = 0.
    With z = lam q, the m-th derivative of e^(-lam x) x^(-s) at q is
    (-1)^m e^(-z) q^(-s-m) P_m, P_m = sum_(i <= m) C(m, i) z^(m-i) (s)_i, so

        Phi_s = q^(1-s) E_s(z)
                + e^(-z) q^(-s) (1/2 + sum_(j=1..5) B_2j/(2j)! q^(1-2j) P_(2j-1))

    with E_s from _expint.  lam = 0 (rho = 1, the ideal simplex) is the
    Hurwitz zeta zeta(s, q), with E_s(0) = 1/(s - 1) and P_m = (s)_m; it is
    inf at s <= 1, where the sum diverges.  The corrections fall by about
    ((z + s + 2j)/(2 pi q))^2 each and alternate in sign at z = 0, where the
    remainder is below the first omitted one: at q = 257, under 1e-20 of
    the sum for s <= 25, and 4.4e-15 at s = 93.5, the largest the series
    reads (d = 170), where the tail is below 1e-70 of the sum."""
    z = lam * q
    # w_i = sum_j B_2j/(2j)! C(2j-1, i) z^(2j-1-i) q^(1-2j), the weight of (s)_i
    w = [0.0] * (2 * len(_EM_COEFFS))
    for j, c in enumerate(_EM_COEFFS, 1):
        m = 2 * j - 1
        for i in range(m + 1):
            w[i] += c * math.comb(m, i) * z ** (m - i) / q ** m
    ez = math.exp(-z)
    out = []
    for i, e in enumerate(_expint(s0, count, z)):
        s = s0 + i
        acc, rf = 0.5, 1.0
        for k, wk in enumerate(w):
            acc += wk * rf
            rf *= s + k
        out.append(q ** (1.0 - s) * e + ez * q ** -s * acc)
    return out


def _tail_expansion(n, table, groups):
    """(sigma, c, gap): the closed-form tail of the table of n factors in
    groups (_tail_matrix), for the groups whose sigma^(K/2) is above
    rounding, K = _IDEAL_K: T_k = sum_g sigma_g^k sum_(s < _TAIL_J) c_gs
    k^(-h-s), h = n/2, to within the next power, whose c_gs is the last
    column of c, from table's first _TAIL_J + 1 entries.  The other groups'
    shares of T_k are below u of it from k = K/2 on, and gap is the largest
    relative gap between the expansion and the table over k in [K/2, K]."""
    sigma, m = np.array([(sg, m) for sg, m in groups if sg ** (_IDEAL_K // 2) > _U]).T
    J, h, ks = _TAIL_J, n / 2.0, np.arange(_IDEAL_K // 2, _IDEAL_K + 1.0)[:, None]
    c = m[:, None] * table[:J + 1] * sigma[:, None] ** -np.arange(J + 1.0) @ _tail_matrix(h)
    c *= math.gamma(h + 0.5) / math.gamma(0.5)
    fit = np.sum(sigma ** ks * (ks ** -(h + np.arange(J)) @ c[:, :J].T), axis=1)
    return sigma, c, float(np.max(np.abs(fit / table[_IDEAL_K // 2:_IDEAL_K + 1] - 1.0)))


def _series_volumes(groups, rows):
    """The VolumeResults, in order, of rows by the curvature series: every
    row of one volumes() call whose simplex has these groups of equal taus
    (_series_groups), given as (rho, K, pre, pre_u), with K the end of its
    stopping test's window and pre and pre_u its prefactor and that one's
    rounding (_series_prefactor).  A one-row call is volume() on one
    request.

    With s = sum tau_j^2, h = (d+1)/2, a = 1 - kappa/s and sigma_j =
    tau_min^2/tau_j^2, the Klein-model volume is

        Vol = Vol_E a^(-h) sum_k term_k,   term_k = rho^k T_k,
        T_k = [t^k]prod_j F(sigma_j t) / (h+1/2)_k

    (_series_table over groups, _series_terms), every term positive, rho as
    volumes() gives it (_series_ratio, held below 1, or 1 at kappa0).

    All rows read one table, to T_(K+1) of their largest K, and their terms
    rho^k T_k are one array, a row each.  Their stopping tests (below) are
    one pass over it: one cumulative sum along the rows and the first K'
    that passes in each, kept where it is within the row's own window.
    The closed-form tail's expansion depends on the table only, and is made
    once, where a row takes the tail.  Row by row come only what depends on
    rho: the prefactor (volumes() takes it), the fsum, the k-weighted sum,
    the Lerch tails and the bar.  No step of a row reads another row, so
    each is the same bit for bit as its one-row call.

    The ratio bound.  With (1/2)_i = E[G^i], G ~ Gamma(1/2), and the G_j
    independent, [t^k]prod_j F(sigma_j t) = E[h_k(sigma_1 G_1, .., sigma_n
    G_n)], h_k the complete homogeneous symmetric polynomial of degree k.
    S = sum_j G_j ~ Gamma(h) is independent of D = G/S, so this is (h)_k e_k,
    e_k = E[h_k(sigma_1 D_1, .., sigma_n D_n)].  For y >= 0, (sum_j y_j)
    h_k(y) is h_(k+1)(y) with each monomial counted once per variable it
    holds, so h_(k+1)(y) <= (sum_j y_j) h_k(y), and as sum_j sigma_j D_j <= 1,
    e_(k+1) <= e_k.  Hence

        term_(k+1)/term_k <= rho (h+k)/(h+k+1/2) <= q_k = rho (h+k)/(k+1),

    and q_k falls with k (h >= 1), so the terms past K' sum to at most
    term_(K'+1)/(1 - q_K') where q_K' < 1.  The stopping test looks for the
    first K' <= K where that bound is below eps times the sum.  If one
    passes, the sum stops there with the bound in the bar.  Otherwise, and
    always at rho = 1, where no bound is finite, the sum is math.fsum(term_k,
    k <= K), K = _IDEAL_K, plus the closed-form tail; a table shorter than
    that (a first guess that fell short, which no scanned case has) is read
    on to T_(_IDEAL_K) first.

    The closed-form tail.  T_k = sum_g sigma_g^k sum_s c_gs k^(-h-s), s <
    _TAIL_J, to within the first omitted power, with c from the table's
    first entries (_tail_expansion, _tail_matrix), and T does not depend
    on rho.  So the tail is sum_g sum_s c_gs Phi_(h+s)(lam_g), Phi_s =
    sum_(k > K) e^(-lam_g k) k^(-s), the Lerch tail (_lerch_tails) at
    lam_g = -ln(rho sigma_g), for each group whose (rho sigma_g)^K is above
    rounding.  At rho = 1 the first group's lam is 0, the Hurwitz zeta.
    rho = 1 is the request at kappa0 (_series_prefactor).

    The bar counts the rounding of the terms and the fsum, in units u, as a
    slope times sum_k k term_k plus a constant times the sum.  T_k takes, per
    stage of a group of m_g factors (stages 2..m_g) and once for r(n+1), the
    running ratio product r (2k) and, from stage 2 on, at most `steps` scan
    shifts of one pow, one product and one sum (4 each) and the shifts the
    scan leaves out (1).  Each group past the first (whose sigma is exactly
    1) adds sigma_g's input rounding (3u: two squares and the quotient),
    which moves entry k by 3k u, and the pow and product of sigma_g^k (3).  A
    merge (_merge_groups) adds 3k + 4: k for x_i and y_(k-i) together, k
    for z_k, 4 for the three products and the quotient of an entry, and k
    for its sum.  As the indices of a merged product sum to k, a merge takes
    the larger slope of its two groups and the sum of their constants; the
    pairwise merges are ceil(log2 G) levels deep, G the number of groups, so
    they add 3 to the slope per level and 4 to the constant per merge.  The
    fsum adds u of the total.  With M the largest group, the table and the
    fsum take a slope of at most 2M + 3 [G > 1] + 3 ceil(log2 G) and a
    constant of (n - G)(4 steps + 1) + 7(G - 1) + 1: for one group, 2n and
    (n - 1)(4 steps + 1) + 1.  Below rho = 1 a row adds rho's: rho^k adds
    one ulp (2) and the product rho^k T_k 1, and rho's input rounding (7u:
    s to 2u from the squares and fsum, kappa/s, 1 - kappa/s, kappa/a,
    tau_min^2 and the quotient) moves term_k by 7k u, so 7 to the slope and
    3 to the constant; with the tail, 8 to the slope with the log that
    gives lam.  At rho = 1, which is exact, none of rho's terms is there.
    The tail's terms carry the same rho (8k u) and sigma_g (3k u)
    conditioning: sum_(k > K) k (rho sigma_g)^k k^(-h-s) is Phi_(h+s-1), which
    at d <= 3 grows without bound as rho -> 1, the true conditioning of a
    request given by its taus.  The tail adds 128u of itself for its own
    rounding (_expint's error is up to 52u, and the corrections and the
    sums add a few), the tail of the first omitted power (s = _TAIL_J),
    and the largest relative gap between the expansion and the table over
    k in [K/2, K] times the tail: the expansion's relative error falls
    like k^(-_TAIL_J) past there.  For one group that gap is 3e-12 at n = 3
    and passes 1 from n = 53, where the expansion in 1/k diverges at k = K,
    but the tail is then below 1e-35 of the sum.
    """
    ms = [m for _, m in groups]
    n, G, M = sum(ms), len(ms), max(ms)
    h = n / 2.0
    rhos = np.array([[row[0]] for row in rows])
    table = _series_table(n, max(row[1] for row in rows) + 1, groups)
    t = _series_terms(rhos, len(table) - 1, table)
    stops = [None] * len(rows)  # (K', its tail bound) of each row whose sum stops there
    # the ratio bound q falls with K', and the tail bound is finite only
    # where q < 1: a row whose q_K >= 1 (always at rho = 1) has no K' that
    # passes, and the test reads no column past the last such K
    W = max([K + 1 for rho, K, _, _ in rows if rho * (h + K) / (K + 1.0) < 1.0] or [0])
    if W:
        q = rhos * (h + _KS[:W]) / (_KS[:W] + 1.0)
        bounds = np.empty_like(q)
        bounds.fill(math.inf)
        np.divide(t[:, 1:W + 1], 1.0 - q, out=bounds, where=q < 1.0)
        done = bounds <= 2.0 * _U * t[:, :W].cumsum(axis=1)
        # the first K' that passes in each row, or 0 if none does; a row
        # stops there if it is within the row's own window
        for i, first in enumerate(done.argmax(axis=1).tolist()):
            if first <= rows[i][1] and done[i, first]:
                stops[i] = first, float(bounds[i, first])
    if None in stops:
        if len(table) <= _IDEAL_K:  # a window the first guess cut short reads on
            table = _series_table(n, _IDEAL_K, groups)
            t = _series_terms(rhos, _IDEAL_K, table)
        sigma, c, gap = _tail_expansion(n, table, groups)
    slope = 2 * M + 3 * (G > 1) + 3 * (G - 1).bit_length()
    out = []
    for (rho, K, pre, pre_u), row, terms, stop in zip(rows, t, t.tolist(), stops):
        # steps = the bit length of the terms the row reads: T_0..T_(K+1)
        # where it stops, T_0..T_(_IDEAL_K) with the tail
        length = K + 2 if stop else _IDEAL_K + 1
        K, bound = stop or (_IDEAL_K, math.inf)
        total = math.fsum(terms[:K + 1])
        k_weighted = float(np.sum(_KS[:K + 1] * row[:K + 1]))
        const = 1 + 7 * (G - 1) + (n - G) * (4 * length.bit_length() + 1)
        if stop:
            sum_err = _U * ((slope + 7) * k_weighted + (const + 3) * total) + bound
        else:
            tail = k_tail = omitted = 0.0
            for sg, cg in zip(sigma.tolist(), c):  # cg: c_g0..c_gJ, J = _TAIL_J
                lam = -math.log(rho * sg)
                if lam * K < -math.log(_U):  # (rho sigma_g)^K above rounding
                    # Phi_(h-1)..Phi_(h+J)
                    phi = _lerch_tails(h - 1.0, len(cg) + 1, lam, K + 1.0)
                    tail += math.fsum(cg[:-1] * phi[1:-1])
                    omitted += abs(float(cg[-1]) * phi[-1])
                    if lam:
                        k_tail += ((8 * (rho < 1.0) + 3 * (sg < 1.0))
                                   * math.fsum(cg[:-1] * phi[:-2]))
            total += tail
            sum_err = (_U * (slope * k_weighted + const * total + k_tail + 128 * abs(tail)
                             + (rho < 1.0) * (8 * k_weighted + 3 * total))
                       + omitted + gap * abs(tail))
        # 1.01 covers the second-order terms of these first-order counts and the
        # rounding of the bar itself
        vol = pre * total
        err = 1.01 * (pre * sum_err + pre_u * _U * vol)
        out.append(VolumeResult(vol, err, 0.0, Branch.SERIES, K + 1))
    return out


def volumes(requests):
    """Each request's VolumeResult, or the SimplexVolError it raises, in order.

    Every request is checked and routed first (see the module doc).  The
    requests that take the curvature series share one coefficient table per
    set of groups of equal taus (_series_groups; per dimension for regular
    simplices), and one call of _series_volumes sums all of them: the table
    is read once to the longest window their stopping tests read (at most
    _IDEAL_K + 1 entries), the tests run in one pass over all rows' terms,
    and the closed-form tail's expansion is made once, where a row needs
    it.  The table's rows that depend on the groups' multiplicities only
    come from what the process keeps (_table_plan: at most _PLANS plans,
    built on first use), and so does the closed-form tail's matrix of each
    h (_tail_matrix).  A row's result depends neither on the table's length,
    nor on the other rows, nor on what is kept, so it is the same bit for
    bit whatever else this call or an earlier one held.  A request at
    kappa0 is summed at rho = 1 whatever its groups.  Every other request
    takes its path one at a time.  A result
    whose error bar is not below its magnitude, or a negative volume, comes
    back as a ToleranceError with the result attached, and one whose
    magnitude and bar are below the double range as an OverflowRegionError.
    """
    out = [None] * len(requests)
    # groups -> ([position], [(rho, end of its test's window, prefactor, its rounding)])
    series = {}
    for i, req in enumerate(requests):
        try:
            kappa, at_kappa0 = _checked_kappa(req)
            if kappa < 0 and not req.use_lower_branch:
                # rho is 1 exactly at kappa0, where the prefactor does not
                # read kappa0 (_series_prefactor).  From d = 171 on, where d!
                # passes the double range, the prefactor raises
                # OverflowRegionError, so the row reads no table and no tail,
                # whose Gamma(h + 1/2) would raise a bare OverflowError from
                # d = 342 on
                rho = 1.0 if at_kappa0 else _series_ratio(req.geometry, kappa)
                K = min(_series_guess(req.geometry.dimension + 1, rho), _IDEAL_K - 1)
                pre, pre_u = _series_prefactor(req.geometry, req.kappa, rho)
                at, rows = series.setdefault(_series_groups(req.geometry.taus), ([], []))
                at.append(i)
                rows.append((rho, K, pre, pre_u))
                continue
            out[i] = _certified(_evaluate(req, kappa))
        except SimplexVolError as exc:
            out[i] = exc
    for groups, (at, rows) in series.items():
        for i, res in zip(at, _series_volumes(groups, rows)):
            try:
                out[i] = _certified(res)
            except SimplexVolError as exc:
                out[i] = exc
    return out


def volume(req):
    """Volume of the requested simplex in the space of curvature kappa: volumes()
    on this one request, whose error is raised.

    Raises ToleranceError, with the result attached, when the result's own
    error bar is not below its magnitude or the volume is negative: on the
    ray that is cancellation (large d, small simplices, tiny |kappa|); and
    OverflowRegionError when the volume and its bar are past the double
    range.
    """
    res, = volumes([req])
    if isinstance(res, SimplexVolError):
        raise res
    return res


def _certified(res):
    """res, unless it and its bar are both below the least normal double
    (OverflowRegionError: neither holds its digits), its error bar is not
    below its magnitude, or it is negative (ToleranceError, with res
    attached: a cancelled value with a large bar lands here)."""
    if abs(res.volume) < sys.float_info.min and res.abs_error < sys.float_info.min:
        raise OverflowRegionError(
            f"volume {res.volume:.3g} ({res.branch.value}) is past the double range: "
            "below the least normal double")
    if not res.abs_error < abs(res.volume) or res.volume < 0:
        raise ToleranceError(
            f"volume {res.volume:.3g} +- {res.abs_error:.3g} ({res.branch.value}) is not "
            "certified: its error bar is not below its magnitude", result=res)
    return res


def _checked_kappa(req):
    """req.kappa, clamped to kappa0 when rounding puts it just below (further
    below, GeometryDomainError), and whether the request is at kappa0, that is
    not above it.  kappa = 0 passes as it is."""
    if req.kappa == 0.0:
        return 0.0, False
    k0 = min_curvature(req.geometry)
    if req.kappa < k0 * (1.0 + 1e-12):
        raise GeometryDomainError(
            f"kappa must be >= kappa0 = {k0:.12g} for this simplex; got {req.kappa}")
    return max(req.kappa, k0), req.kappa <= k0


def _evaluate(req, kappa):
    """The volume off the series: kappa = 0 in closed form, else the ray."""
    params = req.geometry
    d = params.dimension
    if kappa == 0.0:
        vol = euclidean_volume(params)
        # relative rounding of the closed form, in units u = eps/2: the squares
        # and fsum move s by 2u, which the square root halves before adding
        # its own u; the d products of the taus' mantissas, the product with
        # d! (and d!'s conversion to a float past d = 22) and the division add
        # (d + 3)u.  The total is at most (d + 5)u, and the bar is twice that.
        return VolumeResult(vol, (d + 5) * math.ulp(1.0) * vol, 0.0, Branch.REAL_AXIS, 0)
    area = sphere_surface_area(d)
    norm = abs(kappa) ** (d / 2.0)
    # |kappa|^(d/2) underflows to 0 at tiny |kappa| and large d
    scale = area / norm if norm else math.inf
    if scale == math.inf:
        raise OverflowRegionError(
            f"the {d}-simplex at kappa = {kappa} has a volume scale past the double range")
    z = kappa - params.s
    tr = orthant_probability(params.multipliers(), z, _quad_tol(req.tolerance),
                             req.use_lower_branch)
    # i^d on the upper branch and (-i)^d on the lower one, for kappa < 0 only
    ipow = 1 if kappa > 0 else _I_POW[(-d if req.use_lower_branch else d) % 4]
    c = area * tr.value / (ipow * norm)
    branch = (Branch.REAL_AXIS if z >= 0 else
              Branch.LOWER_RAY if req.use_lower_branch else Branch.UPPER_RAY)
    vol = c.real
    residual = abs(c.imag)
    abs_err = scale * tr.abs_error_estimate + residual
    if residual > 100.0 * req.tolerance * max(1.0, scale):
        raise ToleranceError(
            f"imaginary residual {residual:.3g} exceeds 100x the requested tolerance; "
            "the branch assembly is numerically unhealthy",
            result=VolumeResult(vol, abs_err, residual, branch, tr.evaluations))
    return VolumeResult(vol, abs_err, residual, branch, tr.evaluations)


def regular_volume(d, side_length, kappa=-1.0, tolerance=VolumeRequest.tolerance):
    """Convenience wrapper: volume of the regular simplex (side inf = ideal).

    At kappa < 0 it takes the curvature series at every d, summed to
    rounding or, near the ideal simplex (rho = 1), with the closed-form
    tail (see the module doc).  Its series table and the tail's matrix
    depend on d only: the first call at a d builds them, and later calls
    read the kept ones (at most _PLANS of each at once), as one volumes()
    call over many rows does.
    """
    params = regular_parameters(d, side_length, kappa)
    return volume(VolumeRequest(params, kappa, tolerance))
