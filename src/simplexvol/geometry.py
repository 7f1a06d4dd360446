"""Orthocentric-simplex parameterization, curvature bounds, and vertex realization.

A simplex [v_0, ..., v_d] in R^d is *orthocentric with parameters
tau_0, ..., tau_d > 0* when, with s = sum tau_j^2,

    <v_j, v_k> = -1/s   (j != k),      |v_j|^2 = -1/s + 1/tau_j^2.

Its altitudes then meet at the origin.  Regular simplices are the equal-tau
special case.  All functions here are pure and exact up to rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryDomainError, RankDeficiencyError

#: cosh argument beyond which the ideal-limit formulas are used verbatim
#: (cosh overflows a double near 710; the ratios are within 1e-300 of the
#:  limit long before that)
_COSH_LIMIT = 700.0


@dataclass(frozen=True)
class OrthocentricParams:
    """Positive parameters tau_0..tau_d and the cached sum of squares."""

    taus: tuple
    s: float = field(init=False)

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 3:
            raise GeometryDomainError("need at least 3 parameters (dimension >= 2)")
        if any(t <= 0 or not math.isfinite(t) for t in taus):
            raise GeometryDomainError("all parameters must be positive and finite")
        object.__setattr__(self, "s", math.fsum(t * t for t in taus))

    @property
    def dimension(self):
        return len(self.taus) - 1

    def multipliers(self):
        """mu_j = tau_j / s, the weights entering the volume integrand."""
        return tuple(t / self.s for t in self.taus)


def min_curvature(params):
    """Most negative curvature kappa0 for which the simplex fits the model ball.

    The simplex lies in the closed ball of curvature kappa iff kappa >= kappa0.
    """
    s = params.s
    return -min(t * t * s / (s - t * t) for t in params.taus)


def side_length(params, j, k, kappa):
    """Hyperbolic distance between vertices j and k at curvature kappa in (kappa0, 0)."""
    if j == k:
        raise GeometryDomainError("side length needs two distinct vertex indices")
    k0 = min_curvature(params)
    if not (k0 < kappa < 0):
        raise GeometryDomainError(
            f"side lengths require kappa in (kappa0, 0) = ({k0:.6g}, 0); got {kappa}")
    s = params.s
    tj, tk = params.taus[j], params.taus[k]
    fj = s - kappa + kappa * s / tj ** 2
    fk = s - kappa + kappa * s / tk ** 2
    arg = (s - kappa) / math.sqrt(fj * fk)
    if arg < 1.0:
        if arg > 1.0 - 1e-12:
            arg = 1.0
        else:
            raise GeometryDomainError(f"inconsistent inputs: acosh argument {arg} < 1")
    return math.acosh(arg) / math.sqrt(-kappa)


def regular_parameters(d, side_length, kappa=-1.0):
    """Equal orthocentric parameters of the regular d-simplex of the given side.

    The one place the inputs of a regular simplex are checked: d >= 2,
    side_length > 0 (inf = ideal; NaN fails the comparison) and kappa finite
    and negative.  For ell = inf (or cosh overflow) the ideal limit
    tau^2 = -kappa*d/(d+1) is used directly.
    """
    d, side_length, kappa = int(d), float(side_length), float(kappa)
    if d < 2:
        raise GeometryDomainError("dimension must be >= 2")
    if not side_length > 0:
        raise GeometryDomainError("side length must be positive (inf = ideal)")
    if kappa >= 0 or not math.isfinite(kappa):
        raise GeometryDomainError("regular simplices require a finite kappa < 0")
    u = side_length * math.sqrt(-kappa)
    if u > _COSH_LIMIT:
        tau2 = -kappa * d / (d + 1.0)
    else:
        ch = math.cosh(u)
        # cosh(u) - 1 = 2 sinh(u/2)^2, stable for small u
        tau2 = -kappa * (1.0 + d * ch) / ((d + 1.0) * 2.0 * math.sinh(u / 2.0) ** 2)
    tau = math.sqrt(tau2)
    return OrthocentricParams(taus=(tau,) * (d + 1))


def realize_vertices(params):
    """Concrete vertices satisfying the orthocentric Gram identities.

    Returns a (d+1, d) array whose row j is v_j.  Start from e_j/tau_j - H in
    (d+1)-space, where H is the common altitude foot sum(tau_j e_j)/s; these
    vectors span the hyperplane orthogonal to (tau_0, ..., tau_d), which is
    mapped isometrically onto R^d.  Raises RankDeficiencyError if the edge
    vectors' numerical rank falls below d; NumPy's default rank tolerance is
    relative to the largest singular value, so the scale of the taus alone
    never triggers it.
    """
    taus = np.asarray(params.taus)
    s = params.s
    n = len(taus)
    pts = np.diag(1.0 / taus) - np.outer(np.ones(n), taus / s)
    # orthonormal basis of the hyperplane orthogonal to taus, via Householder
    w = taus / np.linalg.norm(taus)
    e = np.zeros(n)
    e[0] = 1.0
    u = w - e
    nu = np.linalg.norm(u)
    if nu < 1e-15:
        basis = np.eye(n)[1:]
    else:
        u /= nu
        basis = (np.eye(n) - 2.0 * np.outer(u, u))[1:]
    verts = pts @ basis.T
    if np.linalg.matrix_rank(verts[1:] - verts[0]) < n - 1:
        raise RankDeficiencyError("vertex realization is rank deficient")
    return verts


def sphere_surface_area(d):
    """Surface area of the unit d-sphere in R^{d+1}: 2 pi^{(d+1)/2} / Gamma((d+1)/2)."""
    n2 = d + 1  # Gamma(n2/2) by exact half-integer recursion
    if n2 % 2 == 0:
        g = float(math.factorial(n2 // 2 - 1))
    else:
        g = math.sqrt(math.pi)
        for i in range(n2 // 2):
            g *= i + 0.5
    return 2.0 * math.pi ** (n2 / 2.0) / g


def euclidean_volume(params):
    """Euclidean volume sqrt(s) / (d! prod_j tau_j) of the orthocentric simplex.

    The edge vectors v_j - v_0 (j >= 1) have the Gram matrix
    diag(tau_j^-2) + tau_0^-2 11^T, whose determinant is s / prod_j tau_j^2,
    so no vertices are built.
    """
    d = params.dimension
    # prod_j tau_j = prod(mants) 2^sum(exps): the power of two is applied last,
    # exactly, so the product neither overflows nor underflows while the
    # volume itself is a normal float
    mants, exps = zip(*(math.frexp(t) for t in params.taus))
    core = math.sqrt(params.s) / (math.factorial(d) * math.prod(mants))
    return math.ldexp(core, -sum(exps))
