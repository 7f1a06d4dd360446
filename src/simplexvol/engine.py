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

A regular simplex is the equal-tau case, so it takes the same path:
regular_volume turns (d, side length, kappa) into OrthocentricParams with
geometry.regular_parameters, which is where those three inputs are checked.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .cnormal import SQRT_2PI
from .errors import GeometryDomainError, ToleranceError
from .geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, regular_parameters,
    sphere_surface_area,
)
from .rayquad import IntegralResult, RayIntegralProblem, ray_integral

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


class Branch(Enum):
    UPPER_RAY = "upper_ray"
    LOWER_RAY = "lower_ray"
    REAL_AXIS = "real_axis"


@dataclass(frozen=True)
class VolumeRequest:
    """What to compute: a geometry, a curvature, and an accuracy target.

    geometry is the OrthocentricParams of the simplex (a regular simplex is
    the equal-tau case; regular_parameters builds it from a side length).
    kappa is any finite curvature >= kappa0; kappa = 0 gives the Euclidean
    volume in closed form, and a non-finite kappa raises GeometryDomainError.
    tolerance is absolute on the orthant-transform values, which surfaces as
    roughly 1e2*tolerance relative on volumes.
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


def orthant_probability(mus, z, tol=_quad_tol(1e-10), use_lower_branch=False):
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


def volume(req):
    """Volume of the requested simplex in the space of curvature kappa."""
    params = req.geometry
    d, kappa = params.dimension, req.kappa
    if kappa == 0.0:
        vol = euclidean_volume(params)
        # relative rounding of the closed form, in units u = eps/2: the squares
        # and fsum move s by 2u, which the square root halves before adding
        # its own u; the d products of the taus' mantissas, the product with
        # d! (and d!'s conversion to a float past d = 22) and the division add
        # (d + 3)u.  The total is at most (d + 5)u, and the bar is twice that.
        return VolumeResult(vol, (d + 5) * math.ulp(1.0) * vol, 0.0, Branch.REAL_AXIS, 0)
    k0 = min_curvature(params)
    if kappa < k0 * (1.0 + 1e-12):
        raise GeometryDomainError(
            f"kappa must be >= kappa0 = {k0:.12g} for this simplex; got {kappa}")
    kappa = max(kappa, k0)  # clamp rounding right at the boundary
    z = kappa - params.s
    tr = orthant_probability(params.multipliers(), z, _quad_tol(req.tolerance),
                             req.use_lower_branch)
    area = sphere_surface_area(d)
    norm = abs(kappa) ** (d / 2.0)
    # i^d on the upper branch and (-i)^d on the lower one, for kappa < 0 only
    ipow = 1 if kappa > 0 else _I_POW[(-d if req.use_lower_branch else d) % 4]
    c = area * tr.value / (ipow * norm)
    scale = area / norm
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


def regular_volume(d, side_length, kappa=-1.0, tolerance=1e-10):
    """Convenience wrapper: volume of the regular simplex (side inf = ideal)."""
    params = regular_parameters(d, side_length, kappa)
    return volume(VolumeRequest(params, kappa, tolerance))
