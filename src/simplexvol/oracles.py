"""Independent reference computations used to validate the volume engine.

None of these share a code path with the contour-integral engine: the Monte
Carlo estimator samples Gaussian vectors directly, the Klein-model integrator
uses scipy's QUADPACK on the defining density, and the two tetrahedron
integrals are classical one-dimensional quadratures.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import CostLimitError, GeometryDomainError
from .geometry import sphere_surface_area

_CHUNK = 1_000_000


@dataclass(frozen=True)
class MonteCarloReport:
    estimate: float
    std_error: float
    samples: int
    seed: int


def mc_spherical_volume(params, kappa, samples=1_000_000, seed=0):
    """Monte Carlo spherical volume for kappa >= s, via the dual-cone test.

    The simplex volume equals omega_{d+1} kappa^{-d/2} times the probability
    that a standard Gaussian vector lands in the cone spanned by the lifted
    vertices; by duality that is Prob[xi_j <= (tau_j/s) sqrt(kappa-s) xi for
    all j] with independent standard normals xi, xi_0..xi_d.  Sampling is
    chunked over seed-derived substreams in a fixed order, so a fixed seed
    gives a bit-identical report regardless of the execution environment.
    Within a chunk of n samples, xi comes first and then xi_0..xi_d, n
    values each, drawn and compared one row at a time into preallocated
    buffers; memory stays at a few chunk-length arrays whatever d is.
    samples must be at least 2, so that the standard error is defined.
    """
    s = params.s
    if kappa < s:
        raise GeometryDomainError(
            f"the Gaussian cone representation requires kappa >= s = {s:.6g}")
    if samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples, got {samples}")
    d = params.dimension
    coef = np.asarray(params.taus) / s * math.sqrt(kappa - s)
    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    streams = np.random.SeedSequence(seed).spawn(n_chunks)
    size = min(_CHUNK, samples)
    xi_buf, row_buf, bound_buf = (np.empty(size) for _ in range(3))
    inside_buf = np.empty(size, dtype=bool)
    hits = 0
    for i in range(n_chunks):
        n = min(_CHUNK, samples - i * _CHUNK)
        xi, row, bound, inside = xi_buf[:n], row_buf[:n], bound_buf[:n], inside_buf[:n]
        rng = np.random.default_rng(streams[i])
        rng.standard_normal(out=xi)
        inside.fill(True)
        for c in coef:
            rng.standard_normal(out=row)
            np.multiply(c, xi, out=bound)
            inside &= row <= bound
        hits += int(np.count_nonzero(inside))
    p_hat = hits / samples
    var = p_hat * (1.0 - p_hat) * samples / (samples - 1)
    scale = sphere_surface_area(d) * kappa ** (-d / 2.0)
    return MonteCarloReport(
        estimate=scale * p_hat,
        std_error=scale * math.sqrt(var / samples),
        samples=samples,
        seed=seed,
    )


def direct_klein_volume(vertices, kappa, rel_tol=1e-6):
    """Volume by direct integration of (1 + kappa |y|^2)^{-(d+1)/2} over the simplex.

    vertices is the simplex's (d+1, d) vertex array, as realize_vertices
    returns it.  One integrand over the unit cube [0, 1]^d, through the
    standard map onto the simplex, y = v_0 + sum_k u_k (v_k - v_0) with
    u_k = t_k (1 - t_1) ... (1 - t_(k-1)) and Jacobian
    prod_k (1 - t_k)^(d-k), goes to one scipy.integrate.nquad call
    (deterministic iterated QUADPACK); limited to d in {2, 3} (the cost
    grows exponentially with d).  Raises GeometryDomainError when a vertex
    is not strictly inside the model ball at this kappa, where the
    integrand blows up.
    """
    d = vertices.shape[1]
    if d not in (2, 3):
        raise CostLimitError("direct Klein integration is limited to d in {2, 3}")
    if kappa < 0:
        rmax2 = float(np.max(np.sum(vertices * vertices, axis=1)))
        if 1.0 + kappa * rmax2 <= 0.0:
            raise GeometryDomainError(
                "simplex does not fit strictly inside the model ball at this kappa")
    ex = (d + 1) / 2.0
    v0 = vertices[0]
    B = (vertices[1:] - v0).T  # columns are edge vectors
    jac0 = abs(np.linalg.det(B))
    powers = range(d - 1, 0, -1)

    # nquad passes the innermost variable t_d first; t_1..t_(d-1) stay fixed
    # while its quad runs, so their part of y and of the Jacobian is built
    # once per inner integral.  Each u_k is multiplied out left to right.
    @functools.lru_cache(maxsize=1)
    def outer(*ts):
        t = ts[::-1]  # t_1, ..., t_(d-1)
        c = [1.0 - x for x in t]
        y = v0
        for k in range(d - 1):
            y = y + B[:, k] * math.prod(c[:k], start=t[k])
        return y, c, math.prod(map(pow, c, powers))

    def f(t_d, *ts):
        y, c, jac = outer(*ts)
        y = y + B[:, -1] * math.prod(c, start=t_d)
        w = 1.0 + kappa * float(y @ y)
        return jac / w ** ex

    val = integrate.nquad(f, [[0.0, 1.0]] * d, opts={"epsabs": 0.0, "epsrel": rel_tol})[0]
    return float(jac0 * val)


def ideal_tetrahedron_volume():
    """Volume of the ideal regular 3-simplex: -3 * int_0^{pi/3} log(2 sin t) dt.

    The integrable log singularity at 0 is split off analytically:
    int_0^eps log(2 sin t) dt = eps(log(2 eps) - 1) - eps^3/18 - eps^5/900 + ...
    """
    eps = 1e-2
    analytic = eps * (math.log(2.0 * eps) - 1.0) - eps ** 3 / 18.0 - eps ** 5 / 900.0
    val, err = integrate.quad(lambda t: math.log(2.0 * math.sin(t)),
                              eps, math.pi / 3.0, epsabs=1e-14, epsrel=1e-13)
    return -3.0 * (analytic + val)


def regular_tetrahedron_volume(ell):
    """Volume of the regular 3-simplex with hyperbolic side length ell (kappa = -1).

        int_0^ell 3 a sinh(a) / ((1 + 2 cosh a) sqrt((1 + cosh a)(1 + 3 cosh a))) da

    The integrand is smooth and vanishes at 0, and decays like a*exp(-a) for
    large a, approaching the ideal value as ell -> inf.
    """
    if not ell > 0:
        raise GeometryDomainError("side length must be positive")
    ell = float(ell)

    def f(a):
        ch = math.cosh(a)
        return 3.0 * a * math.sinh(a) / ((1.0 + 2.0 * ch)
                                         * math.sqrt((1.0 + ch) * (1.0 + 3.0 * ch)))

    pieces = [0.0]
    step = 5.0
    while pieces[-1] + step < ell:
        pieces.append(pieces[-1] + step)
    pieces.append(ell)
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total
