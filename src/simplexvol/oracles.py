"""Independent reference computations used to validate the volume engine.

None of these share a code path with the contour-integral engine: the Monte
Carlo estimator samples the Gaussian cone test directly, row by row, drawing
the number of samples that pass the first two rows from its exact
probability, 1/4 + arcsin(r) / (2 pi), and their xi from its conditional
law in closed form; the Klein-model integrator sums cones from the origin
over the simplex's facets, with the defining density integrated along each
ray in closed form, R_d(a) = int_0^1 r^(d-1) (1 + a r^2)^(-(d+1)/2) dr
(_klein_radial: R_2(a) = 1/(w (1 + w)), w = sqrt(1 + a), and R_3(a) =
(atan(sqrt a)/sqrt a - 1/(1 + a))/(2a)), and over the facets by one scipy
cubature; and the two tetrahedron integrals are classical one-dimensional
quadratures.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CostLimitError, GeometryDomainError
from .geometry import sphere_surface_area

#: samples per seeded substream
_CHUNK = 65_536


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
    chunked over seed-derived substreams of at most 65,536 samples, in a
    fixed order, so a fixed seed gives a bit-identical report regardless of
    the execution environment.  Write c_j = (tau_j/s) sqrt(kappa-s).
    Within a chunk of m samples the first two rows, j = 0 and 1, cut a
    dihedral wedge out of the (xi, xi_0, xi_1) space, and they are drawn
    from their exact joint law.  The rows' outward normals meet at the
    angle arccos r, r = c_0 c_1 / sqrt((1 + c_0^2)(1 + c_1^2)), so the wedge
    has the opening alpha = pi - arccos r and keeps a sample with
    probability alpha / (2 pi), Sheppard's 1/4 + arcsin(r) / (2 pi); the
    chunk draws the number n of its survivors from Binomial(m, alpha /
    (2 pi)).  Inside the wedge the
    component along its edge (1, c_0, c_1) / q, q = sqrt(1 + c_0^2 + c_1^2),
    is a free N(0, 1), and the component in the orthogonal plane is a
    standard planar normal on a wedge of opening alpha: a uniform angle and
    a Rayleigh radius sqrt(2E).  Projected on xi that is xi = Z / q + rho
    sqrt(2E) cos(alpha U - beta), rho = sqrt(c_0^2 + c_1^2) / q the length
    of xi's projection on the plane and beta = atan2(c_0 q, c_1) its angle
    from the wedge face xi_0 = c_0 xi; the chunk draws n values U, then n
    values E, then n values Z.  Then, for j = 2..d in tau order, one xi_j
    is drawn for each sample still inside the cone, and the samples whose
    xi_j exceeds the bound are dropped.  A sample's later normals are never
    drawn once it is out, so on the verify suites' jobs (d = 2..6, taus in
    [0.5, 2], kappa between s and 3s) the 25% to 32% of samples that pass
    rows 0 and 1 cost one uniform, one exponential, one cosine and one
    normal each, and a sample costs 0.5 to 1.05 normals in all rather than
    d + 2; the hit count is Binomial(samples, p).  As alpha <= pi, n is
    about m/2 at most, and a chunk holds at most about 0.82 MB whatever d
    is.  kappa must be finite and samples at least 2, so that the standard
    error is defined.  This is mc_spherical_volumes([(params, kappa,
    samples, seed)])[0].
    """
    return mc_spherical_volumes([(params, kappa, samples, seed)])[0]


def mc_spherical_volumes(jobs):
    """One MonteCarloReport per (params, kappa, samples, seed) job, in order.

    The batch entry point of mc_spherical_volume, as engine.volumes is of
    engine.volume.  Every job is checked before any sampling starts.  The
    chunks of all jobs are sampled on one thread pool, with one worker per
    CPU this process may run on and no more workers than chunks.  Each
    chunk draws from its own substream and returns an integer hit count,
    and the counts are summed per job, so every report is bit for bit what
    mc_spherical_volume gives for that job alone, whatever the worker count.
    """
    jobs = list(jobs)
    coefs = [_cone_coefficients(params, kappa, samples) for params, kappa, samples, _ in jobs]
    tasks = []  # (job, substream, chunk length), job by job and chunk by chunk
    for j, (_, _, samples, seed) in enumerate(jobs):
        n_chunks = (samples + _CHUNK - 1) // _CHUNK
        for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
            tasks.append((j, stream, min(_CHUNK, samples - i * _CHUNK)))
    hits = [0] * len(jobs)
    if tasks:
        with ThreadPoolExecutor(max_workers=min(_cpu_count(), len(tasks))) as pool:
            counts = pool.map(lambda task: _chunk_hits(task[1], task[2], coefs[task[0]]), tasks)
            for (j, _, _), h in zip(tasks, counts):
                hits[j] += h
    reports = []
    for (params, kappa, samples, seed), h in zip(jobs, hits):
        d = params.dimension
        p_hat = h / samples
        var = p_hat * (1.0 - p_hat) * samples / (samples - 1)
        scale = sphere_surface_area(d) * kappa ** (-d / 2.0)
        reports.append(MonteCarloReport(estimate=scale * p_hat,
                                         std_error=scale * math.sqrt(var / samples),
                                         samples=samples, seed=seed))
    return reports


def _cone_coefficients(params, kappa, samples):
    """Check one Monte Carlo job and return its (tau_j/s) sqrt(kappa - s)."""
    s = params.s
    _require_finite(kappa)
    if kappa < s:
        raise GeometryDomainError(
            f"the Gaussian cone representation requires kappa >= s = {s:.6g}")
    if samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples, got {samples}")
    return np.asarray(params.taus) / s * math.sqrt(kappa - s)


def _require_finite(kappa):
    if not math.isfinite(kappa):
        raise GeometryDomainError(f"kappa must be finite; got {kappa}")


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_hits(stream, m, coef):
    """Samples of one chunk of m that fall inside the cone.

    Runs on a pool worker and calls only NumPy, so every public function
    of the package runs on the caller's thread.  Draws the number of the
    first two rows' survivors from Binomial(m, alpha / (2 pi)) and their xi
    from the law of xi on the rows' wedge, as mc_spherical_volume's
    docstring states: one uniform, one exponential, one cosine and one
    normal per survivor.  Then one row value per survivor for each later
    cone coefficient in turn, keeping the survivors' xi only.  A one-row
    coef is just Binomial(m, 1/2).  At most three arrays of about m/2
    floats and one mask are alive at a time.
    """
    rng = np.random.default_rng(stream)
    if len(coef) == 1:
        return rng.binomial(m, 0.5)
    c0, c1 = float(coef[0]), float(coef[1])
    q = math.sqrt(1.0 + c0 * c0 + c1 * c1)
    alpha = math.pi - math.atan2(q, c0 * c1)  # the wedge's opening, pi - arccos r
    beta = math.atan2(c0 * q, c1)
    rho = math.hypot(c0, c1) / q
    n = rng.binomial(m, alpha / (2.0 * math.pi))
    # in place, one array at a time: the planar part rho sqrt(2E) cos(alpha U
    # - beta), then xi = Z / q + that part
    plane = rng.random(n)
    plane *= alpha
    plane -= beta
    np.cos(plane, out=plane)
    radius = rng.standard_exponential(n)
    radius *= 2.0
    np.sqrt(radius, out=radius)
    radius *= rho
    plane *= radius
    del radius
    xi = rng.standard_normal(n)
    xi /= q
    xi += plane
    del plane
    for c in coef[2:]:
        xi = xi[rng.standard_normal(len(xi)) <= c * xi]
    return len(xi)


def direct_klein_volume(vertices, kappa, rel_tol=1e-6):
    """Volume by direct integration of (1 + kappa |y|^2)^{-(d+1)/2} over the simplex.

    vertices is the simplex's (d+1, d) vertex array, as realize_vertices
    returns it.  The simplex is a signed sum of cones from the origin over
    its facets: the cone over the facet F_j opposite v_j has the signed
    volume lambda_j V, with V the simplex's volume and lambda_j the
    origin's j-th barycentric coordinate (negative when the origin lies
    beyond F_j, zero when F_j's plane passes through it).  Along each ray
    of a cone the integral is in closed form,

        R_d(a) = int_0^1 r^(d-1) (1 + a r^2)^(-(d+1)/2) dr   (_klein_radial),

    so the volume is d V sum_j lambda_j <R_d(kappa |x|^2)>_{F_j}, the mean
    taken over the facet.  A d = 2 facet is its segment x = P_0 + s(P_1 -
    P_0), a d = 3 facet the Duffy map x = P_0 + s(P_1 - P_0) + st(P_2 - P_1)
    of the unit square, whose Jacobian 2s is normalised to the facet's
    area; each facet's vertices are taken nearest the origin first, which
    keeps the steep end of R_d, the far vertex, off the map's collapsed
    corner.  All facets share the parameters (s, t), so the whole sum is
    one vectorised integrand and one scipy.integrate.cubature call (gk21,
    deterministic), and rel_tol holds on the sum itself, whatever the
    signs of the lambda_j.  Limited to d in {2, 3}.  Raises
    GeometryDomainError when kappa is not finite, or when a vertex is not
    strictly inside the model ball at this kappa, where the integrand
    blows up.
    """
    from scipy.integrate import cubature
    d = vertices.shape[1]
    if d not in (2, 3):
        raise CostLimitError("direct Klein integration is limited to d in {2, 3}")
    _require_finite(kappa)
    if kappa < 0:
        rmax2 = float(np.max(np.sum(vertices * vertices, axis=1)))
        if 1.0 + kappa * rmax2 <= 0.0:
            raise GeometryDomainError(
                "simplex does not fit strictly inside the model ball at this kappa")
    vol = abs(np.linalg.det(vertices[1:] - vertices[0])) / math.factorial(d)
    cones = d * vol * np.linalg.solve(np.vstack([np.ones(d + 1), vertices.T]),
                                      np.eye(d + 1)[0])
    facets = np.stack([f[np.argsort(np.sum(f * f, axis=1), kind="stable")]
                       for f in (np.delete(vertices, j, axis=0) for j in range(d + 1))])
    p0 = facets[:, 0].ravel()
    steps = np.diff(facets, axis=1).transpose(1, 0, 2).reshape(d - 1, -1)

    def integrand(u):
        c = np.cumprod(u, axis=1)  # the map's s and st
        x = (p0 + c @ steps).reshape(len(u), d + 1, d)  # one point on each facet
        radial = _klein_radial(d, kappa * np.sum(x * x, axis=2))
        return (d - 1) * np.prod(c[:, :d - 2], axis=1) * (radial @ cones)

    return float(cubature(integrand, np.zeros(d - 1), np.ones(d - 1), rule="gk21",
                          rtol=rel_tol, atol=0.0).estimate)


#: |a| below which _klein_radial sums R_3's power series, where its closed
#: form cancels; the series' first 28 terms leave below u of it there
_R3_NEAR = 0.25
_R3_TERMS = 28


def _klein_radial(d, a):
    """R_d(a) = int_0^1 r^(d-1) (1 + a r^2)^(-(d+1)/2) dr = 2F1((d+1)/2, d/2;
    d/2 + 1; -a) / d at each a > -1 of the array a, for d in {2, 3}.

    With u = r^2, R_2(a) = 1/(w (1 + w)), w = sqrt(1 + a), which nowhere
    cancels.  R_3(a) = (atan(b)/b - 1/(1 + a))/(2a), b = sqrt(a), and for a <
    0 the same with atanh(b)/b, b = sqrt(-a); as a -> 0 its two terms cancel
    (to a relative 2u/|a|), so at |a| < _R3_NEAR it is the series sum_k (k
    + 1)(-a)^k/(2k + 3), term by term from (1 + a r^2)^-2 = sum_k (k + 1)(-a
    r^2)^k.  Against a 40-digit 2F1, both are within 6 ulp from a = -1 +
    1e-13 to 1e7, where scipy's hyp2f1 is off by up to 3e-14 near a = -0.996
    and returns inf for R_2 at a = -1 + 1e-13.
    """
    if d == 2:
        w = np.sqrt(1.0 + a)
        return 1.0 / (w * (1.0 + w))
    out = np.empty_like(a)
    near = np.abs(a) < _R3_NEAR
    k = np.arange(_R3_TERMS - 1.0, -1.0, -1.0)
    out[near] = np.polyval((k + 1.0) / (2.0 * k + 3.0), -a[near])
    for part, atan in ((a >= _R3_NEAR, np.arctan), (a <= -_R3_NEAR, np.arctanh)):
        x = a[part]
        b = np.sqrt(np.abs(x))
        out[part] = (atan(b) / b - 1.0 / (1.0 + x)) / (2.0 * x)
    return out


def ideal_tetrahedron_volume():
    """Volume of the ideal regular 3-simplex: -3 * int_0^{pi/3} log(2 sin t) dt.

    The integrable log singularity at 0 is split off analytically:
    int_0^eps log(2 sin t) dt = eps(log(2 eps) - 1) - eps^3/18 - eps^5/900 + ...
    """
    from scipy import integrate
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
    from scipy import integrate
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
