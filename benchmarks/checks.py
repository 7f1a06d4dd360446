"""Reference values computed without the simplexvol engine, and the rules that compare against them.

Nothing here imports simplexvol.  The closed forms, the one-factor real
integral (SciPy's ``ndtr`` under QUADPACK), Genz's orthant algorithm and the
Monte Carlo average of the Klein density share no code with the contour
integral, so agreement with them says something about the engine.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, special, stats


def sphere_area(d):
    """Surface area of the unit d-sphere in R^{d+1}."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ideal_regular_closed_form(d):
    """Volume of the ideal regular d-simplex at kappa = -1 for d = 2, 3, 4.

    d = 2: pi.  d = 3: 3 L(pi/3) = (3/2) Cl2(2 pi/3), the log-sine integral.
    d = 4: (10 pi/3) asin(1/3) - pi^2/3.
    """
    if d == 2:
        return math.pi
    if d == 3:
        return float(1.5 * mpmath.clsin(2, 2 * mpmath.pi / 3))
    if d == 4:
        return 10.0 * math.pi / 3.0 * math.asin(1.0 / 3.0) - math.pi ** 2 / 3.0
    raise ValueError("closed forms are known for d = 2, 3, 4 only")


def min_curvature(taus):
    """kappa0 = -min_j tau_j^2 s / (s - tau_j^2), the admissibility bound."""
    taus = np.asarray(taus, dtype=float)
    s = float(np.sum(taus ** 2))
    return -float(np.min(taus ** 2 * s / (s - taus ** 2)))


def vertex_gram(taus):
    """Gram matrix <v_j, v_k> = -1/s + delta_jk / tau_j^2 of an orthocentric simplex."""
    taus = np.asarray(taus, dtype=float)
    s = float(np.sum(taus ** 2))
    return np.diag(1.0 / taus ** 2) - 1.0 / s


def spherical_one_factor(taus, kappa):
    """Spherical volume (kappa >= s) from the real one-factor integral.

    P = int phi(x) prod_j Phi(c_j x) dx with c_j = tau_j/s sqrt(kappa - s) is the
    orthant probability of covariance I + c c^T; the volume is
    area(S^d) P / kappa^{d/2}.  Returns (volume, error bound).
    """
    taus = np.asarray(taus, dtype=float)
    d = len(taus) - 1
    s = float(np.sum(taus ** 2))
    c = taus / s * math.sqrt(kappa - s)

    def f(x):
        return math.exp(-0.5 * x * x) * float(np.prod(special.ndtr(c * x)))

    val, err = integrate.quad(f, -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13,
                              limit=200)
    scale = sphere_area(d) / kappa ** (d / 2.0) / math.sqrt(2.0 * math.pi)
    return scale * val, scale * (err + 1e-15 * (d + 2) * abs(val))


def spherical_genz(taus, kappa, seed, abseps=1e-7):
    """Spherical volume from Genz's orthant probability, N(0, I + c c^T) <= 0.

    The randomized lattice rule is seeded, so the value is reproducible.
    Returns (volume, error allowance of 10 * abseps on the probability).
    """
    taus = np.asarray(taus, dtype=float)
    d = len(taus) - 1
    s = float(np.sum(taus ** 2))
    c = taus / s * math.sqrt(kappa - s)
    zero = np.zeros(d + 1)
    p = stats.multivariate_normal.cdf(zero, mean=zero, cov=np.eye(d + 1) + np.outer(c, c),
                                      abseps=abseps, releps=0.0,
                                      rng=np.random.default_rng(seed))
    scale = sphere_area(d) / kappa ** (d / 2.0)
    return scale * float(p), scale * 10.0 * abseps


def klein_monte_carlo(taus, kappa, samples, seed):
    """Hyperbolic volume as the Euclidean volume times the mean Klein density.

    Points are uniform on the simplex (flat Dirichlet barycentric weights), so
    |y|^2 = w^T G w with G the vertex Gram matrix; the density is
    (1 + kappa |y|^2)^{-(d+1)/2}.  Returns (estimate, standard error).
    """
    g = vertex_gram(taus)
    n = g.shape[0]
    d = n - 1
    if np.any(1.0 + kappa * np.diag(g) <= 0.0):
        raise ValueError("a vertex lies outside the model ball at this kappa")
    edges = g[1:, 1:] - g[1:, :1] - g[:1, 1:] + g[0, 0]
    euclid = math.sqrt(np.linalg.det(edges)) / math.factorial(d)
    w = np.random.default_rng(seed).dirichlet(np.ones(n), size=samples)
    r2 = np.einsum("ij,jk,ik->i", w, g, w)
    dens = (1.0 + kappa * r2) ** (-(d + 1) / 2.0)
    return euclid * float(dens.mean()), euclid * float(dens.std(ddof=1)) / math.sqrt(samples)


class Checks:
    """Collects named pass/fail checks; a failure keeps its reason."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def require(self, name, ok, detail=""):
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def against(self, name, value, abs_error, ref, ref_error):
        """The value agrees with a reference within its claimed error.

        Fails when |value - ref| exceeds abs_error + ref_error (a wrong value
        or a claimed error smaller than the actual one), and when the claimed
        error is as large as the value itself.
        """
        actual = abs(value - ref)
        if not actual <= abs_error + ref_error:
            return self.require(name, False,
                                f"|value - reference| = {actual:.3g} exceeds claimed error "
                                f"{abs_error:.3g} + reference error {ref_error:.3g} "
                                f"(value {value!r}, reference {ref!r})")
        return self.require(name, abs_error < abs(value),
                            f"claimed error {abs_error:.3g} swallows the value {value!r}")

    def within_se(self, name, value, abs_error, estimate, std_error, k=4.0):
        """The value lies within k standard errors (plus its own error) of a Monte Carlo estimate."""
        actual = abs(value - estimate)
        return self.require(name, actual <= k * std_error + abs_error,
                            f"|value - estimate| = {actual:.3g} exceeds {k:g} standard errors "
                            f"({std_error:.3g}) + claimed error {abs_error:.3g}")
