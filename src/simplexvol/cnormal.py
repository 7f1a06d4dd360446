"""Analytically continued standard normal distribution function on the complex plane.

The function evaluated here is

    N(z) = 1/2 + (2*pi)**(-1/2) * integral_0^z exp(-t**2/2) dt
         = erfc(-z/sqrt(2)) / 2,

an entire function of z.  Evaluation strategy:

* first-quadrant core: SciPy's complex erfc (S. G. Johnson's Faddeeva
  package), one expression for every modulus, imported on the first call so
  that importing this module does not load SciPy;
* the rest of the plane is reached through the exact symmetries
  N(conj(z)) = conj(N(z)) and N(-z) = 1 - N(z), applied by construction so
  that both identities hold to the last rounding.

Inside the closed sectors |arg(+-z)| <= pi/4 the absolute error is below
2e-15; elsewhere accuracy is relative to max(1, |N(z)|), since the function
grows like exp(|z|**2/2) there and absolute accuracy below its ulp is not
representable in double precision.  The relative error in those growth
sectors scales like |z|**2 times the double rounding unit, from rounding the
argument (about 1e-13 at |z| = 12).

All functions are pure; they share no mutable state and are safe to call
concurrently.
"""

import math

import numpy as np

from .errors import OverflowRegionError

SQRT_2PI = 2.5066282746310007

#: exponent above which exp(-z**2/2) overflows a double
_EXP_LIMIT = 705.0


def _core_q1(z):
    """N(z) for z in the closed first quadrant."""
    # SciPy is imported by the first call, not by the package
    from scipy.special import erfc

    if np.any(np.real(-0.5 * z * z) > _EXP_LIMIT):
        raise OverflowRegionError(
            "argument outside supported region: exp(-z**2/2) overflows in a growth sector")
    return 0.5 * erfc(-z / math.sqrt(2.0))


def norm_cdf_array(z):
    """Vectorized complex normal CDF; z is any array-like of complex values."""
    z = np.asarray(z, dtype=np.complex128)
    if z.size and not np.all(np.isfinite(z)):
        raise ValueError("arguments must be finite")
    shape = z.shape
    z = z.ravel()

    # reduce to the first quadrant: conjugation first, then reflection
    c1 = np.imag(z) < 0.0
    w = np.where(c1, np.conj(z), z)
    c2 = np.real(w) < 0.0
    v = np.where(c2, -np.conj(w), w)

    val = _core_q1(v)
    val = np.where(c2, 1.0 - np.conj(val), val)
    val = np.where(c1, np.conj(val), val)
    return val.reshape(shape)


def norm_cdf(z):
    """Complex normal CDF at a single point."""
    return complex(norm_cdf_array(np.array([complex(z)]))[0])
