"""Breadth-first adaptive Gauss-Kronrod quadrature for vectorized integrands.

The integrand is called once per refinement round on the union of all new
panels' nodes, which keeps the number of (expensive, batched) special-function
evaluations low.  Supports componentwise integrands f: (n,) -> (m, n), so a
value and a bound integrated alongside it share one adaptive pass.  Summation
order is deterministic (panel order, numpy pairwise reduction), so results
are reproducible across runs and thread counts.
"""

import numpy as np

from .errors import ToleranceError

# 15-point Kronrod / 7-point Gauss pair on [-1, 1] (positive half; symmetric)
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])        # 15 ascending
_WK = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


def _apply_rule(f, lo, hi):
    """Evaluate the K15/G7 pair on a batch of panels [lo_i, hi_i].

    Returns (k15, err, nevals) with shapes (m, npanels).
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]     # (npanels, 15)
    fv = np.asarray(f(x.ravel()))
    m = 1 if fv.ndim == 1 else fv.shape[0]
    fv = fv.reshape(m, x.shape[0], 15)
    k15 = (fv * _WK).sum(axis=2) * half
    g7 = (fv * _WGFULL).sum(axis=2) * half
    return k15, np.abs(k15 - g7), x.size


def adaptive_gk(f, edges, tol, max_panels=512):
    """Integrate f componentwise over the interval that the grid edges spans.

    edges is the initial panel grid, from its first entry to its last: a
    decreasing grid gives the negated integral, and a grid whose points all
    coincide gives 0.  f maps a flat node array (n,) to values (n,) or
    (m, n).  A pass ends once every component's error estimate is at most
    tol * max(1, |I|), which is absolute below |I| = 1 and relative above.
    Returns (values (m,), error_estimates (m,), n_evaluations).  Raises
    ToleranceError (carrying the best result) if max_panels is exhausted.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    vals, errs, neval = _apply_rule(f, lo, hi)

    while True:
        total = vals.sum(axis=1)
        toterr = errs.sum(axis=1)
        target = tol * np.maximum(1.0, np.abs(total))
        bad = toterr > target
        if not np.any(bad):
            return total, toterr, neval
        if lo.size >= max_panels:
            raise ToleranceError(
                f"quadrature tolerance not met with {lo.size} panels",
                result=(total, toterr, neval))
        # split every panel whose worst normalized error share is significant
        # (a failing component's shares sum to toterr/target > 1: one is > 1/N)
        score = (errs[bad] / target[bad, None]).max(axis=0)
        split = score > 0.5 / lo.size
        keep = ~split
        slo, shi = lo[split], hi[split]
        smid = 0.5 * (slo + shi)
        nlo = np.concatenate([slo, smid])
        nhi = np.concatenate([smid, shi])
        nvals, nerrs, extra = _apply_rule(f, nlo, nhi)
        neval += extra
        lo = np.concatenate([lo[keep], nlo])
        hi = np.concatenate([hi[keep], nhi])
        vals = np.concatenate([vals[:, keep], nvals], axis=1)
        errs = np.concatenate([errs[:, keep], nerrs], axis=1)


def oscillation_edges(b, phase_rate, min_panels=4):
    """Panel edges on [0, b] for integrands oscillating like exp(i*phase_rate*y^2/2).

    Edges are placed where the accumulated phase reaches a multiple of pi, so
    each panel spans at most pi of it; a grid with fewer than min_panels
    panels is replaced by min_panels equal ones.
    """
    edges = [0.0]
    if phase_rate > 0:
        k = 1
        while True:
            y = np.sqrt(2 * np.pi * k / phase_rate)
            if y >= b:
                break
            edges.append(y)
            k += 1
    edges.append(b)
    if len(edges) - 1 < min_panels:
        return np.linspace(0.0, b, min_panels + 1)
    return np.asarray(edges)
