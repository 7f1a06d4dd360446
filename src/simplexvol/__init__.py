"""Hyperbolic and spherical volumes of regular and orthocentric simplices.

The volume of a simplex in a space of constant curvature is expressed as a
contour integral of products of the analytically continued normal
distribution function along the ray arg(x) = -pi/4, and evaluated with a
stabilized head-plus-tail scheme.  Independent oracles (Monte Carlo cone
sampling, direct Klein-model integration, classical tetrahedron integrals)
validate the engine.

The oracles (which need ``scipy.integrate``) and the mpmath reference of
the curvature series at kappa < 0 (``_hp``) are loaded only when one of
their names is first used.
"""

import importlib

__version__ = "0.1.0"

from .cnormal import norm_cdf, norm_cdf_array
from .engine import (
    Branch, VolumeRequest, VolumeResult, orthant_probability, regular_volume,
    sphere_surface_area, volume, volumes,
)
from .errors import (
    CostLimitError, GeometryDomainError, NearPoleError, OverflowRegionError,
    RankDeficiencyError, SectorError, SimplexVolError, ToleranceError,
)
from .geometry import (
    OrthocentricParams, euclidean_volume, min_curvature, realize_vertices,
    regular_parameters, side_length,
)
from .rayquad import (
    IntegralResult, RayIntegralProblem, head_integral, ibp_tail, ray_integral,
)

#: submodules loaded on first use, as ``import simplexvol.oracles`` would
_LAZY_MODULES = ("oracles", "_hp")

#: public names resolved on first use, and the submodule that defines each
_LAZY = {
    "ideal_volume_highprec": "._hp",
    "MonteCarloReport": ".oracles",
    "direct_klein_volume": ".oracles",
    "ideal_tetrahedron_volume": ".oracles",
    "mc_spherical_volume": ".oracles",
    "mc_spherical_volumes": ".oracles",
    "regular_tetrahedron_volume": ".oracles",
}

__all__ = [
    "Branch", "CostLimitError", "GeometryDomainError", "IntegralResult",
    "MonteCarloReport", "NearPoleError", "OrthocentricParams",
    "OverflowRegionError", "RankDeficiencyError", "RayIntegralProblem",
    "SectorError", "SimplexVolError", "ToleranceError", "VolumeRequest",
    "VolumeResult", "direct_klein_volume", "euclidean_volume", "head_integral",
    "ibp_tail", "ideal_tetrahedron_volume", "ideal_volume_highprec",
    "mc_spherical_volume", "mc_spherical_volumes", "min_curvature", "norm_cdf",
    "norm_cdf_array", "orthant_probability", "ray_integral", "realize_vertices",
    "regular_parameters", "regular_tetrahedron_volume", "regular_volume",
    "side_length", "sphere_surface_area", "volume", "volumes",
]


def __getattr__(name):
    # not cached in the package namespace: a later rebinding of the module
    # attribute (a test's monkeypatch, say) is seen here too
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name], __name__), name)
    if name in _LAZY_MODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
