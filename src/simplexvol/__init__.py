"""Hyperbolic and spherical volumes of regular and orthocentric simplices.

The volume of a simplex in a space of constant curvature is expressed as a
contour integral of products of the analytically continued normal
distribution function along the ray arg(x) = -pi/4, and evaluated with a
stabilized head-plus-tail scheme.  Independent oracles (Monte Carlo cone
sampling, direct Klein-model integration, classical tetrahedron integrals)
validate the engine.
"""

__version__ = "0.1.0"

from .cnormal import norm_cdf, norm_cdf_array
from .engine import (
    Branch, OrthantTransform, VolumeRequest, VolumeResult,
    curvature_scaling_residual, orthant_probability, regular_volume,
    sphere_surface_area, volume,
)
from .errors import (
    CostLimitError, GeometryDomainError, NearPoleError, OverflowRegionError,
    RankDeficiencyError, SectorError, SimplexVolError, ToleranceError,
)
from .geometry import (
    OrthocentricParams, RegularSimplexSpec, VertexRealization, cosh_ratio,
    euclidean_volume, min_curvature, realize_vertices, regular_parameters,
    side_length,
)
from ._hp import ideal_volume_highprec
from .oracles import (
    MonteCarloReport, direct_klein_volume, ideal_tetrahedron_volume,
    mc_spherical_volume, regular_tetrahedron_volume,
)
from .rayquad import (
    HalfPlane, IntegralPath, IntegralResult, RayIntegralProblem, head_integral,
    ibp_tail, ray_integral,
)

__all__ = [
    "Branch", "CostLimitError", "GeometryDomainError", "HalfPlane",
    "IntegralPath", "IntegralResult", "MonteCarloReport", "NearPoleError",
    "OrthantTransform", "OrthocentricParams", "OverflowRegionError",
    "RankDeficiencyError", "RayIntegralProblem", "RegularSimplexSpec",
    "SectorError", "SimplexVolError", "ToleranceError", "VertexRealization",
    "VolumeRequest", "VolumeResult", "cosh_ratio",
    "curvature_scaling_residual", "direct_klein_volume", "euclidean_volume",
    "head_integral", "ibp_tail", "ideal_tetrahedron_volume",
    "ideal_volume_highprec", "mc_spherical_volume", "min_curvature",
    "norm_cdf", "norm_cdf_array", "orthant_probability", "ray_integral",
    "realize_vertices", "regular_parameters", "regular_tetrahedron_volume",
    "regular_volume", "side_length", "sphere_surface_area", "volume",
]
