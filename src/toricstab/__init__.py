"""Exact-rational toolkit for stability criteria of polarized toric varieties.

``__all__`` is the library's API, listed with a reason per name in the
README's "API" section; every other routine is reached through its module.
"""

from .errors import (
    DegenerateSpan,
    DegreeMismatch,
    Empty,
    InternalInvariant,
    NotFullDimensional,
    NotLatticePolytope,
    NotReflexive,
    OriginNotInterior,
    ParseError,
    PreconditionFailed,
    SingularMatrix,
    ThetaConstant,
    ToricStabError,
    Unbounded,
    ValidationError,
)
from .integrate import Poly, boundary_integral, integrate, moment_vector
from .lattice import EhrhartPoly, ehrhart
from .plfun import AffineFn, PLFn, integrate_pl, upper_hull
from .polytope import HalfSpace, Polytope, is_reflexive_delzant, polar_dual
from .stability import (
    ChowCondition,
    ExtremalData,
    KVerdict,
    RadialCertificate,
    StabilityReport,
    analyze,
    chow_necessary,
    destabilizer_search,
    extremal_affine,
    k_classify,
    l_functional,
    p_weight,
    project_perp,
    q_weight,
    radial_certificate,
    s_closed_form,
)

__all__ = [
    # errors
    "ToricStabError", "ParseError", "ValidationError", "DegenerateSpan", "DegreeMismatch",
    "Empty", "InternalInvariant", "NotFullDimensional", "NotLatticePolytope", "NotReflexive",
    "OriginNotInterior", "PreconditionFailed", "SingularMatrix", "ThetaConstant", "Unbounded",
    # geometry, integrals, Ehrhart and PL functions
    "Polytope", "HalfSpace", "polar_dual", "is_reflexive_delzant",
    "Poly", "integrate", "boundary_integral", "moment_vector",
    "ehrhart", "EhrhartPoly",
    "AffineFn", "PLFn", "integrate_pl", "upper_hull",
    # stability
    "ExtremalData", "extremal_affine", "l_functional",
    "KVerdict", "k_classify", "RadialCertificate", "radial_certificate", "destabilizer_search",
    "ChowCondition", "chow_necessary", "s_closed_form", "q_weight", "p_weight", "project_perp",
    "StabilityReport", "analyze",
]

__version__ = "0.1.0"
