"""Exact-rational toolkit for stability criteria of polarized toric varieties."""

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
from .integrate import Poly, boundary_integral, integrate, integrate_simplex, moment_vector
from .lattice import EhrhartPoly, ehrhart, lattice_points, refined_points
from .linalg import (
    ANY_S,
    AnyS,
    rank,
    rat,
    rat_str,
    solve_linear,
    solve_overdetermined_1d,
)
from .plfun import (
    AffineFn,
    PLFn,
    boundary_integrate_pl,
    integrate_pl,
    linearity_regions,
    upper_hull,
)
from .polytope import (
    HalfSpace,
    Polytope,
    Simplex,
    halfspaces_from_vertices,
    intersect_halfspace,
    is_reflexive_delzant,
    polar_dual,
    vertices_from_halfspaces,
)
from .stability import (
    ChowCondition,
    ExtremalData,
    KVerdict,
    NodeData,
    RadialCertificate,
    StabilityReport,
    analyze,
    average_scalar,
    chow_necessary,
    destabilizer_search,
    extremal_affine,
    futaki_vector,
    k_classify,
    l_functional,
    p_weight,
    project_perp,
    q_weight,
    radial_certificate,
    s_closed_form,
    theta_nodes,
)
from .univariate import interpolate_poly

__version__ = "0.1.0"
