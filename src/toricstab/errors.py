"""Exception types shared across the library."""


class ToricStabError(Exception):
    """Base class for all library errors."""


class SingularMatrix(ToricStabError):
    """Square system has determinant zero."""


class DegreeMismatch(ToricStabError):
    """Supplied points do not lie on a polynomial of the stated degree."""


class Unbounded(ToricStabError):
    """Half-space system has a nontrivial recession cone."""


class Empty(ToricStabError):
    """Half-space system has no feasible point."""


class NotFullDimensional(ToricStabError):
    """Point set or feasible region does not affinely span the ambient space."""


class OriginNotInterior(ToricStabError):
    """Polar dual requested for a polytope without 0 in its interior."""


class DegenerateNormal(ToricStabError):
    """Facet normal has no usable projection axis."""


class NotLatticePolytope(ToricStabError):
    """Ehrhart reconstruction requires integral vertices."""


class DegenerateSpan(ToricStabError):
    """Upper hull nodes do not affinely span the base space."""


class ThetaConstant(ToricStabError):
    """Projection undefined: potential is constant on the sample nodes."""


class NotReflexive(ToricStabError):
    """K-stability classifier requires a reflexive polytope."""


class PreconditionFailed(ToricStabError):
    """Operation invoked outside its stated precondition."""


class ParseError(ToricStabError):
    """Malformed polytope or function file."""


class ValidationError(ToricStabError):
    """Input violates a structural invariant; the message names it."""


class InternalInvariant(ToricStabError):
    """An exact identity the computation guarantees failed to hold: a bug."""
