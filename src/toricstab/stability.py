"""Stability criteria for polarized toric varieties given by their moment polytopes.

The pipeline: solve for the extremal affine potential theta (the affine
function representing the extremal vector field, normalized to integrate to
zero), evaluate the linear functional

    L(u) = integral over the boundary of u d(sigma)
         - integral over P of (Sbar + theta) * u dx

on piecewise-linear convex test functions, classify K-stability by the
sufficient criteria on the excess region {theta >= 1}, and decide the
Chow-side balance conditions on the refined lattice samples P meet (Z/i)^n,
each sum over them read off the fibre ranges of iP with no node built.

Conventions used throughout (all exact), held per level i by one record,
:class:`ChowCondition`, built once per (theta, i) from the level's integer sums:
  theta_bar(i)   = average of theta over the refined sample points
  ttilde(a)      = (theta(a) - theta_bar) / i
  balance system = sum_a a + s * sum_a ttilde(a) a = (E(i)/Vol) * moment(P)
  s_closed(i)    = -i * theta_bar * E(i) / sum_a (theta(a) - theta_bar)^2

The balance system written this way is the unique scaling that makes the
relative Chow weight Q vanish exactly on affine functions and that makes the
projection identity P(i, u_perp) = Q(i, u) exact; s_closed then tends to -1/2
as i grows.  Other scalings of s differ by powers of i and give the identical
holds/fails verdict (asserted in the tests).

The system is decided in integers.  Its rows cleared of denominators read
A_k s = B_k, with A_k = N X_k - T S_1,k and
B_k = N i base sums_k - mass first_den S_1,k off the level's sums and P's
moment record (:func:`chow_necessary`).  It is ``any`` when A = B = 0,
``holds`` when A != 0 and every 2 x 2 minor A_j B_k - A_k B_j vanishes, and
``fails`` otherwise (:func:`_balance`).  On lattice P the level sums N, S_1
and S_2 are polynomials in i, so the same rows and minors, read as
polynomials in i, decide the system at every level at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    InternalInvariant,
    NotReflexive,
    PreconditionFailed,
    ThetaConstant,
    ValidationError,
)
from .lattice import _level_sums, _pl_sums, check_levels, ehrhart, lattice_points
from .linalg import (
    _independent_rows,
    _integer_row,
    _over_common_denominator,
    _solve,
    dot,
    quoted,
    rat,
    rat_str,
    solve_linear,
)
from .plfun import (
    AffineFn,
    PLFn,
    _boundary_facets,
    _nonzero_regions,
    pl_is_rational_lattice_cone,
)
from .polytope import (
    Polytope,
    _is_reflexive,
    intersect_halfspace,
    is_reflexive_delzant,
    lattice_isomorphisms,
    primitive_normal,
)
from .univariate import divide, sign_on


# ---------------------------------------------------------------------------
# extremal potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalData:
    """The extremal affine potential and the data that determined it."""

    theta: AffineFn
    # The average scalar curvature: boundary measure over volume, n on
    # reflexive P.
    sbar: Fraction
    gram: tuple[tuple[Fraction, ...], ...]
    # The right-hand side of the system, the Futaki (obstruction) vector
    # (integral_bd x_k dsigma - Sbar * integral x_k dx)_k: up to a positive
    # dimensional constant the classical obstruction character on the torus
    # generators; it vanishes iff theta = 0.
    futaki: tuple[Fraction, ...]


def extremal_affine(p: Polytope) -> ExtremalData:
    """Solve the (n+1)-dimensional exact system L(x_k) = 0, integral(theta) = 0.

    The matrix is the Gram matrix of {x_1..x_n, 1} in L^2(P), hence positive
    definite for any full-dimensional P; singularity would be a bug, not an
    input condition.
    """
    if "extremal" in p.cache:
        return p.cache["extremal"]
    n = p.dim
    record = p.moments()
    vol, moments = record.measure, record.first
    # Boundary measure and integrals of x_k: per facet (mass k1, sums) / first_den.
    facets = [p.facet_moments(i) for i in range(len(p.halfspaces))]
    den = math.lcm(*(m.first_den for m in facets))
    bd = [0] * (n + 1)
    for m in facets:
        for k, x in enumerate((m.mass * (m.first_den // m.base), *m.sums)):
            bd[k] += x * (den // m.first_den)
    sbar = Fraction(bd[0], den) / vol
    gram = [[*record.second[k], moments[k]] for k in range(n)] + [[*moments, vol]]
    futaki = tuple(Fraction(s, den) - sbar * x for s, x in zip(bd[1:], moments))
    solved = _solve(gram, [[*futaki, 0]])
    if solved is None:
        raise InternalInvariant("the Gram matrix of P is singular")
    # theta = (X.x + X_n) / d; exact by construction, checked in integers:
    # d first_den integral(theta) = linear(X, X_n) must vanish.
    d, [x] = solved
    if record.linear(x[:n], x[n]):
        raise InternalInvariant("theta does not integrate to zero")
    theta = AffineFn(tuple(Fraction(v, d) for v in x[:n]), Fraction(x[n], d))
    p.cache["extremal"] = ExtremalData(theta, sbar, tuple(map(tuple, gram)), futaki)
    return p.cache["extremal"]


# ---------------------------------------------------------------------------
# the linear functional
# ---------------------------------------------------------------------------


def l_functional(p: Polytope, ed: ExtremalData, u: PLFn) -> Fraction:
    """L(u) = boundary integral of u minus integral of (Sbar + theta) u.

    The sum of the terms of :class:`_LCore` over the linearity regions R_k
    of the pieces of u that are not identically zero (so max{0, b.x + d}
    costs one cut), with the boundary term on R_k's facets on facets of P.
    On reflexive P the two forms must agree exactly; a mismatch is a bug.
    """
    core = _LCore(p, ed)
    boundary = volume = parts = Fraction(0)
    for region, piece in _nonzero_regions(p, u):
        (*a, c), q = _integer_row((*piece.a, piece.c))
        on_p, in_r, by_parts = core.terms(region, a, c, q)
        boundary += on_p
        volume += in_r
        parts += by_parts
    return core.value(boundary, volume, parts)


class _LCore:
    """The terms of L on one region R of P and one piece f = (a.x + c) / q
    of u there, with a, c and q integers.

    The boundary term integrates f over R's facets on the boundary of P
    (:func:`~toricstab.plfun._boundary_facets`) as c m_0 + a.m_1.  With
    theta = t.x + theta_c and w = Sbar + theta_c the volume term is
    w c m_0 + (w a + c t).m_1 + t^T M_2 a over R.  On reflexive P the parts
    form -c Vol(R) + integral of (1 - theta) f over R needs no facet record.
    All run in integers against the records' sums
    (:class:`~toricstab.polytope.Moments`), t^T M_2 a off R's cells, with
    one ``Fraction`` per boundary facet and per form.
    """

    def __init__(self, p: Polytope, ed: ExtremalData):
        self.p = p
        self.t, self.t_den = _integer_row(ed.theta.a)
        self.w = ed.sbar + ed.theta.c
        self.rest = 1 - ed.theta.c
        self.check = _is_reflexive(p)

    def terms(
        self, region: Polytope, a: Sequence[int], c: int, q: int
    ) -> tuple[Fraction, Fraction, Fraction]:
        """(boundary, volume, parts) on ``region``, the boundary term over
        its facets on facets of P; parts is 0 off reflexive P."""
        boundary = Fraction(0)
        for i in _boundary_facets(self.p, region):
            m = region.facet_moments(i)
            boundary += Fraction(m.linear(a, c), q * m.first_den)
        m = region.moments()
        t, t_den, w = self.t, self.t_den, self.w
        # Times q t_den second_den: the integrals of f, of its constant term
        # and of (t.x) f, the part of theta f that both forms share.
        k1, k2 = m.first_den // m.base, m.second_den // m.first_den
        f_int = m.linear(a, c) * t_den * k2
        c_int = c * m.mass * k1 * k2 * t_den
        ct_quad = c * sum(map(mul, t, m.sums)) * k2 + m.quadratic(t, a)
        den = q * t_den * m.second_den
        volume = Fraction(w.numerator * f_int + w.denominator * ct_quad, w.denominator * den)
        parts = Fraction(0)
        if self.check:
            # On the region, sum x_i df_i - f = -c/q (the gradient terms cancel).
            rest = self.rest
            parts = Fraction(
                rest.numerator * f_int - rest.denominator * (c_int + ct_quad),
                rest.denominator * den,
            )
        return boundary, volume, parts

    def value(self, boundary: Fraction, volume: Fraction, parts: Fraction) -> Fraction:
        """boundary - volume, which must equal the parts form on reflexive P."""
        value = boundary - volume
        if self.check and parts != value:
            raise InternalInvariant(
                f"boundary-form {rat_str(value)} != parts-form {rat_str(parts)}"
            )
        return value


def _integral(p: Polytope, u: PLFn) -> Fraction:
    """The integral of u over P: over the linearity region R of each piece
    (a.x + c) / q that is not identically zero, with a, c and q integers,
    the first moments of R's record give it in integers
    (:meth:`~toricstab.polytope.Moments.linear`), one ``Fraction`` per region."""
    total = Fraction(0)
    for region, piece in _nonzero_regions(p, u):
        (*a, c), q = _integer_row((*piece.a, piece.c))
        m = region.moments()
        total += Fraction(m.linear(a, c), q * m.first_den)
    return total


# ---------------------------------------------------------------------------
# K-stability classification
# ---------------------------------------------------------------------------

STABLE_EMPTY_EXCESS = "stable_no_excess_region"
UNSTABLE_MEAN_CRITERION = "unstable_excess_mean_criterion"
UNSTABLE_WITNESS = "unstable_witness_found"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class KVerdict:
    """The outcome of :func:`k_classify`: the classification, theta, the
    excess region and both sides of the mean criterion where it has
    interior, and the witness with its L where one destabilizes."""

    classification: str
    theta: AffineFn
    delta_minus: Optional[Polytope]
    cond_lhs: Optional[Fraction]  # 1 - c
    cond_rhs: Optional[Fraction]  # mean of (1 - theta)^2 over the excess region
    witness: Optional[PLFn]
    witness_value: Optional[Fraction]

    @property
    def stable(self) -> Optional[bool]:
        if self.classification == STABLE_EMPTY_EXCESS:
            return True
        if self.classification in (UNSTABLE_MEAN_CRITERION, UNSTABLE_WITNESS):
            return False
        return None


def excess_region(p: Polytope, ed: ExtremalData) -> Optional[Polytope]:
    """Closure of {x in P : theta(x) >= 1}, or None when it has no interior;
    cut once per (P, theta) and cached on P."""
    a, c = ed.theta.a, ed.theta.c
    if not any(a):
        return None if c < 1 else p
    key = ("excess_region", a, c)
    if key not in p.cache:
        # theta >= 1  <=>  -a.x <= c - 1
        p.cache[key] = intersect_halfspace(p, [-x for x in a], c - 1)
    return p.cache[key]


def reflexive_translate(p: Polytope) -> Optional[Polytope]:
    """The integer translate of P with every facet at level 1, when one exists.

    The classifier's constants (the threshold 1, the 1-c term) are only
    meaningful in this normalized position; working on the translate makes
    the verdict invariant under integer translations of the input.  A
    reflexive P is returned as is; otherwise, for lattice P, the integral
    shift t with <l, t> = rhs - 1 on every facet gives P - t, read off P's
    rows (less t, still sorted) and facets with no hull.
    """
    if _is_reflexive(p):
        return p
    # t solves the system on independent facets; the normals of P span.
    basis = [p.halfspaces[k] for k in _independent_rows([h.normal for h in p.halfspaces])]
    shift = solve_linear([h.normal for h in basis], [h.rhs - 1 for h in basis])
    if not p.is_lattice() or any(x.denominator != 1 for x in shift) or any(
        h.rhs - dot(h.normal, shift) != 1 for h in p.halfspaces
    ):
        return None
    rows = [tuple(a - b.numerator for a, b in zip(r, shift)) for r in p.rows]
    facets = [replace(h, rhs=Fraction(1)) for h in p.halfspaces]
    return Polytope(facets, 1, rows, p.incidence, p.name)


class RadialCertificate(NamedTuple):
    """The radial bound of :func:`radial_certificate`."""

    interval: tuple[Fraction, Fraction]  # min and max of t.v over the vertices v
    polys: tuple[tuple[int, ...], ...]  # scale * Q at each end, low degree first
    scale: int
    holds: bool  # Q > 0 on [0, 1] at both ends


def radial_certificate(p: Polytope, ed: ExtremalData) -> RadialCertificate:
    """Decide exactly whether L(u) > 0 for every convex u on reflexive P
    that is not affine, by the sign of two polynomials on [0, 1].

    On reflexive P, L(u) = integral over P of x.grad u - theta u (the parts
    form of :class:`_LCore`).  L vanishes on affine functions, so u may be
    taken convex with u >= 0 and u(0) = 0.  With x = s y for y on the
    boundary, dx = s^(n-1) ds dsigma(y) (every facet is at lattice distance
    1), theta = t.x + theta_c and lambda = t.y, L is the integral over the
    boundary of l_lambda(g_y), g_y(s) = u(s y) and
    l_lambda(g) = integral over [0, 1] of (s g' - (theta_c + lambda s) g) s^(n-1).
    g_y is convex and non-decreasing with g(0) = 0, so a non-negative
    mixture of the hinges (s - a)_+, a in [0, 1), on which l_lambda is
    G(a, lambda) = A - theta_c B - lambda C with
    A = (1 - a^(n+1))/(n+1), B = A - a (1 - a^n)/n and
    C = (1 - a^(n+2))/(n+2) - a (1 - a^(n+1))/(n+1).  G(1, lambda) = 0 and G
    is affine in lambda, which ranges over the values of t.v at the
    vertices v.  So the bound holds when Q = G / (1 - a) > 0 on [0, 1] at
    both ends of that interval: Q(0) > 0 and no root in (0, 1]
    (:func:`~toricstab.univariate.sign_on`).

    In integers: P's vertices are lattice points, so with d the least
    common denominator of theta's coefficients, t.v and theta_c are
    integers over d, and d n (n+1) (n+2) G has integer coefficients; Q is
    its quotient by 1 - a (:func:`~toricstab.univariate.divide`), padded to
    n + 2 coefficients, and ``scale`` is d n (n+1) (n+2).  Input must be
    reflexive (:class:`NotReflexive`).
    """
    if not _is_reflexive(p):
        raise NotReflexive("the radial certificate needs every facet at lattice distance 1")
    n = p.dim
    d, [(*t, c)] = _over_common_denominator([(*ed.theta.a, ed.theta.c)])
    lams = [sum(map(mul, t, r)) for r in p.rows]  # t.v times d
    polys = []
    for lam in (min(lams), max(lams)):
        # d n (n+1) (n+2) G: A = (1 - a^(n+1))/(n+1) weighs d - theta_c d,
        # a (1 - a^n)/n (A - B) weighs theta_c d and C weighs -lambda d
        g = [0] * (n + 3)
        g[0] = (d - c) * n * (n + 2) - lam * n * (n + 1)
        g[1] = c * (n + 1) * (n + 2) + lam * n * (n + 2)
        g[n + 1] = -(d - c) * n * (n + 2) - c * (n + 1) * (n + 2)
        g[n + 2] = -lam * n
        quotient, rest = divide(g, [1, -1])
        if rest:
            raise InternalInvariant("the radial form does not vanish at a = 1")
        polys.append(tuple(quotient + [0] * (n + 2 - len(quotient))))
    return RadialCertificate(
        interval=(Fraction(min(lams), d), Fraction(max(lams), d)),
        polys=tuple(polys),
        scale=d * n * (n + 1) * (n + 2),
        holds=all(sign_on(q, 0, 1) > 0 for q in polys),
    )


def k_classify(p: Polytope, grid: int = 1) -> KVerdict:
    """Sufficient-criteria classifier for anticanonically polarized input.

    Empty excess region => stable.  Otherwise, if the mean of (1-theta)^2
    over the excess region exceeds 1-c, the explicit simple PL function
    max{0, theta-1} destabilizes.  Otherwise a finite grid of simple PL
    candidates is scanned; no winner leaves the verdict honestly undetermined
    (the criteria are sufficient, not exhaustive).  The scan is skipped where
    the radial bound (:func:`radial_certificate`) holds: L > 0 there on every
    convex function that is not affine, and every candidate max{0, b.x + d}
    is one, so the scan could find no witness and the undetermined verdict,
    with the same data, is exactly the one it would leave.

    Input must be reflexive up to an integer translation; the verdict and
    the reported data refer to the normalized (reflexive) position.  ``grid``
    is the search level of :func:`destabilizer_search`.
    """
    _check_search_level(grid, p.dim)
    normalized = reflexive_translate(p)
    if normalized is None:
        raise NotReflexive(
            "classification formulas assume every facet at level 1 with lattice vertices"
        )
    p = normalized
    ed = extremal_affine(p)
    minus = excess_region(p, ed)
    if minus is None:
        return KVerdict(STABLE_EMPTY_EXCESS, ed.theta, None, None, None, None, None)
    lhs = 1 - ed.theta.c
    rhs = _mean_square(minus, ed)
    if lhs < rhs:
        witness = PLFn.simple(ed.theta.a, ed.theta.c - 1)
        value = l_functional(p, ed, witness)
        if value >= 0:
            raise InternalInvariant("criterion held but the witness failed to go negative")
        return KVerdict(
            UNSTABLE_MEAN_CRITERION, ed.theta, minus, lhs, rhs, witness, value
        )
    if radial_certificate(p, ed).holds:
        return KVerdict(UNDETERMINED, ed.theta, minus, lhs, rhs, None, None)
    found = destabilizer_search(p, ed, grid)
    if found is not None:
        return KVerdict(UNSTABLE_WITNESS, ed.theta, minus, lhs, rhs, *found)
    return KVerdict(UNDETERMINED, ed.theta, minus, lhs, rhs, None, None)


def _mean_square(minus: Polytope, ed: ExtremalData) -> Fraction:
    """The mean of (1 - theta)^2 over ``minus``, off its record in integers:
    with (C, A) / q = (1 - theta_c, theta_a), q^2 second_den times the
    integral is C k2 first_den times the integral of C - 2 A.x
    (:meth:`~toricstab.polytope.Moments.linear`) plus A^T M_2 A (see _LCore)."""
    m = minus.moments()
    (c, *a), q = _integer_row((1 - ed.theta.c, *ed.theta.a))
    k2 = m.second_den // m.first_den
    square = m.linear([-2 * x for x in a], c) * c * k2 + m.quadratic(a, a)
    return Fraction(square * m.base, q * q * m.second_den * m.mass)


# The budget of the search box: at most this many directions (2G+1)^n.  A
# scanned direction costs about 5-9 ms in 3D and 14-17 ms in 4D (B1, D1 and
# E2 at grid 3, CP^1 x B1 at grids 1-2; Python 3.11 on a 2-core x86-64
# host), and about half the box is scanned (one of each pair +-b), so the
# box alone costs at most about 1-2 minutes there.  Grids up to 10 fit in
# 3D, 4 in 4D.
MAX_SEARCH_DIRECTIONS = 10_000


def _check_search_level(grid: int, dim: int) -> None:
    """Reject a grid that is not an int (a bool included) or is negative, and
    a box of more than :data:`MAX_SEARCH_DIRECTIONS` directions, before any
    search starts."""
    if isinstance(grid, bool) or not isinstance(grid, int):
        raise ValidationError(f"search grid must be an int, got {quoted(grid)}")
    if grid < 0:
        raise ValidationError(f"search grid must be at least 0, got {grid}")
    box = (2 * grid + 1) ** dim
    if box > MAX_SEARCH_DIRECTIONS:
        raise ValidationError(
            f"search grid {grid} spans {box} box directions in dimension {dim}, "
            f"above the budget of {MAX_SEARCH_DIRECTIONS}"
        )


def _candidates(p: Polytope, ed: ExtremalData, grid: int):
    """The simple PL candidates max{0, b.x + d / q} of the search grid, one
    per symmetry orbit, in scan order, as (b, d, q) with q = 2 den for P's
    vertices over their common denominator den: every critical value,
    midpoint and orbit key is an integer.

    Directions: at ``grid`` 0 only the potential gradient; at G >= 1 the
    facet normals, the primitive vertex directions, the potential gradient
    and the integer box [-G, G]^n, in that order.  Offsets are the inner
    values of each direction at which the cut plane meets a vertex, and the
    midpoints of consecutive ones, so no cut leaves P whole or empty.

    Orbits are taken under (b, d) -> (s M^T b, s d), for the lattice
    isomorphisms M of P onto itself and the signs s, on the primitive form
    (b/g, d/g), g = gcd(b).  Each map keeps L: x -> M x preserves P and the
    lattice measure of its facets, and theta o M = theta since theta is
    unique (checked exactly here); L vanishes on affine functions and
    max{0, -f} = max{0, f} - f; and max{0, k(b.x + d)} has k times the L
    of max{0, b.x + d}.  So a candidate is skipped only when one met before
    has a positive multiple of its L, and the first witness is the one a
    scan of every candidate finds.  At grid 0 the one direction t has
    M^T t = t, so no automorphism is computed.
    """
    _check_search_level(grid, p.dim)
    dirs: dict[tuple[int, ...], None] = {}

    def add(d):
        if any(x != 0 for x in d):
            dirs.setdefault(tuple(d), None)

    if grid > 0:
        for h in p.halfspaces:
            add(h.normal)
        # A zero vector has no direction and adds nothing.
        for r in p.rows:
            if any(r):
                add(primitive_normal(r, 0)[0])
    if any(ed.theta.a):
        add(primitive_normal(ed.theta.a, 0)[0])
    for combo in product(range(-grid, grid + 1), repeat=p.dim):
        add(combo)

    # The transposes M^T; at grid 0 none, and the orbit of (b, d) is itself
    # and its mirror.
    transposes = [tuple(zip(*m)) for m in (lattice_isomorphisms(p, p) if grid > 0 else ())]
    for mt in transposes:
        if tuple(dot(row, ed.theta.a) for row in mt) != ed.theta.a:
            raise InternalInvariant("theta is not invariant under a lattice automorphism of P")
    q = 2 * p.den
    # An orbit's key is (b/g, n, k) for d / g = n / k in lowest terms.
    seen: set[tuple[tuple[int, ...], int, int]] = set()
    for b in dirs:
        crit = sorted({-2 * sum(map(mul, b, r)) for r in p.rows})
        offsets = [(lo + hi) // 2 for lo, hi in zip(crit, crit[1:])]
        offsets.extend(crit[1:-1])
        # The maps are linear and unimodular: they commute with dividing by
        # g and keep b/g primitive.
        g = math.gcd(*b)
        pb = tuple(x // g for x in b)
        images = {tuple(sum(map(mul, row, pb)) for row in mt) for mt in transposes} or {pb}
        for d in offsets:
            common = math.gcd(d, g)
            n, k = d // common, g // common
            if (pb, n, k) in seen:
                continue
            for image in images:
                seen.add((image, n, k))
                seen.add((tuple(-x for x in image), -n, k))
            yield b, d, q


def destabilizer_search(
    p: Polytope, ed: ExtremalData, grid: int = 1
) -> Optional[tuple[PLFn, Fraction]]:
    """The first simple PL function on the grid with L < 0 and its L, or None.

    A candidate costs one cut R = P meet {l >= 0}, l = b.x + d, and one call
    of the L core (:func:`_simple_l`).  On reflexive P it is skipped when,
    oriented to d <= 0 (L(max{0, l}) = L(max{0, -l})), l <= 0 at every
    vertex of the excess region E = P meet {theta >= 1} (cut once per
    search), or E has no interior.  Proof: there
    L(max{0, l}) = integral over R of (1 - theta) l - d, and theta <= 1
    almost everywhere on R, so L >= 0.  The test is in integers, on E's
    vertices over their common denominator.  A skipped candidate is no
    witness, so the first witness is unchanged.  Off reflexive P the parts
    form does not hold and nothing is skipped.
    """
    core = _LCore(p, ed)
    den_e, excess = 1, None  # the bound is off
    if core.check:
        minus = excess_region(p, ed)
        den_e, excess = (minus.den, minus.rows) if minus is not None else (1, [])
    for b, d, q in _candidates(p, ed, grid):
        if excess is not None:
            # l = b.x + d / q at the vertex r / den_e of E, times q den_e,
            # oriented to d <= 0
            s = -1 if d > 0 else 1
            if all(s * (q * sum(map(mul, b, r)) + d * den_e) <= 0 for r in excess):
                continue
        value = _simple_l(p, core, b, d, q)
        if value < 0:
            return PLFn.simple(b, Fraction(d, q)), value
    return None


def _simple_l(p: Polytope, core: _LCore, b: Sequence[int], d: int, q: int) -> Fraction:
    """L(max{0, b.x + d / q}) from one cut and one call of the L core."""
    region = intersect_halfspace(p, [-x for x in b], Fraction(d, q))
    return core.value(*core.terms(region, [q * x for x in b], d, q))


# ---------------------------------------------------------------------------
# node statistics and the balance system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeData:
    """theta at the nodes z / level, for the integer points z of level * P:
    ``numerators[j] / den`` at ``points[j]`` / level.  No command builds it;
    the sums of theta over the nodes come from :func:`chow_necessary`."""

    level: int
    points: list[tuple[int, ...]]
    numerators: list[int]
    den: int


def theta_nodes(p: Polytope, ed: ExtremalData, i: int) -> NodeData:
    """theta on the refined sample P meet (Z/i)^n, at the cached integer
    points z of iP: (A.z + C) / (D i), as in :func:`chow_necessary`."""
    points = lattice_points(p, i)
    if not points:
        raise PreconditionFailed(f"no refined sample points at level {i}")
    d, [(*a, c)] = _over_common_denominator([(*ed.theta.a, ed.theta.c)])
    numerators = [sum(map(mul, a, z)) + c * i for z in points]
    return NodeData(level=i, points=points, numerators=numerators, den=d * i)


def _theta_pairing(ed: ExtremalData, cond: ChowCondition, sums) -> Fraction:
    """sum over the nodes a of (theta(a) - theta_bar) f(a), from f's sums
    (:func:`~toricstab.lattice._pl_sums`) at the level of ``cond``: theta =
    t.x + theta_c, so it is (t.(sum z F) / i + (theta_c - theta_bar) sum F) / D."""
    total, moment, den = sums
    t, c = ed.theta.a, ed.theta.c
    return (Fraction(sum(map(mul, t, moment)), cond.level) + (c - cond.theta_bar) * total) / den


HOLDS = "holds"
ANY = "any"
FAILS = "fails"


@dataclass(frozen=True)
class ChowCondition:
    """The record of one dilation level, built once per (theta, i) by
    :func:`chow_necessary`: theta's sums over its nodes and the balance system."""

    level: int
    status: str  # holds / any / fails
    s: Optional[Fraction]
    coeffs: tuple[Fraction, ...]  # sum_a ttilde(a) * a, componentwise
    targets: tuple[Fraction, ...]  # (E/Vol) * moment - sum_a a
    node_sum: tuple[Fraction, ...]
    theta_bar: Fraction
    count: int
    deviation_square_sum: Fraction  # sum of (theta(a) - theta_bar)^2
    s_closed: Optional[Fraction]  # None when theta is constant on the nodes (0/0)


def _balance(a: Sequence[int], b: Sequence[int]) -> tuple[str, Optional[Fraction]]:
    """The status of the one-unknown system a_k s = b_k in integers, and its
    solution b_j / a_j at the first a_j != 0 when it holds: any when
    a = b = 0, holds when a != 0 and every 2 x 2 minor a_j b_k - a_k b_j
    vanishes, fails otherwise (a = 0 with b != 0 among them)."""
    if not any(a):
        return (FAILS if any(b) else ANY), None
    if any(a[j] * b[k] != a[k] * b[j] for k in range(len(a)) for j in range(k)):
        return FAILS, None
    j = next(j for j, x in enumerate(a) if x)
    return HOLDS, Fraction(b[j], a[j])


def chow_necessary(p: Polytope, ed: ExtremalData, i: int) -> ChowCondition:
    """Decide the one-unknown balance system at dilation level i.

    sum_a a + s * sum_a ttilde(a) a = (E(i)/Vol) * integral of x.
    With theta constant on the nodes this degenerates to the absolute
    criterion Vol * sum_a a = E(i) * integral of x (status any/fails).
    A fails verdict at any level certifies asymptotic relative Chow
    instability in the toric sense.

    The record is read off the integer sums N, S_1 = sum z and
    S_2 = sum z z^T over the points z of iP (:func:`~toricstab.lattice._level_sums`),
    with theta at no node, and cached on P per (theta, i).  theta =
    (A.z + C) / (D i) at z / i, as on :class:`NodeData`: D is the least
    common denominator of theta's coefficients, A = D a, C = D c i.  Its
    numerators sum to T = A.S_1 + C N, their products with z to
    X = S_2 A + C S_1 and their squares to A.X + C T.  With m P's moment
    record, the system's rows cleared to integers are
    A_k = N X_k - T S_1,k (the coefficients are A_k / (D N i^3)) and
    B_k = N i base sums_k - mass first_den S_1,k (the targets are
    B_k / (i first_den mass)), and :func:`_balance` decides them; s is
    B_j D N i^2 / (A_j first_den mass) at the first A_j != 0.
    """
    key = ("chow_necessary", ed.theta.a, ed.theta.c, i)
    if key in p.cache:
        return p.cache[key]
    sums = _level_sums(p, i)
    count, first = sums.count, sums.first
    if not count:
        raise PreconditionFailed(f"no refined sample points at level {i}")
    d, [(*a, c)] = _over_common_denominator([(*ed.theta.a, ed.theta.c)])
    c *= i
    den = d * i
    total = sum(map(mul, a, first)) + c * count
    cross = [sum(map(mul, a, row)) + c * f for row, f in zip(sums.second, first)]
    squares = sum(map(mul, a, cross)) + c * total
    theta_bar = Fraction(total, den * count)
    square_sum = Fraction(count * squares - total * total, den * den * count)
    m = p.moments()
    mass_den = m.mass * m.first_den
    rows = [count * x - total * f for x, f in zip(cross, first)]
    rhs = [count * i * m.base * x - mass_den * f for x, f in zip(m.sums, first)]
    status, ratio = _balance(rows, rhs)
    p.cache[key] = ChowCondition(
        level=i,
        status=status,
        s=None if ratio is None else ratio * den * count * i / mass_den,
        coeffs=tuple(Fraction(x, den * count * i * i) for x in rows),
        targets=tuple(Fraction(y, i * mass_den) for y in rhs),
        node_sum=tuple(Fraction(f, i) for f in first),
        theta_bar=theta_bar,
        count=count,
        deviation_square_sum=square_sum,
        s_closed=None if square_sum == 0 else -i * theta_bar * count / square_sum,
    )
    return p.cache[key]


def s_closed_form(p: Polytope, ed: ExtremalData, i: int) -> Optional[Fraction]:
    """The closed-form s of level i, read off its :func:`chow_necessary` record."""
    return chow_necessary(p, ed, i).s_closed


# ---------------------------------------------------------------------------
# Chow weights
# ---------------------------------------------------------------------------


def q_weight(
    p: Polytope,
    ed: ExtremalData,
    i: int,
    g: PLFn,
    s: Optional[Fraction] = None,
) -> Fraction:
    """Relative Chow weight Q(i, g) = E(i) * integral(g) - Vol * sum_a (1 + s*ttilde(a)) g(a).

    ``s`` defaults to the balance-system solution; when any s balances
    (theta constant on nodes) the closed form degenerates and s = 0 recovers
    the absolute criterion.  Raises :class:`PreconditionFailed` when the
    balance system has no solution -- Q is then undefined and the variety is
    already unstable at this level.
    """
    return _q_weight(p, ed, chow_necessary(p, ed, i), g, _integral(p, g), s)


def _q_weight(
    p: Polytope,
    ed: ExtremalData,
    cond: ChowCondition,
    g: PLFn,
    integral: Fraction,
    s: Optional[Fraction] = None,
) -> Fraction:
    """:func:`q_weight` given the level's record and the integral of g over
    P, which a caller at many levels integrates once: the node total is
    sum g(a) + s * sum (theta(a) - theta_bar) g(a) / i, off g's node sums."""
    i = cond.level
    if cond.status == FAILS:
        raise PreconditionFailed(
            f"balance system has no solution at level {i}; Q undefined"
        )
    s_from_system = s is None
    if s is None:
        s = cond.s if cond.status == HOLDS else 0
    sums = _pl_sums(p, g, i)
    total, _, g_den = sums
    weighted = _theta_pairing(ed, cond, sums) / i
    total_nodes = Fraction(total, g_den) + s * weighted
    value = cond.count * integral - p.volume() * total_nodes
    if s_from_system and len(set(g.pieces)) == 1 and value != 0:
        raise InternalInvariant("affine input must have zero weight under the balance system")
    return value


@dataclass(frozen=True)
class PWeightReport:
    value: Fraction
    chow_weight: Fraction  # e_{n+1}(i) = -i * value
    lattice_cone_integral: bool
    bound: Fraction


def p_weight(p: Polytope, i: int, u: PLFn, bound) -> PWeightReport:
    """Absolute Chow weight data of the degeneration induced by convex u.

    P(i, u) = E(i) * integral(u) - Vol * sum over nodes of u; the bound R only
    enters the integrality report and cancels from the weight (asserted).
    """
    bound = rat(bound)
    total, _, u_den = _pl_sums(p, u, i)
    count = _level_sums(p, i).count
    value = _p_weight(p, count, Fraction(total, u_den), bound, _integral(p, u))
    return PWeightReport(
        value=value,
        chow_weight=-i * value,
        lattice_cone_integral=pl_is_rational_lattice_cone(p, u, i, bound),
        bound=bound,
    )


def _p_weight(
    p: Polytope, count: int, sum_u: Fraction, bound: Fraction, int_u: Fraction
) -> Fraction:
    """The weight P(i, u) = E(i) * int_u - Vol * sum_u of :func:`p_weight`
    for E(i) = ``count``, u summing to ``sum_u`` over the nodes and to
    ``int_u`` over P, with its independence of the bound R checked on the
    (R - u) data; the integrality report is left to :func:`p_weight`."""
    vol = p.volume()
    value = count * int_u - vol * sum_u
    shifted = count * (bound * vol - int_u) - vol * (count * bound - sum_u)
    if value != -shifted:
        raise InternalInvariant("the Chow weight depends on the bound R")
    return value


@dataclass(frozen=True)
class Projection:
    kappa: Fraction
    function: PLFn


def project_perp(p: Polytope, ed: ExtremalData, i: int, u: PLFn) -> Projection:
    """Project u to the component perpendicular (over the nodes) to theta.

    u_perp = u - kappa * (theta - theta_bar) with kappa the node-space
    projection coefficient.  Postconditions (exact): the node pairing of
    u_perp with theta - theta_bar vanishes, and P(i, u_perp) = Q(i, u) with
    s from the closed form.
    """
    cond = chow_necessary(p, ed, i)
    if cond.deviation_square_sum == 0:
        raise ThetaConstant("potential constant on the sample nodes")
    kappa = _theta_pairing(ed, cond, _pl_sums(p, u, i)) / cond.deviation_square_sum
    shift = AffineFn(
        tuple(-kappa * x for x in ed.theta.a),
        -kappa * (ed.theta.c - cond.theta_bar),
    )
    projected = u.add_affine(shift)
    if _theta_pairing(ed, cond, _pl_sums(p, projected, i)) != 0:
        raise InternalInvariant("the projection is not perpendicular to theta on the nodes")
    return Projection(kappa=kappa, function=projected)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
    """The full report of :func:`analyze` on one polytope: its geometry,
    theta and the Futaki vector, the K verdict (or why none applies), the
    record of each level 1..i_max and the Q and P weight samples there, and
    the Ehrhart coefficients of lattice input."""

    name: str
    dim: int
    volume: Fraction
    sbar: Fraction
    reflexive: bool
    delzant: bool
    theta: AffineFn
    futaki: tuple[Fraction, ...]
    kverdict: Optional[KVerdict]
    kverdict_error: Optional[str]
    chow: list[ChowCondition] = field(default_factory=list)
    ehrhart_coeffs: Optional[tuple[Fraction, ...]] = None
    q_samples: dict[int, Fraction] = field(default_factory=dict)
    p_samples: dict[int, Fraction] = field(default_factory=dict)


def facet_distance_pl(p: Polytope) -> PLFn:
    """The concave 'distance to the boundary' sample function min_i (rhs_i - <l_i, x>)."""
    pieces = [
        AffineFn(tuple(Fraction(-x) for x in h.normal), h.rhs)
        for h in p.halfspaces
    ]
    return PLFn.concave(pieces)


def k_verdict_or_error(p: Polytope, grid: int = 1) -> tuple[Optional[KVerdict], Optional[str]]:
    """:func:`k_classify`, or (None, the reason) when its criteria do not apply."""
    try:
        return k_classify(p, grid), None
    except NotReflexive:
        return None, "not reflexive (even up to translation): excess-region criteria not applicable"


def chow_levels(p: Polytope, i_max: int) -> tuple[list[ChowCondition], dict, dict]:
    """The record of each level 1..i_max and the Q and P weight samples
    there: a report's ``chow``, ``q_samples``, ``p_samples``."""
    check_levels(i_max, p)
    ed = extremal_affine(p)
    chow: list[ChowCondition] = []
    # diagnostic weight samples: the boundary-distance concave function for Q,
    # a simple convex kink through the first coordinate for P
    q_samples: dict[int, Fraction] = {}
    p_samples: dict[int, Fraction] = {}
    g_sample = facet_distance_pl(p)
    u_sample = PLFn.simple([1] + [0] * (p.dim - 1), 0)
    bound = max(u_sample(v) for v in p.vertices) + 1
    # the samples do not depend on the level: each is integrated once, g only
    # when some level needs it
    g_integral = None
    u_integral = _integral(p, u_sample)
    for i in range(1, i_max + 1):
        # the level's integer sums give its record (the balance system, the
        # closed-form s, theta's side of Q); g and u are summed off the
        # level's fibre ranges
        cond = chow_necessary(p, ed, i)
        chow.append(cond)
        if cond.status != FAILS:
            if g_integral is None:
                g_integral = _integral(p, g_sample)
            q_samples[i] = _q_weight(p, ed, cond, g_sample, g_integral)
        total, _, u_den = _pl_sums(p, u_sample, i)
        p_samples[i] = _p_weight(p, cond.count, Fraction(total, u_den), bound, u_integral)
    return chow, q_samples, p_samples


def analyze(p: Polytope, i_max: int = 6, grid: int = 1) -> StabilityReport:
    """Full pipeline on one polytope: potential, K-verdict, balance levels."""
    check_levels(i_max, p)
    if p.is_lattice():
        check_levels(p.dim + 2, p)  # the counts of the Ehrhart polynomial
    _check_search_level(grid, p.dim)
    ed = extremal_affine(p)
    reflexive, delzant = is_reflexive_delzant(p)
    kverdict, kerror = k_verdict_or_error(p, grid)
    chow, q_samples, p_samples = chow_levels(p, i_max)
    ehr = None
    if p.is_lattice():
        ehr = ehrhart(p).coeffs
    return StabilityReport(
        name=p.name or "polytope",
        dim=p.dim,
        volume=p.volume(),
        sbar=ed.sbar,
        reflexive=reflexive,
        delzant=delzant,
        theta=ed.theta,
        futaki=ed.futaki,
        kverdict=kverdict,
        kverdict_error=kerror,
        chow=chow,
        ehrhart_coeffs=ehr,
        q_samples=q_samples,
        p_samples=p_samples,
    )
