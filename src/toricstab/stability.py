"""Stability criteria for polarized toric varieties given by their moment polytopes.

The pipeline: solve for the extremal affine potential theta (the affine
function representing the extremal vector field, normalized to integrate to
zero), evaluate the linear functional

    L(u) = integral over the boundary of u d(sigma)
         - integral over P of (Sbar + theta) * u dx

on piecewise-linear convex test functions, classify K-stability by the
sufficient criteria on the excess region {theta >= 1}, and decide the
Chow-side balance conditions on the refined lattice samples P meet (Z/i)^n.

Conventions used throughout (all exact):
  theta_bar(i)   = average of theta over the refined sample points
  ttilde(a)      = (theta(a) - theta_bar) / i
  balance system = sum_a a + s * sum_a ttilde(a) a = (E(i)/Vol) * moment(P)
  s_closed(i)    = -i * theta_bar * E(i) / sum_a (theta(a) - theta_bar)^2

The balance system written this way is the unique scaling that makes the
relative Chow weight Q vanish exactly on affine functions and that makes the
projection identity P(i, u_perp) = Q(i, u) exact; s_closed then tends to -1/2
as i grows.  Other scalings of s differ by powers of i and give the identical
holds/fails verdict (asserted in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (
    InternalInvariant,
    NotReflexive,
    PreconditionFailed,
    ThetaConstant,
    ValidationError,
)
from .integrate import Poly, boundary_integral, integrate, moment_vector
from .lattice import ehrhart, refined_points
from .linalg import AnyS, dot, rank, rat, rat_str, solve_linear, solve_overdetermined_1d
from .plfun import (
    AffineFn,
    PLFn,
    boundary_integrate_pl,
    integrate_pl,
    linearity_regions,
    pl_is_rational_lattice_cone,
)
from .polytope import Polytope, intersect_halfspace, is_reflexive_delzant, primitive_normal


# ---------------------------------------------------------------------------
# extremal potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalData:
    """The extremal affine potential and the data that determined it."""

    theta: AffineFn
    sbar: Fraction
    gram: tuple[tuple[Fraction, ...], ...]

    @property
    def gradient(self) -> tuple[Fraction, ...]:
        return self.theta.a

    @property
    def constant(self) -> Fraction:
        return self.theta.c


def average_scalar(p: Polytope) -> Fraction:
    """Boundary measure divided by volume; equals n for a reflexive polytope."""
    return p.boundary_volume() / p.volume()


def futaki_vector(p: Polytope) -> tuple[Fraction, ...]:
    """The obstruction vector (integral_bd x_k dsigma - Sbar * integral x_k dx)_k.

    Up to a positive dimensional constant this is the classical obstruction
    character evaluated on the torus generators; it vanishes iff theta = 0.
    """
    sbar = average_scalar(p)
    moments = moment_vector(p)
    out = []
    for k in range(p.dim):
        xk = Poly.coordinate(p.dim, k)
        out.append(boundary_integral(p, xk) - sbar * moments[k])
    return tuple(out)


def extremal_affine(p: Polytope) -> ExtremalData:
    """Solve the (n+1)-dimensional exact system L(x_k) = 0, integral(theta) = 0.

    The matrix is the Gram matrix of {x_1..x_n, 1} in L^2(P), hence positive
    definite for any full-dimensional P; singularity would be a bug, not an
    input condition.
    """
    if "extremal" in p.cache:
        return p.cache["extremal"]
    n = p.dim
    vol = p.volume()
    sbar = average_scalar(p)
    moments = moment_vector(p)
    second = [
        [
            integrate(p, Poly.coordinate(n, j) * Poly.coordinate(n, k))
            for j in range(n)
        ]
        for k in range(n)
    ]
    gram = [second[k] + [moments[k]] for k in range(n)]
    gram.append(list(moments) + [vol])
    rhs = [
        boundary_integral(p, Poly.coordinate(n, k)) - sbar * moments[k]
        for k in range(n)
    ] + [Fraction(0)]
    sol = solve_linear(gram, rhs)
    data = ExtremalData(
        theta=AffineFn(tuple(sol[:n]), sol[n]),
        sbar=sbar,
        gram=tuple(tuple(row) for row in gram),
    )
    # Normalization is exact by construction; keep it loud if it ever breaks.
    if integrate(p, data.theta.as_poly()) != 0:
        raise InternalInvariant("theta does not integrate to zero")
    p.cache["extremal"] = data
    return data


# ---------------------------------------------------------------------------
# the linear functional
# ---------------------------------------------------------------------------


def l_functional(p: Polytope, ed: ExtremalData, u: PLFn) -> Fraction:
    """L(u) = boundary integral of u minus integral of (Sbar + theta) u.

    On a reflexive polytope the divergence-theorem form
    integral of (sum x_i du_i - u) + (1 - theta) u dx is computed as well and
    the two must agree exactly; a mismatch means a kernel bug.
    """
    weight = Poly.affine(ed.theta.a, ed.theta.c + ed.sbar)
    value = boundary_integrate_pl(p, Poly.constant(p.dim, 1), u) - integrate_pl(
        p, weight, u
    )
    if all(h.rhs == 1 for h in p.halfspaces) and p.is_lattice():
        alt = _l_functional_parts_form(p, ed, u)
        if alt != value:
            raise InternalInvariant(
                f"boundary-form {rat_str(value)} != parts-form {rat_str(alt)}"
            )
    return value


def _l_functional_parts_form(p: Polytope, ed: ExtremalData, u: PLFn) -> Fraction:
    """Integration-by-parts form, valid when every facet sits at rhs 1."""
    total = Fraction(0)
    one_minus_theta = Poly.affine(
        [-x for x in ed.theta.a], 1 - ed.theta.c
    )
    for region, piece in linearity_regions(p, u):
        # On the region, sum x_i du_i - u = -piece.c (the gradient terms cancel).
        total += -piece.c * region.volume()
        total += integrate(region, one_minus_theta * piece.as_poly())
    return total


# ---------------------------------------------------------------------------
# K-stability classification
# ---------------------------------------------------------------------------

STABLE_EMPTY_EXCESS = "stable_no_excess_region"
UNSTABLE_MEAN_CRITERION = "unstable_excess_mean_criterion"
UNSTABLE_WITNESS = "unstable_witness_found"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SearchGrid:
    """Finite direction/offset grid scanned for simple PL destabilizers."""

    box_bound: int = 1
    include_facet_normals: bool = True
    include_vertex_directions: bool = True
    include_theta_gradient: bool = True
    extra_directions: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class KVerdict:
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
    """Closure of {x in P : theta(x) >= 1}, or None when it has no interior."""
    a, c = ed.theta.a, ed.theta.c
    if all(x == 0 for x in a):
        return None if c < 1 else p
    # theta >= 1  <=>  -a.x <= c - 1
    return intersect_halfspace(p, [-x for x in a], c - 1)


def reflexive_translate(p: Polytope) -> Optional[Polytope]:
    """The integer translate of P with every facet at level 1, when one exists.

    The classifier's constants (the threshold 1, the 1-c term) are only
    meaningful in this normalized position; working on the translate makes
    the verdict invariant under integer translations of the input.
    """
    rows = []
    rhs = []
    for h in p.halfspaces:
        if rank(rows + [list(h.normal)]) > len(rows):
            rows.append(list(h.normal))
            rhs.append(h.rhs - 1)
        if len(rows) == p.dim:
            break
    if len(rows) < p.dim:
        return None
    shift = solve_linear(rows, rhs)  # <l, t> = rhs - 1 for the independent facets
    if any(x.denominator != 1 for x in shift):
        return None
    if all(x == 0 for x in shift):
        translated = p
    else:
        translated = Polytope.from_halfspaces(
            [
                (h.normal, h.rhs - sum(Fraction(a) * b for a, b in zip(h.normal, shift)))
                for h in p.halfspaces
            ],
            p.name,
        )
    reflexive, _ = is_reflexive_delzant(translated)
    return translated if reflexive else None


def k_classify(p: Polytope, grid: Optional[SearchGrid] = None) -> KVerdict:
    """Sufficient-criteria classifier for anticanonically polarized input.

    Empty excess region => stable.  Otherwise, if the mean of (1-theta)^2
    over the excess region exceeds 1-c, the explicit simple PL function
    max{0, theta-1} destabilizes.  Otherwise a finite grid of simple PL
    candidates is scanned; no winner leaves the verdict honestly undetermined
    (the criteria are sufficient, not exhaustive).

    Input must be reflexive up to an integer translation; the verdict and
    the reported data refer to the normalized (reflexive) position.
    """
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
    one_minus_theta = Poly.affine([-x for x in ed.theta.a], 1 - ed.theta.c)
    lhs = 1 - ed.theta.c
    sq = integrate(minus, one_minus_theta * one_minus_theta)
    rhs = sq / minus.volume()
    if lhs < rhs:
        witness = PLFn.convex(
            [AffineFn.zero(p.dim), AffineFn(ed.theta.a, ed.theta.c - 1)]
        )
        value = l_functional(p, ed, witness)
        if value >= 0:
            raise InternalInvariant("criterion held but the witness failed to go negative")
        return KVerdict(
            UNSTABLE_MEAN_CRITERION, ed.theta, minus, lhs, rhs, witness, value
        )
    witness = destabilizer_search(p, ed, grid or SearchGrid())
    if witness is not None:
        value = l_functional(p, ed, witness)
        return KVerdict(UNSTABLE_WITNESS, ed.theta, minus, lhs, rhs, witness, value)
    return KVerdict(UNDETERMINED, ed.theta, minus, lhs, rhs, None, None)


def destabilizer_candidates(p: Polytope, ed: ExtremalData, grid: SearchGrid):
    """Yield simple PL candidates max{0, b.x + d} over the configured grid.

    Directions: facet normals, primitive vertex directions, the potential
    gradient, a small integer box, and any extras; offsets step through the
    vertex-critical values of each direction (where the cut hyperplane meets
    a vertex) and their midpoints.
    """
    dirs: dict[tuple[int, ...], None] = {}

    def add(d):
        if d is not None and any(x != 0 for x in d):
            dirs.setdefault(tuple(d), None)
            dirs.setdefault(tuple(-x for x in d), None)

    if grid.include_facet_normals:
        for h in p.halfspaces:
            add(h.normal)
    # A zero vector has no direction and adds nothing.
    if grid.include_vertex_directions:
        for v in p.vertices:
            if any(v):
                add(primitive_normal(v, 0)[0])
    if grid.include_theta_gradient and any(ed.theta.a):
        add(primitive_normal(ed.theta.a, 0)[0])
    if grid.box_bound > 0:
        from itertools import product

        for combo in product(range(-grid.box_bound, grid.box_bound + 1), repeat=p.dim):
            add(combo)
    for d in grid.extra_directions:
        add(d)

    for b in dirs:
        crit = sorted({-dot(b, v) for v in p.vertices})
        offsets = []
        for lo, hi in zip(crit, crit[1:]):
            offsets.append((lo + hi) / 2)
        offsets.extend(crit[1:-1])
        for d in offsets:
            yield PLFn.simple(b, d)


def destabilizer_search(
    p: Polytope, ed: ExtremalData, grid: Optional[SearchGrid] = None
) -> Optional[PLFn]:
    """First simple PL function on the grid with L < 0, or None."""
    grid = grid or SearchGrid()
    for u in destabilizer_candidates(p, ed, grid):
        if len(set(u.pieces)) < 2:
            continue
        if l_functional(p, ed, u) < 0:
            return u
    return None


# ---------------------------------------------------------------------------
# node statistics and the balance system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeData:
    """theta sampled on the refined lattice points of one dilation level."""

    level: int
    nodes: tuple[tuple[Fraction, ...], ...]
    theta_bar: Fraction
    deviations: tuple[Fraction, ...]  # theta(a) - theta_bar, undivided

    @property
    def count(self) -> int:
        return len(self.nodes)

    def ttilde(self, j: int) -> Fraction:
        return self.deviations[j] / self.level

    @property
    def deviation_square_sum(self) -> Fraction:
        return sum((d * d for d in self.deviations), Fraction(0))


def theta_nodes(p: Polytope, ed: ExtremalData, i: int) -> NodeData:
    nodes = tuple(refined_points(p, i))
    if not nodes:
        raise PreconditionFailed(f"no refined sample points at level {i}")
    values = [ed.theta(a) for a in nodes]
    bar = sum(values, Fraction(0)) / len(values)
    return NodeData(
        level=i,
        nodes=nodes,
        theta_bar=bar,
        deviations=tuple(v - bar for v in values),
    )


def s_closed_form(p: Polytope, ed: ExtremalData, i: int) -> Optional[Fraction]:
    """-i * theta_bar * E(i) / sum (theta(a) - theta_bar)^2, or None when theta
    is constant on the nodes (then every s balances and the ratio is 0/0)."""
    nd = theta_nodes(p, ed, i)
    denom = nd.deviation_square_sum
    if denom == 0:
        return None
    return -Fraction(i) * nd.theta_bar * nd.count / denom


HOLDS = "holds"
ANY = "any"
FAILS = "fails"


@dataclass(frozen=True)
class ChowCondition:
    """Outcome of the balance system at one dilation level."""

    level: int
    status: str  # holds / any / fails
    s: Optional[Fraction]
    coeffs: tuple[Fraction, ...]  # sum_a ttilde(a) * a, componentwise
    targets: tuple[Fraction, ...]  # (E/Vol) * moment - sum_a a
    node_sum: tuple[Fraction, ...]
    theta_bar: Fraction
    count: int

    @property
    def semistable_possible(self) -> bool:
        return self.status != FAILS


def chow_necessary(p: Polytope, ed: ExtremalData, i: int) -> ChowCondition:
    """Solve the one-unknown balance system at dilation level i.

    sum_a a + s * sum_a ttilde(a) a = (E(i)/Vol) * integral of x.
    With theta constant on the nodes this degenerates to the absolute
    criterion Vol * sum_a a = E(i) * integral of x (status any/fails).
    A fails verdict at any level certifies asymptotic relative Chow
    instability in the toric sense.
    """
    nd = theta_nodes(p, ed, i)
    n = p.dim
    vol = p.volume()
    moments = moment_vector(p)
    node_sum = tuple(
        sum((a[k] for a in nd.nodes), Fraction(0)) for k in range(n)
    )
    coeffs = tuple(
        sum(
            (nd.ttilde(j) * nd.nodes[j][k] for j in range(nd.count)),
            Fraction(0),
        )
        for k in range(n)
    )
    targets = tuple(
        Fraction(nd.count) * moments[k] / vol - node_sum[k] for k in range(n)
    )
    sol = solve_overdetermined_1d(coeffs, targets)
    if sol is None:
        status, s = FAILS, None
    elif isinstance(sol, AnyS):
        status, s = ANY, None
    else:
        status, s = HOLDS, sol
    return ChowCondition(
        level=i,
        status=status,
        s=s,
        coeffs=coeffs,
        targets=targets,
        node_sum=node_sum,
        theta_bar=nd.theta_bar,
        count=nd.count,
    )


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
    cond = chow_necessary(p, ed, i)
    if cond.status == FAILS:
        raise PreconditionFailed(
            f"balance system has no solution at level {i}; Q undefined"
        )
    s_from_system = s is None
    if s is None:
        if cond.status == HOLDS:
            s = cond.s
        else:
            s = s_closed_form(p, ed, i) or Fraction(0)
    nd = theta_nodes(p, ed, i)
    total_nodes = Fraction(0)
    for j, a in enumerate(nd.nodes):
        total_nodes += (1 + s * nd.ttilde(j)) * g(a)
    value = nd.count * integrate_pl(
        p, Poly.constant(p.dim, 1), g
    ) - p.volume() * total_nodes
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
    nd_points = refined_points(p, i)
    count = len(nd_points)
    vol = p.volume()
    int_u = integrate_pl(p, Poly.constant(p.dim, 1), u)
    sum_u = sum((u(a) for a in nd_points), Fraction(0))
    value = count * int_u - vol * sum_u
    # R-independence: the same weight from the (R - u) data.
    shifted = count * (bound * vol - int_u) - vol * (count * bound - sum_u)
    if value != -shifted:
        raise InternalInvariant("the Chow weight depends on the bound R")
    return PWeightReport(
        value=value,
        chow_weight=-i * value,
        lattice_cone_integral=pl_is_rational_lattice_cone(p, u, i, bound),
        bound=bound,
    )


@dataclass(frozen=True)
class Projection:
    kappa: Fraction
    node_values: tuple[Fraction, ...]
    function: PLFn


def project_perp(p: Polytope, ed: ExtremalData, i: int, u: PLFn) -> Projection:
    """Project u to the component perpendicular (over the nodes) to theta.

    u_perp = u - kappa * (theta - theta_bar) with kappa the node-space
    projection coefficient.  Postconditions (exact): the node pairing of
    u_perp with theta - theta_bar vanishes, and P(i, u_perp) = Q(i, u) with
    s from the closed form.
    """
    nd = theta_nodes(p, ed, i)
    denom = nd.deviation_square_sum
    if denom == 0:
        raise ThetaConstant("potential constant on the sample nodes")
    num = sum(
        (u(a) * nd.deviations[j] for j, a in enumerate(nd.nodes)), Fraction(0)
    )
    kappa = num / denom
    shift = AffineFn(
        tuple(-kappa * x for x in ed.theta.a),
        -kappa * (ed.theta.c - nd.theta_bar),
    )
    projected = u.add_affine(shift)
    values = tuple(projected(a) for a in nd.nodes)
    pairing = sum(
        (values[j] * nd.deviations[j] for j in range(nd.count)), Fraction(0)
    )
    if pairing != 0:
        raise InternalInvariant("the projection is not perpendicular to theta on the nodes")
    return Projection(kappa=kappa, node_values=values, function=projected)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class StabilityReport:
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
    s_closed: dict[int, Optional[Fraction]] = field(default_factory=dict)
    ehrhart_coeffs: Optional[tuple[Fraction, ...]] = None
    q_samples: dict[int, Fraction] = field(default_factory=dict)
    p_samples: dict[int, Fraction] = field(default_factory=dict)

    @property
    def chow_unstable_level(self) -> Optional[int]:
        for cond in self.chow:
            if cond.status == FAILS:
                return cond.level
        return None


def facet_distance_pl(p: Polytope) -> PLFn:
    """The concave 'distance to the boundary' sample function min_i (rhs_i - <l_i, x>)."""
    pieces = [
        AffineFn(tuple(Fraction(-x) for x in h.normal), h.rhs)
        for h in p.halfspaces
    ]
    return PLFn.concave(pieces)


def analyze(
    p: Polytope,
    i_max: int = 6,
    grid: Optional[SearchGrid] = None,
    name: Optional[str] = None,
) -> StabilityReport:
    """Full pipeline on one polytope: potential, K-verdict, balance levels."""
    if i_max < 1:
        raise ValidationError("i_max must be at least 1")
    ed = extremal_affine(p)
    reflexive, delzant = is_reflexive_delzant(p)
    kverdict = None
    kerror = None
    try:
        kverdict = k_classify(p, grid)
    except NotReflexive:
        kerror = "not reflexive (even up to translation): excess-region criteria not applicable"
    chow = [chow_necessary(p, ed, i) for i in range(1, i_max + 1)]
    s_closed = {i: s_closed_form(p, ed, i) for i in range(1, i_max + 1)}
    # diagnostic weight samples: the boundary-distance concave function for Q,
    # a simple convex kink through the first coordinate for P
    q_samples: dict[int, Fraction] = {}
    p_samples: dict[int, Fraction] = {}
    g_sample = facet_distance_pl(p)
    u_sample = PLFn.simple([1] + [0] * (p.dim - 1), 0)
    bound = max(u_sample(v) for v in p.vertices) + 1
    for cond in chow:
        if cond.status != FAILS:
            q_samples[cond.level] = q_weight(p, ed, cond.level, g_sample)
        p_samples[cond.level] = p_weight(p, cond.level, u_sample, bound).value
    ehr = None
    if p.is_lattice():
        ehr = ehrhart(p).coeffs
    return StabilityReport(
        name=name or p.name or "polytope",
        dim=p.dim,
        volume=p.volume(),
        sbar=ed.sbar,
        reflexive=reflexive,
        delzant=delzant,
        theta=ed.theta,
        futaki=futaki_vector(p),
        kverdict=kverdict,
        kverdict_error=kerror,
        chow=chow,
        s_closed=s_closed,
        ehrhart_coeffs=ehr,
        q_samples=q_samples,
        p_samples=p_samples,
    )
