import contextlib
import importlib
import io
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from toricstab import (
    InternalInvariant,
    NotReflexive,
    Poly,
    Polytope,
    PreconditionFailed,
    ThetaConstant,
    ValidationError,
    analyze,
    boundary_integral,
    chow_necessary,
    destabilizer_search,
    extremal_affine,
    integrate,
    k_classify,
    l_functional,
    moment_vector,
    p_weight,
    project_perp,
    q_weight,
    radial_certificate,
    s_closed_form,
    upper_hull,
)
from toricstab.lattice import lattice_points, refined_points
from toricstab.plfun import AffineFn, PLFn
from toricstab.stability import (
    ANY,
    FAILS,
    HOLDS,
    STABLE_EMPTY_EXCESS,
    UNDETERMINED,
    UNSTABLE_MEAN_CRITERION,
    UNSTABLE_WITNESS,
    excess_region,
    k_verdict_or_error,
    reflexive_translate,
    theta_nodes,
)
from toricstab.polytope import HalfSpace, intersect_halfspace, lattice_automorphisms
from toricstab.univariate import poly_eval

import oracles

def translate(p, t):
    return Polytope.from_halfspaces(
        [
            (h.normal, h.rhs + sum(F(a) * b for a, b in zip(h.normal, t)))
            for h in p.halfspaces
        ],
        p.name,
    )


def unimodular_image(p, mat):
    # maps x -> mat @ x; halfspace normals transform by the inverse transpose,
    # which for the convenience of tests we obtain from the vertex images
    verts = [
        tuple(sum(F(mat[i][j]) * v[j] for j in range(p.dim)) for i in range(p.dim))
        for v in p.vertices
    ]
    return Polytope.from_vertices(verts, p.name)


# -- average scalar / extremal potential ------------------------------------


def test_average_scalar(cube, cp2, corpus_entries):
    for p, sbar in ((cube, 3), (corpus_entries["B2"].polytope, 3), (cp2, 2)):
        assert extremal_affine(p).sbar == p.boundary_volume() / p.volume() == sbar


def test_extremal_cube_zero(cube):
    ed = extremal_affine(cube)
    assert ed.theta == AffineFn.zero(3)
    assert ed.sbar == 3


def test_extremal_published_threefolds(corpus_entries):
    ed2 = extremal_affine(corpus_entries["B2"].polytope)
    assert ed2.theta == AffineFn.make((0, 0, F(-70, 97)), F(-15, 97))
    ed1 = extremal_affine(corpus_entries["B1"].polytope)
    assert ed1.theta == AffineFn.make((0, 0, F(-620, 349)), F(-240, 349))


def test_extremal_solves_the_gram_system(corpus_entries):
    from toricstab.linalg import solve_linear

    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    rhs = [
        boundary_integral(p, Poly.coordinate(3, k))
        - ed.sbar * moment_vector(p)[k]
        for k in range(3)
    ] + [F(0)]
    sol = solve_linear(ed.gram, rhs)
    assert sol == (0, 0, F(-70, 97), F(-15, 97))


def test_exact_zero_normalizations_across_corpus(corpus_entries):
    one = Poly.constant(3, 1)
    for entry in corpus_entries.values():
        p = entry.polytope
        ed = extremal_affine(p)
        assert integrate(p, ed.theta.as_poly()) == 0
        assert l_functional(p, ed, PLFn.convex([AffineFn.make((0, 0, 0), 1)])) == 0
        for k in range(3):
            xk = PLFn.convex([AffineFn.make([1 if j == k else 0 for j in range(3)], 0)])
            assert l_functional(p, ed, xk) == 0


def test_futaki_vanishing(cube, corpus_entries):
    assert extremal_affine(cube).futaki == (0, 0, 0)
    assert extremal_affine(corpus_entries["ORB-530571"].polytope).futaki == (0, 0, 0)
    assert extremal_affine(corpus_entries["B2"].polytope).futaki[2] != 0


# -- the linear functional ---------------------------------------------------


def test_futaki_is_the_extremal_right_hand_side(corpus_entries):
    for entry in corpus_entries.values():
        p = entry.polytope
        sbar = p.boundary_volume() / p.volume()
        moments = moment_vector(p)
        assert extremal_affine(p).futaki == tuple(
            boundary_integral(p, Poly.coordinate(p.dim, k)) - sbar * moments[k]
            for k in range(p.dim)
        )


# -- the integer moment records against independent routes ------------------


def _route_polytopes(corpus_entries):
    """Every corpus entry, CP^1 x B1, an integer translate of B1 and seeded
    random rational polytopes in dimensions 2 to 4."""
    b1 = corpus_entries["B1"].polytope
    out = [entry.polytope for entry in corpus_entries.values()]
    out += [oracles.cp1_times(b1), translate(b1, (1, -2, 3))]
    rng = random.Random(2016)
    return out + [oracles.random_polytope(rng, dim) for dim in (2, 3, 4) for _ in range(3)]


def test_extremal_affine_matches_the_poly_and_barycentric_routes(corpus_entries):
    # theta, Sbar, the Gram matrix and the Futaki vector, read off the integer
    # records, equal the same system built through Poly contractions and
    # through the Dirichlet kernel over the cells, solved by the oracle.
    for p in _route_polytopes(corpus_entries):
        n = p.dim
        ed = extremal_affine(p)
        one, x = Poly.constant(n, 1), [Poly.coordinate(n, k) for k in range(n)]
        cells, facets = p.triangulation(), range(len(p.halfspaces))
        routes = [
            (lambda f: integrate(p, f), lambda f: boundary_integral(p, f)),
            (
                lambda f: oracles.dirichlet_over_cells(cells, f),
                lambda f: sum((oracles.dirichlet_facet_integral(p, i, f) for i in facets), F(0)),
            ),
        ]
        for inside, boundary in routes:
            vol, first = inside(one), [inside(xk) for xk in x]
            sbar = boundary(one) / vol
            gram = [[inside(xj * xk) for xk in x] + [first[j]] for j, xj in enumerate(x)]
            gram.append(first + [vol])
            futaki = tuple(boundary(xk) - sbar * m for xk, m in zip(x, first))
            sol = oracles.fraction_solve(gram, [*futaki, F(0)])
            assert (ed.sbar, ed.gram, ed.futaki) == (sbar, tuple(map(tuple, gram)), futaki)
            assert (ed.theta.a, ed.theta.c) == (sol[:n], sol[n])


def _pair_second_moment(m, j, k):
    """The (j, k) second moment of a record read pair by pair off its cells:
    the sum of w (Q_jk + S_j S_k), Q = sum r r^T and S = sum r over the
    cell's rows, over ``second_den``."""
    total = 0
    for cell, w in zip(m.cells, m.weights):
        rows = [m.rows[v] for v in cell]
        s_j, s_k = sum(r[j] for r in rows), sum(r[k] for r in rows)
        total += w * (sum(r[j] * r[k] for r in rows) + s_j * s_k)
    return F(total, m.second_den)


def test_second_moments_match_the_per_pair_route(corpus_entries):
    # The one-pass M_2 of P's record, of every facet record and of the
    # excess region's, and of random simplices, equals M_2 read one pair at
    # a time: per cell, and through the record's quadratic form.
    rng = random.Random(2016)
    records = [oracles.random_simplex(rng, dim).moments() for dim in (1, 2, 3, 4)]
    for p in _route_polytopes(corpus_entries):
        records += [p.moments()] + [p.facet_moments(i) for i in range(len(p.halfspaces))]
        minus = excess_region(p, extremal_affine(p))
        if minus is not None:
            records.append(minus.moments())
    for m in records:
        n = len(m.sums)
        unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        assert m.second == tuple(
            tuple(_pair_second_moment(m, j, k) for k in range(n)) for j in range(n)
        )
        assert m.second == tuple(
            tuple(F(m.quadratic(unit[j], unit[k]), m.second_den) for k in range(n))
            for j in range(n)
        )


def test_mean_square_matches_integrate(corpus_entries):
    # The mean of (1 - theta)^2 that the mean criterion reads, in integers,
    # equals integrate over Vol and the Dirichlet kernel over Vol on the
    # excess region wherever it has interior (the six undetermined entries,
    # CP^1 x B1 and B1's translate), on {theta >= 0} and on P itself; on the
    # corpus it is k_classify's right-hand side.
    from toricstab.stability import _mean_square

    excess = 0
    for p in _route_polytopes(corpus_entries):
        ed = extremal_affine(p)
        one_minus = Poly.affine([-x for x in ed.theta.a], 1 - ed.theta.c)
        square = one_minus * one_minus
        minus = excess_region(p, ed)
        excess += minus is not None
        regions = [p, minus]
        if any(ed.theta.a):
            regions.append(intersect_halfspace(p, [-x for x in ed.theta.a], ed.theta.c))
        for region in filter(None, regions):
            mean, vol = _mean_square(region, ed), region.volume()
            assert mean == integrate(region, square) / vol
            assert mean == oracles.dirichlet_over_cells(region.triangulation(), square) / vol
    assert excess == 8
    for name, entry in corpus_entries.items():
        kv = k_verdict_or_error(entry.polytope, 0)[0]
        if kv is not None and kv.delta_minus is not None:
            ed = extremal_affine(reflexive_translate(entry.polytope))
            assert kv.cond_rhs == _mean_square(kv.delta_minus, ed)


def test_l_affine_zero(corpus_entries):
    rng = random.Random(61)
    p = corpus_entries["B3"].polytope
    ed = extremal_affine(p)
    for _ in range(5):
        ell = oracles.random_affine(rng, 3)
        assert l_functional(p, ed, PLFn.convex([ell])) == 0


def test_l_simple_function_on_cube(cube):
    ed = extremal_affine(cube)
    # both computation routes agree exactly (asserted inside) and the value
    # comes out of direct evaluation
    assert l_functional(cube, ed, PLFn.simple((1, 0, 0), 0)) == 2


def test_l_theta_witness_closed_form(corpus_entries):
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    witness = PLFn.convex([AffineFn.zero(3), AffineFn(ed.theta.a, ed.theta.c - 1)])
    minus = excess_region(b1, ed)
    one_minus_theta = Poly.affine([-x for x in ed.theta.a], 1 - ed.theta.c)
    closed = (1 - ed.theta.c) * minus.volume() - integrate(
        minus, one_minus_theta * one_minus_theta
    )
    assert l_functional(b1, ed, witness) == closed
    assert closed > 0  # the published sufficient criterion does not fire here


def test_l_affine_shift_invariance(corpus_entries):
    rng = random.Random(67)
    p = corpus_entries["F2"].polytope
    ed = extremal_affine(p)
    for _ in range(5):
        u = oracles.random_convex_pl(rng, 3)
        ell = oracles.random_affine(rng, 3)
        assert l_functional(p, ed, u.add_affine(ell)) == l_functional(p, ed, u)


def test_l_scaling(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    u = PLFn.simple((0, 0, 1), F(1, 3))
    assert l_functional(p, ed, u.scale(5)) == 5 * l_functional(p, ed, u)


# -- K-classification --------------------------------------------------------


def test_k_classify_cp3_stable(corpus_entries):
    kv = k_classify(corpus_entries["CP3"].polytope, grid=0)
    assert kv.classification == STABLE_EMPTY_EXCESS
    assert kv.stable is True
    assert kv.theta == AffineFn.zero(3)


def test_k_classify_b2_stable(corpus_entries):
    kv = k_classify(corpus_entries["B2"].polytope, grid=0)
    assert kv.classification == STABLE_EMPTY_EXCESS


def test_k_classify_b1_reports_exact_criterion(corpus_entries):
    kv = k_classify(corpus_entries["B1"].polytope, grid=0)
    published = sorted(
        tuple(map(F, v))
        for v in [
            (4, -1, -1),
            (F(39, 10), -1, F(-19, 20)),
            (-1, -1, F(-19, 20)),
            (-1, F(39, 10), F(-19, 20)),
            (-1, -1, -1),
            (-1, 4, -1),
        ]
    )
    assert sorted(kv.delta_minus.vertices) == published
    assert kv.cond_lhs == F(589, 349)
    assert kv.cond_rhs == F(23785711, 8953591510)
    # the sufficient mean criterion does not hold, so with the small grid the
    # classifier reports an honest undetermined
    assert kv.cond_lhs > kv.cond_rhs
    assert kv.classification == UNDETERMINED


ZERO_PIECE = {"a": ["0", "0", "0"], "c": "0"}

# No corpus entry is unstable, so theta is scaled by lambda on B1.  Per
# branch: lambda, the classification, 1 - c, the mean square excess, the
# witness's JSON and its L.
UNSTABLE_BRANCHES = {
    "search-witness": (
        F(3, 2), UNSTABLE_WITNESS, "709/349", "1258534057703/8967136390205",
        {"mode": "convex", "pieces": [ZERO_PIECE, {"a": ["-1", "4", "-1"], "c": "9/2"}]},
        "-69/20",
    ),
    "mean-criterion": (
        F(4), UNSTABLE_MEAN_CRITERION, "1309/349", "479207922739081/115602109844410",
        {"mode": "convex",
         "pieces": [ZERO_PIECE, {"a": ["0", "0", "-2480/349"], "c": "-1309/349"}]},
        "-17805914236188447/9289148392960000",
    ),
}


@pytest.mark.parametrize("branch", sorted(UNSTABLE_BRANCHES))
def test_k_classify_reaches_each_unstable_branch(corpus_entries, monkeypatch, branch):
    # theta scaled by 3/2 leaves the mean criterion unmet, and the search
    # finds a witness; scaled by 4 it meets the criterion, whose witness is
    # max{0, theta - 1}.  Either way the witness's L, by the boundary form
    # (checked against the parts form), the facet charts and the oracle's
    # parts form, is the reported value, and the commands print the verdict
    # with the witness and exit 0 under --strict.
    from toricstab import stability
    from toricstab.cli import main
    from toricstab.linalg import rat_str

    lam, classification, lhs, rhs, witness, value = UNSTABLE_BRANCHES[branch]
    extremal = stability.extremal_affine

    def scaled(p):
        ed = extremal(p)
        return replace(ed, theta=AffineFn(tuple(lam * x for x in ed.theta.a), lam * ed.theta.c))

    monkeypatch.setattr(stability, "extremal_affine", scaled)
    p = Polytope.from_halfspaces(corpus_entries["B1"].polytope.halfspaces)
    ed = scaled(p)
    kv = k_classify(p)
    assert (kv.classification, kv.stable, kv.theta) == (classification, False, ed.theta)
    assert (rat_str(kv.cond_lhs), rat_str(kv.cond_rhs)) == (lhs, rhs)
    assert kv.cond_lhs == 1 - ed.theta.c
    assert (kv.cond_lhs < kv.cond_rhs) == (classification == UNSTABLE_MEAN_CRITERION)
    if classification == UNSTABLE_MEAN_CRITERION:
        assert kv.witness == PLFn.convex([AffineFn.zero(3), AffineFn(ed.theta.a, ed.theta.c - 1)])
    assert kv.witness.to_json() == witness
    assert rat_str(kv.witness_value) == value and kv.witness_value < 0
    assert kv.witness_value == l_functional(p, ed, kv.witness)
    assert kv.witness_value == oracles.chart_route_l(p, ed, kv.witness)
    assert kv.witness_value == oracles.l_functional_parts_form(p, ed, kv.witness)
    for command in ("kstab", "analyze"):
        for fmt in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, "corpus:B1", "--strict", "--format", fmt]
                            + (["--i-max", "1"] if command == "analyze" else []))
            assert code == 0, (command, fmt)
            if fmt == "json":
                doc = json.loads(out.getvalue())
                k = doc["k_stability"] if command == "analyze" else doc
                assert (k["classification"], k["label"]) == (classification, "unstable")
                assert (k["mean_criterion_lhs"], k["mean_criterion_rhs"]) == (lhs, rhs)
                assert (k["witness"], k["witness_value"]) == (witness, value)
                continue
            text = out.getvalue().splitlines()
            if command == "kstab":
                assert text[0] == f"B1: unstable ({classification})"
                assert f"mean criterion: 1-c = {lhs} vs mean square excess = {rhs}" in text
                assert f"witness value L(u) = {value}" in text
            else:
                assert f"K-stability: unstable ({classification})" in text
                assert f"  mean criterion: 1-c = {lhs}  vs  mean square excess = {rhs}" in text
                assert f"  witness value L(u) = {value}" in text


def test_k_classify_requires_reflexive(corpus_entries):
    with pytest.raises(NotReflexive):
        k_classify(corpus_entries["ORB-530571"].polytope)


def test_reflexive_translate_roundtrip(corpus_entries):
    p = corpus_entries["B2"].polytope
    moved = translate(p, (2, -1, 3))
    back = reflexive_translate(moved)
    assert back is not None
    assert sorted(back.vertices) == sorted(p.vertices)


def test_destabilizer_search_cube_none(cube):
    ed = extremal_affine(cube)
    assert destabilizer_search(cube, ed, grid=1) is None


def test_destabilizer_search_degenerate_grid(cube):
    # Grid 0 scans only the potential gradient, and on the cube theta = 0:
    # there is no direction, so no candidate.
    ed = extremal_affine(cube)
    assert not any(ed.theta.a)
    assert list(oracles.search_candidates(cube, ed, grid=0)) == []
    assert destabilizer_search(cube, ed, grid=0) is None
    # A negative grid is rejected, not read as grid 0.
    with pytest.raises(ValidationError):
        destabilizer_search(cube, ed, grid=-1)


def test_search_box_budget(cube):
    # The box [-G, G]^n may hold at most MAX_SEARCH_DIRECTIONS directions:
    # in 3D grid 10 (9261) is the last level accepted, and grid 11 (12167)
    # is rejected before the first candidate.
    from toricstab.stability import MAX_SEARCH_DIRECTIONS, _check_search_level

    assert 21**3 <= MAX_SEARCH_DIRECTIONS < 23**3
    _check_search_level(10, 3)
    ed = extremal_affine(cube)
    with pytest.raises(ValidationError, match="12167 box directions in dimension 3"):
        next(oracles.search_candidates(cube, ed, grid=11))
    with pytest.raises(ValidationError, match="in dimension 6"):
        _check_search_level(2, 6)


def test_level_node_budget(corpus_entries):
    # The node bound of levels 1..m holds the enumerated points, for lattice
    # polytopes (n! vol C(m+n+1, n+1) - n! vol) and for rational ones (the
    # box); levels up to 30 of E4 fit MAX_LEVEL_NODES and 31 does not.
    from toricstab.lattice import node_bound
    from toricstab.lattice import MAX_LEVEL_NODES, check_levels

    rng = random.Random(1980)
    polytopes = [corpus_entries[name].polytope for name in ("E4", "CP3", "ORB-530571")]
    polytopes += [oracles.random_polytope(rng, dim) for dim in (1, 2, 3)]
    for p in polytopes:
        for m in (1, 2, 4):
            assert sum(len(lattice_points(p, i)) for i in range(1, m + 1)) <= node_bound(p, m)
    e4 = Polytope.from_halfspaces(
        [(h.normal, h.rhs) for h in corpus_entries["E4"].polytope.halfspaces]
    )
    assert node_bound(e4, 30) == 1_855_000 <= MAX_LEVEL_NODES < node_bound(e4, 31)
    check_levels(30, e4)
    with pytest.raises(ValidationError, match="levels 1..31 may hold 2094360 nodes"):
        check_levels(31, e4)
    assert not any(key[0] == "lattice_points" for key in e4.cache if isinstance(key, tuple))


def test_destabilizer_search_b1_default_outcome(corpus_entries, monkeypatch):
    # frozen outcome of the exhaustive default grid: no simple destabilizer;
    # and the search skips the candidates the excess region proves
    # non-negative, evaluates the others through the L core on one cut each
    # (no l_functional, no linearity regions; the core reads the cut's
    # facets on the boundary of P once per call),
    # builds no polytope from scratch (cuts are one step on the vertices),
    # builds no facet chart, reads every integral off the moment records of
    # the region and its facets (no simplex kernel, no barycentric
    # expansion, no polynomial product), sums no second moments of a facet
    # record (L reads c m_0 + a.m_1 there) and adds nothing to the cache of P
    # but the excess region, cut once per (P, theta) and shared with the gate
    # and the classifier
    from toricstab import plfun, polytope, stability

    kernel = importlib.import_module("toricstab.integrate")  # the name integrate is the function

    # A fresh copy, so nothing comes from a cache filled by another test.
    b1 = corpus_entries["B1"].polytope
    p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in b1.halfspaces])
    ed = extremal_affine(p)
    counts = dict.fromkeys(
        ("rays", "cuts", "charts", "simplex", "mul", "l", "regions", "facets", "core"), 0
    )
    facet_records = []
    moments = polytope._moments

    def recording(region, facet):
        record = moments(region, facet)
        if facet is not None:
            facet_records.append(record)
        return record

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(polytope, "_extreme_rays", counting("rays", polytope._extreme_rays))
    monkeypatch.setattr(stability, "intersect_halfspace", counting("cuts", stability.intersect_halfspace))
    monkeypatch.setattr(stability, "l_functional", counting("l", stability.l_functional))
    monkeypatch.setattr(plfun, "_regions", counting("regions", plfun._regions))
    monkeypatch.setattr(stability, "_boundary_facets", counting("facets", stability._boundary_facets))
    monkeypatch.setattr(stability._LCore, "terms", counting("core", stability._LCore.terms))
    monkeypatch.setattr(polytope, "facet_chart", counting("charts", polytope.facet_chart))
    monkeypatch.setattr(kernel, "integrate_simplex", counting("simplex", kernel.integrate_simplex))
    monkeypatch.setattr(Poly, "__mul__", counting("mul", Poly.__mul__))
    monkeypatch.setattr(polytope, "_moments", recording)
    keys = set(p.cache)
    assert destabilizer_search(p, ed, grid=1) is None
    # 44 candidates, one per orbit of the 86 under B1's 6 lattice
    # automorphisms and the sign flip; the excess region skips 6 of them,
    # and each of the other 38 costs one cut and one core call; one more
    # cut is the excess region itself
    assert sum(1 for _ in oracles.search_candidates(p, ed, grid=1)) == 44
    assert counts == {
        "rays": 0, "cuts": 1 + 38, "charts": 0, "simplex": 0, "mul": 0,
        "l": 0, "regions": 0, "facets": 38, "core": 38,
    }
    assert set(p.cache) == keys | {("excess_region", ed.theta.a, ed.theta.c)}
    # a record keeps its second moments in its attributes once summed
    assert len(facet_records) > counts["core"]
    assert not any("second" in vars(record) for record in facet_records)


@pytest.mark.parametrize("name", ["B1", "E2"])
def test_search_cells_need_no_elimination(corpus_entries, monkeypatch, name):
    # Every cell of a cut region of a 3D polytope weighs by a cofactor
    # determinant, so the search at grid 1 eliminates only for the lattice
    # automorphisms, however many cells its cuts hold: once to choose a
    # vertex basis and once to solve for its inverse.
    from toricstab import linalg

    q = corpus_entries[name].polytope
    p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in q.halfspaces])
    ed = extremal_affine(p)
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    assert destabilizer_search(p, ed, grid=1) is None
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["B1", "E2"])
def test_k_classify_cuts_build_no_rational_vertices(corpus_entries, monkeypatch, name):
    # The cuts, the moment records and the excess-region skip read the
    # integer vertex rows, so no region cut from P builds its Fraction view.
    # The radial bound holds on B1 and E2, so k_classify skips the search
    # there; the search is driven directly, as k_classify runs it elsewhere.
    from toricstab import stability

    p = corpus_entries[name].polytope
    cut = stability.intersect_halfspace
    regions = []

    def recording(*args):
        region = cut(*args)
        regions.append(region)
        return region

    monkeypatch.setattr(stability, "intersect_halfspace", recording)
    k_classify(p)
    destabilizer_search(p, extremal_affine(p), 1)
    cuts = [r for r in regions if r is not None and r is not p]
    assert cuts
    assert not [r for r in cuts if "vertices" in r.__dict__]


UNDETERMINED_SIX = ("B1", "C2", "D1", "D2", "E1", "E2")


def _skipped(monkeypatch, p, ed, grid):
    """The candidates (b, d, q) of the search on P that the excess-region
    bound skips: those that never reach the L core."""
    from toricstab import stability

    evaluated = []
    terms = stability._LCore.terms

    def recording(self, region, a, c, q):
        evaluated.append((tuple(x // q for x in a), c, q))
        return terms(self, region, a, c, q)

    with monkeypatch.context() as patch:
        patch.setattr(stability._LCore, "terms", recording)
        assert destabilizer_search(p, ed, grid) is None
    candidates = list(stability._candidates(p, ed, grid))
    done = set(evaluated)
    assert evaluated == [c for c in candidates if c in done]
    return [c for c in candidates if c not in done], len(candidates)


def test_excess_bound_skips_only_non_negative_candidates(corpus_entries, monkeypatch):
    # Every candidate the excess-region bound skips has L >= 0, by both
    # forms of l_functional and by the oracle's parts form, so the first
    # witness is the one a scan of every candidate finds; the skip counts
    # over the six undetermined entries are pinned per grid.
    want = {0: (15, 30), 1: (203, 481), 2: (698, 1613)}
    per_entry = {("B1", 1): (6, 44), ("E2", 1): (39, 95)}
    for grid, (skips, total) in want.items():
        seen = [0, 0]
        for name in UNDETERMINED_SIX:
            p = corpus_entries[name].polytope
            assert reflexive_translate(p) is p
            ed = extremal_affine(p)
            skipped, count = _skipped(monkeypatch, p, ed, grid)
            seen[0] += len(skipped)
            seen[1] += count
            if (name, grid) in per_entry:
                assert (len(skipped), count) == per_entry[name, grid]
            for b, d, q in skipped:
                u = PLFn.simple(b, F(d, q))
                assert l_functional(p, ed, u) >= 0, (name, b, d, q)
                assert oracles.l_functional_parts_form(p, ed, u) >= 0, (name, b, d, q)
        assert tuple(seen) == (skips, total), grid


def test_boundary_facets_match_the_cut_normal_rule(corpus_entries, monkeypatch):
    # On every region the grid-1 search evaluates on the six undetermined
    # entries, the facets on the boundary of P by normal and rhs are those
    # of the cut-normal rule: every facet but the cut.
    from toricstab import stability
    from toricstab.plfun import _boundary_facets

    terms = stability._LCore.terms
    checked = []

    def recording(self, region, a, c, q):
        want = oracles.cut_boundary_facets(self.p, region, [x // q for x in a])
        assert _boundary_facets(self.p, region) == want
        checked.append(region is self.p)
        return terms(self, region, a, c, q)

    monkeypatch.setattr(stability._LCore, "terms", recording)
    for name in UNDETERMINED_SIX:
        p = corpus_entries[name].polytope
        assert destabilizer_search(p, extremal_affine(p), 1) is None
    # the 481 - 203 candidates the excess bound does not skip
    assert len(checked) == 278 and not all(checked)


def test_boundary_facets_drop_a_cut_parallel_to_a_facet(cube):
    # x1 <= 1/2 cuts the cube [-1, 1]^3 parallel to its facet x1 <= 1, at
    # another level: that facet is dropped and the cut takes its normal, so
    # only the rhs tells the cut from a facet of P.  The boundary facets of
    # the region are the other five, and L of max{0, 1/2 - x1} (both forms,
    # compared on every evaluation) is the chart route's.
    from toricstab.plfun import _boundary_facets
    from toricstab.stability import _LCore, _simple_l

    region = intersect_halfspace(cube, (1, 0, 0), F(1, 2))
    cut = region.halfspaces.index(HalfSpace((1, 0, 0), F(1, 2)))
    assert (1, 0, 0) in [h.normal for h in cube.halfspaces]
    facets = _boundary_facets(cube, region)
    assert facets == [i for i in range(6) if i != cut]
    assert facets == oracles.cut_boundary_facets(cube, region, (-1, 0, 0))
    ed = extremal_affine(cube)
    u = PLFn.simple((-1, 0, 0), F(1, 2))
    want = oracles.chart_route_l(cube, ed, u)
    assert l_functional(cube, ed, u) == want
    assert _simple_l(cube, _LCore(cube, ed), (-1, 0, 0), 1, 2) == want


def test_excess_bound_skips_candidates_tight_at_a_vertex_of_e(corpus_entries, monkeypatch):
    # The bound skips when l <= 0 at every vertex of E, zero included.  At a
    # vertex v of E on the plane theta = 1 (not a vertex of P), b = the sum
    # of the normals of E's facets through v gives l = b.x - b.v <= 0 on E
    # with l = 0 only at v; with d = -b.v <= 0 the search must skip l, and
    # its L must be >= 0.
    from toricstab import stability

    p = corpus_entries["B1"].polytope
    ed = extremal_affine(p)
    minus = excess_region(p, ed)
    planted = []
    for j, v in enumerate(minus.vertices):
        if v in p.vertices:
            continue
        b = [0] * p.dim
        for h, mask in zip(minus.halfspaces, minus.incidence):
            if mask >> j & 1:
                b = [x + y for x, y in zip(b, h.normal)]
        d = -sum(x * y for x, y in zip(b, v))
        if d <= 0:
            planted.append((tuple(b), d.numerator, d.denominator))
    assert planted
    calls = []
    monkeypatch.setattr(stability, "_candidates", lambda p, ed, grid: iter(planted))
    monkeypatch.setattr(stability, "_simple_l", lambda *args: calls.append(args[2:]) or F(0))
    assert destabilizer_search(p, ed, 1) is None
    assert calls == []
    for b, d, q in planted:
        u = PLFn.simple(b, F(d, q))
        assert l_functional(p, ed, u) >= 0
        assert oracles.l_functional_parts_form(p, ed, u) >= 0


def test_l_core_matches_l_functional_on_every_candidate(corpus_entries):
    # One cut and one core call give the L of l_functional, exactly, on
    # every grid-1 candidate of every corpus entry, reflexive or not (in its
    # stored position).
    from toricstab.stability import _LCore, _candidates, _simple_l

    checked = 0
    for name, entry in corpus_entries.items():
        p = entry.polytope
        ed = extremal_affine(p)
        core = _LCore(p, ed)
        for b, d, q in _candidates(p, ed, 1):
            value = _simple_l(p, core, b, d, q)
            assert value == l_functional(p, ed, PLFn.simple(b, F(d, q))), (name, b, d, q)
            checked += 1
    assert checked > 1000


def test_excess_bound_off_on_non_reflexive_input(corpus_entries, monkeypatch):
    # A lattice translate of B1 passed straight to the search is not
    # reflexive, so the parts form and with it the bound are off: no
    # candidate is skipped.  (Fewer linear automorphisms fix the translate,
    # so it has more candidates than B1's 44.)
    p = translate(corpus_entries["B1"].polytope, (1, 0, -1))
    assert reflexive_translate(p) is not p
    skipped, count = _skipped(monkeypatch, p, extremal_affine(p), 1)
    assert skipped == [] and count == 73


# ---------------------------------------------------------------------------
# the radial certificate
# ---------------------------------------------------------------------------

RADIAL_HOLDS = ("B1", "C2", "D2", "E2")


def _hinge_terms(n, a):
    """A, B and C of the hinge (s - a)_+ in dimension n: the integrals over
    [a, 1] of s^n, (s - a) s^(n-1) and (s - a) s^n."""
    a = F(a)
    whole = (1 - a ** (n + 1)) / (n + 1)
    return (
        whole,
        whole - a * (1 - a**n) / n,
        (1 - a ** (n + 2)) / (n + 2) - a * (1 - a ** (n + 1)) / (n + 1),
    )


def test_radial_certificate_decisions(corpus_entries):
    # The bound holds on the 12 reflexive entries with an empty excess
    # region, on B1, C2, D2 and E2 and on CP^1 times each of those four; it
    # fails on D1, E1 and their CP^1 products.  It takes reflexive input
    # only: ORB-530571 and a lattice translate of B1 are refused.
    empty = []
    for name, entry in corpus_entries.items():
        p = reflexive_translate(entry.polytope)
        if p is None:
            assert name == "ORB-530571"
            with pytest.raises(NotReflexive):
                radial_certificate(entry.polytope, extremal_affine(entry.polytope))
            continue
        ed = extremal_affine(p)
        cert = radial_certificate(p, ed)
        if excess_region(p, ed) is None:
            empty.append(name)
            assert cert.holds, name
        else:
            assert name in UNDETERMINED_SIX
            assert cert.holds == (name in RADIAL_HOLDS), name
        assert all(type(x) is int for q in cert.polys for x in q) and type(cert.scale) is int
        assert all(type(x) is F for x in cert.interval)
    assert len(empty) == 12
    for name in UNDETERMINED_SIX:
        p = oracles.cp1_times(corpus_entries[name].polytope)
        assert radial_certificate(p, extremal_affine(p)).holds == (name in RADIAL_HOLDS), name
    moved = translate(corpus_entries["B1"].polytope, (1, 0, -1))
    with pytest.raises(NotReflexive):
        radial_certificate(moved, extremal_affine(moved))


def test_radial_polynomials_are_g_over_one_minus_a(corpus_entries):
    # At each end lambda of the interval, Q(a) = G(a, lambda) / (1 - a) with
    # G = A - theta_c B - lambda C from the hinge integrals, at rational a in
    # [0, 1); the interval is the range of t.v over the vertices.
    cases = [corpus_entries[name].polytope for name in ("CP3", "B1", "C4", "D1", "E2")]
    cases.append(oracles.cp1_times(corpus_entries["C2"].polytope))
    for p in cases:
        ed = extremal_affine(p)
        cert = radial_certificate(p, ed)
        t, tc = ed.theta.a, ed.theta.c
        lams = [sum(x * y for x, y in zip(t, v)) for v in p.vertices]
        assert cert.interval == (min(lams), max(lams))
        assert [len(q) for q in cert.polys] == [p.dim + 2] * 2
        for a in (F(0), F(1, 7), F(1, 2), F(9, 10), F(99, 100)):
            big_a, big_b, big_c = _hinge_terms(p.dim, a)
            for lam, q in zip(cert.interval, cert.polys):
                want = (big_a - tc * big_b - lam * big_c) / (1 - a)
                assert poly_eval(q, a) / cert.scale == want, (p.name, a, lam)


def test_gauge_hinges_match_the_radial_sum(corpus_entries):
    # u_a = max{0, max_F l_F.x - a} is (s - a)_+ on every ray from 0, so
    # L(u_a) = sum over P's own facet records of
    # (A - theta_c B)(a) sigma(F) - C(a) integral over F of t.y; and, G being
    # affine in lambda, the same sum from the certificate's two polynomials
    # at the mean of t.y over each facet.
    for name in UNDETERMINED_SIX:
        p = corpus_entries[name].polytope
        ed = extremal_affine(p)
        cert = radial_certificate(p, ed)
        (lo, hi), t, tc = cert.interval, ed.theta.a, ed.theta.c
        facets = [p.facet_moments(i) for i in range(len(p.halfspaces))]
        means = [sum(x * y for x, y in zip(t, m.first)) / m.measure for m in facets]
        for a in (F(0), F(1, 7), F(1, 2), F(9, 10)):
            u = PLFn.convex(
                [AffineFn.zero(p.dim)]
                + [AffineFn(tuple(F(x) for x in h.normal), -a) for h in p.halfspaces]
            )
            big_a, big_b, big_c = _hinge_terms(p.dim, a)
            want = sum(
                (big_a - tc * big_b - lam * big_c) * m.measure for m, lam in zip(facets, means)
            )
            assert l_functional(p, ed, u) == want, (name, a)
            q_lo, q_hi = (poly_eval(q, a) / cert.scale for q in cert.polys)
            radial = sum(
                m.measure * (1 - a) * ((hi - lam) * q_lo + (lam - lo) * q_hi) / (hi - lo)
                for m, lam in zip(facets, means)
            )
            assert radial == want, (name, a)


def test_cones_match_the_radial_boundary_integral(corpus_entries):
    # u = max{0, b.x} is s (b.y)_+ on the ray through y, so
    # L(u) = integral over the boundary part {b.y >= 0} of
    # (b.y) ((1 - theta_c)/(n+1) - t.y/(n+2)) dsigma, read off the facet
    # records of the cut region's facets on the boundary of P.
    from toricstab.plfun import _boundary_facets
    from toricstab.stability import _LCore, _candidates, _simple_l

    checked = 0
    for name in UNDETERMINED_SIX:
        p = corpus_entries[name].polytope
        ed = extremal_affine(p)
        n, t, tc = p.dim, ed.theta.a, ed.theta.c
        core = _LCore(p, ed)
        for b in dict.fromkeys(b for b, _, _ in _candidates(p, ed, 1)):
            region = intersect_halfspace(p, [-x for x in b], 0)
            want = F(0)
            for i in _boundary_facets(p, region):
                m = region.facet_moments(i)
                by = sum(x * y for x, y in zip(b, m.first))
                byty = sum(
                    b[j] * m.second[j][k] * t[k] for j in range(n) for k in range(n)
                )
                want += (1 - tc) / (n + 1) * by - byty / (n + 2)
            assert _simple_l(p, core, b, 0, 1) == want, (name, b)
            checked += 1
    assert checked == 76  # the distinct grid-1 directions of the six


def test_search_finds_nothing_where_the_radial_bound_holds(corpus_entries):
    # Every candidate max{0, b.x + d} is convex and not affine, so where the
    # bound holds each has L > 0 and the search, called directly, finds no
    # witness.
    from toricstab.stability import _LCore, _candidates, _simple_l

    checked = set()
    for name, entry in corpus_entries.items():
        p = entry.polytope
        if reflexive_translate(p) is not p:
            continue
        ed = extremal_affine(p)
        if not radial_certificate(p, ed).holds:
            continue
        assert destabilizer_search(p, ed, 1) is None, name
        core = _LCore(p, ed)
        for b, d, q in _candidates(p, ed, 1):
            assert _simple_l(p, core, b, d, q) > 0, (name, b, d, q)
        checked.add(name)
    assert len(checked) == 16


def test_k_classify_skips_the_search_only_where_the_radial_bound_holds(
    corpus_entries, monkeypatch
):
    # On B1, C2, D2 and E2 the verdict is the one the search would leave,
    # field by field; D1 and E1 still search.
    from toricstab import stability

    searched = []
    search = stability.destabilizer_search

    def recording(p, ed, grid):
        searched.append(p.name)
        return search(p, ed, grid)

    monkeypatch.setattr(stability, "destabilizer_search", recording)
    skipped = {name: k_classify(corpus_entries[name].polytope, 0) for name in UNDETERMINED_SIX}
    assert searched == ["D1", "E1"]
    cert = stability.radial_certificate
    monkeypatch.setattr(
        stability, "radial_certificate", lambda p, ed: cert(p, ed)._replace(holds=False)
    )
    for name in RADIAL_HOLDS:
        assert k_classify(corpus_entries[name].polytope, 0) == skipped[name]
        assert skipped[name].classification == UNDETERMINED
    assert searched == ["D1", "E1", *RADIAL_HOLDS]


def test_l_cross_check_fires_on_a_skewed_sbar(corpus_entries):
    # A skewed Sbar changes the boundary form by -integral of u and leaves
    # the parts form alone, so the cross-check must fire.
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    with pytest.raises(InternalInvariant):
        l_functional(b1, replace(ed, sbar=ed.sbar + 1), PLFn.simple((1, 0, 0), 0))


def test_l_matches_chart_route_on_search_candidates(corpus_entries, cube):
    # L on the regions of the nonzero pieces against L over every facet
    # chart and every linearity region, on the real search candidates.
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    for u in oracles.search_candidates(b1, ed, grid=1):
        assert l_functional(b1, ed, u) == oracles.chart_route_l(b1, ed, u)
    e2 = corpus_entries["E2"].polytope
    ed = extremal_affine(e2)
    rng = random.Random(13)
    candidates = list(oracles.search_candidates(e2, ed, grid=1))
    for u in rng.sample(candidates, 12):
        assert l_functional(e2, ed, u) == oracles.chart_route_l(e2, ed, u)
    for p in (cube, corpus_entries["C4"].polytope):
        ed = extremal_affine(p)
        for pieces in (1, 2, 3, 4):
            u = oracles.random_convex_pl(rng, 3, pieces)
            assert l_functional(p, ed, u) == oracles.chart_route_l(p, ed, u)
    # a T-convex function: minus the upper hull of seeded values on the
    # lattice points, one piece per lower facet of the lifted nodes; both
    # forms of L as the library sums them, and both oracles
    rng = random.Random(2002)
    for name, count in (("B1", 14), ("E2", 18)):
        p = corpus_entries[name].polytope
        ed = extremal_affine(p)
        hull = upper_hull([(z, F(rng.randint(0, 9))) for z in lattice_points(p, 1)])
        u = PLFn.convex([f.scale(-1) for f in hull.pieces])
        assert len(u.pieces) == count
        value = l_functional(p, ed, u)
        assert value == oracles.l_functional_parts_form(p, ed, u) == oracles.chart_route_l(p, ed, u)


def test_l_mirror_identity(cube, corpus_entries):
    # L kills affine functions and max{0, -f} = max{0, f} - f, so a simple
    # function and its mirror have the same L.
    rng = random.Random(5)
    for p in (corpus_entries["B1"].polytope, corpus_entries["C4"].polytope, cube):
        ed = extremal_affine(p)
        for _ in range(3):
            b = [0] * p.dim
            while not any(b):
                b = [rng.randint(-2, 2) for _ in range(p.dim)]
            # An offset strictly between the vertex values: u is not affine.
            values = [sum(x * y for x, y in zip(b, v)) for v in p.vertices]
            d = rng.randint(math.floor(-max(values)) + 1, math.ceil(-min(values)) - 1)
            u = PLFn.simple(b, d)
            mirror = PLFn.simple([-x for x in b], -d)
            assert l_functional(p, ed, u) == l_functional(p, ed, mirror)


def _orbit(group, b, d):
    """The images (s M^T b, s d) of a candidate's (b, d), for M in ``group``
    and s = +-1."""
    images = set()
    for m in group:
        image = tuple(sum(m[i][j] * b[i] for i in range(len(b))) for j in range(len(b)))
        images |= {(image, d), (tuple(-x for x in image), -d)}
    return images


def test_candidates_skip_mirrors(cube, corpus_entries):
    # No two yielded candidates lie in one orbit under the lattice
    # automorphisms and the sign flip; in particular no mirror is yielded.
    for p in (corpus_entries["B1"].polytope, cube):
        ed = extremal_affine(p)
        group = lattice_automorphisms(p)
        seen = set()
        for u in oracles.search_candidates(p, ed, grid=1):
            f = u.pieces[1]
            assert not _orbit(group, f.a, f.c) & seen
            seen.add((f.a, f.c))
        assert seen


def _primitive(b, d):
    """(b/g, d/g, g) for g = gcd(b), with b read as integers."""
    g = math.gcd(*map(int, b))
    return tuple(int(x) // g for x in b), d / g, g


def test_candidates_skip_positive_multiples(corpus_entries):
    # From grid 2 the box holds multiples k b of a direction b, whose offsets
    # are k times those of b.  Orbits are keyed on the primitive form, so no
    # two yielded candidates are positive multiples of each other up to the
    # orbit maps, and the counts are pinned.
    for name, grid, want in (("B1", 1, 44), ("B1", 2, 139), ("E2", 2, 320), ("D1", 2, 345)):
        p = corpus_entries[name].polytope
        group = lattice_automorphisms(p)
        seen = set()
        count = 0
        for u in oracles.search_candidates(p, extremal_affine(p), grid=grid):
            f = u.pieces[1]
            b, d, _ = _primitive(f.a, f.c)
            assert not _orbit(group, b, d) & seen, name
            seen.add((b, d))
            count += 1
        assert count == want, name


def test_skipped_multiples_have_a_multiple_of_an_evaluated_l(corpus_entries):
    # On B1 at grid 2, every candidate over a direction of the box with
    # entries in {-1, 0, 1} or {-2, 0, 2}, yielded or not, has L equal to
    # g_c / g_e times the L of the yielded candidate e in its primitive
    # orbit (g the gcd of the direction): skipping it cannot hide the first
    # witness.
    p = corpus_entries["B1"].polytope
    ed = extremal_affine(p)
    group = lattice_automorphisms(p)
    yielded = {}
    for u in oracles.search_candidates(p, ed, grid=2):
        f = u.pieces[1]
        b, d, g = _primitive(f.a, f.c)
        yielded[b, d] = (g, l_functional(p, ed, u))
    checked = 0
    for step in (1, 2):
        for b in itertools.product((-step, 0, step), repeat=3):
            if not any(b):
                continue
            crit = sorted({-sum(x * y for x, y in zip(b, v)) for v in p.vertices})
            offsets = [(lo + hi) / 2 for lo, hi in zip(crit, crit[1:])] + crit[1:-1]
            for d in offsets:
                key = _primitive(b, d)
                (e,) = _orbit(group, *key[:2]) & yielded.keys()
                g, value = yielded[e]
                assert l_functional(p, ed, PLFn.simple(b, d)) == F(key[2], g) * value
                checked += 1
    assert checked == 260


def test_l_is_invariant_under_lattice_automorphisms(cube, corpus_entries):
    # L(u o g) = L(u) exactly for every lattice automorphism g of P, on
    # seeded search candidates: both forms, compared inside l_functional on
    # every evaluation, and the parts form of the oracle once per candidate.
    rng = random.Random(1995)
    for p in [corpus_entries[name].polytope for name in ("B1", "C3", "F1")] + [cube]:
        ed = extremal_affine(p)
        group = lattice_automorphisms(p)
        assert len(group) > 1
        candidates = list(oracles.search_candidates(p, ed, grid=1))
        for u in rng.sample(candidates, 3):
            value = l_functional(p, ed, u)
            assert value == oracles.l_functional_parts_form(p, ed, u)
            f = u.pieces[1]
            for b, d in _orbit(group, f.a, f.c):
                assert l_functional(p, ed, PLFn.simple(b, d)) == value


def test_theta_is_invariant_under_lattice_automorphisms(corpus_entries):
    # theta o g = theta at every vertex, for every lattice automorphism g of
    # each reflexive entry (in its reflexive position).
    reflexive = 0
    for entry in corpus_entries.values():
        p = reflexive_translate(entry.polytope)
        if p is None:
            continue
        reflexive += 1
        theta = extremal_affine(p).theta
        for m in lattice_automorphisms(p):
            for v in p.vertices:
                assert theta([sum(a * x for a, x in zip(row, v)) for row in m]) == theta(v)
    assert reflexive == 18


def test_theta_check_fires_on_a_skewed_potential(corpus_entries):
    # theta o g = theta is checked exactly before the search: a potential
    # whose gradient no automorphism but the identity fixes must fail it.
    b1 = corpus_entries["B1"].polytope
    ed = extremal_affine(b1)
    skewed = replace(ed, theta=AffineFn.make((1, 2, 3), ed.theta.c))
    with pytest.raises(InternalInvariant, match="not invariant"):
        next(oracles.search_candidates(b1, skewed, grid=1))
    # grid 0 builds no group and so checks nothing
    assert list(oracles.search_candidates(b1, skewed, grid=0))


# -- node statistics and the balance system ----------------------------------


def test_theta_nodes_symmetric(cube):
    ed = extremal_affine(cube)
    nd = theta_nodes(cube, ed, 2)
    assert chow_necessary(cube, ed, 2).theta_bar == 0
    assert all(t == 0 for t in nd.numerators)


def test_theta_nodes_centering(corpus_entries):
    # theta at the nodes averages to the theta_bar of the level's integer
    # sums, so the deviations from it sum to zero
    for name in ("B2", "E4"):
        p = corpus_entries[name].polytope
        ed = extremal_affine(p)
        for i in (1, 2, 3):
            nd = theta_nodes(p, ed, i)
            bar = chow_necessary(p, ed, i).theta_bar
            assert sum(F(t, nd.den) - bar for t in nd.numerators) == 0


def test_theta_bar_decays(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    bars = [chow_necessary(p, ed, i).theta_bar for i in range(1, 7)]
    assert bars[0] == F(165, 3007)
    assert all(b > 0 for b in bars)
    assert all(a > b for a, b in zip(bars, bars[1:]))  # O(1/i) decay in practice


def test_s_closed_form_none_when_theta_constant(cube, corpus_entries):
    # On an any level the coefficients M t vanish (M the nodes' scatter
    # matrix, t theta's gradient), so does t^T M t, the deviation square
    # sum: every any level has no closed form, which is why Q takes s = 0
    # there.
    ed = extremal_affine(cube)
    assert s_closed_form(cube, ed, 2) is None
    any_levels = 0
    for name, entry in corpus_entries.items():
        p = entry.polytope
        ed = extremal_affine(p)
        for i in range(1, 9):
            cond = chow_necessary(p, ed, i)
            if cond.status == ANY:
                any_levels += 1
                assert cond.s_closed is None and cond.deviation_square_sum == 0, (name, i)
    assert any_levels == 40


def test_s_closed_form_b2_exact(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    assert s_closed_form(p, ed, 2) == F(-2813, 10192)


def test_s_closed_matches_balance_solution(corpus_entries):
    # when the balance system is solvable, its solution coincides with the
    # closed form (two independent routes to the same scalar)
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    for i in (1, 2, 3, 4):
        cond = chow_necessary(p, ed, i)
        assert cond.status == HOLDS
        assert cond.s == s_closed_form(p, ed, i)


def test_s_trend_toward_minus_half(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    deviations = [
        abs(s_closed_form(p, ed, i) + F(1, 2)) for i in (2, 4, 6, 8)
    ]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_theta_read_at_no_node(corpus_entries, monkeypatch):
    # The balance system, the closed-form s, Q and the projection read theta
    # at no node: theta's sums come from the integer sums of the level, and
    # Q and the projection sum only their PL function off the level's fibre
    # ranges, never through AffineFn.__call__.  analyze walks each level and
    # builds its sums once, and builds no theta_nodes at any level, not even
    # where it takes a Q sample (B2 holds at levels 1-3).
    from toricstab import lattice, stability

    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    points = lattice_points(p, 1)
    nodes = {tuple(F(x) for x in z) for z in points}
    at_nodes = []
    call = AffineFn.__call__

    def counting(fn, point):
        if tuple(F(x) for x in point) in nodes:
            at_nodes.append((fn, point))
        return call(fn, point)

    theta_reads = []
    pl_sums = stability._pl_sums

    def recording(q, fn, i):
        if fn == ed.theta:
            theta_reads.append(i)
        return pl_sums(q, fn, i)

    monkeypatch.setattr(AffineFn, "__call__", counting)
    monkeypatch.setattr(stability, "_pl_sums", recording)
    g = PLFn.concave([AffineFn.make((1, 0, 0), 0), AffineFn.make((-1, 0, 0), 0)])
    for run in (
        lambda: chow_necessary(p, ed, 1),
        lambda: s_closed_form(p, ed, 1),
        lambda: q_weight(p, ed, 1, g),
        lambda: project_perp(p, ed, 1, PLFn.simple((1, 0, 0), 0)),
    ):
        run()
        assert at_nodes == theta_reads == []
    levels, built, walked = [], [], []
    build = stability.theta_nodes
    sums, ranges = lattice._level_sums, lattice._ranges

    def counted(p, ed, i):
        levels.append(i)
        return build(p, ed, i)

    def summed(q, i):
        if ("level_sums", i) not in q.cache:
            built.append(i)
        return sums(q, i)

    def walk(q, i):
        # the one cached slot holds the last level walked
        if q.cache.get("lattice_ranges", (None,))[0] != i:
            walked.append(i)
        return ranges(q, i)

    monkeypatch.setattr(stability, "theta_nodes", counted)
    monkeypatch.setattr(stability, "_level_sums", summed)
    monkeypatch.setattr(lattice, "_level_sums", summed)
    monkeypatch.setattr(lattice, "_ranges", walk)
    # a fresh copy, so that no level's sums come from another test
    fresh = Polytope.from_halfspaces([(h.normal, h.rhs) for h in p.halfspaces])
    report = analyze(fresh, i_max=3, grid=0)
    assert sorted(report.q_samples) == [1, 2, 3]
    assert levels == theta_reads == []
    # levels 1-3 for the balance system, 1-5 for the Ehrhart counts
    assert sorted(built) == sorted(walked) == [1, 2, 3, 4, 5]


def test_k_classify_reads_the_records_in_integers(corpus_entries, monkeypatch):
    # theta, Sbar, the Futaki vector, the mean criterion, the integral of
    # each Q and P sample and the gate's boundary moment read the integer
    # moment records: k_classify on B1 and E2 (the benchmark's verdict
    # entries), direct Q and P weights, and the commands (each loads its
    # entries afresh) build no Poly and contract no record through
    # integrate._contract.
    from toricstab.cli import main

    integrate_module = importlib.import_module("toricstab.integrate")
    fresh = [
        Polytope.from_halfspaces(corpus_entries[name].polytope.halfspaces)
        for name in ("B1", "E2", "B2")
    ]
    built, contracted = [], []
    init, contract = Poly.__init__, integrate_module._contract

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_contract(m, poly):
        contracted.append(poly)
        return contract(m, poly)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(integrate_module, "_contract", counted_contract)
    for p in fresh[:2]:
        kv = k_classify(p)
        assert kv.classification == UNDETERMINED and kv.cond_rhs is not None
    b2 = fresh[2]
    ed = extremal_affine(b2)
    g = PLFn.concave([AffineFn.make((1, 0, 0), 0), AffineFn.make((-1, 0, 0), 0)])
    q_weight(b2, ed, 1, g)
    p_weight(b2, 2, PLFn.simple((1, 0, 0), 0), 2)
    for argv in (
        ("chow", "corpus:B1", "--i-max", "6"),
        ("analyze", "corpus:CP3", "--i-max", "4", "--grid", "0"),
        ("analyze", "corpus:ORB-530571", "--i-max", "3"),
        ("tables", "--i-max", "3", "--grid", "0"),
        ("kstab", "corpus:D1"),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0, argv
    assert built == contracted == []


def test_integer_integrals_match_the_poly_route(corpus_entries):
    # The integer route every command takes equals the Poly route, kept as
    # the reference: the integral of a PL function (g, the P sample
    # max{0, x_1}, random convex and concave ones) summed over its regions'
    # records, and Moments.linear against integrate._contract on P's record
    # and on every facet record, on the corpus and on random rational
    # polytopes in 1-4D.
    from toricstab import integrate_pl, stability

    integrate_module = importlib.import_module("toricstab.integrate")
    rng = random.Random(33)
    shapes = [entry.polytope for entry in corpus_entries.values()]
    shapes += [oracles.random_polytope(rng, dim) for dim in (1, 2, 3, 4) for _ in range(2)]
    for p in shapes:
        n = p.dim
        one = Poly.constant(n, 1)
        functions = [stability.facet_distance_pl(p), PLFn.simple([1] + [0] * (n - 1), 0)]
        for _ in range(2):
            functions.append(oracles.random_convex_pl(rng, n))
            functions.append(PLFn.concave(oracles.random_convex_pl(rng, n).pieces))
        for u in functions:
            assert stability._integral(p, u) == integrate_pl(p, one, u), (p.name, u)
        for m in (p.moments(), *map(p.facet_moments, range(len(p.halfspaces)))):
            a, c = [rng.randint(-9, 9) for _ in range(n)], rng.randint(-9, 9)
            want = integrate_module._contract(m, Poly.affine(a, c))
            assert F(m.linear(a, c), m.first_den) == want, (p.name, a, c)


def test_reflexive_entries_are_their_own_translate(corpus_entries, monkeypatch):
    # A reflexive entry is returned as is, with no elimination: 18 of the 19
    # entries.  ORB-530571 has no reflexive integer translate, so it alone
    # solves for the shift.
    from toricstab import stability

    calls = []
    for fn in ("_independent_rows", "solve_linear"):
        original = getattr(stability, fn)
        monkeypatch.setattr(
            stability, fn, lambda *args, _f=original, _n=fn: calls.append(_n) or _f(*args)
        )
    for name, entry in corpus_entries.items():
        p = entry.polytope
        assert reflexive_translate(p) is (None if name == "ORB-530571" else p)
    assert calls == ["_independent_rows", "solve_linear"]


def _node_stats(p, ed, i, g, u, bound, nodes):
    """The library's node statistics at level i, keyed as in
    :func:`oracles.fraction_node_stats`: the per-node ones off the fields of
    :func:`theta_nodes`, the sums of theta off the level's integer sums, and
    the projection's values at the oracle's ``nodes``."""
    nd = theta_nodes(p, ed, i)
    cond = chow_necessary(p, ed, i)
    deviations = tuple(F(t, nd.den) - cond.theta_bar for t in nd.numerators)
    try:
        q = q_weight(p, ed, i, g)
    except PreconditionFailed:
        q = None
    try:
        proj = project_perp(p, ed, i, u)
    except ThetaConstant:
        proj = None
    return {
        "count": cond.count,
        "nodes": tuple(tuple(F(x, i) for x in z) for z in nd.points),
        "theta_bar": cond.theta_bar,
        "deviations": deviations,
        "ttilde": tuple(d / i for d in deviations),
        "deviation_square_sum": cond.deviation_square_sum,
        "weighted_node_sum": tuple(i * x for x in cond.coeffs),
        "node_sum": cond.node_sum,
        "coeffs": cond.coeffs,
        "targets": cond.targets,
        "balance": {HOLDS: cond.s, ANY: oracles.ANY_S, FAILS: None}[cond.status],
        "s_closed": s_closed_form(p, ed, i),
        "q": q,
        "p": p_weight(p, i, u, bound).value,
        "kappa": None if proj is None else proj.kappa,
        "node_values": None if proj is None else tuple(proj.function(a) for a in nodes),
    }


def _assert_node_stats_match(p, ed, levels, rng):
    bound = max(abs(x) for v in p.vertices for x in v) * 20 + 20
    for i in levels:
        g = oracles.mixed_denominator_pl(rng, p.dim, "concave")
        u = oracles.mixed_denominator_pl(rng, p.dim, "convex")
        want = oracles.fraction_node_stats(p, ed.theta, i, g, u, bound)
        got = _node_stats(p, ed, i, g, u, bound, want["nodes"])
        for key, value in want.items():
            assert got[key] == value, (p.name, i, key)


def test_node_stats_match_fraction_route_on_corpus(corpus_entries):
    rng = random.Random(811)
    for name, entry in sorted(corpus_entries.items()):
        p = entry.polytope
        _assert_node_stats_match(p, extremal_affine(p), (1, 2, 3), rng)


def test_node_stats_match_fraction_route_at_deep_levels(corpus_entries):
    rng = random.Random(812)
    for name in ("E4", "F1"):
        p = corpus_entries[name].polytope
        _assert_node_stats_match(p, extremal_affine(p), range(1, 7), rng)


def test_node_stats_match_fraction_route_on_non_lattice_polytopes():
    # random theta on halved and thirded lattice polytopes: every node
    # statistic has non-trivial denominators at every level
    rng = random.Random(813)
    checked = 0
    for dim, num in ((2, 6), (3, 4), (4, 3)):
        for shrink in (2, 3):
            lattice = oracles.random_polytope(rng, dim, num=num, den=1)
            p = Polytope.from_vertices([tuple(x / shrink for x in v) for v in lattice.vertices])
            assert not p.is_lattice()
            own = extremal_affine(p)
            ed = replace(own, theta=oracles.random_affine(rng, dim))
            for i in (1, 2, 3):
                if not lattice_points(p, i):
                    with pytest.raises(PreconditionFailed):
                        theta_nodes(p, ed, i)
                    continue
                # the record of P's own theta is cached first: the random
                # theta's must not be read off it
                chow_necessary(p, own, i)
                _assert_node_stats_match(p, ed, (i,), rng)
                checked += 1
    assert checked >= 15


def _assert_level_stats_match_scanned_nodes(p, levels):
    """The record of each level read off its integer sums (theta_bar, the
    deviation square sum, the balance system, s_closed) and the Q and P
    samples of ``chow_levels``, against the rational route summed over the
    points of a scan of iP, never the library's enumeration.  The record
    is the one cached on P, and s_closed_form reads it."""
    from toricstab import stability

    ed = extremal_affine(p)
    g = stability.facet_distance_pl(p)
    u = PLFn.simple([1] + [0] * (p.dim - 1), 0)
    bound = max(u(v) for v in p.vertices) + 1
    chow, q_samples, p_samples = stability.chow_levels(p, max(levels))
    for i in levels:
        points = oracles.fibre_scan_points(p, i)
        want = oracles.fraction_node_stats(p, ed.theta, i, g, u, bound, points)
        cond = chow[i - 1]
        assert chow_necessary(p, ed, i) is cond
        assert s_closed_form(p, ed, i) == cond.s_closed
        got = {
            "count": cond.count,
            "theta_bar": cond.theta_bar,
            "deviation_square_sum": cond.deviation_square_sum,
            "weighted_node_sum": tuple(i * x for x in cond.coeffs),
            "node_sum": cond.node_sum,
            "coeffs": cond.coeffs,
            "targets": cond.targets,
            "balance": {HOLDS: cond.s, ANY: oracles.ANY_S, FAILS: None}[cond.status],
            "s_closed": cond.s_closed,
            "q": q_samples.get(i),
            "p": p_samples[i],
        }
        assert got == {key: want[key] for key in got}, (p.name, i)


def test_level_stats_match_fraction_route_on_corpus(corpus_entries):
    # every entry at levels 1-2, and the headline E4, which fails at every
    # level, at levels 1-5 (the sums themselves are checked at levels 1-8 in
    # test_lattice.py; the rational route costs about 50 us a node)
    for name, entry in corpus_entries.items():
        _assert_level_stats_match_scanned_nodes(entry.polytope, range(1, 6 if name == "E4" else 3))


def test_chow_levels_keep_no_point_list(corpus_entries):
    # The Q and P samples are summed off the fibre ranges, so no level,
    # not even one with a Q sample, leaves a lattice_points key on P.
    from toricstab import stability

    for name in ("CP3", "B1", "F1"):
        q = corpus_entries[name].polytope
        p = Polytope.from_halfspaces([(h.normal, h.rhs) for h in q.halfspaces])
        q_samples = stability.chow_levels(p, 4)[1]
        assert sorted(q_samples) == [1, 2, 3, 4], name
        assert not [k for k in p.cache if isinstance(k, tuple) and k[0] == "lattice_points"]


def test_level_stats_match_fraction_route_on_random_polytopes():
    # rational vertices in dimensions 1-4, so fibres start at fractional
    # bounds; dimension 1 reads the P sample off its one fibre
    rng = random.Random(815)
    for dim, count, top in ((1, 4, 4), (2, 4, 4), (3, 3, 3), (4, 2, 2)):
        for _ in range(count):
            p = oracles.random_polytope(rng, dim, num=4, den=3)
            _assert_level_stats_match_scanned_nodes(p, range(1, top + 1))


def test_node_stats_match_fraction_route_on_affine_samples(corpus_entries):
    # a single piece, and pieces that tie on the nodes, take the same route
    rng = random.Random(814)
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    ell = oracles.random_affine(rng, 3)
    tied = PLFn.concave([ell, ell.scale(1), oracles.random_affine(rng, 3).scale(F(1, 7))])
    for g, u in ((PLFn.concave([ell]), PLFn.convex([ell])), (tied, tied.add_affine(ell))):
        for i in (1, 2):
            want = oracles.fraction_node_stats(p, ed.theta, i, g, PLFn.convex(u.pieces), 10)
            got = _node_stats(p, ed, i, g, PLFn.convex(u.pieces), 10, want["nodes"])
            assert got == want
    nodes = refined_points(p, 1)
    assert _node_stats(p, ed, 1, PLFn.concave([ell]), PLFn.convex([ell]), 10, nodes)["q"] == 0


def test_node_checks_fire(corpus_entries, monkeypatch):
    # The three identities guarding the integer node sums stay live: Q of an
    # affine g vanishes under the balance system, P does not depend on the
    # bound R (it can only break in inexact arithmetic, so a float integral
    # stands in for a kernel bug), and u_perp is perpendicular to theta.
    from toricstab import stability

    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    integral = stability._integral
    monkeypatch.setattr(stability, "_integral", lambda *args: integral(*args) + 1)
    with pytest.raises(InternalInvariant, match="affine input"):
        q_weight(p, ed, 1, PLFn.concave([AffineFn.make((1, 2, 0), 1)]))
    monkeypatch.undo()
    with pytest.raises(InternalInvariant, match="bound R"):
        stability._p_weight(p, 27, F(13, 2), F(10), 0.1)
    pl_sums = stability._pl_sums
    first = lattice_points(p, 1)[0]
    calls = []

    def skewed(q, fn, i):
        total, moment, den = pl_sums(q, fn, i)
        calls.append(fn)
        if len(calls) == 2:  # u, then the projected u, one larger at the first node
            total, moment = total + 1, [x + z for x, z in zip(moment, first)]
        return total, moment, den

    monkeypatch.setattr(stability, "_pl_sums", skewed)
    with pytest.raises(InternalInvariant, match="perpendicular"):
        project_perp(p, ed, 1, PLFn.simple((1, 0, 0), 0))


def test_chow_cube_any(cube):
    ed = extremal_affine(cube)
    for i in (1, 2, 3, 4):
        assert chow_necessary(cube, ed, i).status == ANY


def test_chow_orbifold_fails_level1(corpus_entries):
    p = corpus_entries["ORB-530571"].polytope
    ed = extremal_affine(p)
    cond = chow_necessary(p, ed, 1)
    assert cond.status == FAILS
    assert cond.node_sum == (0, 1, -1)
    assert all(c == 0 for c in cond.coeffs)  # theta vanishes: absolute criterion


def test_chow_counterexample_fails_level1(corpus_entries):
    p = corpus_entries["E4"].polytope
    ed = extremal_affine(p)
    cond = chow_necessary(p, ed, 1)
    assert cond.status == FAILS
    assert cond.node_sum == (-4, 2, 1)
    assert cond.coeffs == (
        F(-11134272, 1816885),
        F(1079424, 363377),
        F(539712, 363377),
    )


def test_chow_status_invariant_under_s_rescaling(corpus_entries):
    # the balance system written with the deviations scaled by any power of
    # the level gives the same holds/any/fails verdict, only s rescales
    for name in ("B2", "E4", "ORB-530571"):
        p = corpus_entries[name].polytope
        ed = extremal_affine(p)
        for i in (1, 2, 3):
            cond = chow_necessary(p, ed, i)
            for power in (0, 1, 2):
                scaled = [c * F(i) ** power for c in cond.coeffs]
                alt = oracles.solve_overdetermined_1d(scaled, cond.targets)
                if cond.status == HOLDS:
                    assert alt == cond.s / F(i) ** power
                elif cond.status == ANY:
                    assert alt is oracles.ANY_S
                else:
                    assert alt is None


def test_balance_minors_match_fraction_solve_on_corpus(corpus_entries):
    # the status and s that the integer minors of the cleared rows give
    # (stability._balance) are the ones the rational system solved row by
    # row gives, on every entry at levels 1-8; each entry keeps one status
    # at every level, and every status is reached
    seen = {}
    for name, entry in corpus_entries.items():
        p = entry.polytope
        ed = extremal_affine(p)
        for i in range(1, 9):
            cond = chow_necessary(p, ed, i)
            sol = oracles.solve_overdetermined_1d(cond.coeffs, cond.targets)
            got = {HOLDS: cond.s, ANY: oracles.ANY_S, FAILS: None}[cond.status]
            assert got == sol and (cond.s is None) == (cond.status != HOLDS), (name, i)
            seen.setdefault(cond.status, set()).add(name)
    assert seen == {
        ANY: {"CP3", "B4", "C3", "C5", "F1"},
        HOLDS: {"B1", "B2", "B3", "C1", "C4", "E1", "E3", "F2"},
        FAILS: {"C2", "D1", "D2", "E2", "E4", "ORB-530571"},
    }


# -- Chow weights -------------------------------------------------------------


def test_q_affine_zero_when_holds(corpus_entries):
    rng = random.Random(71)
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    for i in (1, 2):
        for _ in range(3):
            g = PLFn.concave([oracles.random_affine(rng, 3)])
            assert q_weight(p, ed, i, g) == 0


def test_q_cube_center_spike(cube):
    from toricstab import upper_hull

    ed = extremal_affine(cube)
    nodes = [
        (tuple(map(F, z)), F(1) if z == (0, 0, 0) else F(0))
        for z in lattice_points(cube, 1)
    ]
    g = upper_hull(nodes)
    # direct route: 27 * integral(g) - 8 * sum g(a) with s = 0
    direct = 27 * 2 - 8 * sum(g(tuple(map(F, z))) for z in lattice_points(cube, 1))
    assert q_weight(cube, ed, 1, g) == direct == 46


def test_q_undefined_when_balance_fails(corpus_entries):
    p = corpus_entries["E4"].polytope
    ed = extremal_affine(p)
    with pytest.raises(PreconditionFailed):
        q_weight(p, ed, 1, PLFn.concave([AffineFn.zero(3)]))


def test_p_weight_cube(cube):
    report = p_weight(cube, 1, PLFn.convex([AffineFn.make((1, 0, 0), 0)]), 2)
    assert report.value == 0
    report = p_weight(cube, 1, PLFn.simple((1, 0, 0), 0), 2)
    assert report.value == -18
    assert report.chow_weight == 18
    assert report.lattice_cone_integral


def test_p_weight_affine_kernel(cube):
    rng = random.Random(73)
    for _ in range(5):
        ell = oracles.random_affine(rng, 3)
        report = p_weight(cube, 1, PLFn.convex([ell]), 10)
        assert report.value == 0


def test_analyze_skips_the_lattice_cone_test(corpus_entries, monkeypatch):
    # analyze keeps only the weight of its P sample, so the integrality flag
    # is left to p_weight, which reports it; the R-independence check of the
    # weight stays on (test_node_checks_fire)
    from toricstab import stability

    calls = []
    flag = stability.pl_is_rational_lattice_cone

    def counted(*args):
        calls.append(args)
        return flag(*args)

    monkeypatch.setattr(stability, "pl_is_rational_lattice_cone", counted)
    p = corpus_entries["E4"].polytope
    report = analyze(p, i_max=3, grid=0)
    assert calls == []
    u = PLFn.simple((1, 0, 0), 0)
    bound = max(u(v) for v in p.vertices) + 1
    for i, value in report.p_samples.items():
        assert p_weight(p, i, u, bound).value == value
    assert len(calls) == 3


def test_project_perp_constant_untouched(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    u = PLFn.convex([AffineFn.make((0, 0, 0), 1)])
    proj = project_perp(p, ed, 1, u)
    assert proj.kappa == 0
    assert proj.function == u


def test_project_perp_theta_collapses(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    u = PLFn.convex([AffineFn(ed.theta.a, ed.theta.c - chow_necessary(p, ed, 1).theta_bar)])
    proj = project_perp(p, ed, 1, u)
    assert proj.kappa == 1
    assert all(proj.function(a) == 0 for a in refined_points(p, 1))


def test_project_perp_identity(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    u = PLFn.simple((0, 0, 1), 0)
    proj = project_perp(p, ed, 1, u)
    assert oracles.theta_pairing(p, ed.theta, 1, proj.function) == 0
    s = s_closed_form(p, ed, 1)
    assert p_weight(p, 1, proj.function, 10).value == q_weight(p, ed, 1, u, s=s)


def test_project_perp_theta_constant(cube):
    ed = extremal_affine(cube)
    with pytest.raises(ThetaConstant):
        project_perp(cube, ed, 1, PLFn.simple((1, 0, 0), 0))


def test_pl_function_of_the_wrong_dimension_rejected(corpus_entries, cube):
    # u must live in the dimension of P: every entry point rejects a 2D
    # function over 3D input before it pairs a gradient with a point
    from toricstab import integrate_pl
    from toricstab.plfun import boundary_integrate_pl, linearity_regions

    u = PLFn.simple([1, 0], 0)
    one = Poly.constant(3, 1)
    e4 = corpus_entries["E4"].polytope
    ed = extremal_affine(e4)
    calls = [
        lambda: integrate_pl(cube, one, u),
        lambda: boundary_integrate_pl(cube, one, u),
        lambda: linearity_regions(cube, u),
        lambda: l_functional(cube, extremal_affine(cube), u),
        lambda: project_perp(e4, ed, 1, u),
        lambda: p_weight(e4, 1, u, 2),
        lambda: q_weight(e4, ed, 1, u),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="dimension"):
            call()


# -- orchestration and equivariance -------------------------------------------


def test_analyze_cp3(corpus_entries):
    report = analyze(corpus_entries["CP3"].polytope, i_max=4, grid=0)
    assert report.kverdict.classification == STABLE_EMPTY_EXCESS
    assert all(c.status == ANY for c in report.chow)


def test_analyze_counterexample(corpus_entries):
    report = analyze(corpus_entries["E4"].polytope, i_max=2, grid=0)
    assert report.kverdict.classification == STABLE_EMPTY_EXCESS
    assert report.chow[0].status == FAILS


def test_analyze_orbifold(corpus_entries):
    report = analyze(corpus_entries["ORB-530571"].polytope, i_max=2, grid=0)
    assert report.kverdict is None
    assert report.kverdict_error
    assert report.futaki == (0, 0, 0)
    assert report.chow[0].status == FAILS


def test_translation_equivariance(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    t = (1, -2, 1)
    moved = translate(p, t)
    edm = extremal_affine(moved)
    assert edm.sbar == ed.sbar
    assert moved.volume() == p.volume()
    assert edm.theta.a == ed.theta.a
    assert edm.theta(tuple(F(x) for x in t)) == ed.theta((0, 0, 0))
    assert k_classify(moved, grid=0).classification == k_classify(p, grid=0).classification
    for i in (1, 2):
        assert chow_necessary(moved, edm, i).status == chow_necessary(p, ed, i).status
    # weights computed against the translated test data agree exactly
    u = PLFn.simple((0, 0, 1), 0)
    moved_u = PLFn.convex(
        [
            AffineFn(f.a, f.c - sum(F(a) * b for a, b in zip(f.a, t)))
            for f in u.pieces
        ]
    )
    assert (
        p_weight(moved, 1, moved_u, 10).value == p_weight(p, 1, u, 10).value
    )


def test_full_pipeline_dimension_two(cp2):
    # the operations are dimension-generic; a surface input runs end to end
    ed = extremal_affine(cp2)
    assert ed.theta == AffineFn.zero(2)
    assert ed.sbar == 2
    kv = k_classify(cp2, grid=0)
    assert kv.classification == STABLE_EMPTY_EXCESS
    for i in (1, 2, 3):
        assert chow_necessary(cp2, ed, i).status == ANY
    report = p_weight(cp2, 1, PLFn.simple((1, 0), 0), 3)
    # 10 sample points, volume 9/2: direct evaluation of the weight formula
    pts = lattice_points(cp2, 1)
    from toricstab import Poly, integrate_pl

    direct = len(pts) * integrate_pl(
        cp2, Poly.constant(2, 1), PLFn.simple((1, 0), 0)
    ) - cp2.volume() * sum(max(0, z[0]) for z in pts)
    assert report.value == direct


def test_unimodular_equivariance(corpus_entries):
    p = corpus_entries["B2"].polytope
    ed = extremal_affine(p)
    mat = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]  # shear in GL(3, Z)
    image = unimodular_image(p, mat)
    edi = extremal_affine(image)
    assert image.volume() == p.volume()
    assert edi.sbar == ed.sbar
    assert len(lattice_points(image, 2)) == len(lattice_points(p, 2))
    assert (
        k_classify(image, grid=0).classification
        == k_classify(p, grid=0).classification
    )
    for i in (1, 2):
        assert chow_necessary(image, edi, i).status == chow_necessary(p, ed, i).status
