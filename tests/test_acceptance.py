"""Acceptance criteria, one test per criterion, all at exact (zero) tolerance.

Each test prints a single PASS/FAIL line so the suite doubles as a checklist:
run with ``pytest -s tests/test_acceptance.py``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from toricstab import (
    Poly,
    Polytope,
    boundary_integral,
    chow_necessary,
    ehrhart,
    extremal_affine,
    integrate,
    k_classify,
    l_functional,
    moment_vector,
    p_weight,
    polar_dual,
    project_perp,
    q_weight,
    s_closed_form,
)
from toricstab.cli import main as cli_main
from toricstab.integrate import integrate_simplex
from toricstab.lattice import lattice_points
from toricstab.plfun import AffineFn, PLFn
from toricstab.stability import (
    ANY,
    FAILS,
    STABLE_EMPTY_EXCESS,
    excess_region,
)

import oracles


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def require_gate(corpus_gate, names):
    bad = {n: corpus_gate[n] for n in names if corpus_gate[n]}
    if bad:
        pytest.fail(f"corpus error (integrity gate): {bad}")


def test_criterion_1_b2_pipeline():
    with criterion(1, "B2 pipeline from the half-space description"):
        p = Polytope.from_halfspaces(
            [
                ((-1, 0, 0), 1),
                ((0, -1, 0), 1),
                ((0, 0, -1), 1),
                ((0, 0, 1), 1),
                ((1, 1, 1), 1),
            ],
            "B2",
        )
        assert p.volume() == F(28, 3)
        assert integrate(p, Poly.coordinate(3, 2)) == -2
        ed = extremal_affine(p)
        assert ed.theta == AffineFn.make((0, 0, F(-70, 97)), F(-15, 97))
        assert excess_region(p, ed) is None
        assert k_classify(p, grid=0).classification == STABLE_EMPTY_EXCESS


def test_criterion_2_b1_pipeline(corpus_entries):
    with criterion(2, "B1 pipeline with exact criterion sides and the flag"):
        p = corpus_entries["B1"].polytope
        assert p.volume() == F(31, 3)
        assert integrate(p, Poly.coordinate(3, 2)) == -4
        ed = extremal_affine(p)
        assert ed.theta == AffineFn.make((0, 0, F(-620, 349)), F(-240, 349))
        minus = excess_region(p, ed)
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
        assert sorted(minus.vertices) == published
        # volume by the triangulation route and by the subdivision oracle
        assert minus.volume() == F(7351, 12000)
        assert (
            oracles.slice_and_sum(minus, Poly.constant(3, 1), (1, 1, 1), F(-5, 2))
            == F(7351, 12000)
        )
        # both sides of the mean criterion are reported exactly
        kv = k_classify(p, grid=0)
        assert kv.cond_lhs == F(589, 349)
        assert kv.cond_rhs == F(23785711, 8953591510)
        # and the command-line surface prints them plus the documented flag
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["kstab", "corpus:B1", "--grid", "0"])
        out = buf.getvalue()
        assert code == 0
        assert "589/349" in out and "23785711/8953591510" in out
        assert "note:" in out and "inconsistent" in out


def test_criterion_3_symmetric_entries(corpus_entries, cube, cross_polytope):
    with criterion(3, "vanishing potential on the symmetric polytopes"):
        for p in (corpus_entries["CP3"].polytope, cube, cross_polytope):
            ed = extremal_affine(p)
            assert ed.theta == AffineFn.zero(3)
            assert ed.futaki == (0, 0, 0)
            for i in range(1, 5):
                assert chow_necessary(p, ed, i).status == ANY


def test_criterion_4_orbifold(corpus_entries):
    with criterion(4, "orbifold counterexample data"):
        raw = corpus_entries["ORB-530571"].raw
        fano = Polytope.from_vertices(raw["fano_vertices"])
        dual = polar_dual(fano)
        want = sorted(tuple(map(F, v)) for v in raw["dual_vertices"])
        assert sorted(dual.vertices) == want
        assert len(dual.vertices) == 8
        doubled = corpus_entries["ORB-530571"].polytope
        poly = ehrhart(doubled)
        assert poly.coeffs == (12, 9, 3, 1)
        for t in (4, 5):
            assert len(lattice_points(doubled, t)) == poly(t)
        assert doubled.volume() == 12
        assert moment_vector(doubled) == (0, 0, 0)
        for k in range(3):
            assert boundary_integral(doubled, Poly.coordinate(3, k)) == 0
        sums = {
            i: tuple(sum(z[k] for z in lattice_points(doubled, i)) for k in range(3))
            for i in (1, 2, 3)
        }
        assert sums[1] == (0, 1, -1)
        assert sums[2] == (0, 3, -3)
        assert sums[3] == (0, 6, -6)
        ed = extremal_affine(doubled)
        assert chow_necessary(doubled, ed, 1).status == FAILS


def test_criterion_5_counterexample_threefold(corpus_entries, corpus_gate):
    with criterion(5, "rank-4 counterexample pinned data"):
        require_gate(corpus_gate, ["E4"])
        p = corpus_entries["E4"].polytope
        assert ehrhart(p).coeffs == (F(20, 3), 10, F(16, 3), 1)
        assert moment_vector(p) == (F(-7, 8), F(5, 12), F(5, 24))
        pts = lattice_points(p, 1)
        assert tuple(sum(z[k] for z in pts) for k in range(3)) == (-4, 2, 1)
        ed = extremal_affine(p)
        assert ed.theta == AffineFn.make(
            (F(-34208, 78995), F(7936, 78995), 0), F(-24929, 394975)
        )
        assert excess_region(p, ed) is None
        assert k_classify(p, grid=0).classification == STABLE_EMPTY_EXCESS
        cond = chow_necessary(p, ed, 1)
        assert cond.coeffs == (
            F(-11134272, 1816885),
            F(1079424, 363377),
            F(539712, 363377),
        )
        assert oracles.solve_overdetermined_1d(cond.coeffs, cond.targets) is None
        assert cond.status == FAILS


TABLE_THETA = {
    "CP3": None,
    "B1": ((0, 0, F(-620, 349)), F(-240, 349)),
    "B2": ((0, 0, F(-70, 97)), F(-15, 97)),
    "B3": ((F(-20, 43), F(-20, 43), 0), F(-5, 43)),
    "B4": None,
    "C1": ((0, 0, F(-260, 219)), F(-80, 219)),
    "C2": ((F(-7600, 17787), 0, F(-17750, 17787)), F(-4868, 17787)),
    "C3": None,
    "C4": ((0, F(-6, 11), 0), F(-1, 11)),
    "C5": None,
    "D1": ((F(99600, 467581), F(-627000, 467581), 0), F(-213939, 467581)),
    "D2": ((F(219420, 650251), F(-318320, 650251), 0), F(-62565, 650251)),
    "E1": ((F(-17020, 19651), F(-17020, 19651), 0), F(-6845, 19651)),
    "E2": ((F(-2646160, 2735927), F(-982960, 2735927), 0), F(-692905, 2735927)),
    "E3": ((F(-168, 409), F(-168, 409), 0), F(-32, 409)),
    "E4": ((F(-34208, 78995), F(7936, 78995), 0), F(-24929, 394975)),
    "F1": None,
    "F2": ((0, F(36, 67), 0), F(-5, 67)),
}

EMPTY_EXCESS = {"CP3", "B2", "B3", "B4", "C1", "C3", "C4", "C5", "E3", "E4", "F1", "F2"}


def test_criterion_6_theta_table_regression(corpus_entries, corpus_gate):
    with criterion(6, "extremal potential table regression"):
        names = [n for n in TABLE_THETA]
        require_gate(corpus_gate, [n for n in names if corpus_entries[n].provenance == "database"])
        for name, expected in TABLE_THETA.items():
            p = corpus_entries[name].polytope
            ed = extremal_affine(p)
            if expected is None:
                assert ed.theta == AffineFn.zero(3), name
            else:
                assert ed.theta == AffineFn.make(*expected), name
            minus = excess_region(p, ed)
            if name in EMPTY_EXCESS:
                assert minus is None, name
            else:
                assert minus is not None, name
            kv = k_classify(p, grid=0)
            assert (kv.delta_minus is None) == (name in EMPTY_EXCESS), name
            if name in EMPTY_EXCESS:
                assert kv.classification == STABLE_EMPTY_EXCESS, name


def test_criterion_7a_exact_zero_suite(corpus_entries):
    with criterion(7, "a: exact-zero normalizations on every entry"):
        for entry in corpus_entries.values():
            p = entry.polytope
            ed = extremal_affine(p)
            assert integrate(p, ed.theta.as_poly()) == 0
            one = PLFn.convex([AffineFn.make((0, 0, 0), 1)])
            assert l_functional(p, ed, one) == 0
            for k in range(3):
                grad = [1 if j == k else 0 for j in range(3)]
                xk = PLFn.convex([AffineFn.make(grad, 0)])
                assert l_functional(p, ed, xk) == 0


def test_criterion_7b_two_formula_agreement(corpus_entries):
    with criterion(7, "b: boundary form vs integration-by-parts form"):
        rng = random.Random(101)
        for entry in corpus_entries.values():
            p = entry.polytope
            if not all(h.rhs == 1 for h in p.halfspaces):
                continue
            ed = extremal_affine(p)
            for _ in range(20):
                u = oracles.random_convex_pl(rng, 3)
                assert l_functional(p, ed, u) == oracles.l_functional_parts_form(p, ed, u)


def test_criterion_7c_integration_oracles():
    with criterion(7, "c: integration kernel oracles"):
        rng = random.Random(103)
        for _ in range(100):
            dim = rng.randint(2, 3)
            s = oracles.random_simplex(rng, dim)
            l1 = oracles.random_affine(rng, dim)
            l2 = oracles.random_affine(rng, dim)
            assert integrate_simplex(
                s, l1.as_poly() * l2.as_poly()
            ) == oracles.degree2_simplex_integral(s, l1, l2)
        for _ in range(20):
            p = oracles.random_polytope(rng, rng.randint(2, 3))
            poly = oracles.random_poly(rng, p.dim)
            via_a = sum(integrate_simplex(s, poly) for s in p.triangulation())
            via_b = sum(
                integrate_simplex(s, poly)
                for s in oracles.chart_triangulation(p, apex_last=True)
            )
            assert via_a == via_b
            point = oracles.interior_point(p)
            normal = [rng.randint(-2, 2) for _ in range(p.dim)]
            if all(x == 0 for x in normal):
                normal[0] = 1
            rhs = sum(F(a) * b for a, b in zip(normal, point))
            assert oracles.slice_and_sum(p, poly, normal, rhs) == via_a


def test_criterion_7d_ehrhart_identities(corpus_entries):
    with criterion(7, "d: counting polynomial identities"):
        for entry in corpus_entries.values():
            p = entry.polytope
            if not p.is_lattice():
                continue
            poly = ehrhart(p)
            assert poly.coeffs[0] == p.volume()
            assert 2 * poly.coeffs[1] == p.boundary_volume()
            interior = oracles.interior_lattice_point_count(p)
            assert poly(-1) == -interior
            if all(h.rhs == 1 for h in p.halfspaces):
                assert interior == 1


def test_criterion_7e_equivariance(corpus_entries):
    with criterion(7, "e: lattice symmetry equivariance on B2"):
        p = corpus_entries["B2"].polytope
        ed = extremal_affine(p)
        base_k = k_classify(p, grid=0).classification
        base_chow = [chow_necessary(p, ed, i).status for i in (1, 2)]

        moved = Polytope.from_halfspaces(
            [
                (h.normal, h.rhs + sum(F(a) * b for a, b in zip(h.normal, (1, -2, 1))))
                for h in p.halfspaces
            ]
        )
        edm = extremal_affine(moved)
        assert moved.volume() == p.volume()
        assert edm.sbar == ed.sbar
        assert edm.theta.a == ed.theta.a
        assert edm.theta((1, -2, 1)) == ed.theta((0, 0, 0))
        assert k_classify(moved, grid=0).classification == base_k
        assert [chow_necessary(moved, edm, i).status for i in (1, 2)] == base_chow

        mat = [[1, 0, 1], [0, 1, -1], [0, 0, 1]]
        image = Polytope.from_vertices(
            [
                tuple(sum(F(mat[i][j]) * v[j] for j in range(3)) for i in range(3))
                for v in p.vertices
            ]
        )
        edi = extremal_affine(image)
        assert image.volume() == p.volume()
        assert edi.sbar == ed.sbar
        assert len(lattice_points(image, 2)) == len(lattice_points(p, 2))
        assert k_classify(image, grid=0).classification == base_k
        assert [chow_necessary(image, edi, i).status for i in (1, 2)] == base_chow


def test_criterion_7f_asymptotics(corpus_entries):
    with criterion(7, "f: balance scalar and weight asymptotics on B2"):
        p = corpus_entries["B2"].polytope
        ed = extremal_affine(p)
        assert abs(s_closed_form(p, ed, 8) + F(1, 2)) < abs(
            s_closed_form(p, ed, 2) + F(1, 2)
        )
        g = PLFn.concave([AffineFn.make((0, 0, 0), 1), AffineFn.make((0, 0, 1), 1)])
        lg = l_functional(p, ed, g)
        vol = p.volume()
        errors = []
        for i in (2, 4, 6, 8):
            q = q_weight(p, ed, i, g)
            errors.append(abs(q / F(i * i) + vol * lg / 2))
        assert all(a > b for a, b in zip(errors, errors[1:]))


def test_criterion_7g_projection_identity(corpus_entries):
    with criterion(7, "g: perpendicular projection identity"):
        rng = random.Random(107)
        for name in ("B2", "F2"):
            p = corpus_entries[name].polytope
            ed = extremal_affine(p)
            count = 0
            while count < 10:
                u = oracles.random_convex_pl(rng, 3)
                for i in (1, 2, 3):
                    proj = project_perp(p, ed, i, u)
                    assert oracles.theta_pairing(p, ed.theta, i, proj.function) == 0
                    s = s_closed_form(p, ed, i)
                    assert (
                        p_weight(p, i, proj.function, 100).value
                        == q_weight(p, ed, i, u, s=s)
                    )
                count += 1


def test_criterion_8_corpus_integrity_gate(corpus_gate):
    with criterion(8, "corpus integrity gate"):
        failures = {n: probs for n, probs in corpus_gate.items() if probs}
        assert not failures, f"corpus errors: {failures}"
