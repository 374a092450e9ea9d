"""Exact integration of polynomials over polytopes and their boundaries.

Everything reduces to integrals over simplices.  Every integrand the
pipeline builds has degree at most 2, and those are contractions with a
moment record: the integrals of 1, x_k and x_j x_k.  On a simplex with
vertex sum S = sum v_i and Q = sum v_i v_i^T (Baldoni, Berline, De Loera,
Koeppe, Vergne, "How to integrate a polynomial over a simplex", Math. Comp.
2011):

    integral over S of 1        =  Vol(S)
    integral over S of x_k      =  Vol(S) * S_k / (n + 1)
    integral over S of x_j x_k  =  Vol(S) * (Q_jk + S_j S_k) / ((n + 1)(n + 2))

Each :class:`Simplex` keeps that record, and each :class:`Polytope` keeps
one summed over the cells of its triangulation and one per facet in the
lattice-normalized measure (``moments`` and ``facet_moments``).  One
contraction, :func:`_contract`, reads every integral of degree at most 2
off any of them.  Above degree 2 the integrand is expanded in barycentric
coordinates and the Dirichlet moment formula applies:

    integral over S of  lam^alpha dx  =  n! Vol(S) * (prod alpha_j!) / (n + |alpha|)!

Over a polytope or a facet it runs over the same cells; a facet cell is a
simplex in the ambient space, weighted by its lattice measure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import rat, rat_str
from .polytope import Moments, Polytope, Simplex, _weighted_cells


class Poly:
    """Multivariate polynomial over the rationals, keyed by exponent vector."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = rat(coeff)
                if coeff != 0:
                    self.terms[tuple(expo)] = coeff

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: rat(value)})

    @staticmethod
    def coordinate(nvars: int, k: int) -> "Poly":
        expo = [0] * nvars
        expo[k] = 1
        return Poly(nvars, {tuple(expo): Fraction(1)})

    @staticmethod
    def affine(gradient: Sequence, constant) -> "Poly":
        n = len(gradient)
        p = Poly.constant(n, constant)
        for k, a in enumerate(gradient):
            a = rat(a)
            if a != 0:
                expo = [0] * n
                expo[k] = 1
                p.terms[tuple(expo)] = a
        return p

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) - c
        return Poly(self.nvars, out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, expo):
                if e:
                    term *= rat(x) ** e
            total += term
        return total

    def compose_affine(self, maps: Sequence["Poly"]) -> "Poly":
        """Substitute x_i = maps[i] (polynomials in a new variable set)."""
        nvars = maps[0].nvars
        out = Poly.constant(nvars, 0)
        for expo, coeff in self.terms.items():
            term = Poly.constant(nvars, coeff)
            for i, e in enumerate(expo):
                for _ in range(e):
                    term = term * maps[i]
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(expo)
                if e
            )
            c = rat_str(self.terms[expo])
            bits.append(c if not mono else f"{c}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def integrate_simplex(simplex: Simplex, p: Poly) -> Fraction:
    """Exact integral of ``p`` over one simplex: its moment record up to
    degree 2, the Dirichlet formula above."""
    if p.degree() > 2:
        return _dirichlet(simplex, simplex.volume(), p)
    return _contract(simplex.moments(), p)


def _dirichlet(simplex: Simplex, vol: Fraction, p: Poly) -> Fraction:
    """The integral of ``p`` over the simplex of measure ``vol`` by expanding
    ``p`` in barycentric coordinates; the simplex may have fewer dimensions
    than its ambient space."""
    n = simplex.dim
    v0 = simplex.vertices[0]
    # x_i = v0_i + sum_j (v_j - v0)_i * lam_j as polynomials in lam_1..lam_n
    maps = []
    for i in range(len(v0)):
        grad = [simplex.vertices[j + 1][i] - v0[i] for j in range(n)]
        maps.append(Poly.affine(grad, v0[i]))
    in_bary = p.compose_affine(maps)
    total = Fraction(0)
    nfact_vol = math.factorial(n) * vol
    for expo, coeff in in_bary.terms.items():
        num = 1
        for e in expo:
            num *= math.factorial(e)
        total += coeff * nfact_vol * Fraction(num, math.factorial(n + sum(expo)))
    return total


def _contract(m: Moments, p: Poly) -> Fraction:
    """The integral of ``p``, of degree at most 2, read off a moment record."""
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        axes = [k for k, e in enumerate(expo) for _ in range(e)]
        if not axes:
            total += coeff * m.measure
        elif len(axes) == 1:
            total += coeff * m.first[axes[0]]
        else:
            total += coeff * m.second[axes[0]][axes[1]]
    return total


def _over_cells(p: Polytope, facet: Optional[int], poly: Poly) -> Fraction:
    """The Dirichlet formula summed over the cells of P (``facet`` None) or
    of one facet."""
    cells, weights, base = _weighted_cells(p, facet)
    return sum(
        (
            _dirichlet(Simplex(tuple(p.vertices[j] for j in cell)), Fraction(w, base), poly)
            for cell, w in zip(cells, weights)
        ),
        Fraction(0),
    )


def integrate(p: Polytope, poly: Poly) -> Fraction:
    """Integral of a polynomial over the polytope."""
    if poly.degree() <= 2:
        return _contract(p.moments(), poly)
    return _over_cells(p, None, poly)


def facet_integral(p: Polytope, i: int, poly: Poly) -> Fraction:
    """Integral of ``poly`` over facet ``i`` with the lattice-normalized measure."""
    if poly.degree() <= 2:
        return _contract(p.facet_moments(i), poly)
    return _over_cells(p, i, poly)


def moment_vector(p: Polytope) -> tuple[Fraction, ...]:
    """Componentwise integral of the coordinate functions."""
    return p.moments().first


def boundary_integral(p: Polytope, poly: Poly) -> Fraction:
    """Integral of ``poly`` over the boundary with the lattice-normalized measure."""
    return sum(
        (facet_integral(p, i, poly) for i in range(len(p.halfspaces))), Fraction(0)
    )
