"""Exact integration of polynomials of degree at most 2 over polytopes and
their boundaries.

Every integrand the pipeline builds multiplies at most two affine factors,
and each such integral is a contraction with a moment record: the integrals
of 1, x_k and x_j x_k.  On a simplex with vertex sum S = sum v_i and
Q = sum v_i v_i^T (Baldoni, Berline, De Loera, Koeppe, Vergne, "How to
integrate a polynomial over a simplex", Math. Comp. 2011):

    integral over S of 1        =  Vol(S)
    integral over S of x_k      =  Vol(S) * S_k / (n + 1)
    integral over S of x_j x_k  =  Vol(S) * (Q_jk + S_j S_k) / ((n + 1)(n + 2))

Each :class:`Simplex` keeps that record, and each :class:`Polytope` keeps
one summed over the cells of its triangulation and one per facet in the
lattice-normalized measure (``moments`` and ``facet_moments``).  One
contraction, :func:`_contract`, reads every integral off any of them.

Degree at most 2 is the contract: a term of higher degree, or a polynomial
in a number of variables other than the record's dimension, raises
:class:`~toricstab.errors.ValidationError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .linalg import rat, rat_str
from .polytope import Moments, Polytope, Simplex


class Poly:
    """Multivariate polynomial over the rationals, keyed by exponent vector."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValidationError("mixed ambient dimensions")
                if any(e < 0 for e in expo):
                    raise ValidationError(f"negative exponent in {tuple(expo)}")
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
        if other.nvars != self.nvars:
            raise ValidationError("mixed ambient dimensions")
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
        if len(point) != self.nvars:
            raise ValidationError(f"a point of length {len(point)} in dimension {self.nvars}")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, expo):
                if e:
                    term *= rat(x) ** e
            total += term
        return total

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
    """Exact integral of ``p`` over one simplex, read off its moment record."""
    return _contract(simplex.moments(), p)


def _contract(m: Moments, p: Poly) -> Fraction:
    """The integral of ``p`` read off a moment record; ``p`` must have degree
    at most 2 and as many variables as the record has coordinates."""
    if p.nvars != len(m.sums):
        raise ValidationError(
            f"a polynomial in {p.nvars} variables integrated in dimension {len(m.sums)}"
        )
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        axes = [k for k, e in enumerate(expo) for _ in range(e)]
        if not axes:
            total += coeff * m.measure
        elif len(axes) == 1:
            total += coeff * m.first[axes[0]]
        elif len(axes) == 2:
            total += coeff * m.second[axes[0]][axes[1]]
        else:
            raise ValidationError(f"a term of degree {len(axes)}: integrals stop at degree 2")
    return total


def integrate(p: Polytope, poly: Poly) -> Fraction:
    """Integral of a polynomial of degree at most 2 over the polytope."""
    return _contract(p.moments(), poly)


def facet_integral(p: Polytope, i: int, poly: Poly) -> Fraction:
    """Integral of ``poly``, of degree at most 2, over facet ``i`` with the
    lattice-normalized measure."""
    return _contract(p.facet_moments(i), poly)


def moment_vector(p: Polytope) -> tuple[Fraction, ...]:
    """Componentwise integral of the coordinate functions."""
    return p.moments().first


def boundary_integral(p: Polytope, poly: Poly) -> Fraction:
    """Integral of ``poly`` over the boundary with the lattice-normalized measure."""
    return sum(
        (facet_integral(p, i, poly) for i in range(len(p.halfspaces))), Fraction(0)
    )
