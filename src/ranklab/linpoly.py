"""Linearized-polynomial algebra over GF(q^m).

A linearized polynomial a_r x^(q^r) + ... + a_1 x^q + a_0 x is stored as the
tuple (a_0, ..., a_r) of coefficient serials with a_r != 0; the empty tuple
is the zero polynomial.  OrdinaryPoly is the sparse expanded view (degree ->
coefficient) used for divisibility checks, stride associates and root counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ranklab import gfmatrix
from ranklab.errors import BudgetExceeded, FieldMismatch, StrideViolation
from ranklab.field import FieldSpec, embedded_basis

KERNEL_BUDGET = 1 << 20


class LinearizedPoly:
    """Immutable linearized polynomial over a fixed coefficient field; its
    coefficients, like every argument and result, are field serials."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[int] = ()):
        vals = list(coeffs)
        while vals and vals[-1] == 0:
            vals.pop()
        self.spec = spec
        self.coeffs = tuple(vals)

    # -- shape -------------------------------------------------------------

    @property
    def q_degree(self) -> int:
        """Index of the top nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- evaluation ----------------------------------------------------------

    def evaluate_serial(self, x: int) -> int:
        return self.spec.frobenius_sum(self.coeffs, x)

    # -- ring-module operations ----------------------------------------------

    def _padded(self, other: "LinearizedPoly"):
        """Both coefficient tuples, zero-padded to one length; raises
        FieldMismatch unless other is a polynomial over the same field."""
        if not isinstance(other, LinearizedPoly) or (
                other.spec is not self.spec and other.spec != self.spec):
            raise FieldMismatch("polynomials over different fields")
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return a + (0,) * (n - len(a)), b + (0,) * (n - len(b))

    def __add__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        return LinearizedPoly(self.spec,
                              map(self.spec.add, *self._padded(other)))

    def __sub__(self, other: "LinearizedPoly") -> "LinearizedPoly":
        return LinearizedPoly(self.spec,
                              map(self.spec.sub, *self._padded(other)))

    def __neg__(self) -> "LinearizedPoly":
        spec = self.spec
        return LinearizedPoly(spec, [spec.neg(c) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly)
                and self.spec == other.spec and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "LinearizedPoly(0)"
        q = self.spec.q
        terms = [f"{a}*x^{q}^{i}" for i, a in enumerate(self.coeffs) if a]
        return "LinearizedPoly(" + " + ".join(reversed(terms)) + ")"


class OrdinaryPoly:
    """Sparse ordinary polynomial over a FieldSpec: {degree: serial}."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms: Optional[Dict[int, int]] = None):
        self.spec = spec
        self.terms = {d: c for d, c in (terms or {}).items() if c}

    @property
    def degree(self) -> int:
        return max(self.terms) if self.terms else -1

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, d: int) -> int:
        return self.terms.get(d, 0)

    def __sub__(self, other: "OrdinaryPoly") -> "OrdinaryPoly":
        if other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        spec = self.spec
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = spec.sub(out.get(d, 0), c)
        return OrdinaryPoly(spec, out)

    def __eq__(self, other):
        return (isinstance(other, OrdinaryPoly)
                and self.spec == other.spec and self.terms == other.terms)

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def evaluate_serial(self, x: int) -> int:
        spec = self.spec
        acc = 0
        for d, c in self.terms.items():
            acc = spec.add(acc, spec.mul(c, spec.pow(x, d)))
        return acc

    def count_roots(self) -> int:
        """Number of roots in the coefficient field, by exhaustive scan;
        raises BudgetExceeded above KERNEL_BUDGET field elements."""
        if self.spec.order > KERNEL_BUDGET:
            raise BudgetExceeded(
                f"root scan over {self.spec.order} elements exceeds budget")
        return sum(1 for x in self.spec.elements()
                   if self.evaluate_serial(x) == 0)

    def divmod(self, divisor: "OrdinaryPoly"):
        if divisor.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        dterms = sorted(divisor.terms.items(), reverse=True)
        ddeg, dlead = dterms[0]
        dlead_inv = spec.inv(dlead)
        rem = dict(self.terms)
        quo: Dict[int, int] = {}
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                break
            f = spec.mul(rem[rdeg], dlead_inv)
            shift = rdeg - ddeg
            quo[shift] = f
            for d, c in dterms:
                pos = d + shift
                v = spec.sub(rem.get(pos, 0), spec.mul(f, c))
                if v:
                    rem[pos] = v
                elif pos in rem:
                    del rem[pos]
        return OrdinaryPoly(spec, quo), OrdinaryPoly(spec, rem)

    def divides(self, other: "OrdinaryPoly") -> bool:
        return other.divmod(self)[1].is_zero

    def __repr__(self):
        if self.is_zero:
            return "OrdinaryPoly(0)"
        terms = [f"{c}*x^{d}" for d, c in sorted(self.terms.items(),
                                                 reverse=True)]
        return "OrdinaryPoly(" + " + ".join(terms) + ")"


def expand(poly: LinearizedPoly) -> OrdinaryPoly:
    """Expanded ordinary-polynomial form (degree q^i per coefficient i)."""
    q = poly.spec.q
    return OrdinaryPoly(poly.spec,
                        {q ** i: c for i, c in enumerate(poly.coeffs) if c})


def q_associate_forward(poly: OrdinaryPoly, g: int = 1) -> LinearizedPoly:
    """Stride-g associate: sum a_i x^i  ->  sum a_i x^(q^(g*i))."""
    if g < 1:
        raise StrideViolation("stride must be >= 1")
    coeffs = [0] * (g * poly.degree + 1 if not poly.is_zero else 0)
    for d, c in poly.terms.items():
        coeffs[g * d] = c
    return LinearizedPoly(poly.spec, coeffs)


def q_associate_backward(poly: LinearizedPoly, g: int = 1) -> OrdinaryPoly:
    """Inverse of q_associate_forward; coefficients must sit on the stride."""
    if g < 1:
        raise StrideViolation("stride must be >= 1")
    terms = {}
    for i, c in enumerate(poly.coeffs):
        if c:
            if i % g:
                raise StrideViolation(
                    f"coefficient at index {i} violates stride {g}")
            terms[i // g] = c
    return OrdinaryPoly(poly.spec, terms)


def divides_check(l1: LinearizedPoly, l2: LinearizedPoly) -> bool:
    """True iff l1 divides l2 as ordinary polynomials."""
    if l1.spec != l2.spec:
        raise FieldMismatch("polynomials over different fields")
    if l1.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if l2.is_zero:
        return True
    return expand(l1).divides(expand(l2))


def field_vanishing_poly(spec: FieldSpec) -> LinearizedPoly:
    """x^(q^e) - x, the subspace polynomial of the whole field."""
    coeffs = [0] * (spec.e + 1)
    coeffs[0] = spec.neg(1)
    coeffs[spec.e] = 1
    return LinearizedPoly(spec, coeffs)


def kernel(poly: LinearizedPoly, ambient: FieldSpec):
    """Root subspace {x in GF(q^n) : P(x) = 0}.  P is GF(q)-linear, so
    this is the null space of its images of the basis serials q^i, i < n,
    embedded first when P lives over an extension of the ambient field."""
    from ranklab.subspace import Subspace

    images = poly.spec.frobenius_sums(poly.coeffs,
                                      embedded_basis(ambient, poly.spec))
    return Subspace(ambient, gfmatrix.nullspace(images, ambient.q))
