"""GF(q)-subspaces of GF(q^n): canonical bases, subspace polynomials,
cyclic shifts and orbits, Grassmannian enumeration, subspace distance.

A subspace is stored as the RREF of its basis over GF(q); rows are the
polynomial-basis coordinate vectors of basis elements, so the packed value
of a row (sum row[i] * q^i) is exactly the serial of the corresponding
field element.  Equality of subspaces is equality of RREF matrices.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence, Tuple

from ranklab import gfmatrix
from ranklab.errors import AmbientMismatch, BudgetExceeded, ZeroShift, require
from ranklab.field import FieldElement, FieldSpec
from ranklab.linpoly import LinearizedPoly

SUBSPACE_POLY_BUDGET = 1 << 16
ORBIT_BUDGET = 1 << 20
GRASSMANNIAN_BUDGET = 10 ** 6


class Subspace:
    """An r-dimensional GF(q)-subspace of GF(q^n) in canonical RREF form."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: FieldSpec, rows: Sequence[Sequence[int]]):
        self.ambient = ambient
        self.rows = gfmatrix.rref(rows, ambient.q)

    @classmethod
    def from_elements(cls, ambient: FieldSpec, elements: Iterable) -> "Subspace":
        rows = []
        for el in elements:
            s = el.serial if isinstance(el, FieldElement) else int(el)
            rows.append(ambient.digits(s))
        return cls(ambient, rows)

    @classmethod
    def zero(cls, ambient: FieldSpec) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: FieldSpec) -> "Subspace":
        n = ambient.e
        return cls(ambient, [[1 if j == i else 0 for j in range(n)]
                             for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_serials(self) -> Tuple[int, ...]:
        """Basis elements as field serials (packed RREF rows)."""
        return tuple(self.ambient.from_digits(r) for r in self.rows)

    def elements(self) -> List[int]:
        """All q^dim element serials, in ascending-coordinate order."""
        spec = self.ambient
        serials = self.basis_serials()
        out = []
        for combo in itertools.product(range(spec.q), repeat=self.dim):
            s = 0
            for c, b in zip(combo, serials):
                if c:
                    s = spec.add(s, spec.mul(c, b))
            out.append(s)
        return out

    def contains(self, element) -> bool:
        s = element.serial if isinstance(element, FieldElement) else int(element)
        serials = self.basis_serials() + (s,)
        return len(gfmatrix.basis(serials, self.ambient.q)) == self.dim

    def sort_key(self) -> Tuple[int, ...]:
        return self.basis_serials()

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return (f"Subspace(dim={self.dim} of GF({self.ambient.q}^"
                f"{self.ambient.e}), basis={self.basis_serials()})")


# ----------------------------------------------------------------------
# Subspace polynomials
# ----------------------------------------------------------------------

def subspace_polynomial(v: Subspace,
                        budget: int = SUBSPACE_POLY_BUDGET) -> LinearizedPoly:
    """Monic linearized polynomial whose root set is exactly v.

    Built by extending one basis vector at a time:
    P' = P(x)^q - P(b)^(q-1) * P(x).  The zero subspace gives P(x) = x.
    """
    spec = v.ambient
    q = spec.q
    if q ** v.dim > budget:
        raise BudgetExceeded(f"q^r = {q ** v.dim} exceeds budget {budget}")
    coeffs = [1]  # P(x) = x
    for b in v.basis_serials():
        pb = 0
        y = b
        for a in coeffs:
            if a:
                pb = spec.add(pb, spec.mul(a, y))
            y = spec.frobenius(y, 1)
        factor = spec.pow(pb, q - 1)
        new = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            new[i + 1] = spec.frobenius(a, 1)
        for i, a in enumerate(coeffs):
            new[i] = spec.sub(new[i], spec.mul(factor, a))
        coeffs = new
    return LinearizedPoly(spec, coeffs)


def subspace_polynomial_product(v: Subspace) -> LinearizedPoly:
    """Same polynomial via the direct product over all elements.

    Independent of the incremental recursion; quadratic in q^r, so only
    for small subspaces (it is the test oracle for subspace_polynomial).
    """
    spec = v.ambient
    dense = [1]  # ordinary-polynomial coefficients, ascending
    for el in v.elements():
        neg = spec.neg(el)
        new = [0] * (len(dense) + 1)
        for i, c in enumerate(dense):
            if c:
                new[i + 1] = spec.add(new[i + 1], c)
                new[i] = spec.add(new[i], spec.mul(c, neg))
        dense = new
    q = spec.q
    coeffs = []
    for d, c in enumerate(dense):
        if c:
            i = 0
            dd = d
            while dd > 1:
                if dd % q:
                    raise AssertionError("product is not linearized")
                dd //= q
                i += 1
            while len(coeffs) <= i:
                coeffs.append(0)
            coeffs[i] = c
    return LinearizedPoly(spec, coeffs)


# ----------------------------------------------------------------------
# Cyclic shifts and orbits
# ----------------------------------------------------------------------

def cyclic_shift(v: Subspace, alpha) -> Subspace:
    """The subspace alpha * v = {alpha x : x in v}."""
    spec = v.ambient
    a = alpha.serial if isinstance(alpha, FieldElement) else int(alpha)
    if a == 0:
        raise ZeroShift("cyclic shift by zero")
    return Subspace.from_elements(
        spec, (spec.mul(a, b) for b in v.basis_serials()))


def orbit(v: Subspace, budget: int = ORBIT_BUDGET) -> List[Subspace]:
    """All distinct cyclic shifts of v, ordered by serialized basis.

    Shifts by ascending powers of the generator repeat with period equal
    to the orbit size, so the scan stops at the first return to v.
    """
    spec = v.ambient
    if spec.order > budget:
        raise BudgetExceeded(f"orbit scan over GF({spec.q}^{spec.e}) "
                             f"exceeds budget {budget}")
    gen = spec.generator_serial
    seen = {}
    current = v
    for _ in range(spec.order - 1):
        if current.rows in seen:
            break
        seen[current.rows] = current
        current = cyclic_shift(current, gen)
    members = sorted(seen.values(), key=Subspace.sort_key)
    size = len(members)
    n = spec.e
    if v.dim in (0, n):
        require(size == 1, "trivial subspace has a nontrivial orbit")
    else:
        require(any(n % t == 0 and size * (spec.q ** t - 1) == spec.order - 1
                    for t in range(1, n + 1)),
                "orbit size has unexpected form")
    return members


# ----------------------------------------------------------------------
# Grassmannian
# ----------------------------------------------------------------------

def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-subspaces of an n-space over GF(q), exactly."""
    if r < 0 or r > n:
        return 0
    acc = 1
    for i in range(r):
        acc *= q ** (n - i) - 1
        num, rem = divmod(acc, q ** (i + 1) - 1)
        require(rem == 0, "Gaussian binomial division left a remainder")
        acc = num
    return acc


def rref_patterns(n: int, r: int, num_scalars: int):
    """All r x n RREF matrices with entries in range(num_scalars).

    Pivot-column patterns in lexicographic order; free entries run through
    the scalar range in odometer order.  Entry values are opaque scalars,
    so this enumerates subspaces over any coefficient field of that size.
    """
    if r == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), r):
        free = [(i, j) for i in range(r) for j in range(n)
                if j > pivots[i] and j not in pivots]
        base = [[0] * n for _ in range(r)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for values in itertools.product(range(num_scalars), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            yield tuple(tuple(row) for row in rows)


def enumerate_grassmannian(ambient: FieldSpec, r: int,
                           budget: int = GRASSMANNIAN_BUDGET):
    """Every r-subspace of GF(q^n) exactly once, in canonical order."""
    n = ambient.e
    count = gaussian_binomial(n, r, ambient.q)
    if count > budget:
        raise BudgetExceeded(f"Grassmannian has {count} subspaces, "
                             f"budget {budget}")
    for rows in rref_patterns(n, r, ambient.q):
        yield Subspace(ambient, rows)


# ----------------------------------------------------------------------
# Subspace metric
# ----------------------------------------------------------------------

def intersection(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces in different ambient fields")
    rows = gfmatrix.intersection(u.rows, v.rows, u.ambient.q)
    return Subspace(u.ambient, rows)


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim U + dim V - 2 dim(U intersect V)."""
    return u.dim + v.dim - 2 * intersection(u, v).dim
