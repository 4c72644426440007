"""GF(q)-subspaces of GF(q^n): canonical bases, subspace polynomials,
cyclic shifts and orbits, Grassmannian enumeration, subspace distance.

A subspace is stored as its canonical basis, gfmatrix.rref() of any
spanning set of field serials: a serial is its GF(q)-coordinate vector
packed base q, so the basis is serials too.  Equality, hashing and the
order of an orbit or a family all read that tuple of serials; the pivot
convention behind it lives in gfmatrix alone.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List

from ranklab import gfmatrix
from ranklab.errors import AmbientMismatch, BudgetExceeded, ZeroShift, require
from ranklab.field import FieldSpec
from ranklab.linpoly import LinearizedPoly

ORBIT_BUDGET = 1 << 20
GRASSMANNIAN_BUDGET = 10 ** 6


class Subspace:
    """An r-dimensional GF(q)-subspace of GF(q^n), spanned by the given
    serials and kept as its canonical basis of serials."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: FieldSpec, elements: Iterable[int]):
        self.ambient = ambient
        self.basis = gfmatrix.rref(list(elements), ambient.q)

    @classmethod
    def zero(cls, ambient: FieldSpec) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: FieldSpec) -> "Subspace":
        return cls(ambient, [ambient.q ** i for i in range(ambient.e)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> List[int]:
        """All q^dim element serials, in ascending-coordinate order."""
        spec = self.ambient
        out = []
        for combo in itertools.product(range(spec.q), repeat=self.dim):
            s = 0
            for c, b in zip(combo, self.basis):
                if c:
                    s = spec.add(s, spec.mul(c, b))
            out.append(s)
        return out

    def contains(self, element: int) -> bool:
        return len(gfmatrix.basis(self.basis + (element,), self.ambient.q)) \
            == self.dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return (f"Subspace(dim={self.dim} of GF({self.ambient.q}^"
                f"{self.ambient.e}), basis={self.basis})")


# ----------------------------------------------------------------------
# Subspace polynomials
# ----------------------------------------------------------------------

def subspace_polynomial(v: Subspace) -> LinearizedPoly:
    """Monic linearized polynomial whose root set is exactly v.

    Built by extending one basis vector at a time:
    P' = P(x)^q - P(b)^(q-1) * P(x).  The zero subspace gives P(x) = x.
    It costs O(r^2) field operations for r = dim v, at any field size.
    """
    spec = v.ambient
    q = spec.q
    coeffs = [1]  # P(x) = x
    for b in v.basis:
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
                require(dd % q == 0, "product is not linearized")
                dd //= q
                i += 1
            while len(coeffs) <= i:
                coeffs.append(0)
            coeffs[i] = c
    return LinearizedPoly(spec, coeffs)


# ----------------------------------------------------------------------
# Cyclic shifts and orbits
# ----------------------------------------------------------------------

def cyclic_shift(v: Subspace, alpha: int) -> Subspace:
    """The subspace alpha * v = {alpha x : x in v}, alpha a nonzero serial."""
    spec = v.ambient
    if alpha == 0:
        raise ZeroShift("cyclic shift by zero")
    return Subspace(spec, (spec.mul(alpha, b) for b in v.basis))


def orbit(v: Subspace) -> List[Subspace]:
    """All distinct cyclic shifts of v, ordered by serialized basis.

    Shifts by ascending powers of the generator repeat with period equal
    to the orbit size, so the scan stops at the first return to v.  Raises
    BudgetExceeded above ORBIT_BUDGET field elements.
    """
    spec = v.ambient
    if spec.order > ORBIT_BUDGET:
        raise BudgetExceeded(f"orbit scan over GF({spec.q}^{spec.e}) "
                             f"exceeds budget {ORBIT_BUDGET}")
    gen = spec.generator_serial
    seen = {}
    current = v
    for _ in range(spec.order - 1):
        if current.basis in seen:
            break
        seen[current.basis] = current
        current = cyclic_shift(current, gen)
    members = [seen[b] for b in sorted(seen)]
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


def enumerate_grassmannian(ambient: FieldSpec, r: int):
    """Every r-subspace of GF(q^n) exactly once, in canonical order; raises
    BudgetExceeded above GRASSMANNIAN_BUDGET subspaces."""
    n = ambient.e
    count = gaussian_binomial(n, r, ambient.q)
    if count > GRASSMANNIAN_BUDGET:
        raise BudgetExceeded(f"Grassmannian has {count} subspaces, "
                             f"budget {GRASSMANNIAN_BUDGET}")
    for rows in rref_patterns(n, r, ambient.q):
        yield Subspace(ambient, [ambient.from_digits(row) for row in rows])


# ----------------------------------------------------------------------
# Subspace metric
# ----------------------------------------------------------------------

def intersection(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces in different ambient fields")
    return Subspace(u.ambient,
                    gfmatrix.intersection(u.basis, v.basis, u.ambient.q))


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim U + dim V - 2 dim(U intersect V)."""
    return u.dim + v.dim - 2 * intersection(u, v).dim
