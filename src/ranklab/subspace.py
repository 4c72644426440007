"""GF(q)-subspaces of GF(q^n): canonical bases, subspace polynomials,
cyclic shifts and orbits, Grassmannian enumeration, subspace distance.

A subspace is stored as its canonical basis, gfmatrix.rref() of any
spanning set of field serials: a serial is its GF(q)-coordinate vector
packed base q, so the basis is serials too.  Equality, hashing and the
order of an orbit read that tuple of serials; the pivot convention
behind it lives in gfmatrix alone.  rref_walk is the one RREF
enumerator: the Grassmannian, the family and the ball's supports walk it,
and rref_rows lists the rows a node can take next, for the walk's
children and for the values of the family's leaves.
"""

from __future__ import annotations

import itertools
import operator
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

def extend_polynomial(spec: FieldSpec, coeffs: List[int], b: int,
                      step: int = 1) -> List[int]:
    """Coefficients of P(x)^Q - P(b)^(Q-1) * P(x), Q = q^step: the
    subspace polynomial of U + GF(Q)b from that of U, a GF(Q)-subspace
    whose polynomial is Q-linearized, coefficient i at x^(Q^i).  Both
    sides are monic of degree Q^(t+1) and the right one vanishes on every
    u + cb, c in GF(Q).  Raises InvariantViolation when P(b) = 0, that is
    when b lies in U."""
    value = spec.frobenius_sum(coeffs, b, step)
    require(value != 0, "extending vector lies in the subspace")
    factor = spec.pow(value, spec.q ** step - 1)
    new = [0] + [spec.frobenius(a, step) for a in coeffs]
    for i, a in enumerate(coeffs):
        new[i] = spec.sub(new[i], spec.mul(factor, a))
    return new


def subspace_polynomial(v: Subspace) -> LinearizedPoly:
    """Monic linearized polynomial with root set exactly v: extend_polynomial
    folded over v.basis from P(x) = x (x for the zero subspace); O(r^2)
    field operations at any field size."""
    coeffs = [1]  # P(x) = x
    for b in v.basis:
        coeffs = extend_polynomial(v.ambient, coeffs, b)
    return LinearizedPoly(v.ambient, coeffs)


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


def rref_rows(columns: List[list], pivots, start: int, stop: int,
              add=operator.add) -> List[tuple]:
    """The rows a matrix with the given pivots can take next: (p, values)
    for each pivot p in range(start, stop).  A row has entry 1 at p, zeros
    below p and at the pivots, and any entries at the other columns right
    of p, listed rightmost fastest.  Its value folds add over
    columns[j][c], the value of entry c at column j: the row itself for
    columns[j][c] = c * base^j and integer addition, and its image under a
    linear map when columns[j][c] is the image of entry c at column j
    alone.  Each listed row costs one add."""
    out = []
    for p in range(start, stop):
        values = [columns[p][1]]
        for j in range(p + 1, len(columns)):
            if j not in pivots:
                values = [add(v, c) for v in values for c in columns[j]]
        out.append((p, values))
    return out


def rref_walk(n: int, depths: range, base: int):
    """Every t x n RREF matrix with t in depths and entries in range(base),
    depth first, as one list of rows updated in place: read it, keep none.

    Row entry j is digit j base `base`, so for base q a row is a GF(q^n)
    serial whose pivot is its lowest nonzero digit.  The walk picks the
    last row first, then rows with ever smaller pivots: a row depends only
    on its own pivot and those of the rows below it.  It yields, in
    pre-order, every matrix on the path to one with t in depths, once and
    after rows[:-1], so a consumer can build state[t] from state[t - 1]
    and rows[-1].  A row with pivot p leaves room for p more rows, so a
    child at depth t + 1 takes only pivots p >= depths.start - t - 1; its
    children are the rref_rows of its pivots, in that order.
    """
    lo, hi = max(depths.start, 0), min(depths.stop, n + 1)
    if lo >= hi:
        return
    columns = [[c * base ** j for c in range(base)] for j in range(n)]
    rows, pivots, todo = [], [n], []    # pivots[t + 1]: pivot of rows[t]
    while True:
        yield rows
        t = len(rows)
        if t + 1 < hi:
            # the children, pushed last first
            for p, kids in reversed(rref_rows(
                    columns, pivots, max(lo - t - 1, 0), pivots[-1])):
                todo += [(t, p, b) for b in reversed(kids)]
        if not todo:
            return
        t, p, b = todo.pop()
        rows[t:], pivots[t + 1:] = [b], [p]


def enumerate_grassmannian(ambient: FieldSpec, r: int):
    """Every r-subspace of GF(q^n) exactly once, in the order of
    rref_walk(n, range(r, r + 1), q), none for r outside [0, n]; raises
    BudgetExceeded above GRASSMANNIAN_BUDGET subspaces."""
    n = ambient.e
    count = gaussian_binomial(n, r, ambient.q)
    if count > GRASSMANNIAN_BUDGET:
        raise BudgetExceeded(f"Grassmannian has {count} subspaces, "
                             f"budget {GRASSMANNIAN_BUDGET}")
    for rows in rref_walk(n, range(r, r + 1), ambient.q):
        if len(rows) == r:
            yield Subspace(ambient, rows)


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
