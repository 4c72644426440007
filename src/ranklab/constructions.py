"""The two families of subspace polynomials behind the adversarial instances.

The subfield-linear family and its pigeonhole subfamily come from one walk:
_family_leaves checks the parameters and returns GF(q^n) with a generator
over the parents of the walk over GF(Q), Q = q^g: the matrices one row
short of a leaf, each with its q^g-linearized polynomial P, grown from its
parent's by one q^g-step.  P is GF(Q)-linear, so a parent evaluates it once
per basis point gamma^j and lists its leaves' values P(h) with
subspace.rref_rows, one field addition per leaf, and yields the factors
P(h)^(Q-1) from which every leaf's polynomial P^Q - P(h)^(Q-1) P is read
off.  subfield_linear_family extends every leaf to its member, the
subspace polynomial of a GF(Q)-linear r-subspace of GF(q^n), nonzero only
at indices divisible by g.  pigeonhole_subfamily keys every leaf by the
topmost coefficients of its member, one power (in the walk) and ell
multiply-subtracts per leaf, and extends only the largest bucket's leaves:
5,797 keys from 357 parents for 6 members on Gab[10,5]/GF(2^10), 4,745
from 73 for 65 on Gab[12,2]/GF(2^12).  orbit_poly_family builds the fully
explicit family indexed by orbit representatives of GF(q^(gs)) and checks
that every member's root space is its cyclic shift of the base kernel;
shift_family transplants any family into an extension field along a
cyclic shift.  is_pivot_family is the expanded-polynomial view used to
relate these families to ordinary (Reed-Solomon style) evaluation codes.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ranklab.errors import (
    BudgetExceeded,
    DivisibilityViolation,
    FieldMismatch,
    NotASubfield,
    ParamMismatch,
    ZeroShift,
    require,
)
from ranklab.field import FieldSpec, embed_serial, make_field
from ranklab.linpoly import (
    LinearizedPoly,
    OrdinaryPoly,
    kernel,
)
from ranklab.subspace import (
    extend_polynomial,
    gaussian_binomial,
    rref_rows,
    rref_walk,
)

FAMILY_BUDGET = 10 ** 5


class FamilyParams(NamedTuple):
    q: int
    n: int
    r: int
    g: int
    s: int = 1
    ell: int = 0


class PolyFamily:
    """A set of monic subspace polynomials sharing their top coefficients.

    kind is one of subfield, pigeonhole, orbit and orbit_shifted; spec is
    the coefficient field of the members.  mutual_top lists the agreed
    topmost coefficients from the leading one downward: mutual_top[i] is
    the coefficient at index r - i.
    """

    __slots__ = ("params", "kind", "spec", "members", "mutual_top",
                 "degenerate")

    def __init__(self, params: FamilyParams, kind: str, spec: FieldSpec,
                 members: Tuple[LinearizedPoly, ...],
                 mutual_top: Tuple[int, ...], degenerate: bool = False):
        self.params = params
        self.kind = kind
        self.spec = spec
        self.members = members
        self.mutual_top = mutual_top
        self.degenerate = degenerate
        r, top = self.params.r, self.mutual_top
        # a member's coefficients from index r + 1 - len(head) up, which
        # mutual_top lists downward; below index 0 they are all zero
        head, below = tuple(reversed(top[:r + 1])), any(top[r + 1:])
        for m in self.members:
            c = m.coeffs
            if len(c) != r + 1 or not c or c[-1] != 1:
                raise ParamMismatch("family member is not monic of degree r")
            if c[r + 1 - len(head):] != head or below:
                raise ParamMismatch(
                    "member disagrees with the mutual top coefficients")
        if len(set(self.members)) != len(self.members):
            raise ParamMismatch("family members are not pairwise distinct")

    def _key(self):
        return (self.params, self.kind, self.spec, self.members,
                self.mutual_top, self.degenerate)

    def __eq__(self, other):
        if other.__class__ is not PolyFamily:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return (f"PolyFamily(params={self.params!r}, kind={self.kind!r}, "
                f"spec={self.spec!r}, members={self.members!r}, "
                f"mutual_top={self.mutual_top!r}, "
                f"degenerate={self.degenerate!r})")


# ----------------------------------------------------------------------
# Subfield-linear family
# ----------------------------------------------------------------------

def _family_leaves(q: int, n: int, r: int, g: int):
    """GF(q^n) and the leaves of the family walk, one parent at a time:
    (parent, factors) per parent, with parent the q^g-linearized
    polynomial P of r/g - 1 rows and factors the P(h)^(Q-1), Q = q^g, of
    its leaves in walk order, h the GF(Q)-line of the leaf's last row;
    one leaf per GF(Q)-linear r-subspace of GF(q^n), whose polynomial is
    P^Q - P(h)^(Q-1) P (extend_polynomial, one q^g-step).

    The parameters and FAMILY_BUDGET are checked before any field is
    built (raising DivisibilityViolation or BudgetExceeded).  The leaves
    are the (r/g) x (n/g) RREF matrices over GF(Q) in the order of
    rref_walk; their parents are those with r/g - 1 rows and every
    pivot >= 1, which is rref_walk over n/g - 1 columns with each row
    shifted up one digit.  Each inner node extends its parent's
    polynomial by its new row's line (canonical subfield
    identification), one q^g-step of extend_polynomial.  P is
    GF(Q)-linear, so a parent evaluates P once at each gamma^j and lists
    its leaves' values P(h) with rref_rows over the Q multiples of those,
    one field addition per leaf; a zero value (a leaf in its parent's
    span) raises, and each other value is raised to the power Q - 1.  On
    exhaustion the walk checks that there were [n/g, r/g]_Q leaves.
    """
    if g < 2 or not (0 < r < n):
        raise DivisibilityViolation(f"need g >= 2 and 0 < r < n, got "
                                    f"g={g}, r={r}, n={n}")
    if n % g or r % g:
        raise DivisibilityViolation(f"g={g} must divide gcd(n, r)=({n},{r})")
    size = gaussian_binomial(n // g, r // g, q ** g)
    if size > FAMILY_BUDGET:
        raise BudgetExceeded(f"family size {size} exceeds {FAMILY_BUDGET}")

    ambient = make_field(q, n)
    sub = make_field(q, g)
    # image of every GF(q^g) scalar inside GF(q^n)
    scalar_image = [embed_serial(s, sub, ambient) for s in sub.elements()]
    # GF(q^g)-basis of GF(q^n): powers of the ambient generator
    gamma_pows = [ambient.pow(ambient.generator_serial, j)
                  for j in range(n // g)]

    def walk():
        width, depth, big_q, leaves = n // g, r // g, q ** g, 0
        polys = [[1]]     # polys[t]: the q^g-linearized polynomial of rows[:t]
        pivots = [width]  # pivots[t]: the pivot of rows[t - 1], shifted
        for rows in rref_walk(width - 1, range(depth - 1, depth), big_q):
            t = len(rows)
            if t:
                # the line of rows[-1] shifted up one digit, and its pivot
                h, row, pivot = 0, rows[-1], None
                for j, pw in enumerate(gamma_pows[1:], 1):
                    row, w = divmod(row, big_q)
                    if w and pivot is None:
                        pivot = j
                    h = ambient.add(h, ambient.mul(scalar_image[w], pw))
                polys[t:] = [extend_polynomial(ambient, polys[t - 1], h, g)]
                pivots[t:] = [pivot]
            if t == depth - 1:
                parent, taken = polys[t], pivots[1:t + 1]
                columns = [None if j in taken else list(map(
                    ambient.mul, scalar_image,
                    repeat(ambient.frobenius_sum(parent, pw, g))))
                    for j, pw in enumerate(gamma_pows)]
                values = [v for _, vs in rref_rows(columns, taken, 0,
                                                   pivots[t], ambient.add)
                          for v in vs]
                require(0 not in values,
                        "extending vector lies in the subspace")
                leaves += len(values)
                yield parent, list(map(ambient.pow, values,
                                       repeat(big_q - 1)))
        require(leaves == size, "family size is not [n/g, r/g]_(q^g)")

    return ambient, walk()


def _extend(ambient: FieldSpec, parent: List[int], factors: List[int],
            g: int, indices: Sequence[int]) -> List[tuple]:
    """Per leaf factor P(h)^(Q-1), Q = q^g, the coefficients at the given
    Q-linearized indices of P^Q - P(h)^(Q-1) P: parent[j-1]^Q - factor *
    parent[j] at index j, parent[i] zero off the parent."""
    padded, mul, sub = [0, *parent, 0], ambient.mul, ambient.sub
    columns = [[sub(f, mul(factor, a)) for factor in factors]
               for f, a in ((ambient.frobenius(padded[j], g), padded[j + 1])
                            for j in indices)]
    # one tuple per leaf; zip of no columns would drop the leaves
    return list(zip(*columns)) if columns else [()] * len(factors)


def _members(ambient: FieldSpec, parent: List[int], factors: List[int],
             r: int, g: int) -> List[LinearizedPoly]:
    """The leaves' subspace polynomials, spread onto the indices
    divisible by g."""
    members = []
    for coeffs in _extend(ambient, parent, factors, g, range(r // g + 1)):
        spread = [0] * (r + 1)
        spread[::g] = coeffs
        members.append(LinearizedPoly(ambient, spread))
    return members


def subfield_linear_family(q: int, n: int, r: int, g: int) -> PolyFamily:
    """Subspace polynomials of all r-subspaces that are GF(q^g)-linear.

    Every leaf of _family_leaves becomes a member, so members come in
    walk order; they have nonzero coefficients only at indices divisible
    by g.  Raises BudgetExceeded above FAMILY_BUDGET members.
    """
    ambient, parents = _family_leaves(q, n, r, g)
    members = [m for parent, factors in parents
               for m in _members(ambient, parent, factors, r, g)]
    params = FamilyParams(q=q, n=n, r=r, g=g, s=1, ell=(n - r) // g - 1)
    mutual = (1,) + (0,) * (g - 1)
    return PolyFamily(params=params, kind="subfield", spec=ambient,
                      members=tuple(members), mutual_top=mutual)


def pigeonhole_subfamily(q: int, n: int, r: int, g: int,
                         ell: int) -> PolyFamily:
    """Largest bucket of the subfield-linear family agreeing on its
    topmost g(ell+1) coefficients (leading coefficient included), with
    r = n - g(ell+1).

    Members are keyed on the ell coefficients at indices r-g, ...,
    r-g*ell (zero below index 0); all other positions in the top window
    are forced (1 at the top, 0 off the g-stride).  A leaf's key is read
    off its parent and its value P(h) without building the member: with
    Q = q^g, the new polynomial's Q-linearized coefficient j is
    parent[j-1]^Q - P(h)^(Q-1) * parent[j], one power and ell
    multiply-subtracts per leaf, the Frobenius terms once per parent.
    Only the winning bucket's leaves are extended to members, in walk
    order.  The bucket has size at least |family| / q^(n*ell); ties break
    toward the lexicographically smallest key.  When g(ell+1) > r the
    agreement window covers every coefficient, the buckets are
    singletons, and the result is flagged degenerate.
    """
    ambient, parents = _family_leaves(q, n, r, g)
    if r != n - g * (ell + 1):
        raise ParamMismatch(f"ell={ell} inconsistent with r = n - g(ell+1)")
    depth = r // g
    # the key's Q-linearized indices depth-1, ..., depth-ell; those below
    # index 0 are zero in every member and left out
    key_indices = range(depth - 1, max(depth - ell, 0) - 1, -1)
    counts, kept = Counter(), []
    for parent, factors in parents:
        keys = _extend(ambient, parent, factors, g, key_indices)
        counts.update(keys)
        kept.append((parent, factors, keys))
    best = min(counts, key=lambda k: (-counts[k], k))
    chosen = []
    for parent, factors, keys in kept:
        won = [f for f, k in zip(factors, keys) if k == best]
        if won:
            chosen += _members(ambient, parent, won, r, g)
    require(len(chosen) * (q ** (n * ell)) >= sum(counts.values()),
            "largest bucket below the pigeonhole bound")

    top_len = g * (ell + 1)
    sample = chosen[0]
    mutual = tuple(sample.coeff(r - i) for i in range(min(top_len, r + 1)))
    params = FamilyParams(q=q, n=n, r=r, g=g, s=1, ell=ell)
    return PolyFamily(params=params, kind="pigeonhole", spec=ambient,
                      members=tuple(chosen), mutual_top=mutual,
                      degenerate=top_len > r)


# ----------------------------------------------------------------------
# Explicit orbit family
# ----------------------------------------------------------------------

def orbit_base_poly(q: int, g: int, s: int, r: int) -> LinearizedPoly:
    """The all-ones stride-gs subspace polynomial of degree r.

    With n = r + gs, this is sum of x^(q^(i*g*s)) for i = 0 .. n/(gs) - 1.
    Its kernel is checked to be an r-subspace of GF(q^n): then it is the
    product of its q^r roots there, so it divides x^(q^n) - x.
    """
    gs = g * s
    if r % gs:
        raise DivisibilityViolation(f"gs={gs} must divide r={r}")
    n = r + gs
    ambient = make_field(q, n)
    coeffs = [0] * (r + 1)
    for i in range(n // gs):
        coeffs[i * gs] = 1
    poly = LinearizedPoly(ambient, coeffs)
    require(kernel(poly, ambient).dim == r, "base kernel is not r-dim")
    return poly


def orbit_representatives(ambient: FieldSpec, gs: int) -> List[int]:
    """gamma^0 .. gamma^(N-1) with N = (q^n-1)/(q^gs-1): one nonzero element
    from each cyclic shift of the subfield GF(q^gs)."""
    n = ambient.e
    if n % gs:
        raise DivisibilityViolation(f"gs={gs} must divide n={n}")
    count = (ambient.order - 1) // (ambient.q ** gs - 1)
    # gamma^(i-j) lies in GF(q^gs) iff count divides i-j, impossible for
    # distinct exponents below count.
    return [ambient.pow(ambient.generator_serial, i) for i in range(count)]


def orbit_poly_family(q: int, g: int, s: int, r: int) -> PolyFamily:
    """Explicit family: subspace polynomials of every cyclic shift of the
    base kernel, with coefficient beta^([r]-[i*gs]) at index i*gs.

    The member for beta = 1 is orbit_base_poly.  Every member's kernel is
    checked to be exactly its cyclic shift of the base kernel, at every
    field size: the base kernel is one GF(q) null space of n images, and
    each member is evaluated at the r shifted basis vectors.
    """
    gs = g * s
    if g < 2:
        raise DivisibilityViolation("g >= 2 required")
    if r % gs:
        raise DivisibilityViolation(f"gs={gs} must divide r={r}")
    n = r + gs
    size = (q ** n - 1) // (q ** gs - 1)
    if size > FAMILY_BUDGET:
        raise BudgetExceeded(f"family size {size} exceeds {FAMILY_BUDGET}")
    ambient = make_field(q, n)
    reps = orbit_representatives(ambient, gs)
    qr = q ** r
    members = []
    for beta in reps:
        coeffs = [0] * (r + 1)
        for i in range(n // gs):
            coeffs[i * gs] = ambient.pow(beta, qr - q ** (i * gs))
        members.append(LinearizedPoly(ambient, coeffs))
    require(len(set(members)) == len(members), "orbit members repeat")

    params = FamilyParams(q=q, n=n, r=r, g=g, s=s, ell=s - 1)
    mutual = (1,) + (0,) * (gs - 1)
    fam = PolyFamily(params=params, kind="orbit", spec=ambient,
                     members=tuple(members), mutual_top=mutual)

    # a member is monic of q-degree r (PolyFamily checks it), so its root
    # space has dimension at most r: it is beta K exactly when the member
    # vanishes on beta times each of the r basis vectors of K
    base_kernel = kernel(members[0], ambient)
    require(base_kernel.dim == r, "base kernel is not r-dim")
    for beta, member in zip(reps, members):
        require(not any(ambient.frobenius_sums(
                    member.coeffs, [ambient.mul(beta, b)
                                    for b in base_kernel.basis])),
                "member kernel is not the expected cyclic shift")
    return fam


# ----------------------------------------------------------------------
# Shifting a family into an extension field
# ----------------------------------------------------------------------

def shift_family(family: PolyFamily, beta: int,
                 target: FieldSpec) -> PolyFamily:
    """Embed the family into GF(q^m) and shift every kernel by beta, a
    nonzero serial of GF(q^m).

    Coefficient j of each member becomes beta^([r]-[j]) times the embedded
    coefficient j, which is the subspace polynomial of beta times the
    embedded kernel.  Top-coefficient agreement is preserved.
    """
    src = family.spec
    if beta == 0:
        raise ZeroShift("cyclic shift by zero")
    if src.q != target.q or target.e % src.e:
        raise NotASubfield(f"GF({src.q}^{src.e}) does not embed in "
                           f"GF({target.q}^{target.e})")

    r = family.params.r
    q = src.q
    factors = [target.pow(beta, q ** r - q ** j) for j in range(r + 1)]

    def embed(coeffs):
        if target == src:
            return coeffs
        return [embed_serial(c, src, target) for c in coeffs]

    members = []
    for m in family.members:
        coeffs = [target.mul(f, c) for f, c in zip(factors, embed(m.coeffs))]
        members.append(LinearizedPoly(target, coeffs))
    mutual = tuple(target.mul(factors[r - i], c)
                   for i, c in enumerate(embed(family.mutual_top)))

    trivial = beta == 1 and target == src
    kind = family.kind
    if kind == "orbit" and not trivial:
        kind = "orbit_shifted"
    return PolyFamily(params=family.params, kind=kind, spec=target,
                      members=tuple(members), mutual_top=mutual,
                      degenerate=family.degenerate)


# ----------------------------------------------------------------------
# Expanded-polynomial (pivot family) view
# ----------------------------------------------------------------------

def is_pivot_family(polys: Sequence[OrdinaryPoly], min_roots: int,
                    diff_degree: int) -> Tuple[bool, Optional[OrdinaryPoly]]:
    """Check: every polynomial has >= min_roots roots in its field, and all
    lie within degree <= diff_degree of one pivot polynomial.  Roots are
    counted by count_roots, so fields above KERNEL_BUDGET raise.

    The pivot is built from the mutual coefficients above diff_degree; if
    the members disagree anywhere up there, no pivot exists.
    Returns (verdict, pivot or None).
    """
    if not polys:
        return True, None
    spec = polys[0].spec
    if any(p.spec != spec for p in polys):
        raise FieldMismatch("polynomials over different fields")
    for p in polys:
        if p.count_roots() < min_roots:
            return False, None
    high_degrees = sorted({d for p in polys for d in p.terms
                           if d > diff_degree})
    mutual = {}
    for d in high_degrees:
        vals = {p.coeff(d) for p in polys}
        if len(vals) != 1:
            return False, None
        mutual[d] = vals.pop()
    pivot = OrdinaryPoly(spec, mutual)
    require(all((pivot - p).degree <= diff_degree for p in polys),
            "a member is too far from the pivot")
    return True, pivot
