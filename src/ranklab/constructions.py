"""The two families of subspace polynomials behind the adversarial instances.

The subfield-linear family and its pigeonhole subfamily come from one walk:
_family_leaves checks the parameters and returns GF(q^n) with a generator
over subspace.rref_walk over GF(q^g) that grows each inner node's
q^g-linearized polynomial from its parent's by one q^g-step and yields
(parent, h) at each leaf, h the GF(q^g)-line of the last row, in walk
order.  subfield_linear_family extends every leaf to its member, the
subspace polynomial of a GF(q^g)-linear r-subspace of GF(q^n), nonzero only
at indices divisible by g.  pigeonhole_subfamily keys every leaf by the
topmost coefficients of its member, read off the parent with one evaluation
and one power, and extends only the largest bucket's leaves: the counting
route costs one key per leaf and a full polynomial only per bucket member
(5,797 keys for 6 members on Gab[10,5]/GF(2^10), 4,745 for 65 on
Gab[12,2]/GF(2^12)).  orbit_poly_family builds the fully explicit family
indexed by orbit representatives of GF(q^(gs)) and checks that every
member's root space is its cyclic shift of the base kernel; shift_family
transplants any family into an extension field along a cyclic shift.
is_pivot_family is the expanded-polynomial view used to relate these
families to ordinary (Reed-Solomon style) evaluation codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

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
    rref_walk,
)

FAMILY_BUDGET = 10 ** 5


@dataclass(frozen=True)
class FamilyParams:
    q: int
    n: int
    r: int
    g: int
    s: int = 1
    ell: int = 0


@dataclass(frozen=True)
class PolyFamily:
    """A set of monic subspace polynomials sharing their top coefficients.

    mutual_top lists the agreed topmost coefficients from the leading one
    downward: mutual_top[i] is the coefficient at index r - i.
    """

    params: FamilyParams
    kind: str                       # subfield | pigeonhole | orbit | orbit_shifted
    spec: FieldSpec                 # coefficient field of the members
    members: Tuple[LinearizedPoly, ...]
    mutual_top: Tuple[int, ...]
    degenerate: bool = dc_field(default=False)

    def __post_init__(self):
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

    def __len__(self):
        return len(self.members)


# ----------------------------------------------------------------------
# Subfield-linear family
# ----------------------------------------------------------------------

def _family_leaves(q: int, n: int, r: int, g: int):
    """GF(q^n) and the leaves of the family walk: (parent, h) per
    GF(q^g)-linear r-subspace of GF(q^n), in the walk's order, with parent
    the q^g-linearized polynomial of the first r/g - 1 rows and h the
    serial of the GF(q^g)-line the last row spans.

    The parameters and FAMILY_BUDGET are checked before any field is
    built (raising DivisibilityViolation or BudgetExceeded).  The walk
    runs over the (r/g) x (n/g) RREF matrices over GF(q^g) and extends
    each inner node's polynomial by its new row's line (canonical
    subfield identification), one q^g-step of extend_polynomial; the
    leaves are left to the consumer.  Parents are never mutated, and a
    parent's leaves come one after another.  On exhaustion the walk
    checks that there were [n/g, r/g]_(q^g) leaves.
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
        depth, leaves = r // g, 0
        polys = [[1]]   # polys[t]: the q^g-linearized polynomial of rows[:t]
        lines = {}      # row -> the serial h whose GF(q^g)-line it spans
        for rows in rref_walk(n // g, range(depth, depth + 1), sub.order):
            t = len(rows)
            if not t:
                continue
            h = lines.get(rows[-1])
            if h is None:
                h, row = 0, rows[-1]
                for pw in gamma_pows:
                    row, w = divmod(row, sub.order)
                    h = ambient.add(h, ambient.mul(scalar_image[w], pw))
                lines[rows[-1]] = h
            if t == depth:
                leaves += 1
                yield polys[t - 1], h
            else:
                polys[t:] = [extend_polynomial(ambient, polys[t - 1], h, g)]
        require(leaves == size, "family size is not [n/g, r/g]_(q^g)")

    return ambient, walk()


def _member(ambient: FieldSpec, parent: List[int], h: int,
            r: int, g: int) -> LinearizedPoly:
    """The leaf's subspace polynomial: parent extended by the line of h,
    one q^g-step, spread onto the indices divisible by g."""
    coeffs = [0] * (r + 1)
    coeffs[::g] = extend_polynomial(ambient, parent, h, g)
    return LinearizedPoly(ambient, coeffs)


def subfield_linear_family(q: int, n: int, r: int, g: int) -> PolyFamily:
    """Subspace polynomials of all r-subspaces that are GF(q^g)-linear.

    Every leaf of _family_leaves becomes a member, so members come in
    walk order; they have nonzero coefficients only at indices divisible
    by g.  Raises BudgetExceeded above FAMILY_BUDGET members.
    """
    ambient, leaves = _family_leaves(q, n, r, g)
    members = [_member(ambient, parent, h, r, g) for parent, h in leaves]
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
    off its parent without building the member: with Q = q^g, the new
    polynomial's Q-linearized coefficient j is
    parent[j-1]^Q - parent(h)^(Q-1) * parent[j], one evaluation, one power
    and ell multiply-subtracts per leaf, the Frobenius terms once per
    parent.
    Only the winning bucket's leaves are extended to members, in walk
    order.  The bucket has size at least |family| / q^(n*ell); ties break
    toward the lexicographically smallest key.  When g(ell+1) > r the
    agreement window covers every coefficient, the buckets are
    singletons, and the result is flagged degenerate.
    """
    ambient, leaves = _family_leaves(q, n, r, g)
    if r != n - g * (ell + 1):
        raise ParamMismatch(f"ell={ell} inconsistent with r = n - g(ell+1)")
    depth, big_q = r // g, q ** g
    # the key's Q-linearized indices depth-1, ..., depth-ell, those below
    # index 0 read as 0
    key_indices = range(depth - 1, max(depth - ell, 0) - 1, -1)
    pad = (0,) * (ell - len(key_indices))
    buckets = {}
    last, heads = None, ()
    for parent, h in leaves:
        if parent is not last:
            last, heads = parent, [
                (ambient.frobenius(parent[j - 1], g) if j else 0, parent[j])
                for j in key_indices]
        value = ambient.frobenius_sum(parent, h, g)
        require(value != 0, "extending vector lies in the subspace")
        factor = ambient.pow(value, big_q - 1)
        key = tuple(ambient.sub(f, ambient.mul(factor, a))
                    for f, a in heads) + pad
        buckets.setdefault(key, []).append((parent, h))
    best_key = min(buckets, key=lambda k: (-len(buckets[k]), k))
    chosen = [_member(ambient, parent, h, r, g)
              for parent, h in buckets[best_key]]
    total = sum(map(len, buckets.values()))
    require(len(chosen) * (q ** (n * ell)) >= total,
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
        require(all(ambient.frobenius_sum(member.coeffs,
                                          ambient.mul(beta, b)) == 0
                    for b in base_kernel.basis),
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
