"""The two families of subspace polynomials behind the adversarial instances.

subfield_linear_family grows the polynomials of the GF(q^g)-linear
r-subspaces of GF(q^n) along subspace.rref_walk over GF(q^g), each from its
parent's by one q^g-step per row; they have nonzero coefficients only at
indices divisible by g.
pigeonhole_subfamily extracts the largest bucket agreeing on the topmost
coefficients.  orbit_poly_family builds the fully explicit family indexed
by orbit representatives of GF(q^(gs)) and checks that every member's root
space is its cyclic shift of the base kernel; shift_family transplants any
family into an extension field along a cyclic shift.  is_pivot_family is the
expanded-polynomial view used to relate these families to ordinary
(Reed-Solomon style) evaluation codes.
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
    evaluate,
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

def subfield_linear_family(q: int, n: int, r: int, g: int) -> PolyFamily:
    """Subspace polynomials of all r-subspaces that are GF(q^g)-linear.

    Walks the (r/g) x (n/g) RREF matrices over GF(q^g) and extends each
    parent's polynomial by the GF(q^g)-line of the new row in GF(q^n)
    (canonical subfield identification), one q^g-step of
    extend_polynomial, so members come in walk order.  The walk keeps the
    q^g-linearized coefficients; a member spreads them onto the indices
    divisible by g.  Raises BudgetExceeded above FAMILY_BUDGET members.
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

    members = []
    polys = [[1]]   # polys[t]: the q^g-linearized polynomial of rows[:t]
    lines = {}      # row -> the serial h whose GF(q^g)-line it spans
    for rows in rref_walk(n // g, range(r // g, r // g + 1), sub.order):
        t = len(rows)
        if t:
            h = lines.get(rows[-1])
            if h is None:
                h, row = 0, rows[-1]
                for pw in gamma_pows:
                    row, w = divmod(row, sub.order)
                    h = ambient.add(h, ambient.mul(scalar_image[w], pw))
                lines[rows[-1]] = h
            polys[t:] = [extend_polynomial(ambient, polys[t - 1], h, g)]
        if t == r // g:
            coeffs = [0] * (r + 1)
            coeffs[::g] = polys[t]
            members.append(LinearizedPoly(ambient, coeffs))
    require(len(members) == size, "family size is not [n/g, r/g]_(q^g)")

    params = FamilyParams(q=q, n=n, r=r, g=g, s=1, ell=(n - r) // g - 1)
    mutual = (1,) + (0,) * (g - 1)
    return PolyFamily(params=params, kind="subfield", spec=ambient,
                      members=tuple(members), mutual_top=mutual)


def pigeonhole_subfamily(family: PolyFamily, ell: int) -> PolyFamily:
    """Largest bucket of the family agreeing on its topmost g(ell+1)
    coefficients (leading coefficient included).

    Members are keyed on the ell coefficients at indices r-g, ..., r-g*ell;
    all other positions in the top window are forced (1 at the top, 0 off
    the g-stride).  The winning bucket has size at least |family| / q^(n*ell);
    ties break toward the lexicographically smallest key.  When
    g(ell+1) > r the agreement window covers every coefficient, the buckets
    are singletons, and the result is flagged degenerate.
    """
    if family.kind != "subfield":
        raise ParamMismatch("pigeonhole extraction applies to the "
                            "subfield-linear family")
    p = family.params
    if ell != p.ell or p.r != p.n - p.g * (ell + 1):
        raise ParamMismatch(f"ell={ell} inconsistent with r = n - g(ell+1)")
    r, g = p.r, p.g
    # the key's indices r - g, ..., r - g*ell, those at or above 0 read as
    # one slice of every member (each has r + 1 coefficients), the rest 0
    low = r - g * ell if r >= g * ell else r % g
    pad = (0,) * (ell - len(range(low, r - g + 1, g)))
    buckets = {}
    for m in family.members:
        key = m.coeffs[low:r - g + 1:g][::-1] + pad
        buckets.setdefault(key, []).append(m)
    best_key = min(buckets, key=lambda k: (-len(buckets[k]), k))
    chosen = buckets[best_key]
    require(len(chosen) * (p.q ** (p.n * ell)) >= len(family.members),
            "largest bucket below the pigeonhole bound")

    top_len = g * (ell + 1)
    sample = chosen[0]
    mutual = tuple(sample.coeff(r - i) for i in range(min(top_len, r + 1)))
    return PolyFamily(params=p, kind="pigeonhole", spec=family.spec,
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
        require(all(evaluate(ambient, member.coeffs, ambient.mul(beta, b))
                    == 0 for b in base_kernel.basis),
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
