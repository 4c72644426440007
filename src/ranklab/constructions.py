"""The two families of subspace polynomials behind the adversarial instances.

subfield_linear_family enumerates the r-subspaces of GF(q^n) that are also
linear over the subfield GF(q^g); their polynomials have nonzero coefficients
only at indices divisible by g.  pigeonhole_subfamily extracts the largest
bucket agreeing on the topmost coefficients.  orbit_poly_family builds the
fully explicit family indexed by orbit representatives of GF(q^(gs)), and
shift_family transplants any family into an extension field along a cyclic
shift.  is_pivot_family is the expanded-polynomial view used to relate these
families to ordinary (Reed-Solomon style) evaluation codes.
"""

from __future__ import annotations

import random
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
from ranklab.field import FieldElement, FieldSpec, embed_serial, make_field
from ranklab.linpoly import (
    LinearizedPoly,
    OrdinaryPoly,
    divides_check,
    field_vanishing_poly,
    kernel,
)
from ranklab.subspace import (
    Subspace,
    cyclic_shift,
    gaussian_binomial,
    rref_patterns,
    subspace_polynomial,
)

FAMILY_BUDGET = 10 ** 5
VERIFY_EVAL_BUDGET = 1 << 18
SPOT_CHECK_SIZE = 8


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
        r = self.params.r
        for m in self.members:
            if m.q_degree != r or not m.is_monic:
                raise ParamMismatch("family member is not monic of degree r")
            for i, c in enumerate(self.mutual_top):
                if m.coeff(r - i) != c:
                    raise ParamMismatch(
                        "member disagrees with the mutual top coefficients")
        if len(set(self.members)) != len(self.members):
            raise ParamMismatch("family members are not pairwise distinct")

    def __len__(self):
        return len(self.members)


def _spot_indices(count: int, total_work: int, budget: int,
                  seed: int) -> List[int]:
    """Member indices to verify: all of them if cheap, else a seeded sample."""
    if total_work <= budget:
        return list(range(count))
    size = min(SPOT_CHECK_SIZE, count)
    return sorted(random.Random(seed).sample(range(count), size))


# ----------------------------------------------------------------------
# Subfield-linear family
# ----------------------------------------------------------------------

def subfield_linear_family(q: int, n: int, r: int, g: int,
                           budget: int = FAMILY_BUDGET,
                           seed: int = 0) -> PolyFamily:
    """Subspace polynomials of all r-subspaces that are GF(q^g)-linear.

    Enumerates the Grassmannian of (r/g)-subspaces of a (n/g)-space over
    GF(q^g) and maps each through the canonical subfield identification of
    GF(q^g)^(n/g) with GF(q^n).  Every returned polynomial has nonzero
    coefficients only at indices divisible by g.
    """
    if g < 2 or not (0 < r < n):
        raise DivisibilityViolation(f"need g >= 2 and 0 < r < n, got "
                                    f"g={g}, r={r}, n={n}")
    if n % g or r % g:
        raise DivisibilityViolation(f"g={g} must divide gcd(n, r)=({n},{r})")
    size = gaussian_binomial(n // g, r // g, q ** g)
    if size > budget:
        raise BudgetExceeded(f"family size {size} exceeds budget {budget}")

    ambient = make_field(q, n)
    sub = make_field(q, g)
    # image of every GF(q^g) scalar inside GF(q^n)
    scalar_image = [embed_serial(s, sub, ambient) for s in sub.elements()]
    # GF(q^g)-basis of GF(q^n): powers of the ambient generator
    gamma_pows = [ambient.pow(ambient.generator_serial, j)
                  for j in range(n // g)]
    # GF(q)-basis of GF(q^g), embedded
    sub_gen_pows = [scalar_image[sub.pow(sub.generator_serial, t)]
                    for t in range(g)]

    pairs = []
    for rows in rref_patterns(n // g, r // g, sub.order):
        gens = []
        for row in rows:
            h = 0
            for j, w in enumerate(row):
                if w:
                    h = ambient.add(h, ambient.mul(scalar_image[w],
                                                   gamma_pows[j]))
            gens.append(h)
        basis = [ambient.mul(t, h) for h in gens for t in sub_gen_pows]
        space = Subspace(ambient, basis)
        require(space.dim == r, "pattern span is not an r-subspace")
        poly = subspace_polynomial(space)
        require(all(c == 0 for i, c in enumerate(poly.coeffs) if i % g),
                "coefficient off the g-stride")
        pairs.append((space.basis, poly))
    require(len(pairs) == size, "family size is not [n/g, r/g]_(q^g)")
    pairs.sort(key=lambda t: t[0])

    params = FamilyParams(q=q, n=n, r=r, g=g, s=1, ell=(n - r) // g - 1)
    mutual = (1,) + (0,) * (g - 1)
    return PolyFamily(params=params, kind="subfield", spec=ambient,
                      members=tuple(p for _, p in pairs), mutual_top=mutual)


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
    buckets = {}
    for m in family.members:
        key = tuple(m.coeff(r - g * i) for i in range(1, ell + 1))
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

    With n = r + gs, this is sum of x^(q^(i*g*s)) for i = 0 .. n/(gs) - 1;
    it divides x^(q^n) - x, so its kernel is an r-subspace of GF(q^n).
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
    if ambient.order <= VERIFY_EVAL_BUDGET:
        require(divides_check(poly, field_vanishing_poly(ambient)),
                "base polynomial does not divide x^(q^n) - x")
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


def orbit_poly_family(q: int, g: int, s: int, r: int,
                      verify_budget: int = VERIFY_EVAL_BUDGET,
                      seed: int = 0) -> PolyFamily:
    """Explicit family: subspace polynomials of every cyclic shift of the
    base kernel, with coefficient beta^([r]-[i*gs]) at index i*gs.

    The member for beta = 1 is orbit_base_poly.  Member kernels are verified
    (exhaustively within budget, else a seeded sample) to be exactly the
    cyclic shifts of the base kernel.
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

    work = len(reps) * ambient.order
    base_kernel = None
    if ambient.order <= VERIFY_EVAL_BUDGET:
        base_kernel = kernel(members[0], ambient)
        require(base_kernel.dim == r, "base kernel is not r-dim")
        for idx in _spot_indices(len(reps), work, verify_budget, seed):
            shifted = cyclic_shift(base_kernel, reps[idx])
            require(kernel(members[idx], ambient) == shifted,
                    "member kernel is not the expected cyclic shift")
    return fam


# ----------------------------------------------------------------------
# Shifting a family into an extension field
# ----------------------------------------------------------------------

def shift_family(family: PolyFamily, beta, target: FieldSpec) -> PolyFamily:
    """Embed the family into GF(q^m) and shift every kernel by beta.

    Coefficient j of each member becomes beta^([r]-[j]) times the embedded
    coefficient j, which is the subspace polynomial of beta times the
    embedded kernel.  Top-coefficient agreement is preserved.
    """
    src = family.spec
    if isinstance(beta, FieldElement):
        if beta.spec != target:
            raise FieldMismatch("beta must live in the target field")
        beta = beta.serial
    beta = int(beta)
    if beta == 0:
        raise ZeroShift("cyclic shift by zero")
    if src.q != target.q or target.e % src.e:
        raise NotASubfield(f"GF({src.q}^{src.e}) does not embed in "
                           f"GF({target.q}^{target.e})")

    r = family.params.r
    q = src.q
    factors = [target.pow(beta, q ** r - q ** j) for j in range(r + 1)]
    members = []
    for m in family.members:
        coeffs = [target.mul(factors[j], embed_serial(c, src, target))
                  if c else 0
                  for j, c in enumerate(m.coeffs)]
        members.append(LinearizedPoly(target, coeffs))
    mutual = tuple(
        target.mul(factors[r - i], embed_serial(c, src, target)) if c else 0
        for i, c in enumerate(family.mutual_top))

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
                    diff_degree: int,
                    budget: int = VERIFY_EVAL_BUDGET
                    ) -> Tuple[bool, Optional[OrdinaryPoly]]:
    """Check: every polynomial has >= min_roots roots in its field, and all
    lie within degree <= diff_degree of one pivot polynomial.

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
        if p.count_roots(budget) < min_roots:
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
