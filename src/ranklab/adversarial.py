"""Build and certify adversarial list-decoding instances.

An instance is a non-codeword center word plus a certified list of codewords
all at rank distance exactly tau from it, witnessing that list decoding at
radius tau (one past unique decoding) cannot stay polynomial.  Two builders:
the counting route goes through the pigeonhole subfamily of the
subfield-linear family; the explicit route uses the orbit family directly.
list_bound is the one source of both claimed list-size bounds; the builders
and the bound table call it, verify_instance and the lifted checks call it
through instance_bound, which also checks the family's kind and parameters.
verify_instance re-derives every claim independently, including an optional
exhaustive ball scan.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ranklab import gfmatrix
from ranklab.errors import (
    BadDimension,
    BadParameters,
    BudgetExceeded,
    ConstraintViolation,
    DivisibilityViolation,
    InvariantViolation,
    MalformedInstance,
    NoValidRadius,
    ParamMismatch,
    require,
)
from ranklab.constructions import (
    FamilyParams,
    PolyFamily,
    orbit_poly_family,
    pigeonhole_subfamily,
    shift_family,
)
from ranklab.field import make_field
from ranklab.gabidulin import (
    BALL_BUDGET,
    GabidulinCode,
    RankWord,
    evaluate_word,
    exact_ball,
    make_code,
    preimage_message,
    rank_distance,
)
from ranklab.linpoly import LinearizedPoly
from ranklab.subspace import gaussian_binomial


class AdversarialInstance(NamedTuple):
    """Certified dense list around a non-codeword center.

    pivot is the polynomial R whose evaluation is the center; every listed
    codeword is the evaluation of R minus a family member.
    """

    code: GabidulinCode
    tau: int
    pivot: LinearizedPoly
    center: RankWord
    family: PolyFamily
    codewords: Tuple[RankWord, ...]
    claimed_bound: int
    kind: str                      # counting | explicit
    degenerate: bool = False


class CheckResult(NamedTuple):
    name: str
    status: str                    # pass | fail | skipped
    measured: object = None
    expected: object = None


class VerificationReport(NamedTuple):
    checks: List[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "format": "ranklab.report/v1",
            "all_passed": self.all_passed,
            "checks": [{"name": c.name, "status": c.status,
                        "measured": _jsonable(c.measured),
                        "expected": _jsonable(c.expected)}
                       for c in self.checks],
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, tuple):
        return list(v)
    return v


def _check_instance(inst: AdversarialInstance):
    """Construction-time invariants; verify_instance re-checks independently."""
    code, tau = inst.code, inst.tau
    if tau not in radius_window(code.n, code.k):
        raise InvariantViolation(
            f"radius {tau} outside (UDR, d={code.min_distance})")
    if inst.pivot.q_degree < code.k:
        raise InvariantViolation("pivot degree would be a codeword")
    if len(inst.codewords) != len(inst.family.members):
        raise InvariantViolation("list and family sizes differ")
    if len(inst.codewords) < inst.claimed_bound and not inst.degenerate:
        raise InvariantViolation("list below the claimed bound")
    if any(rank_distance(inst.center, cw) != tau for cw in inst.codewords):
        raise InvariantViolation("codeword not at distance exactly tau")


def _build_instance(code: GabidulinCode, tau: int, family: PolyFamily,
                    kind: str, claimed_bound: int) -> AdversarialInstance:
    spec = code.field
    r = family.params.r
    pivot_coeffs = [0] * (r + 1)
    for i, c in enumerate(family.mutual_top):
        pivot_coeffs[r - i] = c
    pivot = LinearizedPoly(spec, pivot_coeffs)
    center = evaluate_word(code, pivot)
    points = code.eval_points
    cws = tuple(RankWord(spec, tuple(spec.frobenius_sums(msg, points)))
                for msg in _messages(pivot, family.members))
    inst = AdversarialInstance(
        code=code, tau=tau, pivot=pivot, center=center, family=family,
        codewords=cws, claimed_bound=claimed_bound, kind=kind,
        degenerate=claimed_bound < 2)
    _check_instance(inst)
    return inst


def radius_window(n: int, k: int) -> range:
    """Radii strictly between the unique decoding radius of Gab[n, k] and
    its minimum distance d = n - k + 1: the only radii that claim a bound."""
    d = n - k + 1
    return range((d - 1) // 2 + 1, d)


def counting_divides(n: int, g: int, tau: int) -> bool:
    """The counting bound's rule: g divides tau and gcd(n - tau, n)."""
    return g >= 1 and tau % g == 0 and math.gcd(n - tau, n) % g == 0


def counting_bound(q: int, n: int, g: int, tau: int) -> Tuple[Fraction, int]:
    """Exact pigeonhole bound and its simplified floor q^(n - tau(ell+1))."""
    if not counting_divides(n, g, tau):
        raise DivisibilityViolation(
            f"need g | tau and g | gcd(n-tau, n); got g={g}, n={n}, tau={tau}")
    ell = tau // g - 1
    exact = Fraction(gaussian_binomial(n // g, (n - tau) // g, q ** g),
                     q ** (n * ell))
    simplified = q ** (n - tau * (ell + 1))
    return exact, simplified


def list_bound(kind: str, q: int, n: int, k: int, g: int,
               tau: int) -> Optional[int]:
    """The paper's list-size bound for Gab[n, k] over an extension of GF(q)
    at radius tau; the lifted subspace codes carry the same bound.

    explicit: the orbit count (q^n - 1)/(q^tau - 1), for tau = g s dividing
    n and k = n - 2 tau + 1.  counting: the ceiling of the exact counting
    bound, where counting_divides holds.  None when no bound covers the
    parameters: tau outside radius_window(n, k), a divisibility rule that
    fails, or an unknown kind.
    """
    if tau not in radius_window(n, k):
        return None
    if kind == "explicit":
        if g >= 1 and tau % g == 0 and n % tau == 0 \
                and k == n - 2 * tau + 1:
            return (q ** n - 1) // (q ** tau - 1)
        return None
    if kind == "counting" and counting_divides(n, g, tau):
        exact, _ = counting_bound(q, n, g, tau)
        return -(-exact.numerator // exact.denominator)
    return None


def instance_bound(inst: AdversarialInstance) -> Optional[int]:
    """list_bound for the instance's kind, code, family g and radius; None
    also when the family's kind or parameters are not the ones that kind's
    builder gives the code at that radius."""
    code, tau, fam, p = inst.code, inst.tau, inst.family, inst.family.params
    if inst.kind == "explicit":
        fits = fam.kind in ("orbit", "orbit_shifted") \
            and p.g * p.s == tau and p.ell == p.s - 1
    else:
        fits = fam.kind == "pigeonhole" and p.s == 1 and p.g >= 1 \
            and p.ell == tau // p.g - 1
    if fits and (p.q, p.n, p.r) == (code.q, code.n, code.n - tau):
        return list_bound(inst.kind, code.q, code.n, code.k, p.g, tau)
    return None


def build_counting_instance(q: int, n: int, m: int, k: int, g: int,
                            beta_exponent: int = 0) -> AdversarialInstance:
    """Existence-route instance: pigeonhole subfamily of the subfield-linear
    family, shifted by beta, at the smallest admissible radius."""
    code = make_code(q, n, m, k, beta_exponent)
    window = radius_window(n, k)
    tau = next((t for t in window if g >= 2 and counting_divides(n, g, t)),
               None)
    if tau is None:
        raise NoValidRadius(
            f"no radius in [{window.start}, {window.stop - 1}] works "
            f"with g={g}")
    ell = tau // g - 1
    bucket = pigeonhole_subfamily(q, n, n - tau, g, ell)
    shifted = shift_family(bucket, code.beta, code.field)
    return _build_instance(code, tau, shifted, "counting",
                           list_bound("counting", q, n, k, g, tau))


def build_explicit_instance(q: int, g: int, s: int, n: int, m: int,
                            beta_exponent: int = 0) -> AdversarialInstance:
    """Fully explicit instance: orbit family shifted by beta, code
    Gab[n, n-2gs+1], radius gs."""
    gs = g * s
    if g < 2 or s < 1 or n % gs or n < 2 * gs:
        raise DivisibilityViolation(f"need g >= 2, s >= 1, gs | n and "
                                    f"n >= 2gs; got g={g}, s={s}, n={n}")
    code = make_code(q, n, m, n - 2 * gs + 1, beta_exponent)
    tau = gs
    family = orbit_poly_family(q, g, s, n - gs)
    shifted = shift_family(family, code.beta, code.field)
    return _build_instance(code, tau, shifted, "explicit",
                           list_bound("explicit", q, n, code.k, g, tau))


def _messages(pivot: LinearizedPoly,
              members: Sequence[LinearizedPoly]) -> Iterator[List[int]]:
    """The coefficients of pivot - member, member by member: the pivot's,
    padded once to the longest member, less the member's by field.sub.
    The builder evaluates them into the listed codewords, and
    codewords_check re-evaluates them."""
    sub, coeffs = pivot.spec.sub, pivot.coeffs
    coeffs += (0,) * (max((len(m.coeffs) for m in members), default=0)
                      - len(coeffs))
    for member in members:
        c = member.coeffs
        yield [*map(sub, coeffs, c), *coeffs[len(c):]]


def codewords_check(inst: AdversarialInstance) -> CheckResult:
    """Check (b) of verify_instance, codewords_encode_low_degree: each
    listed codeword is the evaluation of pivot - member (_messages), one
    FieldSpec.frobenius_sums call per codeword; the message has q-degree
    < k exactly when its coefficients at k and above are zero."""
    code, top, members = inst.code, inst.family.mutual_top, \
        inst.family.members
    field, k, points = code.field, code.k, code.eval_points
    good = 0
    for cw, member, msg in zip(inst.codewords, members,
                               _messages(inst.pivot, members)):
        r = member.q_degree
        if not any(msg[k:]) \
                and tuple(field.frobenius_sums(msg[:k], points)) \
                == cw.coords \
                and r - len(top) < k \
                and all(member.coeff(r - i) == c
                        for i, c in enumerate(top)):
            good += 1
    ok = good == len(inst.codewords) == len(members)
    return CheckResult("codewords_encode_low_degree",
                       "pass" if ok else "fail",
                       measured=good, expected=len(inst.codewords))


def verify_instance(inst: AdversarialInstance,
                    ball_budget: int = BALL_BUDGET) -> VerificationReport:
    """Re-check every instance claim from scratch.

    (a) the center has no message preimage and is the evaluation of the
    pivot; (b) codeword i is the evaluation of pivot - member i, of
    q-degree < k, and member i's top coefficients are the mutual top,
    reaching down to index k: the n points are GF(q)-independent, so
    encoding is injective below q-degree k and this is preimage_message
    finding pivot - member i, without solving the message system per
    codeword; (c) every distance is exactly tau; (d) the list holds
    at least instance_bound distinct codewords, the bound recomputed from
    the instance's kind, code, family and radius, and the file claims that
    bound; (e) within budget, the exact ball contains the whole list.
    """
    code, tau = inst.code, inst.tau
    checks = []

    ok = preimage_message(code, inst.center) is None \
        and evaluate_word(code, inst.pivot) == inst.center
    checks.append(CheckResult("center_not_in_code", "pass" if ok else "fail"))

    checks.append(codewords_check(inst))

    dists = sorted({rank_distance(inst.center, cw) for cw in inst.codewords})
    checks.append(CheckResult(
        "distances_exactly_tau",
        "pass" if dists == [tau] else "fail", measured=dists, expected=[tau]))

    bound = instance_bound(inst)
    distinct = len({cw.coords for cw in inst.codewords})
    ok = bound is not None and distinct >= bound \
        and inst.claimed_bound == bound
    checks.append(CheckResult(
        "list_meets_claimed_bound", "pass" if ok else "fail",
        measured=distinct, expected=bound))

    try:
        ball = exact_ball(code, inst.center, tau, ball_budget)
    except BudgetExceeded:
        checks.append(CheckResult(
            "ball_oracle_containment", "skipped",
            measured=f"code size {code.size} over budget {ball_budget}"))
    else:
        coords = {w.coords for w in ball}
        contained = all(cw.coords in coords for cw in inst.codewords)
        ok = contained and len(ball) >= len(inst.codewords)
        checks.append(CheckResult(
            "ball_oracle_containment", "pass" if ok else "fail",
            measured=len(ball), expected=len(inst.codewords)))

    return VerificationReport(checks)


# ----------------------------------------------------------------------
# Parameter families and analyses
# ----------------------------------------------------------------------

class RatioFamily(NamedTuple):
    """Code parameters scaled from (length, radius) ratios."""

    q: int
    g: int
    n: int
    tau: int
    k: int
    rate: Fraction
    bound_exponent: int
    simplified_bound: int


def ratio_family_params(alpha_n: int, alpha_tau: int, g: int,
                        q: int = 2) -> RatioFamily:
    """Gab[alpha_n * g, n - 2 tau + 1] with tau = alpha_tau * g.

    Requires alpha_n >= alpha_tau^2 + 1 (exponential list) and
    alpha_n > 2 alpha_tau (radius below n/2), g >= 2.
    """
    if g < 2:
        raise ConstraintViolation("g >= 2 required")
    if alpha_n < alpha_tau ** 2 + 1:
        raise ConstraintViolation(
            f"alpha_n={alpha_n} < alpha_tau^2 + 1 = {alpha_tau ** 2 + 1}")
    if alpha_n <= 2 * alpha_tau:
        raise ConstraintViolation(
            f"alpha_n={alpha_n} must exceed 2*alpha_tau={2 * alpha_tau}")
    n = alpha_n * g
    tau = alpha_tau * g
    k = n - 2 * tau + 1
    exponent = (alpha_n - alpha_tau ** 2) * g
    return RatioFamily(q=q, g=g, n=n, tau=tau, k=k,
                       rate=Fraction(k, n), bound_exponent=exponent,
                       simplified_bound=q ** exponent)


def technical_sqrt_inequality(i: int) -> bool:
    """1 - sqrt((2^i - 1)/2^i) > 1/2^(i+1), checked numerically."""
    return 1.0 - math.sqrt((2 ** i - 1) / 2 ** i) > 1.0 / 2 ** (i + 1)


class RadiusComparison(NamedTuple):
    """Our smallest non-decodable radius vs the prior square-root radius."""

    i: int
    n: int
    tau: int
    tau_prime: float               # with the 2/n correction term
    tau_prime_asymptotic: float    # without it
    verdict: bool                  # tau < tau_prime
    inequality_holds: bool


def compare_radius_to_prior(i: int, n: int) -> RadiusComparison:
    """For length n = 2^j and radius tau = n / 2^(i+1), evaluate the prior
    bound's radius floor n(1 - sqrt(1 - 2^-i + 2/n)) and compare."""
    if n < 4 or n & (n - 1):
        raise BadParameters(f"n={n} must be a power of two")
    if not 1 <= i <= int(math.log2(n)) - 2:
        raise BadParameters(f"need 1 <= i <= log2(n) - 2, got i={i}")
    tau = n // 2 ** (i + 1)
    with_term = n * (1.0 - math.sqrt(1.0 - 2.0 ** -i + 2.0 / n))
    without = n * (1.0 - math.sqrt(1.0 - 2.0 ** -i))
    return RadiusComparison(
        i=i, n=n, tau=tau, tau_prime=with_term,
        tau_prime_asymptotic=without, verdict=tau < with_term,
        inequality_holds=technical_sqrt_inequality(i))


class RSRouteReport(NamedTuple):
    """Size cap of the same family strategy applied to ordinary evaluation
    codes: never more than 4 q^n, so never super-polynomial."""

    q: int
    n: int
    r: int
    g: int
    ell: int
    bound: int
    cap: int
    superpolynomial: bool


def rs_family_size_report(q: int, n: int, r: int, g: int) -> RSRouteReport:
    if n % g or r % g:
        raise DivisibilityViolation(f"g={g} must divide gcd(n, r)")
    ell = (n - r) // g - 1
    exponent = (r // g) * (n - r) - n * ell
    bound = 4 * q ** exponent
    cap = 4 * q ** n
    require(bound <= cap, "route bound above its cap 4 q^n")
    return RSRouteReport(q=q, n=n, r=r, g=g, ell=ell, bound=bound, cap=cap,
                         superpolynomial=False)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def code_to_dict(code: GabidulinCode) -> dict:
    return {
        "q": code.q, "n": code.n, "m": code.m, "k": code.k,
        "modulus": list(code.field.modulus),
        "beta_exponent": code.beta_exponent,
        "subfield_degree": code.subfield_degree,
        "punctured": code.punctured,
        "eval_points": list(code.eval_points),
    }


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedInstance(
            f"{what}: expected an object, got {type(value).__name__}")
    return value


def _int(d: dict, key: str) -> int:
    """d[key], which must be a JSON integer (true/false are not)."""
    if type(d[key]) is not int:
        raise MalformedInstance(f"{key}: expected an integer, got {d[key]!r}")
    return d[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInstance(
            f"{what}: expected a list, got {type(value).__name__}")
    return value


def code_from_dict(d: dict) -> GabidulinCode:
    d = _object(d, "code")
    q, n, m, k = (_int(d, key) for key in ("q", "n", "m", "k"))
    if not 1 <= k <= n:
        raise BadDimension(f"need 1 <= k <= n, got k={k}, n={n}")
    modulus = _list(d["modulus"], "modulus")
    if any(type(c) is not int for c in modulus):
        raise MalformedInstance("modulus: expected a list of integers")
    field = make_field(q, m, modulus)
    beta_exponent = _int(d, "beta_exponent")
    beta = field.pow(field.generator_serial, beta_exponent)
    _check_serials(field, d["eval_points"], "eval points")
    points = tuple(d["eval_points"])
    if len(points) != n or len(gfmatrix.basis(points, q)) != n:
        raise ParamMismatch("evaluation points are not independent")
    degree = _int(d, "subfield_degree")
    punctured = _int(d, "punctured") if "punctured" in d else 0
    if punctured < 0 or degree != n + punctured:
        raise ParamMismatch(
            f"need punctured >= 0 and subfield_degree = n + punctured, got "
            f"punctured={punctured}, subfield_degree={degree}, n={n}")
    return GabidulinCode(
        field=field, n=n, k=k, beta=beta, eval_points=points,
        subfield_degree=degree, beta_exponent=beta_exponent,
        punctured=punctured)


def instance_to_dict(inst: AdversarialInstance, pretty: bool = False) -> dict:
    fam = inst.family
    out = {
        "format": INSTANCE_FORMAT,
        "kind": inst.kind,
        "code": code_to_dict(inst.code),
        "tau": inst.tau,
        "pivot": list(inst.pivot.coeffs),
        "center": list(inst.center.coords),
        "codewords": [list(w.coords) for w in inst.codewords],
        "claimed_bound": inst.claimed_bound,
        "degenerate": inst.degenerate,
        "family": {
            "kind": fam.kind,
            "params": fam.params._asdict(),
            "mutual_top": list(fam.mutual_top),
            "members": [list(m.coeffs) for m in fam.members],
        },
    }
    if pretty:
        spec = inst.code.field
        out["center_pretty"] = [str(spec.digits(c))
                                for c in inst.center.coords]
        out["pivot_pretty"] = [str(spec.digits(c))
                               for c in inst.pivot.coeffs]
    return out


def _check_serials(spec, values, what: str):
    """Each value must be a JSON integer (true/false are not) in
    [0, q^e)."""
    for v in _list(values, what):
        if type(v) is not int:
            raise MalformedInstance(f"{what}: expected an integer serial, "
                                    f"got {v!r}")
        if not 0 <= v < spec.order:
            raise ParamMismatch(f"{what}: serial {v!r} out of range "
                                f"for GF({spec.q}^{spec.e})")


INSTANCE_FORMAT = "ranklab.instance/v1"
INSTANCE_KINDS = ("counting", "explicit")


def instance_from_dict(d: dict) -> AdversarialInstance:
    d = _object(d, "instance")
    if d["kind"] not in INSTANCE_KINDS:
        raise MalformedInstance(f"unknown instance kind {d['kind']!r}")
    if d.get("format", INSTANCE_FORMAT) != INSTANCE_FORMAT:
        raise MalformedInstance(f"unknown format {d['format']!r}")
    if type(d.get("degenerate", False)) is not bool:
        raise MalformedInstance(
            f"degenerate: expected true or false, got {d['degenerate']!r}")
    code = code_from_dict(d["code"])
    spec = code.field
    _check_serials(spec, d["pivot"], "pivot")
    _check_serials(spec, d["center"], "center")
    for cw in _list(d["codewords"], "codewords"):
        _check_serials(spec, cw, "codeword")
    f = _object(d["family"], "family")
    _check_serials(spec, f["mutual_top"], "mutual top")
    for m in _list(f["members"], "family members"):
        _check_serials(spec, m, "family member")
    p = _object(f["params"], "family params")
    names = FamilyParams._fields
    if sorted(p) != sorted(names):
        raise MalformedInstance(
            f"family params: keys {sorted(p)}, expected {sorted(names)}")
    params = FamilyParams(**{key: _int(p, key) for key in names})
    family = PolyFamily(
        params=params, kind=f["kind"], spec=spec,
        members=tuple(LinearizedPoly(spec, c) for c in f["members"]),
        mutual_top=tuple(f["mutual_top"]))
    inst = AdversarialInstance(
        code=code, tau=_int(d, "tau"),
        pivot=LinearizedPoly(spec, d["pivot"]),
        center=RankWord(spec, tuple(d["center"])),
        family=family,
        codewords=tuple(RankWord(spec, tuple(c)) for c in d["codewords"]),
        claimed_bound=_int(d, "claimed_bound"), kind=d["kind"],
        degenerate=d.get("degenerate", False))
    return inst


def dump_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
