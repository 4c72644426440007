"""Adversarial instances: both builders, independent verification,
the bound calculators, and the side analyses."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from ranklab import adversarial
from ranklab.constructions import shift_family, subfield_linear_family
from ranklab.errors import (
    BadParameters,
    ConstraintViolation,
    DivisibilityViolation,
    NoValidRadius,
)
from ranklab.adversarial import (
    RankWord,
    build_counting_instance,
    build_explicit_instance,
    compare_radius_to_prior,
    counting_bound,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    list_bound,
    ratio_family_params,
    rs_family_size_report,
    technical_sqrt_inequality,
    verify_instance,
)
from ranklab.gabidulin import (
    enumerate_ball,
    evaluate_word,
    make_code,
    preimage_message,
    rank_distance,
)
from ranklab.linpoly import LinearizedPoly, field_vanishing_poly
from ranklab.subspace_code import verify_lifted_instance

import reference


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def test_explicit_instance_smallest_case():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    assert inst.tau == 2
    assert inst.claimed_bound == 5
    assert len(inst.codewords) == 5
    assert inst.pivot.coeffs == (0, 0, 1)  # x^[n-gs] = x^[2]
    report = verify_instance(inst)
    assert report.all_passed
    assert _statuses(report)["ball_oracle_containment"] == "pass"


def test_explicit_instance_gab63():
    inst = build_explicit_instance(2, 2, 1, 6, 6)
    assert inst.code.k == 3 and inst.tau == 2
    assert len(inst.codewords) == 21 == (2 ** 6 - 1) // 3
    assert verify_instance(inst).all_passed


def test_explicit_instance_larger_field():
    inst = build_explicit_instance(2, 2, 1, 4, 8)
    assert inst.code.m == 8
    assert len(inst.codewords) == 5
    assert verify_instance(inst).all_passed


def test_explicit_instance_nonunit_beta():
    inst = build_explicit_instance(2, 2, 1, 4, 8, beta_exponent=3)
    assert inst.code.beta == inst.code.field.pow(
        inst.code.field.generator_serial, 3)
    assert verify_instance(inst).all_passed


def test_explicit_instance_divisibility_errors():
    with pytest.raises(DivisibilityViolation):
        build_explicit_instance(2, 2, 1, 5, 5)
    with pytest.raises(DivisibilityViolation):
        build_explicit_instance(2, 1, 1, 4, 4)


def test_counting_instance_smallest_case():
    inst = build_counting_instance(2, 4, 4, 1, 2)
    assert inst.tau == 2 and inst.claimed_bound == 5
    assert len(inst.codewords) == 5
    assert verify_instance(inst).all_passed


def test_counting_and_explicit_agree_on_smallest_case():
    counting = build_counting_instance(2, 4, 4, 1, 2)
    explicit = build_explicit_instance(2, 2, 1, 4, 4)
    assert {w.coords for w in counting.codewords} == \
        {w.coords for w in explicit.codewords}
    assert counting.center.coords == explicit.center.coords


def test_counting_instance_gab63():
    inst = build_counting_instance(2, 6, 6, 3, 2)
    assert inst.tau == 2  # floor((4-1)/2) + 1
    assert inst.claimed_bound == 21
    assert len(inst.codewords) == 21 >= 2 ** 4
    assert verify_instance(inst).all_passed


def test_counting_instance_scaled_desk_example():
    # length 8 over GF(2^8): Gab[8,6], d=3, tau=2, 85 codewords, ball skipped
    inst = build_counting_instance(2, 8, 8, 6, 2)
    assert inst.code.min_distance == 3
    assert inst.tau == 2
    assert inst.claimed_bound == 85  # exact bound; simplified floor is 2^6
    assert inst.claimed_bound >= 2 ** 6
    assert len(inst.codewords) == 85
    report = verify_instance(inst)
    statuses = _statuses(report)
    assert statuses["ball_oracle_containment"] == "skipped"
    assert report.all_passed


def test_counting_instance_nonunit_beta():
    inst = build_counting_instance(2, 4, 4, 1, 2, beta_exponent=5)
    assert verify_instance(inst).all_passed


def test_counting_instance_degenerate_bound_is_flagged():
    # Gab[6,1]: smallest admissible radius is 4, ell=1, bound ceil(21/64)=1
    inst = build_counting_instance(2, 6, 6, 1, 2)
    assert inst.tau == 4
    assert inst.claimed_bound == 1
    assert inst.degenerate
    assert len(inst.codewords) == 1
    assert verify_instance(inst).all_passed


def _counting_instance_by_full_family(q, n, m, k, g, beta_exponent):
    # build_counting_instance as it was before its bucket was keyed off
    # the leaves: the whole family built, then each member keyed
    code = make_code(q, n, m, k, beta_exponent)
    tau = next(t for t in adversarial.radius_window(n, k)
               if adversarial.counting_divides(n, g, t))
    family = subfield_linear_family(q, n, n - tau, g)
    bucket = reference.pigeonhole_bucket(family, tau // g - 1)
    return adversarial._build_instance(
        code, tau, shift_family(bucket, code.beta, code.field), "counting",
        list_bound("counting", q, n, k, g, tau))


@pytest.mark.parametrize("q,n,m,k,g", [(2, 10, 10, 5, 2),
                                       (2, 12, 12, 2, 3)])
@pytest.mark.parametrize("beta_exponent", [0, 389])
def test_counting_instance_equals_the_full_family_build(q, n, m, k, g,
                                                        beta_exponent):
    inst = build_counting_instance(q, n, m, k, g, beta_exponent)
    ref = _counting_instance_by_full_family(q, n, m, k, g, beta_exponent)
    assert instance_to_dict(inst) == instance_to_dict(ref)


def test_explicit_instance_odd_characteristic():
    # whole pipeline over GF(3^4): generic-q ball and rank paths
    inst = build_explicit_instance(3, 2, 1, 4, 4)
    assert inst.code.k == 1 and inst.tau == 2
    assert len(inst.codewords) == (3 ** 4 - 1) // (3 ** 2 - 1) == 10
    assert verify_instance(inst).all_passed


def test_counting_instance_no_valid_radius():
    with pytest.raises(NoValidRadius):
        build_counting_instance(2, 4, 4, 3, 2)  # only tau=1 in range
    with pytest.raises(NoValidRadius):
        build_counting_instance(2, 6, 6, 3, 4)  # 4 divides neither


def test_verify_catches_tampered_codeword():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    f = inst.code.field
    bad = list(inst.codewords)
    coords = list(bad[0].coords)
    coords[0] = f.add(coords[0], 1)
    bad[0] = RankWord(f, tuple(coords))
    tampered = dataclasses.replace(inst, codewords=tuple(bad))
    report = verify_instance(tampered)
    statuses = _statuses(report)
    assert not report.all_passed
    assert "fail" in (statuses["codewords_encode_low_degree"],
                      statuses["distances_exactly_tau"])


# q in {2, 3, 5}, m = n and m > n, on both routes
CROSS_CHECK_INSTANCES = [
    (build_explicit_instance, (2, 2, 1, 4, 8)),
    (build_explicit_instance, (3, 2, 1, 4, 4)),
    (build_explicit_instance, (3, 2, 1, 4, 8)),
    (build_explicit_instance, (5, 2, 1, 4, 4)),
    (build_explicit_instance, (5, 2, 1, 4, 8)),
    (build_counting_instance, (2, 6, 6, 3, 2)),
    (build_counting_instance, (2, 6, 12, 3, 2)),
    (build_counting_instance, (3, 4, 8, 2, 2)),
    (build_counting_instance, (5, 4, 4, 2, 2)),
    (build_counting_instance, (5, 4, 8, 2, 2)),
]


@pytest.mark.parametrize("build, args", CROSS_CHECK_INSTANCES)
def test_preimage_oracle_finds_pivot_minus_member(build, args):
    # verify re-encodes pivot - member i and compares it with codeword i;
    # preimage_message solves the message system instead, and must find
    # that same message for every listed word
    inst = build(*args)
    assert len(inst.codewords) == len(inst.family.members) > 1
    for cw, member in zip(inst.codewords, inst.family.members):
        assert preimage_message(inst.code, cw) == inst.pivot - member
    assert verify_instance(inst).all_passed


def _codewords_by_difference(inst):
    """codewords_encode_low_degree's count, with pivot - member formed by
    LinearizedPoly subtraction and re-encoded by evaluate_word."""
    code, top = inst.code, inst.family.mutual_top
    good = 0
    for cw, member in zip(inst.codewords, inst.family.members):
        msg = inst.pivot - member
        r = member.q_degree
        good += msg.q_degree < code.k \
            and evaluate_word(code, msg).coords == cw.coords \
            and r - len(top) < code.k \
            and all(member.coeff(r - i) == c for i, c in enumerate(top))
    return good


@pytest.mark.parametrize("build, args", CROSS_CHECK_INSTANCES[::3])
def test_codewords_check_is_the_polynomial_difference(build, args):
    # the check's message coefficients, the padded pivot's less each
    # member's, give the count of pivot - member as LinearizedPoly
    # subtraction does: on the instance, on a pivot longer than the
    # members (plus x^(q^m) - x) and shorter (its top coefficient
    # dropped), on a changed low coefficient, a zero pivot, and swapped
    # codewords
    inst = build(*args)
    f, coeffs = inst.code.field, inst.pivot.coeffs
    pivots = [inst.pivot, inst.pivot + field_vanishing_poly(f),
              LinearizedPoly(f, coeffs[:-1]),
              LinearizedPoly(f, (f.add(coeffs[0], 1),) + coeffs[1:]),
              LinearizedPoly(f, ())]
    cws = inst.codewords
    forged = [dataclasses.replace(inst, pivot=p) for p in pivots] + [
        dataclasses.replace(inst, codewords=(cws[1], cws[0], *cws[2:]))]
    counts = [adversarial.codewords_check(x).measured for x in forged]
    assert counts == [_codewords_by_difference(x) for x in forged]
    assert (counts[0], counts[1], counts[-1]) == (len(cws), 0, len(cws) - 2)


@pytest.mark.parametrize("build, args", [
    (build_explicit_instance, (2, 2, 1, 4, 4)),
    (build_explicit_instance, (3, 2, 1, 4, 8)),
    (build_counting_instance, (2, 6, 12, 3, 2))])
def test_pivot_plus_a_vanishing_polynomial_fails_only_the_degree_check(
        build, args):
    # x^(q^m) - x vanishes on all of GF(q^m): the center and every
    # pivot - member re-encode to the same words, but at q-degree m >= k,
    # so only the degree test of codewords_encode_low_degree fails
    inst = build(*args)
    code = inst.code
    pivot = inst.pivot + field_vanishing_poly(code.field)
    assert evaluate_word(code, pivot) == inst.center
    report = verify_instance(dataclasses.replace(inst, pivot=pivot))
    assert [c.name for c in report.checks if c.status == "fail"] \
        == ["codewords_encode_low_degree"]


def test_verify_catches_shrunk_radius():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    shrunk = dataclasses.replace(inst, tau=inst.tau - 1)
    report = verify_instance(shrunk)
    assert _statuses(report)["distances_exactly_tau"] == "fail"
    assert not report.all_passed


def test_ball_oracle_contains_instance_codewords():
    inst = build_counting_instance(2, 6, 6, 3, 2)
    ball = {w.coords for w in enumerate_ball(inst.code, inst.center,
                                             inst.tau)}
    assert len(ball) >= inst.claimed_bound
    for cw in inst.codewords:
        assert cw.coords in ball
        assert rank_distance(inst.center, cw) == inst.tau


def test_counting_bound_values():
    exact, simplified = counting_bound(2, 4, 2, 2)
    assert exact == 5 and simplified == 4
    exact, simplified = counting_bound(2, 6, 2, 2)
    assert exact == 21 and simplified == 16
    with pytest.raises(DivisibilityViolation):
        counting_bound(2, 6, 2, 3)


def test_counting_bound_sweep_exact_dominates_simplified():
    checked = 0
    for q in (2, 3):
        for g in (2, 3):
            for n in range(2 * g, 40, g):
                for tau in range(g, n, g):
                    if math.gcd(n - tau, n) % g or n - tau <= 0:
                        continue
                    exact, simplified = counting_bound(q, n, g, tau)
                    assert exact >= simplified
                    ell = tau // g - 1
                    assert (simplified > 1) == (g * (ell + 1) ** 2 < n)
                    checked += 1
                    if checked >= 50:
                        return
    raise AssertionError("sweep too small")


def test_ratio_family_first_named_case():
    fam = ratio_family_params(3, 1, 2)
    assert (fam.n, fam.tau, fam.k) == (6, 2, 3)
    assert fam.rate == Fraction(1, 2) == Fraction(1, 3) + Fraction(1, 6)
    assert fam.simplified_bound == 16  # q^(2g)
    assert fam.n - fam.k + 1 == 2 * fam.tau  # d = 2 tau


def test_ratio_family_second_named_case():
    fam = ratio_family_params(5, 2, 2)
    assert (fam.n, fam.tau, fam.k) == (10, 4, 3)
    assert fam.rate == Fraction(3, 10) == Fraction(1, 5) + Fraction(1, 10)
    assert fam.simplified_bound == 4  # q^g


def test_ratio_family_constraints():
    with pytest.raises(ConstraintViolation):
        ratio_family_params(5, 2, 1)    # g >= 2 required
    with pytest.raises(ConstraintViolation):
        ratio_family_params(4, 2, 2)    # alpha_n < alpha_tau^2 + 1
    with pytest.raises(ConstraintViolation):
        ratio_family_params(2, 1, 2)    # alpha_n must exceed 2 alpha_tau


def test_ratio_family_matches_built_instance():
    fam = ratio_family_params(3, 1, 2)
    inst = build_counting_instance(fam.q, fam.n, fam.n, fam.k, fam.g)
    assert inst.tau == fam.tau
    assert len(inst.codewords) >= fam.simplified_bound


def test_technical_inequality_range():
    for i in range(1, 21):
        assert technical_sqrt_inequality(i)


def test_radius_comparison_large_case():
    cmp = compare_radius_to_prior(1, 1024)
    assert cmp.tau == 256
    # frozen from the formula n(1 - sqrt(1 - 2^-i + 2/n))
    assert cmp.tau_prime == pytest.approx(298.5098208797, abs=1e-6)
    assert cmp.tau_prime_asymptotic == pytest.approx(299.9226560652, abs=1e-6)
    assert cmp.verdict
    assert cmp.inequality_holds


def test_radius_comparison_small_case_reported_honestly():
    cmp = compare_radius_to_prior(2, 64)
    assert cmp.tau == 8
    assert cmp.tau_prime == pytest.approx(
        64 * (1 - math.sqrt(1 - 0.25 + 2 / 64)), abs=1e-9)
    # 2/n is not negligible here; the comparison genuinely fails
    assert not cmp.verdict


def test_radius_comparison_matches_sqrt_radius_formula():
    from ranklab.gabidulin import johnson_like_radius
    for i, n in [(1, 1024), (2, 256), (3, 512)]:
        cmp = compare_radius_to_prior(i, n)
        d = n // 2 ** i - 1
        assert cmp.tau_prime == pytest.approx(
            johnson_like_radius(n, n, d, 1), abs=1e-9)


def test_radius_comparison_domain():
    with pytest.raises(BadParameters):
        compare_radius_to_prior(1, 1000)
    with pytest.raises(BadParameters):
        compare_radius_to_prior(9, 64)


def test_rs_route_report():
    rep = rs_family_size_report(2, 4, 2, 2)
    assert rep.ell == 0
    assert rep.bound == 16  # 4 * 2^((r/g)(n-r))
    assert rep.cap == 64
    assert not rep.superpolynomial
    for (q, n, r, g) in [(2, 8, 4, 2), (2, 12, 8, 4), (3, 6, 4, 2),
                         (2, 10, 5, 5)]:
        rep = rs_family_size_report(q, n, r, g)
        assert rep.bound <= rep.cap
    with pytest.raises(DivisibilityViolation):
        rs_family_size_report(2, 6, 4, 3)


def test_instance_serialization_roundtrip():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    d = instance_to_dict(inst)
    back = instance_from_dict(d)
    assert back.center.coords == inst.center.coords
    assert back.pivot == inst.pivot
    assert [w.coords for w in back.codewords] == \
        [w.coords for w in inst.codewords]
    assert back.claimed_bound == inst.claimed_bound
    assert verify_instance(back).all_passed
    assert dump_json(d) == dump_json(instance_to_dict(back))


def test_report_serialization():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    rep = verify_instance(inst).to_dict()
    assert rep["all_passed"] is True
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(set(names), key=names.index)
    assert len(names) == 5


def _paper_bound(kind, q, n, k, g, tau):
    """The paper's two list-size bounds, written out apart from ranklab."""
    d = n - k + 1
    if not 2 * tau > d - 1 or not tau < d:
        return None
    if kind == "explicit":
        if tau % g or n % tau or k != n - 2 * tau + 1:
            return None
        return sum(q ** (tau * i) for i in range(n // tau))
    if tau % g or n % g:
        return None
    big, a, b = q ** g, n // g, (n - tau) // g
    num = den = 1
    for i in range(b):                 # Gaussian binomial [a, b]_big
        num *= big ** (a - i) - 1
        den *= big ** (i + 1) - 1
    den *= q ** (n * (tau // g - 1))
    return -(-num // den)


def test_list_bound_matches_paper_formulas():
    covered = {"explicit": 0, "counting": 0}
    for q in (2, 3, 5):
        for n in range(1, 13):
            for k in range(1, n + 1):
                for g in (1, 2, 3):
                    d = n - k + 1
                    for tau in range(0, n + 2):
                        outside = tau <= (d - 1) // 2 or tau >= d
                        for kind in covered:
                            got = list_bound(kind, q, n, k, g, tau)
                            assert got == _paper_bound(kind, q, n, k, g, tau)
                            assert got is None or not outside
                            covered[kind] += got is not None
                    assert list_bound("orbit", q, n, k, g, d - 1) is None
    assert covered["explicit"] >= 100 and covered["counting"] >= 600


@pytest.mark.parametrize("build, args", [
    (build_explicit_instance, (2, 2, 1, 4, 4)),
    (build_explicit_instance, (3, 2, 1, 4, 4)),
    (build_explicit_instance, (5, 2, 1, 4, 4)),
    (build_explicit_instance, (2, 3, 1, 6, 6)),
    (build_counting_instance, (2, 4, 4, 1, 2)),
    (build_counting_instance, (3, 4, 4, 2, 2)),
    (build_counting_instance, (2, 6, 6, 1, 2)),
])
def test_builder_verify_and_lift_verify_share_one_bound(build, args):
    rng = random.Random(f"{build.__name__}{args}")
    q = args[0]
    inst = build(*args, beta_exponent=rng.randrange(50))
    code = inst.code
    bound = list_bound(inst.kind, q, code.n, code.k, inst.family.params.g,
                       inst.tau)
    # the ball checks are skipped: the bound checks do not depend on them
    expected = {}
    for report in (verify_instance(inst, ball_budget=1),
                   verify_lifted_instance(inst, budget=1)):
        assert report.all_passed
        expected.update((c.name, c.expected) for c in report.checks
                        if c.name in ("list_meets_claimed_bound",
                                      f"lifted_{inst.kind}_bound"))
    assert len(expected) == 2
    assert set(expected.values()) == {inst.claimed_bound} == {bound}


@pytest.mark.parametrize("build, args", [
    (build_explicit_instance, (3, 2, 1, 4, 4)),
    (build_explicit_instance, (2, 2, 2, 8, 8)),
    (build_counting_instance, (2, 4, 4, 1, 2)),
    (build_counting_instance, (3, 4, 4, 2, 2)),
])
def test_family_of_another_kind_or_shape_fails_both_bound_checks(build,
                                                                 args):
    # the bound holds only for the family the instance's kind builds:
    # pigeonhole for counting, (shifted) orbit for explicit, with q and n
    # of the code, and s, ell of that kind at that radius (a family's r is
    # its members' degree, which PolyFamily itself checks)
    inst = build(*args)
    fam = inst.family
    other = "orbit" if inst.kind == "counting" else "pigeonhole"
    forged = [dataclasses.replace(fam, kind=kind)
              for kind in (other, "subfield", "bogus")]
    forged += [dataclasses.replace(fam, params=dataclasses.replace(
        fam.params, **{key: getattr(fam.params, key) + step}))
        for key in ("q", "n", "g", "s", "ell") for step in (-1, 1)]
    for family in forged:
        bad = dataclasses.replace(inst, family=family)
        for report, name in (
                (verify_instance(bad, ball_budget=1),
                 "list_meets_claimed_bound"),
                (verify_lifted_instance(bad, budget=1),
                 f"lifted_{inst.kind}_bound")):
            assert _statuses(report)[name] == "fail", (family, name)
