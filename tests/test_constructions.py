"""Family constructions: subfield-linear, pigeonhole bucket, orbit family,
extension-field shifts, and the expanded pivot-family view."""

import random

import pytest

from ranklab import constructions
from ranklab.errors import (
    BudgetExceeded,
    DivisibilityViolation,
    InvariantViolation,
    NotASubfield,
    ParamMismatch,
    ZeroShift,
)
from ranklab.field import embed_serial, make_field
from ranklab.linpoly import (
    divides_check,
    expand,
    field_vanishing_poly,
    kernel,
)
from ranklab.constructions import (
    is_pivot_family,
    orbit_base_poly,
    orbit_poly_family,
    orbit_representatives,
    pigeonhole_subfamily,
    shift_family,
    subfield_linear_family,
)
from ranklab.subspace import (
    Subspace,
    enumerate_grassmannian,
    gaussian_binomial,
    orbit,
    rref_walk,
    subspace_polynomial,
    subspace_polynomial_product,
)

import reference

F16 = make_field(2, 4)
F64 = make_field(2, 6)


@pytest.mark.parametrize("q,n,r,g", [(2, 4, 2, 2), (2, 6, 2, 2),
                                     (2, 6, 3, 3), (3, 4, 2, 2)])
def test_subfield_family_size(q, n, r, g):
    fam = subfield_linear_family(q, n, r, g)
    assert len(fam) == gaussian_binomial(n // g, r // g, q ** g)


@pytest.mark.parametrize("q,n,r,g", [(2, 8, 4, 2), (2, 9, 3, 3),
                                     (3, 6, 2, 2), (5, 4, 2, 2)])
def test_subfield_family_is_the_gf_q_fold_in_walk_order(q, n, r, g):
    # one q^g-step per row gives the GF(q)-step fold's members, in the
    # same order: the pigeonhole bucket's codeword order, and so the
    # instance bytes, depend on it
    fam = subfield_linear_family(q, n, r, g)
    assert [m.coeffs for m in fam.members] == \
        reference.subfield_linear_fold(q, n, r, g)


def test_subfield_family_stride_structure():
    fam = subfield_linear_family(2, 4, 2, 2)
    for m in fam.members:
        assert m.coeff(1) == 0
        assert m.coeffs[-1] == 1 and m.q_degree == 2


def test_subfield_family_matches_pattern_scan():
    # the 5 subspaces of Gr_2(4,2) whose polynomial lives on the 2-stride
    # are exactly the family members
    fam = subfield_linear_family(2, 4, 2, 2)
    matching = {v for v in enumerate_grassmannian(F16, 2)
                if all(c == 0 for i, c in
                       enumerate(subspace_polynomial(v).coeffs) if i % 2)}
    assert len(matching) == 5
    assert {kernel(m, F16) for m in fam.members} == matching


@pytest.mark.parametrize("q,n,r,g", [(2, 4, 2, 2), (2, 6, 2, 2),
                                     (2, 6, 3, 3), (3, 4, 2, 2),
                                     (5, 4, 2, 2), (2, 6, 4, 2)])
def test_members_satisfy_all_three_subspace_poly_conditions(q, n, r, g):
    # and each member, grown along the walk, equals the product over the
    # elements of its kernel
    fam = subfield_linear_family(q, n, r, g)
    ambient = fam.spec
    vanishing = field_vanishing_poly(ambient)
    for m in fam.members:
        assert divides_check(m, vanishing)
        assert expand(m).count_roots() == q ** r
        assert kernel(m, ambient).dim == r
        assert m == subspace_polynomial_product(kernel(m, ambient))


def test_subfield_family_refuses_a_dependent_row(monkeypatch):
    # the walk's rows are independent; a walk that repeats a row must be
    # caught by the polynomial step, which replaced the dimension check,
    # before the family's size check could
    def fake_walk(n, depths, base):
        yield []
        yield [1]
        yield [1, 1]

    monkeypatch.setattr(constructions, "rref_walk", fake_walk)
    with pytest.raises(InvariantViolation, match="lies in the subspace"):
        subfield_linear_family(2, 8, 4, 2)


def test_subfield_family_divisibility_errors():
    with pytest.raises(DivisibilityViolation):
        subfield_linear_family(2, 6, 3, 2)   # 2 does not divide 3
    with pytest.raises(DivisibilityViolation):
        subfield_linear_family(2, 5, 2, 2)


def test_pigeonhole_refuses_a_dependent_row(monkeypatch):
    # a leaf is keyed without building its member, so a walk that repeats
    # a row must be caught where the row extends a polynomial, before any
    # leaf is counted or keyed
    def fake_walk(n, depths, base):
        yield []
        yield [1]
        yield [1, 1]

    monkeypatch.setattr(constructions, "rref_walk", fake_walk)
    with pytest.raises(InvariantViolation, match="lies in the subspace"):
        pigeonhole_subfamily(2, 8, 4, 2, 1)


def _line(ambient, sub, row, width):
    """The serial sum_j row_j gamma^j of a row over GF(q^g)."""
    h = 0
    for j in range(width):
        digit = row // sub.order ** j % sub.order
        h = ambient.add(h, ambient.mul(
            embed_serial(digit, sub, ambient),
            ambient.pow(ambient.generator_serial, j)))
    return h


@pytest.mark.parametrize("q,g,depth,width", [
    (2, 2, 1, 3), (2, 2, 2, 4), (2, 2, 3, 5), (2, 3, 1, 3), (2, 3, 2, 4),
    (2, 3, 3, 4), (3, 2, 1, 2), (3, 2, 2, 3), (3, 2, 3, 4), (3, 3, 1, 2),
    (3, 3, 2, 3)])
def test_family_parents_list_the_walk_leaves_in_order(q, g, depth, width):
    # the per-parent leaves, concatenated, are the depth-r/g leaves of the
    # full walk over GF(q^g), in its order: each parent is the subspace
    # polynomial of the leaf's first r/g - 1 rows, built here one GF(q)
    # basis vector at a time, and each factor is its value at the last
    # row's line to the power q^g - 1, which no two leaves of one parent
    # share
    n, r = g * width, g * depth
    ambient, parents = constructions._family_leaves(q, n, r, g)
    got = list(parents)
    sub = make_field(q, g)
    units = [embed_serial(q ** i, sub, ambient) for i in range(g)]
    expected, polys = [], {}
    for rows in rref_walk(width, range(depth, depth + 1), sub.order):
        if len(rows) < depth:
            continue
        head = tuple(rows[:-1])
        if head not in polys:
            lines = [_line(ambient, sub, row, width) for row in head]
            polys[head] = subspace_polynomial(Subspace(
                ambient, [ambient.mul(u, h) for h in lines for u in units]))
            expected.append((list(polys[head].coeffs[::g]), []))
        value = polys[head].evaluate_serial(
            _line(ambient, sub, rows[-1], width))
        expected[-1][1].append(ambient.pow(value, q ** g - 1))
    assert got == expected
    assert sum(len(factors) for _, factors in got) == \
        gaussian_binomial(width, depth, q ** g)
    for _, factors in got:
        assert len(set(factors)) == len(factors)
    if depth == 1:
        assert len(got) == 1 and got[0][0] == [1]


def test_pigeonhole_bucket_on_odd_q():
    # the counting route at q = 3 with a nonempty key; the odd-q cases of
    # test_pigeonhole_bucket_is_the_full_family_bucket have ell = 0 or a
    # degenerate window
    bucket = pigeonhole_subfamily(3, 8, 4, 2, 1)
    ref = reference.pigeonhole_bucket(subfield_linear_family(3, 8, 4, 2), 1)
    assert len(bucket) == 82
    assert bucket.members == ref.members
    assert bucket.mutual_top == ref.mutual_top


def test_pigeonhole_whole_family_at_ell_zero():
    bucket = pigeonhole_subfamily(2, 4, 2, 2, 0)
    assert len(bucket) == 5
    assert bucket.mutual_top == (1, 0)
    assert not bucket.degenerate


def test_pigeonhole_bucket_size_bound():
    assert len(subfield_linear_family(2, 8, 4, 2)) == 357
    bucket = pigeonhole_subfamily(2, 8, 4, 2, 1)
    assert len(bucket) >= -(-357 // 2 ** 8) == 2
    assert len(bucket) == 17  # observed; never assumed, only reproduced
    r, g = 4, 2
    for m in bucket.members:
        for i, c in enumerate(bucket.mutual_top):
            assert m.coeff(r - i) == c


def test_pigeonhole_degenerate_when_window_covers_everything():
    bucket = pigeonhole_subfamily(2, 6, 2, 2, 1)
    assert bucket.degenerate
    assert len(bucket) == 1


def test_pigeonhole_param_mismatch():
    with pytest.raises(ParamMismatch):
        pigeonhole_subfamily(2, 4, 2, 2, 1)


def test_pigeonhole_checks_the_family_before_its_fields():
    # as when the family was built first: its parameters and budget are
    # checked before ell and before GF(q^n), which has no modulus for n=40
    with pytest.raises(DivisibilityViolation):
        pigeonhole_subfamily(2, 6, 3, 2, 0)
    with pytest.raises(BudgetExceeded):
        pigeonhole_subfamily(2, 40, 20, 2, 9)


@pytest.mark.parametrize("q,n,r,g,ell", [
    (2, 8, 4, 2, 1), (2, 10, 6, 2, 1), (2, 12, 6, 3, 1),
    (3, 4, 2, 2, 0), (5, 4, 2, 2, 0), (2, 6, 4, 2, 0),
    (2, 6, 2, 2, 1), (3, 6, 2, 2, 1), (2, 8, 2, 2, 2)])
def test_pigeonhole_bucket_is_the_full_family_bucket(q, n, r, g, ell):
    # keys read off each leaf's parent pick the bucket that keying every
    # built member picks, in the same order: the instance bytes depend on
    # it; the last three are degenerate, and the last pads its key
    bucket = pigeonhole_subfamily(q, n, r, g, ell)
    ref = reference.pigeonhole_bucket(subfield_linear_family(q, n, r, g),
                                      ell)
    assert bucket.members == ref.members
    assert bucket.mutual_top == ref.mutual_top
    assert bucket.degenerate == ref.degenerate
    assert bucket.params == ref.params and bucket.kind == ref.kind


def test_orbit_base_poly_small():
    p = orbit_base_poly(2, 2, 1, 2)
    assert p.spec == F16 and p.coeffs == (1, 0, 1)
    assert divides_check(p, field_vanishing_poly(F16))


def test_orbit_base_poly_gf64():
    p = orbit_base_poly(2, 2, 1, 4)
    assert p.coeffs == (1, 0, 1, 0, 1)
    assert kernel(p, F64).dim == 4
    assert divides_check(p, field_vanishing_poly(F64))


def test_orbit_base_poly_divisibility_error():
    with pytest.raises(DivisibilityViolation):
        orbit_base_poly(2, 2, 1, 3)


def test_orbit_representatives_gf16():
    reps = orbit_representatives(F16, 2)
    g = F16.generator_serial
    assert reps == [F16.pow(g, i) for i in range(5)]
    # pairwise in distinct shifts: (gamma^i/gamma^j)^(q^gs - 1) != 1
    for i in range(5):
        for j in range(5):
            if i != j:
                ratio = F16.mul(reps[i], F16.inv(reps[j]))
                assert F16.pow(ratio, 3) != 1


def test_orbit_representatives_whole_field():
    assert orbit_representatives(F16, 4) == [1]
    with pytest.raises(DivisibilityViolation):
        orbit_representatives(F16, 3)


def test_orbit_family_gf16():
    fam = orbit_poly_family(2, 2, 1, 2)
    assert len(fam) == 5
    assert fam.members[0] == orbit_base_poly(2, 2, 1, 2)
    kernels = sorted(({kernel(m, F16) for m in fam.members}),
                     key=lambda s: s.basis)
    assert kernels == orbit(kernel(fam.members[0], F16))


def test_orbit_family_checks_every_member_kernel(monkeypatch):
    # GF(2^10) has 341 members, enough that a seeded sample of 8 of them
    # used to stand for all: one wrong member outside that sample must
    # still fail the build.  It is the right one plus x, so it stays monic
    # of q-degree r, keeps the mutual top and repeats no member: only its
    # roots give it away, however the build checks them
    ambient = make_field(2, 10)
    reps = orbit_representatives(ambient, 2)
    assert len(reps) == 341
    sampled = set(random.Random(0).sample(range(341), 8))
    bad = min(set(range(1, 341)) - sampled)
    right = orbit_poly_family(2, 2, 1, 8).members
    wrong = (ambient.add(right[bad].coeffs[0], 1),) + right[bad].coeffs[1:]
    assert wrong not in {m.coeffs for m in right}
    poly = constructions.LinearizedPoly
    monkeypatch.setattr(constructions, "LinearizedPoly", lambda spec, c:
                        poly(spec, wrong if tuple(c) == right[bad].coeffs
                             else c))
    with pytest.raises(InvariantViolation, match="expected cyclic shift"):
        orbit_poly_family(2, 2, 1, 8)
    monkeypatch.undo()
    assert orbit_poly_family(2, 2, 1, 8).members == right


@pytest.mark.parametrize("q,n,r,g", [(2, 4, 2, 2), (2, 6, 4, 2)])
def test_orbit_family_equals_subfield_family_for_s_one(q, n, r, g):
    zf = orbit_poly_family(q, g, 1, r)
    cf = subfield_linear_family(q, n, r, g)
    assert len(zf) == (q ** n - 1) // (q ** g - 1) == len(cf)
    ambient = zf.spec
    assert {kernel(m, ambient) for m in zf.members} == \
        {kernel(m, ambient) for m in cf.members}
    # and the polynomial sets coincide (polynomials are canonical per kernel)
    assert set(zf.members) == set(cf.members)


def test_shift_family_identity():
    zf = orbit_poly_family(2, 2, 1, 2)
    same = shift_family(zf, 1, F16)
    assert same.members == zf.members
    assert same.kind == zf.kind
    assert same.mutual_top == zf.mutual_top


def test_shift_family_into_extension():
    zf = orbit_poly_family(2, 2, 1, 2)
    f256 = make_field(2, 8)
    beta = f256.pow(f256.generator_serial, 7)
    shifted = shift_family(zf, beta, f256)
    assert len(shifted) == len(zf)
    assert shifted.kind == "orbit_shifted"
    r = zf.params.r
    for old, new in zip(zf.members, shifted.members):
        for j in range(r + 1):
            expected = f256.mul(f256.pow(beta, 2 ** r - 2 ** j),
                                embed_serial(old.coeff(j), F16, f256))
            assert new.coeff(j) == expected
        assert kernel(new, f256).dim == r
    assert shifted.mutual_top == zf.mutual_top  # (1, 0) is shift-invariant


def test_shift_family_errors():
    zf = orbit_poly_family(2, 2, 1, 2)
    with pytest.raises(ZeroShift):
        shift_family(zf, 0, F16)
    with pytest.raises(NotASubfield):
        shift_family(zf, 1, F64)  # 4 does not divide 6


def test_pivot_family_of_expanded_orbit_family():
    zf = orbit_poly_family(2, 2, 1, 2)
    ok, pivot = is_pivot_family([expand(m) for m in zf.members], 4, 1)
    assert ok
    assert pivot.terms == {4: 1}  # x^4


def test_pivot_family_single_polynomial():
    p = expand(orbit_base_poly(2, 2, 1, 2))
    ok, pivot = is_pivot_family([p], p.count_roots(), 0)
    assert ok and pivot == p


def test_pivot_family_leading_disagreement():
    a = expand(orbit_base_poly(2, 2, 1, 2))              # x^4 + x
    b = a - a  # zero
    g = F16.generator_serial
    from ranklab.linpoly import OrdinaryPoly
    c = OrdinaryPoly(F16, {4: g, 1: 1})                  # gamma x^4 + x
    ok, pivot = is_pivot_family([a, c], 0, 1)
    assert not ok and pivot is None


def test_pivot_family_insufficient_roots():
    from ranklab.linpoly import OrdinaryPoly
    p = OrdinaryPoly(F16, {4: 1, 0: 1})  # x^4 + 1 = (x+1)^4: one root
    ok, _ = is_pivot_family([p], 4, 4)
    assert not ok
