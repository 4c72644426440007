"""Family constructions: subfield-linear, pigeonhole bucket, orbit family,
extension-field shifts, and the expanded pivot-family view."""

import pytest

from ranklab.errors import (
    DivisibilityViolation,
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
    enumerate_grassmannian,
    gaussian_binomial,
    orbit,
    subspace_polynomial,
)

F16 = make_field(2, 4)
F64 = make_field(2, 6)


@pytest.mark.parametrize("q,n,r,g", [(2, 4, 2, 2), (2, 6, 2, 2),
                                     (2, 6, 3, 3), (3, 4, 2, 2)])
def test_subfield_family_size(q, n, r, g):
    fam = subfield_linear_family(q, n, r, g)
    assert len(fam) == gaussian_binomial(n // g, r // g, q ** g)


def test_subfield_family_stride_structure():
    fam = subfield_linear_family(2, 4, 2, 2)
    for m in fam.members:
        assert m.coeff(1) == 0
        assert m.is_monic and m.q_degree == 2


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
                                     (2, 6, 3, 3), (3, 4, 2, 2)])
def test_members_satisfy_all_three_subspace_poly_conditions(q, n, r, g):
    fam = subfield_linear_family(q, n, r, g)
    ambient = fam.spec
    vanishing = field_vanishing_poly(ambient)
    for m in fam.members:
        assert divides_check(m, vanishing)
        assert expand(m).count_roots() == q ** r
        assert kernel(m, ambient).dim == r


def test_subfield_family_divisibility_errors():
    with pytest.raises(DivisibilityViolation):
        subfield_linear_family(2, 6, 3, 2)   # 2 does not divide 3
    with pytest.raises(DivisibilityViolation):
        subfield_linear_family(2, 5, 2, 2)


def test_pigeonhole_whole_family_at_ell_zero():
    fam = subfield_linear_family(2, 4, 2, 2)
    bucket = pigeonhole_subfamily(fam, 0)
    assert len(bucket) == 5
    assert bucket.mutual_top == (1, 0)
    assert not bucket.degenerate


def test_pigeonhole_bucket_size_bound():
    fam = subfield_linear_family(2, 8, 4, 2)
    assert len(fam) == 357
    bucket = pigeonhole_subfamily(fam, 1)
    assert len(bucket) >= -(-357 // 2 ** 8) == 2
    assert len(bucket) == 17  # observed; never assumed, only reproduced
    r, g = 4, 2
    for m in bucket.members:
        for i, c in enumerate(bucket.mutual_top):
            assert m.coeff(r - i) == c


def test_pigeonhole_degenerate_when_window_covers_everything():
    fam = subfield_linear_family(2, 6, 2, 2)
    bucket = pigeonhole_subfamily(fam, 1)
    assert bucket.degenerate
    assert len(bucket) == 1


def test_pigeonhole_param_mismatch():
    fam = subfield_linear_family(2, 4, 2, 2)
    with pytest.raises(ParamMismatch):
        pigeonhole_subfamily(fam, 1)
    zf = orbit_poly_family(2, 2, 1, 2)
    with pytest.raises(ParamMismatch):
        pigeonhole_subfamily(zf, 0)


def test_orbit_base_poly_small():
    p = orbit_base_poly(2, 2, 1, 2)
    assert p.spec == F16 and p.coeffs == (1, 0, 1)
    assert divides_check(p, field_vanishing_poly(F16))


def test_orbit_base_poly_gf64():
    p = orbit_base_poly(2, 2, 1, 4)
    assert p.coeffs == (1, 0, 1, 0, 1)
    assert kernel(p, F64).dim == 4


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
                ratio = F16.div(reps[i], reps[j])
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
