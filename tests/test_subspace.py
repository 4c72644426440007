"""Subspaces: canonical form, polynomials, shifts, orbits, the metric."""

import random

import pytest

from ranklab.errors import AmbientMismatch, BudgetExceeded, ZeroShift
from ranklab.field import make_field
from ranklab.linpoly import LinearizedPoly, kernel
from ranklab.subspace import (
    Subspace,
    cyclic_shift,
    enumerate_grassmannian,
    gaussian_binomial,
    intersection,
    orbit,
    subspace_distance,
    subspace_polynomial,
    subspace_polynomial_product,
)

import reference

F16 = make_field(2, 4)
F64 = make_field(2, 6)


def test_canonical_form_ignores_generating_order():
    a = Subspace(F16, [2, 3, 1])
    b = Subspace(F16, [1, 3, 2, 0])
    assert a == b and hash(a) == hash(b)
    assert a.dim == 2


def test_elements_and_contains():
    v = Subspace(F16, [1, 6])
    els = set(v.elements())
    assert len(els) == 4
    for x in F16.elements():
        assert (x in els) == v.contains(x)


def test_zero_subspace_polynomial_is_x():
    assert subspace_polynomial(Subspace.zero(F16)) == \
        LinearizedPoly.identity(F16)


def test_embedded_subfield_polynomial():
    v = Subspace(F16, [1, 6, 7])  # the embedded GF(4)
    p = subspace_polynomial(v)
    assert p.coeffs == (1, 0, 1)  # x^[2] + x


def test_incremental_matches_product_form():
    v = Subspace(F16, [1, F16.generator_serial])
    assert subspace_polynomial(v) == subspace_polynomial_product(v)


def test_incremental_matches_product_form_on_odd_q():
    # every subspace of GF(3^3) and GF(5^2), and seeded lines and planes
    # of GF(5^3): the signs of P(b)^(q-1) matter only for odd q
    spaces = [v for q, n in ((3, 3), (5, 2))
              for r in range(n + 1)
              for v in enumerate_grassmannian(make_field(q, n), r)]
    assert len(spaces) == 28 + 8
    rng = random.Random(16)
    f125 = make_field(5, 3)
    for r in (1, 2):
        spaces += rng.sample(list(enumerate_grassmannian(f125, r)), 10)
    for v in spaces:
        assert subspace_polynomial(v) == subspace_polynomial_product(v), v


def test_full_space_polynomial_is_vanishing_poly():
    p = subspace_polynomial(Subspace.full(F16))
    assert p.coeffs == (1, 0, 0, 0, 1)  # x^[4] + x (q=2 signs)


def test_subspace_polynomial_budget():
    f = make_field(2, 20)
    with pytest.raises(BudgetExceeded):
        subspace_polynomial(Subspace.full(f))


def test_kernel_roundtrip_sampled_gf64():
    rng = random.Random(15)
    for r in (2, 3):
        pool = list(enumerate_grassmannian(F64, r))
        for v in rng.sample(pool, 12):
            assert kernel(subspace_polynomial(v), F64) == v


def test_cyclic_shift_by_one_and_inverse():
    v = Subspace(F64, [1, 2, 5])
    assert cyclic_shift(v, 1) == v
    a = 37
    assert cyclic_shift(cyclic_shift(v, a), F64.inv(a)) == v
    with pytest.raises(ZeroShift):
        cyclic_shift(v, 0)


def test_shift_identity_coefficient_form():
    # coefficient j of P_{aV} equals a^([r]-[j]) * (coefficient j of P_V)
    rng = random.Random(11)
    spaces = list(enumerate_grassmannian(F64, 2))
    for _ in range(50):
        v = rng.choice(spaces)
        a = rng.randrange(1, F64.order)
        p = subspace_polynomial(v)
        shifted = subspace_polynomial(cyclic_shift(v, a))
        r = v.dim
        q = F64.q
        for j in range(r + 1):
            factor = F64.pow(a, q ** r - q ** j)
            assert shifted.coeff(j) == F64.mul(factor, p.coeff(j))


def test_orbit_of_embedded_subfield():
    v = kernel(LinearizedPoly(F16, (1, 0, 1)), F16)
    o = orbit(v)
    assert len(o) == 5  # (2^4-1)/(2^2-1)
    assert all(s.dim == 2 for s in o)
    keys = [s.basis for s in o]
    assert keys == sorted(keys)


def test_orbit_of_full_space_is_singleton():
    assert len(orbit(Subspace.full(F16))) == 1
    assert len(orbit(Subspace.zero(F16))) == 1


def test_orbit_size_with_low_coefficient():
    # any V in Gr_2(4,2) whose polynomial has a nonzero coefficient at [1]
    # has a full orbit of 15 = (2^4-1)/(2^1-1)
    found = False
    for v in enumerate_grassmannian(F16, 2):
        if subspace_polynomial(v).coeff(1) != 0:
            assert len(orbit(v)) == 15
            found = True
            break
    assert found


@pytest.mark.parametrize("n", [4, 6])
def test_orbit_sizes_have_subfield_form(n):
    f = make_field(2, n)
    for r in range(n + 1):
        for v in enumerate_grassmannian(f, r):
            size = len(orbit(v))
            assert any(n % t == 0 and size * (2 ** t - 1) == 2 ** n - 1
                       for t in range(1, n + 1))


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 4) == 357
    assert gaussian_binomial(3, 1, 4) == 21
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(5, 7, 2) == 0


def test_gaussian_binomial_symmetry_and_sandwich():
    for q in (2, 3):
        for n in range(1, 11):
            for r in range(n + 1):
                v = gaussian_binomial(n, r, q)
                assert v == gaussian_binomial(n, n - r, q)
                assert q ** (r * (n - r)) <= v <= 4 * q ** (r * (n - r))


def test_enumerate_grassmannian_counts():
    assert sum(1 for _ in enumerate_grassmannian(F16, 2)) == 35
    assert [s.dim for s in enumerate_grassmannian(F16, 0)] == [0]
    full = list(enumerate_grassmannian(F16, 4))
    assert full == [Subspace.full(F16)]


def test_enumerate_grassmannian_distinct_and_budget():
    seen = {s.basis for s in enumerate_grassmannian(F64, 3)}
    assert len(seen) == gaussian_binomial(6, 3, 2) == 1395
    with pytest.raises(BudgetExceeded):
        list(enumerate_grassmannian(make_field(2, 24), 12, budget=100))


def test_distance_axioms():
    assert subspace_distance(Subspace.zero(F16), Subspace.zero(F16)) == 0
    a = Subspace(F16, [1])
    b = Subspace(F16, [2])
    assert subspace_distance(a, b) == 2  # distinct lines
    with pytest.raises(AmbientMismatch):
        subspace_distance(a, Subspace(F64, [1]))


def test_distance_two_routes_agree():
    rng = random.Random(12)
    spaces = list(enumerate_grassmannian(F64, 3))
    for _ in range(60):
        u, v = rng.choice(spaces), rng.choice(spaces)
        d1 = subspace_distance(u, v)
        stacked = reference.rank([F64.digits(b) for b in u.basis + v.basis],
                                 2)
        d2 = 2 * stacked - u.dim - v.dim
        assert d1 == d2


def test_distance_is_a_metric_on_samples():
    rng = random.Random(13)
    pool = list(enumerate_grassmannian(F16, 1)) + \
        list(enumerate_grassmannian(F16, 2))
    for _ in range(80):
        u, v, w = (rng.choice(pool) for _ in range(3))
        duv = subspace_distance(u, v)
        assert duv >= 0
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)


def test_intersection_is_contained_in_both():
    rng = random.Random(14)
    pool = list(enumerate_grassmannian(F64, 3))
    for _ in range(20):
        u, v = rng.choice(pool), rng.choice(pool)
        w = intersection(u, v)
        for el in w.elements():
            assert u.contains(el) and v.contains(el)
