"""Subspaces: canonical form, polynomials, shifts, orbits, the metric."""

import itertools
import random

import pytest

from ranklab.errors import (
    AmbientMismatch,
    BudgetExceeded,
    InvariantViolation,
    ZeroShift,
)
from ranklab.field import embed_serial, embedded_basis, make_field
from ranklab.linpoly import LinearizedPoly, field_vanishing_poly, kernel
from ranklab.subspace import (
    Subspace,
    cyclic_shift,
    enumerate_grassmannian,
    extend_polynomial,
    gaussian_binomial,
    intersection,
    orbit,
    rref_rows,
    rref_walk,
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
    assert subspace_polynomial(Subspace(F16, ())) == \
        LinearizedPoly(F16, (1,))


def test_embedded_subfield_polynomial():
    v = Subspace(F16, [1, 6, 7])  # the embedded GF(4)
    p = subspace_polynomial(v)
    assert p.coeffs == (1, 0, 1)  # x^[2] + x


def test_incremental_matches_product_form():
    v = Subspace(F16, [1, F16.generator_serial])
    assert subspace_polynomial(v) == subspace_polynomial_product(v)


def test_incremental_matches_product_form_on_odd_q():
    # every subspace of GF(3^3), GF(5^2) and GF(5^3): the signs of
    # P(b)^(q-1) matter only for odd q
    spaces = [v for q, n in ((3, 3), (5, 2), (5, 3))
              for r in range(n + 1)
              for v in enumerate_grassmannian(make_field(q, n), r)]
    assert len(spaces) == 28 + 8 + 64
    for v in spaces:
        assert subspace_polynomial(v) == subspace_polynomial_product(v), v


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (5, 2)])
def test_extend_polynomial_folds_to_subspace_polynomial(q, n):
    # any order of U's basis gives the same polynomial; a vector already
    # in the span so far (zero, a basis vector, a sum of two) is refused
    f = make_field(q, n)
    for r in range(1, n + 1):
        for v in enumerate_grassmannian(f, r):
            p = subspace_polynomial(v)
            for basis in itertools.permutations(v.basis):
                coeffs = [1]
                for b in basis:
                    coeffs = extend_polynomial(f, coeffs, b)
                assert LinearizedPoly(f, coeffs) == p
            inside = [0, *v.basis]
            if r >= 2:
                inside.append(f.add(v.basis[0], v.basis[1]))
            for b in inside:
                with pytest.raises(InvariantViolation):
                    extend_polynomial(f, list(p.coeffs), b)


@pytest.mark.parametrize("q, e", reference.TABLE_FIELDS)
def test_table_extension_step_matches_schoolbook(q, e):
    # zero coefficients below the top and zero runs, at steps 1 to 3; a
    # b with P(b) = 0 is refused
    spec = make_field(q, e)
    rng = random.Random(f"extend:{q}:{e}")

    def nz():
        return rng.randrange(2, spec.order)

    for step in (1, 2, 3):
        for coeffs in ([1], [nz(), 0, 1], [0, nz(), 0, 0, 1],
                       [nz(), nz(), nz(), 1]):
            for b in (0, 1, nz()):
                if reference.evaluate_schoolbook(spec, coeffs, b, step):
                    assert extend_polynomial(spec, coeffs, b, step) == \
                        reference.extend_schoolbook(spec, coeffs, b, step)
                else:
                    with pytest.raises(InvariantViolation):
                        extend_polynomial(spec, coeffs, b, step)


STEP_FIELDS = [(2, 2, 6), (2, 3, 9), (3, 2, 6), (3, 3, 9), (5, 2, 6),
               (5, 3, 6)]


def _lines(f, g, hs):
    """The GF(q)-basis u h of the GF(q^g)-span of hs, u the embedded
    basis of GF(q^g)."""
    return [f.mul(u, h) for h in hs
            for u in embedded_basis(make_field(f.q, g), f)]


@pytest.mark.parametrize("q, g, n", STEP_FIELDS)
def test_step_g_extension_folds_to_subspace_polynomial(q, g, n):
    # P^Q - P(h)^(Q-1) P, Q = q^g, grows the Q-linearized polynomial of a
    # GF(Q)-subspace into that of U + GF(Q)h: spread onto the g-stride it
    # is subspace_polynomial of the expanded GF(q)-basis; an h already in
    # the GF(Q)-span is refused
    f = make_field(q, n)
    rng = random.Random(f"step:{q}:{g}:{n}")
    for _ in range(6):
        hs, coeffs = [], [1]
        while len(hs) < n // g:
            h = rng.randrange(1, f.order)
            span = Subspace(f, _lines(f, g, hs + [h]))
            if span.dim < g * (len(hs) + 1):
                with pytest.raises(InvariantViolation):
                    extend_polynomial(f, coeffs, h, g)
                continue
            hs.append(h)
            coeffs = extend_polynomial(f, coeffs, h, g)
            spread = [0] * (g * len(hs) + 1)
            spread[::g] = coeffs
            assert LinearizedPoly(f, spread) == subspace_polynomial(span)
    assert LinearizedPoly(f, spread) == field_vanishing_poly(f)


@pytest.mark.parametrize("q, g, n", STEP_FIELDS)
def test_step_g_extension_refuses_a_subfield_multiple(q, g, n):
    # b = c h_1 + h_2 with c in GF(q^g) \ GF(q) lies in the GF(q^g)-span
    # of h_1, h_2 but not in their GF(q)-span, so only P(b) = 0 of the
    # q^g-step catches it
    f = make_field(q, n)
    sub = make_field(q, g)
    c = embed_serial(sub.generator_serial, sub, f)
    rng = random.Random(f"refuse:{q}:{g}:{n}")
    for _ in range(6):
        hs = [rng.randrange(1, f.order)]
        coeffs = extend_polynomial(f, [1], hs[0], g)
        with pytest.raises(InvariantViolation):
            extend_polynomial(f, coeffs, f.mul(c, hs[0]), g)
        assert not Subspace(f, hs).contains(f.mul(c, hs[0]))
        while len(hs) < 2:
            h = rng.randrange(1, f.order)
            if Subspace(f, _lines(f, g, hs + [h])).dim == 2 * g:
                hs.append(h)
        coeffs = extend_polynomial(f, coeffs, hs[1], g)
        b = f.add(f.mul(c, hs[0]), hs[1])
        assert not Subspace(f, hs).contains(b)
        with pytest.raises(InvariantViolation):
            extend_polynomial(f, coeffs, b, g)


def test_full_space_polynomial_is_vanishing_poly():
    p = subspace_polynomial(Subspace(F16, (1, 2, 4, 8)))
    assert p.coeffs == (1, 0, 0, 0, 1)  # x^[4] + x (q=2 signs)


def test_subspace_polynomial_has_no_size_limit():
    # the recursion costs O(r^2) field operations, so a 2^20-element
    # subspace needs no budget
    f = make_field(2, 20)
    full = Subspace(f, [f.q ** i for i in range(f.e)])
    assert subspace_polynomial(full) == field_vanishing_poly(f)


def test_kernel_roundtrip_gf64():
    for r in (2, 3):
        for v in enumerate_grassmannian(F64, r):
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
    for v in enumerate_grassmannian(F64, 2):
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
    assert len(orbit(Subspace(F16, (1, 2, 4, 8)))) == 1
    assert len(orbit(Subspace(F16, ()))) == 1


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
    assert full == [Subspace(F16, (1, 2, 4, 8))]


def test_enumerate_grassmannian_is_empty_outside_0_to_n():
    for r in (-2, -1, 5, 6):
        assert gaussian_binomial(4, r, 2) == 0
        assert list(enumerate_grassmannian(F16, r)) == []


def _digits(row, n, base):
    return tuple(row // base ** j % base for j in range(n))


# (n, base) with at most 15,000 RREF matrices of every depth: base 4 and
# 8 are the GF(q^g) scalars the subfield-linear family walks over
WALK_GRID = [(n, base) for base in (2, 3, 4, 5, 8) for n in range(6)
             if sum(gaussian_binomial(n, t, base) for t in range(n + 1))
             <= 15000]


@pytest.mark.parametrize("n, base", WALK_GRID)
def test_rref_walk_yields_each_matrix_once_after_its_parent(n, base):
    for lo in range(-1, n + 2):
        for hi in range(lo, n + 3):
            depths = range(lo, hi)
            nodes = [tuple(rows) for rows in rref_walk(n, depths, base)]
            seen = set()
            for rows in nodes:
                assert rows not in seen
                assert not rows or rows[:-1] in seen
                seen.add(rows)
            leaves = [rows for rows in nodes if len(rows) in depths]
            for t in depths:
                assert sum(len(rows) == t for rows in leaves) \
                    == gaussian_binomial(n, t, base), (depths, t)
            # pruned: every node is on the path to a matrix in depths
            assert seen == {rows[:t] for rows in leaves
                            for t in range(len(rows) + 1)}, depths
            if hi == lo + 1 and 0 <= lo <= n:
                assert len(nodes) <= (lo + 1) * gaussian_binomial(n, lo,
                                                                   base)


@pytest.mark.parametrize("n, base", [(n, base) for n, base in WALK_GRID
                                     if base in (2, 3, 5)])
def test_rref_walk_matrices_are_reference_rref(n, base):
    for rows in rref_walk(n, range(n + 1), base):
        digits = [_digits(b, n, base) for b in rows]
        assert sorted(digits) == sorted(reference.rref(digits, base))


def test_rref_walk_lists_children_by_pivot_then_rightmost_fastest():
    # the order the family's members, and so the instance bytes, follow
    nodes = [tuple(rows) for rows in rref_walk(3, range(1, 2), 2)]
    assert nodes == [(), (1,), (5,), (3,), (7,), (2,), (6,), (4,)]
    nodes = [tuple(rows) for rows in rref_walk(3, range(2, 3), 3)]
    assert nodes[:8] == [(), (3,), (3, 1), (3, 10), (3, 19), (12,), (12, 1),
                         (12, 10)]


@pytest.mark.parametrize("n, base, pivots", [(4, 3, (4,)), (5, 2, (5, 3)),
                                             (4, 5, (4, 2)), (5, 4, (5,))])
def test_rref_rows_values_are_the_rows_and_their_images(n, base, pivots):
    # integer columns give the rows themselves, in product order over the
    # free columns left to right; columns of images under a Z-linear map
    # to Z/M give the rows' images, one add per row
    low = min(pivots)
    ints = [[c * base ** j for c in range(base)] for j in range(n)]
    rows = rref_rows(ints, pivots, 0, low)
    assert [p for p, _ in rows] == list(range(low))
    weights, m = [random.Random(n).randrange(1, 997) for _ in range(n)], 997
    images = [[c * w % m for c in range(base)] for w in weights]
    adds = []

    def add(a, b):
        adds.append(1)
        return (a + b) % m

    for (p, values), (_, imaged) in zip(
            rows, rref_rows(images, pivots, 0, low, add)):
        free = [j for j in range(p + 1, n) if j not in pivots]
        assert values == [base ** p + sum(c * base ** j
                                          for c, j in zip(digits, free))
                          for digits in itertools.product(range(base),
                                                          repeat=len(free))]
        assert imaged == [sum(d * w for d, w in
                              zip(_digits(row, n, base), weights)) % m
                          for row in values]
    assert len(adds) <= sum(len(v) for _, v in rows) * base / (base - 1)


def test_enumerate_grassmannian_distinct_and_budget():
    seen = {s.basis for s in enumerate_grassmannian(F64, 3)}
    assert len(seen) == gaussian_binomial(6, 3, 2) == 1395
    with pytest.raises(BudgetExceeded):
        list(enumerate_grassmannian(make_field(2, 24), 12))


def test_distance_axioms():
    assert subspace_distance(Subspace(F16, ()), Subspace(F16, ())) == 0
    a = Subspace(F16, [1])
    b = Subspace(F16, [2])
    assert subspace_distance(a, b) == 2  # distinct lines
    with pytest.raises(AmbientMismatch):
        subspace_distance(a, Subspace(F64, [1]))


def _reference_key(v):
    """v's basis as the reference rref of its digit rows, column j digit j:
    a sort key that does not depend on gfmatrix's pivot convention."""
    f = v.ambient
    return tuple(f.from_digits(r)
                 for r in reference.rref([f.digits(b) for b in v.basis], f.q))


def test_distance_two_routes_agree():
    rng = random.Random(12)
    spaces = sorted(enumerate_grassmannian(F64, 3), key=_reference_key)
    for _ in range(60):
        u, v = rng.choice(spaces), rng.choice(spaces)
        d1 = subspace_distance(u, v)
        stacked = reference.rank([F64.digits(b) for b in u.basis + v.basis],
                                 2)
        d2 = 2 * stacked - u.dim - v.dim
        assert d1 == d2


def test_distance_is_a_metric_on_samples():
    rng = random.Random(13)
    pool = sorted([*enumerate_grassmannian(F16, 1),
                   *enumerate_grassmannian(F16, 2)], key=_reference_key)
    for _ in range(80):
        u, v, w = (rng.choice(pool) for _ in range(3))
        duv = subspace_distance(u, v)
        assert duv >= 0
        assert duv == subspace_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= subspace_distance(u, w) + subspace_distance(w, v)


def test_intersection_is_contained_in_both():
    rng = random.Random(14)
    pool = sorted(enumerate_grassmannian(F64, 3), key=_reference_key)
    for _ in range(20):
        u, v = rng.choice(pool), rng.choice(pool)
        w = intersection(u, v)
        for el in w.elements():
            assert u.contains(el) and v.contains(el)
