"""Linearized polynomials: evaluation, associates, divisibility, kernels."""

import random

import pytest

from ranklab.errors import FieldMismatch, StrideViolation
from ranklab.field import TABLE_LIMIT, embed_serial, make_field
from ranklab.linpoly import (
    LinearizedPoly,
    OrdinaryPoly,
    divides_check,
    expand,
    field_vanishing_poly,
    kernel,
    q_associate_backward,
    q_associate_forward,
)
from ranklab.subspace import (
    Subspace,
    enumerate_grassmannian,
    subspace_polynomial,
)

import reference

F16 = make_field(2, 4)
F64 = make_field(2, 6)


def test_identity_polynomial():
    p = LinearizedPoly(F16, (1,))
    for x in F16.elements():
        assert p.evaluate_serial(x) == x


def test_subfield_vanishing():
    # x^[2] - x kills exactly the embedded GF(4)
    p = LinearizedPoly(F16, (F16.neg(1), 0, 1))
    f4 = make_field(2, 2)
    for a in f4.elements():
        assert p.evaluate_serial(embed_serial(a, f4, F16)) == 0


def test_frobenius_monomial():
    p = LinearizedPoly(F16, (0, 1))
    g = F16.generator_serial
    assert p.evaluate_serial(g) == F16.mul(g, g)


def test_evaluate_is_linear():
    rng = random.Random(3)
    for spec in (F16, make_field(3, 3)):
        q = spec.q
        for _ in range(25):
            coeffs = [rng.randrange(spec.order) for _ in range(4)]
            p = LinearizedPoly(spec, coeffs)
            u, v = rng.randrange(spec.order), rng.randrange(spec.order)
            a, b = rng.randrange(q), rng.randrange(q)
            lhs = p.evaluate_serial(spec.add(spec.mul(a, u), spec.mul(b, v)))
            rhs = spec.add(spec.mul(a, p.evaluate_serial(u)),
                           spec.mul(b, p.evaluate_serial(v)))
            assert lhs == rhs


def _power_sum(spec, coeffs, x, step):
    """sum_i coeffs[i] * pow(x, q^(step*i)), one power per index."""
    acc = 0
    for i, a in enumerate(coeffs):
        acc = spec.add(acc, spec.mul(a, spec.pow(x, spec.q ** (step * i))))
    return acc


@pytest.mark.parametrize("q, e, tables", [(2, 8, True), (3, 5, True),
                                           (2, 20, False), (3, 12, False)])
def test_sparse_evaluate_matches_the_power_sum(q, e, tables):
    # log tables up to TABLE_LIMIT, schoolbook above it; zero runs at the
    # bottom, in the middle and just below the top are each crossed by
    # one Frobenius power, at every step
    spec = make_field(q, e)
    assert (spec.order <= TABLE_LIMIT) == tables
    rng = random.Random(f"sparse:{q}:{e}")

    def nz():
        return rng.randrange(1, spec.order)

    shapes = [lambda: [], lambda: [0, 0, 0], lambda: [nz()],
              lambda: [0, 0, 0, nz()], lambda: [0, 0, nz(), nz()],
              lambda: [nz(), 0, 0, 0, nz()], lambda: [nz(), nz(), 0, 0, nz()],
              lambda: [nz(), 0, nz(), 0, 0, nz()],
              lambda: [nz() for _ in range(4)]]
    for step in (1, 2, 3):
        for shape in shapes:
            coeffs = shape()
            for x in (0, 1, nz(), nz()):
                assert spec.frobenius_sum(coeffs, x, step) == \
                    _power_sum(spec, coeffs, x, step), (step, coeffs, x)


def test_arithmetic_canonicalizes():
    p = LinearizedPoly(F16, (3, 0, 1))
    assert (p - p).is_zero
    # characteristic-2 cancellation: (x^[2] + x) + x = x^[2]
    a = LinearizedPoly(F16, (1, 0, 1))
    b = LinearizedPoly(F16, (1,))
    assert (a + b).coeffs == (0, 0, 1)
    with pytest.raises(FieldMismatch):
        a + LinearizedPoly(F64, (1,))


@pytest.mark.parametrize("q,e", [(2, 4), (3, 3), (5, 2)])
def test_add_and_sub_are_the_per_index_definition(q, e):
    # coefficient i of a +- b is a_i +- b_i, a missing one read as 0, and
    # the result is trimmed: unequal lengths and a full cancellation
    spec = make_field(q, e)
    rng = random.Random(q)

    def per_index(op, a, b):
        n = max(len(a.coeffs), len(b.coeffs))
        return LinearizedPoly(spec, [op(a.coeff(i), b.coeff(i))
                                     for i in range(n)])

    polys = [LinearizedPoly(spec, [rng.randrange(spec.order)
                                   for _ in range(length)] + [1])
             for length in (0, 1, 3, 3, 5)]
    polys.append(LinearizedPoly(spec, ()))
    for a in polys:
        for b in polys:
            assert (a + b).coeffs == per_index(spec.add, a, b).coeffs
            assert (a - b).coeffs == per_index(spec.sub, a, b).coeffs
        assert (a - a).coeffs == () and (a + (-a)).coeffs == ()
    # the top cancels and the rest does not: the trailing zeros go
    a = LinearizedPoly(spec, (1, 0, 0, 2, 1))
    b = LinearizedPoly(spec, (3, 0, 0, 0, 1))
    assert (a - b).coeffs == (spec.sub(1, 3), 0, 0, 2)
    other = make_field(3, 2) if q == 2 else F16
    with pytest.raises(FieldMismatch):
        a + LinearizedPoly(other, (1,))
    with pytest.raises(FieldMismatch):
        a - LinearizedPoly(other, (1,))


def test_q_degree_and_monic():
    assert LinearizedPoly(F16, ()).q_degree == -1
    p = LinearizedPoly(F16, (5, 0, 1))
    assert p.q_degree == 2 and p.coeffs[-1] == 1
    assert LinearizedPoly(F16, (5, 3)).coeffs[-1] != 1


def test_q_associate_monomial():
    ell = OrdinaryPoly(F16, {1: 1})  # x
    assert q_associate_forward(ell, 1) == LinearizedPoly(F16, (0, 1))


def test_q_associate_stride_two():
    ell = OrdinaryPoly(F16, {0: 1, 1: 1, 2: 1})  # x^2 + x + 1
    lin = q_associate_forward(ell, 2)
    assert lin.coeffs == (1, 0, 1, 0, 1)  # x^[4] + x^[2] + x


def test_q_associate_roundtrip():
    rng = random.Random(4)
    for _ in range(30):
        g = rng.randrange(1, 4)
        terms = {d: rng.randrange(1, F64.order)
                 for d in rng.sample(range(6), rng.randrange(1, 5))}
        ell = OrdinaryPoly(F64, terms)
        assert q_associate_backward(q_associate_forward(ell, g), g) == ell


def test_q_associate_stride_violation():
    lin = LinearizedPoly(F16, (1, 1))  # coefficient at index 1
    with pytest.raises(StrideViolation):
        q_associate_backward(lin, 2)


def test_divides_x_always():
    rng = random.Random(5)
    x = LinearizedPoly(F16, (1,))
    for _ in range(10):
        coeffs = [rng.randrange(F16.order) for _ in range(4)]
        p = LinearizedPoly(F16, coeffs)
        if p.is_zero:
            continue
        assert divides_check(x, p)


def test_stride_sum_divides_vanishing_poly():
    # sum_{i=0..1} x^[2i] divides x^[4] - x over GF(2^4)
    p = LinearizedPoly(F16, (1, 0, 1))
    assert divides_check(p, field_vanishing_poly(F16))


def test_divides_degree_comparison():
    g = F16.generator_serial
    p = LinearizedPoly(F16, (g, 1))       # x^[1] + gamma x
    q = LinearizedPoly(F16, (0, 1))       # x^[1]
    assert divides_check(p, q) is False


def test_divides_matches_associate_route():
    # prime-field-coefficient pairs: linearized divisibility equals
    # ordinary divisibility of the stride-1 associates
    rng = random.Random(6)
    for _ in range(40):
        c1 = [rng.randrange(2) for _ in range(rng.randrange(1, 4))] + [1]
        c2 = [rng.randrange(2) for _ in range(rng.randrange(1, 6))] + [1]
        l1, l2 = LinearizedPoly(F64, c1), LinearizedPoly(F64, c2)
        direct = divides_check(l1, l2)
        via_assoc = q_associate_backward(l1, 1).divides(
            q_associate_backward(l2, 1))
        assert direct == via_assoc


def test_kernel_of_identity_is_zero_space():
    k = kernel(LinearizedPoly(F16, (1,)), F16)
    assert k.dim == 0


def test_kernel_of_subfield_poly():
    p = LinearizedPoly(F16, (1, 0, 1))
    k = kernel(p, F16)
    assert k.dim == 2
    f4 = make_field(2, 2)
    assert sorted(k.elements()) == sorted(
        embed_serial(a, f4, F16) for a in f4.elements())


def test_kernel_roundtrip_full_grassmannian():
    for v in enumerate_grassmannian(F16, 2):
        assert kernel(subspace_polynomial(v), F16) == v


def _roots(poly, ambient):
    return sorted(kernel(poly, ambient).elements())


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (5, 2)])
def test_kernel_matches_the_scan_on_every_subspace_polynomial(q, n):
    f = make_field(q, n)
    for r in range(n + 1):
        for v in enumerate_grassmannian(f, r):
            p = subspace_polynomial(v)
            assert _roots(p, f) == reference.kernel_by_scan(p, f), v


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (5, 2)])
def test_kernel_matches_the_scan_on_random_polynomials(q, n):
    f = make_field(q, n)
    rng = random.Random(f"kernel:{q}:{n}")
    polys = [LinearizedPoly(f, ()), LinearizedPoly(f, (1,))]
    for _ in range(60):
        coeffs = [rng.randrange(f.order) if rng.random() < 0.6 else 0
                  for _ in range(rng.randrange(1, n + 3))]
        polys.append(LinearizedPoly(f, coeffs))
    assert kernel(polys[0], f) == Subspace(f, [f.q ** i for i in range(f.e)])
    assert kernel(polys[1], f).dim == 0
    for p in polys:
        assert _roots(p, f) == reference.kernel_by_scan(p, f), p


@pytest.mark.parametrize("q, n, m", [(2, 4, 8), (3, 2, 4)])
def test_kernel_matches_the_scan_over_an_extension(q, n, m):
    # subspace polynomials over GF(q^m) of spans of embedded GF(q^n)
    # elements and random GF(q^m) elements: their roots in GF(q^n) are the
    # span's meet with it, so every dimension turns up
    small, big = make_field(q, n), make_field(q, m)
    rng = random.Random(f"embedded:{q}:{n}:{m}")
    sizes = set()
    for _ in range(30):
        gens = [embed_serial(rng.randrange(small.order), small, big)
                for _ in range(rng.randrange(n + 1))]
        gens += [rng.randrange(big.order) for _ in range(rng.randrange(3))]
        p = subspace_polynomial(Subspace(big, gens))
        roots = _roots(p, small)
        assert roots == reference.kernel_by_scan(p, small), p
        sizes.add(len(roots))
    assert sizes == {q ** d for d in range(n + 1)}


def test_root_count_is_q_to_degree():
    # monic linearized polynomials with simple roots have q^r roots
    rng = random.Random(7)
    count = 0
    for v in enumerate_grassmannian(F64, 2):
        if rng.random() < 0.1:
            p = subspace_polynomial(v)
            assert expand(p).count_roots() == 4
            count += 1
    assert count > 10


def test_ordinary_divmod_roundtrip():
    a = OrdinaryPoly(F16, {0: 1, 1: 1, 2: 1})
    b = OrdinaryPoly(F16, {1: 3, 3: 1})
    prod_terms = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            prod_terms[d1 + d2] = F16.add(prod_terms.get(d1 + d2, 0),
                                          F16.mul(c1, c2))
    prod = OrdinaryPoly(F16, prod_terms)
    quo, rem = prod.divmod(b)
    assert rem.is_zero and quo == a
