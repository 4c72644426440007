"""Field arithmetic: moduli, Frobenius, embeddings, both multiply paths."""

import itertools
import random

import pytest

from ranklab.errors import (
    NoModulusKnown,
    NotASubfield,
    NotIrreducible,
    NotPrime,
    NotPrimitive,
)
from ranklab.field import (
    TABLE_LIMIT,
    FieldSpec,
    embed_serial,
    embedded_basis,
    is_irreducible_rabin,
    is_irreducible_trial,
    make_field,
)

import reference


def test_prime_field_gf2():
    f = make_field(2, 1)
    assert f.modulus == (1, 1)  # x + 1
    assert f.order == 2
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.generator_serial == 1


def test_gf16_modulus_is_x4_x_1():
    f = make_field(2, 4)
    assert f.modulus == (1, 1, 0, 0, 1)
    assert is_irreducible_trial(f.modulus, 2)
    assert is_irreducible_rabin(f.modulus, 2)
    # x has full order 15
    g = f.generator_serial
    powers = {f.pow(g, i) for i in range(15)}
    assert len(powers) == 15


def test_non_prime_q_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 2)


def test_unknown_modulus_rejected():
    with pytest.raises(NoModulusKnown):
        make_field(7, 3)


def test_reducible_modulus_rejected():
    with pytest.raises(NotIrreducible):
        make_field(2, 4, modulus=(1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4


@pytest.mark.parametrize("q, e, modulus, message", [
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1; x^2 + 1 divides x^4 - 1
    (2, 4, (1, 1, 1, 1, 1), "x has order 5 < 15"),
    (3, 2, (1, 0, 1), "x has order 4 < 8")])
def test_irreducible_modulus_whose_x_is_not_primitive_is_rejected(
        q, e, modulus, message):
    with pytest.raises(NotPrimitive, match=message):
        make_field(q, e, modulus=modulus)


def test_supplied_modulus_works():
    # x^4 + x^3 + 1 is primitive over GF(2) as well
    f = make_field(2, 4, modulus=(1, 0, 0, 1, 1))
    assert f.mul(f.generator_serial, f.inv(f.generator_serial)) == 1


def test_fields_are_equal_by_q_degree_and_modulus():
    # one object is equal to itself, a second object of the same q, degree
    # and modulus is equal and hashes alike, and any other field or type
    # is not
    f = make_field(2, 4)
    twin = FieldSpec(2, 4, f.modulus)
    assert twin is not f
    assert f == f and f == twin and twin == f
    assert hash(f) == hash(twin)
    assert f != make_field(2, 4, modulus=(1, 0, 0, 1, 1))
    assert f != make_field(2, 2) and f != make_field(3, 4)
    assert f != (2, 4, f.modulus) and f != 16


def test_trial_and_rabin_agree():
    # every monic polynomial of degree 1..8 over GF(2), 1..5 over GF(3)
    # and 1..3 over GF(5): 1,028 moduli, reducible and irreducible
    count = 0
    for q, top in ((2, 8), (3, 5), (5, 3)):
        for e in range(1, top + 1):
            for low in itertools.product(range(q), repeat=e):
                mod = low + (1,)
                assert is_irreducible_trial(mod, q) \
                    == is_irreducible_rabin(mod, q), (q, mod)
                count += 1
    assert count == 1028


def test_frobenius_identity_and_orbit():
    f = make_field(2, 4)
    g = f.generator_serial
    assert f.frobenius(0, 1) == 0
    assert f.frobenius(g, 0) == g
    assert f.frobenius(g, 4) == g  # full-field orbit closes
    # squaring oracle: frobenius(gamma, 1) equals gamma * gamma
    assert f.frobenius(g, 1) == f.mul(g, g) == 4


def test_frobenius_is_prime_field_linear():
    rng = random.Random(1)
    for q, e in [(2, 4), (3, 3), (5, 2)]:
        f = make_field(q, e)
        for _ in range(30):
            x, y = rng.randrange(f.order), rng.randrange(f.order)
            a, b = rng.randrange(q), rng.randrange(q)
            i = rng.randrange(2 * e)
            lhs = f.frobenius(f.add(f.mul(a, x), f.mul(b, y)), i)
            rhs = f.add(f.mul(a, f.frobenius(x, i)),
                        f.mul(b, f.frobenius(y, i)))
            assert lhs == rhs


@pytest.mark.parametrize("q, e", reference.TABLE_FIELDS)
def test_table_frobenius_and_evaluation_match_schoolbook(q, e):
    # log[0] aliases log[1], so a zero x, zero coefficients and runs of
    # them each meet a missing zero guard; steps that are multiples of e
    # make every Frobenius power the identity
    spec = make_field(q, e)
    assert spec.order <= TABLE_LIMIT
    rng = random.Random(f"tables:{q}:{e}")

    def nz():
        return rng.randrange(2, spec.order)

    for a in (0, 1, nz(), nz()):
        for i in range(2 * e + 1):
            assert spec.frobenius(a, i) == \
                reference.pow_schoolbook(spec, a, q ** i), (a, i)
    shapes = [[], [0, 0], [nz()], [0, 0, nz()], [nz(), 0, 0, nz()],
              [nz(), nz(), 0, nz(), 0, 0, nz()]]
    for step in (1, 2, 3, e, 2 * e):
        for coeffs in shapes:
            for x in (0, 1, nz()):
                assert spec.frobenius_sum(coeffs, x, step) == \
                    reference.evaluate_schoolbook(spec, coeffs, x, step), \
                    (step, coeffs, x)


@pytest.mark.parametrize("q, e, tables", [
    (2, 8, True), (3, 5, True), (5, 3, True),
    (2, 17, False), (3, 11, False), (5, 7, False)])
def test_frobenius_sums_is_frobenius_sum_at_each_point(q, e, tables):
    # the multi-point kernel against the one-point one: zero points in
    # the middle and at both ends, repeated points, runs of zero
    # coefficients, no coefficients and no points
    spec = make_field(q, e)
    assert (spec.order <= TABLE_LIMIT) == tables
    rng = random.Random(f"sums:{q}:{e}")

    def nz():
        return rng.randrange(1, spec.order)

    shapes = [[], [0, 0], [nz()], [0, nz()], [nz(), 0, 0, nz()],
              [nz() for _ in range(5)]]
    points = [[], [0], [0, nz(), 0, 1, nz(), nz(), 0],
              [nz() for _ in range(6)], [1, 1, nz(), 0]]
    for step in (1, 2):
        for coeffs in shapes:
            for xs in points:
                assert spec.frobenius_sums(coeffs, xs, step) == [
                    spec.frobenius_sum(coeffs, x, step) for x in xs], \
                    (step, coeffs, xs)
    assert spec.frobenius_sums(shapes[-1], tuple(points[2])) == [
        spec.frobenius_sum(shapes[-1], x) for x in points[2]]


def test_embed_fixes_zero_and_one():
    src, dst = make_field(2, 2), make_field(2, 4)
    assert embed_serial(0, src, dst) == 0
    assert embed_serial(1, src, dst) == 1


def test_embed_gf4_generator_is_gamma5():
    src, dst = make_field(2, 2), make_field(2, 4)
    im = embed_serial(src.generator_serial, src, dst)
    assert im == dst.pow(dst.generator_serial, 5) == 6
    assert dst.mul(im, im) != 1
    assert dst.mul(dst.mul(im, im), im) == 1  # order-3 element


def test_embed_non_divisor_rejected():
    src, dst = make_field(2, 3), make_field(2, 4)
    with pytest.raises(NotASubfield):
        embed_serial(src.generator_serial, src, dst)


@pytest.mark.parametrize("q,n,m", [
    (2, 1, 4), (2, 2, 4), (2, 2, 6), (2, 2, 8), (2, 3, 6), (2, 4, 8),
    (3, 1, 2), (3, 2, 4), (5, 1, 2),
])
def test_embed_is_a_ring_homomorphism_exhaustive(q, n, m):
    src, dst = make_field(q, n), make_field(q, m)
    img = [embed_serial(a, src, dst) for a in src.elements()]
    assert len(set(img)) == src.order  # injective
    for a in src.elements():
        for b in src.elements():
            assert img[src.add(a, b)] == dst.add(img[a], img[b])
            assert img[src.mul(a, b)] == dst.mul(img[a], img[b])
    # identity on the prime field
    for c in range(q):
        assert img[c] == c


@pytest.mark.parametrize("q, e", [(2, 4), (3, 3), (5, 2)])
def test_embed_into_the_same_field_is_the_identity(q, e):
    f = make_field(q, e)
    powers = embedded_basis(f, f)
    for a in f.elements():
        digit_sum = 0
        for c, p in zip(f.digits(a), powers):
            digit_sum = f.add(digit_sum, f.mul(c, p))
        assert embed_serial(a, f, f) == a == digit_sum


def test_embed_transitive_through_tower():
    f2, f4, f8 = make_field(2, 2), make_field(2, 4), make_field(2, 8)
    for a in f2.elements():
        assert embed_serial(embed_serial(a, f2, f4), f4, f8) == \
            embed_serial(a, f2, f8)


@pytest.mark.parametrize("q,e", [(2, 10), (2, 12), (3, 6), (5, 4), (2, 20)])
def test_generator_has_full_multiplicative_order(q, e):
    f = make_field(q, e)
    n1 = f.order - 1
    g = f.generator_serial
    assert f.pow(g, n1) == 1
    for d in range(1, n1):
        if n1 % d == 0 and d < n1:
            assert f.pow(g, d) != 1 or d == n1


def test_mul_paths_agree():
    # the prime fields walk their log tables by the same multiply-by-x
    # step as the extensions, so every pair is checked there
    rng = random.Random(2)
    for q, e in [(2, 1), (3, 1), (5, 1), (2, 4), (2, 8), (3, 4), (5, 3)]:
        f = make_field(q, e)
        pairs = (itertools.product(range(f.order), repeat=2) if e == 1 else
                 [(rng.randrange(f.order), rng.randrange(f.order))
                  for _ in range(200)])
        for a, b in pairs:
            assert f.mul(a, b) == f._mul_schoolbook(a, b)


def test_serial_packing_roundtrip():
    f = make_field(3, 3)
    for s in f.elements():
        assert f.from_digits(f.digits(s)) == s
    assert f.from_digits((2, 1, 0)) == 2 + 1 * 3 == 5
    assert f.digits(5) == (2, 1, 0)


def test_field_inverses_exhaustive():
    for q, e in [(2, 4), (3, 2), (5, 2)]:
        f = make_field(q, e)
        for a in range(1, f.order):
            assert f.mul(a, f.inv(a)) == 1
    f = make_field(2, 4)
    g = f.generator_serial
    assert f.mul(g, f.pow(g, -1)) == 1
    assert f.add(g, g) == f.sub(g, g) == 0
    assert f.neg(g) == g  # characteristic 2
    f9 = make_field(3, 2)
    h = f9.generator_serial
    assert f9.add(f9.neg(h), h) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_modulus_table_env_override(tmp_path, monkeypatch):
    path = tmp_path / "mods.txt"
    path.write_text("2 2 1 1 1\n")
    monkeypatch.setenv("RANKLAB_MODULUS_TABLE", str(path))
    from ranklab.field import _table_modulus
    assert _table_modulus(2, 2) == (1, 1, 1)
    assert _table_modulus(2, 4) is None


def test_entire_modulus_table_constructs():
    # every entry passes its construction-time irreducibility check and,
    # within the order-verification budget, the primitivity check
    for q in (2, 3, 5):
        for e in range(1, 25):
            f = make_field(q, e)
            g = f.generator_serial
            assert f.mul(g, f.inv(g)) == 1
