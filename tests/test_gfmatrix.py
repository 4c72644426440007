"""gfmatrix's packed functions on its one elimination loop, checked against
the list-of-lists reference rref and brute force over GF(q)."""

import itertools
import random

import pytest

from ranklab import gfmatrix
from ranklab.errors import InvariantViolation
from ranklab.field import make_field
from ranklab.subspace import Subspace

import reference

QS = (2, 3, 5)


def _matrix(rng, q, rows, cols, density=0.7):
    # entries outside [0, q) too: every function reads them mod q
    return [[rng.randrange(-q, 2 * q) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def _pack(row, q):
    """Row entries read mod q, column j as digit j."""
    return sum(x % q * q ** j for j, x in enumerate(row))


def _unpack(v, q, width):
    return tuple(v // q ** j % q for j in range(width))


def _span(rows, q, width):
    """Every vector of the row space, as tuples mod q."""
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        out.add(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % q
                      for j in range(width)))
    return out


@pytest.mark.parametrize("q", QS)
def test_rref_and_rank_match_the_reference(q):
    rng = random.Random(f"rref:{q}")
    shapes = [(0, 0), (1, 1), (1, 7), (7, 1), (3, 3), (2, 9), (9, 2),
              (6, 4), (4, 12), (12, 5)]
    for rows, cols in shapes:
        for density in (0.0, 0.3, 0.8):
            for _ in range(20):
                a = _matrix(rng, q, rows, cols, density)
                packed = [_pack(r, q) for r in a]
                assert gfmatrix.rref(packed, q) == tuple(
                    _pack(r, q) for r in reference.rref(a, q)), a
                assert len(gfmatrix.basis(packed, q)) \
                    == reference.rank(a, q), a
    assert gfmatrix.rref([], q) == () == gfmatrix.rref([0, 0], q)
    assert len(gfmatrix.basis([], q)) == 0 == len(gfmatrix.basis([0] * 3, q))


@pytest.mark.parametrize("q", QS)
def test_rref_is_invariant_under_row_permutation_and_scaling(q):
    # the reduced echelon form is unique to the row space
    rng = random.Random(f"perm:{q}")
    for _ in range(100):
        cols = rng.randrange(1, 9)
        a = _matrix(rng, q, rng.randrange(1, 7), cols)
        packed = [_pack(row, q) for row in a]
        r = gfmatrix.rref(packed, q)
        scales = [rng.randrange(1, q) for _ in a]
        b = [_pack([c * x for x in row], q) for row, c in zip(a, scales)]
        rng.shuffle(b)
        assert gfmatrix.rref(b, q) == r
        assert gfmatrix.rref(list(r) + packed, q) == r
        r = [_unpack(v, q, cols) for v in r]
        for row in r:
            pivot = next(i for i, x in enumerate(row) if x)
            assert row[pivot] == 1
            assert sum(other[pivot] != 0 for other in r) == 1


@pytest.mark.parametrize("q", QS)
def test_solve_matches_brute_force(q):
    rng = random.Random(f"solve:{q}")
    for _ in range(150):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = _matrix(rng, q, rows, cols, rng.choice((0.3, 0.8)))
        rhs = [rng.randrange(q) for _ in range(rows)]
        solutions = [x for x in itertools.product(range(q), repeat=cols)
                     if all(sum(u * v for u, v in zip(r, x)) % q == b
                            for r, b in zip(a, rhs))]
        x = gfmatrix.solve(a, rhs, q)
        if not solutions:
            assert x is None
            continue
        assert x in solutions
        # free variables are 0: the pivot columns carry the solution
        pivots = {next(i for i, v in enumerate(r) if v)
                  for r in reference.rref(a, q)}
        assert all(v == 0 for j, v in enumerate(x) if j not in pivots)
    assert gfmatrix.solve([], [], q) == ()
    assert gfmatrix.solve([[0, 0]], [1], q) is None


@pytest.mark.parametrize("q", QS)
def test_reduce_tagged_matches_brute_force(q):
    # the residue is linear in the target and zero exactly on the span,
    # whose coordinates the tags then hold, as coordinates() returns them
    rng = random.Random(f"tagged:{q}")
    width = 6 if q == 2 else 4
    for _ in range(40):
        vecs = [_pack(r, q) for r in _matrix(rng, q, rng.randrange(1, 4),
                                             width)]
        if reference.rank([_unpack(v, q, width) for v in vecs], q) \
                < len(vecs):
            with pytest.raises(InvariantViolation):
                gfmatrix.tagged_basis(vecs, q)
            continue
        span = {}
        for x in itertools.product(range(q), repeat=len(vecs)):
            span[_pack([sum(c * d for c, d in zip(x, col)) for col in zip(
                *(_unpack(v, q, width) for v in vecs))], q)] = _pack(x, q)
        tagged = gfmatrix.tagged_basis(vecs, q)
        for _ in range(12):
            s, t = (rng.randrange(q ** width) for _ in range(2))
            a = rng.randrange(q)
            combo = _pack([a * x + y for x, y in zip(_unpack(s, q, width),
                                                     _unpack(t, q, width))], q)
            (rs, xs), (rt, _), (rc, _) = (gfmatrix.reduce_tagged(tagged, v, q)
                                          for v in (s, t, combo))
            assert _unpack(rc, q, width) == tuple(
                (a * x + y) % q for x, y in zip(_unpack(rs, q, width),
                                                _unpack(rt, q, width)))
            assert (rs == 0) == (s in span)
            assert gfmatrix.coordinates(vecs, s, q) == span.get(s)
            if s in span:
                assert xs == span[s]


@pytest.mark.parametrize("q, n", [(2, 5), (3, 3), (5, 2)])
def test_intersection_and_contains_match_element_sets(q, n):
    rng = random.Random(f"meet:{q}:{n}")
    f = make_field(q, n)
    for _ in range(40):
        u, v = (Subspace(
            f, [rng.randrange(f.order) for _ in range(rng.randrange(4))])
            for _ in range(2))
        eu, ev = (_span([f.digits(b) for b in w.basis], q, n) for w in (u, v))
        meet = [f.digits(b)
                for b in gfmatrix.intersection(u.basis, v.basis, q)]
        assert tuple(meet) == reference.rref(meet, q)
        assert _span(meet, q, n) == eu & ev
        for s in range(f.order):
            assert u.contains(s) == (f.digits(s) in eu)


@pytest.mark.parametrize("q, n", [(2, 6), (3, 4), (5, 3)])
def test_subspace_basis_is_the_reference_rref_of_its_digit_rows(q, n):
    rng = random.Random(f"canon:{q}:{n}")
    f = make_field(q, n)
    for _ in range(60):
        elements = [rng.randrange(f.order) for _ in range(rng.randrange(6))]
        assert Subspace(f, elements).basis == tuple(
            f.from_digits(r)
            for r in reference.rref([f.digits(s) for s in elements], q))
