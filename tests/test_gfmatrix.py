"""gfmatrix's matrix functions on its one packed elimination loop, checked
against the list-of-lists reference rref and brute force over GF(q)."""

import itertools
import random

import pytest

from ranklab import gfmatrix
from ranklab.field import make_field
from ranklab.subspace import Subspace

import reference

QS = (2, 3, 5)


def _matrix(rng, q, rows, cols, density=0.7):
    # entries outside [0, q) too: every function reads them mod q
    return [[rng.randrange(-q, 2 * q) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


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
                assert gfmatrix.rref(a, q) == reference.rref(a, q), a
                assert gfmatrix.rank(a, q) == reference.rank(a, q), a
    assert gfmatrix.rref([], q) == () == gfmatrix.rref([[0, 0], [0, 0]], q)
    assert gfmatrix.rank([], q) == 0 == gfmatrix.rank([[0] * 5] * 3, q)


@pytest.mark.parametrize("q", QS)
def test_rref_is_invariant_under_row_permutation_and_scaling(q):
    # the reduced echelon form is unique to the row space
    rng = random.Random(f"perm:{q}")
    for _ in range(100):
        a = _matrix(rng, q, rng.randrange(1, 7), rng.randrange(1, 9))
        r = gfmatrix.rref(a, q)
        scales = [rng.randrange(1, q) for _ in a]
        b = [[c * x for x in row] for row, c in zip(a, scales)]
        rng.shuffle(b)
        assert gfmatrix.rref(b, q) == r
        assert gfmatrix.rref(list(r) + a, q) == r
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


@pytest.mark.parametrize("q, n", [(2, 5), (3, 3), (5, 2)])
def test_intersection_and_contains_match_element_sets(q, n):
    rng = random.Random(f"meet:{q}:{n}")
    f = make_field(q, n)
    for _ in range(40):
        u, v = (Subspace.from_elements(
            f, [rng.randrange(f.order) for _ in range(rng.randrange(4))])
            for _ in range(2))
        eu, ev = _span(u.rows, q, n), _span(v.rows, q, n)
        meet = gfmatrix.intersection(u.rows, v.rows, q)
        assert meet == reference.rref(list(meet), q)
        assert _span(meet, q, n) == eu & ev
        for s in range(f.order):
            assert u.contains(s) == (f.digits(s) in eu)
