"""gfmatrix's packed functions on its one elimination loop, checked against
the list-of-lists reference rref and brute force over GF(q)."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from ranklab import gfmatrix
from ranklab.errors import InvariantViolation
from ranklab.field import make_field
from ranklab.subspace import Subspace, rref_walk

import reference

QS = (2, 3, 5, 7)


def _matrix(rng, q, rows, cols, density=0.7):
    # entries outside [0, q) too: every function reads them mod q
    return [[rng.randrange(-q, 2 * q) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def _pack(row, q):
    """Row entries read mod q, column j as digit j."""
    return sum(x % q * q ** j for j, x in enumerate(row))


def _unpack(v, q, width):
    return tuple(v // q ** j % q for j in range(width))


def _reference_rref(rows, q):
    """rref()'s canonical form from the reference loop: a pivot is a top
    digit, so reverse the columns, take the reference rref, reverse each
    row back and pack it, in ascending order."""
    return tuple(sorted(_pack(r[::-1], q) for r in reference.rref(
        [tuple(row)[::-1] for row in rows], q)))


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
                assert gfmatrix.rref(packed, q) == _reference_rref(a, q), a
                assert len(gfmatrix.basis(packed, q)) \
                    == reference.rank(a, q), a
    # every digit q - 1 below a top digit of 1 or q - 1: a row operation
    # between two rows with top digit 1 at one key reaches q(q - 1), the
    # largest value a stored digit holds before it is reduced mod q; at 12
    # digits a q = 5 row spans 72 bits
    for cols in (1, 2, 5, 12):
        worst = [[q - 1] * (j - 1) + [top] + [0] * (cols - j)
                 for j in range(1, cols + 1) for top in (1, q - 1, 1)]
        for a in (worst, worst[::-1], worst[1::3] + worst[::3]):
            packed = [_pack(r, q) for r in a]
            assert gfmatrix.rref(packed, q) == _reference_rref(a, q), a
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
            pivot = max(i for i, x in enumerate(row) if x)
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
    # whose coordinates the tags then hold
    # wide targets have nonzero digits above every key of the tagged basis
    # too: 8 digits above the vectors', 72 bits and more on q = 5
    rng, wide = random.Random(f"tagged:{q}"), random.Random(f"wide:{q}")
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
            if s in span:
                assert xs == span[s]
        for _ in range(4):
            s, t = (wide.randrange(q ** width, q ** (width + 8))
                    for _ in range(2))
            a = wide.randrange(q)
            combo = _pack([a * x + y for x, y in zip(
                _unpack(s, q, width + 8), _unpack(t, q, width + 8))], q)
            rs, rt, rc = (gfmatrix.reduce_tagged(tagged, v, q)[0]
                          for v in (s, t, combo))
            assert _unpack(rc, q, width + 8) == tuple(
                (a * x + y) % q for x, y in zip(_unpack(rs, q, width + 8),
                                                _unpack(rt, q, width + 8)))
            assert rs and rs // q ** width == s // q ** width


@pytest.mark.parametrize("q", QS)
def test_tag_reads_coordinates_at_an_offset(q):
    # the layout the supports walk eliminates: two groups of vectors,
    # tagged at digits first + j of t tag digits, the second group at
    # an offset; every key stays above t where the vectors are
    # independent, and a target * q^t reduces below q^t exactly on their
    # span, its digit first + j then reading x_j
    rng = random.Random(f"tag:{q}")
    width = 6 if q == 2 else 4
    for _ in range(30):
        rows = _matrix(rng, q, rng.randrange(1, 5), width)
        vecs = [_pack(r, q) for r in rows]
        split = rng.randrange(len(vecs) + 1)
        gap = rng.randrange(3)
        t = len(vecs) + gap + rng.randrange(3)
        spread = [gfmatrix._spread(v, q) for v in vecs]
        cols = gfmatrix._tag(spread[:split], 0, t, q) \
            + gfmatrix._tag(spread[split:], split + gap, t, q)
        ech = {}
        gfmatrix._eliminate(cols, ech, q)
        if reference.rank([_unpack(v, q, width) for v in vecs], q) \
                < len(vecs):
            assert min(ech) <= t
            continue
        assert min(ech) > t
        span = {}
        for x in itertools.product(range(q), repeat=len(vecs)):
            span[_pack([sum(c * d for c, d in zip(x, col)) for col in zip(
                *rows)], q)] = x
        floor = gfmatrix._spread(q ** t, q)
        for _ in range(12):
            s = rng.randrange(q ** width)
            r = gfmatrix._reduce(gfmatrix._spread(s * q ** t, q), ech, q)
            assert (r < floor) == (s in span)
            if s in span:
                digits = _unpack(gfmatrix._pack(r, q), q, t)
                x = span[s]
                assert [digits[j] for j in range(split)] == list(x[:split])
                assert [digits[split + gap + j]
                        for j in range(len(vecs) - split)] \
                    == list(x[split:])


def _combine(coeffs, vecs, q, width):
    """sum_i coeffs[i] vecs[i] over GF(q), packed base q."""
    return _pack([sum(c * d for c, d in zip(coeffs, col))
                  for col in zip(*(_unpack(v, q, width) for v in vecs))], q)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_tagged_walk_solves_at_every_node_against_brute_force(q):
    # n unit rows with w images each, all n w independent, so every node
    # of an RREF walk has independent vectors; x at each node against the
    # spans of all its vectors, on rref_walk with t = w depth and with
    # spare tag digits, and on a prefixed walk that is no RREF walk: a
    # fixed first row e_0, then rref_walk's rows shifted up one digit,
    # whose first node extends the empty root it never yields
    rng = random.Random(f"tagged-walk:{q}")
    n, w, width = 3, 2, 6
    units = [[0] * w]
    while len(gfmatrix.basis([v for u in units for v in u], q)) < n * w:
        units = [[rng.randrange(q ** width) for _ in range(w)]
                 for _ in range(n)]

    def plain():
        return rref_walk(n, range(3), q)

    def prefixed():
        for rows in rref_walk(n - 1, range(2), q):
            yield [1, *(r * q for r in rows)]

    for walk, t in ((plain, 2 * w), (plain, 2 * w + 3), (prefixed, 2 * w)):
        nodes = [tuple(rows) for rows in walk()]
        spans = []
        for rows in nodes:
            vecs = [_combine(_unpack(b, q, n), [u[i] for u in units], q,
                             width) for b in rows for i in range(w)]
            spans.append({_combine(x, vecs, q, width): _pack(x, q)
                          for x in itertools.product(range(q),
                                                     repeat=len(vecs))})
        targets = [0] + [rng.randrange(q ** width) for _ in range(3)]
        targets += [rng.choice(list(rng.choice(spans))) for _ in range(6)]
        for target in targets:
            got = [(tuple(rows), x) for rows, x in gfmatrix.tagged_walk(
                walk(), units, target, t, q)]
            assert got == [(rows, span[target])
                           for rows, span in zip(nodes, spans)
                           if target in span], (walk.__name__, t, target)
    # the empty walk yields nothing; the root alone spans only 0
    assert list(gfmatrix.tagged_walk(iter(()), units, 0, 2 * w, q)) == []
    for target in (0, 1):
        assert list(gfmatrix.tagged_walk(
            rref_walk(n, range(1), q), units, target, 2 * w, q)) \
            == [([], 0)] * (target == 0)
    # row e_1's two vectors equal: the first node whose row has e_1 in it
    # raises, and a walk without one does not
    equal = [units[0], [units[1][0]] * w, units[2]]
    assert list(gfmatrix.tagged_walk(iter([[], [1]]), equal, 0, w, q)) \
        == [([], 0), ([1], 0)]
    with pytest.raises(InvariantViolation):
        list(gfmatrix.tagged_walk(rref_walk(n, range(2), q), equal, 0, w, q))
    # row e_1 shares a vector with row e_0: each row alone is independent,
    # the support {e_0, e_1} is not
    shared = [units[0], [units[0][0], units[1][1]], units[2]]
    walk = gfmatrix.tagged_walk(iter([[], [1], [q], [1, q]]), shared, 0,
                                2 * w, q)
    assert [next(walk) for _ in range(3)] == [([], 0), ([1], 0), ([q], 0)]
    with pytest.raises(InvariantViolation):
        next(walk)


def _reference_nullspace(cols, q, width):
    """A basis of {x : sum_i x_i cols[i] = 0}, one vector per free column
    of the reference rref of the matrix with columns cols."""
    t = len(cols)
    ech = reference.rref([[c[j] for c in cols] for j in range(width)], q)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    out = []
    for free in (j for j in range(t) if j not in pivots):
        x = [0] * t
        x[free] = 1
        for row, p in zip(ech, pivots):
            x[p] = -row[free] % q
        out.append(x)
    return out


@pytest.mark.parametrize("q", QS)
def test_nullspace_matches_the_reference(q):
    # independent and spanning the reference null space; tagged_basis
    # raises exactly when it is nonempty
    rng = random.Random(f"nullspace:{q}")
    width = 5 if q == 2 else 4
    cases = [[], [0], [0, 0, q + 1], [q ** j for j in range(width)]]
    cases += [[_pack(r, q) for r in _matrix(rng, q, rng.randrange(1, 8),
                                            width)] for _ in range(60)]
    for vecs in cases:
        got = [_unpack(x, q, len(vecs)) for x in gfmatrix.nullspace(vecs, q)]
        expected = _reference_nullspace([_unpack(v, q, width) for v in vecs],
                                        q, width)
        assert len(got) == len(expected), vecs
        assert reference.rref(got, q) == reference.rref(expected, q), vecs
        if got:
            with pytest.raises(InvariantViolation):
                gfmatrix.tagged_basis(vecs, q)
        else:
            gfmatrix.tagged_basis(vecs, q)


@pytest.mark.parametrize("q, n", [(2, 5), (3, 3), (5, 2)])
def test_intersection_and_contains_match_element_sets(q, n):
    rng = random.Random(f"meet:{q}:{n}")
    f = make_field(q, n)
    for _ in range(40):
        u, v = (Subspace(
            f, [rng.randrange(f.order) for _ in range(rng.randrange(4))])
            for _ in range(2))
        eu, ev = (_span([f.digits(b) for b in w.basis], q, n) for w in (u, v))
        packed = gfmatrix.intersection(u.basis, v.basis, q)
        meet = [f.digits(b) for b in packed]
        assert packed == _reference_rref(meet, q)
        assert _span(meet, q, n) == eu & ev
        for s in range(f.order):
            assert u.contains(s) == (f.digits(s) in eu)


@pytest.mark.parametrize("q, n", [(2, 6), (3, 4), (5, 3)])
def test_subspace_basis_is_the_reference_rref_of_its_digit_rows(q, n):
    rng = random.Random(f"canon:{q}:{n}")
    f = make_field(q, n)
    for _ in range(60):
        elements = [rng.randrange(f.order) for _ in range(rng.randrange(6))]
        assert Subspace(f, elements).basis == _reference_rref(
            [f.digits(s) for s in elements], q)


@pytest.mark.parametrize("q", QS)
def test_lane_elimination_matches_rank_gf2_in_every_lane(q):
    # lane L of vecs[i][p] is digit p of vector i in lane L: every mask
    # ge[r] of rank_lanes, r = 0..limit + 1, from a start basis and without
    # one, at every limit from -2 to the width + 1, against basis and the
    # reference rank of each lane's unpacked vectors; start and vecs stay
    # unchanged.  Some lanes
    # hold q - 1 in every digit but the top one, which is q - 1 or 1: two
    # such vectors with top digit 1 and one length take a reduction to
    # q(q - 1), its largest value.  Most lane counts are not powers of q
    rng = random.Random(19 if q == 2 else f"lanes:{q}")
    for _ in range(200):
        lanes = rng.randrange(1, 65)
        w = gfmatrix.lane_layout(lanes, q).w
        width = rng.randrange(1, 9 if q == 2 else 6)
        start = [rng.randrange(q ** width)
                 for _ in range(rng.choice((0, rng.randrange(1, 5))))]
        lens = [rng.randrange(width) for _ in range(rng.randrange(7))]
        top = {lane for lane in range(lanes) if rng.random() < 0.2}
        digits = [[[q - 1] * (n - 1) + [rng.choice((1, q - 1))] if n
                   and lane in top else [rng.randrange(q) for _ in range(n)]
                   for n in lens] for lane in range(lanes)]
        vecs = [[sum(digits[lane][i][p] << lane * w for lane in range(lanes))
                 for p in range(n)] for i, n in enumerate(lens)]
        kept = (list(start), [list(v) for v in vecs])
        ranks = []
        for lane in range(lanes):
            unpacked = [_pack(d, q) for d in digits[lane]]
            rank = len(gfmatrix.basis(start + unpacked, q))
            assert rank == reference.rank(
                [_unpack(v, q, width) for v in start + unpacked], q)
            ranks.append(rank)
        for limit in range(-2, width + 2):
            assert gfmatrix.rank_lanes(start, vecs, limit, lanes, q) == [
                sum(1 << lane * w for lane, r in enumerate(ranks) if r >= g)
                for g in range(max(limit, -1) + 2)]
        assert (start, vecs) == kept


@pytest.mark.parametrize("q", (2, 3, 5))
def test_rank_masks_from_one_to_many_lanes(q):
    # each lane's rank read off the masks of rank_lanes, the number of r
    # >= 1 whose mask holds it, against the reference rank of its vectors,
    # from a start basis and without one, in one lane up to thousands; the
    # lane ints are the to_lanes transpose of each lane's packed vectors,
    # each lane's below q^d for a d of its own, so that ranks vary
    rng = random.Random(f"masks:{q}")
    for lanes in (1, 2, 37, 3000):
        for with_start in (False, True):
            width = rng.randrange(2, 7 if q == 2 else 5)
            start = [rng.randrange(q ** width)
                     for _ in range(rng.randrange(1, 4) if with_start
                                    else 0)]
            count = rng.randrange(1, width + 2)
            caps = [q ** rng.randrange(width + 1) for _ in range(lanes)]
            packed = [[rng.randrange(cap) for _ in range(count)]
                      for cap in caps]
            vecs = [gfmatrix.to_lanes([row[i] for row in packed], width, q)
                    for i in range(count)]
            w = gfmatrix.lane_layout(lanes, q).w
            ge = gfmatrix.rank_lanes(start, vecs, width - 1, lanes, q)
            assert len(ge) == width + 1 and ge[0] == \
                gfmatrix.lane_layout(lanes, q).ones
            for lane, row in enumerate(packed):
                assert sum(g >> lane * w & 1 for g in ge[1:]) \
                    == reference.rank([_unpack(v, q, width)
                                       for v in start + row], q)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_to_lanes_is_the_digit_formula(q):
    # digit p of vector L in lane L of the p-th lane int, on the q = 2
    # string stride and the odd-q path alike; no vectors or no digits give
    # zero lanes, and a vector wider than width raises
    rng = random.Random(f"to-lanes:{q}")
    for count in (0, 1, 2, 9, 200):
        for width in (0, 1, 5, 13):
            vecs = [rng.randrange(q ** width) for _ in range(count)]
            w = gfmatrix.lane_layout(max(count, 1), q).w
            assert gfmatrix.to_lanes(vecs, width, q) == [
                sum(v // q ** p % q << lane * w
                    for lane, v in enumerate(vecs)) for p in range(width)]
    with pytest.raises(InvariantViolation):
        gfmatrix.to_lanes([1, q ** 4], 4, q)


def test_repunit_is_the_division_formula():
    # the doubling build against (2^(period copies) - 1) / (2^period - 1)
    for period in range(1, 9):
        for copies in range(41):
            assert gfmatrix._repunit(period, copies) \
                == ((1 << period * copies) - 1) // ((1 << period) - 1)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_wide_lane_layout_ones_and_tile_are_the_formula(q):
    # at 2^14 lanes, the width of a _lane_walk batch on q = 2: ones and a
    # tiled block of every period 2^i against the division formula
    lanes = 1 << 14
    lay = gfmatrix.LaneLayout(lanes, q)
    w = lay.w
    assert lay.ones == ((1 << w * lanes) - 1) // ((1 << w) - 1)
    assert lay.full == (1 << w * lanes) - 1
    rng = random.Random(f"tile:{q}")
    for i in range(15):
        period = 1 << i
        block = sum(rng.randrange(q) << w * j for j in range(period))
        assert lay.tile(block, period) == block * (
            ((1 << w * lanes) - 1) // ((1 << w * period) - 1))


@pytest.mark.parametrize("q", (2, 3, 5))
def test_lane_rank_counts_from_the_start_basis(q):
    # start spans rank r in every lane, and holds one dependent vector
    # too, so that the count starts at the rank of start, not its length:
    # at limit r - 2 and r - 1 (rank r > limit + 1 and = limit + 1) every
    # lane exceeds before any vector is read, and at limit r a lane
    # exceeds exactly where vecs add to the span, against basis()
    rng = random.Random(f"from-start:{q}")
    for _ in range(40):
        width = rng.randrange(3, 9 if q == 2 else 6)
        r = rng.randrange(2, width)
        tops = rng.sample(range(width), r)
        start = [q ** t + rng.randrange(q ** t) for t in tops]
        start.append(_pack([a + b for a, b in zip(
            _unpack(start[0], q, width), _unpack(start[1], q, width))], q))
        assert len(gfmatrix.basis(start, q)) == r
        lanes = rng.randrange(1, 40)
        lay = gfmatrix.lane_layout(lanes, q)
        count = rng.randrange(4)
        digits = [[[rng.randrange(q) for _ in range(width)]
                   for _ in range(count)] for _ in range(lanes)]
        vecs = [[sum(digits[lane][i][p] << lane * lay.w
                     for lane in range(lanes)) for p in range(width)]
                for i in range(count)]
        for limit in (r - 2, r - 1):
            assert gfmatrix.rank_lanes(start, vecs, limit, lanes, q) \
                == [lay.ones] * (limit + 2)
        ranks = [len(gfmatrix.basis(start + [_pack(d, q) for d in row], q))
                 for row in digits]
        if q == 2:
            assert ranks == [gfmatrix.rank_gf2(
                start + [_pack(d, 2) for d in row]) for row in digits]
        assert gfmatrix.rank_lanes(start, vecs, r, lanes, q)[-1] \
            == sum(1 << lane * lay.w for lane, k in enumerate(ranks) if k > r)


@pytest.mark.parametrize("q", (3, 5, 7))
def test_reduced_is_every_lane_below_q(q):
    # lanes of every value a w-bit field holds, the guard bit included
    rng = random.Random(f"reduced:{q}")
    w = gfmatrix.lane_layout(1, q).w
    for _ in range(2000):
        digits = [rng.randrange(1 << w) if rng.random() < 0.2
                  else rng.randrange(q) for _ in range(rng.randrange(1, 9))]
        v = sum(d << w * j for j, d in enumerate(digits))
        lay = gfmatrix.lane_layout((v.bit_length() + w - 1) // w, q)
        assert lay.reduced(v) == all(d < q for d in digits), digits


def test_digit_at_least_q_raises_at_once():
    # the digit 3 over GF(3) is a pivot 0 mod 3: stored as the zero vector
    # under key 1, it left the next _reduce at that key adding 0 forever.
    # A subprocess, so that a hang fails the test at its timeout
    script = (
        "from ranklab import gfmatrix\n"
        "from ranklab.errors import InvariantViolation\n"
        "ech = {}\n"
        "try:\n"
        "    gfmatrix._eliminate([3], ech, 3)\n"
        "except InvariantViolation:\n"
        "    print('raised', ech)\n"
        "else:\n"
        "    gfmatrix._reduce(1, ech, 3)\n")
    src = os.path.dirname(os.path.dirname(gfmatrix.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (0, "raised {}\n"), done.stderr
    for q in (3, 5):
        # a top digit 1 above a low digit q: no zero pivot, still refused
        w = gfmatrix.lane_layout(1, q).w
        with pytest.raises(InvariantViolation):
            gfmatrix._eliminate([1 << w | q], {}, q)
