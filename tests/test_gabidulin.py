"""Gabidulin codes: encoding, the rank metric, the ball oracle, puncturing,
and the bound calculators."""

import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ranklab.errors import (
    BadDimension,
    BudgetExceeded,
    ContextMismatch,
    DegreeTooHigh,
    InvariantViolation,
    NegativeDiscriminant,
    NotASubfield,
    RadiusTooLarge,
    TooManyPunctures,
)
from ranklab import gfmatrix
from ranklab.adversarial import (
    build_counting_instance,
    build_explicit_instance,
    code_from_dict,
    code_to_dict,
)
from ranklab.field import make_field, sub_digits
from ranklab.linpoly import LinearizedPoly
from ranklab.subspace import gaussian_binomial, rref_walk
from ranklab import gabidulin
from ranklab.gabidulin import (
    GabidulinCode,
    RankWord,
    _lane_walk,
    ball_by_lanes,
    ball_by_supports,
    codewords,
    encode,
    enumerate_ball,
    evaluate_word,
    exact_ball,
    johnson_like_radius,
    make_code,
    preimage_message,
    prior_counting_bound,
    puncture,
    puncture_word,
    punctured_radius_shift,
    rank_distance,
    rank_weight,
)

import reference


def test_make_code_parameters():
    code = make_code(2, 4, 4, 1)
    assert code.min_distance == 4
    code2 = make_code(2, 6, 6, 3)
    assert code2.min_distance == 4  # the scaled example family at g=2
    with pytest.raises(NotASubfield):
        make_code(2, 4, 6, 1)
    with pytest.raises(BadDimension):
        make_code(2, 4, 4, 5)


def test_any_independent_points_give_an_mrd_code():
    f = make_field(2, 4)
    code = GabidulinCode(field=f, n=4, k=2, beta=1, eval_points=(1, 2, 4, 8),
                         subfield_degree=4)
    minw = min(rank_weight(w) for w in codewords(code) if any(w.coords))
    assert minw == 3  # still MRD: any independent points work


def test_encode_zero_and_identity():
    code = make_code(2, 4, 4, 2)
    zero = encode(code, LinearizedPoly(code.field, ()))
    assert zero.coords == (0, 0, 0, 0)
    ident = encode(code, LinearizedPoly(code.field, (1,)))
    assert ident.coords == code.eval_points


def test_encode_degree_guard():
    code = make_code(2, 4, 4, 2)
    with pytest.raises(DegreeTooHigh):
        encode(code, LinearizedPoly(code.field, (0, 0, 1)))


def test_codewords_all_distinct():
    code = make_code(2, 4, 4, 2)
    seen = {w.coords for w in codewords(code)}
    assert len(seen) == 256 == code.size


# (q, n, m, k, punctured): q in {2, 3, 5}, m > n, and a punctured code,
# each small enough to walk in full
WALK_CODES = [(2, 4, 4, 2, 0), (3, 2, 2, 1, 0), (5, 2, 2, 1, 0),
              (2, 3, 6, 1, 0), (3, 2, 4, 1, 0), (2, 6, 6, 2, 3)]


def _lane_words(slices, lanes, q):
    """The word in each lane of a _lane_walk batch's slices."""
    w = gfmatrix.lane_layout(lanes, q).w
    return [tuple(sum((x >> lane * w & (1 << w) - 1) * q ** p
                      for p, x in enumerate(row)) for row in slices)
            for lane in range(lanes)]


@pytest.mark.parametrize("q, n, m, k, s", WALK_CODES)
def test_walk_visits_every_codeword_once_one_step_apart(monkeypatch, q, n, m,
                                                      k, s):
    rng = random.Random(f"walk:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field
    words = [w.coords for w in codewords(code)]
    assert len(words) == len(set(words)) == code.size == q ** (m * k)
    assert all(preimage_message(code, RankWord(f, w)) is not None
               for w in words)
    steps = set(code._basis_contributions)
    assert all(tuple(map(f.sub, b, a)) in steps
               for a, b in zip(words, words[1:]))
    # the lane walk holds every codeword once across its lanes, in batches
    # of q^b lanes, q^b <= 2^LANE_BITS: one lane at LANE_BITS = 1 on odd
    # q, several batches at 1 and 3, one batch where mk is smaller; lane L
    # of the first batch has L's base-q digits as its message digits, and
    # lane 0 of every batch holds the high part the batch yields.  Walked
    # with an offset, each batch yields the same lanes and high part and
    # holds c + offset in the lane of each codeword c
    offset = tuple(rng.randrange(f.order) for _ in range(code.n))
    for bits in (1, 3, gabidulin.LANE_BITS):
        monkeypatch.setattr(gabidulin, "LANE_BITS", bits)
        b = min(m * k, max(e for e in range(bits + 1) if q ** e <= 2 ** bits))
        assert gabidulin._lane_digits(code) == b
        batches, highs = [], []
        for (lanes, high, slices), moved in zip(_lane_walk(code),
                                                _lane_walk(code, offset)):
            batches.append(_lane_words(slices, lanes, q))
            highs.append(high)
            assert moved[:2] == (lanes, high)
            assert _lane_words(moved[2], lanes, q) == [
                tuple(map(f.add, c, offset)) for c in batches[-1]]
        assert all(len(batch) == q ** b for batch in batches)
        assert highs == [batch[0] for batch in batches]
        assert sorted(x for batch in batches for x in batch) == sorted(words)
        for lane, word in enumerate(batches[0]):
            expect = (0,) * code.n
            for i, c in enumerate(code._basis_contributions):
                for _ in range(lane // q ** i % q):
                    expect = tuple(map(f.add, expect, c))
            assert word == expect


def test_rank_weight_values():
    code = make_code(2, 4, 4, 2)
    f = code.field
    assert rank_weight(RankWord(f, (0, 0, 0, 0))) == 0
    basis = tuple(f.pow(f.generator_serial, i) for i in range(4))
    assert rank_weight(RankWord(f, basis)) == 4
    rep = tuple([f.generator_serial] * 4)
    assert rank_weight(RankWord(f, rep)) == 1


def test_rank_weight_generic_q():
    code = make_code(3, 2, 2, 1)
    f = code.field
    assert rank_weight(RankWord(f, (0, 0))) == 0
    assert rank_weight(RankWord(f, (1, 2))) == 1  # scalar multiples
    assert rank_weight(RankWord(f, (1, f.generator_serial))) == 2


def test_mrd_property_gab_4_2():
    code = make_code(2, 4, 4, 2)
    weights = [rank_weight(w) for w in codewords(code) if any(w.coords)]
    assert len(weights) == 255
    assert min(weights) == 3 == code.min_distance


@pytest.mark.parametrize("q,n,m,k", [
    (2, 4, 4, 1), (2, 4, 4, 3), (2, 3, 6, 2), (2, 6, 6, 3),
    (3, 2, 4, 1), (3, 4, 4, 2),
])
def test_mrd_property_across_enumerable_codes(q, n, m, k):
    code = make_code(q, n, m, k)
    minw = min(rank_weight(w) for w in codewords(code) if any(w.coords))
    assert minw == code.min_distance == n - k + 1


def test_linearity_sampled():
    code = make_code(2, 4, 4, 2)
    f = code.field
    rng = random.Random(21)
    words = list(codewords(code))
    coords = {w.coords for w in words}
    for _ in range(50):
        w1, w2 = rng.choice(words), rng.choice(words)
        s = tuple(f.add(a, b) for a, b in zip(w1.coords, w2.coords))
        assert s in coords
        c = rng.randrange(f.order)
        scaled = tuple(f.mul(c, a) for a in w1.coords)
        assert scaled in coords


def test_rank_distance_is_weight_of_difference():
    code = make_code(2, 6, 6, 3)
    f = code.field
    rng = random.Random(22)
    for _ in range(40):
        w1 = RankWord(f, tuple(rng.randrange(f.order) for _ in range(6)))
        w2 = RankWord(f, tuple(rng.randrange(f.order) for _ in range(6)))
        diff = RankWord(f, tuple(f.sub(a, b)
                                 for a, b in zip(w1.coords, w2.coords)))
        assert rank_distance(w1, w2) == rank_weight(diff)
        w3 = RankWord(f, tuple(rng.randrange(f.order) for _ in range(6)))
        assert rank_distance(w1, w2) <= \
            rank_distance(w1, w3) + rank_distance(w3, w2)


def test_context_mismatch():
    a = make_code(2, 4, 4, 1)
    b = make_code(2, 4, 8, 1)
    with pytest.raises(ContextMismatch):
        rank_distance(RankWord(a.field, (0,) * 4), RankWord(b.field, (0,) * 4))


def test_ball_tau_zero_and_full():
    code = make_code(2, 4, 4, 1)
    words = list(codewords(code))
    center = words[7]
    assert [w.coords for w in enumerate_ball(code, center, 0)] == \
        [center.coords]
    assert len(enumerate_ball(code, center, 4)) == 16


def test_ball_monotone_in_radius():
    code = make_code(2, 4, 4, 2)
    f = code.field
    center = RankWord(f, (1, 5, 9, 14))  # arbitrary non-codeword
    prev = set()
    for tau in range(5):
        cur = {w.coords for w in enumerate_ball(code, center, tau)}
        assert prev <= cur
        prev = cur


def test_ball_matches_naive_scan():
    # oracle cross-check: the ball against one built from the reference
    # rank of each difference, which each rank_distance must also match
    code = make_code(2, 4, 4, 2)
    cases = [(code, RankWord(code.field, (3, 0, 7, 12)), (1, 2, 3))]
    for q, n, m, k, s in WALK_CODES:
        rng = random.Random(f"ball:{q}:{n}:{m}:{k}:{s}")
        code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
        for _ in range(2):
            center = RankWord(code.field, tuple(
                rng.randrange(code.field.order) for _ in range(code.n)))
            cases.append((code, center, range(code.n + 1)))
    for code, center, taus in cases:
        f = code.field
        dist = {}
        for w in codewords(code):
            diff = map(f.sub, center.coords, w.coords)
            dist[w.coords] = reference.rank([f.digits(c) for c in diff],
                                            code.q)
            assert rank_distance(center, w) == dist[w.coords]
        for tau in taus:
            assert [w.coords for w in enumerate_ball(code, center, tau)] \
                == sorted(c for c, d in dist.items() if d <= tau)


def test_ball_generic_q():
    code = make_code(3, 2, 2, 1)
    center = RankWord(code.field, (0, 1))
    ball = enumerate_ball(code, center, 1)
    slow = [w for w in codewords(code) if rank_distance(center, w) <= 1]
    assert {w.coords for w in ball} == {w.coords for w in slow}


def test_ball_budget():
    code = make_code(2, 6, 6, 3)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(code, RankWord(code.field, (0,) * 6), 1, budget=100)


# (q, n, m, k, punctured) for the two ball oracles: q in {2, 3, 5}, m > n
# and punctured codes
ORACLE_CODES = [(2, 4, 4, 2, 0), (2, 3, 6, 1, 0), (2, 6, 6, 2, 3),
                (3, 3, 3, 1, 0), (3, 2, 4, 1, 0), (3, 4, 4, 2, 0),
                (5, 2, 2, 1, 0), (5, 2, 4, 1, 0), (5, 4, 4, 1, 2)]


def _oracle_centers(q, n, m, k, s):
    """The code of an ORACLE_CODES entry and four centers: two random
    words, a codeword plus an error of rank one, so that small radii are
    not empty, and that codeword itself, the center of every ball it is
    in."""
    rng = random.Random(f"supports:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field
    centers = [RankWord(f, tuple(rng.randrange(f.order)
                                 for _ in range(code.n)))
               for _ in range(2)]
    word = next(w for i, w in enumerate(codewords(code)) if i == 5)
    alpha = rng.randrange(1, f.order)
    centers.append(RankWord(f, tuple(f.add(c, f.mul(j % q, alpha))
                                     for j, c in enumerate(word.coords))))
    centers.append(word)
    return code, centers


@pytest.fixture(scope="module")
def reference_ball():
    """enumerate_ball, computed once per code, center and radius for the
    tests of this module that check another oracle against it on
    _oracle_centers; the ball is empty below radius 0 and the whole code
    from radius n on, the largest rank weight, so those two take no scan."""
    balls = {}

    def ball(code, center, tau):
        if tau < 0:
            return []
        if tau >= code.n:
            return sorted(codewords(code), key=lambda w: w.coords)
        key = (code, center, tau)
        if key not in balls:
            balls[key] = enumerate_ball(code, center, tau)
        return balls[key]
    return ball


@pytest.mark.parametrize("q, n, m, k, s", ORACLE_CODES)
def test_ball_by_supports_equals_enumerate_ball(reference_ball, q, n, m, k,
                                                s):
    code, centers = _oracle_centers(q, n, m, k, s)
    for center in centers:
        for tau in range(code.min_distance):
            assert ball_by_supports(code, center, tau) \
                == reference_ball(code, center, tau)


# ORACLE_CODES whose lane scan also runs at 2^LANE_BITS = 2 and 8: many
# batches, an odd b whose two tables of low-digit sums differ in size, and
# on odd q batches of one lane
SMALL_BATCH_CODES = {(2, 4, 4, 2, 0), (3, 2, 4, 1, 0), (5, 2, 2, 1, 0)}


@pytest.mark.parametrize("q, n, m, k, s", ORACLE_CODES)
def test_ball_by_lanes_equals_enumerate_ball(monkeypatch, reference_ball, q,
                                             n, m, k, s):
    # every radius from -1 to n, so also tau >= d and the whole code
    code, centers = _oracle_centers(q, n, m, k, s)
    bits = [gabidulin.LANE_BITS]
    if (q, n, m, k, s) in SMALL_BATCH_CODES:
        bits += [1, 3]
    for center in centers:
        for tau in range(-1, code.n + 1):
            ball = reference_ball(code, center, tau)
            for b in bits:
                monkeypatch.setattr(gabidulin, "LANE_BITS", b)
                assert ball_by_lanes(code, center, tau) == ball, (tau, b)


def test_lane_low_slices_are_built_once_per_code_and_b(monkeypatch):
    # _lane_walk's low slices depend on the code and b alone: a code object
    # builds them once per b, also when LANE_BITS changes between walks
    code = make_code(2, 4, 4, 2)
    lows = {}
    for bits in (3, gabidulin.LANE_BITS, 3, gabidulin.LANE_BITS):
        monkeypatch.setattr(gabidulin, "LANE_BITS", bits)
        b = gabidulin._lane_digits(code)
        for _ in range(2):
            assert len([batch for batch in _lane_walk(code)]) \
                == code.size // 2 ** b
            assert lows.setdefault(b, gabidulin._lane_low(code, b)) \
                is gabidulin._lane_low(code, b)
    assert set(code._lane_lows) == set(lows) == {3, 8}


@pytest.mark.parametrize("q, n, m, k, s",
                         [c for c in ORACLE_CODES if c[2] > c[1] - c[4]])
def test_ball_by_lanes_eliminates_the_shorter_side(monkeypatch,
                                                   reference_ball, q, n, m,
                                                   k, s):
    # the lane ball eliminates the m digit planes of c - center, each of
    # width n <= m, not its n coordinates of width m; on the five codes
    # with m > n, where the two differ, the transposed ball is the
    # reference's at every radius
    code, centers = _oracle_centers(q, n, m, k, s)
    assert code.m > code.n
    shapes = set()
    original = gfmatrix.rank_lanes

    def spy(start, vecs, *args):
        vecs = [list(v) for v in vecs]
        shapes.add((len(vecs), *{len(v) for v in vecs}))
        return original(start, vecs, *args)

    monkeypatch.setattr(gfmatrix, "rank_lanes", spy)
    for center in centers:
        for tau in range(code.n):
            assert ball_by_lanes(code, center, tau) \
                == reference_ball(code, center, tau)
    assert shapes == {(code.m, code.n)}


@pytest.mark.parametrize("q, n, m, k, s", [(2, 4, 4, 2, 0), (2, 3, 6, 1, 0),
                                           (3, 3, 3, 1, 0), (5, 2, 2, 1, 0)])
def test_enumerate_ball_is_one_rank_distance_per_codeword(monkeypatch, q, n,
                                                          m, k, s):
    # the reference has one body on every q: one rank_distance call per
    # codeword, and no early-exit GF(2) rank test on q = 2
    code, centers = _oracle_centers(q, n, m, k, s)
    calls = {"rank_distance": 0, "rank_gf2_exceeds": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    count(gabidulin, "rank_distance")
    count(gfmatrix, "rank_gf2_exceeds")
    for center in centers:
        for tau in range(code.n + 1):
            calls["rank_distance"] = 0
            ball = enumerate_ball(code, center, tau)
            assert calls == {"rank_distance": code.size,
                             "rank_gf2_exceeds": 0}, tau
            assert ball == ball_by_lanes(code, center, tau), tau


@pytest.mark.parametrize("q, n, m, k, s", ORACLE_CODES)
def test_every_ball_oracle_is_empty_at_negative_radius(q, n, m, k, s):
    rng = random.Random(f"negative:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    word = next(iter(codewords(code)))
    for center in (word, RankWord(code.field, tuple(
            rng.randrange(code.field.order) for _ in range(code.n)))):
        for oracle in (enumerate_ball, ball_by_lanes, ball_by_supports,
                       exact_ball):
            assert oracle(code, center, -1) == [], oracle


def test_exact_ball_dispatch_compares_supports_with_codewords(monkeypatch):
    # the supports walk where the nodes of its _supports_plan, at
    # SUPPORT_COST codeword tests each, cost less than the code's words:
    # the Singer check runs at most once, and not where tau >= d or even
    # the walk through e_0 costs more.  Constant centers fail that check
    # on q = 3 and keep the full walk; every benchmark center passes it
    calls = []

    def spy(name):
        original = getattr(gabidulin, name)
        monkeypatch.setattr(gabidulin, name,
                            lambda *a: calls.append(name) or original(*a))

    for name in ("_walk_supports", "ball_by_lanes", "_singer_power"):
        spy(name)
    cases = []
    for (q, n, m, k), tau, oracle, checks in [
            ((2, 6, 6, 3), 2, "supports", 1),   # 33 nodes, 2^18 words
            ((3, 4, 4, 2), 2, "lanes", 1),      # 171 nodes, 3^8 words
            ((3, 4, 8, 1), 2, "lanes", 1),      # 171 nodes, 3^8 words
            ((2, 8, 16, 1), 4, "lanes", 0),     # 14,607 nodes, 2^16
            ((5, 4, 4, 1), 2, "lanes", 0),      # 33 nodes, 625 words
            ((2, 6, 6, 3), 4, "lanes", 0),      # tau >= d
            ((2, 4, 4, 2), 3, "lanes", 0)]:     # tau = d
        code = make_code(q, n, m, k)
        cases.append((code, RankWord(code.field, (1,) * n), tau, oracle,
                      checks, None))
    for name, oracle, checks in [
            ("q2-counting-gab6-3", "supports", 1),      # 33 nodes, 2^18
            ("q2-explicit-gab6-3", "supports", 1),
            ("q3-counting-gab4-2", "supports", 1),      # 15 nodes, 3^8
            ("q3-explicit-gab4-1-m8", "supports", 1),
            ("q2-explicit-gab8-1-m16", "lanes", 0),     # 14,607, 2^16
            ("q3-explicit-gab6-1-g3", "lanes", 0),      # 1,333, 3^6
            ("q5-explicit-gab4-1", "lanes", 0)]:        # 33, 5^4
        inst = _bench_instance(name)
        cases.append((inst.code, inst.center, inst.tau, oracle, checks,
                      BALL_SIZES[name]))
    for code, center, tau, oracle, checks, size in cases:
        calls.clear()
        ball = exact_ball(code, center, tau)
        assert calls.count("_singer_power") == checks, (code, tau)
        assert [c for c in calls if c != "_singer_power"] == [
            "_walk_supports" if oracle == "supports" else "ball_by_lanes"]
        assert size is None or len(ball) == size


def test_exact_ball_budget_is_enumerate_ball_budget():
    code = make_code(2, 4, 4, 2)                # 256 words
    center = RankWord(code.field, (3, 0, 7, 12))
    for tau in range(5):
        with pytest.raises(BudgetExceeded):
            enumerate_ball(code, center, tau, budget=255)
        with pytest.raises(BudgetExceeded):
            exact_ball(code, center, tau, budget=255)
        assert exact_ball(code, center, tau, budget=256) \
            == enumerate_ball(code, center, tau, budget=256)
    with pytest.raises(ContextMismatch):
        exact_ball(code, RankWord(code.field, (0,) * 3), 1)


def _walk_depths(monkeypatch):
    """A list that gets the depth of every node of each walk that
    ball_by_supports passes to gfmatrix.tagged_walk."""
    depths, original = [], gfmatrix.tagged_walk

    def spy(walk, *args):
        def counted():
            for rows in walk:
                depths.append(len(rows))
                yield rows
        return original(counted(), *args)

    monkeypatch.setattr(gfmatrix, "tagged_walk", spy)
    return depths


@pytest.mark.parametrize("q, n, m, k, s", ORACLE_CODES)
def test_ball_by_supports_expands_each_support_once(q, n, m, k, s,
                                                    monkeypatch):
    # one elimination per node of the walk ball_by_supports passes to
    # gfmatrix.tagged_walk but the root (the empty support): the
    # _eliminate calls less those of the hit test's basis() calls.  This
    # pins the full walk, one node per support of dimension 1..tau, which
    # a random center takes: on the three unpunctured codes with n - k = 1
    # every word's pivot is c x^(q^k) plus terms of q-degree < k, so every
    # center takes the walk through e_0 there.  No tagged elimination once
    # the code's message system and its gamma solve (code._singer) are
    # built: a hit is read off the walk's own residue, not solved again
    rng = random.Random(f"expand:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    center = RankWord(code.field, tuple(rng.randrange(code.field.order)
                                        for _ in range(code.n)))
    code._message_system
    full = gabidulin._singer_power(code, center) is None
    assert full == (n - k > 1 or s > 0)
    eliminate, basis = gfmatrix._eliminate, gfmatrix.basis
    calls, tests, tagged = [], [], []
    nodes = _walk_depths(monkeypatch)
    monkeypatch.setattr(gfmatrix, "_eliminate",
                        lambda *a: calls.append(a) or eliminate(*a))
    monkeypatch.setattr(gfmatrix, "basis",
                        lambda *a: tests.append(a) or basis(*a))
    for name in ("tagged_basis", "_tagged"):
        monkeypatch.setattr(gfmatrix, name,
                            lambda *a, name=name: tagged.append(name))
    for tau in range(code.min_distance):
        for seen in (calls, tests, nodes):
            seen.clear()
        ball_by_supports(code, center, tau)
        supports = sum(gaussian_binomial(code.n, t, q) if full
                       else gaussian_binomial(code.n - 1, t - 1, q)
                       for t in range(1, tau + 1))
        assert len(calls) - len(tests) == sum(map(bool, nodes)) \
            == supports, tau
    assert tagged == []


def test_ball_by_supports_raises_on_dependent_columns():
    # at t = d a support of a minimum-weight codeword has dependent columns
    code = make_code(2, 4, 4, 2)
    center = RankWord(code.field, (3, 0, 7, 12))
    assert len(ball_by_supports(code, center, 2)) == 29
    cases = [(code, center, code.min_distance)]
    for q, n, m, k in [(3, 4, 4, 2), (5, 2, 4, 1)]:
        odd = make_code(q, n, m, k)
        center = RankWord(odd.field, tuple(range(1, n + 1)))
        assert ball_by_supports(odd, center, odd.min_distance - 1) \
            == enumerate_ball(odd, center, odd.min_distance - 1)
        cases.append((odd, center, odd.min_distance))
    for case in cases:
        with pytest.raises(InvariantViolation):
            ball_by_supports(*case)
    # units that forget x^i, ball_by_supports' walk otherwise: every
    # support's syndromes are dependent
    flat = make_code(3, 2, 4, 1)
    units = [[gabidulin._syndrome(flat, [int(u == j) for u in range(2)])] * 4
             for j in range(2)]
    with pytest.raises(InvariantViolation):
        list(gfmatrix.tagged_walk(rref_walk(2, range(2), 3), units,
                                  gabidulin._syndrome(flat, (1, 2)), 4, 3))


# (builder, args) of small instances whose centers' balls the Singer group
# permutes: q in {2, 3, 5}, m > n, beta != 1, explicit and counting
INVARIANT_INSTANCES = [
    (build_explicit_instance, (2, 2, 1, 4, 4, 3)),      # Gab[4,1]/GF(2^4)
    (build_explicit_instance, (2, 2, 1, 4, 8, 5)),      # Gab[4,1]/GF(2^8)
    (build_explicit_instance, (2, 3, 1, 6, 6, 2)),      # Gab[6,1]/GF(2^6)
    (build_explicit_instance, (3, 2, 1, 4, 4, 7)),      # Gab[4,1]/GF(3^4)
    (build_explicit_instance, (5, 2, 1, 4, 4, 11)),     # Gab[4,1]/GF(5^4)
    (build_counting_instance, (2, 4, 4, 2, 2, 3)),      # Gab[4,2]/GF(2^4)
    (build_counting_instance, (3, 4, 4, 2, 2, 5)),      # Gab[4,2]/GF(3^4)
]


@pytest.mark.parametrize("build, args", INVARIANT_INSTANCES)
def test_ball_by_supports_walks_the_supports_through_e0_on_invariant_centers(
        monkeypatch, build, args):
    # the instance center and a listed codeword, whose ball holds itself
    # from tau = 0 on: both take the reduced walk, sum_{1<=t<=tau}
    # [n-1,t-1]_q supports, and give the reference ball at every radius
    inst = build(*args)
    code = inst.code
    assert code.beta != 1
    depths = _walk_depths(monkeypatch)
    for center in (inst.center, inst.codewords[0]):
        assert gabidulin._singer_power(code, center) is not None
        for tau in range(-1, code.min_distance):
            depths.clear()
            assert ball_by_supports(code, center, tau) \
                == enumerate_ball(code, center, tau), tau
            assert sum(map(bool, depths)) == sum(
                gaussian_binomial(code.n - 1, t - 1, code.q)
                for t in range(1, tau + 1)), tau


def _declined_cases():
    """(code, center) pairs that ball_by_supports walks in full: a center
    with two nonzero pivot coefficients at q-degree >= k, a punctured code
    around an explicit center, and points whose span is not stable under
    the generator of GF(q^n), around a one-term pivot."""
    code = make_code(3, 4, 4, 1, 5)
    two_terms = evaluate_word(code, LinearizedPoly(code.field, [0, 1, 2]))
    inst = build_explicit_instance(2, 3, 1, 6, 6, 5)
    punctured = puncture(inst.code, 3)
    flat = GabidulinCode(field=make_field(5, 4), n=2, k=1, beta=1,
                         eval_points=(1, 5), subfield_degree=2)
    return [(code, two_terms),
            (punctured, puncture_word(inst.center, range(3, 6))),
            (flat, evaluate_word(flat, LinearizedPoly(flat.field, [0, 1])))]


@pytest.mark.parametrize("case", range(3))
def test_ball_by_supports_walks_every_support_where_a_check_fails(
        monkeypatch, case):
    code, center = _declined_cases()[case]
    assert (code._singer is None) == (case > 0)
    assert gabidulin._singer_power(code, center) is None
    depths = _walk_depths(monkeypatch)
    for tau in range(-1, code.min_distance):
        depths.clear()
        assert ball_by_supports(code, center, tau) \
            == enumerate_ball(code, center, tau), tau
        assert sum(map(bool, depths)) == sum(
            gaussian_binomial(code.n, t, code.q)
            for t in range(1, tau + 1)), tau


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_ball_by_supports_raises_where_the_reduced_walk_loses_or_repeats_a_hit(
        monkeypatch, q, change):
    # a counting ball of several orbits: without its first hit, or with
    # that hit twice, the orbits no longer add up, and the oracle raises
    # rather than return a short or repeated ball
    inst = build_counting_instance(q, 4, 4, 2, 2, 3)
    original = gfmatrix.tagged_walk

    def spy(*args):
        hits = original(*args)
        first = next(hits)
        yield from [first] * (2 if change == "repeat" else 0)
        yield from hits

    monkeypatch.setattr(gfmatrix, "tagged_walk", spy)
    with pytest.raises(InvariantViolation):
        ball_by_supports(inst.code, inst.center, inst.tau)


BENCH = Path(__file__).resolve().parents[1] / "bench"
BALL_SIZES = json.loads((BENCH / "ball_sizes.json").read_text())


def _bench_instance(name, seed=1):
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    inst = next(i for w in workloads.WORKLOADS.values()
                for i in w.instances if i.name == name)
    if inst.kind == "counting":
        return build_counting_instance(inst.q, inst.n, inst.m, inst.k, inst.g,
                                       inst.beta_exponent(seed))
    return build_explicit_instance(inst.q, inst.g, inst.s, inst.n, inst.m,
                                   inst.beta_exponent(seed))


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_ball_oracles_give_the_stored_ball_sizes(name):
    inst = _bench_instance(name)
    ball = enumerate_ball(inst.code, inst.center, inst.tau)
    assert len(ball) == BALL_SIZES[name]
    assert exact_ball(inst.code, inst.center, inst.tau) == ball
    assert ball_by_lanes(inst.code, inst.center, inst.tau) == ball
    assert ball_by_supports(inst.code, inst.center, inst.tau) == ball


def test_preimage_roundtrip_and_rejection():
    code = make_code(2, 6, 6, 3)
    f = code.field
    rng = random.Random(23)
    for _ in range(15):
        coeffs = [rng.randrange(f.order) for _ in range(3)]
        msg = LinearizedPoly(f, coeffs)
        w = encode(code, msg)
        back = preimage_message(code, w)
        assert back == msg
    # a word evaluated from a degree-k polynomial is not in the code
    high = evaluate_word(code, LinearizedPoly(f, (0,) * 3 + (1,)))
    assert preimage_message(code, high) is None


# (q, n, m, k, punctured): q in {2, 3, 5}, m > n, and punctured codes
PREIMAGE_CODES = [(2, 6, 6, 3, 0), (3, 4, 4, 2, 0), (5, 4, 4, 2, 0),
                  (2, 8, 16, 1, 0), (3, 4, 8, 1, 0), (2, 6, 6, 2, 2),
                  (3, 4, 4, 1, 1)]


@pytest.mark.parametrize("q, n, m, k, s", PREIMAGE_CODES)
def test_preimage_roundtrip_and_one_digit_rejection(q, n, m, k, s):
    rng = random.Random(f"preimage:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field
    for _ in range(8):
        msg = LinearizedPoly(f, [rng.randrange(f.order) for _ in range(k)])
        w = encode(code, msg)
        assert preimage_message(code, w) == msg
        # one GF(q) digit of one coordinate changed: a rank-1 error,
        # below the minimum distance, so never a codeword
        coords = list(w.coords)
        j = rng.randrange(code.n)
        coords[j] = f.add(coords[j],
                          rng.randrange(1, q) * q ** rng.randrange(m))
        assert preimage_message(code, RankWord(f, tuple(coords))) is None
    high = evaluate_word(code, LinearizedPoly(f, (0,) * k + (1,)))
    assert preimage_message(code, high) is None


@pytest.mark.parametrize("q, n, m, k, s", PREIMAGE_CODES)
def test_preimage_same_after_dict_roundtrip(q, n, m, k, s):
    rng = random.Random(f"rebuild:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    rebuilt = code_from_dict(code_to_dict(code))
    assert rebuilt == code and rebuilt is not code
    f = code.field
    for _ in range(4):
        msg = LinearizedPoly(f, [rng.randrange(f.order) for _ in range(k)])
        w = encode(code, msg)
        assert preimage_message(rebuilt, w) == preimage_message(code, w)


def test_preimage_factors_the_message_system_once(monkeypatch):
    codes = [make_code(3, 4, 4, 2), make_code(2, 6, 6, 3)]
    calls = {"tagged_basis": 0, "rref": 0, "solve": 0}

    def counted(name):
        original = getattr(gfmatrix, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gfmatrix, name, counted(name))
    for code in codes:
        f = code.field
        for c in range(1, 6):
            msg = LinearizedPoly(f, [c * (i + 2) for i in range(code.k)])
            assert preimage_message(code, encode(code, msg)) == msg
    # one elimination per code, however many words it reads
    assert calls == {"tagged_basis": len(codes), "rref": 0, "solve": 0}


@pytest.mark.parametrize("q, n, m, k, s", PREIMAGE_CODES)
def test_syndrome_is_linear_and_zero_exactly_on_the_code(q, n, m, k, s):
    rng = random.Random(f"syndrome:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field

    def syndrome_digits(coords):
        v = gabidulin._syndrome(code, coords)
        assert v < q ** (code.n * m)
        return [v // q ** i % q for i in range(code.n * m)]

    def codeword():
        return encode(code, LinearizedPoly(
            f, [rng.randrange(f.order) for _ in range(k)])).coords

    for _ in range(8):
        u, v, c = ([rng.randrange(f.order) for _ in range(code.n)],
                   [rng.randrange(f.order) for _ in range(code.n)],
                   codeword())
        a = rng.randrange(q)
        combo = [f.add(f.mul(a, x), y) for x, y in zip(u, v)]
        assert syndrome_digits(combo) == [
            (a * x + y) % q
            for x, y in zip(syndrome_digits(u), syndrome_digits(v))]
        assert syndrome_digits(list(map(f.add, u, c))) == syndrome_digits(u)
        # a codeword, a rank-1 error off one, and a random word
        near = list(c)
        j = rng.randrange(code.n)
        near[j] = f.add(near[j], rng.randrange(1, q) * q ** rng.randrange(m))
        for w in (c, near, u):
            assert (not any(syndrome_digits(w))) == (
                preimage_message(code, RankWord(f, tuple(w))) is not None)
        assert not any(syndrome_digits(c)) and any(syndrome_digits(near))


@pytest.mark.parametrize("q, n, m, k, s", [
    (2, 4, 4, 2, 0), (3, 3, 3, 1, 0), (5, 2, 2, 1, 0), (2, 3, 6, 1, 0),
    (3, 2, 4, 1, 0), (3, 4, 4, 1, 1), (5, 4, 4, 1, 2)])
def test_row_images_are_the_syndromes_of_their_rows(q, n, m, k, s):
    # row b's images, the sums of the units ball_by_supports passes to
    # gfmatrix.tagged_walk b_j times each, are the syndromes of x^i times
    # the GF(q)^n vector b: the syndrome is GF(q)-linear, digit by digit
    rng = random.Random(f"table:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field
    units = [[gabidulin._syndrome(code, [q ** i * (u == j)
                                         for u in range(code.n)])
              for i in range(m)] for j in range(code.n)]
    table = gfmatrix.digit_sums(
        units, m, q, lambda a, b: sub_digits(a, sub_digits(0, b, q), q))
    assert len(table) == q ** code.n
    for b, row in enumerate(table):
        assert len(row) == m
        for i, image in enumerate(row):
            word = [f.mul(q ** i, b // q ** j % q) for j in range(code.n)]
            assert image == gabidulin._syndrome(code, word), (b, i)


def test_preimage_rank_deficient_system_raises():
    # repeated evaluation points: the message map cannot be injective
    f = make_field(2, 4)
    code = GabidulinCode(field=f, n=3, k=2, beta=1, eval_points=(1, 1, 1),
                         subfield_degree=3)
    with pytest.raises(InvariantViolation):
        preimage_message(code, RankWord(f, (0, 0, 0)))


def test_puncture_parameters():
    code = make_code(2, 4, 4, 1)
    p = puncture(code, 1)
    assert p.n == 3 and p.k == 1 and p.min_distance == 3
    assert p.eval_points == code.eval_points[:3]
    with pytest.raises(TooManyPunctures):
        puncture(code, 4)


def test_puncture_word_positions():
    f = make_field(2, 4)
    w = RankWord(f, (1, 2, 3, 4))
    assert puncture_word(w, [3]).coords == (1, 2, 3)
    assert puncture_word(w, [0, 2]).coords == (2, 4)


def test_punctured_distances_drop_by_at_most_s():
    code = make_code(2, 4, 4, 2)
    p = puncture(code, 1)
    rng = random.Random(24)
    words = list(codewords(code))
    for _ in range(60):
        w1, w2 = rng.choice(words), rng.choice(words)
        if w1.coords == w2.coords:
            continue
        d = rank_distance(w1, w2)
        dp = rank_distance(puncture_word(w1, [3]), puncture_word(w2, [3]))
        assert d - 1 <= dp <= d
        assert puncture_word(w1, [3]).coords != puncture_word(w2, [3]).coords


@pytest.mark.parametrize("s,n,k,expected", [
    (2, 6, 2, 1),   # s even
    (2, 7, 2, 1),   # s even, n-k odd
    (1, 6, 4, 1),   # s odd, n-k even
    (1, 6, 3, 0),   # both odd: radius preserved
    (3, 9, 2, 1),   # both odd
    (3, 8, 2, 2),   # s odd, n-k even
])
def test_punctured_radius_shift_table(s, n, k, expected):
    assert punctured_radius_shift(s, n, k) == expected


def test_punctured_radius_shift_matches_direct_radius_difference():
    for n in range(4, 16):
        for k in range(1, n):
            d = n - k + 1
            for s in range(1, d):
                tau = (n - k) // 2 + 1
                tau_prime = (n - s - k) // 2 + 1
                assert punctured_radius_shift(s, n, k) == tau - tau_prime


def test_johnson_like_radius_values():
    assert johnson_like_radius(6, 6, 6, 0) == pytest.approx(6.0, abs=1e-9)
    # n = m: equals n - sqrt(n(n-d))
    for n, d in [(6, 4), (8, 3), (16, 9)]:
        assert johnson_like_radius(n, n, d, 0) == pytest.approx(
            n - math.sqrt(n * (n - d)), abs=1e-9)
    # high-precision oracle for the large case: integer sqrt of the
    # scaled discriminant (disc = 1024*514 here)
    scaled = math.isqrt(1024 * 514 * 10 ** 24)
    expected = 1024 - scaled / 10 ** 12
    assert johnson_like_radius(1024, 1024, 511, 1) == pytest.approx(
        expected, abs=1e-9)
    assert johnson_like_radius(1024, 1024, 511, 1) == pytest.approx(
        298.5098208797, abs=1e-6)


def test_johnson_like_radius_domain():
    with pytest.raises(NegativeDiscriminant):
        johnson_like_radius(4, 4, 4, 2)
    with pytest.raises(NegativeDiscriminant):
        johnson_like_radius(2, 2, 9, 0)


def test_prior_counting_bound_values():
    assert prior_counting_bound(2, 6, 6, 3, 2) == Fraction(651, 64)
    # tau = n - k: exponent vanishes
    assert prior_counting_bound(2, 6, 6, 3, 3) == Fraction(1395)
    # vacuous (< 1) for large m
    assert prior_counting_bound(2, 4, 8, 1, 2) == Fraction(35, 256)
    with pytest.raises(RadiusTooLarge):
        prior_counting_bound(2, 6, 6, 3, 4)
