"""Lifting: the distance-doubling identity, lifted codes, lifted instances."""

import ast
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from ranklab import constructions, gabidulin, gfmatrix, subspace_code
from ranklab.errors import InvariantViolation, RadiusTooLarge, ShapeMismatch
from ranklab.adversarial import build_counting_instance, build_explicit_instance
from ranklab.field import make_field
from ranklab.cli import _build_parser
from ranklab.gabidulin import (
    BALL_BUDGET,
    RankWord,
    codewords,
    enumerate_ball,
    make_code,
    puncture,
)
from ranklab.subspace import gaussian_binomial
from ranklab.subspace_code import (
    lift,
    lift_word,
    lifted_distance,
    prior_lifted_bound,
    verify_lifted_instance,
)

import reference


def test_lift_zero_matrix():
    ls = lift([[0] * 4 for _ in range(4)], 2)
    assert reference.lifted_rows(ls) == tuple(
        tuple(1 if j == i else 0 for j in range(8)) for i in range(4))
    assert ls.n == 4


def test_lift_shape_guard():
    with pytest.raises(ShapeMismatch):
        lift([[0, 1], [0]], 2)


def test_lift_injective_sampled():
    rng = random.Random(31)
    seen = {}
    for _ in range(100):
        x = tuple(tuple(rng.randrange(2) for _ in range(4))
                  for _ in range(4))
        ls = lift(x, 2)
        assert tuple(r[4:] for r in reference.lifted_rows(ls)) == x
        if reference.lifted_rows(ls) in seen:
            assert seen[reference.lifted_rows(ls)] == x
        seen[reference.lifted_rows(ls)] = x


def test_lifted_distance_identity_100_pairs():
    rng = random.Random(32)
    for _ in range(100):
        x = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        y = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        diff = [[(a - b) % 2 for a, b in zip(ra, rb)]
                for ra, rb in zip(x, y)]
        assert lifted_distance(lift(x, 2), lift(y, 2)) == \
            2 * reference.rank(diff, 2)


def test_lifted_distance_generic_q():
    rng = random.Random(33)
    for _ in range(40):
        x = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        y = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        diff = [[(a - b) % 3 for a, b in zip(ra, rb)]
                for ra, rb in zip(x, y)]
        assert lifted_distance(lift(x, 3), lift(y, 3)) == \
            2 * reference.rank(diff, 3)
    with pytest.raises(ShapeMismatch):
        lifted_distance(lift([[0, 0]], 2), lift([[0]], 2))


def test_word_matrix_convention():
    f = make_field(2, 4)
    w = RankWord(f, (1, 2, 4, 8))
    m = tuple(r[4:] for r in reference.lifted_rows(lift_word(w)))
    # row j holds the digits of coordinate j (the transposed expansion)
    assert m == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    w = RankWord(f, (3, 0, 8, 0))
    assert tuple(r[4:] for r in reference.lifted_rows(lift_word(w))) == \
        ((1, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))


def test_lift_word_is_lift_of_the_digit_rows():
    # lift_word packs serials directly; lift packs a digit matrix
    rng = random.Random(34)
    for q, n, m in ((2, 4, 4), (2, 3, 6), (3, 4, 4), (5, 2, 4)):
        f = make_field(q, m)
        for _ in range(20):
            w = RankWord(f, tuple(rng.randrange(f.order) for _ in range(n)))
            lw = lift_word(w)
            assert lw == lift([f.digits(c) for c in w.coords], q)
            assert (lw.n, lw.m) == (n, m)
            assert reference.lifted_rows(lw) == tuple(
                tuple(int(i == j) for i in range(n)) + f.digits(c)
                for j, c in enumerate(w.coords))


def test_lift_code_gab41_is_8_16_8_4():
    code = make_code(2, 4, 4, 1)
    lifted = reference.lift_code(code)
    assert len(lifted) == 16 == code.size
    assert all(ls.n == 4 and ls.n + ls.m == 8 for ls in lifted)
    dmin = min(lifted_distance(a, b)
               for i, a in enumerate(lifted) for b in lifted[i + 1:])
    assert dmin == 8 == 2 * code.min_distance


def test_lifted_gab42_doubles_the_minimum_distance():
    code = make_code(2, 4, 4, 2)
    lifted = reference.lift_code(code)
    dmin = min(lifted_distance(a, b)
               for i, a in enumerate(lifted) for b in lifted[i + 1:])
    assert dmin == 6 == 2 * code.min_distance


def test_zero_codeword_lifts_to_identity_block():
    code = make_code(2, 4, 4, 1)
    zero = RankWord(code.field, (0, 0, 0, 0))
    ls = lift_word(zero)
    assert all(all(v == 0 for v in r[ls.n:])
               for r in reference.lifted_rows(ls))


def test_lifted_explicit_instance():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=4)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_distances_within_radius"].measured == [4]
    assert by_name["lifted_explicit_bound"].expected == 5
    assert by_name["ball_relation_inequality"].status == "pass"


def test_lifted_counting_instance():
    inst = build_counting_instance(2, 6, 6, 3, 2)
    report = verify_lifted_instance(inst)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_counting_bound"].measured == 21
    assert by_name["lifted_counting_bound"].expected == 21


def test_lifted_odd_radius_uses_floor():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=5)
    assert report.all_passed


def test_lifted_negative_control_shrunk_radius():
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    report = verify_lifted_instance(inst, tau_s=2)
    by_name = {c.name: c for c in report.checks}
    assert by_name["lifted_distances_within_radius"].status == "fail"
    assert by_name["lifted_explicit_bound"].status == "pass"
    assert not report.all_passed


def test_ball_relation_counts_match_exactly():
    # distances double exactly, so the lifted ball count equals the
    # rank-level ball count
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    lifted_center = lift_word(inst.center)
    count = sum(1 for w in codewords(inst.code)
                if lifted_distance(lifted_center, lift_word(w)) <= 4)
    from ranklab.gabidulin import enumerate_ball
    assert count == len(enumerate_ball(inst.code, inst.center, 2))


HOIST_CODES = [(2, 4, 4, 2, 0), (2, 3, 6, 1, 0), (2, 6, 6, 2, 2),
               (3, 2, 2, 1, 0), (3, 2, 4, 1, 0), (3, 4, 4, 1, 1),
               (5, 2, 2, 1, 0), (5, 2, 4, 1, 0)]


@pytest.mark.parametrize("q, n, m, k, s", HOIST_CODES, ids=[
    "-".join(map(str, c[1:] if c[0] == 2 else c)) for c in HOIST_CODES])
def test_lifted_count_with_hoisted_center_basis(monkeypatch, q, n, m, k, s):
    # the lifted ball at every subspace radius, also where floor(tau_s/2)
    # != tau, must match the reference rank of the stacked [I | X] digit
    # rows (an elimination outside gfmatrix) and a lifted_distance per
    # word, and at floor(tau_s/2) == tau the rank-level ball, as
    # distances double exactly.  Its words are checked in batches of up
    # to 2^LANE_BITS, here also at 2^LANE_BITS = 2 and 8, so that several
    # batches are counted; a center that is a codeword puts a word at
    # rank 0, tau_s = 2n counts every codeword and tau_s = -1 none
    rng = random.Random(f"hoist:{n}:{m}:{k}:{s}" if q == 2
                        else f"hoist:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    inst = build_explicit_instance(2, 2, 1, 4, 4)
    words = list(codewords(code))
    lifted = [lift_word(w) for w in words]
    cases = []
    for _ in range(4):
        center = RankWord(code.field, tuple(rng.randrange(q ** m)
                                            for _ in range(code.n)))
        cases.append((center, rng.randrange(1, code.min_distance)))
    cases.append((rng.choice(words), rng.randrange(1, code.min_distance)))
    for center, tau in cases:
        lc = lift_word(center)
        # half the subspace distance of each word from the center
        rows = reference.lifted_rows(lc)
        by_reference = [reference.rank(rows + reference.lifted_rows(lw), q)
                        - code.n for lw in lifted]
        by_distance = [lifted_distance(lc, lw) // 2 for lw in lifted]
        assert by_reference == by_distance
        ball = len(enumerate_ball(code, center, tau))
        for bits in (1, 3, gabidulin.LANE_BITS):
            monkeypatch.setattr(gabidulin, "LANE_BITS", bits)
            for tau_s in (2 * tau - 1, 2 * tau, 2 * tau + 1, 2 * tau + 2,
                          2 * code.n, -1):
                report = verify_lifted_instance(inst._replace(
                    code=code, center=center, tau=tau, codewords=()),
                    tau_s=tau_s)
                check = {c.name: c
                         for c in report.checks}["ball_relation_inequality"]
                half = tau_s // 2
                assert check.measured == sum(h <= half for h in by_reference)
                assert check.expected == ball
                if half == tau:
                    assert check.measured == ball
                if tau_s == 2 * code.n:
                    assert check.measured == len(words)
                if tau_s == -1:
                    assert check.measured == 0


@pytest.mark.parametrize("change", ["outside", "repeat", "drop"])
@pytest.mark.parametrize("q", [2, 3])
def test_a_spied_exact_ball_is_caught(monkeypatch, q, change):
    # the lifted ball is exact_ball's list at max(tau, floor(tau_s/2)),
    # each word checked in lanes: a codeword outside that radius or a
    # repeated word raises; a dropped word leaves every word within the
    # radius, passes, and is caught by the exhaustive count over every
    # codeword's lift
    inst = build_explicit_instance(q, 2, 1, 4, 4)
    code, center, tau = inst.code, inst.center, inst.tau
    far = max(codewords(code),
              key=lambda w: gabidulin.rank_distance(center, w))
    assert gabidulin.rank_distance(center, far) > tau + 1
    exact_ball = subspace_code.exact_ball

    def spy(*args):
        ball = exact_ball(*args)
        return {"outside": ball + [far], "repeat": ball + ball[:1],
                "drop": ball[1:]}[change]

    monkeypatch.setattr(subspace_code, "exact_ball", spy)
    for tau_s in (2 * tau, 2 * tau + 2):
        if change != "drop":
            with pytest.raises(InvariantViolation, match="lifted ball"):
                verify_lifted_instance(inst, tau_s=tau_s)
            continue
        report = verify_lifted_instance(inst, tau_s=tau_s)
        check = {c.name: c for c in report.checks}["ball_relation_inequality"]
        size = len(exact_ball(code, center, tau_s // 2))
        assert (check.status, check.measured) == ("pass", size - 1)
        assert check.measured != reference.lifted_count(
            code, lift_word(center), tau_s // 2) == size


@pytest.mark.parametrize("name", ["q2-counting-gab6-3", "q2-explicit-gab6-3",
                                  "q3-counting-gab4-2",
                                  "q3-explicit-gab4-1-m8"])
def test_listed_words_that_are_not_codewords_count_nothing(name):
    # as many words center + a e_0, a != 0, as the instance lists, each at
    # rank distance 1 of the center and no codeword: every one is within
    # the radius, none is in the ball, so the lifted bound counts 0 and
    # fails wherever the ball is enumerable
    inst = reference.bench_instance(name)
    f, (head, *rest) = inst.code.field, inst.center.coords
    assert subspace_code.exact_ball(inst.code, inst.center, 1) == []
    forged = inst._replace(codewords=tuple(
        RankWord(f, (f.add(head, a), *rest))
        for a in range(1, len(inst.codewords) + 1)))
    for tau_s in (2 * inst.tau - 1, 2 * inst.tau, 2 * inst.tau + 2):
        checks = {c.name: c for c in
                  verify_lifted_instance(forged, tau_s=tau_s).checks}
        assert checks["lifted_distances_within_radius"].measured == [2]
        check = checks[f"lifted_{inst.kind}_bound"]
        assert (check.status, check.measured, check.expected) == (
            "fail", 0, len(inst.codewords))


@pytest.mark.parametrize("q", [2, 3])
def test_one_ball_and_one_lane_pass(monkeypatch, q):
    # one exact_ball call, at max(tau, floor(tau_s/2)), and one stacked
    # and one difference elimination per distinct word of the listed
    # words and the ball: the list holds a repeat and a word outside the
    # ball, and the oracle's own rank_lanes calls are not counted
    inst = build_explicit_instance(q, 2, 1, 4, 4)
    f, tau = inst.code.field, inst.tau
    stray = RankWord(f, (f.add(inst.center.coords[0], 1),
                         *inst.center.coords[1:]))
    inst = inst._replace(
        codewords=inst.codewords + inst.codewords[:1] + (stray,))
    exact_ball, rank_lanes = subspace_code.exact_ball, gfmatrix.rank_lanes
    radii, lanes, oracle, words = [], [], [], set()

    def ball_spy(code, center, radius, budget):
        oracle.append(1)
        try:
            ball = exact_ball(code, center, radius, budget)
        finally:
            oracle.pop()
        radii.append(radius)
        words.update(w.coords for w in ball)
        return ball

    def lane_spy(start, vecs, limit, count, q):
        if not oracle:
            lanes.append(count)
        return rank_lanes(start, vecs, limit, count, q)

    monkeypatch.setattr(subspace_code, "exact_ball", ball_spy)
    monkeypatch.setattr(gfmatrix, "rank_lanes", lane_spy)
    for tau_s in (2 * tau - 1, 2 * tau, 2 * tau + 2):
        radii.clear()
        lanes.clear()
        words.clear()
        words.update(w.coords for w in inst.codewords)
        verify_lifted_instance(inst, tau_s=tau_s)
        assert radii == [max(tau, tau_s // 2)]
        assert sum(lanes) == 2 * len(words)


@pytest.mark.parametrize("name", sorted(reference.BALL_SIZES))
def test_lifted_ball_is_the_exhaustive_lifted_count(name):
    # the lifted ball read off exact_ball's words against the count over
    # every codeword's lift, on the benchmark's exhaustive codes and
    # centers (q in {2, 3, 5}), where floor(tau_s/2) is below, at and
    # above tau, none and every codeword; the rank ball is the
    # brute-force size of bench/ball_sizes.json at every tau_s
    inst = reference.bench_instance(name)
    code, tau = inst.code, inst.tau
    lifted_center = lift_word(inst.center)
    for tau_s in (-1, 2 * tau - 1, 2 * tau, 2 * tau + 1, 2 * tau + 2,
                  2 * code.n):
        report = verify_lifted_instance(inst, tau_s=tau_s)
        check = {c.name: c for c in report.checks}["ball_relation_inequality"]
        assert check.measured == reference.lifted_count(
            code, lifted_center, tau_s // 2)
        assert check.expected == reference.BALL_SIZES[name]
    assert check.measured == code.size


# q in {2, 3, 5}, m > n and a punctured code
LISTED_CODES = [(2, 4, 4, 2, 0), (2, 3, 6, 1, 0), (3, 3, 3, 1, 0),
                (3, 2, 4, 1, 0), (5, 2, 2, 1, 0), (5, 2, 4, 1, 0),
                (2, 6, 6, 2, 2)]


@pytest.mark.parametrize("q, n, m, k, s", LISTED_CODES)
def test_listed_distances_are_the_per_word_loop(monkeypatch, q, n, m, k, s):
    # the lane pass over the listed and ball words against one lift_word
    # and one lifted_distance per word: for each group, the distinct
    # listed words in the ball, the others listed and the ball's words not
    # listed, the Counter of half lifted distances, on codewords, other
    # words, the center itself and duplicates, in one batch and in several
    # of 2^LANE_BITS = 2 and 8 words; an empty group counts nothing
    rng = random.Random(f"listed:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field

    def word():
        return RankWord(f, tuple(rng.randrange(f.order)
                                 for _ in range(code.n)))

    center = word()
    pool = rng.sample(list(codewords(code)), 25)
    words = pool[:20] + [word() for _ in range(10)] + [center]
    words += rng.sample(words, 6)
    ball = rng.sample(words[:31], 8) + pool[20:] + [word()]
    lc = lift_word(center)
    dist = {w.coords: lifted_distance(lc, lift_word(w)) for w in words}
    assert 0 in dist.values() and len(dist) < len(words)

    def hist(group):
        return Counter(lifted_distance(lc, lift_word(w)) // 2
                       for w in {w.coords: w for w in group}.values())

    held = {w.coords for w in ball}
    named = {w.coords for w in words}
    groups = (hist(w for w in words if w.coords in held),
              hist(w for w in words if w.coords not in held),
              hist(w for w in ball if w.coords not in named))
    assert all(groups)
    for bits in (1, 3, gabidulin.LANE_BITS):
        monkeypatch.setattr(gabidulin, "LANE_BITS", bits)
        assert subspace_code._listed_distances(lc, words, ball) == groups
        assert subspace_code._listed_distances(lc, words, []) == (
            Counter(), hist(words), Counter())
        assert subspace_code._listed_distances(lc, [], ball) == (
            Counter(), Counter(), hist(ball))
        assert subspace_code._listed_distances(lc, [], []) == (
            Counter(),) * 3


@pytest.mark.parametrize("q", [2, 3])
def test_a_listed_word_beyond_the_radius_fails_the_lifted_check(q):
    # a codeword outside the ball added to the list: measured lists its
    # lifted distance next to 2 tau, the radius check fails, and the
    # bound check still counts only the words within 2 tau
    inst = build_explicit_instance(q, 2, 1, 4, 4)
    far = next(w for w in codewords(inst.code)
               if gabidulin.rank_distance(inst.center, w) > inst.tau)
    d = 2 * gabidulin.rank_distance(inst.center, far)
    report = verify_lifted_instance(inst._replace(
        codewords=inst.codewords + (far,)))
    by_name = {c.name: c for c in report.checks}
    check = by_name["lifted_distances_within_radius"]
    assert (check.status, check.measured) == ("fail", [2 * inst.tau, d])
    assert by_name["lifted_explicit_bound"].measured == len(inst.codewords)
    assert not report.all_passed


@pytest.mark.parametrize("side", ["stacked", "difference"])
@pytest.mark.parametrize("q", [2, 3])
def test_disagreeing_rank_masks_raise(monkeypatch, q, side):
    # the stacked [X | I_n] rank less n and the rank of X - center must
    # agree in every lane, over the listed words alone (budget 1) and
    # over them and the ball: lane 0, the first listed word, at rank
    # tau = 2 in both, flipped into the top mask of either elimination
    # counts one rank more there, and raises with both distances of that
    # lane
    inst = build_explicit_instance(q, 2, 1, 4, 4)
    original = gfmatrix.rank_lanes

    def flip(start, vecs, limit, lanes, q):
        ge = original(start, vecs, limit, lanes, q)
        if bool(start) == (side == "stacked"):
            ge[-1] ^= 1
        return ge

    monkeypatch.setattr(gfmatrix, "rank_lanes", flip)
    message = "4 != 6" if side == "difference" else "6 != 4"
    for budget in (1, BALL_BUDGET):
        with pytest.raises(InvariantViolation,
                           match=f"distance identity violated: {message}"):
            verify_lifted_instance(inst, budget=budget)


def _unpack(v, q, width):
    return [v // q ** j % q for j in range(width)]


def test_rank_gf2_exceeds_from_a_start_basis():
    # the early-exit rank tests of packed vectors against the reference
    # rref of the stacked rows, on q in {2, 3, 5}: rank_gf2_exceeds afresh
    # on q = 2, and on every q the rank masks of rank_lanes in one lane,
    # whose digits are the vectors' own, from a start basis and afresh
    rng = random.Random(31)
    for q in (2, 3, 5):
        for _ in range(300):
            width = rng.randrange(1, 12 if q == 2 else 7)
            a = [rng.randrange(q ** width) for _ in range(rng.randrange(6))]
            v = [rng.randrange(q ** width) for _ in range(rng.randrange(6))]
            limit = rng.randrange(-1, 8)
            start = gfmatrix.basis(a, q)
            rank = reference.rank([_unpack(x, q, width) for x in a + v], q)
            assert len(start) == reference.rank(
                [_unpack(x, q, width) for x in a], q)
            assert gfmatrix.rank_lanes(
                a, [_unpack(x, q, width) for x in v], limit, 1, q) \
                == gfmatrix.rank_lanes(
                    [], [_unpack(x, q, width) for x in a + v], limit, 1, q) \
                == [int(rank >= r) for r in range(max(limit, -1) + 2)]
            if q == 2:
                assert gfmatrix.rank_gf2_exceeds(a + v, limit) \
                    == (gfmatrix.rank_gf2(a + v) > limit) == (rank > limit)


def test_prior_lifted_bound_values():
    assert prior_lifted_bound(2, 6, 6, 3, 4) == Fraction(651, 64)
    # tau_s = 2(n-k): exponent vanishes
    assert prior_lifted_bound(2, 6, 6, 3, 6) == Fraction(1395)
    with pytest.raises(RadiusTooLarge):
        prior_lifted_bound(2, 6, 6, 3, 8)
    # [n, t]_q / q^(m(n-k-t)) at t = floor(tau_s/2), odd tau_s included,
    # up to the first t at d = n-k+1, where the bound raises
    for q in (2, 3, 5):
        for n in range(1, 7):
            for m in (n, 2 * n):
                for k in range(1, n + 1):
                    d = n - k + 1
                    for tau_s in range(2 * d + 2):
                        t = tau_s // 2
                        if t >= d:
                            with pytest.raises(RadiusTooLarge):
                                prior_lifted_bound(q, n, m, k, tau_s)
                        else:
                            assert prior_lifted_bound(q, n, m, k, tau_s) \
                                == Fraction(gaussian_binomial(n, t, q),
                                            q ** (m * (n - k - t)))


def test_lift_verify_budget_defaults_agree():
    # the library and the CLI run the same checks on the same file
    library = inspect.signature(verify_lifted_instance).parameters["budget"]
    cli = _build_parser().parse_args(["lift-verify", "--in", "unused.json"])
    assert library.default == cli.budget == BALL_BUDGET


# Each probe breaks one invariant and prints whether InvariantViolation
# was raised; run in-process and under python -O, which strips asserts.
INVARIANT_PROBES = """
from ranklab.adversarial import _check_instance, build_explicit_instance
from ranklab.errors import InvariantViolation
from ranklab.subspace_code import LiftedSubspace, lift, lifted_distance

# a packed row without its identity block: the stacked rank and the
# rank of X - Y give different distances
broken = LiftedSubspace(q=2, n=1, m=1, packed=(0,))
inst = build_explicit_instance(2, 2, 1, 4, 4)   # d = 4, radius in (1, 4)
for probe in (lambda: lifted_distance(lift([[1]], 2), broken),
              lambda: _check_instance(inst._replace(tau=1)),
              lambda: _check_instance(inst._replace(tau=4))):
    try:
        probe()
        print("passed")
    except InvariantViolation:
        print("raised")
"""


def test_invariant_violations_raise_named_error_under_O(capsys):
    exec(INVARIANT_PROBES, {})
    assert capsys.readouterr().out.split() == ["raised"] * 3
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", INVARIANT_PROBES],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["raised"] * 3


def _is_assertion(node):
    """An assert statement, or a raise of a bare AssertionError."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_library_has_no_assert_statements():
    # python -O strips assert, and a bare AssertionError names no fault;
    # invariants raise InvariantViolation instead
    src = Path(__file__).resolve().parents[1] / "src" / "ranklab"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _is_assertion(node)]
    assert found == []


def test_budget_parameters_are_the_ones_the_cli_sets():
    # an exhaustive guard that no caller tunes keeps its module constant;
    # only the oracles that --budget reaches take the budget as a parameter
    src = Path(__file__).resolve().parents[1] / "src" / "ranklab"
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in top.body if owner else [top]:
                if isinstance(node, ast.FunctionDef) \
                        and not node.name.startswith("_") \
                        and {"budget", "ball_budget"} & {
                            a.arg for a in node.args.args
                            + node.args.kwonlyargs}:
                    found.add(f"{path.stem}.{owner}{node.name}")
    assert found == {"gabidulin.codewords", "gabidulin.enumerate_ball",
                     "gabidulin.exact_ball", "adversarial.verify_instance",
                     "subspace_code.verify_lifted_instance"}


def test_construction_invariant_raises_named_error(monkeypatch):
    # a base kernel of the wrong dimension is caught by a require() check
    monkeypatch.setattr(constructions, "kernel",
                        lambda poly, ambient: SimpleNamespace(dim=0))
    with pytest.raises(InvariantViolation):
        constructions.orbit_base_poly(2, 2, 1, 2)
