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
from ranklab.field import make_field
from ranklab.linpoly import LinearizedPoly
from ranklab import gabidulin
from ranklab.gabidulin import (
    GabidulinCode,
    RankWord,
    _walk,
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


def test_make_code_custom_points():
    f = make_field(2, 4)
    code = make_code(2, 4, 4, 2, points=[1, 2, 4, 8])
    assert code.eval_points == (1, 2, 4, 8)
    minw = min(rank_weight(w) for w in codewords(code) if any(w.coords))
    assert minw == 3  # still MRD: any independent points work
    with pytest.raises(BadDimension):
        make_code(2, 4, 4, 2, points=[1, 2, 3, 4])  # 3 = 1 + 2: dependent
    with pytest.raises(BadDimension):
        make_code(2, 4, 4, 2, points=[1, 2, 4])


def test_encode_zero_and_identity():
    code = make_code(2, 4, 4, 2)
    zero = encode(code, LinearizedPoly.zero(code.field))
    assert zero.coords == (0, 0, 0, 0)
    ident = encode(code, LinearizedPoly.identity(code.field))
    assert ident.coords == code.eval_points


def test_encode_degree_guard():
    code = make_code(2, 4, 4, 2)
    with pytest.raises(DegreeTooHigh):
        encode(code, LinearizedPoly.monomial(code.field, 2))


def test_codewords_all_distinct():
    code = make_code(2, 4, 4, 2)
    seen = {w.coords for w in codewords(code)}
    assert len(seen) == 256 == code.size


# (q, n, m, k, punctured): q in {2, 3, 5}, m > n, and a punctured code,
# each small enough to walk in full
WALK_CODES = [(2, 4, 4, 2, 0), (3, 2, 2, 1, 0), (5, 2, 2, 1, 0),
              (2, 3, 6, 1, 0), (3, 2, 4, 1, 0), (2, 6, 6, 2, 3)]


@pytest.mark.parametrize("q, n, m, k, s", WALK_CODES)
def test_walk_visits_every_codeword_once_one_step_apart(q, n, m, k, s):
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
    # from any start the walk visits start + c for every codeword c
    start = tuple(rng.randrange(f.order) for _ in range(code.n))
    shifted = {tuple(map(f.sub, w, start)) for w in _walk(code, start)}
    assert shifted == set(words)


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
    # oracle cross-check: the ball oracle (for q = 2 the walk from the
    # center with the early-exit rank test) vs per-codeword distances, each
    # one checked against the reference rref
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
            dist[w.coords] = rank_distance(center, w)
            assert dist[w.coords] == reference.rank(
                [f.digits(c) for c in diff], code.q)
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


@pytest.mark.parametrize("q, n, m, k, s", ORACLE_CODES)
def test_ball_by_supports_equals_enumerate_ball(q, n, m, k, s):
    rng = random.Random(f"supports:{q}:{n}:{m}:{k}:{s}")
    code = puncture(make_code(q, n, m, k, rng.randrange(q ** m - 1)), s)
    f = code.field
    centers = [RankWord(f, tuple(rng.randrange(f.order)
                                 for _ in range(code.n)))
               for _ in range(2)]
    # a codeword plus an error of rank one, so that small radii are not
    # empty
    word = next(w for i, w in enumerate(codewords(code)) if i == 5)
    alpha = rng.randrange(1, f.order)
    centers.append(RankWord(f, tuple(f.add(c, f.mul(j % q, alpha))
                                     for j, c in enumerate(word.coords))))
    for center in centers:
        for tau in range(code.min_distance):
            assert ball_by_supports(code, center, tau) \
                == enumerate_ball(code, center, tau)


def test_exact_ball_dispatch_compares_supports_with_codewords(monkeypatch):
    calls = []
    monkeypatch.setattr(gabidulin, "ball_by_supports",
                        lambda *a: calls.append("supports") or [])
    monkeypatch.setattr(gabidulin, "enumerate_ball",
                        lambda *a: calls.append("words") or [])
    cases = [((2, 6, 6, 3), 2, "supports"),     # 715 supports, 2^18 words
             ((3, 4, 4, 2), 2, "supports"),     # 171 supports, 3^8 words
             ((2, 8, 16, 1), 4, "words"),       # 308,993 supports, 2^16
             ((5, 4, 4, 1), 2, "words"),        # 963 supports, 625 words
             ((2, 6, 6, 3), 4, "words"),        # tau >= d
             ((2, 4, 4, 2), 3, "words")]        # tau = d
    for (q, n, m, k), tau, oracle in cases:
        code = make_code(q, n, m, k)
        calls.clear()
        exact_ball(code, RankWord(code.field, (1,) * n), tau)
        assert calls == [oracle], (q, n, m, k, tau)


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


def test_ball_by_supports_raises_on_dependent_columns():
    # at t = d a support of a minimum-weight codeword has dependent columns
    code = make_code(2, 4, 4, 2)
    center = RankWord(code.field, (3, 0, 7, 12))
    assert len(ball_by_supports(code, center, 2)) == 29
    with pytest.raises(InvariantViolation):
        ball_by_supports(code, center, code.min_distance)
    # a syndrome that forgets x^i leaves every support dependent
    flat = make_code(3, 2, 4, 1)
    flat.__dict__["_syndrome_table"] = tuple(
        (row[0],) * 4 for row in flat._syndrome_table)
    with pytest.raises(InvariantViolation):
        ball_by_supports(flat, RankWord(flat.field, (1, 2)), 1)


BENCH = Path(__file__).resolve().parents[1] / "bench"
BALL_SIZES = json.loads((BENCH / "ball_sizes.json").read_text())
# the supports oracle takes about 30 s and 20 s on these two (308,993 and
# 45,256 supports, against 2^16 and 3^6 codewords); exact_ball runs brute
# force on both, so only that oracle is checked here
DENSE_SUPPORTS = {"q2-explicit-gab8-1-m16", "q3-explicit-gab6-1-g3"}


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
                                       inst.beta_exponent(seed), seed=seed)
    return build_explicit_instance(inst.q, inst.g, inst.s, inst.n, inst.m,
                                   inst.beta_exponent(seed), seed=seed)


@pytest.mark.parametrize("name", sorted(BALL_SIZES))
def test_ball_oracles_give_the_stored_ball_sizes(name):
    inst = _bench_instance(name)
    ball = enumerate_ball(inst.code, inst.center, inst.tau)
    assert len(ball) == BALL_SIZES[name]
    assert exact_ball(inst.code, inst.center, inst.tau) == ball
    if name not in DENSE_SUPPORTS:
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
    high = evaluate_word(code, LinearizedPoly.monomial(f, 3))
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
    high = evaluate_word(code, LinearizedPoly.monomial(f, k))
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
