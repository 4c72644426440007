"""Lifting rank-metric words and codes to constant-dimension subspace codes.

An n x m matrix X over GF(q) lifts to the rowspace of [I_n | X], an
n-dimensional subspace of GF(q)^(n+m); the map is injective and doubles
distances: d_s(lift X, lift Y) = 2 rank(X - Y).  A word over GF(q^m) lifts
its transposed matrix: row j of X holds the digits of coordinate j.

The lifted ball of verify_lifted_instance is the rank ball's words: the
identity d_s(lift X, lift Y) = 2 rank(X - Y) (Silva, Kschischang and
Koetter, IEEE TIT 54, 2008) makes the lifts within subspace distance
2 floor(tau_s/2) of the lifted center exactly the lifts of the codewords
of gabidulin.exact_ball at floor(tau_s/2), so no codeword outside that
ball is tested.  Its words and the listed ones are checked in lanes
(_listed_distances): gfmatrix.to_lanes transposes a batch of them into
slices laid out as lift_word lays out a word, [X | I_n] with an identity
slice of ones, and one gfmatrix.rank_lanes call on those rows stacked on
the center's and one on the digit planes of X - center give every lane's
rank twice; lift_word and lifted_distance stay the per-word reference.
The exhaustive count over every codeword, which would show a word that
exact_ball misses, is the tests' cross-check (tests/reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ranklab import gabidulin, gfmatrix
from ranklab.adversarial import CheckResult, VerificationReport, instance_bound
from ranklab.errors import BudgetExceeded, InvariantViolation, ShapeMismatch
from ranklab.field import sub_digits
from ranklab.gabidulin import (
    BALL_BUDGET,
    RankWord,
    _packed,
    codewords,      # unused here; bench/test_bench.py traces it here
    exact_ball,
    prior_counting_bound,
)


@dataclass(frozen=True)
class LiftedSubspace:
    """Rowspace of [I_n | X] inside GF(q)^(n+m), stored as the n rows of
    that RREF with the columns in the order [X | I_n], packed base q: row j
    is sum_i X[j][i] q^i + q^(m+j), so a word's row j is its serial w_j
    plus q^(m+j).  Permuting columns changes no rank or distance."""

    q: int
    n: int
    m: int
    packed: Tuple[int, ...]


def lift(x_rows: Sequence[Sequence[int]], q: int) -> LiftedSubspace:
    """Rowspace of [I_n | X] for an n x m matrix X over GF(q)."""
    n = len(x_rows)
    if n == 0:
        raise ShapeMismatch("matrix must have at least one row")
    m = len(x_rows[0])
    if any(len(r) != m for r in x_rows):
        raise ShapeMismatch("ragged matrix")
    return LiftedSubspace(q=q, n=n, m=m, packed=tuple(
        sum(v % q * q ** i for i, v in enumerate(r)) + q ** (m + j)
        for j, r in enumerate(x_rows)))


def lift_word(w: RankWord) -> LiftedSubspace:
    """Lift of the transposed matrix of w: row j of X holds the m digits of
    coordinate j, so packed row j is w_j + q^(m+j)."""
    q, m = w.spec.q, w.spec.e
    return LiftedSubspace(q=q, n=len(w.coords), m=m, packed=tuple(
        c + q ** (m + j) for j, c in enumerate(w.coords)))


def lifted_distance(a: LiftedSubspace, b: LiftedSubspace) -> int:
    """Subspace distance 2 rank([I X; I Y]) - 2n.

    Computed from the stacked generators and cross-checked against
    2 rank(X - Y); the two must agree exactly.
    """
    if (a.q, a.n, a.m) != (b.q, b.n, b.m):
        raise ShapeMismatch("lifted subspaces of different shapes")
    q = a.q
    by_stack = 2 * len(gfmatrix.basis(a.packed + b.packed, q)) - 2 * a.n
    # the identity blocks cancel, leaving the rows of X - Y
    by_rank = 2 * len(gfmatrix.basis(
        [sub_digits(u, v, q) for u, v in zip(a.packed, b.packed)], q))
    if by_stack != by_rank:
        raise InvariantViolation(
            f"distance identity violated: {by_stack} != {by_rank}")
    return by_stack


def _lifted_rows(slices: Sequence[Sequence[int]],
                 ones: int) -> List[List[int]]:
    """The rows of lift_word in lanes: lane L's row j is its m slices of
    coordinate j, slices[j], then the identity slice, 1 in every lane,
    at m + j."""
    return [[*s, *(0,) * j, ones] for j, s in enumerate(slices)]


def _listed_distances(center: LiftedSubspace, codewords: Sequence[RankWord],
                      tau: int) -> Tuple[List[int], int]:
    """The sorted distinct lifted distances of the distinct codewords from
    center, a lift_word, and the number of them within 2 tau, as
    lifted_distance finds them word by word; a word of another shape
    raises ShapeMismatch, as lifted_distance does.

    The words go in batches of up to 2^LANE_BITS, one lane each: a batch
    packs each word into one vector by gabidulin._packed, coordinate j at
    digit m j, and gfmatrix.to_lanes transposes them, so that lane L of
    slices[j][p] is digit p of coordinate j of word L.  One
    gfmatrix.rank_lanes call stacks their _lifted_rows on center's rows,
    and one eliminates the m digit planes of X - center, the same slices
    less the center's digits, as ball_by_lanes does.  The stacked rank is n plus that of the difference in every
    lane, or InvariantViolation; the distance is twice the difference's
    rank, read off its masks."""
    q, n, m = center.q, center.n, center.m
    if any((cw.spec.q, len(cw.coords), cw.spec.e) != (q, n, m)
           for cw in codewords):
        raise ShapeMismatch("lifted subspaces of different shapes")
    words = list(dict.fromkeys(cw.coords for cw in codewords))
    order = q ** m
    # the digits of -center, coordinate by coordinate
    minus = [[(q - c // q ** p % q) % q for p in range(m)]
             for c in center.packed]
    present = 0       # bit r: some word's difference has rank r
    listed = 0
    step = 1 << gabidulin.LANE_BITS
    for first in range(0, len(words), step):
        batch = words[first:first + step]
        lanes = len(batch)
        lay = gfmatrix.lane_layout(lanes, q)
        flat = gfmatrix.to_lanes([_packed(order, w) for w in batch],
                                 n * m, q)
        slices = [flat[m * j:m * j + m] for j in range(n)]
        stacked = gfmatrix.rank_lanes(
            center.packed, _lifted_rows(slices, lay.ones), 2 * n - 1, lanes,
            q)[n:]
        moved = [[lay.add(s, lay.digit[d]) for s, d in zip(row, neg)]
                 for row, neg in zip(slices, minus)]
        ranks = gfmatrix.rank_lanes([], zip(*moved), n - 1, lanes, q)
        for a, b in zip(stacked, ranks):
            if a != b:
                lane = (((a ^ b) & -(a ^ b)).bit_length() - 1) // lay.w
                by_stack, by_rank = (2 * sum(g >> lay.w * lane & 1
                                             for g in masks[1:])
                                     for masks in (stacked, ranks))
                raise InvariantViolation(
                    f"distance identity violated: {by_stack} != {by_rank}")
        for r, (a, b) in enumerate(zip(ranks, ranks[1:] + [0])):
            if a & ~b:
                present |= 1 << r
        if tau >= 0:
            listed += lanes - (ranks[tau + 1].bit_count() if tau < n else 0)
    return [2 * r for r in range(n + 1) if present >> r & 1], listed


def prior_lifted_bound(q: int, n: int, m: int, k: int,
                       tau_s: int) -> Fraction:
    """Earlier existential bound at subspace radius tau_s: the rank-level
    prior_counting_bound at tau = floor(tau_s/2), since [n, n-t]_q =
    [n, t]_q."""
    return prior_counting_bound(q, n, m, k, tau_s // 2)


def verify_lifted_instance(inst, tau_s: Optional[int] = None,
                           budget: int = BALL_BUDGET):
    """Subspace-level checks of a rank-level instance.

    Lifts the center, checks that the lifted distance of every distinct
    listed codeword (_listed_distances) is within tau_s (equality to 2 tau
    expected), compares the rank-level ball at tau with the lifted ball at
    floor(tau_s/2) when enumerable, and checks the number of distinct
    listed codewords within lifted distance 2 tau against
    adversarial.instance_bound at the instance radius tau, which the
    lifted code carries over unchanged.  Returns a VerificationReport.

    The lifted ball is the lifts of exact_ball at floor(tau_s/2), the rank
    ball's own list where floor(tau_s/2) == tau: one _listed_distances
    call must find every one of its words distinct and within lifted
    distance tau_s, or InvariantViolation, and its count is the measured
    size.  That shows every word it counts, not that exact_ball missed
    none.
    """
    if tau_s is None:
        tau_s = 2 * inst.tau
    half = tau_s // 2
    checks = []

    lifted_center = lift_word(inst.center)
    dists, listed = _listed_distances(lifted_center, inst.codewords,
                                      inst.tau)
    checks.append(CheckResult(
        "lifted_distances_within_radius",
        "pass" if dists and dists[-1] <= tau_s else "fail",
        measured=dists, expected=[2 * inst.tau]))

    code = inst.code
    try:
        ball = exact_ball(code, inst.center, inst.tau, budget)
    except BudgetExceeded:
        checks.append(CheckResult(
            "ball_relation_inequality", "skipped",
            measured=f"code size {code.size} over budget {budget}"))
    else:
        rank_count = len(ball)
        if half != inst.tau:
            ball = exact_ball(code, inst.center, half, budget)
        count = _listed_distances(lifted_center, ball, half)[1]
        if count != len(ball):
            raise InvariantViolation(
                f"lifted ball: {count} distinct words within lifted "
                f"distance {2 * half} of the {len(ball)} listed")
        checks.append(CheckResult(
            "ball_relation_inequality",
            "pass" if rank_count <= count else "fail",
            measured=count, expected=rank_count))

    # the bound belongs to the instance radius; tau_s only sets the
    # distance check and the lifted ball
    bound = instance_bound(inst)
    checks.append(CheckResult(
        f"lifted_{inst.kind}_bound",
        "pass" if bound is not None and listed >= bound else "fail",
        measured=listed, expected=bound))

    return VerificationReport(checks)
