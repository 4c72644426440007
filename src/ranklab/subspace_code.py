"""Lifting rank-metric words and codes to constant-dimension subspace codes.

An n x m matrix X over GF(q) lifts to the rowspace of [I_n | X], an
n-dimensional subspace of GF(q)^(n+m); the map is injective and doubles
distances: d_s(lift X, lift Y) = 2 rank(X - Y).  A word over GF(q^m) lifts
its transposed matrix: row j of X holds the digits of coordinate j.

By that identity (Silva, Kschischang and Koetter, IEEE TIT 54, 2008),
verify_lifted_instance reads both ball counts and the listed words'
membership off one gabidulin.exact_ball call at max(tau, floor(tau_s/2)),
in one lane pass (_listed_distances); over the budget the listed words are
not tested for membership.  tests/reference.py counts every codeword's
lift, which would show a word that exact_ball misses.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


class LiftedSubspace(NamedTuple):
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


def _listed_distances(center: LiftedSubspace, listed: Sequence[RankWord],
                      ball: Sequence[RankWord]) -> Tuple[Counter, ...]:
    """Counters of the ranks of X - center, lifted_distance halved, over
    the distinct listed words in ball, the other listed words and the
    ball's words not listed, each word of center's shape.

    The groups lie on contiguous lanes, batches of up to 2^LANE_BITS
    words packed by gabidulin._packed and transposed by gfmatrix.to_lanes
    (lane L of slices[j][p] is digit p of coordinate j of word L).  One
    gfmatrix.rank_lanes call stacks their _lifted_rows on center's rows,
    one eliminates the m digit planes of X - center, as ball_by_lanes
    does, and the stacked rank must be n plus the difference's in every
    lane, or InvariantViolation.  A group's counts are popcounts of the
    difference's masks over its lanes."""
    q, n, m = center.q, center.n, center.m
    held = dict.fromkeys(w.coords for w in ball)
    named = dict.fromkeys(w.coords for w in listed)
    inside = [c for c in named if c in held]
    outside = [c for c in named if c not in held]
    for c in inside:
        del held[c]
    words = inside + outside + list(held)
    bounds = (0, len(inside), len(inside) + len(outside), len(words))
    order = q ** m
    # the digits of -center, coordinate by coordinate
    minus = [[(q - c // q ** p % q) % q for p in range(m)]
             for c in center.packed]
    hists = (Counter(), Counter(), Counter())
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
        cut = [1 << lay.w * min(max(b - first, 0), lanes) for b in bounds]
        for hist, lo, hi in zip(hists, cut, cut[1:]):
            ge = [(g & (hi - lo)).bit_count() for g in ranks] + [0]
            hist.update({r: a - b for r, (a, b) in enumerate(zip(ge, ge[1:]))
                         if a > b})
    return hists


def prior_lifted_bound(q: int, n: int, m: int, k: int,
                       tau_s: int) -> Fraction:
    """Earlier existential bound at subspace radius tau_s: the rank-level
    prior_counting_bound at tau = floor(tau_s/2), since [n, n-t]_q =
    [n, t]_q."""
    return prior_counting_bound(q, n, m, k, tau_s // 2)


def verify_lifted_instance(inst, tau_s: Optional[int] = None,
                           budget: int = BALL_BUDGET):
    """Subspace-level checks of a rank-level instance, as a
    VerificationReport: every listed word's lifted distance within tau_s
    (2 tau expected); the rank ball at tau against the lifted ball at
    floor(tau_s/2), both counted in exact_ball's one ball at top; and
    the listed words in that ball within lifted distance 2 tau against
    adversarial.instance_bound at the instance radius, which the lifted
    code carries over.  Over the budget the ball check is skipped and
    every listed word within 2 tau counts.  A repeated ball word, or one
    beyond 2 top, raises InvariantViolation: that shows every word
    counted, not that exact_ball missed none."""
    if tau_s is None:
        tau_s = 2 * inst.tau
    tau, half = inst.tau, tau_s // 2
    top = max(tau, half)
    checks = []

    def within(hist, t):
        return sum(c for r, c in hist.items() if r <= t)

    lifted_center = lift_word(inst.center)
    if any((cw.spec.q, len(cw.coords), cw.spec.e) != lifted_center[:3]
           for cw in inst.codewords):
        raise ShapeMismatch("lifted subspaces of different shapes")
    code = inst.code
    try:
        ball = exact_ball(code, inst.center, top, budget)
    except BudgetExceeded:
        ball = None
    inside, outside, only = _listed_distances(lifted_center, inst.codewords,
                                              ball or ())
    dists = [2 * r for r in sorted(inside + outside)]
    checks.append(CheckResult(
        "lifted_distances_within_radius",
        "pass" if dists and dists[-1] <= tau_s else "fail",
        measured=dists, expected=[2 * tau]))

    if ball is None:
        checks.append(CheckResult(
            "ball_relation_inequality", "skipped",
            measured=f"code size {code.size} over budget {budget}"))
        counted = outside
    else:
        lifted = inside + only
        if within(lifted, top) != len(ball):
            raise InvariantViolation(
                f"lifted ball: {within(lifted, top)} distinct words within "
                f"lifted distance {2 * top} of the {len(ball)} listed")
        rank_count, count = within(lifted, tau), within(lifted, half)
        checks.append(CheckResult(
            "ball_relation_inequality",
            "pass" if rank_count <= count else "fail",
            measured=count, expected=rank_count))
        counted = inside

    # the bound belongs to the instance radius; tau_s only sets the
    # distance check and the lifted ball
    bound = instance_bound(inst)
    listed = within(counted, tau)
    checks.append(CheckResult(
        f"lifted_{inst.kind}_bound",
        "pass" if bound is not None and listed >= bound else "fail",
        measured=listed, expected=bound))

    return VerificationReport(checks)
