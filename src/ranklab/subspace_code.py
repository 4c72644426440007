"""Lifting rank-metric words and codes to constant-dimension subspace codes.

An n x m matrix X over GF(q) lifts to the rowspace of [I_n | X], an
n-dimensional subspace of GF(q)^(n+m); the map is injective and doubles
distances: d_s(lift X, lift Y) = 2 rank(X - Y).  A word over GF(q^m) lifts
its transposed matrix: row j of X holds the digits of coordinate j.

The lifted count of verify_lifted_instance, lifted_count, tests every
codeword's lift against the lifted center, d_s <= tau_s iff rank[center
rows; word rows] <= n + floor(tau_s/2).  It takes the codewords in batches
of thousands side by side (gabidulin._lane_walk), lays each lane's rows
out as lift_word does, [X | I_n] with an identity slice of ones, and
eliminates a whole batch, stacked on the center's rows, in one
gfmatrix.rank_lanes_exceed call, on every q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ranklab import gfmatrix
from ranklab.adversarial import CheckResult, VerificationReport, instance_bound
from ranklab.errors import InvariantViolation, ShapeMismatch
from ranklab.field import sub_digits
from ranklab.gabidulin import (
    BALL_BUDGET,
    GabidulinCode,
    RankWord,
    _lane_walk,
    codewords,
    exact_ball,
    prior_counting_bound,
)

LIFT_BUDGET = 1 << 18          # lift_code keeps every lifted subspace


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

    @property
    def dim(self) -> int:
        return self.n

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The rows [I_n | X] as digit tuples: the identity digits
        m..m+n-1 first, then the m digits of X."""
        q, m = self.q, self.m
        order = (*range(m, m + self.n), *range(m))
        return tuple(tuple(v // q ** j % q for j in order)
                     for v in self.packed)

    def payload(self) -> Tuple[Tuple[int, ...], ...]:
        """The matrix X: the last m digits of each row of [I_n | X]."""
        return tuple(r[self.n:] for r in self.rows)


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


def lift_code(code: GabidulinCode) -> List[LiftedSubspace]:
    """Lift of all transposed codewords: an (n+m, q^(mk), 2d, n)_q code;
    raises BudgetExceeded above LIFT_BUDGET codewords."""
    out = [lift_word(w) for w in codewords(code, LIFT_BUDGET)]
    if len({ls.packed for ls in out}) != len(out):
        raise InvariantViolation("lifting merged distinct codewords")
    return out


def lifted_count(code: GabidulinCode, center: LiftedSubspace,
                 half: int) -> int:
    """The number of codewords whose lift lies within subspace distance
    2 half of center: d_s <= 2 half iff rank[center rows; word rows] <=
    n + half, tested one _lane_walk batch per rank_lanes_exceed call."""
    q, n = code.q, code.n
    count = 0
    for lanes, _, slices in _lane_walk(code):
        ones = gfmatrix.lane_layout(lanes, q).ones
        # lane L's row j: its m slices of coordinate j, then the identity
        # slice, 1 in every lane, at m + j
        rows = [[*s, *(0,) * j, ones] for j, s in enumerate(slices)]
        count += lanes - gfmatrix.rank_lanes_exceed(
            center.packed, rows, n + half, lanes, q).bit_count()
    return count


def prior_lifted_bound(q: int, n: int, m: int, k: int,
                       tau_s: int) -> Fraction:
    """Earlier existential bound at subspace radius tau_s: the rank-level
    prior_counting_bound at tau = floor(tau_s/2), since [n, n-t]_q =
    [n, t]_q."""
    return prior_counting_bound(q, n, m, k, tau_s // 2)


def verify_lifted_instance(inst, tau_s: Optional[int] = None,
                           budget: int = BALL_BUDGET):
    """Subspace-level checks of a rank-level instance.

    Lifts center and codewords, checks every lifted distance is within
    tau_s (equality to 2 tau expected), compares the rank-level list size
    with the lifted ball when enumerable (equal at floor(tau_s/2) == tau),
    and checks the number of distinct listed codewords within lifted
    distance 2 tau against adversarial.instance_bound at the instance
    radius tau, which the lifted code carries over unchanged.  Returns a
    VerificationReport.
    """
    if tau_s is None:
        tau_s = 2 * inst.tau
    half = tau_s // 2
    checks = []

    lifted_center = lift_word(inst.center)
    dist = {cw.coords: lifted_distance(lifted_center, lift_word(cw))
            for cw in inst.codewords}
    dists = sorted(set(dist.values()))
    checks.append(CheckResult(
        "lifted_distances_within_radius",
        "pass" if dists and dists[-1] <= tau_s else "fail",
        measured=dists, expected=[2 * inst.tau]))

    code = inst.code
    if code.size <= budget:
        rank_count = len(exact_ball(code, inst.center, inst.tau, budget))
        count = lifted_count(code, lifted_center, half)
        if half == inst.tau and count != rank_count:
            raise InvariantViolation(
                f"lifted ball has {count} words, rank ball {rank_count}")
        checks.append(CheckResult(
            "ball_relation_inequality",
            "pass" if rank_count <= count else "fail",
            measured=count, expected=rank_count))
    else:
        checks.append(CheckResult(
            "ball_relation_inequality", "skipped",
            measured=f"code size {code.size} over budget {budget}"))

    # the bound belongs to the instance radius; tau_s only sets the
    # distance check and the lifted count
    listed = sum(1 for d in dist.values() if d <= 2 * inst.tau)
    bound = instance_bound(inst)
    checks.append(CheckResult(
        f"lifted_{inst.kind}_bound",
        "pass" if bound is not None and listed >= bound else "fail",
        measured=listed, expected=bound))

    return VerificationReport(checks)
