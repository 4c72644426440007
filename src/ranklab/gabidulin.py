"""Gabidulin codes over GF(q^m) with evaluation points spanning a cyclic
shift of the subfield GF(q^n): encoding, the rank metric, the exact ball
oracles, puncturing, and the bound calculators.

A word is a length-n vector of GF(q^m) serials; its matrix form is the m x n
expansion over GF(q) (coordinate i becomes column i), and rank weight is the
rank of that matrix.  Every scan of the code is one walk over its q^(mk)
messages in q-ary Gray order (_walk), never over the ambient space;
_lane_walk yields the codewords side by side in the lanes of one int, up
to 2^LANE_BITS to a batch, and takes each batch's high message digits
from that walk.  The rank ball has three exact oracles.  enumerate_ball,
the per-codeword reference, makes one rank_distance call per codeword of
codewords() on every q; ball_by_lanes tests a whole _lane_walk batch in
one lane elimination; ball_by_supports solves the syndrome equations
along the sum_{t<=tau} [n,t]_q error supports of rank <= tau with
gfmatrix.tagged_walk, each extending its parent's GF(q) elimination by
m columns.  Where the Singer group permutes the ball, it walks only the
supports through e_0, about theta(n)/theta(t) fewer, theta(n) = (q^n -
1)/(q - 1), and lists the ball from their hits by the error map psi(E) =
gamma^(-q^r) sigma_gamma(E), gamma the embedded generator of GF(q^n)
and sigma_gamma (_sigma) the multiplication of the points by it.  Two
checks decide that: the points' span is gamma-stable (code._singer, a
GF(q) solve of each gamma p_j), and sigma_gamma(center) - gamma^(q^r)
center is a codeword for some r in [k, n) (_singer_power, one syndrome
per r), as for every center whose pivot is c x^(q^r) plus terms of
q-degree < k: each explicit instance and the benchmark's counting ones.
Where either fails (a punctured code, n not dividing m, any other
center) it declines to the full walk.  _supports_plan decides that walk
and counts its nodes, once per call; exact_ball runs ball_by_supports or
ball_by_lanes, whichever costs less, a node of that walk counted as
SUPPORT_COST codeword tests.

Membership and the supports oracle share one GF(q) elimination per code,
_message_system: the mk basis codewords, packed base q, each tagged with
its message digit.  A word reduced against it leaves its syndrome
(_syndrome), the residue above the tag digits, GF(q)-linear and zero
exactly on the code, and its message in the tag digits (preimage_message,
which re-encodes that message before it accepts the word).  Encoding is
evaluate_word, one FieldSpec.frobenius_sums call at the n points; the n
points are GF(q)-independent, so it is injective below q-degree k, and a
caller that knows a word's message, as adversarial.verify_instance knows
pivot - member, checks membership by that one evaluation and no
elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ranklab import gfmatrix
from ranklab.errors import (
    BadDimension,
    BudgetExceeded,
    ContextMismatch,
    DegreeTooHigh,
    NegativeDiscriminant,
    NotASubfield,
    RadiusTooLarge,
    TooManyPunctures,
    require,
)
from ranklab.field import FieldSpec, embed_serial, make_field
from ranklab.linpoly import LinearizedPoly
from ranklab.subspace import gaussian_binomial, rref_walk

BALL_BUDGET = 1 << 22
# A batch of _lane_walk holds <= 2^LANE_BITS codewords.  A lane operation
# costs interpreter overhead per big int, so wider batches cost less per
# codeword, up to a point: one lifted count over every codeword
# (tests/reference.py's lifted_count) took 18 ms at 2^12 lanes, 12
# at 2^13, 4.7-4.8 at 2^14, 3.6-3.7 at 2^15 and 5.1-6.7 at 2^16 on the two
# Gab[6,3]/GF(2^6) instances of the q2-exhaustive benchmark, and 13, 11,
# 4.9, 5.0 and 5.8 ms on its Gab[8,1]/GF(2^16) (medians of seven calls,
# CPython 3.11, 2-core x86-64 VM).  At 2^14 that benchmark's peak_rss_mb
# went 26.61 -> 26.77 MB (medians of ten runs against 2^12).
LANE_BITS = 14
# What one node of ball_by_supports' walk costs in codeword tests of
# ball_by_lanes, both oracles on a fresh code object, in process time, with
# 2^14-lane batches, at the radius of the seven exhaustive benchmark
# instances.  Full walk: 70-93 on Gab[4,2]/GF(3^4) and Gab[4,1]/GF(3^8),
# 310-319 on both Gab[6,3]/GF(2^6) centers, 17-19 on Gab[4,1]/GF(5^4).
# Through e_0, each call's fixed costs on fewer nodes: 198-314, 1,347-1,374,
# 77-78, and 182-262 on Gab[8,1]/GF(2^16) (CPython 3.11, 2-core x86-64 VM).
# exact_ball takes the cheaper oracle by it on all seven; any value from 39
# to 366 picks the same on both walks, 19 to 437 on the walk through e_0.
SUPPORT_COST = 100


@dataclass(frozen=True)
class RankWord:
    """A length-n word over GF(q^m), coordinates as serials."""

    spec: FieldSpec
    coords: Tuple[int, ...]

    def __len__(self):
        return len(self.coords)


def _same_context(w1: RankWord, w2: RankWord):
    if w1.spec != w2.spec or len(w1) != len(w2):
        raise ContextMismatch("words from different code contexts")


def rank_weight(w: RankWord) -> int:
    """Rank over GF(q) of the m x n matrix expansion of the word."""
    if w.spec.q == 2:
        return gfmatrix.rank_gf2(w.coords)
    return len(gfmatrix.basis(w.coords, w.spec.q))


def rank_distance(w1: RankWord, w2: RankWord) -> int:
    _same_context(w1, w2)
    spec = w1.spec
    diff = RankWord(spec, tuple(spec.sub(a, b)
                                for a, b in zip(w1.coords, w2.coords)))
    return rank_weight(diff)


@dataclass(frozen=True)
class GabidulinCode:
    """Evaluation code of linearized polynomials of q-degree < k.

    eval_points are n GF(q)-independent serials of GF(q^m), all inside
    beta * GF(q^n).  punctured marks codes whose length no longer divides m.
    """

    field: FieldSpec
    n: int
    k: int
    beta: int
    eval_points: Tuple[int, ...]
    subfield_degree: int
    beta_exponent: int = 0
    punctured: int = 0

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def m(self) -> int:
        return self.field.e

    @property
    def min_distance(self) -> int:
        return self.n - self.k + 1

    @property
    def size(self) -> int:
        return self.field.order ** self.k

    def __repr__(self):
        return (f"Gab[{self.n},{self.k}] over GF({self.q}^{self.m})"
                + (f" punctured x{self.punctured}" if self.punctured else ""))

    @cached_property
    def _basis_contributions(self) -> Tuple[Tuple[int, ...], ...]:
        """Codewords of the GF(q)-basis messages x^t * x^(q^i); message
        digit i*m + t is digit t of the coefficient of x^(q^i)."""
        field = self.field
        out = []
        for i in range(self.k):
            frob_points = [field.frobenius(p, i) for p in self.eval_points]
            for t in range(field.e):
                out.append(tuple(field.mul(field.q ** t, fp)
                                 for fp in frob_points))
        return tuple(out)

    @cached_property
    def _message_system(self) -> dict:
        """gfmatrix.tagged_basis of the mk basis codewords, packed as
        _packed does: tag digit i*m + t is message digit i*m + t."""
        order = self.field.order
        return gfmatrix.tagged_basis(
            [_packed(order, c) for c in self._basis_contributions], self.q)

    @cached_property
    def _singer(self) -> Optional[tuple]:
        """(gamma, terms) for _sigma, or None where n does not divide m or
        the points' GF(q) span is not gamma-stable (a punctured code, say):
        gamma is the embedded generator of GF(q^n), and terms[j] the pairs
        (i, A_ij), A_ij != 0, of gamma p_j = sum_i A_ij p_i, each solved
        in the points' basis by gfmatrix.tagged_basis/reduce_tagged."""
        field, q, n = self.field, self.q, self.n
        if field.e % n:
            return None
        sub = make_field(q, n)
        gamma = embed_serial(sub.generator_serial, sub, field)
        system = gfmatrix.tagged_basis(self.eval_points, q)
        terms = []
        for p in self.eval_points:
            residue, x = gfmatrix.reduce_tagged(system, field.mul(gamma, p),
                                                q)
            if residue:
                return None
            terms.append(tuple((i, x // q ** i % q) for i in range(n)
                               if x // q ** i % q))
        return gamma, tuple(terms)

    @cached_property
    def _singer_logs(self) -> dict:
        """The Singer log of every nonzero v in GF(q)^n, packed base q: the
        j < theta(n) = (q^n - 1)/(q - 1) with v = c e_0 A^j, c in GF(q)^*,
        where v A is _sigma of v's digits.  Read off e_0's first theta(n)
        images, each with its q - 1 multiples (a GF(q) scalar times a
        packed vector, as a serial); a primitive gamma makes them all the
        q^n - 1 vectors and brings e_0 back to a multiple of itself,
        InvariantViolation where it does not."""
        field, q, n = self.field, self.q, self.n
        v = (1,) + (0,) * (n - 1)
        logs = {}
        for j in range(gaussian_binomial(n, 1, q)):
            packed = _packed(q, v)
            logs[packed] = j
            for c in range(2, q):
                logs[field.mul(c, packed)] = j
            v = _sigma(self, v)
        require(not any(v[1:]) and len(logs) == q ** n - 1,
                "gamma's multiplication is not one cycle on the points")
        return logs

    @cached_property
    def _lane_lows(self) -> dict:
        """_lane_low's slices by b, filled as _lane_walk asks for them: the
        lane count follows gabidulin.LANE_BITS, which may change between
        walks of one code."""
        return {}


def check_code_params(n: int, m: int, k: int):
    """Reject a Gab[n, k] over GF(q^m) unless n >= 1, m >= 1, n | m and
    1 <= k <= n; make_code and the bounds table share these checks."""
    if n < 1:
        raise BadDimension(f"need n >= 1, got n={n}")
    if m < 1:
        raise BadDimension(f"need m >= 1, got m={m}")
    if m % n:
        raise NotASubfield(f"n={n} must divide m={m}")
    if not 1 <= k <= n:
        raise BadDimension(f"need 1 <= k <= n, got k={k}, n={n}")


def make_code(q: int, n: int, m: int, k: int,
              beta_exponent: int = 0) -> GabidulinCode:
    """Gab[n, k] over GF(q^m) with evaluation points beta * (power basis of
    the embedded GF(q^n))."""
    check_code_params(n, m, k)
    field = make_field(q, m)
    beta = field.pow(field.generator_serial, beta_exponent)
    sub = make_field(q, n)
    base = [embed_serial(sub.pow(sub.generator_serial, j), sub, field)
            for j in range(n)]
    points = tuple(field.mul(beta, b) for b in base)
    if len(gfmatrix.basis(points, q)) != n:
        raise BadDimension("evaluation points are not independent")
    return GabidulinCode(field=field, n=n, k=k, beta=beta,
                         eval_points=points, subfield_degree=n,
                         beta_exponent=beta_exponent)


def evaluate_word(code: GabidulinCode, poly: LinearizedPoly) -> RankWord:
    """Evaluation of any linearized polynomial at the code's points."""
    return RankWord(code.field, tuple(
        code.field.frobenius_sums(poly.coeffs, code.eval_points)))


def encode(code: GabidulinCode, message: LinearizedPoly) -> RankWord:
    """Codeword of a message of q-degree < k."""
    if message.spec != code.field:
        raise ContextMismatch("message over the wrong field")
    if message.q_degree >= code.k:
        raise DegreeTooHigh(
            f"q-degree {message.q_degree} not below k={code.k}")
    return evaluate_word(code, message)


def _walk(code: GabidulinCode, low: int = 0) -> Iterator[List[int]]:
    """Every codeword whose message digits below low are zero (every
    codeword at low = 0), as one list updated in place, in modular q-ary
    Gray order of the messages: step i adds basis contribution low + t, t
    the number of trailing zero base-q digits of i."""
    contribs = code._basis_contributions[low:]
    q, add = code.q, code.field.add
    word = [0] * code.n
    yield word
    for i in range(1, q ** len(contribs)):
        t, r = 0, i
        while not r % q:
            t, r = t + 1, r // q
        word[:] = map(add, word, contribs[t])
        yield word


def _lane_digits(code: GabidulinCode) -> int:
    """b, the number of low message digits that vary across the lanes of
    one _lane_walk batch: the largest with q^b <= 2^LANE_BITS and b <= mk."""
    q, b = code.q, 0
    while (b < len(code._basis_contributions)
           and q ** (b + 1) <= 1 << LANE_BITS):
        b += 1
    return b


def _lane_low(code: GabidulinCode, b: int) -> Tuple[Tuple[int, ...], ...]:
    """The slices of the codewords of the b low message digits, in the
    layout of _lane_walk: lane L of [j][p] is digit p of coordinate j of
    the codeword whose message digits are L's base-q digits.  Each digit of
    a codeword is GF(q)-linear in the message digits, so they are sums of
    the lane patterns of the b low digits, each a repunit multiple of one
    block.  Built once per code object and b (code._lane_lows)."""
    low = code._lane_lows.get(b)
    if low is not None:
        return low
    q, m = code.q, code.m
    lay = gfmatrix.lane_layout(q ** b, q)
    w, add, digits = lay.w, lay.add, code.field.digits
    rows = [[0] * m for _ in range(code.n)]
    for i, c in enumerate(code._basis_contributions[:b]):
        # lane L holds digit i of L: runs of q^i lanes holding 0, 1, ..,
        # q - 1, the block of q^(i+1) lanes repeated q^(b-i-1) times
        block = gfmatrix.lane_layout(q ** i, q).ones * sum(
            d << d * q ** i * w for d in range(q))
        pattern = lay.tile(block, q ** (i + 1))
        times = [d * pattern for d in range(q)]
        for row, cj in zip(rows, c):
            for p, d in enumerate(digits(cj)):
                if d:
                    row[p] = add(row[p], times[d])
    low = code._lane_lows[b] = tuple(map(tuple, rows))
    return low


def _lane_walk(code: GabidulinCode, offset: Sequence[int] = ()) \
        -> Iterator[Tuple[int, Tuple[int, ...], List[List[int]]]]:
    """Every codeword, in batches of lanes = q^b codewords side by side, b
    from _lane_digits: yields (lanes, high, slices), where lane L of
    slices[j][p], a lane int of gfmatrix.lane_layout(lanes, q), is digit p
    of coordinate j of lane L's codeword.  Lane L's message has L's base-q
    digits as its b low digits and the batch's high part above them, which
    _walk visits over contributions b.. in Gray order; high is the
    codeword of that high part, lane 0's, which every lane adds to the
    _lane_low slices of its low digits; a batch adds each digit d of high
    to every lane, as d ones.  A nonempty offset word is added to high
    before its digits are taken: the slices then hold c + offset, high
    stays c's."""
    b = _lane_digits(code)
    lay = gfmatrix.lane_layout(code.q ** b, code.q)
    add, digits = lay.add, code.field.digits
    low = _lane_low(code, b)
    for high in _walk(code, b):
        moved = map(code.field.add, high, offset) if offset else high
        yield lay.count, tuple(high), [[add(s, lay.digit[d]) if d else s
                                        for s, d in zip(row, digits(h))]
                                       for h, row in zip(moved, low)]


def codewords(code: GabidulinCode,
              budget: int = BALL_BUDGET) -> Iterator[RankWord]:
    """All q^(mk) codewords, each once, in the Gray order of _walk."""
    if code.size > budget:
        raise BudgetExceeded(f"code has {code.size} words, budget {budget}")
    for w in _walk(code):
        yield RankWord(code.field, tuple(w))


def _check_code_context(code: GabidulinCode, w: RankWord):
    if w.spec != code.field or len(w.coords) != code.n:
        raise ContextMismatch("word does not match the code context")


def _packed(order: int, coords: Sequence[int]) -> int:
    """A word over GF(q^m), order = q^m, as its nm GF(q) digits packed base
    q: digit j*m + b is digit b of coordinate j."""
    out = 0
    for c in reversed(coords):
        out = out * order + c
    return out


def _syndrome(code: GabidulinCode, coords: Sequence[int]) -> int:
    """The residue of the packed word above the tag digits, once reduced
    against the message system: GF(q)-linear in w and zero exactly on the
    code."""
    return gfmatrix.reduce_tagged(code._message_system,
                                  _packed(code.field.order, coords),
                                  code.q)[0]


def _sigma(code: GabidulinCode, coords: Sequence[int]) -> Tuple[int, ...]:
    """sigma_gamma(w), for a code whose _singer is not None: coordinate j
    is sum_i A_ij w_i, the value at p_j of w's GF(q)-linear map on the
    points' span after multiplication by gamma.  So w A, GF(q)-linear and
    rank-preserving; a codeword f(p_j) goes to the codeword f(gamma p_j),
    and a word's support V to V A."""
    field = code.field
    out = []
    for terms in code._singer[1]:
        s = 0
        for i, a in terms:
            s = field.add(s, coords[i] if a == 1 else field.mul(a, coords[i]))
        out.append(s)
    return tuple(out)


def _singer_power(code: GabidulinCode, center: RankWord) -> Optional[int]:
    """The first r in [k, n) with sigma_gamma(y) - gamma^(q^r) y in the
    code, y the center; None where there is none or code._singer is
    None.  A center whose pivot is c x^(q^r) plus terms of q-degree < k
    passes at that r."""
    if code._singer is None:
        return None
    field, y = code.field, center.coords
    moved = _sigma(code, y)
    for r in range(code.k, code.n):
        g = field.frobenius(code._singer[0], r)
        if not _syndrome(code, [field.sub(s, field.mul(g, c))
                                for s, c in zip(moved, y)]):
            return r
    return None


def _singer_orbits(code: GabidulinCode, center: RankWord,
                   hits: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]],
                   r: int) -> List[Tuple[int, ...]]:
    """The ball words center - E of the errors psi^j(E), E each
    (support rows, error) hit of the walk through e_0, psi(E) =
    gamma^(-q^r) sigma_gamma(E), each word once.

    psi permutes the ball's errors, keeping their rank, and moves a
    support V to V A, so D(psi^j(E)) = D(E) + j mod theta(n), D(E) the
    Singer logs of the points of E's support.  The Singer group is regular
    on the theta(n) points, so a word W of rank t >= 1 is psi^j(E) for
    exactly theta(t) pairs of a hit E and j < theta(n), one per point of
    W's support, and only the pair with j = min D(W) has j < theta(n) -
    max D(E): each hit emits those j.  The root, the center when it is a
    codeword, is emitted once.  InvariantViolation unless the first j
    past them, where E's orbit next meets a support through e_0, gives a
    hit, theta(t) divides theta(n) F_t and rank t lists theta(n) F_t /
    theta(t) words, F_t its hits, and no word repeats.  A hit missing
    from the walk passes them only where its orbit holds no other hit,
    as the one orbit of an explicit instance's ball does."""
    field, q, n = code.field, code.q, code.n
    scale = field.frobenius(field.inv(code._singer[0]), r)
    theta = gaussian_binomial(n, 1, q)
    hit_count, listed = [0] * (n + 1), [0] * (n + 1)
    errors = {err for _, err in hits}
    found = []
    for rows, err in hits:
        t = len(rows)
        steps = theta - max(
            code._singer_logs[v] for (v,) in gfmatrix.digit_sums(
                [[b] for b in rows], 1, q, field.add)[1:]) if t else 1
        hit_count[t] += 1
        listed[t] += steps
        for _ in range(steps):
            found.append(tuple(map(field.sub, center.coords, err)))
            err = tuple(field.mul(scale, e) for e in _sigma(code, err))
        require(err in errors, f"a rank {t} orbit returns to no hit")
    for t in range(1, n + 1):
        words, rest = divmod(theta * hit_count[t], gaussian_binomial(t, 1, q))
        require(not rest and listed[t] == words,
                f"rank {t}: {listed[t]} words from {hit_count[t]} hits")
    require(len(set(found)) == len(found), "a ball word repeats")
    return found


def preimage_message(code: GabidulinCode,
                     w: RankWord) -> Optional[LinearizedPoly]:
    """Message polynomial of q-degree < k encoding w, or None.

    The message system is eliminated once per code object; each word is
    then reduced against it, the message read off its tag digits, and
    accepted only if re-encoding that message reproduces all n
    coordinates.  Independent of the enumeration-based oracle.
    """
    _check_code_context(code, w)
    order = code.field.order
    x = gfmatrix.reduce_tagged(code._message_system,
                               _packed(order, w.coords), code.q)[1]
    msg = LinearizedPoly(code.field, [x // order ** i % order
                                      for i in range(code.k)])
    return msg if evaluate_word(code, msg).coords == w.coords else None


def enumerate_ball(code: GabidulinCode, center: RankWord, tau: int,
                   budget: int = BALL_BUDGET) -> List[RankWord]:
    """All codewords within rank distance tau of center, by brute force.

    The per-codeword reference oracle, the definition the other two
    oracles are checked against: one rank_distance per codeword of
    codewords(), on every q; exact_ball runs ball_by_lanes in its place.
    Output is sorted by coordinate serials.
    """
    _check_code_context(code, center)
    # bench/tracing.py counts the ball's words as the calls it makes to
    # the rank tests it probes
    found = sorted(w.coords for w in codewords(code, budget)
                   if rank_distance(center, w) <= tau)
    return [RankWord(code.field, c) for c in found]


def _supports_plan(code: GabidulinCode, center: RankWord, tau: int,
                   most: float = math.inf) -> Optional[tuple]:
    """The walk of ball_by_supports, (r, walk), or None where it has more
    than most nodes.  r is _singer_power's, and walk takes the supports
    through e_0 when r is not None, (tau >= 0) + sum_{1<=t<=tau}
    [n-1,t-1]_q nodes, else every support, sum_{t<=tau} [n,t]_q; the
    Singer check is skipped where even the first has more than most."""
    q, n = code.q, code.n
    nodes = (tau >= 0) + sum(gaussian_binomial(n - 1, t - 1, q)
                             for t in range(1, tau + 1))
    r = _singer_power(code, center) if nodes <= most else None
    if r is None:
        nodes = sum(gaussian_binomial(n, t, q) for t in range(tau + 1))
        walk = rref_walk(n, range(tau + 1), q)
    else:
        walk = chain([[]] if tau >= 0 else [],
                     ([1, *(q * b for b in rows)]
                      for rows in rref_walk(n - 1, range(tau), q)))
    return (r, walk) if nodes <= most else None


def ball_by_supports(code: GabidulinCode, center: RankWord,
                     tau: int) -> List[RankWord]:
    """The ball of enumerate_ball by Ourivski-Johansson basis enumeration.

    An error center - c of rank t is a * B: B is the t x n RREF basis of
    its row space over GF(q), a is in GF(q^m)^t, and the mt GF(q) digits
    x_si of a solve sum x_si _syndrome(x^i b_s) = _syndrome(center).  The
    supports B with t <= tau come from rref_walk(n, range(tau + 1), q),
    and gfmatrix.tagged_walk solves along it, with unit row j's images
    the m syndromes of x^i at coordinate j and T = m*tau tag digits.
    Below d the code is MRD, so no support's syndromes are dependent;
    InvariantViolation where they are.  A hit's x holds the x_si; a
    counts only if its entries are GF(q)-independent, so each word is
    found once, under its error's row space.

    The walk is reduced where the ball is invariant under the Singer
    group: where the points' span is stable under gamma, the embedded
    generator of GF(q^n) (code._singer), and some r in [k, n) has
    sigma_gamma(center) - gamma^(q^r) center in the code (_singer_power),
    as every center whose pivot is c x^(q^r) plus terms of q-degree < k
    has.  Then psi(E) = gamma^(-q^r) sigma_gamma(E) permutes the ball's
    errors, and the walk covers only the supports through e_0: the row
    e_0, then the rows of rref_walk(n - 1, range(tau), q) shifted up one
    digit, sum_{1<=t<=tau} [n-1,t-1]_q supports, about theta(n)/theta(t)
    fewer; _singer_orbits lists the ball from their hits.  Elsewhere (a
    punctured code, n not dividing m, any other center) it walks every
    support (_supports_plan).  Output is sorted by coordinate serials.
    """
    _check_code_context(code, center)
    return _walk_supports(code, center, tau, *_supports_plan(code, center,
                                                             tau))


def _walk_supports(code: GabidulinCode, center: RankWord, tau: int,
                   r: Optional[int], walk) -> List[RankWord]:
    """ball_by_supports along the walk of its _supports_plan (r, walk)."""
    field, q, n, m = code.field, code.q, code.n, code.m
    units = [[_syndrome(code, [q ** i * (u == j) for u in range(n)])
              for i in range(m)] for j in range(n)]
    hits = []
    for rows, x in gfmatrix.tagged_walk(
            walk, units, _syndrome(code, center.coords), m * max(tau, 0), q):
        t = len(rows)
        a = [x // field.order ** s % field.order for s in range(t)]
        if len(gfmatrix.basis(a, q)) == t:
            err = [0] * n
            for a_s, row in zip(a, rows):
                err = [field.add(e, field.mul(a_s, row // q ** j % q))
                       for j, e in enumerate(err)]
            hits.append((tuple(rows), tuple(err)))
    if r is None:
        found = [tuple(map(field.sub, center.coords, err))
                 for _, err in hits]
    else:
        found = _singer_orbits(code, center, hits, r)
    found.sort()
    return [RankWord(field, c) for c in found]


def ball_by_lanes(code: GabidulinCode, center: RankWord,
                  tau: int) -> List[RankWord]:
    """The ball of enumerate_ball, one gfmatrix.rank_lanes call per batch
    of _lane_walk, offset by -center: its slices hold c - center lane by
    lane, so the lanes outside its last mask, rank > tau, are the ball.  The
    rank of c - center is that of its transpose, and v vectors of width u
    take O(v u^2) lane operations to eliminate, so the call takes the m
    digit planes, vectors of n <= m coordinates (n points independent over
    GF(q)), in place of the n coordinate vectors of m digits.
    A ball word is rebuilt from its lane index L: the batch's high part,
    plus the codeword of L's b base-q digits, read from two tables of
    partial sums of the b low basis codewords, q^floor(b/2) sums of the
    low half and q^ceil(b/2) of the high half, built once per call.
    Output is sorted by coordinate serials."""
    _check_code_context(code, center)
    field, q, n = code.field, code.q, code.n
    b = _lane_digits(code)
    contribs = code._basis_contributions
    lo = gfmatrix.digit_sums(contribs[:b // 2], n, q, field.add)
    hi = gfmatrix.digit_sums(contribs[b // 2:b], n, q, field.add)
    split = len(lo)
    found = []
    for lanes, high, slices in _lane_walk(
            code, tuple(map(field.neg, center.coords))):
        lay = gfmatrix.lane_layout(lanes, q)
        inside = lay.ones ^ gfmatrix.rank_lanes([], zip(*slices), tau,
                                                lanes, q)[-1]
        bits = bin(inside)[:1:-1]     # bit w L is lane L's flag
        i = bits.find("1")
        while i >= 0:
            lane = i // lay.w
            found.append(tuple(map(field.add, high, map(
                field.add, lo[lane % split], hi[lane // split]))))
            i = bits.find("1", i + 1)
    found.sort()
    return [RankWord(field, c) for c in found]


def exact_ball(code: GabidulinCode, center: RankWord, tau: int,
               budget: int = BALL_BUDGET) -> List[RankWord]:
    """The ball from ball_by_supports where tau < d and the walk of its
    _supports_plan, at SUPPORT_COST codeword tests a node, costs less
    than the q^(mk) codewords, else from ball_by_lanes; over budget
    exactly where enumerate_ball is."""
    _check_code_context(code, center)
    if code.size > budget:
        raise BudgetExceeded(f"code has {code.size} words, budget {budget}")
    plan = tau < code.min_distance and _supports_plan(
        code, center, tau, (code.size - 1) // SUPPORT_COST)
    if plan:
        return _walk_supports(code, center, tau, *plan)
    return ball_by_lanes(code, center, tau)


# ----------------------------------------------------------------------
# Puncturing
# ----------------------------------------------------------------------

def puncture(code: GabidulinCode, s: int) -> GabidulinCode:
    """Drop the last s coordinates: a length n-s, dimension k code."""
    if not 0 <= s < code.min_distance:
        raise TooManyPunctures(
            f"s={s} must be below the minimum distance {code.min_distance}")
    if s == 0:
        return code
    return GabidulinCode(field=code.field, n=code.n - s, k=code.k,
                         beta=code.beta,
                         eval_points=code.eval_points[:code.n - s],
                         subfield_degree=code.subfield_degree,
                         beta_exponent=code.beta_exponent,
                         punctured=code.punctured + s)


def puncture_word(w: RankWord, positions: Sequence[int]) -> RankWord:
    """Remove the given coordinate positions."""
    drop = set(positions)
    return RankWord(w.spec, tuple(c for j, c in enumerate(w.coords)
                                  if j not in drop))


def punctured_radius_shift(s: int, n: int, k: int) -> int:
    """Radius offset s' with tau = tau' + s' after s puncturings.

    s even -> s/2; s odd and n-k even -> (s+1)/2; both odd -> (s-1)/2.
    """
    if s % 2 == 0:
        return s // 2
    if (n - k) % 2 == 0:
        return (s + 1) // 2
    return (s - 1) // 2


# ----------------------------------------------------------------------
# Bound calculators
# ----------------------------------------------------------------------

def johnson_like_radius(n: int, m: int, d: int,
                        eps: Union[int, float, Fraction] = 0) -> float:
    """(m+n)/2 - sqrt((m+n)^2/4 - m(d-eps)); error below 1e-9.

    For n = m and eps = 0 this is n - sqrt(n(n-d)).  eps = 1 is allowed
    for the strengthened comparison variant.
    """
    if not 0 <= eps <= 1:
        raise NegativeDiscriminant(f"eps={eps} outside [0, 1]")
    disc = Fraction(m + n, 2) ** 2 - Fraction(m) * (Fraction(d) - Fraction(eps))
    if disc < 0:
        raise NegativeDiscriminant("square root argument is negative")
    return (m + n) / 2 - math.sqrt(disc)


def prior_counting_bound(q: int, n: int, m: int, k: int,
                         tau: int) -> Fraction:
    """Existential list-size bound from the earlier counting argument:
    [n, n-tau]_q / (q^m)^(n-tau-k).  Values below 1 are vacuous."""
    d = n - k + 1
    if tau >= d:
        raise RadiusTooLarge(f"tau={tau} is not below d={d}")
    return Fraction(gaussian_binomial(n, n - tau, q),
                    q ** (m * (n - tau - k)))
