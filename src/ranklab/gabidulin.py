"""Gabidulin codes over GF(q^m) with evaluation points spanning a cyclic
shift of the subfield GF(q^n): encoding, the rank metric, the exact ball
oracles, puncturing, and the bound calculators.

A word is a length-n vector of GF(q^m) serials; its matrix form is the m x n
expansion over GF(q) (coordinate i becomes column i), and rank weight is the
rank of that matrix.  Every scan of the code is one walk over its q^(mk)
messages in q-ary Gray order (_walk), never over the ambient space.  The
rank ball has two exact oracles: enumerate_ball walks every codeword, and
ball_by_supports solves one GF(q) system per error support of rank <= tau,
sum_{t<=tau} [n,t]_q of them; exact_ball runs whichever does less work.

Membership and the supports oracle share one GF(q) elimination per code,
_message_system: the mk basis codewords, packed base q, each tagged with
its message digit.  A word reduced against it leaves its syndrome
(_syndrome), the residue above the tag digits, GF(q)-linear and zero
exactly on the code, and its message in the tag digits (preimage_message,
which re-encodes that message before it accepts the word).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
)
from ranklab.field import FieldSpec, embed_serial, make_field, sub_digits
from ranklab.linpoly import LinearizedPoly
from ranklab.subspace import gaussian_binomial, rref_patterns

BALL_BUDGET = 1 << 22


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
        return gfmatrix.tagged_basis(
            [_packed(self, c) for c in self._basis_contributions], self.q)

    @cached_property
    def _syndrome_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Row b (b in GF(q)^n packed base q) holds _syndrome(x^i * b) for
        i < m, summed by linearity from the n*m images of -x^i at one
        coordinate."""
        q, n, m = self.q, self.n, self.m
        minus = [[_syndrome(self, [(q - 1) * q ** i * (u == j)
                                   for u in range(n)]) for i in range(m)]
                 for j in range(n)]
        table = [(0,) * m]
        for j in range(n):
            # rows b + c e_j, c = 1..q-1, after the rows b below q^j
            size = len(table)
            for _ in range(q - 1):
                table += [tuple(sub_digits(a, u, q)
                                for a, u in zip(row, minus[j]))
                          for row in table[-size:]]
        return tuple(table)


def make_code(q: int, n: int, m: int, k: int, beta_exponent: int = 0,
              points: Optional[Sequence[int]] = None) -> GabidulinCode:
    """Gab[n, k] over GF(q^m) with evaluation points beta * (power basis of
    the embedded GF(q^n)).

    Custom points (serials of GF(q^m)) may be supplied for exploration;
    they must be GF(q)-independent but need not lie in a shifted subfield,
    in which case none of the certified-instance claims apply.
    """
    if m % n:
        raise NotASubfield(f"n={n} must divide m={m}")
    if not 1 <= k <= n:
        raise BadDimension(f"need 1 <= k <= n, got k={k}, n={n}")
    field = make_field(q, m)
    beta = field.pow(field.generator_serial, beta_exponent)
    if points is None:
        sub = make_field(q, n)
        base = [embed_serial(sub.pow(sub.generator_serial, j), sub, field)
                for j in range(n)]
        points = tuple(field.mul(beta, b) for b in base)
    else:
        points = tuple(points)
        if len(points) != n:
            raise BadDimension(f"expected {n} evaluation points")
    if len(gfmatrix.basis(points, q)) != n:
        raise BadDimension("evaluation points are not independent")
    return GabidulinCode(field=field, n=n, k=k, beta=beta,
                         eval_points=points, subfield_degree=n,
                         beta_exponent=beta_exponent)


def evaluate_word(code: GabidulinCode, poly: LinearizedPoly) -> RankWord:
    """Evaluation of any linearized polynomial at the code's points."""
    return RankWord(code.field,
                    tuple(poly.evaluate_serial(p) for p in code.eval_points))


def encode(code: GabidulinCode, message: LinearizedPoly) -> RankWord:
    """Codeword of a message of q-degree < k."""
    if message.spec != code.field:
        raise ContextMismatch("message over the wrong field")
    if message.q_degree >= code.k:
        raise DegreeTooHigh(
            f"q-degree {message.q_degree} not below k={code.k}")
    return evaluate_word(code, message)


def _walk(code: GabidulinCode, start: Sequence[int]) -> Iterator[List[int]]:
    """start + c for every codeword c, as one list updated in place, in
    modular q-ary Gray order of the messages: step i adds basis
    contribution t, the number of trailing zero base-q digits of i."""
    contribs = code._basis_contributions
    q, n, add = code.q, code.n, code.field.add
    word = list(start)
    yield word
    for i in range(1, code.size):
        if q == 2:
            vec = contribs[(i & -i).bit_length() - 1]
            for j in range(n):
                word[j] ^= vec[j]
        else:
            t, r = 0, i
            while not r % q:
                t, r = t + 1, r // q
            word[:] = map(add, word, contribs[t])
        yield word


def codewords(code: GabidulinCode,
              budget: int = BALL_BUDGET) -> Iterator[RankWord]:
    """All q^(mk) codewords, each once, in the Gray order of _walk."""
    if code.size > budget:
        raise BudgetExceeded(f"code has {code.size} words, budget {budget}")
    for w in _walk(code, (0,) * code.n):
        yield RankWord(code.field, tuple(w))


def _check_code_context(code: GabidulinCode, w: RankWord):
    if w.spec != code.field or len(w.coords) != code.n:
        raise ContextMismatch("word does not match the code context")


def _packed(code: GabidulinCode, coords: Sequence[int]) -> int:
    """The word's nm GF(q) digits packed base q: digit j*m + b is digit b of
    coordinate j."""
    out = 0
    for c in reversed(coords):
        out = out * code.field.order + c
    return out


def _syndrome(code: GabidulinCode, coords: Sequence[int]) -> int:
    """The residue of the packed word above the tag digits, once reduced
    against the message system: GF(q)-linear in w and zero exactly on the
    code."""
    return gfmatrix.reduce_tagged(code._message_system,
                                  _packed(code, coords), code.q)[0]


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
    x = gfmatrix.reduce_tagged(code._message_system, _packed(code, w.coords),
                               code.q)[1]
    msg = LinearizedPoly(code.field, [x // order ** i % order
                                      for i in range(code.k)])
    return msg if evaluate_word(code, msg).coords == w.coords else None


def contains(code: GabidulinCode, w: RankWord) -> bool:
    return preimage_message(code, w) is not None


def enumerate_ball(code: GabidulinCode, center: RankWord, tau: int,
                   budget: int = BALL_BUDGET) -> List[RankWord]:
    """All codewords within rank distance tau of center, by brute force.

    This is the ground-truth oracle for every list-size claim.  Output is
    sorted by coordinate serials.
    """
    _check_code_context(code, center)
    if code.size > budget:
        raise BudgetExceeded(f"code has {code.size} words, budget {budget}")
    if code.q == 2:
        # walking from the center, each word is center - codeword
        exceeds = gfmatrix.rank_gf2_exceeds
        found = [tuple(c ^ d for c, d in zip(center.coords, diff))
                 for diff in _walk(code, center.coords)
                 if not exceeds(diff, tau)]
    else:
        # one rank_distance per codeword: bench/tracing.py counts the
        # ball's words as the calls it makes to the rank tests it probes
        found = [w.coords for w in codewords(code, budget)
                 if rank_distance(center, w) <= tau]
    found.sort()
    return [RankWord(code.field, c) for c in found]


def ball_by_supports(code: GabidulinCode, center: RankWord,
                     tau: int) -> List[RankWord]:
    """The ball of enumerate_ball by Ourivski-Johansson basis enumeration.

    An error center - c of rank t is a * B: B is the t x n RREF basis of
    its row space over GF(q), a is in GF(q^m)^t.  For each B with t <= tau
    one GF(q) system in mt unknowns, sum x_si _syndrome(x^i b_s) =
    _syndrome(center), is solved; a counts only if its entries are
    GF(q)-independent, so each word is found once, under its error's row
    space.  Below d the code is MRD and the mt columns are independent;
    gfmatrix.coordinates raises InvariantViolation where they are not.
    """
    _check_code_context(code, center)
    field, q, n, m = code.field, code.q, code.n, code.m
    table = code._syndrome_table
    target = _syndrome(code, center.coords)
    found = []
    for t in range(tau + 1):
        for rows in rref_patterns(n, t, q):
            cols = [c for row in rows
                    for c in table[sum(x * q ** j for j, x in enumerate(row))]]
            x = gfmatrix.coordinates(cols, target, q)
            if x is None:
                continue
            a = [x // field.order ** s % field.order for s in range(t)]
            if len(gfmatrix.basis(a, q)) < t:
                continue
            err = [0] * n
            for a_s, row in zip(a, rows):
                err = [field.add(e, field.mul(a_s, b))
                       for e, b in zip(err, row)]
            found.append(tuple(map(field.sub, center.coords, err)))
    found.sort()
    return [RankWord(field, c) for c in found]


def exact_ball(code: GabidulinCode, center: RankWord, tau: int,
               budget: int = BALL_BUDGET) -> List[RankWord]:
    """The ball from ball_by_supports where tau < d and its
    sum_{t<=tau} [n,t]_q supports are fewer than the q^(mk) codewords, else
    from enumerate_ball; over budget exactly where enumerate_ball is."""
    _check_code_context(code, center)
    if code.size > budget:
        raise BudgetExceeded(f"code has {code.size} words, budget {budget}")
    if tau < code.min_distance and code.size > sum(
            gaussian_binomial(code.n, t, code.q) for t in range(tau + 1)):
        return ball_by_supports(code, center, tau)
    return enumerate_ball(code, center, tau, budget)


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
