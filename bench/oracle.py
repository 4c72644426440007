"""Arithmetic written apart from ranklab, used to check its outputs.

Everything here reads the serials that ranklab writes into its JSON files:
an element of GF(q^m) is the packed integer sum c_i q^i of its coordinates
in the polynomial basis modulo the recorded monic modulus.  Addition is
digit-wise mod q, so rank questions need no field multiplication; the
brute-force ball needs one, and it is a plain schoolbook product here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


def to_digits(a: int, q: int, m: int) -> List[int]:
    out = []
    for _ in range(m):
        a, r = divmod(a, q)
        out.append(r)
    return out


def from_digits(ds: Sequence[int], q: int) -> int:
    a = 0
    for d in reversed(ds):
        a = a * q + d
    return a


def rank_mod_q(rows: Sequence[Sequence[int]], q: int) -> int:
    """Rank over GF(q) of a list of digit vectors, by column elimination."""
    work = [[v % q for v in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top = work[rank]
        inv = pow(top[col], q - 2, q)
        top = [(v * inv) % q for v in top]
        work[rank] = top
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [(v - f * t) % q for v, t in zip(work[i], top)]
        rank += 1
    return rank


def rank_gf2_packed(vecs: Sequence[int]) -> int:
    """Rank over GF(2) of bit-packed vectors: keep a basis in which no
    element's leading bit appears in another; reduce each new vector by
    taking the smaller of v and v ^ b."""
    basis: List[int] = []
    for v in vecs:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


def word_rank(coords: Sequence[int], q: int, m: int) -> int:
    """Rank over GF(q) of the m x n expansion of a word."""
    if q == 2:
        return rank_gf2_packed(coords)
    return rank_mod_q([to_digits(c, q, m) for c in coords], q)


def sub_serial(a: int, b: int, q: int, m: int) -> int:
    if q == 2:
        return a ^ b
    return from_digits([(x - y) % q for x, y in
                        zip(to_digits(a, q, m), to_digits(b, q, m))], q)


def rank_distance(u: Sequence[int], v: Sequence[int], q: int, m: int) -> int:
    return word_rank([sub_serial(a, b, q, m) for a, b in zip(u, v)], q, m)


# ----------------------------------------------------------------------
# The paper's list sizes
# ----------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def explicit_list_size(q: int, n: int, g: int, s: int) -> int:
    """(q^n - 1) / (q^(gs) - 1): the orbit family's size."""
    return (q ** n - 1) // (q ** (g * s) - 1)


def counting_radius(n: int, k: int, g: int) -> int:
    """Smallest tau past unique decoding with g | tau and g | (n - tau)."""
    d = n - k + 1
    for tau in range((d - 1) // 2 + 1, d):
        if tau % g == 0 and (n - tau) % g == 0 and n % g == 0:
            return tau
    raise ValueError(f"no counting radius for n={n}, k={k}, g={g}")


def counting_list_bound(q: int, n: int, g: int, tau: int) -> int:
    """ceil([n/g, (n - tau)/g]_{q^g} / q^(n ell)) with ell = tau/g - 1."""
    ell = tau // g - 1
    frac = Fraction(gaussian_binomial(n // g, (n - tau) // g, q ** g),
                    q ** (n * ell))
    return -(-frac.numerator // frac.denominator)


# ----------------------------------------------------------------------
# Brute-force ball over the whole code
# ----------------------------------------------------------------------

class PrimeExtension:
    """GF(q^m) as GF(q)[x] / (modulus), schoolbook products on digits."""

    def __init__(self, q: int, modulus: Sequence[int]):
        self.q = q
        self.m = len(modulus) - 1
        self.modulus = list(modulus)

    def mul(self, a: int, b: int) -> int:
        q, m = self.q, self.m
        da, db = to_digits(a, q, m), to_digits(b, q, m)
        prod = [0] * (2 * m)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        for deg in range(2 * m - 1, m - 1, -1):
            c = prod[deg] % q
            if c:
                for j in range(m + 1):
                    prod[deg - m + j] -= c * self.modulus[j]
        return from_digits([c % q for c in prod[:m]], q)

    def power(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def code_basis(q: int, m: int, k: int, modulus: Sequence[int],
               points: Sequence[int]) -> List[Tuple[int, ...]]:
    """GF(q)-basis of Gab[n, k]: the words (x^t p_j^(q^i))_j, i < k, t < m."""
    fld = PrimeExtension(q, modulus)
    basis = []
    for i in range(k):
        frob = [fld.power(p, q ** i) for p in points]
        for t in range(m):
            xt = q ** t                     # serial of x^t
            basis.append(tuple(fld.mul(xt, f) for f in frob))
    return basis


def brute_force_ball(q: int, m: int, k: int, modulus: Sequence[int],
                     points: Sequence[int], center: Sequence[int],
                     tau: int) -> List[Tuple[int, ...]]:
    """Every codeword within rank distance tau of center, by a base-q
    odometer over all q^(mk) messages."""
    basis = code_basis(q, m, k, modulus, points)
    n = len(points)
    if q == 2:
        word = [0] * n
        found = []
        for idx in range(1 << len(basis)):
            if idx:
                step = basis[(idx & -idx).bit_length() - 1]
                word = [a ^ b for a, b in zip(word, step)]
            if word_rank([c ^ w for c, w in zip(center, word)], 2, m) <= tau:
                found.append(tuple(word))
        return sorted(found)
    # digit form: word[j] is the digit list of coordinate j
    bdig = [[to_digits(c, q, m) for c in b] for b in basis]
    cdig = [to_digits(c, q, m) for c in center]
    word = [[0] * m for _ in range(n)]
    counter = [0] * len(basis)
    found = []
    while True:
        diff = [[(c - w) % q for c, w in zip(cc, ww)]
                for cc, ww in zip(cdig, word)]
        if rank_mod_q(diff, q) <= tau:
            found.append(tuple(from_digits(w, q) for w in word))
        pos = 0
        while pos < len(basis):
            word = [[(w + b) % q for w, b in zip(ww, bb)]
                    for ww, bb in zip(word, bdig[pos])]
            counter[pos] = (counter[pos] + 1) % q
            if counter[pos]:
                break
            pos += 1
        if pos == len(basis):
            return sorted(found)


def ball_of_instance(inst: Dict) -> List[Tuple[int, ...]]:
    """Brute-force ball around the center of a ranklab instance file."""
    c = inst["code"]
    return brute_force_ball(c["q"], c["m"], c["k"], c["modulus"],
                            c["eval_points"], inst["center"], inst["tau"])
