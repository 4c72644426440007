"""Dense exact linear algebra over prime fields GF(q), on one elimination
loop: XOR on bitsets for q = 2, digit lists keyed by their top nonzero
digit for odd q.

Every function takes GF(q) vectors packed base q (digit j is the
coefficient of q^j), as GF(q^m) serials and lifted rows [I | X] are
stored; solve() alone takes matrix rows, and packs them itself.  basis()
gives the rank, rank_test(q) stops once the rank passes a limit, from a
copy of a start basis, and tagged_basis()/reduce_tagged() eliminate a set
of vectors once and then reduce any number of targets against it
(coordinates() is the two in one call).  rref() is the canonical basis of
a span: column j is digit j, so a pivot is a vector's lowest nonzero
digit; this module is the only place that convention lives.  Results are
plain ints and tuples so they can be hashed and compared.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ranklab.errors import InvariantViolation


def _inv_mod(a: int, q: int) -> int:
    return pow(a, q - 2, q)


def _eliminate_gf2(vecs: Iterable[int], basis: Dict[int, int],
                   room: int) -> bool:
    """Add vecs to basis (bit length -> vector); True iff > room are new."""
    for v in vecs:
        while v:
            h = v.bit_length()
            b = basis.get(h)
            if b is None:
                basis[h] = v
                room -= 1
                if room < 0:
                    return True
                break
            v ^= b
    return room < 0


def _digits(v: int, q: int) -> List[int]:
    d = []
    while v:
        d.append(v % q)
        v //= q
    return d


def _reduce_digits(d: List[int], basis: dict, q: int) -> List[int]:
    """Subtract basis vectors from the digit list d (least significant
    first; popped in place) for as long as one has d's top nonzero digit."""
    while True:
        while d and not d[-1]:
            d.pop()
        b = basis.get(len(d))
        if b is None:
            return d
        c = d[-1]
        d = [(x - c * y) % q for x, y in zip(d, b)]


def _store_digits(lists: Iterable[List[int]], basis: dict, room: int,
                  q: int) -> bool:
    """_eliminate for odd q on digit lists (least significant first): keyed
    by length, each stored top digit scaled to 1."""
    for d in lists:
        d = _reduce_digits(d, basis, q)
        if d:
            if d[-1] != 1:
                inv = _inv_mod(d[-1], q)
                d = [x * inv % q for x in d]
            basis[len(d)] = d
            room -= 1
            if room < 0:
                return True
    return room < 0


def _eliminate(vecs: Iterable[int], basis: dict, room: int, q: int) -> bool:
    """_eliminate_gf2 for any prime q."""
    if q == 2:
        return _eliminate_gf2(vecs, basis, room)
    return _store_digits((_digits(v, q) for v in vecs), basis, room, q)


def _pack(top_first: Iterable[int], q: int) -> int:
    out = 0
    for x in top_first:
        out = out * q + x
    return out


def _clear(v: int, basis: dict, q: int) -> int:
    """v less each basis vector times v's digit at its key, from the top
    key down: zero at every key, and linear in v, where stopping at the
    first top digit without a basis vector, as _eliminate does, is not."""
    keys = sorted(basis, reverse=True)
    if q == 2:
        for h in keys:
            if v >> h - 1 & 1:
                v ^= basis[h]
        return v
    d = _digits(v, q)
    for h in keys:
        c = d[h - 1] if h <= len(d) else 0
        if c:
            d[:h] = [(x - c * y) % q for x, y in zip(d, basis[h])]
    return _pack(reversed(d), q)


def tagged_basis(vecs: Sequence[int], q: int) -> dict:
    """basis() of the vectors vecs[i] * q^t + (q - 1) q^i, t = len(vecs):
    each carries the tag digit q - 1 at position i, below its own digits.
    Dependent vecs would leave the tags of a reduced target ambiguous:
    they raise InvariantViolation."""
    t = len(vecs)
    shift = q ** t
    out = basis([v * shift + (q - 1) * q ** i for i, v in enumerate(vecs)],
                q)
    if any(h <= t for h in out):
        raise InvariantViolation(f"{t} vectors over GF({q}) are dependent")
    return out


def reduce_tagged(tagged: dict, target: int, q: int) -> Tuple[int, int]:
    """(residue, x): target * q^t, t = len(tagged), cleared at every key of
    a tagged_basis(vecs) and split at q^t.  The residue is GF(q)-linear in
    target and zero exactly on the span of vecs; the tag digits then read
    -(q - 1) x_i = x_i, with sum_i x_i vecs[i] = target."""
    shift = q ** len(tagged)
    return divmod(_clear(target * shift, tagged, q), shift)


def coordinates(vecs: Sequence[int], target: int, q: int) -> Optional[int]:
    """x packed base q (digit i is x_i) with sum_i x_i vecs[i] = target
    over GF(q), or None when target is outside their span."""
    residue, x = reduce_tagged(tagged_basis(vecs, q), target, q)
    return None if residue else x


def basis(vecs: Sequence[int], q: int) -> dict:
    """Echelon basis of packed GF(q) vectors; its size is their rank."""
    out: dict = {}
    _eliminate(vecs, out, len(vecs), q)
    return out


def rank_test(q: int) -> Callable[..., bool]:
    """exceeds(vecs, limit, start=None): True iff the GF(q) rank of
    start's vectors and vecs is > limit; start is a basis(), which each
    call extends in a copy.  Resolve it once, outside a loop over words."""
    if q == 2:
        return rank_gf2_exceeds

    def exceeds(vecs, limit, start=None):
        start = start or {}
        return _eliminate(vecs, dict(start), limit - len(start), q)
    return exceeds


def rank_gf2(vecs: Sequence[int]) -> int:
    """Rank of vectors packed as ints over GF(2)."""
    return len(basis(vecs, 2))


def rank_gf2_exceeds(vecs: Sequence[int], limit: int,
                     start: Optional[Dict[int, int]] = None) -> bool:
    """rank_test(2), without a dispatch layer."""
    if start:
        return _eliminate_gf2(vecs, dict(start), limit - len(start))
    return _eliminate_gf2(vecs, {}, limit)


def _width(vecs: Sequence[int], q: int) -> int:
    """Number of base-q digits of the widest vector."""
    top = max(vecs, default=0)
    w = 0
    while top:
        top //= q
        w += 1
    return w


def _reverse(v: int, width: int, q: int) -> int:
    """v with digit j moved to digit width - 1 - j."""
    if q == 2:
        return int(format(v, f"0{width}b")[::-1], 2)
    out = 0
    for _ in range(width):
        v, x = divmod(v, q)
        out = out * q + x
    return out


def rref(vecs: Sequence[int], q: int) -> Tuple[int, ...]:
    """The reduced echelon basis of packed GF(q) vectors, column j being
    digit j: each vector's pivot is its lowest nonzero digit, scaled to 1
    and zero in every other vector, in ascending pivot order.  This is the
    canonical basis of their span.

    The one top-digit loop builds it on the vectors with their digits
    reversed over the common width, so a pivot becomes a top digit."""
    width = _width(vecs, q)
    ech = basis([_reverse(v, width, q) for v in vecs], q)
    out = []
    for h in sorted(ech, reverse=True):
        top = q ** (h - 1)
        v = ech[h] if q == 2 else _pack(reversed(ech[h]), q)
        out.append(_reverse(top + _clear(v - top, ech, q), width, q))
    return tuple(out)


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int],
          q: int) -> Optional[Tuple[int, ...]]:
    """One solution of rows * x = rhs, or None (free variables set to 0),
    read off rref([rows | rhs]) packed with column j as digit j.  Nothing in
    ranklab calls it; it keeps its rows, the one exception to packed
    vectors, because bench/tracing.py probes it."""
    if not rows:
        return ()
    n = len(rows[0])
    x = [0] * n
    for v in rref([_pack((c % q for c in reversed([*r, b])), q)
                   for r, b in zip(rows, rhs)], q):
        col = 0
        while not v % q ** (col + 1):
            col += 1
        if col == n:
            return None  # inconsistent
        x[col] = v // q ** n
    return tuple(x)


def intersection(vecs_a: Sequence[int], vecs_b: Sequence[int],
                 q: int) -> Tuple[int, ...]:
    """rref() of span(vecs_a) intersect span(vecs_b) (Zassenhaus)."""
    if not vecs_a or not vecs_b:
        return ()
    shift = q ** _width([*vecs_a, *vecs_b], q)
    # [A | A; B | 0] with the left block in the low digits: the vectors of
    # its rref that are zero there carry the intersection's rref above
    return tuple(v // shift for v in rref(
        [a + a * shift for a in vecs_a] + list(vecs_b), q) if not v % shift)
