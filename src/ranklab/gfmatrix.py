"""Dense exact linear algebra over prime fields GF(q), on one elimination
loop: XOR on bitsets for q = 2, digit lists keyed by their top nonzero
digit for odd q.

The loop takes vectors packed base q (digit j is the coefficient of q^j),
as GF(q^m) serials and lifted rows [I | X] are stored: basis() gives their
rank, rank_test(q) stops once the rank passes a limit, from a copy of a
start basis, and coordinates() solves for a target in their span.  rref(),
rank(), solve() and intersection() take rows of ints, read mod q, with
column 0 as the top digit, so a pivot is the leftmost nonzero column;
rref() is the echelon basis with each pivot cleared from the rows above.
Results are plain tuples so they can be hashed and compared.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ranklab.errors import InvariantViolation

Row = Tuple[int, ...]


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


def _reduce(v: int, basis: dict, q: int) -> int:
    """v less basis vectors for as long as one has v's top digit: the step
    _eliminate takes before it stores a vector."""
    if q == 2:
        while v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        return v
    out = 0
    for x in reversed(_reduce_digits(_digits(v, q), basis, q)):
        out = out * q + x
    return out


def coordinates(vecs: Sequence[int], target: int, q: int) -> Optional[int]:
    """x packed base q (digit i is x_i) with sum_i x_i vecs[i] = target
    over GF(q), or None when target is outside their span.

    Vector i enters _eliminate with the tag digit q - 1 at position i,
    below its own digits; once _reduce cancels target's own digits, its
    tag digits read -(q - 1) x_i = x_i.  Dependent vecs would leave x
    ambiguous: they raise InvariantViolation.
    """
    t = len(vecs)
    shift = q ** t
    found: dict = {}
    _eliminate([v * shift + (q - 1) * q ** i for i, v in enumerate(vecs)],
               found, t, q)
    if any(h <= t for h in found):
        raise InvariantViolation(f"{t} vectors over GF({q}) are dependent")
    x = _reduce(target * shift, found, q)
    return x if x < shift else None


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


def _echelon(rows: Sequence[Sequence[int]], q: int) -> dict:
    """basis() of the rows read with column 0 as the top digit: a stored
    vector's key is the row width less its pivot column."""
    out: dict = {}
    if q == 2:
        packed = []
        for r in rows:
            v = 0
            for x in r:
                v = v << 1 | x & 1
            packed.append(v)
        _eliminate_gf2(packed, out, len(rows))
    else:
        _store_digits([[x % q for x in reversed(r)] for r in rows], out,
                      len(rows), q)
    return out


def rref(rows: Sequence[Sequence[int]], q: int) -> Tuple[Row, ...]:
    """Reduced row echelon form with zero rows dropped: the echelon basis,
    each pivot cleared from the rows whose pivot lies to its left."""
    width = len(rows[0]) if rows else 0
    ech = _echelon(rows, q)
    keys = sorted(ech)
    out = []
    for i, k in enumerate(keys):
        v = ech[k]
        # the rows of smaller key are reduced already
        if q == 2:
            for low in keys[:i]:
                if v >> low - 1 & 1:
                    v ^= ech[low]
            out.append(tuple(map(int, format(v, f"0{width}b"))))
        else:
            for low in keys[:i]:
                c = v[low - 1]
                if c:
                    v = [(x - c * y) % q
                         for x, y in zip(v, ech[low])] + v[low:]
            out.append((0,) * (width - k) + tuple(reversed(v)))
        ech[k] = v
    return tuple(reversed(out))


def rank(rows: Sequence[Sequence[int]], q: int) -> int:
    return len(_echelon(rows, q))


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int],
          q: int) -> Optional[Row]:
    """One solution of rows * x = rhs, or None (free variables set to 0),
    read off rref([rows | rhs]); a pivot is a row's first 1."""
    if not rows:
        return ()
    n = len(rows[0])
    x = [0] * n
    for row in rref([list(r) + [b] for r, b in zip(rows, rhs)], q):
        col = row.index(1)
        if col == n:
            return None  # inconsistent
        x[col] = row[n]
    return tuple(x)


def intersection(rows_a: Sequence[Sequence[int]],
                 rows_b: Sequence[Sequence[int]], q: int) -> Tuple[Row, ...]:
    """RREF basis of rowspace(A) intersect rowspace(B) (Zassenhaus)."""
    if not rows_a or not rows_b:
        return ()
    n = len(rows_a[0])
    block = [list(r) + list(r) for r in rows_a]
    block += [list(r) + [0] * n for r in rows_b]
    # the rows of an RREF that are zero on the left are the intersection's
    # RREF on the right
    return tuple(r[n:] for r in rref(block, q) if not any(r[:n]))
