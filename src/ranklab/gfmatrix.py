"""Dense exact linear algebra over prime fields GF(q).

Matrices are sequences of rows, each row a sequence of ints in [0, q).
Everything returns plain tuples so results can be hashed and compared.
Vectors packed base q (digit j is the coefficient of q^j), as GF(q^m)
serials and lifted rows [I | X] are stored, go through one elimination loop
for every prime q: XOR on bitsets for q = 2, digit lists for odd q.  basis()
gives their rank; rank_test(q) stops as soon as the rank passes a limit,
starting from a copy of a basis built once; coordinates() solves for a
target in the span of independent vectors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ranklab.errors import InvariantViolation

Row = Tuple[int, ...]


def _inv_mod(a: int, q: int) -> int:
    return pow(a, q - 2, q)


def rref(rows: Sequence[Sequence[int]], q: int) -> Tuple[Row, ...]:
    """Reduced row echelon form with zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(work)):
            if work[r][col] % q:
                pr = r
                break
        if pr is None:
            continue
        work[pivot_row], work[pr] = work[pr], work[pivot_row]
        inv = _inv_mod(work[pivot_row][col] % q, q)
        if inv != 1:
            work[pivot_row] = [(v * inv) % q for v in work[pivot_row]]
        else:
            work[pivot_row] = [v % q for v in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row:
                f = work[r][col] % q
                if f:
                    prow = work[pivot_row]
                    work[r] = [(v - f * p) % q for v, p in zip(work[r], prow)]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row])


def rank(rows: Sequence[Sequence[int]], q: int) -> int:
    return len(rref(rows, q))


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
    first) for as long as one has d's top digit."""
    b = basis.get(len(d))
    while b is not None:
        c = d[-1]
        d = [(x - c * y) % q for x, y in zip(d, b)]
        while d and not d[-1]:
            d.pop()
        b = basis.get(len(d))
    return d


def _eliminate(vecs: Iterable[int], basis: dict, room: int, q: int) -> bool:
    """_eliminate_gf2 for any prime q: odd q keys digit lists (least
    significant first) by length and scales each stored top digit to 1."""
    if q == 2:
        return _eliminate_gf2(vecs, basis, room)
    for v in vecs:
        d = _reduce_digits(_digits(v, q), basis, q)
        if d:
            inv = _inv_mod(d[-1], q)
            basis[len(d)] = [x * inv % q for x in d]
            room -= 1
            if room < 0:
                return True
    return room < 0


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


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int],
          q: int) -> Optional[Row]:
    """One solution of rows * x = rhs, or None (free variables set to 0)."""
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [list(r) + [b % q] for r, b in zip(rows, rhs)]
    pivots: List[int] = []
    pivot_row = 0
    for col in range(n):
        pr = None
        for r in range(pivot_row, m):
            if aug[r][col] % q:
                pr = r
                break
        if pr is None:
            continue
        aug[pivot_row], aug[pr] = aug[pr], aug[pivot_row]
        inv = _inv_mod(aug[pivot_row][col] % q, q)
        aug[pivot_row] = [(v * inv) % q for v in aug[pivot_row]]
        for r in range(m):
            if r != pivot_row:
                f = aug[r][col] % q
                if f:
                    prow = aug[pivot_row]
                    aug[r] = [(v - f * p) % q for v, p in zip(aug[r], prow)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m:
            break
    for r in range(pivot_row, m):
        if aug[r][n] % q:
            return None  # inconsistent
    x = [0] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return tuple(x)


def intersection(rows_a: Sequence[Sequence[int]],
                 rows_b: Sequence[Sequence[int]], q: int) -> Tuple[Row, ...]:
    """RREF basis of rowspace(A) intersect rowspace(B) (Zassenhaus)."""
    if not rows_a or not rows_b:
        return ()
    n = len(rows_a[0])
    block = [list(r) + list(r) for r in rows_a]
    block += [list(r) + [0] * n for r in rows_b]
    reduced = rref(block, q)
    out = [r[n:] for r in reduced if not any(r[:n])]
    return rref(out, q)
