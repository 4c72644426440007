"""Dense exact linear algebra over prime fields GF(q).

Matrices are sequences of rows, each row a sequence of ints in [0, q).
Everything returns plain tuples so results can be hashed and compared.
A bitset fast path handles the GF(2) rank computations that sit inside
the brute-force ball scans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def basis_gf2(vecs: Sequence[int]) -> Dict[int, int]:
    """Echelon basis (bit length -> vector) of packed GF(2) vectors."""
    basis: Dict[int, int] = {}
    _eliminate_gf2(vecs, basis, len(vecs))
    return basis


def rank_gf2(vecs: Sequence[int]) -> int:
    """Rank of vectors packed as ints over GF(2)."""
    return len(basis_gf2(vecs))


def rank_gf2_exceeds(vecs: Sequence[int], limit: int,
                     start: Optional[Dict[int, int]] = None) -> bool:
    """True iff the GF(2) rank of start's vectors and vecs is > limit."""
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
