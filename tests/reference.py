"""Test-only reference linear algebra over GF(q): the list-of-lists
Gauss-Jordan loop, independent of gfmatrix's packed elimination loop, so
that cross-checks do not compare that loop with itself; and the exhaustive
root scan that linpoly.kernel replaced with one elimination."""

from typing import List, Sequence, Tuple

from ranklab.field import embed_serial

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


def kernel_by_scan(poly, ambient) -> List[int]:
    """Ascending serials x of the ambient field with P(x) = 0, by
    evaluating P at every element, embedded first when P lives over an
    extension of the ambient field."""
    return [x for x in ambient.elements()
            if poly.evaluate_serial(embed_serial(x, ambient, poly.spec)) == 0]
