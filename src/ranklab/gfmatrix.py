"""Dense exact linear algebra over prime fields GF(q), on one elimination
loop over vectors held as ints, each keyed by its top nonzero digit: digit
j is the w-bit field at bit w j, w the digit width of a LaneLayout, so on
q = 2 a vector is its bitset and a row operation one XOR, and on odd q a
row operation is an add and the layout's guard-bit reduction mod q.

Every function takes GF(q) vectors packed base q (digit j is the
coefficient of q^j), as GF(q^m) serials and lifted rows [X | I] are
stored, and returns them so; solve() alone takes matrix rows, and packs
them itself.  The dicts of basis() and tagged_basis() hold the loop's own
form: callers read their size or pass them back.  basis() gives the
rank, tagged_basis()/reduce_tagged() eliminate a set of vectors once and
reduce any number of targets against it, nullspace() reads their linear
relations off the same tagged elimination, and tagged_walk() solves for
one target at every node of a walk of row sets, each node's elimination
its parent's and one row's.  rref() is the canonical basis of a span:
each vector's pivot is its top nonzero digit, the key the loop stores it
under; this module is the only place that convention lives.  Results are
plain ints and tuples so they can be hashed and compared.

Next to that loop, rank_lanes() runs the same top-digit elimination with
the same digit arithmetic turned sideways: lane L of a lane int holds one
digit of the L-th of thousands of independent sets of vectors, so one pass
finds all their ranks, each pivot's presence a lane mask and the ranks as
"rank >= r" masks; to_lanes() transposes packed vectors into that layout.
It exists for the scan that tests every codeword, the ball of
gabidulin.ball_by_lanes, and for the lifted distances of the words an
instance lists and of the ball's words, where the words of one batch
share every operation and a call per word costs far more in interpreter
overhead than in arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ranklab.errors import InvariantViolation


def _inv_mod(a: int, q: int) -> int:
    return pow(a, q - 2, q)


def _eliminate_gf2(vecs: Iterable[int], basis: Dict[int, int]):
    """Add vecs to basis (bit length -> vector)."""
    # _eliminate's q = 2 case, kept apart and as it is: it runs under
    # every q = 2 basis(), so under each rank_distance, lifted_distance and
    # supports-walk step.  Folded into the odd-q loop through _reduce, it
    # made a q = 2 _eliminate call 40-75% slower on random 6 x 6 to
    # 12 x 12 bit matrices, and the benchmark's q2-exhaustive verify_s
    # went from 0.0257 to 0.0274 s (medians of 4 alternating pairs)
    for v in vecs:
        while v:
            h = v.bit_length()
            b = basis.get(h)
            if b is None:
                basis[h] = v
                break
            v ^= b


def _eliminate(vecs: Iterable[int], basis: dict, q: int):
    """_eliminate_gf2 for any prime q, on _spread vectors: each stored top
    digit is scaled to 1.  A vector with a digit >= q raises
    InvariantViolation: its top digit may be 0 mod q, and a key storing
    the zero vector would leave _reduce adding it forever."""
    if q == 2:
        return _eliminate_gf2(vecs, basis)
    w = lane_layout(1, q).w
    for v in vecs:
        if not lane_layout((v.bit_length() + w - 1) // w, q).reduced(v):
            raise InvariantViolation(
                f"a vector over GF({q}) holds a digit >= {q}")
        v = _reduce(v, basis, q)
        if v:
            h = (v.bit_length() + w - 1) // w
            c = v >> w * (h - 1)
            if c != 1:
                v = lane_layout(h, q).mod(v * _inv_mod(c, q))
            basis[h] = v


def _reduce(v: int, basis: dict, q: int) -> int:
    """A _spread v less basis vectors for as long as one has v's top
    nonzero digit: zero iff v lies in the span of basis."""
    if q == 2:
        b = basis.get(v.bit_length())
        while b:
            v ^= b
            b = basis.get(v.bit_length())
        return v
    w = lane_layout(1, q).w
    while v:
        h = (v.bit_length() + w - 1) // w
        b = basis.get(h)
        if b is None:
            break
        v = lane_layout(h, q).mod(v + (q - (v >> w * (h - 1))) * b)
    return v


def _clear(v: int, basis: dict, q: int) -> int:
    """A _spread v less each basis vector times v's digit at its key, from
    the top key down: zero at every key, and linear in v, where stopping at
    the first top digit without a basis vector, as _eliminate does, is not.
    On odd q a row operation at key h reduces with the layout of h lanes:
    the basis vector has no digit above h, so the operation leaves v's
    digits above h, which a target of reduce_tagged may hold, as they
    are."""
    keys = sorted(basis, reverse=True)
    if q == 2:
        for h in keys:
            if v >> h - 1 & 1:
                v ^= basis[h]
        return v
    for h in keys:
        lay = lane_layout(h, q)
        c = (v & lay.full) >> lay.w * (h - 1)
        if c:
            v = lay.mod(v + (q - c) * basis[h])
    return v


def _spread(v: int, q: int) -> int:
    """v, packed base q, in the form the elimination loop stores: digit j
    in the w-bit field at bit w j, w = lane_layout(1, q).w, so v itself on
    q = 2."""
    if q == 2:
        return v
    w = lane_layout(1, q).w
    out = shift = 0
    while v:
        v, d = divmod(v, q)
        out |= d << shift
        shift += w
    return out


def _pack(x: int, q: int) -> int:
    """The packed base-q int of a reduced _spread x."""
    if q == 2:
        return x
    w = lane_layout(1, q).w
    mask = (1 << w) - 1
    out = 0
    for shift in range((x.bit_length() - 1) // w * w, -1, -w):
        out = out * q + (x >> shift & mask)
    return out


def _tag(spread: Sequence[int], first: int, t: int, q: int) -> List[int]:
    """The vectors vecs[j] * q^t + (q - 1) q^(first + j), in _spread form
    as spread[j] = _spread(vecs[j], q) is: each carries the tag digit
    q - 1 at position first + j < t, below its own digits.  Where vecs are
    independent, their elimination keeps every key above t, and a
    target * q^t reduced against it lies below q^t exactly when target is
    sum_j x_j vecs[j]; its digit first + j then reads -(q - 1) x_j = x_j."""
    w = lane_layout(1, q).w
    return [v << w * t | (q - 1) << w * (first + j)
            for j, v in enumerate(spread)]


def _tagged(vecs: Sequence[int], q: int) -> dict:
    """basis() of the _tag of vecs at 0, t = len(vecs) tag digits.  A key
    <= t is a vector whose own digits cancelled: its tag digits x have
    sum_i x_i vecs[i] = 0."""
    out: dict = {}
    _eliminate(_tag([_spread(v, q) for v in vecs], 0, len(vecs), q), out, q)
    return out


def nullspace(vecs: Sequence[int], q: int) -> Tuple[int, ...]:
    """Independent x packed base q (digit i is x_i) spanning
    {x : sum_i x_i vecs[i] = 0} over GF(q): the tag digits of the _tagged
    vectors whose top digit is a tag."""
    ech = _tagged(vecs, q)
    return tuple(_pack(ech[h], q) for h in sorted(ech) if h <= len(vecs))


def tagged_basis(vecs: Sequence[int], q: int) -> dict:
    """_tagged(vecs), for reduce_tagged.  Dependent vecs, a nonempty
    nullspace(), would leave the tags of a reduced target ambiguous: they
    raise InvariantViolation."""
    t = len(vecs)
    out = _tagged(vecs, q)
    if any(h <= t for h in out):
        raise InvariantViolation(f"{t} vectors over GF({q}) are dependent")
    return out


def reduce_tagged(tagged: dict, target: int, q: int) -> Tuple[int, int]:
    """(residue, x): target * q^t, t = len(tagged), cleared at every key of
    a tagged_basis(vecs) and split at q^t.  The residue is GF(q)-linear in
    target and zero exactly on the span of vecs; the tag digits then read
    -(q - 1) x_i = x_i, with sum_i x_i vecs[i] = target."""
    shift = q ** len(tagged)
    return divmod(_pack(_clear(_spread(target * shift, q), tagged, q), q),
                  shift)


def digit_sums(vecs: Sequence[Sequence[int]], width: int, q: int,
               add) -> List[Tuple[int, ...]]:
    """The q^len(vecs) sums of vecs: entry x adds vecs[i] x_i times for
    each i, x_i the base-q digits of x, to width zeros, one coordinate
    at a time by add."""
    table = [(0,) * width]
    for v in vecs:
        # entries x + c q^i, c = 1..q-1, after the entries x below q^i
        size = len(table)
        for _ in range(q - 1):
            table += [tuple(map(add, row, v)) for row in table[-size:]]
    return table


def tagged_walk(walk: Iterable[Sequence[int]],
                units: Sequence[Sequence[int]], target: int, t: int,
                q: int) -> Iterator[Tuple[Sequence[int], int]]:
    """(rows, x) at every node rows of walk whose vectors span target.

    Row b, packed base q, has the vectors sum_j b_j units[j][i], i < w,
    units[j] the w packed images of unit row q^j.  walk yields lists of
    rows in pre-order, each read at once and not kept: a node extends the
    last node one row shorter, or the empty root.  x is packed, its digit
    s w + i the coefficient of vector i of rows[s], and t >= w len(rows).
    InvariantViolation where a row's vectors depend on those before it.

    A node _eliminates the _tag of its row's vectors (tag digit s w + i,
    own digits shifted up by t) into a copy of its parent's basis and
    _reduces its parent's residue of target * q^t; a residue below q^t
    holds x in its tag digits.  Row vectors come from one digit_sums
    table per call, and each row is tagged once per depth."""
    w = len(units[0])
    lanes = _width([v for images in units for v in images], q)
    table = digit_sums([[_spread(v, q) for v in images] for images in units],
                       w, q, lane_layout(lanes, q).add)
    floor = _spread(q ** t, q)
    tagged: dict = {}       # (depth, row) -> its tagged vectors
    state = [({}, _spread(target * q ** t, q))]  # depth -> basis, residue
    for rows in walk:
        d = len(rows)
        if d:
            vecs = tagged.get((d, rows[-1]))
            if vecs is None:
                vecs = tagged[d, rows[-1]] = _tag(table[rows[-1]],
                                                  (d - 1) * w, t, q)
            ech = dict(state[d - 1][0])
            _eliminate(vecs, ech, q)
            if min(ech) <= t:
                raise InvariantViolation(
                    f"the vectors of row {d} depend on those before them")
            state[d:] = [(ech, _reduce(state[d - 1][1], ech, q))]
        if state[d][1] < floor:
            yield rows, _pack(state[d][1], q)


def basis(vecs: Sequence[int], q: int) -> dict:
    """Echelon basis of packed GF(q) vectors; its size is their rank."""
    out: dict = {}
    _eliminate(vecs if q == 2 else [_spread(v, q) for v in vecs], out, q)
    return out


def rank_gf2(vecs: Sequence[int]) -> int:
    """Rank of vectors packed as ints over GF(2)."""
    return len(basis(vecs, 2))


def rank_gf2_exceeds(vecs: Sequence[int], limit: int) -> bool:
    """True iff the GF(2) rank of vecs is > limit.  Nothing in ranklab
    calls it; it stays because bench/tracing.py probes it."""
    return rank_gf2(vecs) > limit


class LaneLayout:
    """count independent GF(q) digits side by side in one int, a lane int:
    lane L is the w-bit field at bit w L.  On q = 2, w = 1 and lanes add by
    XOR.  On odd q a lane holds a digit 0..q-1 between operations and at
    most q(q - 1) within one, and w = bit_length(q(q - 1)) + 1: the top
    bit, the guard, is never part of a value, so adding a constant below
    2^(w-1) to every lane carries into that lane's guard and no further.
    mod() and split() read their answers off the guard bits.

    The scalar loop stores each vector in this form too, digit j in lane
    j, and a row operation at key h is lane_layout(h, q).mod() of v plus a
    multiple of the pivot: w and lane arithmetic mod q are defined here
    alone."""

    def __init__(self, count: int, q: int):
        self.count, self.q = count, q
        self.w = w = 1 if q == 2 else (q * (q - 1)).bit_length() + 1
        self.ones = ones = _repunit(w, count)
        self.full = ones * ((1 << w) - 1)
        self._guard = guard = ones << w - 1
        # (off, q 2^i), i descending: a lane plus off reaches its guard
        # exactly when the lane is >= q 2^i
        self._steps = [(guard - (q << i) * ones, q << i)
                       for i in range((q - 1).bit_length() - 1, -1, -1)]
        self.digit = tuple(c * ones for c in range(q))    # c in every lane
        self._below = guard - ones    # 2^(w-1) - 1 in every lane

    def tile(self, block: int, period: int) -> int:
        """block, a lane int of period lanes, repeated across all lanes;
        period divides count."""
        return block * _repunit(period * self.w, self.count // period)

    def mod(self, x: int) -> int:
        """x with each lane reduced mod q, on odd q: q 2^i comes off every
        lane that reaches it, for i descending, as in long division."""
        guard, top = self._guard, self.w - 1
        for off, sub in self._steps:
            x -= ((x + off & guard) >> top) * sub
        return x

    def reduced(self, x: int) -> bool:
        """Whether every lane of x holds a digit below q, on odd q: the
        last step's off carries a lane into its guard exactly when the
        lane is >= q, and a lane that already sets its guard is not a
        digit."""
        return not (x | x + self._steps[-1][0]) & self._guard

    def add(self, x: int, y: int) -> int:
        """Lane-wise x + y mod q, each lane of y at most (q - 1)^2."""
        return x ^ y if self.q == 2 else self.mod(x + y)

    def split(self, x: int) -> List[Tuple[int, int]]:
        """(c, mask) for each c in 1..q-1 that some lane of x holds, mask
        all w bits of those lanes: a lane of x ^ c ones is zero exactly
        where adding 2^(w-1) - 1 leaves its guard clear, and a guard bit g
        fills its lane as 2g - g / 2^(w-1)."""
        guard, below, top = self._guard, self._below, self.w - 1
        out = []
        for c in range(1, self.q):
            eq = (x ^ self.digit[c]) + below & guard ^ guard
            if eq:
                out.append((c, (eq << 1) - (eq >> top)))
        return out


def _repunit(period: int, copies: int) -> int:
    """copies ones, period bits apart, built by doubling: linear in the
    int's length, where dividing (2^(period copies) - 1) by
    (2^period - 1) is quadratic in it."""
    out, have = (1, 1) if copies else (0, 0)
    while have < copies:
        step = min(have, copies - have)
        out |= out << period * step
        have += step
    return out


@lru_cache(maxsize=None)
def lane_layout(lanes: int, q: int) -> LaneLayout:
    """The LaneLayout of lanes lanes over GF(q), built once."""
    return LaneLayout(lanes, q)


def rank_lanes(start: Sequence[int], vecs: Iterable[Sequence[int]],
               limit: int, lanes: int, q: int) -> List[int]:
    """The GF(q) rank of lanes independent sets of vectors at once: lane L
    of vecs[i][p], a lane int of lane_layout(lanes, q), is digit p of
    vector i in lane L, and the packed vectors of start lie in every lane.
    Returns ge, max(limit, -1) + 2 lane ints: ge[r] has 1 in each lane
    whose rank of start and vecs is >= r.  So ge[-1] is the test rank >
    limit, and a lane's rank, where it is at most limit + 1, is the number
    of r >= 1 whose ge[r] holds the lane.

    The loop is _eliminate's, top digit first, with each pivot's presence
    a mask: at digit p, the lanes where v has a digit c != 0 and a pivot
    subtract c times it, and in the rest v, scaled by 1/c, becomes the
    pivot.  On q = 2 that is one XOR under the mask; on odd q the lanes
    are split by c and add (q - c) times the pivot row, then reduce mod q.
    Every lane reaches the rank of start, the basis ech, and none passes
    the vector width, so the loop tracks ge[r] for len(ech) < r <= top =
    min(limit + 1, width), and the ge above width are 0; a lane stops
    reducing once it reaches top, and the loop stops once every lane
    has."""
    lay = lane_layout(lanes, q)
    ones, full, digit, w = lay.ones, lay.full, lay.digit, lay.w
    vecs = [list(v) for v in vecs]
    width = max([len(v) for v in vecs] + [_width(start, q)])
    limit = max(limit, -1)
    top = min(limit + 1, width)
    ech = basis(start, q)
    base = min(len(ech), top)
    ge = [full] * (base + 1) + [0] * (top - base)
    held = [0] * width
    # rows[p][i], i < p: digit i of the pivot at p, in the lanes of held[p]
    rows = [[0] * p for p in range(width)]
    for h, b in ech.items():
        held[h - 1] = full
        rows[h - 1] = [digit[b >> w * i & (1 << w) - 1] for i in range(h - 1)]
    mod = lay.mod
    for v in vecs:
        live = full ^ ge[top]         # lanes still reducing v
        if not live:
            break
        v += [0] * (width - len(v))
        for p in range(width - 1, -1, -1):
            x = v[p] & live
            if not x:
                continue
            if q == 2:
                hit = x & held[p]
                if hit:
                    v[:p] = [a ^ (b & hit) for a, b in zip(v, rows[p])]
                new = x ^ hit
                if new:
                    rows[p] = [a | (b & new) for a, b in zip(rows[p], v)]
            else:
                hits, news, new = [], [], 0
                for c, mask in lay.split(x):
                    hit = mask & held[p]
                    if hit:
                        hits.append((q - c, hit))
                    if hit != mask:
                        news.append((_inv_mod(c, q), mask ^ hit))
                        new |= mask ^ hit
                if hits:
                    v[:p] = [mod(a + sum(k * (b & h) for k, h in hits))
                             for a, b in zip(v, rows[p])]
                if new:
                    rows[p] = [a | mod(sum(k * (b & h) for k, h in news))
                               for a, b in zip(rows[p], v)]
            if new:
                held[p] |= new
                live ^= new
                for r in range(top, base, -1):
                    ge[r] |= ge[r - 1] & new
                if not live:
                    break
    return [g & ones for g in ge] + [0] * (limit + 1 - top)


def to_lanes(vecs: Sequence[int], width: int, q: int) -> List[int]:
    """The transpose of len(vecs) packed base-q vectors of width digits:
    width lane ints of lane_layout(len(vecs), q), digit p of vecs[L] in
    lane L of the p-th.  Each lane's w bits are written as text, vector
    L's digits in the L-th field from the right of one string per digit,
    which int() reads at once; on q = 2 that string is every vector's
    binary text, joined, at a stride of width.  A vector of more than
    width digits raises InvariantViolation."""
    if vecs and max(vecs) >= q ** width:
        raise InvariantViolation(
            f"a vector over GF({q}) has more than {width} digits")
    if not vecs or not width:
        return [0] * width
    if q == 2:
        text = "".join([format(v, f"0{width}b") for v in reversed(vecs)])
        return [int(text[width - 1 - p::width], 2) for p in range(width)]
    w = lane_layout(1, q).w
    fields = [format(d, f"0{w}b") for d in range(q)]
    cols: List[List[str]] = [[] for _ in range(width)]
    for v in reversed(vecs):
        for col in cols:
            v, d = divmod(v, q)
            col.append(fields[d])
    return [int("".join(col), 2) for col in cols]


def _width(vecs: Sequence[int], q: int) -> int:
    """Number of base-q digits of the widest vector."""
    top = max(vecs, default=0)
    w = 0
    while top:
        top //= q
        w += 1
    return w


def rref(vecs: Sequence[int], q: int) -> Tuple[int, ...]:
    """The reduced echelon basis of packed GF(q) vectors: each vector's
    pivot is its top nonzero digit, scaled to 1 and zero in every other
    vector, in ascending pivot order.  This is the canonical basis of their
    span, the basis() that the one top-digit loop builds with each vector
    cleared at the other keys."""
    ech = basis(vecs, q)
    out = []
    for h in sorted(ech):
        top = 1 << ech[h].bit_length() - 1    # the pivot's digit 1
        out.append(_pack(top + _clear(ech[h] - top, ech, q), q))
    return tuple(out)


def solve(rows: Sequence[Sequence[int]], rhs: Sequence[int],
          q: int) -> Optional[Tuple[int, ...]]:
    """One solution of rows * x = rhs, or None (free variables set to 0),
    read off rref([rows | rhs]) packed top first: column j is digit n - j
    and rhs digit 0, so a vector below q is an inconsistent row.  Nothing
    in ranklab calls it; it keeps its rows, the one exception to packed
    vectors, because bench/tracing.py probes it."""
    if not rows:
        return ()
    n = len(rows[0])
    x = [0] * n
    for v in rref([sum(c % q * q ** (n - j) for j, c in enumerate((*r, b)))
                   for r, b in zip(rows, rhs)], q):
        if v < q:
            return None
        x[n + 1 - _width([v], q)] = v % q
    return tuple(x)


def intersection(vecs_a: Sequence[int], vecs_b: Sequence[int],
                 q: int) -> Tuple[int, ...]:
    """rref() of span(vecs_a) intersect span(vecs_b) (Zassenhaus)."""
    if not vecs_a or not vecs_b:
        return ()
    shift = q ** _width([*vecs_a, *vecs_b], q)
    # [A | A; B | 0] with the shared block in the high digits: the vectors
    # of its rref below shift are the intersection's rref
    return tuple(v for v in rref([a * shift + a for a in vecs_a]
                                 + [b * shift for b in vecs_b], q)
                 if v < shift)
