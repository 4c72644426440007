"""Test-only reference linear algebra over GF(q): the list-of-lists
Gauss-Jordan loop, independent of gfmatrix's packed elimination loop, so
that cross-checks do not compare that loop with itself; the exhaustive
root scan that linpoly.kernel replaced with one elimination; and the
GF(q)-step fold that constructions.subfield_linear_family replaced with one
q^g-step per row; the pigeonhole bucket keyed over the whole built family,
which constructions.pigeonhole_subfamily replaced with keys read off each
leaf's parent; and Frobenius powers, linearized evaluation and the
subspace-polynomial step on the schoolbook multiply, which the log tables
replace in fields up to field.TABLE_LIMIT; the rows [I_n | X] of a
lifted subspace, which subspace_code keeps packed in the order [X | I_n];
the lifted code and the lifted count over every codeword, which
subspace_code.verify_lifted_instance replaced with the words of the rank
ball; and the benchmark's exhaustive instances, built as bench/workloads.py
builds them, with their brute-force ball sizes."""

import importlib.util
import json
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

from ranklab import gfmatrix
from ranklab.adversarial import (
    build_counting_instance,
    build_explicit_instance,
)
from ranklab.constructions import PolyFamily
from ranklab.errors import InvariantViolation
from ranklab.field import embed_serial, make_field
from ranklab.gabidulin import _lane_walk, codewords
from ranklab.subspace import extend_polynomial, rref_walk
from ranklab.subspace_code import _lifted_rows, lift_word

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


def subfield_linear_fold(q: int, n: int, r: int, g: int) -> List[Row]:
    """The coefficients of the subspace polynomials of the GF(q^g)-linear
    r-subspaces of GF(q^n), in the order of rref_walk over GF(q^g): each
    node extends its parent's polynomial by the g vectors u h, u the
    embedded GF(q)-basis x^j of GF(q^g) and h the new row's serial
    sum_j row_j gamma^j, one GF(q)-step of extend_polynomial each."""
    ambient, sub = make_field(q, n), make_field(q, g)
    units = [embed_serial(sub.pow(sub.generator_serial, j), sub, ambient)
             for j in range(g)]
    members, polys = [], [[1]]
    for rows in rref_walk(n // g, range(r // g, r // g + 1), sub.order):
        t = len(rows)
        if t:
            h = 0
            for j in range(n // g):
                digit = rows[-1] // sub.order ** j % sub.order
                h = ambient.add(h, ambient.mul(
                    embed_serial(digit, sub, ambient),
                    ambient.pow(ambient.generator_serial, j)))
            coeffs = polys[t - 1]
            for u in units:
                coeffs = extend_polynomial(ambient, coeffs,
                                           ambient.mul(u, h))
            polys[t:] = [coeffs]
        if t == r // g:
            members.append(tuple(polys[t]))
    return members


def pigeonhole_bucket(family: PolyFamily, ell: int) -> PolyFamily:
    """The largest bucket of a built subfield-linear family agreeing on
    the coefficients at indices r-g, ..., r-g*ell (zero below index 0),
    each member keyed by one slice of its coefficients; ties break toward
    the smallest key, and the bucket keeps the family's order."""
    p = family.params
    r, g = p.r, p.g
    low = r - g * ell if r >= g * ell else r % g
    pad = (0,) * (ell - len(range(low, r - g + 1, g)))
    buckets = {}
    for m in family.members:
        key = m.coeffs[low:r - g + 1:g][::-1] + pad
        buckets.setdefault(key, []).append(m)
    chosen = buckets[min(buckets, key=lambda k: (-len(buckets[k]), k))]
    top_len = g * (ell + 1)
    mutual = tuple(chosen[0].coeff(r - i)
                   for i in range(min(top_len, r + 1)))
    return PolyFamily(params=p, kind="pigeonhole", spec=family.spec,
                      members=tuple(chosen), mutual_top=mutual,
                      degenerate=top_len > r)


# Every field of the benchmark's workloads with log tables.
TABLE_FIELDS = [(2, 6), (2, 8), (2, 10), (2, 12), (2, 16), (3, 4), (3, 6),
                (3, 8), (5, 4)]


def pow_schoolbook(spec, a: int, k: int) -> int:
    """a^k by square-and-multiply on FieldSpec._mul_schoolbook, the
    exponent read mod q^e - 1 (a^(q^e - 1) = 1 for a != 0)."""
    if a == 0:
        return 0 if k else 1
    result, base, k = 1, a, k % (spec.order - 1)
    while k:
        if k & 1:
            result = spec._mul_schoolbook(result, base)
        base = spec._mul_schoolbook(base, base)
        k >>= 1
    return result


def evaluate_schoolbook(spec, coeffs: Sequence[int], x: int,
                        step: int) -> int:
    """sum_i coeffs[i] * x^(q^(step*i)), one power per index."""
    acc = 0
    for i, a in enumerate(coeffs):
        term = pow_schoolbook(spec, x, spec.q ** (step * i))
        acc = spec.add(acc, spec._mul_schoolbook(a, term))
    return acc


def extend_schoolbook(spec, coeffs: Sequence[int], b: int,
                      step: int) -> List[int]:
    """P^Q - P(b)^(Q-1) P, Q = q^step, coefficient by coefficient."""
    big_q = spec.q ** step
    factor = pow_schoolbook(spec, evaluate_schoolbook(spec, coeffs, b, step),
                            big_q - 1)
    new = [0] + [pow_schoolbook(spec, a, big_q) for a in coeffs]
    for i, a in enumerate(coeffs):
        new[i] = spec.sub(new[i], spec._mul_schoolbook(factor, a))
    return new


def lifted_rows(ls) -> Tuple[Row, ...]:
    """The rows [I_n | X] of a subspace_code.LiftedSubspace as digit
    tuples: the identity digits m..m+n-1 of each packed row first, then
    its m digits of X."""
    q, m = ls.q, ls.m
    order = (*range(m, m + ls.n), *range(m))
    return tuple(tuple(v // q ** j % q for j in order) for v in ls.packed)


LIFT_BUDGET = 1 << 18          # lift_code keeps every lifted subspace


def lift_code(code):
    """Lift of all transposed codewords: an (n+m, q^(mk), 2d, n)_q code;
    raises BudgetExceeded above LIFT_BUDGET codewords."""
    out = [lift_word(w) for w in codewords(code, LIFT_BUDGET)]
    if len({ls.packed for ls in out}) != len(out):
        raise InvariantViolation("lifting merged distinct codewords")
    return out


def lifted_count(code, center, half: int) -> int:
    """The number of codewords whose lift lies within subspace distance
    2 half of center, a lift_word, over every codeword: d_s <= 2 half iff
    rank[center rows; word rows] <= n + half, tested one _lane_walk batch
    per gfmatrix.rank_lanes call, whose last mask is rank > n + half."""
    q, n = code.q, code.n
    count = 0
    for lanes, _, slices in _lane_walk(code):
        rows = _lifted_rows(slices, gfmatrix.lane_layout(lanes, q).ones)
        count += lanes - gfmatrix.rank_lanes(
            center.packed, rows, n + half, lanes, q)[-1].bit_count()
    return count


BENCH = Path(__file__).resolve().parents[1] / "bench"
# the brute-force ball size of each exhaustive benchmark instance
BALL_SIZES = json.loads((BENCH / "ball_sizes.json").read_text())


def bench_instance(name, seed=1):
    """The benchmark instance of that name, built as bench/workloads.py
    builds it at that seed."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads     # dataclasses look the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    inst = next(i for w in workloads.WORKLOADS.values()
                for i in w.instances if i.name == name)
    if inst.kind == "counting":
        return build_counting_instance(inst.q, inst.n, inst.m, inst.k, inst.g,
                                       inst.beta_exponent(seed))
    return build_explicit_instance(inst.q, inst.g, inst.s, inst.n, inst.m,
                                   inst.beta_exponent(seed))
