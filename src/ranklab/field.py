"""Exact arithmetic in GF(q^e) for prime q, with canonical subfield embeddings.

A field element is its serial: the packed integer sum c_i * q^i of its
polynomial-basis coordinates (c_0, ..., c_{e-1}); 0 and 1 are the additive
and multiplicative identities.  Every function in ranklab takes and returns
elements as serials.  FieldSpec carries the modulus and the arithmetic on
serials.

Each field is reduced modulo a monic irreducible polynomial whose residue
class x generates the multiplicative group; Rabin's test proves every
modulus irreducible at construction (trial division is kept only as the
test suite's reference).  Moduli come from an embedded table
(data/moduli.txt, override with env var RANKLAB_MODULUS_TABLE) covering
q in {2, 3, 5} up to extension degree 24; other fields need an explicit
modulus.  When q^e <= 2^16 a log/antilog table pair is built eagerly, and
multiplication and Frobenius powers are O(1) lookups; a schoolbook path
exists for all sizes and the two are cross-checked in the test suite.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Iterable, Optional, Sequence

from ranklab.errors import (
    NoModulusKnown,
    NotASubfield,
    NotIrreducible,
    NotPrime,
    NotPrimitive,
)

# Log/antilog tables are built eagerly up to this field size.
TABLE_LIMIT = 1 << 16
# Primitivity of x is verified exhaustively up to this field size.
ORDER_VERIFY_LIMIT = 1 << 20

_DATA_FILE = os.path.join(os.path.dirname(__file__), "data", "moduli.txt")
_TABLE_ENV = "RANKLAB_MODULUS_TABLE"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sub_digits(a: int, b: int, q: int) -> int:
    """a - b digit by digit mod q, for vectors packed base q (serials of
    GF(q^e), rows of lifted subspaces)."""
    if q == 2:
        return a ^ b
    s, shift = 0, 1
    while a or b:
        s += (a % q - b % q) % q * shift
        a //= q
        b //= q
        shift *= q
    return s


# ----------------------------------------------------------------------
# Polynomials over GF(q) as coefficient tuples (ascending, trimmed).
# Used for modulus bookkeeping only; element arithmetic works on serials.
# ----------------------------------------------------------------------

def _poly_trim(c: Sequence[int]) -> tuple:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], q: int) -> tuple:
    """The remainder of a modulo m over GF(q)."""
    m = _poly_trim(m)
    if not m:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(_poly_trim(a))
    dm = len(m) - 1
    lead_inv = pow(m[-1], q - 2, q)
    while len(rem) > dm:
        shift = len(rem) - 1 - dm
        factor = rem[-1] * lead_inv % q
        for j, mj in enumerate(m):
            rem[shift + j] = (rem[shift + j] - factor * mj) % q
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(rem)


def _poly_mulmod(a, b, m, q) -> tuple:
    return _poly_mod(_poly_mul(a, b, q), m, q)


def _poly_powmod(base, exp: int, m, q) -> tuple:
    result = (1,)
    base = _poly_mod(base, m, q)
    while exp > 0:
        if exp & 1:
            result = _poly_mulmod(result, base, m, q)
        base = _poly_mulmod(base, base, m, q)
        exp >>= 1
    return result


def _poly_gcd(a, b, q) -> tuple:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, q)
    if a:
        inv = pow(a[-1], q - 2, q) if q > 2 else 1
        a = tuple((c * inv) % q for c in a)
    return a


def _monic_polys(q: int, deg: int):
    """All monic polynomials of exact degree deg, low coefficients first."""
    total = q ** deg
    for packed in range(total):
        coeffs = []
        v = packed
        for _ in range(deg):
            coeffs.append(v % q)
            v //= q
        coeffs.append(1)
        yield tuple(coeffs)


def is_irreducible_trial(modulus: Sequence[int], q: int) -> bool:
    """Trial division against every monic polynomial of degree <= e/2;
    the reference the tests hold is_irreducible_rabin to."""
    modulus = _poly_trim(modulus)
    e = len(modulus) - 1
    if e <= 1:
        return e == 1
    for d in range(1, e // 2 + 1):
        for cand in _monic_polys(q, d):
            if not _poly_mod(modulus, cand, q):
                return False
    return True


def _prime_factors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible_rabin(modulus: Sequence[int], q: int) -> bool:
    """Rabin's deterministic irreducibility test, exact at every degree:
    f is irreducible iff x^(q^e) = x mod f and gcd(x^(q^(e/p)) - x, f) = 1
    for each prime p | e (SIAM J. Comput. 9, 1980)."""
    modulus = _poly_trim(modulus)
    e = len(modulus) - 1
    if e <= 1:
        return e == 1
    x = (0, 1)
    # x^(q^e) == x mod f
    if _poly_powmod(x, q ** e, modulus, q) != _poly_mod(x, modulus, q):
        return False
    for p in _prime_factors(e):
        t = _poly_powmod(x, q ** (e // p), modulus, q)
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % q
        if _poly_gcd(diff, modulus, q) != (1,):
            return False
    return True


# ----------------------------------------------------------------------
# Modulus table
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _load_table(path: str) -> dict:
    table = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(t) for t in line.split()]
            q, e, coeffs = parts[0], parts[1], tuple(parts[2:])
            if len(coeffs) != e + 1:
                raise NoModulusKnown(f"malformed table line for q={q} e={e}")
            table[(q, e)] = coeffs
    return table


def _table_modulus(q: int, e: int) -> Optional[tuple]:
    path = os.environ.get(_TABLE_ENV, _DATA_FILE)
    return _load_table(path).get((q, e))


# ----------------------------------------------------------------------
# FieldSpec
# ----------------------------------------------------------------------

class FieldSpec:
    """Immutable description of GF(q^e) plus serial-level arithmetic.

    Serials are integers in [0, q^e); serial(c_0..c_{e-1}) = sum c_i q^i.
    All tables are built eagerly in the constructor, so instances may be
    shared freely between workers.
    """

    __slots__ = ("q", "e", "modulus", "order",
                 "_exp", "_log", "_qpows", "_hash", "__weakref__")

    def __init__(self, q: int, e: int, modulus: Sequence[int]):
        if not is_prime(q):
            raise NotPrime(f"q={q} is not prime")
        if e < 1:
            raise NoModulusKnown(f"extension degree e={e} must be >= 1")
        modulus = _poly_trim(modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise NotIrreducible(
                f"modulus must be monic of degree {e}, got {modulus}")
        if any(not 0 <= c < q for c in modulus):
            raise NotIrreducible("modulus coefficients out of range")
        self.q = q
        self.e = e
        self.modulus = modulus
        self.order = q ** e
        self._qpows = tuple(q ** i for i in range(e + 1))
        self._hash = hash(self._key())

        if not is_irreducible_rabin(modulus, q):
            raise NotIrreducible(f"{modulus} is reducible over GF({q})")

        self._exp = None
        self._log = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()        # also proves x is primitive
        elif self.order <= ORDER_VERIFY_LIMIT:
            self._verify_order()
        # Larger fields are not re-checked for primitivity; table entries
        # were checked exactly by the offline generator.

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        """exp[i] = x^i for 0 <= i < 2(q^e - 1), log[x^i] = i, walked one
        multiplication by x at a time: on q = 2 a shift and, where x^e
        appears, one XOR of the packed modulus; on odd q the closure of
        _times_generator.  NotPrimitive unless x has order q^e - 1: the
        walk returns to 1 after q^e - 1 steps, and not after (q^e - 1)/p
        steps for any prime p | q^e - 1, the test _verify_order makes
        above the tables."""
        n1 = self.order - 1
        exp = [0] * n1
        log = [0] * self.order
        val = 1
        if self.q == 2:
            top, modulus = self.order, self.from_digits(self.modulus)
            for i in range(n1):
                exp[i] = val
                log[val] = i
                val <<= 1
                if val & top:
                    val ^= modulus
        else:
            step = self._times_generator()
            for i in range(n1):
                exp[i] = val
                log[val] = i
                val = step(val)
        if val != 1:
            raise NotPrimitive("x^({}) != 1".format(n1))
        # so the order of x divides q^e - 1, and is smaller exactly when
        # x^((q^e - 1)/p) = 1 for some prime p | q^e - 1
        if any(exp[n1 // p] == 1 for p in _prime_factors(n1)):
            raise NotPrimitive(f"x has order {exp.index(1, 1)} < {n1} "
                               f"in GF({self.q}^{self.e})")
        exp.extend(exp)
        self._exp = exp
        self._log = log

    def _times_generator(self):
        """O(e) multiply-by-x closure for odd q, used to walk the power
        table."""
        q = self.q
        top_pow = self._qpows[self.e - 1]
        # x^e reduced: for each possible top coordinate t, the packed
        # value of t * (modulus - x^e), i.e. what to subtract after the shift
        reductions = [0] * q
        for t in range(1, q):
            reductions[t] = self.from_digits(
                (t * c) % q for c in self.modulus[:-1])

        def step(a):
            top, low = divmod(a, top_pow)
            shifted = low * q
            if top:
                return self.sub(shifted, reductions[top])
            return shifted
        return step

    def _verify_order(self):
        n1 = self.order - 1
        gen = self.generator_serial
        if self.pow(gen, n1) != 1:
            raise NotPrimitive("x^({}) != 1".format(n1))
        for p in _prime_factors(n1):
            if self.pow(gen, n1 // p) == 1:
                raise NotPrimitive(
                    f"x has order dividing {n1}//{p} in GF({self.q}^{self.e})")

    # -- value conversion ------------------------------------------------

    @property
    def generator_serial(self) -> int:
        """Serial of the residue class of x (the canonical generator)."""
        if self.e == 1:
            return (-self.modulus[0]) % self.q
        return self.q

    def digits(self, a: int) -> tuple:
        out = []
        for _ in range(self.e):
            out.append(a % self.q)
            a //= self.q
        return tuple(out)

    def from_digits(self, digits: Iterable[int]) -> int:
        s = 0
        for i, c in enumerate(digits):
            s += (c % self.q) * self._qpows[i]
        return s

    def elements(self) -> range:
        return range(self.order)

    # -- serial arithmetic -----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        q = self.q
        s, shift = 0, 1
        while a or b:
            s += ((a % q + b % q) % q) * shift
            a //= q
            b //= q
            shift *= q
        return s

    def neg(self, a: int) -> int:
        return sub_digits(0, a, self.q)

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return sub_digits(a, b, self.q)

    def _mul_schoolbook(self, a: int, b: int) -> int:
        """Coefficient convolution followed by modular reduction."""
        if a == 0 or b == 0:
            return 0
        q, e = self.q, self.e
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        mod = self.modulus
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d] % q
            if c:
                for j in range(e):
                    prod[d - e + j] -= c * mod[j]
            prod[d] = 0
        s = 0
        for i in range(e - 1, -1, -1):
            s = s * q + prod[i] % q
        return s

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_schoolbook(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 0
        n1 = self.order - 1
        k %= n1
        if self._exp is not None:
            return self._exp[(self._log[a] * k) % n1]
        result, base = 1, a
        while k:
            if k & 1:
                result = self._mul_schoolbook(result, base)
            base = self._mul_schoolbook(base, base)
            k >>= 1
        return result

    def frobenius(self, a: int, i: int) -> int:
        """a^(q^i); the identity map when i is a multiple of e.  With
        tables, one lookup: log a^(q^i) = q^(i mod e) log a mod q^e - 1."""
        if self._exp is None:
            return self.pow(a, self._qpows[i % self.e])
        if a == 0:
            return 0
        return self._exp[self._log[a] * self._qpows[i % self.e]
                         % (self.order - 1)]

    def frobenius_sum(self, coeffs: Sequence[int], x: int,
                      step: int = 1) -> int:
        """sum_i coeffs[i] * x^(q^(step*i)), the value at x of a
        linearized polynomial.  With tables, one lookup per nonzero term:
        its log is log a_i + log x * q^(step*i mod e) mod q^e - 1.
        Without, one Frobenius power reaches each term's power of x from
        the last, over any run of zero coefficients between them."""
        if x == 0:
            return 0
        acc, add, xor = 0, self.add, self.q == 2
        if self._exp is not None:
            exp, log, qpows = self._exp, self._log, self._qpows
            e, n1, lx = self.e, self.order - 1, self._log[x]
            for i, a in enumerate(coeffs):
                if a:
                    t = exp[log[a] + lx * qpows[step * i % e] % n1]
                    acc = acc ^ t if xor else add(acc, t)
            return acc
        y, at = x, 0
        for i, a in enumerate(coeffs):
            if a:
                if i > at:
                    y, at = self.frobenius(y, step * (i - at)), i
                acc = add(acc, self._mul_schoolbook(a, y))
        return acc

    def frobenius_sums(self, coeffs: Sequence[int], xs: Sequence[int],
                       step: int = 1) -> list:
        """[frobenius_sum(coeffs, x, step) for x in xs], with tables in one
        list pass over the nonzero points' logs per nonzero coefficient:
        a_i x^(q^(step*i)) has log log a_i + log x * q^(step*i mod e) mod
        q^e - 1.  Without tables, and at each zero point, one
        frobenius_sum per point."""
        if self._exp is None:
            return [self.frobenius_sum(coeffs, x, step) for x in xs]
        exp, log, qpows = self._exp, self._log, self._qpows
        e, n1, add, xor = self.e, self.order - 1, self.add, self.q == 2
        logs = [log[x] for x in xs if x]
        acc = [0] * len(logs)
        for i, a in enumerate(coeffs):
            if a:
                la, f = log[a], qpows[step * i % e]
                if xor:
                    acc = [s ^ exp[la + lx * f % n1]
                           for s, lx in zip(acc, logs)]
                else:
                    acc = list(map(add, acc, [exp[la + lx * f % n1]
                                              for lx in logs]))
        if len(logs) < len(xs):
            sums = iter(acc)
            return [next(sums) if x else 0 for x in xs]
        return acc

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.q, self.e, self.modulus)

    def __eq__(self, other):
        # make_field is cached, so both sides are nearly always one object
        return self is other or (isinstance(other, FieldSpec)
                                 and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec(GF({self.q}^{self.e}))"


@functools.lru_cache(maxsize=None)
def _make_field_cached(q: int, e: int, modulus: tuple) -> FieldSpec:
    return FieldSpec(q, e, modulus)


def make_field(q: int, e: int, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct (or fetch the cached) GF(q^e) with a primitive modulus."""
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")
    if modulus is None:
        modulus = _table_modulus(q, e)
        if modulus is None:
            raise NoModulusKnown(
                f"no modulus for GF({q}^{e}) in the table; supply one")
    return _make_field_cached(q, e, _poly_trim(modulus))


# ----------------------------------------------------------------------
# Subfield embeddings
# ----------------------------------------------------------------------

def _check_subfield(src: FieldSpec, dst: FieldSpec):
    if src.q != dst.q or dst.e % src.e != 0:
        raise NotASubfield(
            f"GF({src.q}^{src.e}) is not a subfield of GF({dst.q}^{dst.e})")


def _eval_prime_poly(coeffs: Sequence[int], point: int, spec: FieldSpec) -> int:
    """Evaluate a GF(q)[x] polynomial at a point of the big field."""
    acc = 0
    for c in reversed(coeffs):
        acc = spec.mul(acc, point)
        if c:
            acc = spec.add(acc, c)
    return acc


@functools.lru_cache(maxsize=None)
def embedded_basis(src: FieldSpec, dst: FieldSpec) -> tuple:
    """The images in dst of the source basis serials q^0 .. q^(src.e-1):
    the powers im^0 .. im^(src.e-1) of the embedded source generator."""
    _check_subfield(src, dst)
    step = (dst.order - 1) // (src.order - 1)
    t = dst.pow(dst.generator_serial, step)
    sub1 = src.order - 1
    image = None
    for j in range(1, src.order):
        if math.gcd(j, sub1) != 1:
            continue
        cand = dst.pow(t, j)
        if _eval_prime_poly(src.modulus, cand, dst) == 0:
            image = cand
            break
    if image is None:                      # pragma: no cover - impossible
        raise NotASubfield("no root of the source modulus found")
    return tuple(dst.pow(image, i) for i in range(src.e))


def embed_serial(a: int, src: FieldSpec, dst: FieldSpec) -> int:
    """The fixed injective homomorphism GF(q^n) -> GF(q^m), n | m, on
    serials.  It maps the source generator to the smallest compatible power
    of gamma^((q^m-1)/(q^n-1)) and is the identity on the prime field;
    a field's embedding into itself is the identity."""
    if src == dst:
        return a
    powers = embedded_basis(src, dst)
    out = 0
    for c, p in zip(src.digits(a), powers):
        if c:
            out = dst.add(out, dst.mul(c, p))
    return out

