"""Arithmetic for finite fields GF(p^m) with integer-encoded elements.

An element is a plain integer in [0, q), its encoding; there is no element
object.  Each Field computes on encodings through its add/sub/neg/mul/inv
closures, and pow, is_square_enc and generator_enc are built on them.
For a flat field the encoding is the base-p digit expansion
sum(a_i * p**i) of the coefficient vector with respect to the monic
modulus.  A tower field GF((p^2)^t) packs its coefficients base p^2, each
digit being the encoding of a base-field element; unpacked to base p this
coincides with the flat digit layout, so addition is base-p digitwise in
both presentations.  Field.coeffs and Field.from_coeffs are the one
translation between an encoding and its m base-p digits.

Moduli are found by scanning monic candidates in ascending order of their
integer encoding and keeping the first one that passes Ben-Or's
irreducibility test, gcd(f, x^(s^i) - x) = 1 for every i <= deg(f)/2 over
the scalar ring GF(s).

Three engines cover the size range:

- prime fields use native modular arithmetic;
- extension fields with at most _TABLE_LIMIT elements use exp/log tables
  with Zech logarithms for addition: one list lookup per operation;
- larger fields compute on digits.  A flat field multiplies through one
  packed-integer (Kronecker substitution) product, _packed_mul, which is
  also what builds the exp tables and searches for generators; a tower
  field multiplies digit polynomials over GF(p^2) (_pmul, _pmod).  Both
  invert by extended Euclid over the scalar ring (_xgcd), and add, sub
  and neg take one pass over the place values p^i, one floor division
  of each operand per digit (for p = 2, add and sub are xor).

The tables are built from the prime-subfield cosets of the head.  The
_raw_mul chain makes only the head g^0 .. g^(N-1), N = (q-1)/(p-1).
w = g^N generates GF(p)*, and a prime-field scalar multiplies each
base-p digit on its own, flat and tower encodings alike, so the coset
exp[kN + i] = w^k exp[i] costs one list lookup per digit.  1 + v changes
only digit 0 of v, so zech is log[v + 1], or log[v + 1 - p] when that
digit is p - 1.  For p = 2, N = q - 1 and the chain makes the whole table.

At GF(131^3) the digit engine costs about 1.5 us per mul and 10 us per
inv under CPython 3.11 on a 2-core x86 machine, against 0.1-0.4 us per
table-engine mul, so the tables stay wherever they fit.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Sequence

__all__ = [
    "NonPrime",
    "Field",
    "make_field",
    "is_prime",
    "factor_prime_power",
    "tower_isomorphism",
]

_TABLE_LIMIT = 1 << 21


class NonPrime(ValueError):
    """The requested characteristic is not a prime number."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, m: int) -> int:
    """floor(n ** (1/m)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // m)
    while (s := ((m - 1) * r + n // r ** (m - 1)) // m) < r:
        r = s
    return r


def factor_prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p**m and p prime; ValueError for any other q."""
    for m in range(1, max(q, 1).bit_length()):
        r = _iroot(q, m)
        if r ** m == q and is_prime(r):
            return r, m
    raise ValueError(f"q = {q} is not a prime power")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers, generic over the coefficient ring
#
# A polynomial is a list of scalar encodings, constant term first, trimmed so
# that only the zero polynomial ends in 0.

def _ptrim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, sadd, smul):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] = sadd(out[i + j], smul(ai, bj))
    return _ptrim(out)


def _pmod(a, mod, ssub, smul):
    # mod must be monic, so the leading term cancels without arithmetic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a.pop()
        if c != 0:
            off = len(a) - dm
            for i in range(dm):
                a[off + i] = ssub(a[off + i], smul(c, mod[i]))
    return _ptrim(a)


def _decode(code: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(code % base)
        code //= base
    return out


def _xgcd(f, a, ssub, smul, sinv):
    """(g, s) with g the monic gcd of f and a, and s * a = g modulo f.

    Extended Euclid that keeps only a's cofactor; deg a < deg f, and a
    may be the zero polynomial, whose gcd with f is f made monic.  A
    nonzero constant remainder ends it early: the gcd is then 1.
    """
    r0, r1 = list(f), list(a)
    s0, s1 = [0], [1]
    while len(r1) > 1:
        d = len(r1) - 1
        lead = sinv(r1[-1])
        quot = [0] * (len(r0) - d)
        for i in reversed(range(len(quot))):
            c = quot[i] = smul(r0[i + d], lead)
            if c:  # r0[i + d] cancels; only the lower terms change
                for j in range(d):
                    r0[i + j] = ssub(r0[i + j], smul(c, r1[j]))
        r0, r1 = r1, _ptrim(r0[:d])
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, c in enumerate(quot):
            if c:
                for j, b in enumerate(s1):
                    s[i + j] = ssub(s[i + j], smul(c, b))
        s0, s1 = s1, _ptrim(s)
    if r1 == [0]:
        r1, s1 = r0, s0
    lead = sinv(r1[-1])
    return [smul(lead, c) for c in r1], [smul(lead, c) for c in s1]


def _irreducible(mod, sq, sadd, ssub, smul, sinv) -> bool:
    """Ben-Or: gcd(mod, x^(sq^i) - x) = 1 for every i <= deg(mod)/2.

    x^(sq^i) - x is the product of the monic irreducibles whose degree
    divides i, so the test fails exactly when mod has a factor of degree
    at most deg(mod)/2.
    """
    h = [0, 1]  # x^(sq^i) mod mod
    for _ in range((len(mod) - 1) // 2):
        cur, h, e = h, [1], sq
        while e:
            if e & 1:
                h = _pmod(_pmul(h, cur, sadd, smul), mod, ssub, smul)
            cur = _pmod(_pmul(cur, cur, sadd, smul), mod, ssub, smul)
            e >>= 1
        diff = h + [0] * (2 - len(h))
        diff[1] = ssub(diff[1], 1)
        if _xgcd(mod, _ptrim(diff), ssub, smul, sinv)[0] != [1]:
            return False
    return True


def _find_modulus(degree, sq, sadd, ssub, smul, sinv) -> list[int]:
    for code in range(sq**degree):
        cand = _decode(code, sq, degree) + [1]
        if _irreducible(cand, sq, sadd, ssub, smul, sinv):
            return cand
    raise RuntimeError("irreducible polynomial of every degree exists")


def _packed_mul(p: int, mod: Sequence[int]) -> Callable[[int, int], int]:
    """mul(a, b) on encodings of GF(p)[x]/(mod) through one int product.

    Kronecker substitution: each operand's m base-p digits go into w-bit
    slots of one Python int, the two ints are multiplied once, and slots
    m..2m-2 of the product are folded back into the low m slots with the
    packed x^k mod (mod).  A product slot is at most m (p-1)^2 and a
    folded one at most m (p-1)^2 (1 + (m-1)(p-1)); w holds that, so no
    slot carries into the next.  Each low slot is then reduced mod p and
    the digits repacked base p.
    """
    m = len(mod) - 1
    w = (m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))).bit_length()
    mask = (1 << w) - 1
    folds = []  # packed x^k mod (mod) for k = m .. 2m-2
    cur = [-c % p for c in mod[:m]]
    for _ in range(m - 1):
        folds.append(sum(c << (w * i) for i, c in enumerate(cur)))
        top = cur[-1]
        cur = [-top * mod[0] % p] + [
            (c - top * f) % p for c, f in zip(cur, mod[1:m])]

    def mul(a, b, _p=p, _w=w, _mask=mask, _low=(1 << (w * m)) - 1,
            _high=w * m, _folds=tuple(folds),
            _shifts=tuple(range(w * (m - 1), -1, -w))):
        x = y = s = 0
        while a or b:
            x |= a % _p << s
            y |= b % _p << s
            a //= _p
            b //= _p
            s += _w
        c = x * y
        r = c & _low
        c >>= _high
        for f in _folds:
            r += (c & _mask) * f
            c >>= _w
        out = 0
        for s in _shifts:
            out = out * _p + (r >> s & _mask) % _p
        return out

    return mul


def _power(mul: Callable[[int, int], int], a: int, e: int) -> int:
    """a**e for e >= 0 by square-and-multiply over the product mul."""
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


class Field:
    """One finite field; construct through make_field so instances are shared."""

    def __init__(self, p: int, m: int, tower: bool):
        self.p = p
        self.m = m
        self.tower = tower
        self.q = p**m
        self.base: Field | None = None
        self._gen: int | None = None  # set by the table engine, else lazily

        # _raw_mul is the product that the table build, the generator
        # search and the digit engine's mul share; it stays apart from
        # self.mul, so a wrapper put on an instance's mul (a call
        # counter) sees only the callers' multiplications
        if m == 1:
            self.modulus: tuple[int, ...] = ()
            self._init_prime()
        else:
            if tower:
                self.base = b = make_field(p, 2)
                self._scalar = (p * p, b.add, b.sub, b.mul, b.inv)
                mod = _find_modulus(m // 2, *self._scalar)
                self._raw_mul = self._poly_mul
            else:
                self._scalar = (p, lambda x, y: (x + y) % p,
                                lambda x, y: (x - y) % p,
                                lambda x, y: x * y % p,
                                lambda x: pow(x, -1, p))
                mod = _find_modulus(m, *self._scalar)
                self._raw_mul = _packed_mul(p, mod)
            self.modulus = tuple(mod)
            if self.q <= _TABLE_LIMIT:
                self._init_table()
            else:
                self._init_digit()

    # -- engines ----------------------------------------------------------

    def _init_prime(self):
        p = self.p

        def add(a, b, _p=p):
            return (a + b) % _p

        def sub(a, b, _p=p):
            return (a - b) % _p

        def neg(a, _p=p):
            return -a % _p

        def mul(a, b, _p=p):
            return a * b % _p

        def inv(a, _p=p, _e=p - 2):
            if a == 0:
                raise ZeroDivisionError("0 is not invertible")
            return pow(a, _e, _p)

        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv = mul, inv
        self._raw_mul = mul

    def _digit_closures(self):
        # digit i of a is a // w % p for the place value w = p^i, so
        # (a // w ± b // w) % p is digit i of the sum or difference
        p = self.p
        if p == 2:
            return operator.xor, operator.xor, lambda a: a
        places = tuple(p**i for i in range(1, self.m))

        def dadd(a, b, _p=p, _w=places):
            out = (a + b) % _p
            for w in _w:
                out += (a // w + b // w) % _p * w
            return out

        def dsub(a, b, _p=p, _w=places):
            out = (a - b) % _p
            for w in _w:
                out += (a // w - b // w) % _p * w
            return out

        def dneg(a, _p=p, _w=places):
            out = -a % _p
            for w in _w:
                out += -(a // w) % _p * w
            return out

        return dadd, dsub, dneg

    def _enc_to_poly(self, e: int) -> list[int]:
        sq = self._scalar[0]
        out = []
        while e:
            out.append(e % sq)
            e //= sq
        return out or [0]

    def _poly_to_enc(self, poly: Sequence[int]) -> int:
        sq = self._scalar[0]
        out = 0
        for c in reversed(poly):
            out = out * sq + c
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        _, sadd, ssub, smul, _ = self._scalar
        prod = _pmul(self._enc_to_poly(a), self._enc_to_poly(b), sadd, smul)
        return self._poly_to_enc(_pmod(prod, self.modulus, ssub, smul))

    def _find_generator(self) -> int:
        q = self.q
        if q == 2:
            return 1
        factors = _prime_factors(q - 1)
        for c in range(2, q):
            if all(_power(self._raw_mul, c, (q - 1) // f) != 1
                   for f in factors):
                return c
        raise RuntimeError("multiplicative group of a finite field is cyclic")

    def _init_table(self):
        p, q, m = self.p, self.q, self.m
        g = self._find_generator()
        self._gen = g
        n = q - 1
        head = n // (p - 1)

        # the chain makes the head, then each coset w^k head is one lookup
        # per digit (see the module docstring).  Extending exp assigns no
        # temporary slice, and byte columns hold the digits (p >= 256 means
        # m = 2 and a head of at most 1448), so GF(37^4) peaks no higher
        # than a full chain would.
        exp = [1] * head
        for i in range(1, head):
            exp[i] = self._raw_mul(exp[i - 1], g)
        if p > 2:
            w = self._raw_mul(exp[-1], g)
            if not 1 < w < p:
                raise RuntimeError("the norm of a generator generates GF(p)*")
            column = bytes if p < 256 else list
            cols = [column(e // p**i % p for e in exp) for i in range(m)]
            c = 1
            for _ in range(p - 2):
                c = c * w % p
                out = map([c * d % p for d in range(p)].__getitem__, cols[0])
                for i in range(1, m):
                    place = [c * d % p * p**i for d in range(p)]
                    out = map(operator.add, out,
                              map(place.__getitem__, cols[i]))
                exp.extend(out)
            del cols

        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i

        # 1 + v is v + 1, or v + 1 - p when digit 0 is p - 1; 0 at v = p - 1
        pm = p - 1
        zech = [-1] * n
        for k, v in enumerate(exp):
            if v % p != pm:
                zech[k] = log[v + 1]
            elif v != pm:
                zech[k] = log[v + 1 - p]

        def mul(a, b, _exp=exp, _log=log, _n=n):
            if a == 0 or b == 0:
                return 0
            return _exp[(_log[a] + _log[b]) % _n]

        def inv(a, _exp=exp, _log=log, _n=n):
            if a == 0:
                raise ZeroDivisionError("0 is not invertible")
            return _exp[-_log[a] % _n]

        def add(a, b, _exp=exp, _log=log, _z=zech, _n=n):
            if a == 0:
                return b
            if b == 0:
                return a
            la = _log[a]
            d = _log[b] - la
            z = _z[d] if d >= 0 else _z[d + _n]
            if z < 0:
                return 0
            t = la + z
            return _exp[t - _n if t >= _n else t]

        if p == 2:
            def neg(a):
                return a
        else:
            half = n // 2

            def neg(a, _exp=exp, _log=log, _n=n, _h=half):
                if a == 0:
                    return 0
                t = _log[a] + _h
                return _exp[t - _n if t >= _n else t]

        def sub(a, b, _add=add, _neg=neg):
            return _add(a, _neg(b))

        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv = mul, inv

    def _init_digit(self):
        dadd, dsub, dneg = self._digit_closures()
        _, _, ssub, smul, sinv = self._scalar

        def inv(a, _mod=self.modulus, _dec=self._enc_to_poly,
                _enc=self._poly_to_enc):
            if a == 0:
                raise ZeroDivisionError("0 is not invertible")
            return _enc(_xgcd(_mod, _dec(a), ssub, smul, sinv)[1])

        self.add, self.sub, self.neg = dadd, dsub, dneg
        self.mul, self.inv = self._raw_mul, inv

    # -- encodings ---------------------------------------------------------

    def coeffs(self, e: int) -> tuple[int, ...]:
        """The m base-p digits of encoding e, constant term first."""
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(e % p)
            e //= p
        return tuple(out)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        """Encoding of sum(c_i x^i), each c_i taken mod p; at most m of them."""
        p = self.p
        if len(coeffs) > self.m:
            raise ValueError("too many digits")
        e = 0
        for c in reversed(coeffs):
            e = e * p + c % p
        return e

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; a negative e inverts a first."""
        if e < 0:
            a, e = self.inv(a), -e
        return _power(self.mul, a, e)

    def is_square_enc(self, a: int) -> bool:
        """Euler's criterion; every element is a square in characteristic 2."""
        return self.p == 2 or a == 0 or self.pow(a, (self.q - 1) // 2) == 1

    def generator_enc(self) -> int:
        """Smallest-encoded generator of the multiplicative group."""
        if self._gen is None:
            self._gen = self._find_generator()
        return self._gen

    def __repr__(self):
        tag = f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"
        return tag + (" tower" if self.tower else "")

    def __len__(self):
        return self.q


def make_field(p: int, m: int = 1, tower: bool = False) -> Field:
    """The one shared Field for (p, m, tower), however the call spells it."""
    return _make_field(p, m, tower)


@functools.lru_cache(maxsize=None)
def _make_field(p: int, m: int, tower: bool) -> Field:
    if not is_prime(p):
        raise NonPrime(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be positive")
    if tower and (m % 2 or m < 4):
        raise ValueError("tower presentation needs an even degree m >= 4")
    return Field(p, m, tower)


def _mat_inv_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        s = pow(aug[col][col], p - 2, p)
        aug[col] = [v * s % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def tower_isomorphism(p: int, m: int) -> tuple[Callable, Callable]:
    """Mutually inverse field maps between GF(p^m) flat and its tower form.

    The flat generator is sent to the smallest-encoded root of the flat
    modulus inside the tower field, which pins the isomorphism down
    deterministically.  Both directions are returned as callables from
    encodings to encodings; an encoding outside [0, p^m) is a ValueError.
    """
    flat = make_field(p, m)
    tw = make_field(p, m, tower=True)
    coeffs = [c % p for c in flat.modulus]

    root = None
    for cand in range(tw.q):
        acc = 0
        for c in reversed(coeffs):
            acc = tw.add(tw.mul(acc, cand), c)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise RuntimeError("flat modulus splits in any field of the same order")

    # columns are the base-p digit vectors of root**j
    cols = []
    cur = 1
    for _ in range(m):
        cols.append(tw.coeffs(cur))
        cur = tw.mul(cur, root)
    fwd_mat = [[cols[j][i] for j in range(m)] for i in range(m)]
    bwd_mat = _mat_inv_mod(fwd_mat, p)

    def apply(mat, src: Field, dst: Field, e: int) -> int:
        if not 0 <= e < src.q:
            raise ValueError(f"encoding {e} outside [0, {src.q})")
        vec = src.coeffs(e)
        return dst.from_coeffs(
            [sum(row[j] * vec[j] for j in range(m)) for row in mat])

    def to_tower(e: int) -> int:
        return apply(fwd_mat, flat, tw, e)

    def from_tower(e: int) -> int:
        return apply(bwd_mat, tw, flat, e)

    return to_tower, from_tower
