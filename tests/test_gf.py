import collections
import random
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localarc.gf as gfmod
from localarc.gf import (
    NonPrime,
    factor_prime_power,
    is_prime,
    make_field,
    tower_isomorphism,
)


@pytest.mark.parametrize("q,expected", [
    (1, None), (2, (2, 1)), (12, None), (49, (7, 2)), (64, (2, 6)),
    (10000019, (10000019, 1)), (131 ** 3, (131, 3)), (2 * 3 ** 5, None),
    ((10 ** 9 + 7) ** 2, (10 ** 9 + 7, 2)), (3 ** 40, (3, 40)),
])
def test_factor_prime_power(q, expected):
    if expected is None:
        with pytest.raises(ValueError, match="is not a prime power"):
            factor_prime_power(q)
    else:
        assert factor_prime_power(q) == expected


def _digit_field(p, m, tower=False):
    """Force the big-field engine on a small field so it can be cross-checked."""
    if tower:
        make_field(p, 2)  # the shared base field keeps its tables
    saved = gfmod._TABLE_LIMIT
    gfmod._TABLE_LIMIT = 1
    try:
        return gfmod.Field(p, m, tower)
    finally:
        gfmod._TABLE_LIMIT = saved


FIELDS = {
    "GF7": make_field(7),
    "GF8": make_field(2, 3),
    "GF9": make_field(3, 2),
    "GF25": make_field(5, 2),
    "GF625t": make_field(5, 4, tower=True),
    "GF9digit": _digit_field(3, 2),
}


# The first irreducible of each degree in ascending encoding order, as
# trial division by every lower-degree monic polynomial found them.
FIRST_MODULI = {
    (2, 3, False): (1, 1, 0, 1),
    (2, 4, False): (1, 1, 0, 0, 1),
    (2, 5, False): (1, 0, 1, 0, 0, 1),
    (2, 6, False): (1, 1, 0, 0, 0, 0, 1),
    (2, 7, False): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8, False): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2, False): (1, 0, 1),
    (3, 3, False): (1, 2, 0, 1),
    (3, 4, False): (2, 1, 0, 0, 1),
    (3, 5, False): (1, 2, 0, 0, 0, 1),
    (5, 2, False): (2, 0, 1),
    (5, 4, False): (2, 0, 0, 0, 1),
    (5, 4, True): (5, 0, 1),
    (11, 2, False): (1, 0, 1),
    (23, 3, False): (3, 1, 0, 1),
    (41, 3, False): (1, 1, 0, 1),
    (131, 3, False): (3, 1, 0, 1),
    (307, 5, False): (9, 1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("spec", sorted(FIRST_MODULI))
def test_ben_or_keeps_the_first_irreducible(spec):
    assert make_field(*spec).modulus == FIRST_MODULI[spec]


def test_irreducibility_matches_trial_division():
    p = 3
    ops = (lambda x, y: (x + y) % p, lambda x, y: (x - y) % p,
           lambda x, y: x * y % p, lambda x: pow(x, -1, p))
    for degree in range(1, 6):
        for code in range(p**degree):
            f = gfmod._decode(code, p, degree) + [1]
            divisible = any(
                gfmod._pmod(f, gfmod._decode(c, p, e) + [1], ops[1], ops[2])
                == [0]
                for e in range(1, degree // 2 + 1) for c in range(p**e))
            assert gfmod._irreducible(f, p, *ops) == (not divisible), f


def test_modulus_choices_are_the_first_irreducibles():
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(2, 2).modulus == (1, 1, 1)     # x^2 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)     # x^2 + 1
    assert make_field(5, 2).modulus == (2, 0, 1)     # x^2 + 2
    # tower over GF(25): y^2 + c is reducible for every c in the prime
    # subfield, so the first surviving candidate is y^2 + alpha (enc 5)
    assert make_field(5, 4, tower=True).modulus == (5, 0, 1)


def test_char2_squaring_identity():
    f8 = make_field(2, 3)
    a = f8.from_coeffs([1, 1])
    assert f8.coeffs(f8.mul(a, a)) == (1, 0, 1)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_digit_layout_round_trip(name):
    f = FIELDS[name]
    for e in range(f.q):
        cs = f.coeffs(e)
        assert len(cs) == f.m and all(0 <= c < f.p for c in cs)
        assert f.from_coeffs(cs) == e
    with pytest.raises(ValueError):
        f.from_coeffs([0] * (f.m + 1))


def test_smallest_primitives():
    assert make_field(2).generator_enc() == 1
    assert make_field(5).generator_enc() == 2
    assert make_field(7).generator_enc() == 3
    assert make_field(3, 2).generator_enc() == 4
    assert make_field(41, 3).generator_enc() == 44
    assert make_field(23, 3).generator_enc() == 23
    assert make_field(53, 2).generator_enc() == 54
    assert make_field(5, 4, tower=True).generator_enc() == 26
    assert make_field(7, 4, tower=True).generator_enc() == 50


@pytest.mark.parametrize("name", ["GF8", "GF9", "GF25"])
def test_primitive_has_full_order(name):
    f = FIELDS[name]
    g = f.generator_enc()
    seen = set()
    cur = 1
    for _ in range(f.q - 1):
        seen.add(cur)
        cur = f.mul(cur, g)
    assert cur == 1 and len(seen) == f.q - 1


def test_square_classification_matches_bruteforce():
    for name in ("GF7", "GF9", "GF25", "GF8"):
        f = FIELDS[name]
        actual = {f.mul(e, e) for e in range(f.q)}
        for e in range(f.q):
            assert f.is_square_enc(e) == (e in actual)


def test_is_square_examples():
    assert make_field(13).is_square_enc(3)
    f9 = make_field(3, 2)
    assert not f9.is_square_enc(f9.generator_enc())


def test_bad_parameters_rejected():
    with pytest.raises(NonPrime):
        make_field(6)
    with pytest.raises(NonPrime):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError):
        make_field(5, 2, tower=True)
    with pytest.raises(ValueError):
        make_field(5, 3, tower=True)


def test_one_field_per_p_m_tower():
    # the cache key does not depend on how the arguments are spelled
    assert make_field(7) is make_field(7, 1) is make_field(7, 1, False)
    assert make_field(7, m=1, tower=False) is make_field(7)
    assert make_field(5, 4, True) is make_field(5, 4, tower=True)
    assert make_field(5, 4, tower=True).base is make_field(5, 2, False)


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# The table engine's exp list is a _raw_mul chain over the first
# (q-1)/(p-1) powers scaled by the prime subfield, and its zech list comes
# from a digit-0 increment.  With the generator pinned
# (test_smallest_primitives), agreeing with the digit engine on every
# operation pins all three lists.
def test_digit_engine_agrees_with_table_engine():
    for p, m, tower in ((3, 2, False), (2, 5, False), (3, 4, False),
                        (5, 3, False), (5, 4, True)):
        ft, fd = make_field(p, m, tower), _digit_field(p, m, tower)
        assert ft.mul != ft._raw_mul and fd.mul == fd._raw_mul
        els = range(ft.q)
        assert list(map(ft.neg, els)) == list(map(fd.neg, els))
        assert list(map(ft.inv, els[1:])) == list(map(fd.inv, els[1:]))
        assert (list(map(ft.is_square_enc, els))
                == list(map(fd.is_square_enc, els)))
        for a in els:
            for op in ("add", "sub", "mul"):
                assert (list(map(getattr(ft, op), repeat(a), els))
                        == list(map(getattr(fd, op), repeat(a), els))), \
                    (ft, op, a)


# GF(257^2) keeps its digit columns in a list, as every p >= 256 does
@pytest.mark.parametrize("p,m,tower", [
    (23, 3, False), (7, 4, True), (257, 2, False)])
def test_digit_engine_agrees_with_table_engine_on_random_pairs(p, m, tower):
    ft, fd = make_field(p, m, tower), _digit_field(p, m, tower)
    rng = random.Random(p * 10 + m)
    for _ in range(20_000):
        a, b = rng.randrange(ft.q), rng.randrange(ft.q)
        assert ft.add(a, b) == fd.add(a, b)
        assert ft.sub(a, b) == fd.sub(a, b)
        assert ft.mul(a, b) == fd.mul(a, b)
        assert ft.neg(a) == fd.neg(a)
        if a:
            assert ft.inv(a) == fd.inv(a)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_field_axioms(name, data):
    f = FIELDS[name]
    enc = st.integers(min_value=0, max_value=f.q - 1)
    a, b, c = data.draw(enc), data.draw(enc), data.draw(enc)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.add(a, 0) == a and f.mul(a, 1) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, f.q - 1) == 1
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(a, 3) == f.mul(a, f.mul(a, a))


@settings(deadline=None, max_examples=80)
@given(
    x=st.integers(min_value=0, max_value=624),
    y=st.integers(min_value=0, max_value=624),
)
def test_tower_isomorphism_is_a_field_map(x, y):
    to_t, from_t = tower_isomorphism(5, 4)
    flat, tw = make_field(5, 4), make_field(5, 4, tower=True)
    assert to_t(flat.add(x, y)) == tw.add(to_t(x), to_t(y))
    assert to_t(flat.mul(x, y)) == tw.mul(to_t(x), to_t(y))
    assert from_t(to_t(x)) == x
    assert to_t(1) == 1 and to_t(0) == 0


@pytest.mark.parametrize("e", [-1, 625])
def test_tower_isomorphism_rejects_out_of_range_encodings(e):
    to_t, from_t = tower_isomorphism(5, 4)
    for fn in (to_t, from_t):
        with pytest.raises(ValueError, match="outside"):
            fn(e)


# Every flat digit field with p = 2, 3 and m = 2..7, GF(131^3) and one
# tower, each checked against the list-polynomial product _pmul/_pmod.
DIGIT_FIELDS = {
    **{f"GF({p}^{m})": _digit_field(p, m) for p in (2, 3) for m in range(2, 8)},
    "GF(131^3)": make_field(131, 3),
    "GF(5^4) tower": _digit_field(5, 4, tower=True),
}


def _reference(f):
    """mul and the digit maps of f through _pmul/_pmod on digit lists."""
    if f.tower:
        b = make_field(f.p, 2)
        sq, sadd, ssub, smul = f.p ** 2, b.add, b.sub, b.mul
    else:
        p = sq = f.p
        sadd = lambda x, y: (x + y) % p  # noqa: E731
        ssub = lambda x, y: (x - y) % p  # noqa: E731
        smul = lambda x, y: x * y % p  # noqa: E731

    def to_poly(e):
        return gfmod._decode(e, sq, len(f.modulus) - 1)

    def from_poly(poly):
        return sum(c * sq**i for i, c in enumerate(poly))

    def mul(a, b):
        prod = gfmod._pmul(to_poly(a), to_poly(b), sadd, smul)
        return from_poly(gfmod._pmod(prod, f.modulus, ssub, smul))

    def digitwise(op, a, b):
        return f.from_coeffs([op(x, y) for x, y in zip(f.coeffs(a),
                                                       f.coeffs(b))])

    return mul, digitwise


@pytest.mark.parametrize("name", sorted(DIGIT_FIELDS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_digit_engine_matches_list_polynomials(name, data):
    f = DIGIT_FIELDS[name]
    assert f.mul == f._raw_mul  # the digit engine, not the tables
    ref_mul, digitwise = _reference(f)
    enc = st.integers(min_value=0, max_value=f.q - 1)
    a, b = data.draw(enc), data.draw(enc)
    assert f.mul(a, b) == ref_mul(a, b)
    assert f.add(a, b) == digitwise(int.__add__, a, b)
    assert f.sub(a, b) == digitwise(int.__sub__, a, b)
    assert f.neg(a) == digitwise(int.__sub__, 0, a)
    if a:
        inv = f.inv(a)
        assert ref_mul(inv, a) == 1 and f.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def _count_own_calls(monkeypatch):
    """Count calls through every Field's own mul and inv, as perfbench's
    gf.calls counters do, but from the moment each closure is set, so a
    table build that called back through self.mul would count too."""
    calls = collections.Counter()

    def set_counted(obj, name, value):
        if name in ("mul", "inv"):
            def value(*args, _fn=value, _key=name):
                calls[_key] += 1
                return _fn(*args)
        object.__setattr__(obj, name, value)

    monkeypatch.setattr(gfmod.Field, "__setattr__", set_counted)
    return calls


def test_builds_and_digit_inverses_make_no_counted_calls(monkeypatch):
    calls = _count_own_calls(monkeypatch)
    table = gfmod.Field(41, 3, False)  # exp table from the packed product
    assert table.generator_enc() == make_field(41, 3).generator_enc()
    assert calls == {}
    digit = gfmod.Field(131, 3, False)
    assert digit.generator_enc() == 131  # x, found through _raw_mul
    units = (1, 2, 131, 12345, digit.q - 1)
    for a in units:
        digit.inv(a)
    assert calls == {"inv": len(units)}
