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
])
def test_factor_prime_power(q, expected):
    if expected is None:
        with pytest.raises(ValueError, match="is not a prime power"):
            factor_prime_power(q)
    else:
        assert factor_prime_power(q) == expected


def _digit_field(p, m):
    """Force the big-field engine on a small field so it can be cross-checked."""
    saved = gfmod._TABLE_LIMIT
    gfmod._TABLE_LIMIT = 1
    try:
        return gfmod.Field(p, m, False)
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


def test_is_prime_small_range():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_digit_engine_agrees_with_table_engine():
    ft, fd = FIELDS["GF9"], FIELDS["GF9digit"]
    for a in range(9):
        assert ft.neg(a) == fd.neg(a)
        assert ft.is_square_enc(a) == fd.is_square_enc(a)
        if a:
            assert ft.inv(a) == fd.inv(a)
        for b in range(9):
            assert ft.add(a, b) == fd.add(a, b)
            assert ft.sub(a, b) == fd.sub(a, b)
            assert ft.mul(a, b) == fd.mul(a, b)


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
