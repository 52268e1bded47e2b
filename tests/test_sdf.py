import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarc.arcs import TooLarge
from localarc.sdf import (
    A205,
    BASIS_5,
    BASIS_205,
    InvalidBasis,
    SdfBasis,
    digit_construct,
    is_sdf_int,
    is_sdf_mod,
    max_sdf_bruteforce,
    sdf_subset,
)


def test_mod205_alphabet():
    assert is_sdf_mod(A205, 205)
    assert len(A205) == 12


def test_is_sdf_mod_examples():
    assert not is_sdf_mod({0, 1}, 5)
    assert is_sdf_mod({0, 2}, 5)
    with pytest.raises(ValueError):
        is_sdf_mod({0, 7}, 5)


def test_is_sdf_int_examples():
    assert is_sdf_int({1, 3, 6, 8})
    assert not is_sdf_int({1, 5})
    assert is_sdf_int(set())
    assert is_sdf_int({42})


def test_mod_sdf_implies_integer_sdf():
    assert is_sdf_int(A205)
    assert is_sdf_int(BASIS_5.A)


def test_basis_validation():
    SdfBasis(5, (2, 0))
    with pytest.raises(InvalidBasis):
        SdfBasis(5, (0, 1))
    with pytest.raises(InvalidBasis):
        SdfBasis(5, (0, 5))
    with pytest.raises(InvalidBasis):
        SdfBasis(1, (0,))
    with pytest.raises(InvalidBasis):
        SdfBasis(5, ())


def test_digit_construct_small():
    out = digit_construct(BASIS_5, 2)
    assert out == {0, 2, 5, 7, 10, 12, 15, 17, 20, 22}
    assert len(out) == 10
    assert is_sdf_int(out)
    assert is_sdf_mod(out, 25)


def test_digit_construct_cardinality():
    assert len(digit_construct(BASIS_205, 2)) == 12 * 205
    assert len(digit_construct(BASIS_5, 4)) == 4 * 25
    with pytest.raises(ValueError):
        digit_construct(BASIS_5, 3)
    with pytest.raises(ValueError):
        digit_construct(BASIS_5, 0)


def test_digit_construct_trivial_alphabet():
    basis = SdfBasis(3, (0,))
    out = digit_construct(basis, 2)
    assert out == {0, 3, 6}


def test_digit_construct_is_sdf_mod_mt():
    for basis, t in ((BASIS_5, 2), (BASIS_5, 4), (SdfBasis(13, (0, 2)), 2)):
        out = digit_construct(basis, t)
        mt = basis.m**t
        if mt <= 10_000:
            assert is_sdf_mod(out, mt)


def test_max_bruteforce_small():
    assert max_sdf_bruteforce(2) == (1, (1,))
    size, witness = max_sdf_bruteforce(5)
    assert size == 2 and is_sdf_int(witness)
    assert witness == (1, 3)
    size, witness = max_sdf_bruteforce(10)
    assert size == 4
    assert witness == (1, 3, 6, 8)
    with pytest.raises(TooLarge):
        max_sdf_bruteforce(61)
    with pytest.raises(ValueError):
        max_sdf_bruteforce(0)


def test_max_bruteforce_monotone():
    prev = 0
    for n in range(1, 41):
        size, witness = max_sdf_bruteforce(n)
        assert size >= prev
        assert is_sdf_int(witness)
        prev = size


def test_sdf_subset_dispatch():
    assert sdf_subset(5) == {1, 3}
    out = sdf_subset(30, basis=BASIS_5)
    assert out and max(out) <= 30 and min(out) >= 1
    assert is_sdf_int(out)
    # a given basis is used below the brute-force guard too
    assert sdf_subset(50, basis=BASIS_5) == {1, 3, 6, 8, 11, 13, 16, 18, 21, 23}
    assert len(sdf_subset(50)) == 14
    out = sdf_subset(10_000)
    assert out and max(out) <= 10_000 and min(out) >= 1
    assert is_sdf_int(out)
    assert len(out) >= 0.5 * 10_000**0.7
    with pytest.raises(ValueError):
        sdf_subset(0)


@settings(deadline=None, max_examples=200)
@given(st.sets(st.integers(min_value=0, max_value=400), max_size=25))
def test_is_sdf_int_strategies_agree(elems):
    import math

    def naive(A):
        xs = sorted(A)
        return all(
            math.isqrt(xs[j] - xs[i]) ** 2 != xs[j] - xs[i]
            for i in range(len(xs)) for j in range(i + 1, len(xs))
        )

    assert is_sdf_int(elems) == naive(elems)


@settings(deadline=None, max_examples=100)
@given(
    m=st.integers(min_value=2, max_value=40),
    data=st.data(),
)
def test_mod_verdict_matches_definition(m, data):
    A = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=8))
    squares = {z * z % m for z in range(m)}
    naive = all((a - b) % m not in squares for a in A for b in A if a != b)
    assert is_sdf_mod(A, m) == naive
