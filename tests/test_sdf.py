import itertools
import math
import random
from collections import Counter

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


def pairwise_sdf(A):
    """The definition: no difference of two distinct elements is a
    square."""
    return not any(math.isqrt(b - a) ** 2 == b - a
                   for a, b in itertools.combinations(sorted(set(A)), 2))


def takes_the_mask(A):
    """True where is_sdf_int shifts a bitmask instead of testing pairs."""
    xs = sorted(set(A))
    return len(xs) > 1 and math.isqrt(xs[-1] - xs[0]) < (len(xs) - 1) / 2


DIGIT_SETS = [(basis, t, sorted(digit_construct(basis, t)))
              for basis, t in ((BASIS_5, 2), (BASIS_5, 4), (BASIS_5, 6),
                               (SdfBasis(13, (0, 2)), 2),
                               (SdfBasis(13, (0, 5)), 2))]


def test_is_sdf_int_branches_agree_with_the_pair_check():
    rng = random.Random(20261021)
    seen = Counter()
    for n in range(900):
        _, _, digits = DIGIT_SETS[n % len(DIGIT_SETS)]
        if n % 3 == 2:
            size = rng.randint(2, 40)
            lo = rng.randint(-500, 500)
            spread = rng.choice((size, size * size // 4, 3 * size * size))
            A = {lo + rng.randint(0, spread) for _ in range(size)}
        else:
            # a subset of a digit set, with a square difference planted
            # on every other pass
            A = set(rng.sample(digits, rng.randint(2, min(len(digits), 90))))
            if n % 3:
                A.add(rng.choice(sorted(A)) + rng.randint(1, 30) ** 2)
        want = pairwise_sdf(A)
        assert is_sdf_int(A) == want, sorted(A)
        seen[takes_the_mask(A), want] += 1
    # both branches say yes and no
    assert len(seen) == 4 and min(seen.values()) >= 25, seen


def test_is_sdf_int_on_digit_construct_outputs():
    rng = random.Random(7)
    for basis, t, digits in DIGIT_SETS:
        assert is_sdf_int(digits) and pairwise_sdf(digits), (basis, t)
        assert takes_the_mask(digits), (basis, t)
        # a square difference at the bottom, in the middle and at the top
        for x in (digits[0], rng.choice(digits), digits[-1]):
            for r in (1, 2, rng.randint(3, 60)):
                if x + r * r not in digits:
                    assert not is_sdf_int(digits + [x + r * r]), (
                        basis, t, x, r)
    # the sparse branch on the same sets thinned out
    thin = DIGIT_SETS[2][2][::40]
    assert not takes_the_mask(thin)
    assert is_sdf_int(thin) and pairwise_sdf(thin)
    assert not is_sdf_int(thin + [thin[3] + 49])
