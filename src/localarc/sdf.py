"""Square-difference-free (SDF) sets over the integers and modulo m.

A set is SDF when no difference of two distinct elements is a square; in
the modular variant "square" means membership in {z^2 mod m}, composite m
included.  SDF sets enter the lifting constructions as digit alphabets:
digit_construct turns a small SDF basis modulo m into an SDF set of
integers below m^t.  The brute-force maximizer is the oracle the tests
hold everything against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from localarc.arcs import TooLarge

__all__ = [
    "A205",
    "BASIS_205",
    "BASIS_5",
    "InvalidBasis",
    "SdfBasis",
    "is_sdf_mod",
    "is_sdf_int",
    "digit_construct",
    "digit_places",
    "max_sdf_bruteforce",
    "sdf_subset",
]


class InvalidBasis(ValueError):
    """The digit alphabet is not square-difference-free modulo m."""


def is_sdf_mod(A, m: int) -> bool:
    """No difference of distinct elements is a square residue mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    elems = sorted(set(A))
    if elems and not (0 <= elems[0] and elems[-1] < m):
        raise ValueError(f"residues must lie in [0, {m})")
    squares = {z * z % m for z in range(m)}
    return all(
        (a - b) % m not in squares
        for a in elems for b in elems if a != b
    )


def is_sdf_int(A) -> bool:
    """No positive pairwise difference is a perfect square.

    Two scan strategies, chosen by cost: all pairs with an isqrt test, or,
    when the set is dense enough for that to be cheaper, shift-ANDs on
    its bitmask M (bit x - min(A) for each x): A is SDF exactly when
    M & (M >> r^2) is 0 for every r up to isqrt(max(A) - min(A)).
    """
    elems = sorted(set(A))
    n = len(elems)
    if n < 2:
        return True
    lo = elems[0]
    spread = elems[-1] - lo
    n_squares = math.isqrt(spread)
    if n_squares < (n - 1) / 2:
        bits = bytearray(spread // 8 + 1)
        for x in elems:
            x -= lo
            bits[x >> 3] |= 1 << (x & 7)
        mask = int.from_bytes(bits, "little")
        return not any(mask & (mask >> (r * r))
                       for r in range(1, n_squares + 1))
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = elems[j] - elems[i]
            if math.isqrt(d) ** 2 == d:
                return False
    return True


class _BasisFields(NamedTuple):
    m: int
    A: tuple[int, ...]


class SdfBasis(_BasisFields):
    """Digit base m with an alphabet A that is SDF mod m, held sorted and
    without repeats."""

    __slots__ = ()

    def __new__(cls, m: int, A):
        if m < 2:
            raise InvalidBasis("modulus must be at least 2")
        A = tuple(sorted(set(A)))
        if not A:
            raise InvalidBasis("alphabet is empty")
        if not (0 <= A[0] and A[-1] < m):
            raise InvalidBasis(f"alphabet must lie in [0, {m})")
        if not is_sdf_mod(A, m):
            raise InvalidBasis(f"alphabet is not SDF mod {m}")
        return super().__new__(cls, m, A)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too
        return cls(*iterable)


A205 = (0, 2, 8, 14, 77, 79, 85, 96, 103, 109, 111, 181)
BASIS_205 = SdfBasis(205, A205)
BASIS_5 = SdfBasis(5, (0, 2))


def digit_construct(basis: SdfBasis, t: int) -> set[int]:
    """SDF integers below m^t with even base-m digits from the alphabet.

    { sum y_i m^i : y_i in A for even i, 0 <= y_i < m for odd i }, of
    cardinality |A|^(t/2) * m^(t/2).  The lowest differing digit of any
    two members sits at an even position and differs by a nonsquare mod m,
    which keeps the difference nonsquare; outputs small enough to scan
    are re-verified against is_sdf_int anyway.
    """
    if t < 2 or t % 2:
        raise ValueError("digit count t must be even and at least 2")
    m, A = basis.m, basis.A
    out = set(_bounded_digits(basis, t, m**t - 1))
    if len(out) != len(A) ** (t // 2) * m ** (t // 2):
        raise RuntimeError(f"digit construction gave {len(out)} integers, "
                           f"not |A|^(t/2) m^(t/2)")
    if len(out) <= 10_000 and not is_sdf_int(out):
        raise RuntimeError("digit construction is not square-difference-free")
    return out


def digit_places(basis: SdfBasis, t: int) -> list[list[int]]:
    """The places of digit_construct(basis, t), lowest first: y·m^i for
    y in A at even i and 0 <= y < m at odd i, so that its values are the
    sums of one element of each place."""
    m, A = basis.m, basis.A
    return [[y * m**i for y in (A if i % 2 == 0 else range(m))]
            for i in range(t)]


def max_sdf_bruteforce(N: int) -> tuple[int, tuple[int, ...]]:
    """Maximum SDF subset of {1,...,N} with its lexicographically
    smallest witness; include-first depth-first search with a
    remaining-count cutoff."""
    if N > 60:
        raise TooLarge(f"exhaustive search is guarded at N = 60, got {N}")
    if N < 1:
        raise ValueError("N must be positive")
    squares = {r * r for r in range(1, math.isqrt(N) + 1)}
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []

    def dfs(x: int):
        nonlocal best_size, best
        if len(chosen) + (N - x + 1) <= best_size:
            return
        if x > N:
            return
        if all(x - c not in squares for c in chosen):
            chosen.append(x)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = tuple(chosen)
            dfs(x + 1)
            chosen.pop()
        dfs(x + 1)

    dfs(1)
    return best_size, best


def sdf_subset(N: int, basis: SdfBasis | None = None) -> set[int]:
    """An SDF subset of {1,...,N}.

    A given basis means its digit construction truncated into range, at
    any N (empty when no digit value is below N).  Without one: the
    exhaustive maximum up to the search guard N = 60, and the truncated
    digit construction of BASIS_205 above it.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if basis is None:
        if N <= 60:
            return set(max_sdf_bruteforce(N)[1])
        basis = BASIS_205
    # digit sets for growing even t, each cut at N-1; with 0 in the
    # alphabet they are nested, but argmax over t costs nothing
    best: set[int] = set()
    t = 2
    while True:
        cur = {x + 1 for x in _bounded_digits(basis, t, N - 1)}
        if len(cur) > len(best):
            best = cur
        if basis.m**t > N - 1:
            break
        t += 2
    if not is_sdf_int(best):
        raise RuntimeError("truncated digit construction is not "
                           "square-difference-free")
    return best


def _bounded_digits(basis: SdfBasis, t: int, limit: int) -> list[int]:
    """The digit values of digit_construct(basis, t) that are <= limit,
    ascending; built top digit first, so out-of-range prefixes are cut
    early."""
    out = [0]
    for place in reversed(digit_places(basis, t)):
        out = [v for x in out for d in place if (v := x + d) <= limit]
    return out
