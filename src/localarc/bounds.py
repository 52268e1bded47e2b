"""Closed-form upper and lower bounds for local-arc families.

Every bound is evaluated in exact integer arithmetic: square roots go
through math.isqrt before any outer floor division, so no result ever
depends on floating point.  Reports carry both the point count and the
set count where a uniform family is being bounded; the two are tied by
points = k * sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from localarc.gf import factor_prime_power

__all__ = [
    "BoundReport",
    "BoundComparison",
    "NotPrimePower",
    "NegativeRadicand",
    "UndefinedCase",
    "is_prime_power",
    "prime_powers",
    "trivial_upper",
    "fftc_upper",
    "eml_upper",
    "quasiarc_upper",
    "lower_exponent",
    "compare_upper_bounds",
]


class NotPrimePower(ValueError):
    """The bound only applies over a plane of prime-power order."""


class NegativeRadicand(ValueError):
    """The quadratic inside the bound has no real root at these parameters."""


class UndefinedCase(ValueError):
    """The piecewise expression skips this argument."""


def is_prime_power(n: int) -> bool:
    try:
        factor_prime_power(n)
    except ValueError:
        return False
    return True


def prime_powers(limit: int):
    """All prime powers up to and including limit, ascending."""
    return [n for n in range(2, limit + 1) if is_prime_power(n)]


class _BoundFields(NamedTuple):
    formula: str
    q: int
    points: int | None = None
    sets: int | None = None
    k: int | None = None
    t: int | None = None
    exact: Fraction | None = None


class BoundReport(_BoundFields):
    """A bound's value; points = k * sets wherever all three are given."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.points is not None and self.sets is not None and self.k:
            if self.points != self.k * self.sets:
                raise ValueError(f"{self.points} points are not k = {self.k} "
                                 f"per set over {self.sets} sets")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its result too
        return cls(*iterable)


def _require_prime_power(q: int):
    if not is_prime_power(q):
        raise NotPrimePower(f"q = {q} is not a prime power")


def trivial_upper(q: int) -> BoundReport:
    """Set-count cap from the incidence graph's induced-matching bound.

    An induced matching of the point-line incidence graph has at most
    floor(q^(3/2)) + q + 1 edges, and a local-arc family of any uniformity
    yields one, so the same number caps the family's set count.
    """
    _require_prime_power(q)
    return BoundReport("trivial", q, sets=math.isqrt(q**3) + q + 1)


def fftc_upper(q: int) -> BoundReport:
    """The earlier 4-uniform cap: points <= 4*floor((7q+3+sqrt(R))/24)."""
    rad = 24 * q**3 + q**2 - 6 * q - 63
    if rad < 0:
        raise NegativeRadicand(f"radicand {rad} < 0 at q = {q}")
    _require_prime_power(q)
    sets = (7 * q + 3 + math.isqrt(rad)) // 24
    return BoundReport("fftc", q, points=4 * sets, sets=sets, k=4)


def eml_upper(k: int, q: int) -> BoundReport:
    """k-uniform cap from the expander mixing lemma on the incidence graph.

    points <= k * floor((4(k-1) + (3k-5)q + sqrt(q(8(k-1)(q^2+k-2)
    - q(7k^2-10k-1)))) / (2k(k-1))).
    """
    if k < 2:
        raise ValueError(f"uniformity k = {k} must be at least 2")
    _require_prime_power(q)
    rad = q * (8 * (k - 1) * (q**2 + k - 2) - q * (7 * k**2 - 10 * k - 1))
    if rad < 0:
        raise NegativeRadicand(f"radicand {rad} < 0 at k = {k}, q = {q}")
    sets = (4 * (k - 1) + (3 * k - 5) * q + math.isqrt(rad)) // (2 * k * (k - 1))
    return BoundReport("eml", q, points=k * sets, sets=sets, k=k)


def quasiarc_upper(q: int, k: int, t: int) -> BoundReport:
    """Point cap k + (q+1-k)q/t for sets whose points all carry t tangents.

    The exact rational value is kept alongside its floor.
    """
    _require_prime_power(q)
    if not 0 <= k <= q + 1:
        raise ValueError(f"k = {k} outside [0, q+1]")
    if t < 1:
        raise ValueError(f"tangent count t = {t} must be positive")
    exact = k + Fraction((q + 1 - k) * q, t)
    return BoundReport("quasiarc", q, points=math.floor(exact), k=k, t=t, exact=exact)


def lower_exponent(m: int) -> float:
    """Guaranteed-construction exponent e with num_sets = Omega(q^e), q = p^m.

    Piecewise in the extension degree; m = 4 falls between two branches
    and is deliberately left undefined.
    """
    if m < 1:
        raise ValueError("extension degree must be positive")
    if m == 1:
        return 1.2334
    if m == 2:
        return 1.1167
    if m % 2:
        return 1.1167 - 0.3833 / m
    if m == 4:
        raise UndefinedCase("no exponent is claimed at m = 4")
    if m % 4 == 2:
        return 1.25 - 0.0166 / m
    return 1.25 - 0.7666 / m


class BoundComparison(NamedTuple):
    k: int
    q_max: int
    rows: tuple[tuple[int, int, int, bool], ...]  # (q, fftc pts, eml pts, eml strictly below)
    exceptions: tuple[int, ...]  # q where eml fails to improve on fftc


def compare_upper_bounds(k: int, q_max: int) -> BoundComparison:
    """fftc_upper versus eml_upper on every prime power q <= q_max.

    At k = 4 the two bound the same quantity, so the exception list is the
    set of orders where the newer bound does not strictly improve.
    """
    rows = []
    exceptions = []
    for q in prime_powers(q_max):
        f = fftc_upper(q).points
        e = eml_upper(k, q).points
        rows.append((q, f, e, e < f))
        if e >= f:
            exceptions.append(q)
    return BoundComparison(k, q_max, tuple(rows), tuple(exceptions))
