"""Constructions of k-uniform local-arc families.

Three layers:

* seeds: oval partitions, affine conic partitions, column pairs, and
  integer-coordinate generic seeds that stay valid modulo every large
  enough prime;
* the digit lifting that turns a generic seed over a small prime r into
  a family over GF(p) whose set count grows superlinearly in p, driven
  by a square-difference-free digit alphabet;
* the extension liftings that push a family over GF(p) (or GF(p^2)) up
  to GF(p^m) by translating it with carefully shaped polynomial tails.

Every construction re-verifies its output exactly, with verify_local_arc
(a lift skips this only when called with check=False; check defaults to
True).  Each lift is the lazy family of its TranslationLayout, every
translate of a base set family: no set is built until it is looked up,
and the check runs on the base and the difference set T - T instead of a
sweep over all point pairs, at any family size, with no separate integer
spot check.  Each lift first plans its layout and checks the layout's set
count against its closed form, exactly and before any set exists;
best_construction budgets from that count.  These checks raise
NotVerified, never rely on assert, so they hold under python -O.
case3_lift picks M1 and M2 with choose_M1_M2 unless the caller gives
both, and its digit alphabet is sdf_subset(floor(p/M1)) unless one is
given.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from localarc.arcs import (
    LocalArcFamily,
    NotVerified,
    Offsets,
    TranslationLayout,
    sample_verify,  # noqa: F401  (perfbench's tracer rebinds this name)
    secants_of,
    verify_local_arc,
)
from localarc.gf import (
    Field,
    factor_prime_power,
    is_prime,
    make_field,
)
from localarc.plane import Plane, make_plane
from localarc.sdf import (
    BASIS_5,
    SdfBasis,
    digit_construct,
    digit_places,
    sdf_subset,
)

__all__ = [
    "KTooLarge",
    "NonAffineSeed",
    "NotTower",
    "SeedNotPlanar",
    "EmptySdf",
    "PTooSmall",
    "GenericSeed",
    "GenericVerdict",
    "LiftParams",
    "validate_generic",
    "generic_k_arc",
    "seed_to_dict",
    "seed_from_dict",
    "oval_partition",
    "conic_partition_seed",
    "column_pair_seed",
    "plan_lift",
    "lift_prime",
    "case1_lift",
    "case2_lift",
    "choose_M1_M2",
    "case3_lift",
    "best_construction",
]

class KTooLarge(ValueError):
    """No k-set fits inside the oval being partitioned."""


class NonAffineSeed(ValueError):
    """The lifting needs affine points and non-vertical secants."""


class NotTower(ValueError):
    """The target field has no tower presentation at this degree."""


class SeedNotPlanar(ValueError):
    """The lifting is defined over the planar presentation only."""


class EmptySdf(ValueError):
    """The square-difference-free alphabet came out empty."""


class PTooSmall(ValueError):
    """The prime cannot host even the shallowest lifting depth."""


# ---------------------------------------------------------------------------
# generic integer seeds

class GenericSeed(NamedTuple):
    """Integer point sets with their integer secant data.

    Valid seeds reduce to a k-uniform local arc modulo r and, by the
    threshold stored in r_prime, modulo every prime at least
    max(r, r_prime) as well.
    """

    sets: tuple[tuple[tuple[int, int], ...], ...]
    secants: tuple[tuple[tuple[int, int], ...], ...]
    r: int
    r_prime: int

    @property
    def k(self) -> int:
        return len(self.sets[0]) if self.sets else 0

    def as_family(self) -> LocalArcFamily:
        """The reduction modulo r as a planar family."""
        plane = make_plane(self.r, "planar")
        return LocalArcFamily(plane, _reduce_mod(self.sets, self.r),
                              provenance=f"generic(k={self.k},r={self.r})")


def _reduce_mod(sets, r: int) -> tuple[tuple[int, ...], ...]:
    """Integer (x, y) sets reduced modulo r, as sorted planar point ids."""
    return tuple(tuple(sorted((x % r) * r + y % r for x, y in s))
                 for s in sets)


class GenericVerdict(NamedTuple):
    ok: bool
    cond_a: bool
    cond_b: bool
    cond_c: bool
    r_prime: int
    failures: tuple[str, ...]


def validate_generic(sets, secants, r: int) -> GenericVerdict:
    """Check the three conditions a generic seed must satisfy.

    (a) the mod-r reduction is a local arc, (b) the given integer lines
    reduce to exactly the secants of each reduced set, (c) every mod-r
    incidence between a seed point and a seed line already holds over
    the integers: (x-a)^2 = y-b >= 0.  Coordinates must be nonnegative
    integers; they may exceed r as long as the reductions behave.  The
    returned r_prime is the least modulus bound: any prime at least
    max(r, r_prime) hosts the same family.
    """
    sets = tuple(tuple(tuple(pt) for pt in s) for s in sets)
    secants = tuple(tuple(tuple(ln) for ln in l) for l in secants)
    failures = []
    pts = [pt for s in sets for pt in s]
    lns = [ln for l in secants for ln in l]
    if any(c < 0 for pair in pts + lns for c in pair):
        failures.append("negative coordinates")

    plane = make_plane(r, "planar")
    fam_sets = _reduce_mod(sets, r)
    cond_a = all(len(set(s)) == len(s) for s in fam_sets)
    if cond_a:
        cond_a = verify_local_arc(LocalArcFamily(plane, fam_sets)).ok
    if not cond_a:
        failures.append("(a) reduction is not a local arc")

    cond_b = len(secants) == len(sets)
    if cond_b:
        for s, l in zip(fam_sets, secants):
            want = set(secants_of(plane, s)) if cond_a else set()
            got = {(a % r) * r + b % r for a, b in l}
            if got != want:
                cond_b = False
                break
    if not cond_b:
        failures.append("(b) integer lines do not reduce to the secants")

    cond_c = "negative coordinates" not in failures
    worst = 0
    for x, y in pts:
        for a, b in lns:
            worst = max(worst, (x - a) ** 2 - (y - b))
            if ((y - b) - (x - a) ** 2) % r == 0 and (x - a) ** 2 != y - b:
                cond_c = False
    if not cond_c:
        failures.append("(c) a mod-r incidence fails over the integers")

    ok = cond_a and cond_b and cond_c and not failures
    return GenericVerdict(ok, cond_a, cond_b, cond_c, worst + 1, tuple(failures))


def generic_k_arc(k: int) -> GenericSeed:
    """A single integer k-arc on the line y = 2x, with integer secants.

    Points x = ceil(k^2/2) + 2i share a parity, so each secant solves to
    integers a = (x0+x1)/2 - 1 and b = 2*x0 - ((x0-x1)/2 + 1)^2, both
    nonnegative.  The base prime is the smallest one past k^2 + 4k - 7.
    """
    if k < 2:
        raise ValueError("a generic arc needs k >= 2")
    x0 = (k * k + 1) // 2
    xs = [x0 + 2 * i for i in range(k)]
    pts = tuple((x, 2 * x) for x in xs)
    lines = []
    for i in range(k):
        for j in range(i + 1, k):
            a = (xs[i] + xs[j]) // 2 - 1
            b = 2 * xs[i] - ((xs[i] - xs[j]) // 2 + 1) ** 2
            lines.append((a, b))
    r = k * k + 4 * k - 6
    while not is_prime(r):
        r += 1
    verdict = validate_generic((pts,), (tuple(lines),), r)
    if not verdict.ok:
        raise NotVerified(f"generic {k}-arc seed fails: {verdict.failures}")
    return GenericSeed((pts,), (tuple(lines),), r, verdict.r_prime)


def seed_to_dict(seed: GenericSeed) -> dict:
    return {
        "r": seed.r,
        "r_prime": seed.r_prime,
        "sets": [[list(pt) for pt in s] for s in seed.sets],
        "secants": [[list(ln) for ln in l] for l in seed.secants],
    }


def seed_from_dict(data: dict) -> GenericSeed:
    """Inverse of seed_to_dict; ValueError on data of any other shape."""
    try:
        sets = tuple(tuple(_int_pair(pt) for pt in s) for s in data["sets"])
        secants = tuple(
            tuple(_int_pair(ln) for ln in l) for l in data["secants"]
        )
        r = data["r"]
        r_prime = data.get("r_prime")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed seed ({type(exc).__name__}: {exc})") \
            from exc
    if not isinstance(r, int) or not isinstance(r_prime, (int, type(None))):
        raise ValueError("malformed seed: r and r_prime must be integers")
    if r_prime is None:
        r_prime = validate_generic(sets, secants, r).r_prime
    return GenericSeed(sets, secants, r, r_prime)


def _int_pair(pair) -> tuple[int, int]:
    x, y = pair
    if not (isinstance(x, int) and isinstance(y, int)):
        raise TypeError(f"{pair!r} is not a pair of integers")
    return x, y


# ---------------------------------------------------------------------------
# direct partitions

def oval_partition(q: int, k: int) -> LocalArcFamily:
    """Chop an oval (q odd) or hyperoval (q even) into k-sets.

    Odd q uses the planar presentation, where the arc {(x, 2x^2)} plus
    the point (inf) is an oval; even q uses the homogeneous conic
    (1:t:t^2) with (0:0:1) plus its nucleus (0:1:0).  Leftover points
    are dropped.
    """
    if k < 2:
        raise ValueError("set size k must be at least 2")
    plane = make_plane(q, "planar" if q % 2 else "homogeneous")
    pts = sorted(plane.conic())
    n = len(pts) // k
    if n == 0:
        raise KTooLarge(f"k = {k} exceeds the {len(pts)}-point oval")
    sets = tuple(tuple(pts[i * k:(i + 1) * k]) for i in range(n))
    fam = LocalArcFamily(plane, sets, k=k, provenance=f"oval_partition(q={q},k={k})")
    return _verified(fam)


def conic_partition_seed(p: int, k: int = 2) -> LocalArcFamily:
    """floor(p/k) k-sets from the affine arc {(x, 2x^2)} over GF(p).

    All points affine, all secants non-vertical: the shape the extension
    liftings need.
    """
    if k < 2:
        raise ValueError("set size k must be at least 2")
    plane = make_plane(make_field(p), "planar")
    pts = plane.conic()[:p]
    n = p // k
    if n == 0:
        raise KTooLarge(f"k = {k} exceeds the {p}-point affine arc")
    sets = tuple(tuple(sorted(pts[i * k:(i + 1) * k])) for i in range(n))
    fam = LocalArcFamily(plane, sets, k=k, provenance=f"conic_seed(p={p},k={k})")
    return _verified(fam)


def column_pair_seed(p: int) -> LocalArcFamily:
    """p pairs {(0,c), (1,c+1)} over GF(p); valid for every odd prime.

    Only two distinct x-coordinates occur, and in this presentation any
    three collinear points need three distinct x's unless their line is
    vertical, which no pair union can fill three deep.
    """
    field = make_field(p)
    plane = make_plane(field, "planar")
    sets = tuple(
        tuple(sorted((0 * p + c, 1 * p + field.add(c, 1)))) for c in range(p)
    )
    fam = LocalArcFamily(plane, sets, k=2, provenance=f"column_pairs(p={p})")
    return _verified(fam)


# ---------------------------------------------------------------------------
# verification glue

def _verified(fam: LocalArcFamily) -> LocalArcFamily:
    """fam after an exact check; NotVerified names the violation."""
    rep = verify_local_arc(fam)
    if not rep.ok:
        raise NotVerified(rep.violation.describe(fam.plane))
    return fam


def _plan(plane: Plane, layout: TranslationLayout, k: int, expected: int,
          provenance: str, check: bool) -> LocalArcFamily:
    """A lift: the lazy family of its layout, exactly checked if asked.

    NotVerified if the layout does not list `expected` sets, the lift's
    closed form; this runs before any set is built.  A translate listed
    twice is left to the exact check, which names it as an overlap.
    """
    if len(layout) != expected:
        raise NotVerified(
            f"layout lists {len(layout)} sets, closed form says {expected}"
        )
    fam = LocalArcFamily.translates(plane, layout, k=k, provenance=provenance)
    return _verified(fam) if check else fam


def _affine_coords(fam: LocalArcFamily) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Seed sets as (x, y) encoding pairs, the base of a translation lift.

    SeedNotPlanar for a seed in the homogeneous presentation;
    NonAffineSeed for a point off the affine part or a vertical secant.
    """
    if fam.plane.kind != "planar":
        raise SeedNotPlanar("lifting acts on the planar presentation")
    q = fam.plane.q
    out = []
    for s in fam.sets:
        for pid in s:
            if pid >= q * q:
                raise NonAffineSeed(
                    f"point {fam.plane.point_str(pid)} is not affine"
                )
        out.append(tuple(divmod(pid, q) for pid in s))
    for s in fam.sets:
        for lid in secants_of(fam.plane, s):
            if lid >= q * q:
                raise NonAffineSeed(
                    f"secant {fam.plane.line_str(lid)} is vertical"
                )
    return tuple(out)


# ---------------------------------------------------------------------------
# the prime-field digit lifting

class LiftParams(NamedTuple):
    """Shape of the digit lifting for a seed prime r, basis (m, A), p."""

    basis: SdfBasis
    p: int
    t: int
    B: int
    n_translations: int


def plan_lift(r: int, basis: SdfBasis, p: int) -> LiftParams:
    """Pick the deepest even digit count t with (r^2+3r+1) m^t <= p."""
    m = basis.m
    bound = r * r + 3 * r + 1
    if p <= m * m * bound:
        raise PTooSmall(
            f"p = {p} is not above m^2 (r^2+3r+1) = {m * m * bound}"
        )
    t = 2
    while bound * m ** (t + 2) <= p:
        t += 2
    B = m ** (t // 2) - 1
    # the proof's working inequality, equivalent to the t condition
    if (r + 1) ** 2 * m**t > p - r * m**t:
        raise NotVerified(f"t = {t} breaks (r+1)^2 m^t <= p - r m^t")
    n_tau = (2 * B + 1) * len(basis.A) ** (t // 2) * m ** (t // 2)
    return LiftParams(basis, p, t, B, n_tau)


def _lift_layout(p: int, seed_sets, params: LiftParams) -> TranslationLayout:
    """The digit lift as translates of the scaled seed over GF(p).

    Seed point (x, y) scales to (x m^(t/2), y m^t); x-offsets run over
    [-B, B] and y-offsets over the SDF digit values, ascending, so set
    order is canonical.  The y-offsets keep their digit places, and list
    the values digit_construct builds and checks.
    """
    basis = params.basis
    m, t, B = basis.m, params.t, params.B
    mt2 = m ** (t // 2)
    mt = mt2 * mt2
    base = tuple(
        tuple(((x * mt2) % p, (y * mt) % p) for x, y in s) for s in seed_sets
    )
    us = tuple(u % p for u in range(-B, B + 1))
    vs = Offsets(make_field(p).add, digit_places(basis, t))
    if list(vs) != sorted(digit_construct(basis, t)):
        raise NotVerified("the digit places do not sum to the digit set")
    return TranslationLayout(base, us, vs)


def lift_prime(
    seed: GenericSeed,
    basis: SdfBasis,
    p: int,
    check: bool = True,
) -> LocalArcFamily:
    """Digit-lift a generic seed to GF(p): (x, y) -> (x m^{t/2}, y m^t)
    plus every translation in T (x-offsets in [-B, B], y-offsets with
    even base-m digits in A and odd digits free).

    The listed family has |seed| * (2B+1) * |A|^{t/2} * m^{t/2} sets,
    translation-major, exactly.  Beware: the x-offset window is wider
    than one m^{t/2} gap, so if two seed sets are horizontal translates
    of each other at distance 1, their lifted copies collide and the
    verification step rejects the family.  Seeds with x-gaps >= 2
    everywhere (generic_k_arc ones) are safe.  Like every lift, the
    sets are lazy, computed from the family's translation layout, which
    verify_local_arc decides exactly.
    """
    verdict = validate_generic(seed.sets, seed.secants, seed.r)
    if not verdict.ok:
        raise ValueError(f"seed fails validation: {verdict.failures}")
    params = plan_lift(seed.r, basis, p)
    return _plan(
        make_plane(make_field(p), "planar"),
        _lift_layout(p, seed.sets, params), seed.k,
        len(seed.sets) * params.n_translations,
        f"lift_prime(r={seed.r},m={basis.m},t={params.t},p={p})", check,
    )


# ---------------------------------------------------------------------------
# extension-field liftings

def case1_lift(seed: LocalArcFamily, check: bool = True) -> LocalArcFamily:
    """GF(p) -> GF(p^2) by translating with (0, g1*alpha), g1 in GF(p).

    alpha is the canonical degree-2 generator, so the alpha-component of
    an incidence forces equal translations; set count multiplies by p.
    """
    coords = _affine_coords(seed)
    field = seed.plane.field
    if field.m != 1:
        raise ValueError("case 1 starts from a prime field")
    p = field.p
    up = make_field(p, 2)
    plane = make_plane(up, "planar")
    alpha = up.from_coeffs((0, 1))  # the polynomial generator x
    vs = _poly_values(up, alpha, [(1, range(p))])
    note = (seed.provenance + "|" if seed.provenance else "") + f"case1(p={p})"
    return _plan(plane, TranslationLayout(coords, (0,), vs), seed.k,
                 seed.n_sets * p, note, check)


def case2_lift(seed: LocalArcFamily, t: int, check: bool = True) -> LocalArcFamily:
    """GF(p^2) -> GF(p^{2t}) in the tower presentation.

    Translations are (f(alpha), g(alpha)) with alpha a primitive element
    of GF(p^{2t}): f has coefficients in GF(p^2) at indices 1..s-1,
    s = floor((t+1)/2); g has GF(p^2) coefficients at odd indices 1..t-1
    and w*GF(p) coefficients at even ones, w the primitive element of
    GF(p^2), a constant of the tower.  Count: p^{5(s-1)} per set for
    odd t, p^{5s-3} for even t.

    The even places need w to be a non-square of GF(p^2), which a
    primitive element is.  This rule is measured, not taken from the
    paper.  Lifting the case-1 lift of a conic seed at t = 3 and p = 3,
    5 and 7, the exact check accepts each of the p + 1 lines w*GF(p) of
    GF(p^2) whose w is a non-square and rejects each whose w is a
    square; the tower's own alpha in place of w is rejected at (p, t) =
    (5, 3), (7, 3), (3, 4) and (3, 5).  t = 2 has no even place.
    """
    if t < 2:
        raise NotTower(f"tower degree 2t needs t >= 2, got t = {t}")
    coords = _affine_coords(seed)
    base = seed.plane.field
    if base.m != 2 or base.tower:
        raise ValueError("case 2 starts from a flat GF(p^2) family")
    p = base.p
    tw = make_field(p, 2 * t, tower=True)
    plane = make_plane(tw, "planar")
    alpha = tw.generator_enc()
    s = (t + 1) // 2
    p2 = p * p

    f_vals = _poly_values(tw, alpha, [(i, range(p2)) for i in range(1, s)])
    w = tw.base.generator_enc()
    w_fp = sorted(tw.mul(w, c) for c in range(p))
    g_alphabets = [(i, range(p2) if i % 2 else w_fp) for i in range(1, t)]
    g_vals = _poly_values(tw, alpha, g_alphabets)
    expected = seed.n_sets * (p ** (5 * (s - 1)) if t % 2 else p ** (5 * s - 3))
    note = (seed.provenance + "|" if seed.provenance else "") + f"case2(p={p},t={t})"
    return _plan(plane, TranslationLayout(coords, f_vals, g_vals), seed.k,
                 expected, note, check)


def _poly_values(field: Field, alpha: int, alphabets) -> Offsets:
    """The sums of c_i * alpha^i, c_i running over the alphabet of each
    (i, alphabet) place, as Offsets: sorted, with their places."""
    places = []
    for i, alphabet in alphabets:
        a_i = field.pow(alpha, i)
        places.append([field.mul(c, a_i) for c in alphabet])
    return Offsets(field.add, places)


def choose_M1_M2(t: int, eps: float = 1e-6) -> tuple[float, float]:
    """Minimize M1^t M2^{(t-1)/2} with M2 pinned just above its floor.

    With M2 = 4 M1 / (M1 - 2), the derivative of t ln M1 + (t-1)/2 ln M2
    vanishes at M1 = 3 - 1/t.  The constraint 4/M2 < 1 - 2/M1 is kept
    strict by the (1+eps) pad; at t = 1 the infimum M1 -> 2 is open, so
    M1 is clamped at 2 + 1e-3.
    """
    if t < 1:
        raise ValueError("t must be positive")
    m1 = 2.0 + 1e-3 if t == 1 else 3.0 - 1.0 / t
    m2 = 4.0 * m1 / (m1 - 2.0) * (1.0 + eps)
    if not (m1 >= 2 and m2 >= 4 and 4.0 / m2 < 1.0 - 2.0 / m1):
        raise ValueError(f"(M1, M2) = ({m1}, {m2}) violate the side constraints")
    return m1, m2


def case3_lift(
    seed: LocalArcFamily,
    m: int,
    M1: float | None = None,
    M2: float | None = None,
    alphabet=None,
    check: bool = True,
) -> LocalArcFamily:
    """GF(p) -> GF(p^m) by translating with SDF-shaped polynomial tails.

    m = 2t+1 odd or m = 2t even (t > 1).  Translations (f(alpha),
    g(alpha)): f has coefficients in {1..floor(sqrt(p/M2))} at indices
    1..t-1; g has GF(p) coefficients at odd indices 1..m-1 and A at even
    ones, where A = sdf_subset(floor(p/M1)) unless an explicit alphabet
    is supplied.  An explicit alphabet must list distinct values in
    [0, p) (ValueError otherwise); that it is square-difference-free is
    left to the output check.  M1 and M2 default to choose_M1_M2(t);
    giving only one of them is a ValueError.
    """
    if m < 3 or (m % 2 == 0 and m < 4):
        raise ValueError("extension degree m must be odd >= 3 or even >= 4")
    coords = _affine_coords(seed)
    base = seed.plane.field
    if base.m != 1:
        raise ValueError("case 3 starts from a prime field")
    p = base.p
    t = (m - 1) // 2 if m % 2 else m // 2
    use_default = M1 is None and M2 is None
    if use_default:
        M1, M2 = choose_M1_M2(t)
    elif M1 is None or M2 is None:
        raise ValueError("give both M1 and M2, or neither")
    if not (M1 >= 2 and M2 >= 4 and 4.0 / M2 < 1.0 - 2.0 / M1):
        raise ValueError("(M1, M2) violate the side constraints")
    if alphabet is None:
        # floor(p/M1); for the default M1 = 3 - 1/t (t > 1) it is
        # pt // (3t - 1), as the double nearest 3 - 1/t can lie above it
        # and floor one too low (5, not 6, at p = 17, t = 6)
        n_a = (p * t // (3 * t - 1) if use_default and t > 1
               else int(p // M1))
        if n_a < 1:
            raise EmptySdf(f"floor(p/M1) = {n_a} leaves no alphabet range")
        alphabet = sdf_subset(n_a)
    alphabet = tuple(sorted(alphabet))
    if not alphabet:
        raise EmptySdf("empty digit alphabet")
    if len(set(alphabet)) != len(alphabet) or not (
            0 <= alphabet[0] and alphabet[-1] < p):
        raise ValueError(
            f"alphabet {list(alphabet)} must list distinct values in [0, {p})"
        )

    up = make_field(p, m)
    plane = make_plane(up, "planar")
    alpha = up.from_coeffs((0, 1))  # the polynomial generator x

    f_range = math.isqrt(int(p // M2))
    f_vals = _poly_values(
        up, alpha, [(i, range(1, f_range + 1)) for i in range(1, t)]
    )
    if not f_vals:
        raise EmptySdf(f"floor(sqrt(p/M2)) = {f_range} leaves no f-coefficients")
    g_vals = _poly_values(
        up, alpha, [(i, range(p) if i % 2 else alphabet) for i in range(1, m)]
    )
    n_odd = sum(1 for i in range(1, m) if i % 2)
    n_even = m - 1 - n_odd
    expected = seed.n_sets * f_range ** (t - 1) * p**n_odd * len(alphabet) ** n_even
    note = (seed.provenance + "|" if seed.provenance else "") + (
        f"case3(p={p},m={m},M1={M1:g},M2={M2:g},|A|={len(alphabet)})"
    )
    return _plan(plane, TranslationLayout(coords, f_vals, g_vals), seed.k,
                 expected, note, check)


# ---------------------------------------------------------------------------
# dispatch

def best_construction(
    q: int, k: int, max_points: int = 250_000
) -> tuple[LocalArcFamily, dict]:
    """Run every applicable construction and keep the largest verified one.

    The report maps branch names to set counts (or a skip reason), so the
    winner is auditable.  A lift whose planned set count, its closed
    form, puts more than max_points points in the family is skipped
    before any of its sets is built.
    """
    p, m = factor_prime_power(q)
    if p == 2:
        raise ValueError("dispatch covers odd q; even q has oval_partition only")
    report: dict[str, object] = {}
    candidates: list[LocalArcFamily] = []

    def consider(name, builder):
        try:
            fam = builder()
        except ValueError as exc:
            report[name] = f"skipped ({exc})"
            return
        report[name] = fam.n_sets
        candidates.append(fam)

    def lift(plan: LocalArcFamily) -> LocalArcFamily:
        if plan.total_points > max_points:
            raise ValueError(
                f"{plan.n_sets} sets exceed the {max_points}-point budget"
            )
        return _verified(plan)

    consider("oval_partition", lambda: oval_partition(q, k))
    if m == 1:
        consider("lift_prime", lambda: lift(lift_prime(
            generic_k_arc(k), BASIS_5, p, check=False)))
    elif m == 2:
        consider("case1", lambda: lift(case1_lift(
            conic_partition_seed(p, k), check=False)))
    else:
        if m % 2 == 0:
            consider("case2", lambda: lift(case2_lift(
                case1_lift(conic_partition_seed(p, k), check=False), m // 2,
                check=False)))
        consider("case3", lambda: lift(case3_lift(
            conic_partition_seed(p, k), m, check=False)))

    if not candidates:
        raise ValueError(f"no construction applies at q = {q}, k = {k}")
    best = max(candidates, key=lambda f: f.n_sets)
    report["winner"] = best.provenance
    return best, report
