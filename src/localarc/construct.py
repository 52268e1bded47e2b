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
(a lift skips this only when called with check=False).  The lifts list
every translate of a base set family and attach that layout (a
TranslationLayout), so their check runs on the base and the difference
set T - T instead of a sweep over all point pairs, at any family size.
Each lift first plans its layout and checks the layout's set count
against its closed form, exactly and before any set exists;
best_construction budgets from that count.  These checks raise
NotVerified, never rely on assert, so they hold under python -O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from localarc.arcs import (
    LocalArcFamily,
    NotVerified,
    TranslationLayout,
    sample_verify,  # noqa: F401  (perfbench's tracer rebinds this name)
    secants_of,
    verify_local_arc,
)
from localarc.gf import (
    Field,
    factor_prime_power,
    find_primitive,
    is_prime,
    make_field,
)
from localarc.plane import Plane, make_plane
from localarc.sdf import SdfBasis, sdf_subset

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

@dataclass(frozen=True)
class GenericSeed:
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

    def as_family(self, modulus: int | None = None) -> LocalArcFamily:
        """The reduction modulo a prime (default r) as a planar family."""
        r = self.r if modulus is None else modulus
        plane = make_plane(r, "planar")
        sets = tuple(
            tuple(sorted((x % r) * r + y % r for x, y in s)) for s in self.sets
        )
        return LocalArcFamily(plane, sets, provenance=f"generic(k={self.k},r={self.r})")


@dataclass(frozen=True)
class GenericVerdict:
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
    fam_sets = tuple(
        tuple(sorted((x % r) * r + y % r for x, y in s)) for s in sets
    )
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
    field = make_field(*factor_prime_power(q))
    if q % 2:
        plane = make_plane(field, "planar")
        mul = field.mul
        pts = [x * q + mul(2 % field.p, mul(x, x)) for x in range(q)]
        pts.append(plane.infinity_point)
    else:
        plane = make_plane(field, "homogeneous")
        mul = field.mul
        pts = [t * q + mul(t, t) for t in range(q)]
        pts.extend([q * q + q, q * q])  # (0:0:1) and the nucleus (0:1:0)
    pts.sort()
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
    field = make_field(p)
    plane = make_plane(field, "planar")
    mul = field.mul
    pts = [x * p + mul(2, mul(x, x)) for x in range(p)]
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
          provenance: str) -> LocalArcFamily:
    """A lift before any set exists: the lazy family of its layout.

    NotVerified if the layout does not list `expected` sets, the lift's
    closed form.
    """
    if len(layout) != expected:
        raise NotVerified(
            f"layout lists {len(layout)} sets, closed form says {expected}"
        )
    return LocalArcFamily.translates(plane, layout, k=k,
                                     provenance=provenance, lazy=True)


def _build(plan: LocalArcFamily, check: bool = True, lazy: bool = False
           ) -> LocalArcFamily:
    """The planned lift, materialised unless lazy, verified if check.

    A materialised family must list each translate once.
    """
    fam = plan if lazy else LocalArcFamily.translates(
        plan.plane, plan.translation, k=plan.k, provenance=plan.provenance)
    if not lazy and len(set(fam.sets)) != fam.n_sets:
        raise NotVerified("translated sets collide")
    return _verified(fam) if check else fam


def _sorted_layout(coords, us, vs) -> TranslationLayout:
    """Translates by T = us x vs in sorted (u, v) order, so the set order
    is reproducible."""
    return TranslationLayout(coords, tuple(sorted(us)), tuple(sorted(vs)))


def _affine_coords(fam: LocalArcFamily) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Seed sets as (x, y) encoding pairs; rejects non-affine seeds."""
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

@dataclass(frozen=True)
class LiftParams:
    """Shape of the digit lifting for a seed prime r, basis (m, A), p."""

    basis: SdfBasis
    p: int
    t: int
    B: int
    n_translations: int

    def describe(self) -> str:
        m, A = self.basis.m, self.basis.A
        return (
            f"T: x in [-{self.B},{self.B}], y with {self.t} base-{m} digits, "
            f"even digits in {list(A)}; |T| = (2*{self.B}+1)*{len(A)}^{self.t // 2}"
            f"*{m}^{self.t // 2} = {self.n_translations}"
        )


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
    [-B, B] and y-offsets over the SDF digit values, both ascending, so
    set order is canonical.  The offsets are lazy: the family never
    materializes them.
    """
    m, A, t, B = params.basis.m, params.basis.A, params.t, params.B
    mt2 = m ** (t // 2)
    mt = mt2 * mt2
    base = tuple(
        tuple(((x * mt2) % p, (y * mt) % p) for x, y in s) for s in seed_sets
    )
    radix = [len(A) if i % 2 == 0 else m for i in range(t)]
    # from the top digit place down: (place value of iv, digit values * m^i)
    places = [
        (math.prod(radix[:i]),
         tuple((A[d] if i % 2 == 0 else d) * m**i for d in range(radix[i])))
        for i in range(t - 1, -1, -1)
    ]

    def v_of(iv: int) -> int:
        v = 0
        for place, values in places:
            di, iv = divmod(iv, place)
            v += values[di]
        return v % p

    us = _Offsets(2 * B + 1, lambda iu: (iu - B) % p)
    return TranslationLayout(base, us, _Offsets(math.prod(radix), v_of))


class _Offsets:
    """Lazy read-only sequence whose item i is fn(i)."""

    __slots__ = ("n", "fn")

    def __init__(self, n: int, fn):
        self.n = n
        self.fn = fn

    def __len__(self):
        return self.n

    def __getitem__(self, i: int):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.fn(i)


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
    everywhere (generic_k_arc ones) are safe.  The sets stay lazy at
    every size, computed from the family's translation layout, which
    verify_local_arc decides exactly.  A translated slice of the
    un-reduced integer family is re-validated as a spot check.
    """
    return _build(_plan_lift_prime(seed, basis, p), check, lazy=True)


def _plan_lift_prime(seed: GenericSeed, basis: SdfBasis, p: int
                     ) -> LocalArcFamily:
    verdict = validate_generic(seed.sets, seed.secants, seed.r)
    if not verdict.ok:
        raise ValueError(f"seed fails validation: {verdict.failures}")
    params = plan_lift(seed.r, basis, p)
    layout = _lift_layout(p, seed.sets, params)
    plan = _plan(
        make_plane(make_field(p), "planar"), layout, seed.k,
        len(seed.sets) * params.n_translations,
        f"lift_prime(r={seed.r},m={basis.m},t={params.t},p={p})",
    )
    _remark_spot_check(seed, params, layout)
    return plan


def _remark_spot_check(seed: GenericSeed, params: LiftParams,
                       layout: TranslationLayout):
    """The integer (un-reduced) lift of a few translations is generic.

    Translations may shift x negatively, so the slice is moved right by
    B, which preserves every (x-a) difference: x-offset index iu is the
    shift iu - B + B.  The y-offsets are below m^t < p, so unreduced.
    """
    m, t, p = params.basis.m, params.t, params.p
    mt2, mt = m ** (t // 2), m**t
    n_tau = params.n_translations
    picks = sorted({0, n_tau // 2, n_tau - 1})
    z_sets, z_lines = [], []
    for ti in picks:
        iu, iv = divmod(ti, len(layout.vs))
        v = layout.vs[iv]
        for s, l in zip(seed.sets, seed.secants):
            z_sets.append(tuple((x * mt2 + iu, y * mt + v) for x, y in s))
            z_lines.append(tuple((a * mt2 + iu, b * mt + v) for a, b in l))
    verdict = validate_generic(tuple(z_sets), tuple(z_lines), p)
    if not verdict.ok:
        raise NotVerified(f"integer lift lost genericity: {verdict.failures}")


# ---------------------------------------------------------------------------
# extension-field liftings

def _require_planar_affine(seed: LocalArcFamily) -> None:
    if seed.plane.kind != "planar":
        raise SeedNotPlanar("lifting acts on the planar presentation")


def case1_lift(seed: LocalArcFamily, check: bool = True) -> LocalArcFamily:
    """GF(p) -> GF(p^2) by translating with (0, g1*alpha), g1 in GF(p).

    alpha is the canonical degree-2 generator, so the alpha-component of
    an incidence forces equal translations; set count multiplies by p.
    """
    return _build(_plan_case1(seed), check)


def _plan_case1(seed: LocalArcFamily) -> LocalArcFamily:
    _require_planar_affine(seed)
    field = seed.plane.field
    if field.m != 1:
        raise ValueError("case 1 starts from a prime field")
    p = field.p
    if p == 2:
        raise ValueError("odd characteristic required")
    coords = _affine_coords(seed)
    up = make_field(p, 2)
    plane = make_plane(up, "planar")
    alpha = p  # encoding of the polynomial generator x
    vs = [up.mul(g1, alpha) for g1 in range(p)]
    note = (seed.provenance + "|" if seed.provenance else "") + f"case1(p={p})"
    return _plan(plane, _sorted_layout(coords, [0], vs), seed.k,
                 seed.n_sets * p, note)


def case2_lift(seed: LocalArcFamily, t: int, check: bool = True) -> LocalArcFamily:
    """GF(p^2) -> GF(p^{2t}) in the tower presentation.

    Translations are (f(alpha), g(alpha)) with alpha a primitive element:
    f has coefficients in GF(p^2) at indices 1..s-1, s = floor((t+1)/2);
    g has GF(p^2) coefficients at odd indices 1..t-1 and alpha*GF(p)
    coefficients at even ones.  Count: p^{5(s-1)} per set for odd t,
    p^{5s-3} for even t.
    """
    return _build(_plan_case2(seed, t), check)


def _plan_case2(seed: LocalArcFamily, t: int) -> LocalArcFamily:
    if t < 2:
        raise NotTower(f"tower degree 2t needs t >= 2, got t = {t}")
    _require_planar_affine(seed)
    base = seed.plane.field
    if base.m != 2 or base.tower:
        raise ValueError("case 2 starts from a flat GF(p^2) family")
    p = base.p
    coords = _affine_coords(seed)
    tw = make_field(p, 2 * t, tower=True)
    plane = make_plane(tw, "planar")
    alpha = find_primitive(tw).enc
    s = (t + 1) // 2
    p2 = p * p

    powers = [1]
    for _ in range(t):
        powers.append(tw.mul(powers[-1], alpha))

    f_vals = _poly_values(tw, powers, [(i, range(p2)) for i in range(1, s)])
    alpha_fp = sorted(tw.mul(alpha, c) for c in range(p))
    g_alphabets = [
        (i, range(p2) if i % 2 else alpha_fp) for i in range(1, t)
    ]
    g_vals = _poly_values(tw, powers, g_alphabets)
    expected = seed.n_sets * (p ** (5 * (s - 1)) if t % 2 else p ** (5 * s - 3))
    note = (seed.provenance + "|" if seed.provenance else "") + f"case2(p={p},t={t})"
    return _plan(plane, _sorted_layout(coords, f_vals, g_vals), seed.k,
                 expected, note)


def _poly_values(field: Field, powers, alphabets) -> list[int]:
    """All sums c_i * alpha^i with c_i running over alphabets[(i, ...)]."""
    vals = [0]
    for i, alphabet in alphabets:
        vals = [
            field.add(v, field.mul(c, powers[i]))
            for v in vals
            for c in alphabet
        ]
    return vals


def choose_M1_M2(t: int, eps: float = 1e-6) -> tuple[float, float]:
    """Minimize M1^t M2^{(t-1)/2} with M2 pinned just above its floor.

    The constraint 4/M2 < 1 - 2/M1 is kept strict by the (1+eps) pad;
    at t = 1 the infimum M1 -> 2 is open, so M1 is clamped at 2 + 1e-3.
    """
    if t < 1:
        raise ValueError("t must be positive")

    def m2_of(m1: float) -> float:
        return max(4.0, 4.0 * m1 / (m1 - 2.0)) * (1.0 + eps)

    if t == 1:
        m1 = 2.0 + 1e-3
    else:
        def obj(m1: float) -> float:
            return t * math.log(m1) + (t - 1) / 2 * math.log(m2_of(m1))

        lo, hi = 2.0 + 1e-9, 100.0
        phi = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = obj(c), obj(d)
        while b - a > 1e-9:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = obj(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = obj(d)
        m1 = (a + b) / 2
    m2 = m2_of(m1)
    if not (m1 >= 2 and m2 >= 4 and 4.0 / m2 < 1.0 - 2.0 / m1):
        raise ValueError(f"(M1, M2) = ({m1}, {m2}) violate the side constraints")
    return m1, m2


def case3_lift(
    seed: LocalArcFamily,
    m: int,
    M1: float,
    M2: float,
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
    left to the output check.
    """
    return _build(_plan_case3(seed, m, M1, M2, alphabet), check)


def _plan_case3(seed: LocalArcFamily, m: int, M1: float, M2: float,
                alphabet=None) -> LocalArcFamily:
    if m < 3 or (m % 2 == 0 and m < 4):
        raise ValueError("extension degree m must be odd >= 3 or even >= 4")
    _require_planar_affine(seed)
    base = seed.plane.field
    if base.m != 1:
        raise ValueError("case 3 starts from a prime field")
    p = base.p
    if not (M1 >= 2 and M2 >= 4 and 4.0 / M2 < 1.0 - 2.0 / M1):
        raise ValueError("(M1, M2) violate the side constraints")
    t = (m - 1) // 2 if m % 2 else m // 2
    coords = _affine_coords(seed)
    if alphabet is None:
        n_a = int(p // M1)
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
    alpha = p  # encoding of the polynomial generator x
    powers = [1]
    for _ in range(m):
        powers.append(up.mul(powers[-1], alpha))

    f_range = math.isqrt(int(p // M2))
    f_vals = _poly_values(
        up, powers, [(i, range(1, f_range + 1)) for i in range(1, t)]
    )
    if not f_vals:
        raise EmptySdf(f"floor(sqrt(p/M2)) = {f_range} leaves no f-coefficients")
    g_vals = _poly_values(
        up,
        powers,
        [(i, range(p) if i % 2 else alphabet) for i in range(1, m)],
    )
    n_odd = sum(1 for i in range(1, m) if i % 2)
    n_even = m - 1 - n_odd
    expected = seed.n_sets * f_range ** (t - 1) * p**n_odd * len(alphabet) ** n_even
    note = (seed.provenance + "|" if seed.provenance else "") + (
        f"case3(p={p},m={m},M1={M1:g},M2={M2:g},|A|={len(alphabet)})"
    )
    return _plan(plane, _sorted_layout(coords, f_vals, g_vals), seed.k,
                 expected, note)


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

    def lift(plan: LocalArcFamily, lazy: bool = False) -> LocalArcFamily:
        if plan.total_points > max_points:
            raise ValueError(
                f"{plan.n_sets} sets exceed the {max_points}-point budget"
            )
        return _build(plan, lazy=lazy)

    consider("oval_partition", lambda: oval_partition(q, k))
    if m == 1:
        consider("lift_prime", lambda: lift(
            _plan_lift_prime(generic_k_arc(k), SdfBasis(5, (0, 2)), p),
            lazy=True))
    elif m == 2:
        consider("case1", lambda: lift(_plan_case1(conic_partition_seed(p, k))))
    else:
        if m % 2 == 0:
            consider("case2", lambda: lift(_plan_case2(
                case1_lift(conic_partition_seed(p, k)), m // 2)))

        def run_case3():
            M1, M2 = choose_M1_M2((m - 1) // 2 if m % 2 else m // 2)
            return lift(_plan_case3(conic_partition_seed(p, k), m, M1, M2))

        consider("case3", run_case3)

    if not candidates:
        raise RuntimeError(f"no construction applies at q = {q}, k = {k}")
    best = max(candidates, key=lambda f: f.n_sets)
    report["winner"] = best.provenance
    return best, report
