"""Containers and verifiers for k-uniform local-arc families.

A local-arc family is a collection of pairwise disjoint point sets such
that the union of any two sets is an arc (no three points on a common
line).  Verification comes in four flavours:

* verify_local_arc        -- exact.  A family built as all translates of
                             a base (LocalArcFamily.translates, which keeps
                             the TranslationLayout) is decided from the base
                             and the difference set T - T; any other family
                             gets one pass over all point pairs with a line
                             ownership index.
* verify_local_arc_oracle -- literal restatement of the definition,
                             quadratic in the number of sets; guarded by a
                             size limit so it stays a cross-check tool.
* verify_mwise            -- the m-wise strengthening: unions of any m sets
                             must be arcs, checked via per-line set counts.
* sample_verify           -- deterministic spot check of sampled set pairs,
                             for families too large to verify exhaustively;
                             each point's coordinates are taken once per
                             pair and each triple pivoted on its first
                             point, two multiplications per triple.

Points are plane ids; sets are sorted tuples.  Families may hold any
sequence type, so constructions can hand over lazily generated sets.
Mixed-size families are legal data (k reports 0); operations that need
uniformity say so.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from localarc.gf import make_field
from localarc.plane import Plane

__all__ = [
    "TooLarge",
    "NotAnArc",
    "NotVerified",
    "Violation",
    "VerifyReport",
    "TranslationLayout",
    "KArc",
    "LocalArcFamily",
    "is_arc",
    "secants_of",
    "secant_family",
    "verify_local_arc",
    "verify_local_arc_oracle",
    "verify_mwise",
    "sample_verify",
    "tangent_profile",
    "is_t_quasiarc",
    "is_semiarc",
    "derive_phi",
    "reduce_uniformity",
    "LRCParams",
    "lrc_params",
    "uncovered_line_count",
    "family_to_dict",
    "family_from_dict",
]


class TooLarge(ValueError):
    """An exhaustive check refuses inputs past its size guard."""


class NotAnArc(ValueError):
    """Three of the points sit on a common line."""


class NotVerified(ValueError):
    """The operation needs a family that passes verification."""


@dataclass(frozen=True)
class Violation:
    kind: str  # "overlap" | "duplicate" | "collinear"
    sets: tuple[int, ...]
    points: tuple[int, ...]
    line: int | None = None

    def describe(self, plane: Plane) -> str:
        pts = ", ".join(plane.point_str(p) for p in self.points)
        if self.kind == "collinear":
            return (
                f"line {plane.line_str(self.line)} carries points {pts} "
                f"from sets {list(self.sets)}"
            )
        where = "sets" if self.kind == "overlap" else "set"
        return f"point {pts} repeats in {where} {list(self.sets)}"


@dataclass
class VerifyReport:
    ok: bool
    mode: str
    pairs_checked: int
    violation: Violation | None = None
    seed: int | None = None


def is_arc(plane: Plane, points) -> bool:
    """True when no three of the given points are collinear."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValueError("arc points must be distinct")
    join = plane.join
    seen = set()
    for u, v in itertools.combinations(pts, 2):
        ln = join(u, v)
        if ln in seen:
            return False
        seen.add(ln)
    return True


def secants_of(plane: Plane, points) -> tuple[int, ...]:
    """Sorted ids of the C(k,2) secant lines of an arc.

    Raises NotAnArc when a join repeats, i.e. three points are collinear.
    """
    join = plane.join
    seen = set()
    for u, v in itertools.combinations(points, 2):
        ln = join(u, v)
        if ln in seen:
            raise NotAnArc(f"line {plane.line_str(ln)} holds three points")
        seen.add(ln)
    return tuple(sorted(seen))


class KArc:
    """A single arc in canonical point order, with cached secants."""

    __slots__ = ("plane", "points", "_secants")

    def __init__(self, plane: Plane, points, trusted: bool = False):
        pts = tuple(sorted(points))
        if not trusted and not is_arc(plane, pts):
            raise NotAnArc("three of the points are collinear")
        self.plane = plane
        self.points = pts
        self._secants: tuple[int, ...] | None = None

    @property
    def secants(self) -> tuple[int, ...]:
        if self._secants is None:
            self._secants = secants_of(self.plane, self.points)
        return self._secants

    @property
    def k(self) -> int:
        return len(self.points)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pid):
        return pid in self.points

    def __eq__(self, other):
        return (
            isinstance(other, KArc)
            and other.plane is self.plane
            and other.points == self.points
        )

    def __hash__(self):
        return hash((id(self.plane), self.points))

    def __repr__(self):
        return f"KArc(k={self.k}, {[self.plane.point_str(p) for p in self.points]})"


@dataclass(frozen=True)
class TranslationLayout:
    """A planar family listed as every translate of a base in AG(2, q).

    Set (iu * len(vs) + iv) * len(base) + si of the family is base[si]
    moved by (us[iu], vs[iv]): translation-major, u before v.  ``base``
    holds affine (x, y) coordinates as field encodings of the family's
    plane; ``us`` and ``vs`` are field encodings too, either may be a
    lazy sequence, and an offset listed twice lists every set twice.
    """

    base: tuple[tuple[tuple[int, int], ...], ...]
    us: Sequence[int]
    vs: Sequence[int]

    def __len__(self) -> int:
        return len(self.base) * len(self.us) * len(self.vs)

    def index(self, si: int, iu: int, iv: int) -> int:
        return (iu * len(self.vs) + iv) * len(self.base) + si

    def translate(self, i: int, add, q: int) -> tuple[int, ...]:
        """Set i as sorted point ids; the inverse of index()."""
        ti, si = divmod(i, len(self.base))
        iu, iv = divmod(ti, len(self.vs))
        u, v = self.us[iu], self.vs[iv]
        return tuple(sorted(add(x, u) * q + add(y, v)
                            for x, y in self.base[si]))


class _Translates:
    """Lazy read-only sequence of the sets a TranslationLayout lists."""

    __slots__ = ("layout", "add", "q", "n")

    def __init__(self, plane: Plane, layout: TranslationLayout):
        self.layout = layout
        self.add = plane.field.add
        self.q = plane.q
        self.n = len(layout)

    def __len__(self):
        return self.n

    def __getitem__(self, i: int):
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.layout.translate(i, self.add, self.q)


class LocalArcFamily:
    """A collection of point sets over one plane.

    ``sets`` may be any sequence of sorted point tuples, including a lazy
    one; only list/tuple inputs are normalised up front.  ``k`` is the
    common set size, or 0 for mixed sizes.  ``provenance`` is a free-form
    note on how the family was built, carried through transformations and
    serialisation.  ``translation`` is the TranslationLayout of a family
    made by LocalArcFamily.translates, which derives the sets from it, and
    None otherwise; it lets verify_local_arc decide the family without a
    pair sweep.
    """

    def __init__(self, plane: Plane, sets: Sequence, k: int | None = None,
                 provenance: str = "", validate: bool = False):
        if isinstance(sets, (list, tuple)):
            sets = tuple(tuple(sorted(s)) for s in sets)
            if k is None:
                sizes = {len(s) for s in sets}
                k = sizes.pop() if len(sizes) == 1 else 0
        elif k is None:
            k = len(sets[0]) if len(sets) else 0
        self.plane = plane
        self.sets = sets
        self.n_sets = len(sets)
        self.k = k
        self.provenance = provenance
        self.translation: TranslationLayout | None = None
        if validate:
            report = verify_local_arc(self)
            if not report.ok:
                raise ValueError(report.violation.describe(plane))

    @classmethod
    def translates(cls, plane: Plane, layout: TranslationLayout,
                   k: int | None = None, provenance: str = "",
                   lazy: bool = False) -> LocalArcFamily:
        """Every translate of layout.base, in the layout's order.

        The sets are materialised unless ``lazy``; either way they are
        computed from the layout, which the family keeps.
        """
        if plane.kind != "planar":
            raise ValueError("a translation layout needs the planar "
                             "presentation")
        if not all(0 <= c < plane.q
                   for s in layout.base for pt in s for c in pt):
            raise ValueError("layout base coordinates must be field "
                             "encodings")
        sets = _Translates(plane, layout)
        if not lazy:
            sets = tuple(sets[i] for i in range(len(sets)))
        fam = cls(plane, sets, k=k, provenance=provenance)
        fam.translation = layout
        return fam

    @property
    def total_points(self) -> int:
        if self.k:
            return self.k * self.n_sets
        return sum(len(self.sets[i]) for i in range(self.n_sets))

    def materialize(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(s) for s in self.sets)

    def __len__(self):
        return self.n_sets

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (tuple(self.sets[i]) for i in range(self.n_sets))

    def __repr__(self):
        return (
            f"LocalArcFamily(q={self.plane.q}, {self.plane.kind}, "
            f"k={self.k}, sets={self.n_sets})"
        )


def secant_family(family: LocalArcFamily) -> tuple[tuple[int, ...], ...]:
    """Per-set secant line ids, aligned with set order."""
    return tuple(secants_of(family.plane, s) for s in family.sets)


# ---------------------------------------------------------------------------
# verifiers

def _flatten(family: LocalArcFamily):
    """All (point, set index) incidences, or a repeat witness."""
    flat = []
    first = {}
    for sidx in range(family.n_sets):
        for pid in family.sets[sidx]:
            prev = first.get(pid)
            if prev is not None:
                kind = "duplicate" if prev == sidx else "overlap"
                return None, Violation(kind, tuple(sorted({prev, sidx})), (pid,))
            first[pid] = sidx
            flat.append((pid, sidx))
    return flat, None


def _collinear_witness(family, flat, ln) -> Violation:
    incident = family.plane.incident
    on_line = [(pid, s) for pid, s in flat if incident(pid, ln)]
    counts = Counter(s for _, s in on_line)
    ranked = sorted(counts, key=lambda s: (-counts[s], s))
    chosen = ranked[:1] if counts[ranked[0]] >= 3 else ranked[:2]
    pts = tuple(sorted(pid for pid, s in on_line if s in chosen))
    return Violation("collinear", tuple(sorted(chosen)), pts, line=ln)


def verify_local_arc(family: LocalArcFamily) -> VerifyReport:
    """Exact check: by translation or by a sweep over point pairs.

    A family with a TranslationLayout is checked from its base and
    T - T (mode "translation"); every other family is swept (mode
    "fast").
    """
    if family.translation is not None:
        return _verify_translates(family)
    return _verify_sweep(family)


def _verify_sweep(family: LocalArcFamily) -> VerifyReport:
    """Exact check in one sweep over point pairs.

    Every pair of family points is joined and the line recorded with an
    ownership state: a set index while the line is a secant of that one
    set, -1 once it carries points of two different sets.  A same-set pair
    on an already-known line, or a cross-set pair on some set's secant,
    pins three points of at most two sets to a common line, which is
    exactly a violation of the per-line tally rule c1 >= 3 or
    (c1 >= 2 and c2 >= 1).  Cross-set pairs may share a line freely as
    long as no set contributes twice.  The scan order is fixed (points
    sorted by id), so the reported witness is canonical.
    """
    flat, bad = _flatten(family)
    if bad is not None:
        return VerifyReport(False, "fast", 0, bad)
    flat.sort()
    n = len(flat)
    join = family.plane.join
    owner: dict[int, int] = {}
    done = 0
    for ia in range(n - 1):
        pa, sa = flat[ia]
        for ib in range(ia + 1, n):
            pb, sb = flat[ib]
            ln = join(pa, pb)
            cur = owner.get(ln)
            if cur is None:
                owner[ln] = sa if sa == sb else -1
            elif sa == sb or cur >= 0:
                done += ib - ia
                return VerifyReport(
                    False, "fast", done, _collinear_witness(family, flat, ln)
                )
        done += n - 1 - ia
    return VerifyReport(True, "fast", n * (n - 1) // 2)


def _differences(add, neg, offsets):
    """Each difference w - u of two offsets -> the first index pair
    (of u, of w) that gives it, the difference 0 first, as (0, 0); and
    the index pair a < b of two equal offsets, or None."""
    offs = list(offsets)
    out: dict[int, tuple[int, int]] = {}
    twin = None
    for a, u in enumerate(offs):
        minus_u = neg(u)
        for b, w in enumerate(offs):
            d = add(w, minus_u)
            if d not in out:
                out[d] = (a, b)
            elif d == 0 and a < b and twin is None:
                twin = (a, b)
    return out, twin


def _verify_translates(family: LocalArcFamily) -> VerifyReport:
    """Exact check of a translation family from its base and T - T.

    Translations (x, y) -> (x+u, y+v) are collineations of the planar
    presentation ([a, b] -> [a+u, b+v], [c] -> [c+u]), so the union of
    the sets S_i + tau and S_j + tau' is a disjoint arc exactly when
    S_i and S_j + delta give one, with delta = tau' - tau in
    D = (U - U) x (V - V).  Checking each base set alone (i = j,
    delta = 0) and every base pair i <= j at every other delta decides
    the family; pairs_checked counts these (i, j, delta) checks.  The
    work is about |U|^2 + |V|^2 + C(b+1, 2)·|U-U|·k^3 set lookups, below
    the C(n, 2) point pairs of a sweep over the n = b·|U|·|V|·k points.

    Overlaps are looked for first, over all of them, as the sweep does.
    For arcs S_i and S_j + delta that are disjoint, three collinear
    points are two of one set on a secant plus a point of the other.
    For one (i, j, du) the dv that put a point of S_j + delta on a
    secant [a, b] of S_i, or a point of S_i - delta on a secant of S_j,
    solve a single equation each, so every dv of V - V is decided by
    one set lookup.  A rejection names two real sets through the
    layout, and its witness is taken from those sets.
    """
    plane = family.plane
    f = plane.field
    add, sub, mul = f.add, f.sub, f.mul
    q = plane.q
    layout = family.translation
    base = layout.base
    b = len(base)
    du, twin_u = _differences(add, f.neg, layout.us)
    dv, twin_v = _differences(add, f.neg, layout.vs)
    filled = [si for si, s in enumerate(base) if s]
    if (twin_u or twin_v) and filled:
        # an offset listed twice lists every base set twice
        (iu, ju), (iv, jv) = twin_u or (0, 0), twin_v or (0, 0)
        named = [layout.index(filled[0], iu, iv),
                 layout.index(filled[0], ju, jv)]
        return VerifyReport(False, "translation", 0,
                            _named_violation(family, named))

    def reject(done, si, sj, d_u, d_v):
        (iu, ju), (iv, jv) = du[d_u], dv[d_v]
        named = sorted({layout.index(si, iu, iv), layout.index(sj, ju, jv)})
        return VerifyReport(False, "translation", done,
                            _named_violation(family, named))

    secants = []
    for si, s in enumerate(base):
        pids = [x * q + y for x, y in s]
        if len(set(pids)) < len(pids) or not is_arc(plane, pids):
            return VerifyReport(False, "translation", si + 1,
                                _named_violation(family, [si]))
        flat, vertical = [], []
        for lid in secants_of(plane, pids):
            if lid < q * q:
                flat.append(divmod(lid, q))
            else:
                vertical.append(lid - q * q)
        secants.append((flat, vertical))

    for si in range(b):
        for sj in range(si, b):
            for xi, yi in base[si]:
                for xj, yj in base[sj]:
                    d_u, d_v = sub(xi, xj), sub(yi, yj)
                    if d_u in du and d_v in dv and (si != sj or d_u or d_v):
                        return reject(b, si, sj, d_u, d_v)

    dv_keys = list(dv)
    dv_pos = {d: i for i, d in enumerate(dv_keys)}
    done = b
    for si in range(b):
        flat_i, vert_i = secants[si]
        for sj in range(si, b):
            flat_j, vert_j = secants[sj]
            for d_u in du:
                bad = set()
                every = False  # a vertical secant is met whatever dv is
                for x, y in base[sj]:
                    x = add(x, d_u)
                    every = every or x in vert_i
                    for a, c in flat_i:
                        e = sub(x, a)
                        bad.add(add(sub(mul(e, e), y), c))
                for x, y in base[si]:
                    x = sub(x, d_u)
                    every = every or x in vert_j
                    for a, c in flat_j:
                        e = sub(x, a)
                        bad.add(sub(sub(y, c), mul(e, e)))
                # (i, i, 0) is the single-set check made above
                skip = si == sj and d_u == 0
                if skip:
                    bad.discard(0)
                hits = [dv_pos[d] for d in bad if d in dv_pos]
                if every and len(dv_keys) > skip:
                    hits.append(int(skip))
                if hits:
                    first = min(hits)
                    return reject(done + first + 1 - skip, si, sj, d_u,
                                  dv_keys[first])
                done += len(dv_keys) - skip
    return VerifyReport(True, "translation", done)


def _named_violation(family: LocalArcFamily, named: list[int]) -> Violation:
    """The violation inside the union of the named sets (ascending ids)."""
    part = LocalArcFamily(family.plane, [family.sets[i] for i in named])
    bad = _verify_sweep(part).violation
    if bad is None:
        raise RuntimeError(f"sets {named} pass the sweep that the "
                           f"translation verdict rejected")
    return dataclasses.replace(bad, sets=tuple(named[s] for s in bad.sets))


def verify_local_arc_oracle(family: LocalArcFamily, limit: int = 10_000) -> VerifyReport:
    """Definition restated literally; quadratic in the number of sets."""
    total = family.total_points
    if total > limit:
        raise TooLarge(f"{total} points exceed the oracle limit of {limit}")
    flat, bad = _flatten(family)
    if bad is not None:
        return VerifyReport(False, "oracle", 0, bad)
    sets = family.materialize()
    join = family.plane.join

    def triple_on_line(pts):
        for a, b, c in itertools.combinations(sorted(pts), 3):
            ln = join(a, b)
            if join(a, c) == ln:
                return ln, (a, b, c)
        return None

    for i, s in enumerate(sets):
        hit = triple_on_line(s)
        if hit is not None:
            return VerifyReport(
                False, "oracle", 0, Violation("collinear", (i,), hit[1], line=hit[0])
            )
    pairs = 0
    for i, j in itertools.combinations(range(len(sets)), 2):
        pairs += 1
        hit = triple_on_line(sets[i] + sets[j])
        if hit is not None:
            return VerifyReport(
                False, "oracle", pairs,
                Violation("collinear", (i, j), hit[1], line=hit[0]),
            )
    return VerifyReport(True, "oracle", pairs)


def verify_mwise(family: LocalArcFamily, m: int) -> VerifyReport:
    """Unions of any m distinct sets must be arcs.

    A union of m sets has three points on a line exactly when the m
    largest per-set point counts of that line sum to 3 or more, so the
    check runs on per-line counters instead of set unions.  m = 2 recovers
    the pairwise rule.
    """
    if m < 2:
        raise ValueError("m-wise verification needs m >= 2")
    if m > family.n_sets:
        raise ValueError(f"m = {m} exceeds the {family.n_sets} sets present")
    flat, bad = _flatten(family)
    if bad is not None:
        return VerifyReport(False, f"mwise-{m}", 0, bad)
    flat.sort()
    n = len(flat)
    join = family.plane.join
    carriers: dict[int, set[int]] = {}
    for ia in range(n - 1):
        pa, _ = flat[ia]
        for ib in range(ia + 1, n):
            ln = join(pa, flat[ib][0])
            grp = carriers.get(ln)
            if grp is None:
                carriers[ln] = {ia, ib}
            else:
                grp.add(ia)
                grp.add(ib)
    for ln in sorted(carriers):
        counts = Counter(flat[i][1] for i in carriers[ln])
        top = sorted(counts.values(), reverse=True)[:m]
        if sum(top) >= 3:
            ranked = sorted(counts, key=lambda s: (-counts[s], s))
            chosen = []
            weight = 0
            for s in ranked:
                chosen.append(s)
                weight += counts[s]
                if weight >= 3:
                    break
            pts = tuple(sorted(p for p, s in flat if s in set(chosen)
                               and family.plane.incident(p, ln)))
            return VerifyReport(
                False, f"mwise-{m}", n * (n - 1) // 2,
                Violation("collinear", tuple(sorted(chosen)), pts, line=ln),
            )
    return VerifyReport(True, f"mwise-{m}", n * (n - 1) // 2)


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _sample_stream(seed: int, n: int) -> int:
    return _splitmix((seed + (n + 1) * _GAMMA) & _M64)


def _first_collinear(pts, sub, mul):
    """Positions (i, j, l) of the first collinear triple of the given
    homogeneous triples, in itertools.combinations order, or None.

    Every triple is normalised, so its first coordinate is 1 or 0.  For
    an affine u = (1, x, z), subtracting v0 * u from each later point v
    clears the first column of det(u, v, w), leaving
    r(v) = (v1 - x, v2 - z) (or (v1, v2) when v0 = 0) and the 2 x 2
    minor r(v)[0] r(w)[1] - r(v)[1] r(w)[0]: two multiplications per
    triple, with r computed once per (u, v).  A u on the line at infinity
    gets the determinant expanded along u, whose u0 term is zero.
    """
    for i in range(len(pts) - 2):
        u0, u1, u2 = pts[i]
        later = enumerate(pts[i + 1:], i + 1)
        if u0:
            red = [(j, sub(v1, u1), sub(v2, u2)) if v0 else (j, v1, v2)
                   for j, (v0, v1, v2) in later]
            for (j, a, b), (l, c, d) in itertools.combinations(red, 2):
                if mul(a, d) == mul(b, c):
                    return i, j, l
        else:
            for (j, (v0, v1, v2)), (l, (w0, w1, w2)) in \
                    itertools.combinations(later, 2):
                if (mul(u1, sub(mul(v0, w2), mul(v2, w0)))
                        == mul(u2, sub(mul(v0, w1), mul(v1, w0)))):
                    return i, j, l
    return None


def sample_verify(family: LocalArcFamily, samples: int, seed: int = 0) -> VerifyReport:
    """Deterministic spot check of sampled set pairs.

    Pair t of the sample stream is derived from (seed, t) alone through a
    counter-based generator, so a verdict can be replayed or continued on
    any machine regardless of scheduling.  Each sampled pair gets the full
    pairwise treatment: disjointness first, then a collinearity test of
    every point triple of the union in itertools.combinations order, so
    the first violation found, its line (the join of its first two
    points) and pairs_checked do not depend on how the test is computed.

    Each union point is mapped to its homogeneous triple once
    (Plane.coords).  A triple whose first point is affine is decided by
    the 2 x 2 minor left after pivoting on that point, two field
    multiplications; one that starts on the line at infinity takes the
    3 x 3 determinant (_first_collinear).  Two affine k-sets of the
    planar presentation thus cost 2k + 2·C(2k, 3) multiplications per
    sample: 46 for k = 3, 12 for k = 2.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    s = family.n_sets
    if s < 2:
        return VerifyReport(True, "sample", 0, seed=seed)
    plane = family.plane
    f = plane.field
    sub, mul = f.sub, f.mul
    coords = plane.coords
    sets = family.sets
    for t in range(samples):
        a = _sample_stream(seed, 2 * t) % s
        b = _sample_stream(seed, 2 * t + 1) % (s - 1)
        if b >= a:
            b += 1
        sa, sb = sets[a], sets[b]
        common = set(sa) & set(sb)
        if common:
            return VerifyReport(
                False, "sample", t + 1,
                Violation("overlap", tuple(sorted((a, b))), tuple(sorted(common))),
                seed=seed,
            )
        union = tuple(sa) + tuple(sb)
        hit = _first_collinear([coords(p) for p in union], sub, mul)
        if hit is not None:
            u, v, w = (union[i] for i in hit)
            return VerifyReport(
                False, "sample", t + 1,
                Violation("collinear", tuple(sorted((a, b))),
                          tuple(sorted((u, v, w))), line=plane.join(u, v)),
                seed=seed,
            )
    return VerifyReport(True, "sample", samples, seed=seed)


# ---------------------------------------------------------------------------
# derived structure

def tangent_profile(plane: Plane, points) -> dict[int, int]:
    """For each point, the number of lines meeting the set only there."""
    pts = tuple(sorted(points))
    join = plane.join
    budget = plane.q + 1
    return {
        p: budget - len({join(p, r) for r in pts if r != p})
        for p in pts
    }


def is_t_quasiarc(plane: Plane, points, t: int) -> bool:
    return all(c >= t for c in tangent_profile(plane, points).values())


def is_semiarc(plane: Plane, points, t: int) -> bool:
    return all(c == t for c in tangent_profile(plane, points).values())


def derive_phi(family: LocalArcFamily) -> tuple[tuple[int, ...], bool]:
    """One representative secant per set, plus the dual quasiarc check.

    The representative is each set's smallest secant.  The companion flag
    reports whether every chosen line has at least two points lying on no
    other chosen line; equivalently, the chosen lines seen as points of
    the dual plane form a 2-quasiarc.  Incidence in the homogeneous
    presentation is a symmetric dot product, so the dual check reuses
    tangent_profile on line ids there.
    """
    if any(len(family.sets[i]) < 2 for i in range(family.n_sets)):
        raise ValueError("every set needs at least two points to have a secant")
    phi = tuple(secants_of(family.plane, s)[0] for s in family.sets)
    if len(set(phi)) != len(phi):
        return phi, False
    if family.plane.kind == "homogeneous":
        dual_plane, dual_ids = family.plane, phi
    else:
        from localarc.plane import Plane as _Plane, convert_line

        dual_plane = _Plane(family.plane.field, "homogeneous")
        dual_ids = tuple(convert_line(family.plane, dual_plane, l) for l in phi)
    ok = is_t_quasiarc(dual_plane, dual_ids, 2)
    return phi, ok


def reduce_uniformity(family: LocalArcFamily):
    """Remove the smallest point of each set of a verified uniform family.

    For k > 2 the result is a re-verified (k-1)-uniform family.  For k = 2
    the leftovers are returned as (point, secant) pairs after checking that
    they form an induced matching: each point on its own line, no point on
    another pair's line, no line through another pair's point.
    """
    if family.k == 0:
        raise ValueError("family has mixed set sizes")
    if family.k < 2:
        raise ValueError("cannot reduce a 1-uniform family")
    report = verify_local_arc(family)
    if not report.ok:
        raise NotVerified(report.violation.describe(family.plane))
    sets = family.materialize()
    if family.k == 2:
        plane = family.plane
        pairs = tuple((s[1], plane.join(s[0], s[1])) for s in sets)
        for i, (pt, ln) in enumerate(pairs):
            if not plane.incident(pt, ln):
                raise RuntimeError("pair point off its own line")
            for j, (qt, kn) in enumerate(pairs):
                if i != j and (plane.incident(pt, kn) or plane.incident(qt, ln)):
                    raise RuntimeError("matching is not induced")
        return pairs
    note = (family.provenance + "|" if family.provenance else "") + "reduced"
    out = LocalArcFamily(
        family.plane, tuple(s[1:] for s in sets), k=family.k - 1, provenance=note
    )
    report = verify_local_arc(out)
    if not report.ok:
        raise NotVerified("subsets of a valid family stay valid, yet "
                          + report.violation.describe(family.plane))
    return out


@dataclass(frozen=True)
class LRCParams:
    n: int
    dim: int
    d: int
    locality: int
    q: int
    singleton_optimal: bool


def lrc_params(family: LocalArcFamily) -> LRCParams:
    """Locally repairable code parameters carried by a 4-uniform family.

    A family of s sets yields a code of length 4s, dimension 3s - 3,
    locality 3 and distance 6 over GF(q); these meet the locality-aware
    Singleton bound with equality.  The family is assumed verified.
    """
    if family.k != 4:
        raise ValueError("code export is defined for 4-uniform families")
    s = family.n_sets
    if s < 2:
        raise ValueError("need at least two sets")
    n = 4 * s
    dim = 3 * s - 3
    locality = 3
    d = 6
    optimal = d == n - dim - -(-dim // locality) + 2
    return LRCParams(n, dim, d, locality, family.plane.q, optimal)


def uncovered_line_count(family: LocalArcFamily, pid: int) -> int:
    """Lines through the point that avoid every secant of the family."""
    secs = set()
    for s in secant_family(family):
        secs.update(s)
    return sum(1 for l in family.plane.lines_through(pid) if l not in secs)


# ---------------------------------------------------------------------------
# serialisation

def family_to_dict(family: LocalArcFamily) -> dict:
    f = family.plane.field
    return {
        "q": f.q,
        "p": f.p,
        "m": f.m,
        "tower": f.tower,
        "presentation": family.plane.kind,
        "k": family.k,
        "provenance": family.provenance,
        "sets": [[family.plane.point_str(p) for p in s] for s in family.sets],
    }


def family_from_dict(data: dict) -> LocalArcFamily:
    """Inverse of family_to_dict; ValueError on data of any other shape."""
    try:
        field = make_field(data["p"], data.get("m", 1),
                           data.get("tower", False))
        if "q" in data and data["q"] != field.q:
            raise ValueError(f"q = {data['q']} does not match p^m = {field.q}")
        plane = Plane(field, data.get("presentation", "planar"))
        sets = [
            tuple(sorted(plane.parse_point(t) for t in s))
            for s in data["sets"]
        ]
        provenance = str(data.get("provenance", ""))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed family ({type(exc).__name__}: {exc})") \
            from exc
    return LocalArcFamily(plane, sets, provenance=provenance)
