"""Containers and verifiers for k-uniform local-arc families.

A local-arc family is a collection of pairwise disjoint point sets such
that the union of any two sets is an arc (no three points on a common
line).  Verification comes in three flavours:

* verify_local_arc        -- exact.  A family built as all translates of
                             a base (LocalArcFamily.translates, which keeps
                             the TranslationLayout) is decided from the base
                             and the difference set T - T; any other family
                             gets one pass over all point pairs with a line
                             ownership index.
* verify_local_arc_oracle -- literal restatement of the definition,
                             quadratic in the number of sets; guarded by a
                             size limit so it stays a cross-check tool.
* sample_verify           -- deterministic spot check of sampled set pairs,
                             for families too large to verify exhaustively.
                             The pairs come from a counter-based stream
                             computed a packed chunk at a time, cut into
                             shards that forked children scan on the
                             other CPUs; the report does not depend on
                             the shard count.  A
                             translation family decides a pair from its
                             base: 2k·C(k, 2) multiplications once per
                             (si, sj, du), then, inline, two divmods per
                             set number, two subtractions and one lookup
                             per sample.  Other pairs take each point's
                             coordinates once and pivot each triple on
                             its first point, two multiplications per
                             triple (46 per pair for k = 3).

Both translation checks read the base sets' secants from one list
(_secant_tables) and the colliding dv of two base sets from _bad_dv.

Points are plane ids; sets are sorted tuples.  Families may hold any
sequence type, so constructions can hand over lazily generated sets.
Mixed-size families are legal data (k reports 0); operations that need
uniformity say so.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from localarc import cores
from localarc.gf import make_field
from localarc.plane import Plane

__all__ = [
    "TooLarge",
    "NotAnArc",
    "NotVerified",
    "Violation",
    "VerifyReport",
    "TranslationLayout",
    "LocalArcFamily",
    "is_arc",
    "secants_of",
    "verify_local_arc",
    "verify_local_arc_oracle",
    "sample_verify",
    "tangent_profile",
    "is_t_quasiarc",
    "derive_phi",
    "reduce_uniformity",
    "LRCParams",
    "lrc_params",
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
    try:
        secants_of(plane, pts)
    except NotAnArc:
        return False
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


@dataclass(frozen=True)
class TranslationLayout:
    """A planar family listed as every translate of a base in AG(2, q).

    Set (iu * len(vs) + iv) * len(base) + si of the family is base[si]
    moved by (us[iu], vs[iv]): translation-major, u before v.  ``base``
    holds affine (x, y) coordinates and ``us`` and ``vs`` the offsets, all
    as field encodings of the family's plane; an offset listed twice lists
    every set twice.
    """

    base: tuple[tuple[tuple[int, int], ...], ...]
    us: tuple[int, ...]
    vs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.base) * len(self.us) * len(self.vs)

    def index(self, si: int, iu: int, iv: int) -> int:
        return (iu * len(self.vs) + iv) * len(self.base) + si

    def locate(self, i: int) -> tuple[int, int, int]:
        """(si, iu, iv) of set i, the inverse of index()."""
        ti, si = divmod(i, len(self.base))
        iu, iv = divmod(ti, len(self.vs))
        return si, iu, iv


class _Translates:
    """Lazy read-only sequence of the sets a TranslationLayout lists.

    Item i is set i as sorted point ids, placed by layout.locate().
    """

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
        lay, add, q = self.layout, self.add, self.q
        si, iu, iv = lay.locate(i)
        u, v = lay.us[iu], lay.vs[iv]
        return tuple(sorted(add(x, u) * q + add(y, v)
                            for x, y in lay.base[si]))


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
                 provenance: str = ""):
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

    @classmethod
    def translates(cls, plane: Plane, layout: TranslationLayout,
                   k: int | None = None, provenance: str = ""
                   ) -> LocalArcFamily:
        """Every translate of layout.base, in the layout's order.

        The sets are lazy: each is computed from the layout, which the
        family keeps, when it is looked up.
        """
        if plane.kind != "planar":
            raise ValueError("a translation layout needs the planar "
                             "presentation")
        if not all(0 <= c < plane.q
                   for s in layout.base for pt in s for c in pt):
            raise ValueError("layout base coordinates must be field "
                             "encodings")
        fam = cls(plane, _Translates(plane, layout), k=k,
                  provenance=provenance)
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


def _secant_table(plane: Plane, base_set):
    """The secants of an affine base set split by kind: the (a, b) of
    each flat line [a, b] and the c of each vertical [c]; None when the
    set repeats a point or holds three collinear points."""
    q = plane.q
    pids = [x * q + y for x, y in base_set]
    if len(set(pids)) < len(pids):
        return None
    try:
        lids = secants_of(plane, pids)
    except NotAnArc:
        return None
    flat, vertical = [], []
    for lid in lids:
        if lid < q * q:
            flat.append(divmod(lid, q))
        else:
            vertical.append(lid - q * q)
    return flat, vertical


def _secant_tables(plane: Plane, base) -> list:
    """The _secant_table of each base set, in order: the one list both
    translation checks read."""
    return [_secant_table(plane, s) for s in base]


def _bad_dv(f, base_i, secants_i, base_j, secants_j, d_u):
    """(every, bad) for S_i and S_j moved by (d_u, dv): bad holds each dv
    that puts a point of S_j + (d_u, dv) on a flat secant of S_i or a
    point of S_i - (d_u, dv) on a flat secant of S_j, and every is set
    when a vertical secant is met whatever dv is.  secants_i and
    secants_j are the _secant_table of the two base sets; 2k·C(k, 2)
    multiplications for two arcs of k points."""
    add, sub, mul = f.add, f.sub, f.mul
    flat_i, vert_i = secants_i
    flat_j, vert_j = secants_j
    bad = set()
    every = False
    for x, y in base_j:
        x = add(x, d_u)
        every = every or x in vert_i
        for a, c in flat_i:
            e = sub(x, a)
            bad.add(add(sub(mul(e, e), y), c))
    for x, y in base_i:
        x = sub(x, d_u)
        every = every or x in vert_j
        for a, c in flat_j:
            e = sub(x, a)
            bad.add(sub(sub(y, c), mul(e, e)))
    return every, bad


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
    add, sub = f.add, f.sub
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

    secants = _secant_tables(plane, base)
    if None in secants:
        si = secants.index(None)
        return VerifyReport(False, "translation", si + 1,
                            _named_violation(family, [si]))

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
        for sj in range(si, b):
            for d_u in du:
                every, bad = _bad_dv(f, base[si], secants[si],
                                     base[sj], secants[sj], d_u)
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


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# set pairs drawn per packed chunk; each takes two 128-bit lanes
_CHUNK = 512


@functools.cache
def _lanes() -> tuple[int, int, int]:
    """1, the low-64-bit mask and i·γ in each lane i of a chunk, built
    on the first draw rather than at import."""
    lanes = 2 * _CHUNK
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    steps = _GAMMA * int.from_bytes(
        b"".join(i.to_bytes(16, "little") for i in range(lanes)), "little")
    return ones, low64, steps


def _draw_pairs(seed: int, stop: int, start: int = 0):
    """Pairs start to stop - 1 of the sample stream, one chunk of
    (draw 2t, draw 2t+1) pairs at a time.

    Draw n is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) of
    seed + (n + 1)·γ mod 2^64, a counter-based stream: no state passes
    from one draw to the next, so the stream can start at any pair and
    a range of it be drawn anywhere.  A chunk of draws is computed at once
    on one integer of 128-bit lanes, draw i of the chunk in lane i.  The
    lane inputs base + i·γ stay below 2^128, a 64-bit lane value times a
    64-bit constant does too, and masking each lane to its low 64 bits
    after every multiply, and after every shift a multiply follows,
    clears the bits shifted down from the lane above.  Each lane thus
    ends with its scalar SplitMix64 value in its low word, which the
    native-order 64-bit words of the integer's bytes give at even
    positions: a-draws at 0, 4, 8, ..., b-draws at 2, 6, 10, ...
    """
    ones, low64, steps = _lanes()
    for first in range(start, stop, _CHUNK):
        n = min(_CHUNK, stop - first)
        low = low64 if n == _CHUNK else low64 & ((1 << 256 * n) - 1)
        x = (steps + ((seed + (2 * first + 1) * _GAMMA) & _M64) * ones) & low
        x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB & low
        x ^= x >> 31  # what it shifts into a lane's high word is not read
        words = array("Q", x.to_bytes(32 * n, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield zip(words[0::4], words[2::4])


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


# (si, sj, du) keys whose (every, bad) _first_failure keeps; past it they
# are recomputed on each use
_BAD_DV_KEYS = 1 << 15
# fewest samples a shard of the stream gets: a fork and pipe round trip
# costs 1-2 ms, as much as 1,000-2,000 samples, and each child builds
# its own _bad_dv cache
_SHARD_MIN = 25_000


def sample_verify(family: LocalArcFamily, samples: int, seed: int = 0) -> VerifyReport:
    """Deterministic spot check of sampled set pairs.

    Pair t of the sample stream is derived from (seed, t) alone through a
    counter-based generator (_draw_pairs), so a verdict can be replayed or
    continued on any machine regardless of scheduling.  The seed must lie
    in [0, 2^64): the stream reads it mod 2^64, and two seeds that draw
    the same pairs should not report different seeds.  Each sampled pair
    gets the full pairwise treatment: disjointness first, then a
    collinearity test of every point triple of the union in
    itertools.combinations order, so the first violation found, its line
    (the join of its first two points) and pairs_checked do not depend on
    how the test is computed.

    The stream is split into contiguous shards of whole chunks, one per
    CPU in the affinity mask but none under _SHARD_MIN samples, and only
    where os.fork exists and no other thread runs (cores.cpus).  The
    caller forks a child per shard but the first, each pinned to its own
    CPU of the mask (cores.Forks).  A child scans its shard a chunk at a
    time from the top down and writes to a pipe, per chunk, that it
    passed, or the index of its first pair that does not pass, and then
    exits.  The caller scans the whole stream a chunk at
    a time from the bottom up, skipping the chunks a child has reported
    passed, and re-runs in process the pair a child reports failing,
    then the rest of its chunk should that pair pass here.  So the
    caller never waits on a child: a child on a busy CPU, or one that
    dies, leaves its chunks to the caller, and the report (and the
    RuntimeError below) is built here and is the same at every shard
    count.  Every child is killed and reaped before this returns or
    raises.

    Each union point is mapped to its homogeneous triple once
    (Plane.coords).  A triple whose first point is affine is decided by
    the 2 x 2 minor left after pivoting on that point, two field
    multiplications; one that starts on the line at infinity takes the
    3 x 3 determinant (_first_collinear).  Two affine k-sets of the
    planar presentation thus cost 2k + 2·C(2k, 3) multiplications per
    sample: 46 for k = 3, 12 for k = 2.

    A translation family (one with a TranslationLayout) builds no set
    for a pair it can decide from its base.  Sets a = S_si + (us[iu],
    vs[iv]) and b = S_sj + (us[ju], vs[jv]) move together onto S_si and
    S_sj + (du, dv), the offset difference.  When both base sets are arcs
    of at least two distinct points, each point of one set that is a
    point of the other lies on a secant of it, so the pair violates
    (overlap or collinear triple) exactly when _bad_dv flags dv for
    (si, sj, du), du being 0 without a field call when iu == ju.  That
    costs 2k·C(k, 2) multiplications once per unordered (si, sj, ±du):
    swapping the two sets negates du and every flagged dv, so each
    _bad_dv result is cached for both orders, for the first _BAD_DV_KEYS
    keys of a process.  An accepted sample then costs a share of one
    packed chunk of draws, two reductions of its draws, four divmods
    decoding the set numbers as TranslationLayout.locate does, two field
    subtractions and one lookup, all inline.  Pairs it flags, and pairs
    with a base set of fewer than two distinct points or with three
    collinear points, take the treatment above, so the report is the same
    either way.
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    if not 0 <= seed <= _M64:
        raise ValueError("the sample seed must lie in [0, 2**64)")
    if family.n_sets < 2:
        return VerifyReport(True, "sample", 0, seed=seed)
    shards = _shards(samples)
    with cores.Forks([cpu for _, _, cpu in shards]) as kids:
        for lo, hi, _ in shards[1:]:
            _fork_shard(kids, family, seed, lo, hi)
        found = _first_failure(family, seed, _unreported(
            samples, [r for _, r, _ in kids.children]))
    if found is None:
        return VerifyReport(True, "sample", samples, seed=seed)
    t, pair, violation = found
    if violation is None:
        raise RuntimeError(f"sets {list(pair)} pass the sampled check that "
                           f"the translation verdict rejected")
    return VerifyReport(False, "sample", t + 1, violation, seed=seed)


def _shards(samples: int) -> list[tuple[int, int, int | None]]:
    """The sample stream cut into contiguous [lo, hi) ranges of whole
    chunks, one per shard, each with a CPU of the affinity mask to scan
    it on (None where the stream is not split)."""
    cpus = cores.cpus(samples // _SHARD_MIN)
    # no shard is empty: n <= samples // _SHARD_MIN, and _SHARD_MIN >= _CHUNK
    chunks, n = -(-samples // _CHUNK), len(cpus)
    cuts = [min(samples, chunks * i // n * _CHUNK) for i in range(n + 1)]
    return list(zip(cuts, cuts[1:], cpus))


def _fork_shard(kids: cores.Forks, family: LocalArcFamily, seed: int,
                lo: int, hi: int):
    """kids.fork() of a child that scans pairs [lo, hi) a chunk at a time
    from the top down, writes b"first -1\n" for each chunk starting at
    pair `first` that passes, or b"first t\n" for the first pair t that
    does not pass and stops there."""
    child = kids.fork()
    if child is not None and child[0] == 0:
        try:  # never print, never return into the caller's stack
            w = child[2]
            found = _first_failure(family, seed, _reporting(w, lo, hi))
            if found is not None:
                t = found[0]
                os.write(w, b"%d %d\n" % (t - t % _CHUNK, t))
        finally:
            os._exit(0)
    return child


def _reporting(fd: int, lo: int, hi: int):
    """The chunks of pairs [lo, hi) from the top down, as [first, stop)
    ranges; each is reported passed to fd once the next is asked for."""
    passed = None
    for first in reversed(range(lo, hi, _CHUNK)):
        if passed is not None:
            os.write(fd, b"%d -1\n" % passed)
        yield first, min(hi, first + _CHUNK)
        passed = first
    os.write(fd, b"%d -1\n" % passed)


def _unreported(samples: int, fds: list[int]):
    """The chunks of the stream from the bottom up, as [first, stop)
    ranges, skipping those that the children writing to fds have
    reported passed; a chunk reported failing at pair t gives (t, t + 1),
    then, should that pair pass, the whole chunk.  The pipes are read,
    without waiting, before each chunk."""
    reports, tails = {}, dict.fromkeys(fds, b"")
    for first in range(0, samples, _CHUNK):
        for fd in list(tails):
            try:
                data = os.read(fd, 4096)
            except BlockingIOError:
                continue
            if not data:  # the child has ended
                del tails[fd]
                continue
            *lines, tails[fd] = (tails[fd] + data).split(b"\n")
            for line in lines:
                chunk, t = map(int, line.split())
                reports[chunk] = t
        stop = min(samples, first + _CHUNK)
        t = reports.get(first)
        if t == -1:
            continue
        if t is not None:
            yield t, t + 1
        yield first, stop


def _first_failure(family: LocalArcFamily, seed: int, ranges):
    """(t, sorted set pair, violation) of the first pair t of the sample
    stream that does not pass, scanning the [start, stop) ranges in the
    order given, or None.  The violation is None for a pair that _bad_dv
    flags but the full treatment passes."""
    s = family.n_sets
    plane = family.plane
    f = plane.field
    sub, mul, neg = f.sub, f.mul, f.neg
    coords = plane.coords
    sets = family.sets
    layout = family.translation
    if layout is not None:
        base, us, vs = layout.base, layout.us, layout.vs
        nb, nv, q = len(base), len(vs), plane.q
        secants = [table if len(pts) >= 2 else None
                   for pts, table in zip(base, _secant_tables(plane, base))]
        cache: dict = {}
    s1 = s - 1
    flagged = False
    pairs = itertools.chain.from_iterable(
        enumerate(itertools.chain.from_iterable(
            _draw_pairs(seed, stop, start)), start)
        for start, stop in ranges)
    for t, (a, b) in pairs:
        a %= s
        b %= s1
        if b >= a:
            b += 1
        if layout is not None:
            ti, si = divmod(a, nb)
            iu, iv = divmod(ti, nv)
            tj, sj = divmod(b, nb)
            ju, jv = divmod(tj, nv)
            d_u = sub(us[ju], us[iu]) if iu != ju else 0
            key = (si * nb + sj) * q + d_u
            known = cache.get(key)
            if known is None and secants[si] and secants[sj]:
                every, bad = _bad_dv(f, base[si], secants[si],
                                     base[sj], secants[sj], d_u)
                known = every, tuple(bad)  # a few values: smaller than a set
                if len(cache) < _BAD_DV_KEYS:
                    cache[key] = known
                    # bad(sj, si, -du) = -bad(si, sj, du), and every is
                    # symmetric, so one _bad_dv call serves both orders
                    cache[(sj * nb + si) * q + neg(d_u)] = (
                        every, tuple(map(neg, bad)))
            if known is not None:
                every, bad = known
                if not (every or sub(vs[jv], vs[iv]) in bad):
                    continue
            flagged = known is not None
        pair = tuple(sorted((a, b)))
        sa, sb = sets[a], sets[b]
        common = set(sa) & set(sb)
        if common:
            return t, pair, Violation("overlap", pair, tuple(sorted(common)))
        union = tuple(sa) + tuple(sb)
        hit = _first_collinear([coords(p) for p in union], sub, mul)
        if hit is not None:
            u, v, w = (union[i] for i in hit)
            return t, pair, Violation("collinear", pair,
                                      tuple(sorted((u, v, w))),
                                      line=plane.join(u, v))
        if flagged:
            return t, pair, None
    return None


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


def derive_phi(family: LocalArcFamily) -> tuple[tuple[int, ...], bool]:
    """One representative secant per set, plus the dual quasiarc check.

    The representative is each set's smallest secant.  The companion flag
    reports whether every chosen line has at least two points lying on no
    other chosen line; equivalently, the chosen lines seen as points of
    the dual plane form a 2-quasiarc.  The polarity ``plane.dual`` carries
    lines to points and keeps incidence, so tangent_profile answers the
    dual question in the family's own plane.
    """
    if any(len(family.sets[i]) < 2 for i in range(family.n_sets)):
        raise ValueError("every set needs at least two points to have a secant")
    phi = tuple(secants_of(family.plane, s)[0] for s in family.sets)
    if len(set(phi)) != len(phi):
        return phi, False
    ok = is_t_quasiarc(family.plane, [family.plane.dual(l) for l in phi], 2)
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
    """Locally repairable code parameters carried by a 4-uniform local arc.

    A family of s sets yields a code of length 4s, dimension 3s - 3,
    locality 3 and distance 6 over GF(q); these meet the locality-aware
    Singleton bound with equality.  A 4-uniform family of two or more
    sets that fails verify_local_arc raises NotVerified.
    """
    if family.k != 4:
        raise ValueError("code export is defined for 4-uniform families")
    s = family.n_sets
    if s < 2:
        raise ValueError("need at least two sets")
    report = verify_local_arc(family)
    if not report.ok:
        raise NotVerified(report.violation.describe(family.plane))
    n = 4 * s
    dim = 3 * s - 3
    locality = 3
    d = 6
    optimal = d == n - dim - -(-dim // locality) + 2
    return LRCParams(n, dim, d, locality, family.plane.q, optimal)


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
        for key, kind in (("p", int), ("m", int), ("q", int), ("tower", bool)):
            if key in data and type(data[key]) is not kind:
                raise ValueError(f"malformed family: {key} must be "
                                 f"{kind.__name__}, not "
                                 f"{type(data[key]).__name__}")
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
