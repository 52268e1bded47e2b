"""Translation verdict: lifted families checked from T - T against the sweep.

Every lift lists all translates of a base, and verify_local_arc decides
such a family from the base and the difference set D = (U-U) x (V-V).
These tests hold that verdict to the pair sweep (_verify_sweep) of the
same sets without their translation layout, and confirm every
rejection's witness with the literal oracle on the two sets it names.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time

import pytest

import localarc.arcs as arcs_mod
from localarc.arcs import (
    LocalArcFamily,
    NotAnArc,
    Offsets,
    TranslationLayout,
    _bad_dv,
    _differences,
    _secant_tables,
    _twin,
    _verify_sweep,
    verify_local_arc,
    verify_local_arc_oracle,
)
from localarc.construct import (
    GenericSeed,
    NonAffineSeed,
    case1_lift,
    case2_lift,
    case3_lift,
    column_pair_seed,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
    plan_lift,
)
from localarc.gf import is_prime, make_field
from localarc.plane import make_plane
from localarc.sdf import BASIS_5, SdfBasis

EX1_SEED = GenericSeed((((0, 4), (4, 4)), ((0, 3), (2, 3)), ((1, 3), (3, 3))),
                       (((2, 0),), ((1, 2),), ((2, 2),)), 5, 8)
EX2_SEED = GenericSeed((((6, 12), (2, 4), (3, 9)),),
                       (((0, 0), (4, 8), (3, 3)),), 13, 25)


def closed_form_checks(fam) -> int:
    """C(b+1, 2) |U-U| |V-V| for the family's layout."""
    lay = fam.translation
    sub = fam.plane.field.sub
    n_u = len({sub(w, u) for u in lay.us for w in lay.us})
    n_v = len({sub(w, v) for v in lay.vs for w in lay.vs})
    b = len(lay.base)
    return b * (b + 1) // 2 * n_u * n_v


def assert_matches_sweep(fam):
    """The translation verdict equals the sweep's; a rejection's witness
    holds in the two sets it names."""
    rep = verify_local_arc(fam)
    assert rep.mode == "translation"
    ref = _verify_sweep(LocalArcFamily(fam.plane, fam.materialize()))
    assert rep.ok == ref.ok, (fam.provenance, rep, ref)
    if rep.ok:
        assert rep.pairs_checked == closed_form_checks(fam)
        return rep
    bad = rep.violation
    assert 1 <= len(bad.sets) <= 2 and list(bad.sets) == sorted(bad.sets)
    named = [fam.sets[i] for i in bad.sets]
    assert not verify_local_arc_oracle(LocalArcFamily(fam.plane, named)).ok
    if bad.kind == "collinear":
        assert len(bad.points) >= 3
        assert all(fam.plane.incident(p, bad.line) for p in bad.points)
        assert all(any(p in s for s in named) for p in bad.points)
    else:
        assert bad.kind == ("overlap" if len(bad.sets) == 2 else "duplicate")
        assert all(bad.points[0] in s for s in named)
    return rep


# ---------------------------------------------------------------------------
# the acceptance families

def test_case1_p11_checks_165_set_pairs():
    fam = case1_lift(conic_partition_seed(11, 2), check=False)
    rep = assert_matches_sweep(fam)
    # 5 base sets, U = {0}, |V - V| = 11: C(6, 2) * 11 checks, not the
    # C(110, 2) = 5995 point pairs of the sweep
    assert rep.ok and rep.pairs_checked == 165


@pytest.mark.slow
def test_case1_p53_matches_sweep():
    fam = case1_lift(conic_partition_seed(53, 2), check=False)
    assert fam.n_sets == 1378
    assert assert_matches_sweep(fam).ok


def test_case2_625_sets_matches_sweep():
    base = case1_lift(column_pair_seed(5), check=False)
    fam = case2_lift(base, 2, check=False)
    assert fam.n_sets == 625
    assert assert_matches_sweep(fam).ok


def test_case3_p23_matches_sweep():
    fam = case3_lift(conic_partition_seed(23, 2), 3, 8.0, 6.0,
                     alphabet=(1, 3), check=False)
    assert fam.n_sets == 506
    assert assert_matches_sweep(fam).ok


@pytest.mark.slow
def test_case3_p41_matches_sweep():
    fam = case3_lift(conic_partition_seed(41, 2), 3, 8.0, 6.0,
                     alphabet=(1, 3), check=False)
    assert fam.n_sets == 1640
    assert assert_matches_sweep(fam).ok


def test_wide_window_lift_names_the_pinned_collision():
    fam = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    rep = assert_matches_sweep(fam)
    assert rep.violation.kind == "overlap"
    assert rep.violation.describe(fam.plane) == \
        "point (1,75) repeats in sets [2, 151]"


def test_prime_lift_is_accepted_in_its_exact_checks():
    # the 249,000-set lift of the benchmark: V is summed over its six
    # digit places, and the count is C(2, 2)·|U - U|·|V - V| = 497·14,787
    fam = lift_prime(generic_k_arc(3), BASIS_5, 10_000_019, check=False)
    assert fam.n_sets == 249_000 and len(fam.translation.vs.places) == 6
    rep = verify_local_arc(fam)
    assert rep.ok and rep.mode == "translation"
    assert rep.pairs_checked == 7_349_139


def test_case2_at_p5_t4_is_accepted_exactly_in_a_time_box():
    base = case1_lift(conic_partition_seed(5, 2), check=False)
    fam = case2_lift(base, 4, check=False)
    assert fam.n_sets == 781_250
    start = time.perf_counter()
    rep = verify_local_arc(fam)
    elapsed = time.perf_counter() - start
    assert rep.ok and rep.mode == "translation"
    assert rep.pairs_checked == 4_296_875
    assert elapsed < 2.0


def test_lazy_prime_lift_lists_every_translate():
    # the prime lift's sets are lazy at every size; enumerated
    # straight from the lift's definition, in (u, v, seed set) order,
    # they are the family's sets, and the twin seed sets still collide
    p = 41 * 625 + 1
    while not is_prime(p):
        p += 1
    fam = lift_prime(EX1_SEED, BASIS_5, p, check=False)
    assert not isinstance(fam.sets, tuple) and fam.n_sets == 14700
    params = plan_lift(EX1_SEED.r, BASIS_5, p)
    m, t, B = BASIS_5.m, params.t, params.B
    digits = [BASIS_5.A if i % 2 == 0 else range(m) for i in range(t)]
    vs = sorted(sum(d * m**i for i, d in enumerate(ds))
                for ds in itertools.product(*digits))
    expected = [
        tuple(sorted(((x * m ** (t // 2) + u) % p) * p + (y * m**t + v) % p
                     for x, y in s))
        for u in range(-B, B + 1) for v in vs for s in EX1_SEED.sets
    ]
    assert list(fam) == expected
    rep = verify_local_arc(fam)
    assert rep.mode == "translation" and rep.violation.kind == "overlap"
    assert rep.pairs_checked == len(fam.translation.base)


def test_translates_need_the_planar_presentation():
    plane = make_plane(7, "homogeneous")
    lay = TranslationLayout((((0, 1), (1, 2)),), (0, 1), (0,))
    with pytest.raises(ValueError, match="planar"):
        LocalArcFamily.translates(plane, lay)


def test_translates_need_field_encodings():
    lay = TranslationLayout((((0, 1), (7, 2)),), (0, 1), (0,))
    with pytest.raises(ValueError, match="encodings"):
        LocalArcFamily.translates(make_plane(7), lay)


def test_repeated_offset_is_an_overlap():
    # u = 1 and u = 8 are the same element of GF(7)
    plane = make_plane(7)
    lay = TranslationLayout(((), ((0, 1), (2, 5))), (0, 1, 8), (3,))
    fam = LocalArcFamily.translates(plane, lay)
    rep = assert_matches_sweep(fam)
    assert rep.violation.kind == "overlap" and rep.violation.sets == (3, 5)


def test_families_without_a_layout_are_swept():
    fam = case1_lift(conic_partition_seed(5, 2), check=False)
    assert verify_local_arc(fam).mode == "translation"
    plain = LocalArcFamily(fam.plane, fam.materialize())
    assert plain.translation is None
    assert verify_local_arc(plain).mode == "fast"


# ---------------------------------------------------------------------------
# randomized small lifts

def _random_seed_family(rng, plane, k):
    """A few k-sets of affine points with distinct x in each set; with
    some chance a point is copied across sets, or a point of set 1 is
    put on a secant of set 0."""
    q, f = plane.q, plane.field
    n = rng.randint(1, 4)
    sets = []
    for _ in range(n):
        xs = rng.sample(range(q), k)
        sets.append([x * q + rng.randrange(q) for x in xs])
    move = rng.randrange(4)
    if move == 0 and n >= 2:  # planted overlap
        sets[1][0] = sets[0][0]
    elif move == 1 and n >= 2 and k >= 2:  # planted collinear triple
        a, b = divmod(plane.join(sets[0][0], sets[0][1]), q)
        x = sets[1][0] // q
        sets[1][0] = x * q + f.add(b, f.mul(f.sub(x, a), f.sub(x, a)))
    sets = [tuple(sorted(set(s))) for s in sets]
    sets = list(dict.fromkeys(s for s in sets if len(s) == k))
    if not sets:
        return None
    return LocalArcFamily(plane, sets, k=k)


def _random_case_lift(rng):
    kind = rng.randrange(3)
    k = rng.choice([1, 2, 2, 3])
    if kind == 0:
        plane = make_plane(rng.choice([3, 5, 7]))
        seed = _random_seed_family(rng, plane, k)
        return seed and case1_lift(seed, check=False)
    if kind == 1:
        p = rng.choice([3, 5])
        seed = _random_seed_family(rng, make_plane(p * p), k)
        return seed and case2_lift(seed, 2, check=False)
    p = rng.choice([5, 7, 11])
    seed = _random_seed_family(rng, make_plane(p), k)
    alphabet = sorted(rng.sample(range(p), rng.randint(1, 3)))
    return seed and case3_lift(seed, 3, 8.0, 6.0, alphabet=alphabet,
                               check=False)


_BASES = (SdfBasis(2, (0,)), SdfBasis(2, (1,)), SdfBasis(3, (0,)),
          SdfBasis(3, (2,)), SdfBasis(5, (0, 2)), SdfBasis(5, (1, 3)))


def _random_prime_lift(rng):
    seed = rng.choice([EX1_SEED, EX1_SEED, EX2_SEED, generic_k_arc(2)])
    basis = rng.choice(_BASES)
    low = basis.m ** 2 * (seed.r ** 2 + 3 * seed.r + 1) + 1
    p = rng.randrange(low, low + low // 2)
    while not is_prime(p):
        p += 1
    return lift_prime(seed, basis, p, check=False)


def _random_layout(rng):
    """Translates of random affine sets over GF(p), verticals allowed."""
    p = rng.choice([5, 7, 11])
    plane = make_plane(p)
    k = rng.randint(1, 3)
    base = tuple(tuple((rng.randrange(p), rng.randrange(p))
                       for _ in range(k))
                 for _ in range(rng.randint(1, 3)))
    # offsets drawn with replacement: some layouts list a translate twice
    us = tuple(rng.choices(range(p), k=rng.randint(1, 3)))
    vs = tuple(rng.choices(range(p), k=rng.randint(1, 3)))
    return LocalArcFamily.translates(plane, TranslationLayout(base, us, vs),
                                     k=k)


def test_translation_matches_sweep_on_random_lifts():
    rng = random.Random(0x7A5)
    makers = [_random_case_lift, _random_case_lift, _random_prime_lift,
              _random_layout]
    outcomes = []
    while len(outcomes) < 600:
        try:
            fam = rng.choice(makers)(rng)
        except (NonAffineSeed, NotAnArc):
            continue  # seeds the lifts refuse
        if fam is None:
            continue
        rep = assert_matches_sweep(fam)
        outcomes.append("ok" if rep.ok else rep.violation.kind)
    # the mix exercises acceptance and every kind of rejection
    assert outcomes.count("ok") >= 100
    assert outcomes.count("overlap") >= 50
    assert outcomes.count("collinear") >= 50
    assert outcomes.count("duplicate") >= 1


def _random_offsets_layout(rng, q):
    """A layout with 1-4 base sets, some empty, and 1-4 offsets a side."""
    base = tuple(tuple((rng.randrange(q), rng.randrange(q))
                       for _ in range(rng.randint(0, 3)))
                 for _ in range(rng.randint(1, 4)))
    us = tuple(rng.choices(range(q), k=rng.randint(1, 4)))
    vs = tuple(rng.choices(range(q), k=rng.randint(1, 4)))
    return TranslationLayout(base, us, vs)


def test_locate_inverts_index():
    rng = random.Random(0x10CA7E)
    shapes = set()
    for _ in range(300):
        lay = _random_offsets_layout(rng, 9)
        shapes.add((min(map(len, lay.base)) == 0, len(lay.us) == 1,
                    len(lay.vs) == 1))
        cells = itertools.product(range(len(lay.base)), range(len(lay.us)),
                                  range(len(lay.vs)))
        assert sorted(lay.index(*cell) for cell in cells) == \
            list(range(len(lay)))
        for i in range(len(lay)):
            si, iu, iv = lay.locate(i)
            assert 0 <= si < len(lay.base) and 0 <= iu < len(lay.us) \
                and 0 <= iv < len(lay.vs)
            assert lay.index(si, iu, iv) == i
    # empty base sets and single offsets each occur, alone and together
    assert {(True, True, True), (True, False, False),
            (False, True, False), (False, False, True)} <= shapes


def test_lazy_set_is_the_translate_locate_names():
    rng = random.Random(0x5E75)
    for q in (7, 9, 25):
        plane = make_plane(q)
        add = plane.field.add
        for _ in range(40):
            lay = _random_offsets_layout(rng, q)
            fam = LocalArcFamily.translates(plane, lay)
            for i in range(len(lay)):
                si, iu, iv = lay.locate(i)
                u, v = lay.us[iu], lay.vs[iv]
                want = tuple(sorted(add(x, u) * q + add(y, v)
                                    for x, y in lay.base[si]))
                assert fam.sets[i] == want
                assert fam.sets[i - len(lay)] == want


# ---------------------------------------------------------------------------
# offsets that keep their places

# a prime field, a Zech-table field, the digit engine and a tower
PLACE_FIELDS = [make_field(7), make_field(5, 2), make_field(131, 3),
                make_field(5, 4, tower=True)]


@pytest.mark.parametrize("f", PLACE_FIELDS, ids=lambda f: f"q{f.q}")
def test_offsets_sum_their_places_and_t_minus_t_summed_per_place(f):
    rng = random.Random(f.q)
    # prime offsets may be given as any integer: 8 is 1 in GF(7)
    top = 3 * f.q if f.m == 1 else f.q
    for _ in range(60):
        places = []
        for _ in range(rng.randint(0, 3)):
            if places and rng.random() < 0.3:
                place = rng.choice(places)  # sums collide
            else:
                place = rng.choices(range(top), k=rng.randint(1, 4))
            places.append(place)
        offs = Offsets(f.add, places)
        assert offs.places == tuple(map(tuple, places))
        assert list(offs) == sorted(
            functools.reduce(f.add, combo, 0)
            for combo in itertools.product(*places))
        pairwise = {f.sub(w, u) for u in offs for w in offs}
        assert _differences(f, offs, math.inf)[0] == pairwise
        # the listing alone is one place: the pairwise set again
        assert _differences(f, tuple(offs), math.inf)[0] == pairwise
    none = Offsets(f.add, ())
    assert none == (0,) and none.places == ()
    assert _differences(f, none, math.inf) == ({0}, 0)


def test_colliding_sums_and_non_canonical_offsets_are_twins():
    f = make_field(7)
    offs = Offsets(f.add, ((0, 1, 2), (0, 1)))
    assert offs == (0, 1, 1, 2, 2, 3)
    assert _twin(f.sub, offs) == (1, 2)
    assert _differences(f, offs, math.inf)[0] == {0, 1, 2, 3, 4, 5, 6}
    # test_repeated_offset_is_an_overlap: 8 and 1 are one element
    assert _twin(f.sub, (0, 1, 8)) == (1, 2)
    # not a progression: two subtractions to see it, then nine
    assert _differences(f, (0, 1, 8), math.inf) == ({0, 1, 6}, 2 + 9)
    assert _twin(f.sub, (3, 5, 4, 5, 3)) == (0, 4)


def _random_places_layout(rng):
    """Translates of random affine sets by offsets of 1-3 random places
    on each side."""
    plane = make_plane(rng.choice([5, 7, 9, 11, 25]))
    f, q = plane.field, plane.q
    base = tuple(tuple((rng.randrange(q), rng.randrange(q))
                       for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3)))

    def offsets():
        return Offsets(f.add, (rng.sample(range(q), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 3))))

    return LocalArcFamily.translates(
        plane, TranslationLayout(base, offsets(), offsets()))


def test_places_verify_as_their_listing_does():
    """A lift with places and the same layout with plain tuples give one
    report: verdict, named pair, witness and pairs_checked."""
    rng = random.Random(0x91ACE)
    makers = [_random_case_lift, _random_prime_lift, _random_places_layout]
    outcomes = []
    while len(outcomes) < 300:
        try:
            fam = rng.choice(makers)(rng)
        except (NonAffineSeed, NotAnArc):
            continue
        if fam is None:
            continue
        lay = fam.translation
        plain = LocalArcFamily.translates(fam.plane, TranslationLayout(
            lay.base, tuple(lay.us), tuple(lay.vs)), k=fam.k)
        rep = verify_local_arc(fam)
        assert rep == verify_local_arc(plain)
        outcomes.append("ok" if rep.ok else rep.violation.kind)
    assert outcomes.count("ok") >= 50
    assert outcomes.count("overlap") >= 20
    assert outcomes.count("collinear") >= 20


# ---------------------------------------------------------------------------
# progression places and subfield rows

def _progression(f, a, s, n):
    """a, a + s, ..., a + (n - 1)·s over f, in that order."""
    out = []
    for _ in range(n):
        out.append(a)
        a = f.add(a, s)
    return tuple(out)


@pytest.mark.parametrize("f", PLACE_FIELDS, ids=lambda f: f"q{f.q}")
def test_progression_places_list_their_differences_in_linear_time(f):
    rng = random.Random(f.q + 1)
    a, s = rng.randrange(1, f.q), rng.randrange(1, f.q)
    places = {
        "step 0": (a, a, a),
        "wraps": _progression(f, a, s, f.p + 3),
        "descending": _progression(f, a, f.neg(s), 5),
        "length 1": (a,),
        "length 2": (a, s),
        "none": (),
    }
    for name, place in places.items():
        n = len(place)
        pairwise = {f.sub(w, u) for u in place for w in place}
        # |P| - 1 subtractions find the step, 2(|P| - 1) list i·s
        assert _differences(f, place, math.inf) == (
            pairwise, 3 * max(n - 1, 0)), name
    assert _differences(f, places["step 0"], math.inf)[0] == {0}
    assert len(_differences(f, places["wraps"], math.inf)[0]) == f.p
    # a place that is not a progression in its listed order is listed
    # pairwise, after |P| - 1 subtractions at most
    other = (a, f.add(a, s), f.add(a, f.add(s, 1)), s)
    pairwise = {f.sub(w, u) for u in other for w in other}
    assert _differences(f, other, math.inf) == (pairwise, 3 + 16)
    # Offsets of progression and other places sum their P - P
    mixed = Offsets(f.add, (places["wraps"], other, places["length 2"]))
    diffs, work = _differences(f, mixed, math.inf)
    assert diffs == {f.sub(w, u) for u in mixed for w in mixed}
    wraps = _differences(f, places["wraps"], math.inf)[0]
    joined = {f.add(d, e) for d in wraps for e in pairwise}
    two = _differences(f, places["length 2"], math.inf)[0]
    assert work == (3 * (f.p + 2) + (3 + 16) + len(wraps) * len(pairwise)
                    + 3 + len(joined) * len(two))


def _subfield_layout(rng, f):
    """Translates over f of random sets with coordinates below p, by U
    with U - U below p and any V; a third get a planted overlap, a third
    a planted dv that _bad_dv flags, and one in five an offset of U
    outside GF(p)."""
    p, q = f.p, f.q
    base = tuple(tuple((rng.randrange(p), rng.randrange(p))
                       for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3)))
    us = tuple(rng.sample(range(p), rng.randint(1, 3)))
    vs = tuple(rng.sample(range(q), rng.randint(1, 3)))
    si, sj = rng.randrange(len(base)), rng.randrange(len(base))
    plant = rng.randrange(3)
    if plant == 0:  # S_i and S_j moved by (xi - xj, yi - yj) share a point
        (xi, yi), (xj, yj) = rng.choice(base[si]), rng.choice(base[sj])
        us += (f.add(us[0], f.sub(xi, xj)),)
        vs += (f.add(vs[0], f.sub(yi, yj)),)
    elif plant == 1:
        tables = _secant_tables(make_plane(f, "planar"), base)
        if tables[si] and tables[sj]:
            d_u = f.sub(us[-1], us[0])
            _, bad = _bad_dv(f, base[si], tables[si], base[sj], tables[sj],
                             d_u)
            if bad:
                vs += (f.add(vs[0], rng.choice(sorted(bad))),)
    if rng.random() < 0.2:
        us += (rng.randrange(p, q),)
    return LocalArcFamily.translates(make_plane(f, "planar"),
                                     TranslationLayout(base, us, vs))


def _rows_in_both_fields(monkeypatch, fam):
    """(report, report with the rows forced into the family's field,
    whether the first decided its rows in the prime subfield)."""
    row_field = arcs_mod._row_field
    taken = []

    def spy(f, *args):
        g = row_field(f, *args)
        taken.append(g is not f)
        return g

    monkeypatch.setattr(arcs_mod, "_row_field", spy)
    rep = verify_local_arc(fam)
    monkeypatch.setattr(arcs_mod, "_row_field", lambda f, *args: f)
    ref = verify_local_arc(fam)
    monkeypatch.setattr(arcs_mod, "_row_field", row_field)
    return rep, ref, taken == [True]


def test_subfield_rows_report_what_the_family_field_rows_do(monkeypatch):
    """Verdict, pairs_checked, named sets and witness are the same with
    the rows in GF(p) as in the family's own field."""
    rng = random.Random(0x5B0F)
    fields = [make_field(5, 2), make_field(7, 2), make_field(3, 3),
              make_field(5, 3), make_field(5, 4, tower=True)]
    outcomes, family_field = [], 0
    for i in range(600):
        fam = _subfield_layout(rng, fields[i % len(fields)])
        rep, ref, taken = _rows_in_both_fields(monkeypatch, fam)
        assert rep == ref, (fam.translation.base, fam.translation.us,
                            fam.translation.vs)
        # a rejection before the scan (a twin offset, or a base set that
        # is no arc) never asks for the row field
        if taken:
            outcomes.append("ok" if rep.ok else rep.violation.kind)
        family_field += fam.translation.us[-1] >= fam.plane.field.p
    assert family_field >= 60
    assert outcomes.count("ok") >= 50
    assert outcomes.count("overlap") >= 50
    assert outcomes.count("collinear") >= 40
    # the lifts from a prime field take the subfield too
    for fam in (case1_lift(conic_partition_seed(11, 2), check=False),
                case3_lift(conic_partition_seed(23, 2), 3, 8.0, 6.0,
                           alphabet=(1, 3), check=False)):
        rep, ref, taken = _rows_in_both_fields(monkeypatch, fam)
        assert rep == ref and rep.ok and taken


def test_case2_rows_stay_in_the_family_field(monkeypatch):
    fam = case2_lift(case1_lift(conic_partition_seed(5, 2), check=False), 2,
                     check=False)
    assert max(c for s in fam.translation.base for pt in s for c in pt) >= 5
    rep, ref, taken = _rows_in_both_fields(monkeypatch, fam)
    assert rep == ref and not taken
