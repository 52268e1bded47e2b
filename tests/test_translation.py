"""Translation verdict: lifted families checked from T - T against the sweep.

Every lift lists all translates of a base, and verify_local_arc decides
such a family from the base and the difference set D = (U-U) x (V-V).
These tests hold that verdict to the pair sweep, which the same sets get
once their translation layout is dropped, and confirm every rejection's
witness with the literal oracle on the two sets it names.
"""

from __future__ import annotations

import itertools
import random

import pytest

from localarc.arcs import (
    LocalArcFamily,
    NotAnArc,
    TranslationLayout,
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
from localarc.gf import is_prime
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
    ref = verify_local_arc(LocalArcFamily(fam.plane, fam.materialize()))
    assert ref.mode == "fast"
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
