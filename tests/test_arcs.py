import itertools
import os
import random
import signal
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localarc.arcs as arcs_mod
from localarc.arcs import (
    LocalArcFamily,
    NotAnArc,
    NotVerified,
    TooLarge,
    TranslationLayout,
    VerifyReport,
    Violation,
    _CHUNK,
    _Translates,
    _draw_pairs,
    _first_collinear,
    derive_phi,
    family_from_dict,
    family_to_dict,
    is_arc,
    is_t_quasiarc,
    lrc_params,
    reduce_uniformity,
    sample_verify,
    secants_of,
    tangent_profile,
    verify_local_arc,
    verify_local_arc_oracle,
)
from localarc.construct import (
    GenericSeed,
    case1_lift,
    case2_lift,
    column_pair_seed,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
)
from localarc.plane import convert_line, make_plane
from localarc.sdf import BASIS_5

P5 = make_plane(5, "planar")
P7 = make_plane(7, "planar")
P13 = make_plane(13, "planar")
H4 = make_plane(4, "homogeneous")

# the wide-window seed whose lift at p = 1031 lists twin translates
EX1_SEED = GenericSeed((((0, 4), (4, 4)), ((0, 3), (2, 3)), ((1, 3), (3, 3))),
                       (((2, 0),), ((1, 2),), ((2, 2),)), 5, 8)


def column_pairs(plane):
    f = plane.field
    return [
        (c, plane.q + f.add(c, 1))
        for c in range(plane.q)
    ]


def conic(plane):
    f = plane.field
    return [x * plane.q + f.mul(2, f.mul(x, x)) for x in range(plane.q)]


def oval(plane):
    return conic(plane) + [plane.infinity_point]


def test_column_pair_family_is_valid():
    fam = LocalArcFamily(P5, column_pairs(P5))
    assert verify_local_arc(fam).ok
    assert verify_local_arc_oracle(fam).ok
    assert fam.k == 2 and fam.n_sets == 5 and fam.total_points == 10
    for other in (LocalArcFamily(P5, [(0, 6), (12, 18)]),
                  LocalArcFamily(P5, [(y,) for y in range(3)])):
        assert verify_local_arc(other).ok == verify_local_arc_oracle(other).ok


def test_overlap_detected_with_witness():
    fam = LocalArcFamily(P5, [(0, 6), (6, 12)])
    rep = verify_local_arc(fam)
    assert not rep.ok
    assert rep.violation.kind == "overlap"
    assert rep.violation.points == (6,)
    assert rep.violation.sets == (0, 1)
    assert not verify_local_arc_oracle(fam).ok


def test_single_set_collinearity_detected():
    pts = tuple(range(3))  # (0, 0), (0, 1), (0, 2)
    fam = LocalArcFamily(P5, [pts])
    rep = verify_local_arc(fam)
    assert not rep.ok and rep.violation.kind == "collinear"
    assert rep.violation.line == 25  # [0]
    assert len(rep.violation.points) >= 3
    assert all(P5.incident(p, rep.violation.line) for p in rep.violation.points)


def test_cross_set_secant_violation():
    a = (0, 1)  # (0, 0), (0, 1)
    b = (2, 5)  # (0, 2), (1, 0)
    fam = LocalArcFamily(P5, [a, b])
    rep = verify_local_arc(fam)
    assert not rep.ok
    assert rep.violation.sets == (0, 1)
    assert not verify_local_arc_oracle(fam).ok


def test_three_collinear_singletons_pass_pairwise():
    # any two of them make a 2-point arc; the rule never looks at three sets
    fam = LocalArcFamily(P5, [(y,) for y in range(3)])
    assert verify_local_arc(fam).ok


@settings(deadline=None, max_examples=250)
@given(data=st.data())
def test_fast_matches_oracle_on_random_families(data):
    plane = data.draw(st.sampled_from([P5, P7, H4]))
    k = data.draw(st.integers(min_value=1, max_value=3))
    n_sets = data.draw(st.integers(min_value=1, max_value=5))
    pts = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=plane.n_points - 1),
            min_size=k * n_sets,
            max_size=k * n_sets,
            unique=True,
        )
    )
    fam = LocalArcFamily(plane, [tuple(pts[i * k:(i + 1) * k]) for i in range(n_sets)])
    rf, ro = verify_local_arc(fam), verify_local_arc_oracle(fam)
    assert rf.ok == ro.ok
    if not rf.ok and rf.violation.kind == "collinear":
        ln = rf.violation.line
        assert all(plane.incident(p, ln) for p in rf.violation.points)
        assert len(rf.violation.points) >= 3
        assert len(rf.violation.sets) <= 2


def random_perturbed_family(rng):
    """A family built by construction then optional sabotage."""
    q = rng.choice([5, 7, 9])
    plane = make_plane(q, rng.choice(["planar", "homogeneous"]))
    style = rng.randrange(3)
    if style == 0:
        pts = [x * q + rng.randrange(q) for x in range(q)]
        k = rng.choice([1, 2])
    else:
        f = plane.field
        pts = [x * q + f.mul(2, f.mul(x, x)) for x in range(q)]
        if style == 2:
            pts.append(plane.infinity_point)
        k = rng.choice([2, 3, 4])
    rng.shuffle(pts)
    n = max(1, len(pts) // k)
    sets = [list(pts[i * k:(i + 1) * k]) for i in range(n)]
    move = rng.randrange(4)
    if move == 0 and len(sets) >= 2:  # plant an overlap
        sets[0][0] = sets[1][0]
    elif move == 1:  # swap in a random point
        s = rng.randrange(len(sets))
        sets[s][rng.randrange(len(sets[s]))] = rng.randrange(plane.n_points)
    elif move == 2:  # add an unrelated random set
        extra = rng.sample(range(plane.n_points), k)
        sets.append(extra)
    return LocalArcFamily(plane, [tuple(s) for s in sets])


def test_equivalence_suite_500_cases():
    rng = random.Random(0xA5C3)
    disagreements = 0
    for _ in range(500):
        fam = random_perturbed_family(rng)
        assert fam.total_points <= 60
        if verify_local_arc(fam).ok != verify_local_arc_oracle(fam).ok:
            disagreements += 1
    assert disagreements == 0


def test_subfamily_of_verified_family_verifies():
    fam = LocalArcFamily(P7, column_pairs(P7))
    assert verify_local_arc(fam).ok
    for keep in itertools.combinations(range(fam.n_sets), 3):
        sub = LocalArcFamily(P7, [fam.sets[i] for i in keep])
        assert verify_local_arc(sub).ok


def test_oracle_size_guard():
    fam = LocalArcFamily(P5, column_pairs(P5))
    with pytest.raises(TooLarge):
        verify_local_arc_oracle(fam, limit=5)


def test_sample_verify_is_deterministic_and_replayable():
    bad = LocalArcFamily(
        P5,
        [
            (0, 1),  # (0, 0), (0, 1)
            (2, 5),  # (0, 2), (1, 0)
        ],
    )
    r1 = sample_verify(bad, 64, seed=42)
    r2 = sample_verify(bad, 64, seed=42)
    assert r1 == r2
    assert not r1.ok and r1.seed == 42
    good = LocalArcFamily(P5, column_pairs(P5))
    rep = sample_verify(good, 512, seed=7)
    assert rep.ok and rep.pairs_checked == 512
    with pytest.raises(ValueError):
        sample_verify(good, 0)


def test_sample_verify_finds_planted_overlap():
    fam = LocalArcFamily(P5, [(0, 6), (6, 12)])
    rep = sample_verify(fam, 16, seed=0)
    assert not rep.ok and rep.violation.kind == "overlap"


# -- sample_verify against the determinant loop it replaced ----------------

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix(x):
    """SplitMix64's output function (Steele, Lea and Flood, 2014)."""
    x &= M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def sample_stream(seed, n):
    """Draw n of the sample stream, one scalar at a time: the spec that
    arcs._draw_pairs computes a packed chunk at a time."""
    return splitmix((seed + (n + 1) * GAMMA) & M64)


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63 + 5, 2**64 + 3, 10**30])
def test_packed_draws_equal_the_scalar_stream(seed):
    for samples in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
        chunks = list(_draw_pairs(seed, samples))
        assert len(chunks) == -(-samples // _CHUNK)
        packed = list(itertools.chain.from_iterable(chunks))
        assert packed == [(sample_stream(seed, 2 * t),
                           sample_stream(seed, 2 * t + 1))
                          for t in range(samples)], samples


def reference_triple_fn(plane):
    """Point id -> homogeneous coordinate triple, for both presentations."""
    f = plane.field
    q = plane.q
    q2 = q * q
    if plane.kind == "homogeneous":
        def triple(i):
            if i < q2:
                return 1, i // q, i % q
            if i < q2 + q:
                return 0, 1, i - q2
            return 0, 0, 1
    else:
        sub, mul, neg = f.sub, f.mul, f.neg
        two = 2 % f.p

        def triple(i):
            if i < q2:
                x, y = divmod(i, q)
                return 1, x, sub(y, mul(x, x))
            if i < q2 + q:
                return 0, 1, neg(mul(two, i - q2))
            return 0, 0, 1

    return triple


def reference_sample_verify(family, samples, seed=0):
    """sample_verify as a full 3 x 3 determinant over every point triple
    of the union, each point's coordinates recomputed per triple."""
    if samples < 1:
        raise ValueError("at least one sample is required")
    s = family.n_sets
    if s < 2:
        return VerifyReport(True, "sample", 0, seed=seed)
    plane = family.plane
    f = plane.field
    sub, mul = f.sub, f.mul
    triple = reference_triple_fn(plane)

    def collinear(u, v, w):
        u0, u1, u2 = triple(u)
        v0, v1, v2 = triple(v)
        w0, w1, w2 = triple(w)
        d = sub(
            mul(u0, sub(mul(v1, w2), mul(v2, w1))),
            mul(u1, sub(mul(v0, w2), mul(v2, w0))),
        )
        return sub(d, mul(u2, sub(mul(v1, w0), mul(v0, w1)))) == 0

    sets = family.sets
    for t in range(samples):
        a = sample_stream(seed, 2 * t) % s
        b = sample_stream(seed, 2 * t + 1) % (s - 1)
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
        for u, v, w in itertools.combinations(union, 3):
            if collinear(u, v, w):
                return VerifyReport(
                    False, "sample", t + 1,
                    Violation("collinear", tuple(sorted((a, b))),
                              tuple(sorted((u, v, w))), line=plane.join(u, v)),
                    seed=seed,
                )
    return VerifyReport(True, "sample", samples, seed=seed)


EQUIV_PLANES = [make_plane(q, "planar") for q in (3, 5, 7, 9, 11, 25)] + [
    make_plane(q, "homogeneous") for q in (2, 4, 5, 7, 8, 9)
]


def random_arc(rng, plane):
    """A maximal arc found greedily in a random point order."""
    pts = list(range(plane.n_points))
    rng.shuffle(pts)
    arc, secants = [], set()
    for p in pts:
        lines = [plane.join(p, r) for r in arc]
        if secants.isdisjoint(lines):
            secants.update(lines)
            arc.append(p)
    return arc


def random_family(rng, plane):
    """Disjoint sets cut from a random arc, then perturbed: a random
    point, a point of the line at infinity, a point repeated inside one
    set or a point planted in two sets."""
    arc = random_arc(rng, plane)
    k = rng.randint(1, max(1, min(4, len(arc) // 2)))
    n_sets = rng.randint(2, max(2, len(arc) // k))
    pool = arc if n_sets * k <= len(arc) else list(range(plane.n_points))
    rng.shuffle(pool)
    sets = [list(pool[i * k:(i + 1) * k]) for i in range(n_sets)]
    sets = [st if len(st) == k else rng.sample(range(plane.n_points), k)
            for st in sets]
    q2 = plane.q * plane.q
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        st = rng.choice(sets)
        i = rng.randrange(k)
        how = rng.random()
        if how < 0.4:
            st[i] = rng.randrange(plane.n_points)
        elif how < 0.65:
            st[i] = rng.randrange(q2, plane.n_points)
        elif how < 0.8 and k > 1:
            st[i] = st[(i + 1) % k]
        else:
            st[i] = rng.choice(rng.choice(sets))
    return LocalArcFamily(plane, sets)


def test_sample_verify_equals_determinant_reference_on_random_families():
    rng = random.Random(20261018)
    kinds = Counter()
    presentations = Counter()
    for n in range(600):
        plane = EQUIV_PLANES[n % len(EQUIV_PLANES)]
        fam = random_family(rng, plane)
        samples, seed = rng.randint(1, 40), rng.randrange(1 << 32)
        rep = sample_verify(fam, samples, seed=seed)
        assert rep == reference_sample_verify(fam, samples, seed=seed), (
            plane, fam.materialize(), samples, seed)
        kinds[rep.violation.kind if rep.violation else "ok"] += 1
        presentations[plane.kind] += 1
    assert presentations["planar"] == presentations["homogeneous"] == 300
    # accepted families, overlaps and collinear triples all occur
    assert min(kinds[kind] for kind in ("ok", "overlap", "collinear")) >= 50


@pytest.mark.parametrize("plane", [P7, make_plane(7, "homogeneous"), H4],
                         ids=str)
def test_sample_verify_equals_reference_on_planted_unions(plane):
    on_infinity = list(range(plane.q * plane.q, plane.n_points))
    arc = random_arc(random.Random(5), plane)
    line = plane.points_on(plane.join(arc[0], arc[1]))
    off = arc[2:]  # an arc meets the line of arc[0], arc[1] nowhere else
    families = {
        # two points at infinity lead set 0, so a triple of the union
        # starts on the line at infinity
        "infinity-first": [on_infinity[:2], arc[2:4]],
        "repeat-in-set": [[arc[0], arc[0], arc[1]], arc[2:5]],
        "overlap": [arc[:3], [arc[2], arc[3], arc[4]]],
        "collinear-in-set": [list(line[:3]), off[:3]],
        "collinear-across": [[line[0], line[1]], [line[2], off[0]]],
    }
    for name, sets in families.items():
        fam = LocalArcFamily(plane, sets)
        for seed in range(12):
            rep = sample_verify(fam, 8, seed=seed)
            assert rep == reference_sample_verify(fam, 8, seed=seed), name
            if name != "infinity-first":
                assert not rep.ok, name


def test_first_collinear_pivots_or_takes_the_determinant():
    f = P7.field
    q2 = P7.q * P7.q
    on_parabola = [x * 7 + f.mul(x, x) for x in (1, 2, 3)]
    cases = {
        # (0) and the points (x, x^2) of [0, 0] are collinear
        (q2, q2 + 1, *on_parabola[:2]): (0, 2, 3),
        (*on_parabola[:2], q2): (0, 1, 2),
        (on_parabola[0], 4 * 7 + 4, *on_parabola[1:]): (0, 2, 3),
        (q2 + 1, q2 + 2, P7.infinity_point): (0, 1, 2),
        (0 * 7 + 1, q2 + 3, 5 * 7 + 0): None,
    }
    for union, expected in cases.items():
        pts = [P7.coords(p) for p in union]
        assert _first_collinear(pts, f.sub, f.mul) == expected, union


@pytest.mark.parametrize("build", ["case1-55", "case2-625"])
def test_sample_verify_equals_reference_on_accepted_lifts(build):
    if build == "case1-55":
        fam = case1_lift(conic_partition_seed(11, 2))
        assert fam.n_sets == 55
    else:
        fam = case2_lift(case1_lift(column_pair_seed(5)), 2)
        assert fam.n_sets == 625
    for seed in (0, 1, 2):
        rep = sample_verify(fam, 2000, seed=seed)
        assert rep.ok and rep.pairs_checked == 2000
        assert rep == reference_sample_verify(fam, 2000, seed=seed)


def random_base_set(rng, plane, kind):
    """Affine (x, y) coordinates of one base set of the given kind."""
    f, q = plane.field, plane.q
    affine = [p for p in random_arc(rng, plane) if p < q * q]
    if kind == "arc":
        return [divmod(p, q) for p in affine[:rng.randint(2, 3)]]
    x, y = rng.randrange(q), rng.randrange(q)
    if kind == "vertical":
        # two points of one column, so the set has a vertical secant
        return [(x, y), (x, f.add(y, 1 + rng.randrange(q - 1)))]
    if kind == "collinear":
        a, b = rng.randrange(q), rng.randrange(q)
        return [(u, f.add(b, f.mul(f.sub(u, a), f.sub(u, a))))
                for u in rng.sample(range(q), 3)]
    if kind == "repeat":
        return [(x, y), (x, y), divmod(affine[0], q)]
    if kind == "one":
        return [(x, y)]
    return []


def random_translation_family(rng, plane):
    """Translates of a few small base sets, mostly arcs, by offset lists
    that may list an offset twice."""
    kinds = ("arc", "arc", "arc", "vertical", "collinear", "repeat", "one",
             "empty")
    base = tuple(tuple(random_base_set(rng, plane, rng.choice(kinds)))
                 for _ in range(rng.randint(1, 3)))

    def offsets():
        out = rng.sample(range(plane.q), rng.randint(1, 3))
        if rng.random() < 0.15:
            out.append(rng.choice(out))
        return tuple(out)

    return LocalArcFamily.translates(
        plane, TranslationLayout(base, offsets(), offsets()))


def test_sample_verify_equals_reference_on_translation_families():
    rng = random.Random(20261019)
    planes = [make_plane(q, "planar") for q in (5, 7, 9, 11, 25)]
    kinds = Counter()
    for n in range(500):
        fam = random_translation_family(rng, planes[n % len(planes)])
        samples, seed = rng.randint(1, 12), rng.randrange(1 << 32)
        rep = sample_verify(fam, samples, seed=seed)
        assert rep == reference_sample_verify(fam, samples, seed=seed), (
            fam.plane, fam.translation, samples, seed)
        kinds[rep.violation.kind if rep.violation else "ok"] += 1
        if rep.ok:
            # again with a count that ends in, at or just past a chunk
            samples = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)[n % 4]
            rep = sample_verify(fam, samples, seed=seed)
            assert rep == reference_sample_verify(fam, samples, seed=seed), (
                fam.plane, fam.translation, samples, seed)
    assert min(kinds[kind] for kind in ("ok", "overlap", "collinear")) >= 30


def test_sample_verify_equals_reference_on_the_wide_window_lift():
    fam = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    verdicts = set()
    for seed in range(20):
        rep = sample_verify(fam, 60, seed=seed)
        assert rep == reference_sample_verify(fam, 60, seed=seed), seed
        verdicts.add(rep.ok)
    assert verdicts == {True, False}


def test_sample_verify_equals_reference_past_the_first_chunk():
    """The first violation falls in the second or third chunk of draws:
    pairs_checked, the named pair and the witness match the scalar
    stream there."""
    wide = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    # the lift of a 2-arc at p = 1777 with one extra v offset: it puts
    # a few translates on a secant of others
    lift = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    base, us, vs = (lift.translation.base, lift.translation.us,
                    lift.translation.vs)
    cases = [(wide, 2), (wide, 23)] + [
        (LocalArcFamily.translates(
            lift.plane, TranslationLayout(base, us, vs + (v,))), seed)
        for v, seed in ((1767, 0), (231, 0), (231, 2))]
    kinds = set()
    for fam, seed in cases:
        rep = sample_verify(fam, 3 * _CHUNK, seed=seed)
        assert rep == reference_sample_verify(fam, 3 * _CHUNK, seed=seed)
        assert not rep.ok and rep.pairs_checked > _CHUNK + 1, (fam, seed)
        kinds.add(rep.violation.kind)
    assert kinds == {"overlap", "collinear"}


def test_sample_verify_on_two_sets_straddles_chunks():
    # with s = 2 every b-draw reduces to 0, so the pair is always {0, 1}
    pair = LocalArcFamily(P7, column_pairs(P7)[:2])
    lift = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    base = lift.translation.base
    two = LocalArcFamily.translates(
        lift.plane, TranslationLayout(base, (0, 1), (0,)))
    clash = LocalArcFamily.translates(
        lift.plane, TranslationLayout(base, (3, 3), (2,)))
    for fam in (pair, two, clash):
        assert fam.n_sets == 2
        for samples in (1, _CHUNK + 1, 2 * _CHUNK + 5):
            rep = sample_verify(fam, samples, seed=11)
            assert rep == reference_sample_verify(fam, samples, seed=11)
            assert rep.ok == (fam is not clash)


def test_sampled_translation_pairs_build_sets_only_to_name_a_violation(
        monkeypatch):
    looked_up = []
    lookup = _Translates.__getitem__

    def counted(self, i):
        looked_up.append(i)
        return lookup(self, i)

    monkeypatch.setattr(_Translates, "__getitem__", counted)
    fam = case1_lift(conic_partition_seed(11, 2))
    looked_up.clear()
    assert sample_verify(fam, 2000, seed=3).ok
    assert looked_up == []

    fam = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    for seed in range(20):
        looked_up.clear()
        rep = sample_verify(fam, 60, seed=seed)
        if not rep.ok:
            assert sorted(looked_up) == list(rep.violation.sets)
            break
    else:
        raise AssertionError("no seed rejects the wide-window lift")


def test_is_arc_and_secants():
    pts = conic(P7)
    assert is_arc(P7, pts)
    assert not is_arc(P7, [0, 1, 2])  # (0, 0), (0, 1), (0, 2)
    with pytest.raises(ValueError):
        is_arc(P7, [0, 0, 1])
    assert len(secants_of(P7, pts)) == len(pts) * (len(pts) - 1) // 2
    with pytest.raises(NotAnArc):
        secants_of(P7, [0, 1, 2])


def test_squares_on_the_parabola_are_collinear():
    # (0,0), (1,1), (2,4) all satisfy y = x^2, which is a line here
    pts = [0 * 13 + 0, 1 * 13 + 1, 2 * 13 + 4]
    assert not is_arc(P13, pts)
    assert P13.join(pts[0], pts[1]) == P13.parse_line("[0,0]")


def test_conic_with_infinity_is_an_oval():
    pts = oval(P7)
    assert len(pts) == P7.q + 1
    assert is_arc(P7, pts)
    assert sorted(tangent_profile(P7, pts).values()) == [1] * 8
    assert is_t_quasiarc(P7, pts, 1)
    assert not is_t_quasiarc(P7, pts, 2)
    assert sorted(tangent_profile(P7, conic(P7)).values()) == [2] * P7.q
    assert is_t_quasiarc(P7, conic(P7), 2)


def test_derive_phi_is_an_induced_matching():
    fam = LocalArcFamily(P5, column_pairs(P5))
    phi, dual_ok = derive_phi(fam)
    assert dual_ok
    assert len(set(phi)) == fam.n_sets
    for i, ln in enumerate(phi):
        hit = [p for p in fam.sets[i] if P5.incident(p, ln)]
        assert len(hit) == 2
        for j in range(fam.n_sets):
            if j != i:
                assert not any(P5.incident(p, ln) for p in fam.sets[j])


def test_derive_phi_flags_shared_secants():
    # two sets on the same vertical line share their only secant
    fam = LocalArcFamily(
        P5,
        [
            (0, 1),  # (0, 0), (0, 1)
            (2, 3),  # (0, 2), (0, 3)
        ],
    )
    phi, dual_ok = derive_phi(fam)
    assert len(set(phi)) == 1 and not dual_ok


def test_derive_phi_matches_the_homogeneous_dual_check():
    # the chosen lines carried to the homogeneous plane, where a line id is
    # its own dual point, must give the verdict of the planar polarity
    rng = random.Random(25)
    cases = flagged = 0
    for q in (3, 5, 7, 9):
        pl, ph = make_plane(q, "planar"), make_plane(q, "homogeneous")
        for _ in range(70):
            m = rng.randint(3, min(10, pl.n_points // 2))
            pts = rng.sample(range(pl.n_points), 2 * m)
            fam = LocalArcFamily(pl, [tuple(sorted(pts[2 * i:2 * i + 2]))
                                      for i in range(m)])
            phi, ok = derive_phi(fam)
            if len(set(phi)) < m:
                assert not ok
                continue
            cases += 1
            flagged += not ok
            assert ok == is_t_quasiarc(
                ph, [convert_line(pl, ph, l) for l in phi], 2)
    assert cases >= 200 and flagged >= 50


def test_reduce_uniformity_chain():
    pts = oval(P7)
    fam = LocalArcFamily(P7, [tuple(pts[:4]), tuple(pts[4:])], provenance="seed")
    assert fam.k == 4
    red3 = reduce_uniformity(fam)
    assert red3.k == 3 and red3.n_sets == 2
    assert verify_local_arc(red3).ok
    assert red3.provenance == "seed|reduced"
    red2 = reduce_uniformity(red3)
    assert red2.k == 2
    pairs = reduce_uniformity(red2)
    assert len(pairs) == 2
    for pt, ln in pairs:
        assert P7.incident(pt, ln)


def test_reduce_uniformity_rejects_bad_input():
    with pytest.raises(NotVerified):
        reduce_uniformity(LocalArcFamily(P5, [(0, 6), (6, 12)]))
    with pytest.raises(ValueError):
        reduce_uniformity(LocalArcFamily(P5, [(0,), (6,)]))
    with pytest.raises(ValueError):
        reduce_uniformity(LocalArcFamily(P5, [(0, 6), (12,)]))


def test_column_pairs_reduce_to_matching():
    fam = LocalArcFamily(P5, column_pairs(P5))
    pairs = reduce_uniformity(fam)
    assert len(pairs) == 5
    for i, (pt, ln) in enumerate(pairs):
        assert P5.incident(pt, ln)
        for j, (qt, kn) in enumerate(pairs):
            if i != j:
                assert not P5.incident(pt, kn)
                assert not P5.incident(qt, ln)


def test_lrc_export_on_four_uniform_family():
    pts = oval(P7)
    fam = LocalArcFamily(P7, [tuple(pts[:4]), tuple(pts[4:])])
    assert verify_local_arc(fam).ok
    code = lrc_params(fam)
    assert (code.n, code.dim, code.d, code.locality, code.q) == (8, 3, 6, 3, 7)
    assert code.singleton_optimal
    assert code.d == code.n - code.dim - -(-code.dim // code.locality) + 2
    with pytest.raises(ValueError):
        lrc_params(LocalArcFamily(P5, column_pairs(P5)))
    with pytest.raises(ValueError):
        lrc_params(LocalArcFamily(P7, [tuple(pts[:4])]))
    # four points of one line in each set: 4-uniform, not a local arc
    columns = [tuple(x * 7 + y for y in range(4)) for x in (0, 1)]
    with pytest.raises(NotVerified):
        lrc_params(LocalArcFamily(P7, columns))


def test_family_serialisation_roundtrip():
    fam = LocalArcFamily(P5, column_pairs(P5), provenance="seed")
    data = family_to_dict(fam)
    assert data["q"] == 5
    assert data["sets"][0] == ["(0,0)", "(1,1)"]
    back = family_from_dict(data)
    assert back.materialize() == fam.materialize()
    assert back.provenance == "seed"
    assert back.plane.kind == "planar" and back.plane.q == 5


def test_mixed_sizes_are_data_not_errors():
    fam = LocalArcFamily(P5, [(0, 6), (12,)])
    assert fam.k == 0 and fam.total_points == 3
    assert verify_local_arc(fam).ok


# -- sample_verify split across processes ---------------------------------


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_chunk_aligned_splits_of_the_stream_concatenate_to_it(seed):
    samples = 4 * _CHUNK + 9
    whole = list(itertools.chain.from_iterable(_draw_pairs(seed, samples)))
    inner = range(_CHUNK, samples, _CHUNK)
    for n in range(len(inner) + 1):
        for cuts in itertools.combinations(inner, n):
            bounds = (0, *cuts, samples)
            pieces = [list(itertools.chain.from_iterable(
                _draw_pairs(seed, hi, lo)))
                for lo, hi in zip(bounds, bounds[1:])]
            assert list(itertools.chain(*pieces)) == whole, cuts


@pytest.fixture
def force_shards(monkeypatch):
    """force_shards(n, samples) makes sample_verify split `samples` into
    n shards, as on n CPUs; this process's real CPU mask is restored
    after the test."""
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(arcs_mod, "_SHARD_MIN", _CHUNK)

    def force(n, samples):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        assert len(arcs_mod._shards(samples)) == n

    yield force
    os.sched_setaffinity(0, mask)


def test_shards_cover_the_stream_in_whole_chunks(monkeypatch):
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)))
        # none under _SHARD_MIN samples
        assert len(arcs_mod._shards(2 * arcs_mod._SHARD_MIN - 1)) == 1
        assert len(arcs_mod._shards(2 * arcs_mod._SHARD_MIN)) == min(cpus, 2)
        monkeypatch.setattr(arcs_mod, "_SHARD_MIN", _CHUNK)
        for samples in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK,
                        10 * _CHUNK + 7):
            shards = arcs_mod._shards(samples)
            assert len(shards) == max(1, min(cpus, samples // _CHUNK))
            los = [lo for lo, _, _ in shards]
            assert los[0] == 0 and all(lo % _CHUNK == 0 for lo in los)
            assert [hi for _, hi, _ in shards] == los[1:] + [samples]
            assert all(lo < hi for lo, hi, _ in shards)
            if len(shards) > 1:
                cpus_used = [cpu for _, _, cpu in shards]
                assert cpus_used == list(range(len(shards)))
        monkeypatch.undo()
    # one shard while another thread runs: fork would copy it half-way
    monkeypatch.setattr(arcs_mod, "_SHARD_MIN", _CHUNK)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert [lo for lo, _, _ in arcs_mod._shards(4 * _CHUNK)] == [0]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pair_at(fam, seed, t):
    """Set numbers (a, b) of pair t of the sample stream."""
    a, b = next(itertools.chain.from_iterable(_draw_pairs(seed, t + 1, t)))
    s = fam.n_sets
    a, b = a % s, b % (s - 1)
    return a, b + (b >= a)


def planted_overlaps(fam, seed, ts):
    """fam's sets as a list in which set b of each pair t in ts is a copy
    of set a; in a local-arc family only those pairs then fail."""
    sets = list(fam.sets)
    for t in ts:
        a, b = pair_at(fam, seed, t)
        sets[b] = sets[a]
    return LocalArcFamily(fam.plane, sets, fam.k)


SHARD_SAMPLES = 4 * _CHUNK


@pytest.fixture(scope="module")
def case2_625():
    return case2_lift(case1_lift(column_pair_seed(5)), 2)


def test_sample_verify_is_the_same_at_every_shard_count(force_shards,
                                                        case2_625):
    fam, samples = case2_625, SHARD_SAMPLES
    lift = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    lay = lift.translation
    # family, seed, and the first failing pair (None: the family passes)
    cases = {
        "translation, accepted": (fam, 3, None),
        "no layout, accepted": (
            LocalArcFamily(fam.plane, fam.sets, fam.k), 3, None),
        # planted overlaps, first in shard 0, only in the last shard, and
        # in two shards that are both later than shard 0 at n = 4
        "shard 0": (planted_overlaps(fam, 3, (100, 1800)), 3, 100),
        "last shard only": (planted_overlaps(fam, 3, (1700,)), 3, 1700),
        "two shards": (planted_overlaps(fam, 3, (700, 1900)), 3, 700),
        # the 2-arc lift at p = 1777 with one v offset too many, decided
        # through _bad_dv and named by the full treatment
        "translation, rejected": (LocalArcFamily.translates(
            lift.plane, TranslationLayout(lay.base, lay.us, lay.vs + (1767,))),
            10, 1334),
    }
    for name, (case, seed, first) in cases.items():
        expected = reference_sample_verify(case, samples, seed=seed)
        assert expected.ok == (first is None), name
        if first is not None:
            assert expected.pairs_checked == first + 1, name
        for n in (1, 2, 3, 4):
            force_shards(n, samples)
            rep = sample_verify(case, samples, seed=seed)
            assert rep == expected, (name, n)
            assert_no_children()


class _Sets:
    """A lazy sequence of sets that calls hook(i) before each lookup."""

    def __init__(self, sets, hook):
        self.sets, self.hook = sets, hook

    def __len__(self):
        return len(self.sets)

    def __getitem__(self, i):
        self.hook(i)
        return self.sets[i]


def no_such_set(i):
    raise LookupError(f"set {i} is not there")


def test_sample_verify_leaves_no_child_on_any_exit(force_shards, case2_625):
    fam = case2_625
    force_shards(3, SHARD_SAMPLES)
    assert sample_verify(fam, SHARD_SAMPLES, seed=1).ok
    assert_no_children()
    bad = planted_overlaps(fam, 1, (1500,))
    assert not sample_verify(bad, SHARD_SAMPLES, seed=1).ok
    assert_no_children()
    broken = LocalArcFamily(fam.plane, _Sets(fam.sets, no_such_set), fam.k)
    with pytest.raises(LookupError, match="is not there"):
        sample_verify(broken, SHARD_SAMPLES, seed=1)
    assert_no_children()


def test_sample_verify_gives_the_caller_its_cpu_mask_back(monkeypatch,
                                                         case2_625):
    # on the machine's own CPUs: the caller scans shard 0 pinned to one
    # of them and is unpinned when the call returns or raises
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(arcs_mod, "_SHARD_MIN", _CHUNK)
    assert len(arcs_mod._shards(SHARD_SAMPLES)) == min(len(mask), 4)
    assert sample_verify(case2_625, SHARD_SAMPLES, seed=2).ok
    assert os.sched_getaffinity(0) == mask
    broken = LocalArcFamily(case2_625.plane,
                            _Sets(case2_625.sets, no_such_set), 2)
    with pytest.raises(LookupError, match="is not there"):
        sample_verify(broken, SHARD_SAMPLES, seed=2)
    assert os.sched_getaffinity(0) == mask
    assert_no_children()


def test_a_child_that_dies_has_its_shard_rerun_in_process(
        force_shards, case2_625):
    parent = os.getpid()
    lookups = []

    def die_in_a_child(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        lookups.append(i)

    for ts in ((), (1800,), (600, 1300)):
        plain = planted_overlaps(case2_625, 4, ts)
        fam = LocalArcFamily(plain.plane, _Sets(plain.sets, die_in_a_child),
                             plain.k)
        expected = reference_sample_verify(plain, SHARD_SAMPLES, seed=4)
        assert expected.ok == (not ts)
        for n in (2, 4):
            force_shards(n, SHARD_SAMPLES)
            lookups.clear()
            assert sample_verify(fam, SHARD_SAMPLES, seed=4) == expected
            assert_no_children()
            # this process looked up both sets of every pair up to the
            # verdict: each dead child's shard ran here
            assert len(lookups) == 2 * expected.pairs_checked, (ts, n)


def test_a_child_reports_each_chunk_once_the_next_is_asked_for():
    r, w = os.pipe()
    hi = 3 * _CHUNK + 5
    chunks = arcs_mod._reporting(w, _CHUNK, hi)
    assert next(chunks) == (3 * _CHUNK, hi)
    assert next(chunks) == (2 * _CHUNK, 3 * _CHUNK)
    assert list(chunks) == [(_CHUNK, 2 * _CHUNK)]
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        assert fh.read() == b"%d -1\n%d -1\n%d -1\n" % (
            3 * _CHUNK, 2 * _CHUNK, _CHUNK)


def test_the_caller_scans_what_no_child_reported_passed():
    samples = 5 * _CHUNK + 3
    r, w = os.pipe()
    os.set_blocking(r, False)
    try:
        # chunk 4 passed, chunk 2 fails at one of its pairs, chunk 3 has
        # no report, and chunk 1's report is cut in two
        os.write(w, b"%d -1\n%d %d\n%d" % (
            4 * _CHUNK, 2 * _CHUNK, 2 * _CHUNK + 7, _CHUNK))
        ranges = arcs_mod._unreported(samples, [r])
        assert next(ranges) == (0, _CHUNK)
        os.write(w, b" -1\n")
        os.close(w)
        assert list(ranges) == [
            (2 * _CHUNK + 7, 2 * _CHUNK + 8), (2 * _CHUNK, 3 * _CHUNK),
            (3 * _CHUNK, 4 * _CHUNK), (5 * _CHUNK, samples)]
    finally:
        os.close(r)


def test_the_caller_leaves_the_chunks_children_passed(force_shards,
                                                       monkeypatch,
                                                       case2_625):
    # the caller's first set lookup waits until every child has exited,
    # so it then finds every child's report in the pipes
    parent, pids, lookups = os.getpid(), [], []
    fork_shard = arcs_mod._fork_shard

    def recorded(*args):
        child = fork_shard(*args)
        pids.append(child[0])
        return child

    def wait_for_children(i):
        if os.getpid() == parent:
            if not lookups:
                for pid in pids:
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            lookups.append(i)

    monkeypatch.setattr(arcs_mod, "_fork_shard", recorded)
    for n in (2, 3, 4):
        force_shards(n, SHARD_SAMPLES)
        shards = arcs_mod._shards(SHARD_SAMPLES)
        first_hi, last_lo = shards[0][1], shards[-1][0]
        # none, or one failure in the lowest chunk of the last shard,
        # which its child reports after passing the chunks above it
        for ts in ((), (last_lo + 76,)):
            plain = planted_overlaps(case2_625, 5, ts)
            fam = LocalArcFamily(plain.plane,
                                 _Sets(plain.sets, wait_for_children), 2)
            expected = reference_sample_verify(plain, SHARD_SAMPLES, seed=5)
            assert expected.pairs_checked == (ts[0] + 1 if ts
                                              else SHARD_SAMPLES)
            pids.clear()
            lookups.clear()
            assert sample_verify(fam, SHARD_SAMPLES, seed=5) == expected
            assert_no_children()
            # shard 0, and the failing pair re-run here
            assert len(lookups) == 2 * first_hi + 2 * len(ts), (n, ts)


def test_sample_seeds_outside_the_stream_range_are_refused():
    fam = LocalArcFamily(P5, column_pairs(P5))
    for seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="seed"):
            sample_verify(fam, 10, seed=seed)
    # the two ends of the range draw different pairs and report themselves
    for seed in (0, 2**64 - 1):
        rep = sample_verify(fam, 10, seed=seed)
        assert rep.ok and rep.seed == seed
