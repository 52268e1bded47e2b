import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localarc.arcs as arcs_mod
from localarc.arcs import (
    LocalArcFamily,
    NotAnArc,
    NotVerified,
    Offsets,
    TooLarge,
    TranslationLayout,
    VerifyReport,
    Violation,
    _CHUNK,
    _Translates,
    _draw_pairs,
    _first_collinear,
    _verify_sweep,
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
    KTooLarge,
    case1_lift,
    case2_lift,
    case3_lift,
    column_pair_seed,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
    oval_partition,
)
from localarc.gf import make_field
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


# ---------------------------------------------------------------------------
# conic and hyperoval partitions: accepted in one pass over the points


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_oval_partitions_are_arc_partitions(q):
    with_nucleus = False
    for k in range(2, q + 3):
        try:
            fam = oval_partition(q, k)
        except KTooLarge:
            break
        assert verify_local_arc(fam) == VerifyReport(
            True, "arc-partition", fam.total_points)
        assert _verify_sweep(fam).ok
        with_nucleus |= any(q * q in s for s in fam.sets)
    # the hyperoval's nucleus (0 : 1 : 0) is point q^2 at even q
    assert with_nucleus == (q % 2 == 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_conic_seeds_are_arc_partitions(p):
    for k in range(2, p + 1):
        fam = conic_partition_seed(p, k)
        assert verify_local_arc(fam) == VerifyReport(
            True, "arc-partition", fam.total_points)
        assert _verify_sweep(fam).ok


def test_mixed_size_conic_subfamilies_are_arc_partitions():
    rng = random.Random(33)
    for plane in (P7, P13, H4, make_plane(9, "homogeneous")):
        for _ in range(20):
            pts = rng.sample(plane.conic(), rng.randrange(1, plane.q + 1))
            sets, i = [], 0
            while i < len(pts):
                size = rng.randrange(1, 5)
                sets.append(tuple(pts[i:i + size]))
                i += size
            fam = LocalArcFamily(plane, sets)
            assert verify_local_arc(fam) == VerifyReport(
                True, "arc-partition", len(pts))
            assert _verify_sweep(fam).ok


CONIC_PLANES = [P5, P7, make_plane(9, "planar"), make_plane(5, "homogeneous"),
                make_plane(9, "homogeneous"), H4, make_plane(8, "homogeneous"),
                make_plane(16, "homogeneous")]


def nucleus_010(plane):
    """The id of (0 : 1 : 0): the slope point (0) in the planar
    presentation."""
    return next(i for i in range(plane.q ** 2, plane.n_points)
                if plane.coords(i) == (0, 1, 0))


def planted_families(plane):
    """Families of (hyper)oval points with one planted fault each.

    For each point x off the (hyper)oval, set 0 is two oval points a, b
    whose secant passes through x, and set 1 is x alone, or x with the
    rest of the oval in pairs after it; last, an oval point repeated in
    sets 0 and 1.
    """
    pts = sorted(plane.conic())
    for x in range(plane.n_points):
        if x in pts:
            continue
        a, b = next((a, b) for a, b in itertools.combinations(pts, 2)
                    if plane.incident(x, plane.join(a, b)))
        rest = [p for p in pts if p not in (a, b)]
        yield LocalArcFamily(plane, [(a, b), (x,)])
        yield LocalArcFamily(plane, [(a, b), (x, rest[0])] + [
            tuple(rest[i:i + 2]) for i in range(1, len(rest) - 1, 2)])
    yield LocalArcFamily(plane, [tuple(pts[:2]), (pts[0], pts[2])])


@pytest.mark.parametrize("plane", CONIC_PLANES, ids=repr)
def test_planted_faults_are_left_to_the_sweep(plane):
    # the points off the (hyper)oval include each slope point (z) and, at
    # odd q, (0 : 1 : 0)
    assert (nucleus_010(plane) in plane.conic()) == (plane.q % 2 == 0)
    for fam in planted_families(plane):
        want = _verify_sweep(fam)
        assert not want.ok and want.mode == "fast", fam.sets
        assert verify_local_arc(fam) == want
    assert want.violation.kind == "overlap" and want.violation.sets == (0, 1)


@pytest.mark.parametrize("plane", CONIC_PLANES, ids=repr)
def test_0_1_0_joins_the_conic_only_at_even_q(plane):
    fam = LocalArcFamily(plane, [(nucleus_010(plane),),
                                 tuple(plane.conic()[:3])])
    if plane.q % 2:
        assert verify_local_arc(fam) == _verify_sweep(fam)
    else:
        assert verify_local_arc(fam) == VerifyReport(True, "arc-partition", 4)
        assert _verify_sweep(fam).ok


def test_ids_outside_the_plane_are_refused():
    for bad in (-1, P5.n_points, P5.n_points + 5, 10**6):
        for sets in ([(0, bad)], ((bad,), (1, 2))):
            with pytest.raises(ValueError, match=r"outside \[0, 31\)"):
                LocalArcFamily(P5, sets)
    assert LocalArcFamily(P5, [(), (0, P5.n_points - 1)]).n_sets == 2


def test_column_pair_seeds_are_line_pairs():
    for p in (3, 5, 7, 11, 13):
        fam = column_pair_seed(p)
        rep = verify_local_arc(fam)
        assert rep == VerifyReport(True, "line-pair", 2 * p), p
        assert _verify_sweep(fam).ok


def line_pair_families(plane, rng):
    """Sets of one point of each of two random lines, off their meet, a
    few of them one point only, then perturbed like random_family."""
    l1, l2 = rng.sample(range(plane.n_lines), 2)
    meet = plane.meet(l1, l2)
    on1, on2 = ([p for p in plane.points_on(ln) if p != meet]
                for ln in (l1, l2))
    rng.shuffle(on1)
    rng.shuffle(on2)
    sets = [list(pair) for pair in zip(on1, on2)]
    for st in sets[2:]:
        if rng.random() < 0.2:
            del st[rng.randrange(2)]
    yield LocalArcFamily(plane, sets)
    for how in ("random", "meet", "same-line", "repeat", "three"):
        bad = [list(st) for st in sets]
        st = bad[rng.randrange(len(bad))]
        if how == "random":
            st[0] = rng.randrange(plane.n_points)
        elif how == "meet":
            st[0] = meet
        elif how == "same-line":
            st[:] = rng.sample(on1 if rng.random() < 0.5 else on2, 2)
        elif how == "repeat":
            st[0] = rng.choice(rng.choice(bad))
        else:
            st.append(rng.randrange(plane.n_points))
        yield LocalArcFamily(plane, bad)


def test_line_pair_certificate_agrees_with_the_sweep():
    rng = random.Random(20261021)
    planes = [make_plane(q, "planar") for q in (3, 5, 7, 9, 11, 13)] + [
        make_plane(q, "homogeneous") for q in (3, 4, 5, 7, 8, 9)]
    modes = Counter()
    for n in range(240):
        for fam in line_pair_families(planes[n % len(planes)], rng):
            rep, sweep = verify_local_arc(fam), _verify_sweep(fam)
            if rep.mode == "line-pair":
                assert sweep.ok and rep.pairs_checked == fam.total_points
            else:
                assert rep == sweep, (fam.plane, fam.sets)
            modes[rep.mode, rep.ok] += 1
    assert modes["line-pair", True] >= 240
    assert min(modes["fast", True], modes["fast", False]) >= 50
    assert set(modes) == {("line-pair", True), ("fast", True),
                          ("fast", False)}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_column_pairs_with_a_planted_fault_are_left_to_the_sweep(p):
    plane = make_plane(p, "planar")
    pairs = [list(st) for st in column_pair_seed(p).sets]
    ipt = plane.infinity_point  # the meet of the verticals [0] and [1]
    planted = {
        # two points of vertical [0] in the first set and in the last
        "vertical, first set": [[0, 1]] + pairs[2:],
        "vertical, last set": pairs[:-2] + [[p - 2, p - 1]],
        # both pairings of the first two sets give vertical [0] twice
        "one line": [[0, 1], [2, ipt]] + pairs[3:],
        "meet": pairs[:-1] + [[p - 1, ipt]],
        "third line": pairs[:-1] + [[p - 1, 2 * p]],
        "repeat": pairs[:-1] + [[p - 1, pairs[0][1]]],
    }
    for name, sets in planted.items():
        fam = LocalArcFamily(plane, sets)
        want = _verify_sweep(fam)
        assert want.mode == "fast" and verify_local_arc(fam) == want, name
        # at p = 3 the point (2, 0) completes no collinear triple
        assert want.ok == (name == "third line" and p == 3), name


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


# -- the sample stream and the exact verdict it defers to ------------------


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


SAMPLES = 4 * _CHUNK


@pytest.fixture(scope="module")
def case2_625():
    return case2_lift(case1_lift(column_pair_seed(5)), 2)


def translation_work(fam):
    """W of the family's layout, _translation_work's first value."""
    return arcs_mod._translation_work(fam.plane.field, fam.translation)[0]


def test_sample_verify_is_the_same_at_every_shard_count(case2_625):
    # the stream runs in this process alone: its report is the
    # reference's, with the first failing pair where it was planted
    fam, samples = case2_625, SAMPLES
    lift = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    lay = lift.translation
    # family, seed, and the first failing pair (None: the family passes)
    cases = {
        "translation, accepted": (fam, 3, None),
        "no layout, accepted": (
            LocalArcFamily(fam.plane, fam.sets, fam.k), 3, None),
        "planted in the first chunk": (
            planted_overlaps(fam, 3, (100, 1800)), 3, 100),
        "planted in the last chunk": (
            planted_overlaps(fam, 3, (1700,)), 3, 1700),
        "planted in two chunks": (
            planted_overlaps(fam, 3, (700, 1900)), 3, 700),
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
        assert sample_verify(case, samples, seed=seed) == expected, name


def test_sample_verify_takes_the_exact_verdict_when_it_costs_less(
        monkeypatch, case2_625):
    fam = case2_625
    # W = (|V| - 1) + |V|^2 + C(b+1, 2)·|U - U|·k^3 = 24 + 625 + 325·8:
    # U is 0 alone (no place, nothing to list) and V one place of 25
    # offsets, no arithmetic progression in its listed order
    work = translation_work(fam)
    assert work == 3249
    scans = []
    first_failure = arcs_mod._first_failure

    def recorded(*args):
        scans.append(args[2])
        return first_failure(*args)

    monkeypatch.setattr(arcs_mod, "_first_failure", recorded)
    for samples in (SAMPLES, work - 1, work, work + _CHUNK):
        expected = reference_sample_verify(fam, samples, seed=6)
        assert expected == VerifyReport(True, "sample", samples, seed=6)
        scans.clear()
        assert sample_verify(fam, samples, seed=6) == expected
        # below W the stream runs; from W on it does not
        assert scans == ([samples] if samples < work else []), samples


def test_sampled_pairs_below_the_exact_cost_build_no_set(monkeypatch,
                                                         case2_625):
    # the accepted case-1 lift of
    # test_sampled_translation_pairs_build_sets_only_to_name_a_violation
    # takes the exact verdict at 2,000 samples (W = 150); below W the
    # sampled translation path builds no set either
    looked_up = []
    lookup = _Translates.__getitem__

    def counted(self, i):
        looked_up.append(i)
        return lookup(self, i)

    monkeypatch.setattr(_Translates, "__getitem__", counted)
    assert translation_work(case2_625) > SAMPLES
    assert sample_verify(case2_625, SAMPLES, seed=3).ok
    assert looked_up == []


def test_a_rejected_cheap_translation_family_is_still_sampled():
    samples = 8 * _CHUNK
    wide = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    lift = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    lay = lift.translation
    extra = LocalArcFamily.translates(
        lift.plane, TranslationLayout(lay.base, lay.us, lay.vs + (1767,)))
    for fam, seed in ((wide, 2), (wide, 23), (extra, 10)):
        assert translation_work(fam) <= samples
        assert not verify_local_arc(fam).ok
        # the report names the stream's first failing pair
        expected = reference_sample_verify(fam, samples, seed=seed)
        assert not expected.ok and expected.pairs_checked > _CHUNK
        assert sample_verify(fam, samples, seed=seed) == expected


class CountingField:
    """A field's sub, add and neg, counted in calls, and its mul in
    muls."""

    def __init__(self, f):
        self.f, self.calls, self.muls = f, 0, 0

    def sub(self, a, b):
        self.calls += 1
        return self.f.sub(a, b)

    def add(self, a, b):
        self.calls += 1
        return self.f.add(a, b)

    def neg(self, a):
        self.calls += 1
        return self.f.neg(a)

    def mul(self, a, b):
        self.muls += 1
        return self.f.mul(a, b)


def test_translation_work_costs_at_most_the_limit():
    f = make_field(10007)
    arc = ((0, 0), (1, 1), (2, 4))
    layouts = [
        TranslationLayout((arc,), (0, 1, 5), tuple(range(0, 300, 3))),
        TranslationLayout((arc, arc), (0,), Offsets(f.add, (
            (0, 2), (0, 5, 11), (0, 50)))),
        TranslationLayout((arc,), Offsets(f.add, ()), Offsets(f.add, ())),
    ]
    works = [arcs_mod._translation_work(f, lay)[0] for lay in layouts]
    assert works == [
        # U is no progression: 2 subtractions to see it, |U|^2 to list
        # U - U = {0, ±1, ±4, ±5}; V is one: 99 subtractions, 2·99
        # additions and negations; and C(2, 2)·|U - U|·k^3
        (2 + 9) + (99 + 2 * 99) + 7 * 27,
        # per place 1 + 2, 2 + 9 (no progression) and 1 + 2, then
        # |D|·|P - P| as the second and the third place join, and
        # C(3, 2)·|U - U|·k^3
        0 + (3 + 11 + 3) + (3 * 7 + 21 * 3) + 3 * 1 * 27,
        0 + 0 + 27]
    for lay, work in zip(layouts, works):
        for limit in range(work + 2):
            counted = CountingField(f)
            got = arcs_mod._translation_work(counted, lay, limit)
            assert (got is None) == (work > limit), (limit, work)
            assert counted.calls <= min(work, limit)
    # a large V that is no progression is found too costly before it is
    # listed, and sampled without listing it
    counted = CountingField(f)
    huge = TranslationLayout((arc,), (0,), (0,) + tuple(range(2, 10_001)))
    assert arcs_mod._translation_work(counted, huge, 10**6) is None
    assert counted.calls == 2  # steps 2 and 1: no progression
    fam = LocalArcFamily.translates(make_plane(f, "planar"), huge)
    assert sample_verify(fam, 100, seed=1) == reference_sample_verify(
        fam, 100, seed=1)
    # as a progression it is cheap: 9,999 subtractions, 2·9,999
    # additions and negations, and one row
    cheap = TranslationLayout((arc,), (0,), tuple(range(10_000)))
    assert arcs_mod._translation_work(f, cheap)[0] == 3 * 9_999 + 27


def test_case3_rows_over_gf131e3_make_no_extension_mul(monkeypatch):
    """The bench's case-3 lift decides its rows in GF(131): no GF(131^3)
    multiplication, the row field's muls counted by CountingField."""
    big = make_field(131, 3)
    fam = case3_lift(conic_partition_seed(131, 2), 3, 8.0, 6.0,
                     alphabet=(1, 3), check=False)
    assert fam.plane.field is big
    big_mul, big_muls = big.mul, []
    bad_dv, rows = arcs_mod._bad_dv, []

    def counted_big_mul(a, b):
        big_muls.append((a, b))
        return big_mul(a, b)

    def counted_rows(f, *args):
        # each row keeps its field's counts and the GF(131^3) count so far
        rows.append((CountingField(f), len(big_muls)))
        return bad_dv(rows[-1][0], *args)

    monkeypatch.setattr(big, "mul", counted_big_mul)
    monkeypatch.setattr(arcs_mod, "_bad_dv", counted_rows)
    rep = verify_local_arc(fam)
    assert rep.ok and rep.pairs_checked == 842_985
    # C(66, 2) rows of 2k·C(k, 2) = 4 multiplications, all in GF(131)
    assert len(rows) == 2145
    assert {counted.f for counted, _ in rows} == {make_field(131)}
    assert sum(counted.muls for counted, _ in rows) == 4 * 2145
    assert {made for _, made in rows} == {len(big_muls)}


def test_sample_seeds_outside_the_stream_range_are_refused():
    fam = LocalArcFamily(P5, column_pairs(P5))
    for seed in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="seed"):
            sample_verify(fam, 10, seed=seed)
    # the two ends of the range draw different pairs and report themselves
    for seed in (0, 2**64 - 1):
        rep = sample_verify(fam, 10, seed=seed)
        assert rep.ok and rep.seed == seed
