"""Construction layer: seeds, digit lifting, extension liftings."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import localarc
import localarc.construct as construct_mod

from localarc.arcs import (
    LocalArcFamily,
    NotVerified,
    family_to_dict,
    secants_of,
    verify_local_arc,
)
from localarc.cli import EXIT_OK, EXIT_REJECTED, run
from localarc.construct import (
    EmptySdf,
    GenericSeed,
    KTooLarge,
    NonAffineSeed,
    NotTower,
    PTooSmall,
    best_construction,
    case1_lift,
    case2_lift,
    case3_lift,
    choose_M1_M2,
    column_pair_seed,
    conic_partition_seed,
    generic_k_arc,
    lift_prime,
    oval_partition,
    plan_lift,
    seed_from_dict,
    seed_to_dict,
    validate_generic,
)
from localarc.gf import is_prime
from localarc.sdf import BASIS_5, SdfBasis

EX1_SETS = (((0, 4), (4, 4)), ((0, 3), (2, 3)), ((1, 3), (3, 3)))
EX1_LINES = (((2, 0),), ((1, 2),), ((2, 2),))
EX2_SETS = (((6, 12), (2, 4), (3, 9)),)
EX2_LINES = (((0, 0), (4, 8), (3, 3)),)


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# generic seeds

def test_first_pair_example_is_valid_at_5():
    v = validate_generic(EX1_SETS, EX1_LINES, 5)
    assert v.ok and v.cond_a and v.cond_b and v.cond_c
    assert v.r_prime == 8


def test_single_triple_example_is_valid_at_13():
    v = validate_generic(EX2_SETS, EX2_LINES, 13)
    assert v.ok
    assert v.r_prime == 25


def test_flat_pair_fails_condition_c():
    # the integer secant of {(0,0),(2,0)} solves to [1,-1]; whether the
    # caller writes b = -1 or its residue r-1, the check must say no
    v = validate_generic((((0, 0), (2, 0)),), (((1, -1),),), 5)
    assert not v.ok and not v.cond_c
    v2 = validate_generic((((0, 0), (2, 0)),), (((1, 4),),), 5)
    assert not v2.ok and not v2.cond_c
    assert "(c)" in " ".join(v2.failures)


def test_wrong_secant_fails_condition_b():
    bad = (((2, 1),), ((1, 2),), ((2, 2),))
    v = validate_generic(EX1_SETS, bad, 5)
    assert not v.ok and not v.cond_b


@pytest.mark.parametrize("k", range(2, 9))
def test_generic_k_arc_is_valid(k):
    seed = generic_k_arc(k)
    assert seed.k == k
    assert seed.r == next_prime(k * k + 4 * k - 6)
    assert len(seed.secants[0]) == k * (k - 1) // 2
    assert validate_generic(seed.sets, seed.secants, seed.r).ok


def test_generic_2_arc_values():
    seed = generic_k_arc(2)
    assert seed.sets == (((2, 4), (4, 8)),)
    assert seed.secants == (((2, 4),),)
    assert seed.r == 7


def test_generic_seed_roundtrip():
    seed = generic_k_arc(3)
    again = seed_from_dict(seed_to_dict(seed))
    assert again == seed
    # r_prime is recomputed when missing
    d = seed_to_dict(seed)
    del d["r_prime"]
    assert seed_from_dict(d).r_prime == seed.r_prime


def test_generic_seed_reduces_to_family():
    fam = GenericSeed(EX1_SETS, EX1_LINES, 5, 8).as_family()
    assert fam.n_sets == 3 and fam.plane.q == 5
    assert verify_local_arc(fam).ok


# ---------------------------------------------------------------------------
# partitions

@pytest.mark.parametrize(
    "q,k,n",
    [(11, 2, 6), (5, 2, 3), (7, 8, 1), (9, 4, 2), (4, 3, 2), (8, 3, 3), (2, 2, 2)],
)
def test_oval_partition_sizes(q, k, n):
    fam = oval_partition(q, k)
    assert fam.n_sets == n
    assert verify_local_arc(fam).ok


def test_oval_partition_rejects_oversized_k():
    with pytest.raises(KTooLarge):
        oval_partition(7, 9)


def test_conic_partition_seed_shape():
    fam = conic_partition_seed(11, 2)
    assert fam.n_sets == 5 and fam.k == 2
    q = fam.plane.q
    assert all(pid < q * q for s in fam.sets for pid in s)
    for s in fam.sets:
        assert all(lid < q * q for lid in secants_of(fam.plane, s))


@pytest.mark.parametrize("p,k", [(3, 0), (5, -1), (5, 1), (7, 1)])
def test_conic_partition_seed_refuses_k_below_2(p, k):
    with pytest.raises(ValueError, match="set size k must be at least 2"):
        conic_partition_seed(p, k)


@pytest.mark.parametrize("q,k", [(7, 0), (7, 1), (7, 30), (3, 5), (9, 0),
                                 (25, 1), (27, 0)])
def test_best_construction_without_a_branch_is_a_value_error(q, k):
    with pytest.raises(ValueError,
                       match=f"no construction applies at q = {q}, k = {k}"):
        best_construction(q, k)


def test_column_pair_seed_every_odd_prime():
    for p in (3, 5, 7, 13):
        fam = column_pair_seed(p)
        assert fam.n_sets == p
        assert verify_local_arc(fam).ok


# ---------------------------------------------------------------------------
# prime-field digit lifting

def test_plan_lift_depth_and_count():
    params = plan_lift(5, BASIS_5, 1031)
    assert (params.t, params.B, params.n_translations) == (2, 4, 90)
    # deep enough primes get t = 4: (r^2+3r+1) m^4 = 71 * 625 for r = 7
    p = next_prime(71 * 625 + 1)
    deep = plan_lift(7, BASIS_5, p)
    assert deep.t == 4 and deep.B == 24
    assert deep.n_translations == 49 * 2**2 * 5**2


def test_plan_lift_rejects_small_primes():
    with pytest.raises(PTooSmall):
        plan_lift(5, BASIS_5, 1025)


def test_lift_prime_single_arc_seed_full_verify():
    seed = generic_k_arc(2)  # r = 7, x-gap 2: collision-free
    p = next_prime(25 * 71 + 1)
    fam = lift_prime(seed, BASIS_5, p)
    assert fam.n_sets == 90
    assert verify_local_arc(fam).ok
    assert fam.plane.q == p


def test_lift_prime_k3_seed():
    seed = generic_k_arc(3)  # r = 17
    p = next_prime(25 * (17 * 17 + 3 * 17 + 1) + 1)
    fam = lift_prime(seed, BASIS_5, p)
    assert fam.n_sets == 90 and fam.k == 3
    assert verify_local_arc(fam).ok


def test_lift_prime_depth_4_count():
    seed = generic_k_arc(2)
    p = next_prime(71 * 625 + 1)
    fam = lift_prime(seed, BASIS_5, p, check=False)
    assert fam.n_sets == 4900
    assert len(set(fam.materialize())) == 4900
    from localarc.arcs import sample_verify

    assert sample_verify(fam, 20_000, seed=1).ok


def test_lift_prime_rejects_translate_twin_seed():
    # two seed sets one x-step apart collide inside the translation
    # window: the listed family repeats sets and verification says so
    seed = GenericSeed(EX1_SETS, EX1_LINES, 5, 8)
    with pytest.raises(NotVerified):
        lift_prime(seed, BASIS_5, 1031)
    fam = lift_prime(seed, BASIS_5, 1031, check=False)
    assert fam.n_sets == 270  # listed, translation-major
    assert len(set(fam.materialize())) == 230
    rep = verify_local_arc(fam)
    assert not rep.ok and rep.violation.kind == "overlap"


def test_wide_window_lift_rejected_under_python_O():
    # no construction result rests on assert, which python -O strips
    code = (
        "from localarc.arcs import NotVerified\n"
        "from localarc.construct import GenericSeed, lift_prime\n"
        "from localarc.sdf import BASIS_5\n"
        "assert False, 'asserts are live'\n"
        f"seed = GenericSeed({EX1_SETS!r}, {EX1_LINES!r}, 5, 8)\n"
        "try:\n"
        "    lift_prime(seed, BASIS_5, 1031)\n"
        "except NotVerified as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = str(Path(localarc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: point (1,75) repeats in sets [2, 151]\n"


def test_no_module_of_the_package_uses_assert():
    # python -O strips assert statements, so none may guard a result
    pkg = Path(localarc.__file__).resolve().parent
    modules = sorted(pkg.glob("*.py"))
    assert len(modules) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_lift_prime_requires_valid_seed():
    bad = GenericSeed((((0, 0), (2, 0)),), (((1, 4),),), 5, 1)
    with pytest.raises(ValueError, match="seed fails validation"):
        lift_prime(bad, BASIS_5, 1031)


# ---------------------------------------------------------------------------
# extension liftings

def test_case1_conic_seed_55_pairs():
    fam = case1_lift(conic_partition_seed(11, 2))
    assert fam.n_sets == 55
    assert fam.plane.q == 121
    assert verify_local_arc(fam).ok


@pytest.mark.parametrize("p", [5, 7, 11])
def test_case1_multiplies_by_p(p):
    seed = column_pair_seed(p)
    fam = case1_lift(seed)
    assert fam.n_sets == seed.n_sets * p


def test_case1_single_set_copies_are_disjoint():
    seed = conic_partition_seed(11, 2)
    one = LocalArcFamily(seed.plane, (seed.sets[0],), k=2)
    fam = case1_lift(one)
    assert fam.n_sets == 11
    flat = [pid for s in fam.sets for pid in s]
    assert len(set(flat)) == len(flat)


def test_case1_rejects_nonaffine_points():
    with pytest.raises(NonAffineSeed):
        case1_lift(oval_partition(11, 2))  # contains the infinity point


def test_case1_rejects_vertical_secants():
    seed = conic_partition_seed(5, 2)
    p = seed.plane.q
    vertical = LocalArcFamily(seed.plane, ((0 * p + 1, 0 * p + 2),), k=2)
    with pytest.raises(NonAffineSeed):
        case1_lift(vertical)


def test_case2_t2_chain_625():
    s1 = case1_lift(column_pair_seed(5))
    assert s1.n_sets == 25
    fam = case2_lift(s1, 2)
    assert fam.n_sets == 625
    assert fam.plane.q == 625


def test_case2_t3_count_is_p5():
    s0 = column_pair_seed(3)
    one = LocalArcFamily(s0.plane, (s0.sets[0],), k=2)
    s1 = case1_lift(one)
    fam = case2_lift(s1, 3)
    assert fam.n_sets == s1.n_sets * 3**5
    assert fam.plane.q == 3**6


CASE2_T3 = ["construct", "--method", "case2", "--t", "3"]


@pytest.mark.xfail(
    strict=True,
    reason="case 2 at t = 3 is rejected for p = 5 and 7 (p = 3 verifies); "
           "whether case2_lift's odd-t alphabets or the paper's count "
           "p^{5(s-1)} per set is wrong is open")
def test_case2_t3_p5_is_a_local_arc(capsys):
    assert run([*CASE2_T3, "--p", "5"]) == EXIT_OK


@pytest.mark.parametrize("p, pair", [(5, (0, 2293)), (7, (0, 183313))])
def test_case2_t3_exact_rejection_names_its_pair(p, pair):
    # companion of the xfail above: the exact check names the same pair
    # on every run
    base = case1_lift(conic_partition_seed(p, 2), check=False)
    report = verify_local_arc(case2_lift(base, 3, check=False))
    assert report.mode == "translation" and not report.ok
    assert report.violation.kind == "collinear"
    assert report.violation.sets == pair


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_case2_t3_sampled_rejection_is_the_same_on_any_cpu_count(
        cpus, monkeypatch, capsys):
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    try:
        assert run([*CASE2_T3, "--p", "5",
                    "--verify", "sample:100000:0"]) == EXIT_REJECTED
    finally:
        os.sched_setaffinity(0, mask)
    out = capsys.readouterr().out
    assert out.startswith("rejected: line ")
    assert out.endswith(" from sets [16923, 29898]\n")


def test_case2_rejects_shallow_tower():
    s1 = case1_lift(column_pair_seed(5))
    with pytest.raises(NotTower):
        case2_lift(s1, 1)


def test_case2_rejects_prime_field_seed():
    with pytest.raises(ValueError, match="flat GF"):
        case2_lift(column_pair_seed(5), 2)


def test_choose_m1_m2_values():
    m1, m2 = choose_M1_M2(2)
    assert abs(m1 - 2.5) < 1e-6
    assert abs(m2 - 20.0) < 1e-3 and m2 > 20.0
    m1, m2 = choose_M1_M2(3)
    assert abs(m1 - 8 / 3) < 1e-6
    m1, m2 = choose_M1_M2(1)
    assert m1 == pytest.approx(2.001)
    with pytest.raises(ValueError):
        choose_M1_M2(0)


@pytest.mark.parametrize("p,m,expected", [(17, 12, 6), (17, 13, 6),
                                            (53, 36, 18), (13, 4, 5),
                                            (131, 3, 65)])
def test_default_alphabet_range_is_an_exact_floor(monkeypatch, p, m,
                                                  expected):
    # at p = 3t - 1, p / (3 - 1/t) is exactly t; the float M1 gave t - 1
    seen = []

    def stop(n):
        seen.append(n)
        raise EmptySdf("stop before the field is built")

    monkeypatch.setattr(construct_mod, "sdf_subset", stop)
    with pytest.raises(EmptySdf, match="stop"):
        case3_lift(conic_partition_seed(p, 2), m)
    assert seen == [expected]


@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_choose_m1_m2_constraints_strict(t):
    m1, m2 = choose_M1_M2(t)
    assert m1 >= 2 and m2 > 4
    assert 4.0 / m2 < 1.0 - 2.0 / m1


def test_case3_m3_small():
    seed = conic_partition_seed(13, 2)
    fam = case3_lift(seed, 3, 8.0, 6.0)
    # t = 1: no f factor; |T| = p * |A| with A = sdf_subset(1) = {1}
    assert fam.n_sets == seed.n_sets * 13 * 1
    assert fam.plane.q == 13**3


def test_case3_m5_full_verify():
    seed = conic_partition_seed(11, 2)
    one = LocalArcFamily(seed.plane, (seed.sets[0],), k=2)
    fam = case3_lift(one, 5, 8.0, 6.0)
    # f range floor(sqrt(11/6)) = 1, A = {1}: |T| = 1 * 11^2 * 1
    assert fam.n_sets == 121
    assert fam.plane.q == 11**5


def test_case3_planted_non_sdf_alphabet_is_rejected():
    seed = conic_partition_seed(29, 2)
    one = LocalArcFamily(seed.plane, (seed.sets[0],), k=2)
    with pytest.raises(NotVerified):
        case3_lift(one, 5, 8.0, 6.0, alphabet=(1, 2))


def test_case3_rejects_bad_parameters():
    seed = conic_partition_seed(11, 2)
    with pytest.raises(ValueError, match="side constraints"):
        case3_lift(seed, 3, 8.0, 4.0)  # 4/M2 = 1 > 1 - 2/M1
    with pytest.raises(EmptySdf):
        case3_lift(conic_partition_seed(5, 2), 3, 8.0, 6.0)  # floor(5/8) = 0
    with pytest.raises(ValueError, match="degree"):
        case3_lift(seed, 2, 8.0, 6.0)


def test_case3_m1_m2_default_to_choose_m1_m2():
    seed = conic_partition_seed(23, 2)
    fam = case3_lift(seed, 3, alphabet=(1, 3), check=False)
    assert fam.provenance == case3_lift(
        seed, 3, *choose_M1_M2(1), alphabet=(1, 3), check=False).provenance
    assert "M1=2.001,M2=8004.01" in fam.provenance
    for given in ({"M1": 8.0}, {"M2": 6.0}):
        with pytest.raises(ValueError, match="both M1 and M2"):
            case3_lift(seed, 3, alphabet=(1, 3), check=False, **given)


@pytest.mark.parametrize("alphabet", [
    (1, 3, 3),  # a duplicate value
    (1, 100000), (-1, 3), (1, 30), (1, 23),  # values outside [0, 23)
])
def test_case3_rejects_a_bad_alphabet(alphabet):
    seed = conic_partition_seed(23, 2)
    with pytest.raises(ValueError, match=r"distinct values in \[0, 23\)"):
        case3_lift(seed, 3, 8.0, 6.0, alphabet=alphabet)


def test_case3_alphabet_may_reach_both_ends_of_the_prime_field():
    fam = case3_lift(conic_partition_seed(23, 2), 3, 8.0, 6.0,
                     alphabet=(0, 22), check=False)
    assert fam.n_sets == 11 * 23 * 2


def test_default_check_keeps_the_249000_set_prime_lift_lazy():
    # every lift is verified exactly from its layout, so the largest
    # benchmark lift is accepted without materialising a set
    fam = lift_prime(generic_k_arc(3), BASIS_5, 10000019)
    assert fam.n_sets == 249000 and fam.k == 3
    assert not isinstance(fam.sets, tuple)
    assert fam.translation is not None


def test_lift_prime_is_lazy_at_every_size():
    fam = lift_prime(generic_k_arc(2), BASIS_5, 1777)
    assert fam.n_sets == 90 and not isinstance(fam.sets, tuple)
    assert len(set(fam.materialize())) == 90


# ---------------------------------------------------------------------------
# every lift is the lazy family of its translation layout

def _digest(fam) -> str:
    text = json.dumps([list(s) for s in fam])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("build, n_sets, digest", [
    (lambda: case1_lift(conic_partition_seed(11, 2)), 55,
     "f1559b59ab089121"),
    (lambda: case2_lift(case1_lift(column_pair_seed(5)), 2), 625,
     "a523ed3c07ec339a"),
    (lambda: case3_lift(conic_partition_seed(23, 2), 3, 8.0, 6.0,
                        alphabet=(1, 3)), 506, "eba533e0e4028520"),
    (lambda: lift_prime(generic_k_arc(2), BASIS_5, 1777), 90,
     "0cd639f8097fc63b"),
], ids=["case1-p11", "case2-t2", "case3-p23", "lift-prime-p1777"])
def test_every_lift_lists_its_pinned_sets_lazily(build, n_sets, digest):
    # the sets and their order are pinned by a digest of the set list
    fam = build()
    assert fam.n_sets == n_sets and fam.translation is not None
    assert not isinstance(fam.sets, tuple)
    assert _digest(fam) == digest


TWICE_LISTED = "point ([0,0],[0,0]) repeats in sets [0, 1]"


def _twice_listed_conic_pair() -> LocalArcFamily:
    seed = conic_partition_seed(11, 2)
    return LocalArcFamily(seed.plane, [seed.sets[0], seed.sets[0]], k=2)


def test_a_seed_set_listed_twice_is_an_overlap_of_its_lift():
    # a repeated translate is an overlap, named by the exact check
    dup = _twice_listed_conic_pair()
    with pytest.raises(NotVerified) as exc:
        case1_lift(dup)
    assert str(exc.value) == TWICE_LISTED
    fam = case1_lift(dup, check=False)
    assert fam.n_sets == 22 and len(set(fam.materialize())) == 11


def test_construct_case1_names_a_seed_set_listed_twice(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(family_to_dict(_twice_listed_conic_pair())))
    argv = ["construct", "--method", "case1", "--seed-file", str(path)]
    assert run(argv) == EXIT_REJECTED
    assert capsys.readouterr().out == f"rejected: {TWICE_LISTED}\n"
    assert run(argv + ["--verify", "none"]) == EXIT_OK
    assert "sets=22" in capsys.readouterr().out


def test_best_construction_skips_case1_on_its_budget():
    fam, report = best_construction(121, 2, max_points=100)
    assert report == {
        "oval_partition": 61,
        "case1": "skipped (55 sets exceed the 100-point budget)",
        "winner": "oval_partition(q=121,k=2)",
    }
    assert fam.n_sets == 61


@pytest.mark.parametrize("q, report", [
    (7, {"oval_partition": 4,
         "lift_prime": "skipped (p = 7 is not above m^2 (r^2+3r+1) = 1775)",
         "winner": "oval_partition(q=7,k=2)"}),
    (121, {"oval_partition": 61, "case1": 55,
           "winner": "oval_partition(q=121,k=2)"}),
    (729, {"oval_partition": 365, "case2": 729,
           "case3": "skipped (floor(sqrt(p/M2)) = 0 leaves no "
                    "f-coefficients)",
           "winner": "conic_seed(p=3,k=2)|case1(p=3)|case2(p=3,t=3)"}),
])
def test_best_construction_reports(q, report):
    assert best_construction(q, 2)[1] == report


def test_best_construction_oval_beats_case1_at_121():
    fam, report = best_construction(121, 2)
    assert report["oval_partition"] == 61
    assert report["case1"] == 55
    assert fam.n_sets == 61
    assert report["winner"].startswith("oval_partition")


def test_best_construction_small_prime_skips_lift():
    fam, report = best_construction(7, 2)
    assert fam.n_sets == 4
    assert "skipped" in report["lift_prime"]


def test_best_construction_case2_wins_at_729():
    fam, report = best_construction(729, 2)
    assert report["case2"] == 729
    assert fam.n_sets == 729
    assert report["winner"].endswith("case2(p=3,t=3)")


def test_lifts_reject_a_homogeneous_seed():
    from localarc.construct import SeedNotPlanar
    from localarc.gf import make_field
    from localarc.plane import make_plane

    def homogeneous_seed(field):
        plane = make_plane(field, "homogeneous")
        pts = plane.conic()
        return LocalArcFamily(plane, (tuple(sorted(pts[:2])),), k=2)

    with pytest.raises(SeedNotPlanar):
        case1_lift(homogeneous_seed(make_field(11)))
    with pytest.raises(SeedNotPlanar):
        case2_lift(homogeneous_seed(make_field(5, 2)), 2)
    with pytest.raises(SeedNotPlanar):
        case3_lift(homogeneous_seed(make_field(41)), 3)
