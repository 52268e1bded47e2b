"""Acceptance gate: one test per published claim, at stated tolerances.

Each criterion appears as one pytest line (plus a companion test where
the literal claim is unattainable and an honest variant documents what
the code actually produces; those carry xfail markers and a reason).
Run `pytest tests/test_acceptance.py -v` for the per-criterion verdict
lines.
"""

from __future__ import annotations

import math
import time

import pytest

from localarc.arcs import (
    LocalArcFamily,
    NotVerified,
    derive_phi,
    reduce_uniformity,
    sample_verify,
    verify_local_arc,
    verify_local_arc_oracle,
)
from localarc.bounds import (
    UndefinedCase,
    compare_upper_bounds,
    eml_upper,
    lower_exponent,
)
from localarc.construct import (
    GenericSeed,
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
    validate_generic,
)
from localarc.sdf import A205, BASIS_5, BASIS_205, is_sdf_mod
from localarc.search import exact_max, load_reference_table

EX1_SETS = (((0, 4), (4, 4)), ((0, 3), (2, 3)), ((1, 3), (3, 3)))
EX1_LINES = (((2, 0),), ((1, 2),), ((2, 2),))
EX2_SETS = (((6, 12), (2, 4), (3, 9)),)
EX2_LINES = (((0, 0), (4, 8), (3, 3)),)

EX1_SEED = GenericSeed(EX1_SETS, EX1_LINES, 5, 8)


def _next_prime(n: int) -> int:
    def is_prime(x: int) -> bool:
        if x < 4:
            return x >= 2
        if x % 2 == 0:
            return False
        return all(x % d for d in range(3, math.isqrt(x) + 1, 2))

    while not is_prime(n):
        n += 1
    return n


# --------------------------------------------------------------------------
# shared construction runs (criteria 5-9 reuse these)


@pytest.fixture(scope="module")
def fam_case1():
    seed = conic_partition_seed(11, 2)
    assert seed.n_sets == 5
    return seed, case1_lift(seed)


@pytest.fixture(scope="module")
def fam_case2():
    base = case1_lift(column_pair_seed(5))
    assert base.n_sets == 25
    return base, case2_lift(base, 2)


@pytest.fixture(scope="module")
def fam_case3():
    seed = conic_partition_seed(41, 2)
    assert seed.n_sets == 20
    return seed, case3_lift(seed, 3, 8.0, 6.0, alphabet=(1, 3))


@pytest.fixture(scope="module")
def paper_scale():
    p = _next_prime((5 * 5 + 3 * 5 + 1) * 205 * 205)
    assert p == 1723027
    fam = lift_prime(EX1_SEED, BASIS_205, p, check=False)
    return p, fam


# --------------------------------------------------------------------------
# criterion 1


def test_criterion_01_examples_validate_under_1s():
    t0 = time.monotonic()
    v1 = validate_generic(EX1_SETS, EX1_LINES, 5)
    v2 = validate_generic(EX2_SETS, EX2_LINES, 13)
    elapsed = time.monotonic() - t0
    assert v1.ok and v1.cond_a and v1.cond_b and v1.cond_c
    assert v2.ok and v2.cond_a and v2.cond_b and v2.cond_c
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# criterion 2


def test_criterion_02_mod205_sdf_under_1s():
    t0 = time.monotonic()
    ok = is_sdf_mod({0, 2, 8, 14, 77, 79, 85, 96, 103, 109, 111, 181}, 205)
    elapsed = time.monotonic() - t0
    assert ok
    assert elapsed < 1.0
    assert set(A205) == {0, 2, 8, 14, 77, 79, 85, 96, 103, 109, 111, 181}


# --------------------------------------------------------------------------
# criterion 3


def _tight_cells() -> set[tuple[int, int]]:
    # compare on the multi-set cells; single-set cells meet any bound
    # that caps at 1 and say nothing about the formula
    table = load_reference_table()
    return {(k, q) for (q, k), (value, exact) in table.items()
            if exact and value >= 2 and eml_upper(k, q).sets == value}


@pytest.mark.xfail(
    strict=True,
    reason="the stated tight-cell list is incomplete: the bound also "
           "meets the exact optimum at (2,3), (2,5), (3,7), (3,8)")
def test_criterion_03_eml_tightness_as_stated():
    assert _tight_cells() == {(2, 2), (2, 4), (3, 4), (3, 5)}


def test_criterion_03_eml_tightness_actual():
    # the four extra cells are equalities of the same formula, frozen
    # here after direct evaluation against the exact table
    assert _tight_cells() == {(2, 2), (2, 4), (3, 4), (3, 5),
                              (2, 3), (2, 5), (3, 7), (3, 8)}


def test_criterion_03_bound_crossover_exceptions_under_10s():
    t0 = time.monotonic()
    cmp = compare_upper_bounds(4, 1024)
    elapsed = time.monotonic() - t0
    assert set(cmp.exceptions) == {2, 4, 5, 7, 11, 16}
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 4


def test_criterion_04_table_q2_to_q5_each_under_5min():
    table = load_reference_table()
    for (q, k), (value, exact) in sorted(table.items()):
        if q > 5:
            continue
        t0 = time.monotonic()
        res = exact_max(q, k)
        elapsed = time.monotonic() - t0
        assert exact
        assert res.num_sets == value and res.optimal, (q, k)
        assert elapsed < 300.0


def test_criterion_04_q7_k3_to_k7_under_60min_total():
    t0 = time.monotonic()
    values = {k: exact_max(7, k) for k in (3, 4, 5, 6, 7)}
    elapsed = time.monotonic() - t0
    assert [values[k].num_sets for k in (3, 4, 5, 6, 7)] == [8, 3, 1, 1, 1]
    assert all(v.optimal for v in values.values())
    assert elapsed < 3600.0


def test_criterion_04_q7_k2_timeboxed_lower_bound_allowed():
    # the full proof needs hours; the criterion allows lower-bound
    # status, and the incumbent reaches the true value quickly
    res = exact_max(7, 2, budget=30)
    assert res.num_sets == 13
    assert res.cap == 15
    if res.optimal:
        assert res.num_sets == 13  # proof inside the box: still 13


# --------------------------------------------------------------------------
# criterion 5


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the translation window has width "
           "2B+1 = 9 while the seed's sets 2 and 3 are horizontal "
           "translates at distance 1, whose lifted copies then "
           "coincide; the 270 listed sets collapse to 230 distinct "
           "ones sharing 40 points, so full verification rejects")
def test_criterion_05_example_lift_270_sets_full_verify():
    t0 = time.monotonic()
    fam = lift_prime(EX1_SEED, BASIS_5, 1031)  # full verify inside
    assert fam.n_sets == 270
    assert fam.total_points == 540
    assert time.monotonic() - t0 < 60.0


def test_criterion_05_example_lift_defect_witness():
    # the literal listing: exactly 270 set listings / 540 point slots
    fam = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    sets = list(fam.sets)
    assert len(sets) == 270
    assert sum(len(s) for s in sets) == 540
    distinct = set(sets)
    assert len(distinct) == 230  # 40 duplicate listings
    points = [p for s in sets for p in s]
    assert len(set(points)) == 420  # 540 slots, 40 shared + 80 dup

    # deterministic duplicate: tau = (1, 0) on set 2 equals
    # tau = (1 - 5^{t/2}, 0) on set 3, because set 3 is set 2 shifted
    # by one seed x-unit = 5^{t/2} lifted x-units
    params = plan_lift(5, BASIS_5, 1031)
    n_v = len(BASIS_5.A) * BASIS_5.m
    idx2 = ((1 + params.B) * n_v + 0) * 3 + 1
    idx3 = ((1 - 5 + params.B) * n_v + 0) * 3 + 2
    assert idx2 == 151 and idx3 == 2
    assert sets[idx2] == sets[idx3]

    with pytest.raises(NotVerified, match="repeats"):
        lift_prime(EX1_SEED, BASIS_5, 1031)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=False,
    reason="the same window/translate collision exists at paper scale; "
           "about 10^6 of the 4.6e12 unordered pairs overlap, so three "
           "10^6-sample rounds accept with probability only ~0.51")
def test_criterion_05_paper_scale_sampling(paper_scale):
    p, fam = paper_scale
    assert fam.n_sets == 3_018_420
    for seed in (0, 1, 2):
        report = sample_verify(fam, 1_000_000, seed=seed)
        assert report.ok, report.violation.describe(fam.plane)


def test_criterion_05_paper_scale_exact_verdict(paper_scale):
    # exact companion of the sampling xfail: the lift carries its
    # translation layout, so verify_local_arc decides all 3,018,420
    # listings from T - T and names the deterministic collision
    p, fam = paper_scale
    report = verify_local_arc(fam)
    assert report.mode == "translation" and not report.ok
    assert report.violation.kind == "overlap"
    assert report.violation.sets == (2, 1512901)


def test_criterion_05_paper_scale_deterministic_collision(paper_scale):
    p, fam = paper_scale
    params = plan_lift(5, BASIS_205, p)
    assert params.B == 204
    n_v = 1
    for i in range(params.t):
        n_v *= len(BASIS_205.A) if i % 2 == 0 else BASIS_205.m
    idx2 = ((1 + params.B) * n_v + 0) * 3 + 1
    idx3 = ((1 - 205 + params.B) * n_v + 0) * 3 + 2
    assert fam.sets[idx2] == fam.sets[idx3]


# --------------------------------------------------------------------------
# criteria 6-8


def test_criterion_06_case1_55_pairs_under_1min(fam_case1):
    seed, fam = fam_case1
    t0 = time.monotonic()
    report = verify_local_arc(fam)
    elapsed = time.monotonic() - t0
    assert fam.n_sets == 55 == 11 * seed.n_sets
    assert fam.plane.q == 121
    assert report.ok
    assert elapsed < 60.0


def test_criterion_07_case2_625_sets_under_10min(fam_case2):
    base, fam = fam_case2
    t0 = time.monotonic()
    report = verify_local_arc(fam)
    elapsed = time.monotonic() - t0
    assert fam.n_sets == 625
    assert fam.plane.q == 625
    assert report.ok
    assert elapsed < 600.0


def test_criterion_08_case3_1640_sets_under_30min(fam_case3):
    seed, fam = fam_case3
    t0 = time.monotonic()
    report = verify_local_arc(fam)
    elapsed = time.monotonic() - t0
    assert fam.n_sets == 1640
    assert fam.plane.q == 68921
    assert report.ok
    assert elapsed < 1800.0


# --------------------------------------------------------------------------
# criterion 9


def test_criterion_09_count_formulas_exact(fam_case1, fam_case2,
                                           fam_case3, paper_scale):
    # criterion 5 listings: |S| * (2B+1) * |A|^(t/2) * m^(t/2)
    params = plan_lift(5, BASIS_5, 1031)
    assert params.t == 2
    listed = lift_prime(EX1_SEED, BASIS_5, 1031, check=False)
    assert listed.n_sets == 3 * (2 * params.B + 1) * 2 * 5
    assert listed.n_sets == 270

    p, lazy = paper_scale
    pp = plan_lift(5, BASIS_205, p)
    assert lazy.n_sets == 3 * (2 * pp.B + 1) * 12 * 205 == 3_018_420

    seed1, c1 = fam_case1
    assert c1.n_sets == 11 * seed1.n_sets  # p translations per set

    base2, c2 = fam_case2
    # t = 2 even, s = 1: p^(5s-3) = p^2 translations per set
    assert c2.n_sets == base2.n_sets * 5 ** 2

    seed3, c3 = fam_case3
    # m = 3 odd, t = 1: F^(t-1) * p^t * |A|^t = 41 * 2
    assert c3.n_sets == seed3.n_sets * 41 * 2


# --------------------------------------------------------------------------
# criterion 10


def test_criterion_10_oracle_equivalence_500_families():
    import random
    from test_arcs import random_perturbed_family

    rng = random.Random(0xACCE9)
    disagreements = 0
    for _ in range(500):
        fam = random_perturbed_family(rng)
        if verify_local_arc(fam).ok != verify_local_arc_oracle(fam).ok:
            disagreements += 1
    assert disagreements == 0


def test_criterion_10_reduce_uniformity_across_suite(fam_case1):
    _, c1 = fam_case1
    # k = 2 families reduce to induced matchings (checked internally)
    for fam in (c1, oval_partition(11, 2), EX1_SEED.as_family()):
        pairs = reduce_uniformity(fam)
        assert len(pairs) == fam.n_sets
    # k >= 3 families reduce to verified (k-1)-uniform families
    for fam in (oval_partition(9, 3), oval_partition(27, 4),
                oval_partition(8, 3), generic_k_arc(4).as_family()):
        smaller = reduce_uniformity(fam)
        assert smaller.k == fam.k - 1
        assert verify_local_arc(smaller).ok


def test_criterion_10_derive_phi_dual_check(fam_case1, fam_case2,
                                            fam_case3):
    fams = [fam_case1[1], fam_case2[1], fam_case3[1],
            EX1_SEED.as_family(),
            oval_partition(9, 3),
            lift_prime(generic_k_arc(2), BASIS_5, 1777)]
    for fam in fams:
        phi, dual_ok = derive_phi(fam)
        assert len(phi) == fam.n_sets
        assert dual_ok, fam.provenance


def test_criterion_10_choose_m1_m2_at_2():
    m1, m2 = choose_M1_M2(2)
    assert abs(m1 - 2.5) <= 1e-6
    assert 4.0 / m2 < 1.0 - 2.0 / m1  # strict


# --------------------------------------------------------------------------
# criterion 11


def test_criterion_11_lower_exponent_piecewise():
    assert lower_exponent(1) == 1.2334
    assert lower_exponent(2) == 1.1167
    assert lower_exponent(3) == pytest.approx(1.1167 - 0.3833 / 3)
    assert lower_exponent(5) == pytest.approx(1.1167 - 0.3833 / 5)
    with pytest.raises(UndefinedCase):
        lower_exponent(4)
    assert lower_exponent(6) == pytest.approx(1.25 - 0.0166 / 6)
    assert lower_exponent(10) == pytest.approx(1.25 - 0.0166 / 10)
    assert lower_exponent(8) == pytest.approx(1.25 - 0.7666 / 8)
    assert lower_exponent(12) == pytest.approx(1.25 - 0.7666 / 12)
