"""Exact search, ILP export, and reference-table reproduction."""

from __future__ import annotations

import sys
import time

import pytest

from localarc import search
from localarc.arcs import LocalArcFamily, verify_local_arc
from localarc.bounds import eml_upper
from localarc.plane import Plane, make_plane
from localarc.search import (
    CellResult,
    check_certificate,
    emit_ilp,
    exact_max,
    load_reference_table,
    parse_lp,
    reproduce_table,
    _default_symmetry,
    _dfs,
    _greedy_arc,
    _max_arc_size,
    _Timeout,
)

# proven optima for the small planes (exhaustive cells only)
SMALL_CELLS = [
    (2, 2, 3), (2, 3, 1), (2, 4, 1),
    (3, 2, 4), (3, 3, 1), (3, 4, 1),
    (4, 2, 7), (4, 3, 4), (4, 4, 1), (4, 5, 1), (4, 6, 1),
    (5, 2, 9), (5, 3, 5), (5, 4, 1), (5, 5, 1), (5, 6, 1),
]

Q7_CELLS = [(7, 3, 8), (7, 4, 3), (7, 5, 1), (7, 6, 1), (7, 7, 1), (7, 8, 1)]


@pytest.mark.parametrize("q,k,expected", SMALL_CELLS)
def test_small_plane_optima(q, k, expected):
    res = exact_max(q, k)
    assert res.num_sets == expected
    assert res.optimal
    assert res.certificate is not None or expected == 0
    assert verify_local_arc(res.certificate).ok


@pytest.mark.parametrize("q,k,expected", Q7_CELLS)
def test_q7_row(q, k, expected):
    res = exact_max(q, k)
    assert res.num_sets == expected
    assert res.optimal


def test_q7_k2_budgeted_lower_bound():
    # the (7,2) cell needs hours to close; a short run still reaches
    # the true value 13 and reports it as unproven
    res = exact_max(7, 2, budget=1)
    assert 10 <= res.num_sets <= 13
    assert res.num_sets <= res.cap == 15
    if not res.optimal:
        assert res.certificate is not None
    assert verify_local_arc(res.certificate).ok


def test_certificate_canonical_order():
    res = exact_max(5, 3)
    mins = [min(s) for s in res.certificate.sets]
    assert mins == sorted(set(mins))


def test_num_sets_below_eml_cap():
    for (q, k, _) in SMALL_CELLS + Q7_CELLS:
        res = exact_max(q, k)
        assert res.num_sets <= eml_upper(k, q).sets


def test_uniformity_monotone():
    # dropping one point from every set keeps the family valid, so the
    # optimum cannot grow with k
    by_cell = {(q, k): v for (q, k, v) in SMALL_CELLS + Q7_CELLS}
    for (q, k), v in by_cell.items():
        prev = by_cell.get((q, k - 1))
        if prev is not None:
            assert prev >= v


def test_deterministic_nodes_and_certificate():
    r1 = exact_max(5, 3)
    r2 = exact_max(5, 3)
    assert r1.nodes == r2.nodes
    assert r1.certificate.sets == r2.certificate.sets


def test_symmetry_modes_agree():
    for (q, k, expected) in [(2, 2, 3), (3, 2, 4), (4, 3, 4), (5, 3, 5)]:
        none = exact_max(q, k, symmetry="none")
        fixed = exact_max(q, k, symmetry="fix-first-arc")
        assert none.num_sets == fixed.num_sets == expected
        assert none.optimal and fixed.optimal


def test_k_above_max_arc_size_gives_empty():
    res = exact_max(5, 7)  # no 7-arc in PG(2,5)
    assert res.num_sets == 0 and res.optimal


def test_two_k_above_max_arc_gives_singleton():
    res = exact_max(5, 4)  # 2k = 8 > 6, so two sets cannot coexist
    assert res.num_sets == 1 and res.optimal and res.nodes == 0
    assert verify_local_arc(res.certificate).ok


def test_user_cap_limits_search():
    res = exact_max(5, 2, cap=3)
    assert res.num_sets == 3 and res.cap == 3 and res.optimal


def test_config_validation():
    with pytest.raises(ValueError):
        exact_max(5, 1)
    with pytest.raises(ValueError):
        exact_max(5, 2, symmetry="mirror")
    with pytest.raises(ValueError):
        exact_max(5, 2, cap=0)
    with pytest.raises(ValueError):
        exact_max(5, 2, budget=0)
    # a NaN deadline never passes, so the search would run unbounded
    with pytest.raises(ValueError, match="budget must be positive"):
        exact_max(7, 2, budget=float("nan"))
    with pytest.raises(TypeError):
        exact_max(5)


def test_fix_first_arc_is_refused_above_k4():
    # pinning the greedy 6-arc of PG(2,11) leaves no room for a second
    # set, yet the unpinned search finds this verified pair
    plane = make_plane(11, kind="homogeneous")
    pair = [["(1:0:0)", "(1:0:1)", "(1:1:0)", "(1:1:1)", "(1:2:3)",
             "(1:2:9)"],
            ["(1:6:2)", "(1:6:10)", "(1:10:3)", "(1:10:9)", "(0:1:5)",
             "(0:1:6)"]]
    fam = LocalArcFamily(
        plane, [tuple(sorted(map(plane.parse_point, s))) for s in pair])
    assert verify_local_arc(fam).ok
    for q, k in ((11, 6), (7, 5)):
        with pytest.raises(ValueError, match="k <= 4"):
            exact_max(q, k, symmetry="fix-first-arc")
        with pytest.raises(ValueError, match="k <= 4"):
            emit_ilp(q, k, fix_first=True)
    assert _default_symmetry(4) == "fix-first-arc"
    assert _default_symmetry(5) == "none"


def test_greedy_arc_is_arc():
    from localarc.arcs import is_arc
    for q in (2, 3, 4, 5, 7):
        plane = make_plane(q, kind="homogeneous")
        arc = _greedy_arc(plane, 4)
        assert len(arc) == 4 and arc[0] == 0
        assert is_arc(plane, arc)


# ---------------------------------------------------------------------------
# the bit-mask engine against the per-line-tally engine it replaced
#
# reference_dfs is a literal copy of the search engine before point sets
# became bit masks.  The two must walk the same tree: the same incumbent
# families in the same order, the same node count, the same stop.


def reference_dfs(
    plane: Plane,
    k: int,
    cap: int,
    deadline: float | None,
    symmetry: str,
) -> tuple[list[list[int]], int, bool]:
    n = plane.n_points
    lines_through = [plane.lines_through(p) for p in range(n)]

    # per-line tallies: secant of a completed set closes the line; any
    # number of completed sets may hold one point each
    done_sec = bytearray(plane.n_lines)
    done_single = [0] * plane.n_lines
    cur_cnt = [0] * plane.n_lines
    used = bytearray(n)

    sets_acc: list[list[int]] = []
    cur: list[int] = []

    state = {"best": 0, "best_sets": [], "nodes": 0, "stop": False,
             "timed_out": False}

    def can_add(p: int) -> bool:
        for lid in lines_through[p]:
            if done_sec[lid]:
                return False
            c = cur_cnt[lid]
            if c == 2:
                return False
            if c == 1 and done_single[lid]:
                return False
        return True

    def add(p: int) -> None:
        used[p] = 1
        cur.append(p)
        for lid in lines_through[p]:
            cur_cnt[lid] += 1

    def remove(p: int) -> None:
        used[p] = 0
        cur.pop()
        for lid in lines_through[p]:
            cur_cnt[lid] -= 1

    def fold() -> list[tuple[int, int]]:
        journal = []
        for p in cur:
            for lid in lines_through[p]:
                c = cur_cnt[lid]
                if c:
                    journal.append((lid, c))
                    cur_cnt[lid] = 0
                    if c == 2:
                        done_sec[lid] = 1
                    else:
                        done_single[lid] += 1
        sets_acc.append(list(cur))
        return journal

    def unfold(journal: list[tuple[int, int]]) -> None:
        sets_acc.pop()
        for lid, c in journal:
            cur_cnt[lid] = c
            if c == 2:
                done_sec[lid] = 0
            else:
                done_single[lid] -= 1

    def tick() -> None:
        state["nodes"] += 1
        if deadline is not None and state["nodes"] % 2048 == 0:
            if time.monotonic() > deadline:
                state["timed_out"] = True
                raise _Timeout

    def usable_from(start: int) -> int:
        count = 0
        for p in range(start, n):
            if used[p]:
                continue
            if any(done_sec[lid] for lid in lines_through[p]):
                continue
            count += 1
        return count

    def extend_set(lo: int) -> None:
        need = k - len(cur)
        if need == 0:
            complete_set()
            return
        for p in range(lo, n - need + 1):
            if used[p] or not can_add(p):
                continue
            tick()
            add(p)
            extend_set(p + 1)
            remove(p)
            if state["stop"]:
                return

    def complete_set() -> None:
        journal = fold()
        saved = list(cur)
        cur.clear()
        m = len(sets_acc)
        if m > state["best"]:
            state["best"] = m
            state["best_sets"] = [list(s) for s in sets_acc]
            if m >= cap:
                state["stop"] = True
        if not state["stop"]:
            open_set(saved[0] + 1)
        cur.extend(saved)
        unfold(journal)

    def open_set(lo: int) -> None:
        m = len(sets_acc)
        for s in range(lo, n - k + 1):
            # ids below s are spoken for, so at most (n - s) // k more sets
            if m + (n - s) // k <= state["best"]:
                return
            if used[s] or not can_add(s):
                continue
            if m + usable_from(s) // k <= state["best"]:
                return
            tick()
            add(s)
            extend_set(s + 1)
            remove(s)
            if state["stop"]:
                return

    try:
        if symmetry == "fix-first-arc":
            first = _greedy_arc(plane, k)
            for p in first:
                if not can_add(p):
                    raise RuntimeError("the greedy arc does not fit an "
                                       "empty family")
                add(p)
            journal0 = fold()
            cur.clear()
            state["best"] = 1
            state["best_sets"] = [list(first)]
            if cap <= 1:
                state["stop"] = True
            else:
                open_set(first[0] + 1)
            cur.extend(first)
            unfold(journal0)
            for p in reversed(first):
                remove(p)
        else:
            open_set(0)
    except _Timeout:
        pass

    return state["best_sets"], state["nodes"], state["timed_out"]



class _CheckClock:
    """Stands in for the time module: its n-th monotonic() reading is n.

    A search checks the clock every 2,048 nodes, so with deadline N it
    stops at node 2048 * (N + 1) whatever the machine's speed.
    """

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.reads


def _engine_cells(qs):
    for q in qs:
        for k in range(2, 7):
            if k > _max_arc_size(q):
                continue
            for symmetry in ("none", "fix-first-arc"):
                for cap in (None, 3, 5):
                    yield q, k, symmetry, cap


def _engine_cap(q, k, cap):
    hard = eml_upper(k, q).sets
    return hard if cap is None else min(cap, hard)


# q = 7 cells whose tree the reference engine needs minutes or more to
# exhaust; they are compared on a prefix of the tree instead
_OPEN_Q7 = {(7, 2, "none", None), (7, 2, "fix-first-arc", None),
            (7, 4, "none", None), (7, 4, "none", 5),
            (7, 5, "none", None), (7, 5, "none", 3), (7, 5, "none", 5),
            (7, 6, "none", None), (7, 6, "none", 3), (7, 6, "none", 5)}

# q = 8 and 9, fields that are not prime, without symmetry: at k = 2 every
# set completes straight from its first point, at k = 5 and 6 a point
# that leaves its set no candidate makes no call
_Q89_CELLS = [(q, k, "none", cap) for q in (8, 9) for k in (2, 5, 6)
              for cap in (None, 3)]
# these three reach the cap of 3 sets within 15 nodes
_Q89_CLOSING = [(8, 2, "none", 3), (8, 5, "none", 3), (9, 2, "none", 3)]

_CLOSING_CELLS = [c for c in _engine_cells((2, 3, 4, 5, 7))
                  if c not in _OPEN_Q7] + _Q89_CLOSING


@pytest.mark.parametrize("q,k,symmetry,cap", _CLOSING_CELLS)
def test_engine_matches_reference(q, k, symmetry, cap):
    plane = make_plane(q, kind="homogeneous")
    c = _engine_cap(q, k, cap)
    got = _dfs(plane, k, c, None, symmetry)
    want = reference_dfs(plane, k, c, None, symmetry)
    assert got == want
    assert not got[2]


def _compare_prefix(monkeypatch, q, k, symmetry, cap, checks):
    plane = make_plane(q, kind="homogeneous")
    c = _engine_cap(q, k, cap)
    monkeypatch.setattr(search, "time", _CheckClock())
    got = _dfs(plane, k, c, checks, symmetry)
    monkeypatch.setattr(sys.modules[__name__], "time", _CheckClock())
    want = reference_dfs(plane, k, c, checks, symmetry)
    assert got == want
    assert got[1:] == (2048 * (checks + 1), True)


@pytest.mark.parametrize("q,k,symmetry,cap", sorted(_OPEN_Q7, key=str))
def test_engine_matches_reference_on_a_tree_prefix(monkeypatch, q, k,
                                                   symmetry, cap):
    _compare_prefix(monkeypatch, q, k, symmetry, cap, checks=7)


@pytest.mark.parametrize("q,k,symmetry,cap",
                         [c for c in _Q89_CELLS if c not in _Q89_CLOSING])
def test_engine_matches_reference_on_a_short_tree_prefix(monkeypatch, q, k,
                                                         symmetry, cap):
    _compare_prefix(monkeypatch, q, k, symmetry, cap, checks=3)


@pytest.mark.slow
@pytest.mark.parametrize("q,k,symmetry,cap", sorted(_OPEN_Q7, key=str))
def test_engine_matches_reference_on_a_long_tree_prefix(monkeypatch, q, k,
                                                        symmetry, cap):
    _compare_prefix(monkeypatch, q, k, symmetry, cap, checks=99)


def test_engine_deadline_stops_at_the_same_node():
    # a deadline already past stops both engines at the first clock check
    plane = make_plane(5, kind="homogeneous")
    got = _dfs(plane, 4, 3, 0.0, "none")
    want = reference_dfs(plane, 4, 3, 0.0, "none")
    assert got == want
    assert got[1:] == (2048, True)


def test_set_up_reads_the_clock_every_2048_lines(monkeypatch):
    # PG(2, 47) has 2,257 lines, so set-up reads the clock once, at line
    # 2,047, and a deadline already past stops it there
    clock = _CheckClock()
    monkeypatch.setattr(search, "time", clock)
    assert _dfs(make_plane(47, kind="homogeneous"), 3, 5, 0.0,
                "none") == ([], 0, True)
    assert clock.reads == 1


def test_budget_covers_set_up():
    # building the masks of PG(2, 127)'s 16,257 lines alone takes seconds
    start = time.monotonic()
    res = exact_max(127, 3, budget=0.5)
    assert time.monotonic() - start < 2
    assert not res.optimal


# the perfbench search-table cells: (q, k, cap) -> (sets, nodes, family)
BENCH_CELLS = {
    (8, 3, None): (9, 136_547, [
        (0, 1, 8), (9, 20, 22), (10, 39, 63), (12, 43, 59), (14, 33, 42),
        (29, 30, 45), (36, 41, 58), (38, 50, 52), (57, 70, 71)]),
    (9, 4, None): (4, 37_742, [
        (0, 1, 9, 10), (21, 25, 41, 59), (38, 48, 52, 56),
        (39, 61, 86, 88)]),
    (9, 3, 9): (9, 385_236, [
        (0, 1, 9), (10, 21, 22), (11, 29, 35), (14, 40, 87), (15, 75, 80),
        (16, 43, 82), (17, 49, 50), (44, 59, 60), (69, 71, 89)]),
    (11, 3, 10): (10, 10_134, [
        (0, 1, 11), (12, 25, 26), (13, 34, 35), (14, 48, 49), (15, 56, 58),
        (16, 106, 109), (17, 89, 94), (19, 74, 130), (20, 81, 86),
        (21, 114, 115)]),
}


@pytest.mark.parametrize("q,k,cap", sorted(BENCH_CELLS, key=str))
def test_bench_cells_pinned(q, k, cap):
    sets, nodes, family = BENCH_CELLS[(q, k, cap)]
    res = exact_max(q, k, cap=cap)
    assert (res.num_sets, res.optimal, res.nodes) == (sets, True, nodes)
    assert [tuple(s) for s in res.certificate.sets] == family


@pytest.mark.parametrize("q,k,cap", sorted(BENCH_CELLS, key=str))
def test_bench_cells_match_reference_on_a_tree_prefix(monkeypatch, q, k,
                                                      cap):
    _compare_prefix(monkeypatch, q, k, _default_symmetry(k), cap, checks=3)


@pytest.mark.slow
@pytest.mark.parametrize("q,k,cap", sorted(BENCH_CELLS, key=str))
def test_bench_cells_match_reference(q, k, cap):
    plane = make_plane(q, kind="homogeneous")
    c = _engine_cap(q, k, cap)
    symmetry = _default_symmetry(k)
    assert _dfs(plane, k, c, None, symmetry) == reference_dfs(
        plane, k, c, None, symmetry)


# ---------------------------------------------------------------------------
# ILP model


def test_ilp_variable_count_2_2_cap3():
    text = emit_ilp(2, 2, 3)
    _, rows, binaries = parse_lp(text)
    assert len(binaries) == 45  # (2*(q^2+q+1)+1) * cap
    prefixes = {name.split("_")[0] for name, *_ in rows}
    assert prefixes == {"ord", "size", "arc", "secl", "secu", "disj",
                        "avoid"}


def test_ilp_default_cap_is_eml():
    text = emit_ilp(4, 3)
    _, _, binaries = parse_lp(text)
    n = 4 * 4 + 4 + 1
    assert len(binaries) == (2 * n + 1) * eml_upper(3, 4).sets


def test_ilp_fix_first_block():
    text = emit_ilp(4, 3, fix_first=True)
    _, rows, _ = parse_lp(text)
    fixes = [(name, coeffs, sense, rhs) for name, coeffs, sense, rhs
             in rows if name.startswith("fix_")]
    assert len(fixes) == 3
    assert all(sense == "=" and rhs == 1 for _, _, sense, rhs in fixes)


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (4, 3), (5, 3), (7, 4)])
def test_certificates_satisfy_model(q, k):
    res = exact_max(q, k)
    chk = check_certificate(res.certificate)
    assert chk.ok, chk.failures
    assert chk.objective == res.num_sets


def test_certificate_satisfies_fix_first_model():
    res = exact_max(4, 3)  # default symmetry pins the greedy arc as S1
    text = emit_ilp(4, 3, fix_first=True)
    chk = check_certificate(res.certificate, text=text)
    assert chk.ok, chk.failures


def test_tampered_assignment_fails_model():
    from localarc.arcs import LocalArcFamily
    plane = make_plane(2, kind="homogeneous")
    res = exact_max(2, 2)
    sets = [list(s) for s in res.certificate.sets]
    sets[1][0] = sets[0][0]  # break disjointness
    bad = LocalArcFamily(plane, [tuple(sorted(s)) for s in sets])
    chk = check_certificate(bad)
    assert not chk.ok
    assert any(name.startswith(("disj", "arc", "secl", "secu", "avoid"))
               for name in chk.failures)


def test_planar_certificate_converts():
    from localarc.construct import conic_partition_seed, oval_partition
    fam = oval_partition(5, 2)  # planar presentation
    chk = check_certificate(fam)
    assert chk.ok
    assert chk.objective == 3
    # the seed builds GF(7) as make_field(7), the homogeneous target as
    # make_field(7, 1): one field, so the conversion accepts the pair
    chk = check_certificate(conic_partition_seed(7, 2))
    assert chk.ok, chk.failures
    assert chk.objective == 3


def test_milp_solver_agrees_on_small_models():
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import milp, LinearConstraint, Bounds
    from scipy.sparse import lil_matrix

    def solve(text):
        obj, rows, binaries = parse_lp(text)
        names = sorted(binaries)
        idx = {n: i for i, n in enumerate(names)}
        c = np.zeros(len(names))
        for v, coef in obj.items():
            c[idx[v]] = -coef
        A = lil_matrix((len(rows), len(names)))
        lb = np.empty(len(rows))
        ub = np.empty(len(rows))
        for r, (_, coeffs, sense, rhs) in enumerate(rows):
            for v, coef in coeffs.items():
                A[r, idx[v]] = coef
            if sense == "<=":
                lb[r], ub[r] = -np.inf, rhs
            elif sense == ">=":
                lb[r], ub[r] = rhs, np.inf
            else:
                lb[r] = ub[r] = rhs
        res = milp(c=c, constraints=LinearConstraint(A.tocsr(), lb, ub),
                   integrality=np.ones(len(names)), bounds=Bounds(0, 1))
        assert res.status == 0, res.message
        return round(-res.fun)

    assert solve(emit_ilp(2, 2)) == 3
    assert solve(emit_ilp(4, 3, fix_first=True)) == 4


# ---------------------------------------------------------------------------
# reference table


def test_reference_table_shape():
    table = load_reference_table()
    assert table[(2, 2)] == (3, True)
    assert table[(7, 2)] == (13, True)
    assert table[(8, 2)] == (17, False)
    assert table[(9, 3)] == (9, False)
    assert table[(11, 4)] == (7, True)
    assert len(table) == 52
    qs = {q for q, _ in table}
    assert qs == {2, 3, 4, 5, 7, 8, 9, 11}


def test_reproduce_table_small_q():
    results = reproduce_table(qs=(2, 3), budget=60)
    assert all(isinstance(r, CellResult) for r in results)
    assert all(r.status == "exact-match" for r in results)
    assert [(r.q, r.k) for r in results] == [
        (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]


def test_reproduce_table_budgeted_never_mismatches():
    results = reproduce_table(qs=(8,), ks=(2, 4), budget=3)
    for r in results:
        assert r.status != "mismatch", r
        if not r.ref_exact:
            assert r.status in ("matches-bound", "lower-bound")


def test_cell_status_logic():
    from localarc.search import _cell_status
    assert _cell_status(5, True, 5, True) == "exact-match"
    assert _cell_status(4, True, 5, True) == "mismatch"
    assert _cell_status(4, False, 5, True) == "lower-bound"
    assert _cell_status(6, False, 5, True) == "mismatch"
    assert _cell_status(18, False, 17, False) == "matches-bound"
    assert _cell_status(17, True, 17, False) == "resolves-bound"
    assert _cell_status(12, False, 17, False) == "lower-bound"
    assert _cell_status(12, True, 17, False) == "mismatch"


@pytest.mark.slow
def test_q7_k4_exhaustive_without_symmetry():
    # independent confirmation that first-arc fixing loses nothing
    res = exact_max(7, 4, symmetry="none")
    assert res.num_sets == 3 and res.optimal
