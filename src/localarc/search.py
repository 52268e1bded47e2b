"""Exact maximization of k-uniform local arc families in small planes.

Two engines share the same model:

* ``exact_max`` runs a depth-first backtracking search over canonical
  set orderings (sets sorted by their smallest point, points ascending
  inside each set).  Point sets are bit masks over point ids, handed
  down the recursion as arguments, so the search keeps no state to
  undo.  Two rules prune the tree: a line that is a secant of one set
  may meet no other set, so its points go dead for good; and no line
  may carry three points of the union of two sets, so adding a point
  shuts, for the rest of its set, every line through it that already
  holds a chosen point.  The search is deterministic, so node counts
  are reproducible.  It takes q and k plus three optional keywords: a
  budget in seconds (none by default), a symmetry mode (by default the
  first set is pinned for k <= 4, the only k that allows it, and
  nothing is pinned above) and a cap on the set count (by default the
  second-moment bound).

* ``emit_ilp`` writes the equivalent 0/1 integer program in LP text
  format for an external solver, and ``check_certificate`` replays a
  family against every row of that model.

``reproduce_table`` drives ``exact_max`` over the reference table of
known values shipped in ``fixtures/table_small.tsv`` and reports a
per-cell status, distinguishing exactly known cells from lower bounds.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from typing import Iterator, Sequence

from .arcs import LocalArcFamily, NotVerified, verify_local_arc
from .bounds import eml_upper
from .plane import Plane, convert_point, make_plane

__all__ = [
    "SearchResult",
    "CellResult",
    "CertificateCheck",
    "exact_max",
    "emit_ilp",
    "parse_lp",
    "check_certificate",
    "reproduce_table",
    "load_reference_table",
]


_SYMMETRY_MODES = ("none", "fix-first-arc")


def _max_arc_size(q: int) -> int:
    return q + 2 if q % 2 == 0 else q + 1


# PGL(3, q) is transitive on frames, so any 4-arc may be moved onto the
# first set; no such argument pins a larger first set
_FIX_FIRST_MAX_K = 4


def _default_symmetry(k: int) -> str:
    return "fix-first-arc" if k <= _FIX_FIRST_MAX_K else "none"


def _check_fix_first(k: int) -> None:
    if k > _FIX_FIRST_MAX_K:
        raise ValueError(f"fix-first-arc pins the first set only for "
                         f"k <= {_FIX_FIRST_MAX_K}, not k = {k}")


@dataclass(frozen=True)
class SearchResult:
    num_sets: int
    certificate: LocalArcFamily | None
    optimal: bool
    nodes: int
    elapsed: float
    cap: int


class _Timeout(Exception):
    pass


def _greedy_arc(plane: Plane, k: int) -> list[int]:
    """Smallest k point ids that pairwise span distinct lines.

    Used to pin the first set when symmetry reduction is on.  Greedy
    extension cannot dead-end for k <= 4: any triangle completes to a
    frame.
    """
    n = plane.n_points
    cnt = [0] * plane.n_lines
    arc: list[int] = []
    for pid in range(n):
        if all(cnt[lid] < 2 for lid in plane.lines_through(pid)):
            arc.append(pid)
            for lid in plane.lines_through(pid):
                cnt[lid] += 1
            if len(arc) == k:
                return arc
    raise ValueError(f"no {k}-arc found greedily in PG(2,{plane.q})")


def _require_verified(certificate: LocalArcFamily) -> None:
    """Re-verify a search certificate; NotVerified names the violation."""
    report = verify_local_arc(certificate)
    if not report.ok:
        raise NotVerified("search certificate fails verification: "
                          + report.violation.describe(certificate.plane))


def exact_max(
    q: int,
    k: int,
    *,
    budget: float | None = None,
    symmetry: str | None = None,
    cap: int | None = None,
) -> SearchResult:
    """Maximum number of pairwise-compatible k-sets in PG(2, q).

    Depth-first search over canonical orderings: each new set's
    smallest point exceeds the previous set's smallest point and points
    are placed in ascending order inside a set.  Prunes with bit masks
    of the points still open (see ``_dfs``), remaining-point counts,
    and the cap.  Exhausting the tree (or reaching the cap) proves
    optimality; running out of budget (seconds) returns the incumbent
    with optimal=False.

    cap is an upper bound on the number of sets the search trusts
    without proof; it defaults to the second-moment bound.  Passing a
    smaller unproven value makes the returned ``optimal`` flag mean
    "optimal among families of at most cap sets".  symmetry defaults to
    "fix-first-arc" for k <= 4 and "none" above; asking for
    "fix-first-arc" with k > 4 is a ValueError, since pinning a larger
    first set can miss the optimum.
    """
    if k < 2:
        raise ValueError("uniformity k must be at least 2")
    # written so that a NaN budget, which would never expire, fails it
    if budget is not None and not budget > 0:
        raise ValueError("budget must be positive when given")
    if symmetry is not None and symmetry not in _SYMMETRY_MODES:
        raise ValueError(f"symmetry must be one of {_SYMMETRY_MODES}")
    if symmetry == "fix-first-arc":
        _check_fix_first(k)
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive when given")

    start_time = time.monotonic()
    plane = make_plane(q, kind="homogeneous")
    arc_max = _max_arc_size(q)

    if k > arc_max:
        # no single k-set passes the per-set arc requirement
        return SearchResult(0, None, True, 0,
                            time.monotonic() - start_time, 0)

    hard_cap = eml_upper(k, q).sets
    if 2 * k > arc_max:
        # two disjoint sets would union to an arc larger than any arc
        hard_cap = min(hard_cap, 1)
    eff_cap = hard_cap if cap is None else min(cap, hard_cap)

    if eff_cap <= 1:
        single = sorted(plane.conic())[:k]
        fam = LocalArcFamily(plane, [tuple(single)],
                             provenance=f"search(q={q},k={k})")
        _require_verified(fam)
        return SearchResult(1, fam, True, 0,
                            time.monotonic() - start_time, eff_cap)

    deadline = None if budget is None else start_time + budget
    best_sets, nodes, timed_out = _dfs(
        plane, k, eff_cap, deadline, symmetry or _default_symmetry(k))

    best = len(best_sets)
    certificate = None
    if best:
        certificate = LocalArcFamily(
            plane, [tuple(s) for s in best_sets],
            provenance=f"search(q={q},k={k})")
        _require_verified(certificate)
    optimal = (not timed_out) or best >= eff_cap
    return SearchResult(best, certificate, optimal, nodes,
                        time.monotonic() - start_time, eff_cap)


def _dfs(
    plane: Plane,
    k: int,
    cap: int,
    deadline: float | None,
    symmetry: str,
) -> tuple[list[list[int]], int, bool]:
    """Depth-first search over canonical orderings.

    Returns (best sets, nodes, timed_out).  Point sets are Python ints,
    bit p standing for point p, and every call takes its state as
    arguments, so backing out of a branch undoes nothing: used holds the
    points of the completed sets and of the current one, dead every
    point on a secant of a completed set, and free = ~(used | dead).  A
    point p shuts every line through it that meets used; the current
    set may take exactly free & ~(the shuts of its points), walked in
    ascending order.  A secant of a completed set lies in dead already,
    so shutting it too changes nothing.  The point that completes a set
    shuts nothing; instead every line through two of the set's points
    goes dead, read from a cache of the pairs met so far.  A set's last
    point is walked in the loop of its second-to-last one, and no call
    is made for a point that leaves its set no candidate, so neither
    counts a node nor reads the clock.  A new set starts only while the
    free points from its first point on could still beat the incumbent.
    """
    n = plane.n_points

    def clocked(ids: range) -> Iterator[int]:
        # set-up reads the clock at the nodes' rhythm, every 2,048 ids
        for i in ids:
            if (deadline is not None and i & 2047 == 2047
                    and time.monotonic() > deadline):
                raise _Timeout
            yield i

    # candidates for a set's next point leave room for the rest of it;
    # room[1] holds every point
    room = [(1 << (n - need + 1)) - 1 for need in range(k + 1)]
    # the secant of points a < b, keyed a * n + b, for the pairs met
    secant: dict[int, int] = {}
    best_sets: list[list[int]] = []
    best = nodes = 0
    stop = timed_out = False

    def complete_set(cur: tuple[int, ...], used: int, dead: int,
                     done: tuple[tuple[int, ...], ...]) -> None:
        nonlocal best, best_sets, stop
        done += (cur,)
        if len(done) > best:
            best = len(done)
            best_sets = [list(s) for s in done]
            if best >= cap:
                stop = True
                return
        # the line through two points of the set is a secant of it
        for a, b in combinations(cur, 2):
            key = a * n + b
            try:
                dead |= secant[key]
            except KeyError:
                for lm in star[a]:
                    if lm >> b & 1:
                        secant[key] = lm
                        dead |= lm
                        break
        open_set(cur[0] + 1, used, dead, done)

    def extend_set(lo: int, allowed: int, used: int, dead: int,
                   cur: tuple[int, ...],
                   done: tuple[tuple[int, ...], ...]) -> None:
        nonlocal nodes
        need = k - len(cur)
        cand = (allowed >> lo << lo) & room[need]
        while cand:
            low = cand & -cand
            cand ^= low
            p = low.bit_length() - 1
            nodes += 1
            if (deadline is not None and not nodes & 2047
                    and time.monotonic() > deadline):
                raise _Timeout
            if need == 2:
                # the set's last point is walked here; allowed lies in
                # room[1], and only lines through p that hold a
                # candidate need the shut test
                last = allowed >> p + 1 << p + 1
                for lm in star[p]:
                    if lm & last and lm & used:
                        last &= ~lm
                        if not last:
                            break
                while last:
                    end = last & -last
                    last ^= end
                    nodes += 1
                    if (deadline is not None and not nodes & 2047
                            and time.monotonic() > deadline):
                        raise _Timeout
                    complete_set(cur + (p, end.bit_length() - 1),
                                 used | low | end, dead, done)
                    if stop:
                        return
            elif need == 1:  # k = 2: open_set placed the first point
                complete_set(cur + (p,), used | low, dead, done)
            elif (allowed & room[need - 1]) >> p + 1:
                shut = 0
                for lm in star[p]:
                    if lm & used:
                        shut |= lm
                extend_set(p + 1, allowed & ~shut, used | low, dead,
                           cur + (p,), done)
            if stop:
                return

    def open_set(lo: int, used: int, dead: int,
                 done: tuple[tuple[int, ...], ...]) -> None:
        nonlocal nodes
        m = len(done)
        free = ~(used | dead) & room[1]
        cand = (free >> lo << lo) & room[k]
        while cand:
            low = cand & -cand
            cand ^= low
            s = low.bit_length() - 1
            # ids below s are spoken for, so at most (free ids from s)
            # // k more sets; the bound only tightens as s grows, so
            # non-candidate ids need no test
            if m + (free >> s).bit_count() // k <= best:
                return
            nodes += 1
            if (deadline is not None and not nodes & 2047
                    and time.monotonic() > deadline):
                raise _Timeout
            shut = 0
            for lm in star[s]:
                if lm & used:
                    shut |= lm
            extend_set(s + 1, free & ~shut, used | low, dead, (s,), done)
            if stop:
                return

    try:
        line_mask = [sum(1 << p for p in plane.points_on(lid))
                     for lid in clocked(range(plane.n_lines))]
        star = [tuple(line_mask[lid] for lid in plane.lines_through(p))
                for p in clocked(range(n))]
        if symmetry == "fix-first-arc":
            first = _greedy_arc(plane, k)
            complete_set(tuple(first), sum(1 << p for p in first), 0, ())
        else:
            open_set(0, 0, 0, ())
    except _Timeout:
        timed_out = True
    return best_sets, nodes, timed_out


# ---------------------------------------------------------------------------
# integer programming model


def emit_ilp(q: int, k: int, cap: int | None = None, *,
             fix_first: bool = False) -> str:
    """LP-format text of the 0/1 program whose optimum is exact_max.

    Binary variables P_i_j (point i in set j), L_i_j (line i is a
    secant of set j), M_j (set j used), for 1 <= i <= q^2+q+1 and
    1 <= j <= cap.  Exactly six constraint families: set-usage
    monotonicity, set sizes, per-set arc condition, secant indicators,
    disjointness, and secants avoiding other sets.  With fix_first the
    first set is pinned to a fixed k-arc, which k <= 4 allows.
    """
    if k < 2:
        raise ValueError("uniformity k must be at least 2")
    if fix_first:
        _check_fix_first(k)
    plane = make_plane(q, kind="homogeneous")
    n = plane.n_points
    if cap is None:
        cap = eml_upper(k, q).sets
    if cap < 1:
        raise ValueError("cap must be positive")
    points_on = [plane.points_on(lid) for lid in range(plane.n_lines)]

    out: list[str] = []
    out.append(f"\\ maximum {k}-uniform local arc family in PG(2,{q}), "
               f"cap {cap}")
    out.append("Maximize")
    out.append(" obj: " + " + ".join(f"M_{j}" for j in range(1, cap + 1)))
    out.append("Subject To")

    # ordering: used sets form a prefix
    for j in range(1, cap):
        out.append(f" ord_{j}: M_{j} - M_{j + 1} >= 0")

    # set sizes: k points in set j when M_j = 1, none otherwise
    for j in range(1, cap + 1):
        terms = " + ".join(f"P_{i}_{j}" for i in range(1, n + 1))
        out.append(f" size_{j}: - {k} M_{j} + {terms} = 0")

    # each set meets every line at most twice
    for li in range(1, n + 1):
        row = " + ".join(f"P_{pid + 1}_{{j}}" for pid in points_on[li - 1])
        for j in range(1, cap + 1):
            out.append(f" arc_{li}_{j}: " + row.format(j=j) + " <= 2")

    # L_i_j = 1 exactly when line i holds two points of set j
    for li in range(1, n + 1):
        row = " + ".join(f"P_{pid + 1}_{{j}}" for pid in points_on[li - 1])
        for j in range(1, cap + 1):
            body = row.format(j=j)
            out.append(f" secl_{li}_{j}: - 2 L_{li}_{j} + {body} >= 0")
            out.append(f" secu_{li}_{j}: - 2 L_{li}_{j} + {body} <= 1")

    # sets are pairwise disjoint
    for i in range(1, n + 1):
        terms = " + ".join(f"P_{i}_{j}" for j in range(1, cap + 1))
        out.append(f" disj_{i}: {terms} <= 1")

    # a secant of set j carries no point of any other set
    for li in range(1, n + 1):
        on_line = [pid + 1 for pid in points_on[li - 1]]
        for j in range(1, cap + 1):
            others = " + ".join(
                f"P_{i}_{jj}" for i in on_line
                for jj in range(1, cap + 1) if jj != j)
            out.append(f" avoid_{li}_{j}: {cap} L_{li}_{j} + {others} "
                       f"<= {cap}")

    if fix_first:
        for pid in _greedy_arc(plane, k):
            out.append(f" fix_{pid + 1}: P_{pid + 1}_1 = 1")

    out.append("Binary")
    names: list[str] = []
    for j in range(1, cap + 1):
        names.extend(f"P_{i}_{j}" for i in range(1, n + 1))
        names.extend(f"L_{i}_{j}" for i in range(1, n + 1))
        names.append(f"M_{j}")
    for pos in range(0, len(names), 8):
        out.append(" " + " ".join(names[pos:pos + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*([A-Za-z]\w*)")


def _parse_terms(expr: str) -> dict[str, int]:
    coeffs: dict[str, int] = {}
    for sign, mag, name in _TERM_RE.findall(expr):
        c = int(mag) if mag else 1
        if sign == "-":
            c = -c
        coeffs[name] = coeffs.get(name, 0) + c
    return coeffs


def parse_lp(text: str) -> tuple[
        dict[str, int],
        list[tuple[str, dict[str, int], str, int]],
        set[str]]:
    """Parse LP text produced by emit_ilp.

    Returns (objective coefficients, constraint rows as
    (name, coefficients, sense, rhs), binary variable names).  The
    grammar covers only what emit_ilp writes: integer coefficients and
    one relation per row.
    """
    objective: dict[str, int] = {}
    rows: list[tuple[str, dict[str, int], str, int]] = []
    binaries: set[str] = set()
    section = None
    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        low = line.lower()
        if low in ("maximize", "minimize"):
            section = "obj"
            continue
        if low in ("subject to", "st", "s.t."):
            section = "rows"
            continue
        if low == "binary":
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            expr = line.split(":", 1)[1] if ":" in line else line
            for name, c in _parse_terms(expr).items():
                objective[name] = objective.get(name, 0) + c
        elif section == "rows":
            name, body = line.split(":", 1)
            m = re.search(r"(<=|>=|=)", body)
            if m is None:
                raise ValueError(f"row without relation: {line!r}")
            sense = m.group(1)
            lhs, rhs = body.split(sense, 1)
            rows.append((name.strip(), _parse_terms(lhs), sense,
                         int(rhs.strip())))
        elif section == "bin":
            binaries.update(line.split())
    return objective, rows, binaries


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    objective: int
    failures: tuple[str, ...]


def check_certificate(family: LocalArcFamily, cap: int | None = None,
                      *, text: str | None = None) -> CertificateCheck:
    """Replay a family against every row of the emitted program.

    Builds the natural 0/1 assignment (set membership, secant
    indicators, usage flags) and evaluates each constraint.  Passing
    text reuses an already emitted model; otherwise one is emitted
    with matching q, k and cap.
    """
    plane = family.plane
    q = plane.q
    sets = [tuple(s) for s in family.sets]
    if not sets:
        raise ValueError("empty family has no certificate")
    k = len(sets[0])
    if plane.kind != "homogeneous":
        target = make_plane(q, kind="homogeneous")
        sets = [tuple(sorted(convert_point(plane, target, p) for p in s))
                for s in sets]
        plane = target
    if cap is None:
        cap = max(len(sets), eml_upper(k, q).sets)
    if len(sets) > cap:
        raise ValueError("more sets than the model allows")
    if text is None:
        text = emit_ilp(q, k, cap)

    assign: dict[str, int] = {}
    for j in range(1, cap + 1):
        assign[f"M_{j}"] = 1 if j <= len(sets) else 0
    for j, s in enumerate(sets, start=1):
        for pid in s:
            assign[f"P_{pid + 1}_{j}"] = 1
    for lid in range(plane.n_lines):
        on_line = set(plane.points_on(lid))
        for j, s in enumerate(sets, start=1):
            if len(on_line.intersection(s)) >= 2:
                assign[f"L_{lid + 1}_{j}"] = 1

    objective, rows, _ = parse_lp(text)
    obj_val = sum(c * assign.get(v, 0) for v, c in objective.items())
    failures = []
    for name, coeffs, sense, rhs in rows:
        val = sum(c * assign.get(v, 0) for v, c in coeffs.items())
        ok = (val <= rhs if sense == "<=" else
              val >= rhs if sense == ">=" else val == rhs)
        if not ok:
            failures.append(name)
    return CertificateCheck(not failures, obj_val, tuple(failures))


# ---------------------------------------------------------------------------
# reference table


@dataclass(frozen=True)
class CellResult:
    q: int
    k: int
    found: int
    optimal: bool
    ref_value: int
    ref_exact: bool
    status: str
    nodes: int
    elapsed: float


def load_reference_table() -> dict[tuple[int, int], tuple[int, bool]]:
    """Known maximum family sizes for small q, k.

    Maps (q, k) to (value, exact); exact=False rows are lower bounds.
    """
    text = (resources.files("localarc") / "fixtures" /
            "table_small.tsv").read_text()
    table: dict[tuple[int, int], tuple[int, bool]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("q\t"):
            continue
        qs, ks, vs, es = line.split("\t")
        table[(int(qs), int(ks))] = (int(vs), es == "1")
    return table


def _cell_status(found: int, optimal: bool, ref: int,
                 exact: bool) -> str:
    if exact:
        if optimal:
            return "exact-match" if found == ref else "mismatch"
        return "lower-bound" if found <= ref else "mismatch"
    if found < ref:
        return "lower-bound" if not optimal else "mismatch"
    return "resolves-bound" if optimal else "matches-bound"


def reproduce_table(
    qs: Sequence[int] | None = None,
    ks: Sequence[int] | None = None,
    *,
    budget: float | None = None,
) -> list[CellResult]:
    """Run exact_max over reference cells and report agreement.

    budget applies per cell.  Cells the search cannot finish inside the
    budget come back as lower-bound (or matches-bound when the
    reference itself is only a bound).
    """
    ref = load_reference_table()
    cells = sorted(ref)
    if qs is not None:
        cells = [c for c in cells if c[0] in set(qs)]
    if ks is not None:
        cells = [c for c in cells if c[1] in set(ks)]
    results = []
    for (q, k) in cells:
        value, exact = ref[(q, k)]
        res = exact_max(q, k, budget=budget)
        status = _cell_status(res.num_sets, res.optimal, value, exact)
        results.append(CellResult(q, k, res.num_sets, res.optimal,
                                  value, exact, status, res.nodes,
                                  res.elapsed))
    return results
