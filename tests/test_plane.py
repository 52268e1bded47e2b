from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localarc.gf import make_field
from localarc.plane import EvenCharPlanar, convert_line, convert_point, make_plane

PLANES = {
    "planar3": make_plane(3, "planar"),
    "planar5": make_plane(5, "planar"),
    "planar9": make_plane(9, "planar"),
    "homog4": make_plane(4, "homogeneous"),
    "homog5": make_plane(5, "homogeneous"),
    "homog9": make_plane(9, "homogeneous"),
}


@pytest.mark.parametrize("name", sorted(PLANES))
def test_projective_axioms(name):
    pl = PLANES[name]
    n = pl.n_points
    assert n == pl.q * pl.q + pl.q + 1
    for u, v in combinations(range(n), 2):
        common = set(pl.lines_through(u)) & set(pl.lines_through(v))
        assert len(common) == 1
        assert pl.join(u, v) == pl.join(v, u)
        assert pl.join(u, v) in common
    for l1, l2 in combinations(range(n), 2):
        common = set(pl.points_on(l1)) & set(pl.points_on(l2))
        assert len(common) == 1
        assert pl.meet(l1, l2) in common


@pytest.mark.parametrize("name", sorted(PLANES))
def test_line_and_pencil_sizes(name):
    pl = PLANES[name]
    for t in range(pl.n_points):
        pts = pl.points_on(t)
        lns = pl.lines_through(t)
        assert len(pts) == len(set(pts)) == pl.q + 1
        assert len(lns) == len(set(lns)) == pl.q + 1
        assert all(pl.incident(p, t) for p in pts)
        assert all(pl.incident(t, l) for l in lns)


def test_total_incidence_count():
    for name in ("planar5", "homog5"):
        pl = PLANES[name]
        n = pl.n_points
        flags = sum(
            pl.incident(p, l) for p in range(n) for l in range(n)
        )
        assert flags == n * (pl.q + 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
def test_presentation_conversion_is_an_isomorphism(q):
    pl = make_plane(q, "planar")
    ph = make_plane(q, "homogeneous")
    n = pl.n_points
    fp = [convert_point(pl, ph, i) for i in range(n)]
    fl = [convert_line(pl, ph, i) for i in range(n)]
    assert sorted(fp) == list(range(n))
    assert sorted(fl) == list(range(n))
    for i in range(n):
        assert convert_point(ph, pl, fp[i]) == i
        assert convert_line(ph, pl, fl[i]) == i
    for p in range(n):
        row_src = {l for l in range(n) if pl.incident(p, l)}
        row_dst = {l for l in range(n) if ph.incident(fp[p], l)}
        assert {fl[l] for l in row_src} == row_dst


@pytest.mark.parametrize("name", sorted(PLANES))
def test_coords_are_the_homogeneous_triples(name):
    pl = PLANES[name]
    ph = make_plane(pl.field, "homogeneous")
    q, q2 = pl.q, pl.q * pl.q
    unpacked = [(1, i // q, i % q) for i in range(q2)]
    unpacked += [(0, 1, c) for c in range(q)] + [(0, 0, 1)]
    assert [ph.coords(i) for i in range(pl.n_points)] == unpacked
    # normalised triples, one per point, that meet exactly the point's
    # lines (taken through convert_line) pin the coordinates down
    assert sorted(pl.coords(p) for p in range(pl.n_points)) == sorted(unpacked)
    f = pl.field
    for p in range(pl.n_points):
        x = pl.coords(p)
        for l in range(pl.n_lines):
            c = unpacked[convert_line(pl, ph, l)]
            dot = f.add(f.add(f.mul(x[0], c[0]), f.mul(x[1], c[1])),
                        f.mul(x[2], c[2]))
            assert pl.incident(p, l) == (dot == 0)


def test_even_characteristic_rejected_for_planar():
    with pytest.raises(EvenCharPlanar):
        make_plane(4, "planar")
    with pytest.raises(EvenCharPlanar):
        make_plane(2, "planar")
    make_plane(2, "homogeneous")


def test_make_plane_argument_forms():
    f = make_field(3, 2)
    assert make_plane(f, "homogeneous").q == 9
    assert make_plane(9, "planar").q == 9
    with pytest.raises(ValueError):
        make_plane(6)
    with pytest.raises(ValueError):
        make_plane(12, "homogeneous")
    with pytest.raises(ValueError):
        make_plane(5, "affine")


def test_planar_incidence_rules_explicitly():
    pl = make_plane(5, "planar")
    f, q = pl.field, pl.q
    # (x,y) on [a,b] iff y - b = (x - a)^2
    for x in range(5):
        for y in range(5):
            for a in range(5):
                for b in range(5):
                    want = f.sub(y, b) == f.mul(f.sub(x, a), f.sub(x, a))
                    assert pl.incident(x * q + y, a * q + b) == want
    # slope point (z) on [a,b] iff z = a; (inf) on every vertical and [inf]
    for z in range(5):
        for a in range(5):
            for b in range(5):
                assert pl.incident(q * q + z, a * q + b) == (z == a)
        assert pl.incident(q * q + z, q * q + q)
        assert not pl.incident(pl.infinity_point, z * q)
        assert pl.incident(pl.infinity_point, q * q + z)
    assert pl.incident(pl.infinity_point, q * q + q)


def test_squares_set_is_a_line_in_planar_coordinates():
    pl = make_plane(7, "planar")
    f = pl.field
    pts = [x * 7 + f.mul(x, x) for x in range(7)]
    assert {pl.join(u, v) for u, v in combinations(pts, 2)} == {0}  # [0, 0]


@pytest.mark.parametrize("name", sorted(PLANES))
def test_literal_roundtrip(name):
    pl = PLANES[name]
    for i in range(pl.n_points):
        assert pl.parse_point(pl.point_str(i)) == i
        assert pl.parse_line(pl.line_str(i)) == i


# affine or (1 : u : v), slope or (0 : 1 : c), and the last id of each
# plane: prime fields print residues, extension fields coefficient arrays
LITERALS = {
    ("planar", 5): [(23, "(4,3)", "[4,3]"), (28, "(3)", "[3]"),
                    (30, "(inf)", "[inf]")],
    ("planar", 25): [(623, "([4,4],[3,4])", "[[4,4],[3,4]]"),
                     (628, "([3,0])", "[[3,0]]"), (650, "(inf)", "[inf]")],
    ("homogeneous", 4): [
        (14, "([1,0]:[1,1]:[0,1])", "<[1,0]:[1,1]:[0,1]>"),
        (19, "([0,0]:[1,0]:[1,1])", "<[0,0]:[1,0]:[1,1]>"),
        (20, "([0,0]:[0,0]:[1,0])", "<[0,0]:[0,0]:[1,0]>")],
    ("homogeneous", 9): [
        (79, "([1,0]:[2,2]:[1,2])", "<[1,0]:[2,2]:[1,2]>"),
        (84, "([0,0]:[1,0]:[0,1])", "<[0,0]:[1,0]:[0,1]>"),
        (90, "([0,0]:[0,0]:[1,0])", "<[0,0]:[0,0]:[1,0]>")],
}


@pytest.mark.parametrize("kind,q", sorted(LITERALS))
def test_literals_are_pinned(kind, q):
    pl = make_plane(q, kind)
    for i, point, line in LITERALS[(kind, q)]:
        assert (pl.point_str(i), pl.line_str(i)) == (point, line)


def test_literal_rejects_garbage():
    pl = make_plane(5, "planar")
    for bad in ["(5,0)", "(1,2,3)", "[x]", "7", "(-1)", "(0:1:2)"]:
        with pytest.raises(ValueError):
            pl.parse_point(bad)
    ph = make_plane(5, "homogeneous")
    with pytest.raises(ValueError):
        ph.parse_point("(2:1:0)")  # not normalised


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_join_meet_duality(data):
    pl = PLANES[data.draw(st.sampled_from(sorted(PLANES)))]
    n = pl.n_points
    u = data.draw(st.integers(min_value=0, max_value=n - 1))
    v = data.draw(st.integers(min_value=0, max_value=n - 1))
    if u == v:
        return
    l = pl.join(u, v)
    assert pl.incident(u, l) and pl.incident(v, l)
    p = pl.meet(u, v)
    assert pl.incident(p, u) and pl.incident(p, v)


@pytest.mark.parametrize("q", [7, 9])
def test_planar_dual_is_an_incidence_preserving_involution(q):
    pl = make_plane(q, "planar")
    n = pl.n_points
    assert all(pl.dual(pl.dual(i)) == i for i in range(n))
    for p in range(n):
        for l in range(n):
            assert pl.incident(p, l) == pl.incident(pl.dual(l), pl.dual(p))


@pytest.mark.parametrize("q", [4, 5, 9])
def test_conic_is_one_oval_in_both_presentations(q):
    from localarc.arcs import is_arc
    homog = make_plane(q, "homogeneous")
    assert len(homog.conic()) == q + 1 + (q % 2 == 0)
    assert is_arc(homog, homog.conic())
    if q % 2:
        planar = make_plane(q, "planar")
        assert [convert_point(planar, homog, p)
                for p in planar.conic()] == homog.conic()
