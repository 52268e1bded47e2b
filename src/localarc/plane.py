"""Two presentations of the projective plane PG(2, q) over GF(q).

Points and lines are plain integer ids in [0, q^2 + q + 1); id order is the
canonical order used everywhere else in the package.

Homogeneous presentation (any q): a point is a projective triple
(x0 : x1 : x2), a line a triple <l0 : l1 : l2>, incidence is a vanishing dot
product.  Triples are normalised so the first nonzero coordinate is 1 and
packed as

    (1 : u : v)  -> u*q + v        (0 : 1 : c) -> q^2 + c      (0:0:1) -> q^2 + q

with the same layout for lines.

Planar presentation (odd q): affine points (x, y), slope points (z) and one
extra point (inf); lines [a, b], verticals [c] and one line [inf].  A point
(x, y) lies on [a, b] when y - b = (x - a)^2, on [c] when x = c; a slope
point (z) lies on [a, b] when z = a and on [inf]; (inf) lies on every [c]
and on [inf].  Ids follow the same packing, affine first, then slopes, then
the extra point.  The quadratic incidence rule needs 2 to be invertible, so
this presentation refuses characteristic 2.

Both presentations describe the same abstract plane.  The one map between
them is the point map

    (x, y) -> (1 : x : y - x^2)     (z) -> (0 : 1 : -2z)     (inf) -> (0 : 0 : 1)

(``Plane.coords`` of a planar id, inverted by convert_point), which
carries one incidence relation exactly onto the other.  Lines follow by
``join``: convert_line carries two points of the line and joins them.
"""

from __future__ import annotations

from localarc.gf import Field, factor_prime_power, make_field

__all__ = [
    "EvenCharPlanar",
    "Plane",
    "make_plane",
    "convert_point",
    "convert_line",
]


class EvenCharPlanar(ValueError):
    """The planar presentation is undefined in characteristic 2."""


def _as_field(field_or_q) -> Field:
    if isinstance(field_or_q, Field):
        return field_or_q
    return make_field(*factor_prime_power(int(field_or_q)))


def _planar_closures(field: Field):
    q = field.q
    q2 = q * q
    ILINE = q2 + q
    IPT = q2 + q
    add, sub, mul, inv, neg = (field.add, field.sub, field.mul, field.inv,
                               field.neg)
    two = 2 % field.p
    inv2 = inv(two)

    def join(u, v):
        # distinct point ids -> id of the unique common line
        if u > v:
            u, v = v, u
        if u >= q2:
            return ILINE
        x0, y0 = divmod(u, q)
        if v < q2:
            x1, y1 = divmod(v, q)
            if x0 == x1:
                return q2 + x0
            s = mul(sub(y0, y1), inv(sub(x0, x1)))
            a = mul(sub(add(x0, x1), s), inv2)
            d = sub(x0, a)
            return a * q + sub(y0, mul(d, d))
        if v == IPT:
            return q2 + x0
        z = v - q2
        d = sub(x0, z)
        return z * q + sub(y0, mul(d, d))

    def incident(pid, lid):
        if lid < q2:
            a, b = divmod(lid, q)
            if pid < q2:
                x, y = divmod(pid, q)
                d = sub(x, a)
                return sub(y, b) == mul(d, d)
            if pid < IPT:
                return pid - q2 == a
            return False
        if lid < ILINE:
            c = lid - q2
            if pid < q2:
                return pid // q == c
            return pid == IPT
        return pid >= q2

    def points_on(lid):
        if lid < q2:
            a, b = divmod(lid, q)
            pts = [x * q + add(b, mul(sub(x, a), sub(x, a))) for x in range(q)]
            pts.append(q2 + a)
            return tuple(pts)
        if lid < ILINE:
            c = lid - q2
            return tuple(c * q + y for y in range(q)) + (IPT,)
        return tuple(range(q2, q2 + q + 1))

    def dual(i):
        # the polarity (x, y) <-> [x, -y], (z) <-> [z], (inf) <-> [inf]:
        # (x, y) lies on [a, b] exactly when (a, -b) lies on [x, -y]
        if i >= q2:
            return i
        x, y = divmod(i, q)
        return x * q + neg(y)

    def meet(u, v):
        return dual(join(dual(u), dual(v)))

    def lines_through(pid):
        return tuple(map(dual, points_on(dual(pid))))

    def coords(pid):
        # (x, y) -> (1 : x : y - x^2), (z) -> (0 : 1 : -2z), (inf) -> (0 : 0 : 1)
        if pid < q2:
            x, y = divmod(pid, q)
            return 1, x, sub(y, mul(x, x))
        if pid < IPT:
            return 0, 1, neg(mul(two, pid - q2))
        return 0, 0, 1

    return join, meet, incident, points_on, lines_through, coords, dual


def _homog_closures(field: Field):
    q = field.q
    q2 = q * q
    LAST = q2 + q
    add, sub, mul, inv, neg = field.add, field.sub, field.mul, field.inv, field.neg

    def unpack(i):
        if i < q2:
            return 1, i // q, i % q
        if i < LAST:
            return 0, 1, i - q2
        return 0, 0, 1

    def pack(c0, c1, c2):
        if c0:
            if c0 != 1:
                t = inv(c0)
                c1 = mul(c1, t)
                c2 = mul(c2, t)
            return c1 * q + c2
        if c1:
            if c1 != 1:
                c2 = mul(c2, inv(c1))
            return q2 + c2
        return LAST

    def cross(u, v):
        a0, a1, a2 = unpack(u)
        b0, b1, b2 = unpack(v)
        return pack(
            sub(mul(a1, b2), mul(a2, b1)),
            sub(mul(a2, b0), mul(a0, b2)),
            sub(mul(a0, b1), mul(a1, b0)),
        )

    def incident(pid, lid):
        x0, x1, x2 = unpack(pid)
        l0, l1, l2 = unpack(lid)
        return add(add(mul(x0, l0), mul(x1, l1)), mul(x2, l2)) == 0

    def solutions(tid):
        # all ids whose triple is orthogonal to the triple of tid
        l0, l1, l2 = unpack(tid)
        if l2:
            t = neg(inv(l2))
            out = [u * q + mul(t, add(l0, mul(l1, u))) for u in range(q)]
            out.append(q2 + mul(t, l1))
            return tuple(sorted(out))
        if l1:
            u = neg(mul(l0, inv(l1)))
            return tuple(u * q + v for v in range(q)) + (LAST,)
        return tuple(range(q2, q2 + q + 1))

    # the polarity (x0 : x1 : x2) <-> <x0 : x1 : x2> keeps every id
    return cross, cross, incident, solutions, solutions, unpack, lambda i: i


class Plane:
    """PG(2, q) in one presentation, with closure-based incidence kernels.

    ``coords(pid)`` is the point's normalised homogeneous triple (first
    nonzero coordinate 1), the same in both presentations: the image
    under the module docstring's point map for a planar id, the packed
    triple for a homogeneous one.  ``dual(i)`` swaps points and lines by
    a polarity that keeps incidence,
    ``incident(p, l) == incident(dual(l), dual(p))``, so ``meet`` and
    ``lines_through`` are ``join`` and ``points_on`` seen through it.
    """

    def __init__(self, field: Field, kind: str = "planar"):
        if kind not in ("planar", "homogeneous"):
            raise ValueError(f"unknown presentation {kind!r}")
        if kind == "planar" and field.p == 2:
            raise EvenCharPlanar("planar presentation needs odd characteristic")
        self.field = field
        self.kind = kind
        self.q = field.q
        self.n_points = self.q * self.q + self.q + 1
        self.n_lines = self.n_points
        build = _planar_closures if kind == "planar" else _homog_closures
        (self.join, self.meet, self.incident, self.points_on,
         self.lines_through, self.coords, self.dual) = build(field)
        self.infinity_point = self.q * self.q + self.q
        self._line_brackets = "[]" if kind == "planar" else "<>"

    def conic(self) -> list[int]:
        """Ids of the conic x1^2 = x0 x2: (1 : t : t^2) in t order, then
        (0 : 0 : 1), planar (t, 2t^2) and (inf); for even q then the
        nucleus (0 : 1 : 0), completing a hyperoval."""
        f, q = self.field, self.q
        pts = []
        for t in range(q):
            s = f.mul(t, t)
            # the planar (x, y) is (1 : x : y - x^2)
            pts.append(t * q + (f.add(s, s) if self.kind == "planar" else s))
        pts.append(self.infinity_point)
        if q % 2 == 0:
            pts.append(q * q)
        return pts

    # -- literals -------------------------------------------------------------
    #
    # Field elements print as plain residues over prime fields and as
    # little-endian coefficient arrays over extension fields, e.g. the
    # GF(9) element with encoding 5 prints as [2,1].

    def _fmt(self, enc: int) -> str:
        f = self.field
        if f.m == 1:
            return str(enc)
        return "[" + ",".join(map(str, f.coeffs(enc))) + "]"

    def _parse_elem(self, token: str) -> int:
        f = self.field
        token = token.strip()
        if f.m == 1:
            e = int(token)
            if not 0 <= e < f.p:
                raise ValueError(f"residue {e} outside [0, {f.p})")
            return e
        if not (token.startswith("[") and token.endswith("]")):
            raise ValueError(f"expected a coefficient array, got {token!r}")
        digits = [int(t) for t in token[1:-1].split(",")]
        if len(digits) != f.m or not all(0 <= d < f.p for d in digits):
            raise ValueError(f"bad coefficient array {token!r}")
        return f.from_coeffs(digits)

    def _literal(self, i: int, brackets: str) -> str:
        q, q2 = self.q, self.q * self.q
        if self.kind == "homogeneous":
            body = ":".join(map(self._fmt, self.coords(i)))
        elif i < q2:
            body = f"{self._fmt(i // q)},{self._fmt(i % q)}"
        elif i < q2 + q:
            body = self._fmt(i - q2)
        else:
            body = "inf"
        return brackets[0] + body + brackets[1]

    def point_str(self, pid: int) -> str:
        return self._literal(pid, "()")

    def line_str(self, lid: int) -> str:
        return self._literal(lid, self._line_brackets)

    @staticmethod
    def _split_top(body: str, sep: str) -> list[str]:
        # split on sep at bracket depth 0 only
        parts, depth, cur = [], 0, []
        for ch in body:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == sep and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        return parts

    def _parse(self, s: str, brackets: str) -> int:
        s = s.strip()
        if not (s.startswith(brackets[0]) and s.endswith(brackets[1])):
            raise ValueError(f"cannot parse {s!r}")
        body = s[1:-1].strip()
        q, q2 = self.q, self.q * self.q
        if self.kind == "planar":
            if body == "inf":
                return q2 + q
            parts = self._split_top(body, ",")
            if len(parts) == 1:
                return q2 + self._parse_elem(parts[0])
            if len(parts) == 2:
                return self._parse_elem(parts[0]) * q + self._parse_elem(parts[1])
            raise ValueError(f"cannot parse {s!r}")
        parts = [self._parse_elem(t) for t in body.split(":")]
        if len(parts) != 3:
            raise ValueError(f"cannot parse {s!r}")
        c0, c1, c2 = parts
        if c0 == 1:
            return c1 * q + c2
        if c0 == 0 and c1 == 1:
            return q2 + c2
        if c0 == 0 and c1 == 0 and c2 == 1:
            return q2 + q
        raise ValueError(f"{s!r} is not normalised (first nonzero must be 1)")

    def parse_point(self, s: str) -> int:
        return self._parse(s, "()")

    def parse_line(self, s: str) -> int:
        return self._parse(s, self._line_brackets)

    def __repr__(self):
        return f"Plane(q={self.q}, {self.kind})"


def make_plane(field_or_q, kind: str = "planar") -> Plane:
    return Plane(_as_field(field_or_q), kind)


def _check_pair(src: Plane, dst: Plane) -> bool:
    # whether the ids need carrying; a planar plane has odd characteristic
    if src.field is not dst.field:
        raise ValueError("presentations over different fields")
    return src.kind != dst.kind


def convert_point(src: Plane, dst: Plane, pid: int) -> int:
    """Carry a point id between the two presentations of the same plane."""
    if not _check_pair(src, dst):
        return pid
    f = src.field
    q, q2 = src.q, src.q * src.q
    if src.kind == "planar":
        c0, c1, c2 = src.coords(pid)
        if c0:
            return c1 * q + c2
        return q2 + c2 if c1 else q2 + q
    if pid < q2:
        u, v = divmod(pid, q)
        return u * q + f.add(v, f.mul(u, u))
    if pid < q2 + q:
        c = pid - q2
        half = f.inv(2 % f.p)
        return q2 + f.neg(f.mul(c, half))
    return q2 + q


def convert_line(src: Plane, dst: Plane, lid: int) -> int:
    """Carry a line id between the two presentations of the same plane.

    Lines 0, q^2 and q^2 + q are the sides of a triangle in both
    presentations, so the line meets the sides other than itself in at
    least two distinct points; their images span the image line.
    """
    if not _check_pair(src, dst):
        return lid
    q2 = src.q * src.q
    u, v, *_ = {src.meet(lid, side) for side in (0, q2, q2 + src.q)
                if side != lid}
    return dst.join(convert_point(src, dst, u), convert_point(src, dst, v))
