"""Affine flats in R^4 and exact incidence classification.

Lines, 2-flats and hyperplanes are stored in a canonical form, so
structural equality coincides with geometric equality and the objects
hash consistently for deduplication.

The canonical fields are `fractions.Fraction`: they are the API and the
file format.  The predicates (line/2-flat classification, coplanarity of
two lines, cohyperplanarity of two 2-flats) run on primitive integer
forms of each object, computed once and cached: a line as base P/m plus
an integer direction, a 2-flat as two integer equations N.x = c.  Every
decision is an exact Python-int determinant or dot product; `Fraction`
appears again only in a reported incidence location.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactpoly import ONE, ZERO, rat

Point4 = tuple[Fraction, Fraction, Fraction, Fraction]
IntVec = tuple[int, ...]


class IdenticalLinesError(ValueError):
    """span_flat2_of_lines needs two distinct lines."""


class InvariantViolationError(ValueError):
    """A flat failed its structural invariants (zero direction, dependent span...)."""


def vec(values) -> Point4:
    out = tuple(rat(v) for v in values)
    if len(out) != 4:
        raise InvariantViolationError(f"expected 4 coordinates, got {len(out)}")
    return out


def vdot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def vsub(a, b) -> Point4:
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b) -> Point4:
    return tuple(x + y for x, y in zip(a, b))


def vscale(a, k) -> Point4:
    k = rat(k)
    return tuple(x * k for x in a)


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def matrix_rank(rows) -> int:
    return len(rref([list(map(rat, row)) for row in rows])[0])


# ---------------------------------------------------------------------------
# Integer kernel: primitive vectors and small minors
# ---------------------------------------------------------------------------

def _common_denominator(values) -> tuple[int, IntVec]:
    """(m, m*values) with m > 0 the least common denominator of `values`."""
    m = math.lcm(*(x.denominator for x in values))
    return m, tuple(x.numerator * (m // x.denominator) for x in values)


def _primitive(values: IntVec) -> IntVec | None:
    """`values` divided by their gcd, first nonzero entry positive; None
    for the zero vector."""
    g = math.gcd(*values)
    if g == 0:
        return None
    if next(x for x in values if x) < 0:
        g = -g
    return tuple(x // g for x in values)


def _primitive_ints(values) -> IntVec:
    return _primitive(_common_denominator(values)[1])


_PAIRS4 = tuple(itertools.combinations(range(4), 2))


def _minors2(a, b) -> IntVec:
    """The six 2x2 minors a_i b_j - a_j b_i (i < j) of two 4-vectors."""
    return tuple(a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS4)


def independent(u, v) -> bool:
    """Whether two 4-vectors are linearly independent (a 2x2 minor is nonzero)."""
    return any(_minors2(u, v))


def _minors3(w, p: IntVec) -> IntVec:
    """The four 3x3 minors of [a; b; w] from the 2x2 minors p of [a; b]."""
    p01, p02, p03, p12, p13, p23 = p
    return (
        w[0] * p12 - w[1] * p02 + w[2] * p01,
        w[0] * p13 - w[1] * p03 + w[3] * p01,
        w[0] * p23 - w[2] * p03 + w[3] * p02,
        w[1] * p23 - w[2] * p13 + w[3] * p12,
    )


# ---------------------------------------------------------------------------
# Flat types (canonical on construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line4:
    """Affine line: base + t*direction.

    Canonical: direction scaled so its first nonzero coordinate is 1 and
    the base's coordinate at that pivot is 0.
    """

    base: Point4
    direction: Point4

    def __init__(self, base, direction):
        b, d = vec(base), vec(direction)
        if is_zero_vec(d):
            raise InvariantViolationError("line direction must be nonzero")
        pivot = next(i for i, x in enumerate(d) if x != 0)
        d = vscale(d, ONE / d[pivot])
        b = vsub(b, vscale(d, b[pivot]))
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "direction", d)

    def point_at(self, t) -> Point4:
        return vadd(self.base, vscale(self.direction, t))

    @cached_property
    def integer_form(self) -> tuple[IntVec, IntVec, int]:
        """(d, P, m): primitive integer direction d, and the base as P/m
        with integer P and m > 0."""
        m, p = _common_denominator(self.base)
        return _primitive_ints(self.direction), p, m

    def contains_point(self, p) -> bool:
        diff = vsub(vec(p), self.base)
        pivot = next(i for i, x in enumerate(self.direction) if x != 0)
        t = diff[pivot] / self.direction[pivot]
        return diff == vscale(self.direction, t)


@dataclass(frozen=True)
class Flat2:
    """Affine 2-flat: base + a*u + b*v.

    Canonical: (u, v) replaced by the reduced row echelon basis of their
    span, base reduced to have zeros at both pivot coordinates.
    """

    base: Point4
    u: Point4
    v: Point4

    def __init__(self, base, u, v):
        b = vec(base)
        rows, pivots = rref([list(vec(u)), list(vec(v))])
        if len(rows) != 2:
            raise InvariantViolationError("2-flat spanning vectors must be independent")
        r1, r2 = (tuple(r) for r in rows)
        b = vsub(b, vadd(vscale(r1, b[pivots[0]]), vscale(r2, b[pivots[1]])))
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "u", r1)
        object.__setattr__(self, "v", r2)

    def point_at(self, a, b) -> Point4:
        return vadd(self.base, vadd(vscale(self.u, a), vscale(self.v, b)))

    @cached_property
    def equations(self) -> tuple[tuple[IntVec, int], tuple[IntVec, int]]:
        """Two primitive integer equations (N, c), N.x = c, cutting out
        the flat: one kernel vector of the span per free column of the
        reduced basis (u, v), scaled to coprime integers."""
        pivots = [next(i for i, x in enumerate(r) if x != 0) for r in (self.u, self.v)]
        out = []
        for free in (i for i in range(4) if i not in pivots):
            normal = [ZERO] * 4
            normal[free] = ONE
            for r, p in zip((self.u, self.v), pivots):
                normal[p] = -r[free]
            row = _primitive_ints((*normal, vdot(normal, self.base)))
            out.append((row[:4], row[4]))
        return tuple(out)

    @cached_property
    def integer_form(self) -> tuple[IntVec, IntVec, IntVec, int]:
        """(u, v, P, m): primitive integer spanning vectors, and the base
        as P/m with integer P and m > 0."""
        m, p = _common_denominator(self.base)
        return _primitive_ints(self.u), _primitive_ints(self.v), p, m

    def contains_point(self, p) -> bool:
        p = vec(p)
        return all(vdot(n, p) == c for n, c in self.equations)


@dataclass(frozen=True)
class Hyperplane3:
    """Affine hyperplane {x : normal . x = offset}; first nonzero normal
    coordinate scaled to 1."""

    normal: Point4
    offset: Fraction

    def __init__(self, normal, offset):
        n = vec(normal)
        if is_zero_vec(n):
            raise InvariantViolationError("hyperplane normal must be nonzero")
        pivot = next(i for i, x in enumerate(n) if x != 0)
        scale = ONE / n[pivot]
        object.__setattr__(self, "normal", vscale(n, scale))
        object.__setattr__(self, "offset", rat(offset) * scale)

    def contains_point(self, p) -> bool:
        return vdot(self.normal, vec(p)) == self.offset


# ---------------------------------------------------------------------------
# Incidence classification
# ---------------------------------------------------------------------------

class IncidenceKind(enum.Enum):
    DISJOINT = "disjoint"
    POINT = "point"
    CONTAINED = "contained"


@dataclass(frozen=True)
class IncidenceOutcome:
    kind: IncidenceKind
    location: Point4 | None = None


def classify_line_flat2(ln: Line4, fl: Flat2) -> IncidenceOutcome:
    """Exact outcome of intersecting a line with a 2-flat in R^4.

    With the line as P/m + t*d and the flat as N_k.x = c_k (k = 0, 1),
    the line meets equation k where t*a_k = b_k/m, with a_k = N_k.d and
    b_k = m*c_k - N_k.P.  a = 0 means d is parallel to the flat: the line
    lies inside when b = 0 and misses it otherwise.  With a != 0 both
    equations agree on one t exactly when a_0*b_1 - a_1*b_0 = 0 (POINT,
    located at that t); otherwise the line misses the flat (DISJOINT).
    """
    d, p, m = ln.integer_form
    (n0, c0), (n1, c1) = fl.equations
    a0, a1 = vdot(n0, d), vdot(n1, d)
    b0, b1 = m * c0 - vdot(n0, p), m * c1 - vdot(n1, p)
    if a0 == 0 and a1 == 0:
        if b0 == 0 and b1 == 0:
            return IncidenceOutcome(IncidenceKind.CONTAINED)
        return IncidenceOutcome(IncidenceKind.DISJOINT)
    if a0 * b1 != a1 * b0:
        return IncidenceOutcome(IncidenceKind.DISJOINT)
    a, b = (a0, b0) if a0 else (a1, b1)
    # P/m + (b/(m*a))*d, coordinate by coordinate.
    location = tuple(Fraction(x * a + b * y, m * a) for x, y in zip(p, d))
    return IncidenceOutcome(IncidenceKind.POINT, location)


def line_in_flat2(ln: Line4, fl: Flat2) -> bool:
    return classify_line_flat2(ln, fl).kind is IncidenceKind.CONTAINED


def flat2_in_hyperplane(fl: Flat2, h: Hyperplane3) -> bool:
    return (
        vdot(h.normal, fl.base) == h.offset
        and vdot(h.normal, fl.u) == 0
        and vdot(h.normal, fl.v) == 0
    )


def _offset(l1: Line4, l2: Line4) -> IntVec:
    """m1*m2 times base2 - base1, as the integer vector m1*P2 - m2*P1."""
    _, p1, m1 = l1.integer_form
    _, p2, m2 = l2.integer_form
    return tuple(m1 * y - m2 * x for x, y in zip(p1, p2))


def coplanar_key(l1: Line4, l2: Line4) -> IntVec | None:
    """Canonical integer key of the 2-flat spanned by two lines, or None
    when they are skew.

    The lines are skew unless all four 3x3 minors of [d1; d2; w], with
    w = m1*P2 - m2*P1, vanish.  The key is the primitive, sign-normalised
    Pluecker vector (the ten 3x3 minors) of the homogenised rows
    (m1 | P1), (0 | d1), (0 | d2) of the flat, with (0 | w) in place of
    (0 | d2) for parallel lines.  Every pair of lines in one 2-flat gets
    the same key.
    """
    d1, p1, m1 = l1.integer_form
    d2 = l2.integer_form[0]
    w = _offset(l1, l2)
    p = _minors2(d1, d2)
    if any(_minors3(w, p)):
        return None
    if not any(p):
        p = _minors2(d1, w)
    key = _primitive((*(m1 * x for x in p), *_minors3(p1, p)))
    if key is None:
        raise IdenticalLinesError("identical lines span no unique 2-flat")
    return key


def span_flat2_of_lines(l1: Line4, l2: Line4) -> Flat2 | None:
    """The unique 2-flat containing both lines, or None when they are skew.

    Intersecting and parallel pairs are both coplanar; identical lines
    are rejected since they span no unique 2-flat.
    """
    if l1 == l2:
        raise IdenticalLinesError("identical lines span no unique 2-flat")
    p = _minors2(l1.integer_form[0], l2.integer_form[0])
    if any(_minors3(_offset(l1, l2), p)):
        return None
    if any(p):
        return Flat2(l1.base, l1.direction, l2.direction)
    # Parallel distinct lines: diff leaves the common direction.
    return Flat2(l1.base, l1.direction, vsub(l2.base, l1.base))


def cohyperplanar_key(f1: Flat2, f2: Flat2) -> IntVec | None:
    """(normal, offset) of the unique hyperplane containing both 2-flats,
    as a primitive integer 5-tuple with the first nonzero normal entry
    positive, or None when their affine hull is all of R^4.

    f1's equations map R^4 modulo f1's directions onto R^2, so the hull
    has dimension 2 + rank M, where M is the 2x3 integer matrix of
    N_k.u2, N_k.v2 and N_k.P2 - m2*c_k (m2 times the offset of f2's base
    from f1).  Rank 1 means one hyperplane: the combination
    s1*(N_0 | c_0) - s0*(N_1 | c_1) of f1's equations that vanishes on a
    nonzero column (s0, s1) of M.  Rank 0 means f2 = f1.
    """
    u, v, p, m = f2.integer_form
    (n0, c0), (n1, c1) = f1.equations
    columns = [
        (vdot(n0, u), vdot(n1, u)),
        (vdot(n0, v), vdot(n1, v)),
        (vdot(n0, p) - m * c0, vdot(n1, p) - m * c1),
    ]
    nonzero = [col for col in columns if any(col)]
    if not nonzero:
        raise InvariantViolationError("identical 2-flats span no unique hyperplane")
    s0, s1 = nonzero[0]
    if any(s0 * t1 - s1 * t0 for t0, t1 in nonzero[1:]):
        return None
    return _primitive(tuple(s1 * x - s0 * y for x, y in zip((*n0, c0), (*n1, c1))))


def hyperplane_of_flat2_pair(f1: Flat2, f2: Flat2) -> Hyperplane3 | None:
    """The unique hyperplane containing both 2-flats, or None when their
    affine hull is all of R^4."""
    key = cohyperplanar_key(f1, f2)
    return None if key is None else Hyperplane3(key[:4], key[4])
