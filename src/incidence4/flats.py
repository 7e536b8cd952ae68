"""Affine flats in R^4 and exact incidence classification.

Lines, 2-flats and hyperplanes are stored in a canonical form, so
structural equality coincides with geometric equality and the objects
hash consistently for deduplication.

A `Line4` or `Flat2` stores integers only.  It is built once, in
integers: the inputs are cleared to a base P/m and integer direction
vectors.  A line's direction is made primitive; a 2-flat's reduced row
echelon basis, reduced base and two equations all come from the six
2x2 minors of its spanning vectors, so no elimination runs.  The
primitive integer forms are the stored state: a line as base P/m plus
an integer direction (`integer_form`), a 2-flat as two integer equations
N.x = c (`equations`) plus its basis rows and base (`integer_form`).
Both are canonical, so they are the objects' equality and hash.  The
`Fraction` fields (`base`, `direction`, `u`, `v`) are views of these
forms, built on first read and cached; so is the `location` of a point
incidence, stored as integer numerators over one positive denominator.

The predicates (line/2-flat classification, coplanarity of two lines,
cohyperplanarity of two 2-flats, a 2-flat inside a hyperplane) are
exact Python-int determinants or dot products on the integer forms.

The pair loops reach the predicates through a residue filter
(`candidate_incident_pairs`, `candidate_coplanar_pairs`,
`candidate_cohyperplanar_pairs`).  Each predicate's decisive integers
are bilinear in per-object Pluecker vectors; those are reduced once mod
p = 2^31 - 1, and numpy evaluates the integers mod p over blocks of
pairs.  A nonzero residue proves the integer nonzero and so decides the
pair (DISJOINT, skew, or no common hyperplane); only the other pairs are
yielded to the exact predicates, which remain the only exact deciders.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import common_denominator, rat

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


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Fraction-free Gauss-Jordan elimination (Bareiss): each row is cleared
    to integers, and each pivot p replaces every other row by
    (p*row_i - f*row_r) // prev, where f is the row's entry in the pivot
    column and prev the previous pivot; every division is exact.  Only
    the pivot rows are divided by their pivot, once, at the end.
    """
    m = [list(common_denominator([rat(x) for x in row])[1]) for row in rows]
    pivots: list[int] = []
    r = 0
    prev = 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[col]
        for i, row in enumerate(m):
            if i != r:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)], pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[0])


# ---------------------------------------------------------------------------
# Integer kernel: primitive vectors and small minors
# ---------------------------------------------------------------------------

def leading_entry(row: IntVec) -> int:
    """The first nonzero entry of a nonzero row.  A primitive direction or
    basis row over its leading entry is the canonical `Fraction` row."""
    return next(x for x in row if x)


def _primitive(values: IntVec) -> IntVec | None:
    """`values` divided by their gcd, first nonzero entry positive; None
    for the zero vector."""
    g = math.gcd(*values)
    if g == 0:
        return None
    if leading_entry(values) < 0:
        g = -g
    elif g == 1:
        return values
    return tuple(x // g for x in values)


def _cleared(values) -> tuple[int, IntVec]:
    """(m, m*values): four rationals (ints, Fractions or strings such as
    '-7/2') over their least common denominator m > 0.  Integral values
    (numpy's included) have m = 1 and are only converted to int."""
    values = tuple(values)
    try:
        m, nums = 1, tuple(map(operator.index, values))
    except TypeError:
        m, nums = common_denominator(
            [x if isinstance(x, (int, Fraction)) else rat(x) for x in values]
        )
    if len(nums) != 4:
        raise InvariantViolationError(f"expected 4 coordinates, got {len(nums)}")
    return m, nums


def _reduced(num: IntVec, den: int) -> tuple[IntVec, int]:
    """num/den in lowest terms as (P, m) with m > 0."""
    if den < 0:
        num, den = tuple(-x for x in num), -den
    g = math.gcd(den, *num)
    if g == 1:
        return num, den
    return tuple(x // g for x in num), den // g


def _fractions(num: IntVec, den: int) -> Point4:
    """The Fraction vector num/den."""
    return tuple(Fraction(x, den) for x in num)


_PAIRS4 = tuple(itertools.combinations(range(4), 2))


def _minors2(a, b) -> IntVec:
    """The six 2x2 minors a_i b_j - a_j b_i (i < j) of two 4-vectors, in
    the order of `_PAIRS4`."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a1 * b2 - a2 * b1,
        a1 * b3 - a3 * b1,
        a2 * b3 - a3 * b2,
    )


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


def _pluecker(a, b) -> IntVec:
    """The ten 2x2 minors a_s b_t - a_t b_s (s < t) of two 5-vectors, in
    lexicographic order of (s, t)."""
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    return (
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a0 * b4 - a4 * b0,
        a1 * b2 - a2 * b1,
        a1 * b3 - a3 * b1,
        a1 * b4 - a4 * b1,
        a2 * b3 - a3 * b2,
        a2 * b4 - a4 * b2,
        a3 * b4 - a4 * b3,
    )


# ---------------------------------------------------------------------------
# Residue filter: pair predicates certified mod p
# ---------------------------------------------------------------------------

RESIDUE_PRIME = 2**31 - 1
# Pairs per numpy block: a few hundred kB per temporary at any L and S.
PAIR_BLOCK = 1 << 16
# Balanced residues are at most (p - 1)/2 < 2^30, so a product is below
# 2^60 and a sum of 7 products plus a residue carried in [0, p) stays
# below 2^63.
_TERMS_PER_SUM = 7


def _residues(rows) -> np.ndarray:
    """Integer rows reduced once mod p, as balanced int64 residues in
    [-(p-1)/2, (p-1)/2]."""
    half = RESIDUE_PRIME // 2
    return np.array(
        [[(x + half) % RESIDUE_PRIME - half for x in row] for row in rows], dtype=np.int64
    )


def _zero_mod_p(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the entries of u @ v that are 0 mod p, for balanced residues
    u (n, k) and v (k, m).  Floor division by a scalar is several times
    faster than numpy's remainder, so x mod p is x - (x // p) * p."""
    p = RESIDUE_PRIME
    s = u[:, :_TERMS_PER_SUM] @ v[:_TERMS_PER_SUM]
    for k in range(_TERMS_PER_SUM, u.shape[1], _TERMS_PER_SUM):
        s -= s // p * p
        s += u[:, k:k + _TERMS_PER_SUM] @ v[k:k + _TERMS_PER_SUM]
    return s == s // p * p


def _undecided_pairs(forms, triangle: bool) -> Iterator[tuple[int, int]]:
    """The pairs (i, j) at which every bilinear form u_i . v_j is 0 mod p.

    `forms` is a list of (u, v) residue matrices, u (n, k) over the left
    objects and v (k, m) over the right ones.  Each u_i . v_j is, mod p,
    plus or minus one of the predicate's decisive integers, and any
    nonzero one decides the pair; the others are yielded, in row-major
    order over all n*m pairs, or over i < j when `triangle`.  Blocks of
    rows keep each temporary near PAIR_BLOCK entries; a later form is
    evaluated on a block only while some pair of it is undecided.
    """
    n, m = forms[0][0].shape[0], forms[0][1].shape[1]
    i0 = 0
    while i0 < n:
        j0 = i0 + 1 if triangle else 0
        if j0 >= m:
            return
        i1 = min(n, i0 + max(1, PAIR_BLOCK // (m - j0)))
        u, v = forms[0]
        zero = _zero_mod_p(u[i0:i1], v[:, j0:])
        if triangle:
            # Row i meets columns j0 + c with c >= i - i0, i.e. j > i.
            zero = np.triu(zero)
        for u, v in forms[1:]:
            if not zero.any():
                break
            zero &= _zero_mod_p(u[i0:i1], v[:, j0:])
        rows, cols = np.nonzero(zero)
        yield from zip((rows + i0).tolist(), (cols + j0).tolist())
        i0 = i1


# ---------------------------------------------------------------------------
# Flat types (canonical on construction, integers only)
# ---------------------------------------------------------------------------

# Each Fraction view is cached in a slot that construction leaves unset.
_set = object.__setattr__


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


class Line4:
    """Affine line: base + t*direction.

    Canonical: direction scaled so its first nonzero coordinate is 1 and
    the base's coordinate at that pivot is 0.  With the inputs cleared to
    P/m and a primitive integer direction d with pivot k, the base is
    (d_k*P - P_k*d)/(m*d_k) and the direction d/d_k.

    `integer_form` is (d, P, m): the primitive integer direction d, and
    the canonical base as P/m in lowest terms (m > 0).  It is the only
    stored state, and it is canonical, so it is the equality and the
    hash.  `base` and `direction` are its Fraction views, built on first
    read.  The input base is `base`/`den` for a positive integer `den`.
    """

    __slots__ = ("integer_form", "_base", "_direction")

    def __init__(self, base, direction, den: int = 1):
        m, p = _cleared(base)
        d = _primitive(_cleared(direction)[1])
        if d is None:
            raise InvariantViolationError("line direction must be nonzero")
        k = next(i for i, x in enumerate(d) if x)
        dk, pk = d[k], p[k]
        p, m = _reduced(tuple(dk * x - pk * y for x, y in zip(p, d)), m * den * dk)
        _set(self, "integer_form", (d, p, m))

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if not isinstance(other, Line4):
            return NotImplemented
        return self.integer_form == other.integer_form

    def __hash__(self) -> int:
        return hash(self.integer_form)

    def __repr__(self) -> str:
        return f"Line4(base={self.base!r}, direction={self.direction!r})"

    @property
    def base(self) -> Point4:
        try:
            return self._base
        except AttributeError:
            _, p, m = self.integer_form
            _set(self, "_base", _fractions(p, m))
            return self._base

    @property
    def direction(self) -> Point4:
        try:
            return self._direction
        except AttributeError:
            d = self.integer_form[0]
            _set(self, "_direction", _fractions(d, leading_entry(d)))
            return self._direction

    def point_at(self, t) -> Point4:
        return vadd(self.base, vscale(self.direction, t))

    def contains_point(self, p) -> bool:
        diff = vsub(vec(p), self.base)
        pivot = next(i for i, x in enumerate(self.direction) if x != 0)
        t = diff[pivot] / self.direction[pivot]
        return diff == vscale(self.direction, t)


class Flat2:
    """Affine 2-flat: base + a*u + b*v.

    Canonical: (u, v) replaced by the reduced row echelon basis of their
    span, base reduced to have zeros at both pivot coordinates.

    With the inputs cleared to P/m and integer spanning vectors, write
    M(i, j) for their 2x2 minors (M(j, i) = -M(i, j)).  The pivots are
    the first pair p0 < p1 with D = M(p0, p1) != 0; the basis rows are
    u_j = M(j, p1)/D and v_j = M(p0, j)/D, and the base is
    P/m - u*P_p0/m - v*P_p1/m.  Each free column f gives the equation
    normal D*e_f - M(f, p1)*e_p0 - M(p0, f)*e_p1.

    `equations` holds the two equations (N, c), N.x = c, as primitive
    integer rows with the first nonzero entry positive; they are
    canonical, so they are the equality and the hash.  `integer_form` is
    (U, V, P, m): the primitive integer basis rows and the base as P/m
    in lowest terms.  These two are the only stored state.  `base`, `u`
    and `v` are their Fraction views, built on first read: P/m, and U
    and V over their first nonzero entries (at p0 and p1: M(j, p1) is 0
    for j < p0, M(p0, j) for j < p1, so U and V are u and v times
    positive integers).  The input base is `base`/`den` for a positive
    integer `den`.
    """

    __slots__ = ("equations", "integer_form", "_base", "_u", "_v")

    def __init__(self, base, u, v, den: int = 1):
        m, p = _cleared(base)
        q = _minors2(_cleared(u)[1], _cleared(v)[1])
        k = next((k for k, x in enumerate(q) if x), None)
        if k is None:
            raise InvariantViolationError("2-flat spanning vectors must be independent")
        p0, p1 = _PAIRS4[k]
        delta = q[k]
        q01, q02, q03, q12, q13, q23 = q
        minor = (
            (0, q01, q02, q03),
            (-q01, 0, q12, q13),
            (-q02, -q12, 0, q23),
            (-q03, -q13, -q23, 0),
        )
        r1 = tuple(row[p1] for row in minor)
        r2 = minor[p0]
        a, b = p[p0], p[p1]
        base, m = _reduced(
            tuple(delta * x - y * a - z * b for x, y, z in zip(p, r1, r2)), m * den * delta
        )
        equations = []
        for f in range(4):
            if f == p0 or f == p1:
                continue
            normal = [0, 0, 0, 0]
            normal[f] = delta
            normal[p0] = -r1[f]
            normal[p1] = -r2[f]
            row = _primitive((*(m * x for x in normal), vdot(normal, base)))
            equations.append((row[:4], row[4]))
        _set(self, "equations", tuple(equations))
        _set(self, "integer_form", (_primitive(r1), _primitive(r2), base, m))

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if not isinstance(other, Flat2):
            return NotImplemented
        return self.equations == other.equations

    def __hash__(self) -> int:
        return hash(self.equations)

    def __repr__(self) -> str:
        return f"Flat2(base={self.base!r}, u={self.u!r}, v={self.v!r})"

    @property
    def base(self) -> Point4:
        try:
            return self._base
        except AttributeError:
            _, _, p, m = self.integer_form
            _set(self, "_base", _fractions(p, m))
            return self._base

    @property
    def u(self) -> Point4:
        try:
            return self._u
        except AttributeError:
            u = self.integer_form[0]
            _set(self, "_u", _fractions(u, leading_entry(u)))
            return self._u

    @property
    def v(self) -> Point4:
        try:
            return self._v
        except AttributeError:
            v = self.integer_form[1]
            _set(self, "_v", _fractions(v, leading_entry(v)))
            return self._v

    def point_at(self, a, b) -> Point4:
        return vadd(self.base, vadd(vscale(self.u, a), vscale(self.v, b)))

    def contains_point(self, p) -> bool:
        p = vec(p)
        return all(vdot(n, p) == c for n, c in self.equations)


@dataclass(frozen=True)
class Hyperplane3:
    """Affine hyperplane {x : normal . x = offset}; first nonzero normal
    coordinate scaled to 1.

    `integer_form` is (N, c): the equation N.x = c as a primitive
    integer row with the first nonzero entry positive."""

    normal: Point4
    offset: Fraction

    def __init__(self, normal, offset):
        n = vec(normal)
        if is_zero_vec(n):
            raise InvariantViolationError("hyperplane normal must be nonzero")
        pivot = next(i for i, x in enumerate(n) if x != 0)
        scale = 1 / n[pivot]
        object.__setattr__(self, "normal", vscale(n, scale))
        object.__setattr__(self, "offset", rat(offset) * scale)
        row = _primitive(common_denominator((*self.normal, self.offset))[1])
        object.__setattr__(self, "integer_form", (row[:4], row[4]))


# ---------------------------------------------------------------------------
# Incidence classification
# ---------------------------------------------------------------------------

class IncidenceKind(enum.Enum):
    DISJOINT = "disjoint"
    POINT = "point"
    CONTAINED = "contained"


class Located:
    """Base of a frozen, slotted dataclass with an `integer_location`
    field: a point P/m stored as (P, m) in lowest terms with m > 0, or
    None.  `location` is the point's Fraction view, built on first read."""

    __slots__ = ("_location",)

    @property
    def location(self) -> Point4 | None:
        try:
            return self._location
        except AttributeError:
            loc = self.integer_location
            view = None if loc is None else _fractions(*loc)
            _set(self, "_location", view)
            return view


@dataclass(frozen=True, slots=True)
class IncidenceOutcome(Located):
    """`integer_location` is the meeting point of a POINT outcome, else None."""

    kind: IncidenceKind
    integer_location: tuple[IntVec, int] | None = None


# Shared outcomes without a location: a disjoint pair allocates nothing.
DISJOINT = IncidenceOutcome(IncidenceKind.DISJOINT)
CONTAINED = IncidenceOutcome(IncidenceKind.CONTAINED)


def classify_line_flat2(ln: Line4, fl: Flat2) -> IncidenceOutcome:
    """Exact outcome of intersecting a line with a 2-flat in R^4.

    With the line as P/m + t*d and the flat as N_k.x = c_k (k = 0, 1),
    the line meets equation k where t*a_k = b_k/m, with a_k = N_k.d and
    b_k = m*c_k - N_k.P.  a = 0 means d is parallel to the flat: the line
    lies inside when b = 0 and misses it otherwise.  With a != 0 both
    equations agree on one t exactly when a_0*b_1 - a_1*b_0 = 0 (POINT,
    located at that t); otherwise the line misses the flat (DISJOINT).
    """
    (d0, d1, d2, d3), p, m = ln.integer_form
    p0, p1, p2, p3 = p
    ((x0, x1, x2, x3), c0), ((y0, y1, y2, y3), c1) = fl.equations
    a0 = x0 * d0 + x1 * d1 + x2 * d2 + x3 * d3
    a1 = y0 * d0 + y1 * d1 + y2 * d2 + y3 * d3
    b0 = m * c0 - x0 * p0 - x1 * p1 - x2 * p2 - x3 * p3
    b1 = m * c1 - y0 * p0 - y1 * p1 - y2 * p2 - y3 * p3
    if a0 == 0 and a1 == 0:
        return CONTAINED if b0 == 0 and b1 == 0 else DISJOINT
    if a0 * b1 != a1 * b0:
        return DISJOINT
    a, b = (a0, b0) if a0 else (a1, b1)
    # P/m + (b/(m*a))*d, coordinate by coordinate, in lowest terms.
    den = m * a
    x0, x1, x2, x3 = p0 * a + b * d0, p1 * a + b * d1, p2 * a + b * d2, p3 * a + b * d3
    g = math.gcd(den, x0, x1, x2, x3)
    if den < 0:
        g = -g
    return IncidenceOutcome(IncidenceKind.POINT, ((x0 // g, x1 // g, x2 // g, x3 // g), den // g))


def line_in_flat2(ln: Line4, fl: Flat2) -> bool:
    return classify_line_flat2(ln, fl).kind is IncidenceKind.CONTAINED


def flat2_in_hyperplane(fl: Flat2, h: Hyperplane3) -> bool:
    """With the flat as P/m + span(U, V) and the hyperplane as N.x = c:
    N.U = N.V = 0 and N.P = m*c."""
    u, v, p, m = fl.integer_form
    n, c = h.integer_form
    return vdot(n, u) == 0 and vdot(n, v) == 0 and vdot(n, p) == m * c


def _offset(l1: Line4, l2: Line4) -> IntVec:
    """m1*m2 times base2 - base1, as the integer vector m1*P2 - m2*P1."""
    _, (x0, x1, x2, x3), m1 = l1.integer_form
    _, (y0, y1, y2, y3), m2 = l2.integer_form
    return (m1 * y0 - m2 * x0, m1 * y1 - m2 * x1, m1 * y2 - m2 * x2, m1 * y3 - m2 * x3)


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
    d1, p1, m1 = l1.integer_form
    d2 = l2.integer_form[0]
    w = _offset(l1, l2)
    p = _minors2(d1, d2)
    if any(_minors3(w, p)):
        return None
    # Parallel distinct lines: the offset w supplies the second direction.
    return Flat2(p1, d1, d2 if any(p) else w, den=m1)


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
    (u0, u1, u2, u3), (v0, v1, v2, v3), (q0, q1, q2, q3), m = f2.integer_form
    ((x0, x1, x2, x3), c0), ((y0, y1, y2, y3), c1) = f1.equations
    columns = (
        (x0 * u0 + x1 * u1 + x2 * u2 + x3 * u3, y0 * u0 + y1 * u1 + y2 * u2 + y3 * u3),
        (x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3, y0 * v0 + y1 * v1 + y2 * v2 + y3 * v3),
        (
            x0 * q0 + x1 * q1 + x2 * q2 + x3 * q3 - m * c0,
            y0 * q0 + y1 * q1 + y2 * q2 + y3 * q3 - m * c1,
        ),
    )
    nonzero = [col for col in columns if any(col)]
    if not nonzero:
        raise InvariantViolationError("identical 2-flats span no unique hyperplane")
    s0, s1 = nonzero[0]
    if any(s0 * t1 - s1 * t0 for t0, t1 in nonzero[1:]):
        return None
    return _primitive(
        (s1 * x0 - s0 * y0, s1 * x1 - s0 * y1, s1 * x2 - s0 * y2, s1 * x3 - s0 * y3, s1 * c0 - s0 * c1)
    )


def hyperplane_of_flat2_pair(f1: Flat2, f2: Flat2) -> Hyperplane3 | None:
    """The unique hyperplane containing both 2-flats, or None when their
    affine hull is all of R^4."""
    key = cohyperplanar_key(f1, f2)
    return None if key is None else Hyperplane3(key[:4], key[4])


# ---------------------------------------------------------------------------
# Candidate pairs: the residue filter in front of the exact predicates
# ---------------------------------------------------------------------------

def _line_pluecker(ln: Line4) -> IntVec:
    """Pluecker vector of the rows (m | P) and (0 | d) of a line."""
    d, p, m = ln.integer_form
    return _pluecker((m, *p), (0, *d))


def _equation_pluecker(fl: Flat2) -> IntVec:
    """Pluecker vector of a 2-flat's equations, as rows (-c_k | N_k)."""
    (n0, c0), (n1, c1) = fl.equations
    return _pluecker((-c0, *n0), (-c1, *n1))


def candidate_incident_pairs(lines, planes) -> Iterator[tuple[int, int]]:
    """(i, j), row-major, for every line/2-flat pair that may meet; every
    other pair is DISJOINT.

    The residue is that of a_0*b_1 - a_1*b_0 of `classify_line_flat2`:
    by Cauchy-Binet it is the pairing of the flat's equation Pluecker
    vector with the line's.  Nonzero means DISJOINT.
    """
    if not lines or not planes:
        return iter(())
    u = _residues([_line_pluecker(ln) for ln in lines])
    v = _residues([_equation_pluecker(fl) for fl in planes]).T
    return _undecided_pairs([(u, v)], triangle=False)


def candidate_coplanar_pairs(lines) -> Iterator[tuple[int, int]]:
    """(i, j), i < j in lexicographic order, for every pair of lines that
    may be coplanar; every other pair is skew.

    The residues are those of the four 3x3 minors of [d1; d2; w] of
    `coplanar_key`.  A line's Pluecker vector is (g | l) with g = m*d and
    l_xy = P_x d_y - P_y d_x.  Expanding w = m1*P2 - m2*P1, the minor on
    columns a < b < c is -(F(1, 2) + F(2, 1)), where
    F(i, j) = g_a^i l_bc^j - g_b^i l_ac^j + g_c^i l_ab^j: a 6-term
    pairing of the two vectors.  A nonzero minor means skew.
    """
    if len(lines) < 2:
        return iter(())
    r = _residues([_line_pluecker(ln) for ln in lines])
    # Column of l_xy in the Pluecker vector, x < y.
    col = {pair: 4 + k for k, pair in enumerate(_PAIRS4)}
    forms = []
    for a, b, c in itertools.combinations(range(4), 3):
        cols = [a, b, c, col[b, c], col[a, c], col[a, b]]
        forms.append((r[:, cols], (r[:, cols[3:] + cols[:3]] * (1, -1, 1, 1, -1, 1)).T))
    return _undecided_pairs(forms, triangle=True)


def candidate_cohyperplanar_pairs(planes) -> Iterator[tuple[int, int]]:
    """(i, j), i < j in lexicographic order, for every pair of 2-flats that
    may lie in one hyperplane; every other pair spans R^4.

    The residues are those of the three 2x2 minors of the 2x3 matrix M of
    `cohyperplanar_key(planes[i], planes[j])`.  M is the product of
    planes[i]'s equation rows (-c_k | N_k) with planes[j]'s columns
    (0 | u), (0 | v) and (m | P), so by Cauchy-Binet each minor pairs
    the equation Pluecker vector with that of two of the columns.  A
    nonzero minor means no common hyperplane.
    """
    if len(planes) < 2:
        return iter(())
    left = _residues([_equation_pluecker(fl) for fl in planes])
    spans = []
    for fl in planes:
        u, v, p, m = fl.integer_form
        h, u, v = (m, *p), (0, *u), (0, *v)
        spans.append((_pluecker(u, v), _pluecker(u, h), _pluecker(v, h)))
    forms = [(left, _residues([s[k] for s in spans]).T) for k in range(3)]
    return _undecided_pairs(forms, triangle=True)
