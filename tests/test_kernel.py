"""The integer incidence kernel against a Fraction reference.

Every predicate of `incidence4.flats` runs on cached primitive integer
forms.  The reference below decides the same questions the direct way,
by Gauss-Jordan elimination over `Fraction` (`flats.rref`), and ranks are
cross-checked with sympy.  Hypothesis draws small-range integer objects
(bases over small denominators) and forces each degenerate configuration:
lines inside, parallel to and through a point of a plane; parallel,
intersecting, skew and identical line pairs; plane pairs that meet in a
line, are parallel, share only a direction, span R^4, or coincide.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from incidence4.flats import (
    Flat2,
    Hyperplane3,
    IdenticalLinesError,
    IncidenceKind,
    InvariantViolationError,
    Line4,
    classify_line_flat2,
    cohyperplanar_key,
    coplanar_key,
    hyperplane_of_flat2_pair,
    independent,
    matrix_rank,
    rref,
    span_flat2_of_lines,
    vadd,
    vdot,
    vscale,
    vsub,
)

KERNEL = settings(max_examples=150, deadline=None)

# ---------------------------------------------------------------------------
# Fraction reference, by Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def line_plane_system(ln, fl):
    """Augmented system of base_ln + t*d = base_fl + a*u + b*v."""
    cols = (ln.direction, vscale(fl.u, -1), vscale(fl.v, -1))
    rhs = vsub(fl.base, ln.base)
    return [[cols[0][i], cols[1][i], cols[2][i], rhs[i]] for i in range(4)]


def ref_classify(ln, fl):
    rows, pivots = rref(line_plane_system(ln, fl))
    if 3 in pivots:
        return IncidenceKind.DISJOINT, None
    if len(pivots) == 3:
        return IncidenceKind.POINT, ln.point_at(rows[pivots.index(0)][3])
    return IncidenceKind.CONTAINED, None


def ref_span(l1, l2):
    diff = vsub(l2.base, l1.base)
    if matrix_rank([l1.direction, l2.direction, diff]) >= 3:
        return None
    if matrix_rank([l1.direction, l2.direction]) == 2:
        return Flat2(l1.base, l1.direction, l2.direction)
    return Flat2(l1.base, l1.direction, diff)


def plane_pair_rows(f1, f2):
    return [list(f1.u), list(f1.v), list(f2.u), list(f2.v), list(vsub(f2.base, f1.base))]


def ref_hyperplane(f1, f2):
    rows, pivots = rref(plane_pair_rows(f1, f2))
    if len(rows) != 3:
        return None
    free = next(i for i in range(4) if i not in pivots)
    normal = [F(0)] * 4
    normal[free] = F(1)
    for r, p in zip(rows, pivots):
        normal[p] = -r[free]
    return Hyperplane3(normal, vdot(normal, f1.base))


def ref_contains(fl, p):
    return matrix_rank([fl.u, fl.v, vsub(p, fl.base)]) == 2


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

small = st.integers(-3, 3)
ivec = st.tuples(small, small, small, small)
nonzero = ivec.filter(any)
scale = st.integers(-3, 3).filter(bool)


@st.composite
def points(draw):
    den = draw(st.integers(1, 3))
    return tuple(F(x, den) for x in draw(ivec))


@st.composite
def planes(draw):
    u, v = draw(nonzero), draw(nonzero)
    assume(independent(u, v))
    return Flat2(draw(points()), u, v)


def combo(draw, u, v):
    """A nonzero integer combination of two independent vectors."""
    a, b = draw(small), draw(small)
    assume(a or b)
    return vadd(vscale(u, a), vscale(v, b))


@st.composite
def line_plane_pairs(draw):
    fl = draw(planes())
    mode = draw(st.sampled_from(["generic", "inside", "parallel", "through"]))
    on_plane = fl.point_at(draw(small), draw(small))
    if mode == "inside":
        ln = Line4(on_plane, combo(draw, fl.u, fl.v))
    elif mode == "parallel":
        ln = Line4(draw(points()), combo(draw, fl.u, fl.v))
    elif mode == "through":
        ln = Line4(on_plane, draw(nonzero))
    else:
        ln = Line4(draw(points()), draw(nonzero))
    return mode, ln, fl


@st.composite
def line_pairs(draw):
    l1 = Line4(draw(points()), draw(nonzero))
    mode = draw(st.sampled_from(["skew", "parallel", "intersecting", "identical"]))
    on_l1 = l1.point_at(F(draw(small), draw(st.integers(1, 3))))
    if mode == "parallel":
        l2 = Line4(draw(points()), vscale(l1.direction, draw(scale)))
    elif mode == "intersecting":
        l2 = Line4(on_l1, draw(nonzero))
    elif mode == "identical":
        l2 = Line4(on_l1, vscale(l1.direction, draw(scale)))
    else:
        l2 = Line4(draw(points()), draw(nonzero))
    return mode, l1, l2


@st.composite
def plane_pairs(draw):
    f1 = draw(planes())
    mode = draw(st.sampled_from(["spanning", "meet_in_line", "parallel", "one_direction", "identical"]))
    on_f1 = f1.point_at(draw(small), draw(small))
    shared = combo(draw, f1.u, f1.v)
    other = draw(nonzero)
    if mode == "meet_in_line":
        assume(independent(shared, other))
        f2 = Flat2(on_f1, shared, other)
    elif mode == "parallel":
        f2 = Flat2(draw(points()), vadd(f1.u, f1.v), vsub(f1.u, vscale(f1.v, 2)))
    elif mode == "one_direction":
        # Shares only the direction `shared`: cohyperplanar, possibly disjoint.
        assume(independent(shared, other))
        f2 = Flat2(vadd(on_f1, other), shared, other)
    elif mode == "identical":
        second = vsub(vscale(f1.u, 2), f1.v)
        assume(independent(shared, second))
        f2 = Flat2(on_f1, shared, second)
    else:
        f2 = draw(planes())
    return mode, f1, f2


# ---------------------------------------------------------------------------
# Kernel vs reference
# ---------------------------------------------------------------------------


class TestClassifyOracle:
    @given(line_plane_pairs())
    @KERNEL
    def test_matches_reference(self, case):
        mode, ln, fl = case
        out = classify_line_flat2(ln, fl)
        kind, location = ref_classify(ln, fl)
        assert out.kind is kind
        assert out.location == location
        forced = {
            "inside": {IncidenceKind.CONTAINED},
            "parallel": {IncidenceKind.CONTAINED, IncidenceKind.DISJOINT},
            "through": {IncidenceKind.CONTAINED, IncidenceKind.POINT},
        }
        assert kind in forced.get(mode, set(IncidenceKind))
        if location is not None:
            assert ln.contains_point(location) and fl.contains_point(location)

    @given(line_plane_pairs(), points())
    @KERNEL
    def test_contains_point_matches_reference(self, case, p):
        _, ln, fl = case
        for q in (p, ln.base, fl.point_at(p[0], p[1])):
            assert fl.contains_point(q) == ref_contains(fl, q)

    @given(line_plane_pairs())
    @KERNEL
    def test_ranks_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        _, ln, fl = case
        aug = sympy.Matrix(line_plane_system(ln, fl))
        coef_rank, aug_rank = aug[:, :3].rank(), aug.rank()
        kind = classify_line_flat2(ln, fl).kind
        if aug_rank > coef_rank:
            assert kind is IncidenceKind.DISJOINT
        elif coef_rank == 3:
            assert kind is IncidenceKind.POINT
        else:
            assert coef_rank == 2 and kind is IncidenceKind.CONTAINED


class TestCoplanarityOracle:
    @given(line_pairs())
    @KERNEL
    def test_matches_reference(self, case):
        mode, l1, l2 = case
        if l1 == l2:
            with pytest.raises(IdenticalLinesError):
                coplanar_key(l1, l2)
            with pytest.raises(IdenticalLinesError):
                span_flat2_of_lines(l1, l2)
            return
        want = ref_span(l1, l2)
        assert span_flat2_of_lines(l1, l2) == want
        assert (coplanar_key(l1, l2) is None) == (want is None)
        if mode in ("parallel", "intersecting"):
            assert want is not None

    @given(line_pairs())
    @KERNEL
    def test_ranks_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        _, l1, l2 = case
        assume(l1 != l2)
        hull = sympy.Matrix([l1.direction, l2.direction, vsub(l2.base, l1.base)])
        assert (coplanar_key(l1, l2) is None) == (hull.rank() == 3)


class TestCohyperplanarityOracle:
    @given(plane_pairs())
    @KERNEL
    def test_matches_reference(self, case):
        mode, f1, f2 = case
        if f1 == f2:
            with pytest.raises(InvariantViolationError):
                cohyperplanar_key(f1, f2)
            with pytest.raises(InvariantViolationError):
                hyperplane_of_flat2_pair(f1, f2)
            return
        want = ref_hyperplane(f1, f2)
        assert hyperplane_of_flat2_pair(f1, f2) == want
        key = cohyperplanar_key(f1, f2)
        assert (key is None) == (want is None)
        if mode in ("meet_in_line", "parallel", "one_direction"):
            assert want is not None
        if key is not None:
            assert Hyperplane3(key[:4], key[4]) == want

    @given(plane_pairs())
    @KERNEL
    def test_ranks_against_sympy(self, case):
        sympy = pytest.importorskip("sympy")
        _, f1, f2 = case
        assume(f1 != f2)
        rank = sympy.Matrix(plane_pair_rows(f1, f2)).rank()
        assert (cohyperplanar_key(f1, f2) is None) == (rank == 4)


# ---------------------------------------------------------------------------
# Canonical bucket keys
# ---------------------------------------------------------------------------


def is_primitive(key):
    return math.gcd(*key) == 1 and next(x for x in key if x) > 0


class TestCanonicalKeys:
    @given(planes(), st.lists(st.tuples(small, small, small, small), min_size=3, max_size=5),
           st.integers(-3, 3), scale)
    @KERNEL
    def test_coplanar_key_names_the_flat(self, fl, params, slide, k):
        """Every pair of lines in one 2-flat, and every reparametrisation
        of them, gets the same key."""
        lines = []
        for a, b, c, e in params:
            direction = vadd(vscale(fl.u, c), vscale(fl.v, e))
            if any(direction):
                lines.append(Line4(fl.point_at(a, b), direction))
        lines = list(dict.fromkeys(lines))
        assume(len(lines) >= 3)
        moved = [Line4(ln.point_at(slide), vscale(ln.direction, k)) for ln in lines]
        keys = {coplanar_key(x, y) for x, y in itertools.permutations(lines + moved, 2) if x != y}
        assert len(keys) == 1
        (key,) = keys
        assert len(key) == 10 and is_primitive(key)

    @given(st.tuples(nonzero, nonzero, nonzero), points(),
           st.lists(st.tuples(ivec, ivec, ivec), min_size=3, max_size=4))
    @KERNEL
    def test_cohyperplanar_key_names_the_hyperplane(self, basis, origin, params):
        """Every pair of distinct 2-flats in one hyperplane gets the same
        key: the hyperplane's primitive (normal, offset)."""
        assume(matrix_rank(basis) == 3)

        def inside(coeffs):
            return tuple(sum(c * b[i] for c, b in zip(coeffs[:3], basis)) for i in range(4))

        flats = [
            Flat2(vadd(origin, inside(base)), inside(u), inside(v))
            for base, u, v in params
            if independent(inside(u), inside(v))
        ]
        flats = list(dict.fromkeys(flats))
        assume(len(flats) >= 3)
        keys = {cohyperplanar_key(x, y) for x, y in itertools.permutations(flats, 2)}
        assert len(keys) == 1
        (key,) = keys
        assert is_primitive(key)
        normal = key[:4]
        assert all(vdot(normal, b) == 0 for b in basis)
        assert vdot(normal, origin) == key[4]
