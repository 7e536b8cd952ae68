"""The integer incidence kernel against a Fraction reference.

Every predicate of `incidence4.flats` runs on cached primitive integer
forms.  The reference below decides the same questions the direct way,
by Gauss-Jordan elimination over `Fraction` (`ref_rref` below), and ranks
are cross-checked with sympy.  Hypothesis draws small-range integer objects
(bases over small denominators) and forces each degenerate configuration:
lines inside, parallel to and through a point of a plane; parallel,
intersecting, skew and identical line pairs; plane pairs that meet in a
line, are parallel, share only a direction, span R^4, or coincide.

The same reference checks the integer construction of `Line4` and
`Flat2` (from a primitive direction and from 2x2 minors) field by field,
and the fraction-free `flats.rref` row by row.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from incidence4 import flats
from incidence4.cli import ExperimentSpec, run_experiment
from incidence4.configs import (
    GeneratorKind,
    GeneratorSpec,
    config_from_dict,
    config_to_dict,
    gen_planted,
)
from incidence4.exactpoly import common_denominator
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


def ref_rref(rows):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
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


def ref_rank(rows):
    return len(ref_rref(rows)[0])


def ref_primitive(values):
    """Primitive integer multiple of a rational vector, first nonzero entry positive."""
    ints = common_denominator([F(x) for x in values])[1]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def ref_line(base, direction):
    """(base, direction, integer_form) of a line, canonicalised in Fractions."""
    b, d = tuple(map(F, base)), tuple(map(F, direction))
    pivot = next(i for i, x in enumerate(d) if x)
    d = vscale(d, 1 / d[pivot])
    b = vsub(b, vscale(d, b[pivot]))
    return b, d, (ref_primitive(d), *reversed(common_denominator(b)))


def ref_flat(base, u, v):
    """(base, u, v, equations, integer_form) of a 2-flat, canonicalised by
    Fraction row reduction; None when u and v are dependent."""
    rows, pivots = ref_rref([u, v])
    if len(rows) != 2:
        return None
    r1, r2 = (tuple(r) for r in rows)
    b = tuple(map(F, base))
    b = vsub(b, vadd(vscale(r1, b[pivots[0]]), vscale(r2, b[pivots[1]])))
    equations = []
    for free in (i for i in range(4) if i not in pivots):
        normal = [F(0)] * 4
        normal[free] = F(1)
        for r, p in zip((r1, r2), pivots):
            normal[p] = -r[free]
        row = ref_primitive((*normal, vdot(normal, b)))
        equations.append((row[:4], row[4]))
    m, p = common_denominator(b)
    return b, r1, r2, tuple(equations), (ref_primitive(r1), ref_primitive(r2), p, m)


def line_plane_system(ln, fl):
    """Augmented system of base_ln + t*d = base_fl + a*u + b*v."""
    cols = (ln.direction, vscale(fl.u, -1), vscale(fl.v, -1))
    rhs = vsub(fl.base, ln.base)
    return [[cols[0][i], cols[1][i], cols[2][i], rhs[i]] for i in range(4)]


def ref_classify(ln, fl):
    rows, pivots = ref_rref(line_plane_system(ln, fl))
    if 3 in pivots:
        return IncidenceKind.DISJOINT, None
    if len(pivots) == 3:
        return IncidenceKind.POINT, ln.point_at(rows[pivots.index(0)][3])
    return IncidenceKind.CONTAINED, None


def ref_span(l1, l2):
    diff = vsub(l2.base, l1.base)
    if ref_rank([l1.direction, l2.direction, diff]) >= 3:
        return None
    if ref_rank([l1.direction, l2.direction]) == 2:
        return Flat2(l1.base, l1.direction, l2.direction)
    return Flat2(l1.base, l1.direction, diff)


def plane_pair_rows(f1, f2):
    return [list(f1.u), list(f1.v), list(f2.u), list(f2.v), list(vsub(f2.base, f1.base))]


def ref_hyperplane(f1, f2):
    rows, pivots = ref_rref(plane_pair_rows(f1, f2))
    if len(rows) != 3:
        return None
    free = next(i for i in range(4) if i not in pivots)
    normal = [F(0)] * 4
    normal[free] = F(1)
    for r, p in zip(rows, pivots):
        normal[p] = -r[free]
    return Hyperplane3(normal, vdot(normal, f1.base))


def ref_contains(fl, p):
    return ref_rank([fl.u, fl.v, vsub(p, fl.base)]) == 2


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
        assume(ref_rank(basis) == 3)

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


# ---------------------------------------------------------------------------
# Integer construction and fraction-free elimination
# ---------------------------------------------------------------------------

# Coordinates as ints, integral Fractions and Fractions over mixed denominators.
rational = st.one_of(
    small,
    small.map(F),
    st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
)
nonzero_rational = rational.filter(bool)
rvec = st.tuples(rational, rational, rational, rational)


@st.composite
def matrices(draw):
    """Rational matrices with zero columns and dependent rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(rational, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        for row in rows:
            row[c] = 0
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(small), draw(small)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return draw(st.permutations(rows))


@st.composite
def line_inputs(draw):
    """(base, direction) with the direction's pivot at every position."""
    lead = draw(st.integers(0, 3))
    direction = list(draw(rvec))
    direction[:lead] = [0] * lead
    direction[lead] = draw(nonzero_rational)
    return draw(rvec), tuple(direction)


@st.composite
def flat_inputs(draw):
    """(base, u, v) spanning a 2-flat with pivot columns (p0, p1), drawn
    over all six pairs: u and v are an invertible combination of a
    reduced row echelon pair, scaled by rationals."""
    p0, p1 = draw(st.sampled_from(list(itertools.combinations(range(4), 2))))
    r1, r2 = [0] * 4, [0] * 4
    r1[p0] = r2[p1] = 1
    for c in range(p0 + 1, 4):
        if c != p1:
            r1[c] = draw(rational)
    for c in range(p1 + 1, 4):
        r2[c] = draw(rational)
    a, b, c, e = draw(small), draw(small), draw(small), draw(small)
    assume(a * e - b * c)
    s, t = draw(nonzero_rational), draw(nonzero_rational)
    u = tuple(s * (a * x + b * y) for x, y in zip(r1, r2))
    v = tuple(t * (c * x + e * y) for x, y in zip(r1, r2))
    return draw(rvec), u, v, (p0, p1)


class TestConstruction:
    @given(matrices())
    @KERNEL
    def test_rref_matches_reference(self, rows):
        assert flats.rref(rows) == ref_rref(rows)
        assert matrix_rank(rows) == ref_rank(rows)

    @given(line_inputs())
    @KERNEL
    def test_line_matches_reference(self, case):
        base, direction = case
        ln = Line4(base, direction)
        b, d, form = ref_line(base, direction)
        assert (ln.base, ln.direction, ln.integer_form) == (b, d, form)
        assert all(type(x) is F for x in (*ln.base, *ln.direction))

    @given(flat_inputs())
    @KERNEL
    def test_flat_matches_reference(self, case):
        base, u, v, (p0, p1) = case
        fl = Flat2(base, u, v)
        b, r1, r2, equations, form = ref_flat(base, u, v)
        assert (fl.base, fl.u, fl.v) == (b, r1, r2)
        assert (fl.equations, fl.integer_form) == (equations, form)
        assert fl.u[p0] == fl.v[p1] == 1 and fl.u[p1] == fl.v[p0] == 0
        assert all(type(x) is F for x in (*fl.base, *fl.u, *fl.v))

    @given(rvec, rvec, rational)
    @KERNEL
    def test_dependent_span_raises(self, base, u, k):
        assume(any(u))
        with pytest.raises(InvariantViolationError, match="must be independent"):
            Flat2(base, u, vscale(u, k))

    @given(line_inputs(), rational, nonzero_rational)
    @KERNEL
    def test_line_reparametrised_is_equal(self, case, slide, k):
        ln = Line4(*case)
        moved = Line4(ln.point_at(slide), vscale(ln.direction, k))
        assert moved == ln and hash(moved) == hash(ln)
        assert moved.integer_form == ln.integer_form

    @given(flat_inputs(), rational, rational, st.tuples(small, small, small, small))
    @KERNEL
    def test_flat_reparametrised_is_equal(self, case, a, b, coeffs):
        base, u, v, _ = case
        fl = Flat2(base, u, v)
        c, d, e, f = coeffs
        assume(c * f - d * e)
        moved = Flat2(
            fl.point_at(a, b),
            vadd(vscale(u, c), vscale(v, d)),
            vadd(vscale(u, e), vscale(v, f)),
        )
        assert moved == fl and hash(moved) == hash(fl)
        assert moved.equations == fl.equations and moved.integer_form == fl.integer_form


def _no_rref(*args, **kwargs):
    raise AssertionError("the census path must not call flats.rref")


@pytest.mark.parametrize(
    "generator",
    [
        GeneratorSpec(GeneratorKind.GENERIC, 12, 8),
        GeneratorSpec(GeneratorKind.STAR, 6, 5),
        GeneratorSpec(GeneratorKind.PLANTED_RICH_FLAT, 12, 6, planted_line_count=5),
        GeneratorSpec(GeneratorKind.PLANTED_RICH_HYPERPLANE, 6, 12, planted_plane_count=5),
    ],
    ids=lambda g: g.kind.value,
)
def test_census_path_runs_without_rref(generator, monkeypatch):
    """Generation, counting, rich-flat detection and reloading build every
    flat from integers: none of them eliminates over Fraction."""
    monkeypatch.setattr(flats, "rref", _no_rref)
    report = run_experiment(ExperimentSpec(generator, seed=3))
    assert "## verdicts" in report.text


def test_loading_runs_without_rref(monkeypatch):
    # Planted hyperplane configurations carry Fraction coordinates.
    spec = GeneratorSpec(GeneratorKind.PLANTED_RICH_HYPERPLANE, 4, 8, planted_plane_count=5)
    data = config_to_dict(gen_planted(spec, seed=2)[0])
    monkeypatch.setattr(flats, "rref", _no_rref)
    cfg = config_from_dict(data)
    assert config_to_dict(cfg) == data
