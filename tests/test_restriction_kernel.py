"""Integer substitution and the univariate sign kernel against Fraction paths.

One integer kernel computes every affine substitution p(base + sum t_k
dir_k): `restrict_to_line` / `restrict_to_flat2`, the shift back
p(x - shift) of a bisection factor and the shear q(x + lam*y, y) of the
Bezout check.  It folds each polynomial by Horner down the lift-plan
tree: every node starts at its coefficient, and each node times its
linear form is added into its parent.  The `@example` cases pin the
fold's corners: a single top-degree monomial (every ancestor node
empty), axis-aligned objects (single-term forms) and Fraction bases.
Its plural calls (`restrict_all_to_line`, `compose_affine_all`) clear
the object once for a list of polynomials and pack every key with the
stride of the top degree; each result must equal the one-polynomial
call.  It runs in Python ints on the stored integer form of the
polynomial and builds its result from integers and one positive
constant.  The reference is `SparsePoly.substitute` with linear axes,
which multiplies Fraction polynomials: the two builds must compare and
hash equal, and both must be stored as a primitive integer form whose
derived Fraction view builds the same polynomial back.  No production
path reads a Fraction view.  `UniPoly.sign_at` decides signs by
homogeneous Horner on the integer coefficients; the reference is the
sign of `UniPoly.eval` on Fractions.
"""

import math
import random
from fractions import Fraction as F
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from incidence4.exactpoly import (
    SparsePoly,
    UniPoly,
    _row_index,
    _substitution,
    bezout_point_check,
    compose_affine,
    compose_affine_all,
    poly2,
    restrict_all_to_line,
    restrict_to_flat2,
    restrict_to_line,
    sign,
)
from incidence4.flats import Flat2, Line4
from incidence4.partition import (
    FlatInZeroSetError,
    LineInZeroSetError,
    PartitionParams,
    PartitionPolynomial,
    assign_cells,
    build_partition,
    cell_id,
    default_cap,
    flat2_crossing_stats,
    ham_sandwich_bisect,
    line_crossing_stats,
)

ORACLE = settings(max_examples=120, deadline=None)

coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=9)
scalars = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
vectors = st.lists(scalars, min_size=4, max_size=4).map(tuple)
nonzero_vectors = vectors.map(lambda v: v if any(v) else (1, 0, 0, 0))


def _cap_degree(e, max_degree):
    out = []
    for x in e:
        out.append(min(x, max_degree - sum(out)))
    return tuple(out)


def polys(nvars: int, max_degree: int = 4, min_size: int = 0):
    exponent = st.lists(st.integers(0, max_degree), min_size=nvars, max_size=nvars).map(
        lambda e: _cap_degree(e, max_degree)
    )
    return st.dictionaries(exponent, coefficients, min_size=min_size, max_size=14).map(
        lambda terms: SparsePoly(nvars, terms)
    )


def dense_poly(degree: int, seed: int) -> SparsePoly:
    """Every monomial of degree <= `degree` in 4 variables, each with a
    nonzero coefficient: the shape of the stored crossing factors
    (degree 5-6), whose restriction lifts all C(degree + 4, 4) - 1
    monomials (209 at degree 6)."""
    rng = random.Random(seed)
    return SparsePoly(4, {
        e: F(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 9))
        for e in product(range(degree + 1), repeat=4)
        if sum(e) <= degree
    })


def substitute_line(p, base, direction):
    axes = [SparsePoly(1, {(0,): b, (1,): d}) for b, d in zip(base, direction)]
    q = p.substitute(axes)
    return UniPoly([q.terms.get((k,), 0) for k in range(q.degree + 1)])


def substitute_flat(p, base, u, v):
    axes = [SparsePoly(2, {(0, 0): b, (1, 0): x, (0, 1): y}) for b, x, y in zip(base, u, v)]
    return p.substitute(axes)


def check_form(f) -> None:
    """f is stored as coprime ints and a positive scale (1 for the zero
    polynomial), and its Fraction view builds f back."""
    if isinstance(f, UniPoly):
        ints = f.integer_coeffs
        assert not ints or ints[-1] != 0
        assert tuple(c * f.integer_scale for c in f.coeffs) == ints
        back = UniPoly(f.coeffs)
    else:
        ints = f.integer_coeffs
        index = _row_index(f.degree, f.nvars)
        assert len(ints) == len(index)
        assert all(c == f.terms.get(e, 0) * f.integer_scale for e, c in zip(index, ints))
        assert not ints or any(c for e, c in zip(index, ints) if sum(e) == f.degree)
        back = SparsePoly(f.nvars, f.terms)
    assert math.gcd(*ints) == (1 if ints else 0)
    assert f.integer_scale > 0 and (ints or f.integer_scale == 1)
    assert back == f and hash(back) == hash(f)


def assert_same(got, want) -> None:
    """A kernel build equals the Fraction build, hash included, and both
    have the stored form of `check_form`."""
    assert got == want and hash(got) == hash(want)
    check_form(got)
    check_form(want)


def vanishing_form(base, directions, extra):
    """n.(x - base) with n orthogonal to `directions` (Gram-Schmidt on
    `extra`), so the form vanishes on the line or flat; None if n = 0."""
    n = [F(x) for x in extra]
    basis = []
    for d in directions:
        w = [F(x) for x in d]
        for b in basis:
            k = sum(x * y for x, y in zip(w, b)) / sum(x * x for x in b)
            w = [x - k * y for x, y in zip(w, b)]
        if any(w):
            basis.append(w)
    for b in basis:
        k = sum(x * y for x, y in zip(n, b)) / sum(x * x for x in b)
        n = [x - k * y for x, y in zip(n, b)]
    if not any(n):
        return None
    terms = {(0, 0, 0, 0): -sum(x * y for x, y in zip(n, base))}
    for i, x in enumerate(n):
        terms[tuple(int(k == i) for k in range(4))] = x
    return SparsePoly(4, terms)


@ORACLE
@given(p=polys(4), base=vectors, direction=nonzero_vectors)
@example(p=dense_poly(5, 1), base=(50, -7, -44, -57), direction=(3, 3, 1, -1))
@example(p=dense_poly(6, 2), base=(F(1, 2), -3, 7, F(-5, 3)), direction=(2, F(1, 4), -1, 3))
# Coordinate 1 is 0 on the whole line, so its linear form is empty.
@example(p=dense_poly(6, 3), base=(4, 0, -2, F(1, 3)), direction=(1, 0, 5, -2))
# One top-degree monomial: every ancestor node of the fold is empty.
@example(p=SparsePoly(4, {(1, 2, 0, 3): F(-5, 7)}), base=(3, -1, 4, 2), direction=(1, -2, 3, 5))
# Axis-aligned: every linear form is a single term (B_i, or t on axis 3).
@example(p=dense_poly(6, 12), base=(2, -5, 0, 7), direction=(0, 0, 1, 0))
# Fraction base: cleared to one denominator M = 60 > 1.
@example(p=dense_poly(6, 13), base=(F(1, 3), F(-2, 5), F(7, 4), 1), direction=(2, 1, -1, 3))
def test_line_matches_substitute(p, base, direction):
    ln = SimpleNamespace(base=base, direction=direction)
    assert_same(restrict_to_line(p, ln), substitute_line(p, base, direction))


@ORACLE
@given(p=polys(4), base=vectors, u=vectors, v=vectors)
@example(p=dense_poly(5, 4), base=(9, -2, 0, 5), u=(1, 0, 2, -1), v=(0, 1, -3, 4))
@example(p=dense_poly(6, 5), base=(F(3, 2), 1, -6, 2), u=(2, -1, F(1, 3), 0), v=(1, 4, 0, -2))
# Coordinate 2 is 0 on the whole flat, so its linear form is empty.
@example(p=dense_poly(6, 6), base=(-3, 5, 0, 1), u=(1, 2, 0, -1), v=(0, F(1, 2), 0, 3))
# One top-degree monomial: every ancestor node of the fold is empty.
@example(p=SparsePoly(4, {(0, 3, 2, 1): F(9, 4)}), base=(1, -2, 5, -3), u=(2, 1, 0, -1), v=(1, 0, 3, 4))
# Axis-aligned: every linear form is a single term (B_i, a or b).
@example(p=dense_poly(6, 14), base=(3, 0, -1, 0), u=(0, 1, 0, 0), v=(0, 0, 0, 2))
# Fraction base: cleared to one denominator M = 42 > 1.
@example(p=dense_poly(6, 15), base=(F(5, 6), -1, F(-3, 7), 2), u=(1, 2, 0, -1), v=(0, 1, -3, 4))
def test_flat_matches_substitute(p, base, u, v):
    fl = SimpleNamespace(base=base, u=u, v=v)
    assert_same(restrict_to_flat2(p, fl), substitute_flat(p, base, u, v))


@given(base=vectors, direction=nonzero_vectors, u=vectors, v=vectors)
def test_zero_poly_restricts_to_zero(base, direction, u, v):
    zero = SparsePoly.zero(4)
    ln = SimpleNamespace(base=base, direction=direction)
    fl = SimpleNamespace(base=base, u=u, v=v)
    assert_same(restrict_to_line(zero, ln), UniPoly.zero())
    assert_same(restrict_to_flat2(zero, fl), SparsePoly.zero(2))


@ORACLE
@given(
    q=polys(4, max_degree=3, min_size=1), base=vectors, direction=nonzero_vectors, extra=vectors
)
def test_factor_vanishing_on_line(q, base, direction, extra):
    form = vanishing_form(base, [direction], extra)
    assume(form is not None and not q.is_zero)
    ln = SimpleNamespace(base=base, direction=direction)
    assert_same(restrict_to_line(q * form, ln), UniPoly.zero())
    with pytest.raises(LineInZeroSetError):
        line_crossing_stats(ln, PartitionPolynomial((q, q * form)))


@ORACLE
@given(
    q=polys(4, max_degree=3, min_size=1), base=vectors, u=vectors, v=vectors, extra=vectors
)
def test_factor_vanishing_on_flat(q, base, u, v, extra):
    form = vanishing_form(base, [u, v], extra)
    assume(form is not None and not q.is_zero)
    fl = SimpleNamespace(base=base, u=u, v=v)
    assert_same(restrict_to_flat2(q * form, fl), SparsePoly.zero(2))
    with pytest.raises(FlatInZeroSetError):
        flat2_crossing_stats(fl, PartitionPolynomial((q, q * form)))


def leading_cancel(base, directions, seed):
    """A degree-4 factor whose top form vanishes on the object: a form
    vanishing on the object times a cubic, plus a quadric.  None when the
    directions span R^4 (no form vanishes on the object)."""
    form = vanishing_form(base, directions, (3, -1, 4, 1))
    return None if form is None else form * dense_poly(3, seed) + dense_poly(2, seed + 1)


direction_lists = st.sampled_from([1, 2, 4]).flatmap(
    lambda k: st.lists(nonzero_vectors, min_size=k, max_size=k)
)


@ORACLE
@given(ps=st.lists(polys(4, max_degree=6), max_size=4), base=vectors, directions=direction_lists)
# Degrees 6, 1, 3 and 0 on a plane: the lower-degree results are packed
# with the top degree's stride, 7, not their own.
@example(
    ps=[dense_poly(6, 7), dense_poly(1, 8), dense_poly(3, 9)],
    base=(F(1, 2), -3, 0, 5),
    directions=[(1, 0, 2, -1), (0, F(1, 3), -3, 4)],
)
@example(
    ps=[dense_poly(2, 10), dense_poly(5, 11)],
    base=(4, -1, 2, 0),
    directions=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
)
def test_plural_substitution_matches_single(ps, base, directions):
    """One lift for a mixed list equals one call per polynomial, with a
    zero polynomial, a constant and a factor whose leading terms cancel
    on the object among the list."""
    mixed = [*ps, SparsePoly.zero(4), SparsePoly.constant(4, F(-7, 3))]
    cancel = leading_cancel(base, directions, len(ps))
    if cancel is not None:
        mixed.insert(len(ps) // 2, cancel)
    got = compose_affine_all(mixed, base, directions)
    assert len(got) == len(mixed)
    for p, g in zip(mixed, got):
        assert_same(g, compose_affine(p, base, directions))
    if cancel is not None:
        assert got[mixed.index(cancel)].degree < cancel.degree
    if len(directions) == 1:
        # One parameter: packed keys are the powers of t whatever the stride.
        kernel = _substitution(mixed, base, directions)
        assert kernel == [_substitution((p,), base, directions)[0] for p in mixed]
        ln = SimpleNamespace(base=base, direction=directions[0])
        assert restrict_all_to_line(mixed, ln) == [restrict_to_line(p, ln) for p in mixed]


def test_plural_substitution_rejects_mixed_nvars():
    p4 = SparsePoly(4, {(1, 0, 0, 0): 1})
    p2 = poly2({(0, 1): 1})
    with pytest.raises(ValueError):
        _substitution([p4, p2], (0, 0, 0, 0), ((1, 0, 0, 0),))
    with pytest.raises(ValueError):
        compose_affine_all([p2, p4], (0, 0), ((1, 0),))


def test_plural_substitution_of_nothing():
    assert _substitution([], (0, 0, 0, 0), ((1, 0, 0, 0),)) == []
    assert compose_affine_all([], (0, 0), ((1, 0), (0, 1))) == []


def unit_axes(n):
    return [tuple(int(k == i) for k in range(n)) for i in range(n)]


@ORACLE
@given(
    data=st.data(),
    nvars=st.sampled_from([2, 4]),
    fractional=st.booleans(),
)
def test_shift_matches_substitute(data, nvars, fractional):
    """The bisection's shift back p(x - shift), on int and on
    mixed-denominator Fraction shifts."""
    p = data.draw(polys(nvars))
    entries = scalars if fractional else st.integers(-60, 60)
    shift = data.draw(st.lists(entries, min_size=nvars, max_size=nvars))
    axes = [
        SparsePoly(nvars, {(0,) * nvars: -F(mu), e: 1}) for mu, e in zip(shift, unit_axes(nvars))
    ]
    assert_same(compose_affine(p, [-F(mu) for mu in shift], unit_axes(nvars)), p.substitute(axes))


@ORACLE
@given(q=polys(2, max_degree=5), lam=scalars)
def test_shear_matches_substitute(q, lam):
    """The Bezout shear q(x + lam*y, y)."""
    x, y = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    reference = q.substitute([x + y.scale(lam), y])
    assert_same(compose_affine(q, (0, 0), ((1, 0), (lam, 1))), reference)


def test_no_fraction_substitution_on_production_paths(monkeypatch):
    """The shift back and the shear run on the integer kernel alone."""

    def fail(*_):
        raise AssertionError("SparsePoly.substitute called")

    monkeypatch.setattr(SparsePoly, "substitute", fail)
    rng = random.Random(3)
    # Centroid near (100, -50, 30, 7): the factor is shifted back by it.
    pts = [
        tuple(c + rng.randint(-9, 9) for c in (100, -50, 30, 7)) for _ in range(40)
    ]
    sets = [pts[:20], pts[20:]]
    h = ham_sandwich_bisect(sets, 2, F(1, 10))
    for s in sets:
        signs = [cell_id(p, PartitionPolynomial((h,)))[0] for p in s]
        cap = default_cap(len(s), F(1, 10))
        assert signs.count(1) <= cap and signs.count(-1) <= cap
    # At lam = 0 the top form x*y vanishes at (0, 1), so a nonzero shear runs.
    xy1 = poly2({(1, 1): 1, (0, 0): -1})
    diagonal = poly2({(1, 0): 1, (0, 1): -1})
    assert bezout_point_check(xy1, diagonal) == (False, 2)


def _forbidden(_self):
    raise AssertionError("a Fraction view was read")


def test_production_paths_read_no_fraction_view(monkeypatch):
    """A partition build, cell assignment and both crossing statistics
    run on the stored integer forms alone, with the same answers."""
    rng = random.Random(11)
    pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(48)]
    lines = [
        Line4(tuple(rng.randint(-9, 9) for _ in range(4)), (1, rng.randint(-5, 5), 2, F(1, 3)))
        for _ in range(4)
    ]
    flats = [
        Flat2(
            tuple(F(rng.randint(-9, 9), 2) for _ in range(4)),
            (1, 0, rng.randint(-3, 3), 1),
            (0, 1, 1, rng.randint(-3, 3)),
        )
        for _ in range(3)
    ]

    def run():
        part = build_partition(pts, PartitionParams(rounds=2, delta=F(1, 10)), seed=3)
        return (
            part,
            assign_cells(pts, part),
            [line_crossing_stats(ln, part) for ln in lines],
            [flat2_crossing_stats(fl, part, sample_budget=32) for fl in flats],
        )

    want = run()
    monkeypatch.setattr(SparsePoly, "terms", property(_forbidden))
    monkeypatch.setattr(UniPoly, "coeffs", property(_forbidden))
    assert run() == want


def test_mixed_denominators_by_hand():
    # p = x1*x2 - 1/3 on x = (1/2, 1/3, 0, 0) + t*(2/5, -1/7, 0, 0)
    p = SparsePoly(4, {(1, 1, 0, 0): 1, (0, 0, 0, 0): F(-1, 3)})
    ln = SimpleNamespace(base=(F(1, 2), F(1, 3), 0, 0), direction=(F(2, 5), F(-1, 7), 0, 0))
    # (1/2 + 2t/5)(1/3 - t/7) - 1/3 = -1/6 + (2/15 - 1/14) t - 2/35 t^2
    assert restrict_to_line(p, ln) == UniPoly((F(-1, 6), F(2, 15) - F(1, 14), F(-2, 35)))


# ---------------------------------------------------------------------------
# UniPoly.sign_at
# ---------------------------------------------------------------------------

unipolys = st.lists(coefficients, max_size=9).map(UniPoly)


@ORACLE
@given(g=unipolys, x=scalars)
def test_sign_at_matches_eval(g, x):
    assert g.sign_at(x) == sign(g.eval(x))


@ORACLE
@given(h=unipolys, r=scalars, x=scalars)
def test_sign_at_exact_root(h, r, x):
    """h * (t - r) vanishes at r; at any other x it has the reference sign."""
    g = h * UniPoly((-F(r), 1))
    assert g.sign_at(r) == 0
    assert g.sign_at(F(r)) == 0
    assert g.sign_at(x) == sign(g.eval(x))


@given(value=coefficients, x=scalars)
def test_sign_at_constants_and_zero(value, x):
    assert UniPoly.constant(value).sign_at(x) == sign(value)
    assert UniPoly.zero().sign_at(x) == 0


def test_integer_coeffs_primitive_and_positive():
    g = UniPoly((F(3, 2), F(-3, 4), F(9, 8)))
    # 8 * (3/2, -3/4, 9/8) = (12, -6, 9), divided by their gcd 3
    assert g.integer_coeffs == (4, -2, 3)
    assert g.integer_scale == F(8, 3)
    assert UniPoly.from_integers((12, -6, 9, 0), 8) == g
    assert UniPoly((F(-2), F(-4))).integer_coeffs == (-1, -2)
    assert UniPoly.zero().integer_coeffs == ()
    assert UniPoly.zero().integer_scale == 1
