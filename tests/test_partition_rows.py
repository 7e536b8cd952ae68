"""Each point lifted once: the rows behind the sign kernel of `exactpoly`.

`exactpoly._lift_matrix` builds each monomial column as an earlier one
times one variable, in the dtype of the point matrix from
`_point_matrix`, and a polynomial's `integer_coeffs` are stored in the
same order; the reference for both is the direct power product of every
coordinate.  `_homogeneous_rows` clears every
point once to P/m and lifts it once; a polynomial's sign at the point is
a dot product of its coefficients with that row (`_row_signs`), and the
reference is the sign of Fraction `SparsePoly.eval`.  Hypothesis draws
int, negative and mixed-denominator Fraction points in 4 and 2
variables, factors of every degree up to the row's, and points forced
onto Z(f).  `build_partition`, `assign_cells` and `classify_by_partition`
each lift their points once per call.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidence4 import exactpoly, partition
from incidence4.configs import gen_star
from incidence4.counting import classify_by_partition, count_incidences
from incidence4.exactpoly import (
    SparsePoly,
    UniPoly,
    _homogeneous_rows,
    _lift_matrix,
    _point_matrix,
    _row_index,
    _row_signs,
    monomial_exponents,
    sign,
    sign_vectors,
)
from incidence4.partition import PartitionParams, assign_cells, build_partition, round_cell_bound

ORACLE = settings(max_examples=100, deadline=None)
nvars_st = st.sampled_from((4, 2))

coordinates = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=30),
)


def points(nvars: int):
    ints = st.lists(st.integers(-10**6, 10**6), min_size=nvars, max_size=nvars).map(tuple)
    return st.one_of(ints, st.lists(coordinates, min_size=nvars, max_size=nvars).map(tuple))


def power_product_lift(point, exps):
    """[1, monomials...]: every monomial from the coordinates' powers."""
    row = [1]
    for e in exps:
        v = 1
        for x, p in zip(point, e):
            if p:
                v = v * x**p
        row.append(v)
    return row


def factors(max_degree: int, nvars: int):
    exponent = st.sampled_from(((0,) * nvars,) + monomial_exponents(max_degree, nvars))
    coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    return st.dictionaries(exponent, coefficient, min_size=1, max_size=10).map(
        lambda terms: SparsePoly(nvars, terms)
    )


def row_sign(f, point, top: int) -> int:
    return _row_signs(f, _homogeneous_rows([point], top))[0]


@ORACLE
@given(data=st.data(), nvars=nvars_st, degree=st.integers(1, 6))
def test_lift_matches_power_products(data, nvars, degree):
    point = data.draw(points(nvars))
    exps = monomial_exponents(degree, nvars)
    (lifted,) = _lift_matrix(_point_matrix([point], degree), exps).tolist()
    assert lifted == power_product_lift(point, exps)
    # an integral Fraction coordinate is lifted as an int
    assert all(type(v) is int for v in lifted) == all(F(x).denominator == 1 for x in point)


def test_monomial_counts():
    # C(n+k, n) - 1 monomials of degree 1..k; 27 in 2 variables at degree 6
    assert [len(monomial_exponents(k, 2)) for k in (1, 2, 6)] == [2, 5, 27]
    assert [len(monomial_exponents(k, 4)) for k in (1, 2, 6)] == [4, 14, 209]
    assert monomial_exponents(6, 2)[:5] == monomial_exponents(2, 2)


@ORACLE
@given(data=st.data(), nvars=nvars_st, degree=st.integers(1, 6))
def test_rows_are_homogenised_lifts(data, nvars, degree):
    point = data.draw(points(nvars))
    (row,) = _homogeneous_rows([point], degree)
    m = math.lcm(*(x.denominator for x in point))
    scaled = tuple(x * m for x in point)
    exps = monomial_exponents(degree, nvars)
    gaps = [degree] + [degree - sum(e) for e in exps]
    expected = [v * m**g for v, g in zip(power_product_lift(scaled, exps), gaps)]
    assert row.tolist() == expected
    assert all(type(v) is int for v in row)


@ORACLE
@given(data=st.data(), nvars=nvars_st, degree=st.integers(1, 6))
def test_integer_coeffs_against_power_products(data, nvars, degree):
    """The stored coefficients dotted with the plain lift are f(x) times
    the positive scale of the integer form."""
    f = data.draw(factors(degree, nvars))
    x = data.draw(points(nvars))
    scale = f.integer_scale
    assert scale > 0
    lift = power_product_lift(x, monomial_exponents(degree, nvars))
    assert sum(v * w for v, w in zip(f.integer_coeffs, lift)) == scale * f.eval(x)


@ORACLE
@given(data=st.data(), nvars=st.integers(1, 4), degree=st.integers(0, 6))
def test_integer_coeffs_layout(data, nvars, degree):
    """`integer_coeffs` is the primitive form at the row positions of
    `_row_index(deg f, nvars)`, zeros included, with a nonzero entry of
    degree deg f; equality and hash ignore the order the terms came in."""
    exponent = st.sampled_from(list(_row_index(degree, nvars)))
    coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    terms = data.draw(st.dictionaries(exponent, coefficient, max_size=10))
    f = SparsePoly(nvars, terms)
    index = _row_index(f.degree, nvars)
    vec = f.integer_coeffs
    assert len(vec) == len(index)
    assert list(vec) == [f.integer_scale * F(terms.get(e, 0)) for e in index]
    assert all(type(c) is int for c in vec)
    assert math.gcd(*vec) == (1 if vec else 0)
    assert f.is_zero or any(c for e, c in zip(index, vec) if sum(e) == f.degree)
    if nvars == 1:
        assert vec == UniPoly([terms.get((k,), 0) for k in range(degree + 1)]).integer_coeffs
    g = SparsePoly(nvars, dict(data.draw(st.permutations(list(terms.items())))))
    assert g == f and hash(g) == hash(f) and g.integer_coeffs == vec


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_zero_and_constant_rows(dtype):
    """The zero polynomial is the empty vector, scale 1, degree -1, and
    dots to zeros; a constant is one entry against the rows' first column."""
    zero, const = SparsePoly.zero(4), SparsePoly.constant(4, F(-3, 7))
    assert (zero.integer_coeffs, zero.integer_scale, zero.degree) == ((), 1, -1)
    assert (const.integer_coeffs, const.integer_scale, const.degree) == ((-1,), F(7, 3), 0)
    pts = [(1, -2, 3, 0), (0, 0, 0, 0), (-5, 4, 0, 2)]
    rows = _lift_matrix(np.array(pts, dtype=dtype), monomial_exponents(2, 4))
    assert rows.dtype == dtype
    for f, want in ((zero, 0), (const, -1)):
        got = _row_signs(f, rows)
        assert got == [want] * 3 and all(type(s) is int for s in got)
    mixed = pts + [(F(1, 2), 0, F(-1, 3), 1)]
    assert sign_vectors((zero, const), mixed) == [(0, -1)] * 4
    assert sign_vectors((zero,), mixed) == [(0,)] * 4


@ORACLE
@given(data=st.data(), nvars=nvars_st, top=st.integers(1, 6))
def test_row_sign_matches_fraction_eval(data, nvars, top):
    f = data.draw(factors(data.draw(st.integers(1, top)), nvars))
    x = data.draw(points(nvars))
    assert row_sign(f, x, top) == sign(f.eval(x))


@ORACLE
@given(data=st.data(), nvars=nvars_st, top=st.integers(2, 6))
def test_forced_zero_set(data, nvars, top):
    """f * (x_i - a) vanishes wherever x_i = a, whatever f is there."""
    f = data.draw(factors(data.draw(st.integers(1, top - 1)), nvars))
    x = data.draw(points(nvars))
    i = data.draw(st.integers(0, nvars - 1))
    linear = SparsePoly(nvars, {(0,) * nvars: -F(x[i]), tuple(int(k == i) for k in range(nvars)): 1})
    g = f * linear
    assert row_sign(g, x, top) == sign(g.eval(x)) == 0
    assert row_sign(f, x, top) == sign(f.eval(x))


@pytest.mark.parametrize("coords", ["int", "fraction"])
def test_each_call_lifts_its_points_once(coords, monkeypatch):
    """`build_partition` certifies every candidate on one set of rows, and
    `assign_cells` and `classify_by_partition` lift their points once; the
    build still meets the cell bound."""
    rng = random.Random(5)
    if coords == "int":
        pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(96)]
    else:
        pts = [tuple(F(rng.randint(-400, 400), rng.randint(1, 9)) for _ in range(4)) for _ in range(96)]
    report = count_incidences(gen_star(6, 5, seed=1))
    calls = []

    def counted(points, degree):
        calls.append(degree)
        return _homogeneous_rows(points, degree)

    for module in (exactpoly, partition):
        monkeypatch.setattr(module, "_homogeneous_rows", counted)
    part = build_partition(pts, PartitionParams(4, F(1, 10)), seed=2)
    assert part.rounds == 4 and len(calls) == 1
    tally = assign_cells(pts, part)
    assert len(calls) == 2
    attributed = classify_by_partition(report, part)
    assert len(calls) == 3
    assert max(tally.values()) <= round_cell_bound(len(pts), 4, F(1, 10))
    assert sum(tally.values()) <= len(pts)
    assert sum(attributed.per_cell.values()) + attributed.zero_set_count == report.point_incidences
