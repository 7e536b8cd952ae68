"""Each point lifted once: the Veronese rows behind `build_partition`.

`partition._lift_row` builds each monomial as an earlier monomial times
one variable; the reference is the direct power product of every
coordinate.  `build_partition` clears every point once to P/m, lifts it
once to an integer row at the schedule's top degree, and decides a
candidate's sign at the point by a dot product with the candidate's
integer coefficients; the reference is `exactpoly.sign_vector`.
Hypothesis draws int, negative and mixed-denominator Fraction points,
factors of every degree up to the row's, and points forced onto Z(f).
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from incidence4 import partition
from incidence4.exactpoly import SparsePoly, sign_vector
from incidence4.partition import (
    PartitionParams,
    _dense_coefficients,
    _dot_sign,
    _homogeneous_rows,
    _lift_row,
    assign_cells,
    build_partition,
    monomial_exponents,
    round_cell_bound,
)

ORACLE = settings(max_examples=100, deadline=None)

coordinates = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=30),
)
int_points = st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4).map(tuple)
points = st.one_of(int_points, st.lists(coordinates, min_size=4, max_size=4).map(tuple))


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


def row_index(degree: int) -> dict:
    return {e: k for k, e in enumerate(((0, 0, 0, 0),) + monomial_exponents(degree))}


def factors(max_degree: int):
    exponent = st.sampled_from(((0, 0, 0, 0),) + monomial_exponents(max_degree))
    coefficient = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
    return st.dictionaries(exponent, coefficient, min_size=1, max_size=10).map(
        lambda terms: SparsePoly(4, terms)
    )


def row_sign(f, point, top: int) -> int:
    (row,) = _homogeneous_rows([point], top)
    return _dot_sign(_dense_coefficients(f, row_index(top)), row)


@ORACLE
@given(point=points, degree=st.integers(1, 6))
def test_lift_matches_power_products(point, degree):
    exps = monomial_exponents(degree)
    lifted = _lift_row(point, exps)
    assert lifted == power_product_lift(point, exps)
    assert all(type(v) is int for v in lifted) == all(type(x) is int for x in point)


@ORACLE
@given(point=points, degree=st.integers(1, 6))
def test_rows_are_homogenised_lifts(point, degree):
    (row,) = _homogeneous_rows([point], degree)
    m = math.lcm(*(x.denominator for x in point))
    scaled = tuple(x * m for x in point)
    gaps = [degree] + [degree - sum(e) for e in monomial_exponents(degree)]
    expected = [v * m**g for v, g in zip(power_product_lift(scaled, monomial_exponents(degree)), gaps)]
    assert row == expected
    assert all(type(v) is int for v in row)


@ORACLE
@given(data=st.data(), top=st.integers(1, 6))
def test_row_sign_matches_sign_vector(data, top):
    f = data.draw(factors(data.draw(st.integers(1, top))))
    x = data.draw(points)
    assert row_sign(f, x, top) == sign_vector((f,), x)[0]


@ORACLE
@given(data=st.data(), top=st.integers(2, 6))
def test_forced_zero_set(data, top):
    """f * (x_i - a) vanishes wherever x_i = a, whatever f is there."""
    f = data.draw(factors(data.draw(st.integers(1, top - 1))))
    x = data.draw(points)
    i = data.draw(st.integers(0, 3))
    linear = SparsePoly(4, {(0, 0, 0, 0): -F(x[i]), tuple(int(k == i) for k in range(4)): 1})
    g = f * linear
    assert row_sign(g, x, top) == sign_vector((g,), x)[0] == 0
    assert row_sign(f, x, top) == sign_vector((f,), x)[0]


def _no_sign_vector(*args, **kwargs):
    raise AssertionError("build_partition called sign_vector")


@pytest.mark.parametrize("coords", ["int", "fraction"])
def test_build_certifies_without_sign_vector(coords, monkeypatch):
    """Candidates are certified on the cached rows, not one `sign_vector`
    call per point per candidate; the result still meets the cell bound
    when every point is assigned by `sign_vector`."""
    rng = random.Random(5)
    if coords == "int":
        pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(96)]
    else:
        pts = [tuple(F(rng.randint(-400, 400), rng.randint(1, 9)) for _ in range(4)) for _ in range(96)]
    params = PartitionParams(4, F(1, 10))
    with monkeypatch.context() as patched:
        patched.setattr(partition, "sign_vector", _no_sign_vector)
        part = build_partition(pts, params, seed=2)
    assert part.rounds == 4
    tally = assign_cells(pts, part)
    assert max(tally.values()) <= round_cell_bound(len(pts), 4, F(1, 10))
    assert sum(tally.values()) <= len(pts)
