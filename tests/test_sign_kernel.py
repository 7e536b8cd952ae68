"""The integer sign kernel against Fraction evaluation.

`exactpoly.sign_vectors` decides the sign of each polynomial at each point
in Python ints: every point is cleared to P/m and lifted once, and each
sign is a dot product with the stored primitive integer form of the
polynomial; `sign_vector` is its one-point call.  The reference is the
direct way: the sign of `SparsePoly.eval` on Fractions.  Hypothesis draws
4- and 2-variable polynomials with Fraction coefficients, points of int,
integral-Fraction and mixed-denominator coordinates, and forces points
onto the zero set.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from incidence4.exactpoly import SparsePoly, sign, sign_vector, sign_vectors
from incidence4.partition import assign_cells

KERNEL = settings(max_examples=150, deadline=None)

coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coordinates = st.one_of(
    st.integers(-60, 60),
    st.integers(-60, 60).map(F),
    st.fractions(min_value=-60, max_value=60, max_denominator=30),
)


def polys(nvars: int, max_degree: int = 4):
    exponent = st.lists(
        st.integers(0, max_degree), min_size=nvars, max_size=nvars
    ).filter(lambda e: sum(e) <= max_degree).map(tuple)
    return st.dictionaries(exponent, coefficients, max_size=12).map(
        lambda terms: SparsePoly(nvars, terms)
    )


def points(nvars: int):
    return st.lists(coordinates, min_size=nvars, max_size=nvars).map(tuple)


def reference(ps, x):
    return tuple(sign(p.eval(x)) for p in ps)


@pytest.mark.parametrize("nvars", [4, 2])
@KERNEL
@given(data=st.data())
def test_matches_fraction_eval(nvars, data):
    p = data.draw(polys(nvars))
    x = data.draw(points(nvars))
    assert sign_vector((p,), x) == reference((p,), x)


@pytest.mark.parametrize("nvars", [4, 2])
@KERNEL
@given(data=st.data())
def test_several_degrees_in_one_call(nvars, data):
    ps = [data.draw(polys(nvars, max_degree=d)) for d in (1, 2, 3, 5)]
    x = data.draw(points(nvars))
    assert sign_vector(ps, x) == reference(ps, x)


@pytest.mark.parametrize("nvars", [4, 2])
@KERNEL
@given(data=st.data())
def test_forced_zero_set(nvars, data):
    """p * (x_i - a) vanishes wherever x_i = a, whatever p is there."""
    p = data.draw(polys(nvars, max_degree=3))
    x = list(data.draw(points(nvars)))
    i = data.draw(st.integers(0, nvars - 1))
    a = x[i]
    linear = SparsePoly(nvars, {(0,) * nvars: -F(a), tuple(int(k == i) for k in range(nvars)): 1})
    assert sign_vector((p * linear, p), x) == (0, sign(p.eval(x)))


@KERNEL
@given(value=coefficients, x=points(4))
def test_constant_and_zero_polys(value, x):
    const = SparsePoly.constant(4, value)
    zero = SparsePoly.zero(4)
    assert sign_vector((const, zero), x) == (sign(value), 0)


def test_integer_form_is_primitive_and_positive():
    p = SparsePoly(2, {(1, 0): F(-3, 4), (0, 2): F(9, 8), (0, 0): F(3, 2)})
    # 8 * (-3/4, 9/8, 3/2) = (-6, 9, 12), divided by their gcd 3, in the
    # graded order 1, x1, x2, x1^2, x1*x2, x2^2
    assert p.integer_coeffs == (4, -2, 0, 0, 0, 3)
    assert p.integer_scale == F(8, 3)
    assert SparsePoly.from_integers(2, {(1, 0): -6, (0, 2): 9, (0, 0): 12}, 8) == p
    assert SparsePoly.zero(4).integer_coeffs == ()
    assert SparsePoly.zero(4).integer_scale == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sign_vector((SparsePoly.variable(4, 0),), (1, 2))
    with pytest.raises(ValueError):
        sign_vectors((SparsePoly.variable(2, 0),), [(1, 2), (1, 2, 3, 4)])


def test_no_polynomials_give_empty_vectors():
    assert sign_vector((), (1, F(1, 2), 3, 4)) == ()
    assert sign_vectors((), [(1, 2), (3, 4)]) == [(), ()]


@pytest.mark.parametrize("nvars", [4, 2])
@KERNEL
@given(data=st.data())
def test_batch_matches_fraction_eval(nvars, data):
    """Several points lifted in one call, at mixed degrees and scales."""
    ps = [data.draw(polys(nvars, max_degree=d)) for d in (0, 2, 4)]
    xs = data.draw(st.lists(points(nvars), max_size=6))
    assert sign_vectors(ps, xs) == [reference(ps, x) for x in xs]


def test_assign_cells_matches_fraction_reference(big_partition):
    points, part, _ = big_partition
    tally: dict = {}
    for x in points:
        sv = reference(part.factors, x)
        if 0 not in sv:
            tally[sv] = tally.get(sv, 0) + 1
    assert assign_cells(points, part) == tally
