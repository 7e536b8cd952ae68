"""The machine-word path of the sign kernel against Python-int references.

Every row set is a 2-D numpy matrix.  The bisection search lifts int
points in int64 and multiplies int64 rows by integer vectors only under
an a-priori bound: max|x|^K < 2^63 for a lift, max|row| * sum|vec| <
2^63 for a dot product.  Every other matrix holds exact Python ints and
Fractions (dtype object).  The oracles here compare `_dots` and
`_row_signs` on int64 rows, and `sign_vectors`, with plain Python-int
sums (and Fraction evaluation) at magnitudes drawn on both sides of
those bounds; the forced cases put each fallback on a value where int64
arithmetic would wrap.  The last tests check that no numpy integer
leaves the kernel or the bisection search for exact code.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidence4 import partition
from incidence4.exactpoly import (
    SparsePoly,
    _dots,
    _homogeneous_rows,
    _lift_matrix,
    _max_abs,
    _point_matrix,
    _row_signs,
    monomial_exponents,
    rat,
    sign,
    sign_vectors,
)
from incidence4.partition import (
    PartitionParams,
    assign_cells,
    build_partition,
    ham_sandwich_bisect,
)
from test_partition_rows import power_product_lift

WORD = 2**63
ORACLE = settings(max_examples=150, deadline=None)


def word_root(k: int) -> int:
    """The largest b with b^k < 2^63."""
    b = math.isqrt(WORD) if k == 2 else round(WORD ** (1 / k))
    while b**k >= WORD:
        b -= 1
    while (b + 1) ** k < WORD:
        b += 1
    return b


def python_dots(rows, vec):
    return [sum(a * b for a, b in zip(vec, row)) for row in rows]


def all_int(values) -> bool:
    return all(type(v) is int for v in values)


# ---------------------------------------------------------------------------
# Oracles near 2^63
# ---------------------------------------------------------------------------

@ORACLE
@given(data=st.data(), width=st.integers(1, 8), nrows=st.integers(1, 5))
def test_dots_match_python_sums(data, width, nrows):
    """Entries of about 2^row_bits and 2^vec_bits, with row_bits +
    vec_bits around 63, so the bound holds in some draws and fails in
    others; the int64 rows themselves always fit."""
    row_bits = data.draw(st.integers(0, 62))
    vec_bits = data.draw(st.integers(max(0, 58 - row_bits), 66 - row_bits))
    entry = st.integers(-(2**row_bits), 2**row_bits)
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=nrows, max_size=nrows))
    vec = data.draw(st.lists(st.integers(-(2**vec_bits), 2**vec_bits), min_size=1, max_size=width))
    got = _dots(np.array(rows, dtype=np.int64), vec)
    assert got == python_dots(rows, vec)
    assert all_int(got)


def sparse_polys(nvars: int, degree: int, coefficient_bits: int):
    exponent = st.sampled_from(((0,) * nvars,) + monomial_exponents(degree, nvars))
    coefficient = st.integers(-(2**coefficient_bits), 2**coefficient_bits).filter(bool)
    return st.dictionaries(exponent, coefficient, min_size=1, max_size=8).map(
        lambda terms: SparsePoly(nvars, terms)
    )


@ORACLE
@given(data=st.data(), nvars=st.sampled_from((4, 2)), degree=st.integers(1, 6))
def test_signs_near_the_lift_bound(data, nvars, degree):
    """Int points with coordinates around the largest b with b^degree <
    2^63, and integer coefficients up to 2^40: rows that lift in int64 or
    not, products that multiply in int64 or not.  The references are the
    Python-int lift dotted by hand and the Fraction evaluation; the rows
    are the int64 lift wherever it fits."""
    b = word_root(degree)
    near = st.integers(-b - 2, b + 2)
    small = st.integers(-3, 3)
    coordinate = st.one_of(near, small)
    pts = data.draw(st.lists(st.tuples(*[coordinate] * nvars), min_size=1, max_size=4))
    f = data.draw(sparse_polys(nvars, degree, data.draw(st.integers(0, 40))))
    g = data.draw(sparse_polys(nvars, max(1, degree - 1), 3))
    exps = monomial_exponents(degree, nvars)
    x = _point_matrix(pts, degree)
    rows = _lift_matrix(x, exps) if x.dtype == np.int64 else _homogeneous_rows(pts, degree)
    python_rows = [power_product_lift(p, exps) for p in pts]
    vec = f.integer_coeffs
    assert _dots(rows, vec) == python_dots(python_rows, vec)
    signs = _row_signs(f, rows)
    assert signs == [sign(f.eval(p)) for p in pts]
    assert all_int(signs)
    vectors = sign_vectors((f, g), pts)
    assert vectors == [(sign(f.eval(p)), sign(g.eval(p))) for p in pts]
    assert all(all_int(v) for v in vectors)


# ---------------------------------------------------------------------------
# Forced fallbacks
# ---------------------------------------------------------------------------

def test_vector_past_the_bound_is_summed_exactly():
    rows = np.array([[1, 2**62], [-1, -(2**62)]], dtype=np.int64)
    # 4 * 2^62 = 2^64 wraps to 0 in int64
    assert _dots(rows, [0, 4]) == [2**64, -(2**64)]
    # 2^62 + 2^62 * 2^62 is past the bound by its size alone
    assert _dots(rows, [2**62, 2**62]) == [2**62 + 2**124, -(2**62) - 2**124]
    # a vector too wide for int64 against a zero block
    assert _dots(np.zeros((1, 2), dtype=np.int64), [2**70, 1]) == [0]
    assert _dots(rows[:0], [1, 1]) == []


@pytest.mark.parametrize("degree", [1, 2, 3, 6])
def test_lift_at_the_word_bound(degree):
    b = word_root(degree)
    assert b**degree < WORD <= (b + 1) ** degree
    assert _point_matrix([(b, -b, 1, 0)], degree).dtype == np.int64
    assert _point_matrix([(b + 1, 0, 0, 0)], degree).dtype == object
    assert _point_matrix([(0, 0, 0, -b - 1)], degree).dtype == object
    (row,) = _homogeneous_rows([(b + 1, 0, 0, 0)], degree)
    assert row[monomial_exponents(degree, 4).index((degree, 0, 0, 0)) + 1] == (b + 1) ** degree
    assert all_int(row)


def test_lift_past_the_bound_keeps_2_to_the_64():
    exps = monomial_exponents(2, 4)
    rows = _homogeneous_rows([(2**32, 1, 1, 1)], 2)
    assert rows.dtype == object
    (row,) = rows
    assert row[exps.index((2, 0, 0, 0)) + 1] == 2**64


def test_coordinate_minus_2_to_the_63():
    """np.abs(-2^63) is -2^63 in int64; the bound takes it in Python ints."""
    x = np.array([-(2**63), 0], dtype=np.int64)
    assert np.abs(x)[0] == -(2**63)  # the wrap the kernel must not rely on
    assert _max_abs(x) == 2**63
    point = (-(2**63), 0, 0, 0)
    assert _point_matrix([point], 1).dtype == object
    # x1 - 1 at -2^63 is -2^63 - 1, which wraps to 2^63 - 1 in int64
    f = SparsePoly(4, {(1, 0, 0, 0): 1, (0, 0, 0, 0): -1})
    assert sign_vectors((f,), [point]) == [(-1,)]
    rows = np.array([[1, -(2**63)]], dtype=np.int64)
    assert _dots(rows, [-1, 1]) == [-(2**63) - 1]


def test_set_whose_shifted_coordinates_overflow(monkeypatch):
    """Each set fits a word, and the near set still does after the shift
    by the common centre (about 0.16 * 2^63), but the far set moves past
    -2^63: it is shifted and lifted in Python ints."""
    a, c = 5 * 2**60, 15 * 2**59
    near = [(a + i, i - 3, i % 2, 0) for i in range(7)]
    far = [(-c - i, i - 1, 0, i) for i in range(3)]
    lifted = []
    lift_matrix = partition._lift_matrix

    def matrix_spy(z, exps):
        lifted.append((z.dtype.name, len(z)))
        if z.dtype == object:
            assert all_int(z.ravel())
            assert min(z[:, 0]) < -(2**63)
        return lift_matrix(z, exps)

    monkeypatch.setattr(partition, "_lift_matrix", matrix_spy)
    h = ham_sandwich_bisect([near, far], 1, 0)
    assert lifted == [("int64", 7), ("object", 3)]
    for s in (near, far):
        values = [h.eval(p) for p in s]
        cap = math.ceil(len(s) / 2)
        assert sum(v > 0 for v in values) <= cap and sum(v < 0 for v in values) <= cap


def test_fraction_and_mixed_points():
    f = SparsePoly(4, {(2, 0, 0, 0): 3, (0, 1, 1, 0): F(-1, 2), (0, 0, 0, 0): 7})
    pts = [(1, 2, 3, 4), (F(1, 3), 2, F(-5, 2), 0), (F(6, 3), -4, 0, 1), (2**40, 0, 0, 0)]
    assert sign_vectors((f,), pts) == [(sign(f.eval(p)),) for p in pts]
    # one set of int points, one of Fraction points, in one search
    ints = [(i, (3 * i) % 7, i % 3, 1) for i in range(-4, 5)]
    fracs = [(F(i, 3), F(1, i + 10), 0, i) for i in range(-3, 4)]
    h = ham_sandwich_bisect([ints, fracs], 2, 0)
    for s in (ints, fracs):
        values = [h.eval(p) for p in s]
        cap = math.ceil(len(s) / 2)
        assert sum(v > 0 for v in values) <= cap and sum(v < 0 for v in values) <= cap


# ---------------------------------------------------------------------------
# One row type
# ---------------------------------------------------------------------------

ROW_SETS = {
    "int": [(1, 2, 3, 4), (0, 5, 6, 7)],
    "negative": [(-1, -2, 3, -4), (-50, 0, 0, -9)],
    "fraction": [(F(1, 3), F(-5, 2), F(6, 3), 0), (F(7, 4), 1, 2, 3)],
    "mixed": [(1, 2, 3, 4), (F(1, 3), 2, F(-5, 2), 0)],
    "numpy-int": [(np.int64(3), np.int32(-1), 1, 1), (np.int64(2**40), 0, 1, 2)],
    "past-the-bound": [(2**63, -1, 0, 0), (-(2**70), 1, 1, 1)],
}


@pytest.mark.parametrize("degree", [1, 3])
@pytest.mark.parametrize("name", ROW_SETS)
def test_row_matrices_are_int64_or_exact_objects(name, degree):
    """Points, lifts and homogeneous rows are 2-D int64 or object
    matrices; an object one holds no numpy scalar.  The points go to
    int64 exactly when they are integral and max|x|^degree < 2^63, and
    the sign kernel's rows stay object even then."""
    pts = ROW_SETS[name]
    exact = [tuple(rat(v) for v in p) for p in pts]
    exps = monomial_exponents(degree, 4)
    x = _point_matrix(pts, degree)
    lifted = _lift_matrix(x, exps)
    rows = _homogeneous_rows(pts, degree)
    for a in (x, lifted, rows):
        assert a.ndim == 2 and a.shape[0] == len(pts) and a.dtype in (np.int64, object)
        if a.dtype == object:
            assert not any(isinstance(v, np.generic) for v in a.ravel())
    integral = all(v.denominator == 1 for p in exact for v in p)
    fits = integral and max(abs(v) for p in exact for v in p) ** degree < WORD
    assert (x.dtype == np.int64) == fits
    assert lifted.dtype == x.dtype and rows.dtype == object
    assert lifted.tolist() == [power_product_lift(p, exps) for p in exact]


def test_int64_lift_dotted_past_the_bound():
    """An int64 lift dotted with a vector past the dot bound gives the
    power-product sums, as Python ints."""
    b = word_root(3)
    pts = [(b, -b, 1, 0), (-b, 2, b, 3)]
    exps = monomial_exponents(3, 4)
    rows = _lift_matrix(_point_matrix(pts, 3), exps)
    assert rows.dtype == np.int64
    vec = [3, -(2**20), 7] + [2**40] * (len(exps) - 2)
    assert _max_abs(rows) * sum(map(abs, vec)) >= WORD
    got = _dots(rows, vec)
    assert got == python_dots([power_product_lift(p, exps) for p in pts], vec)
    assert all_int(got)


# ---------------------------------------------------------------------------
# numpy integers in and out
# ---------------------------------------------------------------------------

def test_numpy_integers_become_ints():
    x = partition._exact(np.int64(3))
    assert x == 3 and type(x) is int
    assert type(rat(np.int64(-7)).numerator) is int
    # 2^40 squared is 2^80, which int64 arithmetic wraps to 0
    exps = monomial_exponents(2, 4)
    (row,) = _homogeneous_rows([(np.int64(2**40), 1, 1, 1)], 2)
    assert row[exps.index((2, 0, 0, 0)) + 1] == 2**80
    assert all_int(row)
    f = SparsePoly(4, {(1, 0, 0, 0): 1, (0, 0, 0, 0): -4})
    for point in [(np.int64(3), 1, 1, 1), (np.int64(2**40), np.int32(1), 1, 1)]:
        got = sign_vectors((f, f * f - SparsePoly(4, {(0, 0, 0, 0): 2**90})), [point])
        plain = tuple(int(v) for v in point)
        assert got == sign_vectors((f, f * f - SparsePoly(4, {(0, 0, 0, 0): 2**90})), [plain])
        assert all_int(got[0])


def test_no_numpy_integer_reaches_exact_code(monkeypatch):
    """A build whose search reaches the anchored stage, on int points
    given as numpy integers: every score column and template handed to
    `_try_sweep`, every Fraction built and every sign returned holds
    Python ints only."""
    rng = random.Random(4)
    pts = [tuple(np.int64(rng.randint(-50, 50)) for _ in range(4)) for _ in range(128)]
    seen = {"sweeps": 0, "anchored": 0}
    try_sweep, rref, new = partition._try_sweep, partition.rref, F.__new__

    def checked_sweep(columns, caps, exps, template):
        seen["sweeps"] += 1
        assert all(all_int(col) for col in columns) and all_int(template)
        return try_sweep(columns, caps, exps, template)

    def checked_rref(rows):
        seen["anchored"] += 1
        assert all(type(v.numerator) is int for row in rows for v in row)
        return rref(rows)

    def checked_new(cls, numerator=0, denominator=None, **kwargs):
        assert not isinstance(numerator, np.generic) and not isinstance(denominator, np.generic)
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(partition, "_try_sweep", checked_sweep)
    monkeypatch.setattr(partition, "rref", checked_rref)
    monkeypatch.setattr(F, "__new__", checked_new)
    part = build_partition(pts, PartitionParams(4, F(1, 10)), seed=4)
    assert seen["sweeps"] and seen["anchored"]
    for f in part.factors:
        assert all(type(c) is int for c in f.integer_coeffs)
    tally = assign_cells(pts, part)
    assert all(all_int(sv) for sv in tally)
    plain = [tuple(int(v) for v in p) for p in pts]
    assert build_partition(plain, PartitionParams(4, F(1, 10)), seed=4) == part
