"""Exact polynomial substrate: restriction, root counting and isolation, resultants,
and the bivariate intersection check."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from incidence4 import exactpoly
from incidence4.exactpoly import (
    GenericPositionError,
    SparsePoly,
    UniPoly,
    ZeroPolynomialError,
    bezout_point_check,
    have_common_factor,
    isolate_real_roots,
    merge_real_roots,
    poly2,
    poly4,
    resultant_bivariate,
    restrict_to_flat2,
    restrict_to_line,
    sample_points_between_roots,
)
from incidence4.flats import Flat2, Line4

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


def small_poly4(rng: random.Random, degree: int = 2, terms: int = 4) -> SparsePoly:
    d = {}
    for _ in range(terms):
        e = [0, 0, 0, 0]
        for _ in range(degree):
            e[rng.randrange(4)] += rng.random() < 0.6
        d[tuple(int(x) for x in e)] = rng.randint(-5, 5)
    return poly4(d)


class TestEvaluation:
    def test_zero_input(self):
        p = poly4({(1, 0, 0, 0): 1})
        assert p.eval((0, 0, 0, 0)) == 0

    def test_direct_substitution(self):
        p = poly4({(2, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1})
        assert p.eval((2, 0, 0, 1)) == 4

    def test_root_of_factor(self):
        # (x1-1)(x2-3) expanded
        p = poly4({(1, 1, 0, 0): 1, (1, 0, 0, 0): -3, (0, 1, 0, 0): -1, (0, 0, 0, 0): 3})
        assert p.eval((1, 7, 0, 0)) == 0

    def test_product_evaluation(self):
        rng = random.Random(1)
        for _ in range(10):
            a, b = small_poly4(rng), small_poly4(rng)
            x = tuple(rng.randint(-3, 3) for _ in range(4))
            assert (a * b).eval(x) == a.eval(x) * b.eval(x)


class TestRestriction:
    def test_parabola_to_line(self):
        p = poly4({(2, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1})
        ln = Line4((0, 0, 0, 0), (1, 0, 0, 0))
        assert restrict_to_line(p, ln) == UniPoly((-1, 0, 1))

    def test_parallel_line_is_constant(self):
        p = poly4({(0, 1, 0, 0): 1})
        ln = Line4((0, 5, 0, 0), (1, 0, 0, 0))
        assert restrict_to_line(p, ln) == UniPoly((5,))

    def test_diagonal_direction(self):
        p = poly4({(1, 1, 0, 0): 1, (0, 0, 0, 0): -1})
        ln = Line4((0, 0, 0, 0), (1, 1, 0, 0))
        assert restrict_to_line(p, ln) == UniPoly((-1, 0, 1))

    def test_flat_inside_zero_set(self):
        p = poly4({(0, 0, 0, 1): 1})
        fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        assert restrict_to_flat2(p, fl).is_zero

    def test_circle_restriction(self):
        p = poly4({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 0, 0): -1})
        fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        assert restrict_to_flat2(p, fl) == poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1})

    def test_never_zero_on_flat(self):
        p = poly4({(0, 0, 1, 0): 1, (0, 0, 0, 0): -2})
        fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        assert restrict_to_flat2(p, fl) == poly2({(0, 0): -2})

    def test_degree_never_grows(self):
        rng = random.Random(7)
        for _ in range(25):
            p = small_poly4(rng, degree=3)
            if p.is_zero:
                continue
            ln = Line4(
                tuple(rng.randint(-4, 4) for _ in range(4)),
                tuple(rng.randint(-3, 3) for _ in range(4)) or (1, 0, 0, 0),
            )
            f = restrict_to_line(p, ln)
            assert f.degree <= p.degree

    @given(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    @settings(max_examples=40)
    def test_restrict_commutes_with_eval(self, t0):
        rng = random.Random(int(t0 * 24) & 0xFFFF)
        p = small_poly4(rng, degree=3)
        ln = Line4((1, 2, 0, -1), (3, 1, 2, 1))
        f = restrict_to_line(p, ln)
        direct = p.eval(ln.point_at(t0))
        assert f.eval(t0) == direct


def roots_in(f: UniPoly, lo, hi) -> int:
    """Distinct real roots of f in (lo, hi], from the isolating intervals."""
    return sum(1 for r in isolate_real_roots(f) if r.compare_to(lo) > 0 >= r.compare_to(hi))


def compare(a, b) -> int:
    """-1, 0, +1 ordering of two isolated roots of possibly different
    polynomials."""
    return exactpoly._compare(a, b, lambda: exactpoly._shared_factor(a.coeffs, b.coeffs))[0]


class TestSturm:
    """Distinct real root counts, read off `isolate_real_roots`."""

    def test_two_roots(self):
        assert roots_in(UniPoly((-1, 0, 1)), -2, 2) == 2

    def test_no_real_roots(self):
        assert len(isolate_real_roots(UniPoly((1, 0, 1)))) == 0

    def test_multiplicity_collapses(self):
        f = UniPoly.from_roots([1, 1, 3])
        assert roots_in(f, 0, 4) == 2

    def test_half_open_endpoints(self):
        f = UniPoly.from_roots([1])
        assert roots_in(f, 0, 1) == 1
        assert roots_in(f, 1, 2) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            isolate_real_roots(UniPoly.zero())

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_count_at_most_degree(self, roots):
        f = UniPoly.from_roots(roots)
        assert len(isolate_real_roots(f)) <= f.degree
        assert len(isolate_real_roots(f)) == len(set(roots))


class TestIsolation:
    def test_sorted_disjoint(self):
        f = UniPoly.from_roots([-3, F(1, 2), 7])
        roots = isolate_real_roots(f)
        assert len(roots) == 3
        for r, v in zip(roots, [F(-3), F(1, 2), F(7)]):
            assert r.compare_to(v) == 0
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo

    def test_samples_interleave(self):
        f = UniPoly.from_roots([-3, F(1, 2), 7])
        roots = isolate_real_roots(f)
        pts = sample_points_between_roots(roots)
        assert len(pts) == 4
        values = [F(-3), F(1, 2), F(7)]
        for i, c in enumerate(pts):
            if i > 0:
                assert c > values[i - 1]
            if i < len(values):
                assert c < values[i]
            assert f.eval(c) != 0
        # Exact roots less than 1 apart, merged with the irrational +-1/sqrt(5).
        exact = UniPoly.from_roots([0, F(1, 3), F(1, 2)])
        irrational = UniPoly((F(-1, 5), 0, 1))
        roots = merge_real_roots([isolate_real_roots(exact), isolate_real_roots(irrational)])
        assert len(roots) == 5
        pts = sample_points_between_roots(roots)
        assert len(pts) == 6
        for i, c in enumerate(pts):
            if i > 0:
                assert roots[i - 1].compare_to(c) < 0
            if i < len(roots):
                assert roots[i].compare_to(c) > 0
            assert exact.eval(c) != 0 and irrational.eval(c) != 0

    def test_merge_shared_roots(self):
        f = UniPoly.from_roots([1, 5])
        g = UniPoly.from_roots([5, 9])
        merged = merge_real_roots([isolate_real_roots(f), isolate_real_roots(g)])
        assert len(merged) == 3
        for r, v in zip(merged, [1, 5, 9]):
            assert r.compare_to(v) == 0

    def test_merge_interleaving(self):
        f = UniPoly.from_roots([0, 2, 4])
        g = UniPoly.from_roots([1, 3])
        merged = merge_real_roots([isolate_real_roots(f), isolate_real_roots(g)])
        assert [r.compare_to(v) for r, v in zip(merged, [0, 1, 2, 3, 4])] == [0] * 5

    def test_compare_irrational_shared(self):
        # both have sqrt(2) as a root; one also has sqrt(3)
        f = UniPoly((-2, 0, 1))
        g = UniPoly((6, 0, -5, 0, 1))  # (t^2-2)(t^2-3)
        rf = [r for r in isolate_real_roots(f) if r.compare_to(0) > 0]
        rg = [r for r in isolate_real_roots(g) if r.compare_to(0) > 0]
        assert len(rf) == 1 and len(rg) == 2
        assert compare(rf[0], rg[0]) == 0
        assert compare(rf[0], rg[1]) == -1


class TestResultants:
    @staticmethod
    def in_y(f: UniPoly) -> SparsePoly:
        return poly2({(0, k): c for k, c in enumerate(f.coeffs)})

    def test_distinct_linear(self):
        res = resultant_bivariate(self.in_y(UniPoly((0, 1))), self.in_y(UniPoly((-1, 1))), 1)
        assert res == UniPoly.constant(-1)

    def test_shared_root_vanishes(self):
        f = UniPoly.from_roots([2, 3])
        g = UniPoly.from_roots([3, 5])
        assert resultant_bivariate(self.in_y(f), self.in_y(g), 1).is_zero

    def test_square_free_part(self):
        f = UniPoly.from_roots([1, 1, 2])
        want = UniPoly.from_roots([1, 2]).integer_coeffs
        assert exactpoly._square_free(f.integer_coeffs) == want

    def test_gcd(self):
        f = UniPoly.from_roots([1, 4])
        g = UniPoly.from_roots([4, 6])
        assert exactpoly._gcd_z(f.integer_coeffs, g.integer_coeffs) == (-4, 1)


class TestBezout:
    def test_circle_and_diagonal(self):
        circle = poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        diag = poly2({(1, 0): 1, (0, 1): -1})
        assert bezout_point_check(circle, diag) == (False, 2)

    def test_parallel_lines(self):
        a = poly2({(1, 0): 1})
        b = poly2({(1, 0): 1, (0, 0): -1})
        assert bezout_point_check(a, b) == (False, 0)

    def test_shared_factor(self):
        xy = poly2({(1, 1): 1})
        xy1 = poly2({(1, 1): 1, (1, 0): -1})
        assert bezout_point_check(xy, xy1) == (True, None)
        assert have_common_factor(xy, xy1)

    def test_tangency_counts_once(self):
        par = poly2({(0, 1): 1, (2, 0): -1})
        line = poly2({(0, 1): 1})
        assert bezout_point_check(par, line) == (False, 1)

    def test_complex_only_intersections(self):
        circle = poly2({(2, 0): 1, (0, 2): 1, (0, 0): -1})
        far = poly2({(1, 0): 1, (0, 0): -3})
        assert bezout_point_check(circle, far) == (False, 0)

    def test_cubic_pair(self):
        c1 = poly2({(3, 0): 1, (0, 1): -1})  # y = x^3
        c2 = poly2({(0, 3): 1, (1, 0): -1})  # x = y^3
        assert bezout_point_check(c1, c2) == (False, 3)

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            bezout_point_check(poly2({}), poly2({(1, 0): 1}))

    def test_shared_singular_point_raises(self):
        s1 = poly2({(0, 2): 1, (2, 0): -1})
        s2 = poly2({(0, 2): 1, (2, 0): -2})
        with pytest.raises(GenericPositionError):
            bezout_point_check(s1, s2)

    def test_randomized_bezout_bound(self):
        rng = random.Random(12345)
        done = 0
        while done < 30:
            q1 = _random_bipoly(rng, 3)
            q2 = _random_bipoly(rng, 3)
            if q1.is_zero or q2.is_zero or q1.degree == 0 or q2.degree == 0:
                continue
            common, count = bezout_point_check(q1, q2)
            if common:
                continue
            assert count <= q1.degree * q2.degree
            done += 1


def _random_bipoly(rng: random.Random, max_degree: int) -> SparsePoly:
    terms = {}
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            if rng.random() < 0.5:
                terms[(a, b)] = rng.randint(-4, 4)
    return poly2(terms)
