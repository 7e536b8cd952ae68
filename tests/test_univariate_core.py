"""The integer univariate core against sympy, and its exact fallbacks.

`isolate_real_roots` isolates by Descartes bisection on integer
coefficients; `merge_real_roots` / `_compare` and the square-free part
`_square_free` skip every gcd when a mod-p certificate holds.  The
oracles are sympy's Sturm counts, gcds, square-free parts and
resultants.  The fallback tests build inputs on which each certificate
must fail, and check that the exact subresultant gcd ran and that the
answer is still right.

Isolated roots are dyadic: (a, s) with the root a/2^s or inside
(a/2^s, (a+1)/2^s).  Products of linear factors q*x - p, with dyadic and
other roots, a root at 0, repeated factors, roots shared between
polynomials and roots large enough that s < 0, are checked end to end
(isolation, merging, samples, `compare_to`) against sympy's root counts,
and every `lo`/`hi` view against a/2^s and (a+1)/2^s in sympy.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from incidence4 import exactpoly
from incidence4.exactpoly import (
    CERTIFICATE_PRIME as P,
    UniPoly,
    isolate_real_roots,
    merge_real_roots,
    poly2,
    resultant_bivariate,
    sample_points_between_roots,
)

sp = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
x, y = sp.symbols("x y")

ORACLE = settings(max_examples=60, deadline=None)

small_ints = st.integers(-12, 12)
int_polys = st.lists(small_ints, min_size=1, max_size=6).map(UniPoly)


@st.composite
def unipolys(draw):
    """A nonzero rational polynomial, often with repeated factors."""
    f = draw(int_polys)
    if draw(st.booleans()):
        g = draw(st.lists(small_ints, min_size=2, max_size=3).map(UniPoly))
        f = f * g * g
    assume(not f.is_zero)
    return f * draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))


def to_sympy(f: UniPoly):
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)


def int_to_sympy(cs):
    """The sympy polynomial of integer coefficients, lowest degree first."""
    return sp.Poly(list(reversed(cs)), x)


def compare(a, b) -> int:
    """-1, 0, +1 ordering of two isolated roots of possibly different
    polynomials."""
    return exactpoly._compare(a, b, lambda: exactpoly._shared_factor(a.coeffs, b.coeffs))[0]


def rational(c: F):
    return sp.Rational(c.numerator, c.denominator)


def same(p, q) -> bool:
    return sp.expand(p.as_expr() - q.as_expr()) == 0


def check_isolation(roots, poly) -> None:
    """The k-th root lies in its interval: exactly k distinct roots of
    `poly` are below lo and k+1 are at most hi."""
    assert len(roots) == poly.count_roots()
    for k, r in enumerate(roots):
        assert r.is_exact == (r.lo == r.hi)
        if r.is_exact:
            assert r.lo_sign == 0
            assert poly.eval(rational(r.lo)) == 0
            assert poly.count_roots(None, rational(r.lo)) == k + 1
        else:
            assert r.lo < r.hi
            assert poly.count_roots(None, rational(r.lo)) == k
            assert poly.count_roots(None, rational(r.hi)) == k + 1
    for a, b in zip(roots, roots[1:]):
        assert a.hi < b.lo


@ORACLE
@given(f=unipolys())
def test_isolation_matches_sympy(f):
    if f.degree == 0:
        assert isolate_real_roots(f) == []
        return
    roots = isolate_real_roots(f)
    check_isolation(roots, to_sympy(f))
    for _ in range(3):
        roots = [r.refined() for r in roots]
        check_isolation(roots, to_sympy(f))


@ORACLE
@given(f=unipolys(), lo=small_ints, width=st.integers(0, 12))
def test_half_open_count_matches_sympy(f, lo, width):
    hi = lo + width
    got = sum(1 for r in isolate_real_roots(f) if r.compare_to(lo) > 0 >= r.compare_to(hi))
    if f.degree == 0:
        assert got == 0
        return
    poly = to_sympy(f)
    want = poly.count_roots(lo, hi) - (poly.eval(lo) == 0)
    assert got == want


@ORACLE
@given(fs=st.lists(unipolys(), min_size=1, max_size=4))
def test_merge_matches_sympy(fs):
    fs = [f for f in fs if f.degree >= 1]
    assume(fs)
    merged = merge_real_roots([isolate_real_roots(f) for f in fs])
    product = sp.Poly(1, x)
    for f in fs:
        product *= to_sympy(f)
    check_isolation(merged, product)


# ---------------------------------------------------------------------------
# Dyadic roots of products of linear factors
# ---------------------------------------------------------------------------

@st.composite
def linear_factors(draw):
    """(p, q) of the factor q*x - p, q > 0: a dyadic root, another
    rational root, the root 0, or a root of modulus up to 10^9."""
    kind = draw(st.sampled_from(("dyadic", "rational", "zero", "large")))
    if kind == "zero":
        return 0, 1
    if kind == "dyadic":
        return draw(st.integers(-40, 40)), 2 ** draw(st.integers(0, 6))
    if kind == "rational":
        return draw(st.integers(-40, 40)), draw(st.sampled_from((3, 5, 7, 9, 11)))
    return draw(st.integers(-10**9, 10**9)), draw(st.integers(1, 7))


@st.composite
def factor_products(draw):
    """(2-4 polynomials, their roots): each polynomial a product over a
    subset of one shared pool of linear factors, with multiplicities 1-3."""
    pool = draw(st.lists(linear_factors(), min_size=1, max_size=5))
    polys, roots = [], set()
    for _ in range(draw(st.integers(2, 4))):
        f = UniPoly.constant(draw(st.integers(1, 10**6)))
        for p, q in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
            roots.add(F(p, q))
            for _ in range(draw(st.integers(1, 3))):
                f = f * UniPoly((-p, q))
        polys.append(f)
    return polys, roots


def check_dyadic_views(roots) -> None:
    for r in roots:
        lo = sp.Integer(r.a) / sp.Integer(2) ** r.s
        hi = lo if r.is_exact else sp.Integer(r.a + 1) / sp.Integer(2) ** r.s
        assert (rational(r.lo), rational(r.hi)) == (lo, hi)


def check_comparisons(roots, poly, points) -> None:
    """`compare_to` against the k-th root: below it lie exactly k roots."""
    for c in points:
        at = poly.eval(rational(c)) == 0
        below = poly.count_roots(None, rational(c)) - at
        for k, r in enumerate(roots):
            want = -1 if k < below else 0 if (at and k == below) else 1
            assert r.compare_to(c) == want


def check_samples(samples, roots, poly) -> None:
    """k+1 increasing samples off the roots, one root between neighbours."""
    assert len(samples) == len(roots) + 1
    assert all(poly.eval(rational(t)) != 0 for t in samples)
    assert poly.count_roots(None, rational(samples[0])) == 0
    assert poly.count_roots(rational(samples[-1]), None) == 0
    for lo, hi in zip(samples, samples[1:]):
        assert lo < hi and poly.count_roots(rational(lo), rational(hi)) == 1


@ORACLE
@given(drawn=factor_products(), extra=st.lists(st.fractions(-50, 50, max_denominator=16), max_size=4))
def test_dyadic_roots_of_factor_products_match_sympy(drawn, extra):
    fs, true_roots = drawn
    product = sp.Poly(1, x)
    per_poly = []
    for f in fs:
        roots = isolate_real_roots(f)
        check_isolation(roots, to_sympy(f))
        check_dyadic_views(roots)
        per_poly.append(roots)
        product *= to_sympy(f)
    merged = merge_real_roots(per_poly)
    check_isolation(merged, product)
    check_dyadic_views(merged)
    samples = sample_points_between_roots(merged)
    check_samples(samples, merged, product)
    check_comparisons(merged, product, [*samples, *true_roots, *extra])


def test_large_roots_take_negative_exponents():
    """Roots far beyond 1 start on intervals wider than 1 (s < 0); an
    exact root found there keeps its exponent and equals its reduced
    form."""
    f = UniPoly.from_roots([-3 * 10**9, 2**40, F(10**9, 3)])
    roots = isolate_real_roots(f)
    check_isolation(roots, to_sympy(f))
    check_dyadic_views(roots)
    assert any(r.s < 0 for r in roots)
    exact = next(r for r in roots if r.is_exact)
    assert exact.lo == 2**40 and exact.s < 0
    twin = exactpoly.IsolatedRoot(exact.coeffs, exact.a << 3, exact.s + 3, 0)
    assert twin == exact and hash(twin) == hash(exact)
    assert exactpoly.IsolatedRoot(exact.coeffs, exact.a, exact.s, 1) != exact
    check_samples(sample_points_between_roots(roots), roots, to_sympy(f))
    check_comparisons(roots, to_sympy(f), [0, 2**40, 2**40 + 1, F(10**9, 3), -3 * 10**9])


@ORACLE
@given(f=unipolys(), g=unipolys(), h=unipolys())
def test_gcd_matches_sympy(f, g, h):
    a, b = f * h, g * h
    want = sp.Poly(sp.gcd(to_sympy(a), to_sympy(b)), x).monic()
    got = exactpoly._gcd_z(a.integer_coeffs, b.integer_coeffs)
    assert same(int_to_sympy(got).monic(), want)


@ORACLE
@given(f=unipolys())
def test_square_free_part_matches_sympy(f):
    got = exactpoly._square_free(f.integer_coeffs)
    assert same(int_to_sympy(got).monic(), to_sympy(f).sqf_part().monic())


bi_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
bi_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), bi_coefficients, min_size=1, max_size=7
)
bipolys = bi_terms.map(poly2)
# degree 2 or 3 in y, so that psc_1 is defined
bipolys_y2 = st.tuples(bi_terms, st.integers(0, 1), st.integers(2, 3), bi_coefficients).map(
    lambda t: poly2({**t[0], (t[1], t[2]): t[3]})
)


def bi_to_sympy(q):
    return sum(rational(c) * x ** e[0] * y ** e[1] for e, c in q.terms.items())


def sylvester_minor(a, b, var, j: int):
    """psc_j of a and b in `var`: the determinant of the Sylvester
    submatrix with deg b - j shifted rows of a, deg a - j of b, and the
    first deg a + deg b - 2j columns (j = 0 gives the resultant)."""
    m, n = sp.degree(a, var), sp.degree(b, var)
    ca, cb = sp.Poly(a, var).all_coeffs(), sp.Poly(b, var).all_coeffs()
    rows = [[0] * i + ca + [0] * (n - j - 1 - i) for i in range(n - j)]
    rows += [[0] * i + cb + [0] * (m - j - 1 - i) for i in range(m - j)]
    if not rows:
        return sp.Integer(1)
    dm = DomainMatrix.from_Matrix(sp.Matrix([row[: m + n - 2 * j] for row in rows]))
    return sp.expand(dm.domain.to_sympy(dm.det()))


@ORACLE
@given(q1=bipolys, q2=bipolys, eliminate=st.sampled_from((0, 1)))
def test_resultant_matches_sympy(q1, q2, eliminate):
    """Equal to the Sylvester determinant, and to `sympy.resultant` up to
    sign: sympy returns Res(q2, q1) = (-1)^(deg q1 * deg q2) Res(q1, q2)
    for some pairs of odd degrees, e.g. Res_y(y + 1, y^3)."""
    var = (x, y)[eliminate]
    got = resultant_bivariate(q1, q2, eliminate)
    back = UniPoly(got.coeffs)
    assert back == got and hash(back) == hash(got)
    got = sum(rational(c) * (y, x)[eliminate] ** i for i, c in enumerate(got.coeffs))
    a, b = bi_to_sympy(q1), bi_to_sympy(q2)
    assert sp.expand(got - sylvester_minor(a, b, var, 0)) == 0
    other = sp.resultant(a, b, var)
    assert sp.expand(got - other) == 0 or sp.expand(got + other) == 0


@ORACLE
@given(q1=bipolys_y2, q2=bipolys_y2)
def test_psc1_matches_sylvester_determinant(q1, q2):
    """The subresultant chain's degree-1 member carries psc_1 up to sign."""
    a, b = exactpoly._coeffs_in(q1, 1), exactpoly._coeffs_in(q2, 1)
    if len(a) < len(b):
        a, b = b, a
        q1, q2 = q2, q1
    chain, _ = exactpoly._prs(a, b)
    got = next((p.c for m, p in chain if len(m) == 2), ())
    got = sum(c * x**i for i, c in enumerate(got))
    # the chain runs on the primitive integer forms
    a = sp.expand(bi_to_sympy(q1) * rational(q1.integer_scale))
    b = sp.expand(bi_to_sympy(q2) * rational(q2.integer_scale))
    want = sylvester_minor(a, b, y, 1)
    assert sp.expand(got - want) == 0 or sp.expand(got + want) == 0


# ---------------------------------------------------------------------------
# Forced certificate failures: the exact fallback must run and be right
# ---------------------------------------------------------------------------

@pytest.fixture
def gcd_calls(monkeypatch):
    """Counts calls of the exact subresultant gcd."""
    calls = []
    real = exactpoly._gcd_z

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(exactpoly, "_gcd_z", counted)
    return calls


def test_repeated_roots_take_the_fallback(gcd_calls):
    f = UniPoly.from_roots([1, 1, 3, F(1, 2), F(1, 2), F(1, 2)])
    roots = isolate_real_roots(f)
    assert gcd_calls
    assert [r.compare_to(v) for r, v in zip(roots, [F(1, 2), 1, 3])] == [0, 0, 0]
    assert len(roots) == 3


def test_leading_coefficient_divisible_by_the_prime(gcd_calls):
    f = UniPoly((-1, 0, P))  # roots +-1/sqrt(P), square-free
    roots = isolate_real_roots(f)
    assert gcd_calls
    check_isolation(roots, to_sympy(f))
    below, above = F(1, 46341), F(1, 46340)  # 46340^2 < P < 46341^2
    assert roots[1].compare_to(below) == 1 and roots[1].compare_to(above) == -1


def test_lc_multiple_of_prime_in_a_coprime_pair(gcd_calls):
    f, g = UniPoly((-1, P)), UniPoly((-1, 1))  # roots 1/P and 1
    assert exactpoly._shared_factor(f.integer_coeffs, g.integer_coeffs) is None
    assert gcd_calls
    [rf], [rg] = isolate_real_roots(f), isolate_real_roots(g)
    assert compare(rf, rg) == -1
    assert compare(rg, rf) == 1


def test_coprime_over_q_but_not_mod_p(gcd_calls):
    f = UniPoly((-2, 0, 1))  # t^2 - 2
    g = f + UniPoly((0, P))  # f + P*t: coprime to f over Q, equal mod P
    assert exactpoly._shared_factor(f.integer_coeffs, g.integer_coeffs) is None
    merged = merge_real_roots([isolate_real_roots(f), isolate_real_roots(g)])
    assert gcd_calls
    check_isolation(merged, to_sympy(f * g))
    assert len(merged) == 4


def test_shared_irrational_root_collapses(gcd_calls):
    f = UniPoly((-2, 0, 1))  # roots +-sqrt(2)
    g = UniPoly((6, 0, -5, 0, 1))  # (t^2 - 2)(t^2 - 3)
    merged = merge_real_roots([isolate_real_roots(f), isolate_real_roots(g)])
    assert gcd_calls
    check_isolation(merged, to_sympy(g))
    rf = isolate_real_roots(f)
    rg = isolate_real_roots(g)
    assert [compare(rf[1], r) for r in rg] == [1, 1, 0, -1]
