"""Exact polynomial arithmetic over the rationals.

Everything in this module is exact: scalars at the API are
`fractions.Fraction`, and every predicate (root counting, common-factor
detection, intersection counting) is decided by integer/rational
arithmetic alone.  No floating point enters any code path here.

Each SparsePoly and UniPoly is stored once, as its primitive integer
form: the polynomial times one positive rational constant, its scale
(see Representations).  Three kernels run in Python ints on that form,
and each is exact because it only multiplies by positive constants:

  sign kernel     the signs of SparsePolys at rational points, behind
                  every partition cell (`sign_vectors`).  Each point is
                  cleared once to P/m with integer P and m > 0 and lifted
                  once to the integer row of m^(K-|e|) * P^e over the
                  graded monomials e up to the top degree K.  The dot
                  product of that row with f's integer coefficients is
                  f(P/m) times the positive m^K times the scale; f of
                  degree D < K meets only the row's prefix up to D.
                  Every row set is one 2-D numpy matrix, lifted by
                  `_lift_matrix` with one `np.multiply` per monomial in
                  the dtype of its point matrix (`_point_matrix`).
                  These rows are an object matrix of Python ints, and
                  their dot products (`_dots`) are Python ints.  Only
                  the bisection search's score columns take int64: int
                  points whose lift provably fits a machine word
                  (max|x|^K < 2^63) are lifted in int64, and a dot
                  product runs in int64 only when max|row| *
                  sum|coefficients| < 2^63, so no partial sum can
                  overflow; every bound is taken in Python ints, and
                  rows past it become Python ints before the product.
                  Every other search set is an object matrix of its
                  exact ints and Fractions.  Results leave as Python
                  ints (or Fractions, for Fraction search points).
  substitution    p(base + sum_k t_k*dir_k) for each p of a list of
                  polynomials in one number of variables
                  (`_substitution`).  Base and directions are cleared to
                  one denominator M, giving the integer linear forms
                  B_i + sum_k t_k*U_ki.  The monomials in these forms up
                  to the top degree K of the list are lifted once along
                  the sign kernel's `_lift_plan`, each one an earlier
                  monomial times one form, and every key is packed with
                  the one stride K + 1; the rows up to deg p are a prefix,
                  and the sum of c_e * M^(D-|e|) * monomial_e is p's
                  result times M^D times its scale, so those integers
                  with that constant are the result; nothing is divided.
                  The plural calls restrict all partition factors to a
                  line (`restrict_all_to_line`) or a 2-flat
                  (`compose_affine_all`) and shear both curves of
                  `bezout_point_check`, q(x + lam*y, y), with one lift;
                  `restrict_to_line`, `restrict_to_flat2` and
                  `compose_affine` (the shift back p(x - shift) of each
                  bisection factor in `partition`) are one-polynomial
                  calls of the same kernel.
  `_sign_at`      the sign of an integer univariate polynomial at p/q
                  for ints p and q > 0: the sum of c_i p^i q^(n-i), by
                  homogeneous Horner, is g(p/q) times q^n.  Root
                  isolation, refinement, comparison and merging pass a
                  dyadic a/2^s as (a, 2^s) (as (a*2^-s, 1) when s < 0);
                  `UniPoly.sign_at`, for the line cell profile, and
                  `IsolatedRoot.compare_to` pass a Fraction's numerator
                  and denominator.  `UniPoly.eval` is left for the uses
                  that need values.

The univariate core works on those integer coefficients:

  isolation       `isolate_real_roots` runs Descartes bisection
                  (Vincent-Collins-Akritas; Collins & Akritas 1976,
                  Rouillier & Zimmermann 2004) on the square-free part:
                  the roots in (0, 2^K) of f(x) and f(-x), with 2^K a
                  root bound, are mapped onto (0, 1), and each interval's
                  polynomial comes from its parent by a homothety by 2
                  and a Taylor shift by 1, all in ints.  Descartes' rule
                  of signs is exact when it reports 0 or 1 roots.  Each
                  interval (c/2^k, (c+1)/2^k) so found is the root's
                  dyadic interval (c, k - K), kept in ints.
  certificates    with the prime p = CERTIFICATE_PRIME:
                  - square-free: if p does not divide lc(f) and
                    gcd(f mod p, f' mod p) = 1, f is square-free over Q.
                    A repeated factor g^2 of f would, by Gauss's lemma,
                    be one in Z[x], with lc(g) dividing lc(f); so g mod p
                    would keep its degree and divide f mod p and f' mod p.
                  - coprime: if p divides neither leading coefficient
                    and gcd(f mod p, g mod p) = 1, f and g are coprime
                    over Q, by the same argument for a common factor.
                    `merge_real_roots` then only refines intervals to
                    order two roots; it never computes a gcd or counts
                    roots.
  fallback        when a certificate fails, one exact gcd over Z[x] runs:
                  the subresultant PRS (Collins 1967; Brown & Traub
                  1971), whose divisions are all exact.  The same routine
                  over Z[x][y] gives the resultants and the psc_1 of the
                  bivariate Bezout check.

Representations:

  Rational    = fractions.Fraction (auto-canonical: positive denominator,
                reduced; structural equality).
  SparsePoly  = `integer_coeffs`, coprime ints, one per monomial of
                degree 0..deg in the graded order of a lifted row
                (`_row_index`), zeros included, and `integer_scale`;
                the sign kernel dots the vector with a row as stored.
                `terms`, exponent tuple -> Fraction, is derived on first read.
  UniPoly     = `integer_coeffs`, coprime ints, lowest degree first, no
                trailing zeros, and `integer_scale`; `coeffs`, the
                Fraction tuple, is derived on first read.
  IsolatedRoot = the square-free integer polynomial and a dyadic
                interval in ints: (a, s) is the exact root a/2^s or the
                open interval (a/2^s, (a+1)/2^s), with the sign at a/2^s.
                Refining halves it at (2a+1)/2^(s+1), and comparisons
                shift two endpoints to one exponent; `lo` and `hi`, the
                Fraction endpoints, are built only when read.

The zero polynomial has no coefficients, scale 1 and degree -1.  Both
forms are canonical (the positive constant that makes a rational
polynomial primitive over Z is unique), so equal polynomials compare
and hash equal however they were built.  The Fraction constructors and
the Fraction arithmetic on the views are the reference the tests hold
the kernels to.

Four-variable sparse polynomials ("MultiPoly4") and two-variable ones
("BiPoly") share the SparsePoly machinery and only differ in `nvars`.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ZeroPolynomialError(ValueError):
    """An operation that requires a nonzero polynomial got the zero one."""


class GenericPositionError(RuntimeError):
    """No shear in the ladder certified generic position for a system."""


def rat(value) -> Fraction:
    """Coerce ints, strings like '-7/2', and Fractions to Fraction.  Any
    other integral type (numpy's included) becomes an int first, so no
    fixed-width integer reaches exact arithmetic."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral):
        value = int(value)
    return Fraction(value)


def _exact(x):
    """x as an int when it is integral, otherwise as a Fraction."""
    if isinstance(x, int):
        return x
    v = rat(x)
    return v.numerator if v.denominator == 1 else v


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """(m, m*values) with m > 0 the least common denominator of `values`
    (ints or Fractions)."""
    m = math.lcm(*(x.denominator for x in values))
    return m, tuple(x.numerator * (m // x.denominator) for x in values)


def clear_denominators(values) -> tuple[int, ...]:
    """The rationals `values` times one positive constant: coprime ints
    with the same signs (all zeros stay zeros)."""
    _, nums = common_denominator(values)
    g = math.gcd(*nums) or 1
    return tuple(v // g for v in nums)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class SparsePoly:
    """Polynomial in `nvars` variables, stored as its primitive integer
    form (see Representations in the module docstring): a degree-6 factor
    in 4 variables has C(6 + 4, 4) = 210 integer coefficients.

    Immutable by convention: nothing is changed after construction.  The
    Fraction coefficients `terms` are derived on first read and cached.
    """

    __slots__ = ("nvars", "degree", "integer_coeffs", "integer_scale", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                c = rat(coeff)
                if c == 0:
                    continue
                e = tuple(int(v) for v in expo)
                if len(e) != nvars or any(v < 0 for v in e):
                    raise ValueError(f"bad exponent tuple {expo!r} for {nvars} variables")
                clean[e] = clean.get(e, ZERO) + c
        m, nums = common_denominator(clean.values())
        self._store(nvars, dict(zip(clean, nums)), m)

    def _store(self, nvars: int, terms: Mapping[tuple, int], den) -> None:
        self.nvars = nvars
        self.degree = max((sum(e) for e, c in terms.items() if c), default=-1)
        index = _row_index(self.degree, nvars)
        vec = [0] * len(index)
        for e, c in terms.items():
            if c:
                vec[index[e]] = c
        g = math.gcd(*vec)
        self.integer_coeffs = tuple(c // g for c in vec)
        self.integer_scale = Fraction(den, g) if g else ONE
        self._terms = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_integers(cls, nvars: int, terms: Mapping[tuple, int], den) -> "SparsePoly":
        """sum_e terms[e] * x^e / den, for int coefficients keyed by
        exponent tuples of length `nvars` and a positive rational `den`."""
        out = cls.__new__(cls)
        out._store(nvars, terms, den)
        return out

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: rat(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        e = [0] * nvars
        e[index] = 1
        return cls(nvars, {tuple(e): ONE})

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.integer_coeffs

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """Exponent tuple -> Fraction coefficient: each integer
        coefficient divided by `integer_scale`."""
        if self._terms is None:
            k, index = self.integer_scale, _row_index(self.degree, self.nvars)
            self._terms = {e: c / k for e, c in zip(index, self.integer_coeffs) if c}
        return self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.integer_scale == other.integer_scale
            and self.integer_coeffs == other.integer_coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.integer_scale, self.integer_coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"SparsePoly({self.nvars}, 0)"
        bits = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[expo]
            mono = "*".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(expo)
                if p
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"SparsePoly({self.nvars}, {' + '.join(bits)})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return SparsePoly(self.nvars, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) - c
        return SparsePoly(self.nvars, out)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, ZERO) + ca * cb
        return SparsePoly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, k) -> "SparsePoly":
        k = rat(k)
        return SparsePoly(self.nvars, {e: c * k for e, c in self.terms.items()})

    def pow(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        out = SparsePoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _check(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        pt = [rat(v) for v in point]
        total = ZERO
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(pt, expo):
                if e:
                    v *= x**e
            total += v
        return total

    def substitute(self, replacements: Sequence["SparsePoly"]) -> "SparsePoly":
        """Plug a polynomial in for each variable (all over the same ring).

        Fraction polynomial products: the reference that the tests hold
        the integer kernel `compose_affine` to."""
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement per variable")
        nv = replacements[0].nvars
        out = SparsePoly.zero(nv)
        cache: list[dict[int, SparsePoly]] = [dict() for _ in range(self.nvars)]

        def power(i: int, e: int) -> SparsePoly:
            got = cache[i].get(e)
            if got is None:
                got = replacements[i].pow(e)
                cache[i][e] = got
            return got

        for expo, coeff in self.terms.items():
            term = SparsePoly.constant(nv, coeff)
            for i, e in enumerate(expo):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out


# ---------------------------------------------------------------------------
# The sign kernel: lifted rows dotted with integer coefficients
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_exponents(degree: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of all monomials of total degree 1..degree in
    `nvars` variables, in graded lexicographic order; the list for a
    lower degree is a prefix of this one."""
    if degree < 1:
        raise ValueError("lift degree must be at least 1")
    exps = [e for e in product(range(degree + 1), repeat=nvars) if 1 <= sum(e) <= degree]
    exps.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return tuple(exps)


@lru_cache(maxsize=None)
def _lift_plan(exps) -> tuple[tuple[int, int], ...]:
    """(parent row index, variable) per monomial of `exps`, a
    `monomial_exponents` list: row entry k+1 is row[parent] * x[variable],
    the parent having one less power of the first variable present, at
    its `_row_index` position (index 0 is the leading 1)."""
    index = _row_index(sum(exps[-1]), len(exps[0]))
    plan = []
    for e in exps:
        var = next(i for i, p in enumerate(e) if p)
        parent = list(e)
        parent[var] -= 1
        plan.append((index[tuple(parent)], var))
    return tuple(plan)


_WORD = 2**63  # int64 holds exactly the integers of absolute value below this


def _max_abs(a) -> int:
    """max |a| of a nonempty int64 array, as a Python int (`np.abs` would
    wrap -2^63 onto itself)."""
    return max(-int(a.min()), int(a.max()))


def _point_matrix(points, degree: int, offset: int = 0):
    """The points as an (n, d) matrix: int64 when every coordinate is an
    integer and (max|x| + offset)^degree < 2^63, so that the degree-
    `degree` lift of the points moved by at most `offset` per coordinate
    fits a machine word; otherwise an object matrix of the `_exact`
    coordinates, ints and Fractions (numpy makes an int64 array only of
    integers that fit one; Fractions give an object array, wider ints an
    object or float one).  An empty point list gives a (0, 4) int64
    matrix: no rows, in the lab's four coordinates."""
    if not len(points):
        return np.empty((0, 4), dtype=np.int64)
    x = np.array(points)
    if x.dtype == np.int64 and (_max_abs(x) + offset) ** degree < _WORD:
        return x
    return np.array([[_exact(v) for v in p] for p in points], dtype=object)


def _lift_matrix(x, exps):
    """[1, monomials...] of each row of the point matrix `x`: the
    Veronese lift with a leading 1, one `np.multiply` per monomial, in
    the dtype of `x`.  An int64 `x` comes from `_point_matrix`, whose
    bound keeps every product exact; an object `x` multiplies its ints
    and Fractions exactly."""
    plan = _lift_plan(exps)
    cols = np.empty((len(plan) + 1, x.shape[0]), dtype=x.dtype)
    cols[0] = 1
    xt = x.T
    for k, (parent, var) in enumerate(plan, start=1):
        np.multiply(cols[parent], xt[var], out=cols[k])
    return np.ascontiguousarray(cols.T)


def _dots(rows, vec) -> list:
    """The dot product of each row of the matrix `rows` with the int
    vector `vec` (a row prefix), as Python ints (or Fractions, for
    Fraction rows).  int64 rows multiply in int64 when max|row| * sum|vec|
    < 2^63, which bounds every partial sum; past that bound they become
    Python ints first.  An empty `vec`, the zero polynomial's, gives
    zeros."""
    if not len(rows) or not len(vec):
        return [0] * len(rows)
    rows = rows[:, : len(vec)]
    if rows.dtype == np.int64 and max(_max_abs(rows), 1) * sum(map(abs, vec)) >= _WORD:
        rows = rows.astype(object)
    return (rows @ np.array(vec, dtype=rows.dtype)).tolist()


def _homogeneous_rows(points, degree: int):
    """One integer row per point, an object matrix in the order of
    `_lift_matrix(., monomial_exponents(degree, nvars))`: the entry for e
    is m^(degree - |e|) * P^e, with the point cleared to P/m (m > 0).
    For an int point m = 1 and the row is its plain lift."""
    if not {type(v) for p in points for v in p} <= {int, Fraction}:
        points = [tuple(map(_exact, p)) for p in points]  # numpy integers
    if not points:
        return np.empty((0, 0), dtype=object)
    ms, nums = zip(*map(common_denominator, points))
    x = np.array(nums, dtype=object)
    exps = monomial_exponents(degree, x.shape[1])
    rows = _lift_matrix(x, exps)
    if any(m != 1 for m in ms):
        gaps = [degree] + [degree - sum(e) for e in exps]
        mpows = np.array(ms, dtype=object)[:, None] ** np.arange(degree + 1)
        rows *= mpows[:, gaps]
    return rows


@lru_cache(maxsize=None)
def _row_index(degree: int, nvars: int) -> dict[tuple[int, ...], int]:
    """Position of each monomial of degree 0..degree (none for degree -1)
    in a lifted row and in `SparsePoly.integer_coeffs`: the constant,
    then `monomial_exponents(degree, nvars)`."""
    if degree < 0:
        return {}
    exps = ((0,) * nvars,) + (monomial_exponents(degree, nvars) if degree else ())
    return {e: k for k, e in enumerate(exps)}


def _row_signs(f: SparsePoly, rows) -> list[int]:
    """Sign of f at each point whose homogeneous row, of a degree
    K >= deg f, is in `rows`: the dot product with `integer_coeffs` is
    f(P/m) times m^K and the positive `integer_scale`."""
    return [(t > 0) - (t < 0) for t in _dots(rows, f.integer_coeffs)]


def sign_vectors(polys: Sequence[SparsePoly], points) -> list[tuple[int, ...]]:
    """Exact sign of each polynomial at each point of int / Fraction
    coordinates, in Python-int arithmetic: every point is lifted once
    (see the module docstring)."""
    points = list(points)
    if not polys:
        return [()] * len(points)
    if len({f.nvars for f in polys} | {len(p) for p in points}) > 1:
        raise ValueError("point dimension mismatch")
    rows = _homogeneous_rows(points, max(1, *(f.degree for f in polys)))
    return list(zip(*(_row_signs(f, rows) for f in polys)))


def sign_vector(polys: Sequence[SparsePoly], point: Sequence) -> tuple[int, ...]:
    """`sign_vectors` at one point."""
    return sign_vectors(polys, (point,))[0]


def poly4(terms: Mapping[tuple, object]) -> SparsePoly:
    """Four-variable polynomial from an exponent->coefficient map."""
    return SparsePoly(4, terms)


def poly2(terms: Mapping[tuple, object]) -> SparsePoly:
    """Two-variable polynomial from an exponent->coefficient map."""
    return SparsePoly(2, terms)


# ---------------------------------------------------------------------------
# Dense univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Univariate polynomial, stored as its primitive integer form (see
    Representations in the module docstring).

    The Fraction coefficients `coeffs`, lowest degree first, are derived
    on first read and cached; the leading one is nonzero unless the
    polynomial is zero (empty coefficient list).
    """

    __slots__ = ("integer_coeffs", "integer_scale", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        m, nums = common_denominator([rat(c) for c in coeffs])
        self._store(nums, m)

    @classmethod
    def from_integers(cls, coeffs: Iterable[int], den) -> "UniPoly":
        """sum_i coeffs[i] * t^i / den, for ints and a positive rational
        `den`."""
        out = cls.__new__(cls)
        out._store(coeffs, den)
        return out

    def _store(self, coeffs: Iterable[int], den) -> None:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        g = math.gcd(*cs)
        self.integer_coeffs = tuple(c // g for c in cs)
        self.integer_scale = Fraction(den, g) if cs else ONE
        self._coeffs = None

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls((rat(value),))

    @classmethod
    def from_roots(cls, roots: Iterable) -> "UniPoly":
        out = cls((ONE,))
        for r in roots:
            out = out * cls((-rat(r), ONE))
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Fraction coefficients, lowest degree first: each integer
        coefficient divided by `integer_scale`."""
        if self._coeffs is None:
            k = self.integer_scale
            self._coeffs = tuple(c / k for c in self.integer_coeffs)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.integer_coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.integer_coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.integer_coeffs == other.integer_coeffs
            and self.integer_scale == other.integer_scale
        )

    def __hash__(self) -> int:
        return hash((self.integer_coeffs, self.integer_scale))

    def __repr__(self) -> str:
        if self.is_zero:
            return "UniPoly(0)"
        bits = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*t")
            else:
                bits.append(f"{c}*t^{e}")
        return f"UniPoly({' + '.join(bits)})"

    def eval(self, x) -> Fraction:
        x = rat(x)
        total = ZERO
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def sign_at(self, x) -> int:
        """Exact sign at the rational x (see `_sign_at`)."""
        return _sign_at(self.integer_coeffs, x.numerator, x.denominator)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            k = rat(other)
            return UniPoly(tuple(c * k for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__


def _sign_at(cs: Sequence[int], p: int, q: int) -> int:
    """Sign of the integer polynomial cs at the rational p/q (ints,
    q > 0): the sign of sum c_i p^i q^(n-i), by homogeneous Horner."""
    if not cs:
        return 0
    total, qk = cs[-1], 1
    for c in cs[-2::-1]:
        qk *= q
        total = total * p + c * qk
    return (total > 0) - (total < 0)


# ---------------------------------------------------------------------------
# Affine substitution: restrictions, shifts and shears
# ---------------------------------------------------------------------------

def restrict_to_line(p: SparsePoly, ln) -> UniPoly:
    """Restriction f(t) = p(base + t*direction) along a line in R^4.

    `ln` needs `.base` and `.direction` 4-tuples of rationals.  The
    result has degree at most deg p (strictly less only when leading
    terms cancel); the zero input restricts to the zero polynomial.
    """
    return restrict_all_to_line((p,), ln)[0]


def restrict_all_to_line(polys: Sequence[SparsePoly], ln) -> list[UniPoly]:
    """`restrict_to_line` of each polynomial, through one lift of the line."""
    if all(d == 0 for d in ln.direction):
        raise ValueError("line direction must be nonzero")
    if any(p.nvars != 4 for p in polys):
        raise ValueError("restriction expects a 4-variable polynomial")
    return [
        UniPoly.from_integers([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)], den)
        for coeffs, den in _substitution(polys, ln.base, (ln.direction,))
    ]


def restrict_to_flat2(p: SparsePoly, fl) -> SparsePoly:
    """Restriction g(a, b) = p(base + a*u + b*v) to a 2-flat in R^4."""
    if p.nvars != 4:
        raise ValueError("restriction expects a 4-variable polynomial")
    return compose_affine(p, fl.base, (fl.u, fl.v))


def compose_affine(p: SparsePoly, base, directions) -> SparsePoly:
    """p(base + t_0*directions[0] + t_1*directions[1] + ...) as an exact
    polynomial in the parameters t_k (`_substitution` in ints)."""
    return compose_affine_all((p,), base, directions)[0]


def compose_affine_all(polys: Sequence[SparsePoly], base, directions) -> list[SparsePoly]:
    """`compose_affine` of each polynomial, through one lift of the
    affine map; every key is unpacked with the shared stride."""
    stride = max((p.degree for p in polys), default=0) + 1  # as in `_substitution`
    k = len(directions)
    return [
        SparsePoly.from_integers(k, {
            tuple(key // stride**j % stride for j in range(k)): c for key, c in coeffs.items()
        }, den)
        for coeffs, den in _substitution(polys, base, directions)
    ]


def _substitution(
    polys: Sequence[SparsePoly], base, directions
) -> list[tuple[dict[int, int], Fraction]]:
    """One (coeffs, den) per polynomial p: p(base + sum_k t_k*directions[k])
    is the integer polynomial `coeffs` divided by the positive rational
    `den`, for polynomials in one number of variables.  Every `coeffs` is
    keyed by the packed exponent sum_k i_k*stride^k of prod t_k^i_k, with
    the one stride K + 1 for the top degree K among `polys`.  The zero
    polynomial gives ({}, 1).

    Integer arithmetic throughout (see the module docstring): the point
    is cleared to (B + sum_k t_k*U_k) / M, and the monomials up to K in
    the forms B_i + sum_k t_k*U_ki are lifted once along the sign
    kernel's `_lift_plan`, each row its parent times one form.  The rows
    up to deg p are a prefix in the order of p's `integer_coeffs`, and
    the sum of c_e * M^(D-|e|) * row_e over that prefix is p's result
    times den = M^D * integer_scale.
    """
    n = len(base)
    if any(p.nvars != n for p in polys) or any(len(d) != n for d in directions):
        raise ValueError("polynomials, base and directions need one number of variables")
    top = max((p.degree for p in polys), default=0)
    m, ints = common_denominator([rat(x) for x in (*base, *(x for d in directions for x in d))])
    steps = [(top + 1) ** k for k in range(len(directions))]
    # B_i at key 0, then each direction's U_ki at its parameter's key
    forms = [[(key, v) for key, v in zip((0, *steps), ints[i::n]) if v] for i in range(n)]
    exps = monomial_exponents(max(top, 1), n)
    rows = [{0: 1}]
    for parent, var in _lift_plan(exps):
        row: dict[int, int] = {}
        for ka, va in rows[parent].items():
            for kb, vb in forms[var]:
                key = ka + kb
                row[key] = row.get(key, 0) + va * vb
        rows.append(row)
    sizes = [0, *map(sum, exps)]
    mpow = [m**k for k in range(top + 1)]
    results = []
    for p in polys:
        total: dict[int, int] = {}
        for c, row, size in zip(p.integer_coeffs, rows, sizes):
            if c:
                k = c * mpow[p.degree - size]
                for key, v in row.items():
                    total[key] = total.get(key, 0) + k * v
        results.append((total, ONE if p.is_zero else mpow[p.degree] * p.integer_scale))
    return results


# ---------------------------------------------------------------------------
# Integer polynomial arithmetic: subresultants and mod-p certificates
# ---------------------------------------------------------------------------

def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs divided by its content, with a positive leading coefficient."""
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return tuple(c // g for c in cs)


def _exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b of integer polynomials when b divides a in Z[x]."""
    r = list(a)
    n = len(b) - 1
    q = [0] * max(0, len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        qk, rem = divmod(r[k + n], b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if qk:
            q[k] = qk
            for i, c in enumerate(b):
                r[k + i] -= qk * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


class _ZX:
    """An element of Z[x], the coefficient ring of the subresultant PRS
    over Z[x][y]: integer coefficients, lowest degree first, no trailing
    zeros.  It has the operators the PRS uses on ints (`//` is exact
    division)."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[int]):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    def __bool__(self) -> bool:
        return bool(self.c)

    def __neg__(self) -> "_ZX":
        return _ZX(-v for v in self.c)

    def __sub__(self, other: "_ZX") -> "_ZX":
        out = list(self.c) + [0] * (len(other.c) - len(self.c))
        for i, v in enumerate(other.c):
            out[i] -= v
        return _ZX(out)

    def __mul__(self, other: "_ZX") -> "_ZX":
        if not self.c or not other.c:
            return _ZX(())
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    out[i + j] += a * b
        return _ZX(out)

    def __pow__(self, k: int) -> "_ZX":
        out = _ZX((1,))
        for _ in range(k):
            out = out * self
        return out

    def __floordiv__(self, other: "_ZX") -> "_ZX":
        return _ZX(_exact_div(self.c, other.c))


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b, for
    coefficient lists (lowest degree first) over Z or Z[x]."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    e = len(a) - n
    while len(r) > n:
        lead = r.pop()
        shift = len(r) - n
        r = [lb * c for c in r]
        for i in range(n):
            r[shift + i] = r[shift + i] - lead * b[i]
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e:
        k = lb**e
        r = [k * c for c in r]
    return r


def _prs(a: list, b: list):
    """Subresultant PRS of nonzero a and b with deg a >= deg b >= 0, not
    both constant, with coefficients in Z (ints) or Z[x] (`_ZX`) (Collins
    1967; Brown & Traub 1971; Cohen, GTM 138, Algorithms 3.3.1 and 3.3.7).

    Returns (chain, s).  `chain` lists the members from b on, each with
    the principal subresultant coefficient of its degree (up to sign); its
    last entry is the last nonzero member, which is gcd(a, b) up to a
    factor from the coefficient ring.  When that member is a constant,
    Res(a, b) is s times the coefficient listed with it; otherwise
    Res(a, b) = 0.  Every division is exact, so coefficients stay as
    small as subresultants.
    """
    s = 1
    g = h = b[-1] ** 0  # the ring's one
    chain = []
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s  # both degrees odd
        r = _prem(a, b)
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
        chain.append((a, h))
        if not b:
            return chain, s
    n = len(a) - 1
    chain.append((b, b[0] ** n // h ** (n - 1)))
    return chain, s


def _gcd_z(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd (positive leading coefficient) of two nonzero
    integer polynomials, by the subresultant PRS over Z."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return (1,)
    last, _ = _prs(list(a), list(b))[0][-1]
    return _primitive(last)


CERTIFICATE_PRIME = 2**31 - 1


def _gcd_degree_mod_p(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree of gcd(a mod p, b mod p) over GF(p), p = CERTIFICATE_PRIME
    (-1 when both reduce to zero)."""
    p = CERTIFICATE_PRIME
    polys = []
    for cs in (a, b):
        r = [c % p for c in cs]
        while r and not r[-1]:
            r.pop()
        polys.append(r)
    a, b = polys
    while b:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        r = a
        while len(r) > n:
            k = r.pop() * inv % p
            shift = len(r) - n
            for i in range(n):
                r[shift + i] = (r[shift + i] - k * b[i]) % p
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return len(a) - 1


def _square_free(cs: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive square-free part of a nonzero primitive integer
    polynomial: cs itself when the mod-p certificate holds, otherwise
    cs / gcd(cs, cs') by the exact subresultant gcd."""
    if len(cs) <= 2:
        return cs
    d = [i * c for i, c in enumerate(cs)][1:]
    if cs[-1] % CERTIFICATE_PRIME and _gcd_degree_mod_p(cs, d) == 0:
        return cs
    g = _gcd_z(cs, d)
    return cs if len(g) == 1 else _primitive(_exact_div(cs, g))


def _shared_factor(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...] | None:
    """gcd of two square-free integer polynomials, or None when they are
    coprime.  The mod-p coprimality certificate settles most pairs
    without any gcd over Z."""
    p = CERTIFICATE_PRIME
    if f[-1] % p and g[-1] % p and _gcd_degree_mod_p(f, g) == 0:
        return None
    h = _gcd_z(f, g)
    return h if len(h) > 1 else None


# ---------------------------------------------------------------------------
# Descartes (Vincent-Collins-Akritas) root isolation
# ---------------------------------------------------------------------------

def _taylor_shift(q: Sequence[int]) -> list[int]:
    """q(x + 1), by repeated synthetic additions."""
    a = list(q)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _descartes(q: Sequence[int]) -> int:
    """Sign variations of (x+1)^n q(1/(x+1)), capped at 2: an upper bound
    on the roots of q in (0, 1) of the same parity, and exact when it is
    0 or 1 (Descartes' rule of signs)."""
    count, prev = 0, 0
    for c in _taylor_shift(q[::-1]):
        if c:
            if prev and (c < 0) != (prev < 0):
                count += 1
                if count == 2:
                    return 2
            prev = c
    return count


def _unit_roots(q: list[int], lo_root: bool) -> list[tuple[int, int, bool]]:
    """The roots in (0, 1) of a square-free integer polynomial q, by
    Descartes bisection (Collins & Akritas 1976): (c, k, exact) per root in
    increasing order.  An exact root is c/2^k; otherwise the root is the
    only one in (c/2^k, (c+1)/2^k), and neither endpoint is a root of the
    polynomial being isolated.  `lo_root` says that 0 is such a root (q
    has it divided out already).

    Each node of the search holds its interval's polynomial, mapped onto
    (0, 1) and scaled by a positive integer: the left half is the
    homothety 2^n q(x/2), the right half its Taylor shift by 1.
    """
    out = []
    stack = [(q, 0, 0, lo_root, False)]
    while stack:
        q, c, k, lo_root, hi_root = stack.pop()
        if q is None:
            out.append((c, k, True))
            continue
        v = _descartes(q)
        if v == 0:
            continue
        if v == 1 and not (lo_root or hi_root):
            out.append((c, k, False))
            continue
        n = len(q) - 1
        left = [a << (n - i) for i, a in enumerate(q)]
        right = _taylor_shift(left)
        mid_root = right[0] == 0
        stack.append((right[1:] if mid_root else right, 2 * c + 1, k + 1, mid_root, hi_root))
        if mid_root:
            stack.append((None, 2 * c + 1, k + 1, False, False))
        stack.append((left, 2 * c, k + 1, lo_root, mid_root))
    return out


def _real_root_intervals(cs: tuple[int, ...]) -> list[tuple[int, int, bool]]:
    """Sorted dyadic isolating intervals of the real roots of a
    square-free integer polynomial: (a, s, exact) per root, as in
    `IsolatedRoot`.

    Every root has modulus below 2^K by Fujiwara's bound, so the roots
    in (0, 2^K) of cs and of cs(-x) are isolated on the unit interval
    after scaling x by 2^K; the unit interval (c/2^k, (c+1)/2^k) is the
    root interval (c/2^(k-K), (c+1)/2^(k-K)), mirrored for cs(-x).
    """
    zero = cs[0] == 0
    if zero:
        cs = cs[1:]
    neg: list[tuple[int, int, bool]] = []
    pos: list[tuple[int, int, bool]] = []
    n = len(cs) - 1
    if n > 0:
        top = abs(cs[-1]).bit_length()
        K = 1 + max(
            -((top - abs(c).bit_length() - 1) // (n - i)) for i, c in enumerate(cs[:-1]) if c
        )
        for out, sgn in ((neg, -1), (pos, 1)):
            g = [c if sgn > 0 or i % 2 == 0 else -c for i, c in enumerate(cs)]  # g(x) = cs(sgn*x)
            q = [c << (K * i) if K >= 0 else c << (-K * (n - i)) for i, c in enumerate(g)]
            for c, k, exact in _unit_roots(q, zero):
                a = c if sgn > 0 or exact else c + 1
                out.append((sgn * a, k - K, exact))
    return neg[::-1] + [(0, 0, True)] * zero + pos


# ---------------------------------------------------------------------------
# Isolated real roots: counting, comparison, merging
# ---------------------------------------------------------------------------

def _ratio(a: int, s: int) -> tuple[int, int]:
    """(p, q) with p/q = a/2^s and q > 0, as `_sign_at` and `Fraction`
    take them."""
    return (a, 1 << s) if s >= 0 else (a << -s, 1)


def _cmp_dyadic(a: int, s: int, b: int, t: int) -> int:
    """-1, 0, +1 for a/2^s <, =, > b/2^t: both shifted to one exponent."""
    if s < t:
        a <<= t - s
    else:
        b <<= s - t
    return (a > b) - (a < b)


class IsolatedRoot:
    """One distinct real root of a square-free integer polynomial, in
    integers: `IsolatedRoot(coeffs, a, s, lo_sign)`.

    `coeffs` holds the polynomial (primitive, lowest degree first).  An
    exact root is the dyadic rational a/2^s, and `lo_sign` is 0.
    Otherwise the root is the only one in the open interval
    (a/2^s, (a+1)/2^s), whose endpoints are not roots, and `lo_sign` is
    the polynomial's sign at a/2^s (the opposite one holds at
    (a+1)/2^s), so no step re-evaluates it.  `s` is any int; it is
    negative for an interval wider than 1.  Descartes bisection makes
    only dyadic intervals, and refining, comparing and merging roots
    shift two endpoints to one exponent, so they run in ints alone.

    `lo` and `hi` are the endpoints' Fraction views (lo == hi for an
    exact root), built on each read.  Equality and the hash follow the
    root's polynomial and its interval, or its value when exact, so an
    exact root at (a, s) equals the one at (2a, s + 1).  Immutable by
    convention.
    """

    __slots__ = ("coeffs", "a", "s", "lo_sign")

    def __init__(self, coeffs: tuple[int, ...], a: int, s: int, lo_sign: int):
        self.coeffs = coeffs
        self.a = a
        self.s = s
        self.lo_sign = lo_sign

    @property
    def is_exact(self) -> bool:
        return self.lo_sign == 0

    @property
    def lo(self) -> Fraction:
        return Fraction(*_ratio(self.a, self.s))

    @property
    def hi(self) -> Fraction:
        return Fraction(*_ratio(_hi(self), self.s))

    def _key(self) -> tuple:
        a, s = self.a, self.s
        if self.is_exact:  # a odd, or a/2^s = 0/2^0
            k = (a & -a).bit_length() - 1 if a else s
            a, s = a >> k, s - k
        return self.coeffs, a, s, self.is_exact

    def __eq__(self, other) -> bool:
        if not isinstance(other, IsolatedRoot):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"IsolatedRoot({self.coeffs!r}, {self.a}, {self.s}, {self.lo_sign})"

    def _compare_ratio(self, p: int, q: int) -> int:
        """-1, 0, +1 for root <, =, > p/q (q > 0)."""
        lp, lq = _ratio(self.a, self.s)
        lo = lp * q - p * lq  # the sign of lo - p/q
        if self.is_exact:
            return (lo > 0) - (lo < 0)
        if lo >= 0:
            return 1
        hp, hq = _ratio(self.a + 1, self.s)
        if hp * q <= p * hq:
            return -1
        v = _sign_at(self.coeffs, p, q)
        if v == 0:
            return 0
        return 1 if v == self.lo_sign else -1

    def compare_to(self, c) -> int:
        """-1, 0, +1 for root <, =, > the rational c."""
        c = rat(c)
        return self._compare_ratio(c.numerator, c.denominator)

    def refined(self) -> "IsolatedRoot":
        """Halve the isolating interval at its midpoint (2a+1)/2^(s+1),
        or find the root there exactly."""
        if self.is_exact:
            return self
        mid, s = 2 * self.a + 1, self.s + 1
        v = _sign_at(self.coeffs, *_ratio(mid, s))
        if v == 0:
            return IsolatedRoot(self.coeffs, mid, s, 0)
        if v == self.lo_sign:
            return IsolatedRoot(self.coeffs, mid, s, v)
        return IsolatedRoot(self.coeffs, mid - 1, s, self.lo_sign)


def _hi(r: IsolatedRoot) -> int:
    """The numerator of r's upper endpoint over 2^r.s."""
    return r.a + (r.lo_sign != 0)


def _separate(roots: list[IsolatedRoot]) -> list[IsolatedRoot]:
    """Refine sorted roots until consecutive intervals leave a gap."""
    for i in range(len(roots) - 1):
        a, b = roots[i], roots[i + 1]
        while _cmp_dyadic(_hi(a), a.s, b.a, b.s) >= 0:
            a, b = a.refined(), b.refined()
        roots[i], roots[i + 1] = a, b
    return roots


def isolate_real_roots(f: UniPoly) -> list[IsolatedRoot]:
    """All distinct real roots of f, sorted, in disjoint isolating intervals.

    Interval endpoints are never roots, so any value in the gap between
    two consecutive returned intervals is certified off the root set.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    cs = _square_free(f.integer_coeffs)
    if len(cs) <= 1:
        return []
    return _separate([
        IsolatedRoot(cs, a, s, 0 if exact else _sign_at(cs, *_ratio(a, s)))
        for a, s, exact in _real_root_intervals(cs)
    ])


def _compare(a: IsolatedRoot, b: IsolatedRoot, factor) -> tuple[int, IsolatedRoot, IsolatedRoot]:
    """(-1, 0 or +1 ordering of the roots, a refined, b refined).

    `factor()` is the gcd of the two polynomials or None when they are
    coprime; it is asked for at most once, when the intervals first
    overlap.  Over their overlap I, the gcd changes sign exactly when
    both roots are its one root there: I lies in each isolating interval,
    which holds at most one root of the (square-free) gcd, and the gcd is
    nonzero at the endpoints, which are endpoints of a or b.  Otherwise
    the roots differ, and refining separates them.
    """
    checked = False
    while True:
        if a.is_exact:
            return -b._compare_ratio(*_ratio(a.a, a.s)), a, b
        if b.is_exact:
            return a._compare_ratio(*_ratio(b.a, b.s)), a, b
        if _cmp_dyadic(_hi(a), a.s, b.a, b.s) <= 0:
            return -1, a, b
        if _cmp_dyadic(_hi(b), b.s, a.a, a.s) <= 0:
            return 1, a, b
        if not checked:
            checked = True
            h = factor()
            if h is not None:
                lo = a if _cmp_dyadic(a.a, a.s, b.a, b.s) >= 0 else b
                hi = a if _cmp_dyadic(_hi(a), a.s, _hi(b), b.s) <= 0 else b
                if _sign_at(h, *_ratio(lo.a, lo.s)) != _sign_at(h, *_ratio(_hi(hi), hi.s)):
                    return 0, a, b
        a, b = a.refined(), b.refined()


def merge_real_roots(root_lists: Sequence[Sequence[IsolatedRoot]]) -> list[IsolatedRoot]:
    """Sorted distinct union of isolated roots from several polynomials.

    Each list holds the roots of one polynomial, as `isolate_real_roots`
    returns them.  Shared roots are collapsed; the common factor of two
    polynomials is decided at most once per pair (a mod-p coprimality
    certificate, else an exact gcd), and the refinements that comparisons
    make are kept.  The returned roots are refined until their intervals
    are pairwise disjoint, so the gaps between them are certified free of
    roots of every contributing polynomial.
    """
    shared: dict[tuple[int, int], tuple[int, ...] | None] = {}

    def factor(i: int, j: int, f: tuple[int, ...], g: tuple[int, ...]):
        if (i, j) not in shared:
            shared[i, j] = _shared_factor(f, g)
        return shared[i, j]

    merged: list[IsolatedRoot] = []
    owner: list[int] = []
    for i, roots in enumerate(root_lists):
        for r in roots:
            lo, hi = 0, len(merged)
            dup = False
            while lo < hi:
                mid = (lo + hi) // 2
                j, other = owner[mid], merged[mid]
                c, r, merged[mid] = _compare(
                    r, other, lambda: factor(j, i, other.coeffs, r.coeffs)
                )
                if c == 0:
                    dup = True
                    break
                if c < 0:
                    hi = mid
                else:
                    lo = mid + 1
            if not dup:
                merged.insert(lo, r)
                owner.insert(lo, i)
    return _separate(merged)


def sample_points_between_roots(roots: Sequence[IsolatedRoot]) -> list[Fraction]:
    """One rational per open interval of the complement of the root set.

    For k sorted roots this returns k+1 values, each certified to lie
    strictly between its neighbouring roots (or beyond the extremes).
    The roots are disjoint and sorted (`_separate`), so an interval
    endpoint or the midpoint of a gap is off the root set; a unit step
    is taken only outward from an exact extreme root.  Each sample is
    chosen in ints and becomes a Fraction once.
    """
    if not roots:
        return [ZERO]
    p, q = _ratio(roots[0].a, roots[0].s)
    pts = [(p - q * roots[0].is_exact, q)]
    for left, right in zip(roots, roots[1:]):
        lo, hi = (_hi(left), left.s), (right.a, right.s)
        if _cmp_dyadic(*lo, *hi) >= 0:
            raise AssertionError("isolating intervals must be disjoint")
        if left.is_exact or right.is_exact:  # the midpoint, over 2^(t+1)
            t = max(lo[1], hi[1])
            lo = ((lo[0] << (t - lo[1])) + (hi[0] << (t - hi[1])), t + 1)
        pts.append(_ratio(*lo))
    p, q = _ratio(_hi(roots[-1]), roots[-1].s)
    pts.append((p + q * roots[-1].is_exact, q))
    return [Fraction(p, q) for p, q in pts]


# ---------------------------------------------------------------------------
# Bivariate systems: common factors and real intersection counting
# ---------------------------------------------------------------------------

def _coeffs_in(q: SparsePoly, var: int) -> list[_ZX]:
    """q's primitive integer form as a polynomial in variable `var` (0 or
    1) over Z[other variable]: entry d is the coefficient of var^d."""
    if q.nvars != 2:
        raise ValueError("expects a two-variable polynomial")
    grid = [[0] * (q.degree + 1) for _ in range(q.degree + 1)]
    for e, c in zip(_row_index(q.degree, 2), q.integer_coeffs):
        grid[e[var]][e[1 - var]] = c
    out = [_ZX(row) for row in grid]
    while not out[-1]:
        out.pop()
    return out


def _resultant(a: list[_ZX], b: list[_ZX]) -> _ZX:
    """Res(a, b) of two nonzero polynomials over Z[x]; 1 when both are
    constants, a^deg b when only a is."""
    if len(a) < len(b):
        r = _resultant(b, a)
        return -r if (len(a) - 1) * (len(b) - 1) % 2 else r
    if len(a) == 1:
        return _ZX((1,))
    chain, s = _prs(a, b)
    last, psc = chain[-1]
    if len(last) > 1:
        return _ZX(())
    return psc if s > 0 else -psc


def resultant_bivariate(q1: SparsePoly, q2: SparsePoly, eliminate: int) -> UniPoly:
    """Resultant of two bivariate polynomials w.r.t. variable `eliminate`,
    as a polynomial in the other variable.

    Conventions: if one input has degree 0 in the eliminated variable it
    is raised to the other's degree; if both do, the result is 1.  The
    subresultant PRS runs over Z[x] on the primitive integer forms, and
    their scales make the result's constant.
    """
    if q1.is_zero or q2.is_zero:
        raise ZeroPolynomialError("resultant needs nonzero polynomials")
    a, b = _coeffs_in(q1, eliminate), _coeffs_in(q2, eliminate)
    if len(a) == 1 and len(b) == 1:
        return UniPoly.constant(1)
    den = q1.integer_scale ** (len(b) - 1) * q2.integer_scale ** (len(a) - 1)
    return UniPoly.from_integers(_resultant(a, b).c, den)


def have_common_factor(q1: SparsePoly, q2: SparsePoly) -> bool:
    """Exact common-factor test for nonzero bivariate polynomials.

    A nontrivial common factor has positive degree in at least one
    variable, and the resultant eliminating that variable vanishes
    identically, so testing both eliminations decides the question.
    """
    if q1.is_zero or q2.is_zero:
        raise ZeroPolynomialError("common-factor test needs nonzero polynomials")
    if q1.degree == 0 or q2.degree == 0:
        return False
    return any(not _resultant(_coeffs_in(q1, v), _coeffs_in(q2, v)) for v in (1, 0))


_SHEAR_LADDER = [Fraction(0)] + [
    Fraction(s * k) for k in range(1, 50) for s in (1, -1)
]


def bezout_point_check(q1: SparsePoly, q2: SparsePoly):
    """Decide common factors and count real intersection points exactly.

    Returns (common_factor, count): count is None when a common factor
    exists (the intersection is infinite), otherwise the exact number of
    distinct real points of Z(q1) & Z(q2), certified to be at most
    deg q1 * deg q2 by Bezout.

    Counting strategy: shear to a position where both leading
    y-coefficients are constants and gcd(Res_y, psc_1) is trivial; then
    every fiber over a resultant root contains exactly one intersection
    point, whose y-coordinate is real whenever the root is, so the count
    equals the number of distinct real roots of the resultant.  One
    subresultant PRS over Z[x] yields both Res_y and psc_1 (up to sign,
    which neither test reads).
    """
    if q1.is_zero or q2.is_zero:
        raise ZeroPolynomialError("bezout check needs nonzero polynomials")
    d1, d2 = q1.degree, q2.degree
    if d1 == 0 or d2 == 0:
        return False, 0
    if have_common_factor(q1, q2):
        return True, None

    for lam in _SHEAR_LADDER:
        # (x, y) -> (x + lam*y, y); the sheared y-degree falls below the
        # total degree exactly when the top form vanishes at (lam, 1).
        a, b = (_coeffs_in(q, 1) for q in compose_affine_all((q1, q2), (0, 0), ((1, 0), (lam, 1))))
        if len(a) <= d1 or len(b) <= d2:
            continue
        if len(a) < len(b):
            a, b = b, a
        chain, _ = _prs(a, b)
        last, res = chain[-1]
        if len(last) != 1:
            raise AssertionError("coprime curves have a nonzero resultant")
        if len(res.c) == 1:
            return False, 0
        if min(d1, d2) >= 2:
            psc1 = next((p.c for m, p in chain if len(m) == 2), ())
            if not psc1 or len(_gcd_z(res.c, psc1)) > 1:
                continue
        count = len(_real_root_intervals(_square_free(_primitive(res.c))))
        if count > d1 * d2:
            raise ArithmeticError("intersection count exceeded the Bezout bound")
        return False, count
    raise GenericPositionError(
        "no shear certified generic position; the curves likely share a "
        "singular point"
    )
