"""Exact polynomial arithmetic over the rationals.

Everything in this module is exact: scalars are `fractions.Fraction`,
polynomials store Fraction coefficients, and every predicate (root
counting, common-factor detection, intersection counting) is decided by
integer/rational arithmetic alone.  No floating point enters any code
path here.

Representations:

  Rational    = fractions.Fraction (auto-canonical: positive denominator,
                reduced; structural equality).
  SparsePoly  = map from exponent tuples to Fraction, one int per
                variable.  Zero coefficients are never stored; the zero
                polynomial has an empty term map and total degree -1.
  UniPoly     = dense coefficient list, lowest degree first, no trailing
                zeros; the zero polynomial is the empty list (degree -1).

Four-variable sparse polynomials ("MultiPoly4") and two-variable ones
("BiPoly") share the SparsePoly machinery and only differ in `nvars`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class ZeroPolynomialError(ValueError):
    """An operation that requires a nonzero polynomial got the zero one."""


class GenericPositionError(RuntimeError):
    """No shear in the ladder certified generic position for a system."""


def rat(value) -> Fraction:
    """Coerce ints, strings like '-7/2', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class SparsePoly:
    """Sparse polynomial in `nvars` variables with Fraction coefficients.

    Immutable by convention: no method mutates `terms` after construction.
    Total degree is cached; the zero polynomial reports degree -1.
    """

    __slots__ = ("nvars", "terms", "degree")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars
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
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean
        self.degree = max((sum(e) for e in clean), default=-1)

    # -- constructors -------------------------------------------------------

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
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

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

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

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
        """Plug a polynomial in for each variable (all over the same ring)."""
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
    """Univariate polynomial, coefficients lowest degree first.

    Canonical form strips trailing zeros, so the leading coefficient is
    nonzero unless the polynomial is zero (empty coefficient list).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return UniPoly(a)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

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

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i))

    def divmod(self, divisor: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact polynomial division over Q: self = q*divisor + r."""
        if divisor.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        rem = list(self.coeffs)
        dlc = divisor.leading
        dn = divisor.degree
        q = [ZERO] * max(0, len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            factor = rem[k + dn] / dlc
            if factor == 0:
                continue
            q[k] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[k + i] -= factor * c
        return UniPoly(q), UniPoly(rem)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lc = self.leading
        return UniPoly(tuple(c / lc for c in self.coeffs))


def gcd_uni(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over Q (the zero polynomial is absorbing)."""
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero else a


def square_free_part(f: UniPoly) -> UniPoly:
    """f with all root multiplicities reduced to one (monic)."""
    if f.is_zero:
        raise ZeroPolynomialError("square-free part of the zero polynomial")
    if f.degree == 0:
        return UniPoly.constant(1)
    g = gcd_uni(f, f.derivative())
    q, r = f.divmod(g)
    assert r.is_zero
    return q.monic()


# ---------------------------------------------------------------------------
# Restriction of 4-variable polynomials to affine flats
# ---------------------------------------------------------------------------

def restrict_to_line(p: SparsePoly, ln) -> UniPoly:
    """Restriction f(t) = p(base + t*direction) along a line in R^4.

    `ln` needs `.base` and `.direction` 4-tuples of rationals.  The
    result has degree at most deg p (strictly less only when leading
    terms cancel); the zero input restricts to the zero polynomial.
    """
    base = [rat(v) for v in ln.base]
    direc = [rat(v) for v in ln.direction]
    if all(d == 0 for d in direc):
        raise ValueError("line direction must be nonzero")
    axes = [UniPoly((b, d)) for b, d in zip(base, direc)]
    return _restrict(p, axes, UniPoly.constant(1), UniPoly.zero())


def restrict_to_flat2(p: SparsePoly, fl) -> SparsePoly:
    """Restriction g(a, b) = p(base + a*u + b*v) to a 2-flat in R^4."""
    base = [rat(v) for v in fl.base]
    u = [rat(v) for v in fl.u]
    v = [rat(v) for v in fl.v]
    axes = [
        SparsePoly(2, {(0, 0): b, (1, 0): uu, (0, 1): vv})
        for b, uu, vv in zip(base, u, v)
    ]
    return _restrict(p, axes, SparsePoly.constant(2, 1), SparsePoly.zero(2))


def _restrict(p: SparsePoly, axes, one, zero):
    if p.nvars != 4:
        raise ValueError("restriction expects a 4-variable polynomial")
    cache: list[dict[int, object]] = [dict() for _ in range(4)]

    def power(i: int, e: int):
        got = cache[i].get(e)
        if got is None:
            got = one
            for _ in range(e):
                got = got * axes[i]
            cache[i][e] = got
        return got

    total = zero
    for expo, coeff in p.terms.items():
        term = one * coeff
        for i, e in enumerate(expo):
            if e:
                term = term * power(i, e)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Sturm sequences: exact root counting and isolation
# ---------------------------------------------------------------------------

def sturm_chain(f: UniPoly) -> list[UniPoly]:
    """Signed remainder chain f, f', -rem(...), ... ending at a nonzero poly."""
    chain = [f, f.derivative()]
    if chain[1].is_zero:
        return chain[:1]
    while True:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero:
            return chain
        chain.append(-r)


def _variations(values: Iterable[int]) -> int:
    count = 0
    prev = 0
    for s in values:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: Sequence[UniPoly], x: Fraction) -> int:
    return _variations(sign(g.eval(x)) for g in chain)


def _variations_at_inf(chain: Sequence[UniPoly], positive: bool) -> int:
    signs = []
    for g in chain:
        if g.is_zero:
            signs.append(0)
            continue
        s = sign(g.leading)
        if not positive and g.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def sturm_root_count(f: UniPoly, lo=None, hi=None) -> int:
    """Number of distinct real roots of f in (lo, hi].

    `lo=None` / `hi=None` stand for -infinity / +infinity; with both
    infinite this is the total number of distinct real roots.  Works for
    arbitrary nonzero f (multiplicities are collapsed via the square-free
    part); raises ZeroPolynomialError for the zero polynomial.
    """
    if f.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    if f.degree == 0:
        return 0
    g = square_free_part(f)
    if g.degree == 0:
        return 0
    chain = sturm_chain(g)
    va = _variations_at(chain, rat(lo)) if lo is not None else _variations_at_inf(chain, False)
    vb = _variations_at(chain, rat(hi)) if hi is not None else _variations_at_inf(chain, True)
    if lo is not None and hi is not None and rat(lo) > rat(hi):
        raise ValueError("empty interval: lo > hi")
    return va - vb


def cauchy_root_bound(f: UniPoly) -> Fraction:
    """B with every real root of f strictly inside (-B, B)."""
    if f.is_zero:
        raise ZeroPolynomialError("root bound of the zero polynomial")
    lc = abs(f.leading)
    top = max((abs(c) for c in f.coeffs[:-1]), default=ZERO)
    return ONE + top / lc


@dataclass(frozen=True)
class IsolatedRoot:
    """One distinct real root of a square-free polynomial.

    Either `value` is set (the root is the exact rational `value`) or
    `lo < root < hi` with poly(lo) and poly(hi) nonzero of opposite sign.
    """

    poly: UniPoly
    lo: Fraction
    hi: Fraction
    value: Fraction | None = None

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def lower(self) -> Fraction:
        return self.value if self.is_exact else self.lo

    def upper(self) -> Fraction:
        return self.value if self.is_exact else self.hi

    def compare_to(self, c) -> int:
        """-1, 0, +1 for root <, =, > the rational c."""
        c = rat(c)
        if self.is_exact:
            return sign(self.value - c)
        if c <= self.lo:
            return 1
        if c >= self.hi:
            return -1
        s = sign(self.poly.eval(c))
        if s == 0:
            return 0
        return 1 if s == sign(self.poly.eval(self.lo)) else -1

    def refined(self) -> "IsolatedRoot":
        """Halve the isolating interval (or discover the root exactly)."""
        if self.is_exact:
            return self
        mid = (self.lo + self.hi) / 2
        s = sign(self.poly.eval(mid))
        if s == 0:
            return IsolatedRoot(self.poly, mid, mid, mid)
        if s == sign(self.poly.eval(self.lo)):
            return IsolatedRoot(self.poly, mid, self.hi)
        return IsolatedRoot(self.poly, self.lo, mid)


def isolate_real_roots(f: UniPoly) -> list[IsolatedRoot]:
    """All distinct real roots of f, sorted, in disjoint isolating intervals.

    Interval endpoints are never roots, so any value in the gap between
    two consecutive returned intervals is certified off the root set.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    g = square_free_part(f)
    if g.degree <= 0:
        return []
    chain = sturm_chain(g)
    bound = cauchy_root_bound(g)

    def var(x: Fraction) -> int:
        return _variations_at(chain, x)

    roots: list[IsolatedRoot] = []

    def split_point(a: Fraction, b: Fraction) -> Fraction:
        # Pick a bisection point that is not itself a root.
        mid = (a + b) / 2
        step = (b - a) / 4
        while g.eval(mid) == 0:
            mid += step
            step /= 3
        return mid

    def recurse(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        k = va - vb
        if k == 0:
            return
        if k == 1:
            if g.eval(a) != 0 and g.eval(b) != 0 and sign(g.eval(a)) != sign(g.eval(b)):
                roots.append(IsolatedRoot(g, a, b))
                return
            # Endpoint lands on a root or signs agree: shrink first.
        m = split_point(a, b)
        vm = var(m)
        recurse(a, m, va, vm)
        recurse(m, b, vm, vb)

    recurse(-bound, bound, var(-bound), var(bound))
    roots.sort(key=lambda r: (r.lower(), r.upper()))

    # Shrink until pairwise disjoint with a usable gap between intervals.
    for i in range(len(roots) - 1):
        a, b = roots[i], roots[i + 1]
        while not a.upper() < b.lower():
            if not a.is_exact:
                a = a.refined()
            if not b.upper() > a.upper() or not b.is_exact:
                b = b.refined()
            if a.is_exact and b.is_exact:
                break
        roots[i], roots[i + 1] = a, b
    return roots


def compare_roots(r1: IsolatedRoot, r2: IsolatedRoot) -> int:
    """-1, 0, +1 ordering of two isolated real roots, possibly of
    different polynomials.

    Equality of roots of distinct polynomials is decided through their
    gcd: each isolating interval holds at most one root of the gcd, so
    once both roots are certified to be gcd roots and their interval
    hull contains exactly one, they coincide.
    """
    if r1.is_exact and r2.is_exact:
        return sign(r1.value - r2.value)
    if r1.is_exact:
        return -r2.compare_to(r1.value)
    if r2.is_exact:
        return r1.compare_to(r2.value)
    common = r1.poly if r1.poly == r2.poly else gcd_uni(r1.poly, r2.poly)
    a, b = r1, r2
    while True:
        if a.upper() < b.lower():
            return -1
        if b.upper() < a.lower():
            return 1
        if a.is_exact:
            return -b.compare_to(a.value)
        if b.is_exact:
            return a.compare_to(b.value)
        if common.degree > 0:
            in_a = sturm_root_count(common, a.lo, a.hi) == 1
            in_b = sturm_root_count(common, b.lo, b.hi) == 1
            if in_a and in_b:
                hull_lo = min(a.lo, b.lo)
                hull_hi = max(a.hi, b.hi)
                if sturm_root_count(common, hull_lo, hull_hi) == 1:
                    return 0
            else:
                common = UniPoly.constant(1)  # roots cannot coincide
        a, b = a.refined(), b.refined()


def merge_real_roots(root_lists: Sequence[Sequence[IsolatedRoot]]) -> list[IsolatedRoot]:
    """Sorted distinct union of isolated roots from several polynomials.

    Shared roots are collapsed; the returned roots are refined until
    their intervals are pairwise disjoint, so the gaps between them are
    certified free of roots of every contributing polynomial.
    """
    merged: list[IsolatedRoot] = []
    for roots in root_lists:
        for r in roots:
            lo, hi = 0, len(merged)
            dup = False
            while lo < hi:
                mid = (lo + hi) // 2
                c = compare_roots(r, merged[mid])
                if c == 0:
                    dup = True
                    break
                if c < 0:
                    hi = mid
                else:
                    lo = mid + 1
            if not dup:
                merged.insert(lo, r)
    for i in range(len(merged) - 1):
        a, b = merged[i], merged[i + 1]
        while not a.upper() < b.lower():
            a = a.refined()
            b = b.refined()
            if a.is_exact and b.is_exact:
                break
        merged[i], merged[i + 1] = a, b
    return merged


def sample_points_between_roots(roots: Sequence[IsolatedRoot]) -> list[Fraction]:
    """One rational per open interval of the complement of the root set.

    For k sorted roots this returns k+1 values, each certified to lie
    strictly between its neighbouring roots (or beyond the extremes).
    """
    if not roots:
        return [ZERO]
    pts = [roots[0].lower() - (1 if roots[0].is_exact else 0)]
    for left, right in zip(roots, roots[1:]):
        lo, hi = left.upper(), right.lower()
        assert lo < hi, "isolating intervals must be disjoint"
        pts.append((lo + hi) / 2 if left.is_exact or right.is_exact else lo)
    last = roots[-1]
    pts.append(last.upper() + (1 if last.is_exact else 0))
    # Exact-root bookkeeping: interval endpoints are already off the root
    # set; for exact roots we stepped a full unit away, which may overshoot
    # into a neighbour only if roots were closer than 1 apart -- guard.
    out = []
    for i, c in enumerate(pts):
        lo_ok = i == 0 or roots[i - 1].compare_to(c) < 0
        hi_ok = i == len(roots) or roots[i].compare_to(c) > 0
        if not (lo_ok and hi_ok):
            lo = roots[i - 1].upper()
            hi = roots[i].lower()
            c = (lo + hi) / 2
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# Determinants and Sylvester matrices
# ---------------------------------------------------------------------------

def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return ONE
    m = [row[:] for row in matrix]
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = ONE / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _sylvester(c1: list, c2: list) -> list[list]:
    """Sylvester matrix of two coefficient lists (lowest degree first)."""
    e1, e2 = len(c1) - 1, len(c2) - 1
    size = e1 + e2
    rev1, rev2 = c1[::-1], c2[::-1]
    zero = UniPoly.zero()
    rows = [[zero] * i + rev1 + [zero] * (size - i - e1 - 1) for i in range(e2)]
    rows += [[zero] * i + rev2 + [zero] * (size - i - e2 - 1) for i in range(e1)]
    return rows


# ---------------------------------------------------------------------------
# Bivariate systems: common factors and real intersection counting
# ---------------------------------------------------------------------------

def bipoly_coeffs_in(q: SparsePoly, var: int) -> list[UniPoly]:
    """Coefficients of q grouped by the power of variable `var` (0 or 1);
    entry d is a UniPoly in the other variable."""
    if q.nvars != 2:
        raise ValueError("expects a two-variable polynomial")
    other = 1 - var
    maxdeg = max((e[var] for e in q.terms), default=-1)
    buckets: list[dict[int, Fraction]] = [dict() for _ in range(maxdeg + 1)]
    for e, c in q.terms.items():
        buckets[e[var]][e[other]] = c
    out = []
    for bucket in buckets:
        size = max(bucket, default=-1) + 1
        out.append(UniPoly([bucket.get(i, ZERO) for i in range(size)]))
    return out


def _interp_poly(samples: list[tuple[Fraction, Fraction]]) -> UniPoly:
    """Lagrange interpolation through (x, value) pairs."""
    total = UniPoly.zero()
    xs = [x for x, _ in samples]
    for i, (xi, yi) in enumerate(samples):
        if yi == 0:
            continue
        num = UniPoly.constant(yi)
        den = ONE
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * UniPoly((-xj, ONE))
            den *= xi - xj
        total = total + num * (ONE / den)
    return total


def _matrix_det_poly(entries: list[list[UniPoly]], degree_bound: int) -> UniPoly:
    """Determinant of a matrix of univariate polynomials, by evaluation
    and interpolation (checked at two extra sample points)."""
    npts = degree_bound + 1
    samples = []
    for k in range(npts + 2):
        x = Fraction(k)
        mat = [[e.eval(x) for e in row] for row in entries]
        samples.append((x, _det(mat)))
    poly = _interp_poly(samples[:npts])
    for x, val in samples[npts:]:
        if poly.eval(x) != val:
            raise ArithmeticError("resultant degree bound violated")
    return poly


def resultant_bivariate(q1: SparsePoly, q2: SparsePoly, eliminate: int) -> UniPoly:
    """Resultant of two bivariate polynomials w.r.t. variable `eliminate`,
    as a polynomial in the other variable.

    Conventions: if one input has degree 0 in the eliminated variable it
    is raised to the other's degree; if both do, the result is 1.
    """
    if q1.is_zero or q2.is_zero:
        raise ZeroPolynomialError("resultant needs nonzero polynomials")
    c1 = bipoly_coeffs_in(q1, eliminate)
    c2 = bipoly_coeffs_in(q2, eliminate)
    e1, e2 = len(c1) - 1, len(c2) - 1
    if e1 == 0 and e2 == 0:
        return UniPoly.constant(1)
    if e1 == 0:
        out = UniPoly.constant(1)
        for _ in range(e2):
            out = out * c1[0]
        return out
    if e2 == 0:
        out = UniPoly.constant(1)
        for _ in range(e1):
            out = out * c2[0]
        return out
    bound = q1.degree * q2.degree + 1
    return _matrix_det_poly(_sylvester(c1, c2), bound)


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
    return resultant_bivariate(q1, q2, 1).is_zero or resultant_bivariate(q1, q2, 0).is_zero


def _shear(q: SparsePoly, lam: Fraction) -> SparsePoly:
    """Coordinate change (x, y) -> (x + lam*y, y)."""
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    return q.substitute([x + y.scale(lam), y])


def _degree_form_at(q: SparsePoly, lam: Fraction) -> Fraction:
    """Top-degree form of q evaluated at (lam, 1): the leading
    y-coefficient of the sheared polynomial."""
    d = q.degree
    total = ZERO
    for e, c in q.terms.items():
        if e[0] + e[1] == d:
            total += c * lam ** e[0]
    return total


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
    equals the number of distinct real roots of the resultant.
    """
    if q1.is_zero or q2.is_zero:
        raise ZeroPolynomialError("bezout check needs nonzero polynomials")
    d1, d2 = q1.degree, q2.degree
    if d1 == 0 or d2 == 0:
        return False, 0
    if have_common_factor(q1, q2):
        return True, None

    for lam in _SHEAR_LADDER:
        if _degree_form_at(q1, lam) == 0 or _degree_form_at(q2, lam) == 0:
            continue
        s1 = _shear(q1, lam)
        s2 = _shear(q2, lam)
        res = resultant_bivariate(s1, s2, 1)
        assert not res.is_zero
        if res.degree == 0:
            return False, 0
        if min(d1, d2) >= 2:
            psc1 = _psc1_bivariate(s1, s2)
            if psc1.is_zero or gcd_uni(res, psc1).degree > 0:
                continue
        count = sturm_root_count(res)
        if count > d1 * d2:
            raise ArithmeticError("intersection count exceeded the Bezout bound")
        return False, count
    raise GenericPositionError(
        "no shear certified generic position; the curves likely share a "
        "singular point"
    )


def _psc1_bivariate(q1: SparsePoly, q2: SparsePoly) -> UniPoly:
    """First principal subresultant coefficient w.r.t. y, in x."""
    c1 = bipoly_coeffs_in(q1, 1)
    c2 = bipoly_coeffs_in(q2, 1)
    e1, e2 = len(c1) - 1, len(c2) - 1
    full = _sylvester(c1, c2)
    rows = full[: e2 - 1] + full[e2 : e2 + e1 - 1]
    sub = [row[: e1 + e2 - 2] for row in rows]
    bound = q1.degree * q2.degree + 1
    return _matrix_det_poly(sub, bound)
