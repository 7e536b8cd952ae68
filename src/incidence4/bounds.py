"""Closed-form incidence bounds with certified enclosures.

Every calculator evaluates its formula inside a rational interval whose
relative width is at most 1e-9 (exact fast paths fire whenever the
exponents collapse to integers or the bases are perfect powers), and
every side condition is decided exactly by comparing products of
rational powers in integer arithmetic, never in floating point.

Out-of-regime calls still return the formula value: the hypothesis flag
and its detail string record why the proof's side condition fails, so
bound behavior outside the regime can be explored deliberately.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .exactpoly import rat

DEFAULT_PRECISION_BITS = 120
REGIME_FACTOR = 10       # operationalizes "L^{1/2} << S << L"
MUCH_GREATER_FACTOR = 100  # operationalizes "S >> G_2" and the truncation gate
DOMINANCE_CONSTANT = 1000  # per-summand ceiling in units of the main bound


class DomainError(ValueError):
    """A formula argument left its admissible domain."""


# ---------------------------------------------------------------------------
# Rational intervals and certified powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")

    @classmethod
    def point(cls, v) -> "RationalInterval":
        v = rat(v)
        return cls(v, v)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def relative_width(self) -> Fraction:
        scale = max(abs(self.lo), abs(self.hi))
        return self.width / scale if scale else Fraction(0)

    def __add__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RationalInterval(min(quotients), max(quotients))


def _as_interval(v) -> RationalInterval:
    if isinstance(v, RationalInterval):
        return v
    return RationalInterval.point(v)


def integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, exact."""
    if n < 0 or k < 1:
        raise ValueError("integer root needs n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() + k - 1) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def rational_power(base, expo) -> RationalInterval:
    """Certified enclosure of base ** expo for positive rational base.

    Integer exponents and perfect q-th powers evaluate exactly (a point
    interval); otherwise the q-th root is enclosed by a dyadic bracket
    of DEFAULT_PRECISION_BITS bits.
    """
    base = rat(base)
    expo = rat(expo)
    if base < 0:
        raise DomainError("negative base with a rational exponent")
    if base == 0:
        if expo <= 0:
            raise DomainError("0 ** nonpositive exponent")
        return RationalInterval.point(0)
    if expo.denominator == 1:
        return RationalInterval.point(base ** int(expo))
    q = expo.denominator
    r = base ** expo.numerator  # exact, possibly huge / tiny
    num_root = integer_root(r.numerator, q)
    den_root = integer_root(r.denominator, q)
    if num_root**q == r.numerator and den_root**q == r.denominator:
        return RationalInterval.point(Fraction(num_root, den_root))
    # Dyadic bracket: scale so the integer root carries DEFAULT_PRECISION_BITS
    # significant bits even for r far from 1.
    shift = DEFAULT_PRECISION_BITS + max(
        0, -(r.numerator.bit_length() - r.denominator.bit_length()) // q
    )
    scaled = (r.numerator << (q * shift)) // r.denominator
    y = integer_root(scaled, q)
    unit = Fraction(1, 1 << shift)
    return RationalInterval(y * unit, (y + 1) * unit)


def interval_power(value, expo) -> RationalInterval:
    """Monotone power of a positive interval (or rational)."""
    iv = _as_interval(value)
    expo = rat(expo)
    if iv.lo < 0:
        raise DomainError("interval power needs a nonnegative interval")
    lo_pow = rational_power(iv.lo, expo)
    hi_pow = lo_pow if iv.hi == iv.lo else rational_power(iv.hi, expo)
    if expo >= 0:
        return RationalInterval(lo_pow.lo, hi_pow.hi)
    return RationalInterval(hi_pow.lo, lo_pow.hi)


def compare_power_products(left, right) -> int:
    """Exact sign of prod(base^expo) - prod(base^expo), all bases > 0.

    Raises both sides to the least common multiple of the exponent
    denominators, turning the comparison into exact Fraction arithmetic.
    """
    left, right = list(left), list(right)
    scale = math.lcm(*(rat(e).denominator for _, e in left + right))
    values = []
    for side in (left, right):
        v = Fraction(1)
        for b, e in side:
            b, e = rat(b), rat(e)
            if b <= 0:
                raise DomainError("power products need positive bases")
            v *= b ** int(e * scale)
        values.append(v)
    lv, rv = values
    return (lv > rv) - (lv < rv)


# ---------------------------------------------------------------------------
# Parameters, constants, results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """(L, S, D, epsilon) of one bound evaluation."""

    num_lines: int
    num_planes: int
    degree: int
    epsilon: Fraction

    def __post_init__(self):
        if self.num_lines < 1 or self.num_planes < 1:
            raise ValueError("bound parameters need L, S >= 1")
        if self.degree < 2:
            raise ValueError("surface degree must be at least 2")
        eps = rat(self.epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "epsilon", eps)


@dataclass(frozen=True)
class ConstantsProfile:
    """The free constants of the surface and zero-set cases.

    c3 is not free: it is pinned to 3*c1*c2/2 by the curve-count case.
    """

    c1: Fraction = Fraction(1)
    c2: Fraction = Fraction(1)
    c4: Fraction = Fraction(1)

    def __post_init__(self):
        for name in ("c1", "c2", "c4"):
            v = rat(getattr(self, name))
            if v <= 0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, v)

    @property
    def c3(self) -> Fraction:
        return 3 * self.c1 * self.c2 / 2


@dataclass(frozen=True)
class BoundResult:
    """A formula value with its enclosure and hypothesis verdict."""

    value: RationalInterval
    hypothesis_satisfied: bool
    hypothesis_detail: str = ""

    def __post_init__(self):
        if self.value.relative_width() > Fraction(1, 10**9):
            raise ValueError("enclosure wider than the 1e-9 contract")
        if not self.hypothesis_satisfied and not self.hypothesis_detail:
            raise ValueError("a failed hypothesis needs an explanation")

    @property
    def mid(self) -> float:
        return float(self.value.mid)

    @property
    def upper(self) -> Fraction:
        return self.value.hi


def _ok(value: RationalInterval, detail: str = "") -> BoundResult:
    return BoundResult(value, True, detail)


# ---------------------------------------------------------------------------
# Individual calculators
# ---------------------------------------------------------------------------

def regime_check(L: int, S: int) -> tuple[bool, str]:
    """REGIME_FACTOR * L^(1/2) <= S <= L / REGIME_FACTOR, decided exactly."""
    lower_ok = REGIME_FACTOR * REGIME_FACTOR * L <= S * S
    upper_ok = REGIME_FACTOR * S <= L
    detail = (
        f"regime {REGIME_FACTOR}*sqrt(L) <= S: {'ok' if lower_ok else 'VIOLATED'}; "
        f"S <= L/{REGIME_FACTOR}: {'ok' if upper_ok else 'VIOLATED'}"
    )
    return lower_ok and upper_ok, detail


def eval_main_bound(p: BoundParams) -> BoundResult:
    """L^(3/4 + eps/2) * S + L * S^(1/2 + eps), with the regime verdict."""
    L, S, eps = p.num_lines, p.num_planes, p.epsilon
    term1 = interval_power(L, Fraction(3, 4) + eps / 2) * S
    term2 = interval_power(S, Fraction(1, 2) + eps) * L
    ok, detail = regime_check(L, S)
    return BoundResult(term1 + term2, ok, detail)


@dataclass(frozen=True)
class CellDecomposition:
    lines_per_cell: Fraction
    planes_per_cell: Fraction
    cell_count: int
    summed_cell_bound: BoundResult


def eval_cell_decomposition(p: BoundParams) -> CellDecomposition:
    """Per-cell object counts and the D^4-cell induction sum.

    The sum D^(-1/4 - 3eps/2) * L^(3/4 + eps/2) * S
          + D^(-2eps)        * L * S^(1/2 + eps)
    is strictly below the main bound for every D >= 2, eps > 0 (both D
    exponents are negative); that structural fact is asserted here.
    """
    L, S, D, eps = p.num_lines, p.num_planes, p.degree, p.epsilon
    e1 = -(Fraction(1, 4) + 3 * eps / 2)
    e2 = -2 * eps
    if not (e1 < 0 and e2 < 0 and D >= 2):
        raise AssertionError("both D exponents must be negative and D >= 2")
    term1 = interval_power(D, e1) * interval_power(L, Fraction(3, 4) + eps / 2) * S
    term2 = interval_power(D, e2) * interval_power(S, Fraction(1, 2) + eps) * L
    return CellDecomposition(
        Fraction(L, D**3),
        Fraction(S, D**2),
        D**4,
        _ok(term1 + term2, "cell sum sits strictly below the main bound (negative D exponents)"),
    )


def _rich_surface_bound(p: BoundParams, n: int, name: str, c: int) -> BoundResult:
    """Ceiling 2 * D^(c(1/2 + eps)) * n^(1/2 - eps) on rich surfaces, for
    n objects (`name`) of codimension c in R^4.

    Hypothesis (exact): A = (n/D^c)^(1/2+eps) must exceed 2 D n^(1/2),
    the threshold of the surface-counting lemma; squared, that is
    (n/D^c)^(1+2eps) > 4 D^2 n.
    """
    D, eps = p.degree, p.epsilon
    value = 2 * interval_power(D, c * (Fraction(1, 2) + eps)) * interval_power(
        n, Fraction(1, 2) - eps
    )
    ok = compare_power_products([(Fraction(n, D**c), 1 + 2 * eps)], [(4 * D * D * n, 1)]) > 0
    detail = (
        f"A = ({name}/D^{c})^(1/2+eps) with {name}={n}, D={D}, eps={eps} "
        f"{'>' if ok else '<='} 2*D*sqrt({name}): lemma threshold {'met' if ok else 'NOT met'}"
    )
    return BoundResult(value, ok, detail)


def eval_g2_bound(p: BoundParams) -> BoundResult:
    """Ceiling 2 * D^(3/2 + 3 eps) * L^(1/2 - eps) on rich 2-surfaces."""
    return _rich_surface_bound(p, p.num_lines, "L", 3)


def eval_g3_bound(p: BoundParams) -> BoundResult:
    """Ceiling 2 * D^(1 + 2 eps) * S^(1/2 - eps) on rich 3-surfaces."""
    return _rich_surface_bound(p, p.num_planes, "S", 2)


@dataclass(frozen=True)
class TwoSurfaceCases:
    point_case: BoundResult
    curve_case: BoundResult
    contained_case: BoundResult


def eval_two_surface_cases(p: BoundParams, c: ConstantsProfile) -> TwoSurfaceCases:
    """The three ways a 2-plane can meet a rich 2-surface.

    point_case:     2 D^(5/2+3eps) L^(1/2-eps) S   (finite intersections)
    curve_case:     C3 D^(3/2+3eps) L S^(1/2)      (curve intersections)
    contained_case: 2 D^(5/2+3eps) L               (plane inside surface)

    The curve case carries the side conditions S >> G_2 (operationalized
    with MUCH_GREATER_FACTOR) and S^(2eps) < C1^2.
    """
    L, S, D, eps = p.num_lines, p.num_planes, p.degree, p.epsilon
    point_case = (
        2
        * interval_power(D, Fraction(5, 2) + 3 * eps)
        * interval_power(L, Fraction(1, 2) - eps)
        * S
    )
    curve_case = (
        c.c3 * interval_power(D, Fraction(3, 2) + 3 * eps) * L * interval_power(S, Fraction(1, 2))
    )
    contained_case = 2 * interval_power(D, Fraction(5, 2) + 3 * eps) * L

    s_dominates = (
        compare_power_products(
            [(S, 1)],
            [
                (2 * MUCH_GREATER_FACTOR, 1),
                (D, Fraction(3, 2) + 3 * eps),
                (L, Fraction(1, 2) - eps),
            ],
        )
        >= 0
    )
    c1_gate = compare_power_products([(S, 2 * eps)], [(c.c1, 2)]) < 0
    detail = (
        f"S >= {MUCH_GREATER_FACTOR}*G2 ceiling: {'ok' if s_dominates else 'VIOLATED'}; "
        f"S^(2eps) < C1^2: {'ok' if c1_gate else 'VIOLATED'}"
    )
    return TwoSurfaceCases(
        _ok(point_case, "no side conditions"),
        BoundResult(curve_case, s_dominates and c1_gate, detail),
        _ok(contained_case, "no side conditions"),
    )


def eval_kst(m, n, s, t: int) -> BoundResult:
    """Extremal edge ceiling (s-1)^(1/t) (n-t+1) m^(1-1/t) + (t-1) m.

    Arguments may be exact rationals or certified intervals (the curve
    counts feeding `n` are intervals); t must stay within n.
    """
    m_iv, n_iv, s_iv = _as_interval(m), _as_interval(n), _as_interval(s)
    t = int(t)
    if t < 1 or s_iv.lo < 1:
        raise DomainError("witness sides must be at least 1")
    if n_iv.hi < t:
        raise DomainError(f"t={t} exceeds the right side n={n_iv.hi}")
    if m_iv.lo < 1:
        raise DomainError("left side must be at least 1")
    term1 = (
        interval_power(s_iv - 1, Fraction(1, t))
        * (n_iv - (t - 1))
        * interval_power(m_iv, 1 - Fraction(1, t))
    )
    term2 = (t - 1) * m_iv
    return _ok(term1 + term2)


@dataclass(frozen=True)
class ThreeSurfaceCases:
    crossing_case: BoundResult
    contained_case: BoundResult
    kst_link: BoundResult


def eval_three_surface_cases(p: BoundParams) -> ThreeSurfaceCases:
    """The two ways lines interact with rich 3-surfaces.

    crossing_case:  2 D^(2+2eps) L S^(1/2-eps)   (lines crossing surfaces)
    contained_case: 2 D^(1+2eps) L^(3/4+eps/2) S + L S^(1/2+eps)
                    (lines inside surfaces, via the bipartite edge bound)

    kst_link exposes the intermediate extremal value
    z(L, G3; L^(1/2+eps)+1, 2) that the contained case compresses.
    """
    L, S, D, eps = p.num_lines, p.num_planes, p.degree, p.epsilon
    crossing = (
        2 * interval_power(D, 2 + 2 * eps) * L * interval_power(S, Fraction(1, 2) - eps)
    )
    contained = (
        2
        * interval_power(D, 1 + 2 * eps)
        * interval_power(L, Fraction(3, 4) + eps / 2)
        * S
        + interval_power(S, Fraction(1, 2) + eps) * L
    )
    g3 = eval_g3_bound(p)
    s_iv = interval_power(L, Fraction(1, 2) + eps) + 1
    # The curve count may sit below t=2; the theorem then degenerates.
    if g3.value.hi < 2:
        kst_link = _ok(RationalInterval.point(L), "curve count below t=2; only the (t-1)m term remains")
    else:
        kst_link = eval_kst(L, g3.value, s_iv, 2)
    detail = f"inherits the 3-surface ceiling hypothesis: {g3.hypothesis_detail}"
    return ThreeSurfaceCases(
        _ok(crossing, "no side conditions"),
        BoundResult(contained, g3.hypothesis_satisfied, detail),
        kst_link,
    )


def eval_rich_points_bound(n: int, r: int, epsilon, c4) -> BoundResult:
    """c4 * n^(3/2+eps) / r^2 bound on r-rich points of n lines/curves.

    The theorem speaks for 2 <= r <= 2 sqrt(n); calls outside that range
    still evaluate, flagged out-of-range.
    """
    eps = rat(epsilon)
    c4 = rat(c4)
    if n < 1 or r < 1:
        raise DomainError("need n >= 1 and r >= 1")
    value = c4 * interval_power(n, Fraction(3, 2) + eps) * RationalInterval.point(
        Fraction(1, r * r)
    )
    ok = 2 <= r and r * r <= 4 * n
    detail = f"r={r} within [2, 2*sqrt(n)] for n={n}: {'ok' if ok else 'OUT OF RANGE'}"
    return BoundResult(value, ok, detail)


@dataclass(frozen=True)
class ZeroSetCases:
    crossing_lines: BoundResult
    tangent_planes: BoundResult
    curve_intersections: BoundResult
    contained_planes: BoundResult
    total: BoundResult


def eval_zero_set_cases(p: BoundParams, c: ConstantsProfile) -> ZeroSetCases:
    """The four zero-set cases and their sum:

    D L  +  D S  +  (3/8 + eps/4) C4 L^(1/2+eps) S  +  L S^(1/2+eps).

    The curve case carries the L >> S side condition (lines dominate
    planes, operationalized as L >= REGIME_FACTOR * S).
    """
    L, S, D, eps = p.num_lines, p.num_planes, p.degree, p.epsilon
    crossing = RationalInterval.point(D * L)
    tangent = RationalInterval.point(D * S)
    curve = (
        (Fraction(3, 8) + eps / 4)
        * c.c4
        * interval_power(L, Fraction(1, 2) + eps)
        * S
    )
    contained = interval_power(S, Fraction(1, 2) + eps) * L
    l_dominates = L >= REGIME_FACTOR * S
    detail = f"L >= {REGIME_FACTOR}*S: {'ok' if l_dominates else 'VIOLATED'}"
    total = crossing + tangent + curve + contained
    return ZeroSetCases(
        _ok(crossing, "no side conditions"),
        _ok(tangent, "no side conditions"),
        BoundResult(curve, l_dominates, detail),
        _ok(contained, "no side conditions"),
        BoundResult(total, l_dominates, detail),
    )


@dataclass(frozen=True)
class TotalAndDominance:
    """One evaluation of every summand against the main bound.  `parts`
    is a read-only mapping: evaluations are cached and shared."""

    total: BoundResult
    main: BoundResult
    ratio: RationalInterval
    parts: Mapping[str, BoundResult]
    dominance_ok: bool


@functools.lru_cache(maxsize=256)
def eval_total_and_dominance(p: BoundParams, c: ConstantsProfile) -> TotalAndDominance:
    """Cell sum + all five surface cases + zero-set sum, against the main
    bound: reports total/main and checks every summand stays within
    DOMINANCE_CONSTANT times the main bound.

    Memoised on the frozen (params, constants): a run that repeats a
    parameter set evaluates its bounds once."""
    cells = eval_cell_decomposition(p)
    two = eval_two_surface_cases(p, c)
    three = eval_three_surface_cases(p)
    zero = eval_zero_set_cases(p, c)
    main = eval_main_bound(p)
    parts = {
        "cell_sum": cells.summed_cell_bound,
        "two_surface_points": two.point_case,
        "two_surface_curves": two.curve_case,
        "two_surface_contained": two.contained_case,
        "three_surface_crossing": three.crossing_case,
        "three_surface_contained": three.contained_case,
        "zero_set_crossing": zero.crossing_lines,
        "zero_set_tangent": zero.tangent_planes,
        "zero_set_curves": zero.curve_intersections,
        "zero_set_contained": zero.contained_planes,
    }
    total_iv = RationalInterval.point(0)
    for r in parts.values():
        total_iv = total_iv + r.value
    ratio = total_iv / main.value
    dominance_ok = all(r.value.hi <= DOMINANCE_CONSTANT * main.value.lo for r in parts.values())
    failed = [name for name, r in parts.items() if not r.hypothesis_satisfied]
    hyp_ok = not failed and main.hypothesis_satisfied
    detail_bits = []
    if failed:
        detail_bits.append("out-of-regime parts: " + ", ".join(failed))
    if not main.hypothesis_satisfied:
        detail_bits.append(main.hypothesis_detail)
    total = BoundResult(total_iv, hyp_ok, "; ".join(detail_bits) or "all side conditions met")
    return TotalAndDominance(total, main, ratio, MappingProxyType(parts), dominance_ok)


def binomial_truncation_gap(S: int, G2) -> RationalInterval:
    """Relative gap between (S+G2)^(3/2) and its two-term expansion
    S^(3/2) + (3/2) S^(1/2) G2; small whenever S dominates G2."""
    G2 = rat(G2)
    if S <= 0 or G2 < 0:
        raise DomainError("need S > 0 and G2 >= 0")
    exact = interval_power(Fraction(S) + G2, Fraction(3, 2))
    truncated = (
        interval_power(S, Fraction(3, 2)) + G2 * interval_power(S, Fraction(1, 2)) * Fraction(3, 2)
    )
    return (exact - truncated) / exact
