"""Partitioning polynomials for finite point sets in R^4.

A partition is built one factor per round: round j must simultaneously
delta-bisect every nonempty sign-orthant cell of the previous factors.
Candidate bisectors are found by searching over hyperplanes in a
Veronese-lifted monomial space (numeric search is allowed there), but a
candidate is only ever accepted after its bisection contract has been
verified with exact rational arithmetic, so the returned partition
carries no numeric trust.

Cells are sign vectors of the factors rather than true connected
components; sign cells refine components, so per-cell point counts are
valid upper-bound certificates and line crossing counts are exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from .exactpoly import (
    SparsePoly,
    ZERO,
    isolate_real_roots,
    merge_real_roots,
    rat,
    restrict_to_flat2,
    restrict_to_line,
    sample_points_between_roots,
    sign,
)
from .flats import rref

SignVector = tuple[int, ...]


class SearchBudgetError(RuntimeError):
    """No certified bisector was found within the attempt budget."""


class LineInZeroSetError(ValueError):
    """A partition factor vanishes identically on the line."""


class FlatInZeroSetError(ValueError):
    """A partition factor vanishes identically on the 2-flat."""


# ---------------------------------------------------------------------------
# Veronese lift
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> tuple[tuple[int, int, int, int], ...]:
    """Exponent tuples of all monomials of total degree 1..degree in 4
    variables, in graded lexicographic order."""
    if degree < 1:
        raise ValueError("lift degree must be at least 1")
    exps = [
        e
        for e in iter_product(range(degree + 1), repeat=4)
        if 1 <= sum(e) <= degree
    ]
    exps.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return tuple(exps)


def lift_dimension(degree: int) -> int:
    """C(4+degree, 4) - 1 monomials of degree 1..degree."""
    return math.comb(4 + degree, 4) - 1


def _lift_row(point, exps) -> list:
    """[1, monomials...] of a point in R^4: the Veronese lift with a
    leading 1, native ints preserved when possible."""
    row = [1]
    for e in exps:
        v = 1
        for x, p in zip(point, e):
            if p:
                v = v * x**p
        row.append(v)
    return row


# ---------------------------------------------------------------------------
# Partition data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionParams:
    """Bisection rounds, balance slack, and per-round lift degrees."""

    rounds: int
    delta: Fraction = Fraction(0)
    lift_degree_schedule: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        d = rat(self.delta)
        if not (0 <= d < 1):
            raise ValueError("delta must lie in [0, 1)")
        object.__setattr__(self, "delta", d)
        schedule = self.lift_degree_schedule
        if schedule is None:
            schedule = default_lift_schedule(self.rounds)
        schedule = tuple(int(k) for k in schedule)
        if len(schedule) != self.rounds:
            raise ValueError("need one lift degree per round")
        for j, k in enumerate(schedule, start=1):
            if lift_dimension(k) < 2 ** (j - 1) + 1:
                raise ValueError(
                    f"round {j} lift degree {k} offers only {lift_dimension(k)} "
                    f"monomials; needs at least {2 ** (j - 1) + 1}"
                )
        object.__setattr__(self, "lift_degree_schedule", schedule)


def default_lift_schedule(rounds: int) -> tuple[int, ...]:
    """Per-round lift degrees with comfortable bisection freedom.

    The hard minimum is one monomial per set plus one; the default asks
    for 1.5x that so the numeric bisector search is not degenerate-tight.
    """
    out = []
    for j in range(1, rounds + 1):
        need = max(2 ** (j - 1) + 1, (3 * 2 ** (j - 1)) // 2 + 1)
        k = 1
        while lift_dimension(k) < need:
            k += 1
        out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class PartitionPolynomial:
    """Ordered bisecting factors; the partitioning polynomial is their
    product, of total degree `degree`."""

    factors: tuple[SparsePoly, ...]
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        for f in self.factors:
            if f.is_zero:
                raise ValueError("partition factors must be nonzero")

    @property
    def rounds(self) -> int:
        return len(self.factors)

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


@dataclass(frozen=True)
class CrossingStats:
    distinct_cells: int
    zero_set_hits: int


def cell_id(point, part: PartitionPolynomial) -> SignVector:
    """Exact sign of each factor at the point; any zero entry means the
    point lies on the zero set rather than in an open cell."""
    return tuple(sign(f.eval(point)) for f in part.factors)


# ---------------------------------------------------------------------------
# Ham-sandwich bisection with exact certificates
# ---------------------------------------------------------------------------

def default_cap(size: int, delta: Fraction) -> int:
    return math.ceil(Fraction(size) * (1 + delta) / 2)


def _poly_from_weights(weights, exps) -> SparsePoly:
    terms = {(0, 0, 0, 0): weights[0]}
    for w, e in zip(weights[1:], exps):
        terms[e] = w
    return SparsePoly(4, terms)


def _feasible_interval(scores: list, cap: int):
    s = sorted(scores)
    n = len(s)
    lo = s[n - 1 - cap] if n > cap else None
    hi = s[cap] if n > cap else None
    return lo, hi


def _try_sweep(columns_per_set, caps, exps, weights_template):
    """Threshold sweep along one lifted direction: feasible iff the
    per-set acceptable threshold intervals intersect.  Split counts are
    re-checked from the score columns before the candidate is built."""
    lo_all, hi_all = None, None
    for scores, cap in zip(columns_per_set, caps):
        if not scores:
            continue
        lo, hi = _feasible_interval(scores, cap)
        if lo is not None and (lo_all is None or lo > lo_all):
            lo_all = lo
        if hi is not None and (hi_all is None or hi < hi_all):
            hi_all = hi
        if lo_all is not None and hi_all is not None and lo_all > hi_all:
            return None
    if lo_all is None and hi_all is None:
        # Every set fits on one side; place the cut below all scores so
        # no point lands on the zero set.
        seen = [s for scores in columns_per_set for s in scores]
        c = min(seen) - 1 if seen else ZERO
    elif lo_all is None:
        c = hi_all - 1
    elif hi_all is None:
        c = lo_all + 1
    else:
        c = Fraction(lo_all + hi_all) / 2
    total_nonzero = 0
    total_points = 0
    for scores, cap in zip(columns_per_set, caps):
        pos = sum(1 for s in scores if s > c)
        neg = sum(1 for s in scores if s < c)
        if pos > cap or neg > cap:
            return None
        total_nonzero += pos + neg
        total_points += len(scores)
    if total_points > 0 and total_nonzero == 0:
        return None  # degenerate: every point on the zero set
    return _poly_from_weights([-c] + list(weights_template), exps)


def ham_sandwich_bisect(
    sets,
    degree: int,
    delta,
    seed: int = 0,
    caps=None,
):
    """One polynomial of degree <= `degree` that delta-bisects every set.

    For each input set X the returned h satisfies
    |{x in X : h(x) > 0}| <= cap and |{x in X : h(x) < 0}| <= cap, with
    cap = ceil(|X| (1+delta) / 2) unless explicit per-set `caps` tighten
    it.  Points exactly on Z(h) count toward neither side.

    The search is numeric (threshold sweeps, then a damped Newton
    iteration that anchors every set's feasible score band at a common
    level), but every candidate is certified by exact rational
    arithmetic before acceptance; raises SearchBudgetError when no
    candidate certifies.
    """
    delta = rat(delta)
    exps = monomial_exponents(degree)
    m = len(exps)
    if len(sets) > m:
        raise ValueError(f"{len(sets)} sets exceed the lift freedom {m}")
    sets = [list(s) for s in sets]
    if caps is None:
        caps = [default_cap(len(s), delta) for s in sets]
    caps = list(caps)
    rng = random.Random(seed)

    # Center the points at an integer shift: exactness is untouched
    # (the factor is shifted back at the end) and the lifted monomials
    # stay much better conditioned for the numeric stages.
    allpts = [p for s in sets for p in s]
    if allpts:
        shift = tuple(
            round(sum(float(p[i]) for p in allpts) / len(allpts)) for i in range(4)
        )
    else:
        shift = (0, 0, 0, 0)
    def shifted(x, mu):
        v = rat(x) - mu
        return int(v) if v.denominator == 1 else v

    zsets = [[tuple(shifted(x, mu) for x, mu in zip(p, shift)) for p in s] for s in sets]
    lifted_sets = [[_lift_row(p, exps) for p in s] for s in zsets]

    def finish(poly_z: SparsePoly) -> SparsePoly:
        if all(mu == 0 for mu in shift):
            return poly_z
        axes = [
            SparsePoly(4, {(0, 0, 0, 0): -rat(mu), _unit(i): 1})
            for i, mu in enumerate(shift)
        ]
        return poly_z.substitute(axes)

    # Exact single-direction threshold sweeps: enough for small rounds,
    # pointless for many simultaneous sets.
    few_sets = len(sets) <= 6
    unit_dirs = range(m) if few_sets else range(4)
    for j in unit_dirs:
        template = [0] * m
        template[j] = 1
        cols = [[row[j + 1] for row in rows] for rows in lifted_sets]
        found = _try_sweep(cols, caps, exps, template)
        if found is not None:
            return finish(found)
    for _ in range(12 if few_sets else 4):
        template = [rng.randint(-3, 3) for _ in range(m)]
        if all(t == 0 for t in template):
            continue
        cols = [
            [sum(t * c for t, c in zip(template, row[1:])) for row in rows]
            for rows in lifted_sets
        ]
        found = _try_sweep(cols, caps, exps, template)
        if found is not None:
            return finish(found)

    # Sets small enough to sit entirely on one side impose no constraint.
    active = [i for i, s in enumerate(sets) if len(s) > caps[i]]
    if not active:
        raise SearchBudgetError("sweeps failed on constraint-free input")
    scale = max(
        (abs(float(x)) for i in active for p in zsets[i] for x in p), default=1.0
    )
    scale = max(scale, 1.0)
    mono_scale = [1.0] + [scale ** sum(e) for e in exps]
    phi = [
        np.array([[float(c) / s for c, s in zip(row, mono_scale)] for row in lifted_sets[i]])
        for i in active
    ]
    caps_active = [caps[i] for i in active]
    nprng = np.random.default_rng(rng.randrange(2**32))

    def exact_direction(w) -> list | None:
        scaled = [
            Fraction(round(x * 2**24)) / (2**24 * Fraction(s))
            for x, s in zip(w, [1.0] + mono_scale[1:])
        ]
        if all(v == 0 for v in scaled[1:]):
            return None
        return _clear_denominators(scaled)[1:]

    tried: set[tuple] = set()

    def sweep_attempt(template) -> SparsePoly | None:
        key = tuple(template)
        if key in tried:
            return None
        tried.add(key)
        cols = [
            [sum(t * c for t, c in zip(template, row[1:])) for row in rows]
            for rows in lifted_sets
        ]
        return _try_sweep(cols, caps, exps, template)

    def anchored_attempt(w, anchor_sets) -> SparsePoly | None:
        """Solve the hyperplane-through-anchors system exactly, keeping
        the remaining coordinates at their rationalized numeric values;
        the anchored points land exactly on Z(h)."""
        rows = []
        for i in anchor_sets:
            p = phi[i]
            order = np.argsort(p @ w)
            mid = (max(0, len(order) - 1 - caps_active[i]) + min(caps_active[i], len(order) - 1)) // 2
            rows.append([Fraction(v) for v in lifted_sets[active[i]][int(order[mid])]])
        mat, pivots = rref(rows)
        ncols = m + 1
        free = [c for c in range(ncols) if c not in pivots]
        x = [ZERO] * ncols
        for c in free:
            s = 1.0 if c == 0 else mono_scale[c]
            x[c] = Fraction(round(w[c] * 2**24)) / (2**24 * Fraction(s))
        for i, pcol in enumerate(pivots):
            x[pcol] = -sum(mat[i][c] * x[c] for c in free if x[c])
        if all(v == 0 for v in x[1:]):
            return None
        weights = _clear_denominators(x)
        return sweep_attempt(weights[1:])

    band_mid = [
        (max(0, p.shape[0] - 1 - cap) + min(cap, p.shape[0] - 1)) // 2
        for p, cap in zip(phi, caps_active)
    ]

    # Damped anchored-Newton: pin every set's band-mid order statistic to
    # a common level.  At the fixed point each band straddles the cut, so
    # the window margins hover at zero and the exact attempts (threshold
    # sweep when the window is open, anchor-interpolation when it is
    # degenerate) certify a factor.
    for restart in range(6):
        w = nprng.standard_normal(m + 1)
        w /= np.linalg.norm(w)
        best_worst = -np.inf
        since_best = 0
        anchored_tries = 0
        for it in range(260):
            damp = 0.9 if it < 40 else 0.6
            anchors = []
            margins = []
            for p, mid, cap in zip(phi, band_mid, caps_active):
                s = p @ w
                order = np.argsort(s)
                jitter = rng.randrange(-1, 2) if restart > 0 and it < 15 else 0
                idx = min(max(mid + jitter, 0), len(order) - 1)
                anchors.append(p[order[idx]])
                margins.append(min(-s[order[len(s) - 1 - cap]], s[order[cap]]))
            worst = float(min(margins))
            if worst > best_worst + 1e-15:
                best_worst = worst
                since_best = 0
            else:
                since_best += 1
            if worst > 1e-4:
                template = exact_direction(w)
                if template is not None:
                    found = sweep_attempt(template)
                    if found is not None:
                        return finish(found)
            elif worst > -1e-5 or (since_best and since_best % 30 == 0 and worst > -2e-3):
                if anchored_tries < 5:
                    anchored_tries += 1
                    pinched = [i for i, g in enumerate(margins) if g < 1e-4]
                    if pinched:
                        found = anchored_attempt(w, pinched)
                        if found is not None:
                            return finish(found)
                    w = w + 1e-4 * nprng.standard_normal(m + 1)
            if since_best > 80:
                break  # stalled; try a fresh start
            a = np.vstack(anchors)
            try:
                correction, *_ = np.linalg.lstsq(a, a @ w, rcond=None)
            except np.linalg.LinAlgError:
                break
            w = w - damp * correction
            norm = float(np.linalg.norm(w))
            if norm < 1e-12:
                break
            w = w / norm
    raise SearchBudgetError(
        f"no certified bisector of degree {degree} for {len(sets)} sets"
    )


def _unit(i: int) -> tuple[int, int, int, int]:
    e = [0, 0, 0, 0]
    e[i] = 1
    return tuple(e)


def _clear_denominators(values):
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v * den) for v in values]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


# ---------------------------------------------------------------------------
# Partition construction
# ---------------------------------------------------------------------------

def round_cell_bound(total: int, round_index: int, delta: Fraction) -> int:
    """Points allowed per open cell after `round_index` rounds."""
    return math.ceil(Fraction(total) * (1 + delta) ** round_index / 2**round_index)


def build_partition(points, params: PartitionParams, seed: int = 0) -> PartitionPolynomial:
    """Iterated ham-sandwich partition of a finite point multiset.

    After round j every sign-orthant cell of the first j factors holds at
    most ceil(|points| * 2^-j * (1+delta)^j) points off the zero set;
    this is re-verified by exact cell assignment of every input point
    before each factor is committed.
    """
    pts = [tuple(rat(x) for x in p) for p in points]
    total = len(pts)
    factors: list[SparsePoly] = []
    signs: list[SignVector] = [() for _ in pts]

    for j in range(1, params.rounds + 1):
        degree = params.lift_degree_schedule[j - 1]
        bound = round_cell_bound(total, j, params.delta)

        cells: dict[SignVector, list] = {}
        for p, sv in zip(pts, signs):
            if 0 in sv:
                continue
            cells.setdefault(sv, []).append(p)
        keys = sorted(cells)
        sets = [cells[k] for k in keys]
        caps = [min(default_cap(len(s), params.delta), bound) for s in sets]

        factor = None
        for attempt in range(8):
            try:
                candidate = ham_sandwich_bisect(
                    sets,
                    degree,
                    params.delta,
                    seed=(seed * 1_000_003 + j * 101 + attempt),
                    caps=caps,
                )
            except SearchBudgetError:
                continue
            new_signs = [
                sv + (sign(candidate.eval(p)),) if 0 not in sv else sv + (0,)
                for p, sv in zip(pts, signs)
            ]
            tally: dict[SignVector, int] = {}
            for sv in new_signs:
                if 0 not in sv:
                    tally[sv] = tally.get(sv, 0) + 1
            if all(v <= bound for v in tally.values()):
                factor = candidate
                signs = new_signs
                break
        if factor is None:
            raise SearchBudgetError(f"round {j}: no factor met the cell bound {bound}")
        factors.append(factor)

    return PartitionPolynomial(tuple(factors), params.delta)


def assign_cells(points, part: PartitionPolynomial) -> dict[SignVector, int]:
    """Exact point count per open cell (zero-set points excluded)."""
    tally: dict[SignVector, int] = {}
    for p in points:
        sv = cell_id(p, part)
        if 0 not in sv:
            tally[sv] = tally.get(sv, 0) + 1
    return tally


# ---------------------------------------------------------------------------
# Crossing statistics
# ---------------------------------------------------------------------------

def line_cell_profile(ln, part: PartitionPolynomial):
    """Roots and per-interval sign vectors of the partition along a line.

    Returns (roots, samples, vectors): the distinct parameter roots of
    the restricted factors (isolated per factor, merged exactly), one
    sample parameter per complementary open interval, and the factor
    sign vector there.
    """
    restrictions = []
    for idx, f in enumerate(part.factors):
        r = restrict_to_line(f, ln)
        if r.is_zero:
            raise LineInZeroSetError(f"factor {idx} vanishes on the line")
        restrictions.append(r)
    roots = merge_real_roots(
        [isolate_real_roots(r) for r in restrictions if r.degree >= 1]
    )
    samples = sample_points_between_roots(roots)
    vectors = []
    for t in samples:
        sv = tuple(sign(r.eval(t)) for r in restrictions)
        assert 0 not in sv, "sample landed on a root"
        vectors.append(sv)
    return roots, samples, vectors


def line_crossing_stats(ln, part: PartitionPolynomial) -> CrossingStats:
    """Distinct open cells a line enters and its zero-set hits, exactly.

    The cell count obeys distinct_cells <= degree + 1 (one crossing per
    parameter root, at most degree of those) and is certified by Sturm
    isolation, not sampling.
    """
    roots, _, vectors = line_cell_profile(ln, part)
    stats = CrossingStats(len(set(vectors)), len(roots))
    if stats.distinct_cells > part.degree + 1:
        raise AssertionError("line entered more than degree+1 cells")
    if stats.distinct_cells > stats.zero_set_hits + 1:
        raise AssertionError("more cells than crossing events allow")
    return stats


_LATTICE = (233, 610, 987)  # Fibonacci rank-1 lattice: even 2-D coverage at small budgets


def flat2_crossing_stats(
    fl,
    part: PartitionPolynomial,
    sample_budget: int = 128,
) -> int:
    """Certified lower bound on the open cells a 2-flat enters.

    Evaluates the factor sign vectors at `sample_budget` deterministic
    rational lattice points of the flat's coordinate chart, in the
    square [-16, 16]^2; distinct
    all-nonzero sign vectors witness distinct cells.  The count is
    checked against the degree^2 + degree + 1 region bound.
    """
    restrictions = []
    for idx, f in enumerate(part.factors):
        r = restrict_to_flat2(f, fl)
        if r.is_zero:
            raise FlatInZeroSetError(f"factor {idx} vanishes on the 2-flat")
        restrictions.append(r)
    seen: set[SignVector] = set()
    g1, g2, q = _LATTICE
    for i in range(1, sample_budget + 1):
        a = Fraction(-16) + Fraction(32 * (i * g1 % q), q)
        b = Fraction(-16) + Fraction(32 * (i * g2 % q), q)
        sv = tuple(sign(r.eval((a, b))) for r in restrictions)
        if 0 not in sv:
            seen.add(sv)
    d = part.degree
    if len(seen) > d * d + d + 1:
        raise AssertionError("2-flat entered more cells than its region bound")
    return len(seen)
