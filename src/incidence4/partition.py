"""Partitioning polynomials for finite point sets in R^4.

A partition is built one factor per round: round j must simultaneously
delta-bisect every nonempty sign-orthant cell of the previous factors.
Candidate bisectors are found by searching over hyperplanes in a
Veronese-lifted monomial space (numeric search is allowed there), but a
candidate is only ever accepted after its bisection contract has been
verified exactly, so the returned partition carries no numeric trust.
This module does no sign arithmetic of its own: every sign of a factor
at a point comes from the sign kernel of `exactpoly`.  A build lifts
each point once, at the schedule's top degree, and certifies each
candidate on those rows; cell assignment lifts its point set once per
call, and the lattice points sampled on a 2-flat are lifted once per
(sample budget, degree) and shared by every flat.  Every template of the
search, from a unit, Newton or anchored direction, goes through one
integer threshold sweep, and a certified factor is moved back to the
input coordinates by the integer substitution kernel
(`exactpoly.compose_affine`); no Fraction polynomial product runs.  The
same kernel restricts all factors to a line or 2-flat in one call per
object, folding each factor down the lift tree.
Every lifted row set is a 2-D numpy matrix (`_point_matrix`,
`_lift_matrix`, `_dots`).  Int point sets whose shifted lift provably
fits a machine word are shifted, lifted and scored in int64; every other
set, and every row of the sign kernel, is an object matrix of exact ints
and Fractions.  The numeric search reads one float copy of each active
set's rows, and every score reaches the sweep as a Python int or
Fraction.

Cells are sign vectors of the factors rather than true connected
components; sign cells refine components, so per-cell point counts are
valid upper-bound certificates and line crossing counts are exact.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactpoly import (
    SparsePoly,
    ZERO,
    _dots,
    _exact,
    _homogeneous_rows,
    _lift_matrix,
    _point_matrix,
    _row_signs,
    clear_denominators,
    compose_affine,
    compose_affine_all,
    isolate_real_roots,
    merge_real_roots,
    monomial_exponents,
    rat,
    restrict_all_to_line,
    sample_points_between_roots,
    sign_vector,
    sign_vectors,
)
from .flats import rref

SignVector = tuple[int, ...]


class SearchBudgetError(RuntimeError):
    """No certified bisector was found within the attempt budget."""


class LineInZeroSetError(ValueError):
    """A partition factor vanishes identically on the line."""


class FlatInZeroSetError(ValueError):
    """A partition factor vanishes identically on the 2-flat."""


def lift_dimension(degree: int) -> int:
    """C(4+degree, 4) - 1 monomials of degree 1..degree in 4 variables."""
    return math.comb(4 + degree, 4) - 1


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
    """Exact sign of each factor at the point (int or Fraction
    coordinates); any zero entry means the point lies on the zero set
    rather than in an open cell."""
    return sign_vector(part.factors, point)


# ---------------------------------------------------------------------------
# Ham-sandwich bisection with exact certificates
# ---------------------------------------------------------------------------

def default_cap(size: int, delta: Fraction) -> int:
    return math.ceil(Fraction(size) * (1 + delta) / 2)


def _try_sweep(columns_per_set, caps, exps, template):
    """Threshold sweep along one lifted direction: feasible iff the
    per-set acceptable threshold intervals intersect.  The cut is kept
    doubled (c2 = 2c), so int scores are compared in ints.  Split counts
    are re-checked from the score columns before the candidate
    template . x - c2/2 is built."""
    lo_all = hi_all = None
    for scores, cap in zip(columns_per_set, caps):
        n = len(scores)
        if n <= cap:
            continue  # the whole set fits on either side
        s = sorted(scores)
        lo, hi = s[n - 1 - cap], s[cap]
        if lo_all is None or lo > lo_all:
            lo_all = lo
        if hi_all is None or hi < hi_all:
            hi_all = hi
        if lo_all > hi_all:
            return None
    if lo_all is None:
        # Every set fits on one side; place the cut below all scores so
        # no point lands on the zero set.
        seen = [s for scores in columns_per_set for s in scores]
        c2 = 2 * (min(seen) - 1) if seen else 0
    else:
        c2 = lo_all + hi_all
    total_nonzero = 0
    for scores, cap in zip(columns_per_set, caps):
        pos = sum(1 for s in scores if 2 * s > c2)
        neg = sum(1 for s in scores if 2 * s < c2)
        if pos > cap or neg > cap:
            return None
        total_nonzero += pos + neg
    if total_nonzero == 0 and any(columns_per_set):
        return None  # degenerate: every point on the zero set
    terms = {(0, 0, 0, 0): Fraction(-c2, 2)}
    terms.update(zip(exps, template))
    return SparsePoly(4, terms)


_AXES = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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
    it.  Points exactly on Z(h) count toward neither side.  Coordinates
    are ints or Fractions.

    The search runs on points centred at an integer shift; a set is
    shifted and lifted in int64 when (max|x| + max|shift|)^degree < 2^63
    and in exact Python ints and Fractions otherwise.  Each template --
    unit directions first, then the rationalised directions of a damped
    Newton iteration that anchors every set's feasible score band at a
    common level, and the exact anchor-interpolation directions -- goes
    through one `sweep_attempt`: a template is swept once, its threshold
    is certified by exact arithmetic on the score columns (`_dots`), and
    the certified factor is shifted back exactly.  Raises
    SearchBudgetError when no candidate certifies.
    """
    delta = rat(delta)
    exps = monomial_exponents(degree, 4)
    m = len(exps)
    if len(sets) > m:
        raise ValueError(f"{len(sets)} sets exceed the lift freedom {m}")
    sets = [list(s) for s in sets]
    if caps is None:
        caps = [default_cap(len(s), delta) for s in sets]
    caps = list(caps)
    rng = random.Random(seed)

    # Center the points at an integer shift: exactness is untouched
    # (each certified factor is shifted back) and the lifted monomials
    # stay much better conditioned for the numeric stages.
    allpts = [p for s in sets for p in s]
    if allpts:
        shift = tuple(
            round(sum(float(p[i]) for p in allpts) / len(allpts)) for i in range(4)
        )
    else:
        shift = (0, 0, 0, 0)
    offset = max(map(abs, shift))
    lifted_sets = []
    for s in sets:
        x = _point_matrix(s, degree, offset)
        lifted_sets.append(_lift_matrix(x - np.array(shift, dtype=x.dtype), exps))
    back = tuple(-mu for mu in shift)
    tried: set[tuple] = set()

    def sweep_attempt(template) -> SparsePoly | None:
        """Threshold sweep along the lifted direction `template` (new and
        nonzero templates only); a certified factor is shifted back to
        the input coordinates, p(x - shift)."""
        key = tuple(template)
        if key in tried or not any(key):
            return None
        tried.add(key)
        vec = (0,) + key
        found = _try_sweep([_dots(rows, vec) for rows in lifted_sets], caps, exps, key)
        return None if found is None else compose_affine(found, back, _AXES)

    # Exact threshold sweeps along unit directions: enough for small
    # rounds, pointless for many simultaneous sets.
    few_sets = len(sets) <= 6
    for j in range(m if few_sets else 4):
        found = sweep_attempt([int(k == j) for k in range(m)])
        if found is not None:
            return found

    # Sets small enough to sit entirely on one side impose no constraint.
    active = [i for i, s in enumerate(sets) if len(s) > caps[i]]
    if not active:
        raise SearchBudgetError("sweeps failed on constraint-free input")
    # Columns 1-4 of a lift are the shifted coordinates; rounding to
    # float is monotone, so this is max|x| over them, rounded.
    raw = [lifted_sets[i].astype(np.float64) for i in active]
    scale = max(1.0, *(float(np.abs(r[:, 1:5]).max()) for r in raw))
    mono_scale = [1.0] + [scale ** sum(e) for e in exps]
    phi = [r / mono_scale for r in raw]
    caps_active = [caps[i] for i in active]
    nprng = np.random.default_rng(rng.randrange(2**32))

    band_mid = [
        (max(0, p.shape[0] - 1 - cap) + min(cap, p.shape[0] - 1)) // 2
        for p, cap in zip(phi, caps_active)
    ]

    def rationalise(w, c: int) -> Fraction:
        """Lifted coordinate c of the numeric direction w, rounded to 24
        bits and unscaled, as an exact rational."""
        return Fraction(round(w[c] * 2**24)) / (2**24 * Fraction(mono_scale[c]))

    def exact_direction(w) -> list:
        return clear_denominators([rationalise(w, c) for c in range(m + 1)])[1:]

    def anchored_attempt(w, anchor_sets) -> SparsePoly | None:
        """Solve the hyperplane-through-anchors system exactly, keeping
        the remaining coordinates at their rationalized numeric values;
        the anchored points land exactly on Z(h)."""
        rows = []
        for i in anchor_sets:
            order = np.argsort(phi[i] @ w)
            rows.append([rat(v) for v in lifted_sets[active[i]][int(order[band_mid[i]])]])
        mat, pivots = rref(rows)
        ncols = m + 1
        free = [c for c in range(ncols) if c not in pivots]
        x = [ZERO] * ncols
        for c in free:
            x[c] = rationalise(w, c)
        for i, pcol in enumerate(pivots):
            x[pcol] = -sum(mat[i][c] * x[c] for c in free if x[c])
        return sweep_attempt(clear_denominators(x)[1:])

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
                found = sweep_attempt(exact_direction(w))
                if found is not None:
                    return found
            elif worst > -1e-5 or (since_best and since_best % 30 == 0 and worst > -2e-3):
                if anchored_tries < 5:
                    anchored_tries += 1
                    pinched = [i for i, g in enumerate(margins) if g < 1e-4]
                    if pinched:
                        found = anchored_attempt(w, pinched)
                        if found is not None:
                            return found
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


# ---------------------------------------------------------------------------
# Partition construction
# ---------------------------------------------------------------------------

def round_cell_bound(total: int, round_index: int, delta: Fraction) -> int:
    """Points allowed per open cell after `round_index` rounds."""
    return math.ceil(Fraction(total) * (1 + delta) ** round_index / 2**round_index)


def _open_cells(signs) -> dict[SignVector, int]:
    """Point count per open cell: the sign vectors without a zero."""
    return Counter(sv for sv in signs if 0 not in sv)


def build_partition(points, params: PartitionParams, seed: int = 0) -> PartitionPolynomial:
    """Iterated ham-sandwich partition of a finite point multiset.

    After round j every sign-orthant cell of the first j factors holds at
    most ceil(|points| * 2^-j * (1+delta)^j) points off the zero set;
    this is re-verified by exact cell assignment of every input point
    before each factor is committed.  Each point is lifted once by the
    sign kernel, at the schedule's top degree, and every candidate is
    signed on those rows, so no Fraction enters the check.
    """
    pts = [tuple(map(_exact, p)) for p in points]
    total = len(pts)
    factors: list[SparsePoly] = []
    signs: list[SignVector] = [() for _ in pts]
    top = max(params.lift_degree_schedule, default=0)
    if top:
        rows = _homogeneous_rows(pts, top)

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
            new_signs = [sv + (s,) for sv, s in zip(signs, _row_signs(candidate, rows))]
            if all(v <= bound for v in _open_cells(new_signs).values()):
                factor = candidate
                signs = new_signs
                break
        if factor is None:
            raise SearchBudgetError(f"round {j}: no factor met the cell bound {bound}")
        factors.append(factor)

    return PartitionPolynomial(tuple(factors), params.delta)


def assign_cells(points, part: PartitionPolynomial) -> dict[SignVector, int]:
    """Exact point count per open cell (zero-set points excluded)."""
    return _open_cells(sign_vectors(part.factors, points))


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
    restrictions = restrict_all_to_line(part.factors, ln)
    for idx, r in enumerate(restrictions):
        if r.is_zero:
            raise LineInZeroSetError(f"factor {idx} vanishes on the line")
    roots = merge_real_roots(
        [isolate_real_roots(r) for r in restrictions if r.degree >= 1]
    )
    samples = sample_points_between_roots(roots)
    vectors = []
    for t in samples:
        sv = tuple(r.sign_at(t) for r in restrictions)
        if 0 in sv:
            raise AssertionError("sample landed on a root")
        vectors.append(sv)
    return roots, samples, vectors


def line_crossing_stats(ln, part: PartitionPolynomial) -> CrossingStats:
    """Distinct open cells a line enters and its zero-set hits, exactly.

    The cell count obeys distinct_cells <= degree + 1 (one crossing per
    parameter root, at most degree of those) and is certified by exact
    root isolation, not sampling: each restricted factor's roots are
    isolated by Descartes bisection on its integer coefficients, and the
    factors' roots are merged exactly (a mod-p certificate or an integer
    gcd decides whether two factors share a root).
    """
    roots, _, vectors = line_cell_profile(ln, part)
    stats = CrossingStats(len(set(vectors)), len(roots))
    if stats.distinct_cells > part.degree + 1:
        raise AssertionError("line entered more than degree+1 cells")
    if stats.distinct_cells > stats.zero_set_hits + 1:
        raise AssertionError("more cells than crossing events allow")
    return stats


_LATTICE = (233, 610, 987)  # Fibonacci rank-1 lattice: even 2-D coverage at small budgets


@lru_cache(maxsize=None)
def _lattice_rows(sample_budget: int, degree: int) -> np.ndarray:
    """Homogeneous rows of degree `degree` (`_homogeneous_rows`) of the
    first `sample_budget` rational lattice points in [-16, 16]^2, built
    once per (sample_budget, degree) and shared, read-only, by every
    2-flat."""
    g1, g2, q = _LATTICE
    samples = [
        (Fraction(32 * (i * g1 % q), q) - 16, Fraction(32 * (i * g2 % q), q) - 16)
        for i in range(1, sample_budget + 1)
    ]
    rows = _homogeneous_rows(samples, degree)
    rows.flags.writeable = False
    return rows


def flat2_crossing_stats(
    fl,
    part: PartitionPolynomial,
    sample_budget: int = 128,
) -> int:
    """Certified lower bound on the open cells a 2-flat enters.

    Takes the exact sign vectors of the restricted factors (`_row_signs`
    on the lattice rows) at `sample_budget` deterministic rational
    lattice points of the flat's coordinate chart, in the square
    [-16, 16]^2; distinct all-nonzero sign vectors witness distinct
    cells.  The count is checked against the degree^2 + degree + 1
    region bound.
    """
    restrictions = compose_affine_all(part.factors, fl.base, (fl.u, fl.v))
    for idx, r in enumerate(restrictions):
        if r.is_zero:
            raise FlatInZeroSetError(f"factor {idx} vanishes on the 2-flat")
    rows = _lattice_rows(sample_budget, max([1, *(r.degree for r in restrictions)]))
    vectors = zip(*(_row_signs(r, rows) for r in restrictions)) if restrictions else [()] * len(rows)
    seen = {sv for sv in vectors if 0 not in sv}
    d = part.degree
    if len(seen) > d * d + d + 1:
        raise AssertionError("2-flat entered more cells than its region bound")
    return len(seen)
