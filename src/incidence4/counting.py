"""Exact incidence counting, bipartite graph checks, and rich-flat detection.

This module is the ground truth for every experiment.  Every pair
predicate is decided exactly: all L*S line/plane pairs are classified,
and the degree-1 degeneracy detectors examine every line pair for
coplanarity and every plane pair for a common hyperplane, so planted
structures are recovered with neither false positives nor false
negatives.  Incidences are attributed to partition cells or the zero
set.

A residue filter runs in front of the exact predicates
(`incidence4.flats.candidate_*_pairs`).  Each predicate's decisive
integers are evaluated mod p = 2^31 - 1 in numpy over blocks of pairs;
a nonzero residue proves the integer nonzero, so that pair is certified
DISJOINT, skew, or without a common hyperplane.  Only the remaining
pairs reach the exact Python-int routines on the primitive integer
forms, in the same row-major order as a full double loop, so records,
buckets and errors do not depend on the filter.  Pairs are bucketed by
integer keys, and `Flat2` / `Hyperplane3` objects are built only for
reported results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from .configs import ConfigurationSet
from .flats import (
    Flat2,
    Hyperplane3,
    IdenticalLinesError,
    IncidenceKind,
    Located,
    candidate_cohyperplanar_pairs,
    candidate_coplanar_pairs,
    candidate_incident_pairs,
    classify_line_flat2,
    cohyperplanar_key,
    coplanar_key,
    span_flat2_of_lines,
)
from .exactpoly import sign_vectors
from .partition import PartitionPolynomial, SignVector, assign_cells


class TooLargeError(ValueError):
    """Brute-force Zarankiewicz search is capped at 25 cells."""


@dataclass(frozen=True, slots=True)
class IncidenceRecord(Located):
    """Line i meets plane j at the point P/m, `integer_location` = (P, m);
    `location` is its Fraction view, built on first read."""

    line_index: int
    plane_index: int
    integer_location: tuple


@dataclass(frozen=True)
class IncidenceReport:
    """Exact incidence census of a configuration.

    `per_cell` and `zero_set_count` are filled only when a partition was
    supplied; they always reconcile: sum(per_cell) + zero_set_count =
    point_incidences.
    """

    point_incidences: int
    containments: int
    records: tuple[IncidenceRecord, ...]
    per_cell: dict[SignVector, int] | None = None
    zero_set_count: int = 0

    def __post_init__(self):
        if len(self.records) != self.point_incidences:
            raise ValueError("record list must match the incidence count")
        if self.per_cell is not None:
            if sum(self.per_cell.values()) + self.zero_set_count != self.point_incidences:
                raise ValueError("cell attribution does not reconcile with the total")


def count_incidences(cfg: ConfigurationSet) -> IncidenceReport:
    """Classify all line/plane pairs exactly.

    Pairs meeting in a single point are incidences; a line lying inside
    a plane is a containment, tracked separately and never counted as an
    incidence.  Pairs the residue filter certifies DISJOINT are skipped.
    """
    records = []
    containments = 0
    lines, planes = cfg.lines, cfg.planes
    for i, j in candidate_incident_pairs(lines, planes):
        out = classify_line_flat2(lines[i], planes[j])
        if out.kind is IncidenceKind.POINT:
            records.append(IncidenceRecord(i, j, out.integer_location))
        elif out.kind is IncidenceKind.CONTAINED:
            containments += 1
    return IncidenceReport(len(records), containments, tuple(records))


def classify_by_partition(report: IncidenceReport, part: PartitionPolynomial) -> IncidenceReport:
    """The census `report` with each incidence point assigned to its open
    sign-vector cell, or to the zero set when any factor vanishes there."""
    per_cell = assign_cells([rec.location for rec in report.records], part)
    zero = report.point_incidences - sum(per_cell.values())
    return IncidenceReport(
        report.point_incidences, report.containments, report.records, per_cell, zero
    )


# ---------------------------------------------------------------------------
# Bipartite incidence graphs and Zarankiewicz
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteIncidenceGraph:
    left_size: int
    right_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < self.left_size and 0 <= j < self.right_size):
                raise ValueError(f"edge ({i},{j}) out of range")

    def neighbors_of_right(self, j: int) -> set[int]:
        return {i for i, jj in self.edges if jj == j}


def incidence_graph(cfg: ConfigurationSet) -> BipartiteIncidenceGraph:
    """Edge (i, j) iff line i and plane j meet in exactly one point."""
    report = count_incidences(cfg)
    return BipartiteIncidenceGraph(
        cfg.num_lines,
        cfg.num_planes,
        frozenset((r.line_index, r.plane_index) for r in report.records),
    )


def kst_free_check(g: BipartiteIncidenceGraph, s: int, t: int):
    """Exhaustive K_{s,t}-freeness check.

    Returns (True, None) when no complete s-by-t subgraph exists, else
    (False, (left_vertices, right_vertices)) with a verified witness:
    s left vertices all adjacent to the same t right vertices.
    """
    if not (1 <= s <= g.left_size and 1 <= t <= g.right_size):
        raise ValueError("witness sides must fit inside the graph")
    right_nbrs = {j: g.neighbors_of_right(j) for j in range(g.right_size)}
    for combo in itertools.combinations(range(g.right_size), t):
        common = set.intersection(*(right_nbrs[j] for j in combo))
        if len(common) >= s:
            left = sorted(common)[:s]
            for i, j in itertools.product(left, combo):
                if (i, j) not in g.edges:
                    raise AssertionError("K_{s,t} witness uses a missing edge")
            return False, (tuple(left), tuple(combo))
    return True, None


def _mask_free(rows: list[int], n: int, s: int, t: int) -> bool:
    for combo in itertools.combinations(range(n), t):
        mask = 0
        for j in combo:
            mask |= 1 << j
        hits = sum(1 for r in rows if r & mask == mask)
        if hits >= s:
            return False
    return True


def zarankiewicz_bruteforce(m: int, n: int, s: int, t: int) -> int:
    """Exact maximum edges of a K_{s,t}-free m-by-n bipartite graph.

    Exhaustive over row supports (nonincreasing masks, since relabeling
    left vertices preserves freeness), with a simple edge-count prune.
    Capped at m*n <= 25 cells.
    """
    if m * n > 25:
        raise TooLargeError("brute force is capped at m*n <= 25")
    if m <= 0 or n <= 0:
        return 0
    if s <= 0 or t <= 0:
        raise ValueError("forbidden subgraph sides must be positive")
    # Orient so the subset enumeration runs over the smaller side.
    if n > m:
        m, n, s, t = n, m, t, s
    if s == 1:
        # Forbidding K_{1,t} caps every left degree at t-1.
        return m * min(t - 1, n)
    if t == 1:
        # Forbidding K_{s,1} caps every right degree at s-1.
        return n * min(s - 1, m)

    masks = sorted(range(1 << n), key=lambda r: (-bin(r).count("1"), r))
    best = 0

    def extend(rows: list[int], start: int, edges: int, remaining: int):
        nonlocal best
        if edges > best:
            if _mask_free(rows, n, s, t):
                best = edges
            else:
                return
        elif not _mask_free(rows, n, s, t):
            return
        if remaining == 0:
            return
        for idx in range(start, len(masks)):
            r = masks[idx]
            bits = bin(r).count("1")
            if edges + bits * remaining <= best:
                break  # masks are sorted by popcount: no improvement left
            rows.append(r)
            extend(rows, idx, edges + bits, remaining - 1)
            rows.pop()

    extend([], 0, 0, m)
    return best


# ---------------------------------------------------------------------------
# Rich-flat detection (degree-1 degeneracy witnesses)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RichFlatRecord:
    """A 2-flat (or hyperplane) containing at least `threshold` objects."""

    flat: Flat2 | Hyperplane3
    members: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.members)


def detect_rich_flat2(lines, threshold: int) -> list[RichFlatRecord]:
    """All 2-flats containing at least `threshold` of the lines.

    Enumerates every coplanar line pair (the residue filter drops pairs
    it certifies skew); two distinct lines lie in at most one common
    2-flat, so bucketing pairs by the integer key of their span recovers
    each rich flat with its complete member list.
    Any two members span the flat, so the first two build its `Flat2`.
    """
    if threshold < 2:
        raise ValueError("a rich flat needs threshold >= 2")
    buckets: dict[tuple[int, ...], set[int]] = {}
    lines = list(lines)
    for i, j in candidate_coplanar_pairs(lines):
        try:
            key = coplanar_key(lines[i], lines[j])
        except IdenticalLinesError:
            raise ValueError(f"duplicate lines at indices {i} and {j}")
        if key is None:
            continue
        buckets.setdefault(key, set()).update((i, j))
    out = []
    for members in buckets.values():
        if len(members) >= threshold:
            members = tuple(sorted(members))
            flat = span_flat2_of_lines(lines[members[0]], lines[members[1]])
            out.append(RichFlatRecord(flat, members))
    out.sort(key=lambda r: (-r.multiplicity, r.members))
    return out


def detect_rich_hyperplane(planes, threshold: int) -> list[RichFlatRecord]:
    """All hyperplanes containing at least `threshold` of the 2-planes.

    A pair of distinct 2-planes spans a unique hyperplane exactly when
    the affine hull of their union is 3-dimensional (they meet in a line
    or are parallel); pairs spanning all of R^4 witness nothing, and the
    residue filter drops most of them before the exact test.
    """
    if threshold < 2:
        raise ValueError("a rich hyperplane needs threshold >= 2")
    planes = list(planes)
    buckets: dict[tuple[int, ...], set[int]] = {}
    for i, j in candidate_cohyperplanar_pairs(planes):
        key = cohyperplanar_key(planes[i], planes[j])
        if key is None:
            continue
        buckets.setdefault(key, set()).update((i, j))
    out = [
        RichFlatRecord(Hyperplane3(key[:4], key[4]), tuple(sorted(members)))
        for key, members in buckets.items()
        if len(members) >= threshold
    ]
    out.sort(key=lambda r: (-r.multiplicity, r.members))
    return out


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def report_to_text(report: IncidenceReport) -> str:
    lines = [
        f"point_incidences: {report.point_incidences}",
        f"containments: {report.containments}",
    ]
    if report.per_cell is not None:
        lines.append(f"zero_set_count: {report.zero_set_count}")
        lines.append("per_cell:")
        for sv in sorted(report.per_cell):
            lines.append(f"  {''.join('+' if s > 0 else '-' for s in sv) or '()'}: {report.per_cell[sv]}")
    return "\n".join(lines) + "\n"


def report_to_csv(report: IncidenceReport, part: PartitionPolynomial | None = None) -> str:
    """CSV rows (line_idx, plane_idx, x1..x4, cell signature or ZERO_SET)."""
    rows = ["line_idx,plane_idx,x1,x2,x3,x4,cell"]
    cells = [""] * len(report.records)
    if part is not None:
        cells = [
            "ZERO_SET" if 0 in sv else "".join("+" if s > 0 else "-" for s in sv)
            for sv in sign_vectors(part.factors, [rec.location for rec in report.records])
        ]
    for rec, cell in zip(report.records, cells):
        coords = ",".join(str(x) for x in rec.location)
        rows.append(f"{rec.line_index},{rec.plane_index},{coords},{cell}")
    return "\n".join(rows) + "\n"
