"""The three benchmark workloads: item inputs, one item, exact answer checks.

Each workload turns a run seed into a deterministic, random-access stream
of items.  `item(i)` builds the inputs of item i (cheap, outside the item
timer), `run(item)` calls the program, and `check(item, result)` raises
`WrongAnswerError` unless the answer is exactly right.  Index -1 is the
untimed warm-up item.

The program is always called through module attributes (for example
`partition.build_partition`), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from incidence4 import cli, configs, exactpoly, flats, partition

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_PATH = DATA_DIR / "golden.json"
CROSSING_PARTITION_PATH = DATA_DIR / "crossing_partition.json"

# Items that raise one of these count as failed, not as wrong.
EXPECTED_FAILURES = (
    partition.SearchBudgetError,
    partition.LineInZeroSetError,
    partition.FlatInZeroSetError,
)


class WrongAnswerError(Exception):
    """The program returned an answer that differs from the exact one."""


def item_seed(workload: str, seed: int, index: int) -> int:
    """Per-item seed, a pure function of (workload, run seed, index)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswerError(message)


# ---------------------------------------------------------------------------
# census: cli.run_experiment without a partition
# ---------------------------------------------------------------------------

GENERIC = configs.GeneratorSpec(configs.GeneratorKind.GENERIC, 50, 30)
# The star and planted items are sized to take about 1.5x a generic item
# and plant more objects than the richness threshold (12 lines for L=60,
# 11 planes for S=50), so they form the tail above the generic items.
STAR = configs.GeneratorSpec(configs.GeneratorKind.STAR, 45, 45)
PLANTED_FLAT = configs.GeneratorSpec(
    configs.GeneratorKind.PLANTED_RICH_FLAT, 60, 40, planted_line_count=14
)
PLANTED_HYPERPLANE = configs.GeneratorSpec(
    configs.GeneratorKind.PLANTED_RICH_HYPERPLANE, 50, 50, planted_plane_count=13
)
# Five generic items and one each of star and the two planted kinds.
CENSUS_CYCLE = (GENERIC, GENERIC, STAR, GENERIC, GENERIC, PLANTED_FLAT, GENERIC, PLANTED_HYPERPLANE)


class Census:
    """Full `verify` path without --J: generate, count, detect, bound, render."""

    name = "census"
    nominal_item_s = 0.9
    tail_percentile = 70

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        # Report digests were recorded for seed 0 only; other seeds are
        # checked against the generators' ground truth.
        self.report_sha256 = golden["census_seed0_report_sha256"] if seed == 0 else []

    def item(self, index: int):
        spec = CENSUS_CYCLE[index % len(CENSUS_CYCLE)]
        return index, cli.ExperimentSpec(spec, seed=item_seed(self.name, self.seed, index))

    def run(self, item):
        _, spec = item
        return cli.run_experiment(spec)

    def check(self, item, report) -> None:
        index, spec = item
        text = report.text
        if 0 <= index < len(self.report_sha256):
            got = hashlib.sha256(text.encode()).hexdigest()
            _expect(got == self.report_sha256[index], f"census item {index}: report digest {got}")
        kind = spec.generator.kind
        if kind is configs.GeneratorKind.STAR:
            pairs = spec.generator.num_lines * spec.generator.num_planes
            _expect(f"\npoint_incidences: {pairs}\n" in text, f"census item {index}: star count != L*S")
            _expect("\ncontainments: 0\n" in text, f"census item {index}: star containments != 0")
        elif kind is not configs.GeneratorKind.GENERIC:
            for what in ("flat", "hyperplane"):
                _expect(
                    f"\nplanted_{what}_recovered: True\n" in text,
                    f"census item {index}: planted {what} not recovered",
                )


# ---------------------------------------------------------------------------
# partition: build_partition plus the exact assign_cells re-check
# ---------------------------------------------------------------------------

class Partition:
    """Ham-sandwich partition of a seeded integer cloud, then exact assignment."""

    name = "partition"
    nominal_item_s = 0.3
    tail_percentile = 85
    points = 256
    bound = 50
    params = partition.PartitionParams(5, Fraction(1, 10))

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.cell_bound = partition.round_cell_bound(self.points, self.params.rounds, self.params.delta)

    def item(self, index: int):
        s = item_seed(self.name, self.seed, index)
        rng = random.Random(s)
        cloud = [tuple(rng.randint(-self.bound, self.bound) for _ in range(4)) for _ in range(self.points)]
        return index, cloud, s

    def run(self, item):
        _, cloud, s = item
        part = partition.build_partition(cloud, self.params, seed=s)
        return part, partition.assign_cells(cloud, part)

    def check(self, item, result) -> None:
        index, cloud, _ = item
        part, tally = result
        _expect(part.rounds == self.params.rounds, f"partition item {index}: {part.rounds} rounds")
        _expect(
            max(tally.values(), default=0) <= self.cell_bound,
            f"partition item {index}: a cell holds more than {self.cell_bound} points",
        )
        _expect(sum(tally.values()) <= len(cloud), f"partition item {index}: tally exceeds the cloud")


# ---------------------------------------------------------------------------
# crossing: lines and 2-flats against a stored degree-23 partition
# ---------------------------------------------------------------------------

def factor_to_json(f: exactpoly.SparsePoly) -> dict:
    """Exact factor dump: sorted exponent tuples with "num/den" coefficients."""
    terms = [[list(e), str(c)] for e, c in sorted(f.terms.items())]
    return {"degree": f.degree, "terms": terms}


def partition_digest(factor_dumps: list) -> str:
    return hashlib.sha256(json.dumps(factor_dumps, sort_keys=True).encode()).hexdigest()


def load_stored_partition(path: Path, expected_digest: str) -> partition.PartitionPolynomial:
    """Rebuild the stored partition through the public constructors and
    verify its digest and every factor's degree."""
    data = json.loads(path.read_text(encoding="utf-8"))
    factors = []
    for k, dump in enumerate(data["factors"]):
        f = exactpoly.SparsePoly(4, {tuple(e): Fraction(c) for e, c in dump["terms"]})
        _expect(f.degree == dump["degree"], f"stored factor {k}: degree {f.degree} != {dump['degree']}")
        factors.append(f)
    part = partition.PartitionPolynomial(tuple(factors), Fraction(data["delta"]))
    digest = partition_digest([factor_to_json(f) for f in part.factors])
    _expect(digest == expected_digest, f"stored partition digest {digest} != {expected_digest}")
    _expect(part.degree == data["degree"], f"stored partition degree {part.degree} != {data['degree']}")
    return part


class Crossing:
    """Two lines then one 2-flat, cycling, each built inside the item."""

    name = "crossing"
    nominal_item_s = 0.16
    tail_percentile = 90

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        crossing = golden["crossing"]
        self.part = load_stored_partition(CROSSING_PARTITION_PATH, crossing["partition_sha256"])
        self.lines = crossing["lines"]
        self.flats = crossing["flats"]
        rng = random.Random(f"{self.name}/{seed}")
        self.line_order = rng.sample(range(len(self.lines)), len(self.lines))
        self.flat_order = rng.sample(range(len(self.flats)), len(self.flats))
        self.ceiling = self.part.degree**2 + self.part.degree + 1

    def item(self, index: int):
        cycle, pos = divmod(index, 3)
        if pos == 2:
            return "flat", self.flat_order[cycle % len(self.flats)]
        return "line", self.line_order[(2 * cycle + pos) % len(self.lines)]

    def run(self, item):
        kind, k = item
        if kind == "line":
            base, direction, _, _ = self.lines[k]
            stats = partition.line_crossing_stats(flats.Line4(base, direction), self.part)
            return stats.distinct_cells, stats.zero_set_hits
        base, u, v, _ = self.flats[k]
        return partition.flat2_crossing_stats(flats.Flat2(base, u, v), self.part)

    def check(self, item, result) -> None:
        kind, k = item
        if kind == "line":
            want = tuple(self.lines[k][2:])
            _expect(result == want, f"line {k}: (cells, zero hits) {result} != {want}")
        else:
            witnessed = self.flats[k][3]
            _expect(
                witnessed <= result <= self.ceiling,
                f"flat {k}: cell count {result} outside [{witnessed}, {self.ceiling}]",
            )


WORKLOADS = {w.name: w for w in (Census, Partition, Crossing)}
