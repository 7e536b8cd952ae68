"""Regenerate the benchmark's stored inputs and recorded answers.

    python3 perfbench/make_data.py

Writes `data/crossing_partition.json` (the acceptance suite's criterion-3
partition: 1024 pinned points in [-50,50]^4, J=8, delta=1/10, seed 11,
as exact "num/den" strings) and `data/golden.json` (the crossing pools of
lines and 2-flats with their recorded answers, and the SHA-256 of every
census report of seed 0).  Run it only to re-record the answers at a
commit whose outputs are trusted; the benchmark never calls it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py, before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from incidence4 import flats, partition  # noqa: E402

import workloads  # noqa: E402

PINNED_POINT_SEED = 20240808
PARTITION_SEED = 11
LINE_POOL = 400
FLAT_POOL = 200
CENSUS_RECORDED = 128


def pinned_points(count: int = 1024, bound: int = 50):
    rng = random.Random(PINNED_POINT_SEED)
    return [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(count)]


def line_pool(part):
    """Lines drawn as in acceptance criterion 4, with their exact answers."""
    rng = random.Random(4242)
    out = []
    while len(out) < LINE_POOL:
        base = [rng.randint(-60, 60) for _ in range(4)]
        direction = [rng.randint(-9, 9) for _ in range(4)]
        if not any(direction):
            continue
        stats = partition.line_crossing_stats(flats.Line4(base, direction), part)
        out.append([base, direction, stats.distinct_cells, stats.zero_set_hits])
    return out


def flat_pool(part):
    """2-flats drawn as in acceptance criterion 5, with their witnessed cell counts."""
    rng = random.Random(999)
    out = []
    while len(out) < FLAT_POOL:
        base = [rng.randint(-60, 60) for _ in range(4)]
        u = [rng.randint(-9, 9) for _ in range(4)]
        v = [rng.randint(-9, 9) for _ in range(4)]
        if flats.matrix_rank([u, v]) != 2:
            continue
        out.append([base, u, v, partition.flat2_crossing_stats(flats.Flat2(base, u, v), part)])
    return out


def census_digests():
    census = workloads.Census(0, {"census_seed0_report_sha256": []})
    digests = []
    for i in range(CENSUS_RECORDED):
        item = census.item(i)
        report = census.run(item)
        census.check(item, report)  # generator ground truth still applies
        digests.append(hashlib.sha256(report.text.encode()).hexdigest())
    return digests


def main() -> int:
    delta = Fraction(1, 10)
    part = partition.build_partition(
        pinned_points(), partition.PartitionParams(8, delta), seed=PARTITION_SEED
    )
    if part.degree != 23:
        raise SystemExit(f"criterion-3 partition has degree {part.degree}, expected 23")
    dumps = [workloads.factor_to_json(f) for f in part.factors]
    stored = {
        "source": "criterion 3: 1024 pinned points in [-50,50]^4, J=8, delta=1/10, seed 11",
        "delta": str(delta),
        "degree": part.degree,
        "factors": dumps,
    }
    workloads.CROSSING_PARTITION_PATH.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    golden = {
        "crossing": {
            "partition_sha256": workloads.partition_digest(dumps),
            "lines": line_pool(part),
            "flats": flat_pool(part),
        },
        "census_seed0_report_sha256": census_digests(),
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
