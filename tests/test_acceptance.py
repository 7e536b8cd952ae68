"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from incidence4.bounds import (
    BoundParams,
    ConstantsProfile,
    eval_cell_decomposition,
    eval_kst,
    eval_main_bound,
    eval_total_and_dominance,
)
from incidence4.configs import (
    GeneratorKind,
    GeneratorSpec,
    gen_generic,
    gen_planted,
    gen_star,
)
from incidence4.counting import (
    classify_by_partition,
    count_incidences,
    detect_rich_flat2,
    detect_rich_hyperplane,
    zarankiewicz_bruteforce,
)
from incidence4.exactpoly import SparsePoly, bezout_point_check, poly2
from incidence4.flats import Flat2, Line4, matrix_rank
from incidence4.partition import (
    PartitionParams,
    assign_cells,
    build_partition,
    flat2_crossing_stats,
    line_crossing_stats,
    round_cell_bound,
)
from incidence4.cli import log_spaced_s


def _verdict(number: int, elapsed: float, message: str) -> None:
    print(f"ACCEPTANCE criterion {number}: PASS ({elapsed:.1f}s) -- {message}")


def test_criterion_1_generic_zero_incidence():
    start = time.monotonic()
    for seed in range(100):
        cfg = gen_generic(50, 30, seed=seed)
        report = count_incidences(cfg)
        assert report.point_incidences == 0, f"seed {seed} produced an incidence"
        assert report.containments == 0, f"seed {seed} produced a containment"
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _verdict(1, elapsed, "100 pinned generic(50,30) configs all have 0 incidences")


def test_criterion_2_star_exactness():
    start = time.monotonic()
    for L, S in ((1, 1), (3, 2), (10, 10), (100, 100)):
        cfg = gen_star(L, S, seed=7)
        report = count_incidences(cfg)
        assert report.point_incidences == L * S
        assert report.containments == 0
    elapsed = time.monotonic() - start
    _verdict(2, elapsed, "star configurations realize exactly L*S incidences")


def test_criterion_3_partition_balance(big_partition):
    points, part, build_seconds = big_partition
    start = time.monotonic()
    tally = assign_cells(points, part)
    bound = round_cell_bound(len(points), 8, F(1, 10))
    assert bound == 9
    assert max(tally.values()) <= bound
    assert sum(tally.values()) <= len(points)
    elapsed = build_seconds + (time.monotonic() - start)
    assert elapsed <= 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _verdict(
        3,
        elapsed,
        f"1024 points, J=8, delta=0.1: max cell {max(tally.values())} <= {bound} "
        f"(achieved degree {part.degree})",
    )


def test_criterion_4_line_crossing_bound(big_partition, collinear_fixture):
    _, part, _ = big_partition
    start = time.monotonic()
    rng = random.Random(4242)
    checked = 0
    while checked < 200:
        base = tuple(rng.randint(-60, 60) for _ in range(4))
        direction = tuple(rng.randint(-9, 9) for _ in range(4))
        if all(d == 0 for d in direction):
            continue
        stats = line_crossing_stats(Line4(base, direction), part)
        assert stats.distinct_cells <= part.degree + 1
        assert stats.distinct_cells <= stats.zero_set_hits + 1
        checked += 1

    _, explicit = collinear_fixture
    tight = line_crossing_stats(Line4((0, 0, 0, 0), (1, 0, 0, 0)), explicit)
    assert explicit.degree == 7
    assert tight.distinct_cells == 8 == explicit.degree + 1
    elapsed = time.monotonic() - start
    _verdict(
        4,
        elapsed,
        f"200 pinned lines within D+1={part.degree + 1} cells; collinear fixture tight at 8",
    )


def test_criterion_5_plane_crossing_bound(big_partition, collinear_fixture):
    _, part, _ = big_partition
    _, explicit = collinear_fixture
    start = time.monotonic()
    rng = random.Random(999)
    for target in (part, explicit):
        ceiling = target.degree**2 + target.degree + 1
        checked = 0
        while checked < 50:
            base = tuple(rng.randint(-60, 60) for _ in range(4))
            u = tuple(rng.randint(-9, 9) for _ in range(4))
            v = tuple(rng.randint(-9, 9) for _ in range(4))
            if matrix_rank([u, v]) != 2:
                continue
            seen = flat2_crossing_stats(Flat2(base, u, v), target, sample_budget=96)
            assert seen <= ceiling
            checked += 1
    elapsed = time.monotonic() - start
    _verdict(5, elapsed, "50 pinned 2-planes within D^2+D+1 cells for every built partition")


def test_criterion_6_kst_vs_bruteforce():
    start = time.monotonic()
    for m, n in itertools.product(range(2, 5), repeat=2):
        z = zarankiewicz_bruteforce(m, n, 2, 2)
        ceiling = eval_kst(m, n, 2, 2)
        assert z <= ceiling.value.hi
    assert zarankiewicz_bruteforce(3, 3, 2, 2) == 6
    assert zarankiewicz_bruteforce(2, 2, 2, 2) == 3
    elapsed = time.monotonic() - start
    _verdict(6, elapsed, "brute-force Zarankiewicz never exceeds the extremal formula")


def _random_cubic(rng: random.Random, unit_at_origin: bool = False) -> SparsePoly:
    terms = {}
    for a in range(4):
        for b in range(4 - a):
            if rng.random() < 0.55:
                terms[(a, b)] = rng.randint(-5, 5)
    if unit_at_origin:
        # A nonzero constant term keeps the curve off the origin, ruling
        # out the shared-singular-point family the shear ladder rejects.
        terms[(0, 0)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return poly2(terms)


def test_criterion_7_bezout_desk_check():
    start = time.monotonic()
    rng = random.Random(20250808)
    accepted = 0
    while accepted < 100:
        q1 = _random_cubic(rng, unit_at_origin=True)
        q2 = _random_cubic(rng)
        if q1.is_zero or q2.is_zero or q1.degree == 0 or q2.degree == 0:
            continue
        common, count = bezout_point_check(q1, q2)
        if common:
            continue
        assert count <= q1.degree * q2.degree
        accepted += 1
    elapsed = time.monotonic() - start
    _verdict(7, elapsed, "100 pinned coprime cubic pairs respect the degree-product bound")


def test_criterion_8_degeneracy_detection():
    start = time.monotonic()
    for i in range(25):
        k = 3 + i % 6  # 3..8
        total = min(40, 20 + i)
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT,
            num_lines=total,
            num_planes=0,
            planted_line_count=k,
        )
        cfg, truth = gen_planted(spec, seed=1000 + i)
        records = detect_rich_flat2(cfg.lines, k)
        assert len(records) == 1, f"flat config {i}: precision violated"
        assert records[0].flat == truth.flat, f"flat config {i}: recall violated"
        assert records[0].members == truth.flat_line_indices

    for i in range(25):
        k = 3 + i % 4  # 3..6
        total = min(20, 10 + i % 11)
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_HYPERPLANE,
            num_lines=0,
            num_planes=total,
            planted_plane_count=k,
        )
        cfg, truth = gen_planted(spec, seed=2000 + i)
        records = detect_rich_hyperplane(cfg.planes, k)
        assert len(records) == 1, f"hyperplane config {i}: precision violated"
        assert records[0].flat == truth.hyperplane, f"hyperplane config {i}: recall violated"
        assert records[0].members == truth.hyperplane_plane_indices
    elapsed = time.monotonic() - start
    _verdict(8, elapsed, "50 planted configurations recovered with 100% recall and precision")


def test_criterion_9_formula_fixtures():
    start = time.monotonic()
    half = F(1, 2)
    unit = ConstantsProfile()

    checks = []

    def pin(result, expected_exact=None, within=None, reference=None):
        assert result.value.relative_width() <= F(1, 10**9)
        if expected_exact is not None:
            assert result.value.lo == result.value.hi == expected_exact
        else:
            assert abs(result.mid - reference) < within
        checks.append(result)

    from incidence4.bounds import (
        eval_g2_bound,
        eval_g3_bound,
        eval_rich_points_bound,
        eval_three_surface_cases,
        eval_two_surface_cases,
        eval_zero_set_cases,
    )

    pin(eval_main_bound(BoundParams(10**4, 10**3, 2, half)), expected_exact=2 * 10**7)
    pin(eval_main_bound(BoundParams(10**4, 10**3, 2, F(1, 10))), within=1.0, reference=2215850.54)
    pin(
        eval_cell_decomposition(BoundParams(10**4, 10**3, 16, half)).summed_cell_bound,
        expected_exact=1_250_000,
    )
    pin(eval_g2_bound(BoundParams(10**6, 10**4, 2, half)), expected_exact=16)
    pin(eval_g3_bound(BoundParams(10**4, 10**4, 2, half)), expected_exact=8)
    two = eval_two_surface_cases(BoundParams(10**4, 10**3, 2, half), unit)
    pin(two.point_case, expected_exact=32_000)
    pin(two.curve_case, within=1.0, reference=3_794_733.19)
    pin(two.contained_case, expected_exact=320_000)
    three = eval_three_surface_cases(BoundParams(10**4, 10**3, 2, half))
    pin(three.crossing_case, expected_exact=160_000)
    pin(three.contained_case, expected_exact=9 * 10**7)
    pin(eval_kst(4, 4, 2, 2), expected_exact=10)
    pin(eval_rich_points_bound(100, 2, F(0), 4), expected_exact=1000)
    pin(eval_rich_points_bound(100, 2, F(1, 10), 2), within=0.01, reference=0.5 * 10**3.2)
    zero = eval_zero_set_cases(BoundParams(100, 25, 2, half), unit)
    pin(zero.total, expected_exact=4000)
    elapsed = time.monotonic() - start
    _verdict(9, elapsed, f"{len(checks)} pinned formula fixtures within 1e-9 enclosures")


def test_criterion_10_dominance_grid():
    start = time.monotonic()
    unit = ConstantsProfile()
    rows = 0
    in_regime_rows = 0
    max_ratio = F(0)
    for L in (10**3, 10**4, 10**5, 10**6):
        for S in log_spaced_s(L, count=3):
            for eps in (F(1, 10), F(1, 4), F(1, 2)):
                for D in (2, 4):
                    params = BoundParams(L, S, D, eps)
                    main = eval_main_bound(params)
                    cells = eval_cell_decomposition(params).summed_cell_bound
                    td = eval_total_and_dominance(params, unit)
                    rows += 1
                    assert td.ratio.hi > 0  # finite and reported
                    if main.hypothesis_satisfied:
                        in_regime_rows += 1
                        assert cells.value.hi < main.value.lo, (
                            f"cell sum not strictly below main at L={L} S={S} D={D} eps={eps}"
                        )
                        max_ratio = max(max_ratio, td.ratio.hi)
    elapsed = time.monotonic() - start
    assert in_regime_rows > 0
    assert elapsed <= 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _verdict(
        10,
        elapsed,
        f"{rows} grid rows, {in_regime_rows} in-regime; cell sum strictly below main; "
        f"max total/main ratio {float(max_ratio):.3f}",
    )


def test_criterion_11_oracle_reconciliation(big_partition, collinear_fixture):
    start = time.monotonic()
    _, big_part, _ = big_partition
    _, explicit = collinear_fixture

    configs = [
        gen_star(3, 2, seed=5),
        gen_star(10, 10, seed=3),
        gen_generic(20, 12, seed=42),
        gen_planted(
            GeneratorSpec(
                GeneratorKind.PLANTED_RICH_FLAT,
                num_lines=12,
                num_planes=6,
                planted_line_count=4,
            ),
            seed=4,
        )[0],
    ]
    small_part = build_partition(
        [(i, j, 0, 0) for i in range(3) for j in range(3)],
        PartitionParams(2, F(1, 10)),
        seed=2,
    )
    partitions = [explicit, big_part, small_part]
    pairs = 0
    for cfg in configs:
        plain = count_incidences(cfg)
        for part in partitions:
            attributed = classify_by_partition(plain, part)
            assert attributed.point_incidences == plain.point_incidences
            assert attributed.containments == plain.containments
            assert (
                sum(attributed.per_cell.values()) + attributed.zero_set_count
                == plain.point_incidences
            )
            pairs += 1
    elapsed = time.monotonic() - start
    _verdict(
        11, elapsed, f"{pairs} configuration/partition pairs reconcile cell + zero-set totals"
    )
