"""Partition engine: lifts, bisection, balance, crossing statistics."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from incidence4.exactpoly import poly4, sign
from incidence4.flats import Flat2, Line4
from incidence4.partition import (
    FlatInZeroSetError,
    LineInZeroSetError,
    PartitionParams,
    PartitionPolynomial,
    SearchBudgetError,
    _lift_row,
    assign_cells,
    build_partition,
    cell_id,
    default_cap,
    default_lift_schedule,
    flat2_crossing_stats,
    ham_sandwich_bisect,
    lift_dimension,
    line_cell_profile,
    line_crossing_stats,
    monomial_exponents,
    round_cell_bound,
)


def veronese_lift(point, degree):
    """Monomial coordinates (degree 1..degree): the lift the bisection uses."""
    return _lift_row(point, monomial_exponents(degree))[1:]


class TestVeroneseLift:
    def test_degree_one_is_identity(self):
        assert lift_dimension(1) == 4
        assert veronese_lift((3, 1, -2, 5), 1) == [3, 1, -2, 5]

    def test_degree_two_unit_vector(self):
        lifted = veronese_lift((1, 0, 0, 0), 2)
        assert len(lifted) == lift_dimension(2) == 14
        assert [v for v in lifted if v != 0] == [1, 1]  # x1 and x1^2

    def test_fraction_coordinates(self):
        lifted = veronese_lift((F(1, 2), 0, F(-3), 0), 2)
        exps = monomial_exponents(2)
        assert lifted[exps.index((2, 0, 0, 0))] == F(1, 4)
        assert lifted[exps.index((1, 0, 1, 0))] == F(-3, 2)

    def test_cross_term(self):
        exps = monomial_exponents(2)
        lifted = veronese_lift((1, 2, 0, 0), 2)
        assert lifted[exps.index((1, 1, 0, 0))] == 2

    def test_dimensions(self):
        # C(4+k, 4) - 1
        assert [lift_dimension(k) for k in (1, 2, 3, 4, 5, 6)] == [4, 14, 34, 69, 125, 209]


class TestHamSandwich:
    def test_eight_collinear(self):
        pts = [(i, 0, 0, 0) for i in range(1, 9)]
        h = ham_sandwich_bisect([pts], 1, 0)
        signs = [sign(h.eval(p)) for p in pts]
        assert signs.count(1) <= 4 and signs.count(-1) <= 4

    def test_two_points(self):
        pts = [(0, 0, 0, 0), (2, 2, 0, 0)]
        h = ham_sandwich_bisect([pts], 1, 0)
        signs = [sign(h.eval(p)) for p in pts]
        assert signs.count(1) <= 1 and signs.count(-1) <= 1

    def test_two_skew_quadruples(self):
        a = [(i, 0, 0, 0) for i in range(1, 5)]
        b = [(0, i, 0, 1) for i in range(1, 5)]
        h = ham_sandwich_bisect([a, b], 2, 0)
        for group in (a, b):
            signs = [sign(h.eval(p)) for p in group]
            assert signs.count(1) <= 2 and signs.count(-1) <= 2

    def test_slack_widens_caps(self):
        assert default_cap(8, F(0)) == 4
        assert default_cap(8, F(1, 10)) == 5

    def test_too_many_sets(self):
        with pytest.raises(ValueError):
            ham_sandwich_bisect([[(i, 0, 0, 0)] for i in range(5)], 1, 0)

    def test_coincident_multiset_fails_honestly(self):
        pts = [(1, 1, 1, 1)] * 6
        with pytest.raises(SearchBudgetError):
            ham_sandwich_bisect([pts], 1, 0)


class TestBuildPartition:
    def test_no_rounds(self):
        part = build_partition([(1, 0, 0, 0)], PartitionParams(0, 0, ()))
        assert part.factors == () and part.degree == 0
        assert cell_id((5, 5, 5, 5), part) == ()

    def test_collinear_exact_split(self):
        pts = [(i, 0, 0, 0) for i in range(1, 9)]
        part = build_partition(pts, PartitionParams(3, 0, (1, 2, 4)), seed=1)
        tally = assign_cells(pts, part)
        assert max(tally.values()) <= 1
        assert part.degree <= 7

    def test_default_schedule_meets_freedom(self):
        schedule = default_lift_schedule(8)
        for j, k in enumerate(schedule, start=1):
            assert lift_dimension(k) >= 2 ** (j - 1) + 1

    def test_round_bound_formula(self):
        assert round_cell_bound(1024, 8, F(1, 10)) == 9
        assert round_cell_bound(8, 3, F(0)) == 1

    def test_balance_small_cloud(self):
        rng = random.Random(7)
        pts = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(128)]
        params = PartitionParams(5, F(1, 10))
        part = build_partition(pts, params, seed=3)
        tally = assign_cells(pts, part)
        for j in range(1, 6):
            prefix = PartitionPolynomial(part.factors[:j], part.delta)
            bound = round_cell_bound(128, j, F(1, 10))
            assert max(assign_cells(pts, prefix).values()) <= bound
        assert max(tally.values()) <= round_cell_bound(128, 5, F(1, 10))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PartitionParams(-1, 0)
        with pytest.raises(ValueError):
            PartitionParams(2, F(3, 2))
        with pytest.raises(ValueError):
            PartitionParams(4, 0, (1, 1, 1, 1))  # round 4 needs more freedom


class TestCellId:
    def test_positive_side(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        assert cell_id((2, 0, 0, 0), part) == (1,)

    def test_on_zero_set(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        assert cell_id((0, 3, 0, 0), part) == (0,)

    def test_two_factors(self):
        part = PartitionPolynomial(
            (poly4({(1, 0, 0, 0): 1}), poly4({(0, 1, 0, 0): 1, (0, 0, 0, 0): -1}))
        )
        assert cell_id((-1, 0, 0, 0), part) == (-1, -1)


class TestLineCrossing:
    def test_no_crossing(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        stats = line_crossing_stats(Line4((1, 0, 0, 0), (0, 1, 0, 0)), part)
        assert (stats.distinct_cells, stats.zero_set_hits) == (1, 0)

    def test_single_crossing(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        stats = line_crossing_stats(Line4((0, 0, 0, 0), (1, 0, 0, 0)), part)
        assert (stats.distinct_cells, stats.zero_set_hits) == (2, 1)

    def test_collinear_fixture_tightness(self, collinear_fixture):
        points, part = collinear_fixture
        assert part.degree == 7
        tally = assign_cells(points, part)
        assert len(tally) == 8 and max(tally.values()) == 1
        stats = line_crossing_stats(Line4((0, 0, 0, 0), (1, 0, 0, 0)), part)
        assert stats.distinct_cells == 8 == part.degree + 1
        assert stats.zero_set_hits == 7

    def test_line_inside_zero_set(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        with pytest.raises(LineInZeroSetError):
            line_crossing_stats(Line4((0, 0, 0, 0), (0, 1, 0, 0)), part)

    def test_interval_vectors_match_cell_id(self, collinear_fixture):
        _, part = collinear_fixture
        ln = Line4((0, 0, 0, 0), (1, 0, 0, 0))
        _, samples, vectors = line_cell_profile(ln, part)
        for t, sv in zip(samples, vectors):
            assert cell_id(ln.point_at(t), part) == sv

    def test_monotone_in_factors(self, collinear_fixture):
        _, part = collinear_fixture
        ln = Line4((0, 0, 0, 0), (1, 0, 0, 0))
        previous = 0
        for j in range(1, part.rounds + 1):
            prefix = PartitionPolynomial(part.factors[:j], part.delta)
            cells = line_crossing_stats(ln, prefix).distinct_cells
            assert cells >= previous
            previous = cells


class TestFlatCrossing:
    def test_flat_in_zero_set(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        with pytest.raises(FlatInZeroSetError):
            flat2_crossing_stats(Flat2((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), part)

    def test_half_split(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        assert flat2_crossing_stats(fl, part) == 2

    def test_quadrants(self):
        part = PartitionPolynomial(
            (poly4({(1, 0, 0, 0): 1}), poly4({(0, 1, 0, 0): 1}))
        )
        fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        count = flat2_crossing_stats(fl, part)
        assert count == 4
        assert count <= part.degree**2 + part.degree + 1


# SHA-256 of the criterion-3 partition's factor dump (1024 pinned points,
# J=8, delta=1/10, seed 11); the benchmark stores the same partition.
CRITERION_3_PARTITION_SHA256 = "137d48e14a5f207d05e49e15289320f81043d3335799e0411c987dd02f53e091"


def test_criterion_3_partition_is_pinned(big_partition):
    _, part, _ = big_partition
    dump = [
        {"degree": f.degree, "terms": [[list(e), str(c)] for e, c in sorted(f.terms.items())]}
        for f in part.factors
    ]
    digest = hashlib.sha256(json.dumps(dump, sort_keys=True).encode()).hexdigest()
    assert digest == CRITERION_3_PARTITION_SHA256
