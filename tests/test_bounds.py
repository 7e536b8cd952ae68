"""Closed-form bound calculators: pinned fixtures, hypothesis flags,
enclosure contracts, and consistency with the brute-force oracles."""

import itertools
import math
from fractions import Fraction as F

import pytest

from incidence4.bounds import (
    BoundParams,
    BoundResult,
    ConstantsProfile,
    DomainError,
    RationalInterval,
    binomial_truncation_gap,
    compare_power_products,
    eval_cell_decomposition,
    eval_g2_bound,
    eval_g3_bound,
    eval_kst,
    eval_main_bound,
    eval_rich_points_bound,
    eval_three_surface_cases,
    eval_total_and_dominance,
    eval_two_surface_cases,
    eval_zero_set_cases,
    integer_root,
    interval_power,
    rational_power,
    regime_check,
)
from incidence4.counting import zarankiewicz_bruteforce

HALF = F(1, 2)
C_UNIT = ConstantsProfile()


class TestIntervalMachinery:
    def test_integer_root(self):
        assert integer_root(10**12, 2) == 10**6
        assert integer_root(2**90 - 1, 3) == 2**30 - 1
        assert integer_root(0, 5) == 0

    def test_exact_square_root(self):
        iv = rational_power(F(10**12), HALF)
        assert iv.lo == iv.hi == 10**6

    def test_enclosure_contains_truth(self):
        iv = rational_power(2, HALF)
        assert iv.lo**2 < 2 < iv.hi**2
        assert iv.relative_width() < F(1, 10**20)

    def test_negative_exponent(self):
        iv = rational_power(4, F(-1, 2))
        assert iv.lo == iv.hi == HALF

    def test_interval_arithmetic(self):
        a = RationalInterval(F(1), F(2))
        b = RationalInterval(F(3), F(4))
        assert (a + b).lo == 4 and (a + b).hi == 6
        assert (a * b).lo == 3 and (a * b).hi == 8
        assert (b / a).lo == F(3, 2) and (b / a).hi == 4

    def test_power_comparison(self):
        # 2^(3/2) vs 3: 8 vs 9
        assert compare_power_products([(2, F(3, 2))], [(3, 1)]) < 0
        assert compare_power_products([(10**6, HALF)], [(1000, 1)]) == 0


class TestMainBound:
    def test_fractional_epsilon(self):
        r = eval_main_bound(BoundParams(10**4, 10**3, 2, F(1, 10)))
        assert abs(r.mid - 2215850.54) < 1.0
        assert r.hypothesis_satisfied
        assert r.value.relative_width() <= F(1, 10**9)

    def test_collapsing_epsilon(self):
        r = eval_main_bound(BoundParams(10**4, 10**3, 2, HALF))
        assert r.value.lo == r.value.hi == 2 * 10**7

    def test_tiny_instance(self):
        r = eval_main_bound(BoundParams(1, 1, 2, HALF))
        assert r.value.lo == 2
        assert not r.hypothesis_satisfied
        assert r.hypothesis_detail

    def test_regime_check_boundary(self):
        assert regime_check(10**4, 10**3)[0]
        assert not regime_check(10**4, 999)[0]
        assert not regime_check(10**4, 1001)[0]


class TestCellDecomposition:
    def test_pinned_sum(self):
        cd = eval_cell_decomposition(BoundParams(10**4, 10**3, 16, HALF))
        assert cd.summed_cell_bound.value.lo == cd.summed_cell_bound.value.hi == 1_250_000

    def test_per_cell_counts(self):
        cd = eval_cell_decomposition(BoundParams(8000, 1000, 2, HALF))
        assert cd.lines_per_cell == 1000
        assert cd.planes_per_cell == 250
        assert cd.cell_count == 16

    def test_always_below_main(self):
        for eps in (F(1, 10), F(1, 4), HALF):
            for D in (2, 4, 8):
                p = BoundParams(10**5, 3000, D, eps)
                cd = eval_cell_decomposition(p)
                main = eval_main_bound(p)
                assert cd.summed_cell_bound.value.hi < main.value.lo

    def test_decreasing_in_degree(self):
        values = [
            eval_cell_decomposition(BoundParams(10**4, 10**3, D, F(1, 4))).summed_cell_bound.value.mid
            for D in (2, 4, 8, 16)
        ]
        assert values == sorted(values, reverse=True)


class TestSurfaceCeilings:
    def test_g2_pinned(self):
        r = eval_g2_bound(BoundParams(10**6, 10**4, 2, HALF))
        assert r.value.lo == r.value.hi == 16
        assert r.hypothesis_satisfied

    def test_g2_threshold_failure(self):
        r = eval_g2_bound(BoundParams(10**6, 10**4, 4, F(1, 10)))
        assert not r.hypothesis_satisfied
        assert "NOT met" in r.hypothesis_detail

    def test_g2_monotone_in_lines(self):
        # exponent 1/2 - eps positive for eps < 1/2
        vals = [
            eval_g2_bound(BoundParams(L, 100, 2, F(1, 4))).value.mid
            for L in (10**3, 10**4, 10**5)
        ]
        assert vals == sorted(vals)

    def test_g3_pinned(self):
        r = eval_g3_bound(BoundParams(10**6, 10**4, 2, HALF))
        assert r.value.lo == r.value.hi == 8
        assert r.hypothesis_satisfied

    def test_g3_failure(self):
        r = eval_g3_bound(BoundParams(10**6, 100, 4, F(1, 10)))
        assert not r.hypothesis_satisfied

    def test_g3_epsilon_half_ignores_planes(self):
        a = eval_g3_bound(BoundParams(10, 10**4, 2, HALF)).value
        b = eval_g3_bound(BoundParams(10, 10**6, 2, HALF)).value
        assert a.lo == b.lo == 8


class TestTwoSurfaceCases:
    def test_pinned_values(self):
        cases = eval_two_surface_cases(BoundParams(10**4, 10**3, 2, HALF), C_UNIT)
        assert cases.point_case.value.lo == 32_000
        assert cases.contained_case.value.lo == 320_000
        assert abs(cases.curve_case.mid - 3_794_733.19) < 1.0

    def test_c3_identity(self):
        profile = ConstantsProfile(c1=F(2), c2=F(3))
        assert profile.c3 == 9

    def test_s_equal_one(self):
        cases = eval_two_surface_cases(BoundParams(10**4, 1, 2, HALF), C_UNIT)
        expected = F(3, 2) * 2**3 * 10**4
        assert cases.curve_case.value.lo == cases.curve_case.value.hi == expected

    def test_curve_case_side_conditions(self):
        cases = eval_two_surface_cases(BoundParams(10**4, 10**3, 2, F(1, 10)), C_UNIT)
        assert not cases.curve_case.hypothesis_satisfied  # S^(2eps) < 1 fails
        assert "C1^2" in cases.curve_case.hypothesis_detail


class TestThreeSurfaceCases:
    def test_pinned_values(self):
        cases = eval_three_surface_cases(BoundParams(10**4, 10**3, 2, HALF))
        assert cases.crossing_case.value.lo == 160_000
        assert cases.contained_case.value.lo == cases.contained_case.value.hi == 9 * 10**7

    def test_kst_link_exposed(self):
        cases = eval_three_surface_cases(BoundParams(10**4, 10**3, 2, HALF))
        # z(L, G3; L+1, 2) with G3 = 8: sqrt(L)*(8-1)*sqrt(L) + L = 8L
        assert cases.kst_link.value.lo == cases.kst_link.value.hi == 8 * 10**4

    def test_l_equal_one(self):
        cases = eval_three_surface_cases(BoundParams(1, 10**4, 2, HALF))
        assert cases.contained_case.value.hi - 2 * 4 * 10**4 == 10**4


class TestKst:
    def test_hand_value(self):
        r = eval_kst(4, 4, 2, 2)
        assert r.value.lo == r.value.hi == 10

    def test_irrational_value(self):
        r = eval_kst(2, 2, 2, 2)
        assert abs(r.mid - (math.sqrt(2) + 2)) < 1e-9

    def test_s_equal_one(self):
        r = eval_kst(9, 5, 1, 3)
        assert r.value.lo == r.value.hi == 18

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_kst(3, 2, 2, 3)

    def test_oracle_never_exceeds_formula(self):
        for m, n in itertools.product(range(2, 5), repeat=2):
            z = zarankiewicz_bruteforce(m, n, 2, 2)
            bound = eval_kst(m, n, 2, 2)
            assert z <= bound.value.hi
            if (m, n) == (3, 3):
                assert z == 6
            if (m, n) == (2, 2):
                assert z == 3


class TestRichPoints:
    def test_pinned(self):
        r = eval_rich_points_bound(100, 2, 0 if False else F(0, 1), 4)
        assert r.value.lo == r.value.hi == 1000
        assert r.hypothesis_satisfied

    def test_fractional(self):
        r = eval_rich_points_bound(100, 2, F(1, 10), 2)
        assert abs(r.mid - 0.5 * 10**3.2) < 0.01

    def test_quarter_on_doubling_r(self):
        a = eval_rich_points_bound(100, 2, F(1, 10), 3)
        b = eval_rich_points_bound(100, 4, F(1, 10), 3)
        assert a.value.lo == 4 * b.value.lo

    def test_out_of_range_flagged(self):
        r = eval_rich_points_bound(100, 25, F(1, 10), 1)
        assert not r.hypothesis_satisfied


class TestZeroSetCases:
    def test_pinned_sum(self):
        cases = eval_zero_set_cases(BoundParams(100, 25, 2, HALF), ConstantsProfile(c4=1))
        assert cases.crossing_lines.value.lo == 200
        assert cases.tangent_planes.value.lo == 50
        assert cases.curve_intersections.value.lo == 1250
        assert cases.contained_planes.value.lo == 2500
        assert cases.total.value.lo == cases.total.value.hi == 4000

    def test_c4_zero_gate(self):
        with pytest.raises(ValueError):
            ConstantsProfile(c4=0)

    def test_l_gg_s_flag(self):
        ok = eval_zero_set_cases(BoundParams(1000, 10, 2, HALF), C_UNIT)
        assert ok.curve_intersections.hypothesis_satisfied
        bad = eval_zero_set_cases(BoundParams(100, 90, 2, HALF), C_UNIT)
        assert not bad.curve_intersections.hypothesis_satisfied


class TestTotalAndDominance:
    def test_composition_at_pinned_point(self):
        td = eval_total_and_dominance(BoundParams(10**4, 10**3, 2, HALF), C_UNIT)
        manual = (
            10**7  # cell sum: 5e6 + 5e6
            + 32_000
            + F(3, 2) * 8 * 10**4 * rational_power(1000, HALF).mid
            + 320_000
            + 160_000
            + 9 * 10**7
            + 2 * 10**4
            + 2 * 10**3
            + HALF * 10**4 * 10**3 * F(1, 10)  # (3/8+1/8)*C4*L^1*S -> 0.5*L*S... see below
            + 10**7
        )
        # zero-set curve term at eps=1/2: (3/8 + 1/8) * L^(1) * S = L*S/2
        manual = manual - HALF * 10**4 * 10**3 * F(1, 10) + HALF * 10**4 * 10**3
        assert abs(float(td.total.value.mid) - float(manual)) < 2.0
        assert td.ratio.lo > 0
        assert td.dominance_ok

    def test_out_of_regime_detail(self):
        td = eval_total_and_dominance(BoundParams(100, 90, 2, F(1, 10)), C_UNIT)
        assert not td.total.hypothesis_satisfied
        assert "out-of-regime" in td.total.hypothesis_detail or "VIOLATED" in td.total.hypothesis_detail

    def test_every_result_flags_total(self):
        td = eval_total_and_dominance(BoundParams(10**4, 10**3, 2, HALF), C_UNIT)
        for res in td.parts.values():
            assert isinstance(res, BoundResult)
            assert res.hypothesis_satisfied or res.hypothesis_detail

    def test_evaluated_once_per_parameter_set(self):
        a = eval_total_and_dominance(BoundParams(10**4, 10**3, 2, HALF), C_UNIT)
        b = eval_total_and_dominance(BoundParams(10**4, 10**3, 2, F(1, 2)), ConstantsProfile())
        assert a is b

    def test_shared_parts_are_read_only(self):
        td = eval_total_and_dominance(BoundParams(10**4, 10**3, 2, HALF), C_UNIT)
        before = dict(td.parts)
        with pytest.raises(TypeError):
            td.parts["cell_sum"] = td.main
        with pytest.raises(TypeError):
            del td.parts["cell_sum"]
        with pytest.raises(AttributeError):
            td.parts.clear()
        assert dict(td.parts) == before


class TestSurfaceLemmaSoundness:
    def test_planted_counts_respect_surface_ceiling(self):
        """With A above the lemma threshold 2*D*sqrt(L), the number of
        2-flats holding at least A lines stays within 2L/A, checked on a
        configuration that plants one maximally rich flat."""
        from incidence4.configs import GeneratorKind, GeneratorSpec, gen_planted
        from incidence4.counting import detect_rich_flat2

        L, D, A = 30, 2, 25
        assert A * A > 4 * D * D * L  # A > 2 D sqrt(L), exactly
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT,
            num_lines=L,
            num_planes=0,
            planted_line_count=A,
        )
        cfg, _ = gen_planted(spec, seed=6)
        rich = [r for r in detect_rich_flat2(cfg.lines, 2) if r.multiplicity >= A]
        assert len(rich) <= F(2 * L, A)
        assert len(rich) == 1


class TestTruncation:
    def test_gap_small_when_dominated(self):
        gap = binomial_truncation_gap(10_000, 100)
        assert abs(gap.hi) < F(1, 100)

    def test_gap_shrinks_with_ratio(self):
        wide = binomial_truncation_gap(1000, 10)
        narrow = binomial_truncation_gap(100_000, 10)
        assert abs(narrow.mid) < abs(wide.mid)

    def test_sampled_pairs_under_one_percent(self):
        for S, G2 in ((200, 2), (5000, 50), (123_456, 1000)):
            assert S >= 100 * G2
            assert abs(binomial_truncation_gap(S, G2).hi) < F(1, 100)


class TestUnitInstance:
    def test_all_terms_finite_at_unit(self):
        td = eval_total_and_dominance(BoundParams(1, 1, 2, HALF), C_UNIT)
        for res in td.parts.values():
            assert res.value.hi < 10**6
        # the zero-set contained case reproduces the main bound's second
        # term L * S^(1/2+eps) identically
        main_second = interval_power(1, HALF + HALF) * 1
        assert td.parts["zero_set_contained"].value.lo == main_second.lo == 1
