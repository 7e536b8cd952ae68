"""Incidence census oracle, graphs, Zarankiewicz, rich-flat detectors."""

import itertools
import random

import pytest

from incidence4 import counting
from incidence4.configs import GeneratorKind, GeneratorSpec, gen_generic, gen_planted, gen_star
from incidence4.counting import (
    BipartiteIncidenceGraph,
    IncidenceReport,
    TooLargeError,
    classify_by_partition,
    count_incidences,
    detect_rich_flat2,
    detect_rich_hyperplane,
    incidence_graph,
    kst_free_check,
    report_to_csv,
    report_to_text,
    zarankiewicz_bruteforce,
)
from incidence4.exactpoly import poly4
from incidence4.flats import Flat2, Line4
from incidence4.partition import PartitionPolynomial


STAR = gen_star(3, 2, seed=5)


class TestCounting:
    def test_star_counts(self):
        report = count_incidences(STAR)
        assert report.point_incidences == 6
        assert report.containments == 0
        assert len(report.records) == 6

    def test_generic_zero(self):
        cfg = gen_generic(5, 5, seed=42)
        report = count_incidences(cfg)
        assert report.point_incidences == 0

    def test_containment_not_counted(self):
        cfg_lines = (Line4((0, 0, 0, 0), (1, 0, 0, 0)),)
        cfg_planes = (Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)),)
        from incidence4.configs import ConfigurationSet

        cfg = ConfigurationSet(cfg_lines, cfg_planes)
        report = count_incidences(cfg)
        assert report.point_incidences == 0
        assert report.containments == 1

    def test_relabeling_preserves_counts(self):
        from incidence4.configs import ConfigurationSet

        cfg = gen_star(4, 3, seed=8)
        shuffled = ConfigurationSet(
            tuple(reversed(cfg.lines)), tuple(reversed(cfg.planes)), cfg.seed, cfg.provenance
        )
        assert count_incidences(cfg).point_incidences == count_incidences(shuffled).point_incidences


class TestPartitionAttribution:
    def test_off_zero_set(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1, (0, 0, 0, 0): -1}),))
        report = classify_by_partition(count_incidences(STAR), part)
        assert report.zero_set_count == 0
        assert report.per_cell == {(-1,): 6}

    def test_center_on_zero_set(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        report = classify_by_partition(count_incidences(STAR), part)
        assert report.zero_set_count == 6
        assert report.per_cell == {}

    def test_generic_all_zero(self):
        cfg = gen_generic(5, 5, seed=42)
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        report = classify_by_partition(count_incidences(cfg), part)
        assert report.point_incidences == 0
        assert report.per_cell == {} and report.zero_set_count == 0

    def test_takes_the_callers_report(self, monkeypatch):
        """Attribution reuses the census it is given: no pair is
        classified a second time."""
        report = count_incidences(STAR)

        def recount(cfg):
            raise AssertionError("classify_by_partition called count_incidences")

        monkeypatch.setattr(counting, "count_incidences", recount)
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1, (0, 0, 0, 0): -1}),))
        attributed = classify_by_partition(report, part)
        assert attributed.records == report.records
        assert attributed.per_cell == {(-1,): 6} and attributed.zero_set_count == 0

    def test_reconciliation_enforced(self):
        with pytest.raises(ValueError):
            IncidenceReport(2, 0, (), per_cell={(1,): 1}, zero_set_count=0)


class TestIncidenceGraph:
    def test_star_complete(self):
        g = incidence_graph(STAR)
        assert len(g.edges) == 6
        assert g.left_size == 3 and g.right_size == 2

    def test_edges_match_count(self):
        for seed in (1, 2):
            cfg = gen_star(4, 4, seed=seed)
            assert len(incidence_graph(cfg).edges) == count_incidences(cfg).point_incidences

    def test_containment_produces_no_edge(self):
        from incidence4.configs import ConfigurationSet

        cfg = ConfigurationSet(
            (Line4((0, 0, 0, 0), (1, 0, 0, 0)),),
            (Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)),),
        )
        assert incidence_graph(cfg).edges == frozenset()


class TestKstFree:
    def test_six_cycle_is_free(self):
        g = BipartiteIncidenceGraph(
            3, 3, frozenset([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
        )
        assert kst_free_check(g, 2, 2) == (True, None)

    def test_complete_graph_witness(self):
        g = BipartiteIncidenceGraph(2, 2, frozenset([(0, 0), (0, 1), (1, 0), (1, 1)]))
        free, witness = kst_free_check(g, 2, 2)
        assert not free
        assert witness == ((0, 1), (0, 1))

    def test_empty_graph(self):
        g = BipartiteIncidenceGraph(3, 4, frozenset())
        assert kst_free_check(g, 2, 2)[0]
        assert kst_free_check(g, 1, 1)[0]


class TestZarankiewicz:
    def test_pinned_values(self):
        assert zarankiewicz_bruteforce(2, 2, 2, 2) == 3
        assert zarankiewicz_bruteforce(3, 3, 2, 2) == 6
        assert zarankiewicz_bruteforce(4, 4, 2, 2) == 9

    def test_any_edge_is_k11(self):
        for m, n in itertools.product(range(1, 5), repeat=2):
            assert zarankiewicz_bruteforce(m, n, 1, 1) == 0

    def test_degree_cap_cases(self):
        assert zarankiewicz_bruteforce(4, 3, 1, 2) == 4
        assert zarankiewicz_bruteforce(3, 4, 2, 1) == 4

    def test_against_raw_enumeration(self):
        def raw(m, n, s, t):
            best = 0
            cells = [(i, j) for i in range(m) for j in range(n)]
            for bits in range(1 << (m * n)):
                edges = frozenset(cells[k] for k in range(m * n) if bits >> k & 1)
                if len(edges) <= best:
                    continue
                g = BipartiteIncidenceGraph(m, n, edges)
                if kst_free_check(g, s, t)[0]:
                    best = len(edges)
            return best

        for m, n in itertools.product(range(2, 5), repeat=2):
            assert zarankiewicz_bruteforce(m, n, 2, 2) == raw(m, n, 2, 2)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            zarankiewicz_bruteforce(6, 5, 2, 2)


class TestDetectors:
    def test_three_concurrent_coplanar_lines(self):
        lines = [
            Line4((0, 0, 0, 0), (1, 0, 0, 0)),
            Line4((0, 0, 0, 0), (0, 1, 0, 0)),
            Line4((0, 1, 0, 0), (1, 1, 0, 0)),
        ]
        records = detect_rich_flat2(lines, 3)
        assert len(records) == 1
        assert records[0].members == (0, 1, 2)
        assert records[0].multiplicity == 3

    def test_generic_lines_empty(self):
        cfg = gen_generic(12, 0, seed=42)
        assert detect_rich_flat2(cfg.lines, 2) == []

    def test_planted_flat_exact_recovery(self):
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT, num_lines=20, num_planes=0, planted_line_count=5
        )
        cfg, truth = gen_planted(spec, seed=77)
        records = detect_rich_flat2(cfg.lines, 3)
        assert len(records) == 1
        assert records[0].flat == truth.flat
        assert records[0].multiplicity == 5

    def test_two_parallel_planes(self):
        f0 = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        f1 = Flat2((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        records = detect_rich_hyperplane([f0, f1], 2)
        assert len(records) == 1
        assert records[0].members == (0, 1)

    def test_planes_spanning_r4(self):
        f0 = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
        f1 = Flat2((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert detect_rich_hyperplane([f0, f1], 2) == []

    def test_planted_hyperplane_exact_recovery(self):
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_HYPERPLANE,
            num_lines=0,
            num_planes=10,
            planted_plane_count=4,
        )
        cfg, truth = gen_planted(spec, seed=13)
        records = detect_rich_hyperplane(cfg.planes, 4)
        assert len(records) == 1
        assert records[0].flat == truth.hyperplane
        assert records[0].members == (0, 1, 2, 3)

    def test_relabeling_permutes_members(self):
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT, num_lines=10, num_planes=0, planted_line_count=4
        )
        cfg, _ = gen_planted(spec, seed=3)
        perm = list(range(10))
        random.Random(0).shuffle(perm)
        shuffled = [cfg.lines[i] for i in perm]
        original = detect_rich_flat2(cfg.lines, 4)
        relabeled = detect_rich_flat2(shuffled, 4)
        assert len(original) == len(relabeled) == 1
        assert original[0].multiplicity == relabeled[0].multiplicity
        assert {perm[i] for i in relabeled[0].members} == set(original[0].members)


class TestRendering:
    def test_text_report(self):
        text = report_to_text(count_incidences(STAR))
        assert "point_incidences: 6" in text

    def test_csv_report(self):
        part = PartitionPolynomial((poly4({(1, 0, 0, 0): 1}),))
        report = classify_by_partition(count_incidences(STAR), part)
        csv = report_to_csv(report, part)
        lines = csv.strip().splitlines()
        assert lines[0] == "line_idx,plane_idx,x1,x2,x3,x4,cell"
        assert len(lines) == 7
        assert all(row.endswith("ZERO_SET") for row in lines[1:])


class TestAnalyticStarFixture:
    def test_forced_six_incidences(self):
        """Three axis lines and two transversal planes through the origin:
        every pair meets exactly at the origin, none is contained."""
        from incidence4.configs import ConfigurationSet
        from incidence4.flats import IncidenceKind, classify_line_flat2

        lines = (
            Line4((0, 0, 0, 0), (1, 0, 0, 0)),
            Line4((0, 0, 0, 0), (0, 1, 0, 0)),
            Line4((0, 0, 0, 0), (0, 0, 0, 1)),
        )
        planes = (
            Flat2((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)),
            Flat2((0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)),
        )
        cfg = ConfigurationSet(lines, planes)
        report = count_incidences(cfg)
        assert report.point_incidences == 6
        assert report.containments == 0
        for rec in report.records:
            assert rec.location == (0, 0, 0, 0)
        for ln in lines:
            for pl in planes:
                assert classify_line_flat2(ln, pl).kind is IncidenceKind.POINT

    def test_generic_graph_empty(self):
        cfg = gen_generic(5, 5, seed=42)
        assert incidence_graph(cfg).edges == frozenset()
