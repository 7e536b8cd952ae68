"""Configuration generators and persistence."""

import json
from pathlib import Path

import pytest

from incidence4.configs import (
    ConfigurationSet,
    GeneratorKind,
    GeneratorSpec,
    ParseError,
    RangeTooSmallError,
    config_to_dict,
    dumps_config,
    gen_generic,
    gen_planted,
    gen_star,
    load_config,
    loads_config,
)
from incidence4.counting import count_incidences, detect_rich_flat2, detect_rich_hyperplane
from incidence4.flats import (
    Flat2,
    InvariantViolationError,
    Line4,
    flat2_in_hyperplane,
    line_in_flat2,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sample_config.json"


class TestGeneric:
    def test_empty(self):
        cfg = gen_generic(0, 0, seed=1)
        assert cfg.num_lines == 0 and cfg.num_planes == 0

    def test_determinism(self):
        a = gen_generic(12, 7, seed=42)
        b = gen_generic(12, 7, seed=42)
        assert a == b
        assert dumps_config(a) == dumps_config(b)

    def test_distinct_seeds_differ(self):
        assert gen_generic(5, 5, seed=1) != gen_generic(5, 5, seed=2)

    def test_zero_incidences_on_pinned_seeds(self):
        for seed in range(5):
            cfg = gen_generic(10, 8, seed=seed)
            report = count_incidences(cfg)
            assert report.point_incidences == 0
            assert report.containments == 0

    def test_range_too_small(self):
        with pytest.raises(RangeTooSmallError):
            gen_generic(5, 5, seed=1, coordinate_range=1)


class TestStar:
    def test_small_counts(self):
        for L, S in ((1, 1), (3, 2)):
            cfg = gen_star(L, S, seed=9)
            report = count_incidences(cfg)
            assert report.point_incidences == L * S
            assert report.containments == 0

    def test_all_through_center(self):
        cfg = gen_star(4, 3, center=(1, 2, 0, -1), seed=5)
        for ln in cfg.lines:
            assert ln.contains_point((1, 2, 0, -1))
        for pl in cfg.planes:
            assert pl.contains_point((1, 2, 0, -1))

    def test_no_containments_by_construction(self):
        cfg = gen_star(6, 4, seed=11)
        for ln in cfg.lines:
            for pl in cfg.planes:
                assert not line_in_flat2(ln, pl)


class TestPlanted:
    def test_rich_flat_ground_truth(self):
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT, num_lines=20, num_planes=0, planted_line_count=5
        )
        cfg, truth = gen_planted(spec, seed=17)
        assert truth.flat is not None
        for idx in truth.flat_line_indices:
            assert line_in_flat2(cfg.lines[idx], truth.flat)
        records = detect_rich_flat2(cfg.lines, 3)
        assert len(records) == 1
        assert records[0].flat == truth.flat
        assert records[0].members == truth.flat_line_indices

    def test_rich_hyperplane_ground_truth(self):
        spec = GeneratorSpec(
            GeneratorKind.PLANTED_RICH_HYPERPLANE,
            num_lines=0,
            num_planes=10,
            planted_plane_count=4,
        )
        cfg, truth = gen_planted(spec, seed=23)
        assert truth.hyperplane is not None
        for idx in truth.hyperplane_plane_indices:
            assert flat2_in_hyperplane(cfg.planes[idx], truth.hyperplane)
        records = detect_rich_hyperplane(cfg.planes, 4)
        assert len(records) == 1
        assert records[0].flat == truth.hyperplane
        assert records[0].members == truth.hyperplane_plane_indices

    def test_mixed(self):
        spec = GeneratorSpec(
            GeneratorKind.MIXED,
            num_lines=12,
            num_planes=8,
            planted_line_count=4,
            planted_plane_count=3,
        )
        cfg, truth = gen_planted(spec, seed=31)
        assert truth.flat is not None and truth.hyperplane is not None
        assert len(detect_rich_flat2(cfg.lines, 4)) == 1
        assert len(detect_rich_hyperplane(cfg.planes, 3)) == 1

    @pytest.mark.parametrize("bound", [1, 0, -5])
    def test_range_too_small(self, bound):
        spec = GeneratorSpec(
            GeneratorKind.MIXED, 5, 3, coordinate_range=bound,
            planted_line_count=2, planted_plane_count=2,
        )
        with pytest.raises(RangeTooSmallError):
            gen_planted(spec, seed=1)

    def test_zero_planted_is_generic_like(self):
        spec = GeneratorSpec(GeneratorKind.PLANTED_RICH_FLAT, num_lines=8, num_planes=4)
        cfg, truth = gen_planted(spec, seed=2)
        assert truth.flat is None
        assert cfg.num_lines == 8 and cfg.num_planes == 4
        assert detect_rich_flat2(cfg.lines, 2) == []


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = gen_generic(6, 5, seed=3)
        path = tmp_path / "cfg.json"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        loaded = load_config(path)
        assert loaded == cfg
        assert dumps_config(loaded) == dumps_config(cfg)

    def test_rationals_survive(self, tmp_path):
        cfg = ConfigurationSet(
            (Line4(("1/3", 0, 0, 0), ("-7/2", 1, 0, 0)),), (), None, "hand"
        )
        path = tmp_path / "r.json"
        path.write_text(dumps_config(cfg), encoding="utf-8")
        assert load_config(path) == cfg

    @pytest.mark.parametrize("name", ["absent.json", ""])
    def test_unreadable_source(self, tmp_path, name):
        # a missing file or a directory
        with pytest.raises(ParseError, match="cannot read configuration"):
            load_config(tmp_path / name)

    def test_sample_fixture(self):
        cfg = load_config(FIXTURE)
        assert cfg.num_lines == 2
        assert cfg.num_planes == 1
        report = count_incidences(cfg)
        assert report.containments == 1
        assert report.point_incidences == 0

    def test_zero_direction_rejected(self):
        bad = (
            '{"lines": [{"p": ["0","0","0","0"], "d": ["0","0","0","0"]}],'
            ' "planes": [], "seed": null, "provenance": ""}'
        )
        with pytest.raises(InvariantViolationError):
            loads_config(bad)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            loads_config('{"lines": [')
        assert err.value.line == 1
        assert err.value.column is not None

    def test_bad_rational(self):
        bad = (
            '{"lines": [{"p": ["x","0","0","0"], "d": ["1","0","0","0"]}],'
            ' "planes": [], "seed": null, "provenance": ""}'
        )
        with pytest.raises(ParseError):
            loads_config(bad)

    def test_duplicate_lines_rejected(self):
        with pytest.raises(InvariantViolationError):
            ConfigurationSet(
                (
                    Line4((0, 0, 0, 0), (1, 0, 0, 0)),
                    Line4((5, 0, 0, 0), (2, 0, 0, 0)),
                ),
                (),
            )


class TestRejectionBudget:
    def test_budget_exhaustion_raises(self):
        from incidence4.configs import RejectionBudgetError, _fill_distinct

        with pytest.raises(RejectionBudgetError):
            _fill_distinct(1, lambda: None, "impossible draws", RejectionBudgetError)


def _dump_cases():
    spec = GeneratorSpec
    hand = ConfigurationSet(
        (Line4(("1/3", "-7/2", 0, 5), (2, 3, "5/7", 1)), Line4((1, 2, 3, 4), ("-1/6", 0, 1, 0))),
        (Flat2(("-1/9", 2, 3, 4), (1, "2/3", 0, 0), (0, 0, 1, "-5/11")),),
        17,
        "hand",
    )
    loaded = loads_config(json.dumps(config_to_dict(hand)))
    return {
        "generic": gen_generic(50, 30, seed=1),
        "star": gen_star(6, 5, seed=2),
        "planted-flat": gen_planted(spec(GeneratorKind.PLANTED_RICH_FLAT, 12, 4, 1000, 5), 3)[0],
        "planted-hyperplane": gen_planted(
            spec(GeneratorKind.PLANTED_RICH_HYPERPLANE, 4, 12, 1000, 0, 5), 4
        )[0],
        "no-lines": gen_generic(0, 3, seed=5),
        "no-planes": gen_generic(3, 0, seed=5),
        "empty": gen_generic(0, 0, seed=None),
        "loaded-rationals": loaded,
        "provenance-escapes": ConfigurationSet(
            loaded.lines, (), -3, 'say "\\hi"\t\u00e9\u2713 \U0001f600\x01/'
        ),
    }


@pytest.mark.parametrize("name,cfg", _dump_cases().items())
def test_dumps_config_matches_the_json_encoder(name, cfg):
    assert dumps_config(cfg) == json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"
