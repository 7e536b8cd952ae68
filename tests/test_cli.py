"""Command-line harness: subcommands, determinism, exit codes."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from incidence4 import bounds
from incidence4.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_STRICT_HYPOTHESIS,
    ExperimentSpec,
    log_spaced_s,
    main,
    rich_thresholds,
    run_experiment,
)
from incidence4.configs import GeneratorKind, GeneratorSpec, load_config
from incidence4.partition import PartitionParams

FIXTURE = str(Path(__file__).resolve().parent.parent / "fixtures" / "sample_config.json")


def test_gen_and_count_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    assert main(["gen", "--kind", "star", "--L", "3", "--S", "2", "--seed", "5",
                 "--out", str(cfg_path)]) == EXIT_OK
    assert main(["count", "--config", str(cfg_path), "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "point_incidences: 6" in out


def test_count_sample_fixture(capsys):
    assert main(["count", "--config", FIXTURE, "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "point_incidences: 0" in out
    assert "containments: 1" in out


def test_partition_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    main(["gen", "--kind", "star", "--L", "4", "--S", "3", "--seed", "2",
          "--out", str(cfg_path)])
    assert main(["partition", "--config", str(cfg_path), "--J", "1",
                 "--delta", "0", "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rounds: 1" in out
    assert "per_cell" in out or "zero_set_count" in out


def test_degeneracy_subcommand(capsys):
    assert main(["degeneracy", "--config", FIXTURE, "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rich_flats: 0" in out


@pytest.mark.parametrize("flag", ["--line-threshold", "--plane-threshold"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_degeneracy_rejects_small_threshold(flag, value, capsys):
    # An explicit threshold is used as given, 0 included, and rejected below 2.
    assert main(["degeneracy", "--config", FIXTURE, flag, value, "--out", "-"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "needs threshold >= 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--strict"],
        ["count", "--config", FIXTURE, "--seed", "1"],
        ["verify", "--format", "csv"],
        ["gen", "--epsilon", "1/2"],
        ["grid", "--L", "10000"],
    ],
)
def test_unread_flags_rejected(argv, capsys):
    # Each subcommand accepts only the flags it reads.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_star_rejects_range(command, capsys):
    # gen_star draws from its own range; an explicit --range would be ignored.
    star = [command, "--kind", "star", "--L", "3", "--S", "2", "--out", "-"]
    assert main([*star, "--range", "5"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "--range does not apply to --kind star" in captured.err
    assert captured.out == ""
    assert main(star) == EXIT_OK


@pytest.mark.parametrize(
    "extra",
    [
        ["--kind", "star"],
        ["--L", "99"],
        ["--S", "99"],
        ["--range", "5"],
        ["--planted-lines", "3"],
        ["--planted-planes", "3"],
        ["--kind", "star", "--L", "99", "--range", "5"],
    ],
)
def test_verify_config_rejects_generator_flags(extra, capsys):
    # A loaded configuration is not generated: a generator flag would be ignored.
    assert main(["verify", "--config", FIXTURE, *extra, "--out", "-"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "generator flags do not apply to --config" in captured.err
    assert extra[0] in captured.err
    assert captured.out == ""


def test_verify_config_keeps_the_flags_it_reads(capsys):
    argv = ["verify", "--config", FIXTURE, "--seed", "3", "--D", "3", "--epsilon", "1/4",
            "--J", "1", "--delta", "1/5", "--strict", "--out", "-"]
    assert main(argv) in (EXIT_OK, EXIT_STRICT_HYPOTHESIS)
    out = capsys.readouterr().out
    assert "generator: loaded" in out
    assert "partition: rounds=1 delta=1/5" in out and "seed=3" in out
    assert "epsilon: 1/4" in out and "surface_degree: 3" in out and "strict: True" in out


def test_bounds_subcommand(capsys):
    assert main(["bounds", "--L", "10000", "--S", "1000", "--D", "2",
                 "--epsilon", "1/2", "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "main_bound: 2e+07" in out
    assert "ratio:" in out


def test_grid_subcommand(capsys):
    assert main(["grid", "--L-list", "10000", "--D-list", "2",
                 "--epsilon-list", "1/2", "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max_in_regime_ratio" in out
    assert "cell_sum_below_main_everywhere: True" in out


def test_grid_empty(capsys):
    assert main(["grid", "--L-list", "1000", "--S-list", "auto",
                 "--D-list", "2", "--epsilon-list", "1/2", "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no rows" in out


def test_log_spaced_s_band():
    values = log_spaced_s(10**6)
    assert values[0] >= 10**4
    assert values[-1] <= 10**5
    assert values == sorted(values)
    assert log_spaced_s(1000) == []


def test_log_spaced_s_band_ends_match_brute_force():
    """The band is [ceil(10*sqrt(L)), L // 10]: checked by stepping a
    counter up to the ceiling, at 0, perfect squares and their
    neighbours."""
    squares = [k * k for k in (1, 2, 10, 99, 100, 101, 317, 1000, 4321)]
    for L in sorted({0, *range(1, 30)} | {s + d for s in squares for d in (-1, 0, 1)}):
        lo = 0
        while lo * lo < 100 * L:
            lo += 1
        hi = L // 10
        values = log_spaced_s(L)
        if lo > hi:
            assert values == [], L
        else:
            assert (values[0], values[-1]) == (lo, hi), L


def test_verify_exit_codes(tmp_path):
    # generic small config: out of regime, strict -> 3, default -> 0
    args = ["verify", "--kind", "generic", "--L", "12", "--S", "6", "--seed", "1",
            "--out", str(tmp_path / "r.txt")]
    assert main(args) == EXIT_OK
    assert main(args + ["--strict"]) == EXIT_STRICT_HYPOTHESIS


def test_verify_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == EXIT_INVARIANT


def assert_one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""
    return lines[0]


@pytest.mark.parametrize("command", ["count", "partition", "degeneracy", "verify"])
@pytest.mark.parametrize("missing", [True, False])
def test_unreadable_config(command, missing, tmp_path, capsys):
    # A missing path or a directory is a bad configuration: exit 2, no traceback.
    source = tmp_path / "absent.json" if missing else tmp_path
    assert main([command, "--config", str(source), "--out", "-"]) == EXIT_INVARIANT
    assert "cannot read configuration" in assert_one_error_line(capsys)


@pytest.mark.parametrize("kind", ["planted-rich-flat", "planted-rich-hyperplane", "mixed"])
@pytest.mark.parametrize("value", ["0", "-5", "1"])
def test_planted_rejects_small_range(kind, value, capsys):
    # Planted kinds check --range like generic ones, before any draw.
    argv = ["verify", "--kind", kind, "--range", value, "--L", "5", "--S", "3",
            "--planted-lines", "2", "--planted-planes", "2", "--out", "-"]
    assert main(argv) == EXIT_INVARIANT
    assert "coordinate_range must be at least 2" in assert_one_error_line(capsys)


@pytest.mark.parametrize("value", ["0", "1", "-5"])
def test_verify_rejects_small_degree(value, capsys):
    # `verify --D` below 2 is rejected before any draw, as `bounds --D` is.
    argv = ["verify", "--kind", "generic", "--L", "3", "--S", "2", "--D", value, "--out", "-"]
    assert main(argv) == EXIT_INVARIANT
    assert assert_one_error_line(capsys) == "error: surface degree must be at least 2"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--kind", "generic", "--L", "3", "--S", "2", "--epsilon", "1/0"],
        ["verify", "--kind", "generic", "--L", "3", "--S", "2", "--J", "1", "--delta", "1/0"],
        ["bounds", "--c1", "1/0"],
        ["grid", "--epsilon-list", "1/2,1/0"],
    ],
)
def test_zero_denominator_is_a_parse_error(argv, capsys):
    # A rational with a zero denominator exits 2 with an error, not a ZeroDivisionError.
    try:
        code = main([*argv, "--out", "-"])
    except SystemExit as exc:  # argparse rejects a bad `type=` value
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_INVARIANT
    assert "error: " in captured.err and "'1/0'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_zero_rounds_builds_the_empty_partition(capsys):
    # `--J 0` is the 0-round partition, as in `partition --J 0`, not "no partition".
    argv = ["verify", "--kind", "generic", "--L", "3", "--S", "2", "--J", "0", "--out", "-"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "partition: rounds=0 " in out
    assert "\n## partition\nrounds: 0\n" in out


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["verify", "--kind", "generic", "--L", "15", "--S", "8", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INCIDENCE4_OUT_DIR", str(tmp_path))
    assert main(["gen", "--kind", "generic", "--L", "3", "--S", "2", "--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "config_generic_1.json").exists()


def test_run_experiment_star_report():
    spec = ExperimentSpec(
        GeneratorSpec(GeneratorKind.STAR, num_lines=3, num_planes=2),
        seed=5,
    )
    report = run_experiment(spec)
    assert report.exit_code == EXIT_OK
    assert "point_incidences: 6" in report.text
    assert "## verdicts" in report.text


def test_run_experiment_preloaded_needs_no_generator():
    cfg = load_config(FIXTURE)
    report = run_experiment(ExperimentSpec(None, seed=cfg.seed), preloaded=cfg)
    assert "generator: loaded" in report.text
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(None))


def test_run_experiment_planted_lists_flat():
    spec = ExperimentSpec(
        GeneratorSpec(
            GeneratorKind.PLANTED_RICH_FLAT,
            num_lines=12,
            num_planes=3,
            planted_line_count=5,
        ),
        seed=9,
    )
    report = run_experiment(spec)
    assert "planted_flat_recovered: True" in report.text
    assert "multiplicity 5" in report.text


def test_run_experiment_with_partition_reconciles():
    spec = ExperimentSpec(
        GeneratorSpec(GeneratorKind.STAR, num_lines=4, num_planes=3),
        seed=8,
        partition=PartitionParams(2, 0),
    )
    report = run_experiment(spec)
    assert report.exit_code == EXIT_OK
    assert "zero_set_count:" in report.text


# ---------------------------------------------------------------------------
# Golden output bytes
# ---------------------------------------------------------------------------

# Generator arguments per kind; `{kind}` in a golden argv is replaced by the
# path of the configuration `gen` writes from them.
_GEN = {
    "generic": ["--kind", "generic", "--L", "4", "--S", "3", "--seed", "1"],
    "star": ["--kind", "star", "--L", "4", "--S", "3", "--seed", "2"],
    "planted-rich-flat": ["--kind", "planted-rich-flat", "--L", "8", "--S", "3",
                          "--planted-lines", "5", "--seed", "3"],
    "planted-rich-hyperplane": ["--kind", "planted-rich-hyperplane", "--L", "3", "--S", "8",
                                "--planted-planes", "5", "--seed", "4", "--range", "1000"],
    "mixed": ["--kind", "mixed", "--L", "8", "--S", "8", "--planted-lines", "4",
              "--planted-planes", "4", "--seed", "5"],
}

# (id, argv without "--out -", exit code)
GOLDEN = [
    *[(f"gen-{kind}", ["gen", *argv], EXIT_OK) for kind, argv in _GEN.items()],
    *[(f"verify-{kind}", ["verify", *argv], EXIT_OK) for kind, argv in _GEN.items()],
    ("verify-J2", ["verify", "--kind", "star", "--L", "4", "--S", "3", "--seed", "8",
                   "--J", "2"], EXIT_OK),
    ("verify-strict", ["verify", "--kind", "generic", "--L", "12", "--S", "6", "--seed", "1",
                       "--strict"], EXIT_STRICT_HYPOTHESIS),
    ("verify-config", ["verify", "--config", FIXTURE], EXIT_OK),
    ("verify-config-J1", ["verify", "--config", FIXTURE, "--J", "1"], EXIT_OK),
    ("count-text", ["count", "--config", "{star}"], EXIT_OK),
    ("count-csv", ["count", "--config", "{star}", "--format", "csv"], EXIT_OK),
    ("bounds-text", ["bounds", "--L", "10000", "--S", "1000", "--epsilon", "1/2"], EXIT_OK),
    ("bounds-csv", ["bounds", "--L", "10000", "--S", "1000", "--D", "3", "--c1", "2",
                    "--format", "csv"], EXIT_OK),
    ("bounds-strict", ["bounds", "--L", "100", "--S", "90", "--strict"],
     EXIT_STRICT_HYPOTHESIS),
    ("partition-text", ["partition", "--config", "{star}", "--J", "2"], EXIT_OK),
    ("partition-csv", ["partition", "--config", "{star}", "--J", "2", "--format", "csv"],
     EXIT_OK),
    ("degeneracy-fixture", ["degeneracy", "--config", FIXTURE], EXIT_OK),
    ("degeneracy-default", ["degeneracy", "--config", "{planted-rich-flat}"], EXIT_OK),
    ("degeneracy-explicit", ["degeneracy", "--config", "{mixed}", "--line-threshold", "3",
                             "--plane-threshold", "3"], EXIT_OK),
    ("grid-one", ["grid", "--L-list", "10000", "--D-list", "2", "--epsilon-list", "1/2"],
     EXIT_OK),
    ("grid-all", ["grid", "--L-list", "10000,40000", "--S-list", "300,500", "--D-list", "2,3",
                  "--epsilon-list", "1/10,1/4"], EXIT_OK),
    ("grid-empty", ["grid", "--L-list", "1000", "--D-list", "2", "--epsilon-list", "1/2"],
     EXIT_OK),
]

# SHA-256 of each invocation's stdout, recorded before the CLI renderers
# were collapsed into one path per subcommand.  The two `verify --config`
# hashes were re-pinned when the report began to print `generator: loaded`
# for a loaded configuration (it printed `generator: generic` before).
GOLDEN_SHA256 = {
    "gen-generic": "9b10e017461989937b256b319de2de3e2ee5cbdd216036c77f97651c76eb941a",
    "gen-star": "b8c53e46051279b71768408a8bc76eea45ff7aaa1f3cf8148fee7ef46f0445fd",
    "gen-planted-rich-flat": "3d07ceb3e0073a69b9fa12c76af3e83d33992b102472ebc407e504ca9ab322f1",
    "gen-planted-rich-hyperplane": "cb20f20113ea9d57b3b2747f524b0166f0ae7e06cd535d3fb03556457f9b1235",
    "gen-mixed": "29de796c1afacc3fda541a3cbf8e167472f878f9af7e01f143fc8c54a49b51f1",
    "verify-generic": "e7d8189ea2c6f3a8f96911c3e0f3def4d69abcff2e910bc4d8a2826129261ea7",
    "verify-star": "826c15abef31e7e4d5c57ae2b6e93a939ef5ea77285239c89a44ef3b8c119b71",
    "verify-planted-rich-flat": "ee34aa0d15fa7dc16837599f8aa40a017ca2e775314002fea18da9a74fb9d701",
    "verify-planted-rich-hyperplane": "009535ffbec4964297bf53048c843aeb74ed33bc734ef7e3e7b6bd7aaf0f2cd8",
    "verify-mixed": "04bf350f2e6fbc31362601f734aa21c5c6d136bfa95961931da8eafe55c161f9",
    "verify-J2": "640b2ce496f4207ecb762dd0f2abe2cff2eaa8f4c36f5594a1a6c2d73429e721",
    "verify-strict": "ac759b2893f7acfec338ccc2c38f4766a9c1fb6e707e29f79ced7b132c7e19b9",
    "verify-config": "88b6d2d76399355c2487f0fcfcfcf53e89234a9969f752ad665829bcecd821da",
    "verify-config-J1": "ec879f8735e7a75edc5500cf64fc2fc7bb1807b1b1a7f284c1056c6ab902b2f0",
    "count-text": "ff7fa4b383a4be8ff92af080b0821de6003abba5e45c24d04de6fb466910cc21",
    "count-csv": "7838d4ebe70cc3ca2f82c6d4760a7dd0b4166a5ee2fc56d6bfa670ff398742ed",
    "bounds-text": "fb77a269c16e6d3719d8f12e439c9698ad6949869491a6b913182e8988ec0811",
    "bounds-csv": "f3cc9ed7d12d64936b04cfdae57d171b81d5e890377640bd25f024a7d6c76267",
    "bounds-strict": "a4b5435bb5ad33a6745279efaf8ce1f35daf2931127329758de8bd9fa7d90fb0",
    "partition-text": "e975bbb564eac54314c4def25f40c18970a455a79c4351724c59a3f44b6f8404",
    "partition-csv": "9e97f8b317b82b489331541f1464116d678f51adf5a28f1f970001c7c4f0c456",
    "degeneracy-fixture": "4d6d441bfbc689a788efc4f6495683d75120b6815aeea2c473c4b81e590d984d",
    "degeneracy-default": "7f354df95ef49ebfc13a6a96c72f778eeb803190a0e5330a446f7f012436d824",
    "degeneracy-explicit": "321ee1f11d3bc7fed291db2aa48570c7fbf324cca6a54cb26852bf7afcbc34b3",
    "grid-one": "f39e5b34fce4e4d966482888f470c1f0114c87332903a5397cdccd7ca9472a67",
    "grid-all": "bbc5972eada447f4db528b77eef855bee643ea29844aca4c06209ebc07d602cd",
    "grid-empty": "d8a5d5a4316ce43604c387b68a85126736a1bc3be726dfdf94e6ba51ca1d4be8",
}


@pytest.fixture(scope="module")
def golden_configs(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden")
    paths = {}
    for kind, argv in _GEN.items():
        paths[kind] = str(base / f"{kind}.json")
        assert main(["gen", *argv, "--out", paths[kind]]) == EXIT_OK
    return paths


@pytest.mark.parametrize("name,argv,exit_code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output_bytes(name, argv, exit_code, golden_configs, capsys):
    argv = [a.format(**golden_configs) for a in argv]
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("epsilon", ["1/10", "1/4", "1/3", "3/7", "1/2", "7/10"])
def test_rich_thresholds_against_integer_search(epsilon):
    """max(2, least k with k^q >= n^p) for p/q = 1/2 + eps, found by
    walking k up as n grows (the threshold never decreases)."""
    eps = Fraction(epsilon)
    expo = Fraction(1, 2) + eps
    p, q = expo.numerator, expo.denominator
    k = 0
    for n in range(0, 2001):
        while k**q < n**p:
            k += 1
        assert rich_thresholds(n, eps) == max(2, k), n


def test_grid_csv_is_unchanged_by_the_bound_cache(capsys):
    """The same grid, evaluated with an empty and then a warm cache of
    eval_total_and_dominance, prints the pinned bytes both times."""
    name, argv, _ = next(g for g in GOLDEN if g[0] == "grid-all")
    bounds.eval_total_and_dominance.cache_clear()
    for _ in range(2):
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]
    assert bounds.eval_total_and_dominance.cache_info().hits > 0
