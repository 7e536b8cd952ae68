"""Command-line front end: generation, counting, partitioning, degeneracy
detection, bound tables, grids, and end-to-end verification.

Reports are deterministic: no timestamps, sorted rows, exact rationals
printed canonically. Exit codes: 0 success, 2 invariant violation in the
inputs, 3 hypothesis failure under --strict.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import bounds as bnd
from .bounds import BoundParams, ConstantsProfile
from .configs import (
    ConfigurationSet,
    GeneratorKind,
    GeneratorSpec,
    ParseError,
    dumps_config,
    gen_generic,
    gen_planted,
    gen_star,
    load_config,
)
from .counting import (
    classify_by_partition,
    count_incidences,
    detect_rich_flat2,
    detect_rich_hyperplane,
    report_to_csv,
    report_to_text,
)
from .flats import InvariantViolationError
from .partition import (
    PartitionParams,
    PartitionPolynomial,
    SearchBudgetError,
    build_partition,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_STRICT_HYPOTHESIS = 3

OUT_DIR_ENV = "INCIDENCE4_OUT_DIR"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything run_experiment needs, deterministically.  `generator`
    is None when run_experiment is given a preloaded configuration."""

    generator: GeneratorSpec | None
    seed: int | None = None
    partition: PartitionParams | None = None
    partition_seed: int = 0
    epsilon: Fraction = Fraction(1, 10)
    degree: int = 2
    strict: bool = False

    def __post_init__(self):
        if self.degree < 2:  # as BoundParams checks it for `bounds --D`
            raise ValueError("surface degree must be at least 2")


@dataclass(frozen=True)
class ExperimentReport:
    text: str
    exit_code: int


def _make_configuration(g: GeneratorSpec, seed: int | None):
    """(configuration, planted ground truth or None) drawn from `g`."""
    if g.kind is GeneratorKind.GENERIC:
        return gen_generic(g.num_lines, g.num_planes, seed, g.coordinate_range), None
    if g.kind is GeneratorKind.STAR:
        return gen_star(g.num_lines, g.num_planes, seed=seed), None
    return gen_planted(g, seed)


def _experiment_points(cfg: ConfigurationSet, incidences) -> list:
    """Points to partition: distinct incidence locations when present,
    otherwise deterministic samples on the configuration's objects."""
    if incidences.records:
        return sorted({r.location for r in incidences.records})
    pts = set()
    for ln in cfg.lines:
        pts.add(ln.point_at(0))
        pts.add(ln.point_at(1))
    for pl in cfg.planes:
        pts.add(pl.point_at(0, 0))
        pts.add(pl.point_at(1, 0))
        pts.add(pl.point_at(0, 1))
    return sorted(pts)


def rich_thresholds(n: int, epsilon: Fraction) -> int:
    """max(2, ceil(n^(1/2+eps))), the non-degeneracy richness threshold.

    With 1/2 + eps = p/q in lowest terms, ceil(n^(p/q)) is the least k
    with k^q >= n^p: the integer q-th root of n^p, plus one unless it
    is exact.
    """
    expo = Fraction(1, 2) + epsilon
    if n <= 1 or expo <= 0:
        return 2
    p, q = expo.numerator, expo.denominator
    k = bnd.integer_root(n**p, q)
    return max(2, k if k**q == n**p else k + 1)


def _rich_report(cfg: ConfigurationSet, line_threshold: int, plane_threshold: int):
    """Rich 2-flats and hyperplanes of `cfg`, plus their report lines."""
    flats = detect_rich_flat2(cfg.lines, line_threshold)
    hypers = detect_rich_hyperplane(cfg.planes, plane_threshold)
    out = [f"rich_flats: {len(flats)}"]
    out += [f"  multiplicity {r.multiplicity}: lines {list(r.members)}" for r in flats]
    out.append(f"rich_hyperplanes: {len(hypers)}")
    out += [f"  multiplicity {r.multiplicity}: planes {list(r.members)}" for r in hypers]
    return flats, hypers, out


def _bound_rows(td: bnd.TotalAndDominance) -> list:
    """(name, result) for the main bound, every part by name, and the total."""
    return [("main_bound", td.main)] + sorted(td.parts.items()) + [("total", td.total)]


def _verdict(name: str, bound: bnd.BoundResult, count: int, detail: str) -> tuple[str, str, str]:
    """(name, status, detail) of `count` against `bound`: pass or FAIL
    with `detail` when the bound's hypothesis holds, otherwise
    informational with the hypothesis detail."""
    if not bound.hypothesis_satisfied:
        return name, "out-of-regime, informational", bound.hypothesis_detail
    return name, "pass" if count <= bound.upper else "FAIL", detail


def run_experiment(spec: ExperimentSpec, preloaded: ConfigurationSet | None = None) -> ExperimentReport:
    """Generate (or take a preloaded configuration), count, optionally
    partition, detect rich flats, evaluate every bound, and compare the
    bounds against the exact counts."""
    if preloaded is not None:
        cfg, truth = preloaded, None
    elif spec.generator is None:
        raise ValueError("an experiment needs a generator or a preloaded configuration")
    else:
        cfg, truth = _make_configuration(spec.generator, spec.seed)
    incidences = count_incidences(cfg)
    part = None
    if spec.partition is not None:
        points = _experiment_points(cfg, incidences)
        part = build_partition(points, spec.partition, seed=spec.partition_seed)
        incidences = classify_by_partition(incidences, part)

    constants = ConstantsProfile()
    lines_out = []
    add = lines_out.append
    add("# incidence4 experiment report")
    add("## spec")
    add(f"generator: {'loaded' if preloaded is not None else spec.generator.kind.value}")
    add(f"seed: {spec.seed}")
    if spec.partition is not None:
        add(
            f"partition: rounds={spec.partition.rounds} delta={spec.partition.delta} "
            f"schedule={list(spec.partition.lift_degree_schedule)} seed={spec.partition_seed}"
        )
    else:
        add("partition: none")
    add(f"epsilon: {spec.epsilon}")
    add(f"surface_degree: {spec.degree}")
    add(
        f"constants: c1={constants.c1} c2={constants.c2} "
        f"c3={constants.c3} c4={constants.c4}"
    )
    add(f"strict: {spec.strict}")
    add("")
    add(f"provenance: {cfg.provenance}")
    add(f"config_digest: {cfg.digest()}")
    add(f"L: {cfg.num_lines}")
    add(f"S: {cfg.num_planes}")
    add("")
    add("## incidences")
    add(report_to_text(incidences).rstrip())
    if part is not None:
        add("")
        add("## partition")
        add(partition_to_text(part).rstrip())

    add("")
    add("## degeneracy")
    line_thr = rich_thresholds(cfg.num_lines, spec.epsilon)
    plane_thr = rich_thresholds(cfg.num_planes, spec.epsilon)
    flats, hypers, rich_lines = _rich_report(cfg, line_thr, plane_thr)
    add(f"rich_flat_threshold: {line_thr}")
    add(f"rich_hyperplane_threshold: {plane_thr}")
    lines_out += rich_lines
    if truth is not None:
        planted_flat_found = truth.flat is None or any(r.flat == truth.flat for r in flats)
        planted_hyp_found = truth.hyperplane is None or any(
            r.flat == truth.hyperplane for r in hypers
        )
        add(f"planted_flat_recovered: {planted_flat_found}")
        add(f"planted_hyperplane_recovered: {planted_hyp_found}")

    add("")
    add("## bounds")
    verdicts = []
    if cfg.num_lines >= 1 and cfg.num_planes >= 1:
        degree = max(2, part.degree if part is not None else spec.degree)
        params = BoundParams(cfg.num_lines, cfg.num_planes, degree, spec.epsilon)
        total = bnd.eval_total_and_dominance(params, constants)
        for name, res in _bound_rows(total):
            add(
                f"{name}: value={float(res.mid):.6g} "
                f"hypothesis={'ok' if res.hypothesis_satisfied else 'out-of-regime'}"
            )
        add(f"total_over_main_ratio: {float(total.ratio.mid):.6g}")
        count = incidences.point_incidences
        for name, res in (("main_bound", total.main), ("total", total.total)):
            verdicts.append(_verdict(name, res, count, f"count {count} <= {float(res.mid):.6g}"))
        if part is not None:
            zs = bnd.eval_zero_set_cases(params, constants).total
            zcount = incidences.zero_set_count
            verdicts.append(_verdict("zero_set_total", zs, zcount, f"zero-set count {zcount}"))
    else:
        add("bounds skipped: need at least one line and one plane")

    add("")
    add("## verdicts")
    failed_hypotheses = False
    for name, status, detail in verdicts:
        add(f"{name}: {status} ({detail})")
        if "out-of-regime" in status:
            failed_hypotheses = True
    hard_fail = any(status == "FAIL" for _, status, _ in verdicts)

    exit_code = EXIT_OK
    if hard_fail:
        exit_code = EXIT_INVARIANT
    elif spec.strict and failed_hypotheses:
        exit_code = EXIT_STRICT_HYPOTHESIS
    return ExperimentReport("\n".join(lines_out) + "\n", exit_code)


def partition_to_text(part: PartitionPolynomial) -> str:
    """Dump: rounds, slack, achieved degree, and each factor's sparse terms."""
    out = [
        f"rounds: {part.rounds}",
        f"delta: {part.delta}",
        f"degree: {part.degree}",
        f"reference_degree_bound: {2 ** (part.rounds / 4):.4g}",
    ]
    for i, f in enumerate(part.factors):
        out.append(f"factor {i} (degree {f.degree}):")
        for expo in sorted(f.terms, key=lambda e: (sum(e), e)):
            out.append(f"  {expo}: {f.terms[expo]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------

def grid_rows(l_values, s_values_for, d_values, eps_values):
    """One CSV row per grid point, sorted by coordinates, under the
    default constants."""
    constants = ConstantsProfile()
    rows = []
    for L in sorted(l_values):
        for S in sorted(s_values_for(L)):
            for D in sorted(d_values):
                for eps in sorted(eps_values):
                    params = BoundParams(L, S, D, eps)
                    td = bnd.eval_total_and_dominance(params, constants)
                    row = {
                        "L": L,
                        "S": S,
                        "D": D,
                        "epsilon": str(eps),
                        "c1": str(constants.c1),
                        "c2": str(constants.c2),
                        "c3": str(constants.c3),
                        "c4": str(constants.c4),
                        "main": float(td.main.mid),
                    }
                    # td.parts is ordered as the CSV columns
                    row.update((name, float(r.mid)) for name, r in td.parts.items())
                    row["total"] = float(td.total.mid)
                    row["ratio"] = float(td.ratio.mid)
                    row["in_regime"] = td.main.hypothesis_satisfied
                    row["cell_sum_below_main"] = td.parts["cell_sum"].upper < td.main.value.lo
                    rows.append(row)
    return rows


def log_spaced_s(L: int, count: int = 3) -> list[int]:
    """`count` log-spaced S values inside the regime band for L."""
    factor = bnd.REGIME_FACTOR
    n = factor * factor * L
    r = math.isqrt(n)
    lo = r + (r * r < n)  # ceil(factor * sqrt(L))
    hi = L // factor
    if lo > hi:
        return []
    if count == 1 or lo == hi:
        return sorted({lo, hi})
    vals = set()
    for i in range(count):
        v = int(round(lo * (hi / lo) ** (i / (count - 1))))
        vals.add(min(max(v, lo), hi))
    return sorted(vals)


def grid_to_csv(rows) -> str:
    if not rows:
        return "no rows\n"
    header = list(rows[0].keys())
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(row[k]) for k in header))
    return "\n".join(out) + "\n"


def grid_summary(rows) -> str:
    in_regime = [r for r in rows if r["in_regime"]]
    if not rows:
        return "no rows\n"
    lines = [f"rows: {len(rows)}", f"in_regime_rows: {len(in_regime)}"]
    if in_regime:
        worst = max(in_regime, key=lambda r: r["ratio"])
        lines.append(f"max_in_regime_ratio: {worst['ratio']:.6g}")
        lines.append(
            f"  at L={worst['L']} S={worst['S']} D={worst['D']} eps={worst['epsilon']}"
        )
        lines.append(
            f"cell_sum_below_main_everywhere: {all(r['cell_sum_below_main'] for r in in_regime)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _out_path(args, default_name: str) -> Path | None:
    if args.out == "-":
        return None
    if args.out:
        return Path(args.out)
    base = os.environ.get(OUT_DIR_ENV)
    if base:
        return Path(base) / default_name
    return None


def rational(text: str) -> Fraction:
    """An exact rational flag value such as 1/10 (a zero denominator is
    a ValueError, so argparse and `main` both report it as an error)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


# Every flag the CLI knows; each subcommand registers only those it reads
# and takes no abbreviations, so `grid --L` is an error, not `--L-list`.
_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--L": dict(type=int, default=None, help="number of lines (default 10)"),
    "--S": dict(type=int, default=None, help="number of planes (default 5)"),
    "--D": dict(type=int, default=2),
    "--epsilon": dict(type=rational, default=Fraction(1, 10), help="exact rational, e.g. 1/10"),
    "--J": dict(type=int, default=None, help="partition rounds"),
    "--delta": dict(type=rational, default=Fraction(1, 10)),
    "--format": dict(choices=("text", "csv"), default="text"),
    "--strict": dict(action="store_true", help="out-of-regime hypotheses become exit code 3"),
    "--config": dict(required=True),
    "--kind": dict(default=None, choices=[k.value for k in GeneratorKind],
                   help="generator (default generic)"),
    "--range": dict(type=int, default=None,
                    help="coordinate range of generic and planted draws (default 10^6)"),
    "--planted-lines": dict(type=int, default=None, help="(default 0)"),
    "--planted-planes": dict(type=int, default=None, help="(default 0)"),
}

# The generator flags default to None, so that `verify --config` can tell
# a flag that was given from one that was not; `_generator_from_args`
# maps None to the default.
_DRAW_FLAGS = ("--kind", "--L", "--S", "--range", "--planted-lines", "--planted-planes")
_GENERATOR_FLAGS = (*_DRAW_FLAGS, "--seed")


def _subcommand(sub, name: str, summary: str, *flags: str) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, help=summary, allow_abbrev=False)
    for flag in flags:
        sp.add_argument(flag, **_FLAGS[flag])
    sp.add_argument("--out", default=None, help="output path ('-' forces stdout)")
    return sp


def _or(value, default):
    return default if value is None else value


def _generator_from_args(args) -> GeneratorSpec:
    kind = GeneratorKind(_or(args.kind, "generic"))
    if kind is GeneratorKind.STAR and args.range is not None:
        raise ValueError("--range does not apply to --kind star")
    return GeneratorSpec(
        kind,
        num_lines=_or(args.L, 10),
        num_planes=_or(args.S, 5),
        coordinate_range=_or(args.range, 10**6),
        planted_line_count=_or(args.planted_lines, 0),
        planted_plane_count=_or(args.planted_planes, 0),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="incidence4",
        description="exact line/2-plane incidence experiments in R^4",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _subcommand(sub, "gen", "generate a configuration file", *_GENERATOR_FLAGS)
    _subcommand(sub, "count", "exact incidence census of a configuration", "--config", "--format")
    _subcommand(sub, "partition", "build a partition for a configuration",
                "--config", "--J", "--delta", "--seed", "--format")

    degen = _subcommand(sub, "degeneracy", "rich flat / hyperplane detection",
                        "--config", "--epsilon")
    degen.add_argument("--line-threshold", type=int, default=None)
    degen.add_argument("--plane-threshold", type=int, default=None)

    bounds_p = _subcommand(sub, "bounds", "evaluate every closed-form bound",
                           "--L", "--S", "--D", "--epsilon", "--format", "--strict")
    bounds_p.set_defaults(L=10, S=5)
    bounds_p.add_argument("--c1", type=rational, default=Fraction(1))
    bounds_p.add_argument("--c2", type=rational, default=Fraction(1))
    bounds_p.add_argument("--c4", type=rational, default=Fraction(1))

    grid = _subcommand(sub, "grid", "bound table over a parameter grid")
    grid.add_argument("--L-list", default="1000,10000")
    grid.add_argument("--S-list", default="auto",
                      help="'auto' = 3 log-spaced values inside the regime")
    grid.add_argument("--D-list", default="2,4")
    grid.add_argument("--epsilon-list", default="1/10,1/4,1/2")

    verify = _subcommand(sub, "verify", "full experiment with verdicts", *_GENERATOR_FLAGS,
                         "--D", "--epsilon", "--J", "--delta", "--strict")
    verify.add_argument("--config", default=None,
                        help="verify a stored configuration instead of generating")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InvariantViolationError, ParseError, SearchBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _dispatch(args) -> int:
    if args.command == "gen":
        g = _generator_from_args(args)
        cfg, _ = _make_configuration(g, args.seed)
        _emit(dumps_config(cfg), _out_path(args, f"config_{g.kind.value}_{args.seed}.json"))
        return EXIT_OK

    if args.command == "count":
        cfg = load_config(args.config)
        report = count_incidences(cfg)
        text = report_to_csv(report) if args.format == "csv" else report_to_text(report)
        _emit(text, _out_path(args, "count.txt"))
        return EXIT_OK

    if args.command == "partition":
        cfg = load_config(args.config)
        incidences = count_incidences(cfg)
        points = _experiment_points(cfg, incidences)
        rounds = args.J if args.J is not None else 3
        part = build_partition(points, PartitionParams(rounds, args.delta), seed=args.seed)
        report = classify_by_partition(incidences, part)
        text = partition_to_text(part) + "\n" + (
            report_to_csv(report, part) if args.format == "csv" else report_to_text(report)
        )
        _emit(text, _out_path(args, "partition.txt"))
        return EXIT_OK

    if args.command == "degeneracy":
        cfg = load_config(args.config)
        lt = args.line_threshold
        if lt is None:
            lt = rich_thresholds(cfg.num_lines, args.epsilon)
        pt = args.plane_threshold
        if pt is None:
            pt = rich_thresholds(cfg.num_planes, args.epsilon)
        _, _, rich_lines = _rich_report(cfg, lt, pt)
        out = [f"line_threshold: {lt}", f"plane_threshold: {pt}"] + rich_lines
        _emit("\n".join(out) + "\n", _out_path(args, "degeneracy.txt"))
        return EXIT_OK

    if args.command == "bounds":
        params = BoundParams(args.L, args.S, args.D, args.epsilon)
        constants = ConstantsProfile(args.c1, args.c2, args.c4)
        td = bnd.eval_total_and_dominance(params, constants)
        rows = _bound_rows(td)
        if args.format == "csv":
            out = ["name,value,hypothesis_ok,detail"]
            for name, r in rows:
                out.append(f"{name},{float(r.mid)!r},{r.hypothesis_satisfied},\"{r.hypothesis_detail}\"")
            out.append(f"ratio,{float(td.ratio.mid)!r},,")
            text = "\n".join(out) + "\n"
        else:
            out = []
            for name, r in rows:
                flag = "ok" if r.hypothesis_satisfied else "out-of-regime"
                out.append(f"{name}: {float(r.mid):.6g} [{flag}] {r.hypothesis_detail}")
            out.append(f"ratio: {float(td.ratio.mid):.6g}")
            out.append(f"dominance_ok (<= {bnd.DOMINANCE_CONSTANT}x main per part): {td.dominance_ok}")
            text = "\n".join(out) + "\n"
        _emit(text, _out_path(args, "bounds.txt"))
        if args.strict and not td.total.hypothesis_satisfied:
            return EXIT_STRICT_HYPOTHESIS
        return EXIT_OK

    if args.command == "grid":
        l_values = [int(v) for v in args.L_list.split(",") if v]
        d_values = [int(v) for v in args.D_list.split(",") if v]
        eps_values = [rational(v) for v in args.epsilon_list.split(",") if v]
        if args.S_list == "auto":
            s_for = log_spaced_s
        else:
            fixed = [int(v) for v in args.S_list.split(",") if v]

            def s_for(_l, fixed=fixed):
                return fixed

        rows = grid_rows(l_values, s_for, d_values, eps_values)
        text = grid_to_csv(rows) + grid_summary(rows)
        _emit(text, _out_path(args, "grid.csv"))
        return EXIT_OK

    if args.command == "verify":
        if args.config:
            given = [f for f in _DRAW_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
            if given:
                raise ValueError(f"{' '.join(given)}: generator flags do not apply to --config")
            cfg = load_config(args.config)
            generator, seed = None, cfg.seed
        else:
            cfg, generator, seed = None, _generator_from_args(args), args.seed
        spec = ExperimentSpec(
            generator,
            seed=seed,
            partition=PartitionParams(args.J, args.delta) if args.J is not None else None,
            partition_seed=args.seed,
            epsilon=args.epsilon,
            degree=args.D,
            strict=args.strict,
        )
        report = run_experiment(spec, preloaded=cfg)
        _emit(report.text, _out_path(args, "experiment.txt"))
        return report.exit_code

    raise ValueError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
