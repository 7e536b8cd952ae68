"""Seeded generation and persistence of line / 2-plane configurations.

Generators draw integer coordinates from a bounded range, which keeps
rational bit-sizes small downstream while preserving desk-scale
genericity; every structural invariant (nonzero directions, independent
spans, no duplicates, planted memberships) is enforced by exact checks
at generation time, never assumed.

The file format is JSON with rationals serialized as "num/den" strings
(denominator positive, "3" and "-7/2" style); serialization of a given
configuration is byte-deterministic.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exactpoly import rat
from .flats import (
    Flat2,
    Hyperplane3,
    InvariantViolationError,
    Line4,
    flat2_in_hyperplane,
    independent,
    line_in_flat2,
    vdot,
)

REJECTION_BUDGET = 20_000


class RangeTooSmallError(ValueError):
    """The coordinate range cannot supply enough distinct objects."""


class RejectionBudgetError(RuntimeError):
    """Exact rejection sampling failed to satisfy the invariants in budget."""


class ParseError(ValueError):
    """Malformed configuration file; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ConfigurationSet:
    """The lines and 2-planes of one experiment, with provenance."""

    lines: tuple[Line4, ...]
    planes: tuple[Flat2, ...]
    seed: int | None = None
    provenance: str = ""

    def __post_init__(self):
        if len(set(self.lines)) != len(self.lines):
            raise InvariantViolationError("duplicate lines in configuration")
        if len(set(self.planes)) != len(self.planes):
            raise InvariantViolationError("duplicate planes in configuration")

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @property
    def num_planes(self) -> int:
        return len(self.planes)

    def digest(self) -> str:
        """Content hash of the canonical serialization."""
        return hashlib.sha256(dumps_config(self).encode()).hexdigest()


class GeneratorKind(enum.Enum):
    GENERIC = "generic"
    STAR = "star"
    PLANTED_RICH_FLAT = "planted-rich-flat"
    PLANTED_RICH_HYPERPLANE = "planted-rich-hyperplane"
    MIXED = "mixed"


@dataclass(frozen=True)
class GeneratorSpec:
    kind: GeneratorKind
    num_lines: int = 0
    num_planes: int = 0
    coordinate_range: int = 10**6
    planted_line_count: int = 0
    planted_plane_count: int = 0
    center: tuple = (0, 0, 0, 0)

    def __post_init__(self):
        if self.num_lines < 0 or self.num_planes < 0:
            raise InvariantViolationError("object counts must be nonnegative")
        if self.planted_line_count > self.num_lines:
            raise InvariantViolationError("planted line count exceeds total")
        if self.planted_plane_count > self.num_planes:
            raise InvariantViolationError("planted plane count exceeds total")


@dataclass(frozen=True)
class PlantedGroundTruth:
    """What gen_planted actually planted, for exact recovery checks."""

    flat: Flat2 | None = None
    flat_line_indices: tuple[int, ...] = ()
    hyperplane: Hyperplane3 | None = None
    hyperplane_plane_indices: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Random draws (integer coordinates, exact rejection)
# ---------------------------------------------------------------------------

def _draw_vec(rng: random.Random, bound: int):
    return tuple(rng.randint(-bound, bound) for _ in range(4))


def _draw_nonzero(rng: random.Random, bound: int):
    for _ in range(REJECTION_BUDGET):
        v = _draw_vec(rng, bound)
        if any(v):
            return v
    raise RejectionBudgetError("could not draw a nonzero vector")


def _draw_line(rng: random.Random, bound: int) -> Line4:
    return Line4(_draw_vec(rng, bound), _draw_nonzero(rng, bound))


def _draw_plane(rng: random.Random, bound: int) -> Flat2:
    for _ in range(REJECTION_BUDGET):
        u = _draw_nonzero(rng, bound)
        v = _draw_nonzero(rng, bound)
        if independent(u, v):
            return Flat2(_draw_vec(rng, bound), u, v)
    raise RejectionBudgetError("could not draw independent spanning vectors")


def _fill_distinct(target: int, draw, budget_label: str, error_cls=RangeTooSmallError):
    seen: dict = {}
    attempts = 0
    while len(seen) < target:
        attempts += 1
        if attempts > REJECTION_BUDGET + 10 * target:
            raise error_cls(f"could not produce {target} distinct {budget_label}")
        obj = draw()
        if obj is not None and obj not in seen:
            seen[obj] = None
    return list(seen)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_generic(
    num_lines: int,
    num_planes: int,
    seed: int | None = None,
    coordinate_range: int = 10**6,
) -> ConfigurationSet:
    """Uniform integer-coordinate lines and planes, deduplicated exactly.

    Deterministic for a given seed; with a fresh seed and a wide range
    the result has no point incidences and no containments (the suite
    verifies this exactly for its pinned seeds rather than statistically).
    """
    if coordinate_range < 2:
        raise RangeTooSmallError("coordinate_range must be at least 2")
    rng = random.Random(seed)
    lines = _fill_distinct(num_lines, lambda: _draw_line(rng, coordinate_range), "lines")
    planes = _fill_distinct(num_planes, lambda: _draw_plane(rng, coordinate_range), "planes")
    return ConfigurationSet(
        tuple(lines),
        tuple(planes),
        seed,
        f"generic(L={num_lines}, S={num_planes}, range={coordinate_range})",
    )


def gen_star(
    num_lines: int,
    num_planes: int,
    center=(0, 0, 0, 0),
    seed: int | None = None,
    coordinate_range: int = 1000,
) -> ConfigurationSet:
    """All lines and planes through one center, no line inside any plane.

    Every (line, plane) pair then meets at exactly the center, realizing
    the worst case of num_lines * num_planes incidences.
    """
    rng = random.Random(seed)
    c = tuple(rat(x) for x in center)

    def draw_plane():
        p = _draw_plane(rng, coordinate_range)
        return Flat2(c, p.u, p.v)

    planes = _fill_distinct(num_planes, draw_plane, "planes")

    def draw_line():
        d = _draw_nonzero(rng, coordinate_range)
        ln = Line4(c, d)
        for pl in planes:
            if all(vdot(n, d) == 0 for n, _ in pl.equations):
                return None  # direction inside the plane's span: rejected
        return ln

    lines = _fill_distinct(num_lines, draw_line, "star lines", RejectionBudgetError)
    return ConfigurationSet(
        tuple(lines),
        tuple(planes),
        seed,
        f"star(L={num_lines}, S={num_planes}, center={[str(x) for x in c]})",
    )


def gen_planted(spec: GeneratorSpec, seed: int | None = None):
    """Configuration with a planted rich 2-flat and/or rich hyperplane.

    Returns (configuration, ground_truth).  Designated lines are placed
    inside one recorded 2-flat (integer combinations of its span), the
    other lines are generic and exactly verified to avoid it; planted
    planes sit inside one recorded hyperplane likewise.
    """
    if spec.kind not in (
        GeneratorKind.PLANTED_RICH_FLAT,
        GeneratorKind.PLANTED_RICH_HYPERPLANE,
        GeneratorKind.MIXED,
    ):
        raise InvariantViolationError(f"gen_planted cannot build kind {spec.kind}")
    rng = random.Random(seed)
    bound = spec.coordinate_range
    small = max(2, min(bound, 50))

    want_flat = spec.kind in (GeneratorKind.PLANTED_RICH_FLAT, GeneratorKind.MIXED)
    want_hyp = spec.kind in (GeneratorKind.PLANTED_RICH_HYPERPLANE, GeneratorKind.MIXED)
    k_lines = spec.planted_line_count if want_flat else 0
    k_planes = spec.planted_plane_count if want_hyp else 0

    flat = _draw_plane(rng, bound) if k_lines else None
    hyper = _draw_hyperplane(rng, bound) if k_planes else None

    def draw_planted_line():
        a, b = rng.randint(-small, small), rng.randint(-small, small)
        cu, cv = rng.randint(-small, small), rng.randint(-small, small)
        if cu == 0 and cv == 0:
            return None
        base = flat.point_at(a, b)
        direction = tuple(cu * x + cv * y for x, y in zip(flat.u, flat.v))
        return Line4(base, direction)

    def draw_generic_line():
        ln = _draw_line(rng, bound)
        if flat is not None and line_in_flat2(ln, flat):
            return None
        return ln

    def draw_planted_plane():
        base = _hyperplane_point(rng, hyper.normal, hyper.offset, small)
        u = _hyperplane_point(rng, hyper.normal, 0, small)
        v = _hyperplane_point(rng, hyper.normal, 0, small)
        if not independent(u, v):
            return None
        pl = Flat2(base, u, v)
        assert flat2_in_hyperplane(pl, hyper)
        return pl

    def draw_generic_plane():
        pl = _draw_plane(rng, bound)
        if hyper is not None and flat2_in_hyperplane(pl, hyper):
            return None
        return pl

    planted_lines = _fill_distinct(k_lines, draw_planted_line, "planted lines") if k_lines else []
    generic_lines = []
    if spec.num_lines > k_lines:
        taken = set(planted_lines)

        def fresh_line():
            ln = draw_generic_line()
            return None if ln is None or ln in taken else ln

        generic_lines = _fill_distinct(spec.num_lines - k_lines, fresh_line, "lines")

    planted_planes = _fill_distinct(k_planes, draw_planted_plane, "planted planes") if k_planes else []
    generic_planes = []
    if spec.num_planes > k_planes:
        taken_p = set(planted_planes)

        def fresh_plane():
            pl = draw_generic_plane()
            return None if pl is None or pl in taken_p else pl

        generic_planes = _fill_distinct(spec.num_planes - k_planes, fresh_plane, "planes")

    lines = tuple(planted_lines + generic_lines)
    planes = tuple(planted_planes + generic_planes)
    truth = PlantedGroundTruth(
        flat=flat,
        flat_line_indices=tuple(range(k_lines)),
        hyperplane=hyper,
        hyperplane_plane_indices=tuple(range(k_planes)),
    )
    cfg = ConfigurationSet(
        lines,
        planes,
        seed,
        f"planted(kind={spec.kind.value}, L={spec.num_lines}, S={spec.num_planes}, "
        f"k_lines={k_lines}, k_planes={k_planes}, range={bound})",
    )
    return cfg, truth


def _draw_hyperplane(rng: random.Random, bound: int) -> Hyperplane3:
    pivot = rng.randrange(4)
    normal = [rng.randint(-bound, bound) for _ in range(4)]
    normal[pivot] = 1  # unit pivot keeps lattice points integral
    return Hyperplane3(tuple(normal), rng.randint(-bound, bound))


def _hyperplane_point(rng: random.Random, normal, offset, small: int):
    """Random point of {x : normal . x = offset}; offset 0 gives a
    direction inside the hyperplane."""
    # First normal coordinate is 1 in canonical form.
    pivot = next(i for i, x in enumerate(normal) if x != 0)
    coords = [Fraction(rng.randint(-small, small)) for _ in range(4)]
    rest = sum(normal[i] * coords[i] for i in range(4) if i != pivot)
    coords[pivot] = (offset - rest) / normal[pivot]
    return tuple(coords)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _vec_json(v) -> list[str]:
    return [str(x) for x in v]


def _parse_vec(values, what: str):
    if not isinstance(values, list) or len(values) != 4:
        raise ParseError(f"{what} must be a list of 4 rationals")
    out = []
    for s in values:
        try:
            out.append(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r} in {what}: {exc}") from exc
    return tuple(out)


def config_to_dict(cfg: ConfigurationSet) -> dict:
    return {
        "lines": [
            {"p": _vec_json(ln.base), "d": _vec_json(ln.direction)} for ln in cfg.lines
        ],
        "planes": [
            {"q": _vec_json(pl.base), "u": _vec_json(pl.u), "v": _vec_json(pl.v)}
            for pl in cfg.planes
        ],
        "seed": cfg.seed,
        "provenance": cfg.provenance,
    }


def config_from_dict(data: dict) -> ConfigurationSet:
    if not isinstance(data, dict):
        raise ParseError("configuration must be a JSON object")
    try:
        lines = tuple(
            Line4(_parse_vec(item["p"], "line base"), _parse_vec(item["d"], "line direction"))
            for item in data.get("lines", [])
        )
        planes = tuple(
            Flat2(
                _parse_vec(item["q"], "plane base"),
                _parse_vec(item["u"], "plane span u"),
                _parse_vec(item["v"], "plane span v"),
            )
            for item in data.get("planes", [])
        )
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParseError("seed must be an integer or null")
    return ConfigurationSet(lines, planes, seed, str(data.get("provenance", "")))


def dumps_config(cfg: ConfigurationSet) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def save_config(cfg: ConfigurationSet, destination) -> None:
    Path(destination).write_text(dumps_config(cfg), encoding="utf-8")


def loads_config(text: str) -> ConfigurationSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from exc
    return config_from_dict(data)


def load_config(source) -> ConfigurationSet:
    return loads_config(Path(source).read_text(encoding="utf-8"))
