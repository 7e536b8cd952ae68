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
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exactpoly import common_denominator, rat
from .flats import (
    Flat2,
    Hyperplane3,
    InvariantViolationError,
    Line4,
    flat2_in_hyperplane,
    independent,
    leading_entry,
    line_in_flat2,
    vdot,
)

REJECTION_BUDGET = 20_000
STAR_COORDINATE_RANGE = 1000  # directions of star lines and planes, per coordinate


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


def _draw_span(rng: random.Random, bound: int):
    """Two independent nonzero integer vectors."""
    for _ in range(REJECTION_BUDGET):
        u = _draw_nonzero(rng, bound)
        v = _draw_nonzero(rng, bound)
        if independent(u, v):
            return u, v
    raise RejectionBudgetError("could not draw independent spanning vectors")


def _draw_plane(rng: random.Random, bound: int) -> Flat2:
    u, v = _draw_span(rng, bound)
    return Flat2(_draw_vec(rng, bound), u, v)


def _fill_distinct(
    target: int, draw, budget_label: str, error_cls=RangeTooSmallError, taken=()
):
    """`target` distinct draws, in draw order, skipping None and anything
    in `taken`; a target of 0 or less draws nothing."""
    seen = dict.fromkeys(taken)
    start = len(seen)
    attempts = 0
    while len(seen) < start + target:
        attempts += 1
        if attempts > REJECTION_BUDGET + 10 * target:
            raise error_cls(f"could not produce {target} distinct {budget_label}")
        obj = draw()
        if obj is not None and obj not in seen:
            seen[obj] = None
    return list(seen)[start:]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _check_range(coordinate_range: int) -> None:
    """Generic and planted draws need a coordinate range of at least 2."""
    if coordinate_range < 2:
        raise RangeTooSmallError("coordinate_range must be at least 2")


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
    _check_range(coordinate_range)
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
) -> ConfigurationSet:
    """All lines and planes through one center, no line inside any plane.

    Every (line, plane) pair then meets at exactly the center, realizing
    the worst case of num_lines * num_planes incidences.
    """
    rng = random.Random(seed)
    c = tuple(rat(x) for x in center)
    m, p = common_denominator(c)

    def draw_plane():
        u, v = _draw_span(rng, STAR_COORDINATE_RANGE)
        _draw_vec(rng, STAR_COORDINATE_RANGE)  # drawn and discarded, as `_draw_plane` draws a base
        return Flat2(p, u, v, den=m)

    planes = _fill_distinct(num_planes, draw_plane, "planes")

    def draw_line():
        d = _draw_nonzero(rng, STAR_COORDINATE_RANGE)
        ln = Line4(p, d, den=m)
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
    _check_range(spec.coordinate_range)
    rng = random.Random(seed)
    bound = spec.coordinate_range
    small = min(bound, 50)

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
        # flat.point_at(a, b) and cu*u + cv*v in integers: u = U/su and
        # v = V/sv for the flat's basis rows U, V and their leading entries.
        fu, fv, p, m = flat.integer_form
        su, sv = leading_entry(fu), leading_entry(fv)
        base = tuple(su * sv * x + m * (a * sv * y + b * su * z) for x, y, z in zip(p, fu, fv))
        direction = tuple(cu * sv * y + cv * su * z for y, z in zip(fu, fv))
        return Line4(base, direction, den=m * su * sv)

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
        if not flat2_in_hyperplane(pl, hyper):
            raise AssertionError("planted plane left its hyperplane")
        return pl

    def draw_generic_plane():
        pl = _draw_plane(rng, bound)
        if hyper is not None and flat2_in_hyperplane(pl, hyper):
            return None
        return pl

    planted_lines = _fill_distinct(k_lines, draw_planted_line, "planted lines")
    generic_lines = _fill_distinct(
        spec.num_lines - k_lines, draw_generic_line, "lines", taken=planted_lines
    )
    planted_planes = _fill_distinct(k_planes, draw_planted_plane, "planted planes")
    generic_planes = _fill_distinct(
        spec.num_planes - k_planes, draw_generic_plane, "planes", taken=planted_planes
    )

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


def _ratio_strs(nums, den: int):
    """str(Fraction(x, den)) for each int x, den > 0, from one gcd each."""
    for x in nums:
        g = math.gcd(x, den)
        yield str(x // g) if g == den else f"{x // g}/{den // g}"


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


def _json_objects(objects) -> str:
    """A JSON list, at depth 1 of indent=2, of objects whose sorted keys
    map to vectors of rationals nums/den, each given as (key, nums, den);
    str() of a rational needs no escaping."""
    if not objects:
        return "[]"
    items = (
        "    {\n"
        + ",\n".join(
            f'      "{key}": [\n        "'
            + '",\n        "'.join(_ratio_strs(nums, den))
            + '"\n      ]'
            for key, nums, den in fields
        )
        + "\n    }"
        for fields in objects
    )
    return "[\n" + ",\n".join(items) + "\n  ]"


def dumps_config(cfg: ConfigurationSet) -> str:
    """The bytes of json.dumps(config_to_dict(cfg), sort_keys=True,
    indent=2) + "\n", rendered directly from the integer forms: the
    indenting encoder is pure Python, `ConfigurationSet.digest` hashes
    this text on every run, and the `Fraction` views need not be built.
    A line's direction and a plane's u and v are their primitive integer
    rows over the rows' leading entries (see `Line4` and `Flat2`)."""
    lines = []
    for ln in cfg.lines:
        d, p, m = ln.integer_form
        lines.append((("d", d, leading_entry(d)), ("p", p, m)))
    planes = []
    for pl in cfg.planes:
        u, v, p, m = pl.integer_form
        planes.append((("q", p, m), ("u", u, leading_entry(u)), ("v", v, leading_entry(v))))
    lines, planes = _json_objects(lines), _json_objects(planes)
    return (
        f'{{\n  "lines": {lines},\n  "planes": {planes},\n'
        f'  "provenance": {json.dumps(cfg.provenance)},\n  "seed": {json.dumps(cfg.seed)}\n}}\n'
    )


def loads_config(text: str) -> ConfigurationSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from exc
    return config_from_dict(data)


def load_config(source) -> ConfigurationSet:
    """The configuration at `source`; an unreadable file is a ParseError."""
    try:
        return loads_config(Path(source).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read configuration: {exc}") from exc
