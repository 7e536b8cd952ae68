"""Integer-only census objects and their Fraction views.

`Line4`, `Flat2` and a point incidence store integers only; `base`,
`direction`, `u`, `v` and `location` are views built on first read.  Each
view is checked against an independent oracle: `flats.rref` of the
spanning vectors for a 2-flat's basis and reduced base, and direct
Fraction arithmetic for lines and locations.  The inputs are seeded
random rationals, both orders of every pair of spanning vectors (so the
leading 2x2 minor takes both signs), and configurations loaded from
"num/den" strings.  `dumps_config`, which renders from the integer forms,
is checked byte for byte against the JSON encoder on the same
configurations.  Finally the census path runs with every view replaced by
one that raises, and still prints its pinned report bytes.
"""

import hashlib
import json
import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from incidence4 import flats
from incidence4.cli import ExperimentSpec, run_experiment
from incidence4.configs import (
    ConfigurationSet,
    GeneratorKind,
    GeneratorSpec,
    config_to_dict,
    dumps_config,
    gen_generic,
    gen_planted,
    gen_star,
    loads_config,
)
from incidence4.counting import count_incidences
from incidence4.flats import (
    Flat2,
    IncidenceKind,
    Line4,
    classify_line_flat2,
    matrix_rank,
    vadd,
    vscale,
    vsub,
)

CASES = 200


def _rational(rng: random.Random):
    """An int, an integral Fraction, or a Fraction over a small denominator."""
    pick = rng.randrange(3)
    if pick == 0:
        return rng.randint(-9, 9)
    if pick == 1:
        return F(rng.randint(-9, 9))
    return F(rng.randint(-30, 30), rng.randint(1, 7))


def _rvec(rng: random.Random, zeros: int = 0):
    """A rational 4-vector with up to `zeros` leading zeros."""
    lead = rng.randint(0, zeros)
    return tuple(0 if i < lead else _rational(rng) for i in range(4))


def _line_inputs(rng: random.Random):
    while True:
        direction = _rvec(rng, zeros=3)
        if any(direction):
            return _rvec(rng), direction


def _span_inputs(rng: random.Random):
    while True:
        u, v = _rvec(rng, zeros=2), _rvec(rng, zeros=2)
        if matrix_rank([u, v]) == 2:
            return u, v


def _leading_minor(u, v) -> F:
    """The first nonzero 2x2 minor u_i v_j - u_j v_i, i < j, in lexicographic order."""
    return next(
        m for i in range(4) for j in range(i + 1, 4) if (m := F(u[i]) * v[j] - F(u[j]) * v[i])
    )


def _lines(seed: int):
    rng = random.Random(seed)
    return [(*case, Line4(*case)) for case in (_line_inputs(rng) for _ in range(CASES))]


def _flats(seed: int):
    """(base, u, v, flat) with every span drawn in both orders."""
    rng = random.Random(seed)
    out = []
    for _ in range(CASES // 2):
        base = _rvec(rng)
        u, v = _span_inputs(rng)
        out += [(base, u, v, Flat2(base, u, v)), (base, v, u, Flat2(base, v, u))]
    return out


def _loaded(seed: int) -> str:
    """A configuration file whose coordinates are "num/den" strings."""
    rng = random.Random(seed)
    as_str = lambda vec: [str(F(x)) for x in vec]  # noqa: E731
    lines = [{"p": as_str(b), "d": as_str(d)} for b, d in (_line_inputs(rng) for _ in range(20))]
    planes = []
    for _ in range(20):
        u, v = _span_inputs(rng)
        planes.append({"q": as_str(_rvec(rng)), "u": as_str(u), "v": as_str(v)})
    return json.dumps({"lines": lines, "planes": planes, "seed": seed, "provenance": "loaded"})


# ---------------------------------------------------------------------------
# Views against independent oracles
# ---------------------------------------------------------------------------

def _check_line(ln: Line4, base, direction) -> None:
    k = next(i for i, x in enumerate(direction) if x)
    d = vscale(direction, 1 / F(direction[k]))
    assert ln.direction == d
    assert ln.base == vsub(tuple(map(F, base)), vscale(d, base[k]))
    assert all(type(x) is F for x in (*ln.base, *ln.direction))
    assert ln.base is ln.base and ln.direction is ln.direction


def _check_flat(fl: Flat2, base, u, v) -> None:
    rows, (p0, p1) = flats.rref([u, v])
    r1, r2 = tuple(rows[0]), tuple(rows[1])
    assert (fl.u, fl.v) == (r1, r2)
    b = tuple(map(F, base))
    assert fl.base == vsub(b, vadd(vscale(r1, b[p0]), vscale(r2, b[p1])))
    assert all(type(x) is F for x in (*fl.base, *fl.u, *fl.v))
    assert fl.base is fl.base and fl.u is fl.u and fl.v is fl.v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_line_views_match_fraction_arithmetic(seed):
    for base, direction, ln in _lines(seed):
        _check_line(ln, base, direction)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_views_match_rref(seed):
    signs = set()
    for base, u, v, fl in _flats(seed):
        _check_flat(fl, base, u, v)
        signs.add(_leading_minor(u, v) > 0)
    assert signs == {False, True}


def test_loaded_views_match_oracles():
    text = _loaded(5)
    cfg = loads_config(text)
    data = json.loads(text)
    for ln, item in zip(cfg.lines, data["lines"]):
        _check_line(ln, tuple(map(F, item["p"])), tuple(map(F, item["d"])))
    for fl, item in zip(cfg.planes, data["planes"]):
        _check_flat(fl, *(tuple(map(F, item[k])) for k in "quv"))


def test_base_over_den_is_the_same_object():
    rng = random.Random(7)
    for _ in range(CASES):
        den = rng.randint(1, 9)
        num = tuple(rng.randint(-20, 20) for _ in range(4))
        base = tuple(F(x, den) for x in num)
        _, direction = _line_inputs(rng)
        u, v = _span_inputs(rng)
        assert Line4(num, direction, den=den) == Line4(base, direction)
        assert Flat2(num, u, v, den=den) == Flat2(base, u, v)


@pytest.mark.parametrize("seed", [0, 1])
def test_location_matches_fraction_arithmetic(seed):
    """A line through X = base + a*u + b*v along a direction off the
    flat's span meets the flat at exactly X."""
    rng = random.Random(100 + seed)
    for base, u, v, fl in _flats(seed):
        a, b = _rational(rng), _rational(rng)
        x = vadd(tuple(map(F, base)), vadd(vscale(u, a), vscale(v, b)))
        d = _rvec(rng)
        if matrix_rank([u, v, d]) < 3:
            continue
        ln = Line4(vadd(x, vscale(d, _rational(rng))), d)
        out = classify_line_flat2(ln, fl)
        assert out.kind is IncidenceKind.POINT
        assert out.location == x
        assert all(type(c) is F for c in out.location)
        nums, den = out.integer_location
        assert den > 0 and math.gcd(den, *nums) == 1
        cfg = ConfigurationSet((ln,), (fl,))
        (rec,) = count_incidences(cfg).records
        assert rec.integer_location == out.integer_location and rec.location == x


def test_views_cannot_be_assigned():
    ln = Line4((1, 2, 3, 4), (0, 2, 0, 1))
    fl = Flat2((1, 2, 3, 4), (1, 0, 0, 0), (0, 1, 0, 0))
    for obj, name in ((ln, "integer_form"), (ln, "_base"), (fl, "equations"), (fl, "_u")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)


# ---------------------------------------------------------------------------
# dumps_config from the integer forms
# ---------------------------------------------------------------------------

CONFIGURATIONS = {
    "random": lambda: ConfigurationSet(
        tuple(dict.fromkeys(ln for *_, ln in _lines(3))),
        tuple(dict.fromkeys(fl for *_, fl in _flats(3))),
        3,
        "random rationals",
    ),
    "loaded": lambda: loads_config(_loaded(6)),
    "generic": lambda: gen_generic(20, 10, seed=4),
    "star": lambda: gen_star(6, 5, center=(1, "-7/2", "2/3", 0), seed=4),
    "planted-rich-flat": lambda: gen_planted(
        GeneratorSpec(GeneratorKind.PLANTED_RICH_FLAT, 16, 16, 1000, planted_line_count=6), seed=4
    )[0],
    "planted-rich-hyperplane": lambda: gen_planted(
        GeneratorSpec(GeneratorKind.PLANTED_RICH_HYPERPLANE, 16, 16, 1000, planted_plane_count=6),
        seed=4,
    )[0],
    "empty": lambda: ConfigurationSet((), (), None, ""),
}


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_dumps_config_matches_the_json_encoder(name):
    cfg = CONFIGURATIONS[name]()
    assert dumps_config(cfg) == json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The census path builds no view
# ---------------------------------------------------------------------------

# SHA-256 of run_experiment(ExperimentSpec(generator, seed=7)).text, recorded
# while the views were still eager fields.
CENSUS_SHA256 = [
    (GeneratorSpec(GeneratorKind.GENERIC, 50, 30),
     "43c99a554b2d9f00c983a13462508dc90c91f4278f883c6bc29a6dcae6ecc4ce"),
    (GeneratorSpec(GeneratorKind.STAR, 45, 45),
     "bb9cb2e6b204eadb53d0b0eba921fc7aa6fac54aed13ba0dd5a4ab064a5e7c1b"),
    (GeneratorSpec(GeneratorKind.PLANTED_RICH_FLAT, 60, 40, planted_line_count=14),
     "64b38655c9c6e3ea44a12f3f5642c0d1a2cc0458b9f2f1f8e023a966149561df"),
    (GeneratorSpec(GeneratorKind.PLANTED_RICH_HYPERPLANE, 50, 50, planted_plane_count=13),
     "0490bd21bd4a32b6d3b10d91c6d32157b38cecc5dfecc070487d1712eb35823b"),
    (GeneratorSpec(GeneratorKind.MIXED, 40, 40, planted_line_count=10, planted_plane_count=10),
     "51617d77f9448b3e0fb6286b710fbf4d0b49ec8b08628c942db77fd8d244efff"),
]


def _forbidden(self):
    raise AssertionError("the census path must not build a Fraction view")


@pytest.mark.parametrize("generator, digest", CENSUS_SHA256, ids=[g.kind.value for g, _ in CENSUS_SHA256])
def test_census_path_reads_no_view(generator, digest, monkeypatch):
    """Generate, count, detect and digest with every view raising."""
    for owner, names in ((Line4, ("base", "direction")), (Flat2, ("base", "u", "v")),
                         (flats.Located, ("location",))):
        for name in names:
            monkeypatch.setattr(owner, name, property(_forbidden))
    report = run_experiment(ExperimentSpec(generator, seed=7))
    assert hashlib.sha256(report.text.encode()).hexdigest() == digest
