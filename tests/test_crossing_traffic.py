"""The stored crossing traffic through the shared lift and the lattice rows.

`perfbench/data/crossing_partition.json` holds the criterion-3 partition
(8 factors of degrees 1, 1, 1, 2, 3, 4, 5, 6) and `golden.json` the 400
lines and 200 flats the crossing benchmark replays, each line with its
exact (distinct cells, zero-set hits).  Both are read here, never
written, and rebuilt through `SparsePoly`, `Line4` and `Flat2`.

The restrictions of all 8 factors to every stored object, through one
lift per object, are pinned by a SHA-256 recorded when each factor still
lifted the object on its own.  Each stored line's profile (root count,
samples and sign vectors) and the number of interval halvings it takes
are pinned from when isolated roots still held Fraction endpoints; the
roots of every stored restriction are isolated and merged with
`exactpoly.Fraction`, `exactpoly.rat`, the `lo`/`hi` views and Fraction
arithmetic and ordering all raising.  `flat2_crossing_stats` scores its lattice
points on rows built once per (sample_budget, degree); the tests check
that a warm call builds none and gives the cold call's counts.
"""

import hashlib
import json
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from incidence4 import exactpoly, partition
from incidence4.exactpoly import (
    IsolatedRoot,
    SparsePoly,
    _row_index,
    compose_affine_all,
    isolate_real_roots,
    merge_real_roots,
    restrict_all_to_line,
    sample_points_between_roots,
    sign_vectors,
)
from incidence4.flats import Flat2, Line4
from incidence4.partition import (
    FlatInZeroSetError,
    LineInZeroSetError,
    PartitionPolynomial,
    flat2_crossing_stats,
    line_cell_profile,
    line_crossing_stats,
)

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

# SHA-256 of the restrictions below, from one `restrict_to_line` or
# `restrict_to_flat2` call per factor and object.
RESTRICTIONS_SHA256 = "696385865ef10faabfae9e728c58b0f32242c19dde52a01eee660836a3e34c9f"

# SHA-256 of (root count, samples, sign vectors) of `line_cell_profile`
# on every stored line, and the `IsolatedRoot.refined` calls they make.
PROFILES_SHA256 = "55d01eca31acfe3bfdb916f2d3b8d994cf074ab8f7f8f6a05ce3d1655f100ba5"
PROFILE_REFINEMENTS = 27_518


@pytest.fixture(scope="module")
def stored():
    dump = json.loads((DATA / "crossing_partition.json").read_text(encoding="utf-8"))
    factors = tuple(
        SparsePoly(4, {tuple(e): F(c) for e, c in f["terms"]}) for f in dump["factors"]
    )
    traffic = json.loads((DATA / "golden.json").read_text(encoding="utf-8"))["crossing"]
    lines = [(Line4(base, d), (cells, hits)) for base, d, cells, hits in traffic["lines"]]
    flats = [(Flat2(base, u, v), seen) for base, u, v, seen in traffic["flats"]]
    return PartitionPolynomial(factors, F(dump["delta"])), lines, flats


def test_stored_restrictions_are_pinned(stored):
    part, lines, flats = stored
    assert [f.degree for f in part.factors] == [1, 1, 1, 2, 3, 4, 5, 6]
    digest = hashlib.sha256()
    for ln, _ in lines:
        rs = restrict_all_to_line(part.factors, ln)
        digest.update(json.dumps([[list(r.integer_coeffs), str(r.integer_scale)] for r in rs]).encode())
    for fl, _ in flats:
        gs = compose_affine_all(part.factors, fl.base, (fl.u, fl.v))
        digest.update(json.dumps([
            [sorted([list(e), c] for e, c in zip(_row_index(g.degree, 2), g.integer_coeffs) if c),
             str(g.integer_scale)]
            for g in gs
        ]).encode())
    assert digest.hexdigest() == RESTRICTIONS_SHA256


def test_stored_line_answers(stored):
    part, lines, _ = stored
    for k, (ln, want) in enumerate(lines):
        stats = line_crossing_stats(ln, part)
        assert (stats.distinct_cells, stats.zero_set_hits) == want, f"line {k}"


def test_stored_line_profiles_are_pinned(stored, monkeypatch):
    part, lines, _ = stored
    calls = []
    halve = IsolatedRoot.refined

    def counted(root):
        calls.append(None)
        return halve(root)

    monkeypatch.setattr(IsolatedRoot, "refined", counted)
    digest = hashlib.sha256()
    for ln, _ in lines:
        roots, samples, vectors = line_cell_profile(ln, part)
        digest.update(json.dumps([len(roots), [str(t) for t in samples], vectors]).encode())
    assert digest.hexdigest() == PROFILES_SHA256
    assert len(calls) == PROFILE_REFINEMENTS


def _forbidden(*_):
    raise AssertionError("the root layer must not make or read a Fraction")


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_root_layer_builds_no_fraction(stored, monkeypatch):
    """Isolate and merge every stored line's restrictions with Fractions
    forbidden in `exactpoly`, then take the samples: each leaves as a
    Fraction built once from its integer pair, with no Fraction
    arithmetic or comparison, and they are `line_cell_profile`'s."""
    part, lines, _ = stored
    work = [
        ([r for r in restrict_all_to_line(part.factors, ln) if r.degree >= 1],
         line_cell_profile(ln, part)[1])
        for ln, _ in lines
    ]
    built = []

    def build(*args):
        built.append(args)
        return F(*args)

    with monkeypatch.context() as m:
        for name in FRACTION_OPERATORS:
            m.setattr(F, name, _forbidden)
        m.setattr(IsolatedRoot, "lo", property(_forbidden))
        m.setattr(IsolatedRoot, "hi", property(_forbidden))
        m.setattr(exactpoly, "rat", _forbidden)
        m.setattr(exactpoly, "Fraction", _forbidden)
        merged = [merge_real_roots([isolate_real_roots(r) for r in rs]) for rs, _ in work]
        m.setattr(exactpoly, "Fraction", build)
        samples = [sample_points_between_roots(roots) for roots in merged]
    assert len(built) == sum(map(len, samples))
    assert samples == [want for _, want in work]


def test_stored_flat_counts_within_bounds(stored):
    part, _, flats = stored
    ceiling = part.degree**2 + part.degree + 1
    for k, (fl, witnessed) in enumerate(flats):
        assert witnessed <= flat2_crossing_stats(fl, part) <= ceiling, f"flat {k}"


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def vanishing_form(base, directions) -> SparsePoly:
    """n.(x - base) with n orthogonal to every direction: the generalised
    cross product of the directions and one or two unit vectors."""
    units = [tuple(int(j == i) for j in range(4)) for i in range(4)]
    for extra in combinations(units, 3 - len(directions)):
        rows = [*directions, *extra]
        n = [(-1) ** i * _det3([[r[j] for j in range(4) if j != i] for r in rows]) for i in range(4)]
        if any(n):
            terms = {(0, 0, 0, 0): -sum(x * b for x, b in zip(n, base))}
            terms.update({units[i]: n[i] for i in range(4)})
            return SparsePoly(4, terms)
    raise ValueError("directions span R^4")


def test_zero_set_errors_name_the_vanishing_factor(stored):
    """The factor named is the first one that vanishes, in factor order,
    also when it is not the factor of top degree."""
    part, lines, flats = stored
    f = part.factors
    ln, fl = lines[0][0], flats[0][0]
    on_line = vanishing_form(ln.base, (ln.direction,))
    on_flat = vanishing_form(fl.base, (fl.u, fl.v))
    for form, obj, stats, error, where in (
        (on_line, ln, line_crossing_stats, LineInZeroSetError, "line"),
        (on_flat, fl, flat2_crossing_stats, FlatInZeroSetError, "2-flat"),
    ):
        cases = [
            ((f[7], f[3], form * f[0], f[5]), 2),
            ((f[7], form, f[6] * form), 1),
            ((form * f[4], f[7]), 0),
        ]
        for factors, idx in cases:
            with pytest.raises(error, match=f"^factor {idx} vanishes on the {where}$"):
                stats(obj, PartitionPolynomial(factors))


def test_lattice_rows_cold_and_warm(stored, monkeypatch):
    part, _, flats = stored
    objects = [fl for fl, _ in flats[:12]]
    partition._lattice_rows.cache_clear()
    cold = [flat2_crossing_stats(fl, part) for fl in objects]
    assert partition._lattice_rows.cache_info().currsize == 1

    def fail(*_):
        raise AssertionError("lattice rows rebuilt on a warm call")

    monkeypatch.setattr(partition, "_homogeneous_rows", fail)
    assert [flat2_crossing_stats(fl, part) for fl in objects] == cold


def test_lattice_rows_are_immutable_and_exact(stored):
    """The cached rows are a read-only matrix of Python ints, and scoring
    on them counts what the sign kernel counts on freshly lifted lattice
    points."""
    part, _, flats = stored
    rows = partition._lattice_rows(128, 6)
    assert isinstance(rows, np.ndarray) and rows.dtype == object and rows.shape[0] == 128
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    assert all(type(v) is int for v in rows.ravel())
    g1, g2, q = partition._LATTICE
    for budget in (128, 96):
        samples = [
            (F(32 * (i * g1 % q), q) - 16, F(32 * (i * g2 % q), q) - 16)
            for i in range(1, budget + 1)
        ]
        for fl, _ in flats[:6]:
            rs = compose_affine_all(part.factors, fl.base, (fl.u, fl.v))
            want = {sv for sv in sign_vectors(rs, samples) if 0 not in sv}
            assert flat2_crossing_stats(fl, part, sample_budget=budget) == len(want)


def test_criterion5_budget_has_its_own_entry(stored):
    part, _, flats = stored
    fl = flats[0][0]
    partition._lattice_rows.cache_clear()
    flat2_crossing_stats(fl, part)
    flat2_crossing_stats(fl, part, sample_budget=96)
    info = partition._lattice_rows.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    flat2_crossing_stats(fl, part, sample_budget=96)
    assert partition._lattice_rows.cache_info().hits == info.hits + 1
    assert len(partition._lattice_rows(96, 6)) == 96


def test_partition_without_factors():
    fl = Flat2((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    ln = Line4((0, 0, 0, 0), (1, 2, 3, 4))
    empty = PartitionPolynomial(())
    assert flat2_crossing_stats(fl, empty) == 1
    assert line_crossing_stats(ln, empty) == partition.CrossingStats(1, 0)
