"""The mod-p residue filter in front of the three exact pair predicates.

Oracles: the scalar predicates themselves over every pair, Python-int
sums for the int64 kernel, and hand-built inputs whose decisive integer
is a nonzero multiple of p, so the filter cannot decide them.
"""

import itertools
import random

import numpy as np
import pytest

from incidence4 import flats
from incidence4.configs import (
    ConfigurationSet,
    GeneratorKind,
    GeneratorSpec,
    gen_generic,
    gen_planted,
    gen_star,
)
from incidence4.counting import (
    count_incidences,
    detect_rich_flat2,
    detect_rich_hyperplane,
    report_to_text,
)
from incidence4.flats import (
    RESIDUE_PRIME as P,
    Flat2,
    IncidenceKind,
    Line4,
    candidate_cohyperplanar_pairs,
    candidate_coplanar_pairs,
    candidate_incident_pairs,
    classify_line_flat2,
    cohyperplanar_key,
    coplanar_key,
)


def _configurations():
    out = [gen_generic(18, 14, seed, r) for r in (2, 3, 4) for seed in range(3)]
    out.append(gen_generic(40, 30, 2, 2))
    out.append(gen_generic(20, 15, seed=7))
    out.append(gen_star(12, 9, seed=3))
    for kind, lines, planes in (
        (GeneratorKind.PLANTED_RICH_FLAT, 6, 0),
        (GeneratorKind.PLANTED_RICH_HYPERPLANE, 0, 6),
        (GeneratorKind.MIXED, 5, 5),
    ):
        spec = GeneratorSpec(kind, 16, 12, 1000, lines, planes)
        out.append(gen_planted(spec, seed=5)[0])
    return out


CONFIGS = _configurations()


def _scalar_report(cfg):
    """count_incidences as the plain double loop over every pair."""
    records, containments = [], 0
    for (i, ln), (j, pl) in itertools.product(enumerate(cfg.lines), enumerate(cfg.planes)):
        out = classify_line_flat2(ln, pl)
        if out.kind is IncidenceKind.POINT:
            records.append((i, j, out.location))
        elif out.kind is IncidenceKind.CONTAINED:
            containments += 1
    return records, containments


def _scalar_buckets(objects, key_of):
    buckets = {}
    for i, j in itertools.combinations(range(len(objects)), 2):
        key = key_of(objects[i], objects[j])
        if key is not None:
            buckets.setdefault(key, set()).update((i, j))
    return sorted(tuple(sorted(m)) for m in buckets.values())


class TestPairByPair:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.provenance)
    def test_every_dropped_pair_is_decided_the_same_way(self, cfg):
        lines, planes = cfg.lines, cfg.planes
        kept = list(candidate_incident_pairs(lines, planes))
        assert kept == sorted(set(kept))
        for i, j in set(itertools.product(range(len(lines)), range(len(planes)))) - set(kept):
            assert classify_line_flat2(lines[i], planes[j]).kind is IncidenceKind.DISJOINT
        kept = list(candidate_coplanar_pairs(lines))
        assert kept == sorted(set(kept)) and all(i < j for i, j in kept)
        for i, j in set(itertools.combinations(range(len(lines)), 2)) - set(kept):
            assert coplanar_key(lines[i], lines[j]) is None
        kept = list(candidate_cohyperplanar_pairs(planes))
        assert kept == sorted(set(kept)) and all(i < j for i, j in kept)
        for i, j in set(itertools.combinations(range(len(planes)), 2)) - set(kept):
            assert cohyperplanar_key(planes[i], planes[j]) is None

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.provenance)
    def test_results_match_the_scalar_loops(self, cfg):
        report = count_incidences(cfg)
        records, containments = _scalar_report(cfg)
        assert [(r.line_index, r.plane_index, r.location) for r in report.records] == records
        assert report.containments == containments
        rich = detect_rich_flat2(cfg.lines, 2)
        assert sorted(r.members for r in rich) == _scalar_buckets(cfg.lines, coplanar_key)
        rich = detect_rich_hyperplane(cfg.planes, 2)
        assert sorted(r.members for r in rich) == _scalar_buckets(cfg.planes, cohyperplanar_key)

    def test_degenerate_pairs_reach_the_exact_routine(self):
        """Small ranges make coplanar, cohyperplanar and incident pairs
        common; the filter must keep every one of them."""
        cfg = gen_generic(40, 30, 2, 2)
        lines, planes = cfg.lines, cfg.planes
        meeting = {
            (i, j)
            for i, j in itertools.product(range(len(lines)), range(len(planes)))
            if classify_line_flat2(lines[i], planes[j]).kind is not IncidenceKind.DISJOINT
        }
        coplanar = {
            (i, j)
            for i, j in itertools.combinations(range(len(lines)), 2)
            if coplanar_key(lines[i], lines[j]) is not None
        }
        cohyper = {
            (i, j)
            for i, j in itertools.combinations(range(len(planes)), 2)
            if cohyperplanar_key(planes[i], planes[j]) is not None
        }
        assert meeting and coplanar and cohyper
        assert meeting <= set(candidate_incident_pairs(lines, planes))
        assert coplanar <= set(candidate_coplanar_pairs(lines))
        assert cohyper <= set(candidate_cohyperplanar_pairs(planes))
        star = gen_star(12, 9, seed=3)
        assert len(list(candidate_incident_pairs(star.lines, star.planes))) == 12 * 9
        assert len(list(candidate_coplanar_pairs(star.lines))) == 12 * 11 // 2

    def test_small_blocks_give_the_same_pairs(self, monkeypatch):
        cfg = CONFIGS[0]
        expected = [
            list(candidate_incident_pairs(cfg.lines, cfg.planes)),
            list(candidate_coplanar_pairs(cfg.lines)),
            list(candidate_cohyperplanar_pairs(cfg.planes)),
        ]
        for block in (1, 5, 17):
            monkeypatch.setattr(flats, "PAIR_BLOCK", block)
            assert [
                list(candidate_incident_pairs(cfg.lines, cfg.planes)),
                list(candidate_coplanar_pairs(cfg.lines)),
                list(candidate_cohyperplanar_pairs(cfg.planes)),
            ] == expected


class TestMultiplesOfP:
    """Each decisive integer is k*p != 0: its residue is 0, so the pair is
    kept, and the exact routine still decides it."""

    @pytest.mark.parametrize("k", (1, -2, 3))
    def test_disjoint(self, k):
        # Line (t, k*p, 0, 0) against the flat x0 = x1 = 0: a0*b1 - a1*b0 = -k*p.
        ln = Line4((0, k * P, 0, 0), (1, 0, 0, 0))
        fl = Flat2((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert list(candidate_incident_pairs([ln], [fl])) == [(0, 0)]
        assert classify_line_flat2(ln, fl).kind is IncidenceKind.DISJOINT
        report = count_incidences(ConfigurationSet((ln,), (fl,)))
        assert (report.point_incidences, report.containments) == (0, 0)

    @pytest.mark.parametrize("k", (1, -2, 3))
    def test_skew(self, k):
        # [d1; d2; w] = [e0; e1; k*p*e2]: one minor k*p, the others 0.
        l1 = Line4((0, 0, 0, 0), (1, 0, 0, 0))
        l2 = Line4((0, 0, k * P, 0), (0, 1, 0, 0))
        p = flats._minors2(l1.integer_form[0], l2.integer_form[0])
        assert flats._minors3(flats._offset(l1, l2), p) == (k * P, 0, 0, 0)
        assert list(candidate_coplanar_pairs([l1, l2])) == [(0, 1)]
        assert coplanar_key(l1, l2) is None
        assert detect_rich_flat2([l1, l2], 2) == []

    @pytest.mark.parametrize("k", (1, -2, 3))
    def test_no_common_hyperplane(self, k):
        # M has columns (1, 0), (0, 0), (0, k*p): one minor k*p, the others 0.
        f1 = Flat2((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        f2 = Flat2((0, k * P, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0))
        assert list(candidate_cohyperplanar_pairs([f1, f2])) == [(0, 1)]
        assert cohyperplanar_key(f1, f2) is None
        assert detect_rich_hyperplane([f1, f2], 2) == []


def _forms(monkeypatch, candidates, *args):
    """The (u, v) residue matrices a candidate_* function filters with."""
    seen = []
    monkeypatch.setattr(flats, "_undecided_pairs", lambda forms, triangle: seen.append(forms) or [])
    candidates(*args)
    return [(u.tolist(), v.T.tolist()) for u, v in seen[0]]


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


class TestFormsAreTheDecisiveIntegers:
    """Each form u_i . v_j is, mod p, the decisive integer of the scalar
    predicate (up to sign), computed here in Python ints from the
    objects' integer forms."""

    CFGS = (gen_generic(7, 6, seed=11), gen_generic(7, 6, 4, 3))

    @pytest.mark.parametrize("cfg", CFGS, ids=lambda c: c.provenance)
    def test_classification(self, cfg, monkeypatch):
        ((u, v),) = _forms(monkeypatch, candidate_incident_pairs, cfg.lines, cfg.planes)
        for (i, ln), (j, fl) in itertools.product(enumerate(cfg.lines), enumerate(cfg.planes)):
            d, p, m = ln.integer_form
            (x, c0), (y, c1) = fl.equations
            a0, a1 = _dot(x, d), _dot(y, d)
            b0, b1 = m * c0 - _dot(x, p), m * c1 - _dot(y, p)
            assert (_dot(u[i], v[j]) - (a0 * b1 - a1 * b0)) % P == 0

    @pytest.mark.parametrize("cfg", CFGS, ids=lambda c: c.provenance)
    def test_coplanarity(self, cfg, monkeypatch):
        forms = _forms(monkeypatch, candidate_coplanar_pairs, cfg.lines)
        for l1, l2 in itertools.combinations(range(cfg.num_lines), 2):
            a, b = cfg.lines[l1], cfg.lines[l2]
            p = flats._minors2(a.integer_form[0], b.integer_form[0])
            minors = flats._minors3(flats._offset(a, b), p)
            for (u, v), minor in zip(forms, minors):
                assert (_dot(u[l1], v[l2]) + minor) % P == 0

    @pytest.mark.parametrize("cfg", CFGS, ids=lambda c: c.provenance)
    def test_cohyperplanarity(self, cfg, monkeypatch):
        forms = _forms(monkeypatch, candidate_cohyperplanar_pairs, cfg.planes)
        for i, j in itertools.combinations(range(cfg.num_planes), 2):
            (x, c0), (y, c1) = cfg.planes[i].equations
            u2, v2, q, m = cfg.planes[j].integer_form
            cols = (
                (_dot(x, u2), _dot(y, u2)),
                (_dot(x, v2), _dot(y, v2)),
                (_dot(x, q) - m * c0, _dot(y, q) - m * c1),
            )
            minors = [s[0] * t[1] - s[1] * t[0] for s, t in itertools.combinations(cols, 2)]
            for (u, v), minor in zip(forms, minors):
                assert (_dot(u[i], v[j]) - minor) % P == 0


class TestKernel:
    def test_extreme_residues_do_not_overflow(self):
        """Sums of up to 15 products of residues at +-(p-1)/2 against
        Python ints, with nonzero multiples of p among them."""
        half = P // 2
        rng = random.Random(3)
        for width in (1, 6, 7, 8, 10, 15):
            def draw():
                return rng.choice((half, -half, rng.randint(-half, half)))

            u = [[draw() for _ in range(width)] for _ in range(9)]
            v = [[draw() for _ in range(11)] for _ in range(width)]
            if width >= 3:
                # Entries (0, 10) = p and (0, 9) = half*p: 0 mod p, not 0.
                u[0] = [half, half, 1] + [0] * (width - 3)
                for t, row in enumerate(v):
                    row[9:] = [half, 1] if t < 3 else [0, 0]
            if width >= 10:
                # Entry (1, 8): width-1 products half*half, all positive,
                # plus one that makes the sum 0 mod p; it exceeds 2^63.
                corr = (-(width - 1) * half * half + half) % P - half
                u[1] = [half] * (width - 1) + [corr]
                for t, row in enumerate(v):
                    row[8] = half if t < width - 1 else 1
            got = flats._zero_mod_p(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64))
            want = [
                [sum(u[i][t] * v[t][j] for t in range(width)) % P == 0 for j in range(11)]
                for i in range(9)
            ]
            assert got.tolist() == want
            assert width < 3 or want[0][9:] == [True, True]
            assert width < 10 or want[1][8]

    def test_balanced_residues(self):
        rows = [[0, 1, -1, P, -P, P // 2, P // 2 + 1, -(P // 2), 5 * P + 7, -(3 * P) ** 5 - 2]]
        got = flats._residues(rows)
        assert got.dtype == np.int64
        assert all(abs(x) <= P // 2 for x in got[0].tolist())
        assert [(x - y) % P for x, y in zip(got[0].tolist(), rows[0])] == [0] * len(rows[0])


class TestUnchangedBehaviour:
    def test_duplicate_lines_raise_with_the_first_pair(self):
        a, b, c, d = (Line4((0, 0, 0, x), (1, x, 2, 3)) for x in (1, 2, 3, 4))
        with pytest.raises(ValueError, match="duplicate lines at indices 0 and 2"):
            detect_rich_flat2([a, b, a, c, b], 2)
        with pytest.raises(ValueError, match="duplicate lines at indices 1 and 4"):
            detect_rich_flat2([c, b, a, d, b], 3)

    @pytest.mark.parametrize("lines,planes", ((0, 4), (4, 0), (0, 0)))
    def test_empty_sides_give_the_empty_report(self, lines, planes):
        cfg = gen_generic(lines, planes, seed=2)
        report = count_incidences(cfg)
        assert report_to_text(report) == "point_incidences: 0\ncontainments: 0\n"
        assert report.records == ()
        assert detect_rich_flat2(cfg.lines, 2) == []
        assert detect_rich_hyperplane(cfg.planes, 2) == []
        assert list(candidate_coplanar_pairs(cfg.lines[:1])) == []
        assert list(candidate_cohyperplanar_pairs(cfg.planes[:1])) == []
