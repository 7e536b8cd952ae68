"""Span and count recorder for the traced benchmark run.

The tracer wraps public functions of the incidence4 modules from the
outside.  Every module-level binding of a wrapped function (for example
`counting.classify_line_flat2` as well as `flats.classify_line_flat2`) is
replaced by one shared wrapper, so no call escapes its span; methods are
wrapped on their class.  Spans (name, parent, start, end) are kept in flat
in-memory arrays and written out as JSON when the run ends.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from incidence4 import bounds, cli, configs, counting, exactpoly, flats, partition

# (owner, attribute, metric prefix) of every function that gets a span.
SPANNED = (
    (flats, "classify_line_flat2", "flats.classify_line_flat2"),
    (flats, "rref", "flats.rref"),
    (flats, "span_flat2_of_lines", "flats.span_flat2_of_lines"),
    (flats, "hyperplane_of_flat2_pair", "flats.hyperplane_of_flat2_pair"),
    (flats.Flat2, "__init__", "flats.Flat2"),
    (configs, "gen_generic", "configs.gen_generic"),
    (configs, "gen_star", "configs.gen_star"),
    (configs, "gen_planted", "configs.gen_planted"),
    (counting, "count_incidences", "counting.count_incidences"),
    (counting, "detect_rich_flat2", "counting.detect_rich_flat2"),
    (counting, "detect_rich_hyperplane", "counting.detect_rich_hyperplane"),
    (partition, "build_partition", "partition.build_partition"),
    (partition, "ham_sandwich_bisect", "partition.ham_sandwich_bisect"),
    (partition, "cell_id", "partition.cell_id"),
    (partition, "assign_cells", "partition.assign_cells"),
    (partition, "line_cell_profile", "partition.line_cell_profile"),
    (partition, "line_crossing_stats", "partition.line_crossing_stats"),
    (partition, "flat2_crossing_stats", "partition.flat2_crossing_stats"),
    (exactpoly.SparsePoly, "eval", "exactpoly.SparsePoly.eval"),
    (exactpoly.SparsePoly, "substitute", "exactpoly.SparsePoly.substitute"),
    (exactpoly, "restrict_to_line", "exactpoly.restrict_to_line"),
    (exactpoly, "restrict_to_flat2", "exactpoly.restrict_to_flat2"),
    (exactpoly, "isolate_real_roots", "exactpoly.isolate_real_roots"),
    (exactpoly, "merge_real_roots", "exactpoly.merge_real_roots"),
    (exactpoly, "sample_points_between_roots", "exactpoly.sample_points_between_roots"),
    (bounds, "eval_total_and_dominance", "bounds.eval_total_and_dominance"),
    (cli, "run_experiment", "cli.run_experiment"),
)

# Methods too hot for a span: only their calls are counted.
COUNTED = (
    (exactpoly.UniPoly, "eval", "exactpoly.UniPoly.eval.calls"),
    (exactpoly.IsolatedRoot, "refined", "exactpoly.IsolatedRoot.refined.calls"),
)

# Counts taken from results and errors at the span boundaries.
OUTCOME_COUNTS = (
    "flats.outcome.disjoint",
    "flats.outcome.point",
    "flats.outcome.contained",
    "counting.rich_records",
    "partition.ham_sandwich_bisect.failed",
    "partition.degree_sum",
    "exactpoly.roots_isolated",
)


def _on_result(name: str, counts: Counter):
    if name == "flats.classify_line_flat2":
        return lambda out: counts.update((f"flats.outcome.{out.kind.value}",))
    if name in ("counting.detect_rich_flat2", "counting.detect_rich_hyperplane"):
        return lambda records: counts.update({"counting.rich_records": len(records)})
    if name == "partition.build_partition":

        def committed(part):
            counts["partition.factors_committed"] += part.rounds
            counts["partition.degree_sum"] += part.degree

        return committed
    if name == "exactpoly.isolate_real_roots":
        return lambda roots: counts.update({"exactpoly.roots_isolated": len(roots)})
    return None


def _on_error(name: str, counts: Counter):
    if name == "partition.ham_sandwich_bisect":

        def failed(exc):
            if isinstance(exc, partition.SearchBudgetError):
                counts["partition.ham_sandwich_bisect.failed"] += 1

        return failed
    return None


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Install every wrapper (entered once per traced item)."""
        if not self._wrappers:
            for owner, attr, name in SPANNED:
                self._wrappers.append((owner, attr, self._span_wrapper(getattr(owner, attr), name)))
            for owner, attr, name in COUNTED:
                self._wrappers.append((owner, attr, self._count_wrapper(getattr(owner, attr), name)))
        for owner, attr, wrapper in self._wrappers:
            self._rebind(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        """Replace `owner.attr` and, for module functions, every other
        incidence4 module binding of the same function object."""
        original = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("incidence4"):
                    continue
                targets += [(mod, k) for k, v in list(vars(mod).items()) if v is original]
        for target, key in targets:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def _span_wrapper(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        on_result = _on_result(name, self.counts)
        on_error = _on_error(name, self.counts)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self seconds) for every spanned function."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def top_level_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.parent)) if self.parent[i] < 0)

    def layer_metrics(self, coverage: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        times = self.self_times()
        for _, _, name in SPANNED:
            calls, self_s = times[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for _, _, name in COUNTED:
            out[name] = (self.counts[name], "count")
        for name in OUTCOME_COUNTS:
            out[name] = (self.counts[name], "count")
        bisects = times["partition.ham_sandwich_bisect"][0]
        committed = self.counts["partition.factors_committed"]
        out["partition.factor_accept_ratio"] = (committed / bisects if bisects else 0.0, "ratio")
        out["trace.coverage"] = (coverage, "ratio")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span and count as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "counts": dict(sorted(self.counts.items())),
            "spans": {
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
                "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))
