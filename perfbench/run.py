#!/usr/bin/env python3
"""incidence4 benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload census|partition|crossing \\
        --seed N --seconds S --trace 0|1 [--max-items K]

Run from the repository root; the program is imported from `src/`.

--trace 0 sets up five times (the median is `setup_s`): a fresh
interpreter imports the program, then the workload loads its inputs and
runs one warm-up item.  It then runs items back to back for --seconds
and reports the end-to-end metrics at reference speed (see
calibrate.py).  --trace 1 runs a fixed item set (sized from --seconds
and the workload's nominal item cost, so counts repeat exactly for a
seed) untraced and traced, item by item, and reports the per-layer
metrics; the spans are written to perfbench/out/.  Every answer is
checked exactly: a wrong answer prints `"correct": false` and exits 1.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, SpeedMeter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# One BLAS thread: numpy's OpenBLAS would otherwise start a pool of threads
# for the lstsq calls of the partition search.  Set before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A traced item set takes about this share of --seconds per pass.
TRACE_PASS_SHARE = 0.4


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("census", "partition", "crossing"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-items", type=int, default=None,
                    help="cap the timed (or traced) items, for smoke tests")
    return ap.parse_args(argv)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def plain_mark() -> tuple[float, float, float]:
    now = time.perf_counter()
    return now, now, time.process_time()


class Loop:
    """Closed loop over items: the next starts when the previous returns.

    Each step (item inputs, program call, answer check) is recorded as
    four clock marks, so its times can be scaled to reference speed
    afterwards.
    """

    def __init__(self, workload, workloads, mark=plain_mark):
        self.workload = workload
        self.expected_failures = workloads.EXPECTED_FAILURES
        self.wrong_answer = workloads.WrongAnswerError
        self.mark = mark
        self.steps: list[tuple] = []  # (step start, item start, item end, step end)
        self.attempted = 0
        self.failed = 0

    def step(self, index: int) -> None:
        wl = self.workload
        step_start = self.mark()
        item = wl.item(index)
        self.attempted += 1
        item_start = self.mark()
        try:
            result = wl.run(item)
        except self.expected_failures:
            self.failed += 1
            result = None
        item_end = self.mark()
        if result is not None:
            try:
                wl.check(item, result)
            except self.wrong_answer as exc:
                exc.attempted, exc.failed = self.attempted, self.failed
                raise
        self.steps.append((step_start, item_start, item_end, self.mark()))


def scaled(meter: SpeedMeter, start, end) -> tuple[float, float]:
    """(wall, CPU) seconds between two marks, at reference speed."""
    k = meter.scale(start[0], end[0])
    return (end[1] - start[1]) * k, (end[2] - start[2]) * k


def start_interpreter() -> None:
    """Start a fresh interpreter that imports the program, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    subprocess.run([sys.executable, "-c", "import incidence4"], env=env, check=True)


def setup(workload_cls, seed: int, golden_loader):
    """Build the workload (inputs, stored data) and run one warm-up item."""
    wl = workload_cls(seed, golden_loader())
    item = wl.item(-1)
    wl.check(item, wl.run(item))
    return wl


def timed_metrics(args, wl_cls, workloads) -> tuple[dict, int, int]:
    with SpeedMeter() as meter:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = meter.mark()
            start_interpreter()
            wl = setup(wl_cls, args.seed, workloads.load_golden)
            setups.append(scaled(meter, before, meter.mark())[0])
        loop = Loop(wl, workloads, meter.mark)
        t0 = time.perf_counter()
        index = 0
        while time.perf_counter() - t0 < args.seconds and (
            args.max_items is None or index < args.max_items
        ):
            loop.step(index)
            index += 1
    ms = [scaled(meter, i0, i1)[0] * 1000 for _, i0, i1, _ in loop.steps]
    steps = [scaled(meter, s0, s1) for s0, _, _, s1 in loop.steps]
    step_s = sum(w for w, _ in steps)
    step_cpu_s = sum(c for _, c in steps)
    raw_s = sum(s1[1] - s0[1] for s0, _, _, s1 in loop.steps)

    done = loop.attempted - loop.failed
    p = wl.tail_percentile
    beyond = sum(1 for v in ms if v > percentile(ms, p))
    print(f"items: {loop.attempted} attempted, {loop.failed} failed, "
          f"fail_ratio {loop.failed / loop.attempted:.4f}")
    print(f"item_ms_tail is p{p}: {beyond} of {len(ms)} items lie beyond it")
    print(f"speed: {raw_s / step_s:.4f} x reference-speed time "
          f"(calibration kernel at {REFERENCE_S * 1000:g} ms, {len(meter.samples)} samples)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (done / step_s, "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_tail": (percentile(ms, p), "ms"),
        "cpu_ms_per_item": (step_cpu_s * 1000 / loop.attempted, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, loop.attempted, loop.failed


def traced_metrics(args, wl_cls, workloads) -> tuple[dict, int, int]:
    """Each item of a fixed set runs untraced and traced, in alternating
    order, so both sides see the same machine speed."""
    from tracer import Tracer

    wl = setup(wl_cls, args.seed, workloads.load_golden)
    count = args.max_items or max(1, int(args.seconds * TRACE_PASS_SHARE / wl.nominal_item_s))
    tracer = Tracer()
    untraced, traced = Loop(wl, workloads), Loop(wl, workloads)
    for index in range(count):
        for side in ((untraced, traced) if index % 2 == 0 else (traced, untraced)):
            if side is traced:
                with tracer:
                    traced.step(index)
            else:
                untraced.step(index)

    def wall(loop: Loop) -> float:
        return sum(s1[0] - s0[0] for s0, _, _, s1 in loop.steps)

    metrics = tracer.layer_metrics(
        coverage=tracer.top_level_seconds() / wall(traced),
        overhead_ratio=wall(traced) / wall(untraced),
    )
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(path, {
        "workload": args.workload,
        "seed": args.seed,
        "items": count,
        "traced_wall_s": wall(traced),
        "untraced_wall_s": wall(untraced),
    })
    print(f"traced {count} items; spans written to {path.relative_to(BENCH_DIR.parent)}")
    return metrics, traced.attempted, traced.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "incidence4" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC_DIR}/incidence4)", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))
    import workloads

    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    wl_cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed = traced_metrics(args, wl_cls, workloads)
        else:
            metrics, attempted, failed = timed_metrics(args, wl_cls, workloads)
    except workloads.WrongAnswerError as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": getattr(exc, "attempted", 1),
            "failed": getattr(exc, "failed", 0),
            "metrics": {},
        }))
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
