#!/usr/bin/env python3
"""Benchmark of the subcover pipeline: seeded workloads, checked covers, traced layers.

Run from the repository root:

    python3 bench/run.py --workload cli-routes --seed 1 --seconds 60 --trace 0

``--trace 0`` times the workload's fixed batch of solves back to back (one
process, one thread, closed loop) for about ``--seconds`` seconds and prints
the end-to-end metrics.  ``--trace 1`` runs the batch once untraced and once
with the per-layer wrappers of ``bench/tracing.py`` installed, and prints the
per-layer metrics.  Every cover is checked outside the timed region.  The last
line of standard output is one JSON object; a fuller report and the recorded
spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

if __name__ == "__main__":
    # one process, one thread: set before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("SUBCOVER_THREADS", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-ups spread evenly over a timing run.  Each fresh import leaves about
# 0.1 MB behind, so a fixed count keeps peak_rss_mb independent of how many
# passes fit in the run.
SETUPS_PER_RUN = 12

sys.path.insert(0, str(BENCH_DIR))
from tracing import LAYERS, SPAN_LAYER, SOLVE_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, Gate, run_solve, write_inputs  # noqa: E402

MODULES = ("cli", "simplify", "candidates", "coverage", "solver", "implicit",
           "oracle", "geometry", "freespace")

# name -> (unit, better); the order is the printing order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "workload_s": ("s", "lower"),
    "solve_s_p50": ("s", "lower"),
    "centers_total": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_SPAN_METRICS = {
    "cli.ingest_s": "cli.ingest",
    "simplify.simplify_curve_s": "simplify.simplify_curve",
    "candidates.candidate_set_s": "candidates.candidate_set",
    "candidates.extremal_points_s": "candidates.extremal_points",
    "coverage.batch_candidate_coverage_s": "coverage.batch_candidate_coverage",
    "coverage.batch_feasible_mask_s": "coverage.batch_feasible_mask",
    "coverage.feasible_rectangles_s": "coverage.feasible_rectangles",
    "coverage.point_not_covered_s": "coverage.point_not_covered",
    "solver.approx_cover_s": "solver.approx_cover",
    "solver.greedy_s": "solver.greedy",
    "implicit.implicit_approx_cover_s": "implicit.implicit_approx_cover",
    "implicit.arrangement_build_s": "implicit.arrangement_build",
    "implicit.sample_candidates_s": "implicit.sample_candidates",
    "implicit.feasible_weight_s": "implicit.feasible_weight",
    "oracle.full_coverage_s": "oracle.full_coverage",
}
_COUNT_METRICS = (
    "cli.n_points",
    "simplify.frechet_decisions",
    "simplify.m",
    "candidates.extremal_points_calls",
    "candidates.B",
    "coverage.candidates_filled",
    "coverage.batch_feasible_mask_calls",
    "coverage.feasible_rectangles_calls",
    "solver.rounds",
    "solver.proper_updates",
    "solver.draws",
    "implicit.arrangement_builds",
    "implicit.rounds",
    "implicit.updates",
    "implicit.grid_candidates",
    "oracle.centers_checked",
    "geometry.ball_segment_radical_calls",
    "geometry.capsule_segment_radical_calls",
    "freespace.decide_frechet_calls",
)
# name -> (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in _SPAN_METRICS},
    **{name: ("count", "lower") for name in _COUNT_METRICS},
    "solver.update_yield": ("ratio", "higher"),
    "solver.cache_hit_frac": ("ratio", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.unattributed_s": ("s", "lower"),
    "trace.workload_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class BenchError(RuntimeError):
    pass


def import_subcover() -> SimpleNamespace:
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "subcover" / "__init__.py").is_file():
        raise BenchError(f"no subcover package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(**{m: importlib.import_module(f"subcover.{m}") for m in MODULES})
    where = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported subcover from {where}, not from {SRC}")
    return mods


def purge_subcover() -> None:
    for name in [n for n in sys.modules if n == "subcover" or n.startswith("subcover.")]:
        del sys.modules[name]


def set_up_once(workload, seed: int, input_dir: str):
    """Import the package afresh and write the seeded inputs; returns (mods, paths, time)."""
    purge_subcover()
    start = time.perf_counter()
    mods = import_subcover()
    paths = write_inputs(mods, workload, seed, input_dir)
    return mods, paths, time.perf_counter() - start


def run_pass(mods, workload, paths, seed: int, tracer: Tracer = None):
    """One back-to-back sweep over the batch; returns (wall time, [(time, report)])."""
    results = []
    start = time.perf_counter()
    for index, solve in enumerate(workload.solves):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open_solve(index)
        try:
            report = run_solve(mods, paths[solve.route], solve, seed)
        except Exception:  # a raising solve is a failed solve, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            report = None
        finally:
            if tracer is not None:
                tracer.close_solve()
        results.append((time.perf_counter() - t0, report))
    return time.perf_counter() - start, results


def gate_pass(gate: Gate, workload, results) -> int:
    """Number of failed solves in one pass."""
    return sum(not gate.check(solve, report)
               for solve, (_, report) in zip(workload.solves, results))


def solve_rows(workload, passes) -> list:
    """Per-solve times of every pass, with the first pass's outcome."""
    rows = []
    for index, solve in enumerate(workload.solves):
        report = passes[0][1][index][1] or {}
        rows.append({
            "route": solve.route, "variant": solve.variant, "k_prime": solve.k_prime,
            "rng_offset": solve.rng_offset, "verdict": report.get("verdict"),
            "centers": len(report.get("centers", [])), "iterations": report.get("iterations"),
            "proper_updates": report.get("proper_updates"),
            "time_s": [results[index][0] for _, results in passes],
        })
    return rows


def centers_total(results) -> int:
    return sum(len(report["centers"]) for _, report in results if report and "centers" in report)


def timing_run(mods, workload, paths, seed: int, seconds: float, setup, gate: Gate):
    """Repeat the pass while another one fits in ``seconds``.

    Other processes on a shared machine slow single passes by up to half, in
    bursts of seconds.  So each solve is timed at its fastest over the passes,
    and the batch time is the sum of those fastest times.  Set-ups
    (``setup()``, returning its time) run between passes, spread evenly over
    the run, so their median samples the whole run rather than one moment.
    Each pass is checked as soon as it ends, and only the first pass keeps
    its reports, so the memory held does not grow with the number of passes.
    """
    passes, setup_times, failed = [], [], 0
    start = time.perf_counter()
    while True:
        wall, results = run_pass(mods, workload, paths, seed)
        failed += gate_pass(gate, workload, results)
        passes.append((wall, results if not passes else [(t, None) for t, _ in results]))
        elapsed = time.perf_counter() - start
        if elapsed >= len(setup_times) * seconds / SETUPS_PER_RUN:
            setup_times.append(setup())
            elapsed = time.perf_counter() - start
        if elapsed + passes[-1][0] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fastest = [min(results[i][0] for _, results in passes) for i in range(len(workload.solves))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "workload_s": sum(fastest),
        "solve_s_p50": statistics.median(fastest),
        "centers_total": centers_total(passes[0][1]),
        "peak_rss_mb": peak_rss_mb,
    }
    solves = f"{len(fastest)} solves, each at its fastest of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups (import + write inputs) spread over the run",
        "workload_s": f"sum over {solves}",
        "solve_s_p50": f"median over {solves}",
        "centers_total": "centres returned, summed over one pass",
        "peak_rss_mb": "max resident set of this process",
    }
    return passes, metrics, notes, failed


def trace_run(mods, workload, paths, seed: int, span_path: str, gate: Gate):
    """One untraced pass, then one traced pass of the same batch."""
    untraced = run_pass(mods, workload, paths, seed)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run_pass(mods, workload, paths, seed, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(span_path)

    self_times = tracer.self_times()
    counts = tracer.counts
    metrics = {name: self_times.get(span, 0.0) for name, span in _SPAN_METRICS.items()}
    metrics.update({name: counts[name] for name in _COUNT_METRICS})
    rounds, draws = counts["solver.rounds"], counts["solver.draws"]
    metrics["solver.update_yield"] = counts["solver.proper_updates"] / rounds if rounds else 0.0
    metrics["solver.cache_hit_frac"] = 1.0 - counts["solver.mwu_filled"] / draws if draws else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for span, t in self_times.items() if SPAN_LAYER.get(span) == layer
        )
    metrics["trace.unattributed_s"] = self_times.get(SOLVE_SPAN, 0.0)
    metrics["trace.workload_s"] = traced[0]
    metrics["trace.overhead_s"] = traced[0] - untraced[0]
    metrics["trace.spans"] = len(tracer.spans)
    notes = {
        "trace.workload_s": f"one traced pass of {len(workload.solves)} solves",
        "trace.overhead_s": f"traced pass minus untraced pass ({untraced[0]:.4f} s)",
        "trace.unattributed_s": "solve time outside every layer span",
    }
    failed = gate_pass(gate, workload, untraced[1]) + gate_pass(gate, workload, traced[1])
    return [untraced, traced], metrics, notes, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few small solves, for the smoke test")
    ap.add_argument("--out", default=str(OUT_DIR), help="directory for reports and spans")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.scale)
    tag = f"{args.workload}-seed{args.seed}-{args.scale}"
    input_dir = os.path.join(args.out, f"inputs-{tag}")
    try:
        mods, paths, first_setup_s = set_up_once(workload, args.seed, input_dir)
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    gate = Gate(mods, paths)
    if args.trace:
        span_path = os.path.join(args.out, f"spans-{tag}.jsonl.gz")
        passes, metrics, notes, failed = trace_run(mods, workload, paths, args.seed, span_path,
                                                   gate)
        units = PER_LAYER
        notes["spans"] = span_path
    else:
        def setup():
            return set_up_once(workload, args.seed, input_dir)[2]

        passes, metrics, notes, failed = timing_run(mods, workload, paths, args.seed,
                                                    args.seconds, setup, gate)
        units = END_TO_END

    attempted = sum(len(results) for _, results in passes)
    inputs = [gate.input_stats(route) for route in workload.routes]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(workload.solves)} solves per pass, {len(passes)} passes")
    for row in inputs:
        print("input {route}: dim={dim} n={n} m={m} |B|={B}".format(**row))
    for name in units:
        note = notes.get(name, "")
        print(f"{name:40s} {metrics[name]:>14.6g} {units[name][0]:6s} {note}")
    print(f"{'fail_frac':40s} {failed / attempted:>14.6g} {'ratio':6s} {failed}/{attempted} solves")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"report-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "inputs": inputs, "notes": notes, "first_setup_s": first_setup_s,
                   "pass_s": [p[0] for p in passes], "solves": solve_rows(workload, passes)},
                  fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
