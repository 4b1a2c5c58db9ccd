"""Command-line driver: ingest a trajectory, run a cover search, report.

Input format: one point per line, d numeric columns separated by whitespace
or commas; lines starting with '#' are skipped.  Consecutive duplicate
points collapse to one.  Vertex parameters follow normalized arclength.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import Interval, PolyCurve, Segment, arclength_params
from .implicit import implicit_approx_cover
from .oracle import covers_unit, full_coverage
from .simplify import simplify_curve
from .solver import (
    SolverConfig,
    SolverFailure,
    _promote_single_vertex,
    approx_cover,
    greedy_max_coverage,
)


class ParseError(ValueError):
    pass


def ingest(path: str) -> PolyCurve:
    """Read a polygonal curve from a delimited text file."""
    with open(path, "r", encoding="utf-8") as fh:
        # the lines that iterating the file gives, with universal newlines
        lines = [raw.strip() for raw in fh.read().split("\n")]
    linenos = [k for k, line in enumerate(lines, start=1) if line and not line.startswith("#")]
    fields = [lines[k - 1].replace(",", " ").split() for k in linenos]
    pts = _fields_array(fields)
    if pts is None:
        pts = _lines_array(path, lines, linenos, fields)
    keep = np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])
    pts = pts[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        params = arclength_params(pts)
    stuck = np.flatnonzero(~(np.diff(params) > 0.0))
    if stuck.size:
        lineno = np.asarray(linenos)[keep][stuck[0] + 1]
        raise ParseError(
            f"{path}:{lineno}: the point's arclength parameter does not increase "
            "past the previous point's in double precision"
        )
    return PolyCurve(pts, params)


def _fields_array(fields: List[List[str]]) -> Optional[np.ndarray]:
    """The points of a well-formed file, all fields parsed by ``float`` in one
    pass; None where a line is malformed, for ``_lines_array`` to report."""
    d = len(fields[0]) if fields else 0
    if d == 0 or any(len(f) != d for f in fields):
        return None
    try:
        pts = np.array([float(x) for f in fields for x in f]).reshape(-1, d)
    except ValueError:
        return None
    return pts if np.isfinite(pts).all() else None


def _lines_array(path: str, lines: List[str], linenos: List[int], fields: List[List[str]]) -> np.ndarray:
    """The points, line by line; raises the ParseError of the first bad line."""
    rows: List[List[float]] = []
    for lineno, parts in zip(linenos, fields):
        line = lines[lineno - 1]
        try:
            vals = [float(x) for x in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field in {line!r}")
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{path}:{lineno}: non-finite field in {line!r}")
        if rows and len(vals) != len(rows[0]):
            raise ParseError(
                f"{path}:{lineno}: expected {len(rows[0])} columns, got {len(vals)}"
            )
        rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no points found")
    return np.asarray(rows, dtype=float)


def write_curve(P: PolyCurve, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(f"{x:.17g}" for x in v) + "\n" for v in P.vertices.tolist()))


class _RunConfigFields(NamedTuple):
    input_path: str
    delta: float
    variant: str = "explicit"
    seed: int = 0
    gamma_override: Optional[int] = None
    output_json_path: Optional[str] = None
    output_svg_path: Optional[str] = None
    verify: bool = False


class RunConfig(_RunConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.variant not in ("explicit", "implicit", "greedy"):
            raise ValueError("variant must be explicit, implicit or greedy")
        return self


def _scaled(P: PolyCurve, shift: int) -> PolyCurve:
    """P scaled by 2^shift, with its arclength parameters taken again."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        V = np.ldexp(P.vertices, shift)
        params = arclength_params(V)
    if not (np.diff(params) > 0.0).all():  # also where V is not finite
        raise ValueError("the curve does not fit in double precision at the scale of delta")
    return PolyCurve(V, params)


def run(config: RunConfig) -> dict:
    """End-to-end pipeline; returns the report dictionary.

    The solve runs on the curve and delta scaled by the power of two that
    puts delta in [1, 2).  That scaling is exact, so the cover is the one
    at any other scale, without squares that underflow or overflow; the
    report gives centres in input units.
    """
    started = time.perf_counter()
    shift = 1 - math.frexp(config.delta)[1]
    delta = math.ldexp(config.delta, shift)
    P_in = ingest(config.input_path)
    P = _scaled(P_in, shift)
    ingested = time.perf_counter()
    simp = simplify_curve(P, delta)
    S = _promote_single_vertex(simp.curve)
    simplified = time.perf_counter()
    cfg = SolverConfig(gamma=config.gamma_override, rng_seed=config.seed)
    factor = 12.0 if config.variant == "implicit" else 11.0
    failure = None
    try:
        if config.variant == "greedy":
            result = greedy_max_coverage(P, delta, simplification=simp)
        else:
            solve = implicit_approx_cover if config.variant == "implicit" else approx_cover
            result = solve(P, delta, cfg, simplification=simp)
    except SolverFailure as exc:
        failure, result = exc, None
    solved = time.perf_counter()
    # wall time per pipeline stage; a run whose solver failed has no verify stage
    stage_s = {
        "ingest": ingested - started,
        "simplify": simplified - ingested,
        "solve": solved - simplified,
    }

    radius = factor * config.delta  # in input units; overflows near the largest floats
    report = {
        "schema": 2,
        "input": config.input_path,
        "delta": config.delta,
        "variant": config.variant,
        "seed": config.seed,
        "guarantee_radius": radius if math.isfinite(radius) else None,
        "n_vertices": P.n,
        "n_simplified": S.n,
    }
    if failure is not None:
        report["verdict"] = "FAILED"
        report["failure"] = str(failure)
        report["diagnostics"] = failure.diagnostics
    else:
        centers = result.center_segments(S)
        coverage = full_coverage(_promote_single_vertex(P), centers, factor * delta)
        centers = [Segment(np.ldexp(q.start, -shift), np.ldexp(q.end, -shift)) for q in centers]
        verdict = "SKIPPED"
        if config.verify:
            verdict = "PASS" if covers_unit(coverage) else "FAILED"
        report.update(
            {
                "k_found": result.k_found,
                "n_centers": len(result.centers),
                "n_sampled": result.n_sampled,
                "iterations": result.iterations,
                "proper_updates": result.proper_iterations,
                "coverage_filled": result.coverage_filled,
                "coverage_cache_hits": result.coverage_cache_hits,
                "feasible_mass": result.feasible_mass,
                "feasibility": result.feasibility,
                "phases": result.phases,
                "centers": [[seg.start.tolist(), seg.end.tolist()] for seg in centers],
                "coverage": [[iv.lo, iv.hi] for iv in coverage],
                "verdict": verdict,
            }
        )
        stage_s["verify"] = time.perf_counter() - solved
    report["stage_s"] = stage_s
    report["wall_time_s"] = time.perf_counter() - started

    if config.output_json_path:
        with open(config.output_json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    if config.output_svg_path and failure is None:
        render_svg(PolyCurve(P_in.vertices, P.vertex_params), centers, coverage, config.output_svg_path)
    return report


def render_svg(P: PolyCurve, centers: Sequence[Segment], coverage: Sequence[Interval], path: str):
    """Deterministic SVG: input polyline, covered portions, center segments."""
    if P.dim != 2:
        raise ValueError("SVG rendering requires 2-dimensional curves")
    pts = P.vertices
    all_pts = [pts] + [np.vstack([s.start, s.end]) for s in centers]
    stack = np.vstack(all_pts)
    lo = stack.min(axis=0)
    hi = stack.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span
    lo, hi = lo - margin, hi + margin
    w, h = hi - lo

    def fmt(x):
        return f"{x:.6f}"

    def poly_points(arr):
        return " ".join(f"{fmt(x)},{fmt(y)}" for x, y in arr)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(lo[0])} {fmt(lo[1])} '
        f'{fmt(w)} {fmt(h)}">',
        f'<g transform="translate(0,{fmt(lo[1] + hi[1])}) scale(1,-1)">',
        f'<polyline fill="none" stroke="#888888" stroke-width="{fmt(0.004 * max(w, h))}" '
        f'points="{poly_points(pts)}"/>',
    ]
    for iv in coverage:
        if iv.is_empty():
            continue
        samples = np.linspace(iv.lo, iv.hi, max(2, 2 + 4 * P.num_edges))
        arc = np.array([P.eval(t) for t in samples])
        lines.append(
            f'<polyline fill="none" stroke="#2ca02c" stroke-opacity="0.6" '
            f'stroke-width="{fmt(0.008 * max(w, h))}" points="{poly_points(arc)}"/>'
        )
    for seg in centers:
        lines.append(
            f'<line x1="{fmt(seg.start[0])}" y1="{fmt(seg.start[1])}" '
            f'x2="{fmt(seg.end[0])}" y2="{fmt(seg.end[1])}" stroke="#d62728" '
            f'stroke-width="{fmt(0.006 * max(w, h))}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="subcover",
        description="Cover a polygonal trajectory with few segment patterns "
        "under the Frechet distance.",
    )
    ap.add_argument("--input", required=True, help="trajectory file, one point per line")
    ap.add_argument("--delta", required=True, type=float, help="target radius")
    ap.add_argument(
        "--variant", choices=("explicit", "implicit", "greedy"), default="explicit"
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gamma", type=int, default=None, help="sample-size constant override")
    ap.add_argument("--out", default=None, help="write the JSON report here")
    ap.add_argument("--svg", default=None, help="write an SVG rendering here (2D only)")
    ap.add_argument("--verify", action="store_true", help="check the cover on the input curve")
    args = ap.parse_args(argv)

    try:
        report = run(RunConfig(
            input_path=args.input,
            delta=args.delta,
            variant=args.variant,
            seed=args.seed,
            gamma_override=args.gamma,
            output_json_path=args.out,
            output_svg_path=args.svg,
            verify=args.verify,
        ))
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    if report["verdict"] == "FAILED":
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
