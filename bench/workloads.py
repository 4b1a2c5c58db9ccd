"""Seeded inputs and the fixed batch of solves of each benchmark workload.

A *route* is a noisy regular polygon (a square of side 10 unless stated)
traversed ``laps`` times, sampled at ``n`` points; in 3-D the height follows
one sine period per lap, so every lap retraces the same closed curve.  The
workload seed and the route's position in the workload seed the noise, and
the files are written with ``subcover.cli.write_curve`` so the solves
exercise the CLI's ingest path.

The update workload uses triangles: at k'=4 a square needs its 4 draws on 4
different sides, a lottery whose round count varies too much between seeds
for a steady batch time, while on a triangle the work is driven by weight
updates.  Solves are kept short (tens of milliseconds) so that each one runs
many times in a run and its fastest time is found (see README).

A *solve* is what a user pays for one CLI invocation, run in-process:
ingest, simplify, solve, report (including ``oracle.full_coverage`` at the
guarantee radius).  Solves with ``k_prime=None`` go through
``cli.run(RunConfig(..., verify=True))``; the CLI has no k' flag, so forced-k'
solves call the same functions in the same order as ``cli.run``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

DELTA = 0.5
# k' of the forced implicit solve: at 4 its time varies about 3x more per
# second of work than at 6, too much to average out in a run (see README)
IMPLICIT_K_PRIME = 6


@dataclass(frozen=True)
class Route:
    name: str
    n: int
    dim: int
    laps: int
    noise: float  # standard deviation of the Gaussian noise per coordinate
    sides: int = 4  # corners of the regular polygon traversed
    side: float = 10.0  # side length


@dataclass(frozen=True)
class Solve:
    route: str
    variant: str  # explicit | greedy | implicit
    k_prime: Optional[int]  # None: through cli.run, with the CLI's --gamma if set
    rng_offset: int  # added to seed * 1000 to give the CLI's --seed; unique in a batch
    gamma: Optional[int] = None  # the CLI's --gamma; None keeps the shipped default


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    routes: Tuple[Route, ...]
    solves: Tuple[Solve, ...]


def _cli_routes(scale: str) -> Workload:
    if scale == "tiny":
        counts, sizes = (1, 1, 1), (30, 30, 60)
    else:
        counts, sizes = (6, 5, 3), (50, 50, 160)
    kinds = (("sq2d", 2, 1, 0.1), ("sq3d", 3, 1, 0.1), ("long", 2, 2, 0.03))
    routes = tuple(
        Route(f"{name}{i}", n, dim, laps, noise)
        for (name, dim, laps, noise), count, n in zip(kinds, counts, sizes)
        for i in range(count)
    )
    solves = tuple(
        Solve(r.name, "greedy" if r.name.startswith("long") else "explicit", None, index)
        for index, r in enumerate(routes)
    )
    return Workload(
        "cli-routes",
        "shipped CLI defaults: the default-gamma draw of ~2e5 samples, simplification of long "
        "routes, checking every returned centre, and the 3-D paths; no weight updates",
        routes, solves)


def _updates(scale: str) -> Workload:
    # Explicit solves run on lapped routes, greedy and gamma=1 implicit on
    # one-lap ones, so the batch's median solve is a deterministic implicit
    # one, not one whose time depends on a random round count.
    if scale == "tiny":
        explicit = (Route("lapx0", 60, 2, 2, 0.15, sides=3, side=12.0),)
        shared = (Route("tri0", 30, 2, 1, 0.15, sides=3, side=12.0),)
        updating = (Route("upd0", 30, 2, 1, 0.15, sides=3, side=12.0),)
    else:
        explicit = tuple(Route(f"lapx{i}", 120, 2, 2, 0.15, sides=3, side=30.0) for i in range(6))
        shared = tuple(Route(f"tri{i}", 45, 2, 1, 0.15, sides=3, side=30.0) for i in range(6))
        updating = (Route("upd0", 20, 2, 1, 0.15, sides=3, side=15.0),)
    solves = []
    for r in explicit:
        solves.append(Solve(r.name, "explicit", 4, len(solves)))
    for r in shared:
        solves.append(Solve(r.name, "greedy", None, len(solves)))
        solves.append(Solve(r.name, "implicit", None, len(solves), gamma=1))
    for r in updating:
        solves.append(Solve(r.name, "implicit", IMPLICIT_K_PRIME, len(solves)))
    return Workload(
        "updates",
        "forced-k' explicit, greedy and implicit on triangles: candidates, coverage fills, "
        "feasibility masks, weight updates and implicit arrangement rebuilds do the work",
        explicit + shared + updating, tuple(solves))


WORKLOADS = {
    "cli-routes": _cli_routes,
    "updates": _updates,
}


def route_points(route: Route, seed: int, index: int) -> np.ndarray:
    """Sample points of a lapped polygon route with seeded Gaussian noise."""
    rng = np.random.default_rng([seed, index])
    k = route.sides
    turns = 2.0 * np.pi * np.arange(k) / k
    steps = route.side * np.stack([np.cos(turns), np.sin(turns)], axis=1)
    corners = np.round(np.cumsum(steps, axis=0) - steps, 12)  # starts at the origin
    t = np.linspace(0.0, float(k * route.laps), route.n, endpoint=False)
    edge = np.floor(t).astype(int) % k
    f = (t - np.floor(t))[:, None]
    pts = np.zeros((route.n, route.dim))
    pts[:, :2] = (1.0 - f) * corners[edge] + f * corners[(edge + 1) % k]
    if route.dim > 2:
        pts[:, 2] = 0.2 * route.side * np.sin(2.0 * np.pi * t / k)
    return pts + rng.normal(0.0, route.noise, size=pts.shape)


def write_inputs(mods, workload: Workload, seed: int, directory: str) -> Dict[str, str]:
    """Generate and write every route of the workload; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for index, route in enumerate(workload.routes):
        pts = route_points(route, seed, index)
        path = os.path.join(directory, f"{route.name}.txt")
        mods.cli.write_curve(mods.geometry.PolyCurve(pts), path)
        paths[route.name] = path
    return paths


def run_solve(mods, path: str, solve: Solve, seed: int) -> dict:
    """One CLI-equivalent invocation; returns the report dictionary."""
    cli_seed = seed * 1000 + solve.rng_offset
    if solve.k_prime is None:
        return mods.cli.run(mods.cli.RunConfig(
            input_path=path, delta=DELTA, variant=solve.variant, seed=cli_seed,
            gamma_override=solve.gamma, verify=True))
    return _run_forced(mods, path, solve, cli_seed)


def _run_forced(mods, path: str, solve: Solve, cli_seed: int) -> dict:
    """cli.run's steps, resolved through subcover.cli, with k' forced."""
    cli = mods.cli
    P = cli.ingest(path)
    simp = cli.simplify_curve(P, DELTA)
    S = simp.curve if simp.curve.n >= 2 else cli.PolyCurve(
        np.vstack([simp.curve.vertices, simp.curve.vertices]), np.array([0.0, 1.0])
    )
    cfg = cli.SolverConfig(rng_seed=cli_seed, variant=solve.variant, workers=1,
                           k_prime_override=solve.k_prime)
    report = {"variant": solve.variant, "n_vertices": P.n, "n_simplified": S.n}
    try:
        if solve.variant == "implicit":
            guarantee = 12.0 * DELTA
            result = cli.implicit_approx_cover(P, DELTA, cfg)
        else:
            guarantee = 11.0 * DELTA
            result = cli.approx_cover(P, DELTA, cfg, simplification=simp)
    except cli.SolverFailure as exc:
        report.update(verdict="FAILED", failure=str(exc))
        return report
    centers = result.center_segments(S)
    coverage = cli.full_coverage(P, centers, guarantee)
    report.update(
        guarantee_radius=guarantee,
        k_found=result.k_found,
        iterations=result.iterations,
        proper_updates=result.proper_iterations,
        centers=[[seg.start.tolist(), seg.end.tolist()] for seg in centers],
        coverage=[[iv.lo, iv.hi] for iv in coverage],
        verdict="PASS" if cli.covers_unit(coverage) else "FAILED",
    )
    return report


class Gate:
    """Correctness checks, run outside the timed region.

    A solve passes when its guarantee-radius verdict is PASS (11*delta for
    explicit and greedy, 12*delta for implicit) and its centres cover the
    simplification under the structured coverage at the working radius
    (8*delta, or 9*delta for implicit).
    """

    def __init__(self, mods, paths: Dict[str, str]):
        self.mods = mods
        self.paths = paths
        self._simplified: Dict[str, object] = {}
        self._passed: Dict[Solve, List] = {}

    def simplification(self, route: str):
        if route not in self._simplified:
            P = self.mods.cli.ingest(self.paths[route])
            S = self.mods.simplify.simplify_curve(P, DELTA).curve
            self._simplified[route] = self.mods.solver._promote_single_vertex(S)
        return self._simplified[route]

    def check(self, solve: Solve, report: Optional[dict]) -> bool:
        if report is None or report.get("verdict") != "PASS":
            return False
        if self._passed.get(solve) == report["centers"]:
            return True  # the same cover was already checked
        geometry, coverage = self.mods.geometry, self.mods.coverage
        S = self.simplification(solve.route)
        centers = [geometry.Segment(a, b) for a, b in report["centers"]]
        radius = (9.0 if solve.variant == "implicit" else 8.0) * DELTA
        ok = bool(centers) and coverage.covers_unit(coverage.structured_coverage(S, centers, radius))
        if ok:
            self._passed[solve] = report["centers"]
        return ok

    def input_stats(self, route: Route) -> dict:
        """n, m and |B| of one generated input, to show generator drift."""
        S = self.simplification(route.name)
        n = self.mods.cli.ingest(self.paths[route.name]).n
        B = len(self.mods.candidates.candidate_set(S, DELTA))
        return {"route": route.name, "dim": route.dim, "n": n, "m": S.n, "B": B}
