"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer rebinds public functions of the ``subcover`` modules to wrappers
that record spans (name, start, end, parent span, solve id) and counts.  A
function is rebound under every name by which a loaded ``subcover`` module
refers to it, for example ``subcover.implicit.feasible_rectangles`` as well
as ``subcover.coverage.feasible_rectangles``.  ``uninstall`` puts every
original back, so untraced timings never see a wrapper.

Every ``*_s`` metric is the *self* time of one span name: its duration minus
the time covered by its child spans.  Together with ``trace.unattributed_s``
(the self time of the per-solve root spans) they add up to the traced solve
time.  Kernels are counted, not timed, to keep the overhead low.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SOLVE_SPAN = "solve"

# Layer of each span name; a layer's self time is the sum over its spans.
SPAN_LAYER = {
    "cli.ingest": "cli",
    "simplify.simplify_curve": "simplify",
    "candidates.candidate_set": "candidates",
    "candidates.extremal_points": "candidates",
    "coverage.batch_candidate_coverage": "coverage",
    "coverage.batch_feasible_mask": "coverage",
    "coverage.feasible_rectangles": "coverage",
    "coverage.point_not_covered": "coverage",
    "solver.approx_cover": "solver",
    "solver.greedy": "solver",
    "implicit.implicit_approx_cover": "implicit",
    "implicit.arrangement_build": "implicit",
    "implicit.sample_candidates": "implicit",
    "implicit.feasible_weight": "implicit",
    "oracle.full_coverage": "oracle",
}
LAYERS = ("cli", "simplify", "candidates", "coverage", "solver", "implicit", "oracle")

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Spans and counts recorded in memory while a solve is open."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counts: Counter = Counter()
        self.solve_id: Optional[int] = None
        self._solve_start = 0.0
        self._stack: List[Tuple[int, str]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --

    def open_solve(self, solve_id: int) -> None:
        self.solve_id = solve_id
        self._stack.append((self._reserve(), SOLVE_SPAN))
        self._solve_start = perf_counter()

    def close_solve(self) -> None:
        end = perf_counter()
        idx, _ = self._stack.pop()
        self.spans[idx] = (SOLVE_SPAN, self._solve_start, end, -1, self.solve_id)
        self.solve_id = None

    def _reserve(self) -> int:
        self.spans.append(None)
        return len(self.spans) - 1

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    def timed(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.solve_id is None:
                return fn(*args, **kwargs)
            idx = tracer._reserve()
            parent = tracer._stack[-1][0]
            tracer._stack.append((idx, name))
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.solve_id)
            if hook is not None:
                hook(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.solve_id is not None:
                tracer.counts[key] += 1
                if hook is not None:
                    hook(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --

    def _rebind(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _rebind_everywhere(self, original, new) -> None:
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "subcover" or name.startswith("subcover.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, attr, new)

    def install(self, mods) -> None:
        """Wrap the pipeline's public functions in every consuming module."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def add(key, amount):
            def hook(tracer, args, out):
                tracer.counts[key] += amount(args, out)
            return hook

        def calls(key):
            return add(key, lambda args, out: 1)

        def fill_hook(tracer, args, out):
            tracer.counts["coverage.candidates_filled"] += len(args[1])
            if tracer.inside("solver.approx_cover"):
                tracer.counts["solver.mwu_filled"] += len(args[1])

        def draws_hook(tracer, args, out):
            tracer.counts["solver.draws"] += int(args[1])

        timed = [
            (mods.cli, "ingest", "cli.ingest", add("cli.n_points", lambda a, out: out.n)),
            (mods.simplify, "simplify_curve", "simplify.simplify_curve",
             add("simplify.m", lambda a, out: out.curve.n)),
            (mods.candidates, "candidate_set", "candidates.candidate_set",
             add("candidates.B", lambda a, out: len(out))),
            (mods.freespace, "extremal_points", "candidates.extremal_points",
             calls("candidates.extremal_points_calls")),
            (mods.coverage, "batch_candidate_coverage", "coverage.batch_candidate_coverage", fill_hook),
            (mods.coverage, "batch_feasible_mask", "coverage.batch_feasible_mask",
             calls("coverage.batch_feasible_mask_calls")),
            (mods.coverage, "feasible_rectangles", "coverage.feasible_rectangles",
             calls("coverage.feasible_rectangles_calls")),
            (mods.coverage, "point_not_covered_from_intervals", "coverage.point_not_covered", None),
            (mods.solver, "approx_cover", "solver.approx_cover", None),
            (mods.solver, "greedy_max_coverage", "solver.greedy", None),
            (mods.implicit, "implicit_approx_cover", "implicit.implicit_approx_cover", None),
            (mods.oracle, "full_coverage", "oracle.full_coverage",
             add("oracle.centers_checked", lambda args, out: len(args[1]))),
        ]
        for module, attr, name, hook in timed:
            original = getattr(module, attr)
            self._rebind_everywhere(original, self.timed(name, original, hook))

        counted = [
            (mods.solver, "sample_indices", "solver.rounds", draws_hook),
            (mods.solver, "weight_update", "solver.proper_updates", None),
            (mods.geometry, "ball_segment_radical", "geometry.ball_segment_radical_calls", None),
            (mods.geometry, "capsule_segment_radical", "geometry.capsule_segment_radical_calls", None),
            (mods.freespace, "decide_frechet_subcurve_segment", "freespace.decide_frechet_calls", None),
        ]
        for module, attr, key, hook in counted:
            original = getattr(module, attr)
            self._rebind_everywhere(original, self.counted(key, original, hook))
        # simplify's own calls are also counted apart from the oracle's
        self._rebind(
            mods.simplify,
            "decide_frechet_subcurve_segment",
            self.counted("simplify.frechet_decisions", mods.simplify.decide_frechet_subcurve_segment),
        )

        Base = mods.implicit.EdgeArrangement

        class TracedEdgeArrangement(Base):
            __init__ = self.timed(
                "implicit.arrangement_build", Base.__init__, calls("implicit.arrangement_builds")
            )
            sample_candidates = self.timed(
                "implicit.sample_candidates", Base.sample_candidates, calls("implicit.rounds")
            )
            feasible_weight = self.timed("implicit.feasible_weight", Base.feasible_weight)
            rebuilt_with = self.counted("implicit.updates", Base.rebuilt_with)
            candidate_count = self.counted(
                "implicit.candidate_count_calls",
                Base.candidate_count,
                add("implicit.grid_candidates", lambda args, out: out),
            )

        TracedEdgeArrangement.__name__ = Base.__name__
        self._rebind(mods.implicit, "EdgeArrangement", TracedEdgeArrangement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, old = self._patches.pop()
            setattr(module, attr, old)

    # -- reporting --

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, solve id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
