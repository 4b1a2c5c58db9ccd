"""Bicriteria segment-cover search by sampling with multiplicative weights.

The driver doubles a target size k.  For each k it repeatedly samples a
large candidate batch from a weighted distribution; if the batch fails to
cover the simplification, the weights of every candidate able to cover a
witness uncovered point are doubled (only when that feasible set is light,
which keeps total weight growth in check).  A successful batch at working
radius 8*delta on the simplification is an 11*delta cover of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .candidates import Candidate, candidate_segments, candidate_set
from .coverage import (
    CoverageSet,
    batch_candidate_coverage,
    batch_feasible_mask,
    covers_unit,
    coverage_measure,
    merge_intervals,
    point_not_covered_from_intervals,
)
from .geometry import Interval, PolyCurve, Segment
from .simplify import Simplification, simplify_curve

GAMMA_SLOPE = 110  # feasibility test cost is linear in the dimension
GAMMA_OFFSET = 412


def default_gamma(d: int) -> int:
    """Complexity bound of the feasibility predicate; controls sample sizes."""
    return GAMMA_SLOPE * d + GAMMA_OFFSET


@dataclass(frozen=True)
class SolverConfig:
    gamma: Optional[int] = None  # default: 110*d + 412
    rng_seed: int = 0
    max_k: int = 2**20
    variant: str = "explicit"
    k_prime_override: Optional[int] = None
    check_invariants: bool = True
    workers: int = 1  # read-only scans may be partitioned across threads

    def resolve_gamma(self, d: int) -> int:
        g = self.gamma if self.gamma is not None else default_gamma(d)
        if g < 1:
            raise ValueError("gamma must be at least 1")
        return g


class SolverFailure(RuntimeError):
    """Raised when the doubling search exceeds the size cap."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class ExplicitDist:
    """Weighted candidate distribution with cumulative sums for sampling.

    Weights are kept normalized; log2_scale records the factor divided out
    so the true total weight remains available for the growth invariant.
    """

    candidates: List[Candidate]
    weights: np.ndarray
    cumulative: np.ndarray = field(init=False)
    log2_scale: float = 0.0

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("empty candidate set")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        self.cumulative = np.cumsum(self.weights)

    @staticmethod
    def uniform(candidates: Sequence[Candidate]) -> "ExplicitDist":
        return ExplicitDist(list(candidates), np.ones(len(candidates)))

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def log2_total(self) -> float:
        return math.log2(self.total) + self.log2_scale

    def probability(self, indices: np.ndarray) -> float:
        return float(self.weights[indices].sum() / self.total)


def weight_update(dist: ExplicitDist, F: Sequence[int]) -> ExplicitDist:
    """Double the weight of every candidate in F (a set, no multiplicity)."""
    idx = np.asarray(sorted(set(F)), dtype=int)
    w = dist.weights.copy()
    if idx.size:
        w[idx] *= 2.0
    scale = dist.log2_scale
    peak = float(w.max())
    if peak > 2.0**500:  # renormalize well before float overflow
        w /= peak
        scale += math.log2(peak)
    out = ExplicitDist(dist.candidates, w)
    out.log2_scale = scale
    return out


def sample(dist: ExplicitDist, count: int, rng: np.random.Generator) -> List[Candidate]:
    """count independent draws by binary search on the cumulative sums."""
    if count < 1:
        raise ValueError("count must be positive")
    idx = sample_indices(dist, count, rng)
    return [dist.candidates[i] for i in idx]


def sample_indices(dist: ExplicitDist, count: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(count) * dist.total
    return np.searchsorted(dist.cumulative, u, side="right")


@dataclass
class CoverResult:
    centers: List[Candidate]
    k_found: int
    iterations: int
    delta_out: float
    proper_iterations: int = 0

    def center_segments(self, S: PolyCurve) -> List[Segment]:
        return [c.segment(S) for c in self.centers]


@dataclass
class _LoopStats:
    rounds: int = 0
    proper: int = 0


class _CoverageCache:
    """Per-candidate structured coverage intervals, filled in vectorized blocks.

    The fill is a read-only scan and may be partitioned across threads.
    """

    def __init__(
        self, S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float, workers: int = 1
    ):
        self.S = S
        self.starts = starts
        self.ends = ends
        self.delta = delta
        self.workers = max(workers, 1)
        self._known: Dict[int, List[Interval]] = {}

    def _fill(self, missing: List[int]) -> None:
        midx = np.asarray(missing, dtype=int)
        if self.workers > 1 and len(missing) > 64:
            from concurrent.futures import ThreadPoolExecutor

            chunks = np.array_split(midx, self.workers)
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(
                    pool.map(
                        lambda c: batch_candidate_coverage(
                            self.S, self.starts[c], self.ends[c], self.delta
                        ),
                        [c for c in chunks if len(c)],
                    )
                )
            got: List[List[Interval]] = []
            for r in results:
                got.extend(r)
        else:
            got = batch_candidate_coverage(self.S, self.starts[midx], self.ends[midx], self.delta)
        for i, ivs in zip(missing, got):
            self._known[int(i)] = ivs

    def intervals_for(self, distinct: np.ndarray) -> List[Interval]:
        """Coverage intervals of the given candidates, which must be distinct."""
        missing = [i for i in distinct.tolist() if i not in self._known]
        if missing:
            self._fill(missing)
        out: List[Interval] = []
        for i in distinct.tolist():
            out.extend(self._known[i])
        return out


def k_approx_cover(
    S: PolyCurve,
    dist: ExplicitDist,
    r: float,
    delta_p: float,
    k_prime: int,
    i_max: int,
    rng: np.random.Generator,
    *,
    cache: Optional[_CoverageCache] = None,
    stats: Optional[_LoopStats] = None,
    check_invariants: bool = True,
) -> Optional[CoverResult]:
    """Sampling loop for one target size; None when i_max updates were spent.

    Proper iterations are the weight updates; sampling rounds whose feasible
    set is too heavy (probability above 1/r) do not count toward i_max.  A
    generous cap on total rounds guards against the zero-progress regime.
    """
    if stats is None:
        stats = _LoopStats()
    if cache is None:
        starts, ends = candidate_segments(S, dist.candidates)
        cache = _CoverageCache(S, starts, ends, delta_p)
    log2_initial_total = dist.log2_total()
    i = 1
    local_proper = 0
    rounds = 0
    max_rounds = max(1000, 20 * i_max)
    while i <= i_max and rounds < max_rounds:
        rounds += 1
        stats.rounds += 1
        idx = sample_indices(dist, k_prime, rng)
        # the round's distinct draws in increasing order, in O(k' + |B|)
        drawn = np.flatnonzero(np.bincount(idx, minlength=len(dist.candidates)))
        covered = cache.intervals_for(drawn)
        witness = point_not_covered_from_intervals(S, covered)
        if witness is None:
            centers = [dist.candidates[k] for k in drawn.tolist()]
            return CoverResult(
                centers=centers,
                k_found=0,
                iterations=stats.rounds,
                delta_out=delta_p,
                proper_iterations=stats.proper,
            )
        feas = batch_feasible_mask(S, witness, cache.starts, cache.ends, delta_p)
        fidx = np.nonzero(feas)[0]
        pr = dist.probability(fidx)
        if pr <= 1.0 / r:
            dist = weight_update(dist, fidx)
            i += 1
            local_proper += 1
            stats.proper += 1
            if check_invariants:
                # each light update multiplies total weight by at most 1 + 1/r
                bound = local_proper * math.log2(1.0 + 1.0 / r)
                if dist.log2_total() > log2_initial_total + bound + 1e-6:
                    raise RuntimeError("weight growth bound violated")
    return None


def approx_cover(
    P: PolyCurve,
    delta: float,
    cfg: SolverConfig = SolverConfig(),
    *,
    simplification: Optional[Simplification] = None,
    candidates: Optional[List[Candidate]] = None,
) -> CoverResult:
    """Cover the input curve with segment centers at radius 11*delta.

    Simplifies, generates candidate subsegments, then doubles the target
    size k until the sampling loop returns a cover of the simplification at
    radius 8*delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    P = _promote_single_vertex(P)
    simp = simplification if simplification is not None else simplify_curve(P, delta)
    S = _promote_single_vertex(simp.curve)
    B = candidates if candidates is not None else candidate_set(S, delta)
    gamma = cfg.resolve_gamma(P.dim)
    rng = np.random.default_rng(cfg.rng_seed)
    delta_p = 8.0 * delta
    starts, ends = candidate_segments(S, B)
    cache = _CoverageCache(S, starts, ends, delta_p, workers=cfg.workers)
    stats = _LoopStats()
    k = 1
    while True:
        k *= 2
        if k > cfg.max_k:
            raise SolverFailure(
                "target size cap exceeded",
                {
                    "max_k": cfg.max_k,
                    "candidates": len(B),
                    "rounds": stats.rounds,
                    "proper_iterations": stats.proper,
                },
            )
        r = 2.0 * k
        if cfg.k_prime_override is not None:
            k_prime = cfg.k_prime_override
        else:
            k_prime = math.ceil(16 * k * gamma * math.log(16 * k * gamma))
        i_max = max(math.ceil(5 * k * math.log2(len(B) / k)) if len(B) > k else 0, 1)
        dist = ExplicitDist.uniform(B)
        result = k_approx_cover(
            S,
            dist,
            r,
            delta_p,
            k_prime,
            i_max,
            rng,
            cache=cache,
            stats=stats,
            check_invariants=cfg.check_invariants,
        )
        if result is not None:
            result.k_found = k
            return result


def _promote_single_vertex(P: PolyCurve) -> PolyCurve:
    if P.n >= 2:
        return P
    v = P.vertices[0]
    return PolyCurve(np.array([v, v]), np.array([0.0, 1.0]))


def greedy_max_coverage(
    S: PolyCurve, B: Sequence[Candidate], delta: float, k_budget: int
) -> CoverResult:
    """Pick the candidate adding the most covered measure until done.

    Stops at the budget, at full coverage, or when no candidate adds
    anything.  Ties break toward the lowest candidate index.
    """
    if k_budget < 1:
        raise ValueError("k_budget must be at least 1")
    starts, ends = candidate_segments(S, B)
    per = batch_candidate_coverage(S, starts, ends, delta)
    chosen: List[int] = []
    covered: CoverageSet = []
    for _ in range(k_budget):
        base = coverage_measure(covered)
        best_gain, best_idx = 0.0, None
        for idx, ivs in enumerate(per):
            if idx in chosen or not ivs:
                continue
            gain = coverage_measure(covered + ivs) - base
            if gain > best_gain + 1e-15:
                best_gain, best_idx = gain, idx
        if best_idx is None:
            break
        chosen.append(best_idx)
        covered = merge_intervals(covered + per[best_idx])
        if covers_unit(covered):
            break
    return CoverResult(
        centers=[B[i] for i in chosen],
        k_found=len(chosen),
        iterations=len(chosen),
        delta_out=delta,
    )
