"""Bicriteria segment-cover search by sampling with multiplicative weights.

The driver doubles a target size k.  For each k it repeatedly samples a
large candidate batch from a weighted distribution; if the batch fails to
cover the simplification, the weights of every candidate able to cover a
witness uncovered point are doubled (only when that feasible set is light,
which keeps total weight growth in check).  A successful batch at working
radius 8*delta on the simplification is an 11*delta cover of the input.

A round needs only which candidates its k' draws hit, so it draws the
per-candidate counts from one multinomial (``sample_indices``), in time and
memory linear in the number of candidates whatever k' is.  The counts have
exactly the law of the histogram of k' independent draws, so the law of
every round is that of k' separate draws; the random stream is not, and a
seed picks different rounds than when each draw was taken on its own.

The batch itself is not returned: ``shrink_cover`` picks a greedy subset of
its distinct draws and stops as soon as that subset passes the same
coverage test, ``point_not_covered_from_intervals``, that declared the batch
a success.  So the 8*delta structured coverage, and with it the 11*delta
guarantee, is rechecked on what is returned, not assumed.  The greedy
baseline, ``greedy_max_coverage``, runs on the same array greedy,
``GreedyCore``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .candidates import Candidate, candidate_segments, candidate_set
from .coverage import (
    Coverage,
    FreeSpaceRows,
    batch_candidate_coverage,
    batch_feasible_mask,
    covers_unit,
    point_not_covered_from_intervals,
)
from .geometry import PolyCurve, Segment
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
    workers: int = 1  # ignored: the coverage fill runs in one thread

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
    """Weighted candidate distribution.

    Weights are kept normalized; log2_scale records the factor divided out
    so the true total weight remains available for the growth invariant.
    """

    candidates: List[Candidate]
    weights: np.ndarray
    total: float = field(init=False)
    log2_scale: float = 0.0

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("empty candidate set")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        self.total = float(self.weights.sum())

    @staticmethod
    def uniform(candidates: Sequence[Candidate]) -> "ExplicitDist":
        return ExplicitDist(list(candidates), np.ones(len(candidates)))

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
    """count independent draws, listed in candidate order."""
    if count < 1:
        raise ValueError("count must be positive")
    counts = sample_indices(dist, count, rng)
    return [dist.candidates[i] for i in np.repeat(np.arange(counts.size), counts)]


def sample_indices(dist: ExplicitDist, count: int, rng: np.random.Generator) -> np.ndarray:
    """How often each candidate is hit by count independent draws from dist.

    One multinomial draw: O(|B|) time and memory, whatever count is.
    """
    return rng.multinomial(count, dist.weights / dist.total)


@dataclass
class CoverResult:
    centers: List[Candidate]
    k_found: int
    iterations: int
    delta_out: float
    proper_iterations: int = 0
    # candidates the centres were picked from: the successful round's
    # distinct draws, or the whole candidate set for the greedy baseline
    n_sampled: int = 0
    # candidates whose coverage was computed, and draws that found theirs
    # already computed
    coverage_filled: int = 0
    coverage_cache_hits: int = 0

    def center_segments(self, S: PolyCurve) -> List[Segment]:
        return [c.segment(S) for c in self.centers]


@dataclass
class _LoopStats:
    rounds: int = 0
    proper: int = 0


class _CoverageCache:
    """Structured coverage of the candidates filled so far, one table row each.

    A candidate is filled on its first use, with the others new in the same
    round; ``filled`` counts the candidates filled and ``hits`` the uses
    that found theirs filled already.
    """

    def __init__(self, S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float):
        self.S = S
        self.starts = starts
        self.ends = ends
        self.delta = delta
        self.slot = np.full(len(starts), -1)  # each candidate's row in table, once filled
        self.table = Coverage.of([])
        self.filled = self.hits = 0
        self.rows = FreeSpaceRows(S, starts, ends, delta)  # for the feasibility masks

    def append(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Fill segments into new rows of the table; returns those rows."""
        slots = np.arange(len(self.table), len(self.table) + len(starts))
        self.table = self.table.extended(batch_candidate_coverage(self.S, starts, ends, self.delta))
        self.filled += len(starts)
        return slots

    def intervals_for(self, distinct: np.ndarray) -> Coverage:
        """Coverage of each given candidate; the indices must be distinct."""
        new = distinct[self.slot[distinct] < 0]
        self.hits += distinct.size - new.size
        if new.size:
            self.slot[new] = self.append(self.starts[new], self.ends[new])
        return self.table.take(self.slot[distinct])


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

    On success the centres are ``shrink_cover``'s subset of the round's
    distinct draws, in increasing candidate order.

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
        # the round's distinct draws in increasing order
        drawn = np.flatnonzero(sample_indices(dist, k_prime, rng))
        per = cache.intervals_for(drawn)
        witness = point_not_covered_from_intervals(S, per)
        if witness is None:
            keep = shrink_cover(S, per)
            return CoverResult(
                centers=[dist.candidates[k] for k in drawn[keep].tolist()],
                k_found=0,
                iterations=stats.rounds,
                delta_out=delta_p,
                proper_iterations=stats.proper,
                n_sampled=len(drawn),
                coverage_filled=cache.filled,
                coverage_cache_hits=cache.hits,
            )
        feas = batch_feasible_mask(S, witness, cache.starts, cache.ends, delta_p, cache.rows)
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
    cache = _CoverageCache(S, starts, ends, delta_p)
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


# A marginal measure at most this large counts as no gain; it absorbs the
# rounding of measures of at most 1.
_GAIN_TOL = 1e-15


class GreedyCore:
    """Greedy maximum coverage over the candidates' merged coverage intervals.

    Every candidate's intervals sit in flat arrays (owner, lo, hi), read
    from their ``Coverage``, and the
    covered union in sorted disjoint arrays with the covered length before
    each of its intervals.  The covered length below x is then one
    ``np.searchsorted`` away, so a step scores every candidate's marginal
    measure at once: its length minus the covered length inside it.  Ties
    follow a scan in index order in which a later candidate wins only by a
    gain more than ``_GAIN_TOL`` larger.
    """

    def __init__(self, per: Coverage):
        self.n = len(per)
        self.owner = np.repeat(np.arange(self.n), np.diff(per.offsets))
        self.lo, self.hi = per.lo, per.hi
        self._offsets = per.offsets
        self.chosen: List[int] = []
        self._taken = np.zeros(self.n, dtype=bool)
        # the union starts with a sentinel interval below every parameter
        self._ulo = np.array([-1.0])
        self._uhi = np.array([-1.0])
        self._before = np.zeros(1)

    def gains(self) -> np.ndarray:
        """Marginal covered measure of every candidate; 0 for chosen ones."""
        jl = np.searchsorted(self._ulo, self.lo, side="right") - 1
        jh = np.searchsorted(self._ulo, self.hi, side="right") - 1
        pl = np.minimum(self.lo, self._uhi[jl])
        ph = np.minimum(self.hi, self._uhi[jh])
        # within one union interval the difference is taken directly, so a
        # covered interval gains exactly 0
        inside = np.where(
            jl == jh,
            ph - pl,
            (self._before[jh] + (ph - self._ulo[jh])) - (self._before[jl] + (pl - self._ulo[jl])),
        )
        g = np.bincount(self.owner, weights=(self.hi - self.lo) - inside, minlength=self.n)
        g[self._taken] = 0.0
        return g

    def best(self) -> Optional[int]:
        """The candidate adding the most measure, or None when none adds any."""
        g = self.gains()
        if g.max(initial=0.0) <= _GAIN_TOL:
            return None
        # No gain lying more than _GAIN_TOL below every larger one can sway
        # the scan's pick, so the scan runs only over the gains above the
        # first such drop in the sorted gains.
        desc = np.sort(g)[::-1]
        drop = np.flatnonzero(desc[:-1] - desc[1:] > _GAIN_TOL)
        floor = desc[drop[0]] if drop.size else desc[-1]
        pick, level = None, 0.0
        for c in np.flatnonzero(g >= floor).tolist():
            if g[c] > level + _GAIN_TOL:
                pick, level = c, g[c]
        return pick

    def nearest(self, x: float) -> int:
        """Lowest-index candidate not yet chosen with an interval nearest x."""
        dist = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        dist[self._taken[self.owner]] = np.inf
        if not np.isfinite(dist.min(initial=np.inf)):
            raise ValueError("every candidate is chosen and the cover is still open")
        return int(self.owner[np.argmin(dist)])

    def add(self, c: int) -> None:
        """Choose candidate c and merge its intervals into the covered union."""
        self.chosen.append(c)
        self._taken[c] = True
        a, b = self._offsets[c], self._offsets[c + 1]
        lo = np.concatenate([self._ulo, self.lo[a:b]])
        hi = np.concatenate([self._uhi, self.hi[a:b]])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        reach = np.maximum.accumulate(hi)
        # as in merge_intervals: an interval starting after everything
        # before it has ended opens a new union interval
        first = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
        last = np.append(first[1:], lo.size) - 1
        self._ulo, self._uhi = lo[first], reach[last]
        self._before = np.concatenate([[0.0], np.cumsum(self._uhi - self._ulo)[:-1]])

    def covered(self) -> Coverage:
        """The covered union of the chosen candidates, as one candidate's."""
        return Coverage(np.array([0, self._ulo.size - 1]), self._ulo[1:], self._uhi[1:])


def shrink_cover(S: PolyCurve, per: Coverage) -> List[int]:
    """Ascending indices of a greedy subset of a covering sample that still covers S.

    ``per`` holds each sampled candidate's merged coverage intervals, which
    together pass ``point_not_covered_from_intervals``.  Candidates are
    picked by marginal measure until the chosen ones pass that same test.
    When none adds measure but a gap remains (one narrower than the gain
    tolerance, which the test's gap slack does not close, as at 0 and 1),
    the unchosen candidate nearest the test's witness point is added.  As
    the whole sample passes the test, some unchosen candidate lies within
    the gap slack of every point of the gap, and the loop ends after at most
    one pick per candidate.
    """
    core = GreedyCore(per)
    while True:
        witness = point_not_covered_from_intervals(S, core.covered())
        if witness is None:
            return sorted(core.chosen)
        pick = core.best()
        core.add(pick if pick is not None else core.nearest(S.edge_point_param(witness)))


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
    core = GreedyCore(batch_candidate_coverage(S, starts, ends, delta))
    for _ in range(k_budget):
        pick = core.best()
        if pick is None:
            break
        core.add(pick)
        if covers_unit(core.covered()[0]):
            break
    return CoverResult(
        centers=[B[i] for i in core.chosen],
        k_found=len(core.chosen),
        iterations=len(core.chosen),
        delta_out=delta,
        n_sampled=len(B),
        coverage_filled=len(B),
    )
