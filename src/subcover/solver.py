"""Bicriteria segment-cover search by sampling with multiplicative weights.

One search serves both of the paper's algorithms, which are the same
Brönnimann-Goodrich loop over different weight storage.  ``doubling_search``
doubles a target size k; for each k, ``k_approx_cover`` starts again from
the initial weighting and draws batches of k' candidates.  If a batch fails
to cover the curve, the weights of every candidate able to cover a witness
uncovered point are doubled, but only when that feasible set is light
(mass at most 1/r), so each update multiplies the total weight by at most
1 + 1/r; that bound is checked after every update.

A weighting (``Weighting``) is a distribution over numbered candidates.
An update returns a new weighting, so every k can start again from the
initial one.  There are two:

- ``ExplicitDist`` keeps a float weight per candidate of an explicit list;
  a candidate's number is its index.  The search runs at radius 8*delta on
  the simplification, which gives an 11*delta cover of the input.
- ``implicit.EdgeArrangement`` keeps exact integer weights on cells of
  per-edge candidate grids; the search runs at 9*delta, for 12*delta.

A weighting carries its solve's one coverage source, ``cache``.  A round's
coverage is a fresh fill of its distinct draws (``_DrawFills``) or, once an
explicit solve has filled all of B, a slice of that table
(``_CoverageCache``).  The explicit cache also answers the feasibility
queries, by a mask over B or by stabbing the table's window intervals.  By
measured prices, the table is filled before round 1 when it costs at most
two failed lazy rounds and round 1 has not drawn all of B, otherwise once
the lazy fills and masks have paid two thirds of its price.

An explicit round needs only which candidates its k' draws hit, so it draws
the per-candidate counts from one multinomial (``sample_indices``), in time
and memory linear in the number of candidates whatever k' is.  The counts
have exactly the law of the histogram of k' independent draws, so the law
of every round is that of k' separate draws; the random stream is not, and
a seed picks different rounds than when each draw was taken on its own.

The batch itself is not returned: ``shrink_cover`` picks a greedy subset of
its distinct draws and stops as soon as that subset passes the same
coverage test, ``point_not_covered_from_intervals``, that declared the batch
a success.  So the structured coverage, and with it the guarantee on the
input, is rechecked on what is returned, not assumed.  The greedy baseline,
``greedy_max_coverage``, is that covering round with every candidate drawn:
it fills all of B and returns ``shrink_cover``'s subset of it, so a
default-gamma explicit solve whose round 1 draws all of B returns the same
centres.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .candidates import Candidate, candidate_segments, candidate_set
from .coverage import (
    MAX_WINDOW_EDGES,
    Coverage,
    WindowTable,
    batch_candidate_coverage,
    batch_feasible_mask,
    point_not_covered_from_intervals,
)
from .geometry import EdgePoint, PolyCurve, Segment
from .simplify import Simplification, simplify_curve

GAMMA_SLOPE = 110  # feasibility test cost is linear in the dimension
GAMMA_OFFSET = 412


def default_gamma(d: int) -> int:
    """Complexity bound of the feasibility predicate; controls sample sizes."""
    return GAMMA_SLOPE * d + GAMMA_OFFSET


class SolverConfig(NamedTuple):
    gamma: Optional[int] = None  # default: 110*d + 412
    rng_seed: int = 0
    max_k: int = 2**20
    variant: str = "explicit"  # ignored: the function called picks the weighting
    k_prime_override: Optional[int] = None
    workers: int = 1  # ignored: the coverage fill runs in one thread

    def resolve_gamma(self, d: int) -> int:
        g = self.gamma if self.gamma is not None else default_gamma(d)
        if g < 1:
            raise ValueError("gamma must be at least 1")
        return g


class SolverFailure(RuntimeError):
    """Raised when the doubling search exceeds the size cap, or with k'
    forced, when a k-phase ends without a weight update; and when the
    candidates of ``greedy_max_coverage`` leave a gap."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class Weighting(Protocol):
    """Weights over numbered candidates, as the search reads them."""

    cache: "_DrawFills"  # the solve's coverage source, shared by every rebuild

    def distinct_draws(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Increasing numbers of the candidates hit by count independent draws."""

    def candidate_at(self, number: int) -> Candidate:
        """The candidate with the given number."""

    def feasible_weight(self, t: EdgePoint) -> float:
        """Probability mass of the candidates able to cover t."""

    def rebuilt_with(self, t: EdgePoint) -> "Weighting":
        """This weighting with the weight of every candidate able to cover t doubled."""

    def log2_total(self) -> float:
        """log2 of the total weight, for the growth bound."""


class ExplicitDist:
    """Weights over an explicit candidate list; candidate number i is candidates[i].

    Weights are kept normalized; log2_scale records the factor divided out
    so the true total weight remains available for the growth invariant.
    A candidate is feasible at t exactly when t lies in its structured
    coverage, so the feasible sets come from ``cache``, the coverage cache
    of the solve, which every weighting rebuilt from this one shares and
    which fills the rounds.  ``on`` builds it.
    """

    __slots__ = ("candidates", "weights", "cache", "total", "log2_scale", "_feasible")

    def __init__(
        self,
        candidates: List[Candidate],
        weights: np.ndarray,
        cache: "_CoverageCache",
        log2_scale: float = 0.0,
    ):
        if len(candidates) == 0:
            raise ValueError("empty candidate set")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        self.candidates = candidates
        self.weights = weights
        self.cache = cache
        self.total = float(weights.sum())
        self.log2_scale = log2_scale
        self._feasible = (None, None)  # the last witness queried and its feasible set

    @staticmethod
    def on(
        S: PolyCurve, candidates: Sequence[Candidate], delta: float, weights: Optional[np.ndarray] = None
    ) -> "ExplicitDist":
        """Weights over candidates on S, uniform by default, queried at radius delta."""
        w = np.ones(len(candidates)) if weights is None else weights
        return ExplicitDist(list(candidates), w, _CoverageCache(S, delta, candidate_segments(S, candidates)))

    def log2_total(self) -> float:
        return math.log2(self.total) + self.log2_scale

    def probability(self, indices: np.ndarray) -> float:
        return float(self.weights[indices].sum() / self.total)

    def distinct_draws(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.flatnonzero(sample_indices(self, count, rng))

    def candidate_at(self, number: int) -> Candidate:
        return self.candidates[number]

    def _feasible_set(self, t: EdgePoint) -> np.ndarray:
        """Numbers of the candidates able to cover t.

        The last witness's set is kept, so ``rebuilt_with`` after
        ``feasible_weight`` at the same witness queries the cache once.
        """
        if self._feasible[0] != t:
            self._feasible = (t, self.cache.feasible(t))
        return self._feasible[1]

    def feasible_weight(self, t: EdgePoint) -> float:
        return self.probability(self._feasible_set(t))

    def rebuilt_with(self, t: EdgePoint) -> "ExplicitDist":
        return weight_update(self, self._feasible_set(t))


def weight_update(dist: ExplicitDist, F: Sequence[int]) -> ExplicitDist:
    """Double the weight of every candidate in F; a repeated index counts once."""
    idx = np.unique(np.asarray(F, dtype=np.intp))
    w = dist.weights.copy()
    if idx.size:
        w[idx] *= 2.0
    scale = dist.log2_scale
    peak = float(w.max())
    if peak > 2.0**500:  # renormalize well before float overflow
        w /= peak
        scale += math.log2(peak)
    return ExplicitDist(dist.candidates, w, dist.cache, log2_scale=scale)


def sample_indices(dist: ExplicitDist, count: int, rng: np.random.Generator) -> np.ndarray:
    """How often each candidate is hit by count independent draws from dist.

    One multinomial draw: O(|B|) time and memory, whatever count is.
    """
    return rng.multinomial(count, dist.weights / dist.total)


class _CoverResultFields(NamedTuple):
    centers: List[Candidate]
    k_found: int
    iterations: int
    delta_out: float
    proper_iterations: int = 0
    # candidates the centres were picked from: the successful round's
    # distinct draws, or the whole candidate set for the greedy baseline
    n_sampled: int = 0
    # candidate coverages filled (a candidate drawn in two lazy rounds counts
    # twice), and draws read from the table of all of B instead
    coverage_filled: int = 0
    coverage_cache_hits: int = 0
    # the feasible-set mass at each proper update, in order (a list of its
    # own in every result, empty when not given)
    feasible_mass: Optional[List[float]] = None
    # explicit solves: how the feasibility queries were answered
    # (``_CoverageCache.feasibility``); None for the other searches
    feasibility: Optional[dict] = None
    # sampling searches: per target size tried, in order, its k, k', i_max,
    # rounds and proper updates (a list of its own, as feasible_mass)
    phases: Optional[List[dict]] = None


class CoverResult(_CoverResultFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "CoverResult":
        self = super().__new__(cls, *args, **kwargs)
        return self._replace(feasible_mass=list(self.feasible_mass or ()), phases=list(self.phases or ()))

    def center_segments(self, S: PolyCurve) -> List[Segment]:
        return [c.segment(S) for c in self.centers]


class _LoopStats:
    __slots__ = ("rounds", "proper", "feasible_mass", "phases")

    def __init__(self):
        self.rounds = 0
        self.proper = 0
        self.feasible_mass: List[float] = []
        self.phases: List[dict] = []


# The most windows ``coverage.window_set`` returns.  A mask is charged them
# wherever its witness lies: it reads the cells of up to seven edges around
# the witness's edge.
_MASK_WINDOWS = MAX_WINDOW_EDGES * (MAX_WINDOW_EDGES + 1) // 2

# The coverage cache's prices in microseconds, fitted to measured times
# (CHANGES.md): a fixed cost per call, and a cost per window decided, dearer
# in a fill, which also merges, than in a mask.
_CALL_US = 200.0
_FILL_WINDOW_US = 0.36
_MASK_WINDOW_US = 0.22
# The share of the table's price the lazy rent may reach: a search that has
# failed many rounds tends to fail many more, and at the whole price the
# n = 400, k' = 6 lapped-square search runs slower (CHANGES.md).
_BUY_SHARE = 2.0 / 3.0


class _DrawFills:
    """Structured coverage of each round's distinct draws, filled afresh.

    ``segments_of(drawn)`` gives the (starts, ends) of the candidates
    numbered drawn.  ``filled`` counts the candidates filled and ``hits``
    the draws read from a table instead, which only ``_CoverageCache`` has.
    """

    def __init__(self, S: PolyCurve, delta: float, segments_of: Callable[[np.ndarray], tuple]):
        self.S = S
        self.delta = delta
        self.segments_of = segments_of
        self.filled = self.hits = 0

    def intervals_for(self, drawn: np.ndarray) -> Coverage:
        """Coverage of each given candidate; the numbers must be distinct."""
        starts, ends = self.segments_of(drawn)
        self.filled += drawn.size
        return batch_candidate_coverage(self.S, starts, ends, self.delta)

    def feasibility(self) -> Optional[dict]:
        """None: the weighting answers its feasibility queries itself."""
        return None


class _CoverageCache(_DrawFills):
    """Coverage of an explicit list whose (starts, ends) are ``segments``.

    A round fills its draws from slices of those arrays, or slices
    ``table``, the fill of every candidate with its window intervals.  The
    feasibility queries (``feasible``) are masks over the list or stabs of
    those windows (``coverage.WindowTable``, sorted at the first query),
    whichever the prices (a fixed cost per call plus a cost per window) make
    cheaper.  The table is filled in place of round 1's fill when it costs
    at most two failed lazy rounds, two fills of round 1's draws and two
    masks, unless round 1 draws every candidate: that fill is then the
    table's but for the windows, which only queries read.  Otherwise the
    query at which the lazy rent (fills and masks, with this query's) would
    reach ``_BUY_SHARE`` of the table's price fills the table.  A fill is
    per candidate and a stab equals the mask, so covers, rounds and
    feasible sets do not depend on the choice.
    """

    def __init__(self, S: PolyCurve, delta: float, segments: tuple):
        starts, ends = self.segments = segments
        super().__init__(S, delta, lambda drawn: (starts[drawn], ends[drawn]))
        self.table: Optional[Coverage] = None
        self.stabbed: Optional[WindowTable] = None
        self.masks = self.table_queries = self.band = 0
        # the query that filled every candidate, 0 when that came before round 1
        self.table_filled_at: Optional[int] = None
        self.rent = 0.0
        self._fill_windows = sum(max(S.num_edges - L, 0) for L in range(MAX_WINDOW_EDGES))
        self.price = self._fill_cost(starts.shape[0])
        self.mask_cost = _CALL_US + _MASK_WINDOW_US * _MASK_WINDOWS * starts.shape[0]

    def _fill_cost(self, count: int) -> float:
        return _CALL_US + _FILL_WINDOW_US * self._fill_windows * count

    def _fill_table(self) -> None:
        """Fill every candidate, keeping the windows for the first query to sort."""
        starts, ends = self.segments
        self.table = batch_candidate_coverage(self.S, starts, ends, self.delta, windows=True)
        self.filled += starts.shape[0]

    def intervals_for(self, drawn: np.ndarray) -> Coverage:
        if (
            not self.filled
            and drawn.size < self.segments[0].shape[0]
            and self.price <= 2.0 * (self._fill_cost(drawn.size) + self.mask_cost)
        ):
            self._fill_table()
            self.table_filled_at = 0
        if self.table is None:
            self.rent += self._fill_cost(drawn.size)
            return super().intervals_for(drawn)
        self.hits += drawn.size
        return self.table.take(drawn)

    def feasible(self, t: EdgePoint) -> np.ndarray:
        """Increasing numbers of the candidates able to cover t."""
        S, (starts, ends), delta = self.S, self.segments, self.delta
        if self.table is None:
            if self.rent + self.mask_cost < _BUY_SHARE * self.price:
                self.masks += 1
                self.rent += self.mask_cost
                return np.flatnonzero(batch_feasible_mask(S, t, starts, ends, delta))
            self._fill_table()
            self.table_filled_at = self.masks + 1
        if self.stabbed is None:
            self.stabbed = WindowTable(self.table.windows)
            self.table.windows = None  # stabbed holds them, sorted
        self.table_queries += 1
        mask, band = self.stabbed.feasible_mask(S, t, starts, ends, delta)
        self.band += band
        return np.flatnonzero(mask)

    def feasibility(self) -> dict:
        return {
            "masks": self.masks,
            "table_queries": self.table_queries,
            "band_candidates": self.band,
            "table_filled_at": self.table_filled_at,
        }


def k_approx_cover(
    S: PolyCurve,
    weighting: Weighting,
    r: float,
    delta_p: float,
    k_prime: int,
    i_max: int,
    rng: np.random.Generator,
    *,
    stats: Optional[_LoopStats] = None,
) -> Optional[CoverResult]:
    """Sampling loop for one target size; None when i_max updates were spent.

    On success the centres are ``shrink_cover``'s subset of the round's
    distinct draws, in increasing candidate number.  The rounds read their
    coverage from ``weighting.cache``.

    Proper iterations are the weight updates; sampling rounds whose feasible
    set is too heavy (probability above 1/r) do not count toward i_max.  A
    generous cap on total rounds guards against the zero-progress regime.
    """
    if stats is None:
        stats = _LoopStats()
    cache = weighting.cache
    log2_initial_total = weighting.log2_total()
    updates = rounds = 0
    max_rounds = max(1000, 20 * i_max)
    while updates < i_max and rounds < max_rounds:
        rounds += 1
        stats.rounds += 1
        drawn = weighting.distinct_draws(k_prime, rng)
        per = cache.intervals_for(drawn)
        witness = point_not_covered_from_intervals(S, per)
        if witness is None:
            keep = shrink_cover(S, per)
            return CoverResult(
                centers=[weighting.candidate_at(n) for n in drawn[keep].tolist()],
                k_found=0,
                iterations=stats.rounds,
                delta_out=delta_p,
                proper_iterations=stats.proper,
                n_sampled=len(drawn),
                coverage_filled=cache.filled,
                coverage_cache_hits=cache.hits,
                feasible_mass=stats.feasible_mass,
                feasibility=cache.feasibility(),
            )
        mass = weighting.feasible_weight(witness)
        if mass <= 1.0 / r:
            weighting = weighting.rebuilt_with(witness)
            updates += 1
            stats.proper += 1
            stats.feasible_mass.append(mass)
            # each light update multiplies total weight by at most 1 + 1/r
            bound = updates * math.log2(1.0 + 1.0 / r)
            if weighting.log2_total() > log2_initial_total + bound + 1e-6:
                raise RuntimeError("weight growth bound violated")
    return None


def doubling_search(
    S: PolyCurve,
    weighting: Weighting,
    n_candidates: int,
    delta_p: float,
    cfg: SolverConfig,
) -> CoverResult:
    """Double the target size k until ``k_approx_cover`` covers S at radius delta_p.

    Every k starts again from ``weighting``, which weighs n_candidates
    candidates.  The random stream, the coverage source (``weighting.cache``)
    and the round and update counts carry across all k.

    With k' forced, a phase that spends all its rounds without a cover or
    a weight update ends the search: every later phase starts from the same
    weights and draws from the same law, and its light threshold 1/2k is
    stricter, so it can only fail the same way.
    """
    gamma = cfg.resolve_gamma(S.dim)
    rng = np.random.default_rng(cfg.rng_seed)
    stats = _LoopStats()

    def failure(message: str) -> SolverFailure:
        return SolverFailure(message, {
            "max_k": cfg.max_k, "candidates": n_candidates, "rounds": stats.rounds,
            "proper_iterations": stats.proper, "feasible_mass": stats.feasible_mass,
            "feasibility": weighting.cache.feasibility(), "phases": stats.phases,
        })

    k = 1
    while True:
        k *= 2
        if k > cfg.max_k:
            raise failure("target size cap exceeded")
        if cfg.k_prime_override is not None:
            k_prime = cfg.k_prime_override
        else:
            k_prime = math.ceil(16 * k * gamma * math.log(16 * k * gamma))
        i_max = max(math.ceil(5 * k * math.log2(n_candidates / k)) if n_candidates > k else 0, 1)
        rounds, updates = stats.rounds, stats.proper
        result = k_approx_cover(S, weighting, 2.0 * k, delta_p, k_prime, i_max, rng, stats=stats)
        stats.phases.append({
            "k": k, "k_prime": k_prime, "i_max": i_max,
            "rounds": stats.rounds - rounds, "proper_updates": stats.proper - updates,
        })
        if result is not None:
            return result._replace(k_found=k, phases=stats.phases)
        if cfg.k_prime_override is not None and stats.proper == updates:
            raise failure("no weight update at the forced k'")


def search_curve(P: PolyCurve, delta: float, simplification: Optional[Simplification]) -> PolyCurve:
    """The curve a search covers: P's simplification at delta, given or computed."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if simplification is None:
        simplification = simplify_curve(_promote_single_vertex(P), delta)
    return _promote_single_vertex(simplification.curve)


def approx_cover(
    P: PolyCurve,
    delta: float,
    cfg: SolverConfig = SolverConfig(),
    *,
    simplification: Optional[Simplification] = None,
    candidates: Optional[List[Candidate]] = None,
) -> CoverResult:
    """Cover the input curve with segment centers at radius 11*delta.

    Simplifies, generates candidate subsegments, then runs the doubling
    search over explicit weights until a round covers the simplification at
    radius 8*delta.
    """
    S = search_curve(P, delta, simplification)
    B = candidates if candidates is not None else candidate_set(S, delta)
    delta_p = 8.0 * delta
    dist = ExplicitDist.on(S, B, delta_p)
    return doubling_search(S, dist, len(B), delta_p, cfg)


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
    one pick per candidate.  This is the package's one greedy selection
    loop; ``greedy_max_coverage`` runs it on all of B.
    """
    core = GreedyCore(per)
    while True:
        witness = point_not_covered_from_intervals(S, core.covered())
        if witness is None:
            return sorted(core.chosen)
        pick = core.best()
        core.add(pick if pick is not None else core.nearest(S.edge_point_param(witness)))


def greedy_max_coverage(
    P: PolyCurve,
    delta: float,
    *,
    simplification: Optional[Simplification] = None,
    candidates: Optional[List[Candidate]] = None,
) -> CoverResult:
    """Cover the input curve with segment centers at radius 11*delta, greedily.

    The covering round of ``approx_cover`` with every candidate drawn: B is
    filled at 8*delta on the simplification and the centres are
    ``shrink_cover``'s.  A B that leaves a gap raises ``SolverFailure``.
    """
    S = search_curve(P, delta, simplification)
    B = candidates if candidates is not None else candidate_set(S, delta)
    per = batch_candidate_coverage(S, *candidate_segments(S, B), 8.0 * delta)
    witness = point_not_covered_from_intervals(S, per)
    if witness is not None:
        raise SolverFailure("the candidate set leaves a gap",
                            {"candidates": len(B), "witness": S.edge_point_param(witness)})
    keep = shrink_cover(S, per)
    return CoverResult(centers=[B[i] for i in keep], k_found=len(keep), iterations=len(keep),
                       delta_out=8.0 * delta, n_sampled=len(B), coverage_filled=len(B))
