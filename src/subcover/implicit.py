"""Implicit weight maintenance over a per-edge grid of candidate subsegments.

Instead of materializing candidates, each edge carries a uniform parameter
grid; a candidate is a (start, end) pair of grid values.  Weight doubling
happens on whole rectangles of the candidate square, so the distribution is
stored as an arrangement of cells with a doubling count per cell.  All
weights are integers (powers of two times point counts), which keeps the
distribution exact no matter how many updates occur.

As in the explicit search, the cover returned is a greedy subset of the
successful round's distinct draws (``solver.shrink_cover``), rechecked at
the working radius 9*delta by the test that accepted the round; the
12*delta guarantee on the input therefore holds for the subset too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .candidates import Candidate, candidate_segments
from .coverage import Coverage, feasible_rectangles, point_not_covered_from_intervals
from .geometry import EdgePoint, PolyCurve
from .simplify import Simplification, simplify_curve
from .solver import (
    CoverResult,
    SolverConfig,
    SolverFailure,
    _CoverageCache,
    _promote_single_vertex,
    shrink_cover,
)

UpdateLog = List[EdgePoint]

# Below this total weight a draw is one int64 uniform, and every grid
# candidate number fits in an int64 too (each candidate weighs at least 1).
_INT64_TOTAL = 2**62


@dataclass(frozen=True)
class EdgeGrid:
    """Uniform parameter grid on one edge: multiples of spacing plus the point 1."""

    spacing: float
    lattice: int  # lattice points 0, h, ..., (lattice-1)h, all <= 1
    has_extra: bool  # whether 1.0 is off-lattice and appended

    @staticmethod
    def for_edge_length(length: float, eps: float) -> "EdgeGrid":
        if eps <= 0:
            raise ValueError("eps must be positive")
        if length <= 0:
            return EdgeGrid(2.0, 1, True)  # {0, 1}
        h = eps / length
        m = int(math.floor(1.0 / h))
        while (m + 1) * h <= 1.0:
            m += 1
        while m > 0 and m * h > 1.0:
            m -= 1
        has_extra = m * h < 1.0
        return EdgeGrid(h, m + 1, has_extra)

    @property
    def size(self) -> int:
        return self.lattice + (1 if self.has_extra else 0)

    def value(self, j: int) -> float:
        if j < self.lattice:
            return j * self.spacing
        return 1.0

    def values(self) -> np.ndarray:
        vals = np.arange(self.lattice) * self.spacing
        if self.has_extra:
            vals = np.concatenate([vals, [1.0]])
        return vals

    def index_range(self, lo: float, hi: float) -> Optional[Tuple[int, int]]:
        """Inclusive index range of grid values inside [lo, hi]; None if empty.

        Matches the pointwise predicate lo <= value(j) <= hi exactly.
        """
        if hi < lo:
            return None
        h = self.spacing
        jlo = int(math.ceil(lo / h)) if lo > 0 else 0
        while jlo > 0 and (jlo - 1) * h >= lo:
            jlo -= 1
        while jlo < self.lattice and jlo * h < lo:
            jlo += 1
        jhi = min(int(math.floor(hi / h)), self.lattice - 1)
        while jhi + 1 < self.lattice and (jhi + 1) * h <= hi:
            jhi += 1
        while jhi >= 0 and jhi * h > hi:
            jhi -= 1
        jlo = max(jlo, 0)
        take_extra = self.has_extra and lo <= 1.0 <= hi
        if jlo > jhi or jlo >= self.lattice:
            if take_extra:
                return (self.size - 1, self.size - 1)
            return None
        if take_extra:
            return (jlo, self.size - 1)  # contiguous: jhi is the last lattice point
        return (jlo, jhi)


IndexRect = Tuple[int, int, int, int]  # xa, xb, ya, yb inclusive index bounds


def _rects_to_index(grid: EdgeGrid, rects) -> List[IndexRect]:
    out = []
    for (a1, a2, b1, b2) in rects:
        xr = grid.index_range(a1, a2)
        if xr is None:
            continue
        yr = grid.index_range(b1, b2)
        if yr is None:
            continue
        out.append((xr[0], xr[1], yr[0], yr[1]))
    return out


def _disjoint_pieces(rects: Sequence[IndexRect]) -> List[IndexRect]:
    """Decompose a union of index rectangles into disjoint rectangles."""
    if not rects:
        return []
    xs = sorted({r[0] for r in rects} | {r[1] + 1 for r in rects})
    out: List[IndexRect] = []
    for xa, xb in zip(xs[:-1], xs[1:]):
        spans = sorted(
            (r[2], r[3]) for r in rects if r[0] <= xa and xb - 1 <= r[1]
        )
        if not spans:
            continue
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo <= cur_hi + 1:
                cur_hi = max(cur_hi, hi)
            else:
                out.append((xa, xb - 1, cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        out.append((xa, xb - 1, cur_lo, cur_hi))
    return out


class EdgeArrangement:
    """Weighted distribution over all grid candidates of a curve.

    Per edge, update rectangles cut the candidate square into cells; a cell
    stores how many updates contain it (the doubling exponent) and how many
    grid candidates it holds.  Cell weights and cumulative sums are exact
    integers.

    Grid candidates are numbered edge by edge, then by start index, then by
    end index; a draw is such a number, and ``candidate_at`` turns it into a
    ``Candidate``.
    """

    def __init__(self, S: PolyCurve, delta: float, update_log: UpdateLog, feas_delta: float):
        self.S = S
        self.delta = delta  # grid spacing parameter
        self.feas_delta = feas_delta  # radius used for feasibility rectangles
        self.update_log = list(update_log)
        self.grids = [
            EdgeGrid.for_edge_length(S.edge(e).length(), delta) for e in range(1, S.num_edges + 1)
        ]
        self._build()

    # -- construction --

    def _build(self):
        ne = self.S.num_edges
        per_edge_updates: List[List[List[IndexRect]]] = [[] for _ in range(ne)]
        for t in self.update_log:
            for e in range(1, ne + 1):
                rs = feasible_rectangles(self.S, t, e, self.feas_delta)
                per_edge_updates[e - 1].append(_rects_to_index(self.grids[e - 1], rs.rects))
        self.xcuts: List[np.ndarray] = []
        self.ycuts: List[np.ndarray] = []
        self.scount: List[np.ndarray] = []
        self.cell_weight: List[List[int]] = []
        total = 0
        for e in range(ne):
            grid = self.grids[e]
            xs = {0, grid.size}
            ys = {0, grid.size}
            for rects in per_edge_updates[e]:
                for (xa, xb, ya, yb) in rects:
                    xs.update((xa, xb + 1))
                    ys.update((ya, yb + 1))
            xc = np.array(sorted(xs), dtype=np.int64)
            yc = np.array(sorted(ys), dtype=np.int64)
            nx, ny = len(xc) - 1, len(yc) - 1
            s = np.zeros((nx, ny), dtype=np.int64)
            for rects in per_edge_updates[e]:
                if not rects:
                    continue
                hit = np.zeros((nx, ny), dtype=bool)
                for (xa, xb, ya, yb) in rects:
                    xi0 = int(np.searchsorted(xc, xa))
                    xi1 = int(np.searchsorted(xc, xb + 1))
                    yi0 = int(np.searchsorted(yc, ya))
                    yi1 = int(np.searchsorted(yc, yb + 1))
                    hit[xi0:xi1, yi0:yi1] = True
                s += hit
            gx = np.diff(xc)
            gy = np.diff(yc)
            counts = np.outer(gx, gy)
            weights: List[int] = []
            for xi in range(nx):
                for yi in range(ny):
                    w = int(counts[xi, yi]) << int(s[xi, yi])
                    weights.append(w)
                    total += w
            self.xcuts.append(xc)
            self.ycuts.append(yc)
            self.scount.append(s)
            self.cell_weight.append(weights)
        self.total_weight = total
        # flat cumulative over (edge, xi, yi) in order
        self._cum: List[int] = []
        acc = 0
        for e in range(ne):
            for w in self.cell_weight[e]:
                acc += w
                self._cum.append(acc)
        self._cell_index: List[Tuple[int, int, int]] = []
        self._key_base: List[int] = []  # number of the first candidate of each edge
        # per cell: number of its first candidate, grid size of its edge,
        # end-index span and doubling exponent
        first, row, span, shift = [], [], [], []
        base = 0
        for e in range(ne):
            xc, yc, sc = self.xcuts[e].tolist(), self.ycuts[e].tolist(), self.scount[e].tolist()
            n = self.grids[e].size
            self._key_base.append(base)
            for xi in range(len(xc) - 1):
                for yi in range(len(yc) - 1):
                    self._cell_index.append((e, xi, yi))
                    first.append(base + xc[xi] * n + yc[yi])
                    row.append(n)
                    span.append(yc[yi + 1] - yc[yi])
                    shift.append(sc[xi][yi])
            base += n * n
        self._cell_arrays = None
        if total < _INT64_TOTAL:
            cum = np.array(self._cum, dtype=np.int64)
            self._cell_arrays = (cum, np.concatenate([[0], cum[:-1]])) + tuple(
                np.array(a, dtype=np.int64) for a in (first, row, span, shift)
            )

    def candidate_count(self) -> int:
        return sum(g.size * g.size for g in self.grids)

    # -- queries --

    def rebuilt_with(self, t: EdgePoint) -> "EdgeArrangement":
        return EdgeArrangement(self.S, self.delta, self.update_log + [t], self.feas_delta)

    def candidate_probability(self, edge: int, xj: int, yj: int) -> float:
        """Probability of one grid candidate (edge 1-based, grid indices)."""
        e = edge - 1
        xc, yc = self.xcuts[e], self.ycuts[e]
        xi = int(np.searchsorted(xc, xj, side="right")) - 1
        yi = int(np.searchsorted(yc, yj, side="right")) - 1
        ny = len(yc) - 1
        w = 1 << int(self.scount[e][xi, yi])
        return w / self.total_weight

    def sample_candidate(self, rng: np.random.Generator) -> Candidate:
        if self.total_weight <= 0:
            raise ValueError("empty distribution")
        return self.candidate_at(self.sample_candidates(1, rng)[0])

    def sample_candidates(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count exact draws, as candidate numbers.

        An integer uniform on [0, total) picks a cell by the cumulative sums,
        and index arithmetic inside the cell picks the candidate.  Below
        ``_INT64_TOTAL`` this runs on int64 arrays; above it, one Python
        integer per draw, returned as an object array.
        """
        total = self.total_weight
        if self._cell_arrays is not None:
            cum, start, first, row, span, shift = self._cell_arrays
            xs = rng.integers(0, total, size=count, dtype=np.int64)
            cells = np.searchsorted(cum, xs, side="right")
            j = (xs - start[cells]) >> shift[cells]  # a candidate owns 2^shift integers
            return first[cells] + (j // span[cells]) * row[cells] + j % span[cells]
        out = np.empty(count, dtype=object)
        for k in range(count):
            x = _bigint_uniform(rng, total)
            ci = bisect_right(self._cum, x)
            prev = 0 if ci == 0 else self._cum[ci - 1]
            out[k] = self._key_in_cell(ci, x - prev)
        return out

    def _key_in_cell(self, ci: int, offset: int) -> int:
        """Number of the candidate at the given offset into cell ci's weight."""
        e, xi, yi = self._cell_index[ci]
        s = int(self.scount[e][xi, yi])
        j = offset >> s  # each candidate owns 2^s consecutive integers
        ya, yb = int(self.ycuts[e][yi]), int(self.ycuts[e][yi + 1])
        span = yb - ya
        xj = int(self.xcuts[e][xi]) + j // span
        yj = ya + j % span
        return self._key_base[e] + xj * self.grids[e].size + yj

    def candidate_at(self, key: int) -> Candidate:
        """The grid candidate with the given number."""
        key = int(key)
        e = bisect_right(self._key_base, key) - 1
        grid = self.grids[e]
        xj, yj = divmod(key - self._key_base[e], grid.size)
        return Candidate(e + 1, grid.value(xj), grid.value(yj))

    def feasible_weight(self, t: EdgePoint, delta: Optional[float] = None) -> float:
        """Probability mass of the candidates able to cover t."""
        w = self.feasible_weight_int(t, delta)
        return w / self.total_weight

    def feasible_weight_int(self, t: EdgePoint, delta: Optional[float] = None) -> int:
        radius = self.feas_delta if delta is None else delta
        total = 0
        for e in range(1, self.S.num_edges + 1):
            grid = self.grids[e - 1]
            rs = feasible_rectangles(self.S, t, e, radius)
            pieces = _disjoint_pieces(_rects_to_index(grid, rs.rects))
            if not pieces:
                continue
            xc, yc = self.xcuts[e - 1], self.ycuts[e - 1]
            s = self.scount[e - 1]
            for (xa, xb, ya, yb) in pieces:
                xi0 = int(np.searchsorted(xc, xa, side="right")) - 1
                xi1 = int(np.searchsorted(xc, xb, side="right")) - 1
                yi0 = int(np.searchsorted(yc, ya, side="right")) - 1
                yi1 = int(np.searchsorted(yc, yb, side="right")) - 1
                for xi in range(xi0, xi1 + 1):
                    ox = min(int(xc[xi + 1]), xb + 1) - max(int(xc[xi]), xa)
                    if ox <= 0:
                        continue
                    for yi in range(yi0, yi1 + 1):
                        oy = min(int(yc[yi + 1]), yb + 1) - max(int(yc[yi]), ya)
                        if oy <= 0:
                            continue
                        total += (ox * oy) << int(s[xi, yi])
        return total


def _bigint_uniform(rng: np.random.Generator, total: int) -> int:
    bits = total.bit_length()
    while True:
        x = 0
        for _ in range(0, bits, 32):
            x = (x << 32) | int(rng.integers(0, 2**32, dtype=np.uint64))
        x &= (1 << bits) - 1
        if x < total:
            return x


def build_structure(
    S: PolyCurve, delta: float, update_log: UpdateLog, feas_delta: Optional[float] = None
) -> EdgeArrangement:
    """Arrangement distribution for a grid at spacing delta.

    feas_delta is the radius at which update rectangles are computed; it
    defaults to delta (the cover search passes its working radius).
    """
    return EdgeArrangement(S, delta, update_log, delta if feas_delta is None else feas_delta)


def sample_candidate(arr: EdgeArrangement, rng: np.random.Generator) -> Candidate:
    """One draw from the arrangement distribution."""
    return arr.sample_candidate(rng)


def feasible_weight(
    arr: EdgeArrangement, S: PolyCurve, t: EdgePoint, delta: Optional[float] = None
) -> float:
    """Probability mass of the feasible set of t under the arrangement."""
    if S is not arr.S:
        raise ValueError("arrangement was built for a different curve")
    return arr.feasible_weight(t, delta)


def implicit_approx_cover(
    P: PolyCurve,
    delta: float,
    cfg: SolverConfig = SolverConfig(variant="implicit"),
    *,
    simplification: Optional[Simplification] = None,
) -> CoverResult:
    """Cover search over the implicit grid distribution; 12*delta on the input.

    Works at radius 9*delta on the simplification (one extra delta pays for
    snapping candidates to the grid), with the distribution rebuilt from the
    update log after every weight doubling.  A precomputed simplification of
    P at delta may be passed to skip simplifying again.

    The returned centres are ``solver.shrink_cover``'s greedy subset of the
    successful round's distinct draws, in sorted order.  The subset passes
    the same 9*delta coverage test as the whole round, so the 12*delta
    guarantee holds for it.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    P = _promote_single_vertex(P)
    simp = simplification if simplification is not None else simplify_curve(P, delta)
    S = _promote_single_vertex(simp.curve)
    gamma = cfg.resolve_gamma(P.dim)
    rng = np.random.default_rng(cfg.rng_seed)
    delta_p = 9.0 * delta
    base = build_structure(S, delta, [], feas_delta=delta_p)
    n_cand = base.candidate_count()
    no_segments = np.empty((0, S.dim))
    cov_cache = _CoverageCache(S, no_segments, no_segments, delta_p)
    cov_slots: Dict[Candidate, int] = {}  # each grid candidate's row in cov_cache.table
    total_rounds = 0
    k = 1
    while True:
        k *= 2
        if k > cfg.max_k:
            raise SolverFailure(
                "target size cap exceeded",
                {"max_k": cfg.max_k, "candidates": n_cand, "rounds": total_rounds},
            )
        r = 2.0 * k
        if cfg.k_prime_override is not None:
            k_prime = cfg.k_prime_override
        else:
            k_prime = math.ceil(16 * k * gamma * math.log(16 * k * gamma))
        i_max = max(math.ceil(5 * k * math.log2(n_cand / k)) if n_cand > k else 0, 1)
        arr = base
        i = 1
        rounds = 0
        max_rounds = max(1000, 20 * i_max)
        while i <= i_max and rounds < max_rounds:
            rounds += 1
            total_rounds += 1
            # the round's distinct draws, in (edge, alpha, beta) order
            keys = np.unique(arr.sample_candidates(k_prime, rng))
            drawn = [arr.candidate_at(key) for key in keys]
            per = _coverage_of(S, drawn, cov_cache, cov_slots)
            witness = point_not_covered_from_intervals(S, per)
            if witness is None:
                return CoverResult(
                    centers=[drawn[i] for i in shrink_cover(S, per)],
                    k_found=k,
                    iterations=total_rounds,
                    delta_out=delta_p,
                    proper_iterations=len(arr.update_log),
                    n_sampled=len(drawn),
                    coverage_filled=cov_cache.filled,
                    coverage_cache_hits=cov_cache.hits,
                )
            pr = arr.feasible_weight(witness)
            if pr <= 1.0 / r:
                arr = arr.rebuilt_with(witness)
                i += 1


def _coverage_of(S, drawn, cache: _CoverageCache, slots: Dict[Candidate, int]) -> Coverage:
    """Coverage of each distinct grid candidate, filled into cache on first use."""
    missing = [c for c in drawn if c not in slots]
    cache.hits += len(drawn) - len(missing)
    if missing:
        slots.update(zip(missing, cache.append(*candidate_segments(S, missing)).tolist()))
    return cache.table.take(np.array([slots[c] for c in drawn], dtype=np.intp))
