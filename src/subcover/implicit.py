"""Implicit weights over a per-edge grid of candidate subsegments.

Instead of materializing candidates, each edge carries a uniform parameter
grid; a candidate is a (start, end) pair of grid values.  Weight doubling
happens on whole rectangles of the candidate square, so the distribution is
stored as an arrangement of cells with a doubling count per cell.  All
weights are integers (powers of two times point counts), which keeps the
distribution exact no matter how many updates occur.  An update computes
the witness's rectangles once and refines only the cells of the edges they
touch; it replays none of the updates before it.

``EdgeArrangement`` is a weighting of ``solver.doubling_search``, the same
search that runs the explicit weights: it draws candidate numbers, maps a
number to its ``Candidate``, weighs the feasible set of a witness and
rebuilds itself with that set doubled.  ``implicit_approx_cover`` only
simplifies, builds the arrangement and runs that search at radius 9*delta
(one extra delta pays for snapping candidates to the grid), so the cover it
returns passes the same rechecks as an explicit one and is a 12*delta cover
of the input.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .candidates import Candidate, candidate_segments
from .coverage import feasible_rectangles
from .geometry import EdgePoint, PolyCurve, ball_intervals
from .simplify import Simplification
from .solver import CoverResult, SolverConfig, _DrawFills, doubling_search, search_curve

# Below this total weight a draw is one int64 uniform, every grid candidate
# number fits in an int64 too (each candidate weighs at least 1), and so does
# the total after an update, which at most doubles it.
_INT64_TOTAL = 2**62


class EdgeGrid(NamedTuple):
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

    def index_range(self, lo, hi):
        """Inclusive index ranges (first, last) of the grid values inside
        [lo, hi], for floats or arrays; empty where first > last.

        Matches the pointwise predicate lo <= value(j) <= hi exactly, without
        building ``values()``, which can outnumber memory.
        """
        return self._count(lo, np.less), self._count(hi, np.less_equal) - 1

    def _count(self, x, below):
        """Number of grid values v with below(v, x).  The division's estimate
        of the lattice count is off by at most one for a lattice of fewer
        than 2**51 points, and one step each way against the values beside
        it, computed as ``value`` computes them, makes it exact."""
        h, n = self.spacing, self.lattice
        k = np.ceil(x / h).clip(0, n).astype(np.int64)
        k -= (k > 0) & ~below((k - 1) * h, x)
        k += (k < n) & below(k * h, x)
        if self.has_extra:
            k += below(1.0, x)
        return k


def _rects_to_index(grid: EdgeGrid, rects) -> Tuple[np.ndarray, ...]:
    """(xa, xb, ya, yb), inclusive index bounds, of the rectangles (a1, a2,
    b1, b2) that hold a grid candidate."""
    r = np.array(rects, dtype=float).reshape(-1, 4)
    first, last = grid.index_range(r[:, 0::2], r[:, 1::2])  # columns x, y
    keep = (first <= last).all(axis=1)
    return first[keep, 0], last[keep, 0], first[keep, 1], last[keep, 1]


class EdgeCells(NamedTuple):
    """One edge's candidate square cut into cells.

    Cell (i, j) holds the grid candidates with start index in
    [xcuts[i], xcuts[i+1]) and end index in [ycuts[j], ycuts[j+1]), and each
    of them weighs 2**exponent[i, j].  cum holds the cumulative weights of the
    cells in row-major order.
    """

    xcuts: np.ndarray
    ycuts: np.ndarray
    exponent: np.ndarray
    cum: np.ndarray


class EdgeArrangement:
    """Weighted distribution over all grid candidates of a curve.

    Per edge, update rectangles cut the candidate square into cells; a cell
    stores how many updates contain it (the doubling exponent) and how many
    grid candidates it holds.  The cumulative cell weights are exact: int64
    arrays while the total weight is below ``_INT64_TOTAL``, object arrays of
    Python integers from there on.

    Grid candidates are numbered edge by edge, then by start index, then by
    end index; a draw is such a number, and ``candidate_at`` turns it into a
    ``Candidate``.  Every rebuilt arrangement shares ``cache``, which fills
    each round's draws afresh.
    """

    def __init__(self, S: PolyCurve, delta: float, feas_delta: float):
        self.S = S
        self.delta = delta  # grid spacing parameter
        self.feas_delta = feas_delta  # radius used for feasibility rectangles
        self.cache = _DrawFills(
            S, feas_delta, lambda drawn: candidate_segments(S, [self.candidate_at(n) for n in drawn.tolist()])
        )
        self.grids = [
            EdgeGrid.for_edge_length(S.edge(e).length(), delta) for e in range(1, S.num_edges + 1)
        ]
        sizes = [g.size for g in self.grids]
        self._key_base = list(accumulate((n * n for n in sizes[:-1]), initial=0))
        whole = [np.array([0, n], dtype=np.int64) for n in sizes]
        self._take(
            [
                EdgeCells(c, c, np.zeros((1, 1), dtype=np.int64), np.array([n * n], dtype=object))
                for c, n in zip(whole, sizes)
            ],
            sum(n * n for n in sizes),
        )

    def _take(self, cells: List[EdgeCells], total: int) -> None:
        """Hold these cells, which weigh total."""
        dtype = object if total >= _INT64_TOTAL else np.int64
        self.cells = [c._replace(cum=c.cum.astype(dtype, copy=False)) for c in cells]
        self.total_weight = total
        self._edge_cum = np.cumsum(np.array([c.cum[-1] for c in self.cells], dtype=dtype))
        self._last = (None, None, 0)  # the last witness and its doubling step

    def candidate_count(self) -> int:
        return sum(g.size * g.size for g in self.grids)

    # -- the weight update --

    def _doubling(self, t: EdgePoint) -> Tuple[EdgePoint, List[EdgeCells], int]:
        """The cells with every candidate able to cover t doubled, and the weight that adds.

        Per edge, the cells are cut along t's feasible rectangles and the cells
        inside one get one more doubling.  Doubling a set adds exactly its
        weight, so the added weight is t's feasible weight.  The last witness's
        step is kept, so ``rebuilt_with`` after ``feasible_weight`` at the same
        witness computes no rectangle twice.  Only edges within reach of t
        (``_in_reach``) can have rectangles.
        """
        if self._last[0] != t:
            doubled, added = [], 0
            reach = self._in_reach(t)
            for e, (grid, c) in enumerate(zip(self.grids, self.cells), start=1):
                rects = feasible_rectangles(self.S, t, e, self.feas_delta) if reach[e - 1] else ()
                xa, xb, ya, yb = _rects_to_index(grid, rects) if rects else np.empty((4, 0), dtype=np.int64)
                if not xa.size:
                    doubled.append(c)
                    continue
                xc = np.union1d(c.xcuts, np.concatenate([xa, xb + 1]))
                yc = np.union1d(c.ycuts, np.concatenate([ya, yb + 1]))
                # a new cell keeps the exponent of the old cell it lies in
                s = c.exponent[
                    np.ix_(
                        np.searchsorted(c.xcuts, xc[:-1], side="right") - 1,
                        np.searchsorted(c.ycuts, yc[:-1], side="right") - 1,
                    )
                ]
                hit = np.zeros(s.shape, dtype=bool)
                for x0, x1, y0, y1 in zip(
                    np.searchsorted(xc, xa), np.searchsorted(xc, xb + 1),
                    np.searchsorted(yc, ya), np.searchsorted(yc, yb + 1),
                ):
                    hit[x0:x1, y0:y1] = True
                dtype = c.cum.dtype
                w = np.outer(np.diff(xc).astype(dtype), np.diff(yc).astype(dtype)) << s.astype(dtype)
                added += int(w[hit].sum())
                doubled.append(EdgeCells(xc, yc, s + hit, np.cumsum(np.where(hit, 2 * w, w).ravel())))
            self._last = (t, doubled, added)
        return self._last

    def _in_reach(self, t: EdgePoint) -> np.ndarray:
        """Per edge, False where the edge lies decisively farther than the
        working radius from t's point, so no subsegment of it can cover t."""
        V = self.S.vertices
        balls = ball_intervals(V[:-1], V[1:], self.S.edge_point_coords(t), self.feas_delta)
        return balls.tight | (balls.lo <= 1.0)

    def feasible_weight(self, t: EdgePoint) -> float:
        """Probability mass of the candidates able to cover t."""
        return self._doubling(t)[2] / self.total_weight

    def rebuilt_with(self, t: EdgePoint) -> "EdgeArrangement":
        _, doubled, added = self._doubling(t)
        new = copy.copy(self)
        new._take(doubled, self.total_weight + added)
        return new

    # -- sampling --

    def sample_candidates(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count exact draws, as candidate numbers.

        An integer uniform on [0, total) picks an edge by the cumulative edge
        weights and a cell by the edge's cumulative cell weights, and index
        arithmetic inside the cell picks the candidate.  Below
        ``_INT64_TOTAL`` the integers are one int64 draw; above it, one Python
        integer per draw in an object array, and the same arithmetic follows.
        """
        if self._edge_cum.dtype == object:
            xs = np.array([_bigint_uniform(rng, self.total_weight) for _ in range(count)], dtype=object)
        else:
            xs = rng.integers(0, self.total_weight, size=count, dtype=np.int64)
        edges = np.searchsorted(self._edge_cum, xs, side="right")
        out = np.empty_like(xs)
        for e in np.unique(edges).tolist():
            at = edges == e
            c, n = self.cells[e], self.grids[e].size
            x = xs[at] - (self._edge_cum[e] - c.cum[-1])
            cell = np.searchsorted(c.cum, x, side="right")
            xi, yi = np.divmod(cell, len(c.ycuts) - 1)
            below = np.where(cell > 0, c.cum[cell - 1], 0)  # the integers of the cells before
            j = (x - below) >> c.exponent[xi, yi]  # a candidate owns 2^exponent integers
            span = c.ycuts[yi + 1] - c.ycuts[yi]
            out[at] = self._key_base[e] + (c.xcuts[xi] + j // span) * n + c.ycuts[yi] + j % span
        return out

    def distinct_draws(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Increasing numbers of the candidates hit by count draws."""
        return np.unique(self.sample_candidates(count, rng))

    def candidate_at(self, key: int) -> Candidate:
        """The grid candidate with the given number."""
        key = int(key)
        e = bisect_right(self._key_base, key) - 1
        grid = self.grids[e]
        xj, yj = divmod(key - self._key_base[e], grid.size)
        return Candidate(e + 1, grid.value(xj), grid.value(yj))

    def log2_total(self) -> float:
        return math.log2(self.total_weight)


def _bigint_uniform(rng: np.random.Generator, total: int) -> int:
    bits = total.bit_length()
    while True:
        x = 0
        for _ in range(0, bits, 32):
            x = (x << 32) | int(rng.integers(0, 2**32, dtype=np.uint64))
        x &= (1 << bits) - 1
        if x < total:
            return x


def implicit_approx_cover(
    P: PolyCurve,
    delta: float,
    cfg: SolverConfig = SolverConfig(),
    *,
    simplification: Optional[Simplification] = None,
) -> CoverResult:
    """Cover search over the implicit grid distribution; 12*delta on the input.

    Works at radius 9*delta on the simplification, with a grid at spacing
    delta; every weight doubling refines the arrangement along the witness's
    feasible rectangles.  A precomputed simplification of P at delta may be
    passed to skip simplifying again.
    """
    S = search_curve(P, delta, simplification)
    delta_p = 9.0 * delta
    base = EdgeArrangement(S, delta, delta_p)
    return doubling_search(S, base, base.candidate_count(), delta_p, cfg)
