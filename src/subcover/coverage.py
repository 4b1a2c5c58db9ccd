"""Structured coverage, uncovered-point search, feasibility and feasible-set
rectangles.

The canonical window convention: a window is a vertex pair (i, j) with
1 <= j - i <= 4, meaning traversals start on edge i and end on edge j-1.
In edge terms that is a pair of edges (i, j') with 0 <= j' - i <= 3.  The
same convention is used by every operation here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .freespace import (
    FreeSpaceRow,
    _coverage_interval_on_row,
    _end_lower,
    _start_upper,
    _sweep_crossings,
    coverage_interval,
    psi_ij_contains,
)
from .geometry import (
    BallIntervals,
    EdgePoint,
    Interval,
    PolyCurve,
    RadInterval,
    Segment,
    ball_intervals,
    ball_segment_radical,
    filtered_nonneg,
    filtered_sweep,
    capsule_segment_radical,
)
from .radicals import Radical, rad_max, rad_min

MAX_WINDOW_EDGES = 4  # traversal subcurves span at most this many edges

CoverageSet = List[Interval]


def merge_intervals(ivs: Sequence[Interval], slack: float = 0.0) -> CoverageSet:
    """Sorted union of closed intervals; gaps of at most slack are absorbed."""
    xs = sorted([iv for iv in ivs if not iv.is_empty()], key=lambda v: (v.lo, v.hi))
    out: List[Interval] = []
    for iv in xs:
        if out and iv.lo <= out[-1].hi + slack:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def covers_unit(ivs: Sequence[Interval], slack: float = 1e-9) -> bool:
    merged = merge_intervals(ivs, slack)
    return len(merged) == 1 and merged[0].lo <= slack and merged[0].hi >= 1.0 - slack


def window_set(S: PolyCurve, t: EdgePoint) -> List[Tuple[int, int]]:
    """Vertex windows that can cover t: start edge within 3 left of t's edge,
    at most four edges long.  At most 10 windows."""
    n = S.n
    ip = t.edge_index
    wins = []
    for i in range(max(ip - 3, 1), ip + 1):
        for j in range(ip + 1, min(i + MAX_WINDOW_EDGES, n) + 1):
            wins.append((i, j))
    return wins


def structured_coverage(S: PolyCurve, C: Sequence[Segment], delta: float) -> CoverageSet:
    """Union of coverage intervals over all centers and short edge windows."""
    ivs: List[Interval] = []
    for q in C:
        ivs.extend(candidate_coverage_intervals(S, q, delta))
    return merge_intervals(ivs)


def candidate_coverage_intervals(S: PolyCurve, q: Segment, delta: float) -> List[Interval]:
    """Merged structured coverage of a single center segment."""
    ne = S.num_edges
    row = FreeSpaceRow(S, 1, S.n, q, delta)
    ivs = []
    for i in range(1, ne + 1):
        for j in range(i, min(i + MAX_WINDOW_EDGES - 1, ne) + 1):
            iv = _coverage_interval_on_row(row, i, j)
            if not iv.is_empty():
                ivs.append(iv)
    return merge_intervals(ivs)


_GAP_SLACK = 1e-12  # float noise between adjacent window endpoints


def point_not_covered(C: Sequence[Segment], S: PolyCurve, delta: float) -> Optional[EdgePoint]:
    """An edge point inside the largest uncovered gap, or None when covered.

    Returns the midpoint of the largest gap so reruns are reproducible and
    the point stays clear of coverage boundaries.
    """
    return point_not_covered_from_intervals(S, structured_coverage(S, C, delta))


def point_not_covered_from_intervals(
    S: PolyCurve, covered: Sequence[Interval]
) -> Optional[EdgePoint]:
    """Uncovered-gap midpoint for precomputed coverage intervals."""
    merged = merge_intervals(covered, slack=_GAP_SLACK)
    gap = _largest_gap(merged)
    if gap is None:
        return None
    return S.locate(0.5 * (gap[0] + gap[1]))


def _largest_gap(merged: CoverageSet) -> Optional[Tuple[float, float]]:
    gaps: List[Tuple[float, float]] = []
    prev = 0.0
    for iv in merged:
        if iv.lo > prev:
            gaps.append((prev, iv.lo))
        prev = max(prev, iv.hi)
    if prev < 1.0:
        gaps.append((prev, 1.0))
    if not gaps:
        return None
    return max(gaps, key=lambda g: (g[1] - g[0], -g[0]))


def is_feasible(Q: Segment, S: PolyCurve, t: EdgePoint, delta: float) -> bool:
    """Whether the center Q covers the point t under some admissible window."""
    return any(psi_ij_contains(S, i, j, t, Q, delta) for (i, j) in window_set(S, t))


# ---------------------------------------------------------------------------
# feasible-set rectangles


@dataclass(frozen=True)
class FeasibleRectSet:
    """Union of axis-aligned rectangles in the candidate square of one edge.

    A candidate subsegment (alpha, beta) of the edge covers the query point
    iff (alpha, beta) lies in one of the rectangles.  Forward and reversed
    orientations contribute separate rectangles.
    """

    edge_index: int
    rects: Tuple[Tuple[float, float, float, float], ...]  # (a1, a2, b1, b2)

    def contains(self, alpha: float, beta: float) -> bool:
        return any(a1 <= alpha <= a2 and b1 <= beta <= b2 for a1, a2, b1, b2 in self.rects)

    def boundary_distance(self, alpha: float, beta: float) -> float:
        """Distance from the point to the nearest rectangle boundary line."""
        best = np.inf
        for a1, a2, b1, b2 in self.rects:
            for v in (a1, a2):
                best = min(best, abs(alpha - v))
            for v in (b1, b2):
                best = min(best, abs(beta - v))
        return float(best)


def _cell_x_at_height(
    S: PolyCurve, cell: int, point: np.ndarray, delta: float, leftmost: bool
) -> Radical:
    """Global curve parameter of the extreme free point of a cell at one height.

    The height is given by the segment point realizing it.  At a tangency
    the ball interval can round to empty; the projection of the point onto
    the cell's edge is the exact limit then.
    """
    edge = S.edge(cell)
    iv = ball_segment_radical(edge.start, edge.end, point, delta)
    if not iv.empty:
        local = iv.lo if leftmost else iv.hi
    else:
        v = edge.direction()
        vv = float(np.dot(v, v))
        u = 0.0 if vv == 0.0 else float(np.dot(point - edge.start, v)) / vv
        local = Radical.exact(min(max(u, 0.0), 1.0))
    return local.affine(S.edge_width(cell), S.param(cell))


def _window_rect(
    S: PolyCurve,
    row: FreeSpaceRow,
    cap_cache: dict,
    t_slice: RadInterval,
    tau: float,
    i: int,
    j: int,
    e: Segment,
    delta: float,
) -> Optional[Tuple[Radical, Radical, Radical, Radical]]:
    """Rectangle of (alpha, beta) with t coverable under vertex window (i, j).

    Built from the vertical free-space intervals at internal vertices, the
    free interval at the query point, and the extreme points of the first
    and last cell of the window.
    """
    if t_slice.empty:
        return None
    verts = []
    for v in range(i + 1, j):
        iv = row.vertical(v)
        if iv.empty:
            return None
        verts.append(iv)
    if j - i == 3 and not verts[0].lo.le(verts[1].hi):
        return None

    def cell_cap(c: int) -> RadInterval:
        got = cap_cache.get(c)
        if got is None:
            got = capsule_segment_radical(S.edge(c), e, delta)
            cap_cache[c] = got
        return got

    cap_i = cell_cap(i)
    cap_j = cell_cap(j - 1)
    if cap_i.empty or cap_j.empty:
        return None
    tau_rad = Radical.exact(tau)

    # lowest point of the first cell: y = cap_i.lo, leftmost x at that height
    a_l = cap_i.lo
    a_i_glob = _cell_x_at_height(S, i, e.at(a_l.value()), delta, leftmost=True)
    alpha1 = t_slice.lo if tau_rad.le(a_i_glob) else a_l

    # highest point of the last cell: y = cap_j.hi, rightmost x at that height
    b_u = cap_j.hi
    b_j_glob = _cell_x_at_height(S, j - 1, e.at(b_u.value()), delta, leftmost=False)
    beta2 = t_slice.hi if b_j_glob.le(tau_rad) else b_u

    alpha2 = rad_min(*[iv.hi for iv in verts], t_slice.hi)
    beta1 = rad_max(*[iv.lo for iv in verts], t_slice.lo)
    if not alpha1.le(alpha2) or not beta1.le(beta2):
        return None
    return (alpha1, alpha2, beta1, beta2)


def feasible_rectangles(S: PolyCurve, t: EdgePoint, edge: int, delta: float) -> FeasibleRectSet:
    """Rectangles of candidate parameters on the edge that cover t.

    Per window the construction runs twice: against the edge as given and
    against the reversed edge with parameters mirrored back, which yields the
    reversed-orientation region of the feasible set.
    """
    if not 1 <= edge <= S.num_edges:
        raise IndexError("edge index out of range")
    e = S.edge(edge)
    e_rev = e.reversed()
    tau = S.edge_point_param(t)
    pt = S.edge_point_coords(t)
    rects: List[Tuple[float, float, float, float]] = []
    from .freespace import _t_in_window

    for orient, seg in (("fwd", e), ("rev", e_rev)):
        row = FreeSpaceRow(S, 1, S.n, seg, delta)
        t_slice = ball_segment_radical(seg.start, seg.end, pt, delta)
        cap_cache: dict = {}
        for (i, j) in window_set(S, t):
            if not _t_in_window(t, i, j):  # pragma: no cover - windows are valid by construction
                continue
            rect = _window_rect(S, row, cap_cache, t_slice, tau, i, j, seg, delta)
            if rect is None:
                continue
            a1, a2, b1, b2 = rect
            if orient == "rev":
                a1, a2 = a2.reflect(), a1.reflect()
                b1, b2 = b2.reflect(), b1.reflect()
            quad = (a1.value(), a2.value(), b1.value(), b2.value())
            if quad not in rects:
                rects.append(quad)
    return FeasibleRectSet(edge, tuple(rects))


# ---------------------------------------------------------------------------
# vectorized helpers for the sampling loops
#
# The scalar operations above are the contract.  The helpers below make the
# same window decisions for many candidate segments at once, as filtered
# predicates over ``geometry.ball_intervals``: every comparison goes through
# ``geometry.filtered_nonneg`` and every sweep across a window's inner
# vertices through ``geometry.filtered_sweep``, which hold the tolerance
# policy.  A window is dead when one of its decisions fails decisively, and
# unsure when it is not dead and some decision is undecided.  Unsure
# windows are decided by the scalar path, so the result is the scalar one.
# Ties are common, not rare: candidate endpoints are extremal points of the
# same radius, so their balls often touch a cell at a single point.

# Window-table entries (edges x candidates) per block of candidates; bounds
# the memory of the broadcast kernel calls.
_BLOCK_ENTRIES = 1 << 16


def _nonempty(balls: BallIntervals, k: int):
    """(holds, undecided) for row k of the intervals being nonempty."""
    return ~balls.tight[k] & (balls.lo[k] <= 1.0), balls.tight[k]


def _window_sweeps(vert: BallIntervals, first: int, count: int):
    """Sweeps across the vertical rows first, first+1, ... of ``vert``.

    Returns (alive, unsure) with row k for the sweep across the first k of
    those rows (k = 0..count, fewer where ``vert`` ends): ``alive`` where
    every crossing holds decisively, ``unsure`` where the sweep stopped at
    an undecided one (``geometry.filtered_sweep``).  Row 0 crosses nothing.
    """
    rows = BallIntervals._make(a[first : first + count] for a in vert)
    alive, unsure = filtered_sweep(rows, axis=0)
    none = np.zeros((1, alive.shape[1]), dtype=bool)
    return np.vstack([~none, alive]), np.vstack([none, unsure])


def batch_candidate_coverage(
    S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float
) -> List[List[Interval]]:
    """``candidate_coverage_intervals`` for many candidate segments at once."""
    step = max(_BLOCK_ENTRIES // max(S.num_edges, 1), 1)
    out: List[List[Interval]] = []
    for k in range(0, starts.shape[0], step):
        out.extend(_coverage_block(S, starts[k : k + step], ends[k : k + step], delta))
    return out


def _coverage_block(S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float):
    N = starts.shape[0]
    ne = S.num_edges
    params = S.vertex_params
    V = S.vertices
    widths = np.diff(params)
    # bottoms and tops of every cell (edge x candidate), verticals at the
    # inner vertices 2..ne (row v-2) on every candidate
    bot = ball_intervals(V[:-1, None], V[1:, None], starts[None], delta)
    top = ball_intervals(V[:-1, None], V[1:, None], ends[None], delta)
    vert = ball_intervals(starts[None], ends[None], V[1:-1, None], delta)
    lo_glob = params[:-1, None] + bot.lo * widths[:, None]
    hi_glob = params[:-1, None] + top.hi * widths[:, None]

    out: List[List[Interval]] = [[] for _ in range(N)]
    rows: dict = {}  # candidate -> its exact free-space row, for unsure windows
    for i in range(ne):
        b_holds, b_undecided = _nonempty(bot, i)
        if not (b_holds | b_undecided).any():
            continue
        # window (i, j) crosses the inner vertices i..j-1, rows i..j-1 of vert
        alive, unsure = _window_sweeps(vert, i, MAX_WINDOW_EDGES - 1)
        for j in range(i, min(i + MAX_WINDOW_EDGES, ne)):
            t_holds, t_undecided = _nonempty(top, j)
            holds = b_holds & t_holds & alive[j - i]
            undecided = b_undecided | t_undecided | unsure[j - i]
            if j == i:
                margin = top.hi[j] - bot.lo[i]
                m_holds, m_undecided = filtered_nonneg(margin, bot.err[i] + top.err[j])
                undecided |= holds & m_undecided
                holds &= m_holds
            dead = ~(b_holds | b_undecided) | ~(t_holds | t_undecided)
            dead |= ~(alive[j - i] | unsure[j - i])
            for idx in np.nonzero(holds)[0]:
                out[idx].append(Interval(float(lo_glob[i, idx]), float(hi_glob[j, idx])))
            for idx in np.nonzero(undecided & ~dead)[0]:
                row = rows.get(idx)
                if row is None:
                    q = Segment(starts[idx], ends[idx])
                    row = rows[idx] = FreeSpaceRow(S, 1, S.n, q, delta)
                iv = _coverage_interval_on_row(row, i + 1, j + 1)
                if not iv.is_empty():
                    out[idx].append(iv)
            if not ((b_holds | b_undecided) & (alive[j - i] | unsure[j - i])).any():
                break
    return [merge_intervals(ivs) for ivs in out]


def batch_feasible_mask(
    S: PolyCurve, t: EdgePoint, starts: np.ndarray, ends: np.ndarray, delta: float
) -> np.ndarray:
    """``is_feasible`` evaluated for many candidate segments at once."""
    N = starts.shape[0]
    wins = window_set(S, t)
    # the windows' cells are edges lo..hi-1, their inner vertices lo+1..hi-1
    lo = min(i for i, _ in wins)
    hi = max(j for _, j in wins)
    V = S.vertices
    bot = ball_intervals(V[lo - 1 : hi - 1, None], V[lo:hi, None], starts[None], delta)
    top = ball_intervals(V[lo - 1 : hi - 1, None], V[lo:hi, None], ends[None], delta)
    vert = ball_intervals(starts[None], ends[None], V[lo : hi - 1, None], delta)
    feas = np.zeros(N, dtype=bool)
    unsure = []  # (window, candidates) decided by the scalar path
    for (i, j) in wins:
        bi, tj = i - lo, j - 1 - lo
        su = float(_start_upper(t, i).value())
        b_holds, b_undecided = filtered_nonneg(su - bot.lo[bi], bot.err[bi], bot.tight[bi])
        el = float(_end_lower(t, j - 1).value())
        t_holds, t_undecided = filtered_nonneg(top.hi[tj] - el, top.err[tj], top.tight[tj])
        # inner vertices i+1..j-1 are rows i-lo..j-lo-2 of vert
        alive, sweep_unsure = (a[-1] for a in _window_sweeps(vert, i - lo, j - i - 1))
        dead = ~(b_holds | b_undecided) | ~(t_holds | t_undecided)
        dead |= ~(alive | sweep_unsure)
        feas |= b_holds & t_holds & alive
        unsure.append(((i, j), np.nonzero((b_undecided | t_undecided | sweep_unsure) & ~dead)[0]))
    for (i, j), idxs in unsure:
        for idx in idxs[~feas[idxs]]:
            feas[idx] = psi_ij_contains(S, i, j, t, Segment(starts[idx], ends[idx]), delta)
    return feas
