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
    _window_contains,
    psi_ij_contains,
)
from .geometry import (
    BLOCK_ENTRIES,
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


class Coverage:
    """Merged coverage intervals of many candidates in CSR layout.

    Candidate k owns the sorted, disjoint intervals with ends
    ``lo[offsets[k]:offsets[k+1]]`` and ``hi[offsets[k]:offsets[k+1]]``;
    ``coverage[k]`` lists them as ``Interval`` objects.
    """

    __slots__ = ("offsets", "lo", "hi")

    def __init__(self, offsets: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.offsets, self.lo, self.hi = offsets, lo, hi

    @staticmethod
    def of(per: Sequence[Sequence[Interval]]) -> "Coverage":
        """The coverage of per-candidate interval lists, merged per candidate."""
        owner = np.repeat(np.arange(len(per)), [len(ivs) for ivs in per])
        lo = np.array([iv.lo for ivs in per for iv in ivs], dtype=float)
        hi = np.array([iv.hi for ivs in per for iv in ivs], dtype=float)
        return merge_owned(owner, lo, hi, len(per))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, k: int) -> List[Interval]:
        a, b = self.offsets[k], self.offsets[k + 1]
        return [Interval(x, y) for x, y in zip(self.lo[a:b].tolist(), self.hi[a:b].tolist())]

    def take(self, idx: np.ndarray) -> "Coverage":
        """The coverage of the candidates idx, in that order."""
        first = self.offsets[idx]
        count = self.offsets[idx + 1] - first
        offsets = np.concatenate([[0], np.cumsum(count)])
        flat = np.repeat(first - offsets[:-1], count) + np.arange(offsets[-1])
        return Coverage(offsets, self.lo[flat], self.hi[flat])

    def extended(self, *more: "Coverage") -> "Coverage":
        """This coverage followed by the candidates of each of more."""
        parts = (self,) + more
        shifts = np.cumsum([0] + [p.lo.size for p in parts])
        offsets = [self.offsets[:1]] + [p.offsets[1:] + s for p, s in zip(parts, shifts)]
        lo, hi = (np.concatenate([getattr(p, end) for p in parts]) for end in ("lo", "hi"))
        return Coverage(np.concatenate(offsets), lo, hi)


def merge_owned(owner: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int) -> Coverage:
    """``merge_intervals`` of each owner's intervals, for owners 0..n-1.

    One lexsort on (owner, lo, hi), then a new interval wherever lo passes
    the running maximum of the owner's earlier upper ends.  That maximum is
    taken over integer keys, the owner above the rank of hi, so it never
    reaches into the next owner.
    """
    keep = ~(lo > hi)  # drop empty intervals, as Interval.is_empty does
    order = np.lexsort((hi[keep], lo[keep], owner[keep]))
    owner, lo, hi = owner[keep][order], lo[keep][order], hi[keep][order]
    by_hi = np.argsort(hi, kind="stable")
    rank = np.empty_like(by_hi)
    rank[by_hi] = np.arange(hi.size)
    base = owner * hi.size
    reach = hi[by_hi[np.maximum.accumulate(base + rank) - base]]
    new = np.ones(hi.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (lo[1:] > reach[:-1])
    first = np.flatnonzero(new)
    last = np.flatnonzero(np.append(new[1:], hi.size > 0))  # ends of the runs
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owner[first], minlength=n))])
    return Coverage(offsets, lo[first], reach[last])


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
    return point_not_covered_from_intervals(S, Coverage.of([structured_coverage(S, C, delta)]))


def point_not_covered_from_intervals(S: PolyCurve, covered: Coverage) -> Optional[EdgePoint]:
    """Uncovered-gap midpoint for precomputed coverage, of any number of candidates."""
    order = np.argsort(covered.lo, kind="stable")
    lo = covered.lo[order]
    reach = np.maximum.accumulate(covered.hi[order])
    # With gaps of at most _GAP_SLACK closed, the union of the intervals has
    # a gap before interval k where lo[k] passes 0 and the reach of those
    # before it, the latter by more than the slack, and one after the last
    # where that reach is below 1.
    a = np.zeros(lo.size + 1)  # where each gap starts
    np.maximum(reach, 0.0, out=a[1:])
    b = np.append(lo, 1.0)  # and ends
    opens = b > a
    opens[1:-1] &= lo[1:] > reach[:-1] + _GAP_SLACK
    # the largest, the leftmost of equals
    width = np.where(opens, b - a, 0.0)
    g = int(width.argmax())
    if width[g] == 0.0:
        return None
    return S.locate(float(0.5 * (a[g] + b[g])))


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
# predicates over ``geometry.ball_intervals`` (``geometry.filtered_nonneg``
# and ``geometry.filtered_sweep`` hold the tolerance policy).  A window is
# dead when one of its decisions fails decisively, and unsure when it is not
# dead and some decision is undecided.  Unsure windows are decided by the
# scalar path on one exact ``FreeSpaceRow`` per candidate, so the result is
# the scalar one.  Ties are common, not rare: candidate endpoints are
# extremal points of the same radius, so their balls often touch a cell at a
# single point.
#
# The window table.  One kernel call gives the bottoms and tops of every
# (edge, candidate) cell, with the starts and then the ends as centres, and
# one more the verticals at the inner vertices.  Stacked as shifted copies,
# row k of window start i is the vertex after edge i+k, so one
# ``filtered_sweep`` along that axis decides the crossings of every window
# (start edge, length < MAX_WINDOW_EDGES) at once.
#
# The CSR layout.  ``Coverage`` keeps the merged intervals of many
# candidates in flat arrays, with offsets per candidate; ``merge_owned``
# builds it from the windows' (owner, lo, hi) with one lexsort and a running
# maximum per owner, bitwise what ``merge_intervals`` gives each candidate.


class FreeSpaceRows(dict):
    """Exact free-space rows of candidate segments, built on first use."""

    def __init__(self, S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float):
        super().__init__()
        self.args = (S, starts, ends, delta)

    def __missing__(self, k: int) -> FreeSpaceRow:
        S, starts, ends, delta = self.args
        row = self[k] = FreeSpaceRow(S, 1, S.n, Segment(starts[k], ends[k]), delta)
        return row


def _cell_balls(V: np.ndarray, starts: np.ndarray, ends: np.ndarray, delta: float):
    """Bottoms and tops of the cells of the curve through the vertices V,
    (edges, candidates) each, in one kernel call."""
    N = starts.shape[0]
    cells = ball_intervals(V[:-1, None], V[1:, None], np.concatenate([starts, ends])[None], delta)
    bot = BallIntervals._make(a[:, :N] for a in cells)
    return bot, BallIntervals._make(a[:, N:] for a in cells)


def _window_table(b_holds, b_unsure, t_holds, t_unsure, vert: BallIntervals):
    """(holds, unsure) of every window, as (lengths, edges, candidates) masks:
    entry (L, i) is the window from edge i to edge i + L, for lengths
    L < MAX_WINDOW_EDGES, and is False where that runs past the last edge.

    The first four masks decide each edge as a window's first cell (its
    bottom) and as its last cell (its top), per candidate; the table adds
    the sweep across the window's inner vertices, ``vert``.
    """
    ne = b_holds.shape[0]
    end = np.arange(ne) + np.arange(MAX_WINDOW_EDGES)[:, None]
    inside = (end < ne)[..., None]
    # clamped rows only reach windows past the last edge
    last = np.minimum(end, ne - 1)
    alive = np.ones(end.shape + b_holds.shape[1:], dtype=bool)
    sweep_unsure = np.zeros_like(alive)
    if ne > 1:
        # row L - 1 of the stack is the L-th inner vertex of each window
        stack = BallIntervals._make(a[last[1:] - 1] for a in vert)
        alive[1:], sweep_unsure[1:] = filtered_sweep(stack, axis=0)
    live = (b_holds | b_unsure) & (t_holds | t_unsure)[last] & (alive | sweep_unsure) & inside
    holds = b_holds & t_holds[last] & alive & inside
    return holds, live & (b_unsure | t_unsure[last] | sweep_unsure)


def batch_candidate_coverage(
    S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float
) -> Coverage:
    """``candidate_coverage_intervals`` for many candidate segments at once."""
    # entries of the stacked sweep (inner vertices x edges x candidates) per block
    step = max(BLOCK_ENTRIES // ((MAX_WINDOW_EDGES - 1) * max(S.num_edges, 1)), 1)
    blocks = [
        _coverage_block(S, starts[k : k + step], ends[k : k + step], delta)
        for k in range(0, starts.shape[0], step)
    ]
    return blocks[0] if len(blocks) == 1 else Coverage.of([]).extended(*blocks)


def _coverage_block(S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float) -> Coverage:
    params = S.vertex_params
    widths = np.diff(params)[:, None]
    bot, top = _cell_balls(S.vertices, starts, ends, delta)
    vert = ball_intervals(starts[None], ends[None], S.vertices[1:-1, None], delta)
    lo_glob = params[:-1, None] + bot.lo * widths
    hi_glob = params[:-1, None] + top.hi * widths
    # a cell's bottom or top holds where it is nonempty
    holds, unsure = _window_table(
        ~bot.tight & (bot.lo <= 1.0), bot.tight, ~top.tight & (top.lo <= 1.0), top.tight, vert
    )
    # a one-cell window also needs its start below its end
    m_holds, m_unsure = filtered_nonneg(top.hi - bot.lo, bot.err + top.err)
    unsure[0] |= holds[0] & m_unsure
    holds[0] &= m_holds
    L, i, k = np.nonzero(holds)
    owner, lo, hi = [k], [lo_glob[i, k]], [hi_glob[i + L, k]]
    rows = FreeSpaceRows(S, starts, ends, delta)
    for L, i, k in np.argwhere(unsure).tolist():  # the scalar path
        iv = _coverage_interval_on_row(rows[k], i + 1, i + L + 1)
        owner.append([k])
        lo.append([iv.lo])
        hi.append([iv.hi])
    return merge_owned(*map(np.concatenate, (owner, lo, hi)), starts.shape[0])


def batch_feasible_mask(
    S: PolyCurve, t: EdgePoint, starts: np.ndarray, ends: np.ndarray, delta: float, rows=None
) -> np.ndarray:
    """``is_feasible`` evaluated for many candidate segments at once.

    ``rows``, ``FreeSpaceRows`` of the candidates, serve the scalar path;
    calls on the same candidates share them by passing the same ``rows``.
    """
    # window_set's windows start on edges lo..ip and end on edges ip..hi-1
    ip = t.edge_index
    lo, hi = max(ip - MAX_WINDOW_EDGES + 1, 1), min(ip + MAX_WINDOW_EDGES, S.n)
    V = S.vertices[lo - 1 : hi]
    bot, top = _cell_balls(V, starts, ends, delta)
    su = np.array([[_start_upper(t, e).value()] for e in range(lo, hi)])
    el = np.array([[_end_lower(t, e).value()] for e in range(lo, hi)])
    b_holds, b_unsure = filtered_nonneg(su - bot.lo, bot.err, bot.tight)
    t_holds, t_unsure = filtered_nonneg(top.hi - el, top.err, top.tight)
    b_holds[ip - lo + 1 :] = b_unsure[ip - lo + 1 :] = False
    t_holds[: ip - lo] = t_unsure[: ip - lo] = False
    # only candidates with a live first and a live last cell can be feasible
    k = np.flatnonzero((b_holds | b_unsure).any(axis=0) & (t_holds | t_unsure).any(axis=0))
    vert = ball_intervals(starts[k][None], ends[k][None], V[1:-1, None], delta)
    holds, unsure = _window_table(*(a[:, k] for a in (b_holds, b_unsure, t_holds, t_unsure)), vert)
    feas = np.zeros(starts.shape[0], dtype=bool)
    feas[k] = holds.any(axis=(0, 1))
    if rows is None:
        rows = FreeSpaceRows(S, starts, ends, delta)
    # the scalar path, in window_set's order; window (L, i) runs from edge
    # lo + i to edge lo + i + L
    for i, L, c in sorted((i, L, k[c]) for L, i, c in np.argwhere(unsure).tolist()):
        if not feas[c]:
            feas[c] = _window_contains(rows[c], lo + i, lo + i + L + 1, t)
    return feas
