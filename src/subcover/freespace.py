"""Free-space row machinery: a polygonal curve against a single segment.

The joint parameter space of a curve P and a segment q is a single row of
cells, one per curve edge.  x is the curve parameter, y the segment
parameter.  Within a cell the set of pairs at distance <= delta is convex,
so every reachability question reduces to interval checks on cell
boundaries.  Boundary endpoints are quadratic roots; they are kept in
a+sqrt(b) form and ordered with the exact radical predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .geometry import (
    EdgePoint,
    Interval,
    PolyCurve,
    RadInterval,
    Segment,
    ball_segment_radical,
    capsule_segment_radical,
)
from .radicals import ONE, ZERO, Radical, rad_max, rad_min


class FreeSpaceRow:
    """Boundary intervals of the delta free space of P[t_lo, t_hi] versus seg.

    Cells are indexed by curve edge (1-based, edges lo_vertex..hi_vertex-1).
    Horizontal intervals live in edge-local curve parameters, vertical
    intervals in the segment parameter.
    """

    __slots__ = (
        "curve",
        "lo_vertex",
        "hi_vertex",
        "seg",
        "delta",
        "_bottoms",
        "_tops",
        "_verts",
    )

    def __init__(
        self,
        curve: PolyCurve,
        lo_vertex: int,
        hi_vertex: int,
        seg: Segment,
        delta: float,
    ):
        if not (1 <= lo_vertex < hi_vertex <= curve.n):
            raise IndexError("vertex range out of bounds")
        self.curve = curve
        self.lo_vertex = lo_vertex
        self.hi_vertex = hi_vertex
        self.seg = seg
        self.delta = float(delta)
        self._bottoms = {}
        self._tops = {}
        self._verts = {}

    def bottom(self, cell: int) -> RadInterval:
        """Curve-edge parameters of cell within delta of the segment start."""
        iv = self._bottoms.get(cell)
        if iv is None:
            e = self.curve.edge(cell)
            iv = ball_segment_radical(e.start, e.end, self.seg.start, self.delta)
            self._bottoms[cell] = iv
        return iv

    def top(self, cell: int) -> RadInterval:
        """Curve-edge parameters of cell within delta of the segment end."""
        iv = self._tops.get(cell)
        if iv is None:
            e = self.curve.edge(cell)
            iv = ball_segment_radical(e.start, e.end, self.seg.end, self.delta)
            self._tops[cell] = iv
        return iv

    def vertical(self, vertex: int) -> RadInterval:
        """Segment parameters within delta of a curve vertex."""
        iv = self._verts.get(vertex)
        if iv is None:
            v = self.curve.vertex(vertex)
            iv = ball_segment_radical(self.seg.start, self.seg.end, v, self.delta)
            self._verts[vertex] = iv
        return iv

    # public float views matching the four-interval-per-cell description
    def cell_boundaries(self, cell: int) -> dict:
        return {
            "bottom": self.bottom(cell).to_interval(),
            "top": self.top(cell).to_interval(),
            "left": self.vertical(cell).to_interval(),
            "right": self.vertical(cell + 1).to_interval(),
        }

    def cells(self) -> range:
        return range(self.lo_vertex, self.hi_vertex)


def free_space_row(
    P: PolyCurve, lo_vertex: int, hi_vertex: int, seg: Segment, delta: float
) -> FreeSpaceRow:
    """Materialize all boundary intervals for the cells in the vertex range."""
    row = FreeSpaceRow(P, lo_vertex, hi_vertex, seg, delta)
    for c in row.cells():
        row.bottom(c)
        row.top(c)
    for v in range(lo_vertex, hi_vertex + 1):
        row.vertical(v)
    return row


def _dist_sq(p: np.ndarray, q: np.ndarray) -> float:
    d = p - q
    return float(np.dot(d, d))


def _sweep_crossings(row: FreeSpaceRow, lo_v: int, hi_v: int, start: Radical = ZERO) -> Optional[Radical]:
    """Running lower bound of reachable segment parameters across vertices lo_v..hi_v.

    Returns the final lower bound, or None when some crossing is impossible.
    """
    cur = start
    for v in range(lo_v, hi_v + 1):
        iv = row.vertical(v)
        if iv.empty:
            return None
        if cur.lt(iv.lo):
            cur = iv.lo
        if not cur.le(iv.hi):
            return None
    return cur


def decide_frechet_subcurve_segment(
    P: PolyCurve, a: EdgePoint, b: EdgePoint, seg: Segment, delta: float
) -> bool:
    """True iff the Frechet distance of P[a,b] to seg is at most delta.

    Monotone-reachability sweep over the single free-space row from (a, 0)
    to (b, 1).
    """
    ga = P.edge_point_param(a)
    gb = P.edge_point_param(b)
    if ga > gb:
        raise ValueError("a must precede or equal b in curve order")
    dd = delta * delta
    if _dist_sq(P.edge_point_coords(a), seg.start) > dd:
        return False
    if _dist_sq(P.edge_point_coords(b), seg.end) > dd:
        return False
    # vertices strictly between the two endpoints must be crossable
    lo_v = a.edge_index + 1 if a.local < 1.0 else a.edge_index + 2
    hi_v = b.edge_index if b.local > 0.0 else b.edge_index - 1
    if lo_v > hi_v:
        return True
    row = FreeSpaceRow(P, min(a.edge_index, P.n - 1), min(b.edge_index + 1, P.n), seg, delta)
    return _sweep_crossings(row, lo_v, hi_v) is not None


def _start_upper(t: EdgePoint, i: int) -> Radical:
    """Largest admissible edge-local start parameter on edge i for covering t."""
    if t.edge_index > i:
        return ONE
    if t.edge_index == i:
        return Radical.exact(t.local)
    return ZERO  # t at the left end of edge i via (i-1, local=1)


def _end_lower(t: EdgePoint, j: int) -> Radical:
    """Smallest admissible edge-local end parameter on edge j for covering t."""
    if t.edge_index < j:
        return ZERO
    if t.edge_index == j:
        return Radical.exact(t.local)
    return ONE  # t at the right end of edge j via (j+1, local=0)


def _t_in_window(t: EdgePoint, i: int, j: int) -> bool:
    """Whether the edge point lies in [t_i, t_j] (vertex indices), by index."""
    if t.edge_index < i and not (t.edge_index == i - 1 and t.local == 1.0):
        return False
    if t.edge_index > j - 1 and not (t.edge_index == j and t.local == 0.0):
        return False
    return True


def psi_ij_contains(P: PolyCurve, i: int, j: int, t: EdgePoint, seg: Segment, delta: float) -> bool:
    """True iff some delta-feasible traversal starting on edge i and ending on
    edge j-1 covers the point t on P while traversing all of seg."""
    if not (1 <= i < j <= P.n):
        raise IndexError("window indices out of range")
    if not _t_in_window(t, i, j):
        raise ValueError("t must lie within the window's parameter range")
    return _window_contains(FreeSpaceRow(P, i, j, seg, delta), i, j, t)


def _window_contains(row: FreeSpaceRow, i: int, j: int, t: EdgePoint) -> bool:
    """``psi_ij_contains`` on a row of the segment that spans the window."""
    bot = row.bottom(i)
    if bot.empty or not bot.lo.le(_start_upper(t, i)):
        return False
    top = row.top(j - 1)
    if top.empty or not _end_lower(t, j - 1).le(top.hi):
        return False
    return _sweep_crossings(row, i + 1, j - 1) is not None


def coverage_interval(P: PolyCurve, i: int, j: int, seg: Segment, delta: float) -> Interval:
    """Maximal curve-parameter interval covered by traversals of seg that
    start on edge i and end on edge j (edge indices, i <= j)."""
    if not (1 <= i <= j <= P.num_edges):
        raise IndexError("edge window out of range")
    row = FreeSpaceRow(P, i, j + 1, seg, delta)
    return _coverage_interval_on_row(row, i, j)


def _coverage_interval_on_row(row: FreeSpaceRow, i: int, j: int) -> Interval:
    bot = row.bottom(i)
    if bot.empty:
        return Interval.empty()
    top = row.top(j)
    if top.empty:
        return Interval.empty()
    if i == j:
        if not bot.lo.le(top.hi):
            return Interval.empty()
    elif _sweep_crossings(row, i + 1, j) is None:
        return Interval.empty()
    P = row.curve
    lo = bot.lo.affine(P.edge_width(i), P.param(i)).value()
    hi = top.hi.affine(P.edge_width(j), P.param(j)).value()
    return Interval(lo, hi)


def _slice_endpoint(
    seg: Segment, point: np.ndarray, delta: float, want_lo: bool, iv: Optional[RadInterval] = None
) -> Radical:
    """Endpoint of the free interval of seg against a point near distance delta.

    ``iv`` is that interval when the caller already has it.  At a tangency
    the quadratic's discriminant can round to a hair below zero; the
    projection parameter of the point onto the segment is the exact limit
    there.
    """
    if iv is None:
        iv = ball_segment_radical(seg.start, seg.end, point, delta)
    if not iv.empty:
        return iv.lo if want_lo else iv.hi
    v = seg.end - seg.start
    vv = float(np.dot(v, v))
    if vv == 0.0:
        return Radical.exact(0.0)
    u = float(np.dot(point - seg.start, v)) / vv
    return Radical.exact(min(max(u, 0.0), 1.0))


@dataclass(frozen=True)
class ExtremalPair:
    """Optimal subsegment parameters (s, t) of a segment against a curve.

    s > t is allowed and denotes a reversed subsegment.
    """

    s: float
    t: float
    s_rad: Radical
    t_rad: Radical


def extremal_points(Y: PolyCurve, seg: Segment, delta: float) -> Optional[ExtremalPair]:
    """Segment parameters (s, t) whose subsegment maximizes coverage of Y.

    Returns None when no feasible traversal from the first to the last edge
    of Y exists.  s is the smallest of the leftmost free-space point's
    y-coordinate and the upper ends of the internal vertical intervals; t is
    the largest of the rightmost point's y-coordinate and the lower ends.

    The leftmost free point lies in the first cell with a nonempty free
    region, at its lower end, and the rightmost in the last such cell, at
    its upper end: cells are ordered along Y's parameter, and two cells
    reach the same parameter only at their shared vertex, where both slice
    endpoints are computed from the same point.
    """
    m = Y.num_edges
    if m < 1:
        raise ValueError("curve must have at least one edge")
    row = FreeSpaceRow(Y, 1, Y.n, seg, delta)
    # well-definedness: every cell of the row must be crossable.  Internal
    # vertical intervals nonempty implies every cell's free region is
    # nonempty; a single-edge curve only needs its one cell nonempty.
    for v in range(2, m + 1):
        if row.vertical(v).empty:
            return None
    if m == 1 and capsule_segment_radical(Y.edge(1), seg, delta).empty:
        return None

    def first_free(cells) -> Optional[Tuple[Segment, RadInterval]]:
        for c in cells:
            cap = capsule_segment_radical(seg, Y.edge(c), delta)
            if not cap.empty:
                return Y.edge(c), cap
        return None

    left = first_free(range(1, m + 1))
    if left is None:
        return None
    right = first_free(range(m, 0, -1))
    s_cands: List[Radical] = [_slice_endpoint(seg, left[0].at(left[1].lo.value()), delta, True)]
    t_cands: List[Radical] = [_slice_endpoint(seg, right[0].at(right[1].hi.value()), delta, False)]
    for v in range(2, m + 1):
        iv = row.vertical(v)
        s_cands.append(iv.hi)
        t_cands.append(iv.lo)
    s = rad_min(*s_cands)
    t = rad_max(*t_cands)
    return ExtremalPair(s.value(), t.value(), s, t)
