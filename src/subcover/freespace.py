"""Free-space row machinery: a polygonal curve against a single segment.

The joint parameter space of a curve P and a segment q is a single row of
cells, one per curve edge.  x is the curve parameter, y the segment
parameter.  Within a cell the set of pairs at distance <= delta is convex,
so every reachability question reduces to interval checks on cell
boundaries.  Boundary endpoints are quadratic roots; they are kept in
a+sqrt(b) form and ordered with the exact radical predicates.

``FreeSpaceRow`` is the one exact row, read by every scalar operation here
and by the exact fallbacks of the batched fill and mask.  Its dots come
from one table (``free_space_rows``: one for many segments), and each
interval is made from them when first read: bit for bit the per-cell
``ball_segment_radical``, since ``geometry.rowdot`` equals ``np.dot``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import (
    EdgePoint,
    Interval,
    PolyCurve,
    RadInterval,
    Segment,
    ball_segment_dots,
    ball_segment_radical,
    ball_segment_radical_from_dots,
    capsule_segment_radical,
)
from .radicals import ONE, ZERO, Radical, rad_max, rad_min


class FreeSpaceRow:
    """Boundary intervals of the delta free space of P[t_lo, t_hi] versus seg.

    Cells are indexed by curve edge (1-based, edges lo_vertex..hi_vertex-1),
    verticals by curve vertex (lo_vertex..hi_vertex); a read outside them
    raises ``IndexError``.  Horizontal intervals live in edge-local curve
    parameters, vertical intervals in the segment parameter.  The dots of
    all of them come from one ``ball_segment_dots`` call.
    """

    __slots__ = ("curve", "lo_vertex", "hi_vertex", "delta", "_dots", "_ivs")

    def __init__(self, curve: PolyCurve, lo_vertex: int, hi_vertex: int, seg: Segment, delta: float):
        if not (1 <= lo_vertex < hi_vertex <= curve.n):
            raise IndexError("vertex range out of bounds")
        (dots,) = _row_dots(curve.vertices[lo_vertex - 1 : hi_vertex], seg.start[None], seg.end[None])
        self._bind(curve, lo_vertex, delta, dots)

    def _bind(self, curve: PolyCurve, lo_vertex: int, delta: float, dots) -> None:
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        self.curve, self.lo_vertex, self.delta, self._dots = curve, lo_vertex, float(delta), dots
        self.hi_vertex = lo_vertex + (len(dots[0]) - 1) // 3
        self._ivs = [None] * len(dots[0])

    def _read(self, x: int, part: int) -> RadInterval:
        """Interval x of the bottoms (part 0), tops (1) or verticals (2)."""
        ne = self.hi_vertex - self.lo_vertex
        k = x - self.lo_vertex
        if not 0 <= k < ne + (part == 2):
            raise IndexError("read outside the row")
        k += part * ne
        iv = self._ivs[k]
        if iv is None:
            aa, vw, ww = self._dots
            iv = self._ivs[k] = ball_segment_radical_from_dots(aa[k], vw[k], ww[k], self.delta)
        return iv

    def bottom(self, cell: int) -> RadInterval:
        """Curve-edge parameters of cell within delta of the segment start."""
        return self._read(cell, 0)

    def top(self, cell: int) -> RadInterval:
        """Curve-edge parameters of cell within delta of the segment end."""
        return self._read(cell, 1)

    def vertical(self, vertex: int) -> RadInterval:
        """Segment parameters within delta of a curve vertex."""
        return self._read(vertex, 2)


def _row_dots(V: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Per segment (starts[k] to ends[k]), the dots (aa, vw, ww) of its row on
    the vertices V, as lists: the bottoms of V's edges, their tops, then the
    verticals at V's vertices.  One ``ball_segment_dots`` call for all."""
    ne = V.shape[0] - 1
    p, q, r = np.empty((3, 3 * ne + 1, starts.shape[0], V.shape[1]))
    p[:ne] = p[ne : 2 * ne] = V[:-1, None]
    q[:ne] = q[ne : 2 * ne] = V[1:, None]
    r[:ne], r[ne : 2 * ne] = starts, ends
    p[2 * ne :], q[2 * ne :], r[2 * ne :] = starts, ends, V[:, None]
    return zip(*(x.T.tolist() for x in ball_segment_dots(p, q, r)))


def free_space_rows(
    P: PolyCurve, first: int, V: np.ndarray, starts: np.ndarray, ends: np.ndarray, delta: float, ks
) -> Dict[int, FreeSpaceRow]:
    """The ``FreeSpaceRow`` of each segment k in ks (starts[k] to ends[k]) on
    the cells of V, the run of P's vertices from vertex ``first``, from one
    table of dot products."""
    ks = sorted(set(np.asarray(ks).tolist()))
    if not ks:
        return {}
    rows = {}
    for k, dots in zip(ks, _row_dots(V, starts[ks], ends[ks])):
        rows[k] = FreeSpaceRow.__new__(FreeSpaceRow)
        rows[k]._bind(P, first, delta, dots)
    return rows


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
    # rows over doubling runs of vertices, so that a crossing that fails
    # early computes few dots and a long sweep few tables
    cur: Optional[Radical] = ZERO
    v, width = lo_v, 16
    while cur is not None and v <= hi_v:
        top = min(v + width - 1, hi_v)
        cur = _sweep_crossings(FreeSpaceRow(P, v, top + 1, seg, delta), v, top, cur)
        v, width = top + 1, 2 * width
    return cur is not None


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


def _slice_endpoint(seg: Segment, point: np.ndarray, delta: float, want_lo: bool) -> Radical:
    """Endpoint of the free interval of seg against a point near distance delta.

    At a tangency the quadratic's discriminant can round to a hair below
    zero; the projection parameter of the point onto the segment is the
    exact limit there.
    """
    iv = ball_segment_radical(seg.start, seg.end, point, delta)
    if not iv.empty:
        return iv.lo if want_lo else iv.hi
    v = seg.end - seg.start
    vv = float(np.dot(v, v))
    if vv == 0.0:
        return Radical.exact(0.0)
    u = float(np.dot(point - seg.start, v)) / vv
    return Radical.exact(min(max(u, 0.0), 1.0))


class ExtremalPair(NamedTuple):
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
