"""Points, segments, polygonal curves and the low-level intersection kernel.

Conventions used throughout the package:

* points are 1-d numpy arrays of length d;
* vertices and edges of a curve are indexed starting from 1, so a curve with
  n vertices has edges 1..n-1 and edge i runs from vertex i to vertex i+1;
* an interval is empty iff lo > hi; the canonical empty interval is
  (+inf, -inf) which makes unions and intersections total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .radicals import ONE, ZERO, Radical, rad_max, rad_min


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    lo: float = math.inf
    hi: float = -math.inf

    @staticmethod
    def empty() -> "Interval":
        return Interval()

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def length(self) -> float:
        return 0.0 if self.is_empty() else self.hi - self.lo


class RadInterval:
    """Interval with endpoints kept in a+sqrt(b) form for exact comparisons."""

    __slots__ = ("lo", "hi", "empty")

    def __init__(self, lo: Optional[Radical], hi: Optional[Radical]):
        if lo is None or hi is None:
            self.lo = None
            self.hi = None
            self.empty = True
        else:
            self.lo = lo
            self.hi = hi
            self.empty = not lo.le(hi)

    @staticmethod
    def make_empty() -> "RadInterval":
        return RadInterval(None, None)

    def clamp01(self) -> "RadInterval":
        if self.empty:
            return self
        lo = rad_max(self.lo, ZERO)
        hi = rad_min(self.hi, ONE)
        return RadInterval(lo, hi)

    def to_interval(self) -> Interval:
        if self.empty:
            return Interval.empty()
        return Interval(self.lo.value(), self.hi.value())

    def __repr__(self) -> str:  # pragma: no cover
        if self.empty:
            return "RadInterval(empty)"
        return f"RadInterval({self.lo.value():.6g}, {self.hi.value():.6g})"


# ---------------------------------------------------------------------------
# segments and curves


def as_point(p: Sequence[float]) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.ndim != 1:
        raise ValueError("a point must be a flat coordinate sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    return a


@dataclass(frozen=True)
class Segment:
    start: np.ndarray
    end: np.ndarray

    def __init__(self, start: Sequence[float], end: Sequence[float]):
        object.__setattr__(self, "start", as_point(start))
        object.__setattr__(self, "end", as_point(end))
        if self.start.shape != self.end.shape:
            raise ValueError("segment endpoints must share a dimension")

    @classmethod
    def _unchecked(cls, start: np.ndarray, end: np.ndarray) -> "Segment":
        """A segment on endpoints already known to be finite, flat and of
        one dimension, such as two vertices of a ``PolyCurve``."""
        seg = object.__new__(cls)
        object.__setattr__(seg, "start", start)
        object.__setattr__(seg, "end", end)
        return seg

    def direction(self) -> np.ndarray:
        return self.end - self.start

    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def at(self, t: float) -> np.ndarray:
        return (1.0 - t) * self.start + t * self.end

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class EdgePoint:
    """A point on a curve given as (edge index, local parameter in [0,1])."""

    edge_index: int
    local: float

    def __post_init__(self):
        if not 0.0 <= self.local <= 1.0:
            raise ValueError("local parameter must lie in [0,1]")


class PolyCurve:
    """Polygonal curve with vertex parameters; evaluation interpolates linearly."""

    __slots__ = ("vertices", "vertex_params")

    def __init__(self, vertices, vertex_params=None):
        v = np.asarray(vertices, dtype=float)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("need at least one vertex")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        n = v.shape[0]
        if vertex_params is None:
            params = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
        else:
            params = np.asarray(vertex_params, dtype=float)
        if params.shape != (n,):
            raise ValueError("vertex_params must match the vertex count")
        if n > 1:
            if params[0] != 0.0 or params[-1] != 1.0:
                raise ValueError("vertex_params must start at 0 and end at 1")
            if np.any(np.diff(params) <= 0):
                raise ValueError("vertex_params must be strictly increasing")
        self.vertices = v
        self.vertex_params = params

    # -- basic accessors (1-based indices) --

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_edges(self) -> int:
        return max(self.n - 1, 0)

    def vertex(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.n:
            raise IndexError(f"vertex index {i} out of range 1..{self.n}")
        return self.vertices[i - 1]

    def param(self, i: int) -> float:
        if not 1 <= i <= self.n:
            raise IndexError(f"vertex index {i} out of range 1..{self.n}")
        return float(self.vertex_params[i - 1])

    def edge(self, i: int) -> Segment:
        if not 1 <= i <= self.num_edges:
            raise IndexError(f"edge index {i} out of range 1..{self.num_edges}")
        return Segment._unchecked(self.vertices[i - 1], self.vertices[i])

    def edge_width(self, i: int) -> float:
        return float(self.vertex_params[i] - self.vertex_params[i - 1])

    # -- parametrization --

    def eval(self, t: float) -> np.ndarray:
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter outside [0,1]")
        if self.n == 1:
            return self.vertices[0].copy()
        i = int(np.searchsorted(self.vertex_params, t, side="right")) - 1
        i = min(max(i, 0), self.n - 2)
        w = self.vertex_params[i + 1] - self.vertex_params[i]
        local = (t - self.vertex_params[i]) / w
        return (1.0 - local) * self.vertices[i] + local * self.vertices[i + 1]

    def edge_point_param(self, p: EdgePoint) -> float:
        """Global parameter of an edge point: (1-local)*t_i + local*t_{i+1}."""
        i = p.edge_index
        if not 1 <= i <= self.num_edges:
            raise IndexError(f"edge index {i} out of range 1..{self.num_edges}")
        return (1.0 - p.local) * self.param(i) + p.local * self.param(i + 1)

    def edge_point_coords(self, p: EdgePoint) -> np.ndarray:
        e = self.edge(p.edge_index)
        return e.at(p.local)

    def locate(self, t: float) -> EdgePoint:
        """Edge point for a global parameter; vertex params go to the left edge end."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter outside [0,1]")
        if self.n == 1:
            raise ValueError("a single-vertex curve has no edges")
        i = int(np.searchsorted(self.vertex_params, t, side="right")) - 1
        i = min(max(i, 0), self.n - 2)
        w = self.vertex_params[i + 1] - self.vertex_params[i]
        local = min(max((t - self.vertex_params[i]) / w, 0.0), 1.0)
        return EdgePoint(i + 1, local)

    def reversed(self) -> "PolyCurve":
        return PolyCurve(self.vertices[::-1].copy(), (1.0 - self.vertex_params)[::-1].copy())

    def subcurve(self, a: EdgePoint, b: EdgePoint) -> "PolyCurve":
        """Subcurve between two edge points, a before or equal to b."""
        ga, gb = self.edge_point_param(a), self.edge_point_param(b)
        if ga > gb:
            raise ValueError("start point must not come after end point")
        pa, pb = self.edge_point_coords(a), self.edge_point_coords(b)
        verts = [pa]
        for v in range(a.edge_index + 1, b.edge_index + 1):
            verts.append(self.vertices[v - 1])
        verts.append(pb)
        pts, keep = [], None
        for q in verts:
            if keep is None or not np.array_equal(keep, q):
                pts.append(q)
                keep = q
        if len(pts) == 1:
            return PolyCurve(np.array([pts[0], pts[0]]))
        return PolyCurve(np.array(pts))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyCurve(n={self.n}, d={self.dim})"


def curve_from_points(points, params=None) -> PolyCurve:
    return PolyCurve(np.asarray(points, dtype=float), params)


def arclength_params(points: np.ndarray) -> np.ndarray:
    """Normalized arclength parameters; uniform fallback for zero total length."""
    n = points.shape[0]
    if n == 1:
        return np.zeros(1)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        return np.linspace(0.0, 1.0, n)
    t = np.concatenate([[0.0], np.cumsum(seg)]) / total
    t[-1] = 1.0
    return t


# ---------------------------------------------------------------------------
# intersection kernel


def rowdot(x: np.ndarray, y: np.ndarray):
    """Dot products of the last axis: ``float(np.dot(x, y))`` for two vectors,
    else an array over the broadcast leading axes.

    Stacked rows go through stacked ``np.matmul`` (1 x d by d x 1), which
    takes the same BLAS dot per row as ``np.dot`` does, so a batched table
    equals the scalar predicates bit for bit (``tests/test_properties.py``
    pins this).  ``einsum`` and ``(x * y).sum(-1)`` do not: the BLAS dot may
    use fused multiply-adds.  ``np.vecdot`` would also match, but needs
    numpy 2.0, and the package supports numpy 1.24.
    """
    if x.ndim == y.ndim == 1:
        return float(np.dot(x, y))
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def ball_segment_dots(p: np.ndarray, q: np.ndarray, r: np.ndarray):
    """(v.v, v.w, w.w) with v = q - p and w = p - r: what
    ``ball_segment_radical_from_dots`` reads.  Arrays broadcast."""
    v = q - p
    w = p - r
    return rowdot(v, v), rowdot(v, w), rowdot(w, w)


def ball_segment_radical_from_dots(aa: float, vw: float, ww: float, delta: float) -> RadInterval:
    """``ball_segment_radical`` from its dot products (``ball_segment_dots``)."""
    if 4.0 * aa * aa == 0.0:  # a point, or a segment so short that aa^2 underflows
        inside = ww <= delta * delta
        return RadInterval(ZERO, ONE) if inside else RadInterval.make_empty()
    return _quadratic_sublevel(aa, 2.0 * vw, ww - delta * delta).clamp01()


def ball_segment_radical(p: np.ndarray, q: np.ndarray, r: np.ndarray, delta: float) -> RadInterval:
    """{t in [0,1] : |p + t(q-p) - r| <= delta} with radical endpoints."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return ball_segment_radical_from_dots(*ball_segment_dots(p, q, r), delta)


def ball_segment_intersection(p, q, r, delta: float) -> Interval:
    """Parameter interval of segment p->q inside the ball of radius delta at r."""
    return ball_segment_radical(as_point(p), as_point(q), as_point(r), float(delta)).to_interval()


_NEG_INF_RAD = Radical(-1e300, 0.0, 1)
_POS_INF_RAD = Radical(1e300, 0.0, 1)


def _quadratic_sublevel(aa: float, bb: float, cc: float) -> RadInterval:
    """{t : aa t^2 + bb t + cc <= 0} for aa >= 0 (constant and linear included)."""
    if 4.0 * aa * aa == 0.0:  # linear, or so flat that aa^2 underflows
        if bb == 0.0:
            return RadInterval(_NEG_INF_RAD, _POS_INF_RAD) if cc <= 0 else RadInterval.make_empty()
        t0 = -cc / bb
        if bb > 0:
            return RadInterval(_NEG_INF_RAD, Radical.exact(t0))
        return RadInterval(Radical.exact(t0), _POS_INF_RAD)
    disc, mid, rad = quadratic_roots(aa, bb, cc)
    if disc < 0.0:
        return RadInterval.make_empty()
    return RadInterval(Radical(mid, rad, -1), Radical(mid, rad, 1))


def quadratic_roots(aa, bb, cc):
    """(disc, mid, rad) of aa t^2 + bb t + cc, for floats or arrays: its
    roots are mid -+ sqrt(rad) where disc >= 0.  The one float evaluation of
    the ball quadratic, which the radical path, the candidate tables and the
    filtered kernel all read; meaningful where 4*aa*aa is nonzero."""
    disc = bb * bb - 4.0 * aa * cc
    return disc, -bb / (2.0 * aa), disc / (4.0 * aa * aa)


def capsule_segment_dots(a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray):
    """The eleven dot products ``capsule_segment_radical_from_dots`` reads,
    for the segment p->q against the segment a->b; arrays broadcast.

    With w = b - a and v = q - p they are, in order: w.w, (p-a).w, v.w,
    v.v, v.(p-a), (p-a).(p-a), v.(p-b), (p-b).(p-b), then c1.c1, c0.c1 and
    c0.c0 of the orthogonal band's c0 = (p-a) - u0 w and c1 = v - u1 w, with
    u0 = (p-a).w / w.w and u1 = v.w / w.w.  When w.w is 0 the last three are
    not read (and, for arrays, not finite).
    """
    w = b - a
    v = q - p
    pa = p - a
    pb = p - b
    ww, pa_w, v_w = rowdot(w, w), rowdot(pa, w), rowdot(v, w)
    dots = (ww, pa_w, v_w, rowdot(v, v), rowdot(v, pa), rowdot(pa, pa))
    dots += (rowdot(v, pb), rowdot(pb, pb))
    if np.ndim(ww) == 0:
        if ww == 0.0:
            return dots + (math.nan,) * 3
        c0 = pa - (pa_w / ww) * w
        c1 = v - (v_w / ww) * w
        return dots + (rowdot(c1, c1), rowdot(c0, c1), rowdot(c0, c0))
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = pa - (pa_w / ww)[..., None] * w
        c1 = v - (v_w / ww)[..., None] * w
        return dots + (rowdot(c1, c1), rowdot(c0, c1), rowdot(c0, c0))


def capsule_segment_radical_from_dots(dots: Sequence[float], delta: float) -> RadInterval:
    """``capsule_segment_radical`` from its dot products (``capsule_segment_dots``).

    The distance from a point moving along p->q to the fixed segment a->b
    is convex in t, so the sublevel set is one interval.  It is assembled from
    the three regimes of the point-to-segment distance (before the start,
    orthogonal band, past the end).
    """
    ww, pa_w, v_w, vv, v_pa, pa_pa, v_pb, pb_pb, c1c1, c0c1, c0c0 = dots
    if ww == 0.0:
        return ball_segment_radical_from_dots(vv, v_pa, pa_pa, delta)
    # projection parameter u(t) = (p + t v - a).w / ww is affine in t
    u0 = pa_w / ww
    u1 = v_w / ww  # slope
    pieces = []

    def clip(lo: float, hi: float):
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        return (lo, hi) if lo <= hi else None

    if u1 == 0.0:
        regs = [(0.0, 1.0, 0 if u0 < 0 else (2 if u0 > 1 else 1))]
    else:
        t_at0 = (0.0 - u0) / u1
        t_at1 = (1.0 - u0) / u1
        lo_t, hi_t = min(t_at0, t_at1), max(t_at0, t_at1)
        first = 0 if u1 > 0 else 2
        last = 2 - first
        regs = [(-math.inf, lo_t, first), (lo_t, hi_t, 1), (hi_t, math.inf, last)]
    dd = delta * delta
    for lo, hi, kind in regs:
        rng = clip(lo, hi)
        if rng is None:
            continue
        if kind == 0:  # distance to endpoint a
            iv = _quadratic_sublevel(vv, 2.0 * v_pa, pa_pa - dd)
        elif kind == 2:  # distance to endpoint b
            iv = _quadratic_sublevel(vv, 2.0 * v_pb, pb_pb - dd)
        else:  # orthogonal band: |perp(t)|^2 with perp(t) = c0 + t c1
            iv = _quadratic_sublevel(c1c1, 2.0 * c0c1, c0c0 - dd)
        if iv.empty:
            continue
        lo_r = rad_max(iv.lo, Radical.exact(rng[0]))
        hi_r = rad_min(iv.hi, Radical.exact(rng[1]))
        piece = RadInterval(lo_r, hi_r)
        if not piece.empty:
            pieces.append(piece)
    if not pieces:
        return RadInterval.make_empty()
    # convexity: pieces are contiguous, the hull is exact
    lo = rad_min(*[pc.lo for pc in pieces])
    hi = rad_max(*[pc.hi for pc in pieces])
    return RadInterval(lo, hi).clamp01()


def capsule_segment_radical(seg_ab: Segment, seg_pq: Segment, delta: float) -> RadInterval:
    """{t in [0,1] : dist(seg_pq(t), seg_ab) <= delta} with radical endpoints."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    dots = capsule_segment_dots(seg_ab.start, seg_ab.end, seg_pq.start, seg_pq.end)
    return capsule_segment_radical_from_dots(dots, delta)


def capsule_segment_intersection(seg_ab: Segment, seg_pq: Segment, delta: float) -> Interval:
    """Parameter interval of seg_pq within distance delta of segment seg_ab."""
    return capsule_segment_radical(seg_ab, seg_pq, float(delta)).to_interval()


def point_segment_dist_sq(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    w = b - a
    ww = float(np.dot(w, w))
    if ww == 0.0:
        d = p - a
        return float(np.dot(d, d))
    u = float(np.dot(p - a, w)) / ww
    u = min(max(u, 0.0), 1.0)
    d = p - (a + u * w)
    return float(np.dot(d, d))


def segment_segment_dist_sq(s1: Segment, s2: Segment) -> float:
    """Squared minimum distance between two segments (clamped closed form)."""
    p1, d1 = s1.start, s1.direction()
    p2, d2 = s2.start, s2.direction()
    r = p1 - p2
    a = float(np.dot(d1, d1))
    e = float(np.dot(d2, d2))
    f = float(np.dot(d2, r))
    if a == 0.0 and e == 0.0:
        return float(np.dot(r, r))
    if a == 0.0:
        return point_segment_dist_sq(p1, s2.start, s2.end)
    if e == 0.0:
        return point_segment_dist_sq(p2, s1.start, s1.end)
    c = float(np.dot(d1, r))
    bdot = float(np.dot(d1, d2))
    denom = a * e - bdot * bdot
    if denom > 0.0:
        s = min(max((bdot * f - c * e) / denom, 0.0), 1.0)
    else:
        s = 0.0
    t = (bdot * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(max(-c / a, 0.0), 1.0)
    elif t > 1.0:
        t = 1.0
        s = min(max((bdot - c) / a, 0.0), 1.0)
    diff = (p1 + s * d1) - (p2 + t * d2)
    return float(np.dot(diff, diff))


def segment_pairs_dist_sq(p1: np.ndarray, q1: np.ndarray, p2: np.ndarray, q2: np.ndarray):
    """``segment_segment_dist_sq`` of segments p1->q1 against p2->q2, for
    arrays of endpoints (at least 2-d) that broadcast over their leading axes.

    Every branch of the scalar function is evaluated by the same float
    operations and each entry's own branch is selected, so each entry equals
    the scalar result bit for bit.
    """
    d1, d2 = q1 - p1, q2 - p2
    r = p1 - p2
    a, e = rowdot(d1, d1), rowdot(d2, d2)
    f, c, bdot = rowdot(d2, r), rowdot(d1, r), rowdot(d1, d2)

    def clamp(x):
        return np.minimum(np.maximum(x, 0.0), 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - bdot * bdot
        s = np.where(denom > 0.0, clamp((bdot * f - c * e) / denom), 0.0)
        t = (bdot * s + f) / e
        below, above = t < 0.0, t > 1.0
        s = np.where(below, clamp(-c / a), np.where(above, clamp((bdot - c) / a), s))
        t = np.where(below, 0.0, np.where(above, 1.0, t))
        diff = (p1 + s[..., None] * d1) - (p2 + t[..., None] * d2)
        if not (a.all() and e.all()):
            # a degenerate first segment is the point p1 against the second
            u = clamp(rowdot(r, d2) / e)[..., None]
            point1 = p1 - (p2 + u * d2)
            # a degenerate second segment is the point p2 against the first
            u = clamp(rowdot(p2 - p1, d1) / a)[..., None]
            point2 = p2 - (p1 + u * d1)
            flat1, flat2 = (a == 0.0)[..., None], (e == 0.0)[..., None]
            diff = np.where(flat1, np.where(flat2, r, point1), np.where(flat2, point2, diff))
    return rowdot(diff, diff)


# ---------------------------------------------------------------------------
# filtered ball kernel
#
# ``ball_segment_radical`` is the contract: it decides emptiness and orders
# endpoints exactly, given the float mid and rad of the quadratic.  The
# kernel below takes the same dots (``ball_segment_dots``) and the same mid
# and rad (``quadratic_roots``) for whole arrays, so its unclamped float ends
# mid -+ sqrt(rad) are the ``Radical.value()`` of the contract's ends bit for
# bit, and its rad has the sign of the contract's discriminant.  Per entry
# it reports a bound ``err`` on the distance between its clamped float ends
# and the radical ones, and a ``tight`` mask for entries whose own decisions
# (the sign of rad, lo <= 1 and 0 <= hi, which together decide whether the
# clamped interval is empty) fall within that bound.  Endpoints are
# compared in floats by ``filtered_nonneg``, which treats a comparison whose
# margin is within the sum of the two entries' ``err`` as undecided, and
# swept by ``filtered_sweep``; an undecided comparison or a tight entry sends
# its decision to the radical path, unless the sweep's failure rule below
# decides it, so a filtered result always equals the exact one (Shewchuk's
# filtered predicates, 1997).  These three functions and ``radicals_apart``,
# which orders two radicals by their float values, are the only places the
# tolerance policy lives.
#
# The bound.  With segment p->q, centre r, v = q-p and w = p-r, let
# T = (|w| + delta)/|v| + 1, which bounds |mid|, sqrt(rad) and the constants
# 0 and 1 the ends are compared against.  ``Radical.le`` orders two
# same-sign radicals only to about sqrt(3u)*T (u = eps/2; its last step
# squares a difference that cancels), and ``clamp01`` compares the ends
# with 0 and 1 by it, so err = BALL_TOL*T, a multiple of sqrt(eps), covers
# both with room to spare and is still far below any margin a generic input
# has.  A tight entry keeps its clamped float ends, and if its radical
# interval is nonempty, its ends lie within err of them.  A degenerate
# segment (v = 0) has NaN endpoints, which bound nothing.
#
# The sweep's failure rule.  Crossing k fails where its upper end lies below
# the reach, the running maximum of the lower ends.  If the float hi_k lies
# more than slack = err_k + max(err_0..err_k) below the float reach, then
# either some interval 0..k is radically empty, or every one is nonempty
# and, with j the crossing whose lo_j set the float reach, radical hi_k <=
# hi_k + err_k < lo_j - err_j <= radical lo_j: the radical sweep fails at k
# or before.  That holds whatever the crossings before k decided, tight or
# undecided ones included, and for a tight crossing k too, so a decisive
# failure is trusted wherever it lies.  A tight crossing never holds
# decisively, since its interval may be empty.  A NaN end never decides: its
# margin, and those of every later crossing, whose reach it makes NaN, are
# undecided.

BALL_TOL = 128.0 * math.sqrt(float(np.finfo(float).eps))


def radicals_apart(x, x_size, y, y_size):
    """Whether radical values x and y are far enough apart that ``Radical.le``
    orders them as their floats do; arrays broadcast.

    x and y are the float values a + sign*sqrt(b), and the sizes
    |a| + sqrt(b), of the two radicals.  The radical comparison errs only
    within about sqrt(3u) times the sizes (section comment), and
    BALL_TOL*(1 + sizes) is far above that.
    """
    return np.abs(x - y) > BALL_TOL * (1.0 + x_size + y_size)


# Entries per broadcast ``ball_intervals`` call that its batching callers
# aim for; bounds the memory of the kernel's temporaries.
BLOCK_ENTRIES = 1 << 16


class BallIntervals(NamedTuple):
    """Float ball intervals with their error bound; decisively empty is
    (+inf, -inf), and a tight entry keeps its clamped float ends."""

    lo: np.ndarray  # clamped lower ends, at least 0; NaN for a degenerate segment
    hi: np.ndarray  # clamped upper ends, at most 1
    err: np.ndarray  # bound on |float endpoint - radical endpoint|
    tight: np.ndarray  # emptiness undecided in floats: ask the radical path


def ball_intervals(
    starts: np.ndarray, ends: np.ndarray, centres: np.ndarray, delta: float
) -> BallIntervals:
    """{t in [0,1] : |p + t(q-p) - r| <= delta} for broadcast arrays of p, q, r.

    ``starts``, ``ends`` and ``centres`` broadcast over their leading axes
    and share the last (coordinate) axis; the result has the broadcast
    leading shape.  Entries that are not tight decide emptiness exactly as
    ``ball_segment_radical`` does; a tight entry's radical ends, if it has
    any, lie within ``err`` of its float ones (section comment).
    """
    with np.errstate(all="ignore"):
        aa, vw, ww = (np.asarray(x) for x in ball_segment_dots(starts, ends, centres))
        _, mid, rad = quadratic_roots(aa, 2.0 * vw, ww - delta * delta)
        root = np.sqrt(np.abs(rad))
        lo = mid - root
        hi = mid + root
        # The entry is nonempty iff rad >= 0, lo <= 1 and hi >= 0; the
        # smallest of the three margins (rad's as a signed root, so all are
        # in segment-parameter units) decides, and is undecided within err.
        # A degenerate segment (aa == 0) makes every margin NaN, and
        # overflow makes it infinite: both are tight.
        margin = np.fmin(np.copysign(root, rad), np.fmin(1.0 - lo, hi))
        err = BALL_TOL * (np.sqrt(ww) + delta) / np.sqrt(aa) + BALL_TOL
        size = np.abs(margin)
        tight = ~((size > err) & (size < np.inf))
        keep = tight | (margin >= 0.0)
    lo = np.where(keep, np.maximum(lo, 0.0), np.inf)
    hi = np.where(keep, np.minimum(hi, 1.0), -np.inf)
    return BallIntervals(lo, hi, err, tight)


def filtered_nonneg(margin: np.ndarray, slack: np.ndarray, tight: Optional[np.ndarray] = None):
    """(holds, undecided) for the float test ``margin >= 0`` with error ``slack``.

    ``holds`` marks entries where the test passes decisively, ``undecided``
    those within ``slack`` of zero or marked ``tight``; the rest fail.
    """
    undecided = np.abs(margin) <= slack
    if tight is not None:
        undecided |= tight
    return ~undecided & (margin >= 0.0), undecided


def filtered_sweep(balls: BallIntervals, axis: int = -1):
    """Monotone sweep across ball intervals along ``axis``, filtered.

    A path that crosses the intervals in order with a nondecreasing segment
    parameter exists iff the running maximum of the lower ends never passes
    an upper end (``freespace._sweep_crossings`` is the exact version).
    Returns cumulative masks (holds, undecided): ``holds[k]`` when crossings
    0..k all hold decisively; otherwise the sweep to k fails decisively if
    one of crossings 0..k does, even after an undecided one, and a tight
    crossing fails where its band lies below the reach (the section
    comment's failure rule); the sweep is ``undecided`` where none does.
    """
    margin = balls.hi - np.maximum.accumulate(balls.lo, axis=axis)
    slack = np.maximum.accumulate(balls.err, axis=axis) + balls.err
    # a tight crossing may fail, never hold; a NaN margin does neither
    failed = np.logical_or.accumulate(margin < -slack, axis=axis)
    holds = np.logical_and.accumulate((margin > slack) & ~balls.tight, axis=axis)
    return holds, ~(holds | failed)
