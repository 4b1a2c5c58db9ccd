"""Square-root-free approximate intersection kernel.

Each operation returns an interval sandwiched between the exact
intersection at radius delta and the exact intersection at (1+eps)*delta.
Only comparisons of squared quantities and linear arithmetic are used; the
refinement bisects implicit points along the segment down to eps*delta
spacing, so nothing ever takes a square root.

This kernel is an alternative to the exact one in geometry.py; the solvers
and the free-space rows use the exact one only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Interval, Segment, as_point


@dataclass(frozen=True)
class SandwichInterval:
    inner_guarantee: float
    outer_guarantee: float
    interval: Interval

    def is_empty(self) -> bool:
        return self.interval.is_empty()


def halfspace_segment_intersection(normal: Sequence[float], offset: float, seg: Segment) -> Interval:
    """Parameter interval of the segment inside {x : <normal, x> <= offset}."""
    nvec = as_point(normal)
    if not np.any(nvec != 0.0):
        raise ValueError("normal must be nonzero")
    a0 = float(np.dot(nvec, seg.start))
    a1 = float(np.dot(nvec, seg.direction()))
    if a1 == 0.0:
        return Interval(0.0, 1.0) if a0 <= offset else Interval.empty()
    tstar = (offset - a0) / a1
    if a1 > 0:
        return Interval(0.0, min(tstar, 1.0)) if tstar >= 0 else Interval.empty()
    return Interval(max(tstar, 0.0), 1.0) if tstar <= 1 else Interval.empty()


def _dist_sq_at(p: np.ndarray, v: np.ndarray, r: np.ndarray, t: float) -> float:
    d = p + t * v - r
    return float(np.dot(d, d))


def _bisect_crossing(
    p: np.ndarray, v: np.ndarray, r: np.ndarray, dd: float, lo: float, hi: float, step_sq: float
) -> float:
    """lo with d(lo) > delta >= d(hi): shrink to eps*delta and return the
    outside endpoint (inner-sandwich safe)."""
    vv = float(np.dot(v, v))
    while (hi - lo) * (hi - lo) * vv > step_sq:
        mid = 0.5 * (lo + hi)
        if _dist_sq_at(p, v, r, mid) <= dd:
            hi = mid
        else:
            lo = mid
    return lo


def approx_ball_segment(p, q, r, delta: float, eps: float) -> SandwichInterval:
    """Interval containing the exact delta-ball intersection, contained in the
    (1+eps)*delta one.

    Clips by the coordinate box of radius (1+eps)*delta first, then bisects
    for each crossing of the squared-distance threshold.
    """
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    p, q, r = as_point(p), as_point(q), as_point(r)
    v = q - p
    outer = (1.0 + eps) * delta
    # coordinate-box clip: 2d halfspaces
    dom = Interval(0.0, 1.0)
    for k in range(len(p)):
        a0, a1 = p[k] - r[k], v[k]
        for sign in (1.0, -1.0):
            b0, b1 = sign * a0, sign * a1
            if b1 == 0.0:
                if b0 > outer:
                    return SandwichInterval(delta, outer, Interval.empty())
                continue
            tstar = (outer - b0) / b1
            if b1 > 0:
                dom = dom.intersect(Interval(-np.inf, tstar))
            else:
                dom = dom.intersect(Interval(tstar, np.inf))
            if dom.is_empty():
                return SandwichInterval(delta, outer, Interval.empty())
    dd = delta * delta
    vv = float(np.dot(v, v))
    if vv == 0.0:
        inside = _dist_sq_at(p, v, r, 0.0) <= dd
        return SandwichInterval(delta, outer, Interval(0.0, 1.0) if inside else Interval.empty())
    # closest parameter on the clipped domain (linear arithmetic only)
    tmin = float(np.dot(r - p, v)) / vv
    tmin = min(max(tmin, dom.lo), dom.hi)
    if _dist_sq_at(p, v, r, tmin) > dd:
        return SandwichInterval(delta, outer, Interval.empty())
    step_sq = (eps * delta) * (eps * delta)
    if _dist_sq_at(p, v, r, dom.lo) <= dd:
        lo = dom.lo
    else:
        lo = _bisect_crossing(p, v, r, dd, dom.lo, tmin, step_sq)
    if _dist_sq_at(p, v, r, dom.hi) <= dd:
        hi = dom.hi
    else:
        hi = _bisect_crossing_desc(p, v, r, dd, tmin, dom.hi, step_sq)
    return SandwichInterval(delta, outer, Interval(lo, hi))


def _bisect_crossing_desc(
    p: np.ndarray, v: np.ndarray, r: np.ndarray, dd: float, lo: float, hi: float, step_sq: float
) -> float:
    """hi with d(hi) > delta >= d(lo): mirrored bisection."""
    vv = float(np.dot(v, v))
    while (hi - lo) * (hi - lo) * vv > step_sq:
        mid = 0.5 * (lo + hi)
        if _dist_sq_at(p, v, r, mid) <= dd:
            lo = mid
        else:
            hi = mid
    return hi


def approx_capsule_segment(
    seg_st: Segment, seg_pq: Segment, delta: float, eps: float
) -> SandwichInterval:
    """Sandwich interval for the capsule around seg_st intersected with seg_pq.

    Builds an orthogonal (not normalized) basis with the first direction
    along seg_st, splits seg_pq into the three distance regimes and treats
    each with the ball construction; the hull of the pieces is returned.
    """
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    s, tt = seg_st.start, seg_st.end
    axis = tt - s
    aa = float(np.dot(axis, axis))
    if aa == 0.0:
        return approx_ball_segment(seg_pq.start, seg_pq.end, s, delta, eps)
    p, q = seg_pq.start, seg_pq.end
    v = q - p
    # regime coordinate: projection onto the axis, scaled to [0,1] over the capsule body
    u0 = float(np.dot(p - s, axis)) / aa
    u1 = float(np.dot(v, axis)) / aa
    outer = (1.0 + eps) * delta

    pieces = []

    def add_piece(iv: Interval):
        if not iv.is_empty():
            pieces.append(iv)

    def sub_params(lo: float, hi: float):
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        return (lo, hi) if lo <= hi else None

    if u1 == 0.0:
        regimes = [(0.0, 1.0, 0 if u0 < 0 else (2 if u0 > 1 else 1))]
    else:
        t_at0 = (0.0 - u0) / u1
        t_at1 = (1.0 - u0) / u1
        lo_t, hi_t = min(t_at0, t_at1), max(t_at0, t_at1)
        first = 0 if u1 > 0 else 2
        regimes = [(-np.inf, lo_t, first), (lo_t, hi_t, 1), (hi_t, np.inf, 2 - first)]
    for lo, hi, kind in regimes:
        rng = sub_params(lo, hi)
        if rng is None:
            continue
        a_pt = p + rng[0] * v
        b_pt = p + rng[1] * v
        if kind == 0:
            iv = approx_ball_segment(a_pt, b_pt, s, delta, eps).interval
        elif kind == 2:
            iv = approx_ball_segment(a_pt, b_pt, tt, delta, eps).interval
        else:
            # orthogonal-band regime: remove the axis component, ball around origin
            ap = a_pt - s
            bp = b_pt - s
            ap = ap - (float(np.dot(ap, axis)) / aa) * axis
            bp = bp - (float(np.dot(bp, axis)) / aa) * axis
            origin = np.zeros_like(ap)
            iv = approx_ball_segment(ap, bp, origin, delta, eps).interval
        if not iv.is_empty():
            # map back from the subsegment to seg_pq's parameter
            width = rng[1] - rng[0]
            add_piece(Interval(rng[0] + iv.lo * width, rng[0] + iv.hi * width))
    if not pieces:
        return SandwichInterval(delta, outer, Interval.empty())
    return SandwichInterval(
        delta, outer, Interval(min(pc.lo for pc in pieces), max(pc.hi for pc in pieces))
    )
