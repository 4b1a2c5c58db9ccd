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

import numpy as np

from .geometry import Interval, as_point


@dataclass(frozen=True)
class SandwichInterval:
    inner_guarantee: float
    outer_guarantee: float
    interval: Interval

    def is_empty(self) -> bool:
        return self.interval.is_empty()


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
