"""Brute-force reference implementations used by tests and acceptance runs.

Everything here favors transparency over speed: dense grids, exhaustive
subset enumeration, textbook reachability.  None of it reuses the decision
logic of the module it is meant to validate.  The exception to "transparency
over speed" is ``full_coverage``, which checks every CLI solve: it runs on
arrays, and its loop form is the tests' reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .freespace import decide_frechet_subcurve_segment
from .geometry import BLOCK_ENTRIES, EdgePoint, Interval, PolyCurve, Segment, rowdot


@dataclass(frozen=True)
class OracleBudget:
    grid_step: float = 1e-3
    max_subset_size: int = 20
    bisection_tol: float = 1e-7

    def __post_init__(self):
        if self.grid_step <= 0 or self.max_subset_size <= 0 or self.bisection_tol <= 0:
            raise ValueError("budget values must be positive")


# ---------------------------------------------------------------------------
# Frechet distance brackets


def frechet_value_bracket(
    P: PolyCurve, a: EdgePoint, b: EdgePoint, seg: Segment, tol: float
) -> Interval:
    """[lo, hi] with hi - lo <= tol bracketing d_F(P[a,b], seg).

    The decision is false at lo and true at hi (lo may be 0 when the
    distance itself is 0).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    hi = _upper_bound_subcurve(P, a, b, seg)
    if decide_frechet_subcurve_segment(P, a, b, seg, 0.0):
        return Interval(0.0, min(tol, hi))
    lo = 0.0
    hi = max(hi, tol)
    while not decide_frechet_subcurve_segment(P, a, b, seg, hi):
        hi *= 1.0 + 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if decide_frechet_subcurve_segment(P, a, b, seg, mid):
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi)


def _upper_bound_subcurve(P: PolyCurve, a: EdgePoint, b: EdgePoint, seg: Segment) -> float:
    pts = [P.edge_point_coords(a), P.edge_point_coords(b)]
    for v in range(a.edge_index + 1, b.edge_index + 1):
        pts.append(P.vertex(v))
    worst = 0.0
    for p in pts:
        worst = max(
            worst,
            float(np.linalg.norm(p - seg.start)),
            float(np.linalg.norm(p - seg.end)),
        )
    return worst


def _ball_lohi(s0: np.ndarray, s1: np.ndarray, c: np.ndarray, dd: float) -> Tuple[float, float]:
    """Clamped parameter interval of segment s0->s1 inside the squared-radius ball."""
    v = s1 - s0
    w = s0 - c
    aa = float(np.dot(v, v))
    if aa == 0.0:
        return (0.0, 1.0) if float(np.dot(w, w)) <= dd else (np.inf, -np.inf)
    bb = 2.0 * float(np.dot(v, w))
    cc = float(np.dot(w, w)) - dd
    disc = bb * bb - 4 * aa * cc
    if disc < 0:
        return (np.inf, -np.inf)
    root = disc**0.5
    lo = max((-bb - root) / (2 * aa), 0.0)
    hi = min((-bb + root) / (2 * aa), 1.0)
    return (lo, hi) if lo <= hi else (np.inf, -np.inf)


def curve_frechet_decision(P: PolyCurve, Q: PolyCurve, delta: float) -> bool:
    """Classic two-curve free-space reachability decision (oracle grade)."""
    if P.num_edges < 1 or Q.num_edges < 1:
        raise ValueError("curves need at least one edge each")
    dd = delta * delta
    PV, QV = P.vertices, Q.vertices
    d0 = PV[0] - QV[0]
    d1 = PV[-1] - QV[-1]
    if float(np.dot(d0, d0)) > dd or float(np.dot(d1, d1)) > dd:
        return False
    ne, me = P.num_edges, Q.num_edges

    INF = np.inf
    # reachable lower ends; +inf means empty (propagating .lo suffices because
    # reachable boundary sets are upward-closed within the free interval)
    rl = np.full((ne + 2, me + 2), INF)  # left boundary of cell (i, j)
    rb = np.full((ne + 2, me + 2), INF)  # bottom boundary of cell (i, j)
    lf_cache = {}
    bf_cache = {}

    def lfree(i: int, j: int) -> Tuple[float, float]:
        key = (i, j)
        got = lf_cache.get(key)
        if got is None:
            got = _ball_lohi(QV[j - 1], QV[j], PV[i - 1], dd)
            lf_cache[key] = got
        return got

    def bfree(i: int, j: int) -> Tuple[float, float]:
        key = (i, j)
        got = bf_cache.get(key)
        if got is None:
            got = _ball_lohi(PV[i - 1], PV[i], QV[j - 1], dd)
            bf_cache[key] = got
        return got

    l0 = lfree(1, 1)
    if l0[0] <= 0.0 <= l0[1]:
        rl[1, 1] = 0.0
    b0 = bfree(1, 1)
    if b0[0] <= 0.0 <= b0[1]:
        rb[1, 1] = 0.0
    for i in range(1, ne + 1):
        for j in range(1, me + 1):
            cl, cb = rl[i, j], rb[i, j]
            if cl == INF and cb == INF:
                continue
            if i == ne and j == me:
                return True
            flo, fhi = lfree(i + 1, j)
            if flo <= fhi:
                if cb < INF:
                    rl[i + 1, j] = min(rl[i + 1, j], flo)
                else:
                    lo = max(flo, cl)
                    if lo <= fhi:
                        rl[i + 1, j] = min(rl[i + 1, j], lo)
            flo, fhi = bfree(i, j + 1)
            if flo <= fhi:
                if cl < INF:
                    rb[i, j + 1] = min(rb[i, j + 1], flo)
                else:
                    lo = max(flo, cb)
                    if lo <= fhi:
                        rb[i, j + 1] = min(rb[i, j + 1], lo)
    return False


def curve_frechet_bracket(P: PolyCurve, Q: PolyCurve, tol: float) -> Interval:
    """[lo, hi] with hi - lo <= tol bracketing the two-curve Frechet distance."""
    pts = np.vstack([P.vertices, Q.vertices])
    hi = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)))
    if curve_frechet_decision(P, Q, 0.0):
        return Interval(0.0, min(tol, hi))
    lo = 0.0
    hi = max(hi, tol)
    while not curve_frechet_decision(P, Q, hi):
        hi *= 1.0 + 1e-9
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if curve_frechet_decision(P, Q, mid):
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# grid traversal search


def psi_contains_brute(
    P: PolyCurve,
    i: int,
    j: int,
    t: EdgePoint,
    seg: Segment,
    delta: float,
    nx: int = 160,
    ny: int = 160,
) -> bool:
    """Grid search for a monotone traversal witnessing window membership.

    Discretizes the joint parameter space of P[t_i, t_j] and seg and runs
    monotone reachability from admissible starts (on edge i, left of t) to
    admissible ends (on edge j-1, right of t).  Subject to grid resolution;
    assert with margins.
    """
    tau = P.edge_point_param(t)
    x_lo, x_hi = P.param(i), P.param(j)
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(0.0, 1.0, ny)
    p_pts = np.array([P.eval(x) for x in xs])
    q_pts = seg.start[None, :] + ys[:, None] * (seg.end - seg.start)[None, :]
    d2 = ((p_pts[:, None, :] - q_pts[None, :, :]) ** 2).sum(axis=2)
    free = d2 <= delta * delta + 1e-12

    start_ok = (xs >= x_lo - 1e-12) & (xs <= min(tau, P.param(min(i + 1, P.n))) + 1e-12)
    end_ok = (xs >= max(tau, P.param(j - 1)) - 1e-12) & (xs <= x_hi + 1e-12)

    reach = np.zeros_like(free)
    idx = np.arange(ny)
    for k in range(nx):
        row_free = free[k]
        entry = np.zeros(ny, dtype=bool)
        if k > 0:
            entry |= reach[k - 1]
            entry[1:] |= reach[k - 1][:-1]
        if start_ok[k]:
            entry[0] |= row_free[0]
        seeds = entry & row_free
        seed_pos = np.where(seeds, idx, ny + 1)
        first_seed = np.minimum.accumulate(seed_pos)
        last_block = np.maximum.accumulate(np.where(~row_free, idx, -1))
        reach[k] = row_free & (first_seed <= idx) & (first_seed > last_block)
    return bool(np.any(reach[end_ok][:, ny - 1]))


# ---------------------------------------------------------------------------
# coverage oracles

from .coverage import covers_unit  # noqa: E402


def full_coverage(P: PolyCurve, C: Sequence[Segment], delta: float) -> List[Interval]:
    """Union of coverage intervals over all edge windows 1 <= i <= j <= n-1.

    Unrestricted window spans; used to check end-to-end guarantees on the
    input curve.  A traversal of a centre that starts on edge i, in the
    centre's start ball, reaches edge j when a nondecreasing centre
    parameter crosses the vertical intervals at vertices i+1..j, and ends
    there when edge j meets the centre's end ball; the window (i, j) covers
    from its lowest start to its highest end.  Everything is computed in
    floats, for blocks of centres at once: the balls and vertical intervals
    in O(|C| n), and one sweep over the vertices per (centre, start edge)
    row whose start ball is nonempty.  Blocks hold about ``BLOCK_ENTRIES``
    (centre, edge) or (row, vertex) entries.
    """
    ne = P.num_edges
    if ne < 1 or not C:
        return []
    starts = np.array([q.start for q in C])
    ends = np.array([q.end for q in C])
    step = max(BLOCK_ENTRIES // ne, 1)
    windows = [
        _start_windows(P, starts[k : k + step], ends[k : k + step], delta * delta)
        for k in range(0, len(C), step)
    ]
    return _merged(*[np.concatenate(side) for side in zip(*windows)])


def _start_windows(P: PolyCurve, starts: np.ndarray, ends: np.ndarray, dd: float):
    """(lo, hi) arrays: per centre and start edge, the union of the windows
    starting there, for the centres that have one."""
    V = P.vertices
    ne = P.num_edges
    bot_ok, bot_lo, _ = _edge_balls(V, starts, dd)
    top_ok, _, top_hi = _edge_balls(V, ends, dd)
    c_lo, c_hi = _vertex_intervals(V[1:-1], starts, ends, dd)
    params = P.vertex_params
    widths = np.diff(params)
    lo_glob = params[:-1] + bot_lo * widths
    hi_glob = params[:-1] + top_hi * widths

    rows_c, rows_i = np.nonzero(bot_ok)
    best = np.empty(len(rows_c))
    vertex = np.arange(ne - 1)  # vertex k + 2, between edges k + 1 and k + 2
    step = max(BLOCK_ENTRIES // ne, 1)
    for lo in range(0, len(rows_c), step):
        c, i = rows_c[lo : lo + step], rows_i[lo : lo + step]
        ahead = vertex >= i[:, None]
        # running max of the vertical lower ends from vertex i + 1 on; a
        # row stays reachable while it never passes an upper end
        cur = np.fmax.accumulate(np.where(ahead, c_lo[c], 0.0), axis=1)
        reach = np.logical_and.accumulate(~ahead | ~(cur > c_hi[c]), axis=1)
        ends_ok = np.zeros((len(c), ne), dtype=bool)
        ends_ok[:, 1:] = reach & ahead
        ends_ok[np.arange(len(c)), i] = bot_lo[c, i] <= top_hi[c, i]
        ends_ok &= top_ok[c]
        ends_hi = np.where(ends_ok, hi_glob[c], -np.inf)
        best[lo : lo + step] = np.max(ends_hi, axis=1, initial=-np.inf)
    lo_row = lo_glob[rows_c, rows_i]
    keep = (best > -np.inf) & ~(lo_row > best)
    return lo_row[keep], best[keep]


def _edge_balls(V: np.ndarray, centres: np.ndarray, dd: float):
    """(ok, lo, hi), each (centres, edges): the clamped parameter interval of
    every edge of the vertex array V inside every centre's ball."""
    E0, E1 = V[:-1], V[1:]
    v = E1 - E0
    w = E0[None, :, :] - centres[:, None, :]
    aa = (v * v).sum(axis=-1)
    bb = 2.0 * (v * w).sum(axis=-1)
    cc = (w * w).sum(axis=-1) - dd
    disc = bb * bb - 4 * aa * cc
    safe = np.where(aa == 0, 1.0, aa)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.maximum((-bb - root) / (2 * safe), 0.0)
    hi = np.minimum((-bb + root) / (2 * safe), 1.0)
    degen = aa == 0
    inside = cc <= 0
    lo = np.where(degen, 0.0, lo)
    hi = np.where(degen, 1.0, hi)
    ok = np.where(degen, inside, (disc >= 0) & (lo <= hi))
    return ok, lo, hi


def _vertex_intervals(W: np.ndarray, starts: np.ndarray, ends: np.ndarray, dd: float):
    """(lo, hi), each (centres, vertices): the clamped parameter interval of
    every centre within reach of every vertex of W; empty is (inf, -inf)."""
    sv = ends - starts
    aa = rowdot(sv, sv)[:, None]
    w = W[None, :, :] - starts[:, None, :]
    ww = (w * w).sum(axis=-1)
    bb = -2.0 * (w * sv[:, None, :]).sum(axis=-1)
    cc = ww - dd
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = bb * bb - 4 * aa * cc
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.maximum((-bb - root) / (2 * aa), 0.0)
        hi = np.minimum((-bb + root) / (2 * aa), 1.0)
    bad = (disc < 0) | (lo > hi)
    point = aa == 0.0  # a point centre: its whole parameter range or nothing
    inside = ww <= dd
    lo = np.where(point, np.where(inside, 0.0, np.inf), np.where(bad, np.inf, lo))
    hi = np.where(point, np.where(inside, 1.0, -np.inf), np.where(bad, -np.inf, hi))
    return lo, hi


def _merged(lo: np.ndarray, hi: np.ndarray) -> List[Interval]:
    """``merge_intervals`` of nonempty intervals: a sort on (lo, hi), then a
    new interval wherever lo passes the running max of the earlier his."""
    if lo.size == 0:
        return []
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] > reach[:-1]]))
    last = np.concatenate([first[1:], [len(lo)]]) - 1
    return [Interval(a, b) for a, b in zip(lo[first].tolist(), reach[last].tolist())]


def min_cover_exhaustive(
    S: PolyCurve, B: Sequence, delta: float, budget: OracleBudget = OracleBudget()
) -> Optional[int]:
    """Smallest subset of B whose structured coverage is [0,1]; None if over budget."""
    from .coverage import candidate_coverage_intervals

    if len(B) > budget.max_subset_size:
        return None
    segs = [c.segment(S) if hasattr(c, "segment") else c for c in B]
    per = [candidate_coverage_intervals(S, s, delta) for s in segs]
    nonempty = [idx for idx, ivs in enumerate(per) if ivs]
    for size in range(1, len(nonempty) + 1):
        for combo in itertools.combinations(nonempty, size):
            pool: List[Interval] = []
            for idx in combo:
                pool.extend(per[idx])
            if covers_unit(pool):
                return size
    return None


def grid_feasibility(
    S: PolyCurve, t: EdgePoint, edge: int, delta: float, step: float
) -> List[Tuple[float, float]]:
    """All (alpha, beta) grid points whose subsegment of the edge covers t.

    Brute force through the window membership predicate; independent of the
    rectangle construction it validates.
    """
    from .coverage import window_set
    from .freespace import _t_in_window, psi_ij_contains

    if step <= 0:
        raise ValueError("step must be positive")
    e = S.edge(edge)
    vals = np.arange(0.0, 1.0 + step * 0.5, step)
    wins = [w for w in window_set(S, t) if _t_in_window(t, *w)]
    pts = e.start[None, :] + vals[:, None] * (e.end - e.start)[None, :]
    out = []
    for ai, a in enumerate(vals):
        for bi, b in enumerate(vals):
            q = Segment(pts[ai], pts[bi])
            if any(psi_ij_contains(S, i, j, t, q, delta) for (i, j) in wins):
                out.append((float(a), float(b)))
    return out
