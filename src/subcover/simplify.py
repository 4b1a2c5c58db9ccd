"""Vertex-subset curve simplification with locally maximal shortcuts.

A simplification at tolerance delta keeps a subset of the input vertices
such that (i) kept vertices are at least delta/3 apart, (ii) every shortcut
edge stays within Frechet distance 3*delta of the subcurve it replaces,
(iii) dropped prefix/suffix vertices stay within 3*delta of the boundary
kept vertex, and (iv) no kept vertex can be skipped without the error
growing past 2*delta.

Shortcut decisions are filtered predicates (see ``geometry.ball_intervals``):
they are decided in floats when every comparison clears its proven error
bound, and by the radical-exact ``decide_frechet_subcurve_segment`` when one
does not, so the kept indices are exactly those of the all-exact algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .freespace import decide_frechet_subcurve_segment
from .geometry import EdgePoint, PolyCurve, Segment, ball_intervals, filtered_sweep


@dataclass(frozen=True)
class Simplification:
    source: PolyCurve
    indices: tuple  # strictly increasing 1-based vertex indices of source
    curve: PolyCurve  # vertices at those indices, params rescaled to [0,1]

    def container(self, s: float, t: float) -> tuple:
        """Smallest kept-vertex index pair whose parameter span encloses [s, t].

        Returned in source vertex indices.
        """
        if s > t:
            s, t = t, s
        params = self.source.vertex_params
        lo = self.indices[0]
        for i in self.indices:
            if params[i - 1] <= s:
                lo = i
            else:
                break
        hi = self.indices[-1]
        for i in reversed(self.indices):
            if params[i - 1] >= t:
                hi = i
            else:
                break
        return (lo, hi)


def _decide_between(P: PolyCurve, vi: int, vj: int, seg: Segment, delta: float) -> bool:
    """Frechet decision for the vertex-to-vertex subcurve P[t_vi, t_vj]."""
    a = EdgePoint(vi, 0.0) if vi < P.n else EdgePoint(P.n - 1, 1.0)
    b = EdgePoint(vj, 0.0) if vj < P.n else EdgePoint(P.n - 1, 1.0)
    return decide_frechet_subcurve_segment(P, a, b, seg, delta)


def shortcut_holds(P: PolyCurve, j: int, i: int, delta: float) -> bool:
    """``_decide_between(P, j, i, Segment(P_j, P_i), delta)``, filtered.

    For j < i the shortcut holds iff the segment's ball intervals around the
    skipped vertices j+1..i-1 admit a nondecreasing traversal.  One
    ``ball_intervals`` call and one ``filtered_sweep`` decide that in
    floats; the exact path runs only when the sweep stops at a vertex the
    floats cannot decide, so the answer always equals the exact one.
    """
    if i - j < 2:
        return True  # no vertex is skipped
    V = P.vertices
    holds, undecided = filtered_sweep(ball_intervals(V[j - 1], V[i - 1], V[j : i - 1], delta))
    if holds[-1]:
        return True
    return bool(undecided[-1]) and _decide_between(P, j, i, Segment(V[j - 1], V[i - 1]), delta)


def simplify_curve(P: PolyCurve, delta: float) -> Simplification:
    """Stack-based simplification; shortcut decisions at threshold 2*delta.

    While the next-to-top kept vertex j admits a shortcut to the incoming
    vertex i (distance decision at 2*delta), the top is popped; i is then
    kept only if it clears the delta/3 spacing filter.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = P.n
    if n <= 2:
        return _make_simplification(P, list(range(1, n + 1)))
    thresh = 2.0 * delta
    min_gap_sq = (delta / 3.0) ** 2
    V = P.vertices
    stack: List[int] = [1]
    for i in range(2, n + 1):
        while len(stack) >= 2 and shortcut_holds(P, stack[-2], i, thresh):
            stack.pop()
        gap = V[i - 1] - V[stack[-1] - 1]
        if float(np.dot(gap, gap)) >= min_gap_sq:
            stack.append(i)
    return _make_simplification(P, stack)


def _make_simplification(P: PolyCurve, indices: List[int]) -> Simplification:
    verts = P.vertices[[i - 1 for i in indices]]
    if len(indices) == 1:
        curve = PolyCurve(verts, np.zeros(1))
    else:
        params = P.vertex_params[[i - 1 for i in indices]]
        span = params[-1] - params[0]
        curve = PolyCurve(verts, (params - params[0]) / span)
    return Simplification(P, tuple(indices), curve)


def verify_delta_good(s: Simplification, delta: float) -> List[str]:
    """Check the four simplification properties; returns violation strings."""
    P, idx = s.source, s.indices
    report: List[str] = []
    k = len(idx)
    min_gap = delta / 3.0
    for a in range(k - 1):
        va, vb = idx[a], idx[a + 1]
        if float(np.linalg.norm(P.vertex(vb) - P.vertex(va))) < min_gap:
            report.append(f"(i) vertices {va},{vb} closer than delta/3")
        if not _decide_between(P, va, vb, Segment(P.vertex(va), P.vertex(vb)), 3.0 * delta):
            report.append(f"(ii) shortcut {va}->{vb} exceeds 3*delta")
    first, last = idx[0], idx[-1]
    if first > 1:
        pt = P.vertex(first)
        if not _decide_between(P, 1, first, Segment(pt, pt), 3.0 * delta):
            report.append("(iii) prefix strays beyond 3*delta of the first kept vertex")
    if last < P.n:
        pt = P.vertex(last)
        if not _decide_between(P, last, P.n, Segment(pt, pt), 3.0 * delta):
            report.append("(iii) suffix strays beyond 3*delta of the last kept vertex")
    for a in range(k - 2):
        va, vc = idx[a], idx[a + 2]
        if _decide_between(P, va, vc, Segment(P.vertex(va), P.vertex(vc)), 2.0 * delta):
            report.append(f"(iv) vertex {idx[a + 1]} could be skipped within 2*delta")
    return report
