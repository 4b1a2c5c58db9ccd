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
They are decided a window per anchor: the stack loop asks each anchor about
targets in increasing order, so one kernel call answers a block of targets
at once (``ShortcutBlocks``), and the kernel's fixed cost is paid per block
rather than per shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .freespace import decide_frechet_subcurve_segment
from .geometry import (
    BLOCK_ENTRIES,
    EdgePoint,
    PolyCurve,
    Segment,
    ball_intervals,
    filtered_sweep,
)


@dataclass(frozen=True)
class Simplification:
    source: PolyCurve
    indices: tuple  # strictly increasing 1-based vertex indices of source
    curve: PolyCurve  # vertices at those indices, params rescaled to [0,1]


def _decide_between(P: PolyCurve, vi: int, vj: int, seg: Segment, delta: float) -> bool:
    """Frechet decision for the vertex-to-vertex subcurve P[t_vi, t_vj]."""
    a = EdgePoint(vi, 0.0) if vi < P.n else EdgePoint(P.n - 1, 1.0)
    b = EdgePoint(vj, 0.0) if vj < P.n else EdgePoint(P.n - 1, 1.0)
    return decide_frechet_subcurve_segment(P, a, b, seg, delta)


class _Block:
    """One anchor's answers for the targets first..first+len(holds)-1."""

    __slots__ = ("first", "holds", "undecided", "asked")

    def __init__(self, first: int, holds: list, undecided: list):
        self.first = first
        self.holds = holds
        self.undecided = undecided
        self.asked = 0  # targets of the block queried so far

    def next_width(self, i: int) -> int:
        """Width of the refill at target i: twice this one if the queries
        asked every target in turn and continue at i, else the number asked."""
        w = len(self.holds)
        return 2 * w if self.asked == w and i == self.first + w else self.asked


class ShortcutBlocks:
    """Shortcut decisions ``_decide_between(P, j, i, Segment(P_j, P_i), delta)``
    for one curve, filtered and computed a block of targets per anchor.

    For j < i the shortcut holds iff the segment's ball intervals around the
    skipped vertices j+1..i-1 admit a nondecreasing traversal.  A miss for
    (j, i) makes one ``ball_intervals`` call for the segments from P_j to the
    targets i..i+w-1 against the vertices j+1..i+w-2 and sweeps each row
    along the skipped axis; the sweep is cumulative, so target t reads its
    answer at column t-j-2 and the later columns need no mask.  A target
    whose sweep stops at a vertex the floats cannot decide goes to the exact
    path, so every answer equals the exact one.

    The first block of an anchor has ``FIRST_WIDTH`` targets.  A refill for
    the same anchor doubles the width while the stack loop asks every target
    of the previous block in turn, and otherwise takes as many targets as it
    asked: where the spacing filter drops vertices, as in a dense cloud, the
    loop skips targets, and long rows of unasked targets would be most of
    the work.  Every call stays within ``BLOCK_ENTRIES`` kernel entries, or
    is one target.
    """

    FIRST_WIDTH = 8

    def __init__(self, P: PolyCurve, delta: float):
        self.P = P
        self.delta = delta
        self._blocks: dict = {}  # anchor -> _Block

    def holds(self, j: int, i: int) -> bool:
        if i - j < 2:
            return True  # no vertex is skipped
        block = self._blocks.get(j)
        if block is None or not 0 <= i - block.first < len(block.holds):
            width = self.FIRST_WIDTH if block is None else block.next_width(i)
            block = self._blocks[j] = self._refill(j, i, width)
        block.asked += 1
        k = i - block.first
        if block.holds[k]:
            return True
        V = self.P.vertices
        return block.undecided[k] and _decide_between(
            self.P, j, i, Segment(V[j - 1], V[i - 1]), self.delta
        )

    def discard(self, j: int) -> None:
        """Forget anchor j's block; the stack loop calls it when j is popped."""
        self._blocks.pop(j, None)

    def _refill(self, j: int, i: int, width: int) -> _Block:
        V = self.P.vertices
        skipped = i - j - 2  # column of target i, one less than its skipped count
        fit = (math.isqrt(skipped * skipped + 4 * BLOCK_ENTRIES) - skipped) // 2
        w = max(min(width, fit, self.P.n - i + 1), 1)
        balls = ball_intervals(V[j - 1], V[i - 1 : i - 1 + w, None], V[j : i + w - 2], self.delta)
        holds, undecided = filtered_sweep(balls)
        # row k is target i+k, whose answer is at column k+skipped
        return _Block(i, holds.diagonal(skipped).tolist(), undecided.diagonal(skipped).tolist())


def shortcut_holds(P: PolyCurve, j: int, i: int, delta: float) -> bool:
    """``_decide_between(P, j, i, Segment(P_j, P_i), delta)``, filtered."""
    return ShortcutBlocks(P, delta).holds(j, i)


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
    shortcuts = ShortcutBlocks(P, thresh)
    stack: List[int] = [1]
    for i in range(2, n + 1):
        while len(stack) >= 2 and shortcuts.holds(stack[-2], i):
            shortcuts.discard(stack.pop())
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
