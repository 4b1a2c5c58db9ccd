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

Most calls are one per kept vertex.  A new anchor's first block is as wide
as the run of the anchor below it, and carries a witness column: the
anchor's own ball against the segments from the vertex below it.  Every
shortcut from that vertex past the anchor skips the anchor, so where the
ball is decisively empty the answer is a decisive "no", and the anchor
below needs no block of its own along the new anchor's run.  The stack
loop takes such decided steps in runs.  The sweep behind every block fails
a crossing decisively wherever its float upper end lies more than the
error bound below the float reach, after tight or undecided crossings too
(``geometry.filtered_sweep``), so the exact path runs only where floats
cannot decide.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np

from .freespace import decide_frechet_subcurve_segment
from .geometry import (
    BLOCK_ENTRIES,
    EdgePoint,
    PolyCurve,
    Segment,
    ball_intervals,
    filtered_sweep,
    rowdot,
)


class Simplification(NamedTuple):
    source: PolyCurve
    indices: tuple  # strictly increasing 1-based vertex indices of source
    curve: PolyCurve  # vertices at those indices, params rescaled to [0,1]


def _decide_between(P: PolyCurve, vi: int, vj: int, seg: Segment, delta: float) -> bool:
    """Frechet decision for the vertex-to-vertex subcurve P[t_vi, t_vj]."""
    a = EdgePoint(vi, 0.0) if vi < P.n else EdgePoint(P.n - 1, 1.0)
    b = EdgePoint(vj, 0.0) if vj < P.n else EdgePoint(P.n - 1, 1.0)
    return decide_frechet_subcurve_segment(P, a, b, seg, delta)


class _Block:
    """One anchor's answers for the targets first..first+len(holds)-1, and its
    witness rows: ``missed[k]`` where the anchor's ball decisively misses the
    segment from the vertex below it to target first+k."""

    __slots__ = ("first", "below", "holds", "undecided", "missed", "asked", "spaced")

    def __init__(self, first: int, below, holds: list, undecided: list, missed: list):
        self.first = first
        self.below = below
        self.holds = holds
        self.undecided = undecided
        self.missed = missed
        self.asked = 0  # rows of the block read so far
        self.spaced = None  # per row, the spacing test of ShortcutBlocks._run, made on first use

    def next_width(self, i: int) -> int:
        """Width of the refill at target i: twice this one if the queries
        read every row and continue at i, else the number of rows read."""
        w = len(self.holds)
        return 2 * w if self.asked >= w and i == self.first + w else min(self.asked, w)


class ShortcutBlocks:
    """Shortcut decisions ``_decide_between(P, j, i, Segment(P_j, P_i), delta)``
    for one curve, filtered and computed a block of targets per anchor.

    For j < i the shortcut holds iff the segment's ball intervals around the
    skipped vertices j+1..i-1 admit a nondecreasing traversal.  A miss for
    (j, i) makes one ``ball_intervals`` call for the segments from P_j to the
    targets i..i+w-1 against the vertices j+1..i+w-2 and sweeps each row
    along the skipped axis; the sweep is cumulative, so target t reads its
    answer at column t-j-2 and the later columns need no mask.  A target
    whose sweep does not decide goes to the exact path, so every answer
    equals the exact one.

    The witness rule.  A query may name ``below``, a vertex under j (the
    stack loop names the one under j on its stack).  The same call then
    carries one more column, after the swept ones, which no diagonal
    reaches: the ball at P_j against the segments from P_below to the same
    targets.  Every shortcut from below to a target t > j skips j, and its
    sweep must cross the ball at P_j, so where that ball is decisively
    empty the shortcut (below, t) fails, and the query for it is answered
    "no" from this block without a refill of below's own.  "Decisively
    empty" is the kernel's emptiness test outside its error bound, where
    it agrees with ``ball_segment_radical``, so the "no" is the exact
    answer.  The column is added where the anchor below ran more than
    ``FIRST_WIDTH // 2`` targets: after short runs, as on a random walk,
    the anchor below seldom outlives its own block, and the column would
    cost more than it saves.

    Widths.  An anchor's first block is as wide as the run of the anchor
    below it, j - below targets, plus a quarter (``FIRST_WIDTH`` at least):
    consecutive sides of a route have similar lengths, so one call usually
    answers the anchor's whole run.  A refill doubles the width while the
    queries read every row of the previous block in turn, and otherwise
    takes as many rows as they read: where the spacing filter drops
    vertices, as in a dense cloud, the loop skips targets, and long rows of
    unasked targets would be most of the work.  A refill for a vertex that a
    witness block answers stops at that block's next decisive "no".  An
    anchor whose own anchor below is seen to skip it at its first target
    most likely will not last, and gets ``FIRST_WIDTH``.  Every call stays
    within ``BLOCK_ENTRIES`` kernel entries, the witness column included, or
    is one target.
    """

    FIRST_WIDTH = 8

    def __init__(self, P: PolyCurve, delta: float):
        self.P = P
        self._V = P.vertices
        self.delta = delta
        self._blocks: dict = {}  # anchor -> _Block
        self._above: dict = {}  # vertex -> the latest block whose witness is against it

    def holds(self, j: int, i: int, below=None) -> bool:
        """Whether the shortcut (j, i) holds; ``below``, a vertex under j,
        gives a refill of j's block its witness column."""
        if i - j < 2:
            return True  # no vertex is skipped
        block = self._blocks.get(j)
        if block is None or not 0 <= i - block.first < len(block.holds):
            block = self._block(j, i, block, below)
            if block is None:
                return False
        block.asked += 1
        k = i - block.first
        return block.holds[k] or block.undecided[k] and self._exact(j, i)

    def _exact(self, j: int, i: int) -> bool:
        V = self.P.vertices
        return _decide_between(self.P, j, i, Segment(V[j - 1], V[i - 1]), self.delta)

    def _block(self, j: int, i: int, block, below):
        """j's block refilled for target i, where ``block``, j's current one,
        has no row for it; or None where a witness answers (j, i) "no"."""
        if block is not None:
            width = block.next_width(i)
        else:
            own = self._blocks.get(below)
            k = -1 if own is None else i - own.first
            if below is None or 0 <= k < len(own.holds) and own.holds[k]:
                # the bottom, or an anchor that the one below it is seen to
                # skip at i, which most likely will not last
                width = self.FIRST_WIDTH
            else:
                width = max(self.FIRST_WIDTH, (j - below) * 5 // 4)
        above = self._above.get(j)
        k = -1 if above is None else i - above.first
        if 0 <= k < len(above.holds):
            if above.missed[k]:
                above.asked += 1
                return None
            try:  # stop at the witness block's next decisive "no"
                width = min(width, above.missed.index(True, k) - k)
            except ValueError:
                pass
        return self._refill(j, i, width, below)

    def discard(self, j: int) -> None:
        """Forget anchor j's block; the stack loop calls it when j is popped."""
        block = self._blocks.pop(j, None)
        if block is not None and block.below is not None and self._above.get(block.below) is block:
            del self._above[block.below]

    def stack_loop(self, min_gap_sq: float) -> List[int]:
        """``simplify_curve``'s loop over the targets 2..n; returns the stack.

        A step at target i pops the top while the vertex under it admits a
        shortcut to i, then pushes i if it clears the spacing test against
        the new top.  Runs of steps that one block decides are taken in one
        go: with a on the stack, b under it and a's block with its witness
        against b, at a target t where a vertex lies above a and the
        shortcut (a, t) holds decisively, the step pops that vertex; then it
        asks (b, t), which the witness answers "no", or asks nothing if a is
        the bottom; then it pushes t iff t clears the spacing test against a.
        Without a vertex above a the step only asks (b, t).  So after each
        such step the stack is [..., b, a] or [..., b, a, t].  a is the top
        (a vertex above it was popped without a push) or the one under the
        top; the vertex under a, which its blocks' witnesses are against,
        stays fixed while a is on the stack.
        """
        V, blocks, n = self._V, self._blocks, len(self._V)
        stack = [1]
        i = 2
        while i <= n:
            block = blocks.get(stack[-1])
            if block is not None:  # the top's block, from when it was the anchor
                k = i - block.first
                if 0 <= k < len(block.holds) and block.missed[k]:
                    i += self._run(stack, block, k, False, min_gap_sq)
                    continue
            if len(stack) > 1:
                j = stack[-2]
                block = blocks.get(j)
                if block is None or not 0 <= i - block.first < len(block.holds):
                    block = self._block(j, i, block, stack[-3] if len(stack) > 2 else None)
                if block is not None:
                    k = i - block.first
                    if block.holds[k] and block.missed[k]:
                        i += self._run(stack, block, k, True, min_gap_sq)
                        continue
                    block.asked += 1
                    if block.holds[k] or block.undecided[k] and self._exact(j, i):
                        self.discard(stack.pop())
                        while len(stack) > 1 and self.holds(stack[-2], i, stack[-3] if len(stack) > 2 else None):
                            self.discard(stack.pop())
            gap = V[i - 1] - V[stack[-1] - 1]
            if float(np.dot(gap, gap)) >= min_gap_sq:
                stack.append(i)
            i += 1
        return stack

    def _run(self, stack: List[int], block: _Block, k: int, top: bool, min_gap_sq: float) -> int:
        """``stack_loop``'s run from row k of the anchor's block on; ``top`` when a
        vertex lies above the anchor."""
        holds, missed, spaced = block.holds, block.missed, block.spaced
        w = len(holds)
        if spaced is None:
            # the spacing test against the anchor for every row, bitwise np.dot's
            V = self.P.vertices
            gap = V[block.first - 1 : block.first - 1 + w] - V[stack[-1 - top] - 1]
            spaced = block.spaced = (rowdot(gap, gap) >= min_gap_sq).tolist()
        # the step at row e has a vertex above the anchor iff target first+e-1 was pushed
        e = k + 1
        while e < w and missed[e] and (holds[e] or not spaced[e - 1]):
            e += 1
        if top:
            self.discard(stack.pop())
        if spaced[e - 1]:
            stack.append(block.first + e - 1)
        # rows read: all of them where a witness answers below, else
        # those of the steps that asked (anchor, t), with a vertex above it
        block.asked += e - k if block.below is not None else top + sum(spaced[k : e - 1])
        return e - k

    def _refill(self, j: int, i: int, width: int, below) -> _Block:
        V = self._V
        skipped = i - j - 2  # column of target i, one less than its skipped count
        cols = skipped + (below is not None)
        fit = (math.isqrt(cols * cols + 4 * BLOCK_ENTRIES) - cols) // 2
        w = max(min(width, fit, len(V) - i + 1), 1)
        ends = V[i - 1 : i - 1 + w, None]
        # a witness where the anchor below ran long (the witness rule)
        witness = below is not None and j - below > self.FIRST_WIDTH // 2
        if not witness:
            balls = ball_intervals(V[j - 1], ends, V[j : i + w - 2], self.delta)
            missed = [below is None] * w  # with no vertex below j, nothing to ask
        else:
            # the last column is the witness, P_j against the segments from
            # P_below; no diagonal reaches it, and the sweep is cumulative
            starts = np.empty((skipped + w + 1, V.shape[1]))
            starts[:-1] = V[j - 1]
            starts[-1] = V[below - 1]
            centres = np.concatenate((V[j : i + w - 2], V[j - 1 : j]))
            balls = ball_intervals(starts, ends, centres, self.delta)
            missed = (balls.lo[:, -1] == np.inf).tolist()  # decisively empty
        holds, undecided = filtered_sweep(balls)
        # row k is target i+k, whose answer is at column k+skipped
        block = _Block(i, below, holds.diagonal(skipped).tolist(), undecided.diagonal(skipped).tolist(), missed)
        if witness:
            self._above[below] = block
        self._blocks[j] = block
        return block


def shortcut_holds(P: PolyCurve, j: int, i: int, delta: float) -> bool:
    """``_decide_between(P, j, i, Segment(P_j, P_i), delta)``, filtered."""
    return ShortcutBlocks(P, delta).holds(j, i)


def simplify_curve(P: PolyCurve, delta: float) -> Simplification:
    """Stack-based simplification; shortcut decisions at threshold 2*delta.

    While the next-to-top kept vertex j admits a shortcut to the incoming
    vertex i (distance decision at 2*delta), the top is popped; i is then
    kept only if it clears the delta/3 spacing filter.  Runs of steps that
    one block decides are taken at once (``ShortcutBlocks.stack_loop``).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = P.n
    if n <= 2:
        return _make_simplification(P, list(range(1, n + 1)))
    thresh = 2.0 * delta
    min_gap_sq = (delta / 3.0) ** 2
    stack = ShortcutBlocks(P, thresh).stack_loop(min_gap_sq)
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
