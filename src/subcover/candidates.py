"""Finite candidate set of subedges of a simplified curve.

Candidates arise from triples (edge, subcurve, subcurve): for every short
subcurve near an edge, the free space yields an optimal subsegment of that
edge; combining the start from one subcurve with the end from another gives
one candidate per triple.  Proximity is tested at radius 8*delta, the
working threshold of the cover search on the simplification.

``candidate_set`` computes what the subcurves read once per curve, as
arrays (``_CurveTables``): the segment distance of every pair of edges,
which picks the close subcurves of each edge, and the dot products of the
ball predicate of each (edge, vertex) pair and of the capsule predicate of
each ordered (edge, edge) pair that a close subcurve reads.  Only the float
steps of the radical predicates (``*_from_dots``), which decide emptiness
and order, run per pair.  The output is bitwise that of one
``freespace.extremal_points`` call per close subcurve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .freespace import _slice_endpoint
from .geometry import (
    BALL_TOL,
    BLOCK_ENTRIES,
    PolyCurve,
    RadInterval,
    Segment,
    ball_segment_dots,
    ball_segment_radical_from_dots,
    capsule_segment_dots,
    capsule_segment_radical_from_dots,
    segment_pairs_dist_sq,
)
from .radicals import Radical, rad_max, rad_min

MAX_SUBCURVE_SPAN = 4  # vertices forward from the start vertex


@dataclass(frozen=True, order=True)
class GeneratingSubcurve:
    start_vertex: int
    end_vertex: int

    def edge_range(self) -> range:
        return range(self.start_vertex, self.end_vertex)


@dataclass(frozen=True, order=True)
class GeneratingTriple:
    edge: int
    y1: GeneratingSubcurve
    y2: GeneratingSubcurve


@dataclass(frozen=True)
class Candidate:
    """Subsegment of a simplification edge; beta < alpha means reversed."""

    edge_index: int
    alpha: float
    beta: float

    def segment(self, S: PolyCurve) -> Segment:
        e = S.edge(self.edge_index)
        return Segment(e.at(self.alpha), e.at(self.beta))


def generating_subcurves(S: PolyCurve) -> List[GeneratingSubcurve]:
    """All vertex-index pairs (i, i+j) with 1 <= j <= 4; O(m) of them."""
    m = S.n
    if m < 2:
        raise ValueError("curve must have at least two vertices")
    out = []
    for i in range(1, m):
        for j in range(1, MAX_SUBCURVE_SPAN + 1):
            if i + j <= m:
                out.append(GeneratingSubcurve(i, i + j))
    return out


def close_edge_pairs(S: PolyCurve, radius: float) -> np.ndarray:
    """(ne, ne) mask of the edge pairs within the radius of each other.

    Pair (a, b), a <= b, is decided by the distance of edge a against edge b
    (``segment_pairs_dist_sq``), and the mask is symmetric.  Rows are
    computed in blocks of about ``BLOCK_ENTRIES`` pairs.
    """
    V = S.vertices
    E0, E1 = V[:-1], V[1:]
    ne = S.num_edges
    close = np.zeros((ne, ne), dtype=bool)
    step = max(BLOCK_ENTRIES // max(ne, 1), 1)
    for lo in range(0, ne, step):
        rows = slice(lo, lo + step)
        dist = segment_pairs_dist_sq(E0[rows, None], E1[rows, None], E0[None], E1[None])
        close[rows] = dist <= radius * radius
    close = np.triu(close)
    return close | close.T


def _close_subcurves(first: np.ndarray, last: np.ndarray, close: np.ndarray) -> np.ndarray:
    """(ne, subcurves) mask: the subcurve with 0-based vertices first..last
    contains an edge close to the edge."""
    # count[e, k]: edges among the first k that are close to edge e
    count = np.zeros((close.shape[0], close.shape[1] + 1), dtype=np.int64)
    np.cumsum(close, axis=1, out=count[:, 1:])
    return count[:, last] > count[:, first]


def _subcurve_vertices(subcurves: Sequence[GeneratingSubcurve]) -> Tuple[np.ndarray, np.ndarray]:
    """0-based (first, last) vertex arrays of the subcurves."""
    first = np.array([y.start_vertex - 1 for y in subcurves], dtype=np.int64)
    return first, np.array([y.end_vertex - 1 for y in subcurves], dtype=np.int64)


def generating_triples(S: PolyCurve, delta: float) -> Set[GeneratingTriple]:
    """Triples (edge, Y1, Y2) with both subcurves within 8*delta of the edge."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    subcurves = generating_subcurves(S)
    near = _close_subcurves(*_subcurve_vertices(subcurves), close_edge_pairs(S, 8.0 * delta))
    out: Set[GeneratingTriple] = set()
    for e in range(1, S.num_edges + 1):
        ys = [subcurves[k] for k in np.flatnonzero(near[e - 1])]
        for y1 in ys:
            for y2 in ys:
                out.add(GeneratingTriple(e, y1, y2))
    return out


def _sorted_distinct(vals: List[Radical]) -> List[Radical]:
    """Distinct radical values under exact comparison, ascending, by a sort
    on the comparator.  ``Radical.le`` is not transitive at near-ties (three
    values can have Y = Z and X = Y but Z < X), so the result depends on the
    whole list and its order, and only this function defines it."""

    def cmp(x: Radical, y: Radical) -> int:
        if x.eq(y):
            return 0
        return -1 if x.lt(y) else 1

    vals = sorted(vals, key=cmp_to_key(cmp))
    out: List[Radical] = []
    for v in vals:
        if not out or not out[-1].eq(v):
            out.append(v)
    return out


def _dedup_radicals(vals: List[Radical]) -> List[Radical]:
    """``_sorted_distinct``, filtered: a sort on the float values.

    Values are sorted by (float value, input index).  Distinct float values
    further apart than BALL_TOL*(1 + |a| + sqrt(b) + |a'| + sqrt(b')), taken
    over the radicals that round to them and well above the radical
    comparison's own error, are ordered as the comparator orders them.
    Radicals that round to the same float merge when all of them are ``eq``
    to each other, into the first by input index, as the stable comparator
    sort merges them.  Anything else (closer distinct values, or a run that
    is not pairwise ``eq``) sends the whole list to ``_sorted_distinct``.
    """
    x = [v.value() for v in vals]
    runs: List[list] = []  # [float value, largest |a| + sqrt(b), members]
    for k in sorted(range(len(vals)), key=x.__getitem__):
        v = vals[k]
        size = abs(v.a) + math.sqrt(v.b)
        if runs and runs[-1][0] == x[k]:
            runs[-1][1] = max(runs[-1][1], size)
            runs[-1][2].append(v)
        else:
            runs.append([x[k], size, [v]])
    out: List[Radical] = []
    for k, (value, size, members) in enumerate(runs):
        if k and value - runs[k - 1][0] <= BALL_TOL * (1.0 + runs[k - 1][1] + size):
            return _sorted_distinct(vals)
        # eq depends only on (a, b, sign), and holds between equal forms
        forms = list({(v.a, v.b, v.sign): v for v in members}.values())
        for i in range(1, len(forms)):
            if not all(forms[i].eq(u) for u in forms[:i]):
                return _sorted_distinct(vals)
        out.append(members[0])
    return out


def candidate_set(S: PolyCurve, delta: float) -> List[Candidate]:
    """One candidate per generating triple: the start parameter comes from
    the first subcurve's optimal subsegment, the end from the second's.

    Because every pair of subcurves near an edge forms a triple, the
    deduplicated candidates of one edge are exactly the cross product of the
    distinct start parameters with the distinct end parameters.  That
    product is built without materializing the triples, and each subcurve's
    (s, t) is read from per-curve tables (``_CurveTables``) instead of one
    ``extremal_points`` call per subcurve.  Duplicates are removed by exact
    comparison of the radical-form parameters (``_dedup_radicals``); output
    is deterministically ordered: by edge, then start, then end.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    tables = _CurveTables(S, 8.0 * delta)
    out: List[Candidate] = []
    for e, pairs in enumerate(tables.extremal_pairs(), start=1):
        s_vals = [s for s, _ in pairs]
        t_vals = [t for _, t in pairs]
        t_out = [t.value() for t in _dedup_radicals(t_vals)]
        for s in _dedup_radicals(s_vals):
            sv = s.value()
            out.extend(Candidate(e, sv, tv) for tv in t_out)
    return out


class _CurveTables:
    """The free-space predicates that the close subcurves of every edge read.

    ``extremal_points`` of a subcurve Y against an edge reads, per inner
    vertex of Y, the edge's ball interval against it, and per edge of Y its
    capsule interval, with the two slice endpoints of the first and last
    nonempty ones.  Their dot products are computed for all the pairs the
    close subcurves read in one batched call each; the float step of each
    predicate runs at most once per pair, when a subcurve first reads it.
    """

    def __init__(self, S: PolyCurve, radius: float):
        V = S.vertices
        self.E0, self.E1 = V[:-1], V[1:]
        self.ne = S.num_edges
        self.radius = float(radius)
        self.first, self.last = _subcurve_vertices(generating_subcurves(S))
        self.near = _close_subcurves(self.first, self.last, close_edge_pairs(S, radius))
        # cells[e, c]: edge c lies on a close subcurve of edge e.  This covers
        # the single-cell test's swapped pair too, since close is symmetric.
        bounds = np.zeros((self.ne, self.ne + 1), dtype=np.int64)
        rows, ks = np.nonzero(self.near)
        np.add.at(bounds, (rows, self.first[ks]), 1)
        np.add.at(bounds, (rows, self.last[ks]), -1)
        cells = np.cumsum(bounds, axis=1)[:, :-1] > 0
        a, c = np.nonzero(cells)
        edges = (self.E0[a], self.E1[a], self.E0[c], self.E1[c])
        self._caps = _pair_table(capsule_segment_dots, edges, a, c)
        # vertex v + 1 is inner to a close subcurve when edges v and v + 1 both are on it
        e, v = np.nonzero(cells[:, :-1] & cells[:, 1:])
        self._balls = _pair_table(ball_segment_dots, (self.E0[e], self.E1[e], V[v + 1]), e, v + 1)
        self._cap_iv: Dict[Tuple[int, int], RadInterval] = {}
        self._ball_iv: Dict[Tuple[int, int], RadInterval] = {}

    def capsule(self, a: int, c: int) -> RadInterval:
        """Parameters of edge c within the radius of edge a (0-based)."""
        iv = self._cap_iv.get((a, c))
        if iv is None:
            iv = capsule_segment_radical_from_dots(self._caps[a, c], self.radius)
            self._cap_iv[a, c] = iv
        return iv

    def vertical(self, e: int, v: int) -> RadInterval:
        """Parameters of edge e within the radius of vertex v (0-based)."""
        iv = self._ball_iv.get((e, v))
        if iv is None:
            iv = ball_segment_radical_from_dots(*self._balls[e, v], self.radius)
            self._ball_iv[e, v] = iv
        return iv

    def _free_ends(self, e: int, first: int, last: int) -> Optional[Tuple[int, int]]:
        """First and last cells of the subcurve's vertices first..last
        (0-based) whose capsule about edge e is nonempty; None when the
        subcurve is not well defined or every cell is empty."""
        for v in range(first + 1, last):
            if self.vertical(e, v).empty:
                return None
        if last - first == 1 and self.capsule(first, e).empty:
            return None
        cells = range(first, last)
        lo = next((c for c in cells if not self.capsule(e, c).empty), None)
        if lo is None:
            return None
        return lo, next(c for c in reversed(cells) if not self.capsule(e, c).empty)

    def _slice_ends(self, wanted: Dict[tuple, None]) -> Dict[tuple, Radical]:
        """``_slice_endpoint`` of edge e against cell c's capsule end, lower
        end for want_lo, for every (e, c, want_lo) key, in one batch."""
        keys = list(wanted)
        if not keys:
            return {}
        es = np.array([k[0] for k in keys])
        cs = np.array([k[1] for k in keys])
        t = np.array([self._cap_iv[e, c].lo.value() if lo else self._cap_iv[e, c].hi.value()
                      for e, c, lo in keys])
        # Segment.at of cell c at t, for all keys at once
        points = (1.0 - t)[:, None] * self.E0[cs] + t[:, None] * self.E1[cs]
        dots = np.stack(ball_segment_dots(self.E0[es], self.E1[es], points), axis=1).tolist()
        out = {}
        for k, (e, c, lo) in enumerate(keys):
            iv = ball_segment_radical_from_dots(*dots[k], self.radius)
            if iv.empty:  # tangency fallback, which needs the geometry
                seg = Segment._unchecked(self.E0[e], self.E1[e])
                out[e, c, lo] = _slice_endpoint(seg, points[k], self.radius, lo, iv)
            else:
                out[e, c, lo] = iv.lo if lo else iv.hi
        return out

    def extremal_pairs(self) -> List[List[Tuple[Radical, Radical]]]:
        """Per edge, the (s_rad, t_rad) of ``extremal_points`` of each close
        subcurve in ``generating_subcurves`` order, skipping those without."""
        found = []
        wanted: Dict[tuple, None] = {}  # (e, c, want_lo), in first-seen order
        firsts, lasts = self.first.tolist(), self.last.tolist()
        rows, ks = np.nonzero(self.near)
        for e, k in zip(rows.tolist(), ks.tolist()):
            ends = self._free_ends(e, firsts[k], lasts[k])
            if ends is not None:
                found.append((e, firsts[k], lasts[k], ends))
                wanted[e, ends[0], True] = None
                wanted[e, ends[1], False] = None
        slices = self._slice_ends(wanted)
        out: List[List[Tuple[Radical, Radical]]] = [[] for _ in range(self.ne)]
        for e, first, last, (lo, hi) in found:
            inner = [self.vertical(e, v) for v in range(first + 1, last)]
            s = rad_min(slices[e, lo, True], *[iv.hi for iv in inner])
            t = rad_max(slices[e, hi, False], *[iv.lo for iv in inner])
            out[e].append((s, t))
        return out


def _pair_table(dots_fn, args, rows: np.ndarray, cols: np.ndarray) -> Dict[Tuple[int, int], list]:
    """{(row, col): dots} of a ``*_dots`` function over gathered pairs, in
    blocks of ``BLOCK_ENTRIES`` pairs."""
    table: Dict[Tuple[int, int], list] = {}
    keys = list(zip(rows.tolist(), cols.tolist()))
    for lo in range(0, len(keys), BLOCK_ENTRIES):
        block = slice(lo, lo + BLOCK_ENTRIES)
        dots = np.stack(dots_fn(*[x[block] for x in args]), axis=1).tolist()
        table.update(zip(keys[block], dots))
    return table


def candidate_segments(S: PolyCurve, cands: Sequence[Candidate]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (starts, ends) for a list of candidates, by the
    arithmetic of ``Segment.at`` on each candidate's edge."""
    n = len(cands)
    e = np.fromiter((c.edge_index for c in cands), dtype=np.int64, count=n)
    alpha = np.fromiter((c.alpha for c in cands), dtype=float, count=n)[:, None]
    beta = np.fromiter((c.beta for c in cands), dtype=float, count=n)[:, None]
    V0, V1 = S.vertices[e - 1], S.vertices[e]
    return (1.0 - alpha) * V0 + alpha * V1, (1.0 - beta) * V0 + beta * V1
