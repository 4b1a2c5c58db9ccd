"""Finite candidate set of subedges of a simplified curve.

Candidates arise from triples (edge, subcurve, subcurve): for every short
subcurve near an edge, the free space yields an optimal subsegment of that
edge; combining the start from one subcurve with the end from another gives
one candidate per triple.  Proximity is tested at radius 8*delta, the
working threshold of the cover search on the simplification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .freespace import ExtremalPair, extremal_points
from .geometry import PolyCurve, Segment, segment_segment_dist_sq
from .radicals import Radical

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


def _close_edge_pairs_brute(S: PolyCurve, radius: float) -> Set[Tuple[int, int]]:
    ne = S.num_edges
    rr = radius * radius
    out = set()
    edges = [S.edge(i) for i in range(1, ne + 1)]
    for a in range(ne):
        for b in range(a, ne):
            if segment_segment_dist_sq(edges[a], edges[b]) <= rr:
                out.add((a + 1, b + 1))
                out.add((b + 1, a + 1))
    return out


# Measured on random walks in d = 2..6 with 25 to 400 edges at radius 4
# (steps of 1 to 8): the grid scan was faster than the brute one up to about
# 4.4 neighbour lookups per ne^2, and slower from about 6.5 on, by a factor
# that keeps growing with d (4x at 27, 10x at 83).  Below the threshold the
# grid lost only on curves of 25 to 50 edges, by at most 1.4x.
_GRID_LOOKUPS_PER_PAIR = 4.0


def _close_edge_pairs_grid(S: PolyCurve, radius: float) -> Set[Tuple[int, int]]:
    """Same pair set as the brute scan, filtered through a uniform grid.

    Edges register every grid cell their bounding box overlaps (cell width
    twice the radius), so any pair within the radius shares adjacent cells;
    surviving pairs are confirmed with the exact segment distance.  Every
    registered cell looks up its 3^d neighbours, which grows exponentially
    with the dimension, so past ``_GRID_LOOKUPS_PER_PAIR`` lookups per ne^2
    the brute scan is used instead.
    """
    ne = S.num_edges
    rr = radius * radius
    cell = 2.0 * radius
    V = S.vertices
    lo_cell = np.floor(np.minimum(V[:-1], V[1:]) / cell)
    hi_cell = np.floor(np.maximum(V[:-1], V[1:]) / cell)
    lookups = 3.0**S.dim * np.prod(hi_cell - lo_cell + 1.0, axis=1).sum()
    if lookups > _GRID_LOOKUPS_PER_PAIR * ne * ne:
        return _close_edge_pairs_brute(S, radius)
    edges = [S.edge(i) for i in range(1, ne + 1)]
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for i, (lo_idx, hi_idx) in enumerate(zip(lo_cell.astype(int), hi_cell.astype(int)), start=1):
        ranges = [range(a, b + 1) for a, b in zip(lo_idx, hi_idx)]
        for key in itertools.product(*ranges):
            buckets.setdefault(key, []).append(i)
    neighbor_offsets = list(itertools.product(*[(-1, 0, 1)] * S.dim))
    out: Set[Tuple[int, int]] = set()
    for key, members in buckets.items():
        near: Set[int] = set()
        for off in neighbor_offsets:
            near.update(buckets.get(tuple(k + o for k, o in zip(key, off)), ()))
        for a in members:
            for b in near:
                if b < a or (a, b) in out:
                    continue
                if segment_segment_dist_sq(edges[a - 1], edges[b - 1]) <= rr:
                    out.add((a, b))
                    out.add((b, a))
    return out


def generating_triples(S: PolyCurve, delta: float, mode: str = "grid") -> Set[GeneratingTriple]:
    """Triples (edge, Y1, Y2) with both subcurves within 8*delta of the edge.

    Grid mode buckets edges spatially before the exact distance test and
    returns exactly the brute-force set.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if mode not in ("brute", "grid"):
        raise ValueError("mode must be 'brute' or 'grid'")
    radius = 8.0 * delta
    pairs = (
        _close_edge_pairs_brute(S, radius) if mode == "brute" else _close_edge_pairs_grid(S, radius)
    )
    close_subcurves = _close_subcurves_by_edge(S, pairs)
    out: Set[GeneratingTriple] = set()
    for e, ys in close_subcurves.items():
        for y1 in ys:
            for y2 in ys:
                out.add(GeneratingTriple(e, y1, y2))
    return out


def _close_subcurves_by_edge(
    S: PolyCurve, pairs: Set[Tuple[int, int]]
) -> Dict[int, List[GeneratingSubcurve]]:
    """Subcurves within reach of each edge: those containing a close edge."""
    close_by_edge: Dict[int, Set[int]] = {}
    for a, b in pairs:
        close_by_edge.setdefault(a, set()).add(b)
    out: Dict[int, List[GeneratingSubcurve]] = {}
    subcurves = generating_subcurves(S)
    for e in range(1, S.num_edges + 1):
        near = close_by_edge.get(e, set())
        out[e] = [y for y in subcurves if any(f in near for f in y.edge_range())]
    return out


@dataclass(frozen=True)
class _RadCandidate:
    edge_index: int
    alpha: Radical
    beta: Radical


def _dedup_radicals(vals: List[Radical]) -> List[Radical]:
    """Distinct radical values under exact comparison, ascending."""

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


def candidate_set(
    S: PolyCurve, delta: float, mode: str = "grid", triples: Optional[Set[GeneratingTriple]] = None
) -> List[Candidate]:
    """One candidate per generating triple: the start parameter comes from
    the first subcurve's optimal subsegment, the end from the second's.

    Because every pair of subcurves near an edge forms a triple, the
    deduplicated candidates of one edge are exactly the cross product of the
    distinct start parameters with the distinct end parameters; the default
    path builds that product without materializing the triples.  Duplicates
    are removed by exact comparison of the radical-form parameters; output
    is deterministically ordered.
    """
    radius = 8.0 * delta
    if triples is not None:
        return _candidate_set_from_triples(S, radius, triples)
    if delta <= 0:
        raise ValueError("delta must be positive")
    pairs = (
        _close_edge_pairs_brute(S, radius)
        if mode == "brute"
        else _close_edge_pairs_grid(S, radius)
    )
    close_subcurves = _close_subcurves_by_edge(S, pairs)
    out: List[Candidate] = []
    for e in range(1, S.num_edges + 1):
        s_vals: List[Radical] = []
        t_vals: List[Radical] = []
        for y in close_subcurves[e]:
            ep = _extremal_for(S, e, y, radius)
            if ep is None:
                continue
            s_vals.append(ep.s_rad)
            t_vals.append(ep.t_rad)
        for s in _dedup_radicals(s_vals):
            sv = s.value()
            for t in _dedup_radicals(t_vals):
                out.append(Candidate(e, sv, t.value()))
    return out


def _extremal_for(
    S: PolyCurve, edge: int, y: GeneratingSubcurve, radius: float
) -> Optional[ExtremalPair]:
    sub = PolyCurve(S.vertices[y.start_vertex - 1 : y.end_vertex])
    return extremal_points(sub, S.edge(edge), radius)


def _candidate_set_from_triples(
    S: PolyCurve, radius: float, triples: Set[GeneratingTriple]
) -> List[Candidate]:
    pair_cache: Dict[Tuple[int, GeneratingSubcurve], Optional[ExtremalPair]] = {}

    def extremal_cached(edge: int, y: GeneratingSubcurve) -> Optional[ExtremalPair]:
        key = (edge, y)
        if key not in pair_cache:
            pair_cache[key] = _extremal_for(S, edge, y, radius)
        return pair_cache[key]

    rad_cands: List[_RadCandidate] = []
    for tri in sorted(triples):
        p1 = extremal_cached(tri.edge, tri.y1)
        if p1 is None:
            continue
        p2 = extremal_cached(tri.edge, tri.y2)
        if p2 is None:
            continue
        rad_cands.append(_RadCandidate(tri.edge, p1.s_rad, p2.t_rad))

    def cmp(x: _RadCandidate, y: _RadCandidate) -> int:
        if x.edge_index != y.edge_index:
            return -1 if x.edge_index < y.edge_index else 1
        if not x.alpha.eq(y.alpha):
            return -1 if x.alpha.lt(y.alpha) else 1
        if not x.beta.eq(y.beta):
            return -1 if x.beta.lt(y.beta) else 1
        return 0

    rad_cands.sort(key=cmp_to_key(cmp))
    out: List[Candidate] = []
    prev: Optional[_RadCandidate] = None
    for rc in rad_cands:
        if prev is not None and cmp(prev, rc) == 0:
            continue
        out.append(Candidate(rc.edge_index, rc.alpha.value(), rc.beta.value()))
        prev = rc
    return out


def candidate_segments(S: PolyCurve, cands: Sequence[Candidate]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (starts, ends) for a list of candidates."""
    starts = np.empty((len(cands), S.dim))
    ends = np.empty((len(cands), S.dim))
    for k, c in enumerate(cands):
        e = S.edge(c.edge_index)
        starts[k] = e.at(c.alpha)
        ends[k] = e.at(c.beta)
    return starts, ends
