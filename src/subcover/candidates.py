"""Finite candidate set of subedges of a simplified curve.

Candidates arise from triples (edge, subcurve, subcurve): for every short
subcurve near an edge, the free space yields an optimal subsegment of that
edge; combining the start from one subcurve with the end from another gives
one candidate per triple.  Proximity is tested at radius 8*delta, the
working threshold of the cover search on the simplification.

``candidate_set`` decides what the close subcurves read in array passes over
the curve's gathered pairs (``_CurveTables``): the capsule interval of each
(edge, cell) pair, the vertical interval of each (edge, inner vertex) pair
and the slice at each chosen cell end.  Radical endpoints are kept as forms
(a, b, sign), and the float steps of ``capsule_segment_radical_from_dots``
and ``ball_segment_radical_from_dots`` run elementwise.  Emptiness and
clamping against 0, 1 and the capsule's regime bounds replay the branches of
``Radical.le`` they take (``_clip``, ``_le_pos``), so they need no
tolerance.  Two radicals (the hull of the capsule pieces, s = min and t = max
of a subcurve, the order within an edge's list) are ordered by their floats
where ``geometry.radicals_apart`` separates them, and tie where their forms
are identical.  Entries left undecided run the scalar code, as do a point
edge, a capsule of one regime and non-finite values.  The output is bitwise
that of one ``freespace.extremal_points`` call per close subcurve and
``_dedup_radicals`` per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import List, NamedTuple, Sequence, Set, Tuple

import numpy as np

from .geometry import (
    BLOCK_ENTRIES,
    PolyCurve,
    RadInterval,
    Segment,
    ball_segment_dots,
    ball_segment_radical_from_dots,
    capsule_segment_dots,
    capsule_segment_radical_from_dots,
    radicals_apart,
    rowdot,
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
    if S.n < 2:
        raise ValueError("curve must have at least two vertices")
    first, last = _subcurve_vertices(S.n)
    return [GeneratingSubcurve(i + 1, j + 1) for i, j in zip(first.tolist(), last.tolist())]


def _subcurve_vertices(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """0-based (first, last) vertices of the generating subcurves of a curve
    of m vertices, by first vertex, then length."""
    first = np.repeat(np.arange(m - 1), MAX_SUBCURVE_SPAN)
    last = (np.arange(m - 1)[:, None] + np.arange(1, MAX_SUBCURVE_SPAN + 1)).ravel()
    keep = last < m
    return first[keep], last[keep]


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


def generating_triples(S: PolyCurve, delta: float) -> Set[GeneratingTriple]:
    """Triples (edge, Y1, Y2) with both subcurves within 8*delta of the edge."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    subcurves = generating_subcurves(S)
    near = _close_subcurves(*_subcurve_vertices(S.n), close_edge_pairs(S, 8.0 * delta))
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


def _total_preorder(vals: List[Radical]) -> bool:
    """Whether ``Radical.le`` is total and transitive on the values."""
    forms = list({(v.a, v.b, v.sign): v for v in vals}.values())
    le = np.array([[x.le(y) for y in forms] for x in forms])
    chained = (le.astype(np.int64) @ le.astype(np.int64)) > 0
    return bool((le | le.T).all() and not (chained & ~le).any())


def _dedup_radicals(vals: List[Radical]) -> List[Radical]:
    """``_sorted_distinct``, filtered: a sort on the float values.

    Values are sorted by (float value, input index) and cut into clusters:
    runs of one float value, chained while ``radicals_apart`` does not
    separate neighbouring runs.  Across clusters the comparator orders as
    the floats do.  A cluster of one run whose radicals are all ``eq``
    merges into its first by input index, as the stable comparator sort
    merges it.  Any other cluster on which ``Radical.le`` is a total
    preorder is sorted alone, since the comparator sort of the whole list is
    then the concatenation of the clusters' sorts.  Only a cluster where it
    is not (``le`` is not transitive at near-ties) sends the whole list to
    ``_sorted_distinct``.
    """
    x = [v.value() for v in vals]
    runs: List[list] = []  # [float value, largest |a| + sqrt(b), members (index, radical)]
    for k in sorted(range(len(vals)), key=x.__getitem__):
        v = vals[k]
        size = abs(v.a) + math.sqrt(v.b)
        if runs and runs[-1][0] == x[k]:
            runs[-1][1] = max(runs[-1][1], size)
            runs[-1][2].append((k, v))
        else:
            runs.append([x[k], size, [(k, v)]])
    clusters: List[list] = []
    for k, run in enumerate(runs):
        if k and not radicals_apart(run[0], run[1], runs[k - 1][0], runs[k - 1][1]):
            clusters[-1].append(run)
        else:
            clusters.append([run])
    out: List[Radical] = []
    for cluster in clusters:
        members = [v for _, v in cluster[0][2]]
        # eq depends only on (a, b, sign), and holds between equal forms
        forms = list({(v.a, v.b, v.sign): v for v in members}.values())
        if len(cluster) == 1 and all(f.eq(u) for i, f in enumerate(forms) for u in forms[:i]):
            out.append(members[0])
            continue
        members = [v for _, v in sorted(m for run in cluster for m in run[2])]  # input order
        if not _total_preorder(members):
            return _sorted_distinct(vals)
        out.extend(_sorted_distinct(members))
    return out


def candidate_set(S: PolyCurve, delta: float) -> List[Candidate]:
    """One candidate per generating triple: the start parameter comes from
    the first subcurve's optimal subsegment, the end from the second's.

    Because every pair of subcurves near an edge forms a triple, the
    deduplicated candidates of one edge are exactly the cross product of the
    distinct start parameters with the distinct end parameters.  That
    product is built without materializing the triples, from each close
    subcurve's (s, t) in ``_CurveTables``.  Duplicates are removed by exact
    comparison of the radical-form parameters (``_distinct``); output is
    deterministically ordered: by edge, then start, then end.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    edge, _, s, t = _CurveTables(S, 8.0 * delta).extremal_forms()
    # the distinct starts (group 2e) and ends (group 2e + 1) of every edge
    group = np.concatenate([2 * edge, 2 * edge + 1])
    group, value = _distinct(group, np.concatenate([s, t], axis=1))
    start = group % 2 == 0
    s_edge, alpha, beta = group[start] // 2, value[start], value[~start]
    # every start of an edge with every end of the same edge, ends innermost
    ends = np.bincount(group[~start] // 2, minlength=S.num_edges)
    reps = ends[s_edge]
    e = np.repeat(s_edge, reps)
    offset = np.arange(e.size) - np.repeat(np.cumsum(reps) - reps, reps)
    beta = beta[(np.cumsum(ends) - ends)[e] + offset]
    return [
        Candidate(k, a, b)
        for k, a, b in zip((e + 1).tolist(), np.repeat(alpha, reps).tolist(), beta.tolist())
    ]


def _values(forms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Float values a + sign*sqrt(b), as ``Radical.value``, and sizes
    |a| + sqrt(b) of radical forms (a, b, sign) stacked on the first axis."""
    root = np.sqrt(forms[1])
    return forms[0] + forms[2] * root, np.abs(forms[0]) + root


def _radicals(forms: np.ndarray) -> List[Radical]:
    """``Radical`` objects of forms (3, N)."""
    return [Radical(*f) for f in forms.T.tolist()]


def _distinct(group: np.ndarray, forms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The values of ``_dedup_radicals`` of each group's radicals, given as
    forms (3, N) in order: (group, value) arrays, by group, then value.

    One stable lexsort by (group, float value) gives every group's sorted
    list.  Runs of one value merge into their first where their forms are
    identical; a group with a run of different forms, or with neighbouring
    values that ``radicals_apart`` does not separate, takes
    ``_dedup_radicals``.
    """
    x, size = _values(forms)
    order = np.lexsort((x, group))
    g, x, size, f = group[order], x[order], size[order], forms[:, order]
    same = g[1:] == g[:-1]
    run = same & (x[1:] == x[:-1])
    differ = (f[:, 1:] != f[:, :-1]).any(axis=0)
    unsure = same & np.where(run, differ, ~radicals_apart(x[1:], size[1:], x[:-1], size[:-1]))
    keep = np.ones(g.size, dtype=bool)
    keep[1:] = ~run
    if not unsure.any():
        return g[keep], x[keep]
    scalar = np.unique(g[1:][unsure])
    keep &= ~np.isin(g, scalar)
    g_out, x_out = [g[keep]], [x[keep]]
    for k in scalar.tolist():
        vals = [v.value() for v in _dedup_radicals(_radicals(forms[:, group == k]))]
        g_out.append(np.full(len(vals), k))
        x_out.append(np.array(vals))
    g, x = np.concatenate(g_out), np.concatenate(x_out)
    order = np.argsort(g, kind="stable")
    return g[order], x[order]


class RadIntervals(NamedTuple):
    """Radical intervals as arrays: the forms (a, b, sign) of their ends,
    stacked on the first axis, and where they are nonempty."""

    lo: np.ndarray  # (3, N)
    hi: np.ndarray  # (3, N)
    ok: np.ndarray  # (N,)

    def put(self, i: int, iv: RadInterval) -> None:
        """Set entry i to a scalar result."""
        self.ok[i] = not iv.empty
        if not iv.empty:
            self.lo[:, i] = iv.lo.a, iv.lo.b, iv.lo.sign
            self.hi[:, i] = iv.hi.a, iv.hi.b, iv.hi.sign


# Radical forms as arrays.  Forms (a, b, sign) are stacked on the first axis.
# Every lower end below is a - sqrt(b) or exact (b = 0): a root, or a
# constant that clipping or the linear branch put there; every upper end has
# sign +1.  So only a few branches of ``Radical.le`` are ever taken, and each
# function runs their float operations entry by entry: for finite forms every
# decision equals the scalar one.


def _exact(x) -> np.ndarray:
    """Forms of ``Radical.exact`` of each entry of x."""
    out = np.zeros((3,) + np.shape(x))
    out[0], out[2] = x, 1.0
    return out


_ZERO, _ONE = _exact([0.0]), _exact([1.0])


def _le_pos(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``Radical.le`` of lower ends x against upper ends y: ``_le_mixed``
    where x has sign -1, else ``cmp_radical(x.a, 0.0, y.a, y.b)``."""
    w = y[0] - x[0]
    z = w * w - x[1] - y[1]
    return (w >= 0) | (z <= 0) | ((x[2] < 0) & (z * z <= 4 * x[1] * y[1]))


def _clip(lo: np.ndarray, hi: np.ndarray, x0: np.ndarray, x1: np.ndarray):
    """``rad_max(lo, x0)`` and ``rad_min(hi, x1)`` of forms, where x0 and x1
    are exact (``_exact``) and hi has sign +1."""
    # x0.le(lo): the branch against lo = a - sqrt(b), else cmp_radical
    w = lo[0] - x0[0]
    z = w * w - lo[1]
    keep = np.where(lo[2] < 0, (w >= 0) & (z >= 0), (w >= 0) | (z <= 0))
    lo = np.where(keep, lo, x0)
    # hi.le(x1): cmp_radical(hi.a, hi.b, x1.a, 0.0)
    w = x1[0] - hi[0]
    z = w * w - hi[1]
    flat = hi[1] <= 0
    keep = np.where(w >= 0, flat | (z >= 0) | (z * z <= 0), flat & (z <= 0))
    return lo, np.where(keep, hi, x1)


def _quadratic(aa, bb, cc):
    """``_quadratic_sublevel``'s float steps where 4*aa*aa is nonzero: where
    the discriminant is negative, and the forms of the two roots."""
    disc = bb * bb - 4.0 * aa * cc
    low = np.empty((3,) + disc.shape)
    low[0] = -bb / (2.0 * aa)
    low[1] = disc / (4.0 * aa * aa)
    high = low.copy()
    low[2], high[2] = -1.0, 1.0
    return disc < 0.0, low, high


def _fold(forms: np.ndarray, x: np.ndarray, size: np.ndarray, valid: np.ndarray):
    """``rad_min`` over the valid rows of radical forms (3, R, N), per
    column, from their float values x and sizes (R, N); ``rad_max`` when x
    holds the negated values.  Returns the forms picked, and the columns
    where the separation rule leaves some row undecided against the pick.

    A row apart from the least value, or with the same form as the first row
    that has it, gets the scalar fold's answer against it whatever the rows
    before it decided, so the fold's result is that first row.
    """
    cols = np.arange(x.shape[1])
    best = np.where(valid, x, np.inf).argmin(axis=0)
    pick = forms[:, best, cols]
    apart = radicals_apart(x, size, x[best, cols], size[best, cols])
    same = (forms == pick[:, None]).all(axis=0)
    return pick, (valid & ~apart & ~same).any(axis=0)


@np.errstate(all="ignore")  # entries a branch does not take may overflow or divide by 0
def _ball_table(p, q, r, delta: float) -> RadIntervals:
    """``ball_segment_radical`` of segments p->q against centres r, per row."""
    aa, vw, ww = ball_segment_dots(p, q, r)
    empty, lo, hi = _quadratic(aa, 2.0 * vw, ww - delta * delta)
    # RadInterval(lo, hi).clamp01(); the roots of one quadratic are in order
    lo, hi = _clip(lo, hi, _ZERO, _ONE)
    out = RadIntervals(lo, hi, ~empty & _le_pos(lo, hi))
    for i in np.flatnonzero((4.0 * aa * aa == 0.0) | ~np.isfinite(lo[0] + lo[1])).tolist():
        out.put(i, ball_segment_radical_from_dots(float(aa[i]), float(vw[i]), float(ww[i]), delta))
    return out


@np.errstate(all="ignore")
def _capsule_table(a, b, p, q, delta: float) -> RadIntervals:
    """``capsule_segment_radical`` of segments p->q about segments a->b, per row."""
    dots = capsule_segment_dots(a, b, p, q)
    ww, pa_w, v_w, vv, v_pa, pa_pa, v_pb, pb_pb, c1c1, c0c1, c0c0 = dots
    dd = delta * delta
    n = ww.shape[0]
    u0, u1 = pa_w / ww, v_w / ww
    t_at0, t_at1 = (0.0 - u0) / u1, (1.0 - u0) / u1
    # the regimes are (-inf, lo_t), (lo_t, hi_t) and (hi_t, inf), clipped as
    # max(lo, 0.0) and min(hi, 1.0) clip them
    t = np.empty((4, n))
    t[0], t[3] = -np.inf, np.inf
    t[1] = np.where(t_at1 < t_at0, t_at1, t_at0)  # min(t_at0, t_at1)
    t[2] = np.where(t_at1 > t_at0, t_at1, t_at0)  # max(t_at0, t_at1)
    r0, r1 = np.where(0.0 > t[:3], 0.0, t[:3]), np.where(1.0 < t[1:], 1.0, t[1:])
    used = r0 <= r1
    # in t order: the distance to the endpoint the projection leaves first,
    # to the band, to the other endpoint
    up = u1 > 0.0
    aa, bb, cc = np.empty((3, 3, n))
    aa[0], aa[1], aa[2] = vv, c1c1, vv
    bb[0], bb[1], bb[2] = np.where(up, v_pa, v_pb), c0c1, np.where(up, v_pb, v_pa)
    bb *= 2.0
    cc[0], cc[1], cc[2] = np.where(up, pa_pa, pb_pb), c0c0, np.where(up, pb_pb, pa_pa)
    cc -= dd
    empty, low, high = _quadratic(aa, bb, cc)
    # the linear branch: a half-line from t0 = -cc/bb, everything or nothing;
    # RadInterval rejects it only for |t0| past 1e300, left to the scalar code
    flat = 4.0 * aa * aa == 0.0
    t0 = -cc / bb
    low[0] = np.where(flat, np.where(bb < 0.0, t0, -1e300), low[0])
    high[0] = np.where(flat, np.where(bb > 0.0, t0, 1e300), high[0])
    low[1] = high[1] = np.where(flat, 0.0, low[1])
    low[2] = np.where(flat, 1.0, -1.0)
    empty = np.where(flat, (bb == 0.0) & ~(cc <= 0.0), empty)
    # each piece: rad_max(low, r0), rad_min(high, r1)
    lo, hi = _clip(low, high, _exact(r0), _exact(r1))
    piece = used & ~empty & _le_pos(lo, hi)
    # their hull: rad_min of the lower ends, rad_max of the upper ends.  The
    # pieces lie in [r0, r1] within [0, 1], so clamp01 keeps the hull's ends
    # and its test is RadInterval's, lo.le(hi)
    ends = np.concatenate([lo, hi], axis=2)
    x, size = _values(ends)
    x[:, n:] *= -1.0
    hull, unsure = _fold(ends, x, size, np.concatenate([piece, piece], axis=1))
    lo, hi = hull[:, :n], hull[:, n:]
    out = RadIntervals(lo, hi, piece.any(axis=0) & _le_pos(lo, hi))
    # a point (ww = 0) makes u0 and u1 non-finite, and u1 = 0 is one regime
    lost = flat & (bb != 0.0) & (np.abs(t0) > 1e300)
    scalar = ~np.isfinite(u0 + u1 + (low[0] + low[1] + high[0]).sum(axis=0)) | (u1 == 0.0)
    scalar |= unsure[:n] | unsure[n:] | lost.any(axis=0)
    for i in scalar.nonzero()[0].tolist():
        out.put(i, capsule_segment_radical_from_dots([float(d[i]) for d in dots], delta))
    return out


def _blocks(table, args, radius: float) -> RadIntervals:
    """``table`` over the rows of args, in blocks of ``BLOCK_ENTRIES`` rows."""
    n = args[0].shape[0]
    parts = [
        table(*(x[lo : lo + BLOCK_ENTRIES] for x in args), radius)
        for lo in range(0, max(n, 1), BLOCK_ENTRIES)
    ]
    if len(parts) == 1:
        return parts[0]
    return RadIntervals(*(np.concatenate(z, axis=-1) for z in zip(*parts)))


def _gather(keys: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys in [0, size), ascending, and where each key is among them."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return seen.nonzero()[0], (np.cumsum(seen) - 1)[keys]


class _CurveTables:
    """The free-space predicates that the close subcurves of every edge read,
    as arrays, and the (s, t) of ``extremal_points`` they give.

    Pair p is edge ``edge[p]`` (0-based) against subcurve ``sub[p]`` of
    ``generating_subcurves``, with 0-based vertices first..last: its cells
    are the edges first..last-1 and its inner vertices first+1..last-1.
    ``caps`` holds the capsule interval of every (edge, cell) pair read, in
    the order of ``cap_pairs``, and ``verts`` the vertical of every (edge,
    inner vertex) pair, in the order of ``vert_pairs``.  ``slices`` holds the
    ball interval of each pair's edge against ``slice_points``: the lowest
    point of the pair's first free cell, then the highest of its last (cells
    ``slice_cells``); it is read only where the pair is ``live``, with a free
    cell and, for one cell alone, that cell's swapped capsule nonempty.
    """

    def __init__(self, S: PolyCurve, radius: float):
        V = S.vertices
        E0, E1 = V[:-1], V[1:]
        ne, nv = S.num_edges, S.n
        first, last = _subcurve_vertices(nv)
        near = _close_subcurves(first, last, close_edge_pairs(S, radius))
        self.edge, self.sub = np.nonzero(near)
        e, f = self.edge, first[self.sub]
        l = last[self.sub]
        cell = f[:, None] + np.arange(MAX_SUBCURVE_SPAN)
        has = cell < l[:, None]  # (pairs, cells)
        # capsules about the edge, and the swapped pair of a cell alone
        single = l - f == 1
        keys = (e[:, None] * ne + cell)[has]
        found, at = _gather(np.concatenate([keys, f[single] * ne + e[single]]), ne * ne)
        self.cap_pairs = np.divmod(found, ne)
        a, c = self.cap_pairs
        self.caps = _blocks(_capsule_table, (E0[a], E1[a], E0[c], E1[c]), radius)
        cap_of = np.zeros(has.shape, dtype=np.intp)
        cap_of[has] = at[: keys.size]
        free = has & self.caps.ok[cap_of]
        self.live = free.any(axis=1)
        self.live[single] &= self.caps.ok[at[keys.size :]]
        # Segment.at of the first free cell at its capsule's lower end, and
        # of the last at its upper end.  A pair without a free cell reads an
        # empty capsule and cells 0 and 3, perhaps past the curve; its slices
        # are never read, so they are taken at a valid point.
        lo_j = free.argmax(axis=1)
        hi_j = MAX_SUBCURVE_SPAN - 1 - free[:, ::-1].argmax(axis=1)
        rows = np.arange(e.size)
        lo, hi = self.caps.lo[:, cap_of[rows, lo_j]], self.caps.hi[:, cap_of[rows, hi_j]]
        ends = np.concatenate([lo, hi], axis=1)
        with np.errstate(invalid="ignore"):
            t = np.where(np.concatenate([self.live, self.live]), _values(ends)[0], 0.0)
        self.slice_cells = cs = np.minimum(np.concatenate([f + lo_j, f + hi_j]), ne - 1)
        self.slice_points = (1.0 - t)[:, None] * E0[cs] + t[:, None] * E1[cs]
        # one kernel call for the verticals and the slices
        self._inner = has[:, 1:]
        keys = (e[:, None] * nv + cell[:, 1:])[self._inner]
        found, at = _gather(keys, ne * nv)
        self.vert_pairs = np.divmod(found, nv)
        ve, vv = self.vert_pairs
        eb = np.concatenate([ve, e, e])
        centres = np.concatenate([V[vv], self.slice_points])
        balls = _blocks(_ball_table, (E0[eb], E1[eb], centres), radius)
        self.verts = RadIntervals(*(x[..., : ve.size] for x in balls))
        self.slices = RadIntervals(*(x[..., ve.size :] for x in balls))
        # each pair's verticals; -1, past the last, where it has fewer
        self._vert_of = np.full(self._inner.shape, -1, dtype=np.intp)
        self._vert_of[self._inner] = at
        self._edges = E0, E1

    def extremal_forms(self):
        """(edge, sub, s, t) of the pairs whose subcurve has extremal points,
        in pair order, with s and t the forms (3, N) of ``extremal_points``'
        ``s_rad`` and ``t_rad``."""
        E0, E1 = self._edges
        n = self.edge.size
        # well defined: live, and every inner vertical nonempty; a vertical
        # a pair does not have reads as exactly 0, nonempty
        pad = (_ZERO, _ZERO, [True])
        lo, hi, ok = (np.concatenate([x, y], axis=-1) for x, y in zip(self.verts, pad))
        keep = self.live & ok[self._vert_of].all(axis=1)
        pick = keep.nonzero()[0]
        m = pick.size
        both = np.concatenate([pick, pick + n])
        ends = np.concatenate([self.slices.lo[:, pick], self.slices.hi[:, pick + n]], axis=1)
        # where the slice's ball rounds to empty, the projection onto the
        # edge, as _slice_endpoint takes it
        tangent = (~self.slices.ok[both]).nonzero()[0]
        if tangent.size:
            e, point = self.edge[both[tangent] % n], self.slice_points[both[tangent]]
            v = E1[e] - E0[e]
            vv = rowdot(v, v)
            with np.errstate(divide="ignore", invalid="ignore"):  # a point edge
                u = rowdot(point - E0[e], v) / vv
            u = np.where(0.0 > u, 0.0, u)
            ends[:, tangent] = _exact(np.where(vv == 0.0, 0.0, np.where(1.0 < u, 1.0, u)))
        # s = rad_min(slice, upper ends of the verticals), t = rad_max(slice, lower ends)
        inner = self._vert_of[pick].T
        forms = np.empty((3, MAX_SUBCURVE_SPAN, 2 * m))
        forms[:, 0] = ends
        forms[:, 1:, :m], forms[:, 1:, m:] = hi[:, inner], lo[:, inner]
        valid = np.ones((MAX_SUBCURVE_SPAN, 2 * m), dtype=bool)
        valid[1:, :m] = valid[1:, m:] = self._inner[pick].T
        x, size = _values(forms)
        x[:, m:] *= -1.0
        st, unsure = _fold(forms, x, size, valid)
        for i in unsure.nonzero()[0].tolist():
            end = (rad_min if i < m else rad_max)(*_radicals(forms[:, valid[:, i], i]))
            st[:, i] = end.a, end.b, end.sign
        return self.edge[pick], self.sub[pick], st[:, :m], st[:, m:]


def candidate_segments(S: PolyCurve, cands: Sequence[Candidate]) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (starts, ends) for a list of candidates, by the
    arithmetic of ``Segment.at`` on each candidate's edge."""
    n = len(cands)
    e = np.fromiter((c.edge_index for c in cands), dtype=np.int64, count=n)
    alpha = np.fromiter((c.alpha for c in cands), dtype=float, count=n)[:, None]
    beta = np.fromiter((c.beta for c in cands), dtype=float, count=n)[:, None]
    V0, V1 = S.vertices[e - 1], S.vertices[e]
    return (1.0 - alpha) * V0 + alpha * V1, (1.0 - beta) * V0 + beta * V1
