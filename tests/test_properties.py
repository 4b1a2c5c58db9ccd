"""Property tests: the filtered float paths against the radical-exact contract.

Curves come in dimensions 2, 3 and 5, with coincident non-adjacent vertices
and grid-snapped coordinates; delta ranges over 1e-6..1e3 and the geometry
is drawn in units of delta.  Snapped curves use a power-of-two delta, so
that distances of exactly delta (tangencies) are common.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subcover.coverage import (
    batch_candidate_coverage,
    batch_feasible_mask,
    candidate_coverage_intervals,
    is_feasible,
    merge_intervals,
)
from subcover.freespace import decide_frechet_subcurve_segment
from subcover.geometry import EdgePoint, PolyCurve, Segment
from subcover.simplify import _decide_between, shortcut_holds, simplify_curve

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenes(draw, max_n=7, max_points=0):
    """(curve, delta, extra points) with every coordinate a multiple of delta."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, max_n))
    snapped = draw(st.booleans())
    if snapped:
        delta = 2.0 ** draw(st.integers(-20, 10))
        unit = st.integers(-8, 8).map(lambda k: 0.5 * k)
    else:
        delta = 10.0 ** draw(st.floats(-6.0, 3.0))
        unit = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    point = st.lists(unit, min_size=d, max_size=d)
    pts = [draw(point) for _ in range(n)]
    for k in range(2, n):
        if draw(st.integers(0, 3)) == 0:  # revisit an earlier, non-adjacent vertex
            pts[k] = list(pts[draw(st.integers(0, k - 2))])
    extra = [draw(point) for _ in range(max_points)]
    scale = lambda rows: np.asarray(rows, dtype=float).reshape(-1, d) * delta
    return PolyCurve(scale(pts)), delta, scale(extra)


def _exact_simplify(P: PolyCurve, delta: float) -> tuple:
    """simplify_curve with every shortcut decided by the radical path."""
    if P.n <= 2:
        return tuple(range(1, P.n + 1))
    stack = [1]
    for i in range(2, P.n + 1):
        while len(stack) >= 2:
            j = stack[-2]
            if not _decide_between(P, j, i, Segment(P.vertex(j), P.vertex(i)), 2.0 * delta):
                break
            stack.pop()
        gap = P.vertex(i) - P.vertex(stack[-1])
        if float(np.dot(gap, gap)) >= (delta / 3.0) ** 2:
            stack.append(i)
    return tuple(stack)


@PROPERTY
@given(scenes(max_n=9))
def test_filtered_shortcuts_equal_exact_decisions(scene):
    P, delta, _ = scene
    thresh = 2.0 * delta
    for i in range(2, P.n + 1):
        for j in range(i - 1, 0, -1):
            a = EdgePoint(j, 0.0)
            b = EdgePoint(i, 0.0) if i < P.n else EdgePoint(P.n - 1, 1.0)
            seg = Segment(P.vertex(j), P.vertex(i))
            exact = decide_frechet_subcurve_segment(P, a, b, seg, thresh)
            assert shortcut_holds(P, j, i, thresh) == exact


@PROPERTY
@given(scenes(max_n=12))
def test_simplify_keeps_the_exact_indices(scene):
    P, delta, _ = scene
    assert simplify_curve(P, delta).indices == _exact_simplify(P, delta)


def _union(ivs):
    return [(iv.lo, iv.hi) for iv in merge_intervals(ivs, slack=1e-9)]


def _segments(S: PolyCurve, extra: np.ndarray, on_edges):
    """Candidates between free points, curve vertices and points on edges,
    each point joined to the next one in both directions."""
    pts = [p for p in extra] + [v for v in S.vertices]
    pts += [S.edge(k % S.num_edges + 1).at(u) for k, u in enumerate(on_edges)]
    pts = np.array(pts)
    nxt = np.roll(pts, 1, axis=0)
    return np.vstack([pts, nxt]), np.vstack([nxt, pts])


on_edges = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=3)
radius_factor = st.sampled_from([1.0, 3.0])


@PROPERTY
@given(scenes(max_n=6, max_points=3), on_edges, radius_factor)
def test_batch_coverage_equals_scalar(scene, on_edges, factor):
    S, delta, extra = scene
    starts, ends = _segments(S, extra, on_edges)
    radius = factor * delta
    batch = batch_candidate_coverage(S, starts, ends, radius)
    for k in range(len(starts)):
        scalar = candidate_coverage_intervals(S, Segment(starts[k], ends[k]), radius)
        got, want = _union(batch[k]), _union(scalar)
        assert len(got) == len(want), (k, got, want)
        assert np.allclose(got, want, rtol=0.0, atol=1e-7), (k, got, want)


@PROPERTY
@given(
    scenes(max_n=6, max_points=3),
    on_edges,
    radius_factor,
    st.integers(0, 5),
    st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0]),
)
def test_batch_feasible_mask_equals_scalar(scene, on_edges, factor, edge, local):
    S, delta, extra = scene
    starts, ends = _segments(S, extra, on_edges)
    radius = factor * delta
    t = EdgePoint(edge % S.num_edges + 1, local)
    mask = batch_feasible_mask(S, t, starts, ends, radius)
    for k in range(len(starts)):
        assert mask[k] == is_feasible(Segment(starts[k], ends[k]), S, t, radius), k
