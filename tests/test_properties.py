"""Property tests: the filtered float paths against the radical-exact contract,
the per-curve candidate tables against one extremal_points call per
subcurve, and the array paths against the scalar code they replace, bit for
bit: batched dot products, the predicates' float steps, the candidate dedup,
the coverage fill and ``oracle.full_coverage``.

Curves come in dimensions 2, 3 and 5, with coincident non-adjacent vertices
and grid-snapped coordinates; delta ranges over 1e-6..1e3 and the geometry
is drawn in units of delta.  Snapped curves use a power-of-two delta, so
that distances of exactly delta (tangencies) are common.  Lapped routes
retrace a closed polygon 2 or 3 times, so many subcurves share cells.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subcover.candidates import (
    Candidate,
    _CurveTables,
    _dedup_radicals,
    _sorted_distinct,
    candidate_segments,
    candidate_set,
)
import subcover.coverage as coverage_module
from subcover.coverage import (
    MAX_WINDOW_EDGES,
    FreeSpaceRows,
    batch_candidate_coverage,
    batch_feasible_mask,
    candidate_coverage_intervals,
    is_feasible,
    merge_intervals,
    point_not_covered_from_intervals,
)
from subcover.freespace import (
    FreeSpaceRow,
    _coverage_interval_on_row,
    decide_frechet_subcurve_segment,
    extremal_points,
)
from subcover.geometry import (
    BallIntervals,
    EdgePoint,
    Interval,
    PolyCurve,
    Segment,
    arclength_params,
    ball_intervals,
    ball_segment_dots,
    ball_segment_radical,
    ball_segment_radical_from_dots,
    capsule_segment_dots,
    capsule_segment_radical,
    capsule_segment_radical_from_dots,
    filtered_nonneg,
    filtered_sweep,
    rowdot,
)
import subcover.oracle as oracle_module
from subcover.oracle import full_coverage
from subcover.radicals import ONE, Radical
import subcover.simplify as simplify_module
from subcover.simplify import ShortcutBlocks, _decide_between, shortcut_holds, simplify_curve
from test_candidates import reference_close_pairs, reference_close_subcurves

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


@PROPERTY
@given(scenes(max_n=9), st.data())
def test_shortcut_blocks_answer_queries_in_any_order(scene, data):
    # every pair twice, shuffled: anchors interleave, targets go backwards
    # and repeat, so blocks are refilled at arbitrary targets
    P, delta, _ = scene
    thresh = 2.0 * delta
    pairs = [(j, i) for i in range(2, P.n + 1) for j in range(1, i)]
    blocks = ShortcutBlocks(P, thresh)
    for j, i in data.draw(st.permutations(pairs + pairs)):
        a = EdgePoint(j, 0.0)
        b = EdgePoint(i, 0.0) if i < P.n else EdgePoint(P.n - 1, 1.0)
        exact = decide_frechet_subcurve_segment(P, a, b, Segment(P.vertex(j), P.vertex(i)), thresh)
        assert blocks.holds(j, i) == exact, (j, i)


@st.composite
def raw_routes(draw):
    """(curve, delta) of up to 60 vertices: a straight line, or a closed
    polygon with lattice corners lapped 2 or 3 times, with or without noise."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 60))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        direction = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), float)
        assume(direction.any())
        pts = np.linspace(0.0, draw(st.floats(1.0, 40.0)), n)[:, None] * direction
    else:
        coord = st.integers(-6, 6).map(float)
        corners = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=3, max_size=4)))
        laps = draw(st.integers(2, 3))
        t = np.linspace(0.0, float(len(corners) * laps), n, endpoint=False)
        side = np.floor(t).astype(int) % len(corners)
        f = (t - np.floor(t))[:, None]
        pts = (1.0 - f) * corners[side] + f * corners[(side + 1) % len(corners)]
    pts = pts + rng.normal(0.0, noise, size=pts.shape)
    return PolyCurve(pts), draw(st.sampled_from([0.25, 0.5, 2.0]))


@PROPERTY
@given(raw_routes())
def test_small_blocks_keep_the_exact_indices_and_the_entry_cap(route):
    P, delta = route
    cap = 16
    shapes = []
    kernel = simplify_module.ball_intervals

    def recorded(*args):
        balls = kernel(*args)
        shapes.append(balls.lo.shape)
        return balls

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplify_module, "BLOCK_ENTRIES", cap)
        mp.setattr(simplify_module, "ball_intervals", recorded)
        indices = simplify_curve(P, delta).indices
    assert indices == _exact_simplify(P, delta)
    # a call holds at most cap entries, or a single target whose row is longer
    assert all(rows * cols <= cap or rows == 1 for rows, cols in shapes), shapes


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
    st.sampled_from(["segments", "candidates", "gap"]),
)
def test_batch_feasible_mask_equals_scalar(scene, on_edges, factor, edge, local, source):
    S, delta, extra = scene
    if source == "segments":
        starts, ends = _segments(S, extra, on_edges)
        radius = factor * delta
    else:
        # candidate_set's candidates at their own radius, whose endpoints
        # lie on the radius spheres of vertices
        S, radius = PolyCurve(4.0 * S.vertices), 8.0 * delta
        starts, ends = candidate_segments(S, candidate_set(S, delta))
    t = EdgePoint(edge % S.num_edges + 1, local)
    if source == "gap":
        # a witness as the sampling loop queries it: the midpoint of a gap
        # in the coverage of a third of the candidates
        cov = batch_candidate_coverage(S, starts, ends, radius)
        t = point_not_covered_from_intervals(S, cov.take(np.arange(edge % 3, len(cov), 3)))
        assume(t is not None)
    # exact rows shared with an earlier query, as a sampling loop shares them
    rows = FreeSpaceRows(S, starts, ends, radius)
    batch_feasible_mask(S, EdgePoint(1, 0.5), starts, ends, radius, rows)
    mask = batch_feasible_mask(S, t, starts, ends, radius, rows)
    assert mask.tolist() == batch_feasible_mask(S, t, starts, ends, radius).tolist()
    for k in range(len(starts)):
        assert mask[k] == is_feasible(Segment(starts[k], ends[k]), S, t, radius), k


def reference_coverage_block(S: PolyCurve, starts: np.ndarray, ends: np.ndarray, delta: float):
    """The coverage fill as one loop over start edges and window lengths,
    with an ``Interval`` per window and a ``merge_intervals`` per candidate."""
    N = starts.shape[0]
    ne = S.num_edges
    params = S.vertex_params
    V = S.vertices
    widths = np.diff(params)
    bot = ball_intervals(V[:-1, None], V[1:, None], starts[None], delta)
    top = ball_intervals(V[:-1, None], V[1:, None], ends[None], delta)
    vert = ball_intervals(starts[None], ends[None], V[1:-1, None], delta)
    lo_glob = params[:-1, None] + bot.lo * widths[:, None]
    hi_glob = params[:-1, None] + top.hi * widths[:, None]

    def nonempty(balls, k):
        return ~balls.tight[k] & (balls.lo[k] <= 1.0), balls.tight[k]

    out = [[] for _ in range(N)]
    rows = {}
    for i in range(ne):
        b_holds, b_undecided = nonempty(bot, i)
        if not (b_holds | b_undecided).any():
            continue
        # sweeps across the first 0..3 inner vertices after edge i
        sweep = BallIntervals._make(a[i : i + MAX_WINDOW_EDGES - 1] for a in vert)
        alive, unsure = filtered_sweep(sweep, axis=0)
        none = np.zeros((1, N), dtype=bool)
        alive, unsure = np.vstack([~none, alive]), np.vstack([none, unsure])
        for j in range(i, min(i + MAX_WINDOW_EDGES, ne)):
            t_holds, t_undecided = nonempty(top, j)
            holds = b_holds & t_holds & alive[j - i]
            undecided = b_undecided | t_undecided | unsure[j - i]
            if j == i:
                margin = top.hi[j] - bot.lo[i]
                m_holds, m_undecided = filtered_nonneg(margin, bot.err[i] + top.err[j])
                undecided |= holds & m_undecided
                holds &= m_holds
            dead = ~(b_holds | b_undecided) | ~(t_holds | t_undecided)
            dead |= ~(alive[j - i] | unsure[j - i])
            for idx in np.nonzero(holds)[0]:
                out[idx].append(Interval(float(lo_glob[i, idx]), float(hi_glob[j, idx])))
            for idx in np.nonzero(undecided & ~dead)[0]:
                if idx not in rows:
                    q = Segment(starts[idx], ends[idx])
                    rows[idx] = FreeSpaceRow(S, 1, S.n, q, delta)
                iv = _coverage_interval_on_row(rows[idx], i + 1, j + 1)
                if not iv.is_empty():
                    out[idx].append(iv)
            if not ((b_holds | b_undecided) & (alive[j - i] | unsure[j - i])).any():
                break
    return [merge_intervals(ivs) for ivs in out]


def _assert_fill_equals_reference(S, starts, ends, radius, block):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # many blocks of candidates
            mp.setattr(coverage_module, "BLOCK_ENTRIES", block)
        got = batch_candidate_coverage(S, starts, ends, radius)
    want = reference_coverage_block(S, starts, ends, radius)
    assert len(got) == len(want)
    for k in range(len(want)):
        assert _interval_bits(got[k]) == _interval_bits(want[k]), k


@PROPERTY
@given(scenes(max_n=9, max_points=3), on_edges, radius_factor, st.sampled_from([None, 7]))
def test_coverage_fill_equals_reference_loop(scene, on_edges, factor, block):
    S, delta, extra = scene
    starts, ends = _segments(S, extra, on_edges)
    _assert_fill_equals_reference(S, starts, ends, factor * delta, block)
    # candidate_set's candidates at 8*delta, with endpoints on vertex spheres;
    # snapped scenes have lattice coordinates and a power-of-two delta
    S = PolyCurve(4.0 * S.vertices)
    starts, ends = candidate_segments(S, candidate_set(S, delta))
    _assert_fill_equals_reference(S, starts, ends, 8.0 * delta, block)


def reference_candidate_set(S: PolyCurve, delta: float) -> list:
    """Reference for candidate_set: one extremal_points call, with its own
    subcurve and free-space row, per close subcurve."""
    radius = 8.0 * delta
    close = reference_close_subcurves(S, reference_close_pairs(S, radius))
    out = []
    for e in range(1, S.num_edges + 1):
        s_vals, t_vals = [], []
        for y in close[e]:
            sub = PolyCurve(S.vertices[y.start_vertex - 1 : y.end_vertex])
            ep = extremal_points(sub, S.edge(e), radius)
            if ep is not None:
                s_vals.append(ep.s_rad)
                t_vals.append(ep.t_rad)
        for s in _dedup_radicals(s_vals):
            for t in _dedup_radicals(t_vals):
                out.append(Candidate(e, s.value(), t.value()))
    return out


def _bits(cands) -> list:
    return [(c.edge_index, c.alpha.hex(), c.beta.hex()) for c in cands]


@st.composite
def lapped_routes(draw):
    """(simplified curve, delta) of a closed polygon with corners on the
    delta lattice, traversed 2 or 3 times, with or without noise."""
    d = draw(st.sampled_from([2, 3, 5]))
    delta = 10.0 ** draw(st.floats(-6.0, 3.0))
    coord = st.integers(-12, 12).map(float)
    corner = st.lists(coord, min_size=d, max_size=d)
    corners = np.array(draw(st.lists(corner, min_size=3, max_size=5)))
    laps = draw(st.integers(2, 3))
    per_side = draw(st.integers(1, 4))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ring = np.vstack([corners, corners[:1]])
    f = np.arange(per_side)[:, None] / per_side
    side = [(1.0 - f) * a + f * b for a, b in zip(ring[:-1], ring[1:])]
    pts = np.vstack([np.vstack(side)] * laps + [corners[:1]])
    pts = pts + rng.normal(0.0, noise, size=pts.shape) * (np.arange(len(pts)) > 0)[:, None]
    S = simplify_curve(PolyCurve(pts * delta), delta).curve
    assume(S.n >= 2)
    return S, delta


@PROPERTY
@given(scenes(max_n=9))
def test_candidate_tables_equal_per_subcurve_extremal_points(scene):
    P, delta, _ = scene
    # spread over 32*delta, so that at radius 8*delta some pieces are out of
    # reach and snapped vertices are often exactly at the radius
    S = PolyCurve(4.0 * P.vertices)
    assert _bits(candidate_set(S, delta)) == _bits(reference_candidate_set(S, delta))


@PROPERTY
@given(lapped_routes())
def test_candidate_tables_equal_per_subcurve_extremal_points_on_lapped_routes(route):
    S, delta = route
    assert _bits(candidate_set(S, delta)) == _bits(reference_candidate_set(S, delta))


@PROPERTY
@given(lapped_routes())
def test_coverage_fill_equals_reference_loop_on_lapped_routes(route):
    S, delta = route
    starts, ends = candidate_segments(S, candidate_set(S, delta))
    _assert_fill_equals_reference(S, starts, ends, 8.0 * delta, None)


# ---------------------------------------------------------------------------
# array paths against the scalar code, bit for bit


@pytest.mark.parametrize("d", [2, 3, 5, 12])
def test_rowdot_equals_np_dot_bitwise(d):
    # a numpy or BLAS upgrade that changes how either sums shows up here
    rng = np.random.default_rng(d)
    x = rng.normal(size=(4000, d)) * 10.0 ** rng.uniform(-6, 6, size=(4000, 1))
    y = np.round(rng.normal(size=(4000, d)) * 8.0) / 8.0
    want = [float(np.dot(a, b)) for a, b in zip(x, y)]
    assert rowdot(x, y).tolist() == want
    assert rowdot(x.reshape(40, 100, d), y.reshape(40, 100, d)).ravel().tolist() == want
    assert [rowdot(a, b) for a, b in zip(x[:50], y[:50])] == want[:50]


def _rad_key(iv):
    if iv.empty:
        return None
    return tuple((r.a, r.b, r.sign) for r in (iv.lo, iv.hi))


@PROPERTY
@given(scenes(max_n=8, max_points=2), radius_factor)
def test_predicates_from_table_dots_equal_scalar_predicates(scene, factor):
    S, delta, extra = scene
    radius = factor * delta
    V = np.vstack([S.vertices, extra])
    E0, E1 = S.vertices[:-1], S.vertices[1:]
    balls = np.broadcast_arrays(*ball_segment_dots(E0[:, None], E1[:, None], V[None]))
    caps = capsule_segment_dots(E0[:, None], E1[:, None], E0[None], E1[None])
    caps = np.broadcast_arrays(*caps)
    for e in range(S.num_edges):
        for v in range(len(V)):
            got = ball_segment_radical_from_dots(*[float(x[e, v]) for x in balls], radius)
            assert _rad_key(got) == _rad_key(ball_segment_radical(E0[e], E1[e], V[v], radius))
        for c in range(S.num_edges):
            got = capsule_segment_radical_from_dots([float(x[e, c]) for x in caps], radius)
            want = capsule_segment_radical(S.edge(e + 1), S.edge(c + 1), radius)
            assert _rad_key(got) == _rad_key(want), (e, c)
    # the gathered tables candidate_set reads, at its own radius
    tables = _CurveTables(S, radius)
    for (a, c) in tables._caps:
        want = capsule_segment_radical(S.edge(a + 1), S.edge(c + 1), radius)
        assert _rad_key(tables.capsule(a, c)) == _rad_key(want)
    for (e, v) in tables._balls:
        want = ball_segment_radical(E0[e], E1[e], S.vertices[v], radius)
        assert _rad_key(tables.vertical(e, v)) == _rad_key(want)


def reference_full_coverage(P: PolyCurve, C, delta: float):
    """``oracle.full_coverage`` as one loop over the start edges per centre."""
    ivs = []
    for q in C:
        ivs.extend(_coverage_all_windows_one(P, q, delta))
    return merge_intervals(ivs)


def _coverage_all_windows_one(P: PolyCurve, q: Segment, delta: float):
    """Coverage intervals of one segment over all (i, j) edge windows."""
    ne = P.num_edges
    V = P.vertices
    E0, E1 = V[:-1], V[1:]
    dd = delta * delta

    def edge_ball(center):
        v = E1 - E0
        w = E0 - center[None, :]
        aa = (v * v).sum(axis=1)
        bb = 2.0 * (v * w).sum(axis=1)
        cc = (w * w).sum(axis=1) - dd
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

    bot_ok, bot_lo, _ = edge_ball(q.start)
    top_ok, _, top_hi = edge_ball(q.end)

    # vertical free intervals at internal vertices 2..n-1 (index v-2 below)
    sv = q.end - q.start
    aa = float(np.dot(sv, sv))
    w = V[1:-1] - q.start[None, :]
    if aa == 0.0:
        inside = (w * w).sum(axis=1) <= dd
        c_lo = np.where(inside, 0.0, np.inf)
        c_hi = np.where(inside, 1.0, -np.inf)
    else:
        bb = -2.0 * (w * sv[None, :]).sum(axis=1)
        cc = (w * w).sum(axis=1) - dd
        disc = bb * bb - 4 * aa * cc
        root = np.sqrt(np.maximum(disc, 0.0))
        c_lo = np.maximum((-bb - root) / (2 * aa), 0.0)
        c_hi = np.minimum((-bb + root) / (2 * aa), 1.0)
        bad = (disc < 0) | (c_lo > c_hi)
        c_lo = np.where(bad, np.inf, c_lo)
        c_hi = np.where(bad, -np.inf, c_hi)

    params = P.vertex_params
    widths = np.diff(params)
    lo_glob = params[:-1] + bot_lo * widths
    hi_glob = params[:-1] + top_hi * widths

    out = []
    for i in range(1, ne + 1):
        if not bot_ok[i - 1]:
            continue
        best_hi = -np.inf
        if top_ok[i - 1] and bot_lo[i - 1] <= top_hi[i - 1]:
            best_hi = hi_glob[i - 1]
        cur = 0.0
        for j in range(i + 1, ne + 1):
            vi = j - 2  # vertical at vertex j
            if c_lo[vi] > c_hi[vi]:
                break
            cur = max(cur, c_lo[vi])
            if cur > c_hi[vi]:
                break
            if top_ok[j - 1]:
                best_hi = max(best_hi, hi_glob[j - 1])
        if best_hi > -np.inf:
            out.append(Interval(float(lo_glob[i - 1]), float(best_hi)))
    return out


def _interval_bits(ivs):
    return [(iv.lo.hex(), iv.hi.hex()) for iv in ivs]


@PROPERTY
@given(
    scenes(max_n=40, max_points=3),
    on_edges,
    st.sampled_from([1.0, 3.0, 11.0]),
    st.booleans(),
    st.sampled_from([None, 7]),
)
def test_full_coverage_equals_reference_loop(scene, on_edges, factor, arclength, block):
    S, delta, extra = scene
    params = arclength_params(S.vertices)
    if arclength and np.all(np.diff(params) > 0.0):
        S = PolyCurve(S.vertices, params)
    starts, ends = _segments(S, extra, on_edges)
    # point centres: on free points, on vertices and on edges
    C = [Segment(a, b) for a, b in zip(starts, ends)] + [Segment(a, a) for a in starts[::2]]
    radius = factor * delta
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # many blocks of centres and of rows
            mp.setattr(oracle_module, "BLOCK_ENTRIES", block)
        got = full_coverage(S, C, radius)
    assert _interval_bits(got) == _interval_bits(reference_full_coverage(S, C, radius))


def test_full_coverage_drops_windows_whose_ends_round_together():
    # The start ball meets the last edge about 1e-16 past its start, after
    # the end ball has left it, so no window starts there.  Its start still
    # rounds to the parameter where that edge begins, which the end ball's
    # reach on the edge before also rounds to.
    P = PolyCurve(np.array([[-20.0, 0.0], [-10.0, 0.0], [0.0, 0.0], [10.0, 0.0]]))
    C = [Segment((1.0 + 1e-15, 0.0), (-1.0, 0.0))]
    assert full_coverage(P, C, 1.0) == reference_full_coverage(P, C, 1.0) == []


_HALVES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_RADICALS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-9]).map(Radical.exact),
    # a -+ sqrt(k*k): exactly a -+ k, so equal values in different forms
    st.tuples(_HALVES, _HALVES, st.sampled_from([-1, 1])).map(
        lambda t: Radical(t[0], t[1] * t[1], t[2])
    ),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 4.0), st.sampled_from([-1, 1])).map(
        lambda t: Radical(*t)
    ),
    # one float value, but the first is less than the second
    st.sampled_from([(1.0, 2.9450365878375937), (1.0, 2.945036587837595)]).map(
        lambda t: Radical(*t)
    ),
)


@PROPERTY
@given(st.lists(_RADICALS, max_size=12), st.data())
def test_dedup_equals_comparator_sort(vals, data):
    # repeat some of the same objects, so runs of equal values are common
    vals = vals + data.draw(st.lists(st.sampled_from(vals), max_size=6)) if vals else vals
    got, want = _dedup_radicals(vals), _sorted_distinct(vals)
    assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def test_dedup_keeps_the_comparator_sort_of_a_non_transitive_triple():
    # Y = Z and X = Y, but Z < X: only a sort of the whole list by the
    # comparator reproduces its result
    X = Radical(-0.6432578693565985, 0.41378068648919103)
    Y = Radical(-0.8309475019311126, 0.6904737509655563)
    Z = Radical(-0.0, 0.0)
    assert Y.eq(Z) and X.eq(Y) and Z.lt(X)
    got = _dedup_radicals([ONE, ONE, ONE, X, Y, ONE, Z])
    assert len(got) == 3 and got[0] is X and got[1] is Z and got[2] is ONE
