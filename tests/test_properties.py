"""Property tests: the filtered float paths against the radical-exact contract,
the per-curve candidate tables against one extremal_points call per
subcurve, and the array paths against the scalar code they replace, bit for
bit: batched dot products, the predicates' float steps, free-space rows,
the candidate tables entry by entry and the radical forms of each
subcurve's (s, t), the candidate dedup, the coverage fill, feasible
rectangles and ``oracle.full_coverage``.  On
snapped scenes the scalar fallbacks behind the candidate tables and the fill
are counted, so that they are seen to run.

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

import subcover.candidates as candidates_module
from subcover.candidates import (
    Candidate,
    _CurveTables,
    _distinct,
    _sorted_distinct,
    candidate_segments,
    candidate_set,
    generating_subcurves,
)
import subcover.coverage as coverage_module
from subcover.coverage import (
    MAX_WINDOW_EDGES,
    batch_candidate_coverage,
    batch_feasible_mask,
    candidate_coverage_intervals,
    feasible_rectangles,
    is_feasible,
    merge_intervals,
    point_not_covered_from_intervals,
    WindowTable,
)
import subcover.freespace as freespace_module
from subcover.freespace import (
    FreeSpaceRow,
    _coverage_interval_on_row,
    decide_frechet_subcurve_segment,
    extremal_points,
    free_space_rows,
)
import subcover.geometry as geometry_module
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
from subcover.radicals import ONE, Radical, rad_max, rad_min
import subcover.simplify as simplify_module
from subcover.simplify import ShortcutBlocks, _decide_between, shortcut_holds, simplify_curve
from test_candidates import reference_close_pairs, reference_close_subcurves
from test_solver import SQUARE, noisy_lapped

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenes(draw, max_n=7, max_points=0, snapped=st.booleans()):
    """(curve, delta, extra points) with every coordinate a multiple of delta."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, max_n))
    snapped = draw(snapped)
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


def _lapped_polygon(rng, n, corners, laps, noise):
    t = np.linspace(0.0, float(len(corners) * laps), n, endpoint=False)
    side = np.floor(t).astype(int) % len(corners)
    f = (t - np.floor(t))[:, None]
    pts = (1.0 - f) * corners[side] + f * corners[(side + 1) % len(corners)]
    return pts + rng.normal(0.0, noise, size=pts.shape)


def _long_routes():
    """(name, curve, delta): noisy lapped polygons up to n = 200, dense
    clouds and straight lines, in 2-D and 3-D."""
    rng = np.random.default_rng(2204)
    triangle = np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 26.0]])
    square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    skew = np.array([[0.0, 0.0, 0.0], [8.0, 1.0, 2.0], [3.0, 9.0, -1.0]])
    routes = [
        ("triangle", _lapped_polygon(rng, 120, triangle, 2, 0.4), 0.5),
        ("square", _lapped_polygon(rng, 200, square, 4, 0.3), 0.5),
        ("square-clean", _lapped_polygon(rng, 160, square, 2, 0.0), 0.5),
        ("skew-3d", _lapped_polygon(rng, 150, skew, 3, 0.2), 0.25),
        ("cloud", rng.normal(size=(200, 2)), 2.0),
        ("cloud-3d", rng.normal(size=(150, 3)), 0.7),
        ("walk", np.cumsum(rng.normal(size=(200, 2)), axis=0), 0.5),
        ("line", np.linspace(0.0, 1.0, 200)[:, None] * np.array([[30.0, 10.0]]), 0.5),
        ("line-jitter", np.linspace(0.0, 40.0, 180)[:, None] * np.array([[1.0, 0.0, 1.0]])
         + rng.normal(0.0, 0.05, size=(180, 3)), 0.5),
    ]
    return [pytest.param(PolyCurve(pts), delta, id=name) for name, pts, delta in routes]


@pytest.mark.parametrize("P, delta", _long_routes())
def test_simplify_keeps_the_exact_indices_on_long_routes(P, delta):
    assert simplify_curve(P, delta).indices == _exact_simplify(P, delta)


def test_simplify_makes_about_one_kernel_call_per_kept_vertex():
    rng = np.random.default_rng(5)
    triangle = np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 26.0]])
    P = PolyCurve(_lapped_polygon(rng, 120, triangle, 2, 0.15))
    calls = []
    kernel = simplify_module.ball_intervals

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplify_module, "ball_intervals", counted)
        indices = simplify_curve(P, 0.5).indices
    assert indices == _exact_simplify(P, 0.5)
    assert len(calls) <= len(indices) + 2, (len(calls), len(indices))


@PROPERTY
@given(scenes(max_n=9), st.data())
def test_shortcut_blocks_with_witnesses_answer_queries_in_any_order(scene, data):
    # each query names a random vertex below its anchor, so blocks carry
    # witness columns, and later queries of that vertex read them
    P, delta, _ = scene
    thresh = 2.0 * delta
    pairs = [(j, i) for i in range(2, P.n + 1) for j in range(1, i)]
    blocks = ShortcutBlocks(P, thresh)
    for j, i in data.draw(st.permutations(pairs + pairs)):
        below = data.draw(st.one_of(st.none(), st.integers(1, j - 1))) if j > 1 else None
        a = EdgePoint(j, 0.0)
        b = EdgePoint(i, 0.0) if i < P.n else EdgePoint(P.n - 1, 1.0)
        exact = decide_frechet_subcurve_segment(P, a, b, Segment(P.vertex(j), P.vertex(i)), thresh)
        assert blocks.holds(j, i, below) == exact, (j, i, below)


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
    mask = batch_feasible_mask(S, t, starts, ends, radius)
    for k in range(len(starts)):
        assert mask[k] == is_feasible(Segment(starts[k], ends[k]), S, t, radius), k


def _table_witnesses(S: PolyCurve, cov) -> list:
    """Edge points at every stored window end and one ulp either side of it,
    at every vertex as local 0 and as local 1, and at the gap midpoints of
    three thirds of the candidates."""
    x = np.concatenate(cov.windows[1:3])
    x = np.unique(np.clip(np.concatenate([x, np.nextafter(x, -1.0), np.nextafter(x, 2.0)]), 0.0, 1.0))
    out = [S.locate(float(v)) for v in x]
    out += [EdgePoint(e, u) for e in range(1, S.num_edges + 1) for u in (0.0, 1.0)]
    gaps = (point_not_covered_from_intervals(S, cov.take(np.arange(k, len(cov), 3))) for k in range(3))
    return out + [t for t in gaps if t is not None]


def _assert_stabbing_equals_mask(S, t, table, starts, ends, radius, scalar: bool) -> int:
    """The table's feasible set at t against the mask, and the mask against
    ``is_feasible`` when scalar; returns the candidates sent to the exact path."""
    got, band = table.feasible_mask(S, t, starts, ends, radius)
    want = batch_feasible_mask(S, t, starts, ends, radius)
    assert got.tolist() == want.tolist(), t
    if scalar:
        assert want.tolist() == [is_feasible(Segment(a, b), S, t, radius) for a, b in zip(starts, ends)], t
    return band


@PROPERTY
@given(
    scenes(max_n=6, max_points=3),
    on_edges,
    radius_factor,
    st.sampled_from(["segments", "candidates"]),
    st.integers(0, 6),
)
def test_stabbing_equals_the_mask_at_window_ends_vertices_and_gaps(scene, on_edges, factor, source, pick):
    S, delta, extra = scene
    if source == "segments":
        starts, ends = _segments(S, extra, on_edges)
        radius = factor * delta
    else:
        S, radius = PolyCurve(4.0 * S.vertices), 8.0 * delta
        starts, ends = candidate_segments(S, candidate_set(S, delta))
    cov = batch_candidate_coverage(S, starts, ends, radius, windows=True)
    table = WindowTable(cov.windows)
    for n, t in enumerate(_table_witnesses(S, cov)):
        # every seventh witness also against the scalar contract
        _assert_stabbing_equals_mask(S, t, table, starts, ends, radius, n % 7 == pick)


def test_stabbing_equals_the_mask_on_lattice_scenes_and_sends_the_band_to_the_exact_path():
    band = []

    @PROPERTY
    @given(scenes(max_n=7, snapped=st.just(True)), st.integers(0, 28))
    def check(scene, pick):
        P, delta, _ = scene
        S = PolyCurve(4.0 * P.vertices)
        starts, ends = candidate_segments(S, candidate_set(S, delta))
        cov = batch_candidate_coverage(S, starts, ends, 8.0 * delta, windows=True)
        table = WindowTable(cov.windows)
        for n, t in enumerate(_table_witnesses(S, cov)):
            # the scalar contract on every 29th witness: about 13,000 in all
            band.append(_assert_stabbing_equals_mask(S, t, table, starts, ends, 8.0 * delta, n % 29 == pick))

    check()
    assert sum(band) > 0


def test_stabbing_where_two_windows_touch():
    # On a straight curve 0-2-4-6 at radius 1, the segment from 1 to 3 has a
    # one-cell window on the first edge ending at vertex 2 and one on the
    # second edge starting there: the two touch at vertex 2's parameter.
    S = PolyCurve(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]]))
    starts = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 0.5], [0.0, 0.0]])
    ends = np.array([[3.0, 0.0], [5.0, 0.0], [3.0, -0.5], [2.0, 1.0]])
    cov = batch_candidate_coverage(S, starts, ends, 1.0, windows=True)
    owner, lo, hi, _ = cov.windows
    joint = S.param(2)
    assert np.any((owner == 0) & (hi == joint)) and np.any((owner == 0) & (lo == joint))
    for x in (joint, np.nextafter(joint, 0.0), np.nextafter(joint, 1.0), S.param(3)):
        for t in (S.locate(float(x)), EdgePoint(1, 1.0), EdgePoint(2, 0.0)):
            _assert_stabbing_equals_mask(S, t, WindowTable(cov.windows), starts, ends, 1.0, True)


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


def _assert_fill_equals_reference(S, starts, ends, radius, block, spy=None):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:  # many blocks of candidates
            mp.setattr(coverage_module, "BLOCK_ENTRIES", block)
        if spy is not None:  # patches the fill's lookups, not the reference's
            spy(mp)
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
            Y = PolyCurve(S.vertices[y.start_vertex - 1 : y.end_vertex])
            ep = extremal_points(Y, S.edge(e), radius)
            if ep is not None:
                s_vals.append(ep.s_rad)
                t_vals.append(ep.t_rad)
        for s in _sorted_distinct(s_vals):
            for t in _sorted_distinct(t_vals):
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


def test_candidate_set_with_close_subcurves_whose_capsules_round_to_empty():
    # Edge 2 is exactly 8*delta from edges 6 and 7, so subcurves made of them
    # are close, but every capsule of their cells about edge 2 rounds to
    # empty: they have no free cell and no extremal points.
    V = [[8, 4], [-24, 32], [-24, -20], [-20, -20], [-12, -32], [4, -12], [-8, 20], [12, 8]]
    S = PolyCurve(np.array(V, dtype=float))
    assert _bits(candidate_set(S, 2.0)) == _bits(reference_candidate_set(S, 2.0))


@PROPERTY
@given(lapped_routes())
def test_coverage_fill_equals_reference_loop_on_lapped_routes(route):
    S, delta = route
    starts, ends = candidate_segments(S, candidate_set(S, delta))
    _assert_fill_equals_reference(S, starts, ends, 8.0 * delta, None)


def _lapped_square_route():
    """The simplification of a 200-point 2-lap noisy square (m = 21) and its
    candidate segments (|B| = 541) at delta 0.5."""
    S = simplify_curve(noisy_lapped(SQUARE, 200, 2, 0.4), 0.5).curve
    B = candidate_set(S, 0.5)
    assert (S.n, len(B)) == (21, 541)
    return S, B


@pytest.mark.parametrize("block", [50, 500, 5000])
def test_a_fill_with_windows_over_many_blocks_equals_the_one_block_fill(block):
    S, B = _lapped_square_route()
    starts, ends = candidate_segments(S, B)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coverage_module, "BLOCK_ENTRIES", 1 << 30)
        one = batch_candidate_coverage(S, starts, ends, 4.0, windows=True)
        mp.setattr(coverage_module, "BLOCK_ENTRIES", block)
        many = batch_candidate_coverage(S, starts, ends, 4.0, windows=True)
    for a, b in ((one.offsets, many.offsets), (one.lo, many.lo), (one.hi, many.hi)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def window_bits(windows):
        owner, *ends_and_tol = windows
        return sorted(zip(owner.tolist(), *([x.hex() for x in a.tolist()] for a in ends_and_tol)))

    # the blocks' windows come in another order
    assert window_bits(many.windows) == window_bits(one.windows)
    table = WindowTable(many.windows)
    for x in np.random.default_rng(21).random(30):
        t = S.locate(float(x))
        mask, _ = table.feasible_mask(S, t, starts, ends, 4.0)
        assert np.array_equal(mask, batch_feasible_mask(S, t, starts, ends, 4.0)), x


@pytest.mark.parametrize("block", [7, 64, 1000])
def test_candidate_tables_over_many_blocks_give_the_same_candidates(block):
    S, B = _lapped_square_route()
    rows, blocks = [], candidates_module._blocks

    def recorded(table, args, radius):
        rows.append(args[0].shape[0])
        return blocks(table, args, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(candidates_module, "BLOCK_ENTRIES", block)
        mp.setattr(candidates_module, "_blocks", recorded)
        got = candidate_set(S, 0.5)
    assert max(rows) > block  # some table spans several blocks
    assert _bits(got) == _bits(B)


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
    # one vector against many rows, either way round, as broadcast kernels take it
    assert rowdot(x[0], y).tolist() == [float(np.dot(x[0], b)) for b in y]
    assert rowdot(x.reshape(40, 1, 100, d), y[0]).ravel().tolist() == [float(np.dot(a, y[0])) for a in x]


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
    # the gathered tables candidate_set reads, entry by entry
    tables = _CurveTables(S, radius)
    for k, (a, c) in enumerate(zip(*tables.cap_pairs)):
        want = capsule_segment_radical(S.edge(a + 1), S.edge(c + 1), radius)
        assert _table_key(tables.caps, k) == _rad_key(want), (a, c)
    for k, (e, v) in enumerate(zip(*tables.vert_pairs)):
        want = ball_segment_radical(E0[e], E1[e], S.vertices[v], radius)
        assert _table_key(tables.verts, k) == _rad_key(want), (e, v)
    # the slices of the live pairs: at the lowest point of the first free
    # cell, then at the highest of the last
    n = tables.edge.size
    for k in np.flatnonzero(np.tile(tables.live, 2)):
        e, c = tables.edge[k % n], tables.slice_cells[k]
        cap = capsule_segment_radical(S.edge(e + 1), S.edge(c + 1), radius)
        point = S.edge(c + 1).at((cap.lo if k < n else cap.hi).value())
        assert np.array_equal(tables.slice_points[k], point)
        want = ball_segment_radical(E0[e], E1[e], point, radius)
        assert _table_key(tables.slices, k) == _rad_key(want), k


@PROPERTY
@given(scenes(max_n=8, max_points=2), radius_factor, st.data())
def test_free_space_rows_equal_ball_segment_radical(scene, factor, data):
    # every bottom, top and vertical of a row against the per-cell predicate,
    # on rows that need not start at vertex 1, with a degenerate edge put in
    # at random and a point segment among the segments
    S, delta, extra = scene
    radius = factor * delta
    dup = data.draw(st.integers(0, S.n))
    if dup < S.n:
        S = PolyCurve(np.insert(S.vertices, dup, S.vertices[dup], axis=0))
    lo = data.draw(st.integers(1, S.n - 1))
    hi = data.draw(st.integers(lo + 1, S.n))
    segs = [Segment(extra[0], extra[1]), Segment(extra[0], extra[0]), S.edge(lo), S.edge(hi - 1)]
    starts = np.array([q.start for q in segs])
    ends = np.array([q.end for q in segs])
    ks = data.draw(st.lists(st.integers(0, len(segs) - 1), max_size=6))
    rows = free_space_rows(S, lo, S.vertices[lo - 1 : hi], starts, ends, radius, np.array(ks, dtype=int))
    assert sorted(rows) == sorted(set(ks))
    for k, q in enumerate(segs):
        def want(p0, p1, r):
            return _rad_key(ball_segment_radical(p0, p1, r, radius))

        checked = [FreeSpaceRow(S, lo, hi, q, radius)]
        if k in rows:
            checked.append(rows[k])
        for row in checked:
            for c in range(lo, hi):
                assert _rad_key(row.bottom(c)) == want(S.vertex(c), S.vertex(c + 1), q.start)
                assert _rad_key(row.top(c)) == want(S.vertex(c), S.vertex(c + 1), q.end)
            for v in range(lo, hi + 1):
                assert _rad_key(row.vertical(v)) == want(q.start, q.end, S.vertex(v))
            for read, outside in ((row.bottom, (lo - 1, hi)), (row.top, (lo - 1, hi)),
                                  (row.vertical, (lo - 1, hi + 1))):
                for x in outside:
                    with pytest.raises(IndexError):
                        read(x)


def reference_feasible_rectangles(S, t, edge, delta):
    """``feasible_rectangles`` on two rows over the whole curve, each built on
    its own, and every window of an empty slice rejected here."""
    e = S.edge(edge)
    tau = S.edge_point_param(t)
    pt = S.edge_point_coords(t)
    rects = []
    for orient, seg in (("fwd", e), ("rev", e.reversed())):
        row = FreeSpaceRow(S, 1, S.n, seg, delta)
        t_slice = ball_segment_radical(seg.start, seg.end, pt, delta)
        for (i, j) in coverage_module.window_set(S, t):
            if t_slice.empty:
                continue
            rect = coverage_module._window_rect(S, row, {}, t_slice, tau, i, j, seg, delta)
            if rect is None:
                continue
            a1, a2, b1, b2 = rect
            if orient == "rev":
                a1, a2 = a2.reflect(), a1.reflect()
                b1, b2 = b2.reflect(), b1.reflect()
            quad = (a1.value(), a2.value(), b1.value(), b2.value())
            if quad not in rects:
                rects.append(quad)
    return tuple(rects)


@settings(PROPERTY, max_examples=30)
@given(scenes(max_n=9), radius_factor, st.floats(0.0, 1.0))
def test_feasible_rectangles_equal_the_whole_curve_reference(scene, factor, local):
    # witnesses at both ends and inside every edge, so on the first three and
    # the last four edges too, against every edge
    S, delta, _ = scene
    radius = 2.0 * factor * delta
    for ip in range(1, S.n):
        for u in (0.0, local, 1.0):
            t = EdgePoint(ip, u)
            for edge in range(1, S.n):
                got = feasible_rectangles(S, t, edge, radius)
                assert got == reference_feasible_rectangles(S, t, edge, radius), (ip, u, edge)


def _table_key(table, k):
    """``_rad_key`` of entry k of a ``candidates.RadIntervals`` table."""
    if not table.ok[k]:
        return None
    return tuple((float(f[0, k]), float(f[1, k]), int(f[2, k])) for f in (table.lo, table.hi))


def _form_bits(r) -> tuple:
    """The (a, b, sign) form of a radical, bit for bit."""
    a, b, sign = r
    return float(a).hex(), float(b).hex(), int(sign)


def _assert_extremal_forms_equal_extremal_points(S: PolyCurve, delta: float):
    radius = 8.0 * delta
    subcurves = generating_subcurves(S)
    edge, sub, s, t = _CurveTables(S, radius).extremal_forms()
    got = {
        (e, k): (_form_bits(s[:, i]), _form_bits(t[:, i]))
        for i, (e, k) in enumerate(zip(edge.tolist(), sub.tolist()))
    }
    want = {}
    close = reference_close_subcurves(S, reference_close_pairs(S, radius))
    for e in range(1, S.num_edges + 1):
        for y in close[e]:
            Y = PolyCurve(S.vertices[y.start_vertex - 1 : y.end_vertex])
            ep = extremal_points(Y, S.edge(e), radius)
            if ep is not None:
                forms = [(r.a, r.b, r.sign) for r in (ep.s_rad, ep.t_rad)]
                want[e - 1, subcurves.index(y)] = tuple(map(_form_bits, forms))
    assert got == want


@PROPERTY
@given(scenes(max_n=9))
def test_extremal_forms_equal_extremal_points(scene):
    # dedup reads the forms of s and t, not only their values
    P, delta, _ = scene
    _assert_extremal_forms_equal_extremal_points(PolyCurve(4.0 * P.vertices), delta)


@PROPERTY
@given(lapped_routes())
def test_extremal_forms_equal_extremal_points_on_lapped_routes(route):
    _assert_extremal_forms_equal_extremal_points(*route)


def _counting(calls: list, name: str, fn):
    def counted(*args):
        calls.append(name)
        return fn(*args)

    return counted


def test_candidate_fallbacks_run_on_lattice_scenes_and_equal_the_reference():
    # the scalar code behind the array tables: degenerate capsules and balls,
    # undecided folds, and edges whose dedup the filter cannot settle
    calls = []
    fallbacks = ("capsule_segment_radical_from_dots", "ball_segment_radical_from_dots",
                 "rad_min", "rad_max", "_sorted_distinct")

    @PROPERTY
    @given(scenes(max_n=9, snapped=st.just(True)))
    def check(scene):
        P, delta, _ = scene
        S = PolyCurve(4.0 * P.vertices)
        with pytest.MonkeyPatch.context() as mp:
            for name in fallbacks:
                counted = _counting(calls, name, getattr(candidates_module, name))
                mp.setattr(candidates_module, name, counted)
            got = candidate_set(S, delta)
        assert _bits(got) == _bits(reference_candidate_set(S, delta))

    check()
    assert "capsule_segment_radical_from_dots" in calls, sorted(set(calls))


def test_fill_fallback_runs_on_lattice_scenes_and_equals_the_reference():
    calls = []

    @PROPERTY
    @given(scenes(max_n=9, snapped=st.just(True)))
    def check(scene):
        P, delta, _ = scene
        S = PolyCurve(4.0 * P.vertices)
        starts, ends = candidate_segments(S, candidate_set(S, delta))

        def spy(mp):
            name = "ball_segment_radical_from_dots"
            mp.setattr(freespace_module, name, _counting(calls, name, getattr(freespace_module, name)))

        _assert_fill_equals_reference(S, starts, ends, 8.0 * delta, None, spy)

    check()
    assert calls


_SCALES = [1.0, 1e-9, 1e-85, 1e-170]  # below about 1e-81 squares underflow


def _near(rng, n: int, scale: np.ndarray):
    """a and b of radicals about 0 or 0.5, a spread by the given scales and
    sqrt(b) by scales drawn apart."""
    a = rng.choice([0.0, 0.5], n) + rng.choice([-1.0, 0.0, 1.0], n) * rng.random(n) * scale
    return a, (rng.random(n) * rng.choice(_SCALES, n)) ** 2


def test_array_radical_branches_equal_the_scalar_ones():
    # the branches of Radical.le that candidate_set's tables take: lower ends
    # a - sqrt(b) or exact, upper ends of sign +1, exact clipping bounds
    rng = np.random.default_rng(8)
    n = 20000
    scale = rng.choice(_SCALES, n)
    (a, b), sign = _near(rng, n, scale), rng.choice([-1.0, 1.0], n)
    lo = np.stack([a, np.where(sign < 0, b, 0.0), sign])
    hi = np.stack([*_near(rng, n, scale), np.ones(n)])
    r0, r1 = lo[0] + rng.normal(size=n) * scale, hi[0] + rng.normal(size=n) * scale
    le = candidates_module._le_pos(lo, hi)
    exact = candidates_module._exact
    clo, chi = candidates_module._clip(lo, hi, exact(r0), exact(r1))
    for k in range(n):
        x, y = Radical(*lo[:, k]), Radical(*hi[:, k])
        assert le[k] == x.le(y), k
        want_lo = rad_max(x, Radical.exact(r0[k]))
        want_hi = rad_min(y, Radical.exact(r1[k]))
        assert tuple(clo[:, k]) == (want_lo.a, want_lo.b, want_lo.sign), k
        assert tuple(chi[:, k]) == (want_hi.a, want_hi.b, want_hi.sign), k


@pytest.mark.parametrize("eps", [1e-82, 1e-83, 1e-90])
@pytest.mark.parametrize("delta", [0.4, 0.5, 0.6])
def test_a_near_parallel_capsule_takes_the_linear_branch(delta, eps):
    # p->q = (0, 0)->(1, eps) against a->b = (0, -0.5)->(1, -0.5): the band's
    # c1.c1 = eps^2 is at most 1e-164, so 4*c1c1^2 underflows to 0 while its
    # linear term is not 0
    a, b, p, q = (np.array(v) for v in ([0.0, -0.5], [1.0, -0.5], [0.0, 0.0], [1.0, eps]))
    calls, sublevel = [], geometry_module._quadratic_sublevel

    def spied(aa, bb, cc):
        calls.append((aa, bb))
        return sublevel(aa, bb, cc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry_module, "_quadratic_sublevel", spied)
        want = capsule_segment_radical(Segment(a, b), Segment(p, q), delta)
    assert any(4.0 * aa * aa == 0.0 and bb != 0.0 for aa, bb in calls)
    got = candidates_module._capsule_table(a[None], b[None], p[None], q[None], delta)
    assert _table_key(got, 0) == _rad_key(want)


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


def _forms(vals) -> np.ndarray:
    return np.array([(v.a, v.b, v.sign) for v in vals], dtype=float).reshape(-1, 3).T


@PROPERTY
@given(st.lists(_RADICALS, max_size=12), st.data())
def test_distinct_equals_comparator_sort_per_group(vals, data):
    # repeat some of the same values, so runs of equal values are common
    vals = vals + data.draw(st.lists(st.sampled_from(vals), max_size=6)) if vals else vals
    group = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(vals), max_size=len(vals))), dtype=np.int64)
    g, x = _distinct(group, _forms(vals))
    want = [
        (k, v.value().hex())
        for k in sorted(set(group.tolist()))
        for v in _sorted_distinct([u for u, h in zip(vals, group.tolist()) if h == k])
    ]
    assert list(zip(g.tolist(), [y.hex() for y in x.tolist()])) == want


def test_dedup_keeps_the_comparator_sort_of_a_non_transitive_triple():
    # Y = Z and X = Y, but Z < X: only a sort of the whole list by the
    # comparator reproduces its result
    X = Radical(-0.6432578693565985, 0.41378068648919103)
    Y = Radical(-0.8309475019311126, 0.6904737509655563)
    Z = Radical(-0.0, 0.0)
    assert Y.eq(Z) and X.eq(Y) and Z.lt(X)
    vals = [ONE, ONE, ONE, X, Y, ONE, Z]
    g, x = _distinct(np.zeros(len(vals), dtype=np.int64), _forms(vals))
    assert g.tolist() == [0, 0, 0] and x.tolist() == [X.value(), Z.value(), ONE.value()]
