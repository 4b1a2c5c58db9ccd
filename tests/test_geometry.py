import math

import numpy as np
import pytest

from subcover.geometry import (
    EdgePoint,
    Interval,
    PolyCurve,
    Segment,
    arclength_params,
    BallIntervals,
    ball_intervals,
    ball_segment_intersection,
    ball_segment_radical,
    capsule_segment_intersection,
    curve_from_points,
    filtered_sweep,
    point_segment_dist_sq,
    segment_segment_dist_sq,
)


def test_eval_midpoint():
    P = curve_from_points([(0, 0), (2, 0)])
    assert np.allclose(P.eval(0.5), (1, 0))


def test_eval_endpoint():
    P = curve_from_points([(0, 0), (1, 0), (2, 2)])
    assert np.allclose(P.eval(0.0), (0, 0))


def test_eval_nonuniform_params():
    P = curve_from_points([(0, 0), (1, 0), (2, 2)], params=[0, 0.5, 1])
    assert np.allclose(P.eval(0.75), (1.5, 1))


def test_eval_domain_error():
    P = curve_from_points([(0, 0), (2, 0)])
    with pytest.raises(ValueError):
        P.eval(1.5)


def test_vertex_params_validation():
    with pytest.raises(ValueError):
        PolyCurve([(0, 0), (1, 0)], vertex_params=[0.0, 0.5])
    with pytest.raises(ValueError):
        PolyCurve([(0, 0), (1, 0), (2, 0)], vertex_params=[0.0, 0.0, 1.0])


def test_segment_validates_its_endpoints():
    with pytest.raises(ValueError):
        Segment((0.0, math.nan), (1.0, 0.0))
    with pytest.raises(ValueError):
        Segment((0.0, 0.0), (math.inf, 0.0))
    with pytest.raises(ValueError):
        Segment((0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Segment([[0.0, 0.0]], [[1.0, 0.0]])


def test_edges_are_the_vertex_pairs():
    P = curve_from_points([(0, 0), (1, 0), (2, 2), (2, 2.5)])
    for i in range(1, P.num_edges + 1):
        e = P.edge(i)
        assert isinstance(e, Segment)
        assert np.array_equal(e.start, P.vertex(i)) and np.array_equal(e.end, P.vertex(i + 1))
        assert e.length() == pytest.approx(np.linalg.norm(P.vertex(i + 1) - P.vertex(i)))
    for i in (0, P.num_edges + 1, -1):
        with pytest.raises(IndexError):
            P.edge(i)


def test_ball_segment_examples():
    iv = ball_segment_intersection((0, 0), (10, 0), (5, 3), 5)
    assert abs(iv.lo - 0.1) < 1e-12 and abs(iv.hi - 0.9) < 1e-12

    assert ball_segment_intersection((0, 0), (10, 0), (5, 10), 1).is_empty()

    iv = ball_segment_intersection((0, 0), (1, 0), (0, 0), 0)
    assert abs(iv.lo) < 1e-12 and abs(iv.hi) < 1e-12


def test_ball_segment_degenerate_segment():
    assert ball_segment_intersection((1, 1), (1, 1), (1, 1.5), 1) == Interval(0.0, 1.0)
    assert ball_segment_intersection((1, 1), (1, 1), (5, 5), 1).is_empty()


def test_ball_segment_negative_delta():
    with pytest.raises(ValueError):
        ball_segment_intersection((0, 0), (1, 0), (0, 0), -1)


def test_ball_segment_membership_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = rng.integers(2, 4)
        p, q, r = rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
        delta = abs(rng.normal()) + 0.01
        iv = ball_segment_intersection(p, q, r, delta)
        for t in rng.uniform(0, 1, size=12):
            dist = np.linalg.norm((1 - t) * p + t * q - r)
            if iv.contains(t):
                assert dist <= delta + 1e-9
            else:
                assert dist > delta - 1e-9


def test_capsule_examples():
    iv = capsule_segment_intersection(Segment((0, 0), (10, 0)), Segment((0, 1), (10, 1)), 2)
    assert abs(iv.lo) < 1e-12 and abs(iv.hi - 1) < 1e-12

    assert capsule_segment_intersection(
        Segment((0, 0), (10, 0)), Segment((0, 5), (10, 5)), 2
    ).is_empty()

    iv = capsule_segment_intersection(Segment((0, 0), (0, 0)), Segment((-1, 0), (1, 0)), 0.5)
    assert abs(iv.lo - 0.25) < 1e-12 and abs(iv.hi - 0.75) < 1e-12


def test_capsule_against_dense_sampling():
    rng = np.random.default_rng(5)
    for _ in range(120):
        d = int(rng.integers(2, 4))
        ab = Segment(rng.normal(size=d), rng.normal(size=d))
        pq = Segment(rng.normal(size=d), rng.normal(size=d))
        delta = abs(rng.normal()) * 0.8 + 0.05
        iv = capsule_segment_intersection(ab, pq, delta)
        ts = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        dists = np.sqrt([point_segment_dist_sq(pq.at(t), ab.start, ab.end) for t in ts])
        inside = dists <= delta
        for t, ok in zip(ts, inside):
            if iv.contains(t):
                assert math.sqrt(point_segment_dist_sq(pq.at(t), ab.start, ab.end)) <= delta + 1e-9
            elif ok:
                # points the kernel excludes must sit within 1e-4 of the boundary
                assert min(abs(t - iv.lo), abs(t - iv.hi)) < 1e-3 or math.sqrt(
                    point_segment_dist_sq(pq.at(t), ab.start, ab.end)
                ) > delta - 1e-9


def test_segment_segment_distance():
    s1 = Segment((0, 0), (1, 0))
    s2 = Segment((0, 1), (1, 1))
    assert abs(segment_segment_dist_sq(s1, s2) - 1.0) < 1e-12
    s3 = Segment((0.5, -1), (0.5, 1))  # crossing
    assert segment_segment_dist_sq(s1, s3) < 1e-12
    s4 = Segment((3, 4), (3, 4))  # degenerate
    assert abs(segment_segment_dist_sq(s1, s4) - (2 * 2 + 4 * 4)) < 1e-12


def test_arclength_params():
    pts = np.array([(0, 0), (1, 0), (3, 0)], dtype=float)
    t = arclength_params(pts)
    assert np.allclose(t, [0, 1 / 3, 1])
    same = np.zeros((3, 2))
    assert np.allclose(arclength_params(same), [0, 0.5, 1])


def test_subcurve_and_reverse():
    P = curve_from_points([(0, 0), (1, 0), (2, 0), (3, 0)])
    sub = P.subcurve(EdgePoint(1, 0.5), EdgePoint(3, 0.5))
    assert np.allclose(sub.vertices[0], (0.5, 0))
    assert np.allclose(sub.vertices[-1], (2.5, 0))
    R = P.reversed()
    assert np.allclose(R.vertices[0], (3, 0))
    assert np.allclose(R.eval(0.0), P.eval(1.0))


def test_locate_roundtrip():
    P = curve_from_points([(0, 0), (1, 0), (2, 2)], params=[0, 0.25, 1])
    ep = P.locate(0.7)
    assert ep.edge_index == 2
    assert abs(P.edge_point_param(ep) - 0.7) < 1e-12


def test_ball_intervals_decided_entries_match_radical():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5):
        starts = rng.normal(size=(40, 1, d)) * 3
        ends = rng.normal(size=(40, 1, d)) * 3
        centres = rng.normal(size=(1, 30, d)) * 3
        delta = 1.5
        balls = ball_intervals(starts, ends, centres, delta)
        assert balls.lo.shape == balls.tight.shape == (40, 30)
        for a in range(40):
            for c in range(30):
                exact = ball_segment_radical(starts[a, 0], ends[a, 0], centres[0, c], delta)
                if balls.tight[a, c]:
                    continue
                assert exact.empty == (balls.lo[a, c] > balls.hi[a, c])
                if not exact.empty:
                    assert abs(balls.lo[a, c] - exact.lo.value()) <= balls.err[a, c]
                    assert abs(balls.hi[a, c] - exact.hi.value()) <= balls.err[a, c]
        assert balls.tight.mean() < 0.01


def test_ball_intervals_flag_ties():
    p = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    q = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    r = np.array([[1.0, 1.0], [-1.0, 0.0], [0.5, 0.0], [1.0, 3.0]])
    balls = ball_intervals(p, q, r, 1.0)
    # tangent line, ball touching only the start, degenerate segment, far away
    assert balls.tight.tolist() == [True, True, True, False]
    assert balls.lo[3] == math.inf and balls.hi[3] == -math.inf


def test_filtered_sweep_stops_at_its_first_open_crossing():
    inf = math.inf
    # one row per case, crossings left to right; err 0.01 everywhere
    lo = np.array(
        [[0.1, 0.3, 0.5], [0.1, 0.6, 0.0], [0.1, 0.5, 0.2], [inf, 0.2, 0.3], [0.2, 0.2, 0.9]]
    )
    hi = np.array(
        [[0.9, 0.8, 0.7], [0.9, 0.9, 0.5], [0.9, 0.505, 0.1], [-inf, 0.9, 0.9], [0.9, 0.9, 0.9]]
    )
    tight = np.zeros(lo.shape, dtype=bool)
    tight[4, 1] = True
    balls = BallIntervals(lo, hi, np.full(lo.shape, 0.01), tight)
    holds, undecided = filtered_sweep(balls)
    # holds; fails at the third (0.6 > 0.5); undecided at the second (0.505
    # - 0.5 within 0.02), and yet a decisive failure at the third (0.1 lies
    # more than the slack below the reach 0.5, so below any reach within err
    # of it); empty first interval; tight second interval
    assert holds.tolist() == [
        [True, True, True],
        [True, True, False],
        [True, False, False],
        [False, False, False],
        [True, False, False],
    ]
    assert undecided[:, -1].tolist() == [False, False, False, False, True]
    assert undecided[2].tolist() == [False, True, False]
    # the same along the other axis
    T = BallIntervals(*(a.T for a in balls))
    assert [m.T.tolist() for m in filtered_sweep(T, axis=0)] == [holds.tolist(), undecided.tolist()]


@pytest.mark.parametrize("scale", [1.0, 2.0**-20, 2.0**10])
@pytest.mark.parametrize(
    "p, q, r",
    [
        ((0, 0), (2, 0), (1, 1)),  # a tangent line, touching at t = 1/2
        ((0, 0), (1, 0), (-1, 0)),  # the ball touches the segment at t = 0
        ((0, 0), (1, 0), (2, 0)),  # and at t = 1
        ((0, 0, 0), (4, 4, 2), (2, 2, 1 + 3)),  # tangent in 3-D, radius 3
    ],
)
def test_tight_entries_keep_ends_within_err_of_the_radical_ones(p, q, r, scale):
    delta = (3.0 if len(p) == 3 else 1.0) * scale
    if len(p) == 3:
        q, r = (4, 4, 2), (2 - 1, 2 + 1 + 0.0, 1 + 0.0)  # |r - (2, 2, 1)| = sqrt(2)
        delta = math.sqrt(2.0) * scale
    p, q, r = (np.asarray(a, dtype=float) * scale for a in (p, q, r))
    balls = ball_intervals(p, q, r, delta)
    exact = ball_segment_radical(p, q, r, delta)
    assert balls.tight
    assert not exact.empty
    assert np.isfinite(balls.lo) and np.isfinite(balls.hi)
    assert abs(balls.lo - exact.lo.value()) <= balls.err
    assert abs(balls.hi - exact.hi.value()) <= balls.err


def test_a_tight_entry_below_the_reach_fails_decisively():
    # the first ball holds the segment's end, [0.75, 1]; the second touches
    # its start only, a tight [0, 0] far below that reach
    p, q = np.array([0.0, 0.0]), np.array([4.0, 0.0])
    balls = ball_intervals(p, q, np.array([[4.0, 0.0], [-1.0, 0.0]]), 1.0)
    assert balls.tight.tolist() == [False, True]
    holds, undecided = filtered_sweep(balls)
    assert holds.tolist() == [True, False] and undecided.tolist() == [False, False]
    # the same after an undecided crossing, and for a tight band below the reach
    lo = np.array([[0.6, 0.5, 0.1], [0.6, 0.1, 0.3]])
    hi = np.array([[0.9, 0.605, 0.2], [0.9, 0.2, 0.9]])
    tight = np.array([[False, False, True], [False, True, False]])
    holds, undecided = filtered_sweep(BallIntervals(lo, hi, np.full(lo.shape, 0.01), tight))
    assert holds.tolist() == [[True, False, False], [True, False, False]]
    assert undecided.tolist() == [[False, True, False], [False, False, False]]


def test_a_degenerate_entry_never_decides():
    # a segment of length zero: every entry is NaN and tight
    p = np.array([1.0, 1.0])
    balls = ball_intervals(p, p, np.array([[1.0, 1.5], [9.0, 9.0], [1.0, 1.0]]), 1.0)
    assert np.isnan(balls.lo).all() and balls.tight.all()
    holds, undecided = filtered_sweep(balls)
    assert not holds.any() and undecided.all()
    # nor does it make a later crossing fail, first or after a decided one
    nan = math.nan
    lo = np.array([[nan, 0.6, 0.1], [0.1, nan, 0.0]])
    hi = np.array([[nan, 0.9, 0.2], [0.9, nan, 0.05]])
    tight = np.isnan(lo)
    holds, undecided = filtered_sweep(BallIntervals(lo, hi, np.full(lo.shape, 0.01), tight))
    assert not holds[:, 1:].any() and undecided[:, 1:].all()
