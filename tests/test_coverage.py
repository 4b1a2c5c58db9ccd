import numpy as np
import pytest

from subcover.coverage import (
    batch_candidate_coverage,
    batch_feasible_mask,
    candidate_coverage_intervals,
    covers_unit,
    feasible_rectangles,
    is_feasible,
    merge_intervals,
    point_not_covered,
    structured_coverage,
    window_set,
)
from subcover.geometry import EdgePoint, Interval, PolyCurve, Segment, curve_from_points
from subcover.oracle import grid_feasibility


def test_window_set_counts_and_bounds():
    S = PolyCurve(np.cumsum(np.ones((20, 2)), axis=0))
    wins = window_set(S, EdgePoint(10, 0.4))
    assert len(wins) == 10
    for (i, j) in wins:
        assert 1 <= i < j <= S.n
        assert 1 <= j - i <= 4
        assert i <= 10 <= j - 1
    # near the ends the set shrinks
    assert len(window_set(S, EdgePoint(1, 0.5))) == 4
    assert len(window_set(S, EdgePoint(S.num_edges, 0.5))) == 4


def test_structured_coverage_exact_overlay():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    cov = structured_coverage(S, [Segment((0, 0), (2, 0))], 1e-9)
    assert covers_unit(cov)


def test_structured_coverage_empty_inputs():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    assert structured_coverage(S, [], 1.0) == []
    far = structured_coverage(S, [Segment((50, 50), (51, 50))], 0.5)
    assert far == []


def test_point_not_covered_midpoint_rule():
    S = curve_from_points([(0, 0), (2, 0)])
    # cover [0, 0.4] and [0.6, 1]: the gap midpoint is 0.5
    C = [Segment((0, 0), (0.8, 0)), Segment((1.2, 0), (2, 0))]
    t = point_not_covered(C, S, 1e-6)
    assert t is not None
    assert S.edge_point_param(t) == pytest.approx(0.5, abs=1e-6)


def test_point_not_covered_none_when_covered():
    S = curve_from_points([(0, 0), (2, 0)])
    assert point_not_covered([Segment((0, 0), (2, 0))], S, 1e-9) is None


def test_point_not_covered_empty_centers():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    t = point_not_covered([], S, 1.0)
    assert t is not None
    assert S.edge_point_param(t) == pytest.approx(0.5)


def test_is_feasible_self_cover():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    t = EdgePoint(1, 0.5)
    Q = Segment((0.2, 0), (0.8, 0))  # subedge spanning t on edge 1
    assert is_feasible(Q, S, t, 0.0)


def test_is_feasible_far_candidate():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    assert not is_feasible(Segment((0, 5), (1, 5)), S, EdgePoint(1, 0.5), 1.0)


def test_is_feasible_matches_single_candidate_coverage():
    rng = np.random.default_rng(30)
    agree = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        q = Segment(rng.normal(size=2) * 2, rng.normal(size=2) * 2)
        delta = float(rng.uniform(0.3, 2.0))
        g = float(rng.uniform(0, 1))
        t = S.locate(g)
        feas = is_feasible(q, S, t, delta)
        cov = candidate_coverage_intervals(S, q, delta)
        inside = any(iv.lo - 1e-12 <= g <= iv.hi + 1e-12 for iv in cov)
        on_boundary = any(abs(g - iv.lo) < 1e-9 or abs(g - iv.hi) < 1e-9 for iv in cov)
        if feas != inside and not on_boundary:
            raise AssertionError((S.vertices, q, delta, g, feas, inside))
        agree += 1
    assert agree == 200


def test_rectangles_single_edge_example():
    S = curve_from_points([(0, 0), (10, 0)])
    rs = feasible_rectangles(S, EdgePoint(1, 0.5), 1, 1.0)
    # forward rectangle [0, 0.6] x [0.4, 1]
    found = [r for r in rs if abs(r[0]) < 1e-9 and abs(r[1] - 0.6) < 1e-9]
    assert found and abs(found[0][2] - 0.4) < 1e-9 and abs(found[0][3] - 1.0) < 1e-9


def test_rectangles_empty_when_far():
    S = curve_from_points([(0, 0), (1, 0), (2, 0), (3, 0)])
    rs = feasible_rectangles(S, EdgePoint(3, 0.5), 1, 0.4)
    assert rs == ()


def _boundary_distance(rects, alpha, beta):
    """Distance from (alpha, beta) to the nearest rectangle boundary line."""
    return min((d for a1, a2, b1, b2 in rects for d in (
        abs(alpha - a1), abs(alpha - a2), abs(beta - b1), abs(beta - b2))), default=np.inf)


def test_rectangles_match_grid_oracle_random():
    rng = np.random.default_rng(31)
    step = 0.05
    for _ in range(40):
        n = int(rng.integers(2, 6))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        delta = float(rng.uniform(0.3, 1.5))
        edge = int(rng.integers(1, S.num_edges + 1))
        t = EdgePoint(int(rng.integers(1, S.num_edges + 1)), float(rng.uniform(0, 1)))
        rs = feasible_rectangles(S, t, edge, delta)
        feas_grid = set(grid_feasibility(S, t, edge, delta, step))
        for a in np.arange(0, 1 + step / 2, step):
            for b in np.arange(0, 1 + step / 2, step):
                want = (round(float(a), 9), round(float(b), 9)) in {
                    (round(x, 9), round(y, 9)) for x, y in feas_grid
                }
                got = any(a1 <= a <= a2 and b1 <= b <= b2 for a1, a2, b1, b2 in rs)
                if want != got and _boundary_distance(rs, float(a), float(b)) > 1e-6:
                    raise AssertionError(
                        (S.vertices.tolist(), delta, edge, t, float(a), float(b), want, got)
                    )


def test_batch_coverage_matches_scalar():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        delta = float(rng.uniform(0.2, 1.5))
        N = 12
        starts = rng.normal(size=(N, 2)) * 2
        ends = rng.normal(size=(N, 2)) * 2
        batch = batch_candidate_coverage(S, starts, ends, delta)
        for k in range(N):
            scalar = candidate_coverage_intervals(S, Segment(starts[k], ends[k]), delta)
            assert len(batch[k]) == len(scalar)
            for biv, siv in zip(batch[k], scalar):
                assert biv.lo == pytest.approx(siv.lo, abs=1e-9)
                assert biv.hi == pytest.approx(siv.hi, abs=1e-9)


def test_batch_feasible_matches_scalar():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        delta = float(rng.uniform(0.2, 1.5))
        t = S.locate(float(rng.uniform(0, 1)))
        N = 20
        starts = rng.normal(size=(N, 2)) * 1.5
        ends = rng.normal(size=(N, 2)) * 1.5
        mask = batch_feasible_mask(S, t, starts, ends, delta)
        for k in range(N):
            assert mask[k] == is_feasible(Segment(starts[k], ends[k]), S, t, delta)


def test_batch_coverage_tangent_vertical_matches_scalar():
    # An implicit-solver centre whose start lies exactly 4.5 from vertex 2:
    # its vertical interval there is [0, 0] in floats but empty under the
    # radical test, so window (1, 2) must not be reported.
    S = PolyCurve(
        [
            [0.027139890876531514, 0.08957143537672153],
            [30.07840284882907, 0.027222320327493534],
            [14.594218591858807, 25.36179659928705],
            [0.20885270124231764, 0.6424031195908013],
        ],
        [0.0, 0.3377021317346654, 0.6797252176705028, 1.0],
    )
    q = Segment([27.73166324854101, 3.866859444905783], [17.562458313959418, 20.505286984745037])
    scalar = candidate_coverage_intervals(S, q, 4.5)
    (batch,) = batch_candidate_coverage(S, q.start[None], q.end[None], 4.5)
    assert scalar[0].lo == pytest.approx(0.337702, abs=1e-6)
    flat = lambda ivs: [x for iv in ivs for x in (iv.lo, iv.hi)]
    assert flat(batch) == pytest.approx(flat(scalar), abs=1e-12)


def test_batch_feasible_tangent_start_matches_scalar():
    # A candidate from a lapped-square benchmark route whose start lies on
    # the 8*delta sphere of a vertex; the float mask used to accept it.
    S = PolyCurve(
        [
            [-0.076808429745681, -0.04463553118383933],
            [9.993297195187841, 0.39038989339769214],
            [9.287649083759634, 9.828427420299887],
            [-0.047878927452760865, 9.556048705020952],
            [0.09241865099802928, 0.7261839830289216],
        ],
        [0.0, 0.26803941879773013, 0.5285996111023364, 0.7715273432076695, 1.0],
    )
    t = EdgePoint(4, 0.7158190519435003)
    starts = np.array(
        [[-0.076808429745681, -0.04463553118383933], [0.21360778857282547, -0.03208964106263169]]
    )
    ends = np.array([[4.048275687674298, 0.13356681707871973]] * 2)
    mask = batch_feasible_mask(S, t, starts, ends, 4.0)
    assert mask.tolist() == [is_feasible(Segment(a, b), S, t, 4.0) for a, b in zip(starts, ends)]
    assert not mask.any()


def test_coverage_monotone_in_centers_and_delta():
    rng = np.random.default_rng(34)
    S = PolyCurve(np.cumsum(rng.normal(size=(6, 2)), axis=0))
    q1 = Segment(rng.normal(size=2), rng.normal(size=2))
    q2 = Segment(rng.normal(size=2), rng.normal(size=2))
    for delta in (0.3, 0.8, 1.5):
        a = structured_coverage(S, [q1], delta)
        ab = structured_coverage(S, [q1, q2], delta)
        for iv in a:
            for x in np.linspace(iv.lo, iv.hi, 5):
                assert any(j.lo - 1e-12 <= x <= j.hi + 1e-12 for j in ab)
    small = structured_coverage(S, [q1], 0.4)
    big = structured_coverage(S, [q1], 0.9)
    for iv in small:
        for x in np.linspace(iv.lo, iv.hi, 5):
            assert any(j.lo - 1e-12 <= x <= j.hi + 1e-12 for j in big)


def test_structured_subset_of_full_coverage():
    from subcover.oracle import full_coverage

    rng = np.random.default_rng(35)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        q = Segment(rng.normal(size=2), rng.normal(size=2))
        delta = float(rng.uniform(0.3, 1.5))
        st = structured_coverage(S, [q], delta)
        fl = full_coverage(S, [q], delta)
        for iv in st:
            for x in np.linspace(iv.lo, iv.hi, 5):
                assert any(j.lo - 1e-9 <= x <= j.hi + 1e-9 for j in fl)


def test_merge_intervals_closed_touching():
    merged = merge_intervals([Interval(0.4, 1.0), Interval(0.0, 0.4)])
    assert merged == [Interval(0.0, 1.0)]
