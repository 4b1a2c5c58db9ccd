import numpy as np
import pytest

from subcover.freespace import (
    ExtremalPair,
    coverage_interval,
    decide_frechet_subcurve_segment,
    extremal_points,
    FreeSpaceRow,
    psi_ij_contains,
)
from subcover.geometry import EdgePoint, PolyCurve, Segment, curve_from_points
from subcover.oracle import curve_frechet_bracket, frechet_value_bracket, psi_contains_brute


def whole(P):
    return EdgePoint(1, 0.0), EdgePoint(P.num_edges, 1.0)


def test_free_space_row_all_free():
    P = curve_from_points([(0, 0), (1, 0)])
    row = FreeSpaceRow(P, 1, 2, Segment((0, 1), (1, 1)), 2)
    for iv in (row.bottom(1), row.top(1), row.vertical(1), row.vertical(2)):
        b = iv.to_interval()
        assert b.lo == pytest.approx(0) and b.hi == pytest.approx(1)


def test_free_space_row_all_empty():
    P = curve_from_points([(0, 0), (1, 0)])
    row = FreeSpaceRow(P, 1, 2, Segment((0, 5), (1, 5)), 1)
    for iv in (row.bottom(1), row.top(1), row.vertical(1), row.vertical(2)):
        assert iv.to_interval().is_empty()


def test_free_space_row_degenerate_segment():
    P = curve_from_points([(0, 0), (10, 0)])
    row = FreeSpaceRow(P, 1, 2, Segment((5, 3), (5, 3)), 5)
    b = row.bottom(1).to_interval()
    assert b.lo == pytest.approx(0.1) and b.hi == pytest.approx(0.9)


def test_decide_parallel_translate():
    P = curve_from_points([(0, 0), (1, 0)])
    a, b = whole(P)
    seg = Segment((0, 1), (1, 1))
    assert decide_frechet_subcurve_segment(P, a, b, seg, 1.0)
    assert not decide_frechet_subcurve_segment(P, a, b, seg, 0.999)


def test_decide_spike_curve():
    P = curve_from_points([(0, 0), (1, 0), (1, 5), (2, 0)])
    a, b = whole(P)
    seg = Segment((0, 0), (2, 0))
    assert not decide_frechet_subcurve_segment(P, a, b, seg, 4.9)
    assert decide_frechet_subcurve_segment(P, a, b, seg, 5.0)


def test_decide_point_subcurve():
    P = curve_from_points([(0, 0), (2, 0)])
    a = EdgePoint(1, 0.5)
    seg = Segment((1, 1), (1, -1))
    # point (1,0) vs segment: distance max over endpoints = 1
    assert decide_frechet_subcurve_segment(P, a, a, seg, 1.0)
    assert not decide_frechet_subcurve_segment(P, a, a, seg, 0.99)


def test_decide_monotone_in_delta():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        P = PolyCurve(rng.normal(size=(n, 2)))
        seg = Segment(rng.normal(size=2), rng.normal(size=2))
        a, b = whole(P)
        deltas = np.sort(rng.uniform(0.1, 4.0, size=4))
        results = [decide_frechet_subcurve_segment(P, a, b, seg, d) for d in deltas]
        # once true, stays true
        seen = False
        for r in results:
            if seen:
                assert r
            seen = seen or r


def test_decide_symmetry_under_reversal():
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(2, 6))
        P = PolyCurve(rng.normal(size=(n, 2)))
        seg = Segment(rng.normal(size=2), rng.normal(size=2))
        a, b = whole(P)
        Pr = P.reversed()
        ar, br = whole(Pr)
        d = float(rng.uniform(0.2, 3.0))
        assert decide_frechet_subcurve_segment(P, a, b, seg, d) == decide_frechet_subcurve_segment(
            Pr, ar, br, seg.reversed(), d
        )


def test_decide_on_long_subcurves_fails_at_each_vertex_and_carries_the_sweep():
    # the decision sweeps long spans in runs of vertices: a vertex off the
    # segment, or one that steps back, makes it fail wherever it lies
    n = 80
    line = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    seg = Segment(line[0], line[-1])
    a, b = whole(PolyCurve(line))
    assert decide_frechet_subcurve_segment(PolyCurve(line), a, b, seg, 0.5)
    for k in range(1, n - 1):
        for moved in ((k, 0.6), (k - 2.2, 0.0)):
            V = line.copy()
            V[k] = moved
            assert not decide_frechet_subcurve_segment(PolyCurve(V), a, b, seg, 0.5), (k, moved)


def test_decide_agrees_with_bracket():
    P = curve_from_points([(0, 0), (1, 0)])
    a, b = whole(P)
    iv = frechet_value_bracket(P, a, b, Segment((0, 1), (1, 1)), 1e-9)
    assert iv.lo <= 1.0 <= iv.hi + 1e-9


def test_brackets_reject_tol_zero_and_end_where_no_float_lies_between():
    P = curve_from_points([(0, 0), (1, 0), (2, 0.5)])
    Q = curve_from_points([(0, 0.3), (2, 0.3)])
    a, b = whole(P)
    seg = Segment(Q.vertex(1), Q.vertex(2))
    brackets = (
        lambda tol: frechet_value_bracket(P, a, b, seg, tol),
        lambda tol: curve_frechet_bracket(P, Q, tol),
    )
    for bracket in brackets:
        with pytest.raises(ValueError):
            bracket(0.0)
        iv = bracket(1e-300)
        assert 0.0 < iv.lo < iv.hi == np.nextafter(iv.lo, np.inf)
        assert abs(iv.hi - bracket(1e-9).hi) <= 1e-9


def test_psi_exact_overlay():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    seg = Segment((0, 0), (2, 0))
    assert psi_ij_contains(P, 1, 3, EdgePoint(1, 0.5), seg, 1e-9)


def test_psi_window_forces_end_edge():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    seg = Segment((0, 0), (2, 0))
    # traversal must end on edge 1 yet match the far segment endpoint
    assert not psi_ij_contains(P, 1, 2, EdgePoint(1, 0.5), seg, 0.5)


def test_psi_far_point_uncovered():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    seg = Segment((0, 3), (2, 3))
    assert not psi_ij_contains(P, 1, 3, EdgePoint(1, 0.5), seg, 1.0)


def test_psi_index_checks():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    seg = Segment((0, 0), (2, 0))
    with pytest.raises(IndexError):
        psi_ij_contains(P, 0, 2, EdgePoint(1, 0.5), seg, 1.0)
    with pytest.raises(ValueError):
        psi_ij_contains(P, 2, 3, EdgePoint(1, 0.5), seg, 1.0)


def test_psi_matches_grid_oracle():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 6))
        P = PolyCurve(rng.uniform(-1, 1, size=(n, 2)))
        seg = Segment(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        edge = int(rng.integers(i, j))
        t = EdgePoint(edge, float(rng.uniform(0, 1)))
        delta = float(rng.uniform(0.3, 2.0))
        got = psi_ij_contains(P, i, j, t, seg, delta)
        # margin guard: skip knife-edge instances where grid error could flip
        lo = psi_contains_brute(P, i, j, t, seg, delta * 0.97, nx=220, ny=220)
        hi = psi_contains_brute(P, i, j, t, seg, delta * 1.03, nx=220, ny=220)
        if lo != hi:
            continue
        assert got == hi, (P.vertices, seg, i, j, t, delta)
        checked += 1


def test_coverage_interval_whole_overlay():
    P = curve_from_points([(0, 0), (2, 0)])
    iv = coverage_interval(P, 1, 1, Segment((0, 0), (2, 0)), 0.0)
    assert iv.lo == pytest.approx(0) and iv.hi == pytest.approx(1)


def test_coverage_interval_two_edges():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    iv = coverage_interval(P, 1, 2, Segment((0, 0), (2, 0)), 0.1)
    assert iv.lo == pytest.approx(0) and iv.hi == pytest.approx(1)


def test_coverage_interval_far_segment():
    P = curve_from_points([(0, 0), (1, 0), (2, 0)])
    assert coverage_interval(P, 1, 2, Segment((0, 9), (2, 9)), 0.1).is_empty()


def test_coverage_interval_union_over_longer_windows():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        P = PolyCurve(rng.uniform(-1, 1, size=(n, 2)))
        seg = Segment(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        delta = float(rng.uniform(0.3, 1.5))
        i = int(rng.integers(1, n - 1))
        j = int(rng.integers(i, n))
        iv = coverage_interval(P, i, j, seg, delta)
        if iv.is_empty():
            continue
        union = [coverage_interval(P, i, jj, seg, delta) for jj in range(j, P.num_edges + 1)]
        for x in np.linspace(iv.lo, iv.hi, 7):
            assert any(u.contains(x) for u in union if not u.is_empty())


def test_extremal_single_edge_parallel():
    Y = curve_from_points([(0, 0), (10, 0)])
    ep = extremal_points(Y, Segment((0, 1), (10, 1)), 2)
    assert ep is not None
    assert ep.s == pytest.approx(0.0, abs=1e-12)
    assert ep.t == pytest.approx(1.0, abs=1e-12)


def test_extremal_infeasible():
    Y = curve_from_points([(0, 0), (10, 0)])
    assert extremal_points(Y, Segment((0, 9), (10, 9)), 2) is None


def test_extremal_reversed_segment():
    Y = curve_from_points([(0, 0), (10, 0)])
    ep = extremal_points(Y, Segment((10, 1), (0, 1)), 2)
    assert ep is not None
    assert ep.s > ep.t
    # antidiagonal band: s = 1 - sqrt(3)/10, t = sqrt(3)/10
    assert ep.s == pytest.approx(1 - np.sqrt(3) / 10)
    assert ep.t == pytest.approx(np.sqrt(3) / 10)


def _coverage_measure_of_subedge(Y, seg, s, t, delta, samples=120):
    from subcover.freespace import psi_ij_contains as psi

    sub = Segment(seg.at(s), seg.at(t))
    xs = np.linspace(0, 1, samples)
    count = 0
    for x in xs:
        ep = Y.locate(x)
        if psi(Y, 1, Y.n, ep, sub, delta):
            count += 1
    return count


def test_extremal_dominates_random_subedges():
    rng = np.random.default_rng(4)
    done = 0
    while done < 25:
        m = int(rng.integers(1, 5))
        Y = PolyCurve(rng.uniform(-1, 1, size=(m + 1, 2)))
        seg = Segment(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        delta = float(rng.uniform(0.4, 1.5))
        ep = extremal_points(Y, seg, delta)
        if ep is None:
            continue
        xs = np.linspace(0, 1, 60)
        star = set()
        sub_star = Segment(seg.at(ep.s), seg.at(ep.t))
        # extremal parameters sit exactly on free-space boundaries; a 1e-9
        # slack keeps boundary-degenerate points from flipping under floats
        for x in xs:
            p = Y.locate(x)
            if psi_ij_contains(Y, 1, Y.n, p, sub_star, delta + 1e-9):
                star.add(round(float(x), 9))
        for _ in range(6):
            s, t = sorted(rng.uniform(0, 1, size=2))
            sub = Segment(seg.at(s), seg.at(t))
            for x in xs:
                p = Y.locate(x)
                if psi_ij_contains(Y, 1, Y.n, p, sub, delta):
                    assert round(float(x), 9) in star, (Y.vertices, seg, delta, s, t, x)
        done += 1


def test_extremal_deformation_preserves_coverage():
    rng = np.random.default_rng(5)
    done = 0
    while done < 15:
        m = int(rng.integers(1, 4))
        Y = PolyCurve(rng.uniform(-1, 1, size=(m + 1, 2)))
        seg = Segment(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        delta = float(rng.uniform(0.5, 1.5))
        ep = extremal_points(Y, seg, delta)
        if ep is None:
            continue
        s, t = sorted(rng.uniform(0, 1, size=2))
        xs = np.linspace(0, 1, 40)
        base = [
            x
            for x in xs
            if psi_ij_contains(Y, 1, Y.n, Y.locate(x), Segment(seg.at(s), seg.at(t)), delta)
        ]
        if not base:
            continue
        for lam in (0.25, 0.5, 0.75):
            s2 = s + lam * (ep.s - s)
            t2 = t + lam * (ep.t - t)
            sub = Segment(seg.at(s2), seg.at(t2))
            for x in base:
                assert psi_ij_contains(Y, 1, Y.n, Y.locate(x), sub, delta + 1e-9)
        done += 1
