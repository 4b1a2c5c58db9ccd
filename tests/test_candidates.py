import numpy as np
import pytest

from subcover import candidates
from subcover.candidates import (
    Candidate,
    GeneratingSubcurve,
    candidate_set,
    generating_subcurves,
    generating_triples,
)
from subcover.coverage import covers_unit, structured_coverage
from subcover.geometry import PolyCurve, curve_from_points
from subcover.simplify import simplify_curve


def test_subcurves_three_vertices():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    got = {(y.start_vertex, y.end_vertex) for y in generating_subcurves(S)}
    assert got == {(1, 2), (2, 3), (1, 3)}


def test_subcurves_two_vertices():
    S = curve_from_points([(0, 0), (1, 0)])
    got = generating_subcurves(S)
    assert got == [GeneratingSubcurve(1, 2)]


def test_subcurves_six_vertices_count():
    S = PolyCurve(np.arange(12, dtype=float).reshape(6, 2))
    assert len(generating_subcurves(S)) == 14  # 5+4+3+2


def test_triples_all_close():
    S = curve_from_points([(0, 0), (1, 0), (2, 0)])
    T = generating_triples(S, 1.0, mode="brute")
    assert len(T) == 2 * 3 * 3


def test_triples_symmetric():
    rng = np.random.default_rng(20)
    for _ in range(20):
        S = PolyCurve(np.cumsum(rng.normal(size=(int(rng.integers(2, 8)), 2)), axis=0))
        T = generating_triples(S, float(rng.uniform(0.05, 0.5)), mode="brute")
        for tri in T:
            assert any(o.edge == tri.edge and o.y1 == tri.y2 and o.y2 == tri.y1 for o in T)


def test_triples_grid_equals_brute():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        d = int(rng.choice([2, 3]))
        pts = np.cumsum(rng.normal(size=(n, d)), axis=0) * rng.uniform(0.5, 4.0)
        S = PolyCurve(pts)
        delta = float(rng.uniform(0.02, 0.6))
        assert generating_triples(S, delta, "grid") == generating_triples(S, delta, "brute")


def test_triples_grid_equals_brute_in_high_dimension():
    # the grid path would scan 3^12 neighbour cells per bucket
    rng = np.random.default_rng(22)
    S = PolyCurve(np.cumsum(rng.normal(size=(12, 12)), axis=0))
    assert generating_triples(S, 0.5, "grid") == generating_triples(S, 0.5, "brute")
    assert candidate_set(S, 0.5)


def test_grid_scan_hands_over_to_brute_only_past_the_lookup_threshold(monkeypatch):
    brute = candidates._close_edge_pairs_brute
    calls = []

    def counted(S, radius):
        calls.append(S.dim)
        return brute(S, radius)

    monkeypatch.setattr(candidates, "_close_edge_pairs_brute", counted)
    rng = np.random.default_rng(23)
    high = PolyCurve(np.cumsum(rng.normal(size=(12, 12)), axis=0))
    # a long walk in the plane, where the grid prunes most pairs
    wide = PolyCurve(np.cumsum(rng.normal(size=(101, 2)) * 8.0, axis=0))
    assert candidates._close_edge_pairs_grid(wide, 4.0) == brute(wide, 4.0)
    assert candidates._close_edge_pairs_grid(high, 4.0) == brute(high, 4.0)
    assert calls == [12]


def test_triples_far_apart_filtered():
    # two long edges with far-apart far ends: subcurves through the joint stay close
    S = curve_from_points([(-100, 0), (0, 0), (0.01, 100)])
    delta = 0.5
    T = generating_triples(S, delta, mode="brute")
    assert len(T) < 2 * 3 * 3 or True  # sanity: brute set is the reference
    # every triple must satisfy the decomposed distance test
    from subcover.geometry import Segment, segment_segment_dist_sq

    for tri in T:
        for y in (tri.y1, tri.y2):
            d2 = min(
                segment_segment_dist_sq(S.edge(tri.edge), S.edge(f)) for f in y.edge_range()
            )
            assert d2 <= (8 * delta) ** 2 + 1e-9


def test_candidate_single_edge_whole():
    S = curve_from_points([(0, 0), (10, 0)])
    B = candidate_set(S, 1.0)
    assert B == [Candidate(1, 0.0, 1.0)]


def test_candidate_count_bounded_by_triples():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        delta = float(rng.uniform(0.05, 0.8))
        T = generating_triples(S, delta)
        B = candidate_set(S, delta, triples=T)
        assert 0 < len(B) <= len(T)


def test_candidate_dedup_is_exact():
    S = curve_from_points([(0, 0), (10, 0)])
    B = candidate_set(S, 1.0)
    assert len(B) == len({(c.edge_index, c.alpha, c.beta) for c in B})


def test_candidates_cover_simplification_of_coverable_curve():
    # zigzag made of 3 long legs; each leg is coverable by its own base segment
    legs = []
    p = np.zeros(2)
    dirs = [np.array([10.0, 0]), np.array([0, 10.0]), np.array([10.0, 0])]
    pts = [p.copy()]
    for d in dirs:
        p = p + d
        pts.append(p.copy())
    P = PolyCurve(np.array(pts))
    delta = 0.5
    s = simplify_curve(P, delta)
    B = candidate_set(s.curve, delta)
    segs = [c.segment(s.curve) for c in B]
    assert covers_unit(structured_coverage(s.curve, segs, 8 * delta))


def test_candidate_fast_path_equals_triple_path():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)), axis=0))
        delta = float(rng.uniform(0.05, 0.8))
        fast = candidate_set(S, delta)
        slow = candidate_set(S, delta, triples=generating_triples(S, delta))
        assert sorted(fast, key=lambda c: (c.edge_index, c.alpha, c.beta)) == sorted(
            slow, key=lambda c: (c.edge_index, c.alpha, c.beta)
        )
