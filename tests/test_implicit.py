from bisect import bisect_right
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest

import subcover.implicit as implicit
import subcover.solver as solver
from subcover.candidates import Candidate
from subcover.coverage import feasible_rectangles
from subcover.geometry import EdgePoint, PolyCurve, curve_from_points, point_segment_dist_sq
from subcover.implicit import EdgeArrangement, EdgeGrid, implicit_approx_cover
from subcover.oracle import covers_unit as oracle_covers, full_coverage
from subcover.solver import SolverConfig
from subcover.simplify import simplify_curve


def arrangement(S, delta, log, feas_delta=None):
    """The arrangement at grid spacing delta after the updates of log, in order."""
    base = EdgeArrangement(S, delta, delta if feas_delta is None else feas_delta)
    return reduce(EdgeArrangement.rebuilt_with, log, base)


def explicit_weights(arr, log):
    """Reference: per-candidate doubling counts from the continuous rectangles."""
    S = arr.S
    out = {}
    rect_sets = []
    for t in log:
        rect_sets.append(
            {e: feasible_rectangles(S, t, e, arr.feas_delta) for e in range(1, S.num_edges + 1)}
        )
    for e in range(1, S.num_edges + 1):
        grid = arr.grids[e - 1]
        vals = grid.values()
        for xi, a in enumerate(vals):
            for yi, b in enumerate(vals):
                s = 0
                for rs in rect_sets:
                    if any(r[0] <= a <= r[1] and r[2] <= b <= r[3] for r in rs[e]):
                        s += 1
                out[(e, xi, yi)] = 1 << s
    return out


def candidate_probability(arr, edge, xj, yj):
    """Probability of one grid candidate, read off its cell's exponent."""
    c = arr.cells[edge - 1]
    xi = int(np.searchsorted(c.xcuts, xj, side="right")) - 1
    yi = int(np.searchsorted(c.ycuts, yj, side="right")) - 1
    return (1 << int(c.exponent[xi, yi])) / arr.total_weight


def small_curve():
    return curve_from_points([(0, 0), (3, 0), (3, 2)])


def test_grid_construction_covers_unit_interval():
    g = EdgeGrid.for_edge_length(3.0, 1.0)
    assert np.allclose(g.values(), [0, 1 / 3, 2 / 3, 1.0])
    g2 = EdgeGrid.for_edge_length(2.0, 1.0)  # 0, 0.5, 1 exactly on lattice
    assert np.allclose(g2.values(), [0, 0.5, 1.0])
    assert not g2.has_extra
    g3 = EdgeGrid.for_edge_length(0.0, 1.0)
    assert np.allclose(g3.values(), [0, 1.0])


def test_grid_index_range_matches_pointwise():
    rng = np.random.default_rng(40)
    for _ in range(300):
        g = EdgeGrid.for_edge_length(float(rng.uniform(0.1, 5)), float(rng.uniform(0.05, 1.5)))
        vals = g.values()
        assert vals[: g.lattice].tolist() == [j * g.spacing for j in range(g.lattice)]
        # random bounds, and bounds on grid values, in either order
        lo, hi = rng.uniform(-0.1, 1.1, size=(2, 8))
        lo[:3], hi[2:4] = rng.choice(vals, 3), rng.choice(vals, 2)
        first, last = g.index_range(lo, hi)
        for a, b, i, k in zip(lo, hi, first, last):
            assert {j for j, v in enumerate(vals) if a <= v <= b} == set(range(i, k + 1))


def test_empty_log_uniform():
    S = small_curve()
    arr = arrangement(S, 0.5, [])
    assert arr.total_weight == sum(g.size**2 for g in arr.grids)
    for c in arr.cells:
        assert np.all(c.exponent == 0)


def test_one_update_doubles_rectangle():
    S = small_curve()
    t = EdgePoint(1, 0.5)
    arr = arrangement(S, 0.5, [t], feas_delta=1.0)
    ref = explicit_weights(arr, [t])
    assert arr.total_weight == sum(ref.values())
    assert any(w == 2 for w in ref.values())


def test_weights_equal_explicit_on_random_logs():
    rng = np.random.default_rng(41)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)) * 2, axis=0))
        delta = float(rng.uniform(0.4, 1.2))
        log = [
            S.locate(float(rng.uniform(0, 1)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        arr = arrangement(S, delta, log, feas_delta=2.0 * delta)
        ref = explicit_weights(arr, log)
        assert arr.total_weight == sum(ref.values())
        # per-candidate probabilities agree exactly
        for (e, xi, yi), w in ref.items():
            assert candidate_probability(arr, e, xi, yi) == w / arr.total_weight


def test_feasible_weight_matches_explicit():
    rng = np.random.default_rng(42)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)) * 2, axis=0))
        delta = float(rng.uniform(0.4, 1.2))
        log = [S.locate(float(rng.uniform(0, 1))) for _ in range(int(rng.integers(0, 4)))]
        arr = arrangement(S, delta, log, feas_delta=2.0 * delta)
        ref = explicit_weights(arr, log)
        t = S.locate(float(rng.uniform(0, 1)))
        # explicit feasible weight: sum of weights over rect-feasible candidates
        want = 0
        for e in range(1, S.num_edges + 1):
            rects = feasible_rectangles(S, t, e, 2.0 * delta)
            vals = arr.grids[e - 1].values()
            for xi, a in enumerate(vals):
                for yi, b in enumerate(vals):
                    if any(r[0] <= a <= r[1] and r[2] <= b <= r[3] for r in rects):
                        want += ref[(e, xi, yi)]
        assert arr.feasible_weight(t) == want / arr.total_weight
        # the update adds exactly the feasible weight
        assert arr.rebuilt_with(t).total_weight == arr.total_weight + want


def test_feasible_weight_bounds():
    S = small_curve()
    t = EdgePoint(1, 0.5)
    assert arrangement(S, 0.5, [], feas_delta=100.0).feasible_weight(t) == pytest.approx(1.0)
    assert arrangement(S, 0.5, [], feas_delta=1e-12).feasible_weight(t) < 1.0
    far = arrangement(S, 0.5, [], feas_delta=1e-9)
    assert far.feasible_weight(EdgePoint(2, 0.9)) > 0.0  # self cover survives


def test_rebuild_deterministic():
    S = small_curve()
    log = [EdgePoint(1, 0.3), EdgePoint(2, 0.7)]
    a1 = arrangement(S, 0.5, log, feas_delta=1.0)
    a2 = arrangement(S, 0.5, log, feas_delta=1.0)
    assert a1.total_weight == a2.total_weight
    assert all(np.array_equal(c1.cum, c2.cum) for c1, c2 in zip(a1.cells, a2.cells))


def within_reach(S, t, radius):
    """Edges with a point within radius of t's point, by the scalar distance."""
    pt = S.edge_point_coords(t)
    return [e for e in range(1, S.num_edges + 1)
            if point_segment_dist_sq(pt, S.vertex(e), S.vertex(e + 1)) <= radius * radius]


def test_update_cost_does_not_grow_with_the_log(monkeypatch):
    # an update computes the witness's rectangles once per edge within reach
    # of it, shared by feasible_weight and rebuilt_with, whatever updates
    # came before it
    calls = []
    rectangles = implicit.feasible_rectangles

    def counted(*args):
        calls.append(args)
        return rectangles(*args)

    monkeypatch.setattr(implicit, "feasible_rectangles", counted)
    S = curve_from_points([(0, 0), (3, 0), (3, 2), (0.5, 1.5)])
    arr = arrangement(S, 0.35, [], feas_delta=1.2)
    for t in (EdgePoint(1, 0.3), EdgePoint(2, 0.7), EdgePoint(3, 0.0),
              EdgePoint(1, 0.3), EdgePoint(2, 1.0), EdgePoint(3, 0.5)):
        calls.clear()
        arr.feasible_weight(t)
        arr = arr.rebuilt_with(t)
        assert [c[2] for c in calls] == within_reach(S, t, 1.2)


def reach_scenes():
    """Curves, grid spacings, radii and witnesses: random walks, and lattice
    walks at integer radii, where points lie exactly at the radius."""
    rng = np.random.default_rng(44)
    for trial in range(16):
        n = int(rng.integers(2, 7))
        if trial % 2:
            pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
            pts = pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]
            if len(pts) < 2:
                continue
            S, delta, radius = PolyCurve(pts), 0.5, float(rng.integers(1, 3))
        else:
            S = PolyCurve(np.cumsum(rng.normal(size=(n, 2)) * 2, axis=0))
            delta = float(rng.uniform(0.4, 1.2))
            radius = 2.0 * delta
        log = [EdgePoint(e, u) for e in range(1, S.num_edges + 1) for u in (0.0, 0.5, 1.0)]
        log += [S.locate(float(x)) for x in rng.uniform(0, 1, 3)]
        yield S, delta, radius, log


def test_edges_out_of_reach_have_no_feasible_rectangles():
    skipped = 0
    for S, delta, radius, log in reach_scenes():
        arr = EdgeArrangement(S, delta, radius)
        for t in log:
            for e in np.flatnonzero(~arr._in_reach(t)).tolist():
                skipped += 1
                assert feasible_rectangles(S, t, e + 1, radius) == (), (t, e + 1)
    assert skipped > 0


def test_the_reach_filter_leaves_cells_weights_and_draws_bitwise_unchanged(monkeypatch):
    for S, delta, radius, log in reach_scenes():
        log = log[::2]
        got = arrangement(S, delta, log, feas_delta=radius)
        with monkeypatch.context() as mp:
            mp.setattr(EdgeArrangement, "_in_reach", lambda self, t: np.ones(self.S.num_edges, dtype=bool))
            want = arrangement(S, delta, log, feas_delta=radius)
            want_mass = [want.feasible_weight(t) for t in log]
        assert got.total_weight == want.total_weight
        for a, b in zip(got.cells, want.cells):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert [got.feasible_weight(t) for t in log] == want_mass
        draws = [arr.sample_candidates(200, np.random.default_rng(5)) for arr in (got, want)]
        assert np.array_equal(*draws)


@pytest.mark.parametrize("delta", [2.5e-10, 1e-10])
def test_huge_grids_weigh_exactly(delta):
    # a unit edge at these spacings has more than 2**63 grid candidates
    S = curve_from_points([(0, 0), (1, 0)])
    arr = EdgeArrangement(S, delta, 9.0 * delta)
    assert arr.total_weight == arr.grids[0].size ** 2
    keys = arr.sample_candidates(50, np.random.default_rng(11))
    assert keys.dtype == object
    assert all(arr.candidate_at(k).edge_index == 1 for k in keys)


def test_an_update_across_the_int64_threshold_stays_exact():
    # the unit edge's 2e9 + 1 grid points weigh just below 2**62, and the
    # update about doubles that: the step runs in int64, its result is held
    # as Python integers
    S = curve_from_points([(0, 0), (1, 0)])
    arr = EdgeArrangement(S, 5e-10, 4.5e-9)
    assert arr.cells[0].cum.dtype == np.int64
    new = arr.rebuilt_with(EdgePoint(1, 0.5))
    assert arr.total_weight < implicit._INT64_TOTAL <= new.total_weight
    assert all(c.cum.dtype == object for c in new.cells)
    assert cumulative_weights(new) == reference_cells(new)[1]
    keys = new.sample_candidates(50, np.random.default_rng(12))
    assert keys.dtype == object
    assert all(new.candidate_at(k).edge_index == 1 for k in keys)


def test_sampler_uniform_tv_distance():
    S = curve_from_points([(0, 0), (2, 0)])
    arr = arrangement(S, 0.5, [])  # 5x5 grid on one edge
    size = arr.grids[0].size
    assert size == 5
    rng = np.random.default_rng(43)
    draws = [arr.candidate_at(key) for key in arr.sample_candidates(100_000, rng)]
    counts = {}
    for c in draws:
        key = (round(c.alpha, 9), round(c.beta, 9))
        counts[key] = counts.get(key, 0) + 1
    tv = 0.5 * sum(abs(v / 100_000 - 1 / 25) for v in counts.values())
    tv += 0.5 * (25 - len(counts)) / 25  # unseen cells
    assert tv <= 0.02


def test_sampler_respects_doubling():
    S = curve_from_points([(0, 0), (2, 0)])
    t = EdgePoint(1, 0.5)
    arr = arrangement(S, 2.0, [t], feas_delta=5.0)  # grid {0,1}^2, all feasible
    # every candidate doubled once: uniform again
    rng = np.random.default_rng(44)
    draws = [arr.candidate_at(key) for key in arr.sample_candidates(20_000, rng)]
    keys = {(c.alpha, c.beta) for c in draws}
    assert len(keys) == 4


def reference_cells(arr):
    """Every cell as (edge, xi, yi) in candidate order, with the cumulative
    weights, from the per-edge cuts and exponents alone."""
    index, weights = [], []
    for e, c in enumerate(arr.cells):
        for xi in range(len(c.xcuts) - 1):
            for yi in range(len(c.ycuts) - 1):
                count = int(c.xcuts[xi + 1] - c.xcuts[xi]) * int(c.ycuts[yi + 1] - c.ycuts[yi])
                index.append((e, xi, yi))
                weights.append(count << int(c.exponent[xi, yi]))
    return index, list(accumulate(weights))


def cumulative_weights(arr):
    """The cumulative cell weights over all edges, from each edge's own."""
    out, below = [], 0
    for c in arr.cells:
        out += [below + int(v) for v in c.cum]
        below = out[-1]
    return out


def reference_candidate(arr, x):
    """Reference for the sampler: the integer x of [0, total) turned into a
    Candidate by a bisection on the cells and index arithmetic."""
    index, cum = reference_cells(arr)
    ci = bisect_right(cum, x)
    e, xi, yi = index[ci]
    c = arr.cells[e]
    j = (x - (cum[ci - 1] if ci else 0)) >> int(c.exponent[xi, yi])
    ya, yb = int(c.ycuts[yi]), int(c.ycuts[yi + 1])
    xj = int(c.xcuts[xi]) + j // (yb - ya)
    yj = ya + j % (yb - ya)
    grid = arr.grids[e]
    return Candidate(e + 1, grid.value(xj), grid.value(yj))


def test_sampled_numbers_are_the_per_draw_candidates():
    S = curve_from_points([(0, 0), (3, 0), (3, 2), (0.5, 1.5)])
    arr = arrangement(S, 0.35, [], feas_delta=1.2)
    for t in (EdgePoint(1, 0.3), EdgePoint(2, 0.7), EdgePoint(3, 0.0), EdgePoint(1, 0.3)):
        assert cumulative_weights(arr) == reference_cells(arr)[1]
        for seed in (7, 8):
            keys = arr.sample_candidates(3000, np.random.default_rng(seed))
            assert keys.dtype == np.int64
            xs = np.random.default_rng(seed).integers(0, arr.total_weight, size=3000, dtype=np.int64)
            assert [arr.candidate_at(k) for k in keys] == [reference_candidate(arr, x) for x in xs.tolist()]
        arr = arr.rebuilt_with(t)  # the next arrangement has one more update


def test_bigint_draws_follow_the_per_draw_arithmetic(monkeypatch):
    # past the int64 threshold each draw is one Python integer
    S = curve_from_points([(0, 0), (3, 0), (3, 2)])
    monkeypatch.setattr(implicit, "_INT64_TOTAL", 1)
    arr = arrangement(S, 0.5, [EdgePoint(1, 0.5), EdgePoint(2, 0.25)], feas_delta=1.0)
    assert all(c.cum.dtype == object for c in arr.cells)
    keys = arr.sample_candidates(500, np.random.default_rng(9))
    assert keys.dtype == object
    rng = np.random.default_rng(9)
    want = [reference_candidate(arr, implicit._bigint_uniform(rng, arr.total_weight)) for _ in range(500)]
    assert [arr.candidate_at(k) for k in keys] == want


def test_sample_single_candidate_grid():
    S = curve_from_points([(0, 0), (0.5, 0)])
    arr = arrangement(S, 10.0, [])
    rng = np.random.default_rng(45)
    # spacing > 1: grid {0, 1} -> 4 candidates; shrink to the degenerate check
    c = arr.candidate_at(arr.sample_candidates(1, rng)[0])
    assert c.edge_index == 1


def test_implicit_cover_small_instance():
    P = curve_from_points([(0, 0), (10, 0)])
    res = implicit_approx_cover(P, 1.0, SolverConfig(rng_seed=3, variant="implicit"))
    s = simplify_curve(P, 1.0)
    segs = res.center_segments(s.curve)
    assert oracle_covers(full_coverage(P, segs, 12.0))
    assert res.delta_out == pytest.approx(9.0)


def test_implicit_cover_zigzag():
    pts = [(0, 0), (10, 0), (10, 8), (20, 8)]
    P = curve_from_points(pts)
    res = implicit_approx_cover(P, 1.0, SolverConfig(rng_seed=5, variant="implicit"))
    s = simplify_curve(P, 1.0)
    segs = res.center_segments(s.curve)
    assert oracle_covers(full_coverage(P, segs, 12.0))


def test_implicit_cover_reuses_a_given_simplification(monkeypatch):
    P = curve_from_points([(0, 0), (10, 0), (10, 8), (20, 8)])
    cfg = SolverConfig(rng_seed=5, variant="implicit")
    expected = implicit_approx_cover(P, 1.0, cfg)
    simp = simplify_curve(P, 1.0)

    def no_simplify(*args):
        raise AssertionError("simplified again")

    monkeypatch.setattr(solver, "simplify_curve", no_simplify)
    got = implicit_approx_cover(P, 1.0, cfg, simplification=simp)
    assert got.centers == expected.centers
    assert got.iterations == expected.iterations


def test_weight_growth_check_guards_implicit_solves(monkeypatch):
    # a feasible weight reported as 0 lets heavy sets be doubled, which
    # breaks the bound on the growth of the total weight
    monkeypatch.setattr(implicit.EdgeArrangement, "feasible_weight", lambda self, t: 0.0)
    P = curve_from_points([(0, 0), (20, 0), (20, 20)])
    with pytest.raises(RuntimeError, match="weight growth bound violated"):
        implicit_approx_cover(P, 1.0, SolverConfig(rng_seed=1, k_prime_override=2))


def test_proper_iterations_total_the_updates_of_every_k_phase(monkeypatch):
    # A reported count of 4 grid candidates makes i_max 10 at k = 2 and 1 at
    # k = 4, so the k = 2 phase spends its updates and a larger k covers.
    rebuilds = []
    rebuilt_with = implicit.EdgeArrangement.rebuilt_with

    def counted(self, t):
        rebuilds.append(t)
        return rebuilt_with(self, t)

    monkeypatch.setattr(implicit.EdgeArrangement, "rebuilt_with", counted)
    monkeypatch.setattr(implicit.EdgeArrangement, "candidate_count", lambda self: 4)
    P = curve_from_points([(0, 0), (30, 0), (15, 26), (0, 0)])
    res = implicit_approx_cover(P, 1.0, SolverConfig(rng_seed=3, k_prime_override=3))
    assert res.k_found >= 4
    assert res.proper_iterations == len(rebuilds) > 0
