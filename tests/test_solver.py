import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import subcover.solver as solver
from subcover.candidates import Candidate, candidate_segments, candidate_set
from subcover.coverage import (
    Coverage,
    batch_candidate_coverage,
    batch_feasible_mask,
    covers_unit,
    merge_intervals,
    point_not_covered_from_intervals,
    structured_coverage,
)
from subcover.geometry import Interval, PolyCurve, Segment, curve_from_points
from subcover.implicit import implicit_approx_cover
from subcover.oracle import covers_unit as oracle_covers, full_coverage, min_cover_exhaustive
from subcover.simplify import simplify_curve
from subcover.solver import (
    CoverResult,
    ExplicitDist,
    GreedyCore,
    SolverConfig,
    SolverFailure,
    approx_cover,
    greedy_max_coverage,
    k_approx_cover,
    sample_indices,
    shrink_cover,
    weight_update,
)


def noisy_passes(rng, k_rep, n_per=9, noise=0.1, length=10.0):
    """Back-and-forth noisy passes over a fixed base segment."""
    pts = []
    for rep in range(k_rep):
        xs = np.linspace(0, length, n_per)
        if rep % 2 == 1:
            xs = xs[::-1]
        if rep > 0:
            xs = xs[1:]
        for x in xs:
            pts.append((x, rng.uniform(-noise, noise)))
    arr = np.array(pts)
    keep = [0]
    for i in range(1, len(arr)):
        if not np.array_equal(arr[i], arr[keep[-1]]):
            keep.append(i)
    return PolyCurve(arr[keep])


def test_weight_update_examples():
    cands = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0)]
    d0 = ExplicitDist.uniform(cands)
    d1 = weight_update(d0, [1])
    assert d1.weights.tolist() == [1.0, 2.0]
    assert d1.probability(np.array([1])) == pytest.approx(2 / 3)
    d2 = weight_update(d1, [])
    assert d2.weights.tolist() == [1.0, 2.0]
    d3 = weight_update(weight_update(d0, [1]), [1])
    assert d3.weights.tolist() == [1.0, 4.0]
    # a repeated index counts once, and F may be an index array
    assert weight_update(d0, [1, 0, 1]).weights.tolist() == [2.0, 2.0]
    assert weight_update(d0, np.array([1, 1])).weights.tolist() == [1.0, 2.0]


def test_weight_update_renormalizes_instead_of_overflowing():
    import math

    d = ExplicitDist.uniform([Candidate(1, 0.0, 1.0), Candidate(1, 0.0, 0.5)])
    for _ in range(700):
        d = weight_update(d, [0])
    assert np.isfinite(d.total)
    assert d.log2_total() == pytest.approx(math.log2(2**700 + 1), rel=1e-9)


def test_sample_statistics():
    rng = np.random.default_rng(0)
    cands = [Candidate(1, 0.0, x) for x in (0.2, 0.4, 0.6, 0.8)]
    d = ExplicitDist.uniform(cands)
    counts = sample_indices(d, 100_000, rng)
    assert counts.sum() == 100_000
    freq = counts / 100_000
    sigma = np.sqrt(0.25 * 0.75 / 100_000)
    assert np.all(np.abs(freq - 0.25) <= 3 * sigma + 1e-12)


def test_sample_single_candidate():
    rng = np.random.default_rng(1)
    d = ExplicitDist.uniform([Candidate(1, 0.0, 1.0)])
    assert sample_indices(d, 50, rng).tolist() == [50]


def test_sample_weighted_ratio():
    rng = np.random.default_rng(2)
    cands = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0)]
    d = ExplicitDist(cands, np.array([1.0, 3.0]))
    p1 = sample_indices(d, 50_000, rng)[1] / 50_000
    assert p1 == pytest.approx(0.75, abs=0.01)


def test_round_inclusion_frequencies_match_independent_draws():
    # a candidate is among a round's distinct draws with probability
    # 1 - (1 - p)^k' when the k' draws are independent
    rng = np.random.default_rng(5)
    weights = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 24.5])
    d = ExplicitDist([Candidate(1, 0.0, x) for x in np.linspace(0.1, 1.0, 6)], weights)
    k_prime, rounds = 5, 20_000
    hits = np.zeros(len(weights))
    for _ in range(rounds):
        hits[np.flatnonzero(sample_indices(d, k_prime, rng))] += 1
    q = 1.0 - (1.0 - weights / weights.sum()) ** k_prime
    sigma = np.sqrt(q * (1.0 - q) / rounds)
    assert np.all(np.abs(hits / rounds - q) <= 4.0 * sigma)


def test_round_memory_does_not_grow_with_the_draw_count():
    d = ExplicitDist([Candidate(1, 0.0, x) for x in (0.25, 0.5, 1.0)], np.array([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        counts = sample_indices(d, 10**12, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (3,) and int(counts.sum()) == 10**12
    assert np.flatnonzero(counts).tolist() == [0, 1, 2]
    assert peak < 10**6


def test_k_approx_cover_trivial_single_candidate():
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 1.0)]
    d = ExplicitDist.uniform(B)
    rng = np.random.default_rng(3)
    res = k_approx_cover(S, d, r=4.0, delta_p=0.5, k_prime=5, i_max=10, rng=rng)
    assert res is not None and res.centers == B


def test_k_approx_cover_i_max_zero_gives_none():
    S = curve_from_points([(0, 0), (10, 0)])
    d = ExplicitDist.uniform([Candidate(1, 0.0, 1.0)])
    rng = np.random.default_rng(4)
    assert k_approx_cover(S, d, 4.0, 0.5, 5, 0, rng) is None


def test_k_approx_cover_weights_double_until_sampled():
    # three candidates: only the third covers the whole edge; its weight
    # starts vanishingly small and doubles each proper iteration until drawn
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 0.1), Candidate(1, 0.05, 0.12), Candidate(1, 0.0, 1.0)]
    d = ExplicitDist.on(S, B, 0.1, np.array([1e6, 1e6, 1.0]))
    rng = np.random.default_rng(5)
    res = k_approx_cover(S, d, r=4.0, delta_p=0.1, k_prime=1, i_max=400, rng=rng)
    assert res is not None
    assert any(c.beta == 1.0 for c in res.centers)


def test_weight_growth_check_survives_python_O():
    # The check must raise even when assertions are stripped.  A weight
    # update that also doubles every weight breaks the growth bound.
    code = textwrap.dedent(
        """
        import numpy as np
        from subcover import solver
        from subcover.candidates import Candidate
        from subcover.geometry import curve_from_points
        assert False, "assertions must be off"
        real = solver.weight_update
        solver.weight_update = lambda d, F: real(real(d, range(len(d.candidates))), F)
        S = curve_from_points([(0, 0), (10, 0)])
        B = [Candidate(1, 0.0, 0.1), Candidate(1, 0.05, 0.12), Candidate(1, 0.0, 1.0)]
        d = solver.ExplicitDist.on(S, B, 0.1, np.array([1e6, 1e6, 1.0]))
        rng = np.random.default_rng(5)
        try:
            solver.k_approx_cover(S, d, r=4.0, delta_p=0.1, k_prime=1, i_max=400, rng=rng)
        except RuntimeError as exc:
            print("raised:", exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "raised: weight growth bound violated" in proc.stdout


@pytest.mark.parametrize("solve", [approx_cover, implicit_approx_cover])
def test_size_cap_failure_has_the_same_diagnostics_for_both_weightings(solve):
    P = curve_from_points([(0, 0), (10, 0)])
    with pytest.raises(SolverFailure) as failure:
        solve(P, 1.0, SolverConfig(max_k=1))
    diagnostics = failure.value.diagnostics
    assert set(diagnostics) == {
        "max_k", "candidates", "rounds", "proper_iterations", "feasible_mass", "feasibility", "phases",
    }
    assert (diagnostics["max_k"], diagnostics["rounds"], diagnostics["proper_iterations"]) == (1, 0, 0)
    assert diagnostics["feasible_mass"] == [] and diagnostics["phases"] == []
    if solve is approx_cover:
        assert diagnostics["feasibility"] == {
            "masks": 0, "table_queries": 0, "band_candidates": 0, "table_filled_at": None,
        }
    else:
        assert diagnostics["feasibility"] is None


def test_forced_k_prime_ends_the_search_at_the_first_phase_without_an_update():
    # Two centres are needed and k' = 1: every witness's feasible set is
    # heavy, so the k = 2 phase spends its 1,000 rounds without an update.
    # With k' fixed, the phases at k = 4 and 8 would only repeat that.  On
    # four candidates the whole fill costs less than a failed round, so the
    # table is filled before round 1; a witness repeated from the round
    # before is not queried again.
    P = curve_from_points([(0, 0), (20, 0), (20, 20)])
    with pytest.raises(SolverFailure, match="no weight update") as failure:
        approx_cover(P, 1.0, SolverConfig(rng_seed=1, k_prime_override=1, max_k=8))
    assert failure.value.diagnostics == {
        "max_k": 8, "candidates": 4, "rounds": 1000, "proper_iterations": 0, "feasible_mass": [],
        "feasibility": {"masks": 0, "table_queries": 491, "band_candidates": 0, "table_filled_at": 0},
        "phases": [{"k": 2, "k_prime": 1, "i_max": 10, "rounds": 1000, "proper_updates": 0}],
    }


def noisy_lapped(corners, n: int, laps: int, noise: float, seed: int = 1) -> PolyCurve:
    k = len(corners)
    corners = np.asarray(corners, dtype=float)
    t = np.linspace(0.0, float(k * laps), n, endpoint=False)
    f = (t - np.floor(t))[:, None]
    side = np.floor(t).astype(int) % k
    pts = (1.0 - f) * corners[side] + f * corners[(side + 1) % k]
    return PolyCurve(pts + np.random.default_rng(seed).normal(0.0, noise, pts.shape))


def recording(calls, fn):
    def call(*args, **kwargs):
        calls.append(args + (kwargs,))
        return fn(*args, **kwargs)

    return call


def returning(results, fn):
    def call(*args):
        results.append(fn(*args))
        return results[-1]

    return call


TRIANGLE = [(0.0, 0.0), (30.0, 0.0), (15.0, 26.0)]
SQUARE = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_explicit_feasible_set_equals_the_full_mask(monkeypatch, seed):
    sets = []
    feasible = solver._CoverageCache.feasible

    def spied(cache, t):
        got = feasible(cache, t)
        starts, ends = cache.segments
        sets.append((got.tolist(), np.flatnonzero(batch_feasible_mask(cache.S, t, starts, ends, cache.delta)).tolist()))
        return got

    monkeypatch.setattr(solver._CoverageCache, "feasible", spied)
    res = approx_cover(noisy_lapped(TRIANGLE, 60, 2, 0.15), 0.5, SolverConfig(rng_seed=seed, k_prime_override=4))
    assert res.feasibility["table_queries"] > 0
    assert len(sets) == res.feasibility["masks"] + res.feasibility["table_queries"]
    assert all(got == want for got, want in sets)
    assert len(res.feasible_mass) == res.proper_iterations
    assert all(0.0 < m <= 1.0 / 4.0 for m in res.feasible_mass)  # light at k = 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_seven_vertex_curve_fills_its_table_before_its_first_round(monkeypatch, seed):
    # At m = 7 the fill of all of B costs less than two failed rounds of
    # a fill of four draws and a mask over B, so it is the solve's one fill
    calls, masks, draws = [], [], []
    monkeypatch.setattr(solver, "batch_candidate_coverage", recording(calls, batch_candidate_coverage))
    monkeypatch.setattr(solver, "batch_feasible_mask", recording(masks, batch_feasible_mask))
    monkeypatch.setattr(ExplicitDist, "distinct_draws", returning(draws, ExplicitDist.distinct_draws))
    P = noisy_lapped(TRIANGLE, 60, 2, 0.15)
    S = simplify_curve(P, 0.5).curve
    B = candidate_set(S, 0.5)
    res = approx_cover(P, 0.5, SolverConfig(rng_seed=seed, k_prime_override=4))
    assert S.n == 7
    assert res.feasibility["table_filled_at"] == 0
    assert masks == [] and res.feasibility["masks"] == 0
    assert res.feasibility["table_queries"] >= res.proper_iterations > 0
    assert [(len(args[1]), kwargs) for *args, kwargs in calls] == [(len(B), {"windows": True})]
    # every draw is a cache hit
    assert res.coverage_filled == len(B)
    assert res.coverage_cache_hits == sum(d.size for d in draws)


def test_a_long_curve_with_few_updates_never_fills_its_table(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "batch_candidate_coverage", recording(calls, batch_candidate_coverage))
    P = noisy_lapped(SQUARE, 600, 3, 0.4)
    res = approx_cover(P, 0.5, SolverConfig(rng_seed=0, k_prime_override=8))
    fills = [len(args[1]) for args in calls]
    assert res.feasibility["table_filled_at"] is None
    assert res.feasibility["masks"] == res.iterations - 1 > 10
    assert res.feasibility["table_queries"] == 0
    assert max(fills) <= 8 and res.coverage_filled == sum(fills) < 8 * res.iterations


def test_a_first_round_cover_on_a_large_candidate_set_fills_only_its_draws(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "batch_candidate_coverage", recording(calls, batch_candidate_coverage))
    P = noisy_lapped(SQUARE, 600, 3, 0.4)
    simplification = simplify_curve(P, 0.5)
    B = candidate_set(simplification.curve, 0.5)
    res = approx_cover(P, 0.5, SolverConfig(rng_seed=0, gamma=1), simplification=simplification, candidates=B)
    assert len(B) > 1000 and res.iterations == 1
    assert [(len(args[1]), kwargs) for *args, kwargs in calls] == [(res.n_sampled, {})]
    assert res.coverage_filled == res.n_sampled
    assert res.feasibility == {"masks": 0, "table_queries": 0, "band_candidates": 0, "table_filled_at": None}


@st.composite
def small_lapped_solves(draw):
    """A noisy lapped triangle or square that simplifies to 4..9 vertices, and a seed."""
    corners = draw(st.sampled_from([TRIANGLE, SQUARE]))
    laps = draw(st.integers(1, 2))
    n = draw(st.integers(12, 30)) * laps
    noise = draw(st.sampled_from([0.05, 0.15, 0.3]))
    P = noisy_lapped(corners, n, laps, noise, seed=draw(st.integers(0, 2**16)))
    assume(4 <= simplify_curve(P, 0.5).curve.n <= 9)
    return P, draw(st.integers(0, 2**16))


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(small_lapped_solves())
def test_the_table_up_front_and_the_lazy_cache_give_the_same_solve(scene):
    # the fill price decides the policy: at 0 the table is filled before
    # round 1, and at 1e9 microseconds a window the rounds fill their draws
    # and the queries are masks, at least until every candidate is filled
    P, seed = scene
    runs = []
    for price in (0.0, 1e9):
        draws, sets = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_FILL_WINDOW_US", price)
            mp.setattr(ExplicitDist, "distinct_draws", returning(draws, ExplicitDist.distinct_draws))
            mp.setattr(solver._CoverageCache, "feasible", returning(sets, solver._CoverageCache.feasible))
            try:
                res = approx_cover(P, 0.5, SolverConfig(rng_seed=seed, k_prime_override=4))
            except SolverFailure as failure:
                res = failure.diagnostics
        if isinstance(res, dict):
            feasibility, out = res.pop("feasibility"), res
        else:
            S = simplify_curve(P, 0.5).curve
            feasibility = res.feasibility
            coverage = full_coverage(P, res.center_segments(S), 5.5)
            out = (
                [(c.edge_index, c.alpha.hex(), c.beta.hex()) for c in res.centers],
                res.iterations, res.proper_iterations, res.k_found, res.phases,
                [m.hex() for m in res.feasible_mass],
                [(iv.lo.hex(), iv.hi.hex()) for iv in coverage],
            )
        runs.append((out, [d.tolist() for d in draws], [f.tolist() for f in sets], feasibility))
    (out0, draws0, sets0, up_front), (out1, draws1, sets1, lazy) = runs
    assert out0 == out1 and draws0 == draws1 and sets0 == sets1
    assert up_front["table_filled_at"] == 0 and up_front["masks"] == 0
    assert lazy["table_filled_at"] != 0 and (lazy["masks"] > 0 or not sets1)


def test_approx_cover_single_segment():
    P = curve_from_points([(0, 0), (10, 0)])
    res = approx_cover(P, 1.0, SolverConfig(rng_seed=7))
    assert res.k_found == 2
    s = simplify_curve(P, 1.0)
    segs = res.center_segments(s.curve)
    assert covers_unit(structured_coverage(s.curve, segs, 8.0))
    assert oracle_covers(full_coverage(P, segs, 11.0))


def test_approx_cover_deterministic():
    rng = np.random.default_rng(8)
    P = noisy_passes(rng, 3)
    r1 = approx_cover(P, 1.0, SolverConfig(rng_seed=42))
    r2 = approx_cover(P, 1.0, SolverConfig(rng_seed=42))
    assert r1.centers == r2.centers
    assert r1.k_found == r2.k_found and r1.iterations == r2.iterations


def test_approx_cover_termination_bound_on_repetitions():
    rng = np.random.default_rng(9)
    for k_rep in (1, 2, 3):
        P = noisy_passes(rng, k_rep)
        res = approx_cover(P, 1.0, SolverConfig(rng_seed=11))
        assert res.k_found <= 24 * k_rep
        s = simplify_curve(P, 1.0)
        segs = res.center_segments(s.curve)
        assert oracle_covers(full_coverage(P, segs, 11.0))


def test_approx_cover_single_vertex_input():
    P = PolyCurve(np.array([[2.0, 3.0]]))
    res = approx_cover(P, 1.0, SolverConfig(rng_seed=1))
    assert res.centers


def test_approx_cover_rejects_bad_delta():
    P = curve_from_points([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        approx_cover(P, -1.0)


def test_greedy_full_cover_candidate_first():
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.2, 0.4), Candidate(1, 0.0, 1.0)]
    res = greedy_max_coverage(S, B, 0.5, 5)
    assert res.centers == [Candidate(1, 0.0, 1.0)]


def test_greedy_budget_limits_coverage():
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 0.45), Candidate(1, 0.55, 1.0)]
    res = greedy_max_coverage(S, B, 0.01, 1)
    assert len(res.centers) == 1
    segs = res.center_segments(S)
    assert not covers_unit(structured_coverage(S, segs, 0.01))


def test_greedy_submodular_ratio_against_exhaustive():
    # two disjoint halves, each needs its own candidate
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0), Candidate(1, 0.4, 0.6)]
    k_star = min_cover_exhaustive(S, B, 0.3)
    assert k_star == 2
    res = greedy_max_coverage(S, B, 0.3, 2)
    segs = res.center_segments(S)
    assert covers_unit(structured_coverage(S, segs, 0.3))


def test_greedy_ties_break_to_lowest_index():
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0)]
    res = greedy_max_coverage(S, B, 1e-6, 1)
    assert res.centers == [B[0]]


def reference_greedy(per, k_budget):
    """The greedy before ``GreedyCore``: rescans every candidate's union per step."""

    def measure(ivs):
        return sum(iv.length() for iv in merge_intervals(ivs))

    chosen, covered = [], []
    for _ in range(k_budget):
        base = measure(covered)
        best_gain, best_idx = 0.0, None
        for idx, ivs in enumerate(per):
            if idx in chosen or not ivs:
                continue
            gain = measure(covered + ivs) - base
            if gain > best_gain + 1e-15:
                best_gain, best_idx = gain, idx
        if best_idx is None:
            break
        chosen.append(best_idx)
        covered = merge_intervals(covered + per[best_idx])
        if covers_unit(covered):
            break
    return chosen


def assert_greedy_matches_reference(S, B, delta, k_budget):
    starts, ends = candidate_segments(S, B)
    want = reference_greedy(batch_candidate_coverage(S, starts, ends, delta), k_budget)
    res = greedy_max_coverage(S, B, delta, k_budget)
    assert res.centers == [B[i] for i in want]
    return res


def test_greedy_matches_reference_on_suite_curves():
    rng = np.random.default_rng(30)
    curves = [noisy_passes(rng, k_rep) for k_rep in (1, 2, 3)]
    curves.append(curve_from_points([(0, 0), (2, 1), (4, 0), (6, 1), (8, 0), (10, 1)]))
    curves.append(curve_from_points([(0, 0, 0), (3, 0, 1), (3, 3, 0), (0, 3, 1), (0, 0, 0)]))
    for P in curves:
        for delta in (0.3, 1.0):
            S = simplify_curve(P, delta).curve
            if S.n < 2:
                continue
            B = candidate_set(S, delta)
            for budget in (1, 3, len(B)):
                assert_greedy_matches_reference(S, B, 8.0 * delta, budget)


def test_shrink_keeps_both_sides_of_a_sub_tolerance_gap():
    # B alone leaves [0, 1e-17] open: A adds no measurable gain there, so
    # only the witness step can close it.
    S = curve_from_points([(0, 0), (10, 0)])
    per = Coverage.of([[Interval(0.0, 0.5)], [Interval(1e-17, 1.0)]])
    assert shrink_cover(S, per) == [0, 1]


def test_shrink_closes_a_gap_with_a_point_interval_next_to_it():
    # the point interval at 0 closes the gap only under the test's slack
    S = curve_from_points([(0, 0), (10, 0)])
    per = Coverage.of([[Interval(0.0, 0.0)], [Interval(1e-17, 1.0)], [Interval(0.2, 0.4)]])
    assert shrink_cover(S, per) == [0, 1]


def test_shrink_rejects_a_sample_that_does_not_cover():
    S = curve_from_points([(0, 0), (10, 0)])
    with pytest.raises(ValueError):
        shrink_cover(S, Coverage.of([[Interval(0.0, 0.4)], [Interval(0.6, 1.0)]]))


def test_greedy_tie_rule_follows_the_index_order_scan():
    # gains 1/8, 1/8 + 2^-50 and 1/8 + 2^-50 + 2^-51: the second is within
    # the tolerance of the first and the third is not, so the scan in index
    # order ends on the third, although the second is within the tolerance
    # of the largest gain
    extra = (0.0, 2.0**-50, 2.0**-50 + 2.0**-51)
    per = [[Interval(lo, lo + 0.125 + e)] for lo, e in zip((0.0, 0.5, 0.75), extra)]
    assert reference_greedy(per, 1) == [2]
    assert GreedyCore(Coverage.of(per)).best() == 2


def test_sampled_covers_are_subsets_of_the_sample():
    rng = np.random.default_rng(31)
    P = noisy_passes(rng, 3)
    res = approx_cover(P, 1.0, SolverConfig(rng_seed=12, gamma=1))
    assert 1 <= len(res.centers) < res.n_sampled
    S = simplify_curve(P, 1.0).curve
    assert covers_unit(structured_coverage(S, res.center_segments(S), 8.0))


PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)  # shared parameters make tied gains common


@st.composite
def curves_and_candidates(draw):
    """A curve on a half-integer lattice, a radius and grid-parameter candidates."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    unit = st.integers(-6, 6).map(lambda k: 0.5 * k)
    pts = np.array(draw(st.lists(st.lists(unit, min_size=d, max_size=d), min_size=n, max_size=n)))
    assume(all(np.any(a != b) for a, b in zip(pts[:-1], pts[1:])))
    S = PolyCurve(pts)
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    cand = st.builds(
        Candidate, st.integers(1, S.num_edges), st.sampled_from(GRID), st.sampled_from(GRID)
    )
    B = draw(st.lists(cand, min_size=1, max_size=12))
    return S, radius, B


@PROPERTY
@given(curves_and_candidates(), st.integers(1, 12))
def test_greedy_matches_reference_on_generated_curves(scene, budget):
    S, radius, B = scene
    assert_greedy_matches_reference(S, B, radius, budget)


@PROPERTY
@given(curves_and_candidates(), st.randoms(use_true_random=False))
def test_shrink_is_a_covering_subset_of_the_sample(scene, rnd):
    S, radius, B = scene
    # whole edges cover themselves, so the sample covers S
    sample = B + [Candidate(e, 0.0, 1.0) for e in range(1, S.num_edges + 1)]
    rnd.shuffle(sample)
    starts, ends = candidate_segments(S, sample)
    per = batch_candidate_coverage(S, starts, ends, radius)
    assert point_not_covered_from_intervals(S, per) is None
    keep = shrink_cover(S, per)
    assert keep == sorted(set(keep)) and set(keep) <= set(range(len(sample)))
    assert shrink_cover(S, per) == keep
    assert point_not_covered_from_intervals(S, per.take(np.array(keep))) is None
    centers = [sample[k].segment(S) for k in keep]
    assert covers_unit(structured_coverage(S, centers, radius))
