import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from subcover.candidates import Candidate, candidate_set
from subcover.coverage import covers_unit, structured_coverage
from subcover.geometry import PolyCurve, Segment, curve_from_points
from subcover.oracle import OracleBudget, covers_unit as oracle_covers, full_coverage, min_cover_exhaustive
from subcover.simplify import simplify_curve
from subcover.solver import (
    CoverResult,
    ExplicitDist,
    SolverConfig,
    approx_cover,
    greedy_max_coverage,
    k_approx_cover,
    sample,
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
    draws = sample(d, 100_000, rng)
    freq = np.array([sum(1 for c in draws if c is cands[i]) for i in range(4)]) / 100_000
    sigma = np.sqrt(0.25 * 0.75 / 100_000)
    assert np.all(np.abs(freq - 0.25) <= 3 * sigma + 1e-12)


def test_sample_single_candidate():
    rng = np.random.default_rng(1)
    d = ExplicitDist.uniform([Candidate(1, 0.0, 1.0)])
    assert all(c is d.candidates[0] for c in sample(d, 50, rng))


def test_sample_weighted_ratio():
    rng = np.random.default_rng(2)
    cands = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0)]
    d = ExplicitDist(cands, np.array([1.0, 3.0]))
    draws = sample(d, 50_000, rng)
    p1 = sum(1 for c in draws if c is cands[1]) / 50_000
    assert p1 == pytest.approx(0.75, abs=0.01)


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
    d = ExplicitDist(B, np.array([1e6, 1e6, 1.0]))
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
        d = solver.ExplicitDist(B, np.array([1e6, 1e6, 1.0]))
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
    k_star = min_cover_exhaustive(S, B, 0.3, OracleBudget())
    assert k_star == 2
    res = greedy_max_coverage(S, B, 0.3, 2)
    segs = res.center_segments(S)
    assert covers_unit(structured_coverage(S, segs, 0.3))


def test_greedy_ties_break_to_lowest_index():
    S = curve_from_points([(0, 0), (10, 0)])
    B = [Candidate(1, 0.0, 0.5), Candidate(1, 0.5, 1.0)]
    res = greedy_max_coverage(S, B, 1e-6, 1)
    assert res.centers == [B[0]]
