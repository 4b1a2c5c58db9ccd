"""Pinned covers: the centres, rounds and updates of three small seeded solves.

A change that claims to leave covers unchanged must keep these bit for bit.
The routes are noisy lapped triangles, as in the benchmark's ``updates``
workload, at delta 0.5.
"""

import numpy as np

from subcover.geometry import PolyCurve
from subcover.implicit import implicit_approx_cover
from subcover.solver import SolverConfig, approx_cover, greedy_max_coverage

DELTA = 0.5
SEED = 3


def lapped_triangle(seed: int, n: int, laps: int, side: float) -> PolyCurve:
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [side, 0.0], [0.5 * side, 0.875 * side]])
    t = np.linspace(0.0, 3.0 * laps, n, endpoint=False)
    k = np.floor(t).astype(int) % 3
    f = (t - np.floor(t))[:, None]
    pts = (1.0 - f) * corners[k] + f * corners[(k + 1) % 3]
    return PolyCurve(pts + rng.normal(0.0, 0.15, size=pts.shape))


def bits(cands) -> list:
    return [(c.edge_index, c.alpha.hex(), c.beta.hex()) for c in cands]


def test_forced_k_prime_explicit_cover_is_pinned():
    P = lapped_triangle(SEED, 60, 2, 16.0)
    res = approx_cover(P, DELTA, SolverConfig(rng_seed=SEED, k_prime_override=4))
    assert (res.k_found, res.iterations, res.proper_iterations) == (2, 24, 9)
    assert bits(res.centers) == [
        (2, "0x0.0p+0", "0x1.b326cb762fc04p-1"),
        (4, "0x1.57957b3e1aed5p-3", "0x1.b436a4bbabb0dp-1"),
        (6, "0x1.46acf82e4b8d3p-3", "0x1.0000000000000p+0"),
    ]


def test_greedy_cover_is_pinned():
    res = greedy_max_coverage(lapped_triangle(SEED, 30, 1, 16.0), DELTA)
    assert res.n_sampled == 27
    assert bits(res.centers) == [
        (1, "0x0.0p+0", "0x1.bbd288cc5644ap-1"),
        (2, "0x1.0bd500bec3a4ap-3", "0x1.b40c7ecf0baf6p-1"),
        (3, "0x0.0p+0", "0x1.f4c6d8431a521p-1"),
    ]


def test_gamma_one_implicit_cover_is_pinned():
    P = lapped_triangle(SEED, 30, 1, 16.0)
    res = implicit_approx_cover(P, DELTA, SolverConfig(variant="implicit", gamma=1, rng_seed=SEED))
    assert (res.k_found, res.iterations, res.n_sampled) == (2, 1, 109)
    assert bits(res.centers) == [
        (1, "0x0.0p+0", "0x1.c8486b770471ap-2"),
        (2, "0x1.801a7cbf370e4p-4", "0x1.d02001670d314p-1"),
        (3, "0x0.0p+0", "0x1.ee0c8298131c7p-3"),
        (3, "0x1.a7786ff010618p-1", "0x1.a7786ff010618p-1"),
    ]
