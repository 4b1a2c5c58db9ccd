import numpy as np
import pytest

from subcover.geometry import PolyCurve, curve_from_points
from subcover.oracle import curve_frechet_bracket, curve_frechet_decision
from subcover.simplify import Simplification, simplify_curve, verify_delta_good


def random_curve(rng, n, d=2, scale=3.0):
    steps = rng.normal(size=(n, d)) * scale / max(n, 1) ** 0.5
    pts = np.cumsum(steps, axis=0)
    # drop exact duplicates to keep vertex params valid
    keep = [0]
    for i in range(1, n):
        if not np.array_equal(pts[i], pts[keep[-1]]):
            keep.append(i)
    return PolyCurve(pts[keep])


def test_collinear_collapses_to_endpoints():
    P = curve_from_points([(0, 0), (1, 0), (2, 0), (3, 0)])
    s = simplify_curve(P, 1.0)
    assert s.indices == (1, 4)


def test_single_vertex_identity():
    P = PolyCurve(np.array([[1.0, 2.0]]))
    s = simplify_curve(P, 1.0)
    assert s.indices == (1,)
    assert s.curve.n == 1


def test_two_vertices_identity():
    P = curve_from_points([(0, 0), (0.01, 0)])
    s = simplify_curve(P, 1.0)
    assert s.indices == (1, 2)


def test_spike_vertex_survives():
    P = curve_from_points([(0, 0), (1, 0), (1, 5), (2, 0)])
    s = simplify_curve(P, 1.0)
    assert 3 in s.indices


def test_delta_must_be_positive():
    P = curve_from_points([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        simplify_curve(P, 0.0)


def test_verify_flags_non_maximal():
    P = curve_from_points([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    all_kept = Simplification(P, (1, 2, 3, 4, 5), P)
    report = verify_delta_good(all_kept, 1.0)
    assert any(v.startswith("(iv)") for v in report)


def test_verify_flags_bad_shortcut():
    P = curve_from_points([(0, 0), (1, 0), (1, 5), (2, 0)])
    keep_ends = Simplification(
        P, (1, 4), PolyCurve(P.vertices[[0, 3]], np.array([0.0, 1.0]))
    )
    report = verify_delta_good(keep_ends, 1.0)
    assert any(v.startswith("(ii)") for v in report)


def test_simplification_is_delta_good_on_random_curves():
    rng = np.random.default_rng(10)
    for _ in range(120):
        n = int(rng.integers(2, 40))
        d = int(rng.choice([2, 3]))
        P = random_curve(rng, n, d)
        delta = float(rng.uniform(0.1, 1.5))
        s = simplify_curve(P, delta)
        assert verify_delta_good(s, delta) == []


def test_simplification_within_3delta_of_source():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        P = random_curve(rng, n)
        delta = float(rng.uniform(0.2, 1.0))
        s = simplify_curve(P, delta)
        if s.curve.n < 2:
            # all vertices within delta/3 of the first: whole curve in a small ball
            dists = np.linalg.norm(P.vertices - P.vertices[0], axis=1)
            assert np.all(dists <= 3 * delta + 1e-9)
            continue
        assert curve_frechet_decision(P, s.curve, 3.0 * delta * (1 + 1e-9))


def test_adversarial_zero_length_and_spikes():
    P = PolyCurve(
        np.array([[0, 0], [0, 0.0001], [5, 0], [5, 8], [5.0001, 8], [10, 0], [15, 0.0002], [15, 0]]),
    )
    delta = 1.0
    s = simplify_curve(P, delta)
    assert verify_delta_good(s, delta) == []


def test_resimplify_keeps_spacing():
    rng = np.random.default_rng(12)
    for _ in range(20):
        P = random_curve(rng, int(rng.integers(4, 30)))
        delta = float(rng.uniform(0.2, 1.0))
        s = simplify_curve(P, delta)
        if s.curve.n < 2:
            continue
        s2 = simplify_curve(s.curve, delta)
        verts = s2.curve.vertices
        gaps = np.linalg.norm(np.diff(verts, axis=0), axis=1)
        assert np.all(gaps >= delta / 3 - 1e-12)


def test_bracket_confirms_simplification_error():
    P = curve_from_points([(0, 0), (1, 0.4), (2, 0), (3, 0.4), (4, 0)])
    delta = 0.5
    s = simplify_curve(P, delta)
    if s.curve.n >= 2:
        iv = curve_frechet_bracket(P, s.curve, 1e-6)
        assert iv.lo <= 3 * delta + 1e-6
