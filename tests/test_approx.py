import numpy as np
import pytest

from subcover.approx import approx_ball_segment
from subcover.geometry import ball_segment_intersection


def test_approx_ball_spec_example():
    out = approx_ball_segment((0, 0), (10, 0), (5, 0), 2.0, 0.1)
    iv = out.interval
    assert iv.lo <= 0.3 + 1e-12 and iv.hi >= 0.7 - 1e-12
    assert iv.lo >= 0.28 - 1e-12 and iv.hi <= 0.72 + 1e-12


def test_approx_ball_far_away():
    out = approx_ball_segment((0, 0), (1, 0), (0, 50), 2.0, 0.5)
    assert out.is_empty()


def test_approx_ball_tiny_eps_near_exact():
    exact = ball_segment_intersection((0, 0), (10, 0), (5, 3), 5.0)
    out = approx_ball_segment((0, 0), (10, 0), (5, 3), 5.0, 1e-6).interval
    assert out.lo == pytest.approx(exact.lo, abs=1e-5)
    assert out.hi == pytest.approx(exact.hi, abs=1e-5)


def _sandwich_ok(approx_iv, exact_in, exact_out, slack=1e-9):
    if exact_in.is_empty():
        inner_ok = True
    else:
        inner_ok = (
            not approx_iv.is_empty()
            and approx_iv.lo <= exact_in.lo + slack
            and approx_iv.hi >= exact_in.hi - slack
        )
    if approx_iv.is_empty():
        outer_ok = True
    else:
        outer_ok = (
            not exact_out.is_empty()
            and approx_iv.lo >= exact_out.lo - slack
            and approx_iv.hi <= exact_out.hi + slack
        )
    return inner_ok and outer_ok


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_ball_sandwich_random(eps):
    rng = np.random.default_rng(50)
    for _ in range(400):
        d = int(rng.choice([2, 3]))
        p, q, r = rng.normal(size=d), rng.normal(size=d), rng.normal(size=d)
        delta = float(abs(rng.normal()) + 0.05)
        out = approx_ball_segment(p, q, r, delta, eps).interval
        exact_in = ball_segment_intersection(p, q, r, delta)
        exact_out = ball_segment_intersection(p, q, r, (1 + eps) * delta)
        assert _sandwich_ok(out, exact_in, exact_out), (p, q, r, delta, eps, out)


def test_no_sqrt_in_module():
    import inspect

    import subcover.approx as mod

    src = inspect.getsource(mod)
    assert "sqrt" not in src


def test_monotone_eps_gap():
    p, q, r = np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([5.0, 1.5])
    delta = 2.0
    exact = ball_segment_intersection(p, q, r, delta)
    seg_len = 10.0
    for eps in (0.5, 0.1, 0.01):
        out = approx_ball_segment(p, q, r, delta, eps).interval
        assert exact.lo - out.lo <= eps * delta / seg_len + 1e-9
        assert out.hi - exact.hi <= eps * delta / seg_len + 1e-9
