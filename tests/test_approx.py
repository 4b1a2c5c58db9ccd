import numpy as np
import pytest

from subcover.approx import (
    approx_ball_segment,
    approx_capsule_segment,
    halfspace_segment_intersection,
)
from subcover.geometry import (
    Interval,
    Segment,
    ball_segment_intersection,
    capsule_segment_intersection,
)


def test_halfspace_basic():
    seg = Segment((0, 0), (1, 0))
    iv = halfspace_segment_intersection((1, 0), 0.5, seg)
    assert iv.lo == pytest.approx(0.0) and iv.hi == pytest.approx(0.5)
    assert halfspace_segment_intersection((1, 0), 5.0, seg) == Interval(0.0, 1.0)
    assert halfspace_segment_intersection((1, 0), -1.0, seg).is_empty()
    with pytest.raises(ValueError):
        halfspace_segment_intersection((0, 0), 0.0, seg)


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


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_capsule_sandwich_random(eps):
    rng = np.random.default_rng(51)
    for _ in range(400):
        d = int(rng.choice([2, 3]))
        st = Segment(rng.normal(size=d), rng.normal(size=d))
        pq = Segment(rng.normal(size=d), rng.normal(size=d))
        delta = float(abs(rng.normal()) + 0.05)
        out = approx_capsule_segment(st, pq, delta, eps).interval
        exact_in = capsule_segment_intersection(st, pq, delta)
        exact_out = capsule_segment_intersection(st, pq, (1 + eps) * delta)
        assert _sandwich_ok(out, exact_in, exact_out), (st, pq, delta, eps, out)


def test_capsule_parallel_inside():
    out = approx_capsule_segment(Segment((0, 0), (10, 0)), Segment((0, 1), (10, 1)), 2.0, 0.1)
    assert out.interval.lo == pytest.approx(0.0) and out.interval.hi == pytest.approx(1.0)


def test_capsule_degenerate_axis_falls_back_to_ball():
    out = approx_capsule_segment(Segment((0, 0), (0, 0)), Segment((-1, 0), (1, 0)), 0.5, 0.01)
    assert out.interval.lo == pytest.approx(0.25, abs=0.01)
    assert out.interval.hi == pytest.approx(0.75, abs=0.01)


def test_middle_regime_only():
    # seg_pq strictly between the end planes of a long axis segment
    st = Segment((-10, 0), (10, 0))
    pq = Segment((-1, 2), (1, 2))
    out = approx_capsule_segment(st, pq, 2.5, 0.05).interval
    exact = capsule_segment_intersection(st, pq, 2.5)
    assert out.lo <= exact.lo + 1e-9 and out.hi >= exact.hi - 1e-9


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
