import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk import CodeTargets, FrustumCode, LossWeights, smooth_l1
from gfk.loss import _loss_batch, smooth_l1_grad

from oracles import fd_gradient


def test_smooth_l1_fixtures():
    assert smooth_l1(0.0, delta=1.0) == 0.0
    assert smooth_l1(0.5, delta=1.0) == pytest.approx(0.125)   # quadratic branch: x^2/2
    assert smooth_l1(1.0, delta=1.0) == pytest.approx(0.5)     # seam value delta/2
    assert smooth_l1(3.0, delta=1.0) == pytest.approx(2.5)     # linear branch: |x| - 1/2
    assert smooth_l1(-3.0, delta=1.0) == pytest.approx(2.5)
    # non-unit delta: value at the seam is delta/2
    assert smooth_l1(0.2, delta=0.2) == pytest.approx(0.1)
    assert smooth_l1(1.0, delta=0.2) == pytest.approx(1.0 - 0.1)


def test_smooth_l1_continuity_at_seam():
    d = 0.7
    eps = 1e-9
    below = smooth_l1(d - eps, delta=d)
    above = smooth_l1(d + eps, delta=d)
    assert abs(above - below) < 1e-8
    gb = smooth_l1_grad(d - eps, delta=d)
    ga = smooth_l1_grad(d + eps, delta=d)
    assert abs(ga - gb) < 1e-6


def test_smooth_l1_vectorized():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    v = smooth_l1(x, delta=1.0)
    assert v == pytest.approx([1.5, 0.125, 0.0, 0.125, 1.5])
    g = smooth_l1_grad(x, delta=1.0)
    assert g == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])


def make_target(**kw):
    base = dict(du=0.0, dv=0.0, dz=0.0, dh=0.0, dw=0.0, dl=0.0, theta=0.0)
    base.update(kw)
    return CodeTargets(**base)


def loss_of_one(q: FrustumCode, t: CodeTargets, w: LossWeights = LossWeights()):
    """_loss_batch on a batch of one: the per-term floats and the (8,) gradient."""
    parts, grad = _loss_batch(q.as_array()[None], t.as_array()[None], w)
    return {key: float(val[0]) for key, val in parts.items()}, grad[0]


def test_perfect_prediction_zero_loss():
    t = make_target(du=0.3, dz=-0.2, theta=0.8)
    q = FrustumCode(0.3, 0.0, -0.2, 0.0, 0.0, 0.0, math.sin(0.8), math.cos(0.8))
    parts, grad = loss_of_one(q, t)
    assert parts["total"] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_orientation_term_fixture():
    # prediction points opposite the target: (sin, cos) error is (0-0)^2+(1+1)^2 = 4
    t = make_target(theta=math.pi)
    q = FrustumCode(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    parts, _ = loss_of_one(q, t, LossWeights(alpha=1.0, beta=1.0))
    assert parts["ori"] == pytest.approx(4.0)
    assert parts["loc"] == 0.0
    assert parts["dim"] == 0.0
    assert parts["total"] == pytest.approx(4.0)


def test_weights_scale_terms():
    t = make_target(theta=math.pi / 2)
    q = FrustumCode(1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0)
    base, _ = loss_of_one(q, t, LossWeights(alpha=1.0, beta=1.0))
    scaled, _ = loss_of_one(q, t, LossWeights(alpha=3.0, beta=0.5))
    assert scaled["total"] == pytest.approx(3.0 * base["loc"] + base["dim"] + 0.5 * base["ori"])


def test_loc_uses_alpha_dim_does_not():
    t = make_target()
    q = FrustumCode(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    parts, _ = loss_of_one(q, t, LossWeights(alpha=2.0, beta=1.0))
    # three loc channels and three dim channels, all |x|=1 -> smooth_l1 = 0.5
    assert parts["loc"] == pytest.approx(1.5)      # reported per-term values are unweighted
    assert parts["dim"] == pytest.approx(1.5)
    assert parts["total"] == pytest.approx(2.0 * 1.5 + 1.5 + 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2, 2), min_size=8, max_size=8),
    st.lists(st.floats(-1.5, 1.5), min_size=6, max_size=6),
    st.floats(-math.pi, math.pi),
    st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.3, 1.5),
)
def test_gradient_matches_finite_differences(pred, tvals, theta, alpha, beta, delta):
    w = LossWeights(alpha=alpha, beta=beta, smooth_l1_delta=delta)
    t = CodeTargets(*tvals, theta=theta)
    p = np.asarray(pred)
    # keep the smooth-l1 inputs away from the |x| = delta seam where the
    # second derivative jumps and central differences misbehave
    for i in range(6):
        if abs(abs(p[i] - t.as_array()[i]) - delta) < 1e-3:
            p[i] += 5e-3
    _, grad = loss_of_one(FrustumCode.from_array(p), t, w)

    def f(x):
        return loss_of_one(FrustumCode.from_array(x), t, w)[0]["total"]

    fd = fd_gradient(f, p, step=1e-6)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-6)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)
    with pytest.raises(ValueError):
        LossWeights(smooth_l1_delta=0.0)
