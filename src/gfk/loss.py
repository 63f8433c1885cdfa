"""Training loss over frustum codes.

Predictions and targets are both (B, 8) frustum codes (codec.FrustumCode):
six offsets, then the (sin, cos) pair of the observation angle. Location and
dimension offsets get smooth L1 penalties; the location group carries weight
alpha. Orientation is a plain squared error on the (sin, cos) pair, weighted
by beta:

    total = alpha * sum_{u,v,z} sl1(pred - tgt)
          + sum_{h,w,l} sl1(pred - tgt)
          + beta * ((sin - sin t')^2 + (cos - cos t')^2)

where (sin t', cos t') are the target code's sin_t and cos_t.

The analytic gradient with respect to all eight coefficients comes along for
free and is what the trainer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 1.0
    smooth_l1_delta: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be >= 0")
        if self.smooth_l1_delta <= 0:
            raise ValueError(f"smooth_l1_delta must be positive, got {self.smooth_l1_delta}")


def smooth_l1_and_grad(x, delta: float):
    """Huber-style penalty, quadratic inside |x| < delta and linear outside,
    and its derivative, both in float64 from one cast and one mask."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    inside = ax < delta
    return (np.where(inside, 0.5 * x * x / delta, ax - 0.5 * delta),
            np.where(inside, x / delta, np.sign(x)))


def _loss_batch(pred: np.ndarray, tgt: np.ndarray, w: LossWeights):
    """Vectorized loss over (B, 8) predicted and (B, 8) target frustum codes.

    Returns per-sample parts {loc, dim, ori, total} and the (B, 8) gradient
    of the per-sample total.
    """
    r = pred - tgt
    sl1, g6 = smooth_l1_and_grad(r[:, :6], w.smooth_l1_delta)
    loc = sl1[:, :3].sum(axis=1)
    dim = sl1[:, 3:6].sum(axis=1)
    ori = r[:, 6] ** 2 + r[:, 7] ** 2
    total = w.alpha * loc + dim + w.beta * ori

    grad = np.empty_like(pred)
    grad[:, :3] = w.alpha * g6[:, :3]
    grad[:, 3:6] = g6[:, 3:6]
    grad[:, 6:8] = 2.0 * w.beta * r[:, 6:8]
    return {"loc": loc, "dim": dim, "ori": ori, "total": total}, grad
