"""Training loss over frustum codes.

Location and dimension offsets get smooth L1 penalties; the location group
carries weight alpha. Orientation is a plain squared error on the (sin, cos)
pair against the target angle, weighted by beta:

    total = alpha * sum_{u,v,z} sl1(pred - tgt)
          + sum_{h,w,l} sl1(pred - tgt)
          + beta * ((sin - sin t')^2 + (cos - cos t')^2)

The analytic gradient with respect to all eight coefficients comes along for
free and is what the trainer consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import FrustumCode


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


@dataclass(frozen=True)
class CodeTargets:
    """Ground-truth side of the loss: six offsets plus the target angle."""

    du: float
    dv: float
    dz: float
    dh: float
    dw: float
    dl: float
    theta: float

    @classmethod
    def from_code(cls, q: FrustumCode) -> "CodeTargets":
        return cls(q.du, q.dv, q.dz, q.dh, q.dw, q.dl, math.atan2(q.sin_t, q.cos_t))

    def as_array(self) -> np.ndarray:
        return np.array([self.du, self.dv, self.dz, self.dh, self.dw, self.dl, self.theta])


def smooth_l1(x, delta: float):
    """Huber-style penalty: quadratic inside |x| < delta, linear outside."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < delta, 0.5 * x * x / delta, np.abs(x) - 0.5 * delta)


def smooth_l1_grad(x, delta: float):
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) < delta, x / delta, np.sign(x))


def _loss_batch(pred: np.ndarray, tgt: np.ndarray, w: LossWeights):
    """Vectorized loss over (B, 8) predictions and (B, 7) targets.

    Returns per-sample parts {loc, dim, ori, total} and the (B, 8) gradient
    of the per-sample total.
    """
    delta = w.smooth_l1_delta
    res = pred[:, :6] - tgt[:, :6]
    sl1 = smooth_l1(res, delta)
    loc = sl1[:, :3].sum(axis=1)
    dim = sl1[:, 3:6].sum(axis=1)
    sin_t, cos_t = np.sin(tgt[:, 6]), np.cos(tgt[:, 6])
    ds, dc = pred[:, 6] - sin_t, pred[:, 7] - cos_t
    ori = ds * ds + dc * dc
    total = w.alpha * loc + dim + w.beta * ori

    grad = np.empty_like(pred)
    g6 = smooth_l1_grad(res, delta)
    grad[:, :3] = w.alpha * g6[:, :3]
    grad[:, 3:6] = g6[:, 3:6]
    grad[:, 6] = w.beta * 2.0 * ds
    grad[:, 7] = w.beta * 2.0 * dc
    return {"loc": loc, "dim": dim, "ori": ori, "total": total}, grad
