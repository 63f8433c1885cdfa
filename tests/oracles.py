"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity the library produces in closed form, using
a method that shares no code with the implementation: adaptive quadrature for
the range-intensity profile, stratified Monte Carlo for rotated-rectangle
IoU, threshold enumeration for average precision, and central differences
for gradients. whole_frame_features is the exception: it is the box feature
extractor as first written, casting the whole frame to float64 before it
crops, kept to pin that cropping first changes no bit. Keep these dumb and
obviously correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from gfk import SPEED_OF_LIGHT


def quad_rip(gate, r: float) -> float:
    """Range-intensity profile by numerical integration of the indicator
    product: the gate window is open on [delay, delay+gate_duration], the
    echo of the pulse occupies [2r/c, 2r/c + pulse_duration]."""
    tof = 2.0 * r / SPEED_OF_LIGHT
    g0, g1 = gate.delay, gate.delay + gate.gate_duration
    p0, p1 = tof, tof + gate.pulse_duration

    def integrand(t: float) -> float:
        return 1.0 if (g0 <= t <= g1 and p0 <= t <= p1) else 0.0

    lo, hi = min(g0, p0), max(g1, p1)
    pts = sorted({g0, g1, p0, p1})
    val, _err = quad(integrand, lo, hi, points=pts, limit=500)
    att = math.exp(-2.0 * gate.attenuation_gamma * r)
    if gate.inverse_square:
        att /= max(r, 0.5) ** 2
    return gate.gate_amplitude * gate.pulse_amplitude * val * att


def _inside_convex(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of pts inside the convex polygon (either winding)."""
    n = len(poly)
    area2 = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area2 += x0 * y1 - x1 * y0
    sign = 1.0 if area2 >= 0 else -1.0
    ok = np.ones(len(pts), dtype=bool)
    for i in range(n):
        v0 = poly[i]
        e = poly[(i + 1) % n] - v0
        cross = e[0] * (pts[:, 1] - v0[1]) - e[1] * (pts[:, 0] - v0[0])
        ok &= sign * cross >= 0.0
    return ok


def mc_iou_bev(a, b, n_side: int = 1000, seed: int = 0) -> float:
    """Rotated-footprint IoU by stratified Monte Carlo: one jittered sample
    per cell of an n_side x n_side grid over the joint bounding box. Only
    the intersection is sampled; the union uses the exact rectangle areas."""
    ca, cb = a.bev_corners(), b.bev_corners()
    allc = np.vstack([ca, cb])
    lo, hi = allc.min(axis=0), allc.max(axis=0)
    span = hi - lo
    rng = np.random.default_rng(seed)
    gx = (np.arange(n_side)[:, None] + rng.random((n_side, n_side))) / n_side
    gy = (np.arange(n_side)[None, :] + rng.random((n_side, n_side))) / n_side
    pts = np.stack([lo[0] + gx.ravel() * span[0], lo[1] + gy.ravel() * span[1]], axis=1)
    both = _inside_convex(ca, pts) & _inside_convex(cb, pts)
    inter = both.mean() * span[0] * span[1]
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0 else 0.0


def brute_force_ap40(dets, gts, iou_fn, threshold: float,
                     det_frames=None, gt_frames=None, n_recall: int = 40) -> float:
    """Average precision by score-threshold enumeration.

    For every distinct detection score, keep the detections at or above it,
    match them greedily from scratch, and record one (recall, precision)
    point; interpolated precision at recall r is the best precision among
    points with recall >= r. Scores must be distinct for this to define the
    same curve as the cumulative form.
    """
    if det_frames is None:
        det_frames = [0] * len(dets)
    if gt_frames is None:
        gt_frames = [0] * len(gts)
    if not gts:
        return 0.0 if dets else math.nan
    if not dets:
        return 0.0

    def match_count(subset_idx) -> int:
        ordered = sorted(subset_idx, key=lambda i: -dets[i].score)
        taken = [False] * len(gts)
        tp = 0
        for di in ordered:
            best, best_j = 0.0, -1
            for j in range(len(gts)):
                if taken[j] or gt_frames[j] != det_frames[di]:
                    continue
                iou = iou_fn(dets[di], gts[j])
                if iou >= threshold and iou > best:
                    best, best_j = iou, j
            if best_j >= 0:
                taken[best_j] = True
                tp += 1
        return tp

    points = []
    for tau in sorted({d.score for d in dets}, reverse=True):
        subset = [i for i in range(len(dets)) if dets[i].score >= tau]
        tp = match_count(subset)
        points.append((tp / len(gts), tp / len(subset)))

    ap = 0.0
    for i in range(1, n_recall + 1):
        r = i / n_recall
        cands = [p for rec, p in points if rec >= r - 1e-12]
        ap += max(cands) if cands else 0.0
    return ap / n_recall


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += step
        xm.flat[i] -= step
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def whole_frame_features(slices: np.ndarray, p) -> np.ndarray:
    """The 24-entry box feature vector, computed on the whole frame cast to
    float64 (full scale 1023, ratio threshold 5, classes Car, Pedestrian)."""
    frame = np.asarray(slices, dtype=np.float64)
    _, img_h, img_w = frame.shape
    x = np.zeros(24)
    x[18:22] = (p.u / img_w, p.v / img_h, p.w_u / img_w, p.h_v / img_h)
    if p.cls in ("Car", "Pedestrian"):
        x[22 + ("Car", "Pedestrian").index(p.cls)] = 1.0
    c0 = max(0, int(math.floor(p.u - p.w_u / 2.0)))
    c1 = min(img_w, int(math.ceil(p.u + p.w_u / 2.0)))
    r0 = max(0, int(math.floor(p.v - p.h_v / 2.0)))
    r1 = min(img_h, int(math.ceil(p.v + p.h_v / 2.0)))
    if c0 >= c1 or r0 >= r1:
        return x
    crop = frame[:, r0:r1, c0:c1]
    means = crop.mean(axis=(1, 2))
    stds = crop.std(axis=(1, 2))
    for s in range(3):
        x[5 * s] = means[s] / 1023.0
        x[5 * s + 1] = stds[s] / 1023.0
        for bi, band in enumerate(np.array_split(crop[s], 3, axis=0)):
            x[5 * s + 2 + bi] = (band.mean() if band.size else means[s]) / 1023.0
    total = float(means.sum())
    if total > 5.0:
        x[15:18] = means / total
    return x
