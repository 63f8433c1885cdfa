"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity the library produces in closed form, using
a method that shares no code with the implementation: adaptive quadrature for
the range-intensity profile, stratified Monte Carlo for rotated-rectangle
IoU, threshold enumeration for average precision, and central differences
for gradients. numpy_scalar_clip_convex, whole_frame_features,
full_frame_render and per_kind_evaluate are the exceptions: they are the
polygon clipper, the box feature extractor, the frame renderer and the
report scorer as first written, kept to pin that clipping on Python floats,
cropping first, rendering from an object-index map and scoring from shared
BEV intersections change no bit. Keep these dumb and obviously correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from gfk import SPEED_OF_LIGHT, rip_value
from gfk.camera import CamPoint, project
from gfk.eval import KINDS, ApResult, EvalReport, N_RECALL, bin_label, iou_2d, iou_3d, iou_bev


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


def full_frame_render(scene, gates, cam, noise, seed: int) -> np.ndarray:
    """The (3, H, W) slices of a scene rendered through full-frame float64
    depth and albedo images, the profile evaluated at every pixel and a
    Poisson count drawn at every pixel."""
    depth = np.full((cam.height, cam.width), float(scene.background_range))
    albedo = np.full((cam.height, cam.width), float(scene.background_albedo))
    for obj in scene.objects:
        box = obj.box
        half_w = (box.l * abs(math.cos(box.yaw)) + box.w * abs(math.sin(box.yaw))) / 2.0
        lo = project(CamPoint(box.x - half_w, box.y - box.h, box.z), cam)
        hi = project(CamPoint(box.x + half_w, box.y, box.z), cam)
        c0, c1 = max(0, math.ceil(lo.u)), min(cam.width - 1, math.floor(hi.u))
        r0, r1 = max(0, math.ceil(lo.v)), min(cam.height - 1, math.floor(hi.v))
        if c0 > c1 or r0 > r1:
            continue
        region = (slice(r0, r1 + 1), slice(c0, c1 + 1))
        closer = depth[region] > box.z
        depth[region][closer] = box.z
        albedo[region][closer] = obj.albedo
    slices = []
    for gate, stream in zip(gates, np.random.SeedSequence(seed).spawn(3)):
        rng = np.random.default_rng(stream)
        x = albedo * rip_value(gate, depth)
        if not math.isinf(noise.photon_scale):
            x = rng.poisson(x * noise.photon_scale).astype(np.float64) / noise.photon_scale
        if noise.read_noise_sigma > 0:
            x = x + rng.normal(0.0, noise.read_noise_sigma, size=x.shape)
        if noise.enable_clipping:
            x = np.rint(np.clip(x, 0, noise.full_scale))
        slices.append(x)
    return np.stack(slices).astype(np.uint16 if noise.enable_clipping else np.float64)


def numpy_scalar_clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of subject by the convex CCW clip polygon,
    indexing the numpy arrays vertex by vertex, so every coordinate is a
    numpy float64 scalar and inside() is re-evaluated at each use."""
    output = [tuple(p) for p in subject]
    n = len(clip)
    for i in range(n):
        if not output:
            break
        cp1 = clip[i]
        cp2 = clip[(i + 1) % n]
        edge = (cp2[0] - cp1[0], cp2[1] - cp1[1])

        def inside(p):
            return edge[0] * (p[1] - cp1[1]) - edge[1] * (p[0] - cp1[0]) >= 0.0

        def intersect(s, e):
            dc = (cp1[0] - cp2[0], cp1[1] - cp2[1])
            dp = (s[0] - e[0], s[1] - e[1])
            n1 = cp1[0] * cp2[1] - cp1[1] * cp2[0]
            n2 = s[0] * e[1] - s[1] * e[0]
            n3 = 1.0 / (dc[0] * dp[1] - dc[1] * dp[0])
            return ((n1 * dp[0] - n2 * dc[0]) * n3, (n1 * dp[1] - n2 * dc[1]) * n3)

        input_list = output
        output = []
        s = input_list[-1]
        for e in input_list:
            if inside(e):
                if not inside(s):
                    output.append(intersect(s, e))
                output.append(e)
            elif inside(s):
                output.append(intersect(s, e))
            s = e
    return np.array(output, dtype=float).reshape(-1, 2)


def all_pairs_ap_40(dets, gts, iou_fn, threshold: float, det_frames, gt_frames) -> ApResult:
    """AP-40 with greedy matching that scans every gt box for each
    detection, skipping taken boxes and other frames inside the scan."""
    if not gts:
        if not dets:
            return ApResult(ap=None, n_gt=0, n_det=0, n_matched=0)
        return ApResult(ap=0.0, n_gt=0, n_det=len(dets), n_matched=0)
    if not dets:
        return ApResult(ap=0.0, n_gt=len(gts), n_det=0, n_matched=0)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(gts)
    tp = [False] * len(dets)
    for rank, di in enumerate(order):
        best_iou = 0.0
        best_j = -1
        for j in range(len(gts)):
            if taken[j] or det_frames[di] != gt_frames[j]:
                continue
            iou = iou_fn(dets[di], gts[j])
            if iou >= threshold and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
    cum_tp = np.cumsum(tp)
    recalls = cum_tp / len(gts)
    precisions = cum_tp / np.arange(1, len(dets) + 1)
    ap = 0.0
    for i in range(1, N_RECALL + 1):
        mask = recalls >= i / N_RECALL - 1e-12
        ap += float(precisions[mask].max()) if np.any(mask) else 0.0
    ap /= N_RECALL
    return ApResult(ap=ap, n_gt=len(gts), n_det=len(dets), n_matched=int(cum_tp[-1]))


def per_kind_evaluate(dets, gts, cfg) -> EvalReport:
    """The report of evaluate() with every (class, kind, bin) cell scored on
    its own: all_pairs_ap_40 over iou_2d, iou_bev or iou_3d, each IoU call
    rebuilding both boxes' corners and clipping them. dets and gts are
    (frame_id, Box3D, Box2D) rows; boxes of a class without a threshold are
    ignored."""
    classes = tuple(sorted(cfg.iou_thresholds))
    iou_fns = {"2d": iou_2d, "bev": iou_bev, "3d": iou_3d}
    labels = tuple(bin_label(lo, hi) for lo, hi in cfg.bins)
    cells = {}
    for cls in classes:
        threshold = cfg.iou_thresholds[cls]
        cls_dets = [r for r in dets if r[1].cls == cls]
        cls_gts = [r for r in gts if r[1].cls == cls]
        for kind in KINDS:
            pick = 2 if kind == "2d" else 1
            for (lo, hi), lbl in zip(cfg.bins, labels):
                d = [r for r in cls_dets if lo <= r[1].z < hi]
                g = [r for r in cls_gts if lo <= r[1].z < hi]
                cells[(cls, kind, lbl)] = all_pairs_ap_40(
                    [r[pick] for r in d], [r[pick] for r in g], iou_fns[kind], threshold,
                    [r[0] for r in d], [r[0] for r in g])
    return EvalReport(cells=cells, classes=classes, bin_labels=labels)
