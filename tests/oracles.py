"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity the library produces in closed form, using
a method that shares no code with the implementation: adaptive quadrature for
the range-intensity profile, stratified Monte Carlo for rotated-rectangle
IoU, threshold enumeration for average precision, and central differences
for gradients, through mlp_forward_float64 where the network is concerned:
float32 weights cannot take a finite-difference step. ratio_table and range_from_ratios look a range up from three
slice intensities by nearest normalized ratio vector; the library has no
such lookup, and the tests use it to check that the gates identify range.
whole_frame_features, full_frame_render, per_kind_evaluate,
oracle_box2d_per_point and encode_pgm_reference are the exceptions: they
are the box feature extractor, the frame renderer, the report scorer, the
2D box labeler and the PGM writer as first written, kept to pin that
cropping first, rendering from an object-index map, scoring from shared
BEV intersections, projecting plain floats and converting pixels straight
into the file buffer change no bit. NOISELESS (no shot or read noise, no
clipping), support and plateau_range (where a gate's profile is non-zero
and where it is flat) are test instruments the library itself never
needs. Keep these dumb and obviously correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from gfk import (SPEED_OF_LIGHT, BehindCamera, Box2D, FullyOutOfImage, NoiseConfig,
                 rip_value)
from gfk.camera import project
from gfk.eval import KINDS, ApResult, EvalReport, N_RECALL, bin_label, iou_2d, iou_3d, iou_bev
from gfk.scene import Z_CLIP


NOISELESS = NoiseConfig(read_noise_sigma=0.0, photon_scale=math.inf, enable_clipping=False)


def support(gate) -> tuple[float, float]:
    """Range interval (meters) outside of which the gate's profile is zero."""
    half_c = SPEED_OF_LIGHT / 2.0
    return (gate.delay - gate.pulse_duration) * half_c, (gate.delay + gate.gate_duration) * half_c


def plateau_range(gate) -> tuple[float, float]:
    """Range interval (meters) where the gate's profile sits at its plateau."""
    half_c = SPEED_OF_LIGHT / 2.0
    a = gate.delay + gate.gate_duration - gate.pulse_duration
    return min(gate.delay, a) * half_c, max(gate.delay, a) * half_c


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


def ratio_table(gates) -> tuple[np.ndarray, np.ndarray]:
    """Ranges on [3, 100] m in 0.01 m steps, shape (N,), and the gates'
    profile values over their sum at each, shape (N, 3). Ranges where every
    profile is zero are left out."""
    ranges = 3.0 + 0.01 * np.arange(9701)
    values = np.stack([rip_value(g, ranges) for g in gates], axis=1)
    sums = values.sum(axis=1)
    keep = sums > 0
    return ranges[keep], values[keep] / sums[keep, None]


def range_from_ratios(z, table) -> float:
    """The table range whose ratio vector is nearest to z / sum(z)."""
    ranges, ratios = table
    z = np.asarray(z, dtype=np.float64)
    return float(ranges[np.argmin(((ratios - z / z.sum()) ** 2).sum(axis=1))])


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


def mlp_forward_float64(weights, biases, x: np.ndarray) -> np.ndarray:
    """The network's output for a (B, n_in) batch, every product in float64:
    tanh after each layer but the last, which is linear."""
    a = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ np.asarray(w, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
        if i < len(weights) - 1:
            a = np.tanh(a)
    return a


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


def oracle_box2d_per_point(b, cam) -> Box2D:
    """The image box of oracle_box2d, one point at a time in plain floats: the
    corners in front of z = Z_CLIP, then the Z_CLIP cut of every box edge
    with one end on each side, each projected by the pinhole formula."""
    corners = b.corners_3d().tolist()
    front = [c[2] > Z_CLIP for c in corners]
    if not any(front):
        raise BehindCamera(f"box at z={b.z} entirely behind the camera")
    points = [c for c, f in zip(corners, front) if f]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                 (0, 4), (1, 5), (2, 6), (3, 7)):
        if front[i] != front[j]:
            a, c = corners[i], corners[j]
            t = (Z_CLIP - a[2]) / (c[2] - a[2])
            points.append([a[k] + t * (c[k] - a[k]) for k in range(3)])
    us = [cam.f_u * x / z + cam.c_u for x, _, z in points]
    vs = [cam.f_v * y / z + cam.c_v for _, y, z in points]
    u_min, u_max = max(min(us), 0.0), min(max(us), cam.width - 1.0)
    v_min, v_max = max(min(vs), 0.0), min(max(vs), cam.height - 1.0)
    if u_max <= u_min or v_max <= v_min:
        raise FullyOutOfImage(f"box at ({b.x:.1f}, {b.z:.1f}) projects outside the image")
    return Box2D(b.cls, (u_min + u_max) / 2.0, (v_min + v_max) / 2.0, u_max - u_min,
                 v_max - v_min, b.score)


def full_frame_render(scene, gates, cam, noise, seed: int) -> np.ndarray:
    """The (3, H, W) slices of a scene rendered through full-frame float64
    depth and albedo images, the profile evaluated at every pixel and a
    Poisson count drawn at every pixel."""
    depth = np.full((cam.height, cam.width), float(scene.background_range))
    albedo = np.full((cam.height, cam.width), float(scene.background_albedo))
    for obj in scene.objects:
        box = obj.box
        half_w = (box.l * abs(math.cos(box.yaw)) + box.w * abs(math.sin(box.yaw))) / 2.0
        u_lo, v_lo = project(box.x - half_w, box.y - box.h, box.z, cam)
        u_hi, v_hi = project(box.x + half_w, box.y, box.z, cam)
        c0, c1 = max(0, math.ceil(u_lo)), min(cam.width - 1, math.floor(u_hi))
        r0, r1 = max(0, math.ceil(v_lo)), min(cam.height - 1, math.floor(v_hi))
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


def encode_pgm_reference(image: np.ndarray, maxval: int) -> bytes:
    """The P5 file of image: header, then the raster converted with astype."""
    h, w = image.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    return header + image.astype(">u2" if maxval > 255 else np.uint8).tobytes()


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
