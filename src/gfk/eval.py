"""Detection metrics: IoU variants, AP at 40 recall positions, report assembly.

Matching is greedy in descending score order (ties keep input order): each
detection takes the unmatched ground-truth box of highest IoU at or above
the class threshold, IoU ties going to the lower gt index. Precision is
interpolated as p(r) = max precision at recall >= r and averaged over the 40
recall positions {1/40 .. 40/40}.

Results are split by distance: ground truth bins by true z, detections by
predicted z. A (class, kind, bin) cell with neither gts nor detections is
undefined (ap is None) and excluded from any aggregation.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .codec import read_predictions
from .geometry import convex_intersection_area
from .scene import Box2D, Box3D, read_labels

logger = logging.getLogger(__name__)

KINDS = ("2d", "bev", "3d")
N_RECALL = 40


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: Mapping[str, float] = field(
        default_factory=lambda: {"Car": 0.2, "Pedestrian": 0.1}
    )
    bins: tuple[tuple[float, float], ...] = ((0.0, 30.0), (30.0, 50.0), (50.0, 80.0))
    kinds: ClassVar[tuple[str, ...]] = KINDS

    def __post_init__(self) -> None:
        # With no class or no bin the report has no cell, and bins that share
        # a label would write into one cell.
        if not self.iou_thresholds:
            raise ValueError("iou_thresholds: at least one class required")
        if not self.bins:
            raise ValueError("bins: at least one range bin required")
        for name, thr in self.iou_thresholds.items():
            if not (0.0 < thr <= 1.0):
                raise ValueError(f"IoU threshold for {name} must be in (0, 1], got {thr}")
        labels = [bin_label(lo, hi) for lo, hi in self.bins]
        for (lo, hi), label in zip(self.bins, labels):
            if not (0.0 <= lo < hi):
                raise ValueError(f"bad bin ({lo}, {hi})")
            if labels.count(label) > 1:
                raise ValueError(f"bins: two bins share the label {label}")


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Axis-aligned IoU of two image boxes."""
    wi = min(a.u + a.w_u / 2, b.u + b.w_u / 2) - max(a.u - a.w_u / 2, b.u - b.w_u / 2)
    hi = min(a.v + a.h_v / 2, b.v + b.h_v / 2) - max(a.v - a.h_v / 2, b.v - b.h_v / 2)
    if wi <= 0 or hi <= 0:
        return 0.0
    inter = wi * hi
    return inter / (a.w_u * a.h_v + b.w_u * b.h_v - inter)


def iou_bev(a: Box3D, b: Box3D) -> float:
    """IoU of the rotated footprints in the ground plane."""
    return _bev_iou(convex_intersection_area(a.bev_corners(), b.bev_corners()), a, b)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU: BEV intersection times vertical overlap of [y-h, y]."""
    return _volume_iou(convex_intersection_area(a.bev_corners(), b.bev_corners()), a, b)


def _bev_iou(inter: float, a: Box3D, b: Box3D) -> float:
    """iou_bev from the footprint intersection area inter."""
    union = a.w * a.l + b.w * b.l - inter
    return inter / union if union > 0 else 0.0


def _volume_iou(inter_area: float, a: Box3D, b: Box3D) -> float:
    """iou_3d from the footprint intersection area inter_area."""
    if inter_area == 0.0:
        return 0.0
    v_overlap = min(a.y, b.y) - max(a.y - a.h, b.y - b.h)
    if v_overlap <= 0:
        return 0.0
    inter = inter_area * v_overlap
    union = a.w * a.l * a.h + b.w * b.l * b.h - inter
    return inter / union if union > 0 else 0.0


@dataclass(frozen=True)
class ApResult:
    ap: float | None      # None when the cell has neither gts nor dets
    n_gt: int
    n_det: int
    n_matched: int


def ap_40(dets: Sequence, gts: Sequence, iou_fn: Callable, threshold: float,
          det_frames: Sequence, gt_frames: Sequence) -> ApResult:
    """Average precision over the N_RECALL evenly spaced recall positions.

    Boxes must expose .score. det_frames and gt_frames hold one frame id per
    box; matches never cross frames.
    """
    if len(det_frames) != len(dets) or len(gt_frames) != len(gts):
        raise ValueError("frame id lists must align with the box lists")
    return _ap_40([d.score for d in dets], det_frames, gt_frames,
                  lambda i, j: iou_fn(dets[i], gts[j]), threshold)


def _ap_40(scores: Sequence[float], det_frames: Sequence, gt_frames: Sequence,
           iou_of: Callable[[int, int], float], threshold: float) -> ApResult:
    """ap_40 on detection scores and frames, iou_of(i, j) giving the IoU of
    detection i and ground-truth box j."""
    n_det, n_gt = len(scores), len(gt_frames)
    if not n_gt:
        if not n_det:
            return ApResult(ap=None, n_gt=0, n_det=0, n_matched=0)
        return ApResult(ap=0.0, n_gt=0, n_det=n_det, n_matched=0)
    if not n_det:
        return ApResult(ap=0.0, n_gt=n_gt, n_det=0, n_matched=0)

    # Greedy matching: tp[rank] flags the rank-th detection by descending score.
    order = sorted(range(n_det), key=lambda i: -scores[i])  # stable on ties
    gts_in_frame: dict = {}
    for j, frame in enumerate(gt_frames):
        gts_in_frame.setdefault(frame, []).append(j)  # ascending gt index
    taken = [False] * n_gt
    tp = [False] * n_det
    for rank, di in enumerate(order):
        best_iou = 0.0
        best_j = -1
        for j in gts_in_frame.get(det_frames[di], ()):
            if taken[j]:
                continue
            iou = iou_of(di, j)
            if iou >= threshold and iou > best_iou:  # strict > keeps the lowest gt index on ties
                best_iou = iou
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True

    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, n_det + 1)
    recalls = cum_tp / n_gt
    precisions = cum_tp / ranks
    ap = 0.0
    for i in range(1, N_RECALL + 1):
        r = i / N_RECALL
        mask = recalls >= r - 1e-12
        ap += float(precisions[mask].max()) if np.any(mask) else 0.0
    ap /= N_RECALL
    return ApResult(ap=ap, n_gt=n_gt, n_det=n_det, n_matched=int(cum_tp[-1]))


# ---------------------------------------------------------------------------
# full report

def bin_label(lo: float, hi: float) -> str:
    return f"{lo:g}-{hi:g}m"


@dataclass(frozen=True)
class EvalReport:
    """AP per (class, kind, bin); laid out like a results table."""

    cells: dict[tuple[str, str, str], ApResult]
    classes: tuple[str, ...]
    bin_labels: tuple[str, ...]
    kinds: ClassVar[tuple[str, ...]] = KINDS

    def ap(self, cls: str, kind: str, bin_lbl: str) -> float | None:
        return self.cells[(cls, kind, bin_lbl)].ap

    def to_json_dict(self) -> dict:
        out: dict = {"classes": {}}
        for cls in self.classes:
            per_kind: dict = {}
            for kind in self.kinds:
                per_bin = {}
                for lbl in self.bin_labels:
                    per_bin[lbl] = asdict(self.cells[(cls, kind, lbl)])
                per_kind[kind] = per_bin
            out["classes"][cls] = per_kind
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["class", "kind", "bin", "ap", "n_gt", "n_det", "n_matched"])
        for cls in self.classes:
            for kind in self.kinds:
                for lbl in self.bin_labels:
                    cell = self.cells[(cls, kind, lbl)]
                    ap = "" if cell.ap is None else repr(cell.ap)
                    writer.writerow([cls, kind, lbl, ap, cell.n_gt, cell.n_det, cell.n_matched])
        return buf.getvalue()


Row = tuple[str, Box3D, Box2D]  # (frame id, 3D box, 2D box)


def read_boxes(predictions_path, labels_by_frame: Mapping[str, Path | str]
               ) -> tuple[list[Row], list[Row]]:
    """The detections of a prediction file, in file order, and the ground
    truth of per-frame label files, frame by frame in sorted frame order."""
    dets = [(frame_id, box, box2d)
            for frame_id, box, box2d, _code in read_predictions(predictions_path)]
    gts = [(frame_id, obj.box, obj.box2d)
           for frame_id, path in sorted(labels_by_frame.items())
           for obj in read_labels(path)]
    return dets, gts


def evaluate(dets: Sequence[Row], gts: Sequence[Row], cfg: EvalConfig) -> EvalReport:
    """Score detections against ground truth, both as read_boxes returns them.

    Each box's footprint corners are built once per class, and each (det, gt)
    footprint intersection is clipped at most once, shared by the bev and 3d
    kinds.
    """
    classes = tuple(sorted(cfg.iou_thresholds))
    unknown = {box.cls for _frame, box, _box2d in (*dets, *gts)} - set(classes)
    for name in sorted(unknown):
        logger.warning("class %r has no IoU threshold, ignoring its boxes", name)

    cells: dict[tuple[str, str, str], ApResult] = {}
    labels = tuple(bin_label(lo, hi) for lo, hi in cfg.bins)
    for cls in classes:
        threshold = cfg.iou_thresholds[cls]
        cls_dets = [r for r in dets if r[1].cls == cls]
        cls_gts = [r for r in gts if r[1].cls == cls]
        det_corners = [r[1].bev_corners() for r in cls_dets]
        gt_corners = [r[1].bev_corners() for r in cls_gts]
        areas: dict[tuple[int, int], float] = {}

        def bev_area(i: int, j: int) -> float:
            area = areas.get((i, j))
            if area is None:
                area = areas[(i, j)] = convex_intersection_area(det_corners[i], gt_corners[j])
            return area

        iou_of = {
            "2d": lambda i, j: iou_2d(cls_dets[i][2], cls_gts[j][2]),
            "bev": lambda i, j: _bev_iou(bev_area(i, j), cls_dets[i][1], cls_gts[j][1]),
            "3d": lambda i, j: _volume_iou(bev_area(i, j), cls_dets[i][1], cls_gts[j][1]),
        }
        for (lo, hi), lbl in zip(cfg.bins, labels):
            d_idx = [i for i, r in enumerate(cls_dets) if lo <= r[1].z < hi]
            g_idx = [j for j, r in enumerate(cls_gts) if lo <= r[1].z < hi]
            for kind in KINDS:
                box, iou = (2 if kind == "2d" else 1), iou_of[kind]
                cells[(cls, kind, lbl)] = _ap_40(
                    [cls_dets[i][box].score for i in d_idx],
                    [cls_dets[i][0] for i in d_idx], [cls_gts[j][0] for j in g_idx],
                    lambda a, b: iou(d_idx[a], g_idx[b]), threshold,
                )
    return EvalReport(cells=cells, classes=classes, bin_labels=labels)


# ---------------------------------------------------------------------------
# BEV sketches

def bev_svg(gts: Sequence[Box3D], dets: Sequence[Box3D]) -> str:
    """A BEV sketch of one frame, x in [-40, 40] m and z in [0, 110] m at
    6 px/m: ground truth green, detections orange."""
    x0, x1, z0, z1, scale = -40.0, 40.0, 0.0, 110.0, 6.0
    w = (x1 - x0) * scale
    h = (z1 - z0) * scale

    def to_px(x: float, z: float) -> tuple[float, float]:
        return (x - x0) * scale, (z1 - z) * scale  # z grows upward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="#fafafa"/>',
    ]
    cx, cz = to_px(0.0, 0.0)
    parts.append(
        f'<path d="M {cx - 6:.1f} {cz:.1f} L {cx:.1f} {cz - 10:.1f} L {cx + 6:.1f} {cz:.1f} Z" '
        f'fill="#444"/>'
    )
    for boxes, color in ((gts, "#2e7d32"), (dets, "#ef6c00")):
        for b in boxes:
            pts = " ".join(
                f"{px:.1f},{pz:.1f}" for px, pz in (to_px(x, z) for x, z in b.bev_corners())
            )
            parts.append(
                f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
