"""Frustum-segment encoding of 3D boxes against their 2D detections.

The pixel height h_v of a 2D box pins its depth up to the unknown metric
height of the object: z = f(h_v, h) = h * f_v / h_v. Sweeping h over the
class statistics mu_h +- k * sigma_h turns the viewing frustum of the box
into a depth segment [z_near, z_far]; depth is regressed as an offset within
that segment, which keeps the target scale-free across ranges. The other
offsets are plain normalized residuals, orientation is carried as
(sin, cos) of the observation angle.

Encoding anchors depth with the true object height; decoding anchors with
the height the network predicted. Both sides use the same segment length, so
encode followed by decode is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .camera import (CameraModel, backproject, observation_angle_to_yaw, project,
                     yaw_to_observation_angle)
from .errors import (DegenerateBox, InvalidStats, NonFiniteBox, NonPositiveDepth,
                     NonPositiveDimension, ParseError)
from .records import FieldError, get, read_jsonl
from .scene import Box2D, Box3D, ObjectClass, box_record, parse_box

# Half-width of the height sweep in sigmas.
K_DEFAULT = 2.0
# Floor on the segment length (meters) so dz stays bounded as sigma_h -> 0.
D_MIN = 0.25
# Decoded depths at or below this (meters) are rejected.
Z_FLOOR = 0.5
# 2D boxes shorter than this (pixels) carry no usable depth information.
EPS_PX = 1e-3


class FrustumCode(NamedTuple):
    """The eight regression coefficients for one box."""

    du: float
    dv: float
    dz: float
    dh: float
    dw: float
    dl: float
    sin_t: float
    cos_t: float


@dataclass(frozen=True)
class FrustumSegment:
    """Depth segment of a 2D box under a class height sweep."""

    z_near: float
    z_far: float
    d: float         # segment length used for normalization, >= D_MIN
    z_anchor: float  # depth triangulated from the reference height


def triangulate_depth(h_v: float, h: float, cam: CameraModel) -> float:
    """Depth from a pixel height and a metric height: z = h * f_v / h_v."""
    if h_v <= EPS_PX:
        raise DegenerateBox(f"pixel height {h_v} too small")
    if h <= 0:
        raise ValueError(f"metric height {h} must be positive")
    return (h * cam.f_v) / h_v


def frustum_segment(p: Box2D, stats: ObjectClass, k: float, cam: CameraModel,
                    h_ref: float) -> FrustumSegment:
    """Depth segment spanned by heights mu_h +- k * sigma_h at p's pixel height.

    h_ref picks the anchor height: the true height when encoding, the
    predicted height when decoding.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    mu_h = stats.dim_mean[0]
    h_lo = mu_h - k * stats.sigma_h
    h_hi = mu_h + k * stats.sigma_h
    if h_lo <= 0:
        raise InvalidStats(f"{stats.name}: mu_h - k*sigma_h = {h_lo} <= 0")
    z_near = triangulate_depth(p.h_v, h_lo, cam)
    z_far = triangulate_depth(p.h_v, h_hi, cam)
    d = max(z_far - z_near, D_MIN)
    return FrustumSegment(z_near=z_near, z_far=z_far, d=d,
                          z_anchor=triangulate_depth(p.h_v, h_ref, cam))


def encode(b: Box3D, p: Box2D, stats: ObjectClass, k: float, cam: CameraModel) -> FrustumCode:
    """Regression targets of a 3D box relative to its 2D box; NonFiniteBox on overflow."""
    if b.cls != p.cls:
        raise ValueError(f"class mismatch: 3D box is {b.cls}, 2D box is {p.cls}")
    u, v = project(b.x, b.y, b.z, cam)
    seg = frustum_segment(p, stats, k, cam, h_ref=b.h)
    mu_h, mu_w, mu_l = stats.dim_mean
    theta = yaw_to_observation_angle(b.yaw, b.x, b.z)
    q = FrustumCode(
        du=(u - p.u) / p.w_u,
        dv=(v - p.v) / p.h_v,
        dz=(b.z - seg.z_anchor) / seg.d,
        dh=(b.h - mu_h) / mu_h,
        dw=(b.w - mu_w) / mu_w,
        dl=(b.l - mu_l) / mu_l,
        sin_t=math.sin(theta),
        cos_t=math.cos(theta),
    )
    if not all(map(math.isfinite, q)):  # an extreme label overflows
        raise NonFiniteBox(f"code is not finite: {q}")
    return q


def decode(q: FrustumCode, p: Box2D, stats: ObjectClass, k: float, cam: CameraModel) -> Box3D:
    """Rebuild a 3D box from predicted coefficients and the 2D box they refer to."""
    if not all(map(math.isfinite, q)):  # predict writes the code too
        raise NonFiniteBox(f"code is not finite: {q}")
    mu_h, mu_w, mu_l = stats.dim_mean
    for name, d_rel in (("h", q.dh), ("w", q.dw), ("l", q.dl)):
        if 1.0 + d_rel <= 0:
            raise NonPositiveDimension(f"decoded {name} would be nonpositive (offset {d_rel})")
    h = mu_h * (1.0 + q.dh)
    w = mu_w * (1.0 + q.dw)
    length = mu_l * (1.0 + q.dl)
    seg = frustum_segment(p, stats, k, cam, h_ref=h)
    z = q.dz * seg.d + seg.z_anchor
    if z <= Z_FLOOR:
        raise NonPositiveDepth(f"decoded depth {z} at or below {Z_FLOOR} m")
    x, y, z = backproject(p.u + q.du * p.w_u, p.v + q.dv * p.h_v, z, cam)
    theta = math.atan2(q.sin_t, q.cos_t)  # scale-invariant, so no explicit normalization
    yaw = observation_angle_to_yaw(theta, x, z)
    if not all(map(math.isfinite, (x, y, z, h, w, length))):  # overflow
        raise NonFiniteBox(f"decoded box is not finite: x={x}, y={y}, z={z}, "
                           f"h={h}, w={w}, l={length}")
    return Box3D(cls=p.cls, x=x, y=y, z=z, h=h, w=w, l=length, yaw=yaw, score=p.score)


# ---------------------------------------------------------------------------
# prediction files: one JSON object per line

def parse_prediction(rec, where: str) -> tuple[str, Box3D, Box2D, FrustumCode]:
    try:
        box, box2d = parse_box(rec, get(rec, "score", float))
        code = FrustumCode(*get(rec, "code", tuple[(float,) * 8]))
        return get(rec, "frame", str), box, box2d, code
    except FieldError as e:
        raise ParseError(f"{where}: {e}") from None


def read_predictions(path) -> list[tuple[str, Box3D, Box2D, FrustumCode]]:
    return read_jsonl(path, parse_prediction)


def predictions_to_jsonl(rows: Iterable[tuple[str, Box3D, Box2D, FrustumCode]]) -> str:
    return "".join(
        json.dumps({"frame": fid, **box_record(b, p, score=b.score), "code": list(q)})
        + "\n" for fid, b, p, q in rows
    )
