"""Synthetic scene sampling and box bookkeeping.

A scene is a handful of upright boxes on a flat ground plane in front of the
camera, each tagged with a lambertian albedo. Boxes follow the usual
driving-dataset convention: (x, y, z) is the center of the bottom face, the
box extends from y up to y - h (y points down), yaw rotates about the
vertical axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from .camera import DEFAULT_CAMERA, CameraModel, project, wrap_to_pi
from .errors import BehindCamera, FullyOutOfImage, InvalidAlbedo, ParseError
from .geometry import convex_intersection_area, rect_corners
from .records import FieldError, build, get, read_jsonl

# Corners behind this z (meters) are clipped before projection.
Z_CLIP = 1e-3

# The largest |x|, |y|, z and dimension in meters a label may hold: far
# beyond any scene simulate places, and far below where a frustum code or
# a training loss loses its meaning.
MAX_EXTENT_M = 1e4

# The largest |u|, |v| and extent in pixels a 2D box read from a file may
# hold: beyond any image a frame could be allocated for, and small enough
# that the geometry features (a coordinate over the image size) stay far
# inside float32, the network's dtype.
MAX_BOX2D_PX = 1e9

# Two footprints whose bounding circles lie farther apart than the sum of
# their radii times this factor are disjoint with room to spare for rounding:
# their intersection would read 0.0, so placement does not clip them.
CIRCLES_APART = 1.0 + 1e-9


def _circles_apart(x1: float, z1: float, r1: float, x2: float, z2: float, r2: float) -> bool:
    return math.hypot(x1 - x2, z1 - z2) > (r1 + r2) * CIRCLES_APART


@dataclass(frozen=True)
class ObjectClass:
    """Per-class dimension statistics: mean (h, w, l) and height spread."""

    name: str
    dim_mean: tuple[float, float, float]
    sigma_h: float

    def __post_init__(self) -> None:
        if len(self.dim_mean) != 3 or not all(0 < d < math.inf for d in self.dim_mean):
            raise ValueError(f"{self.name}: mean dimensions must be 3 positive finite "
                             f"numbers, got {self.dim_mean}")
        if not 0 <= self.sigma_h < math.inf:
            raise ValueError(f"{self.name}: sigma_h must be finite and >= 0, got {self.sigma_h}")
        # sample_scene draws each dimension within 3 sigma of its mean, sigma
        # being sigma_h scaled by that mean over the height mean
        reach = max(self.dim_mean) * (1.0 + 3.0 * self.sigma_h / self.dim_mean[0])
        if reach > MAX_EXTENT_M:
            raise ValueError(f"{self.name}: dimensions reach {reach:g} m, beyond the "
                             f"{MAX_EXTENT_M:g} m a label may hold")


# k=2 spans pedestrian heights 1.5 m to 2.0 m, which covers most adults.
PEDESTRIAN = ObjectClass("Pedestrian", (1.75, 0.6, 0.8), 0.125)
CAR = ObjectClass("Car", (1.55, 1.85, 4.30), 0.15)

DEFAULT_CLASSES: dict[str, ObjectClass] = {c.name: c for c in (CAR, PEDESTRIAN)}


def class_stats_to_json(classes: dict[str, ObjectClass]) -> dict:
    """Class statistics as stored in manifests and model metadata, sorted by name."""
    return {
        name: {"dim_mean": list(c.dim_mean), "sigma_h": c.sigma_h}
        for name, c in sorted(classes.items())
    }


def class_stats_from_json(recs: Mapping[str, dict], where: str) -> dict[str, ObjectClass]:
    """Inverse of class_stats_to_json; an empty map or a malformed record raises FieldError."""
    if not recs:
        raise FieldError("at least one object class required", where)
    return {name: build(ObjectClass, rec, (where, name), name=name) for name, rec in recs.items()}


@dataclass(frozen=True)
class Box3D:
    """An upright 3D box in the camera frame; (x, y, z) is the bottom-face center."""

    cls: str
    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    yaw: float
    score: float = 1.0

    def __post_init__(self) -> None:
        if self.h <= 0 or self.w <= 0 or self.l <= 0:
            raise ValueError(f"nonpositive dimension (h={self.h}, w={self.w}, l={self.l})")

    def bev_corners(self) -> np.ndarray:
        """Footprint corners in the x-z plane, CCW, shape (4, 2)."""
        return rect_corners(self.x, self.z, self.w, self.l, self.yaw)

    def corners_3d(self) -> np.ndarray:
        """All 8 corners, shape (8, 3): bottom face first, then top face."""
        bev = self.bev_corners()
        out = np.empty((8, 3))
        out[:4, 0] = out[4:, 0] = bev[:, 0]
        out[:4, 2] = out[4:, 2] = bev[:, 1]
        out[:4, 1] = self.y
        out[4:, 1] = self.y - self.h
        return out


# Edges of corners_3d, used when part of a box sits behind the image plane.
_BOX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)


@dataclass(frozen=True)
class Box2D:
    """An axis-aligned image box: center (u, v) with extents (w_u, h_v) in pixels."""

    cls: str
    u: float
    v: float
    w_u: float
    h_v: float
    score: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.u, self.v, self.w_u, self.h_v))):
            raise ValueError(f"2D box is not finite ({self.u}, {self.v}, {self.w_u}, {self.h_v})")
        if self.w_u <= 0 or self.h_v <= 0:
            raise ValueError(f"nonpositive 2D box size ({self.w_u}, {self.h_v})")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")


class SceneObject(NamedTuple):
    box: Box3D
    albedo: float


@dataclass(frozen=True)
class SceneDescription:
    """Everything the renderer needs for one frame."""

    objects: tuple[SceneObject, ...]
    background_albedo: float = 0.0
    background_range: float = 150.0
    placement_warning: bool = False

    def __post_init__(self) -> None:
        for obj in self.objects:
            if not (0.0 <= obj.albedo <= 1.0):
                raise InvalidAlbedo(f"object albedo {obj.albedo} outside [0, 1]")
        if not (0.0 <= self.background_albedo <= 1.0):
            raise InvalidAlbedo(f"background albedo {self.background_albedo} outside [0, 1]")


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for sample_scene; placement happens inside the view frustum."""

    camera: CameraModel = DEFAULT_CAMERA
    classes: tuple[ObjectClass, ...] = tuple(DEFAULT_CLASSES.values())
    min_objects: int = 1
    max_objects: int = 4
    z_range: tuple[float, float] = (5.0, 85.0)
    ground_y: float = 1.65
    ground_y_jitter: float = 0.0
    albedo_range: tuple[float, float] = (0.2, 0.9)
    x_margin: float = 0.85
    background_albedo: float = 0.0
    background_range: float = 150.0
    max_retries: int = 100

    def __post_init__(self) -> None:
        if not (0 <= self.min_objects <= self.max_objects):
            raise ValueError(f"bad object count range [{self.min_objects}, {self.max_objects}]")
        z0, z1 = self.z_range
        if not (3.0 <= z0 < z1 <= 120.0):
            raise ValueError(f"z_range {self.z_range} outside [3, 120]")
        a0, a1 = self.albedo_range
        if not (0.0 <= a0 <= a1 <= 1.0):
            raise ValueError(f"albedo_range {self.albedo_range} outside [0, 1]")
        if self.ground_y_jitter < 0.0:
            raise ValueError(f"ground_y_jitter must be >= 0, got {self.ground_y_jitter}")
        if not self.classes:
            raise ValueError("at least one object class required")
        if self.x_margin < 0.0:
            raise ValueError(f"x_margin must be >= 0, got {self.x_margin}")
        if not 0.0 <= self.background_albedo <= 1.0:
            raise ValueError(f"background_albedo {self.background_albedo} outside [0, 1]")
        if self.background_range < 0.0:
            raise ValueError(f"background_range must be >= 0, got {self.background_range}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        reach = max(self.camera.width / self.camera.f_u * z1 * self.x_margin,
                    abs(self.ground_y) + self.ground_y_jitter)
        if reach > MAX_EXTENT_M:
            raise ValueError(f"objects placed up to {reach:g} m off the optical axis, beyond "
                             f"the {MAX_EXTENT_M:g} m a label may hold")


def _trunc_normal(rng: np.random.Generator, mean: float, sigma: float) -> float:
    # resample until within +-3 sigma and above 1 cm; keeps dimensions positive
    if sigma <= 0:
        return mean
    while True:
        x = rng.normal(mean, sigma)
        if abs(x - mean) <= 3.0 * sigma and x > 0.01:
            return float(x)


def sample_scene(cfg: SceneConfig, rng: np.random.Generator) -> SceneDescription:
    """Draw a random scene with pairwise disjoint BEV footprints.

    Placement is rejection-sampled; if an object cannot be placed within
    cfg.max_retries attempts it is dropped and the scene is returned with
    placement_warning set.
    """
    cam = cfg.camera
    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    objects: list[SceneObject] = []
    footprints: list[tuple[float, float, float, np.ndarray]] = []  # x, z, radius, corners
    warning = False
    for _ in range(n):
        for _ in range(cfg.max_retries):
            cls = cfg.classes[int(rng.integers(len(cfg.classes)))]
            mh, mw, ml = cls.dim_mean
            h = _trunc_normal(rng, mh, cls.sigma_h)
            w = _trunc_normal(rng, mw, cls.sigma_h * mw / mh)
            length = _trunc_normal(rng, ml, cls.sigma_h * ml / mh)
            z = float(rng.uniform(*cfg.z_range))
            x_lo = -cam.c_u / cam.f_u * z * cfg.x_margin
            x_hi = (cam.width - 1 - cam.c_u) / cam.f_u * z * cfg.x_margin
            x = float(rng.uniform(x_lo, x_hi))
            yaw = wrap_to_pi(float(rng.uniform(-math.pi, math.pi)))
            y = cfg.ground_y
            if cfg.ground_y_jitter > 0.0:
                # per-object vertical offset: road grade / mounting pitch spread
                y += float(rng.uniform(-cfg.ground_y_jitter, cfg.ground_y_jitter))
            box = Box3D(cls.name, x, y, z, h, w, length, yaw)
            corners = box.bev_corners()
            radius = 0.5 * math.hypot(w, length)
            if all(_circles_apart(x, z, radius, fx, fz, fr)
                   or convex_intersection_area(corners, fc) == 0.0
                   for fx, fz, fr, fc in footprints):
                albedo = float(rng.uniform(*cfg.albedo_range))
                objects.append(SceneObject(box, albedo))
                footprints.append((x, z, radius, corners))
                break
        else:
            warning = True
    return SceneDescription(
        objects=tuple(objects),
        background_albedo=cfg.background_albedo,
        background_range=cfg.background_range,
        placement_warning=warning,
    )


def oracle_box2d(b: Box3D, cam: CameraModel) -> Box2D:
    """Tight axis-aligned image box around the projected 3D box.

    Corners behind the image plane are clipped against z = Z_CLIP before
    projection. Raises BehindCamera when nothing is in front, FullyOutOfImage
    when the projected hull misses the sensor.
    """
    pts = b.corners_3d()
    z = pts[:, 2]
    front = z > Z_CLIP
    if not front.any():
        raise BehindCamera(f"box at z={b.z} entirely behind the camera")
    keep = pts[front].tolist()
    for i, j in _BOX_EDGES:
        if front[i] != front[j]:
            t = (Z_CLIP - z[i]) / (z[j] - z[i])
            keep.append((pts[i] + t * (pts[j] - pts[i])).tolist())
    us, vs = zip(*(project(*p, cam) for p in keep))
    u_min = max(min(us), 0.0)
    u_max = min(max(us), cam.width - 1.0)
    v_min = max(min(vs), 0.0)
    v_max = min(max(vs), cam.height - 1.0)
    if u_max <= u_min or v_max <= v_min:
        raise FullyOutOfImage(f"box at ({b.x:.1f}, {b.z:.1f}) projects outside the image")
    return Box2D(
        cls=b.cls,
        u=(u_min + u_max) / 2.0,
        v=(v_min + v_max) / 2.0,
        w_u=u_max - u_min,
        h_v=v_max - v_min,
        score=b.score,
    )


def perturb_box2d(b: Box2D, level: float, rng: np.random.Generator) -> Box2D:
    """Detector-style degradation of a 2D box.

    Center jitter is N(0, (level * extent)^2) per axis, extents get
    multiplicative log-normal jitter with sigma=level, and the score drops
    by the same fraction. level=0 returns the box unchanged.
    """
    if level < 0:
        raise ValueError(f"perturbation level {level} must be >= 0")
    u = b.u + rng.normal(0.0, level * b.w_u)
    v = b.v + rng.normal(0.0, level * b.h_v)
    w_u = b.w_u * math.exp(rng.normal(0.0, level))
    h_v = b.h_v * math.exp(rng.normal(0.0, level))
    score = b.score * max(0.0, 1.0 - level)
    return replace(b, u=float(u), v=float(v), w_u=float(w_u), h_v=float(h_v), score=score)


# ---------------------------------------------------------------------------
# label files: one JSON object per line per frame

class LabeledObject(NamedTuple):
    box: Box3D
    box2d: Box2D
    albedo: float


def box_record(b: Box3D, p: Box2D, **after_yaw) -> dict:
    """The JSON record of a 3D box and its 2D box, as in label and prediction files.

    The after_yaw keys go between yaw and box2d: the key order is part of the
    file bytes.
    """
    return {"class": b.cls, "x": b.x, "y": b.y, "z": b.z, "h": b.h, "w": b.w, "l": b.l,
            "yaw": b.yaw, **after_yaw, "box2d": [p.u, p.v, p.w_u, p.h_v]}


def parse_box(rec, score: float = 1.0) -> tuple[Box3D, Box2D]:
    """Inverse of box_record, giving both boxes the score; raises FieldError,
    also for a 2D box beyond MAX_BOX2D_PX."""
    box = build(Box3D, rec, cls=get(rec, "class", str), score=score)
    u, v, w_u, h_v = get(rec, "box2d", tuple[float, float, float, float])
    if abs(far := max((u, v, w_u, h_v), key=abs)) > MAX_BOX2D_PX:
        raise FieldError(f"{far:g} px is beyond the {MAX_BOX2D_PX:g} px a 2D box may hold",
                         "box2d")
    try:
        return box, Box2D(box.cls, u, v, w_u, h_v, score)
    except ValueError as e:
        raise FieldError(str(e), "box2d") from None


def parse_label(rec, where: str) -> LabeledObject:
    try:
        box, box2d = parse_box(rec)
        for name in ("x", "y", "z", "h", "w", "l"):
            if abs(value := getattr(box, name)) > MAX_EXTENT_M:
                raise FieldError(f"{value:g} m is beyond the {MAX_EXTENT_M:g} m a label may hold",
                                 name)
        return LabeledObject(box, box2d, get(rec, "albedo", float))
    except FieldError as e:
        raise ParseError(f"{where}: {e}") from None


def labels_to_jsonl(objs: list[LabeledObject]) -> str:
    return "".join(json.dumps(box_record(o.box, o.box2d) | {"albedo": o.albedo}) + "\n"
                   for o in objs)


def read_labels(path: str | Path) -> list[LabeledObject]:
    return read_jsonl(path, parse_label)
