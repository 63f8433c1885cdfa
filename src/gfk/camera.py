"""Pinhole camera model and viewing-geometry helpers.

Coordinate conventions used throughout the package:

    camera frame   x right, y down, z forward along the optical axis (meters)
    image frame    u right, v down (pixels)

"Depth" always means camera-frame z, never euclidean range. Angles are
radians and live in (-pi, pi] after wrapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import NonPositiveDepth, ParseError
from .records import FieldError, build, parse_json


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle in radians to the half-open interval (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    f_u: float
    f_v: float
    c_u: float
    c_v: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.f_u <= 0 or self.f_v <= 0:
            raise ValueError(f"focal lengths must be positive, got ({self.f_u}, {self.f_v})")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.c_u < self.width):
            raise ValueError(f"c_u={self.c_u} outside [0, {self.width})")
        if not (0 <= self.c_v < self.height):
            raise ValueError(f"c_v={self.c_v} outside [0, {self.height})")


# 1280x720 sensor at 10 um pitch behind a 23 mm lens: f = 23e-3 / 10e-6 = 2300 px.
DEFAULT_CAMERA = CameraModel(
    f_u=2300.0, f_v=2300.0, c_u=640.0, c_v=360.0, width=1280, height=720
)


def project(x: float, y: float, z: float, cam: CameraModel) -> tuple[float, float]:
    """Project a camera-frame point to continuous pixel coordinates (u, v).

    The result may lie outside the sensor rectangle; callers clip when they
    care. Raises NonPositiveDepth for z <= 0.
    """
    if z <= 0:
        raise NonPositiveDepth(f"cannot project point at z={z}")
    return cam.f_u * x / z + cam.c_u, cam.f_v * y / z + cam.c_v


def backproject(u: float, v: float, z: float, cam: CameraModel) -> tuple[float, float, float]:
    """Invert the projection at a known depth z > 0, giving (x, y, z)."""
    if z <= 0:
        raise NonPositiveDepth(f"cannot backproject to z={z}")
    return (u - cam.c_u) * z / cam.f_u, (v - cam.c_v) * z / cam.f_v, z


def observation_angle_to_yaw(theta_obs: float, x: float, z: float) -> float:
    """Convert a viewpoint-relative observation angle at (x, z) to a global yaw.

    The observation angle is what a detector can actually see in a crop; the
    viewing-ray bearing atan2(x, z) must be added back to obtain yaw.
    """
    return wrap_to_pi(theta_obs + math.atan2(x, z))


def yaw_to_observation_angle(yaw: float, x: float, z: float) -> float:
    """Inverse of observation_angle_to_yaw at the same point."""
    return wrap_to_pi(yaw - math.atan2(x, z))


def calibration_to_json(cam: CameraModel) -> str:
    return json.dumps(asdict(cam), indent=2) + "\n"


def load_calibration(path: str | Path) -> CameraModel:
    path = Path(path)
    try:
        return build(CameraModel, parse_json(path.read_bytes()))
    except FieldError as e:
        raise ParseError(f"{path}: {e}") from None
