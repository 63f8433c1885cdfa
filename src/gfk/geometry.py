"""Planar polygon helpers for bird's-eye-view box geometry.

The BEV plane is camera x (right) against camera z (forward). Rectangles are
handed around as (4, 2) corner arrays in counterclockwise order; intersection
uses Sutherland-Hodgman clipping, area the shoelace formula.

The clip runs on Python floats taken with tolist(): each operation is the
same IEEE double operation a numpy float64 scalar would do, at a fraction of
the cost, so the clipped vertices are bit-identical. The area stays on
np.dot, whose pairwise summation a sequential Python sum does not match in
the last bit.
"""

from __future__ import annotations

import math

import numpy as np

# Intersections thinner than this are treated as empty.
AREA_EPS = 1e-12


def rect_corners(cx: float, cz: float, width: float, length: float, yaw: float):
    """Corners of a rotated rectangle in the x-z plane, CCW, shape (4, 2).

    length runs along the heading given by yaw, width across it.
    """
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dz = length / 2.0, width / 2.0
    local = np.array([[dx, dz], [-dx, dz], [-dx, -dz], [dx, -dz]], dtype=float)
    rot = np.array([[c, s], [-s, c]])
    return local @ rot.T + np.array([cx, cz])


def polygon_area(poly: np.ndarray) -> float:
    """Unsigned area of a simple polygon given as an (n, 2) vertex array."""
    if len(poly) < 3:
        return 0.0
    x, z = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)))


def clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject polygon by a convex CCW clip polygon.

    Returns the intersection polygon as an (m, 2) array; m may be 0.
    """
    output = subject.tolist()
    clip_pts = clip.tolist()
    for (x1, z1), (x2, z2) in zip(clip_pts, clip_pts[1:] + clip_pts[:1]):
        if not output:
            break
        ex, ez = x2 - x1, z2 - z1
        dcx, dcz = x1 - x2, z1 - z2
        n1 = x1 * z2 - z1 * x2
        inside = [ex * (pz - z1) - ez * (px - x1) >= 0.0 for px, pz in output]
        input_list, output = output, []
        (sx, sz), s_in = input_list[-1], inside[-1]
        for (px, pz), p_in in zip(input_list, inside):
            if p_in != s_in:
                # the edge s -> p crosses the clip line
                dpx, dpz = sx - px, sz - pz
                n2 = sx * pz - sz * px
                den = dcx * dpz - dcz * dpx
                # as numpy's 1 / 0: an edge that rounds to parallel gives inf
                n3 = 1.0 / den if den else math.copysign(math.inf, den)
                output.append([(n1 * dpx - n2 * dcx) * n3, (n1 * dpz - n2 * dcz) * n3])
            if p_in:
                output.append([px, pz])
            sx, sz, s_in = px, pz, p_in
    return np.array(output, dtype=float).reshape(-1, 2)


def convex_intersection_area(a: np.ndarray, b: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons."""
    inter = clip_convex(a, b)
    if len(inter) < 3:
        return 0.0
    area = polygon_area(inter)
    return area if area > AREA_EPS else 0.0
