"""Planar polygon helpers for bird's-eye-view box geometry.

The BEV plane is camera x (right) against camera z (forward). Rectangles are
handed around as (4, 2) corner arrays in counterclockwise order; their
intersection is clipped Sutherland-Hodgman style and measured with the
shoelace formula, on Python floats.

Each clip step keeps the signed distance of every vertex to the clip line
(up to the edge length). An edge whose ends lie on opposite sides is cut at
the fraction t = d_s / (d_s - d_p) of its length: the two distances differ
in sign, so t lies in [0, 1] and the denominator is at least |d_p|. Unlike
intersecting the two infinite lines, this stays exact to rounding when an
edge lies on the clip line, as for boxes that touch or slide along a shared
edge.
"""

from __future__ import annotations

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


def convex_intersection_area(a: np.ndarray, b: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons, (n, 2) arrays.

    Areas at or below AREA_EPS, such as those of polygons that only touch,
    read as exactly 0.0.
    """
    poly = a.tolist()
    clip = b.tolist()
    for (x1, z1), (x2, z2) in zip(clip, clip[1:] + clip[:1]):
        ex, ez = x2 - x1, z2 - z1
        dist = [ex * (pz - z1) - ez * (px - x1) for px, pz in poly]  # >= 0 is inside
        out = []
        (sx, sz), ds = poly[-1], dist[-1]
        for (px, pz), dp in zip(poly, dist):
            if (dp >= 0.0) != (ds >= 0.0):  # the edge s -> p crosses the clip line
                t = ds / (ds - dp)
                out.append((sx + t * (px - sx), sz + t * (pz - sz)))
            if dp >= 0.0:
                out.append((px, pz))
            sx, sz, ds = px, pz, dp
        if len(out) < 3:
            return 0.0
        poly = out
    # shoelace over the fan from the first vertex, which keeps the terms small
    x0, z0 = poly[0]
    area = 0.5 * abs(sum((xa - x0) * (zb - z0) - (za - z0) * (xb - x0)
                         for (xa, za), (xb, zb) in zip(poly[1:], poly[2:])))
    return area if area > AREA_EPS else 0.0
