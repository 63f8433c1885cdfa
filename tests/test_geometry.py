import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk.geometry import clip_convex, convex_intersection_area, polygon_area, rect_corners

from oracles import mc_iou_bev, numpy_scalar_clip_convex


def square(cx, cy, side, yaw=0.0):
    return rect_corners(cx, cy, side, side, yaw)


def test_polygon_area_shoelace():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert polygon_area(tri) == pytest.approx(0.5)
    assert polygon_area(square(0, 0, 2)) == pytest.approx(4.0)


def test_rect_corners_ccw_and_extent():
    # length runs along the yaw-0 heading (+x), width across it
    c = rect_corners(3.0, -1.0, 2.0, 4.0, 0.0)
    signed = 0.5 * (np.dot(c[:, 0], np.roll(c[:, 1], -1)) - np.dot(c[:, 1], np.roll(c[:, 0], -1)))
    assert signed > 0  # CCW
    assert c[:, 0].min() == pytest.approx(1.0)
    assert c[:, 0].max() == pytest.approx(5.0)
    assert c[:, 1].min() == pytest.approx(-2.0)
    assert c[:, 1].max() == pytest.approx(0.0)


def test_rect_corners_rotation_invariants():
    c = rect_corners(0.0, 0.0, 1.0, 3.0, 0.7)
    assert polygon_area(c) == pytest.approx(3.0)
    # diagonal lengths preserved under rotation
    d1 = np.linalg.norm(c[0] - c[2])
    assert d1 == pytest.approx(math.hypot(1.0, 3.0))


def test_clip_identical():
    a = square(0, 0, 2)
    assert convex_intersection_area(a, a) == pytest.approx(4.0)


def test_clip_disjoint():
    assert convex_intersection_area(square(0, 0, 2), square(10, 0, 2)) == 0.0
    # touching along an edge counts as zero area
    assert convex_intersection_area(square(0, 0, 2), square(2, 0, 2)) == pytest.approx(0.0, abs=1e-9)


def test_clip_quarter_overlap():
    a = square(0, 0, 2)
    b = square(1, 1, 2)
    assert convex_intersection_area(a, b) == pytest.approx(1.0)


def test_clip_rotated_square_in_square():
    # 45-degree square inscribed in the unit-ish square: intersection is the diamond
    a = square(0, 0, 2)
    b = square(0, 0, 2, yaw=math.pi / 4)
    # diamond with vertices at distance sqrt(2) on the axes, clipped to the square:
    # octagon; area = 8*(sqrt(2)-1) for side-2 squares
    assert convex_intersection_area(a, b) == pytest.approx(8 * (math.sqrt(2) - 1))


def test_crossed_rectangles_exact_third():
    # two 1x2 rectangles crossed at 90 degrees: intersection 1, union 3, IoU 1/3
    a = rect_corners(0, 0, 1.0, 2.0, 0.0)
    b = rect_corners(0, 0, 1.0, 2.0, math.pi / 2)
    inter = convex_intersection_area(a, b)
    assert inter == pytest.approx(1.0, abs=1e-12)
    iou = inter / (2.0 + 2.0 - inter)
    assert iou == pytest.approx(1.0 / 3.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-3, 3), st.floats(-3, 3), st.floats(0.5, 4), st.floats(0.5, 4),
    st.floats(-math.pi, math.pi),
    st.floats(-3, 3), st.floats(-3, 3), st.floats(0.5, 4), st.floats(0.5, 4),
    st.floats(-math.pi, math.pi),
)
def test_intersection_bounds_and_symmetry(x1, y1, w1, l1, t1, x2, y2, w2, l2, t2):
    a = rect_corners(x1, y1, w1, l1, t1)
    b = rect_corners(x2, y2, w2, l2, t2)
    ab = convex_intersection_area(a, b)
    ba = convex_intersection_area(b, a)
    assert ab == pytest.approx(ba, abs=1e-9)
    assert 0.0 <= ab <= min(w1 * l1, w2 * l2) + 1e-9


def test_intersection_against_monte_carlo():
    # spot-check areas against the sampling oracle through the IoU form
    from gfk import Box3D

    def box(x, z, w, l, yaw):
        return Box3D(cls="Car", x=x, y=0.0, z=z, h=1.5, w=w, l=l, yaw=yaw)

    rng = np.random.default_rng(5)
    from gfk import iou_bev
    for _ in range(5):
        a = box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3),
                rng.uniform(0.5, 3), rng.uniform(-math.pi, math.pi))
        b = box(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 3),
                rng.uniform(0.5, 3), rng.uniform(-math.pi, math.pi))
        assert iou_bev(a, b) == pytest.approx(mc_iou_bev(a, b, n_side=500), abs=3e-3)


def test_clip_convex_degenerate():
    a = square(0, 0, 2)
    # clipping against a sliver that misses entirely
    sliver = rect_corners(5.0, 5.0, 0.01, 0.01, 0.3)
    assert clip_convex(a, sliver).shape[0] == 0 or convex_intersection_area(a, sliver) == 0.0


@st.composite
def rectangle_pairs(draw):
    """Two rectangles, in either order, that overlap at random, are identical,
    share a length or a width edge, slide along a shared edge line, or touch
    at a corner; rotated or axis-aligned."""
    size = st.floats(0.2, 6.0)
    turn = st.floats(-math.pi, math.pi)
    cx, cz = draw(st.floats(-60, 60)), draw(st.floats(-60, 60))
    w, l = draw(size), draw(size)
    yaw = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]), turn))
    c, s = math.cos(yaw), math.sin(yaw)  # the length runs along (c, -s), the width along (s, c)
    a = rect_corners(cx, cz, w, l, yaw)
    mode = draw(st.sampled_from(["random", "identical", "length-edge", "width-edge", "slide",
                                 "corner"]))
    if mode == "random":
        b = rect_corners(cx + draw(st.floats(-5, 5)), cz + draw(st.floats(-5, 5)),
                         draw(size), draw(size), draw(turn))
    elif mode == "identical":
        b = a.copy()
    elif mode == "slide":
        along = draw(st.floats(0.05, 0.95)) * l
        b = rect_corners(cx + along * c, cz - along * s, w, l, yaw)
    else:
        along = l if mode in ("length-edge", "corner") else 0.0
        across = w if mode in ("width-edge", "corner") else 0.0
        b = rect_corners(cx + along * c + across * s, cz - along * s + across * c, w, l, yaw)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=600, deadline=None)
@given(rectangle_pairs())
def test_clip_convex_matches_numpy_scalar_oracle_bit_for_bit(pair):
    # placement's == 0.0 test and every IoU byte depend on these vertices
    a, b = pair
    with np.errstate(all="ignore"):  # a shared edge can round to parallel: 1 / 0 = inf
        want = numpy_scalar_clip_convex(a, b)
    got = clip_convex(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
