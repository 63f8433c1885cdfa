import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk import (
    Box2D,
    Box3D,
    CAR,
    CameraModel,
    DEFAULT_CAMERA,
    DegenerateBox,
    FrustumCode,
    InvalidStats,
    NonFiniteBox,
    NonPositiveDimension,
    ObjectClass,
    PEDESTRIAN,
    ParseError,
    decode,
    encode,
    frustum_segment,
    read_predictions,
    triangulate_depth,
    wrap_to_pi,
)
from gfk.codec import predictions_to_jsonl
from gfk.scene import oracle_box2d


def test_triangulate_fixture():
    # 1.75 m pedestrian spanning 230 px under f_v = 2300 stands at 17.5 m
    assert triangulate_depth(230.0, 1.75, DEFAULT_CAMERA) == 17.5


def test_triangulate_degenerate():
    with pytest.raises(DegenerateBox):
        triangulate_depth(1e-4, 1.75, DEFAULT_CAMERA)
    with pytest.raises(ValueError):
        triangulate_depth(230.0, -1.0, DEFAULT_CAMERA)


def test_segment_fixture():
    # k=2 around the pedestrian height prior: 1.5 m at 230 px gives 15 m,
    # 2.0 m gives 20 m, so the segment is [15, 20] anchored at 17.5
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    seg = frustum_segment(p, PEDESTRIAN, 2.0, DEFAULT_CAMERA, h_ref=PEDESTRIAN.dim_mean[0])
    assert seg.z_near == 15.0
    assert seg.z_far == 20.0
    assert seg.d == 5.0
    assert seg.z_anchor == 17.5


def test_segment_depth_floor():
    # a huge 2D box still yields a usable segment length
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=500.0, h_v=14000.0)
    seg = frustum_segment(p, PEDESTRIAN, 2.0, DEFAULT_CAMERA, h_ref=PEDESTRIAN.dim_mean[0])
    assert seg.d == 0.25


def test_segment_invalid_stats():
    bad = ObjectClass("Pedestrian", (1.75, 0.6, 0.8), 0.9)  # mean - k*sigma <= 0
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    with pytest.raises(InvalidStats):
        frustum_segment(p, bad, 2.0, DEFAULT_CAMERA, h_ref=bad.dim_mean[0])


def test_encode_dz_fixture():
    # pedestrian at z = 18 in the [15, 20] segment: dz = (18 - 17.5) / 5 = 0.1
    b = Box3D(cls="Pedestrian", x=0.0, y=1.65, z=18.0, h=1.75, w=0.6, l=0.8, yaw=0.0)
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    q = encode(b, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    assert q.dz == pytest.approx(0.1)
    assert q.dh == pytest.approx(0.0)
    assert q.sin_t**2 + q.cos_t**2 == pytest.approx(1.0)


def test_encode_offsets_zero_when_centered():
    b = Box3D(cls="Pedestrian", x=0.0, y=1.65, z=18.0, h=1.75, w=0.6, l=0.8, yaw=0.0)
    px = oracle_box2d(b, DEFAULT_CAMERA)
    q = encode(b, px, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    # the projected center of the box sits inside its own 2D box
    assert abs(q.du) < 0.5
    assert abs(q.dv) < 0.5


def test_encode_class_mismatch():
    b = Box3D(cls="Car", x=0.0, y=1.65, z=18.0, h=1.5, w=1.8, l=4.0, yaw=0.0)
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    with pytest.raises(ValueError):
        encode(b, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)


def box_strategy():
    return st.builds(
        lambda x, z, h, w, l, yaw: Box3D(
            cls="Car", x=x, y=1.65, z=z, h=1.55 * h, w=1.85 * w, l=4.3 * l, yaw=yaw),
        x=st.floats(-15, 15),
        z=st.floats(6, 100),
        h=st.floats(0.75, 1.25),
        w=st.floats(0.75, 1.25),
        l=st.floats(0.75, 1.25),
        yaw=st.floats(-math.pi, math.pi),
    )


@settings(max_examples=150, deadline=None)
@given(box_strategy())
def test_roundtrip_through_observed_box(b):
    cam = DEFAULT_CAMERA
    try:
        p = oracle_box2d(b, cam)
    except Exception:
        return  # outside the image; nothing to encode
    q = encode(b, p, CAR, 2.0, cam)
    back = decode(q, p, CAR, 2.0, cam)
    assert back.x == pytest.approx(b.x, abs=1e-6)
    assert back.y == pytest.approx(b.y, abs=1e-6)
    assert back.z == pytest.approx(b.z, abs=1e-6)
    assert back.h == pytest.approx(b.h, abs=1e-6)
    assert back.w == pytest.approx(b.w, abs=1e-6)
    assert back.l == pytest.approx(b.l, abs=1e-6)
    assert abs(wrap_to_pi(back.yaw - b.yaw)) < 1e-6
    assert back.cls == b.cls


def test_decode_rescales_orientation():
    # decode must tolerate an unnormalized (sin, cos) pair, as a regressor emits
    b = Box3D(cls="Pedestrian", x=1.0, y=1.65, z=18.0, h=1.75, w=0.6, l=0.8, yaw=0.9)
    p = oracle_box2d(b, DEFAULT_CAMERA)
    q = encode(b, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    scaled = FrustumCode(q.du, q.dv, q.dz, q.dh, q.dw, q.dl, 3.0 * q.sin_t, 3.0 * q.cos_t)
    back = decode(scaled, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    assert abs(wrap_to_pi(back.yaw - b.yaw)) < 1e-9


def test_decode_nonpositive_dimension():
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    q = FrustumCode(0.0, 0.0, 0.0, -1.5, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(NonPositiveDimension):
        decode(q, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)


def test_decode_depth_floor():
    # drive the decoded depth to the floor with a huge negative dz
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    q = FrustumCode(0.0, 0.0, -40.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    from gfk import NonPositiveDepth
    with pytest.raises(NonPositiveDepth):
        decode(q, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)


@pytest.mark.parametrize("code", [
    (math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.nan, 1.0),
    (1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),  # finite, but x overflows
    (0.0, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0, 1.0),
], ids=["inf-du", "nan-sin_t", "overflow-x", "overflow-h"])
def test_decode_non_finite(code):
    p = Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0, h_v=230.0)
    with pytest.raises(NonFiniteBox):
        decode(FrustumCode(*code), p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)


def test_decode_uses_predicted_height_for_anchor():
    # decoding with dh != 0 must re-anchor the segment at the decoded height:
    # encode then decode with the true height recovers z exactly, which only
    # works if both sides resolve the anchor the same way
    b = Box3D(cls="Pedestrian", x=0.0, y=1.65, z=30.0, h=1.6, w=0.6, l=0.8, yaw=0.0)
    p = oracle_box2d(b, DEFAULT_CAMERA)
    q = encode(b, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    assert q.dh != pytest.approx(0.0)
    back = decode(q, p, PEDESTRIAN, 2.0, DEFAULT_CAMERA)
    assert back.z == pytest.approx(30.0, abs=1e-9)


def test_code_array_roundtrip():
    q = FrustumCode(0.1, -0.2, 0.3, 0.01, -0.02, 0.03, 0.6, 0.8)
    arr = np.array(q)
    assert arr.shape == (8,)
    assert FrustumCode(*arr) == q


def test_predictions_jsonl_roundtrip(tmp_path):
    b = Box3D(cls="Car", x=1.0, y=1.65, z=30.0, h=1.5, w=1.8, l=4.2, yaw=0.4, score=0.75)
    p = oracle_box2d(b, DEFAULT_CAMERA)
    q = encode(b, p, CAR, 2.0, DEFAULT_CAMERA)
    path = tmp_path / "pred.jsonl"
    path.write_text(predictions_to_jsonl([("frame_000001", b, p, q)]))
    rows = read_predictions(path)
    assert len(rows) == 1
    fid, b2, p2, q2 = rows[0]
    assert fid == "frame_000001"
    assert b2 == b
    assert p2 == p
    assert q2 == q


def test_read_predictions_error_location(tmp_path):
    path = tmp_path / "pred.jsonl"
    path.write_text("{nope\n")
    with pytest.raises(ParseError, match=":1"):
        read_predictions(path)
