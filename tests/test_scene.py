import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from gfk import (
    BehindCamera,
    Box2D,
    Box3D,
    CAR,
    CameraModel,
    DEFAULT_CAMERA,
    FullyOutOfImage,
    InvalidAlbedo,
    ObjectClass,
    PEDESTRIAN,
    ParseError,
    SceneConfig,
    oracle_box2d,
    perturb_box2d,
    read_labels,
    sample_scene,
)
from gfk.camera import project
from gfk.geometry import convex_intersection_area, rect_corners
from gfk.scene import (
    CIRCLES_APART,
    MAX_BOX2D_PX,
    MAX_EXTENT_M,
    LabeledObject,
    SceneDescription,
    SceneObject,
    _circles_apart,
    _trunc_normal,
    labels_to_jsonl,
    parse_label,
)
from oracles import oracle_box2d_per_point


def make_box(**kw):
    base = dict(cls="Car", x=0.0, y=1.65, z=20.0, h=1.55, w=1.85, l=4.3, yaw=0.0)
    base.update(kw)
    return Box3D(**base)


def test_class_defaults():
    assert PEDESTRIAN.dim_mean == (1.75, 0.6, 0.8)
    assert PEDESTRIAN.sigma_h == 0.125
    assert CAR.dim_mean == (1.55, 1.85, 4.30)
    assert CAR.sigma_h == 0.15


def test_box3d_validation():
    with pytest.raises(ValueError):
        make_box(h=0.0)
    with pytest.raises(ValueError):
        make_box(w=-1.0)


def test_box3d_vertical_span():
    # y is the bottom face; the box extends upward (decreasing y)
    b = make_box(y=1.65, h=1.55)
    c = b.corners_3d()
    assert c[:4, 1] == pytest.approx(np.full(4, 1.65))
    assert c[4:, 1] == pytest.approx(np.full(4, 1.65 - 1.55))


def test_box2d_validation():
    with pytest.raises(ValueError):
        Box2D(cls="Car", u=0.0, v=0.0, w_u=0.0, h_v=10.0)
    with pytest.raises(ValueError):
        Box2D(cls="Car", u=0.0, v=0.0, w_u=10.0, h_v=10.0, score=1.5)


@pytest.mark.parametrize("field", ["u", "v", "w_u", "h_v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_box2d_rejects_non_finite_values(field, value):
    # a NaN size used to pass the "<= 0" check
    box = {"cls": "Car", "u": 10.0, "v": 10.0, "w_u": 10.0, "h_v": 10.0, field: value}
    with pytest.raises(ValueError, match="not finite"):
        Box2D(**box)


def test_scene_description_albedo_check():
    with pytest.raises(InvalidAlbedo):
        SceneDescription(objects=(), background_albedo=1.5)


def test_trunc_normal_bounds():
    rng = np.random.default_rng(0)
    vals = [_trunc_normal(rng, 1.75, 0.125) for _ in range(2000)]
    assert all(1.75 - 3 * 0.125 <= v <= 1.75 + 3 * 0.125 for v in vals)
    assert np.mean(vals) == pytest.approx(1.75, abs=0.02)


def test_sample_scene_respects_config():
    cfg = SceneConfig(min_objects=2, max_objects=5, z_range=(10.0, 60.0))
    rng = np.random.default_rng(42)
    for _ in range(20):
        scn = sample_scene(cfg, rng)
        assert 2 <= len(scn.objects) <= 5
        for obj in scn.objects:
            b = obj.box
            assert 10.0 <= b.z <= 60.0
            assert 0.2 <= obj.albedo <= 0.9
            assert b.y == cfg.ground_y
            # center projects inside the image
            u, _ = project(b.x, 0.0, b.z, cfg.camera)
            assert 0 <= u <= cfg.camera.width


def test_sample_scene_ground_jitter_spreads_heights():
    cfg = SceneConfig(min_objects=3, max_objects=6, ground_y_jitter=0.3)
    rng = np.random.default_rng(99)
    ys = [o.box.y for _ in range(40) for o in sample_scene(cfg, rng).objects]
    assert all(abs(y - cfg.ground_y) <= 0.3 for y in ys)
    assert max(ys) - min(ys) > 0.3  # actually varies, not pinned to the plane


def test_sample_scene_objects_bev_disjoint():
    cfg = SceneConfig(min_objects=4, max_objects=4, z_range=(8.0, 30.0))
    rng = np.random.default_rng(3)
    for _ in range(10):
        scn = sample_scene(cfg, rng)
        boxes = [o.box for o in scn.objects]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                inter = convex_intersection_area(boxes[i].bev_corners(), boxes[j].bev_corners())
                assert inter == 0.0


@given(x=st.floats(-1e3, 1e3), z=st.floats(0.5, 1e4), theta=st.floats(-math.pi, math.pi),
       w1=st.floats(0.01, 30.0), l1=st.floats(0.01, 30.0), yaw1=st.floats(-math.pi, math.pi),
       w2=st.floats(0.01, 30.0), l2=st.floats(0.01, 30.0), yaw2=st.floats(-math.pi, math.pi),
       spare=st.floats(0.0, 1e-6), corners_meet=st.booleans())
@example(x=0.0, z=50.0, theta=0.3, w1=1.8, l1=4.3, yaw1=0.0, w2=0.6, l2=0.8, yaw2=0.0,
         spare=0.0, corners_meet=True)
def test_footprints_whose_bounding_circles_are_apart_do_not_intersect(
        x, z, theta, w1, l1, yaw1, w2, l2, yaw2, spare, corners_meet):
    # sample_scene places such a pair without clipping: the area must read 0.0
    r1, r2 = 0.5 * math.hypot(w1, l1), 0.5 * math.hypot(w2, l2)
    d = (r1 + r2) * CIRCLES_APART * (1.0 + spare)
    x2, z2 = x + d * math.cos(theta), z + d * math.sin(theta)
    if corners_meet:  # a corner of each on the line between the centers, facing the other
        yaw1 = math.atan2(w1, l1) - theta
        yaw2 = math.atan2(w2, l2) - theta - math.pi
    assume(_circles_apart(x, z, r1, x2, z2, r2))
    a, b = rect_corners(x, z, w1, l1, yaw1), rect_corners(x2, z2, w2, l2, yaw2)
    assert convex_intersection_area(a, b) == 0.0
    assert convex_intersection_area(b, a) == 0.0


def test_sample_scene_deterministic():
    cfg = SceneConfig()
    a = sample_scene(cfg, np.random.default_rng(7))
    b = sample_scene(cfg, np.random.default_rng(7))
    assert a == b


def test_oracle_box2d_matches_direct_projection():
    cam = DEFAULT_CAMERA
    b = make_box(x=2.0, z=25.0, yaw=0.6)
    box2d = oracle_box2d(b, cam)
    us, vs = zip(*(project(x, y, z, cam) for x, y, z in b.corners_3d()))
    assert box2d.u == pytest.approx((min(us) + max(us)) / 2)
    assert box2d.v == pytest.approx((min(vs) + max(vs)) / 2)
    assert box2d.w_u == pytest.approx(max(us) - min(us))
    assert box2d.h_v == pytest.approx(max(vs) - min(vs))
    assert box2d.cls == b.cls
    assert box2d.score == 1.0


@given(x=st.floats(-20.0, 20.0), y=st.floats(-3.0, 3.0), z=st.floats(-3.0, 6.0),
       h=st.floats(0.2, 4.0), w=st.floats(0.2, 4.0), length=st.floats(0.2, 6.0),
       yaw=st.floats(-math.pi, math.pi))
@example(x=0.3, y=1.65, z=1.0, h=1.55, w=1.85, length=4.3, yaw=0.4)  # straddles z = Z_CLIP
def test_oracle_box2d_matches_per_point_reference(x, y, z, h, w, length, yaw):
    # boxes with z in [-3, 6] m often straddle the near plane, so their
    # edges get cut at Z_CLIP before projection
    b = make_box(x=x, y=y, z=z, h=h, w=w, l=length, yaw=yaw)
    try:
        expected = oracle_box2d_per_point(b, DEFAULT_CAMERA)
    except (BehindCamera, FullyOutOfImage) as e:
        with pytest.raises(type(e)):
            oracle_box2d(b, DEFAULT_CAMERA)
    else:
        assert oracle_box2d(b, DEFAULT_CAMERA) == expected


def test_oracle_box2d_clips_to_image():
    cam = DEFAULT_CAMERA
    # straddles the right edge: projected hull extends past the sensor
    b = make_box(x=6.0, z=22.0)
    box2d = oracle_box2d(b, cam)
    assert box2d.u + box2d.w_u / 2 <= cam.width - 1 + 1e-9
    assert box2d.v - box2d.h_v / 2 >= -1e-9


def test_oracle_box2d_behind_camera():
    with pytest.raises(BehindCamera):
        oracle_box2d(make_box(z=-5.0), DEFAULT_CAMERA)


def test_oracle_box2d_fully_out():
    with pytest.raises(FullyOutOfImage):
        oracle_box2d(make_box(x=500.0, z=10.0), DEFAULT_CAMERA)


def test_perturb_level_zero_is_identity():
    b = Box2D(cls="Car", u=100.0, v=50.0, w_u=40.0, h_v=30.0, score=1.0)
    out = perturb_box2d(b, 0.0, np.random.default_rng(0))
    assert out == b


def test_perturb_statistics_and_validation():
    b = Box2D(cls="Car", u=100.0, v=50.0, w_u=40.0, h_v=30.0, score=1.0)
    rng = np.random.default_rng(1)
    outs = [perturb_box2d(b, 0.1, rng) for _ in range(500)]
    du = np.array([o.u - b.u for o in outs])
    assert abs(du.mean()) < 1.0
    assert du.std() == pytest.approx(0.1 * b.w_u, rel=0.2)
    assert all(o.w_u > 0 and o.h_v > 0 for o in outs)
    assert all(o.score <= b.score for o in outs)
    with pytest.raises(ValueError):
        perturb_box2d(b, -0.1, rng)


def test_labels_jsonl_roundtrip(tmp_path):
    objs = [
        LabeledObject(make_box(), oracle_box2d(make_box(), DEFAULT_CAMERA), 0.55),
        LabeledObject(
            Box3D(cls="Pedestrian", x=-3.0, y=1.65, z=40.0, h=1.8, w=0.6, l=0.8, yaw=-1.2),
            Box2D(cls="Pedestrian", u=300.0, v=350.0, w_u=30.0, h_v=100.0),
            0.3,
        ),
    ]
    p = tmp_path / "labels.jsonl"
    p.write_text(labels_to_jsonl(objs))
    back = read_labels(p)
    assert back == objs


def test_read_labels_error_reports_line(tmp_path):
    p = tmp_path / "labels.jsonl"
    good = json.dumps({
        "class": "Car", "x": 0.0, "y": 1.65, "z": 20.0, "h": 1.5, "w": 1.8, "l": 4.0,
        "yaw": 0.0, "box2d": [100.0, 100.0, 50.0, 40.0], "albedo": 0.5,
    })
    p.write_text(good + "\n{broken\n")
    with pytest.raises(ParseError, match=":2"):
        read_labels(p)


def test_parse_label_missing_field():
    with pytest.raises(ParseError):
        parse_label({"class": "Car"}, where="x")


def test_parse_label_bounds_positions_and_dimensions():
    box = make_box(z=MAX_EXTENT_M, l=MAX_EXTENT_M, x=-MAX_EXTENT_M)
    rec = json.loads(labels_to_jsonl([LabeledObject(box, oracle_box2d(make_box(), DEFAULT_CAMERA),
                                                    0.5)]))
    assert parse_label(rec, "f:1").box == box
    for field in ("x", "y", "z", "h", "w", "l"):
        far = rec | {field: -1.5 * MAX_EXTENT_M if field in "xy" else 1.5 * MAX_EXTENT_M}
        with pytest.raises(ParseError, match=f"^f:7: {field}: -?15000 m is beyond the 10000 m"):
            parse_label(far, "f:7")


def test_parse_label_bounds_the_2d_box():
    rec = json.loads(labels_to_jsonl([LabeledObject(make_box(), oracle_box2d(make_box(),
                                                                             DEFAULT_CAMERA), 0.5)]))
    edge = [-MAX_BOX2D_PX, MAX_BOX2D_PX, MAX_BOX2D_PX, MAX_BOX2D_PX]
    assert parse_label(rec | {"box2d": edge}, "f:1").box2d.u == -MAX_BOX2D_PX
    for i in range(4):
        far = list(rec["box2d"])
        far[i] = 1.7e308 if i > 1 else -1.5 * MAX_BOX2D_PX
        with pytest.raises(ParseError, match=r"^f:3: box2d: -?1\.[57]e\+(09|308) px is beyond "
                                             r"the 1e\+09 px a 2D box may hold$"):
            parse_label(rec | {"box2d": far}, "f:3")


def test_simulate_never_places_beyond_the_label_bound():
    # the classes and scene configs whose draws could leave MAX_EXTENT_M
    ObjectClass("Car", (1.5, 1.8, MAX_EXTENT_M), 0.0)
    for dim_mean, sigma_h in (((1.5, 1.8, 2 * MAX_EXTENT_M), 0.1), ((1.0, 1.0, 1.0), 1e4)):
        with pytest.raises(ValueError, match="beyond the"):
            ObjectClass("Car", dim_mean, sigma_h)
    wide = CameraModel(f_u=0.01, f_v=1.0, c_u=0.0, c_v=0.0, width=2, height=2)
    far = 1.5 * MAX_EXTENT_M
    for kw in ({"camera": wide}, {"ground_y": -far}, {"ground_y_jitter": far}):
        with pytest.raises(ValueError, match="beyond the"):
            SceneConfig(**kw)
