import math

import pytest
from hypothesis import given, strategies as st

from gfk import CameraModel, DEFAULT_CAMERA, NonPositiveDepth, ParseError, wrap_to_pi
from gfk.camera import (
    backproject,
    calibration_to_json,
    load_calibration,
    observation_angle_to_yaw,
    project,
    yaw_to_observation_angle,
)


def test_wrap_to_pi_fixtures():
    assert wrap_to_pi(0.0) == 0.0
    assert wrap_to_pi(math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(-math.pi) == pytest.approx(math.pi)  # half-open (-pi, pi]
    assert wrap_to_pi(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_to_pi(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_to_pi(math.pi + 0.25) == pytest.approx(-math.pi + 0.25)


@given(st.floats(-1e6, 1e6))
def test_wrap_to_pi_range_and_equivalence(a):
    w = wrap_to_pi(a)
    assert -math.pi < w <= math.pi
    # same angle modulo 2*pi
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-6)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-6)


def test_default_camera_values():
    assert DEFAULT_CAMERA.f_u == 2300.0
    assert DEFAULT_CAMERA.f_v == 2300.0
    assert DEFAULT_CAMERA.c_u == 640.0
    assert DEFAULT_CAMERA.c_v == 360.0
    assert (DEFAULT_CAMERA.width, DEFAULT_CAMERA.height) == (1280, 720)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraModel(f_u=0.0, f_v=2300.0, c_u=640.0, c_v=360.0, width=1280, height=720)
    with pytest.raises(ValueError):
        CameraModel(f_u=2300.0, f_v=2300.0, c_u=640.0, c_v=360.0, width=0, height=720)


def test_project_fixture():
    cam = DEFAULT_CAMERA
    assert project(0.0, 0.0, 10.0, cam) == (640.0, 360.0)
    u, v = project(1.0, 0.5, 10.0, cam)
    assert u == pytest.approx(640.0 + 230.0)
    assert v == pytest.approx(360.0 + 115.0)


def test_project_rejects_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        project(0.0, 0.0, 0.0, DEFAULT_CAMERA)
    with pytest.raises(NonPositiveDepth):
        project(0.0, 0.0, -3.0, DEFAULT_CAMERA)
    with pytest.raises(NonPositiveDepth):
        backproject(640.0, 360.0, 0.0, DEFAULT_CAMERA)


@given(st.floats(-30, 30), st.floats(-10, 10), st.floats(0.1, 200))
def test_project_backproject_roundtrip(x, y, z):
    cam = DEFAULT_CAMERA
    u, v = project(x, y, z, cam)
    x_back, y_back, z_back = backproject(u, v, z, cam)
    assert x_back == pytest.approx(x, abs=1e-9)
    assert y_back == pytest.approx(y, abs=1e-9)
    assert z_back == z


@given(st.floats(-math.pi, math.pi), st.floats(-20, 20), st.floats(1, 100))
def test_observation_angle_roundtrip(yaw, x, z):
    theta = yaw_to_observation_angle(yaw, x, z)
    back = observation_angle_to_yaw(theta, x, z)
    assert math.isclose(math.cos(back), math.cos(yaw), abs_tol=1e-9)
    assert math.isclose(math.sin(back), math.sin(yaw), abs_tol=1e-9)


def test_observation_angle_depends_on_bearing():
    # same yaw, different bearing: the observed angle must differ by the bearing change
    yaw = 0.3
    t1 = yaw_to_observation_angle(yaw, 0.0, 20.0)
    t2 = yaw_to_observation_angle(yaw, 10.0, 20.0)
    expected = math.atan2(10.0, 20.0)
    assert wrap_to_pi(t1 - t2) == pytest.approx(expected)


def test_calibration_roundtrip(tmp_path):
    cam = CameraModel(f_u=100.0, f_v=110.0, c_u=50.0, c_v=40.0, width=101, height=81)
    path = tmp_path / "calib.json"
    path.write_text(calibration_to_json(cam))
    assert load_calibration(path) == cam
    # the on-disk layout: one field per line, in declaration order
    assert calibration_to_json(DEFAULT_CAMERA) == (
        '{\n  "f_u": 2300.0,\n  "f_v": 2300.0,\n  "c_u": 640.0,\n  "c_v": 360.0,\n'
        '  "width": 1280,\n  "height": 720\n}\n')


def test_calibration_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    with pytest.raises(ParseError):
        load_calibration(p)
    p.write_text('{"f_u": 100.0}')
    with pytest.raises(ParseError):
        load_calibration(p)
