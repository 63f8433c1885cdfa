"""Golden digests of rendered frames: any change to render_frame's bytes fails here.

tests/data/render_golden.json holds the SHA-256 of render_frame(...).slices
for every (scene, noise) case below, taken before the renderer was rewritten
to work from an object-index map. The cases cover the criterion-8 camera
with attenuated gates, a dense scene with an occlusion and an equal-z tie on
a lit background, and one 1280x720 frame with the default gates, each under
the default, the noiseless and the non-clipping noise model.
"""

import dataclasses
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from gfk import (DEFAULT_CAMERA, CameraModel, GateConfig, NoiseConfig, default_gates,
                 render_frame)
from gfk.scene import Box3D, SceneDescription, SceneObject

from oracles import NOISELESS

NS = 1e-9
GOLDEN = Path(__file__).parent / "data" / "render_golden.json"

# The 160x90 camera and attenuated gates of acceptance criterion 8.
SMALL_CAMERA = CameraModel(f_u=287.5, f_v=287.5, c_u=80.0, c_v=45.0, width=160, height=90)


def _attenuated(delay_ns, gate_ns, pulse_ns):
    return GateConfig(delay=delay_ns * NS, gate_duration=gate_ns * NS, pulse_duration=pulse_ns * NS,
                      pulse_amplitude=600.0 / (pulse_ns * NS), attenuation_gamma=0.022)


ATTENUATED_GATES = (_attenuated(87, 194, 120), _attenuated(267, 414, 254),
                    _attenuated(460, 287, 220))


def _obj(cls, x, y, z, h, w, l, yaw, albedo):
    return SceneObject(Box3D(cls=cls, x=x, y=y, z=z, h=h, w=w, l=l, yaw=yaw), albedo)


SCENES = {
    # a car in front of a pedestrian, a car cut by the left image edge and
    # one fully off the image, on the default dark background
    "small-attenuated": (SceneDescription(objects=(
        _obj("Car", 0.8, 1.5, 22.0, 1.5, 1.8, 4.3, 0.4, 0.7),
        _obj("Pedestrian", 1.6, 1.6, 35.0, 1.8, 0.6, 0.8, -1.2, 0.45),
        _obj("Car", -14.0, 1.4, 60.0, 1.6, 1.9, 4.5, 2.5, 0.9),
        _obj("Car", 90.0, 1.5, 40.0, 1.5, 1.8, 4.3, 0.0, 0.6),
    )), SMALL_CAMERA, ATTENUATED_GATES, 11),
    # seven objects on a lit background at 95 m: the first two overlap at
    # the same z (the first drawn keeps the tie), a near car hides most of a
    # far car and a far pedestrian, and a black object (albedo 0) is a
    # zero-rate hole in the lit background
    "dense-occlusion-tie": (SceneDescription(objects=(
        _obj("Car", -3.0, 1.5, 30.0, 1.5, 1.8, 4.3, 0.0, 0.8),
        _obj("Car", -1.5, 1.5, 30.0, 1.9, 1.8, 4.3, 0.3, 0.3),
        _obj("Car", 4.0, 1.5, 70.0, 1.6, 1.9, 4.6, 1.1, 0.55),
        _obj("Car", 3.2, 1.5, 18.0, 1.4, 1.7, 4.0, -0.5, 0.95),
        _obj("Pedestrian", -2.8, 1.6, 12.0, 1.7, 0.6, 0.8, 0.2, 0.35),
        _obj("Pedestrian", 6.5, 1.6, 52.0, 1.8, 0.6, 0.8, 2.0, 1.0),
        _obj("Car", -12.0, -2.0, 60.0, 1.5, 1.8, 4.3, 0.0, 0.0),
    ), background_albedo=0.25, background_range=95.0), SMALL_CAMERA, default_gates(), 20261017),
    "fullres-default": (SceneDescription(objects=(
        _obj("Car", 1.0, 1.5, 25.0, 1.5, 1.8, 4.3, 0.3, 0.6),
        _obj("Pedestrian", -2.5, 1.6, 14.0, 1.75, 0.6, 0.8, 1.0, 0.5),
        _obj("Car", 6.0, 1.5, 55.0, 1.6, 1.9, 4.5, -0.8, 0.85),
        _obj("Car", -8.0, 1.5, 80.0, 1.5, 1.8, 4.3, 0.0, 0.4),
    )), DEFAULT_CAMERA, default_gates(), 1),
}

NOISES = {
    "default": NoiseConfig(),
    "noiseless": NOISELESS,
    "no-clipping": NoiseConfig(enable_clipping=False),
}


def render_digest(scene_name: str, noise_name: str) -> str:
    scene, cam, gates, seed = SCENES[scene_name]
    frame = render_frame(scene, gates, cam, NOISES[noise_name], seed)
    return hashlib.sha256(frame.slices.tobytes()).hexdigest()


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("scene_name", sorted(SCENES))
def test_render_matches_golden_digest(scene_name, noise_name):
    golden = json.loads(GOLDEN.read_text())["digests"]
    assert render_digest(scene_name, noise_name) == golden[f"{scene_name}/{noise_name}"]


@pytest.mark.parametrize("background,bound", [((), 16.0), ((0.25, 60.0), 24.0)])
def test_fullres_render_working_set_per_pixel(background, bound):
    # numpy reports its buffers to tracemalloc, so this counts the bytes the
    # render allocates, returned slices (6 B/px) included, and not the RSS
    scene, cam, gates, seed = SCENES["fullres-default"]
    if background:
        scene = dataclasses.replace(scene, background_albedo=background[0],
                                    background_range=background[1])
    tracemalloc.start()
    try:
        render_frame(scene, gates, cam, NoiseConfig(), seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (cam.width * cam.height) < bound
