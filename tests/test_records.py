"""Every JSON artifact gfk reads back goes through one strict converter.

Any JSON value at any field of a label, prediction, calibration, manifest or
model file either parses or ends as that file kind's GfkError subclass.
"""

import base64
import contextlib
import copy
import io
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gfk.camera import DEFAULT_CAMERA, load_calibration
from gfk.codec import parse_prediction, predictions_to_jsonl, read_predictions
from gfk.errors import ModelParseError, ParseError
from gfk.io_cli import DatasetLayout, load_manifest, main
from gfk.records import FieldError, convert, get
from gfk.regressor import MlpParams, parse_model
from gfk.scene import (DEFAULT_CLASSES, class_stats_to_json, labels_to_jsonl, parse_label,
                       read_labels)

from test_io_cli import BASE_CONFIG, JSON_VALUES

LABEL = {"class": "Car", "x": 1.5, "y": 1.65, "z": 37.0, "h": 1.5, "w": 1.8, "l": 4.2,
         "yaw": 0.4, "box2d": [80.0, 45.0, 20.0, 15.0], "albedo": 0.5}
PREDICTION = {"frame": "frame_000001", "class": "Car", "x": 1.5, "y": 1.65, "z": 37.0,
              "h": 1.5, "w": 1.8, "l": 4.2, "yaw": 0.4, "score": 0.9,
              "box2d": [80.0, 45.0, 20.0, 15.0],
              "code": [0.1, -0.2, 0.3, 0.01, -0.02, 0.03, 0.6, 0.8]}
MANIFEST = {"seed": 3, "splits": {"train": ["frame_000000"], "val": [], "test": ["frame_000001"]},
            "classes": class_stats_to_json(DEFAULT_CLASSES)}
CALIBRATION = asdict(DEFAULT_CAMERA)


def _paths(payload, prefix=()):
    """Every path into a JSON value: each key and list index, nested."""
    items = payload.items() if isinstance(payload, dict) else enumerate(payload)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _set(payload, path, value):
    out = copy.deepcopy(payload)
    target = out
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return out


PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_label_and_prediction_records_round_trip_byte_for_byte():
    # one box record pair writes both files; its key order is part of the bytes
    assert labels_to_jsonl([parse_label(LABEL, "label")]) == json.dumps(LABEL) + "\n"
    assert (predictions_to_jsonl([parse_prediction(PREDICTION, "prediction")])
            == json.dumps(PREDICTION) + "\n")


def test_field_error_path_is_built_on_the_way_out():
    with pytest.raises(FieldError) as err:
        get({"a": {"b": [1.0, True]}}, "a", Mapping[str, tuple[float, ...]], where="top")
    assert str(err.value) == "top.a.b[1]: expected a finite number, got True"
    with pytest.raises(FieldError, match=r"^x: required field missing$"):
        get({"x": None}, "x", float)
    assert convert([1, 2.5], tuple[float, float]) == (1.0, 2.5)


@PROPERTY
@given(path=st.sampled_from(list(_paths(LABEL))), value=JSON_VALUES)
def test_any_label_value_parses_or_raises_parse_error(tmp_path, path, value):
    p = tmp_path / "labels.jsonl"
    p.write_text(json.dumps(_set(LABEL, path, value)) + "\n")
    try:
        read_labels(p)
    except ParseError as e:
        assert str(e).startswith(f"{p}:1: ")


@PROPERTY
@given(path=st.sampled_from(list(_paths(PREDICTION))), value=JSON_VALUES)
def test_any_prediction_value_parses_or_raises_parse_error(tmp_path, path, value):
    p = tmp_path / "predictions.jsonl"
    p.write_text(json.dumps(_set(PREDICTION, path, value)) + "\n")
    try:
        read_predictions(p)
    except ParseError as e:
        assert str(e).startswith(f"{p}:1: ")


@PROPERTY
@given(path=st.sampled_from(list(_paths(CALIBRATION))), value=JSON_VALUES)
def test_any_calibration_value_parses_or_raises_parse_error(tmp_path, path, value):
    p = tmp_path / "calibration.json"
    p.write_text(json.dumps(_set(CALIBRATION, path, value)))
    try:
        load_calibration(p)
    except ParseError as e:
        assert str(e).startswith(f"{p}: ")


@PROPERTY
@given(path=st.sampled_from(list(_paths(MANIFEST))), value=JSON_VALUES)
def test_any_manifest_value_parses_or_raises_parse_error(tmp_path, path, value):
    layout = DatasetLayout(tmp_path)
    layout.manifest_path.write_text(json.dumps(_set(MANIFEST, path, value)))
    try:
        load_manifest(layout)
    except ParseError as e:
        assert str(e).startswith(f"{layout.manifest_path}: ")


@pytest.mark.parametrize("payload,reason", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
    ('{"seed": ' + "1" * 5_000 + "}", "Exceeds the limit"),
], ids=["nested-too-deep", "integer-too-long"])
def test_json_nested_too_deep_is_a_parse_error(tmp_path, payload, reason):
    p = tmp_path / "labels.jsonl"
    p.write_text(payload + "\n")
    with pytest.raises(ParseError, match=f"^{p}:1: invalid JSON: {reason}"):
        read_labels(p)
    config = tmp_path / "run.json"
    config.write_text(payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", "--config", str(config)]) == 1
    assert err.getvalue().startswith(f"gfk-error: ConfigError: {config}: invalid JSON: {reason}")


def _not_utf8(record: dict) -> bytes:
    """record as JSON with a byte that is not UTF-8 opening its first key."""
    return json.dumps(record).encode().replace(b'"', b'"\xff', 1)


def test_non_utf8_config_calibration_and_manifest(tmp_path):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"seed": 1, \xff}')
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", "--config", str(config)]) == 1
    assert err.getvalue().startswith(
        f"gfk-error: ConfigError: {config}: not UTF-8: invalid start byte at byte 12")
    calibration = tmp_path / "calibration.json"
    calibration.write_bytes(_not_utf8(CALIBRATION))
    with pytest.raises(ParseError, match=f"^{calibration}: not UTF-8: invalid start byte"):
        load_calibration(calibration)
    layout = DatasetLayout(tmp_path)
    layout.manifest_path.write_bytes(_not_utf8(MANIFEST))
    with pytest.raises(ParseError, match=f"^{layout.manifest_path}: not UTF-8: invalid start"):
        load_manifest(layout)


@pytest.mark.parametrize("record,read", [(LABEL, read_labels), (PREDICTION, read_predictions)],
                         ids=["labels", "predictions"])
def test_non_utf8_json_line_names_its_line(tmp_path, record, read):
    p = tmp_path / "records.jsonl"
    p.write_bytes(json.dumps(record).encode() + b"\n" + _not_utf8(record) + b"\n")
    with pytest.raises(ParseError, match=f"^{p}:2: not UTF-8: invalid start byte"):
        read(p)


@pytest.mark.parametrize("top", [None, 3, "x", [], [MANIFEST]])
def test_artifact_top_level_must_be_an_object(tmp_path, top):
    p = tmp_path / "artifact.json"
    p.write_text(json.dumps(top))
    with pytest.raises(ParseError, match="expected an object"):
        load_calibration(p)
    (tmp_path / "manifest.json").write_text(json.dumps(top))
    with pytest.raises(ParseError, match="expected an object"):
        load_manifest(DatasetLayout(tmp_path))
    with pytest.raises(ModelParseError, match="expected an object"):
        parse_model(json.dumps(top).encode(), "model.json")


# ---------------------------------------------------------------------------
# the values each reader used to accept

def _nan_label(rec):
    rec.update(z=math.nan, h=math.nan, yaw=math.inf)


@pytest.mark.parametrize("edit,where", [
    (_nan_label, "z: expected a finite number, got nan"),
    (lambda rec: rec.update({"class": 5}), "class: expected a string, got 5"),
    (lambda rec: rec["box2d"].__setitem__(2, True), "box2d[2]: expected a finite number"),
    (lambda rec: rec["box2d"].append(1.0), "box2d: expected 4 items, got 5"),
    (lambda rec: rec.update(albedo="0.5"), "albedo: expected a finite number"),
])
def test_label_rejects_values_it_used_to_coerce(tmp_path, edit, where):
    rec = copy.deepcopy(LABEL)
    edit(rec)
    p = tmp_path / "labels.jsonl"
    p.write_text(json.dumps(LABEL) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ParseError) as err:
        read_labels(p)
    assert str(err.value).startswith(f"{p}:2: {where}")


def test_prediction_rejects_non_finite_code(tmp_path):
    rec = copy.deepcopy(PREDICTION)
    rec["code"][2] = math.nan
    p = tmp_path / "predictions.jsonl"
    p.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match=r":1: code\[2\]: expected a finite number"):
        read_predictions(p)


@pytest.mark.parametrize("key,value,where", [
    ("f_u", math.nan, "f_u: expected a finite number"),
    ("width", 1280.9, "width: expected an integer, got 1280.9"),
    ("height", True, "height: expected an integer, got True"),
])
def test_calibration_rejects_values_it_used_to_coerce(tmp_path, key, value, where):
    p = tmp_path / "calibration.json"
    p.write_text(json.dumps(CALIBRATION | {key: value}))
    with pytest.raises(ParseError, match=f"^{p}: {where}"):
        load_calibration(p)


@pytest.mark.parametrize("path,value,where", [
    (("classes", "Car", "sigma_h"), True, "classes.Car.sigma_h: expected a finite number"),
    (("seed",), 3.5, "seed: expected an integer"),
    (("splits", "train", 0), 7, r"splits.train\[0\]: expected a string"),
])
def test_manifest_rejects_values_it_used_to_coerce(tmp_path, path, value, where):
    layout = DatasetLayout(tmp_path)
    layout.manifest_path.write_text(json.dumps(_set(MANIFEST, path, value)))
    with pytest.raises(ParseError, match=f": {where}"):
        load_manifest(layout)


# ---------------------------------------------------------------------------
# model files, read by predict

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A one-epoch model on a tiny dataset, and the config that reads it."""
    root = tmp_path_factory.mktemp("trained")
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["dataset"] = {"dir": "dataset", "frames": {"train": 2, "val": 0, "test": 1}}
    cfg["train"]["epochs"] = 1
    cfg["train"]["ablate_intensity"] = True  # so the meta carries a feature_mask
    p = root / "run.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(p)]) == 0
    assert main(["train", "--config", str(p)]) == 0
    return p, json.loads((root / "out" / "model.json").read_text())


def _predict(config: Path, out: Path, model: dict) -> tuple[int, str]:
    out.mkdir(exist_ok=True)
    (out / "model.json").write_text(json.dumps(model))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["predict", "--config", str(config), "--out", str(out)])
    return rc, err.getvalue()


def _edit(path, value):
    return lambda model: _set(model, path, value)


def _edit_parameter(kind, layer, index, value):
    """Set one weight or bias of the model's parameter block."""
    def edit(model):
        params = MlpParams(tuple(model["sizes"]))
        params.flat[:] = np.frombuffer(base64.b64decode(model["parameters"]), "<f4")
        getattr(params, kind)[layer].ravel()[index] = value
        return _set(model, ("parameters",),
                    base64.b64encode(params.flat.astype("<f4").tobytes()).decode("ascii"))
    return edit


def _drop(key):
    return lambda model: _set(model, ("meta",), {k: v for k, v in model["meta"].items()
                                                 if k != key})


@pytest.mark.parametrize("edit,where", [
    (_edit(("meta", "k"), "two"), "meta.k: expected a finite number, got 'two'"),
    (_edit(("meta", "k"), math.nan), "meta.k: expected a finite number, got nan"),
    (_edit(("meta", "k"), 0.0), "meta.k: must be positive"),
    (_drop("k"), "meta.k: required field missing"),
    (_drop("classes"), "meta.classes: required field missing"),
    (_edit(("meta", "classes"), {}), "meta.classes: at least one object class required"),
    (_edit(("meta", "feature_mask"), [1.0, 1.0]), "meta.feature_mask: expected 24 items, got 2"),
    (_edit(("meta", "feature_mask", 3), math.nan), "meta.feature_mask[3]: expected a finite"),
    (_edit(("meta", "feature_mask", 0), math.inf), "meta.feature_mask[0]: expected a finite"),
    (_edit_parameter("weights", 0, 5, math.nan), "layer 0: parameters must be finite numbers"),
    (_edit_parameter("biases", 1, 0, -math.inf), "layer 1: parameters must be finite numbers"),
    (_edit(("sizes", 0), 24.9), "sizes[0]: expected an integer, got 24.9"),
    (_edit(("sizes", 1), True), "sizes[1]: expected an integer, got True"),
    (_edit(("sizes",), [24, 16, 7]), "sizes must be positive and map 24 features"),
], ids=["k-string", "k-nan", "k-zero", "k-missing", "classes-missing", "classes-empty",
        "mask-length", "mask-nan", "mask-inf", "weight-nan", "bias-inf", "size-float",
        "size-bool", "size-output"])
def test_predict_bad_model_file_is_model_parse_error(trained, tmp_path, edit, where):
    config, model = trained
    assert _predict(config, tmp_path / "ok", model)[0] == 0
    rc, err = _predict(config, tmp_path / "bad", edit(model))
    assert rc == 1
    model_path = tmp_path / "bad" / "model.json"
    assert err.startswith(f"gfk-error: ModelParseError: {model_path}: {where}")


def test_non_utf8_model_is_model_parse_error(trained, tmp_path):
    config, model = trained
    out = tmp_path / "bad"
    out.mkdir()
    (out / "model.json").write_bytes(_not_utf8(model))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["predict", "--config", str(config), "--out", str(out)]) == 1
    assert err.getvalue().startswith(
        f"gfk-error: ModelParseError: {out / 'model.json'}: not UTF-8: invalid start byte")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=JSON_VALUES)
def test_any_model_value_predicts_or_raises_model_parse_error(trained, tmp_path, data, value):
    config, model = trained
    path = data.draw(st.sampled_from(list(_paths(model))))
    rc, err = _predict(config, tmp_path, _set(model, path, value))
    assert rc == 0 or err.startswith("gfk-error: ModelParseError: "), err
