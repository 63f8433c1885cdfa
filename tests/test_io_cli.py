import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gfk import io_cli, pgm
from gfk.io_cli import main
from gfk.io_cli import (
    DatasetLayout,
    atomic_write_bytes,
    atomic_write_text,
    cmd_codec_check,
    cmd_eval,
    cmd_predict,
    cmd_simulate,
    cmd_train,
    gfk_threads,
    load_manifest,
    load_run_config,
)
from gfk.errors import ConfigError, EmptyDataset, ParseError
from gfk.camera import load_calibration
from gfk.codec import read_predictions
from gfk.regressor import model_to_json, parse_model
from gfk.ripsim import GateConfig, default_gates


BASE_CONFIG = {
    "seed": 5,
    "out_dir": "out",
    "dataset": {"frames": {"train": 4, "val": 1, "test": 2}},
    "camera": {"f_u": 287.5, "f_v": 287.5, "c_u": 80.0, "c_v": 45.0,
               "width": 160, "height": 90},
    "scene": {"max_objects": 2, "z_range": [5, 70]},
    "train": {"epochs": 3, "batch_size": 8, "hidden_sizes": [16]},
}


def write_config(tmp_path, overrides=None, name="run.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (overrides or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def tree_digest(root: Path, skip_suffixes=(".svg",)) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.suffix not in skip_suffixes:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# config loading

def test_config_defaults_and_overrides(tmp_path):
    p = write_config(tmp_path)
    cfg = load_run_config(p)
    assert cfg.seed == 5
    assert cfg.out_dir == tmp_path / "out"
    assert cfg.dataset_dir == tmp_path / "out" / "dataset"
    assert cfg.scene.camera.width == 160
    cfg2 = load_run_config(p, seed_override=99, out_override=str(tmp_path / "elsewhere"))
    assert cfg2.seed == 99
    assert cfg2.out_dir == tmp_path / "elsewhere"
    # the training seed follows the run seed
    assert cfg2.train_cfg.seed == 99


def test_config_unknown_field(tmp_path):
    p = write_config(tmp_path, {"scene": {"zrange": [1, 2]}})
    with pytest.raises(ConfigError, match="scene.zrange"):
        load_run_config(p)


def test_config_bad_type(tmp_path):
    p = write_config(tmp_path, {"train": {"epochs": "many"}})
    with pytest.raises(ConfigError, match="train.epochs"):
        load_run_config(p)


def test_config_bad_value_carries_section(tmp_path):
    p = write_config(tmp_path, {"codec": {"k": -1.0}})
    with pytest.raises(ConfigError, match="codec.k"):
        load_run_config(p)


# Every accepted key, each set to its default: the config schema.
ALL_DEFAULTS = {
    "seed": 0,
    "out_dir": "runs/out",
    "dataset": {"dir": None, "frames": {"train": 0, "val": 0, "test": 0}},
    "camera": {"f_u": 2300.0, "f_v": 2300.0, "c_u": 640.0, "c_v": 360.0,
               "width": 1280, "height": 720},
    "gates": [{"delay": g.delay, "gate_duration": g.gate_duration,
               "pulse_duration": g.pulse_duration, "gate_amplitude": g.gate_amplitude,
               "pulse_amplitude": g.pulse_amplitude, "attenuation_gamma": g.attenuation_gamma,
               "inverse_square": g.inverse_square} for g in default_gates()],
    "noise": {"read_noise_sigma": 2.0, "photon_scale": 20.0, "full_scale": 1023},
    "scene": {"classes": ["Car", "Pedestrian"], "min_objects": 1, "max_objects": 4,
              "z_range": [5.0, 85.0], "ground_y": 1.65, "ground_y_jitter": 0.0,
              "albedo_range": [0.2, 0.9], "x_margin": 0.85, "background_albedo": 0.0,
              "background_range": 150.0, "max_retries": 100},
    "codec": {"k": 2.0},
    "train": {"hidden_sizes": [64, 64], "epochs": 40, "batch_size": 64,
              "learning_rate": 3e-3, "alpha": 1.0, "beta": 1.0, "smooth_l1_delta": 1.0,
              "ablate_intensity": False},
    "eval": {"iou_thresholds": {"Car": 0.2, "Pedestrian": 0.1},
             "bins": [[0.0, 30.0], [30.0, 50.0], [50.0, 80.0]]},
    "predict": {"split": "test", "perturb": 0.0},
}


def _load(tmp_path, payload, name="run.json", **overrides):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return load_run_config(p, **overrides)


def test_config_schema_lists_every_key_with_its_default(tmp_path):
    empty = _load(tmp_path, {}, "empty.json")
    assert _load(tmp_path, ALL_DEFAULTS) == empty
    # null means the default, for every key and every section
    nulls = {sec: {k: None for k in val} if isinstance(val, dict) else None
             for sec, val in ALL_DEFAULTS.items()}
    nulls["camera"] = None  # a given camera must set all of its keys
    assert _load(tmp_path, nulls, "nulls.json") == empty


@pytest.mark.parametrize("section,key", [("train", "beta1"), ("train", "eps"),
                                         ("eval", "n_recall"), ("scene", "camera"),
                                         ("train", "seed"), ("eval", "kinds")])
def test_config_dataclass_fields_outside_the_schema_are_unknown(tmp_path, section, key):
    with pytest.raises(ConfigError, match=f"{section}.{key}: unknown field"):
        _load(tmp_path, {section: {key: ALL_DEFAULTS["camera"]}})


def _gates(**first):
    gates = json.loads(json.dumps(ALL_DEFAULTS["gates"]))
    gates[0].update(first)
    return gates


@pytest.mark.parametrize("overrides,seed_override,where", [
    ({"train": {"ablate_intensity": "false"}}, None, "train.ablate_intensity"),
    ({"train": {"epochs": 2.7}}, None, "train.epochs"),
    ({"train": {"epochs": True}}, None, "train.epochs"),
    ({"noise": {"read_noise_sigma": math.nan}}, None, "noise.read_noise_sigma"),
    ({"gates": _gates(delay=math.inf)}, None, "gates[0].delay"),
    ({"codec": {"k": math.nan}}, None, "codec.k"),
    ({"scene": {"z_range": [5, 70, 80]}}, None, "scene.z_range"),
    ({"noise": 5}, None, "noise"),
    ({"gates": [1, 2, 3]}, None, "gates[0]"),
    ({"gates": _gates()[:2]}, None, "gates: expected a list of exactly 3"),
    ({"scene": {"z_range": [5]}}, None, "scene.z_range"),
    ({"eval": {"iou_thresholds": [0.2, 0.1]}}, None, "eval.iou_thresholds"),
    ({"seed": -1}, None, "config.seed"),
    ({}, -1, "--seed"),
    ({"train": {"hidden_sizes": [16, 0]}}, None, "train"),
    ({"noise": {"full_scale": 70000}}, None, "noise: full_scale must be in [1, 65535]"),
    ({"eval": {"iou_thresholds": {}}}, None, "eval: iou_thresholds: at least one class required"),
    ({"eval": {"bins": []}}, None, "eval: bins: at least one range bin required"),
    ({"eval": {"bins": [[0, 30], [0, 30.0000001]]}}, None,
     "eval: bins: two bins share the label 0-30m"),
    ({"noise": {"photon_scale": 1e20}}, None, "noise.photon_scale: a peak shot-noise rate"),
    ({"gates": _gates(gate_amplitude=1e300)}, None, "noise.photon_scale: a peak shot-noise rate"),
    ({"predict": {"perturb": 1000}}, None, "predict.perturb: must be in [0, 1]"),
    ({"scene": {"x_margin": -3}}, None, "scene: x_margin must be >= 0"),
    ({"scene": {"background_albedo": 2.0}}, None, "scene: background_albedo 2.0 outside [0, 1]"),
    ({"scene": {"background_range": -5}}, None, "scene: background_range must be >= 0"),
    ({"scene": {"max_retries": 0}}, None, "scene: max_retries must be >= 1"),
])
def test_config_rejects_malformed_values(tmp_path, capsys, overrides, seed_override, where):
    p = write_config(tmp_path, overrides)
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_run_config(p, seed_override=seed_override)
    seed_args = [] if seed_override is None else ["--seed", str(seed_override)]
    assert main(["simulate", "--config", str(p), *seed_args]) == 1
    assert capsys.readouterr().err.startswith(f"gfk-error: ConfigError: {where}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8,
)
CONFIG_PATHS = [(sec,) for sec in ALL_DEFAULTS] + [
    (sec, key) for sec, val in ALL_DEFAULTS.items() if isinstance(val, dict) for key in val
] + [("gates", 0, key) for key in ALL_DEFAULTS["gates"][0]]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES)
def test_config_any_value_parses_or_raises_config_error(tmp_path, path, value):
    payload = json.loads(json.dumps(ALL_DEFAULTS))
    target = payload
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    try:
        load_run_config(p)
    except ConfigError:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["simulate", "--config", str(p)]) == 1
        assert err.getvalue().startswith("gfk-error: ConfigError: ")


def test_config_unknown_class(tmp_path):
    p = write_config(tmp_path, {"scene": {"classes": ["Car", "Bollard"]}})
    with pytest.raises(ConfigError, match="Bollard"):
        load_run_config(p)


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "nope.json")


def test_config_invalid_json(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("{")
    with pytest.raises(ConfigError):
        load_run_config(p)


def test_gfk_threads_parsing(monkeypatch):
    monkeypatch.delenv("GFK_THREADS", raising=False)
    assert gfk_threads() == 1
    monkeypatch.setenv("GFK_THREADS", "6")
    assert gfk_threads() == 6
    monkeypatch.setenv("GFK_THREADS", "0")
    assert gfk_threads() == 1
    monkeypatch.setenv("GFK_THREADS", "lots")
    with pytest.raises(ConfigError):
        gfk_threads()


def test_readme_names_every_subcommand_and_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = io_cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = [*sub.choices, *(opt for p in (parser, *sub.choices.values())
                             for a in p._actions for opt in a.option_strings)]
    assert [n for n in names if not re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", readme)] == []


def test_readme_dataset_format_names_every_file_simulate_writes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Dataset format\n", 1)[1].split("\n## ", 1)[0]
    cfg = load_run_config(write_config(tmp_path, {"dataset": {"frames": {"train": 1, "val": 1,
                                                                         "test": 1}}}))
    cmd_simulate(cfg)
    ids = [fid for split in load_manifest(DatasetLayout(cfg.dataset_dir)).splits.values()
           for fid in split]
    same_frame = re.compile("|".join(map(re.escape, ids)))
    names = {same_frame.sub("<id>", p.relative_to(cfg.dataset_dir).as_posix())
             for p in cfg.dataset_dir.rglob("*") if p.is_file()}
    assert "frames/<id>.pgm" in names
    assert sorted(n for n in names if f"`{n}`" not in section) == []


# ---------------------------------------------------------------------------
# commands

def test_simulate_layout_and_manifest(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    out = cmd_simulate(cfg)
    assert out["frames"] == 7
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    assert manifest.seed == 5
    assert [len(manifest.splits[s]) for s in ("train", "val", "test")] == [4, 1, 2]
    # ids are globally ordered and zero-padded
    assert manifest.splits["train"][0] == "frame_000000"
    assert manifest.splits["test"][-1] == "frame_000006"
    for fid in manifest.splits["train"]:
        arr = layout.load_slices(fid)
        assert arr.shape == (3, 90, 160)
        assert layout.labels_path(fid).exists()
    # one stacked PGM and one labels file per frame, and nothing else
    assert sorted(p.name for p in layout.frames_dir.iterdir()) == [
        f"frame_{i:06d}{ext}" for i in range(7) for ext in (".jsonl", ".pgm")]
    assert load_calibration(layout.calibration_path) == cfg.scene.camera
    gates = json.loads(layout.gates_path.read_text())
    assert tuple(GateConfig(**rec) for rec in gates) == cfg.gates


def test_frame_ids_are_numbered_by_their_manifest_position(tmp_path):
    # predict numbers each frame's jitter stream by its manifest position,
    # train then val then test; simulate's ids carry that same number
    cfg = load_run_config(write_config(tmp_path, {"dataset": {"frames": {"train": 3, "val": 2,
                                                                         "test": 2}}}))
    cmd_simulate(cfg)
    splits = load_manifest(DatasetLayout(cfg.dataset_dir)).splits
    assert [len(splits[s]) for s in ("train", "val", "test")] == [3, 2, 2]
    ids = [fid for split in ("train", "val", "test") for fid in splits[split]]
    assert [int(re.fullmatch(r"frame_(\d+)", fid).group(1)) for fid in ids] == list(range(7))


def test_simulate_logs_one_placement_warning_per_frame(tmp_path, caplog):
    # every object sits at x = 0 within half a meter of range: only one fits
    cfg = load_run_config(write_config(tmp_path, {
        "scene": {"min_objects": 3, "max_objects": 3, "z_range": [5, 5.5], "x_margin": 0,
                  "max_retries": 2}}))
    with caplog.at_level("WARNING", logger="gfk.io_cli"):
        out = cmd_simulate(cfg)
    assert out["placement_warnings"] == 7
    warned = [r.getMessage() for r in caplog.records if "placement" in r.getMessage()]
    assert sorted(warned) == [f"frame_{i:06d}: placement retries exhausted, dropped at least "
                              f"one object" for i in range(7)]


def test_simulate_writes_every_file_atomically(tmp_path, monkeypatch):
    written = []
    write = io_cli.atomic_write_bytes
    monkeypatch.setattr(io_cli, "atomic_write_bytes",
                        lambda path, data: (written.append(path), write(path, data)))
    cfg = load_run_config(write_config(tmp_path))
    cmd_simulate(cfg)
    files = sorted(p for p in cfg.dataset_dir.rglob("*") if p.is_file())
    assert cfg.dataset_dir / "calibration.json" in files
    assert sorted(written) == files


def test_manifest_without_classes_is_a_parse_error(tmp_path, capsys):
    p = write_config(tmp_path)
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = json.loads(layout.manifest_path.read_text())
    del manifest["classes"]
    layout.manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="classes: required field missing"):
        load_manifest(layout)
    assert main(["train", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith(
        f"gfk-error: ParseError: {layout.manifest_path}: classes: required field missing")


def test_manifest_with_empty_classes_is_a_parse_error(tmp_path, capsys):
    # with no class statistics predict would skip every box and eval score 0
    p = write_config(tmp_path)
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = json.loads(layout.manifest_path.read_text())
    manifest["classes"] = {}
    layout.manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="classes: at least one object class required"):
        load_manifest(layout)
    assert main(["train", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"gfk-error: ParseError: {layout.manifest_path}: "
                                              "classes: at least one object class required")


def _add_frame_id(layout, split, fid):
    manifest = json.loads(layout.manifest_path.read_text())
    manifest["splits"][split].append(fid)
    layout.manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("split, fid", [
    ("train", ""), ("val", "."), ("test", ".."), ("test", "../escaped"),
    ("train", "frame_000000/"), ("test", "..\\escaped"),
])
def test_manifest_frame_id_that_is_not_a_directory_name_is_a_parse_error(tmp_path, capsys,
                                                                         split, fid):
    p = write_config(tmp_path)
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    _add_frame_id(layout, split, fid)
    line = f"{layout.manifest_path}: splits.{split}: frame id {fid!r} is not a directory name"
    with pytest.raises(ParseError) as e:
        load_manifest(layout)
    assert str(e.value) == line
    assert main(["train", "--config", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"gfk-error: ParseError: {line}\n")


def test_predict_perturbs_a_frame_whose_id_is_only_a_name(tmp_path):
    # a frame id names the frame's files; perturb numbers its jitter stream
    # by its manifest position, so an id need not end in a number
    p = write_config(tmp_path, {"train": {"epochs": 1}, "predict": {"perturb": 0.05}})
    cfg = load_run_config(p)
    for command in ("simulate", "train"):
        assert main([command, "--config", str(p)]) == 0
    layout = DatasetLayout(cfg.dataset_dir)
    shutil.copyfile(layout.slices_path("frame_000005"), layout.slices_path("frame_-3"))
    shutil.copyfile(layout.labels_path("frame_000005"), layout.labels_path("frame_-3"))
    _add_frame_id(layout, "test", "frame_-3")
    assert main(["predict", "--config", str(p)]) == 0
    boxes2d = {fid: [] for fid in ("frame_000005", "frame_-3")}
    for fid, _box, box2d, _code in read_predictions(cfg.predictions_path):
        boxes2d.get(fid, []).append(box2d)
    # the same labels, jittered by the streams of manifest positions 5 and 7
    assert len(boxes2d["frame_-3"]) == len(boxes2d["frame_000005"]) > 0
    assert boxes2d["frame_-3"] != boxes2d["frame_000005"]


def test_eval_writes_nothing_outside_its_run_for_a_frame_id_with_parent_steps(tmp_path):
    # out/ sits three levels down, so the escaping paths stay inside tmp_path
    p = write_config(tmp_path, {"out_dir": "a/b/c/out"})
    cfg = load_run_config(p)
    for command in ("simulate", "train", "predict"):
        assert main([command, "--config", str(p)]) == 0
    layout = DatasetLayout(cfg.dataset_dir)
    fid = "../../../escaped"
    labels = layout.labels_path(fid)  # a/b/c/escaped.jsonl
    labels.write_text("")
    _add_frame_id(layout, "test", fid)
    assert main(["eval", "--config", str(p), "--render-bev"]) == 1
    assert list(tmp_path.rglob("escaped.svg")) == []


def test_simulate_requires_clipping(tmp_path):
    p = write_config(tmp_path, {"noise": {"enable_clipping": False}})
    with pytest.raises(ConfigError, match="enable_clipping"):
        cmd_simulate(load_run_config(p))


def test_simulate_zero_frames_writes_empty_manifest(tmp_path):
    p = write_config(tmp_path, {"dataset": {"frames": {"train": 0, "val": 0, "test": 0}}})
    cfg = load_run_config(p)
    out = cmd_simulate(cfg)
    assert out["frames"] == 0
    manifest = load_manifest(DatasetLayout(cfg.dataset_dir))
    assert all(manifest.splits[s] == [] for s in ("train", "val", "test"))


def test_simulate_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    pa = write_config(tmp_path, {"out_dir": "a"}, name="a.json")
    pb = write_config(tmp_path, {"out_dir": "b"}, name="b.json")
    monkeypatch.delenv("GFK_THREADS", raising=False)
    cmd_simulate(load_run_config(pa))
    monkeypatch.setenv("GFK_THREADS", "4")
    cmd_simulate(load_run_config(pb))
    da = tree_digest(tmp_path / "a")
    db = tree_digest(tmp_path / "b")
    assert da == db


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_output_is_the_same_for_any_thread_count(tmp_path, monkeypatch, threads):
    pa = write_config(tmp_path, {"out_dir": "a"}, name="a.json")
    pb = write_config(tmp_path, {"out_dir": "b"}, name="b.json")
    monkeypatch.delenv("GFK_THREADS", raising=False)
    cmd_simulate(load_run_config(pa))
    monkeypatch.setenv("GFK_THREADS", threads)
    cmd_simulate(load_run_config(pb))
    da = tree_digest(tmp_path / "a")
    db = tree_digest(tmp_path / "b")
    assert da == db


class _SimulateLog:
    """Wraps io_cli.render_frame and io_cli.atomic_write_bytes to record, in
    order, each frame's render start and every file written."""

    def __init__(self, monkeypatch, cfg, fail_frame=None):
        total = sum(cfg.frames.values())
        self.index_of_seed = {int(io_cli._substream(cfg.seed, i, 1).generate_state(1)[0]): i
                              for i in range(total)}
        self.fail_frame = fail_frame
        self.error = RuntimeError("render failed")
        self.lock = threading.Lock()
        self.rendered: list[int] = []
        self.written: list[str] = []               # paths relative to the dataset
        self.waiting: set[str] = set()             # render started, first write not yet
        self.most_waiting = 0  # the most other frames waiting when a frame's first write began
        render, write = io_cli.render_frame, io_cli.atomic_write_bytes

        def render_frame(*args, seed, **kwargs):
            index = self.index_of_seed[seed]
            with self.lock:
                self.rendered.append(index)
                self.waiting.add(f"frame_{index:06d}")
            if index == self.fail_frame:
                time.sleep(0.2)  # time for workers that were not held back to run ahead
                raise self.error
            return render(*args, seed=seed, **kwargs)

        def atomic_write_bytes(path, data):
            with self.lock:
                self.written.append(path.relative_to(cfg.dataset_dir).as_posix())
                if path.stem in self.waiting:
                    self.waiting.remove(path.stem)
                    self.most_waiting = max(self.most_waiting, len(self.waiting))
            write(path, data)

        monkeypatch.setattr(io_cli, "render_frame", render_frame)
        monkeypatch.setattr(io_cli, "atomic_write_bytes", atomic_write_bytes)


@pytest.mark.parametrize("threads", [1, 3])
def test_simulate_writes_in_frame_order_with_a_bounded_window(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("GFK_THREADS", str(threads))
    cfg = load_run_config(write_config(tmp_path, {"dataset": {"frames": {"train": 9, "test": 3}}}))
    log = _SimulateLog(monkeypatch, cfg)
    cmd_simulate(cfg)
    assert log.written == ([f"frames/frame_{i:06d}{ext}" for i in range(12)
                            for ext in (".pgm", ".jsonl")]
                           + ["calibration.json", "gates.json", "manifest.json"])
    assert sorted(log.rendered) == list(range(12))
    # rendered frames waiting for the writer, beside the one it writes
    assert log.most_waiting <= threads


@pytest.mark.parametrize("threads", [1, 3])
def test_simulate_stops_rendering_at_a_failed_frame(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("GFK_THREADS", str(threads))
    cfg = load_run_config(write_config(tmp_path, {"dataset": {"frames": {"train": 9, "test": 3}}}))
    log = _SimulateLog(monkeypatch, cfg, fail_frame=2)
    with pytest.raises(RuntimeError) as raised:
        cmd_simulate(cfg)
    assert raised.value is log.error
    layout = DatasetLayout(cfg.dataset_dir)
    assert not layout.manifest_path.exists()
    assert list(layout.root.rglob("*.tmp")) == []
    assert log.written == [f"frames/frame_{i:06d}{ext}" for i in range(2)
                           for ext in (".pgm", ".jsonl")]
    assert max(log.rendered) <= 2 + threads


def test_an_interrupted_resimulate_leaves_no_dataset_to_train_on(tmp_path, monkeypatch, capsys):
    # re-simulate at another seed fails in frame 3: frames 0-2 are then the
    # new seed's and the rest the old one's, and no command may read the mix
    p = write_config(tmp_path, {"dataset": {"frames": {"train": 5, "val": 1, "test": 0}}})
    assert main(["simulate", "--config", str(p)]) == 0
    cfg = load_run_config(p, seed_override=6)
    log = _SimulateLog(monkeypatch, cfg, fail_frame=3)
    with pytest.raises(RuntimeError) as raised:
        cmd_simulate(cfg)
    assert raised.value is log.error
    capsys.readouterr()
    assert main(["train", "--config", str(p)]) == 1
    assert capsys.readouterr().err == (f"gfk-error: EmptyDataset: {cfg.dataset_dir}: no "
                                       f"manifest.json; run simulate first\n")


def test_a_failed_stage_leaves_no_output_for_the_next(tmp_path, capsys):
    # after a train that diverges, predict must not run the earlier model,
    # nor eval score the earlier predictions after that failed predict
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    for command in ("simulate", "train", "predict", "eval"):
        assert main([command, "--config", str(p)]) == 0
    diverge = write_config(tmp_path, {"train": {"learning_rate": 1e30}}, name="diverge.json")
    assert main(["train", "--config", str(diverge)]) == 1
    assert not cfg.model_path.exists() and not cfg.metrics_path.exists()
    for command, missing, first in (("predict", cfg.model_path, "train"),
                                    ("eval", cfg.predictions_path, "predict")):
        capsys.readouterr()
        assert main([command, "--config", str(p)]) == 1
        assert capsys.readouterr().err == (f"gfk-error: EmptyDataset: {missing}: no such file; "
                                           f"run {first} first\n")
    assert not cfg.report_json_path.exists() and not cfg.report_csv_path.exists()


def test_simulate_seed_changes_content(tmp_path):
    pa = write_config(tmp_path, {"out_dir": "a"}, name="a.json")
    pb = write_config(tmp_path, {"out_dir": "b", "seed": 6}, name="b.json")
    cmd_simulate(load_run_config(pa))
    cmd_simulate(load_run_config(pb))
    da = {k: v for k, v in tree_digest(tmp_path / "a").items() if k.endswith(".pgm")}
    db = {k: v for k, v in tree_digest(tmp_path / "b").items() if k.endswith(".pgm")}
    assert set(da) == set(db)
    assert da != db


def test_full_pipeline_commands(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    cmd_simulate(cfg)
    tout = cmd_train(cfg)
    assert Path(tout["model"]).exists()
    metrics = Path(tout["metrics"]).read_text().strip().splitlines()
    assert len(metrics) == 1 + 3  # header + one row per epoch
    pout = cmd_predict(cfg)
    assert Path(pout["predictions"]).exists()
    report = cmd_eval(cfg, render_bev=True)
    assert set(report.kinds) == {"2d", "bev", "3d"}
    assert (cfg.bev_dir / "frame_000005.svg").exists()
    cout = cmd_codec_check(cfg)
    assert cout["boxes"] > 0
    assert cout["max_position_error"] < 1e-9
    assert cout["record_errors"] == []
    assert cfg.codec_check_path.exists()


def test_eval_render_bev_writes_one_svg_per_frame_and_the_same_report(tmp_path):
    p = write_config(tmp_path)
    cfg = load_run_config(p)
    for command in ("simulate", "train", "predict", "eval"):
        assert main([command, "--config", str(p)]) == 0
    reports = [cfg.report_json_path.read_bytes(), cfg.report_csv_path.read_bytes()]
    assert not cfg.bev_dir.exists()
    assert main(["eval", "--config", str(p), "--render-bev"]) == 0
    assert [cfg.report_json_path.read_bytes(), cfg.report_csv_path.read_bytes()] == reports
    test_frames = load_manifest(DatasetLayout(cfg.dataset_dir)).splits["test"]
    assert sorted(f.name for f in cfg.bev_dir.iterdir()) == [f"{fid}.svg" for fid in test_frames]
    for fid in test_frames:
        assert (cfg.bev_dir / f"{fid}.svg").read_text().startswith("<svg")


def test_codec_check_lists_corrupted_records(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    # a non-positive height must surface as a per-record error, not a crash
    bad = {"class": "Car", "x": 0.0, "y": 1.0, "z": 30.0,
           "h": -1.0, "w": 1.8, "l": 4.3, "yaw": 0.0,
           "box2d": [80.0, 45.0, 20.0, 15.0], "albedo": 0.5}
    lp = layout.labels_path("frame_000000")
    lines = lp.read_text().splitlines()
    lp.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
    out = cmd_codec_check(cfg)
    assert len(out["record_errors"]) == 1
    err = out["record_errors"][0]
    assert err["frame"] == "frame_000000"
    assert err["line"] == len(lines) + 1
    assert "h" in err["message"]
    # the healthy records still round-trip
    assert out["boxes"] > 0
    assert out["max_position_error"] < 1e-9


def test_codec_check_records_every_bad_line_and_goes_on(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    fid = next(f for f in load_manifest(layout).splits["train"]
               if layout.labels_path(f).read_text())
    lp = layout.labels_path(fid)
    lines = lp.read_text().splitlines()
    good = json.loads(lines[0])
    healthy = cmd_codec_check(cfg)["boxes"]
    lp.write_text("\n".join(lines + ["{not json", json.dumps(good | {"z": math.nan}),
                                     json.dumps(good | {"class": "Bollard"})]) + "\n")
    out = cmd_codec_check(cfg)
    n = len(lines)
    assert [(e["frame"], e["line"], e["error"]) for e in out["record_errors"]] == [
        (fid, n + 1, "ParseError"), (fid, n + 2, "ParseError"), (fid, n + 3, "ParseError")]
    messages = [e["message"] for e in out["record_errors"]]
    assert "invalid JSON" in messages[0]
    assert f"{lp}:{n + 2}: z: expected a finite number, got nan" in messages[1]
    assert "unknown class 'Bollard'" in messages[2]
    assert out["boxes"] == healthy
    assert out["max_position_error"] < 1e-9


def test_codec_check_without_boxes_writes_strict_json(tmp_path):
    cfg = load_run_config(write_config(
        tmp_path, {"dataset": {"frames": {"train": 0, "val": 0, "test": 0}}}))
    cmd_simulate(cfg)
    cmd_codec_check(cfg)

    def reject(name):
        raise ValueError(f"codec_check.json holds {name}")

    out = json.loads(cfg.codec_check_path.read_text(), parse_constant=reject)
    assert out["boxes"] == 0
    assert out["dz"] == {"mean": None, "std": None, "min": None, "max": None}
    assert out["max_position_error"] == 0.0


def test_train_without_dataset(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    with pytest.raises(EmptyDataset):
        cmd_train(cfg)


def test_train_stops_on_a_non_finite_loss(tmp_path, capsys):
    p = write_config(tmp_path, {"train": {"learning_rate": 1e200}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(p)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert re.match(r"gfk-error: TrainingDiverged: loss is (inf|nan) at epoch \d+, step \d+$", err)
    assert not cfg.model_path.exists() and not cfg.metrics_path.exists()


def test_predict_with_perturbation_deterministic(tmp_path):
    p = write_config(tmp_path, {"predict": {"split": "test", "perturb": 0.05}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    cmd_train(cfg)
    cmd_predict(cfg)
    first = cfg.predictions_path.read_bytes()
    cmd_predict(cfg)
    assert cfg.predictions_path.read_bytes() == first


def test_labels_with_an_overflowing_box2d_end_cleanly(tmp_path, capsys):
    # u + w_u / 2 overflows to inf: the crop edges must not round an infinity
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    cmd_train(cfg)
    bad = {"class": "Car", "x": 0.5, "y": 1.65, "z": 20.0, "h": 1.5, "w": 1.8, "l": 4.3,
           "yaw": 0.0, "box2d": [1.7e308, 10.0, 1.7e308, 5.0], "albedo": 0.5}
    for labels in DatasetLayout(cfg.dataset_dir).frames_dir.glob("*.jsonl"):
        with labels.open("a") as f:
            f.write(json.dumps(bad) + "\n")
    runs = [["predict", "--config", str(p)],
            ["predict", "--config",
             str(write_config(tmp_path, {"predict": {"perturb": 0.05}}, name="p.json"))],
            ["train", "--config", str(p)]]
    for argv in runs:
        capsys.readouterr()
        rc = main(argv)
        assert rc in (0, 1), argv
        if rc == 1:
            assert capsys.readouterr().err.splitlines()[-1].startswith("gfk-error:"), argv


@pytest.mark.parametrize("field, value, error", [
    pytest.param("h", 1e308, "ParseError", id="h"),
    pytest.param("x", 1e308, "ParseError", id="x"),
    pytest.param("w", 1e308, "ParseError", id="w"),
    pytest.param("l", 1e308, "ParseError", id="l"),
    pytest.param("z", 1e308, "ParseError", id="z-far"),
    pytest.param("y", -2e4, "ParseError", id="y"),
    pytest.param("z", -5.0, "NonPositiveDepth", id="z"),
    pytest.param("box2d", [80.0, 45.0, 20.0, 1e-4], "DegenerateBox", id="box2d"),
    pytest.param("box2d", [1.7e308, 45.0, 20.0, 10.0], "ParseError", id="box2d-far"),
    pytest.param("box2d", [80.0, 45.0, 20.0, 2e9], "ParseError", id="box2d-tall"),
])
def test_train_blames_an_overflowing_label_on_its_file(tmp_path, capsys, field, value, error):
    # the label lies beyond scene.MAX_EXTENT_M or cannot be encoded (its
    # code overflows, it sits behind the camera, its 2D box is too flat):
    # train names the labels file, and an overflow is not reported as a
    # diverged loss. Codes of w, l and a far z stay finite, so without the
    # parse bound those labels trained to a loss near 1e306.
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    labels = layout.labels_path(load_manifest(layout).splits["train"][0])
    bad = {"class": "Car", "x": 0.5, "y": 1.65, "z": 20.0, "h": 1.5, "w": 1.8, "l": 4.3,
           "yaw": 0.0, "box2d": [80.0, 45.0, 20.0, 10.0], "albedo": 0.5, field: value}
    with labels.open("a") as f:
        f.write(json.dumps(bad) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(p)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"gfk-error: {error}:") and str(labels) in last
    line = len(labels.read_text().splitlines())
    if error == "ParseError":  # read_labels names the line and the field as well
        assert f"{labels}:{line}: {field}: " in last
    errors = cmd_codec_check(cfg)["record_errors"]
    assert [(e["error"], e["line"]) for e in errors] == [(error, line)]


def test_train_stops_on_a_label_whose_code_overflows_float32(tmp_path, capsys):
    # du = (projected u - u) / w_u is about 1e42: finite, so encode accepts
    # it, but beyond float32, the network's dtype
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    layout = DatasetLayout(cfg.dataset_dir)
    labels = layout.labels_path(load_manifest(layout).splits["train"][0])
    bad = {"class": "Car", "x": 0.5, "y": 1.65, "z": 1e-20, "h": 1.5, "w": 1.8, "l": 4.3,
           "yaw": 0.0, "box2d": [80.0, 45.0, 1e-20, 10.0], "albedo": 0.5}
    with labels.open("a") as f:
        f.write(json.dumps(bad) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(p)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    last = capsys.readouterr().err.splitlines()[-1]
    n = len(labels.read_text().splitlines())  # the bad label is the file's last
    assert last == (f"gfk-error: NonFiniteBox: {labels}: label {n} (Car): frustum code is not "
                    f"finite in float32")
    assert not cfg.model_path.exists()


def test_predict_drops_boxes_that_decode_to_non_finite_values(tmp_path, caplog):
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    cmd_train(cfg)
    params, k, mask, classes = parse_model(cfg.model_path.read_bytes(), "model.json")
    # every hidden unit outputs tanh(100) = 1, and the output layer's weights
    # are finite in float32 but sum past its range: every code is inf
    params.weights[0][:] = 0.0
    params.biases[0][:] = 100.0
    params.weights[-1][:] = 1e38
    cfg.model_path.write_text(model_to_json(params, k, mask, classes))
    assert main(["predict", "--config", str(p)]) == 0
    assert "dropping box (NonFiniteBox)" in caplog.text
    read_predictions(cfg.predictions_path)  # parses: no Infinity or NaN was written


@pytest.mark.parametrize("edit", [
    lambda car: car.pop("dim_mean"),
    lambda car: car.update(sigma_h=-1.0),
    lambda car: car.update(dim_mean=[1.5, "tall", 4.0]),
], ids=["missing-dim_mean", "negative-sigma_h", "non-numeric-dim_mean"])
def test_predict_bad_meta_classes_is_model_parse_error(tmp_path, capsys, edit):
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    cmd_simulate(cfg)
    cmd_train(cfg)
    model = json.loads(cfg.model_path.read_text())
    edit(model["meta"]["classes"]["Car"])
    cfg.model_path.write_text(json.dumps(model))
    assert main(["predict", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gfk-error: ModelParseError: ")
    assert "meta.classes" in err


def _write_frame(layout, fid, maxval, rows=12, width=6):
    """A frame PGM of random pixels, rows x width; returns its image."""
    layout.frames_dir.mkdir(parents=True, exist_ok=True)
    img = np.random.default_rng(0).integers(0, maxval + 1, size=(rows, width)).astype(np.uint16)
    layout.slices_path(fid).write_bytes(pgm.encode_pgm(img, maxval))
    return img


@pytest.mark.parametrize("maxval", [255, 1023])
def test_load_slices_equals_the_stacked_slices(tmp_path, maxval):
    layout = DatasetLayout(tmp_path)
    img = _write_frame(layout, "f", maxval)
    got = layout.load_slices("f")
    assert got.shape == (3, 4, 6)
    assert got.dtype == (np.uint8 if maxval == 255 else np.uint16)
    # slice k is the k-th band of rows, top to bottom
    for k in range(3):
        assert np.array_equal(got[k], img[4 * k : 4 * k + 4])


@pytest.mark.parametrize("rows", [1, 2, 13])
def test_load_slices_rejects_a_frame_whose_height_is_not_three_slices(tmp_path, rows):
    layout = DatasetLayout(tmp_path)
    _write_frame(layout, "f", 1023, rows=rows)
    with pytest.raises(ParseError) as err:
        layout.load_slices("f")
    assert str(err.value) == (f"{layout.slices_path('f')}: height {rows} is not three slices "
                              f"of equal height")


def test_load_slices_reads_the_frame_with_one_pgm_read_and_no_copy(tmp_path, monkeypatch):
    # perfbench counts PGM reads by wrapping the module attribute
    layout = DatasetLayout(tmp_path)
    _write_frame(layout, "f", 1023)
    seen, read = [], pgm.read_pgm

    def counting(path, *args, **kwargs):
        out = read(path, *args, **kwargs)
        seen.append((path, out[0]))
        return out

    monkeypatch.setattr(pgm, "read_pgm", counting)
    got = layout.load_slices("f")
    assert [path for path, _image in seen] == [layout.slices_path("f")]
    assert np.shares_memory(got, seen[0][1])


def _to_directory_per_frame(layout, fid):
    """Rewrite a frame into the earlier frames/<id>/slice_k.pgm layout."""
    slices = layout.load_slices(fid)
    d = layout.frames_dir / fid
    d.mkdir()
    for k, img in enumerate(slices, 1):
        (d / f"slice_{k}.pgm").write_bytes(pgm.encode_pgm(img, 1023))
    layout.labels_path(fid).rename(d / "labels.jsonl")
    layout.slices_path(fid).unlink()


def test_train_and_predict_name_the_missing_frame_of_a_directory_per_frame_dataset(tmp_path,
                                                                                  capsys):
    p = write_config(tmp_path, {"train": {"epochs": 1}})
    cfg = load_run_config(p)
    for command in ("simulate", "train"):
        assert main([command, "--config", str(p)]) == 0
    layout = DatasetLayout(cfg.dataset_dir)
    for fid in (f for split in load_manifest(layout).splits.values() for f in split):
        _to_directory_per_frame(layout, fid)
    # predict first: a failed train removes the model that predict needs
    for command, fid in (("predict", "frame_000005"), ("train", "frame_000000")):
        capsys.readouterr()
        assert main([command, "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gfk-error: ") and err.count("\n") == 1, err
        assert f"{fid}.pgm" in err and "Traceback" not in err


def test_atomic_write_no_temp_left(tmp_path):
    target = tmp_path / "x.json"
    atomic_write_text(target, "{}")
    assert target.read_text() == "{}"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_temp_name_is_unique_to_the_writer(tmp_path):
    # a fixed "<name>.tmp" temp name failed here with IsADirectoryError
    target = tmp_path / "x.json"
    (tmp_path / "x.json.tmp").mkdir()
    atomic_write_text(target, "{}")
    assert target.read_text() == "{}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json", "x.json.tmp"]


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    def fail_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(io_cli.os, "replace", fail_replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write_bytes(tmp_path / "x.json", b"{}")
    assert list(tmp_path.iterdir()) == []


def test_stale_temp_files_are_neither_read_nor_removed(tmp_path):
    # A writer killed between write and rename leaves <name>.<hex>.tmp behind.
    # gfk never reads such a file and leaves it for the user to delete.
    p = write_config(tmp_path)

    def run(out):
        for command in ("simulate", "codec-check"):
            assert main([command, "--config", str(p), "--out", str(out)]) == 0
        return tree_digest(out)

    clean = run(tmp_path / "clean")
    assert "codec_check.json" in clean and "dataset/manifest.json" in clean
    stale = tmp_path / "stale"
    for rel in clean:
        leftover = stale / f"{rel}.{'0' * 32}.tmp"
        leftover.parent.mkdir(parents=True, exist_ok=True)
        leftover.write_text(f"half-written {rel}\n")
    leftovers = tree_digest(stale)
    assert run(stale) == clean | leftovers


# ---------------------------------------------------------------------------
# CLI surface

def test_cli_error_line_and_exit(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("gfk-error: ConfigError:")


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x"])


def test_cli_simulate_then_codec_check(tmp_path, capsys):
    p = write_config(tmp_path)
    assert main(["simulate", "--config", str(p)]) == 0
    assert main(["codec-check", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "wrote 7 frames" in out
    assert "max position error" in out


def test_cli_seed_override_changes_dataset(tmp_path):
    p = write_config(tmp_path)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "s5")]) == 0
    assert main(["simulate", "--config", str(p), "--seed", "77",
                 "--out", str(tmp_path / "s77")]) == 0
    d5 = {k: v for k, v in tree_digest(tmp_path / "s5").items() if k.endswith(".pgm")}
    d77 = {k: v for k, v in tree_digest(tmp_path / "s77").items() if k.endswith(".pgm")}
    assert d5 != d77


def test_trained_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a (64, 128) x (128, 128) float32 product is large enough for OpenBLAS to
    # split across threads; the trained bytes must not depend on how it does
    p = write_config(tmp_path, {"dataset": {"dir": str(tmp_path / "dataset"),
                                            "frames": {"train": 30, "val": 2, "test": 0}},
                                "scene": {"min_objects": 2, "max_objects": 4},
                                "train": {"epochs": 4, "batch_size": 64,
                                          "hidden_sizes": [128, 128]}})
    assert main(["simulate", "--config", str(p)]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", "import gfk.io_cli, sys; sys.exit(gfk.io_cli.main("
             f"['train', '--config', {str(p)!r}, '--out', {str(out)!r}]))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("model.json", "metrics.csv")])
    assert outputs[0] == outputs[1]


def test_console_script_entry_point(tmp_path):
    p = write_config(tmp_path, {"dataset": {"frames": {"train": 1, "val": 0, "test": 0}}})
    proc = subprocess.run([sys.executable, "-m", "gfk.io_cli"],
                          capture_output=True, text=True)
    assert proc.returncode != 0  # no subcommand given
    proc = subprocess.run(
        [sys.executable, "-c", "import gfk.io_cli, sys; sys.exit(gfk.io_cli.main("
         f"['simulate', '--config', {str(p)!r}]))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 frames" in proc.stdout
