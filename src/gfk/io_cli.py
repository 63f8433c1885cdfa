"""On-disk dataset layout, run configuration, and the command-line pipeline.

A dataset directory looks like:

    <root>/
      calibration.json
      gates.json
      manifest.json            seed, split membership, class stats
      frames/
        <frame_id>.pgm         the three slices stacked top to bottom: one
                               16-bit binary PGM of W x 3H, maxval = sensor
                               full scale
        <frame_id>.jsonl       labels, one object per line

A dataset in the earlier layout, a directory per frame holding
slice_1.pgm .. slice_3.pgm and labels.jsonl, must be simulated again.

All whole-file outputs are written to a temp file and renamed into place, so
readers never observe a half-written artifact. Every random draw descends
from the run seed through per-frame substreams, which makes simulate, train
and predict byte-reproducible. In simulate, GFK_THREADS workers render frames
while the calling thread encodes and writes them in index order; beside the
frame being written, at most GFK_THREADS frames are rendering or waiting.
The output does not depend on GFK_THREADS.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import pgm
from .camera import (
    CameraModel,
    DEFAULT_CAMERA,
    calibration_to_json,
    load_calibration,
    wrap_to_pi,
)
# read_predictions is not called here, but perfbench's tracer wraps io_cli.read_predictions.
from .codec import K_DEFAULT, encode, decode, predictions_to_jsonl, read_predictions
from .errors import (ConfigError, EmptyDataset, FullyOutOfImage, GfkError, NonFiniteBox,
                     ParseError)
from .eval import EvalConfig, EvalReport, bev_svg, evaluate, read_boxes
from .loss import LossWeights
from .records import FieldError, build, convert, get, parse_json, read_jsonl
from .regressor import (
    FEATURE_SIZE,
    INTENSITY_FEATURES,
    RATIO_FEATURES,
    TrainConfig,
    extract_features,
    metrics_to_csv,
    model_to_json,
    parse_model,
    predict,
    train,
)
from .ripsim import (
    POISSON_LAM_MAX,
    GateConfig,
    NoiseConfig,
    default_gates,
    gates_to_json,
    render_frame,
)
from .scene import (
    DEFAULT_CLASSES,
    LabeledObject,
    ObjectClass,
    SceneConfig,
    class_stats_from_json,
    class_stats_to_json,
    labels_to_jsonl,
    oracle_box2d,
    parse_label,
    perturb_box2d,
    read_labels,
    sample_scene,
)

logger = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")


def gfk_threads() -> int:
    """Frame-synthesis workers, from the GFK_THREADS environment variable (default 1)."""
    raw = os.environ.get("GFK_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"GFK_THREADS: not an integer: {raw!r}") from None
    return max(1, n)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write data to a temp file unique to this call, then rename it onto path."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass(frozen=True)
class DatasetLayout:
    root: Path

    @property
    def frames_dir(self) -> Path:
        return self.root / "frames"

    @property
    def calibration_path(self) -> Path:
        return self.root / "calibration.json"

    @property
    def gates_path(self) -> Path:
        return self.root / "gates.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def slices_path(self, frame_id: str) -> Path:
        return self.frames_dir / f"{frame_id}.pgm"

    def labels_path(self, frame_id: str) -> Path:
        return self.frames_dir / f"{frame_id}.jsonl"

    def load_slices(self, frame_id: str) -> np.ndarray:
        """The frame's (3, H, W) slices: a view of its one PGM, 3H rows high."""
        path = self.slices_path(frame_id)
        image, _maxval = pgm.read_pgm(path)
        rows, width = image.shape
        if rows % 3:
            raise ParseError(f"{path}: height {rows} is not three slices of equal height")
        return image.reshape(3, rows // 3, width)


@dataclass(frozen=True)
class Manifest:
    seed: int
    splits: dict[str, list[str]]
    classes: dict[str, ObjectClass]


def write_manifest(layout: DatasetLayout, seed: int, splits: dict[str, list[str]],
                   classes: dict[str, ObjectClass]) -> None:
    payload = {
        "seed": seed,
        "splits": splits,
        "classes": class_stats_to_json(classes),
    }
    atomic_write_text(layout.manifest_path, json.dumps(payload, indent=2) + "\n")


def load_manifest(layout: DatasetLayout) -> Manifest:
    path = layout.manifest_path
    try:
        payload = parse_json(path.read_bytes())
        splits = get(payload, "splits", Mapping[str, tuple[str, ...]])
        # a frame id names its two files under frames/, never a path out of it
        for split in SPLITS:
            for fid in splits.get(split, ()):
                if fid in ("", ".", "..") or "/" in fid or "\\" in fid:
                    raise ParseError(f"{path}: splits.{split}: frame id {fid!r} is not a "
                                     f"directory name")
        return Manifest(seed=get(payload, "seed", int),
                        splits={s: list(splits.get(s, ())) for s in SPLITS},
                        classes=class_stats_from_json(get(payload, "classes", Mapping[str, dict]),
                                                      "classes"))
    except FileNotFoundError:
        raise EmptyDataset(f"{layout.root}: no manifest.json; run simulate first") from None
    except FieldError as e:
        raise ParseError(f"{path}: {e}") from None


def frame_index(frame_id: str, where: str) -> int:
    """The global frame number encoded in a frame id like 'frame_000042':
    the ASCII decimal digits after its last '_'. where names the manifest
    split the id comes from."""
    _, sep, digits = frame_id.rpartition("_")
    try:
        if not (sep and digits.isascii() and digits.isdigit()):
            raise ValueError(frame_id)
        return int(digits)  # also a ValueError past int's digit limit
    except ValueError:
        raise ParseError(f"{where}: frame id {frame_id!r} does not end in '_' and decimal "
                         f"digits") from None


def _substream(seed: int, index: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index, purpose])


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: Path
    dataset_dir: Path
    frames: dict[str, int]
    gates: tuple[GateConfig, ...]
    noise: NoiseConfig
    scene: SceneConfig
    codec_k: float
    train_cfg: TrainConfig
    ablate_intensity: bool
    eval_cfg: EvalConfig
    predict_split: str
    perturb_2d: float

    @property
    def model_path(self) -> Path:
        return self.out_dir / "model.json"

    @property
    def metrics_path(self) -> Path:
        return self.out_dir / "metrics.csv"

    @property
    def predictions_path(self) -> Path:
        return self.out_dir / "predictions.jsonl"

    @property
    def report_json_path(self) -> Path:
        return self.out_dir / "report.json"

    @property
    def report_csv_path(self) -> Path:
        return self.out_dir / "report.csv"

    @property
    def bev_dir(self) -> Path:
        return self.out_dir / "bev"

    @property
    def codec_check_path(self) -> Path:
        return self.out_dir / "codec_check.json"


def _field_names(cls, *skip: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# The keys of each object section of a run config. A section that exposes
# every field of its dataclass takes its keys from that dataclass; a field a
# section does not list (train.seed, ...) keeps its default.
SECTIONS = {
    "dataset": ("dir", "frames"),
    "camera": _field_names(CameraModel),
    "noise": _field_names(NoiseConfig, "enable_clipping"),  # PGM slices are integer
    "scene": _field_names(SceneConfig, "camera"),
    "codec": ("k",),
    "train": ("hidden_sizes", "epochs", "batch_size", "learning_rate",
              *_field_names(LossWeights), "ablate_intensity"),
    "eval": ("iou_thresholds", "bins"),
    "predict": ("split", "perturb"),
}


def _section(value, where: str, keys: Sequence[str]) -> dict:
    """A config section: a JSON object holding only the given keys; null is {}."""
    if value is None:
        return {}
    unknown = sorted(set(convert(value, dict, where)) - set(keys))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")
    return value


def load_run_config(path: str | Path, seed_override: int | None = None,
                    out_override: str | Path | None = None) -> RunConfig:
    """Parse a run configuration file.

    Relative paths inside the file resolve against the file's directory;
    --seed and --out from the command line win over the file.
    """
    path = Path(path)
    try:
        payload = parse_json(path.read_bytes())
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except FieldError as e:
        raise ConfigError(f"{path}: {e}") from None
    try:
        return _run_config(payload, path.parent, seed_override, out_override)
    except FieldError as e:
        raise ConfigError(str(e)) from None


def _run_config(payload, base: Path, seed_override: int | None,
                out_override: str | Path | None) -> RunConfig:
    payload = _section(payload, "config", ("seed", "out_dir", "gates", *SECTIONS))
    sec = {name: _section(payload.get(name), name, keys) for name, keys in SECTIONS.items()}

    seed = seed_override if seed_override is not None else get(payload, "seed", int, 0, "config")
    if seed < 0:
        where = "config.seed" if seed_override is None else "--seed"
        raise ConfigError(f"{where}: must be >= 0, got {seed}")

    out_dir = (Path(out_override) if out_override is not None
               else base / get(payload, "out_dir", str, "runs/out", "config"))

    ds_dir_raw = get(sec["dataset"], "dir", str, None, "dataset")
    dataset_dir = base / ds_dir_raw if ds_dir_raw else out_dir / "dataset"
    frames_sec = _section(sec["dataset"].get("frames"), "dataset.frames", SPLITS)
    frames = {s: get(frames_sec, s, int, 0, "dataset.frames") for s in SPLITS}
    for s, n in frames.items():
        if n < 0:
            raise ConfigError(f"dataset.frames.{s}: must be >= 0, got {n}")

    camera = DEFAULT_CAMERA
    if payload.get("camera") is not None:
        camera = build(CameraModel, sec["camera"], "camera")

    gates = payload.get("gates")
    if gates is None:
        gates = default_gates()
    elif not isinstance(gates, list) or len(gates) != 3:
        raise ConfigError("gates: expected a list of exactly 3 gate objects")
    else:
        gates = tuple(build(GateConfig, _section(rec, f"gates[{i}]", _field_names(GateConfig)),
                            f"gates[{i}]") for i, rec in enumerate(gates))

    class_names = get(sec["scene"], "classes", tuple[str, ...], tuple(DEFAULT_CLASSES), "scene")
    for name in class_names:
        if name not in DEFAULT_CLASSES:
            raise ConfigError(f"scene.classes: unknown class {name!r}")
    scene_cfg = build(SceneConfig, sec["scene"], "scene", camera=camera,
                      classes=tuple(DEFAULT_CLASSES[name] for name in class_names))

    codec_k = get(sec["codec"], "k", float, K_DEFAULT, "codec")
    if codec_k <= 0:
        raise ConfigError(f"codec.k: must be positive, got {codec_k}")

    split = get(sec["predict"], "split", str, "test", "predict")
    if split not in SPLITS:
        raise ConfigError(f"predict.split: must be one of {SPLITS}, got {split!r}")
    perturb = get(sec["predict"], "perturb", float, 0.0, "predict")
    if not 0.0 <= perturb <= 1.0:
        raise ConfigError(f"predict.perturb: must be in [0, 1], got {perturb}")

    # A pixel's shot-noise rate is at most photon_scale times a gate's peak (albedo <= 1).
    noise = build(NoiseConfig, sec["noise"], "noise")
    peak = noise.photon_scale * max(g.peak_value for g in gates)
    if peak >= POISSON_LAM_MAX:
        raise ConfigError(f"noise.photon_scale: a peak shot-noise rate of {peak:.3g} is at or "
                          f"above numpy's Poisson limit {POISSON_LAM_MAX:.3g}")

    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        dataset_dir=dataset_dir,
        frames=frames,
        gates=gates,
        noise=noise,
        scene=scene_cfg,
        codec_k=codec_k,
        train_cfg=build(TrainConfig, sec["train"], "train", seed=seed,
                        loss=build(LossWeights, sec["train"], "train")),
        ablate_intensity=get(sec["train"], "ablate_intensity", bool, False, "train"),
        eval_cfg=build(EvalConfig, sec["eval"], "eval"),
        predict_split=split,
        perturb_2d=perturb,
    )


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: RunConfig) -> dict:
    """Synthesize the dataset described by cfg; returns a small summary."""
    # Zero frames is legal: the manifest is still written, with empty splits.
    total = sum(cfg.frames.values())
    layout = DatasetLayout(cfg.dataset_dir)
    layout.frames_dir.mkdir(parents=True, exist_ok=True)

    frame_ids = [f"frame_{index:06d}" for index in range(total)]
    splits, start = {}, 0
    for split in SPLITS:
        splits[split] = frame_ids[start : start + cfg.frames[split]]
        start += cfg.frames[split]

    def render(index: int) -> tuple[bool, np.ndarray, str]:
        """Frame index's placement warning, (3, H, W) slices and labels text."""
        fid = frame_ids[index]
        scene_rng = np.random.default_rng(_substream(cfg.seed, index, 0))
        scn = sample_scene(cfg.scene, scene_rng)
        if scn.placement_warning:
            logger.warning("%s: placement retries exhausted, dropped at least one object", fid)
        render_seed = int(_substream(cfg.seed, index, 1).generate_state(1)[0])
        frame = render_frame(scn, cfg.gates, cfg.scene.camera, cfg.noise, seed=render_seed)
        labeled = []
        for obj in scn.objects:
            try:
                box2d = oracle_box2d(obj.box, cfg.scene.camera)
            except FullyOutOfImage:
                logger.warning("%s: object projects outside the image, not labeling", fid)
                continue
            labeled.append(LabeledObject(obj.box, box2d, obj.albedo))
        return scn.placement_warning, frame.slices, labels_to_jsonl(labeled)

    # Workers render; this thread encodes and writes the frames in index
    # order. Frame i + workers is submitted only once frame i has rendered,
    # so besides the frame being written at most `workers` frames are held.
    workers = gfk_threads()
    warnings = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(render, index) for index in range(min(workers, total)))
        for index, fid in enumerate(frame_ids):
            warned, slices, labels_text = pending.popleft().result()
            if index + workers < total:
                pending.append(pool.submit(render, index + workers))
            # the (3, H, W) slices as they are: one image of 3H rows
            encoded = pgm.encode_pgm(slices.reshape(-1, slices.shape[-1]), cfg.noise.full_scale)
            atomic_write_bytes(layout.slices_path(fid), encoded)
            # free this frame before the next one arrives, the slices only
            # after the write: freed before it, glibc kept ~11 MB of 1280x720
            # frames resident after simulate in about half of the runs
            del encoded, slices
            atomic_write_text(layout.labels_path(fid), labels_text)
            warnings += warned

    atomic_write_text(layout.calibration_path, calibration_to_json(cfg.scene.camera))
    atomic_write_text(layout.gates_path, gates_to_json(cfg.gates))
    classes = {c.name: c for c in cfg.scene.classes}
    write_manifest(layout, cfg.seed, splits, classes)
    return {
        "dataset_dir": str(layout.root),
        "frames": total,
        "placement_warnings": warnings,
    }


def _feature_mask(ablate_intensity: bool) -> np.ndarray:
    """Ones, with the slice intensity and ratio features zeroed when ablated."""
    mask = np.ones(FEATURE_SIZE)
    if ablate_intensity:
        mask[INTENSITY_FEATURES] = 0.0
        mask[RATIO_FEATURES] = 0.0
    return mask


def build_samples(layout: DatasetLayout, frame_ids: Sequence[str], classes: dict[str, ObjectClass],
                  k: float, cam: CameraModel,
                  feature_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Load frames and turn every labeled object into a training sample.

    Returns the (n, FEATURE_SIZE) masked feature matrix and the (n, 8)
    matrix of frustum codes that encode returns, one row per object: the
    network trains on the code it predicts.
    """
    x, t = [], []
    for fid in frame_ids:
        slices = layout.load_slices(fid)
        path = layout.labels_path(fid)
        for n, obj in enumerate(read_labels(path), 1):
            st = classes.get(obj.box.cls)
            if st is None:
                logger.warning("%s: no stats for class %r, skipping", fid, obj.box.cls)
                continue
            x.append(extract_features(slices, obj.box2d) * feature_mask)
            try:
                t.append(encode(obj.box, obj.box2d, st, k, cam))
            except GfkError as e:
                raise type(e)(f"{path}: {e}") from None
            # the network is float32 (regressor.train casts both rows)
            with np.errstate(over="ignore"):
                for what, row in (("feature row", x[-1]), ("frustum code", t[-1])):
                    if not np.isfinite(np.array(row, dtype=np.float32)).all():
                        raise NonFiniteBox(f"{path}: label {n} ({obj.box.cls}): {what} is not "
                                           f"finite in float32")
        del slices  # free this frame before the next one loads
    return np.array(x).reshape(-1, FEATURE_SIZE), np.array(t).reshape(-1, 8)


def cmd_train(cfg: RunConfig) -> dict:
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    cam = load_calibration(layout.calibration_path)
    mask = _feature_mask(cfg.ablate_intensity)
    x, t = build_samples(layout, manifest.splits["train"], manifest.classes,
                         cfg.codec_k, cam, mask)
    x_val, t_val = build_samples(layout, manifest.splits["val"], manifest.classes,
                                 cfg.codec_k, cam, mask)
    if len(x) == 0:
        raise EmptyDataset(f"{layout.root}: train split has no usable objects")
    params, history = train(x, t, cfg.train_cfg, x_val, t_val)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.model_path, model_to_json(params, cfg.codec_k, mask, manifest.classes))
    atomic_write_text(cfg.metrics_path, metrics_to_csv(history))
    return {
        "model": str(cfg.model_path),
        "metrics": str(cfg.metrics_path),
        "samples": len(x),
        "final_train_loss": history[-1].total,
        "final_val_loss": history[-1].val_total,
    }


def cmd_predict(cfg: RunConfig) -> dict:
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    cam = load_calibration(layout.calibration_path)
    # the codec k, feature mask and class stats the model was trained with
    params, k, mask, classes = parse_model(cfg.model_path.read_bytes(), str(cfg.model_path))

    frame_ids = manifest.splits[cfg.predict_split]
    rows = []
    for fid in frame_ids:
        slices = layout.load_slices(fid)
        labeled = read_labels(layout.labels_path(fid))
        boxes2d = [o.box2d for o in labeled]
        if cfg.perturb_2d > 0:
            index = frame_index(fid, f"{layout.manifest_path}: splits.{cfg.predict_split}")
            rng = np.random.default_rng(_substream(cfg.seed, index, 2))
            boxes2d = [perturb_box2d(b, cfg.perturb_2d, rng) for b in boxes2d]
        for pred in predict(params, slices, boxes2d, classes, k, cam, mask):
            rows.append((fid, pred.box, pred.box2d, pred.code))
        del slices  # free this frame before the next one loads
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.predictions_path, predictions_to_jsonl(rows))
    return {
        "predictions": str(cfg.predictions_path),
        "frames": len(frame_ids),
        "boxes": len(rows),
    }


def cmd_eval(cfg: RunConfig, render_bev: bool = False) -> EvalReport:
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    frame_ids = manifest.splits[cfg.predict_split]
    if not frame_ids:
        raise EmptyDataset(f"{layout.root}: split {cfg.predict_split!r} is empty")
    labels_by_frame = {fid: layout.labels_path(fid) for fid in frame_ids}
    dets, gts = read_boxes(cfg.predictions_path, labels_by_frame)
    report = evaluate(dets, gts, cfg.eval_cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.report_json_path,
                      json.dumps(report.to_json_dict(), indent=2) + "\n")
    atomic_write_text(cfg.report_csv_path, report.to_csv())
    if render_bev:
        cfg.bev_dir.mkdir(parents=True, exist_ok=True)
        # (ground truth, detections) of each frame
        by_frame: dict[str, tuple[list, list]] = {fid: ([], []) for fid in frame_ids}
        for side, rows in enumerate((gts, dets)):
            for fid, box, _box2d in rows:
                if fid in by_frame:
                    by_frame[fid][side].append(box)
        for fid in frame_ids:
            atomic_write_text(cfg.bev_dir / f"{fid}.svg", bev_svg(*by_frame[fid]))
    return report


def cmd_codec_check(cfg: RunConfig) -> dict:
    """Round-trip every label through encode/decode and summarize the errors."""
    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    cam = load_calibration(layout.calibration_path)
    k = cfg.codec_k
    record_errors: list[dict] = []

    def round_trip(rec, where: str) -> tuple[float, float, float, float]:
        """dz and the position, dimension and yaw errors of one label."""
        b, p, _albedo = parse_label(rec, where)
        st = manifest.classes.get(b.cls)
        if st is None:
            raise ParseError(f"{where}: unknown class {b.cls!r}")
        code = encode(b, p, st, k, cam)
        back = decode(code, p, st, k, cam)
        return (code.dz, max(abs(back.x - b.x), abs(back.y - b.y), abs(back.z - b.z)),
                max(abs(back.h - b.h), abs(back.w - b.w), abs(back.l - b.l)),
                abs(wrap_to_pi(back.yaw - b.yaw)))

    rows = []
    for fid in (fid for s in SPLITS for fid in manifest.splits[s]):
        def failed(lineno: int, e: Exception, fid: str = fid) -> None:
            record_errors.append({"frame": fid, "line": lineno,
                                  "error": type(e).__name__, "message": str(e)})
        rows += read_jsonl(layout.labels_path(fid), round_trip, failed)
    dz = np.array([row[0] for row in rows], dtype=np.float64)
    out = {
        "boxes": len(rows),
        "max_position_error": max((row[1] for row in rows), default=0.0),
        "max_dimension_error": max((row[2] for row in rows), default=0.0),
        "max_yaw_error": max((row[3] for row in rows), default=0.0),
        "dz": {
            "mean": float(dz.mean()) if dz.size else None,
            "std": float(dz.std()) if dz.size else None,
            "min": float(dz.min()) if dz.size else None,
            "max": float(dz.max()) if dz.size else None,
        },
        "record_errors": record_errors,
    }
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.codec_check_path, json.dumps(out, indent=2) + "\n")
    return out


# ---------------------------------------------------------------------------
# command line

COMMANDS = ("simulate", "train", "predict", "eval", "codec-check")



def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfk",
        description="Simulate gated range-intensity slices, train and evaluate a "
                    "frustum box regressor on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "synthesize a dataset of gated slices and labels",
        "train": "fit the box regressor on the train split",
        "predict": "run the regressor over a split and write predictions",
        "eval": "score predictions against labels (AP by class/kind/range)",
        "codec-check": "round-trip every label through the box codec",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--out", default=None,
                       help="override the config's output directory")
        if name == "eval":
            p.add_argument("--render-bev", action="store_true",
                           help="also write per-frame bird's-eye-view SVGs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
        if args.command == "simulate":
            out = cmd_simulate(cfg)
            print(f"wrote {out['frames']} frames to {out['dataset_dir']}"
                  + (f" ({out['placement_warnings']} placement warnings)"
                     if out["placement_warnings"] else ""))
        elif args.command == "train":
            out = cmd_train(cfg)
            print(f"trained on {out['samples']} boxes; "
                  f"final loss {out['final_train_loss']:.4f} "
                  f"(val {out['final_val_loss']:.4f})")
            print(f"model: {out['model']}")
            print(f"metrics: {out['metrics']}")
        elif args.command == "predict":
            out = cmd_predict(cfg)
            print(f"predicted {out['boxes']} boxes over {out['frames']} frames")
            print(f"predictions: {out['predictions']}")
        elif args.command == "eval":
            report = cmd_eval(cfg, render_bev=args.render_bev)
            for cls in report.classes:
                for kind in report.kinds:
                    cells = []
                    for label in report.bin_labels:
                        ap = report.ap(cls, kind, label)
                        cells.append(f"{label} {'n/a' if ap is None else f'{ap:.3f}'}")
                    print(f"{cls:<12} {kind:>3} AP40  " + "  ".join(cells))
            print(f"report: {cfg.report_json_path}")
        elif args.command == "codec-check":
            out = cmd_codec_check(cfg)
            print(f"checked {out['boxes']} boxes: "
                  f"max position error {out['max_position_error']:.3g} m, "
                  f"max dimension error {out['max_dimension_error']:.3g} m, "
                  f"max yaw error {out['max_yaw_error']:.3g} rad")
            if out["record_errors"]:
                print(f"{len(out['record_errors'])} records failed to round-trip "
                      f"(see {cfg.codec_check_path})")
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    except (GfkError, OSError) as e:
        print(f"gfk-error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
