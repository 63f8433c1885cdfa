"""One repetition of a workload: a fresh process that runs the whole pipeline.

    python3 perfbench/pipeline.py --workload NAME --seed N --dir DIR \
        --t0 T --record FILE [--trace] [--first] [--size tiny]

The process imports gfk from the checkout's ``src/``, writes the workload's
run.json into DIR, then calls ``gfk.io_cli.main`` once per stage. It checks
the outputs, computes golden digests (and, with ``--first``, accuracy
figures and the environment), and writes one JSON record to FILE. ``--t0``
is the parent's ``time.perf_counter()`` just before launch; on Linux that
clock is system-wide, so set-up time covers interpreter start,
``import gfk`` and writing run.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("simulate", "train", "predict", "eval", "codec-check")
# Largest codec round-trip error that still counts as exact.
CODEC_TOLERANCE = 1e-6
# True-depth window of the release gate's depth-error figure, in metres.
Z_WINDOW = (30.0, 80.0)
# About the median time of one Calibration call on a 2-vCPU Xeon (Sapphire
# Rapids) VM; the scale of pipeline_ref_s. Fixed, so the figure compares
# across commits.
REFERENCE_CALIBRATION_S = 0.016


def _import_gfk():
    src = ROOT / "src"
    if not (src / "gfk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gfk sources under {src}")
    sys.path.insert(0, str(src))
    import gfk
    import gfk.io_cli

    if Path(gfk.__file__).resolve().parent != (src / "gfk").resolve():
        raise SystemExit(f"perfbench: imported gfk from {gfk.__file__}, not {src}")
    return gfk


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_tree(root: Path) -> str:
    """Digest over every file's relative path and content digest, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(sha256_file(path).encode() + b"\n")
    return h.hexdigest()


def digests(cfg) -> dict[str, str | None]:
    files = {
        "dataset": cfg.dataset_dir,
        "model.json": cfg.model_path,
        "metrics.csv": cfg.metrics_path,
        "predictions.jsonl": cfg.predictions_path,
        "report.json": cfg.report_json_path,
        "report.csv": cfg.report_csv_path,
        "codec_check.json": cfg.codec_check_path,
    }
    out: dict[str, str | None] = {}
    for name, path in files.items():
        if path.is_dir():
            out[name] = sha256_tree(path)
        elif path.is_file():
            out[name] = sha256_file(path)
        else:
            out[name] = None
    return out


def check_outputs(gfk, cfg) -> dict[str, str | None]:
    """Each output check by name: None when it passed, else why it failed."""
    from gfk.codec import read_predictions
    from gfk.eval import bin_label

    results: dict[str, str | None] = {}
    try:
        read_predictions(cfg.predictions_path)
        results["predictions_parse"] = None
    except (gfk.GfkError, OSError) as e:
        results["predictions_parse"] = f"{type(e).__name__}: {e}"

    try:
        report = json.loads(cfg.report_json_path.read_text())["classes"]
        missing = [
            (cls, kind, label)
            for cls in sorted(cfg.eval_cfg.iou_thresholds)
            for kind in cfg.eval_cfg.kinds
            for label in (bin_label(lo, hi) for lo, hi in cfg.eval_cfg.bins)
            if "ap" not in report.get(cls, {}).get(kind, {}).get(label, {})
        ]
        results["report_cells"] = f"missing cells {missing}" if missing else None
    except (OSError, ValueError, KeyError, AttributeError) as e:
        results["report_cells"] = f"{type(e).__name__}: {e}"

    try:
        cc = json.loads(cfg.codec_check_path.read_text())
        worst = max(cc["max_position_error"], cc["max_dimension_error"], cc["max_yaw_error"])
        if cc["record_errors"]:
            results["codec_check"] = f"{len(cc['record_errors'])} record errors"
        elif not worst < CODEC_TOLERANCE:
            results["codec_check"] = f"max round-trip error {worst}"
        else:
            results["codec_check"] = None
    except (OSError, ValueError, KeyError, TypeError) as e:
        results["codec_check"] = f"{type(e).__name__}: {e}"
    return results


def accuracy(gfk, cfg) -> dict[str, float | None]:
    """Median depth error in the z window and mean of the defined 3D AP-40 cells.

    Each test label is paired with the same-frame prediction of highest 2D
    IoU; labels with no overlapping prediction are left out.
    """
    from gfk.codec import read_predictions
    from gfk.eval import iou_2d
    from gfk.io_cli import DatasetLayout, load_manifest
    from gfk.scene import read_labels

    layout = DatasetLayout(cfg.dataset_dir)
    by_frame: dict[str, list] = {}
    for fid, box, box2d, _code in read_predictions(cfg.predictions_path):
        by_frame.setdefault(fid, []).append((box, box2d))
    errors = []
    for fid in load_manifest(layout).splits[cfg.predict_split]:
        preds = by_frame.get(fid, [])
        for obj in read_labels(layout.labels_path(fid)):
            if not Z_WINDOW[0] <= obj.box.z <= Z_WINDOW[1] or not preds:
                continue
            iou, z_pred = max((iou_2d(b2, obj.box2d), b.z) for b, b2 in preds)
            if iou > 0:
                errors.append(abs(z_pred - obj.box.z))
    report = json.loads(cfg.report_json_path.read_text())["classes"]
    aps = [cell["ap"] for kinds in report.values() for cell in kinds["3d"].values()
           if cell["ap"] is not None]
    return {
        "z_err_med_m": statistics.median(errors) if errors else None,
        "z_err_count": len(errors),
        "ap3d_mean": statistics.fmean(aps) if aps else None,
    }


class Calibration:
    """Times a fixed mix of interpreter and numpy work, in seconds per call.

    The kernel never changes and touches no gfk code, so its time tracks
    how fast the host runs this process at the moment: a pure-Python loop
    (like the pipeline's per-object and per-step code) and element-wise
    numpy on a 1.6 MB array (like its per-pixel code). The arrays are
    allocated once and worked on in place, so the allocator state that the
    stages leave behind does not change the kernel's time.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._a = np.arange(200_000, dtype=float)
        self._b = np.empty_like(self._a)

    def __call__(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(10):
            np.multiply(a, a, out=b)
            b += 1.0
            np.sqrt(b, out=a)
        return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps.get(key) for key in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GFK_THREADS": os.environ.get("GFK_THREADS"),
    }


def run(args) -> dict:
    gfk = _import_gfk()
    from gfk import io_cli

    work = Path(args.dir)
    config_path = work / "run.json"
    config_path.write_text(json.dumps(workloads.run_config(args.workload, args.seed,
                                                          tiny=args.size == "tiny"),
                                      indent=2) + "\n")
    setup_s = time.perf_counter() - args.t0

    def call(_name, fn, *fn_args):
        return fn(*fn_args)

    spans = None
    if args.trace:
        from tracer import Tracer  # only traced repetitions load the tracer

        spans = Tracer()
        spans.install({name: getattr(gfk, name) for name in
                       ("io_cli", "regressor", "eval", "scene", "pgm")})
        call = spans.span

    stage_s: dict[str, float] = {}
    stage_errors: dict[str, str | None] = {}
    calibrate = Calibration()
    calibration_s = []  # before each stage and after the last, outside stage_s
    for stage in STAGES:
        key = stage.replace("-", "_")
        calibration_s.append(calibrate())
        start = time.perf_counter()
        try:
            code = call(f"io_cli.{key}", io_cli.main, [stage, "--config", str(config_path)])
            stage_errors[stage] = None if code == 0 else f"exit code {code}"
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            stage_errors[stage] = traceback.format_exc(limit=-1).strip()
        stage_s[key] = time.perf_counter() - start
    pipeline_s = sum(stage_s.values())
    calibration_s.append(calibrate())
    # The wall time this repetition would have taken at the reference speed:
    # each stage rescaled by the mean of the calibrations just before and
    # just after it, so the long stages weigh the host speed during them.
    pipeline_ref_s = sum(t * REFERENCE_CALIBRATION_S / statistics.fmean(calibration_s[i:i + 2])
                         for i, t in enumerate(stage_s.values()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans is not None:
        spans.remove()

    cfg = io_cli.load_run_config(config_path)
    checks = {f"main_{stage}": err for stage, err in stage_errors.items()}
    checks.update(check_outputs(gfk, cfg))
    record = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "pipeline_ref_s": pipeline_ref_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "stage_s": stage_s,
        "checks": checks,
        "digests": digests(cfg),
        "predictions_bytes": (cfg.predictions_path.stat().st_size
                              if cfg.predictions_path.is_file() else 0),
    }
    # Later repetitions must reproduce these bytes, so their accuracy too.
    if args.first:
        try:
            record["quality"] = accuracy(gfk, cfg)
            checks["accuracy"] = None
        except (gfk.GfkError, OSError, ValueError, KeyError) as e:
            checks["accuracy"] = f"{type(e).__name__}: {e}"
            record["quality"] = {}
        record["environment"] = environment()
    if spans is not None:
        record["layers"] = spans.metrics()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="empty directory for this repetition")
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.perf_counter() at launch")
    parser.add_argument("--record", required=True, help="where to write the JSON record")
    parser.add_argument("--trace", action="store_true", help="record per-module spans")
    parser.add_argument("--first", action="store_true",
                        help="also compute accuracy figures and the environment record")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    record = run(args)
    Path(args.record).write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
