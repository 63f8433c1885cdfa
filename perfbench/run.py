"""Benchmark of the gfk pipeline: simulate, train, predict, eval, codec-check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh process
(perfbench/pipeline.py) that runs the five CLI stages, in order, on the
run.json generated from the workload and seed; repetitions run one after
another (closed loop, one client) until the next one would end after S
seconds, and at least twice. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-module
metrics, from spans recorded around the functions each gfk module exposes.
Traced runs alternate untraced and traced repetitions, so the tracing
overhead is measured in the same run. The full record (environment, load
average, golden digests, every repetition) is written under
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"
MIN_REPS = 2
# Whole run, repetitions included, must end well inside three minutes.
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "pipeline_ref_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    """Unit of a per-module metric, read off the suffix of its name."""
    suffix_units = (
        (("_s",), "s"), ((".ms", "_ms"), "ms"), ((".us", "_us"), "us"), (("_yield",), "ratio"),
        (("bytes", "bytes_written"), "bytes"), (("_m",), "m"), (("ap3d_mean",), "1"),
    )
    for suffixes, unit in suffix_units:
        if name.endswith(suffixes):
            return unit
    return "count"


class SetupFailure(Exception):
    """The pipeline process could not start or produce a record."""


def run_repetition(args, index: int, traced: bool, deadline: float) -> dict:
    rep_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    record_path = rep_dir / "record.json"
    log_path = rep_dir / "pipeline.log"
    env = dict(os.environ, GFK_THREADS="1")
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(rep_dir), "--record", str(record_path),
           "--size", args.size]
    if traced:
        cmd.append("--trace")
    if index == 0:
        cmd.append("--first")
    try:
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=log, stderr=log, env=env,
                                  cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
        wall_s = time.perf_counter() - t0
        if proc.returncode != 0 or not record_path.is_file():
            tail = log_path.read_text(errors="replace")[-2000:]
            raise SetupFailure(f"repetition {index} exited with {proc.returncode}:\n{tail}")
        record = json.loads(record_path.read_text())
    except subprocess.TimeoutExpired:
        raise SetupFailure(f"repetition {index} did not finish in time") from None
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    record["wall_s"] = wall_s
    return record


def run_all(args) -> list[dict]:
    """Repetitions until the next would overrun args.seconds, at least MIN_REPS."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    records: list[dict] = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_repetition(args, len(records), traced, deadline))
        elapsed = time.monotonic() - start
        longest = max(r["wall_s"] for r in records)
        if len(records) >= MIN_REPS and elapsed + longest > args.seconds:
            return records


def count_operations(records: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) over stage calls and output checks.

    Besides the per-repetition checks, every repetition after the first must
    reproduce the first one's artifact digests byte for byte.
    """
    attempted = failed = 0
    failures = []
    reference = records[0]["digests"]
    for i, rec in enumerate(records):
        checks = dict(rec["checks"])
        if i > 0:
            changed = [k for k, v in rec["digests"].items() if v != reference[k]]
            checks["digests_match"] = f"digests differ: {changed}" if changed else None
        for name, error in checks.items():
            attempted += 1
            if error is not None:
                failed += 1
                failures.append(f"repetition {i}: {name}: {error}")
    return attempted, failed, failures


def summarize(records: list[dict]) -> tuple[dict, dict]:
    """(end-to-end medians, per-stage and per-module medians).

    The end-to-end pipeline figure is ``pipeline_ref_s``: each repetition's
    wall time rescaled by the calibration kernel timed around its stages.
    The shared host changes speed by up to 1.6x for seconds to minutes at a
    time, which the plain wall time (``pipeline_s``, kept beside it) follows.
    """
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]

    def med(recs, key):
        return statistics.median(r[key] for r in recs)

    end_to_end = {
        "setup_s": med(records, "setup_s"),
        "pipeline_ref_s": med(plain, "pipeline_ref_s"),
        "peak_rss_mb": med(plain, "peak_rss_mb"),
    }
    stages = {"pipeline_s": med(plain, "pipeline_s"),
              "host.calibration_ms": 1e3 * statistics.median(
                  c for r in records for c in r["calibration_s"])}
    stages.update({f"io_cli.{k}_s": statistics.median(r["stage_s"][k] for r in plain)
                   for k in plain[0]["stage_s"]})
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        for k in traced[0]["stage_s"]:
            layers[f"io_cli.{k}_s"] = statistics.median(r["stage_s"][k] for r in traced)
        layers["codec.predictions_bytes"] = traced[0]["predictions_bytes"]
        quality = records[0]["quality"]
        layers["eval.z_err_med_m"] = quality.get("z_err_med_m") or 0.0
        layers["eval.ap3d_mean"] = quality.get("ap3d_mean") or 0.0
        layers["io_cli.pipeline_s"] = stages["pipeline_s"]
        layers["host.calibration_ms"] = stages["host.calibration_ms"]
        layers["trace.pipeline_ref_s"] = med(traced, "pipeline_ref_s")
        layers["trace.overhead_s"] = (layers["trace.pipeline_ref_s"]
                                      - end_to_end["pipeline_ref_s"])
    return end_to_end, {"stages_untraced": stages, "layers": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help=f"workload seed (default {workloads.DEFAULT_SEED}; held-out "
                             f"seed for confirming a claim: {workloads.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure until the next repetition would end after this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gfk" / "__init__.py").is_file():
        print(f"perfbench: no gfk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    started = time.time()
    try:
        records = run_all(args)
    except SetupFailure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:  # absent, or another run is still using it
            pass
    load_end = os.getloadavg()[0]

    attempted, failed, failures = count_operations(records)
    end_to_end, detail = summarize(records)
    quality = records[0]["quality"]
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "started_unix": started,
        "loadavg_1m": {"start": load_start, "end": load_end},
        "environment": records[0]["environment"],
        "repetitions": len(records),
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed / attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "quality": quality,
        "digests": records[0]["digests"],
        **detail,
        "records": records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                              f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime(started))}.json")
    out_path.write_text(json.dumps(full, indent=2) + "\n")

    shown = dict(end_to_end)
    shown["failed_ops"] = failed / attempted
    shown["z_err_med_m"] = quality.get("z_err_med_m")
    shown["ap3d_mean"] = quality.get("ap3d_mean")
    units = dict(END_TO_END, failed_ops="ratio", z_err_med_m="m", ap3d_mean="1")
    print(f"{args.workload} seed {args.seed}: {len(records)} repetitions, "
          f"load {load_start:.2f} -> {load_end:.2f}, record {out_path.relative_to(ROOT)}")
    for name, value in {**shown, **detail["stages_untraced"]}.items():
        print(f"  {name:<34} {value!s:>22} {units.get(name) or layer_unit(name)}")
    for line in failures:
        print(f"  FAILED {line}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in detail["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
