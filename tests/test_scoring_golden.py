"""Golden digests of the scoring outputs: any change to their bytes fails here.

tests/data/scoring_golden.json holds the SHA-256 of predictions.jsonl,
report.json and report.csv from the simulate -> train -> predict -> eval run
of RUN below, taken before box features, polygon clipping and AP matching
were rewritten for speed; the predictions digest was retaken when the
network moved to float32 and again when it began training on the (sin, cos)
frustum code instead of an angle, which both left the report digests as
they were.
The run has 3 to 6 objects per frame, both classes
and every range bin, and perturbed 2D boxes, so the digests cover feature
extraction, decoding, the BEV intersection and greedy matching.
"""

import hashlib
import json
from pathlib import Path

from gfk.io_cli import load_run_config, main

GOLDEN = Path(__file__).parent / "data" / "scoring_golden.json"

RUN = {
    "seed": 31,
    "out_dir": "out",
    "dataset": {"frames": {"train": 8, "val": 1, "test": 12}},
    "camera": {"f_u": 287.5, "f_v": 287.5, "c_u": 80.0, "c_v": 45.0,
               "width": 160, "height": 90},
    "scene": {"min_objects": 3, "max_objects": 6, "z_range": [5.0, 85.0]},
    "train": {"epochs": 6, "batch_size": 16, "hidden_sizes": [16]},
    "predict": {"perturb": 0.05},
}


def scoring_digests(tmp_path: Path) -> dict[str, str]:
    config = tmp_path / "run.json"
    config.write_text(json.dumps(RUN))
    for command in ("simulate", "train", "predict", "eval"):
        assert main([command, "--config", str(config)]) == 0
    cfg = load_run_config(config)
    paths = {"predictions.jsonl": cfg.predictions_path, "report.json": cfg.report_json_path,
             "report.csv": cfg.report_csv_path}
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}


def test_scoring_outputs_match_golden_digests(tmp_path):
    assert scoring_digests(tmp_path) == json.loads(GOLDEN.read_text())["digests"]
