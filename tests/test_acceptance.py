"""Release gate: every numeric contract checked end to end at its tolerance.

Each test prints one [PASS]/[FAIL] line through conftest.record_criterion, so
a bare pytest run ends with a readable verdict table. The heavyweight test
(criterion 8) synthesizes a 2,400-frame dataset and trains two regressors;
the whole module is still expected to finish well inside ten minutes.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gfk import (
    Box2D,
    Box3D,
    CAR,
    DEFAULT_CAMERA,
    PEDESTRIAN,
    ap_40,
    build_rip_table,
    decode,
    default_gates,
    depth_from_ratios,
    encode,
    frustum_segment,
    iou_bev,
    rip_value,
    wrap_to_pi,
)
from gfk.errors import GfkError
from gfk.io_cli import (
    DatasetLayout,
    cmd_eval,
    cmd_predict,
    cmd_simulate,
    cmd_train,
    load_manifest,
    load_run_config,
)
from gfk.loss import LossWeights, _loss_batch
from gfk.ripsim import GateConfig, NoiseConfig, _measure_array
from gfk.scene import oracle_box2d, read_labels

from conftest import record_criterion
from oracles import brute_force_ap40, fd_gradient, mc_iou_bev, quad_rip

NS = 1e-9


def _check(number: int, ok: bool, detail: str) -> None:
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form range-intensity profile vs numerical quadrature

def test_rip_closed_form_matches_quadrature():
    rng = np.random.default_rng(314)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = GateConfig(
            delay=rng.uniform(0, 500) * NS,
            gate_duration=rng.uniform(5, 500) * NS,
            pulse_duration=rng.uniform(5, 500) * NS,
            gate_amplitude=rng.uniform(0.1, 4.0),
            pulse_amplitude=rng.uniform(0.1, 4.0),
            attenuation_gamma=float(rng.choice([0.0, rng.uniform(0.001, 0.05)])),
            inverse_square=bool(rng.random() < 0.3),
        )
        r = rng.uniform(0.0, 200.0)
        want = quad_rip(g, r)
        got = rip_value(g, r)
        err = abs(got - want) / max(abs(want), 1e-12)
        if abs(got - want) > 1e-18:
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _check(1, ok, f"1000 profile values vs quadrature, worst rel err "
                  f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. first two moments of the sensor noise

def test_noise_moments_match_analytics():
    ps, sg = 20.0, 2.0
    noise = NoiseConfig(read_noise_sigma=sg, photon_scale=ps, enable_clipping=False)
    gate = default_gates()[1]
    points = [(0.1, 18.0), (0.3, 25.0), (0.5, 33.0), (0.7, 41.0), (0.9, 49.0),
              (1.0, 57.0), (0.2, 65.0), (0.4, 73.0), (0.6, 81.0), (0.8, 12.0)]
    rng = np.random.default_rng(271)
    n = 100_000
    t0 = time.perf_counter()
    worst_mean = worst_var = 0.0
    for albedo, r in points:
        signal = albedo * rip_value(gate, r)
        assert signal > 0.0, (albedo, r)
        x = _measure_array(np.full(n, signal), noise, rng)
        var = signal / ps + sg**2
        se_mean = math.sqrt(var / n)
        kappa4 = signal * ps / ps**4
        se_var = math.sqrt((kappa4 + 2 * var**2) / n)
        worst_mean = max(worst_mean, abs(x.mean() - signal) / se_mean)
        worst_var = max(worst_var, abs(x.var() - var) / se_var)
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 4.0 and worst_var < 4.0 and elapsed < 10.0
    _check(2, ok, f"10 points x 1e5 samples, worst mean dev {worst_mean:.2f} SE, "
                  f"worst var dev {worst_var:.2f} SE, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. frustum codec round trip

def test_codec_round_trip_and_segment_fixture():
    cam = DEFAULT_CAMERA
    rng = np.random.default_rng(161)
    k = 2.0
    worst_pos = worst_dim = worst_yaw = 0.0
    for i in range(10_000):
        stats = CAR if i % 2 == 0 else PEDESTRIAN
        mh, mw, ml = stats.dim_mean
        z = rng.uniform(6.0, 95.0)
        b = Box3D(
            cls=stats.name,
            x=rng.uniform(-0.2, 0.2) * z,
            y=rng.uniform(1.2, 1.8),
            z=z,
            h=mh * rng.uniform(0.7, 1.3),
            w=mw * rng.uniform(0.7, 1.3),
            l=ml * rng.uniform(0.7, 1.3),
            yaw=rng.uniform(-math.pi, math.pi),
        )
        p = oracle_box2d(b, cam)
        back = decode(encode(b, p, stats, k, cam), p, stats, k, cam)
        worst_pos = max(worst_pos, abs(back.x - b.x), abs(back.y - b.y),
                        abs(back.z - b.z))
        worst_dim = max(worst_dim, abs(back.h - b.h), abs(back.w - b.w),
                        abs(back.l - b.l))
        worst_yaw = max(worst_yaw, abs(wrap_to_pi(back.yaw - b.yaw)))
    seg = frustum_segment(Box2D(cls="Pedestrian", u=640.0, v=360.0, w_u=80.0,
                                h_v=230.0), PEDESTRIAN, 2.0, cam)
    fixture = (seg.z_near == 15.0 and seg.z_far == 20.0 and seg.d == 5.0)
    ok = worst_pos < 1e-6 and worst_dim < 1e-6 and worst_yaw < 1e-6 and fixture
    _check(3, ok, f"10,000 boxes, worst pos {worst_pos:.2e} m, dims "
                  f"{worst_dim:.2e} m, yaw {worst_yaw:.2e} rad; "
                  f"segment fixture 15.0/20.0/5.0 {'exact' if fixture else 'WRONG'}")


# ---------------------------------------------------------------------------
# 4. loss gradients vs finite differences

def test_loss_gradient_matches_finite_differences():
    w = LossWeights()
    rng = np.random.default_rng(447)
    worst = 0.0
    checked = 0
    while checked < 100:
        tgt = np.append(rng.uniform(-1.5, 1.5, size=6), rng.uniform(-math.pi, math.pi))
        pred = np.concatenate([rng.uniform(-2.0, 2.0, size=6), rng.uniform(-1.5, 1.5, size=2)])
        res = np.abs(pred[:6] - tgt[:6])
        # stay away from the quadratic/linear seam of the robust loss
        if np.any(np.abs(res - w.smooth_l1_delta) < 1e-3):
            continue
        checked += 1
        # a batch of one: row 0 of the (1, 8) gradient and of the total
        got = _loss_batch(pred[None], tgt[None], w)[1][0]
        want = fd_gradient(
            lambda a: _loss_batch(a[None], tgt[None], w)[0]["total"][0], pred, step=1e-6)
        scale = np.maximum(np.abs(want), 1e-8)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    ok = worst < 1e-4
    _check(4, ok, f"100 gradient points, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. rotated-rectangle IoU vs Monte-Carlo

def test_rotated_iou_matches_monte_carlo():
    rng = np.random.default_rng(533)
    worst = 0.0
    for i in range(1000):
        a = Box3D(cls="Car", x=rng.uniform(-3, 3), y=1.65, z=rng.uniform(17, 23),
                  h=1.5, w=rng.uniform(0.5, 4.0), l=rng.uniform(0.5, 4.0),
                  yaw=rng.uniform(-math.pi, math.pi))
        b = Box3D(cls="Car", x=a.x + rng.normal(0, 2.0), y=1.65,
                  z=a.z + rng.normal(0, 2.0),
                  h=1.5, w=rng.uniform(0.5, 4.0), l=rng.uniform(0.5, 4.0),
                  yaw=rng.uniform(-math.pi, math.pi))
        worst = max(worst, abs(iou_bev(a, b) - mc_iou_bev(a, b, n_side=1000, seed=i)))
    crossed_a = Box3D(cls="Car", x=0.0, y=0.0, z=10.0, h=1.0, w=1.0, l=2.0, yaw=0.0)
    crossed_b = Box3D(cls="Car", x=0.0, y=0.0, z=10.0, h=1.0, w=1.0, l=2.0,
                      yaw=math.pi / 2)
    crossed = iou_bev(crossed_a, crossed_b)
    exact = crossed == 1.0 / 3.0
    ok = worst < 2e-3 and exact
    _check(5, ok, f"1000 pairs vs 1e6-point MC, worst |delta| {worst:.2e}; "
                  f"crossed rectangles {'exactly 1/3' if exact else repr(crossed)}")


# ---------------------------------------------------------------------------
# 6. AP-40 fixtures and brute-force agreement

def _cube(x, z=20.0, score=1.0):
    return Box3D(cls="Car", x=x, y=1.65, z=z, h=1.5, w=2.0, l=2.0,
                 yaw=0.0, score=score)


def test_ap40_fixtures_and_brute_force():
    # one det on one gt; two gts with one perfect det; a fp outscoring one tp
    one = ap_40([_cube(0.0, score=0.9)], [_cube(0.0)], iou_bev, 0.5).ap
    half = ap_40([_cube(0.0, score=0.9)], [_cube(0.0), _cube(10.0)], iou_bev, 0.5).ap
    fp_first = ap_40([_cube(50.0, score=0.9), _cube(0.0, score=0.8)],
                     [_cube(0.0)], iou_bev, 0.5).ap
    fixtures_ok = (one == pytest.approx(1.0, abs=1e-12)
                   and half == pytest.approx(0.5, abs=1e-12)
                   and fp_first == pytest.approx(0.5, abs=1e-12))

    rng = np.random.default_rng(661)
    worst = 0.0
    for _ in range(25):
        n_gt = int(rng.integers(1, 11))
        n_det = int(rng.integers(1, 21))
        frames = ["f0", "f1"]
        gts, gt_frames = [], []
        for _ in range(n_gt):
            gts.append(_cube(rng.uniform(-15, 15), z=rng.uniform(10, 50)))
            gt_frames.append(frames[int(rng.integers(0, 2))])
        scores = rng.permutation(np.linspace(0.05, 0.95, n_det))
        dets, det_frames = [], []
        for j in range(n_det):
            base = gts[int(rng.integers(0, n_gt))]
            dets.append(_cube(base.x + rng.normal(0, 1.5),
                              z=base.z + rng.normal(0, 1.5),
                              score=float(scores[j])))
            det_frames.append(frames[int(rng.integers(0, 2))])
        got = ap_40(dets, gts, iou_bev, 0.2, det_frames, gt_frames).ap
        want = brute_force_ap40(dets, gts, iou_bev, 0.2, det_frames, gt_frames)
        worst = max(worst, abs(got - want))
    ok = fixtures_ok and worst < 1e-12
    _check(6, ok, f"fixtures 1.0/0.5/0.5 {'exact' if fixtures_ok else 'WRONG'}; "
                  f"25 brute-force instances, worst |delta| {worst:.1e}")


# ---------------------------------------------------------------------------
# 7. depth recovery from noiseless ratios

def test_depth_recovery_on_range_grid():
    gates = default_gates()
    table = build_rip_table(gates)
    grid = 3.0 + 0.1 * np.arange(971)
    total = hits = 0
    worst = 0.0
    for albedo in (0.1, 0.5, 1.0):
        for r in grid:
            z1, z2, z3 = (albedo * rip_value(g, float(r)) for g in gates)
            total += 1
            try:
                back = depth_from_ratios(z1, z2, z3, table)
            except GfkError:
                continue
            err = abs(back - float(r))
            worst = max(worst, err)
            if err <= 0.01 + 1e-9:
                hits += 1
    rate = hits / total
    ok = rate >= 0.99
    _check(7, ok, f"0.1 m grid x 3 albedos: {rate * 100:.2f}% within one table "
                  f"step (worst err {worst:.4f} m)")


# ---------------------------------------------------------------------------
# 8. gated intensity cues must carry depth information end to end

PLATEAU = 600.0
RUN_SEED = 20260819


def _gate_cfg(delay_ns, tg_ns, tp_ns, gamma):
    return {
        "delay": delay_ns * NS,
        "gate_duration": tg_ns * NS,
        "pulse_duration": tp_ns * NS,
        "pulse_amplitude": PLATEAU / (tp_ns * NS),
        "attenuation_gamma": gamma,
    }


def _pipeline_config(tmp: Path, name: str, *, seed: int, frames: dict,
                     ablate: bool = False, gamma: float = 0.022,
                     train: dict | None = None, dataset_dir: Path | None = None):
    cfg = {
        "seed": seed,
        "out_dir": str(tmp / name),
        "dataset": {"dir": str(dataset_dir or (tmp / "dataset")), "frames": frames},
        "camera": {"f_u": 287.5, "f_v": 287.5, "c_u": 80.0, "c_v": 45.0,
                   "width": 160, "height": 90},
        "gates": [_gate_cfg(87, 194, 120, gamma), _gate_cfg(267, 414, 254, gamma),
                  _gate_cfg(460, 287, 220, gamma)],
        "scene": {"z_range": [15.0, 85.0], "ground_y_jitter": 0.2},
        "train": {"epochs": 1500, "batch_size": 64, "hidden_sizes": [128, 128],
                  "learning_rate": 0.001, "beta": 0.1,
                  "ablate_intensity": ablate, **(train or {})},
        "predict": {"split": "test", "perturb": 0.0},
    }
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return load_run_config(path)


def _depth_errors_30_80(cfg) -> np.ndarray:
    """|predicted z - true z| for test objects whose true z is in [30, 80]."""
    from gfk.codec import read_predictions

    layout = DatasetLayout(cfg.dataset_dir)
    manifest = load_manifest(layout)
    by_frame: dict[str, dict] = {}
    for fid, box, box2d, _ in read_predictions(cfg.predictions_path):
        by_frame.setdefault(fid, {})[(box2d.u, box2d.v, box2d.w_u, box2d.h_v)] = box.z
    errs = []
    for fid in manifest.splits["test"]:
        preds = by_frame.get(fid, {})
        for o in read_labels(layout.labels_path(fid)):
            z = preds.get((o.box2d.u, o.box2d.v, o.box2d.w_u, o.box2d.h_v))
            if z is not None and 30.0 <= o.box.z <= 80.0:
                errs.append(abs(z - o.box.z))
    return np.asarray(errs)


def test_gated_cues_improve_depth_and_ap_decays_with_range(tmp_path):
    t0 = time.perf_counter()
    frames = {"train": 2000, "val": 0, "test": 400}
    full = _pipeline_config(tmp_path, "full", seed=RUN_SEED, frames=frames)
    ablated = _pipeline_config(tmp_path, "ablated", seed=RUN_SEED, frames=frames,
                               ablate=True)
    cmd_simulate(full)

    reports = {}
    for cfg in (full, ablated):
        cmd_train(cfg)
        cmd_predict(cfg)
        reports[id(cfg)] = cmd_eval(cfg)

    e_full = _depth_errors_30_80(full)
    e_abl = _depth_errors_30_80(ablated)
    med_full = float(np.median(e_full))
    med_abl = float(np.median(e_abl))
    gap_ok = med_full < 0.8 * med_abl and e_full.size > 300

    report = reports[id(full)]
    bins = ("0-30m", "30-50m", "50-80m")
    shape_ok = (set(report.classes) == {"Car", "Pedestrian"}
                and set(report.kinds) == {"2d", "bev", "3d"}
                and tuple(report.bin_labels) == bins)
    strict_ok = True
    ap_text = []
    for cls in ("Car", "Pedestrian"):
        aps = [report.ap(cls, "3d", b) for b in bins]
        strict_ok &= (None not in aps and aps[0] > aps[1] > aps[2])
        ap_text.append(cls + " " + "/".join("-" if a is None else f"{a:.2f}" for a in aps))
    elapsed = time.perf_counter() - t0
    ok = gap_ok and shape_ok and strict_ok and elapsed < 600.0
    _check(8, ok, f"median |z err| 30-80 m: full {med_full:.2f} vs ablated "
                  f"{med_abl:.2f} ({(1 - med_full / max(med_abl, 1e-9)) * 100:.0f}% lower); "
                  f"3D AP by bin {', '.join(ap_text)}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. bytewise determinism of the whole pipeline

def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_runs_are_byte_identical(tmp_path):
    frames = {"train": 10, "val": 2, "test": 4}
    train = {"epochs": 4, "hidden_sizes": [16], "batch_size": 8,
             "learning_rate": 0.003, "beta": 1.0}
    digests = []
    for name in ("a", "b"):
        cfg = _pipeline_config(tmp_path, name, seed=77, frames=frames, train=train,
                               dataset_dir=tmp_path / name / "dataset")
        cmd_simulate(cfg)
        cmd_train(cfg)
        cmd_predict(cfg)
        cmd_eval(cfg)
        digests.append({
            "predictions": _digest(cfg.predictions_path),
            "report_json": _digest(cfg.report_json_path),
            "report_csv": _digest(cfg.report_csv_path),
        })
    ok = digests[0] == digests[1]
    _check(9, ok, "two seeded runs: predictions and both report files byte-identical"
                  if ok else f"two seeded runs differ: {digests}")
