import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk import (
    Box2D,
    Box3D,
    CAR,
    DEFAULT_CAMERA,
    EvalConfig,
    ap_40,
    evaluate,
    iou_2d,
    iou_3d,
    iou_bev,
    read_boxes,
)
from gfk.codec import encode, predictions_to_jsonl
from gfk.eval import bev_svg, bin_label
from gfk.scene import LabeledObject, labels_to_jsonl, oracle_box2d

from oracles import brute_force_ap40, mc_iou_bev, per_kind_evaluate


def bev_box(x=0.0, z=20.0, w=2.0, l=4.0, yaw=0.0, score=1.0, y=1.65, h=1.5, cls="Car"):
    return Box3D(cls=cls, x=x, y=y, z=z, h=h, w=w, l=l, yaw=yaw, score=score)


# ---------------------------------------------------------------------------
# IoU

def test_iou_2d_fixtures():
    a = Box2D(cls="Car", u=0.0, v=0.0, w_u=2.0, h_v=2.0)
    assert iou_2d(a, a) == pytest.approx(1.0)
    b = Box2D(cls="Car", u=2.0, v=0.0, w_u=2.0, h_v=2.0)
    assert iou_2d(a, b) == 0.0
    c = Box2D(cls="Car", u=1.0, v=1.0, w_u=2.0, h_v=2.0)
    assert iou_2d(a, c) == pytest.approx(1.0 / 7.0)


def test_iou_bev_identity_and_disjoint():
    a = bev_box()
    assert iou_bev(a, a) == pytest.approx(1.0)
    assert iou_bev(a, bev_box(x=50.0)) == 0.0


def test_iou_bev_crossed_rectangles_third():
    a = bev_box(w=1.0, l=2.0, yaw=0.0)
    b = bev_box(w=1.0, l=2.0, yaw=math.pi / 2)
    assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_3d_crossed_same_height_third():
    # identical vertical span: the 3D ratio collapses to the BEV ratio
    a = bev_box(w=1.0, l=2.0, yaw=0.0, h=1.5)
    b = bev_box(w=1.0, l=2.0, yaw=math.pi / 2, h=1.5)
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_3d_vertical_separation():
    a = bev_box(h=1.0, y=1.0)
    b = bev_box(h=1.0, y=3.0)  # bottom at 3, top at 2: no vertical overlap with [0, 1]
    assert iou_3d(a, b) == 0.0
    c = bev_box(h=2.0, y=2.0)  # spans [0, 2] vs a's [0, 1]: overlap 1
    inter = 2.0 * 4.0 * 1.0
    union = 8.0 * 1.0 + 8.0 * 2.0 - inter
    assert iou_3d(a, c) == pytest.approx(inter / union)


@settings(max_examples=300, deadline=None)
@given(st.floats(-40, 40), st.floats(1, 80), st.floats(0.3, 3), st.floats(0.3, 6),
       st.floats(-math.pi, math.pi), st.floats(0.05, 0.95))
def test_iou_of_equal_boxes_slid_along_their_heading(x, z, w, l, yaw, f):
    # the length runs along (cos yaw, -sin yaw): both length edges stay on shared lines
    c, s = math.cos(yaw), math.sin(yaw)
    a = bev_box(x=x, z=z, w=w, l=l, yaw=yaw)
    b = bev_box(x=x + f * l * c, z=z - f * l * s, w=w, l=l, yaw=yaw)
    want = (1.0 - f) / (1.0 + f)
    for iou in (iou_bev, iou_3d):
        assert iou(a, b) == pytest.approx(want, abs=1e-9)
        assert iou(b, a) == pytest.approx(want, abs=1e-9)
    # end to end, and side by side: the boxes only touch
    for dx, dz in ((l * c, -l * s), (w * s, w * c)):
        touching = bev_box(x=x + dx, z=z + dz, w=w, l=l, yaw=yaw)
        for iou in (iou_bev, iou_3d):
            assert iou(a, touching) == 0.0
            assert iou(touching, a) == 0.0


def test_iou_bev_against_monte_carlo():
    rng = np.random.default_rng(17)
    for _ in range(8):
        a = bev_box(x=rng.uniform(-2, 2), z=rng.uniform(18, 22),
                    w=rng.uniform(0.6, 3), l=rng.uniform(0.6, 4),
                    yaw=rng.uniform(-math.pi, math.pi))
        b = bev_box(x=rng.uniform(-2, 2), z=rng.uniform(18, 22),
                    w=rng.uniform(0.6, 3), l=rng.uniform(0.6, 4),
                    yaw=rng.uniform(-math.pi, math.pi))
        assert iou_bev(a, b) == pytest.approx(mc_iou_bev(a, b, n_side=700), abs=2e-3)


def test_iou_bev_rigid_transform_invariance():
    # moving both boxes by the same translation and yaw offset about the
    # origin leaves their overlap unchanged
    rng = np.random.default_rng(41)
    for _ in range(60):
        a = bev_box(x=rng.uniform(-5, 5), z=rng.uniform(15, 25),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5),
                    yaw=rng.uniform(-math.pi, math.pi))
        b = bev_box(x=a.x + rng.normal(0, 2), z=a.z + rng.normal(0, 2),
                    w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5),
                    yaw=rng.uniform(-math.pi, math.pi))
        base = iou_bev(a, b)
        dyaw = rng.uniform(-math.pi, math.pi)
        tx, tz = rng.uniform(-30, 30, size=2)
        c, s = math.cos(dyaw), math.sin(dyaw)

        def moved(box):
            x = c * box.x + s * box.z + tx
            z = -s * box.x + c * box.z + tz
            return Box3D(cls=box.cls, x=x, y=box.y, z=z, h=box.h, w=box.w,
                         l=box.l, yaw=box.yaw + dyaw, score=box.score)

        assert iou_bev(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# AP-40

def test_ap_perfect():
    gts = [bev_box(x=i * 10.0) for i in range(4)]
    dets = [bev_box(x=i * 10.0, score=1.0 - 0.1 * i) for i in range(4)]
    r = ap_40(dets, gts, iou_bev, 0.5, ["f"] * len(dets), ["f"] * len(gts))
    assert r.ap == pytest.approx(1.0)
    assert r.n_matched == 4


def test_ap_half_recall():
    # two gts, one perfect det: precision 1 up to recall 0.5, zero beyond
    gts = [bev_box(x=0.0), bev_box(x=10.0)]
    dets = [bev_box(x=0.0, score=0.9)]
    r = ap_40(dets, gts, iou_bev, 0.5, ["f"] * len(dets), ["f"] * len(gts))
    assert r.ap == pytest.approx(0.5)


def test_ap_false_positive_first():
    # the top-scored det misses; the second matches the only gt:
    # the single positive point has precision 1/2 at recall 1
    gts = [bev_box(x=0.0)]
    dets = [bev_box(x=50.0, score=0.9), bev_box(x=0.0, score=0.8)]
    r = ap_40(dets, gts, iou_bev, 0.5, ["f"] * len(dets), ["f"] * len(gts))
    assert r.ap == pytest.approx(0.5)
    assert r.n_matched == 1


def test_ap_empty_cells():
    assert ap_40([], [], iou_bev, 0.5, [], []).ap is None
    assert ap_40([], [bev_box()], iou_bev, 0.5, [], ["f"]).ap == 0.0
    assert ap_40([bev_box(score=0.5)], [], iou_bev, 0.5, ["f"], []).ap == 0.0


def test_ap_respects_frames():
    # a det may only match a gt in its own frame
    gts = [bev_box(x=0.0)]
    dets = [bev_box(x=0.0, score=0.9)]
    r = ap_40(dets, gts, iou_bev, 0.5, det_frames=["a"], gt_frames=["b"])
    assert r.ap == 0.0
    r2 = ap_40(dets, gts, iou_bev, 0.5, det_frames=["a"], gt_frames=["a"])
    assert r2.ap == pytest.approx(1.0)


def test_ap_threshold_boundary():
    # iou exactly at the threshold counts as a match
    gts = [bev_box()]
    dets = [bev_box(score=0.9)]
    r = ap_40(dets, gts, iou_bev, 1.0, ["f"], ["f"])
    assert r.ap == pytest.approx(1.0)


def test_ap_greedy_takes_best_gt():
    # one det overlapping two gts: it must consume the higher-iou one
    g_best = bev_box(x=0.0)
    g_other = bev_box(x=1.0)
    det = bev_box(x=0.2, score=0.9)
    r = ap_40([det], [g_best, g_other], iou_bev, 0.1, ["f"], ["f", "f"])
    assert r.n_matched == 1
    r2 = ap_40([det, bev_box(x=0.0, score=0.8)], [g_best, g_other], iou_bev, 0.1,
               ["f", "f"], ["f", "f"])
    assert r2.n_matched == 2  # second det falls back to the remaining gt


def test_ap_score_monotone_invariance():
    rng = np.random.default_rng(23)
    gts = [bev_box(x=rng.uniform(-10, 10), z=rng.uniform(10, 40)) for _ in range(6)]
    dets = [bev_box(x=g.x + rng.normal(0, 1.0), z=g.z + rng.normal(0, 1.0),
                    score=s) for g, s in zip(gts, rng.uniform(0.1, 0.9, size=6))]
    frames = ["f"] * 6
    a = ap_40(dets, gts, iou_bev, 0.1, frames, frames).ap
    remapped = [Box3D(cls=d.cls, x=d.x, y=d.y, z=d.z, h=d.h, w=d.w, l=d.l,
                      yaw=d.yaw, score=d.score ** 3) for d in dets]
    b = ap_40(remapped, gts, iou_bev, 0.1, frames, frames).ap
    assert a == pytest.approx(b, abs=1e-12)


def test_ap_matches_brute_force_enumeration():
    # randomized scenes with distinct scores: the cumulative-curve AP and the
    # threshold-enumeration AP must agree to float precision
    rng = np.random.default_rng(99)
    for trial in range(12):
        n_gt = int(rng.integers(1, 7))
        n_det = int(rng.integers(1, 9))
        frames = ["f0", "f1"]
        gts = [bev_box(x=rng.uniform(-12, 12), z=rng.uniform(10, 50),
                       yaw=rng.uniform(-math.pi, math.pi)) for _ in range(n_gt)]
        gt_frames = [frames[int(rng.integers(0, 2))] for _ in range(n_gt)]
        scores = rng.permutation(np.linspace(0.1, 0.9, n_det))
        dets, det_frames = [], []
        for i in range(n_det):
            base = gts[int(rng.integers(0, n_gt))]
            dets.append(bev_box(x=base.x + rng.normal(0, 2.0), z=base.z + rng.normal(0, 2.0),
                                yaw=base.yaw + rng.normal(0, 0.3), score=float(scores[i])))
            det_frames.append(frames[int(rng.integers(0, 2))])
        got = ap_40(dets, gts, iou_bev, 0.2, det_frames, gt_frames).ap
        want = brute_force_ap40(dets, gts, iou_bev, 0.2, det_frames, gt_frames)
        assert got == pytest.approx(want, abs=1e-12), trial


def test_ap_extra_zero_iou_tail_det_never_helps():
    # a detection that overlaps nothing and ranks last can only dilute the
    # tail of the precision curve
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_gt = int(rng.integers(1, 6))
        n_det = int(rng.integers(1, 8))
        gts = [bev_box(x=rng.uniform(-12, 12), z=rng.uniform(10, 50))
               for _ in range(n_gt)]
        scores = rng.permutation(np.linspace(0.2, 0.9, n_det))
        dets = []
        for i in range(n_det):
            base = gts[int(rng.integers(0, n_gt))]
            dets.append(bev_box(x=base.x + rng.normal(0, 2.0),
                                z=base.z + rng.normal(0, 2.0),
                                score=float(scores[i])))
        gt_frames = ["f"] * n_gt
        before = ap_40(dets, gts, iou_bev, 0.2, ["f"] * n_det, gt_frames).ap
        stray = bev_box(x=500.0, z=500.0, score=0.01)
        after = ap_40(dets + [stray], gts, iou_bev, 0.2, ["f"] * (n_det + 1), gt_frames).ap
        assert after <= before + 1e-12, trial


# ---------------------------------------------------------------------------
# report plumbing

def test_bin_label_format():
    assert bin_label(0.0, 30.0) == "0-30m"
    assert bin_label(50.0, 80.0) == "50-80m"


def _write_eval_fixture(tmp_path, det_z_shift=0.0):
    cam = DEFAULT_CAMERA
    frames = {}
    rows = []
    for i, z in enumerate((20.0, 40.0, 60.0)):
        fid = f"frame_{i:06d}"
        b = bev_box(z=z)
        p2d = oracle_box2d(b, cam)
        labels = tmp_path / f"{fid}.jsonl"
        labels.write_text(labels_to_jsonl([LabeledObject(b, p2d, 0.5)]))
        frames[fid] = labels
        det = Box3D(cls="Car", x=b.x, y=b.y, z=b.z + det_z_shift, h=b.h, w=b.w,
                    l=b.l, yaw=b.yaw, score=0.9)
        code = encode(det, p2d, CAR, 2.0, cam)
        rows.append((fid, det, p2d, code))
    pred_path = tmp_path / "predictions.jsonl"
    pred_path.write_text(predictions_to_jsonl(rows))
    return pred_path, frames


def test_evaluate_perfect_predictions(tmp_path):
    pred_path, frames = _write_eval_fixture(tmp_path)
    cfg = EvalConfig(iou_thresholds={"Car": 0.5},
                     bins=((0.0, 30.0), (30.0, 50.0), (50.0, 80.0)))
    report = evaluate(*read_boxes(pred_path, frames), cfg)
    for kind in ("2d", "bev", "3d"):
        for lbl in ("0-30m", "30-50m", "50-80m"):
            assert report.ap("Car", kind, lbl) == pytest.approx(1.0), (kind, lbl)


def test_evaluate_bins_dets_by_predicted_depth(tmp_path):
    # a det whose predicted depth lands in another bin deserts its gt's cell:
    # the gt's bin counts a miss, the det's bin counts a false positive
    cam = DEFAULT_CAMERA
    b = bev_box(z=20.0)
    p2d = oracle_box2d(b, cam)
    labels = tmp_path / "f.jsonl"
    labels.write_text(labels_to_jsonl([LabeledObject(b, p2d, 0.5)]))
    det = Box3D(cls="Car", x=b.x, y=b.y, z=45.0, h=b.h, w=b.w, l=b.l, yaw=b.yaw, score=0.9)
    pred_path = tmp_path / "predictions.jsonl"
    pred_path.write_text(predictions_to_jsonl([("f0", det, p2d, encode(det, p2d, CAR, 2.0, cam))]))
    cfg = EvalConfig(iou_thresholds={"Car": 0.5},
                     bins=((0.0, 30.0), (30.0, 50.0), (50.0, 80.0)))
    report = evaluate(*read_boxes(pred_path, {"f0": labels}), cfg)
    d = report.to_json_dict()["classes"]["Car"]["2d"]
    assert d["0-30m"] == {"ap": 0.0, "n_gt": 1, "n_det": 0, "n_matched": 0}
    assert d["30-50m"] == {"ap": 0.0, "n_gt": 0, "n_det": 1, "n_matched": 0}


def test_evaluate_kinds_decouple(tmp_path):
    # same frame, same bin, identical 2D box but a 3D position 30 m off in x:
    # the 2D cell matches while BEV and 3D fail
    cam = DEFAULT_CAMERA
    b = bev_box(z=20.0)
    p2d = oracle_box2d(b, cam)
    labels = tmp_path / "f.jsonl"
    labels.write_text(labels_to_jsonl([LabeledObject(b, p2d, 0.5)]))
    det = Box3D(cls="Car", x=b.x + 30.0, y=b.y, z=25.0, h=b.h, w=b.w, l=b.l,
                yaw=b.yaw, score=0.9)
    pred_path = tmp_path / "predictions.jsonl"
    pred_path.write_text(predictions_to_jsonl([("f0", det, p2d, encode(det, p2d, CAR, 2.0, cam))]))
    cfg = EvalConfig(iou_thresholds={"Car": 0.5}, bins=((0.0, 30.0),))
    report = evaluate(*read_boxes(pred_path, {"f0": labels}), cfg)
    assert report.ap("Car", "2d", "0-30m") == pytest.approx(1.0)
    assert report.ap("Car", "bev", "0-30m") == pytest.approx(0.0)
    assert report.ap("Car", "3d", "0-30m") == pytest.approx(0.0)


def test_report_serialization(tmp_path):
    pred_path, frames = _write_eval_fixture(tmp_path)
    report = evaluate(*read_boxes(pred_path, frames), EvalConfig(iou_thresholds={"Car": 0.5}))
    d = report.to_json_dict()
    assert d["classes"]["Car"]["bev"]["0-30m"]["ap"] == pytest.approx(1.0)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("class,kind,bin,ap")
    assert len(lines) == 1 + 1 * 3 * 3  # one class, three kinds, three bins


def random_rows(seed: int):
    """Detections and ground truth over four frames, frame f3 holding
    detections only: both classes plus one without a threshold, depths on
    the bin edges, duplicated ground truth, tied scores and IoUs, and
    detections that copy, nudge or miss a ground-truth box (a nudged box's
    2D score differs from its 3D score)."""
    rng = np.random.default_rng(seed)
    edges = (0.0, 30.0, 50.0, 80.0)

    def depth():
        return float(edges[rng.integers(0, 4)]) if rng.random() < 0.3 else float(rng.uniform(2, 85))

    def box2d(cls, score):
        return Box2D(cls=cls, u=float(rng.uniform(0, 160)), v=float(rng.uniform(0, 90)),
                     w_u=float(rng.uniform(2, 40)), h_v=float(rng.uniform(2, 40)), score=score)

    gts = []
    for fid in ("f0", "f1", "f2"):
        for _ in range(int(rng.integers(0, 7))):
            cls = str(rng.choice(["Car", "Car", "Pedestrian", "Tree"]))
            b = bev_box(x=float(rng.uniform(-6, 6)), z=depth(), yaw=float(rng.uniform(-3, 3)),
                        w=float(rng.uniform(0.5, 2.5)), l=float(rng.uniform(0.5, 5)),
                        y=float(rng.uniform(1.0, 2.0)), h=float(rng.uniform(1.0, 2.0)), cls=cls)
            gts.append((fid, b, box2d(cls, 1.0)))
            if rng.random() < 0.15:
                gts.append(gts[-1])
    dets = []
    for fid, g, g2 in gts:
        if rng.random() < 0.2:
            continue
        score = float(rng.choice([0.5, 0.9])) if rng.random() < 0.4 else float(rng.uniform(0, 1))
        if rng.random() < 0.2:
            b, b2 = Box3D(**{**vars(g), "score": score}), Box2D(**{**vars(g2), "score": score})
        else:
            b = Box3D(**{**vars(g), "score": score, "x": g.x + float(rng.normal(0, 0.8)),
                         "z": g.z + float(rng.normal(0, 0.8)), "y": g.y + float(rng.normal(0, 0.5)),
                         "yaw": g.yaw + float(rng.normal(0, 0.3))})
            b2 = Box2D(**{**vars(g2), "score": float(rng.uniform(0, 1)),
                          "u": g2.u + float(rng.normal(0, 4))})
        dets.append((fid, b, b2))
    for _ in range(int(rng.integers(1, 5))):
        fid = str(rng.choice(["f0", "f1", "f2", "f3"]))
        cls = str(rng.choice(["Car", "Pedestrian"]))
        score = float(rng.choice([0.5, 0.9]))
        dets.append((fid, bev_box(x=float(rng.uniform(-6, 6)), z=depth(), score=score, cls=cls),
                     box2d(cls, score)))
    if rng.random() < 0.5:
        # a detection with the same IoU to two ground-truth boxes, the first of
        # which it must take, and a weaker one that can only match the second
        fid, z = str(rng.choice(["f0", "f1"])), depth()
        for x in (-1.0, 1.0):
            gts.append((fid, bev_box(x=x, z=z), Box2D(cls="Car", u=50 + x, v=40, w_u=4, h_v=4)))
        for x, score in ((0.0, 0.95), (3.0, 0.05)):
            dets.append((fid, bev_box(x=x, z=z, score=score),
                         Box2D(cls="Car", u=50 + x, v=40, w_u=4, h_v=4, score=score)))
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_matches_per_kind_oracle_exactly(seed):
    dets, gts = random_rows(seed)
    cfg = EvalConfig(iou_thresholds={"Car": 0.2, "Pedestrian": 0.1})
    got, want = evaluate(dets, gts, cfg), per_kind_evaluate(dets, gts, cfg)
    assert got.to_csv() == want.to_csv()
    assert got.to_json_dict() == want.to_json_dict()


def test_bev_svg_contains_boxes():
    gts = [bev_box(z=30.0)]
    dets = [bev_box(x=2.0, z=32.0, score=0.7)]
    svg = bev_svg(gts, dets)
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "polygon" in svg
    assert svg.count("polygon") >= 2
