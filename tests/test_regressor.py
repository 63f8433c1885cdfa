import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk import (
    Box2D,
    Box3D,
    CAR,
    DEFAULT_CAMERA,
    EmptyDataset,
    ModelParseError,
    Sample,
    ShapeMismatch,
    TrainConfig,
    TrainingDiverged,
    extract_features,
    init_params,
    predict,
    train,
)
from gfk.codec import encode
from gfk.loss import CodeTargets, LossWeights, _loss_batch
from gfk.regressor import (
    CLASS_FEATURES,
    FEATURE_SIZE,
    GEOMETRY_FEATURES,
    INTENSITY_FEATURES,
    RATIO_FEATURES,
    MlpParams,
    _backward_batch,
    _forward_batch,
    metrics_to_csv,
    model_to_json,
    parse_model,
)
from gfk.scene import oracle_box2d

from oracles import fd_gradient, whole_frame_features


def const_frame(v1, v2, v3, h=40, w=60):
    return np.stack([np.full((h, w), float(v)) for v in (v1, v2, v3)])


def centered_box(cls="Car", h=40, w=60):
    return Box2D(cls=cls, u=w / 2, v=h / 2, w_u=w / 2, h_v=h / 2)


def small_dataset():
    rng = np.random.default_rng(2)
    return [Sample(rng.normal(size=FEATURE_SIZE),
                   CodeTargets(*rng.normal(size=6) * 0.1, theta=rng.uniform(-3, 3)))
            for _ in range(10)]


SMALL_CFG = TrainConfig(hidden_sizes=(16,), epochs=5, batch_size=4, seed=3)


def test_feature_vector_layout_constant_crop():
    frame = const_frame(100, 300, 600)
    p = centered_box()
    x = extract_features(frame, p)
    assert x.shape == (FEATURE_SIZE,)
    # per-slice blocks: mean, std, three vertical band means
    for s, v in enumerate((100.0, 300.0, 600.0)):
        assert x[5 * s] == pytest.approx(v / 1023.0)
        assert x[5 * s + 1] == pytest.approx(0.0)
        assert x[5 * s + 2:5 * s + 5] == pytest.approx(np.full(3, v / 1023.0))
    # ratio triple sums to one and preserves proportions
    assert x[RATIO_FEATURES].sum() == pytest.approx(1.0)
    assert x[15:18] == pytest.approx(np.array([100, 300, 600]) / 1000.0)
    # geometry block normalized by image size
    assert x[GEOMETRY_FEATURES] == pytest.approx([0.5, 0.5, 0.5, 0.5])
    # one-hot class
    assert list(x[CLASS_FEATURES]) == [1.0, 0.0]
    ped = extract_features(frame, centered_box(cls="Pedestrian"))
    assert list(ped[CLASS_FEATURES]) == [0.0, 1.0]


def test_feature_vector_band_means_capture_gradient():
    frame = const_frame(0, 0, 0)
    # paint a vertical intensity ramp into slice 0 inside the crop
    frame[0, 10:30, :] = 900.0
    p = Box2D(cls="Car", u=30.0, v=20.0, w_u=20.0, h_v=20.0)  # rows 10..30
    x = extract_features(frame, p)
    top, mid, bot = x[2], x[3], x[4]
    assert top == pytest.approx(900 / 1023)
    assert mid == pytest.approx(900 / 1023)
    assert bot == pytest.approx(900 / 1023)
    # now a half-dark crop: rows 20..30 dark
    frame[0, 20:30, :] = 0.0
    x = extract_features(frame, p)
    assert x[2] > x[4]


def test_ratio_triple_absent_below_threshold():
    frame = const_frame(0.5, 0.5, 0.5)
    x = extract_features(frame, centered_box())
    assert np.all(x[RATIO_FEATURES] == 0.0)  # sum 1.5 <= 5.0 threshold
    assert x[0] > 0  # raw means still reported


def test_features_out_of_image_box():
    frame = const_frame(100, 200, 300)
    p = Box2D(cls="Car", u=-500.0, v=-500.0, w_u=10.0, h_v=10.0)
    x = extract_features(frame, p)
    assert np.all(x[INTENSITY_FEATURES] == 0.0)
    assert np.all(x[RATIO_FEATURES] == 0.0)
    assert x[18] == pytest.approx(-500.0 / 60.0)  # geometry still encodes the miss


@st.composite
def frames_and_boxes(draw):
    """A uint16 frame and a box on it, the box often overlapping an edge or
    lying wholly outside the image."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    high = draw(st.sampled_from([2, 1024, 65536]))
    frame = np.random.default_rng(seed).integers(0, high, size=(3, h, w), dtype=np.uint16)
    coord = lambda n: st.floats(-0.5 * n, 1.5 * n, allow_nan=False)
    size = lambda n: st.floats(0.01, 1.2 * n, allow_nan=False)
    box = Box2D(cls=draw(st.sampled_from(["Car", "Pedestrian", "Tree"])),
                u=draw(coord(w)), v=draw(coord(h)), w_u=draw(size(w)), h_v=draw(size(h)))
    return frame, box


@settings(max_examples=400, deadline=None)
@given(frames_and_boxes())
def test_features_crop_first_matches_whole_frame_cast_bit_for_bit(frame_and_box):
    frame, box = frame_and_box
    assert extract_features(frame, box).tobytes() == whole_frame_features(frame, box).tobytes()


def test_features_shape_validation():
    with pytest.raises(ShapeMismatch):
        extract_features(np.zeros((2, 4, 4)), centered_box())


def test_forward_golden_fixture():
    # frozen output of the seed-123 (24, 16, 8) network on a linspace input;
    # guards initialization, layer order and activation choices all at once
    params = init_params(sizes=(24, 16, 8), seed=123)
    x = np.linspace(-1.0, 1.0, 24)
    out = _forward_batch(params, x[None])[-1]
    want = np.array([
        -0.9584771298393044, 0.41252142000459335, -0.24108753652589232,
        0.6235051740702828, -0.08140478293521536, 0.16753372492190324,
        1.0714707510894304, 0.7571847666572764,
    ])
    np.testing.assert_allclose(out, want[None], rtol=0, atol=1e-12)
    assert float(params.weights[0].sum()) == pytest.approx(2.148295411676138, abs=1e-12)


def test_init_params_shapes_and_determinism():
    a = init_params(sizes=(24, 32, 8), seed=9)
    b = init_params(sizes=(24, 32, 8), seed=9)
    assert [w.shape for w in a.weights] == [(32, 24), (8, 32)]
    assert [bb.shape for bb in a.biases] == [(32,), (8,)]
    # one vector, each layer's row-major weights then its biases
    assert a.flat.shape == (32 * 24 + 32 + 8 * 32 + 8,)
    layers = [a.weights[0].ravel(), a.biases[0], a.weights[1].ravel(), a.biases[1]]
    np.testing.assert_array_equal(a.flat, np.concatenate(layers))
    assert all(np.shares_memory(arr, a.flat) for arr in a.weights + a.biases)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = init_params(sizes=(24, 32, 8), seed=10)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params(sizes=(6, 5, 8), seed=21)
    x = rng.normal(size=(1, 6))  # a batch of one
    tgt = rng.normal(size=(1, 7))
    w = LossWeights()

    def loss_of(params_flat_w0):
        params.weights[0][:] = params_flat_w0.reshape(5, 6)
        parts, _ = _loss_batch(_forward_batch(params, x)[-1], tgt, w)
        return float(parts["total"][0])

    acts = _forward_batch(params, x)
    _, dout = _loss_batch(acts[-1], tgt, w)
    grads = MlpParams(params.sizes)
    _backward_batch(params, acts, dout, grads)
    w0 = params.weights[0].copy()
    fd = fd_gradient(loss_of, w0.ravel(), step=1e-6).reshape(5, 6)
    params.weights[0][:] = w0
    np.testing.assert_allclose(grads.weights[0], fd, rtol=2e-4, atol=1e-7)


def test_train_overfits_one_sample():
    rng = np.random.default_rng(0)
    x = rng.normal(size=FEATURE_SIZE)
    t = CodeTargets(0.1, -0.2, 0.3, 0.05, -0.05, 0.1, 0.7)
    ds = [Sample(x, t)]
    cfg = TrainConfig(hidden_sizes=(32,), epochs=300, batch_size=1,
                      learning_rate=1e-2, seed=1)
    params, history = train(ds, cfg)
    assert history[-1].total < 1e-3
    assert len(history) == 300
    assert history[0].total > history[-1].total


def test_train_deterministic():
    p1, h1 = train(small_dataset(), SMALL_CFG)
    p2, h2 = train(small_dataset(), SMALL_CFG)
    np.testing.assert_array_equal(p1.flat, p2.flat)
    assert h1 == h2


def test_train_golden_fixture():
    # final parameters and per-epoch losses of a fixed run, pinned so that a
    # rewrite of the network or the optimizer cannot change trained values
    golden = json.loads((Path(__file__).parent / "data" / "train_small_golden.json").read_text())
    params, history = train(small_dataset(), SMALL_CFG)
    np.testing.assert_allclose(params.flat, golden["flat"], rtol=0, atol=1e-12)
    np.testing.assert_allclose([[h.loc, h.dim, h.ori, h.total] for h in history],
                               golden["losses"], rtol=0, atol=1e-12)


def test_train_stops_on_a_non_finite_loss():
    cfg = TrainConfig(hidden_sizes=(16,), batch_size=4, learning_rate=1e200, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDiverged, match=r"^loss is (inf|nan) at epoch 1, step 2$"):
            train(small_dataset(), cfg)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_train_validation_loss_reported():
    rng = np.random.default_rng(5)
    mk = lambda: Sample(rng.normal(size=FEATURE_SIZE),
                        CodeTargets(0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5))
    params, history = train([mk() for _ in range(8)],
                            TrainConfig(hidden_sizes=(8,), epochs=3, seed=0),
                            val_dataset=[mk() for _ in range(4)])
    assert all(math.isfinite(e.val_total) for e in history)
    no_val, history2 = train([mk() for _ in range(8)],
                             TrainConfig(hidden_sizes=(8,), epochs=3, seed=0))
    assert all(math.isnan(e.val_total) for e in history2)


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], TrainConfig())


def test_predict_decodes_boxes():
    # train briefly on one real sample, then predict on its own frame
    b = Box3D(cls="Car", x=1.0, y=1.65, z=30.0, h=1.55, w=1.85, l=4.3, yaw=0.2)
    p2d = oracle_box2d(b, DEFAULT_CAMERA)
    frame = const_frame(200, 400, 100, h=720, w=1280)
    x = extract_features(frame, p2d)
    code = encode(b, p2d, CAR, 2.0, DEFAULT_CAMERA)
    ds = [Sample(x, CodeTargets.from_code(code))]
    params, _ = train(ds, TrainConfig(hidden_sizes=(16,), epochs=200,
                                      learning_rate=1e-2, batch_size=1, seed=0))
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA)
    assert len(out) == 1
    pb = out[0]
    assert pb.box.cls == "Car"
    assert pb.box.z == pytest.approx(30.0, abs=2.0)
    assert pb.box2d == p2d


def test_predict_skips_undecodable():
    # an untrained network with a huge negative dh bias decodes to a
    # nonpositive height; predict must drop the box, not crash
    params = init_params(sizes=(FEATURE_SIZE, 4, 8), seed=0)
    params.biases[-1][:] = 0.0
    params.weights[-1][:] = 0.0
    params.biases[-1][3] = -5.0  # dh -> decoded height <= 0
    frame = const_frame(100, 100, 100, h=720, w=1280)
    p2d = Box2D(cls="Car", u=640.0, v=360.0, w_u=100.0, h_v=80.0)
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA)
    assert out == []


def test_predict_unknown_class_skipped():
    params = init_params(sizes=(FEATURE_SIZE, 64, 64, 8), seed=0)
    frame = const_frame(100, 100, 100)
    p2d = Box2D(cls="Tree", u=30.0, v=20.0, w_u=10.0, h_v=10.0)
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA)
    assert out == []


def test_model_json_roundtrip():
    params = init_params(sizes=(24, 12, 8), seed=8)
    meta = {"k": 2.0, "feature_mask": None}
    back, meta2 = parse_model(model_to_json(params, meta))
    assert meta2["k"] == 2.0
    assert [w.shape for w in back.weights] == [w.shape for w in params.weights]
    np.testing.assert_array_equal(back.flat, params.flat)


def test_model_parse_errors():
    with pytest.raises(ModelParseError):
        parse_model("not json")
    good = json.loads(model_to_json(init_params(sizes=(24, 4, 8), seed=0)))
    good["weights"][0] = good["weights"][0][:-1]  # truncate the flat weight list
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(good))
    bad_sizes = json.loads(model_to_json(init_params(sizes=(24, 4, 8), seed=0)))
    bad_sizes["sizes"] = [24]
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(bad_sizes))


def test_metrics_csv_shape():
    rng = np.random.default_rng(1)
    ds = [Sample(rng.normal(size=FEATURE_SIZE),
                 CodeTargets(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)) for _ in range(4)]
    _, history = train(ds, TrainConfig(hidden_sizes=(8,), epochs=3, seed=0))
    text = metrics_to_csv(history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,loc,dim,ori,total,val_total"
    assert len(lines) == 4
