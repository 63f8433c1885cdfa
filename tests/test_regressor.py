import base64
import json
import math
import re
import struct
import time
import tracemalloc
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
    PEDESTRIAN,
    EmptyDataset,
    ModelParseError,
    NonFiniteBox,
    ShapeMismatch,
    TrainConfig,
    TrainingDiverged,
    extract_features,
    init_params,
    predict,
    train,
)
from gfk.codec import encode
from gfk.loss import LossWeights, _loss_batch
from gfk.regressor import (
    FEATURE_SIZE,
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

from oracles import fd_gradient, mlp_forward_float64, whole_frame_features


def const_frame(v1, v2, v3, h=40, w=60):
    return np.stack([np.full((h, w), float(v)) for v in (v1, v2, v3)])


def centered_box(cls="Car", h=40, w=60):
    return Box2D(cls=cls, u=w / 2, v=h / 2, w_u=w / 2, h_v=h / 2)


NO_VAL = (np.zeros((0, FEATURE_SIZE)), np.zeros((0, 8)))
NO_MASK = np.ones(FEATURE_SIZE)


def small_dataset():
    """Ten (features, frustum code) rows; per row the features are drawn
    first, then the six offsets and the angle, carried as (sin, cos)."""
    rng = np.random.default_rng(2)
    x, t = [], []
    for _ in range(10):
        x.append(rng.normal(size=FEATURE_SIZE))
        offsets, theta = rng.normal(size=6) * 0.1, rng.uniform(-3, 3)
        t.append(np.append(offsets, [math.sin(theta), math.cos(theta)]))
    return np.array(x), np.array(t)


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
    assert x[18:22] == pytest.approx([0.5, 0.5, 0.5, 0.5])
    # one-hot class
    assert list(x[22:24]) == [1.0, 0.0]
    ped = extract_features(frame, centered_box(cls="Pedestrian"))
    assert list(ped[22:24]) == [0.0, 1.0]


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
    x = np.linspace(-1.0, 1.0, 24).astype(np.float32)
    out = _forward_batch(params, x[None])[-1]
    assert out.dtype == np.float32
    want = np.array([
        -0.9584770202636719, 0.4125213623046875, -0.24108749628067017,
        0.6235052347183228, -0.08140477538108826, 0.1675337255001068,
        1.0714707374572754, 0.7571847438812256,
    ])
    np.testing.assert_allclose(out, want[None], rtol=0, atol=1e-12)
    assert float(params.weights[0].sum()) == pytest.approx(2.1482958793640137, abs=1e-12)


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
    # the float32 backward pass against central differences of the same
    # network evaluated in float64, at the float32 weights' exact values
    rng = np.random.default_rng(4)
    params = init_params(sizes=(6, 5, 8), seed=21)
    x = rng.normal(size=(1, 6)).astype(np.float32)  # a batch of one
    offsets_and_angle = rng.normal(size=7)
    tgt = np.append(offsets_and_angle[:6], [np.sin(offsets_and_angle[6]),
                                            np.cos(offsets_and_angle[6])])[None].astype(np.float32)
    w = LossWeights()

    def loss_of(w0):
        weights = [w0.reshape(5, 6), params.weights[1]]
        parts, _ = _loss_batch(mlp_forward_float64(weights, params.biases, x),
                               tgt.astype(np.float64), w)
        return float(parts["total"][0])

    acts = _forward_batch(params, x)
    _, dout = _loss_batch(acts[-1], tgt, w)
    grads = MlpParams(params.sizes)
    _backward_batch(params, acts, dout, grads)
    assert grads.flat.dtype == np.float32
    fd = fd_gradient(loss_of, params.weights[0].ravel(), step=1e-6).reshape(5, 6)
    np.testing.assert_allclose(grads.weights[0], fd, rtol=2e-4, atol=1e-7)


def test_train_overfits_one_sample():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, FEATURE_SIZE))
    t = np.array([[0.1, -0.2, 0.3, 0.05, -0.05, 0.1, math.sin(0.7), math.cos(0.7)]])
    cfg = TrainConfig(hidden_sizes=(32,), epochs=300, batch_size=1,
                      learning_rate=1e-2, seed=1)
    params, history = train(x, t, cfg, *NO_VAL)
    assert history[-1].total < 1e-3
    assert len(history) == 300
    assert history[0].total > history[-1].total


def test_train_deterministic():
    p1, h1 = train(*small_dataset(), SMALL_CFG, *NO_VAL)
    p2, h2 = train(*small_dataset(), SMALL_CFG, *NO_VAL)
    np.testing.assert_array_equal(p1.flat, p2.flat)
    assert h1 == h2


def test_train_golden_fixture():
    # final parameters and per-epoch losses of a fixed run, pinned so that a
    # rewrite of the network or the optimizer cannot change trained values
    golden = json.loads((Path(__file__).parent / "data" / "train_small_golden.json").read_text())
    params, history = train(*small_dataset(), SMALL_CFG, *NO_VAL)
    np.testing.assert_allclose(params.flat, golden["flat"], rtol=0, atol=1e-12)
    np.testing.assert_allclose([[h.loc, h.dim, h.ori, h.total] for h in history],
                               golden["losses"], rtol=0, atol=1e-12)


def test_train_stops_on_a_non_finite_loss():
    cfg = TrainConfig(hidden_sizes=(16,), batch_size=4, learning_rate=1e200, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDiverged, match=r"^loss is (inf|nan) at epoch 1, step 2$"):
            train(*small_dataset(), cfg, *NO_VAL)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_train_stops_when_the_last_step_leaves_a_non_finite_parameter():
    # one step per epoch: its loss is finite, the update overflows float32,
    # and no later loss would catch it
    x, t = small_dataset()
    cfg = TrainConfig(hidden_sizes=(16,), epochs=1, batch_size=10, learning_rate=1e200, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged,
                           match=r"^parameters are not finite after epoch 1, step 1$"):
            train(x, t, cfg, *NO_VAL)


def test_train_validation_loss_reported():
    rng = np.random.default_rng(5)
    mk = lambda n: (rng.normal(size=(n, FEATURE_SIZE)),
                    np.tile([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, math.sin(0.5), math.cos(0.5)],
                            (n, 1)))
    cfg = TrainConfig(hidden_sizes=(8,), epochs=3, seed=0)
    params, history = train(*mk(8), cfg, *mk(4))
    assert all(math.isfinite(e.val_total) for e in history)
    no_val, history2 = train(*mk(8), cfg, *NO_VAL)
    assert all(math.isnan(e.val_total) for e in history2)


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train(*NO_VAL, TrainConfig(), *NO_VAL)


@pytest.mark.parametrize("t_shape, x_val_shape, t_val_shape, what", [
    ((5, 7), (0, FEATURE_SIZE), (0, 8), "training"),   # angle rows, not codes
    ((4, 8), (0, FEATURE_SIZE), (0, 8), "training"),   # one code short
    ((6, 8), (0, FEATURE_SIZE), (0, 8), "training"),   # one code too many
    ((5, 8), (5, FEATURE_SIZE), (1, 8), "validation"),  # one code for five rows
    ((5, 8), (3, FEATURE_SIZE - 1), (3, 8), "validation"),
])
def test_train_rejects_matrices_of_the_wrong_shape(t_shape, x_val_shape, t_val_shape, what):
    x = np.zeros((5, FEATURE_SIZE))
    shapes = (x.shape, t_shape) if what == "training" else (x_val_shape, t_val_shape)
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"{what} set: expected (n, {FEATURE_SIZE}) features and (n, 8) frustum codes, "
            f"got {shapes[0]} and {shapes[1]}")):
        train(x, np.zeros(t_shape), TrainConfig(hidden_sizes=(4,), epochs=1, seed=0),
              np.zeros(x_val_shape), np.zeros(t_val_shape))


def test_predict_decodes_boxes():
    # train briefly on one real sample, then predict on its own frame
    b = Box3D(cls="Car", x=1.0, y=1.65, z=30.0, h=1.55, w=1.85, l=4.3, yaw=0.2)
    p2d = oracle_box2d(b, DEFAULT_CAMERA)
    frame = const_frame(200, 400, 100, h=720, w=1280)
    x = extract_features(frame, p2d)[None]
    t = np.array([encode(b, p2d, CAR, 2.0, DEFAULT_CAMERA)])
    params, _ = train(x, t, TrainConfig(hidden_sizes=(16,), epochs=200,
                                        learning_rate=1e-2, batch_size=1, seed=0), *NO_VAL)
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA, NO_MASK)
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
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA, NO_MASK)
    assert out == []


def test_predict_drops_a_box_whose_features_overflow_float32(caplog):
    # u / image width is finite in float64 and beyond float32's range
    params = init_params(sizes=(FEATURE_SIZE, 4, 8), seed=0)
    frame = const_frame(100, 100, 100)
    far = Box2D(cls="Car", u=1.7e308, v=20.0, w_u=10.0, h_v=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = predict(params, frame, [far, centered_box()], {"Car": CAR}, 2.0, DEFAULT_CAMERA,
                      NO_MASK)
    assert [pb.box2d for pb in out] == [centered_box()]
    assert "dropping box (NonFiniteBox): features are not finite in float32" in caplog.text


@pytest.mark.parametrize("which", range(4))
def test_train_rejects_a_sample_beyond_float32(which):
    arrays = [*small_dataset(), *small_dataset()]
    arrays[which][3, 1] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteBox, match="row 3 is not finite in float32"):
            train(arrays[0], arrays[1], SMALL_CFG, arrays[2], arrays[3])


def test_predict_unknown_class_skipped():
    params = init_params(sizes=(FEATURE_SIZE, 64, 64, 8), seed=0)
    frame = const_frame(100, 100, 100)
    p2d = Box2D(cls="Tree", u=30.0, v=20.0, w_u=10.0, h_v=10.0)
    out = predict(params, frame, [p2d], {"Car": CAR}, 2.0, DEFAULT_CAMERA, NO_MASK)
    assert out == []


def test_model_json_roundtrip():
    params = init_params(sizes=(24, 12, 8), seed=8)
    params.biases[0][:3] = [-0.0, 1e-45, -3.4028235e38]  # signed zero, subnormal, float32 min
    classes = {"Car": CAR, "Pedestrian": PEDESTRIAN}
    ablated = np.ones(FEATURE_SIZE)
    ablated[INTENSITY_FEATURES] = 0.0
    ablated[RATIO_FEATURES] = 0.0
    for mask, stored in ((np.ones(FEATURE_SIZE), None), (ablated, ablated.tolist())):
        text = model_to_json(params, 2.5, mask, classes)
        assert json.loads(text)["meta"]["feature_mask"] == stored
        back, k, mask_back, classes_back = parse_model(text.encode(), "model.json")
        assert [w.shape for w in back.weights] == [w.shape for w in params.weights]
        assert back.flat.dtype == np.float32
        assert back.flat.tobytes() == params.flat.tobytes()
        assert k == 2.5
        np.testing.assert_array_equal(mask_back, mask)
        assert classes_back == classes


def test_model_json_parameters_are_one_little_endian_float32_block():
    params = init_params(sizes=(24, 4, 8), seed=0)
    model = json.loads(model_to_json(params, 2.0, NO_MASK, {"Car": CAR}))
    assert list(model) == ["sizes", "parameters", "meta"]
    raw = base64.b64decode(model["parameters"], validate=True)
    assert raw == b"".join(struct.pack("<f", v) for v in params.flat.tolist())
    assert raw[:4 * 96] == params.weights[0].astype("<f4").tobytes()  # layer 0, row-major


def _model(edit=None, block=None):
    """A model.json payload for sizes (24, 4, 8) whose parameter block is
    edited: edit takes the MlpParams before they are written, block the
    written bytes."""
    params = init_params(sizes=(24, 4, 8), seed=0)
    if edit is not None:
        edit(params)
    model = json.loads(model_to_json(params, 2.0, NO_MASK, {"Car": CAR}))
    if block is not None:
        model["parameters"] = base64.b64encode(
            block(base64.b64decode(model["parameters"]))).decode("ascii")
    return model


def _parse(model):
    return parse_model(json.dumps(model).encode(), "model.json")


def test_model_parse_errors():
    with pytest.raises(ModelParseError):
        parse_model(b"not json", "model.json")
    with pytest.raises(ModelParseError):
        _parse(_model(block=lambda raw: raw[:-4]))  # one float short of the sizes
    bad_sizes = _model()
    bad_sizes["sizes"] = [24]
    with pytest.raises(ModelParseError):
        _parse(bad_sizes)


@pytest.mark.parametrize("block,found", [
    (lambda raw: raw[:-4], 556), (lambda raw: raw + bytes(4), 564), (lambda raw: raw[:-1], 559),
    (lambda raw: b"", 0),
], ids=["one-short", "one-long", "one-byte-short", "empty"])
def test_parse_model_rejects_a_block_of_the_wrong_length(block, found):
    with pytest.raises(ModelParseError) as e:
        _parse(_model(block=block))
    assert str(e.value) == (f"model.json: parameters: sizes [24, 4, 8] need 140 float32 values "
                            f"(560 bytes), found {found} bytes")


@pytest.mark.parametrize("text", [
    "AAAA!AAA",       # a character outside the base64 alphabet
    "AAAA AAA",       # whitespace is outside it too
    "AAAAAA",         # missing padding
    "AAAAAA=",        # short padding
    "AAAA====",       # excess padding
    "AA=A",           # padding inside the data
    "AAAA\u00e9AAA",  # a character that is not ASCII
    "AAAA-_AA",       # the URL-safe alphabet
])
def test_parse_model_rejects_a_block_that_is_not_strict_base64(text):
    model = _model()
    model["parameters"] = json.loads(f'"{text}"')
    with pytest.raises(ModelParseError, match=r"^model\.json: parameters: "):
        _parse(model)


@pytest.mark.parametrize("value", [[], 0, None, [0.0] * 140, {"data": ""}],
                         ids=["empty-list", "int", "null", "numbers", "object"])
def test_parse_model_rejects_parameters_that_are_not_a_string(value):
    model = _model()
    model["parameters"] = value
    with pytest.raises(ModelParseError, match=r"^model\.json: parameters: "):
        _parse(model)


def test_parse_model_checks_the_block_length_before_allocating_the_network():
    model = _model()
    model["sizes"] = [24, 10**9, 8]  # 3.3e10 parameters, 132 GB of float32
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ModelParseError, match=r"need 33000000008 float32 values .* found 560 "
                                                  r"bytes$"):
            _parse(model)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert elapsed < 1.0


@pytest.mark.parametrize("value", [1e39, 1e308, -3.5e38])
def test_parse_model_rejects_a_parameter_beyond_float32(value):
    # a value beyond float32's range can only be stored as its infinity
    def edit(params):
        with np.errstate(over="ignore"):
            params.biases[1][3] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelParseError, match=r"^model\.json: layer 1: .*float32"):
            _parse(_model(edit=edit))


NON_FINITE_BITS = {"nan": 0x7FC00000, "signalling-nan": 0x7F800001, "negative-nan": 0xFFC00000,
                   "inf": 0x7F800000, "-inf": 0xFF800000}


@pytest.mark.parametrize("bits", NON_FINITE_BITS.values(), ids=NON_FINITE_BITS.keys())
@pytest.mark.parametrize("layer,offset", [(0, 0), (0, 95), (0, 96 + 3), (1, 100), (1, 139)],
                         ids=["weight0-first", "weight0-last", "bias0", "weight1", "bias1-last"])
def test_parse_model_names_the_layer_of_a_non_finite_parameter(bits, layer, offset):
    # sizes (24, 4, 8): layer 0 is flat[0:100] (96 weights, 4 biases), layer 1 flat[100:140]
    def block(raw):
        return raw[:4 * offset] + struct.pack("<I", bits) + raw[4 * offset + 4:]
    with pytest.raises(ModelParseError, match=f"^model\\.json: layer {layer}: parameters must "
                                              f"be finite numbers"):
        _parse(_model(block=block))


def test_parse_model_rejects_a_float64_era_file():
    # weights and biases as per-layer lists of numbers: no longer read
    params = init_params(sizes=(24, 4, 8), seed=0)
    model = _model()
    del model["parameters"]
    model["weights"] = [w.ravel().tolist() for w in params.weights]
    model["biases"] = [b.tolist() for b in params.biases]
    with pytest.raises(ModelParseError,
                       match=r"^model\.json: parameters: required field missing$"):
        _parse(model)


def test_model_json_stays_a_block_of_the_network_size():
    # base64 of the raw block plus at most 2 KB of sizes and meta; parsing
    # holds at most four copies of the block at once
    params = init_params(sizes=(24, 128, 128, 8), seed=0)
    block_bytes = 4 * params.flat.size
    data = model_to_json(params, 2.0, NO_MASK, {"Car": CAR, "Pedestrian": PEDESTRIAN}).encode()
    assert len(data) <= math.ceil(4 * block_bytes / 3) + 2048
    tracemalloc.start()
    try:
        back, *_ = parse_model(data, "model.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.flat.tobytes() == params.flat.tobytes()
    assert peak < 4 * block_bytes


def test_metrics_csv_shape():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, FEATURE_SIZE))
    _, history = train(x, np.zeros((4, 8)), TrainConfig(hidden_sizes=(8,), epochs=3, seed=0),
                       *NO_VAL)
    text = metrics_to_csv(history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,loc,dim,ori,total,val_total"
    assert len(lines) == 4
