"""Per-box feature extraction and a small fully connected regressor.

The network maps a 24-entry feature vector describing one 2D box crop to the
eight frustum-code coefficients. Layout of the feature vector:

    [0:15]   per-slice crop statistics: mean, std, then three vertical-band
             means, all divided by full scale; 5 entries for each of 3 slices
    [15:18]  slice-mean ratio triple, normalized to sum to 1; all zero when
             the crop carries no signal, which doubles as the absence flag
    [18:22]  box geometry: u/width, v/height, w_u/width, h_v/height
    [22:24]  class one-hot over (Car, Pedestrian)

Forward/backward are written out by hand (tanh hidden layers, identity
output) so training is dependency-free and exactly reproducible.

Dtypes by stage: extract_features returns float64 features, and the
training targets are (n, 8) float64 frustum codes, the codec.encode output
that the network learns to predict. The network is float32: its
parameters, gradients, Adam moments and activations. train casts its
feature and code matrices to float32 once, and predict casts each feature
row at the network boundary; a row with an entry beyond float32's range is
a NonFiniteBox (io_cli.build_samples checks each label's rows first, so
gfk train names the labels file). The loss takes the float32 outputs and
codes as they are and widens the (B, 6) offset residual to float64 once:
its smooth-L1 terms, and so the per-sample totals that the epoch losses
sum, come out float64, and its gradient is stored back in float32.
model.json stores the parameters as they are: one base64 block of
MlpParams.flat in little-endian float32, so every value, -0.0 included,
round-trips bit for bit.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .camera import CameraModel
from .codec import FrustumCode, decode
from .errors import (EmptyDataset, GfkError, ModelParseError, NonFiniteBox, ShapeMismatch,
                     TrainingDiverged)
from .loss import LossWeights, _loss_batch
from .records import FieldError, get, parse_json
from .scene import Box2D, Box3D, ObjectClass, class_stats_from_json, class_stats_to_json

logger = logging.getLogger(__name__)

FEATURE_SIZE = 24
INTENSITY_FEATURES = slice(0, 15)
RATIO_FEATURES = slice(15, 18)
CLASS_ORDER = ("Car", "Pedestrian")

# Sensor intensity corresponding to feature value 1.0.
FULL_SCALE = 1023.0
# Crops whose slice-mean sum is at or below this count as signal-free.
RATIO_SUM_THRESHOLD = 5.0


def extract_features(slices: np.ndarray, p: Box2D) -> np.ndarray:
    """Feature vector for one 2D box over the (3, H, W) slices of a frame.

    Only the crop is cast to float64. A box that misses the image entirely
    yields zero crop statistics and a zero ratio triple. The crop mean and
    the three band means come from the crop's row sums, split at
    np.array_split's edges. On integer pixels, which is what simulate
    writes, every such sum is exact in float64, so the features are bit for
    bit those of tests/oracles.whole_frame_features; the std is not exact and
    stays crop.std.
    """
    if slices.ndim != 3 or slices.shape[0] != 3:
        raise ShapeMismatch(f"expected (3, H, W) slices, got {slices.shape}")
    _, img_h, img_w = slices.shape
    x = np.zeros(FEATURE_SIZE)
    x[18] = p.u / img_w
    x[19] = p.v / img_h
    x[20] = p.w_u / img_w
    x[21] = p.h_v / img_h
    if p.cls in CLASS_ORDER:
        x[22 + CLASS_ORDER.index(p.cls)] = 1.0

    # each edge is clamped to the image before rounding, as it may be +-inf
    c0 = math.floor(min(max(0.0, p.u - p.w_u / 2.0), img_w))
    c1 = math.ceil(min(max(0.0, p.u + p.w_u / 2.0), img_w))
    r0 = math.floor(min(max(0.0, p.v - p.h_v / 2.0), img_h))
    r1 = math.ceil(min(max(0.0, p.v + p.h_v / 2.0), img_h))
    if c0 >= c1 or r0 >= r1:
        return x
    crop = np.asarray(slices[:, r0:r1, c0:c1], dtype=np.float64)
    h, w = crop.shape[1:]
    rows = crop.sum(axis=2)
    means = rows.sum(axis=1) / (h * w)
    x[0:15:5] = means / FULL_SCALE
    x[1:15:5] = crop.std(axis=(1, 2)) / FULL_SCALE
    q, r = divmod(h, 3)  # np.array_split(crop, 3, axis=1): the first r bands get q + 1 rows
    edges = (0, q + min(r, 1), 2 * q + min(r, 2), h)
    for band, (a, b) in enumerate(zip(edges, edges[1:])):
        band_means = rows[:, a:b].sum(axis=1) / ((b - a) * w) if b > a else means
        x[2 + band:15:5] = band_means / FULL_SCALE
    total = float(means.sum())
    if total > RATIO_SUM_THRESHOLD:
        x[RATIO_FEATURES] = means / total
    return x


# ---------------------------------------------------------------------------
# network

@dataclass(eq=False)
class MlpParams:
    """Dense network parameters held in one float32 vector, zero on creation.

    flat stores each layer's weights, row-major, then its biases, layer after
    layer; weights[i] (shape (sizes[i+1], sizes[i])) and biases[i] are views
    into it. Gradients and the Adam moments use the same layout and dtype.
    """

    sizes: tuple[int, ...]
    flat: np.ndarray = field(init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pairs = list(zip(self.sizes[1:], self.sizes[:-1]))  # (n_out, n_in) per layer
        self.flat = np.zeros(_parameter_count(self.sizes), np.float32)
        self.weights, self.biases = [], []
        pos = 0
        for n_out, n_in in pairs:
            self.weights.append(self.flat[pos : pos + n_out * n_in].reshape(n_out, n_in))
            pos += n_out * n_in
            self.biases.append(self.flat[pos : pos + n_out])
            pos += n_out


def _parameter_count(sizes: Sequence[int]) -> int:
    """Length of MlpParams.flat for these layer sizes, in Python ints."""
    return sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))


def init_params(sizes: Sequence[int], seed: int | np.random.SeedSequence) -> MlpParams:
    """Gaussian init scaled by 1/sqrt(fan_in), zero biases; drawn in float64
    and stored rounded to float32."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    params = MlpParams(sizes)
    for w in params.weights:
        w[:] = rng.normal(0.0, 1.0 / math.sqrt(w.shape[1]), size=w.shape)
    return params


def _float32(a: np.ndarray, what: str) -> np.ndarray:
    """The rows of a in float32, the network's dtype; NonFiniteBox names the
    first row with an entry that is not finite there."""
    with np.errstate(over="ignore"):  # a finite float64 beyond float32's range is inf
        out = a.astype(np.float32)
    bad = ~np.isfinite(out)
    if bad.any():
        raise NonFiniteBox(f"{what}: row {np.argwhere(bad)[0][0]} is not finite in float32")
    return out


def _forward_batch(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a (B, n_in) batch; last entry is the output."""
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w.T + b
        acts.append(z if i == last else np.tanh(z))
    return acts


def _backward_batch(params: MlpParams, acts: list[np.ndarray], d_out: np.ndarray,
                    grads: MlpParams) -> None:
    """Write into grads the gradients summed over the batch, given d(loss)/d(output)."""
    dz = d_out
    for i in reversed(range(len(params.weights))):
        np.matmul(dz.T, acts[i], out=grads.weights[i])
        dz.sum(axis=0, out=grads.biases[i])
        if i > 0:
            # acts[i] is the tanh output of layer i-1, so tanh' = 1 - acts^2
            dz = (dz @ params.weights[i]) * (1.0 - acts[i] ** 2)


# ---------------------------------------------------------------------------
# training

# Adam moment decay rates and the denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (64, 64)
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 3e-3
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if any(s <= 0 for s in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return (FEATURE_SIZE, *self.hidden_sizes, 8)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loc: float
    dim: float
    ori: float
    total: float
    val_total: float


def train(x: np.ndarray, t: np.ndarray, cfg: TrainConfig, x_val: np.ndarray,
          t_val: np.ndarray) -> tuple[MlpParams, list[EpochStats]]:
    """Adam over minibatches of the mean per-sample loss.

    x and x_val are (n, FEATURE_SIZE) feature matrices and t and t_val the
    matching (n, 8) frustum codes (ShapeMismatch otherwise), all cast to
    float32 once (NonFiniteBox if an entry does not fit). Deterministic for
    a fixed config: parameter init and epoch shuffles run on seeds derived
    from cfg.seed. Returns the trained parameters and one EpochStats per
    epoch (val_total is NaN when the validation set is empty). Raises
    TrainingDiverged as soon as a minibatch loss is not finite, or when the
    last step leaves a parameter that is not.
    """
    for what, a, b in (("training", x, t), ("validation", x_val, t_val)):
        if a.ndim != 2 or a.shape[1] != FEATURE_SIZE or b.shape != (len(a), 8):
            raise ShapeMismatch(f"{what} set: expected (n, {FEATURE_SIZE}) features and (n, 8) "
                                f"frustum codes, got {a.shape} and {b.shape}")
    if len(x) == 0:
        raise EmptyDataset("no training samples")
    x, t = _float32(x, "training features"), _float32(t, "training targets")
    x_val, t_val = _float32(x_val, "validation features"), _float32(t_val, "validation targets")

    init_ss, shuffle_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(cfg.sizes, seed=init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    grads = MlpParams(params.sizes)
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    step = 0
    n = len(x)
    history: list[EpochStats] = []
    # A step that overflows float32 leaves an inf or NaN that the next
    # forward pass carries into the loss, which is checked at every step.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            perm = shuffle_rng.permutation(n)
            sums = {"loc": 0.0, "dim": 0.0, "ori": 0.0, "total": 0.0}
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                xb, tb = x[idx], t[idx]
                acts = _forward_batch(params, xb)
                parts, d_out = _loss_batch(acts[-1], tb, cfg.loss)
                for key in sums:
                    sums[key] += float(parts[key].sum())
                step += 1
                if not math.isfinite(sums["total"]):
                    raise TrainingDiverged(f"loss is {sums['total']} at epoch {epoch}, step {step}")
                _backward_batch(params, acts, d_out / len(idx), grads)
                g = grads.flat
                m += (1.0 - ADAM_BETA1) * (g - m)
                v += (1.0 - ADAM_BETA2) * (g * g - v)
                params.flat -= (cfg.learning_rate * (m / (1.0 - ADAM_BETA1**step))
                                / (np.sqrt(v / (1.0 - ADAM_BETA2**step)) + ADAM_EPS))
            val_total = math.nan
            if len(x_val) > 0:
                parts, _ = _loss_batch(_forward_batch(params, x_val)[-1], t_val, cfg.loss)
                val_total = float(parts["total"].mean())
            history.append(
                EpochStats(
                    epoch=epoch,
                    loc=sums["loc"] / n,
                    dim=sums["dim"] / n,
                    ori=sums["ori"] / n,
                    total=sums["total"] / n,
                    val_total=val_total,
                )
            )
    if not np.isfinite(params.flat).all():
        raise TrainingDiverged(f"parameters are not finite after epoch {cfg.epochs}, step {step}")
    return params, history


# ---------------------------------------------------------------------------
# inference

class PredictedBox(NamedTuple):
    box: Box3D
    box2d: Box2D
    code: FrustumCode


def predict(params: MlpParams, slices: np.ndarray, boxes2d: Sequence[Box2D],
            stats: dict[str, ObjectClass], k: float, cam: CameraModel,
            feature_mask: np.ndarray) -> list[PredictedBox]:
    """Decode one 3D box per 2D box; boxes that fail to decode are dropped
    with a warning, as are boxes whose features do not fit float32.
    Features are multiplied by feature_mask before the network sees them.
    The network runs on each box's row alone, because BLAS may pick another
    kernel for a larger batch, so a box's code does not depend on the other
    boxes of its frame. The 2D score is carried through unchanged."""
    known = []
    for p in boxes2d:
        if p.cls in stats:
            known.append(p)
        else:
            logger.warning("no class stats for %r, skipping box", p.cls)
    if not known:
        return []
    x = np.array([extract_features(slices, p) for p in known]) * feature_mask
    out: list[PredictedBox] = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, and by decode
        x = x.astype(np.float32)
        fits = np.isfinite(x).all(axis=1).tolist()
        for p, row, ok in zip(known, x, fits):
            try:
                if not ok:
                    raise NonFiniteBox("features are not finite in float32")
                q = FrustumCode(*_forward_batch(params, row[None])[-1][0].tolist())
                box = decode(q, p, stats[p.cls], k, cam)
            except GfkError as e:
                logger.warning("dropping box (%s): %s", type(e).__name__, e)
                continue
            out.append(PredictedBox(box, p, q))
    return out


# ---------------------------------------------------------------------------
# model and metrics files

def model_to_json(params: MlpParams, k: float, feature_mask: np.ndarray,
                  classes: dict[str, ObjectClass]) -> str:
    """The network and the meta predict decodes with: the codec k, the feature
    mask (null when nothing is ablated) and the class statistics. The
    parameters are one base64 block of params.flat as little-endian float32."""
    block = params.flat.astype("<f4", copy=False).tobytes()
    payload = {
        "sizes": list(params.sizes),
        "parameters": base64.b64encode(block).decode("ascii"),
        "meta": {
            "k": k,
            "feature_mask": None if np.all(feature_mask == 1.0) else feature_mask.tolist(),
            "classes": class_stats_to_json(classes),
        },
    }
    return json.dumps(payload) + "\n"


def parse_model(data: bytes, where: str) -> tuple[MlpParams, float, np.ndarray,
                                                 dict[str, ObjectClass]]:
    """Inverse of model_to_json, from the file's bytes: (params, k,
    feature_mask, classes); a null or absent feature mask reads as all ones.
    The parameter block must hold exactly the float32 count that sizes
    implies, checked before anything that size is allocated, and every
    value must be finite."""
    try:
        payload = parse_json(data)
        sizes = get(payload, "sizes", tuple[int, ...])
        block = get(payload, "parameters", str)
        meta = get(payload, "meta", dict)
        k = get(meta, "k", float, where="meta")
        if k <= 0:
            raise FieldError(f"must be positive, got {k}", "meta.k")
        mask = get(meta, "feature_mask", tuple[(float,) * FEATURE_SIZE], (1.0,) * FEATURE_SIZE,
                   "meta")
        classes = class_stats_from_json(get(meta, "classes", Mapping[str, dict], where="meta"),
                                        "meta.classes")
    except FieldError as e:
        raise ModelParseError(f"{where}: {e}") from None
    if len(sizes) < 2 or sizes[0] != FEATURE_SIZE or sizes[-1] != 8 or min(sizes) <= 0:
        raise ModelParseError(f"{where}: sizes must be positive and map {FEATURE_SIZE} "
                              f"features to 8 coefficients, got {sizes}")
    count = _parameter_count(sizes)
    try:
        raw = base64.b64decode(block, validate=True)
    except ValueError as e:  # binascii.Error, or a character that is not ASCII
        raise ModelParseError(f"{where}: parameters: {e}") from None
    if len(raw) != 4 * count:
        raise ModelParseError(f"{where}: parameters: sizes {list(sizes)} need {count} float32 "
                              f"values ({4 * count} bytes), found {len(raw)} bytes")
    params = MlpParams(sizes)  # allocated only once the block's length matches sizes
    params.flat[:] = np.frombuffer(raw, "<f4")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelParseError(f"{where}: layer {i}: parameters must be finite numbers "
                                  f"in float32")
    return params, k, np.array(mask), classes


def metrics_to_csv(history: Sequence[EpochStats]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "loc", "dim", "ori", "total", "val_total"])
    for h in history:
        writer.writerow([h.epoch, repr(h.loc), repr(h.dim), repr(h.ori),
                         repr(h.total), repr(h.val_total)])
    return buf.getvalue()
