"""Range-gated imaging: range-intensity profiles, sensor noise, frame synthesis.

A gated slice is the time integral of the product of a delayed sensor gate
and the backscattered laser pulse. For rectangular gate and pulse the
integral has a closed form: the temporal overlap

    overlap(r) = max(0, min(xi + t_g, 2r/c + t_p) - max(xi, 2r/c))

scaled by both amplitudes and by an attenuation term
beta(r) = exp(-2*gamma*r) and optionally 1/max(r, R_EPS)^2. Plotted against
range this is a symmetric trapezoid supported on
[(xi - t_p) * c/2, (xi + t_g) * c/2] with plateau value
amplitude * min(t_g, t_p).

Pixels see the profile scaled by albedo, then shot noise (scaled Poisson)
plus gaussian read noise, then optional clipping and 10-bit quantization.
A frame holds one (range, albedo) pair per object plus the background, so
render_frame draws a 1-byte object-index map (up to 255 objects), evaluates
the profile once per object and measures each slice band by band through
the map; render_frame says why the bytes match a draw over the whole slice.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .camera import CameraModel, project
from .errors import NegativeRange
from .scene import SceneDescription

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Ranges below this (meters) are clamped inside the inverse-square term.
R_EPS = 0.5


@dataclass(frozen=True)
class GateConfig:
    """One gate/pulse pair. Times in seconds, amplitudes unitless."""

    delay: float                   # gate opening delay xi after pulse emission
    gate_duration: float           # t_g
    pulse_duration: float          # t_p
    gate_amplitude: float = 1.0
    pulse_amplitude: float = 1.0
    attenuation_gamma: float = 0.0  # two-way extinction, 1/m
    inverse_square: bool = False

    def __post_init__(self) -> None:
        if self.gate_duration <= 0 or self.pulse_duration <= 0:
            raise ValueError("gate and pulse durations must be positive")
        if self.gate_amplitude <= 0 or self.pulse_amplitude <= 0:
            raise ValueError("amplitudes must be positive")
        if self.delay < 0:
            raise ValueError(f"negative gate delay {self.delay}")
        if self.attenuation_gamma < 0:
            raise ValueError(f"negative attenuation {self.attenuation_gamma}")

    @property
    def plateau_value(self) -> float:
        return self.gate_amplitude * self.pulse_amplitude * min(self.gate_duration, self.pulse_duration)

    @property
    def peak_value(self) -> float:
        """Upper bound of the profile: the plateau, over R_EPS^2 if inverse-square."""
        return self.plateau_value / (R_EPS**2 if self.inverse_square else 1.0)


def _attenuation(gate: GateConfig, r: np.ndarray) -> np.ndarray:
    att = np.exp(-2.0 * gate.attenuation_gamma * r)
    if gate.inverse_square:
        att = att / np.maximum(r, R_EPS) ** 2
    return att


def rip_value(gate: GateConfig, r):
    """Range-intensity profile C(r); accepts a scalar or an ndarray of ranges."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 0):
        raise NegativeRange("range must be >= 0")
    tau = 2.0 * r_arr / SPEED_OF_LIGHT
    overlap = np.minimum(gate.delay + gate.gate_duration, tau + gate.pulse_duration) - np.maximum(
        gate.delay, tau
    )
    overlap = np.maximum(overlap, 0.0)
    out = gate.gate_amplitude * gate.pulse_amplitude * overlap * _attenuation(gate, r_arr)
    if np.ndim(r) == 0:
        return float(out)
    return out


# Plateau height shared by the default gates, in sensor intensity units.
_PLATEAU = 600.0

_NS = 1e-9


def default_gates() -> tuple[GateConfig, GateConfig, GateConfig]:
    """Three overlapping trapezoids covering roughly 0-110 m.

    Supports land near [-5, 42], [2, 102] and [36, 112] m: a near gate, a
    broad middle gate and a far gate. At least two profiles are nonzero
    everywhere on [3, 100] m and no two plateaus coincide, so the normalized
    ratio vector is injective there (criterion 7 checks this).
    Amplitudes are chosen so every plateau sits at the same intensity.
    """
    return (
        GateConfig(delay=87 * _NS, gate_duration=194 * _NS, pulse_duration=120 * _NS,
                   pulse_amplitude=_PLATEAU / (120 * _NS)),
        GateConfig(delay=267 * _NS, gate_duration=414 * _NS, pulse_duration=254 * _NS,
                   pulse_amplitude=_PLATEAU / (254 * _NS)),
        GateConfig(delay=460 * _NS, gate_duration=287 * _NS, pulse_duration=220 * _NS,
                   pulse_amplitude=_PLATEAU / (220 * _NS)),
    )


@dataclass(frozen=True)
class NoiseConfig:
    """Poisson-gaussian sensor model.

    photon_scale converts intensity units to expected photon counts; an
    infinite photon_scale disables shot noise exactly, which the noiseless
    rendering paths use. enable_clipping clamps to [0, full_scale] and
    quantizes (round half to even).
    """

    read_noise_sigma: float = 2.0
    photon_scale: float = 20.0
    enable_clipping: bool = True
    full_scale: int = 1023

    def __post_init__(self) -> None:
        if self.read_noise_sigma < 0:
            raise ValueError(f"negative read noise {self.read_noise_sigma}")
        if not self.photon_scale > 0:
            raise ValueError(f"photon_scale must be positive, got {self.photon_scale}")
        if not 0 < self.full_scale < 65536:
            raise ValueError(f"full_scale must be in [1, 65535] (16-bit PGM), "
                             f"got {self.full_scale}")


# The largest rate numpy's Poisson sampler accepts; above it rng.poisson
# raises ValueError("lam value too large").
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


# Pixels measured per band: no full-frame float64 array is made, and a
# 1280-wide slice goes in bands of 51 rows.
BAND_PIXELS = 1 << 16


def _measure_slice(values: np.ndarray, index: np.ndarray, noise: NoiseConfig,
                   rng: np.random.Generator, out: np.ndarray) -> None:
    """One noisy reading of values[index], written into out band by band.

    values holds one signal per object, index the (H, W) object-index map.
    Shot noise is drawn first, read noise second, from the one generator.
    Poisson counts are drawn only at lit pixels, those whose object has a
    non-zero signal: numpy returns 0 for a zero rate without advancing the
    generator (pinned in tests/test_ripsim.py), and draws over consecutive
    bands consume the stream as one draw over the slice does, so counts and
    generator state are those of one draw over every pixel. A band's lit
    mask compares the narrow map with each lit object id, so only the lit
    pixels' ids are widened to gather their rates; a band with no lit pixel
    keeps no mask and draws nothing, and neither does a slice with no lit
    object. Each band's read noise is drawn in place
    as sigma * standard_normal, the numbers rng.normal(0, sigma) returns
    (also pinned), except that a product of -0.0 is 0.0 there; unclipped
    output adds 0.0 to match, and clipped output stores both as count 0.
    Addition commutes, so every element equals counts / photon_scale + read
    noise.
    """
    step = max(1, BAND_PIXELS // index.shape[1])
    bands = [(slice(r, r + step), index[r:r + step]) for r in range(0, index.shape[0], step)]
    sigma, scale = noise.read_noise_sigma, noise.photon_scale
    shot = not math.isinf(scale)
    # python ints compare with the map in its own dtype; numpy ints would widen it
    lit_ids = np.flatnonzero(values).tolist() if shot else []
    counts = [None] * len(bands)
    if lit_ids:
        rates = values * scale
        for k, (_, band) in enumerate(bands):
            lit = band == lit_ids[0]
            for i in lit_ids[1:]:
                lit |= band == i
            if lit.any():
                counts[k] = (lit, rng.poisson(np.take(rates, band[lit])))
    buf = np.empty(bands[0][1].size)
    for k, (rows, band) in enumerate(bands):
        x = buf[:band.size].reshape(band.shape)
        if sigma > 0:
            rng.standard_normal(out=x)
            x *= sigma
        else:
            x.fill(0.0)
        if counts[k] is not None:
            lit, c = counts[k]
            x[lit] += c / scale
        elif not shot:
            x += np.take(values, band)
        if noise.enable_clipping:
            np.clip(x, 0, noise.full_scale, out=x)
            np.rint(x, out=x)
        elif sigma > 0:
            x += 0.0
        out[rows] = x


@dataclass(frozen=True, eq=False)
class GatedFrame:
    """Three gated slices of one scene: shape (3, height, width).

    dtype is uint16 when the noise model clips/quantizes, float64 otherwise.
    """

    slices: np.ndarray

    def __post_init__(self) -> None:
        if self.slices.ndim != 3 or self.slices.shape[0] != 3:
            raise ValueError(f"expected (3, H, W) slices, got shape {self.slices.shape}")


def render_frame(scene: SceneDescription, gates, cam: CameraModel, noise: NoiseConfig,
                 seed: int) -> GatedFrame:
    """Render the three gated slices of a scene.

    Objects are drawn as fronto-parallel billboards (the box silhouette at
    the box z) into a z-buffer over a constant-range background. The
    z-buffer is an object-index map: 0 is the background, k the k-th drawn
    object, and a pixel changes hands only to a strictly nearer object. Each
    slice evaluates the profile once per object range and scales it by the
    object albedo; _measure_slice gathers these values through the map one
    band of rows at a time, so no full-frame depth, albedo or float64 image
    exists. Each slice is measured with its own RNG substream, so slices
    stay independent but the whole frame is reproducible from the seed.
    Poisson counts come first, only at lit pixels, and run on across bands
    in one stream, so every byte is that of a draw over all pixels at once.
    """
    gates = tuple(gates)
    if len(gates) != 3:
        raise ValueError(f"exactly 3 gates required, got {len(gates)}")
    h_img, w_img = cam.height, cam.width
    ranges = [float(scene.background_range)]
    albedos = [float(scene.background_albedo)]
    index = np.zeros((h_img, w_img), np.min_scalar_type(len(scene.objects)))
    for obj in scene.objects:
        box = obj.box
        half_w = (box.l * abs(math.cos(box.yaw)) + box.w * abs(math.sin(box.yaw))) / 2.0
        u_lo, v_lo = project(box.x - half_w, box.y - box.h, box.z, cam)  # raises for z <= 0
        u_hi, v_hi = project(box.x + half_w, box.y, box.z, cam)
        c0 = max(0, math.ceil(u_lo))
        c1 = min(w_img - 1, math.floor(u_hi))
        r0 = max(0, math.ceil(v_lo))
        r1 = min(h_img - 1, math.floor(v_hi))
        if c0 > c1 or r0 > r1:
            continue
        region = (slice(r0, r1 + 1), slice(c0, c1 + 1))
        closer = np.take(np.array(ranges), index[region]) > box.z
        index[region][closer] = len(ranges)
        ranges.append(box.z)
        albedos.append(obj.albedo)
    ranges, albedos = np.array(ranges), np.array(albedos)
    streams = np.random.SeedSequence(seed).spawn(3)
    data = np.empty((3, h_img, w_img), np.uint16 if noise.enable_clipping else np.float64)
    for i in range(3):
        _measure_slice(albedos * rip_value(gates[i], ranges), index, noise,
                       np.random.default_rng(streams[i]), data[i])
    return GatedFrame(slices=data)


# ---------------------------------------------------------------------------
# gate files

def gates_to_json(gates) -> str:
    return json.dumps([asdict(g) for g in gates], indent=2) + "\n"
