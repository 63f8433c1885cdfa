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
render_frame draws an object-index map, evaluates the profile once per
object and gathers; Poisson counts are drawn only where the rate is
non-zero, which leaves the draws as they would be over every pixel.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .camera import CameraModel, CamPoint, project
from .errors import AmbiguousRange, InsufficientSignal, NegativeRange
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
    def support(self) -> tuple[float, float]:
        """Range interval (meters) outside of which the profile is zero."""
        half_c = SPEED_OF_LIGHT / 2.0
        return (
            (self.delay - self.pulse_duration) * half_c,
            (self.delay + self.gate_duration) * half_c,
        )

    @property
    def plateau_range(self) -> tuple[float, float]:
        """Range interval (meters) where the profile sits at its plateau."""
        half_c = SPEED_OF_LIGHT / 2.0
        a = self.delay + self.gate_duration - self.pulse_duration
        return (min(self.delay, a) * half_c, max(self.delay, a) * half_c)

    @property
    def plateau_value(self) -> float:
        return self.gate_amplitude * self.pulse_amplitude * min(self.gate_duration, self.pulse_duration)


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
    ratio vector is injective there (depth_from_ratios relies on this).
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


NOISELESS = NoiseConfig(read_noise_sigma=0.0, photon_scale=math.inf, enable_clipping=False)


def _measure_array(signal: np.ndarray, noise: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """One noisy reading of a signal array, in a new float64 array.

    Shot noise is drawn first, read noise second, from the one generator.
    Poisson counts are drawn only where the signal is non-zero: numpy
    returns 0 for a zero rate without advancing the generator, so the counts
    and the generator state after them are those of one draw over the whole
    array (tests/test_ripsim.py pins this). The read noise is drawn straight
    into the output and the counts are added where they are non-zero; as
    rng.normal(0, sigma) never returns -0.0 and addition commutes, every
    element equals counts / photon_scale + read noise.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if math.isinf(noise.photon_scale):
        out = signal.copy()
        if noise.read_noise_sigma > 0:
            out += rng.normal(0.0, noise.read_noise_sigma, size=out.shape)
    else:
        lit = signal != 0
        shot = rng.poisson(signal[lit] * noise.photon_scale) / noise.photon_scale
        if noise.read_noise_sigma > 0:
            out = rng.normal(0.0, noise.read_noise_sigma, size=signal.shape)
        else:
            out = np.zeros_like(signal)
        out[lit] += shot
    if noise.enable_clipping:
        np.clip(out, 0, noise.full_scale, out=out)
        np.rint(out, out=out)
    return out


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
    slice evaluates the profile once per object range, scales it by the
    object albedo and gathers the values through the map, so no full-frame
    depth or albedo image exists. Each slice is then measured with its own
    RNG substream, so slices stay independent but the whole frame is
    reproducible from the seed; Poisson counts are drawn only at pixels with
    a positive rate (see _measure_array), which leaves every byte as a draw
    over all pixels would.
    """
    gates = tuple(gates)
    if len(gates) != 3:
        raise ValueError(f"exactly 3 gates required, got {len(gates)}")
    h_img, w_img = cam.height, cam.width
    ranges = [float(scene.background_range)]
    albedos = [float(scene.background_albedo)]
    index = np.zeros((h_img, w_img), np.intp)
    for obj in scene.objects:
        box = obj.box
        half_w = (box.l * abs(math.cos(box.yaw)) + box.w * abs(math.sin(box.yaw))) / 2.0
        lo = project(CamPoint(box.x - half_w, box.y - box.h, box.z), cam)  # raises for z <= 0
        hi = project(CamPoint(box.x + half_w, box.y, box.z), cam)
        c0 = max(0, math.ceil(lo.u))
        c1 = min(w_img - 1, math.floor(hi.u))
        r0 = max(0, math.ceil(lo.v))
        r1 = min(h_img - 1, math.floor(hi.v))
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
        rng = np.random.default_rng(streams[i])
        signal = np.take(albedos * rip_value(gates[i], ranges), index)
        data[i] = _measure_array(signal, noise, rng)
    return GatedFrame(slices=data)


# A lookup needs a slice sum above TAU_SUM. It is ambiguous when a range more
# than AMBIGUITY_RADIUS (m) from the best one matches within AMBIGUITY_TOL.
TAU_SUM = 1e-3
AMBIGUITY_RADIUS = 0.5
AMBIGUITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RipTable:
    """Profile values of three gates on one range grid.

    ranges has shape (N,); values has shape (N, 3), one column per gate.
    """

    ranges: np.ndarray
    values: np.ndarray


def build_rip_table(gates) -> RipTable:
    """The profiles of three gates tabulated on [3, 100] m in 0.01 m steps,
    the region where the normalized ratio vector of the default gates is
    injective."""
    ranges = 3.0 + 0.01 * np.arange(9701)
    return RipTable(ranges, np.stack([rip_value(g, ranges) for g in gates], axis=1))


def depth_from_ratios(z1: float, z2: float, z3: float, table: RipTable) -> float:
    """Recover range from three slice intensities by normalized-ratio lookup.

    Albedo cancels in the normalization, so any uniform scaling of the
    inputs maps to the same range. Raises InsufficientSignal when the slice
    sum is at or below TAU_SUM, AmbiguousRange when a second minimum more
    than AMBIGUITY_RADIUS away matches within AMBIGUITY_TOL.
    """
    total = z1 + z2 + z3
    if total <= TAU_SUM:
        raise InsufficientSignal(f"slice sum {total} <= {TAU_SUM}")
    meas = np.array([z1, z2, z3], dtype=np.float64) / total
    sums = table.values.sum(axis=1)
    dist = np.full(len(sums), np.inf)
    valid = sums > 0
    diff = table.values[valid] / sums[valid, None] - meas
    dist[valid] = np.sqrt((diff * diff).sum(axis=1))
    if not np.any(valid):
        raise InsufficientSignal("all table entries are zero")
    best = int(np.argmin(dist))
    ranges = table.ranges
    far = np.abs(ranges - ranges[best]) > AMBIGUITY_RADIUS
    if np.any(far):
        runner_up = float(np.min(dist[far]))
        if runner_up - dist[best] < AMBIGUITY_TOL:
            raise AmbiguousRange(
                f"ranges {ranges[best]:.2f} and {ranges[far][np.argmin(dist[far])]:.2f} "
                f"both match within {AMBIGUITY_TOL}"
            )
    return float(ranges[best])


# ---------------------------------------------------------------------------
# gate files

def gates_to_json(gates) -> str:
    return json.dumps([asdict(g) for g in gates], indent=2) + "\n"
