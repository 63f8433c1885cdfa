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
    signal = np.asarray(signal, dtype=np.float64)
    if math.isinf(noise.photon_scale):
        out = signal.copy()
    else:
        out = rng.poisson(signal * noise.photon_scale).astype(np.float64) / noise.photon_scale
    if noise.read_noise_sigma > 0:
        out = out + rng.normal(0.0, noise.read_noise_sigma, size=out.shape)
    if noise.enable_clipping:
        out = np.rint(np.clip(out, 0, noise.full_scale))
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
    the box z) into a z-buffer over a constant-range background, then each
    slice is measured with its own RNG substream so slices stay independent
    but the whole frame is reproducible from the seed.
    """
    gates = tuple(gates)
    if len(gates) != 3:
        raise ValueError(f"exactly 3 gates required, got {len(gates)}")
    h_img, w_img = cam.height, cam.width
    depth = np.full((h_img, w_img), float(scene.background_range))
    albedo = np.full((h_img, w_img), float(scene.background_albedo))
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
        closer = depth[region] > box.z
        depth[region][closer] = box.z
        albedo[region][closer] = obj.albedo
    streams = np.random.SeedSequence(seed).spawn(3)
    data = np.empty((3, h_img, w_img), np.uint16 if noise.enable_clipping else np.float64)
    for i in range(3):
        rng = np.random.default_rng(streams[i])
        data[i] = _measure_array(albedo * rip_value(gates[i], depth), noise, rng)
    return GatedFrame(slices=data)


@dataclass(frozen=True, eq=False)
class RipTable:
    """Profile values tabulated on a uniform range grid."""

    gate: GateConfig
    r_min: float
    r_max: float
    step: float
    values: np.ndarray

    @classmethod
    def build(cls, gate: GateConfig, r_min: float, r_max: float, step: float) -> "RipTable":
        if r_min < 0:
            raise NegativeRange(f"r_min {r_min} must be >= 0")
        if step <= 0 or r_max <= r_min:
            raise ValueError(f"bad table grid [{r_min}, {r_max}] step {step}")
        n = int(math.floor((r_max - r_min) / step + 1e-9)) + 1
        ranges = r_min + step * np.arange(n)
        return cls(gate=gate, r_min=r_min, r_max=r_max, step=step,
                   values=rip_value(gate, ranges))

    @property
    def ranges(self) -> np.ndarray:
        return self.r_min + self.step * np.arange(len(self.values))


def build_rip_tables(gates=None, r_min: float = 3.0, r_max: float = 100.0,
                     step: float = 0.01) -> tuple[RipTable, ...]:
    """Tables for all gates on a shared grid; defaults to the injective region."""
    if gates is None:
        gates = default_gates()
    return tuple(RipTable.build(g, r_min, r_max, step) for g in gates)


def depth_from_ratios(z1: float, z2: float, z3: float, tables,
                      tau_sum: float = 1e-3,
                      ambiguity_radius: float = 0.5,
                      ambiguity_tol: float = 1e-9) -> float:
    """Recover range from three slice intensities by normalized-ratio lookup.

    Albedo cancels in the normalization, so any uniform scaling of the
    inputs maps to the same range. Raises InsufficientSignal when the slice
    sum is at or below tau_sum, AmbiguousRange when a second minimum more
    than ambiguity_radius away matches within ambiguity_tol.
    """
    tables = tuple(tables)
    if len(tables) != 3:
        raise ValueError(f"exactly 3 tables required, got {len(tables)}")
    t0 = tables[0]
    for t in tables[1:]:
        if (t.r_min, t.r_max, t.step, len(t.values)) != (t0.r_min, t0.r_max, t0.step, len(t0.values)):
            raise ValueError("tables must share one range grid")
    total = z1 + z2 + z3
    if total <= tau_sum:
        raise InsufficientSignal(f"slice sum {total} <= {tau_sum}")
    meas = np.array([z1, z2, z3], dtype=np.float64) / total
    table_vals = np.stack([t.values for t in tables], axis=1)  # (N, 3)
    sums = table_vals.sum(axis=1)
    dist = np.full(len(sums), np.inf)
    valid = sums > 0
    diff = table_vals[valid] / sums[valid, None] - meas
    dist[valid] = np.sqrt((diff * diff).sum(axis=1))
    if not np.any(valid):
        raise InsufficientSignal("all table entries are zero")
    best = int(np.argmin(dist))
    ranges = t0.ranges
    far = np.abs(ranges - ranges[best]) > ambiguity_radius
    if np.any(far):
        runner_up = float(np.min(dist[far]))
        if runner_up - dist[best] < ambiguity_tol:
            raise AmbiguousRange(
                f"ranges {ranges[best]:.2f} and {ranges[far][np.argmin(dist[far])]:.2f} "
                f"both match within {ambiguity_tol}"
            )
    return float(ranges[best])


# ---------------------------------------------------------------------------
# gate files

def gates_to_json(gates) -> str:
    return json.dumps([asdict(g) for g in gates], indent=2) + "\n"
