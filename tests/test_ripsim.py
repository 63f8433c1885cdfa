import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfk import (
    AmbiguousRange,
    CameraModel,
    GateConfig,
    InsufficientSignal,
    NOISELESS,
    NegativeRange,
    NonPositiveDepth,
    NoiseConfig,
    SPEED_OF_LIGHT,
    build_rip_table,
    default_gates,
    depth_from_ratios,
    render_frame,
    rip_value,
)
from gfk.ripsim import _measure_array
from gfk.scene import Box3D, SceneDescription, SceneObject

from oracles import full_frame_render, quad_rip

NS = 1e-9


def gate(delay_ns, gate_ns, pulse_ns, **kw):
    return GateConfig(delay=delay_ns * NS, gate_duration=gate_ns * NS,
                      pulse_duration=pulse_ns * NS, **kw)


# ---------------------------------------------------------------------------
# profile shape

def test_support_and_plateau_formulas():
    g = gate(100, 200, 120)
    lo, hi = g.support
    assert lo == pytest.approx((100 - 120) * NS * SPEED_OF_LIGHT / 2)
    assert hi == pytest.approx((100 + 200) * NS * SPEED_OF_LIGHT / 2)
    plo, phi = g.plateau_range
    # plateau where the shorter window fits entirely inside the longer one
    assert phi - plo == pytest.approx((200 - 120) * NS * SPEED_OF_LIGHT / 2)
    assert g.plateau_value == pytest.approx(120 * NS)


def test_profile_is_trapezoid():
    g = gate(100, 200, 120, gate_amplitude=2.0, pulse_amplitude=3.0)
    lo, hi = g.support
    plo, phi = g.plateau_range
    peak = 6.0 * 120 * NS
    r = np.linspace(max(lo, 0) + 1e-6, hi - 1e-6, 4001)
    v = rip_value(g, r)
    assert np.all(v >= 0)
    assert np.max(v) == pytest.approx(peak, rel=1e-9)
    # flat on the plateau
    mid = rip_value(g, np.linspace(plo + 1e-6, phi - 1e-6, 101))
    assert np.ptp(mid) < peak * 1e-9
    # linear on the rising edge: check midpoint value
    assert rip_value(g, (max(lo, 0.0) + plo) / 2) == pytest.approx(
        rip_value(g, max(lo, 0.0)) / 2 + rip_value(g, plo) / 2, rel=1e-9)
    # zero outside
    assert rip_value(g, hi + 0.5) == 0.0


def test_rip_rejects_negative_range():
    g = gate(100, 200, 120)
    with pytest.raises(NegativeRange):
        rip_value(g, -0.1)
    with pytest.raises(NegativeRange):
        rip_value(g, np.array([1.0, -2.0]))


def test_rip_scalar_and_vector_agree():
    g = gate(87, 194, 120)
    rs = np.linspace(0.0, 50.0, 97)
    vec = rip_value(g, rs)
    assert isinstance(rip_value(g, 10.0), float)
    for r, v in zip(rs, vec):
        assert rip_value(g, float(r)) == v


def test_gate_validation():
    with pytest.raises(ValueError):
        gate(-1, 200, 120)
    with pytest.raises(ValueError):
        gate(100, 0, 120)
    with pytest.raises(ValueError):
        gate(100, 200, 120, attenuation_gamma=-0.1)


def test_rip_against_quadrature_oracle():
    # random gate shapes, amplitudes, attenuation and falloff vs. numerical
    # integration of the indicator product
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = GateConfig(
            delay=rng.uniform(0, 500) * NS,
            gate_duration=rng.uniform(5, 500) * NS,
            pulse_duration=rng.uniform(5, 500) * NS,
            gate_amplitude=rng.uniform(0.1, 4.0),
            pulse_amplitude=rng.uniform(0.1, 4.0),
            attenuation_gamma=rng.choice([0.0, rng.uniform(0.001, 0.05)]),
            inverse_square=bool(rng.random() < 0.3),
        )
        lo, hi = g.support
        r = rng.uniform(0.0, max(hi * 1.2, 1.0))
        want = quad_rip(g, r)
        got = rip_value(g, r)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-18), (g, r)


def test_attenuation_factors():
    g_plain = gate(100, 200, 120)
    g_att = gate(100, 200, 120, attenuation_gamma=0.01)
    g_sq = gate(100, 200, 120, inverse_square=True)
    r = 20.0
    base = rip_value(g_plain, r)
    assert rip_value(g_att, r) == pytest.approx(base * math.exp(-2 * 0.01 * r))
    assert rip_value(g_sq, r) == pytest.approx(base / r**2)
    # near-field clamp: the inverse-square divisor bottoms out at 0.5 m
    g_near = GateConfig(delay=0.0, gate_duration=500 * NS, pulse_duration=100 * NS,
                        inverse_square=True)
    plain_near = GateConfig(delay=0.0, gate_duration=500 * NS, pulse_duration=100 * NS)
    assert rip_value(g_near, 0.1) == pytest.approx(rip_value(plain_near, 0.1) / 0.25)
    assert rip_value(g_near, 0.2) == pytest.approx(rip_value(plain_near, 0.2) / 0.25)


def test_default_gates_cover_working_range():
    g1, g2, g3 = default_gates()
    for g in (g1, g2, g3):
        assert g.plateau_value == pytest.approx(600.0)
    assert g1.support[0] < 3.0
    assert g3.support[1] > 100.0
    # every range in [3, 100] sees at least two gates
    r = np.arange(3.0, 100.0 + 1e-9, 0.01)
    active = sum((rip_value(g, r) > 0).astype(int) for g in default_gates())
    assert active.min() >= 2


# ---------------------------------------------------------------------------
# noise

def test_noiseless_measurement_is_exact():
    g = gate(87, 194, 120, pulse_amplitude=600 / (120 * NS))
    rng = np.random.default_rng(0)
    signal = 0.7 * rip_value(g, np.linspace(0.0, 60.0, 121))
    for _ in range(5):
        assert _measure_array(signal, NOISELESS, rng).tobytes() == signal.tobytes()


def test_noise_moments_match_analytic():
    # mean stays at the signal; variance adds shot and read terms
    sig, ps, sg = 400.0, 20.0, 2.0
    noise = NoiseConfig(read_noise_sigma=sg, photon_scale=ps, enable_clipping=False)
    rng = np.random.default_rng(7)
    n = 200_000
    x = _measure_array(np.full(n, sig), noise, rng)
    var = sig / ps + sg**2
    se_mean = math.sqrt(var / n)
    # kurtosis of the Poisson part enters the variance of the sample variance
    kappa4 = sig * ps / ps**4
    se_var = math.sqrt((kappa4 + 2 * var**2) / n)
    assert abs(x.mean() - sig) < 4 * se_mean
    assert abs(x.var() - var) < 4 * se_var


def test_poisson_zero_rate_draws_zero_and_consumes_no_bits():
    # _measure_array draws Poisson only at non-zero rates; that keeps the
    # rendered bytes only while numpy returns 0 for a zero rate without
    # advancing the generator, which this pins
    rates = np.zeros(4000)
    rates[::7] = np.linspace(0.01, 3000.0, len(rates[::7]))  # both of numpy's samplers
    rates[5::11] = 15.0
    mixed, lit = np.random.default_rng(42), np.random.default_rng(42)
    full = mixed.poisson(rates)
    assert np.all(full[rates == 0] == 0)
    np.testing.assert_array_equal(full[rates > 0], lit.poisson(rates[rates > 0]))
    assert mixed.bit_generator.state == lit.bit_generator.state


def test_clipping_clamps_and_rounds():
    noise = NoiseConfig(read_noise_sigma=400.0, photon_scale=1.0, enable_clipping=True,
                        full_scale=1023)
    rng = np.random.default_rng(3)
    x = _measure_array(np.full(20_000, 500.0), noise, rng)
    assert x.min() >= 0.0
    assert x.max() <= 1023.0
    assert np.all(x == np.rint(x))
    assert (x == 1023.0).any() and (x == 0.0).any()


# ---------------------------------------------------------------------------
# rendering

def wall_scene(albedo=0.5, rng_range=50.0):
    return SceneDescription(objects=(), background_albedo=albedo, background_range=rng_range)


def small_camera():
    return CameraModel(f_u=50.0, f_v=50.0, c_u=16.0, c_v=12.0, width=32, height=24)


def test_render_constant_wall():
    cam = small_camera()
    gates = default_gates()
    frame = render_frame(wall_scene(0.5, 50.0), gates, cam, NOISELESS, seed=0)
    assert frame.slices.shape == (3, 24, 32)
    for i, g in enumerate(gates):
        want = rip_value(g, 50.0) * 0.5
        assert np.allclose(frame.slices[i], want)


def test_render_object_occludes_wall():
    cam = small_camera()
    gates = default_gates()
    box = Box3D(cls="Car", x=0.0, y=1.0, z=50.0, h=2.0, w=2.0, l=4.0, yaw=0.0)
    scn = SceneDescription(objects=(SceneObject(box, 0.9),),
                           background_albedo=0.2, background_range=60.0)
    frame = render_frame(scn, gates, cam, NOISELESS, seed=0)
    # center pixel sees the object at 50 m with albedo 0.9
    v, u = cam.height // 2, cam.width // 2
    for i, g in enumerate(gates):
        assert frame.slices[i][v, u] == pytest.approx(rip_value(g, 50.0) * 0.9)
    # corner pixel still sees the wall
    for i, g in enumerate(gates):
        assert frame.slices[i][0, 0] == pytest.approx(rip_value(g, 60.0) * 0.2)


@pytest.mark.parametrize("x,yaw", [(0.0, 0.0), (1.3, 0.7), (-2.9, -2.2), (6.0, 1.0)])
def test_render_billboard_is_the_projected_silhouette(x, yaw):
    # the object covers exactly the pixels whose centres lie inside the
    # pinhole image of its width-by-height silhouette at the box z (clipped)
    cam = small_camera()
    box = Box3D(cls="Car", x=x, y=1.2, z=30.0, h=1.5, w=1.8, l=4.2, yaw=yaw)
    scn = SceneDescription(objects=(SceneObject(box, 0.9),),
                           background_albedo=0.2, background_range=60.0)
    frame = render_frame(scn, default_gates(), cam, NOISELESS, seed=0)
    half_w = (box.l * abs(math.cos(yaw)) + box.w * abs(math.sin(yaw))) / 2.0
    u_lo, u_hi = (cam.f_u * (x + s * half_w) / box.z + cam.c_u for s in (-1, 1))
    v_lo, v_hi = (cam.f_v * y / box.z + cam.c_v for y in (box.y - box.h, box.y))
    uu, vv = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    want = (uu >= u_lo) & (uu <= u_hi) & (vv >= v_lo) & (vv <= v_hi)
    assert want.any()
    assert np.array_equal(frame.slices[1] != frame.slices[1][0, 0], want)


def test_render_rejects_an_object_at_non_positive_depth():
    box = Box3D(cls="Car", x=0.0, y=1.0, z=-5.0, h=2.0, w=2.0, l=4.0, yaw=0.0)
    scn = SceneDescription(objects=(SceneObject(box, 0.5),),
                           background_albedo=0.2, background_range=60.0)
    with pytest.raises(NonPositiveDepth):
        render_frame(scn, default_gates(), small_camera(), NOISELESS, seed=0)


def test_render_nearer_object_wins():
    cam = small_camera()
    gates = default_gates()
    near = Box3D(cls="Car", x=0.0, y=1.0, z=20.0, h=2.0, w=2.0, l=4.0, yaw=0.0)
    far = Box3D(cls="Car", x=0.0, y=1.0, z=40.0, h=3.0, w=3.0, l=5.0, yaw=0.0)
    scn = SceneDescription(objects=(SceneObject(far, 0.5), SceneObject(near, 0.5)),
                           background_albedo=0.0, background_range=150.0)
    frame = render_frame(scn, gates, cam, NOISELESS, seed=0)
    v, u = cam.height // 2, cam.width // 2
    for i, g in enumerate(gates):
        assert frame.slices[i][v, u] == pytest.approx(rip_value(g, 20.0) * 0.5)


def test_render_deterministic_and_seed_sensitive():
    cam = small_camera()
    gates = default_gates()
    noise = NoiseConfig()
    scn = wall_scene(0.5, 50.0)
    a = render_frame(scn, gates, cam, noise, seed=5)
    b = render_frame(scn, gates, cam, noise, seed=5)
    c = render_frame(scn, gates, cam, noise, seed=6)
    assert np.array_equal(a.slices, b.slices)
    assert not np.array_equal(a.slices, c.slices)
    assert a.slices.dtype == np.uint16


def test_render_slices_noise_independent():
    # the three slices of one frame must not share a noise stream
    cam = small_camera()
    gates = (gate(100, 300, 100),) * 3  # identical profiles
    noise = NoiseConfig(read_noise_sigma=5.0, photon_scale=math.inf, enable_clipping=False)
    frame = render_frame(wall_scene(0.5, 25.0), gates, cam, noise, seed=1)
    assert not np.array_equal(frame.slices[0], frame.slices[1])
    assert not np.array_equal(frame.slices[1], frame.slices[2])


@st.composite
def render_cases(draw):
    """A scene of up to eight objects, often tied in z and overlapping or cut
    by the image edge, with gates, a noise model and a seed."""
    z = st.one_of(st.sampled_from([8.0, 30.0, 30.0, 61.5]), st.floats(0.5, 130.0))
    albedo = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    objects = tuple(
        SceneObject(Box3D(cls="Car", x=draw(st.floats(-12.0, 12.0)), y=draw(st.floats(-1.0, 2.5)),
                          z=draw(z), h=draw(st.floats(0.3, 3.0)), w=draw(st.floats(0.3, 3.0)),
                          l=draw(st.floats(0.3, 6.0)), yaw=draw(st.floats(-math.pi, math.pi))),
                    draw(albedo))
        for _ in range(draw(st.integers(0, 8))))
    scene = SceneDescription(objects=objects, background_albedo=draw(albedo),
                             background_range=draw(st.one_of(st.just(150.0),
                                                             st.floats(0.0, 130.0))))
    gates = draw(st.sampled_from([
        default_gates(),
        tuple(gate(d, g, p, pulse_amplitude=600 / (p * NS), attenuation_gamma=0.022)
              for d, g, p in ((87, 194, 120), (267, 414, 254), (460, 287, 220))),
        tuple(gate(d, g, p, inverse_square=True) for d, g, p in ((20, 100, 80),) * 3),
    ]))
    noise = draw(st.one_of(
        st.sampled_from([NoiseConfig(), NOISELESS, NoiseConfig(enable_clipping=False),
                         NoiseConfig(read_noise_sigma=0.0)]),
        st.builds(NoiseConfig, read_noise_sigma=st.floats(0.0, 50.0),
                  photon_scale=st.one_of(st.just(math.inf), st.floats(0.01, 100.0)),
                  enable_clipping=st.booleans(), full_scale=st.integers(1, 65535))))
    return scene, gates, noise, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(render_cases())
def test_render_matches_full_frame_oracle_bit_for_bit(case):
    scene, gates, noise, seed = case
    cam = CameraModel(f_u=50.0, f_v=50.0, c_u=20.0, c_v=12.0, width=40, height=24)
    want = full_frame_render(scene, gates, cam, noise, seed)
    got = render_frame(scene, gates, cam, noise, seed).slices
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# range tables and recovery

def test_table_build_grid():
    gates = default_gates()
    t = build_rip_table(gates)
    r = t.ranges
    assert r[0] == 3.0
    assert r[-1] == pytest.approx(100.0)
    assert len(r) == 9701
    assert t.values.shape == (9701, 3)
    for i, g in enumerate(gates):
        assert t.values[0, i] == pytest.approx(rip_value(g, 3.0))
        assert t.values[-1, i] == pytest.approx(rip_value(g, 100.0))


def test_depth_recovery_on_grid():
    gates = default_gates()
    table = build_rip_table(gates)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        r_true = rng.uniform(3.0, 100.0)
        albedo = rng.uniform(0.1, 1.0)
        z = [rip_value(g, r_true) * albedo for g in gates]
        r_hat = depth_from_ratios(z[0], z[1], z[2], table)
        worst = max(worst, abs(r_hat - r_true))
    assert worst <= 0.01 + 1e-9


def test_depth_recovery_albedo_invariant():
    gates = default_gates()
    table = build_rip_table(gates)
    z = [rip_value(g, 47.3) for g in gates]
    a = depth_from_ratios(z[0], z[1], z[2], table)
    b = depth_from_ratios(0.05 * z[0], 0.05 * z[1], 0.05 * z[2], table)
    assert a == b


def test_depth_recovery_insufficient_signal():
    table = build_rip_table(default_gates())
    with pytest.raises(InsufficientSignal):
        depth_from_ratios(1e-4, 1e-4, 1e-4, table)


def test_depth_recovery_ambiguous():
    # two identical gates and one dead one: the ratio vector cannot separate
    # ranges inside the shared plateau
    g = gate(100, 300, 100, pulse_amplitude=600 / (100 * NS))
    dead = gate(2000, 10, 10)
    table = build_rip_table((g, g, dead))
    plo, phi = g.plateau_range
    r = (plo + phi) / 2
    z1 = rip_value(g, r)
    with pytest.raises(AmbiguousRange):
        depth_from_ratios(z1, z1, 0.0, table)


def test_normalized_ratio_vector_injective_at_working_resolution():
    # non-adjacent grid points must have well-separated normalized signatures,
    # otherwise noiseless range recovery could alias
    table = build_rip_table(default_gates())
    vals = table.values
    norms = np.linalg.norm(vals, axis=1)
    assert norms.min() > 0
    unit = vals / norms[:, None]
    r = table.ranges
    n = len(r)
    min_sep = math.inf
    block = 600
    for i0 in range(0, n, block):
        chunk = unit[i0:i0 + block]
        d = np.linalg.norm(chunk[:, None, :] - unit[None, :, :], axis=2)
        far = np.abs(r[i0:i0 + block, None] - r[None, :]) > 0.5
        if np.any(far):
            min_sep = min(min_sep, d[far].min())
    assert min_sep > 1e-4
