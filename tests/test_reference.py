import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moverb import reference, synth
from moverb.reference import (
    SINC_HALFWIDTH,
    SINC_KAISER_BETA,
    compare,
    full_rate_moving_oracle,
    splice_baseline,
    static_render,
    static_rir,
)
from moverb.room import MicPosition, Room, enumerate_images
from moverb.synth import BudgetError, SynthesisConfig
from moverb.trajectory import Trajectory, TrajectorySpec, generate

from conftest import sine, snr_db

RATE = 16000.0


def static_traj(pos, n):
    return Trajectory(rate=RATE, positions=np.tile(np.asarray(pos, float), (n, 1)))


class TestStaticRender:
    def test_unit_impulse_rir_is_identity(self):
        rir = reference.StaticRIR(
            rate=RATE, taps=np.array([1.0]), image_count=1, max_order=0
        )
        x = np.arange(10.0)
        y = static_render(x, rir)
        assert np.allclose(y, x)

    def test_two_tap_rir_is_two_shifted_copies(self):
        rir = reference.StaticRIR(
            rate=RATE, taps=np.array([0.5, 0.0, 0.25]), image_count=2, max_order=1
        )
        x = np.array([1.0, 2.0, 3.0])
        y = static_render(x, rir)
        want = 0.5 * np.array([1, 2, 3, 0, 0.0]) + 0.25 * np.array([0, 0, 1, 2, 3.0])
        assert np.allclose(y, want)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        taps = rng.standard_normal(37)
        rir = reference.StaticRIR(rate=RATE, taps=taps, image_count=1, max_order=0)
        y = static_render(x, rir)
        naive = np.zeros(x.size + taps.size - 1)
        for i, v in enumerate(x):
            naive[i : i + taps.size] += v * taps
        rel = np.max(np.abs(y - naive)) / np.max(np.abs(naive))
        assert rel <= 1e-10


def reference_sinc_kernel(frac):
    """The static response's fractional tap kernel, frozen here."""
    hw = SINC_HALFWIDTH
    arg = np.arange(-hw, hw + 1, dtype=np.float64) - frac
    window = np.zeros_like(arg)
    inside = np.abs(arg) <= hw
    u = np.clip(arg / hw, -1.0, 1.0)
    window[inside] = np.i0(SINC_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2))
    window /= np.i0(SINC_KAISER_BETA)
    return np.sinc(arg) * window


def reference_mirrored_distance(spec, src, mic, room):
    """The source's distance to the image's mirrored mic, frozen here."""
    lattice, flip = np.array(spec.lattice), np.where(spec.parity, -1.0, 1.0)
    q = flip * (mic.pos - 2.0 * lattice * room.dims)
    dx, dy, dz = src - q
    return float(np.sqrt(dx * dx + dy * dy + dz * dz))


class TestStaticRIR:
    def test_taps_match_frozen_kernel(self, room_5x6x4, mic_std):
        src = np.array([2.0, 3.5, 2.0])
        rir = static_rir(room_5x6x4, src, mic_std, RATE, 2)
        hw = SINC_HALFWIDTH
        want = np.zeros_like(rir.taps)
        for sp in enumerate_images(room_5x6x4, 2):
            d = reference_mirrored_distance(sp, src, mic_std, room_5x6x4)
            tau = d * (RATE / 343.0)
            base = int(np.floor(tau))
            kernel = sp.beta / (4.0 * np.pi) / d * reference_sinc_kernel(tau - base)
            want[base - hw : base + hw + 1] += kernel
        assert rir.taps.tobytes() == want.tobytes()


    def test_direct_tap_amplitude_and_delay(self, room_5x6x4, mic_std):
        src = np.array([2.0, 3.5, 2.0])
        rir = static_rir(room_5x6x4, src, mic_std, RATE, 0)
        d = float(np.linalg.norm(src - mic_std.pos))
        tau = RATE * d / 343.0
        amp = 1.0 / (4 * np.pi * d)
        assert rir.image_count == 1
        # taps integrate to the image amplitude (sinc kernel sums to ~1)
        assert np.sum(rir.taps) == pytest.approx(amp, rel=1e-3)
        # energy concentrates around the fractional tap location
        centroid = np.sum(np.arange(rir.taps.size) * rir.taps) / np.sum(rir.taps)
        assert centroid == pytest.approx(tau, abs=0.05)

    def test_fractional_placement_delays_a_sine_correctly(
        self, room_5x6x4, mic_std
    ):
        src = np.array([2.0, 3.5, 2.0])
        rir = static_rir(room_5x6x4, src, mic_std, RATE, 0)
        x = sine(900.0, 0.5, RATE)
        y = static_render(x, rir)
        d = float(np.linalg.norm(src - mic_std.pos))
        amp = 1.0 / (4 * np.pi * d)
        t_out = np.arange(y.size) / RATE
        ref = amp * np.sin(2 * np.pi * 900.0 * (t_out - d / (343.0 * 1.0)))
        lo, hi = 200, x.size - 200
        assert snr_db(y[lo:hi], ref[lo:hi]) >= 60.0

    def test_source_outside_raises(self, room_5x6x4, mic_std):
        with pytest.raises(ValueError):
            static_rir(room_5x6x4, np.array([9.0, 1.0, 1.0]), mic_std, RATE, 1)

    def test_image_count_grows_with_order(self, room_5x6x4, mic_std):
        src = np.array([2.0, 3.5, 2.0])
        r0 = static_rir(room_5x6x4, src, mic_std, RATE, 0)
        r2 = static_rir(room_5x6x4, src, mic_std, RATE, 2)
        assert r0.image_count == 1
        assert r2.image_count == 1 + 6 + 18


class TestMovingOracle:
    def test_matches_engine_bit_for_bit_at_n1(
        self, filt, room_5x6x4, mic_std
    ):
        spec = TrajectorySpec(
            kind="sine", duration=0.5, bandwidth_limit=2.0, speed_max=1.0, seed=6
        )
        traj = generate(spec, RATE, room_5x6x4)
        x = sine(500.0, 0.5, RATE)
        cfg = SynthesisConfig(max_order=2, decimation=1)
        y_engine = synth.render(x, traj, room_5x6x4, mic_std, filt, cfg)
        y_oracle = full_rate_moving_oracle(x, traj, room_5x6x4, mic_std, filt, cfg)
        assert np.array_equal(y_engine, y_oracle)

    def test_static_limit_matches_static_render(self, filt, room_5x6x4, mic_std):
        src = np.array([0.8, 4.1, 2.75])
        n = 8000
        traj = static_traj(src, n)
        x = sine(1000.0, n / RATE, RATE)
        cfg = SynthesisConfig(max_order=2, decimation=1)
        y = full_rate_moving_oracle(x, traj, room_5x6x4, mic_std, filt, cfg)
        rir = static_rir(room_5x6x4, src, mic_std, RATE, 2)
        ref = static_render(x, rir)
        rep = compare(y, ref, passband=0.8, rate=RATE)
        assert rep.snr_db >= 60.0

    def test_budget_guard(self, filt, room_5x6x4, mic_std):
        n = 16000
        traj = static_traj([2.0, 3.0, 2.0], n)
        x = np.ones(n)
        cfg = SynthesisConfig(max_order=3, decimation=1, eval_budget=1000.0)
        with pytest.raises(BudgetError):
            full_rate_moving_oracle(x, traj, room_5x6x4, mic_std, filt, cfg)

    def test_budget_counts_the_images_a_t60_cull_keeps(
        self, filt, room_5x6x4, mic_std
    ):
        # of the 833 images up to order 8 the render keeps 472, and the
        # budget counts those: 472 x samples is enough, one less is refused
        spec = TrajectorySpec(
            kind="sine", duration=0.25, bandwidth_limit=2.0, speed_max=1.0, seed=12
        )
        traj = generate(spec, RATE, room_5x6x4)
        x = np.random.default_rng(13).standard_normal(len(traj))
        cfg = SynthesisConfig(max_order=8, t60=0.07, decimation=1)
        kept = len(synth.select_images(room_5x6x4, traj, mic_std, cfg))
        assert kept < len(enumerate_images(room_5x6x4, 8)) == 833
        evals = kept * len(traj)
        y = full_rate_moving_oracle(
            x, traj, room_5x6x4, mic_std, filt, replace(cfg, eval_budget=evals)
        )
        assert np.array_equal(y, synth.render(x, traj, room_5x6x4, mic_std, filt, cfg))
        with pytest.raises(BudgetError, match=re.escape(f"needs {evals:.3g} ")):
            full_rate_moving_oracle(
                x, traj, room_5x6x4, mic_std, filt,
                replace(cfg, eval_budget=evals - 1),
            )


class TestSpliceBaseline:
    def test_static_trajectory_equals_static_render(self, room_5x6x4, mic_std):
        # frozen geometry: every block renders the same response, and the
        # block windows sum to one, so the splice collapses to the static
        # render by linearity
        src = np.array([0.8, 4.1, 2.75])
        n = 4000
        traj = static_traj(src, n)
        x = sine(700.0, n / RATE, RATE)
        cfg = SynthesisConfig(max_order=1, decimation=1)
        y = splice_baseline(x, traj, room_5x6x4, mic_std, 640, 0, cfg)
        rir = static_rir(room_5x6x4, src, mic_std, RATE, 1)
        ref = static_render(x, rir)
        m = min(y.size, ref.size)
        assert np.allclose(y[:m], ref[:m], atol=1e-12)

    def test_crossfade_windows_sum_to_one(self, room_5x6x4, mic_std):
        src = np.array([0.8, 4.1, 2.75])
        n = 4000
        traj = static_traj(src, n)
        x = sine(700.0, n / RATE, RATE)
        cfg = SynthesisConfig(max_order=1, decimation=1)
        y0 = splice_baseline(x, traj, room_5x6x4, mic_std, 640, 0, cfg)
        y1 = splice_baseline(x, traj, room_5x6x4, mic_std, 640, 128, cfg)
        m = min(y0.size, y1.size)
        assert np.allclose(y0[:m], y1[:m], atol=1e-10)

    def test_rejects_bad_crossfade(self, room_5x6x4, mic_std):
        traj = static_traj([2.0, 3.0, 2.0], 1000)
        x = np.ones(1000)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        with pytest.raises(ValueError):
            splice_baseline(x, traj, room_5x6x4, mic_std, 100, 101, cfg)
        with pytest.raises(ValueError):
            splice_baseline(x, traj, room_5x6x4, mic_std, 0, 0, cfg)

    def test_moving_source_produces_envelope_jumps(self, filt, room_5x6x4, mic_std):
        # receding direct path: the frozen-block render restarts the gain
        # every hop, the continuous engine does not
        n = 16000
        t = np.arange(n) / RATE
        pos = np.stack(
            [1.0 + 0.9 * t, np.full(n, 3.0), np.full(n, 2.0)], axis=1
        )
        traj = Trajectory(rate=RATE, positions=pos)
        x = sine(1000.0, 1.0, RATE)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        y_splice = splice_baseline(x, traj, room_5x6x4, mic_std, 640, 0, cfg)
        y_engine = synth.render(x, traj, room_5x6x4, mic_std, filt, cfg)
        r_splice = compare(y_splice, y_splice, passband=1.0, rate=RATE)
        r_engine = compare(y_engine, y_engine, passband=1.0, rate=RATE)
        assert r_splice.envelope_max_jump > 5.0 * r_engine.envelope_max_jump


def whole_window_splice_baseline(s, traj, room, mic, block_hop, crossfade, cfg):
    """The splice baseline with whole-clip windows per block, frozen here."""
    n = s.size
    n_blocks = max(1, -(-n // block_hop))
    pieces = []
    for b in range(n_blocks):
        start = b * block_hop
        stop = min(n, (b + 1) * block_hop)
        window = np.zeros(n)
        window[start:stop] = 1.0
        if crossfade > 0:
            ramp = (np.arange(crossfade) + 0.5) / crossfade
            if b > 0:
                window[start : start + crossfade] = ramp[: stop - start]
            if b < n_blocks - 1 and stop + crossfade <= n:
                window[stop : stop + crossfade] = 1.0 - ramp
            elif b < n_blocks - 1 and n > stop:
                ramp = (np.arange(n - stop) + 0.5) / crossfade
                window[stop:] = np.maximum(0.0, 1.0 - ramp)
        src = traj.positions[min(start, len(traj) - 1)]
        rir = static_rir(
            room, src, mic, cfg.audio_rate, cfg.max_order, c=cfg.sound_speed,
            d_min=cfg.d_min,
        )
        pieces.append(static_render(s * window, rir))
    out = np.zeros(max(piece.size for piece in pieces))
    for piece in pieces:
        out[: piece.size] += piece
    return out


class TestSpliceBaselineSupport:
    @staticmethod
    def moving_case(seconds, seed):
        room = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=0.9)
        spec = TrajectorySpec(
            kind="sine", duration=seconds, bandwidth_limit=2.0, speed_max=1.0,
            seed=seed,
        )
        traj = generate(spec, RATE, room)
        x = np.random.default_rng(seed).standard_normal(len(traj))
        return x, traj, room, SynthesisConfig(max_order=3, decimation=1)

    @pytest.mark.parametrize(
        "hop, crossfade", [(640, 0), (640, 128), (500, 500), (333, 17)]
    )
    def test_matches_whole_clip_windows(self, hop, crossfade, mic_std):
        # convolving each block's support instead of its whole-clip window
        # changes only the rounding: short supports convolve directly where
        # whole-clip windows took the FFT
        x, traj, room, cfg = self.moving_case(1.0, hop + crossfade)
        got = splice_baseline(x, traj, room, mic_std, hop, crossfade, cfg)
        want = whole_window_splice_baseline(
            x, traj, room, mic_std, hop, crossfade, cfg
        )
        assert got.size == want.size
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_peak_memory_is_bounded_by_the_clip(self, mic_std):
        x, traj, room, cfg = self.moving_case(4.0, 0)
        tracemalloc.start()
        try:
            y = splice_baseline(x, traj, room, mic_std, 640, 0, cfg)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert y.size > x.size
        # a whole-clip window and its convolution per block took 99.7 MB
        assert peak < 5.0, f"peak {peak:.1f} MB"


class TestCompare:
    def test_known_noise_level(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(32000)
        noise = rng.standard_normal(32000)
        noise *= np.sqrt(np.sum(b**2) / np.sum(noise**2)) * 10 ** (-40 / 20)
        rep = compare(b + noise, b, passband=1.0, rate=RATE, interior=0.0)
        assert rep.snr_db == pytest.approx(40.0, abs=0.2)

    def test_identical_signals_hit_cap(self):
        x = sine(440.0, 0.25, RATE)
        rep = compare(x, x, passband=1.0, rate=RATE)
        assert rep.snr_db == 200.0

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError):
            compare(np.ones(1000), np.zeros(1000), passband=1.0)

    def test_trims_to_common_length(self):
        x = sine(440.0, 0.25, RATE)
        rep = compare(np.concatenate([x, np.ones(500)]), x, passband=1.0, rate=RATE)
        assert rep.snr_db == 200.0

    def test_interior_excludes_edges(self):
        x = sine(440.0, 0.5, RATE)
        dirty = x.copy()
        dirty[:200] += 5.0
        dirty[-200:] -= 5.0
        rep = compare(dirty, x, passband=1.0, rate=RATE, interior=0.05)
        assert rep.snr_db == 200.0

    def test_passband_excludes_high_frequency_error(self):
        n = 32000
        t = np.arange(n) / RATE
        b = np.sin(2 * np.pi * 1000.0 * t)
        # corrupt only above 0.8 * Nyquist = 6.4 kHz
        a = b + 0.5 * np.sin(2 * np.pi * 7000.0 * t)
        rep = compare(a, b, passband=0.8, rate=RATE)
        assert rep.snr_db >= 100.0
        rep_full = compare(a, b, passband=1.0, rate=RATE)
        assert rep_full.snr_db < 20.0

    def test_inst_freq_tracks_pure_tone(self):
        x = sine(997.0, 1.0, RATE)
        rep = compare(x, x, passband=1.0, rate=RATE, interior=0.1)
        assert np.mean(rep.inst_freq_track) == pytest.approx(997.0, abs=0.05)

    def test_envelope_jump_detects_gain_step(self):
        x = sine(440.0, 0.5, RATE)
        stepped = x.copy()
        stepped[4000:] *= 0.5
        rep_step = compare(stepped, x, passband=1.0, rate=RATE)
        rep_smooth = compare(x, x, passband=1.0, rate=RATE)
        assert rep_step.envelope_max_jump > 20.0 * rep_smooth.envelope_max_jump

    def test_rejects_bad_passband(self):
        x = np.ones(100)
        with pytest.raises(ValueError):
            compare(x, x, passband=0.0)
        with pytest.raises(ValueError):
            compare(x, x, passband=1.1)

    def test_rejects_short_signals(self):
        with pytest.raises(ValueError):
            compare(np.ones(4), np.ones(4))
