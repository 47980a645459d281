import concurrent.futures
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moverb import _kernels, farrow, synth
from moverb.reference import compare
from moverb.room import (
    MicPosition,
    Room,
    as_arrays,
    attenuation,
    enumerate_images,
    image_distance,
)
from moverb.synth import (
    DelayStreams,
    SynthesisConfig,
    cost_report,
    high_order_distances,
    low_order_distances,
    merge_streams,
    prepare_streams,
    render,
    select_images,
    synthesize,
)
from moverb.trajectory import (
    Trajectory,
    TrajectorySpec,
    bandlimited_upsample,
    decimate,
    generate,
    lagrange_table,
)

from conftest import sine, snr_db

RATE = 16000.0


def static_traj(pos, n, rate=RATE):
    return Trajectory(rate=rate, positions=np.tile(np.asarray(pos, float), (n, 1)))


def moving_traj(n, rate=RATE, seed=3, duration=None):
    room = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.9))
    dur = duration if duration is not None else n / rate
    spec = TrajectorySpec(
        kind="sine", duration=dur, bandwidth_limit=2.0, speed_max=1.0, seed=seed
    )
    return generate(spec, rate, room)


def reference_distance_row(q, pos):
    """One row's distance to its mirrored mic q, as a plain expression."""
    dx = pos[:, 0] - q[0]
    dy = pos[:, 1] - q[1]
    dz = pos[:, 2] - q[2]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def reference_distance_streams(offset, sign, mic, pos):
    """The distance kernel as plain whole-row expressions, frozen here."""
    q = sign * (mic - offset)
    out = np.empty((offset.shape[0], pos.shape[0]))
    for i in range(offset.shape[0]):
        out[i] = reference_distance_row(q[i], pos)
    return out


def unmirrored_distance_streams(offset, sign, mic, pos):
    """Distances as |offset + sign * p - mic|, the expression mirrored mics replaced."""
    out = np.empty((offset.shape[0], pos.shape[0]))
    for i in range(offset.shape[0]):
        dx = offset[i, 0] + sign[i, 0] * pos[:, 0] - mic[0]
        dy = offset[i, 1] + sign[i, 1] * pos[:, 1] - mic[1]
        dz = offset[i, 2] + sign[i, 2] * pos[:, 2] - mic[2]
        out[i] = np.sqrt(dx * dx + dy * dy + dz * dz)
    return out


def reference_accumulate_delayed(out, streams, tau, gain, d0, start=0):
    """Accumulation of a row from whole delay and gain rows, frozen here.

    tau: (T,) delay in samples, gain: (T,). Output index t reads input
    time t + d0 - floor(tau) at fraction tau - floor(tau).
    """
    n_branches, stream_len = streams.shape
    t_idx = np.arange(start, start + out.shape[0], dtype=np.int64)
    d_int = np.floor(tau)
    mu = tau - d_int
    idx = t_idx + d0 - d_int.astype(np.int64)
    valid = (idx >= 0) & (idx < stream_len)
    idx_c = np.clip(idx, 0, stream_len - 1)
    acc = streams[n_branches - 1].take(idx_c)
    for k in range(n_branches - 2, -1, -1):
        acc = acc * mu + streams[k].take(idx_c)
    out += np.where(valid, gain * acc, 0.0)
    return out


def reference_accumulate_exact(out, streams, q, pos, coef, scale, d_min, d0, start):
    """The exact-row kernel as plain whole-row expressions, frozen here.

    Returns the largest distance and each row's last delay and gain.
    """
    top, last = -np.inf, np.empty((q.shape[0], 2))
    for i in range(q.shape[0]):
        d = reference_distance_row(q[i], pos)
        tau = d * scale
        g = coef[i] / np.maximum(d, d_min)
        top = max(top, d.max())
        last[i] = tau[-1], g[-1]
        reference_accumulate_delayed(out, streams, tau, g, d0, start)
    return top, last


def reference_restore(nodes, table, start, n):
    """restore_cubic as one plain product per tile, frozen here."""
    step = table.shape[1]
    window = np.arange(_kernels.TILE_BLOCKS)[:, None] + np.arange(4)
    tiles = []
    for a in range(start, start + n, _kernels.TILE_BLOCKS * step):
        frames = nodes[np.minimum(window + a // step, nodes.size - 1)]
        tiles.append((frames @ table).ravel())
    return np.concatenate(tiles)[:n]


def reference_accumulate_restored(out, streams, delay, gain, table, d0, start):
    """The far-row kernel as plain whole-row expressions, frozen here.

    Returns the largest restored delay and each row's last delay and gain.
    """
    n = out.shape[0]
    top, last = -np.inf, np.empty((delay.shape[0], 2))
    for i in range(delay.shape[0]):
        tau = reference_restore(delay[i], table, start, n)
        g = reference_restore(gain[i], table, start, n)
        top = max(top, tau.max())
        last[i] = tau[-1], g[-1]
        reference_accumulate_delayed(out, streams, tau, g, d0, start)
    return top, last


def guarded(streams):
    """Branch streams between two zero guards, the layout the kernels read."""
    return np.pad(streams, ((0, 0), (1, 1)))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchFrozenReferences:
    """The in-place kernels give the bits of the plain expressions.

    whole_array_render calls the live kernel, so only a frozen copy can
    catch a kernel that changes its own arithmetic.
    """

    @pytest.mark.parametrize("seed", range(60))
    def test_delay_stream(self, seed):
        # one row at unit gain through the Horner kernel; reads leave the
        # branch streams before their start and past their end
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 5))
        taps = int(rng.integers(order + 1, 11))
        f = farrow.FarrowFilter(
            poly_order=order,
            branch_len=taps,
            branches=rng.standard_normal((order + 1, taps)),
            nominal_delay=(taps - 1) // 2,
            passband=0.8,
        )
        x = rng.standard_normal(int(rng.integers(1, 2000)))
        n = int(rng.integers(1, 2500))
        t = np.arange(n)
        late = rng.uniform(0.0, 80.0) + rng.uniform(-0.9, 0.9) * t
        late += 0.01 * rng.standard_normal(n)
        tau = f.nominal_delay + np.maximum(late, 0.0)
        want = reference_accumulate_delayed(
            np.zeros(n), farrow.branch_filter(x, f), tau, np.ones(n), f.nominal_delay
        )
        assert same_bits(farrow.delay_stream(x, f, tau), want)

    @pytest.mark.parametrize("seed", range(20))
    def test_distance_streams(self, seed):
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 3000))
        offset = rng.uniform(-30.0, 30.0, size=(rows, 3))
        sign = rng.choice([-1.0, 1.0], size=(rows, 3))
        mic = rng.uniform(0.0, 6.0, size=3)
        pos = rng.uniform(0.0, 6.0, size=(n, 3))
        want = reference_distance_streams(offset, sign, mic, pos)
        got = _kernels.distance_streams(offset, sign, mic, pos)
        assert same_bits(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_mirrored_distances_round_like_the_unmirrored_ones(self, seed):
        # |o + s p - m| and |p - s (m - o)| are equal in exact arithmetic;
        # each rounds its three differences and the sum differently
        rng = np.random.default_rng(300 + seed)
        rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 3000))
        offset = rng.uniform(-30.0, 30.0, size=(rows, 3))
        sign = rng.choice([-1.0, 1.0], size=(rows, 3))
        mic = rng.uniform(0.0, 6.0, size=3)
        pos = rng.uniform(0.0, 6.0, size=(n, 3))
        got = _kernels.distance_streams(offset, sign, mic, pos)
        want = unmirrored_distance_streams(offset, sign, mic, pos)
        scale = (
            np.linalg.norm(offset, axis=1)[:, None]
            + np.linalg.norm(pos, axis=1)
            + np.linalg.norm(mic)
        )
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("seed", range(3))
    def test_distance_streams_on_rows_of_one_block_each(self, seed):
        rng = np.random.default_rng(200 + seed)
        rows = int(rng.integers(1, 4))
        n = int(rng.integers(_kernels.DISTANCE_BLOCK // 2 + 1, 30000))
        offset = rng.uniform(-30.0, 30.0, size=(rows, 3))
        sign = rng.choice([-1.0, 1.0], size=(rows, 3))
        mic = rng.uniform(0.0, 6.0, size=3)
        pos = rng.uniform(0.0, 6.0, size=(n, 3))
        want = reference_distance_streams(offset, sign, mic, pos)
        got = _kernels.distance_streams(offset, sign, mic, pos)
        assert same_bits(got, want)

    @pytest.mark.parametrize("seed", range(40))
    def test_accumulate_restored(self, seed):
        rng = np.random.default_rng(100 + seed)
        step = int(rng.choice([2, 3, 5, 16]))
        size = _kernels.TILE_BLOCKS * step
        n_branches = int(rng.integers(2, 6))
        stream_len = int(rng.integers(40, 2500))
        n = int(rng.integers(1, 2000))
        rows = int(rng.integers(1, 6))
        streams = rng.standard_normal((n_branches, stream_len))
        start = size * int(rng.integers(0, 4))
        d0 = int(rng.integers(0, 20))
        scale = float(rng.uniform(5.0, 50.0))  # samples per meter
        d_min = float(rng.uniform(0.01, 0.3))
        # as many nodes as the range needs, or fewer (the last one holds)
        k = int(rng.integers(start // step + 1, (start + n) // step + 5))
        table = lagrange_table(step)
        t = (np.arange(k) - 1.0) * step - start  # node sample indices from start
        # a straight node path along u whose delay moves `slope` samples per
        # sample away from each mirrored mic, which lies behind the path's
        # point at start, off its line by up to `side` meters
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        if seed % 3 == 2:
            # the delay moves up to 0.9 samples per sample and reads leave
            # the streams at either end
            slope, side = float(rng.uniform(-0.9, 0.9)), 0.05
            read = rng.uniform(-60.0, stream_len + 60.0, size=rows)
            tau0 = start + d0 - read
        else:
            # reads move 1 +- 0.05 samples per sample, as for a moving
            # source, and end within 30 samples of the streams' end: past
            # it, or (every third case, on a path whose reads stand still)
            # inside
            slope, side = float(rng.uniform(-0.05, 0.05)), 1e-3
            read = stream_len + rng.uniform(-30.0, 30.0, size=rows)
            if seed % 3 == 0:
                slope, side = 1.0, 0.0
                read = np.minimum(read, stream_len - 6.0)
            tau0 = start + n - 1 + d0 - read - slope * (n - 1)
        r = np.maximum(tau0, 0.0) / scale
        p0 = rng.uniform(0.0, 6.0, size=3)
        path = p0 + np.outer(t * slope / scale, u)
        perp = np.cross(u, rng.standard_normal((rows, 3)))
        perp *= side / np.linalg.norm(perp, axis=1, keepdims=True)
        q = p0 - np.outer(r, u) + perp
        coef = rng.uniform(-0.1, 0.1, size=rows)
        d = np.array([reference_distance_row(qi, path) for qi in q])
        delay = d * scale
        gain = coef[:, None] / np.maximum(d, d_min)
        init = rng.standard_normal(n)
        want = init.copy()
        want_top, want_last = reference_accumulate_restored(
            want, streams, delay, gain, table, d0, start
        )
        got, last = init.copy(), np.empty((rows, 2))
        window = path[start // step : -(-(start + n) // step) + 3]
        top = _kernels.accumulate_rows(
            got, guarded(streams), q, window, coef, scale, d_min, d0, start,
            last, table,
        )
        assert same_bits(got, want)
        assert top == want_top
        assert same_bits(last, want_last)

    @pytest.mark.parametrize("seed", range(40))
    def test_accumulate_exact(self, seed):
        rng = np.random.default_rng(400 + seed)
        n_branches = int(rng.integers(2, 6))
        n = int(rng.integers(1, 2000))
        kind = seed % 4
        rows = int(rng.integers(1 if kind == 3 else 2, 6))
        d0 = int(rng.integers(0, 20))
        scale = float(rng.uniform(5.0, 50.0))  # samples per meter
        d_min = float(rng.uniform(0.01, 0.3))
        # a straight path; the first row's mirrored mic lies on it, so its
        # distance passes through 0 and inside d_min (at the last sample
        # when kind == 1); the second starts over 5 m away
        t = np.arange(n)[:, None]
        pos = rng.uniform(0.0, 6.0, size=3) + rng.uniform(-1e-3, 1e-3, size=3) * t
        q = pos[0] + rng.uniform(-4.0, 4.0, size=(rows, 3))
        q[0] = pos[-1 if kind == 1 else int(rng.integers(0, n))]
        if rows > 1:
            q[1] = pos[0] + rng.choice([-3.0, 3.0], size=3)
        coef = rng.uniform(0.0, 0.1, size=rows)
        # sample t reads at start + d0 + t - floor(tau), tau >= 0
        tau = np.array([reference_distance_row(qi, pos) for qi in q]) * scale
        lowest = int((np.arange(n) - np.floor(tau)).min())
        if kind < 3:
            # the first read on the streams' first sample, or (kind 2) one
            # before it; the last one on their last sample, or (kind 1) one
            # past it, at tau = 0
            start = -d0 - lowest - (kind == 2)
            assert start >= 0
            stream_len = start + d0 + n - (kind == 1)
            stream_len += 50 * (kind == 2)
        else:
            start = int(rng.integers(0, 2500))
            stream_len = int(rng.integers(40, 2500))
        streams = rng.standard_normal((n_branches, stream_len))
        init = rng.standard_normal(n)
        want = init.copy()
        want_top, want_last = reference_accumulate_exact(
            want, streams, q, pos, coef, scale, d_min, d0, start
        )
        got, last = init.copy(), np.empty((rows, 2))
        top = _kernels.accumulate_rows(
            got, guarded(streams), q, pos, coef, scale, d_min, d0, start, last
        )
        assert same_bits(got, want)
        # rounding is monotone, so the largest delay is the largest distance's
        assert top == want_top * scale
        assert same_bits(last, want_last)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_gain_is_attenuation(self, seed):
        # the held gain coef / max(d, d_min) with coef = attenuation(beta, 1)
        # has the bits of attenuation(beta, max(d, d_min)); the first row's
        # mirrored mic is the path's last sample, so its gain is clamped
        rng = np.random.default_rng(500 + seed)
        rows, n = 5, int(rng.integers(1, 300))
        t = np.arange(n)[:, None]
        pos = rng.uniform(0.0, 6.0, size=3) + rng.uniform(-1e-3, 1e-3, size=3) * t
        q = pos[0] + rng.uniform(-20.0, 20.0, size=(rows, 3))
        q[0] = pos[-1]
        beta = rng.uniform(0.01, 1.0, size=rows)
        d_min = float(rng.uniform(0.01, 0.3))
        streams = rng.standard_normal((4, 4000))
        last = np.empty((rows, 2))
        _kernels.accumulate_rows(
            np.zeros(n), streams, q, pos, attenuation(beta, 1.0), 20.0, d_min, 8,
            0, last,
        )
        d = np.array([reference_distance_row(qi, pos[-1:])[0] for qi in q])
        assert same_bits(last[:, 1], attenuation(beta, np.maximum(d, d_min)))
        assert last[0, 1] == attenuation(beta[0], d_min)

    def test_accumulate_held(self):
        # a held row is a whole row of its last value
        rng = np.random.default_rng(7)
        streams = rng.standard_normal((4, 900))
        delay, gain = np.array([-3.25, 401.5, 1000.75]), np.array([0.5, -1.5, 2.0])
        got = np.zeros(700)
        _kernels.accumulate_held(got, guarded(streams), delay, gain, 8, 300)
        want = np.zeros(700)
        for x, g in zip(delay, gain):
            reference_accumulate_delayed(
                want, streams, np.full(700, x), np.full(700, g), 8, 300
            )
        assert same_bits(got, want)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = SynthesisConfig()
        assert cfg.audio_rate == 16000.0
        assert cfg.decimation == 3200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"audio_rate": 0.0},
            {"decimation": 0},
            {"order_split": -1},
            {"max_order": -1},
            {"sound_speed": 0.0},
            {"d_min": 0.0},
            {"workers": 0},
            {"eval_budget": 0.0},
            {"t60": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisConfig(**kwargs)


class TestDistanceStreams:
    def test_low_order_matches_direct_norm(self, room_5x6x4, mic_std):
        tr = moving_traj(8000, duration=0.5)
        images = enumerate_images(room_5x6x4, 1)
        streams = low_order_distances(images, tr, mic_std, room_5x6x4)
        assert streams.d.shape == (len(images), len(tr))
        offset, sign, _, _ = as_arrays(images, room_5x6x4)
        for i in range(len(images)):
            want = np.linalg.norm(
                offset[i] + sign[i] * tr.positions - mic_std.pos, axis=1
            )
            assert np.allclose(streams.d[i], want, atol=1e-12)
        assert streams.eval_count == streams.d.size

    def test_high_order_factor_one_equals_low(self, room_5x6x4, mic_std):
        tr = moving_traj(4000, duration=0.25)
        images = [sp for sp in enumerate_images(room_5x6x4, 2) if sp.order == 2]
        low = low_order_distances(images, tr, mic_std, room_5x6x4)
        high = high_order_distances(
            images, tr, mic_std, room_5x6x4, len(tr), 1
        )
        assert np.array_equal(low.d, high.d)

    @pytest.mark.parametrize("extra", [100, -100])
    def test_high_order_factor_one_refuses_another_length(
        self, extra, room_5x6x4, mic_std
    ):
        # at factor 1 the rows are exact on the path itself, so they cannot
        # run past its end or stop short of it
        tr = moving_traj(4000, duration=0.25)
        images = [sp for sp in enumerate_images(room_5x6x4, 2) if sp.order == 2]
        with pytest.raises(ValueError, match="out_len"):
            high_order_distances(images, tr, mic_std, room_5x6x4, len(tr) + extra, 1)

    def test_high_order_coarse_eval_count(self, room_5x6x4, mic_std):
        n = 32000
        tr = moving_traj(n, duration=2.0)
        coarse = decimate(tr, 3200)
        images = [sp for sp in enumerate_images(room_5x6x4, 2) if sp.order == 2]
        high = high_order_distances(images, coarse, mic_std, room_5x6x4, n, 3200)
        assert high.d.shape == (len(images), n)
        assert high.eval_count == len(images) * len(coarse)

    def test_high_order_whole_clip_accuracy(self, room_5x6x4, mic_std):
        # grid nodes every 400 samples, restored by the cubic, must track the
        # true distance over the whole clip, first and last grid intervals
        # included, within the engine's delay budget in meters
        n = 16 * 16000
        tr = moving_traj(n, duration=16.0)
        coarse = decimate(tr, 3200)
        images = [sp for sp in enumerate_images(room_5x6x4, 2) if sp.order == 2][:4]
        high = high_order_distances(images, coarse, mic_std, room_5x6x4, n, 3200)
        exact = low_order_distances(images, tr, mic_std, room_5x6x4)
        err = np.max(np.abs(high.d - exact.d))
        budget = synth.DELAY_ERROR_BUDGET * SynthesisConfig().sound_speed / RATE
        assert err < budget  # 2.14e-4 m


class TestMerge:
    def test_merge_restores_canonical_order(self, room_5x6x4, mic_std):
        tr = moving_traj(2000, duration=0.125)
        images = enumerate_images(room_5x6x4, 2)
        low = [sp for sp in images if sp.order <= 1]
        high = [sp for sp in images if sp.order > 1]
        a = low_order_distances(low, tr, mic_std, room_5x6x4)
        b = low_order_distances(high, tr, mic_std, room_5x6x4)
        merged = merge_streams(a, b)
        assert merged.specs == images
        direct = low_order_distances(images, tr, mic_std, room_5x6x4)
        assert np.array_equal(merged.d, direct.d)

    def test_merge_interleaved_sides(self, room_5x6x4, mic_std):
        # the merge concatenates: sides that interleave in enumeration order
        # are refused, and so is a low side with restored rows, whose images
        # are far ones
        tr = moving_traj(4000, duration=0.25)
        images = enumerate_images(room_5x6x4, 2)
        a = low_order_distances(images[1::2], tr, mic_std, room_5x6x4)
        b = low_order_distances(images[::2], tr, mic_std, room_5x6x4)
        with pytest.raises(ValueError, match="precede"):
            merge_streams(a, b)
        near, far = images[:7], images[7:]
        nodes = decimate(tr, 3200)
        far = high_order_distances(far, nodes, mic_std, room_5x6x4, len(tr), 3200)
        low = low_order_distances(near, tr, mic_std, room_5x6x4)
        with pytest.raises(ValueError, match="precede"):
            merge_streams(far, low)
        assert merge_streams(low, far).specs == images

    def test_merge_folds_exact_parts_on_one_path(self, room_5x6x4, mic_std):
        tr = moving_traj(2000, duration=0.125)
        images = enumerate_images(room_5x6x4, 2)
        a = low_order_distances(images[:7], tr, mic_std, room_5x6x4)
        b = high_order_distances(images[7:], tr, mic_std, room_5x6x4, len(tr), 1)
        merged = merge_streams(a, b)
        # two exact parts in row order, no fold
        assert len(merged.parts) == 2
        assert merged.parts[0] is a.parts[0] and merged.parts[1] is b.parts[0]
        assert all(p.table is None for p in merged.parts)
        direct = low_order_distances(images, tr, mic_std, room_5x6x4)
        assert np.array_equal(merged.d, direct.d)
        other = moving_traj(2000, duration=0.125, seed=4)
        c = low_order_distances(images[7:], other, mic_std, room_5x6x4)
        with pytest.raises(ValueError, match="different paths"):
            merge_streams(a, c)

    def test_merge_with_empty_side(self, room_5x6x4, mic_std):
        tr = moving_traj(1000, duration=0.0625)
        images = enumerate_images(room_5x6x4, 1)
        a = low_order_distances(images, tr, mic_std, room_5x6x4)
        empty = low_order_distances([], tr, mic_std, room_5x6x4)
        assert merge_streams(a, empty) is a
        assert merge_streams(empty, a) is a


class TestSynthesize:
    def test_output_length(self, filt, room_5x6x4, mic_std):
        n = 4000
        tr = static_traj([0.8, 4.1, 2.75], n)
        cfg = SynthesisConfig(max_order=1, decimation=1)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        x = sine(440.0, n / RATE, RATE)
        y = synthesize(x, streams, filt, cfg)
        tau_max = RATE * float(streams.d.max()) / cfg.sound_speed
        assert y.size == n + int(np.ceil(tau_max)) + filt.branch_len

    def test_direct_path_is_scaled_delay(self, filt, room_5x6x4, mic_std):
        # direct image only: output must be the input delayed by d/c seconds
        # and scaled by 1/(4 pi d)
        n = 4000
        src = np.array([2.0, 3.5, 2.0])
        tr = static_traj(src, n)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        x = sine(750.0, n / RATE, RATE)
        y = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        d = float(np.linalg.norm(src - mic_std.pos))
        amp = 1.0 / (4 * np.pi * d)
        delay_s = d / 343.0
        t_out = np.arange(y.size) / RATE
        ref = amp * np.sin(2 * np.pi * 750.0 * (t_out - delay_s))
        lo = 200
        hi = n - 200
        assert snr_db(y[lo:hi], ref[lo:hi]) >= 60.0

    def test_input_scaling_commutes(self, filt, room_5x6x4, mic_std):
        n = 2000
        tr = moving_traj(n, duration=0.125)
        cfg = SynthesisConfig(max_order=1, decimation=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(n)
        y1 = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        y2 = render(3.0 * x, tr, room_5x6x4, mic_std, filt, cfg)
        assert np.allclose(y2, 3.0 * y1, rtol=1e-12, atol=1e-14)

    def test_image_superposition(self, filt, room_5x6x4, mic_std):
        n = 2000
        tr = moving_traj(n, duration=0.125)
        cfg = SynthesisConfig(max_order=2, decimation=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(n)
        images = enumerate_images(room_5x6x4, 2)
        half = len(images) // 2
        full = synthesize(
            x, prepare_streams(tr, room_5x6x4, mic_std, cfg, images=images), filt, cfg
        )
        a = synthesize(
            x,
            prepare_streams(tr, room_5x6x4, mic_std, cfg, images=images[:half]),
            filt,
            cfg,
        )
        b = synthesize(
            x,
            prepare_streams(tr, room_5x6x4, mic_std, cfg, images=images[half:]),
            filt,
            cfg,
        )
        m = min(full.size, a.size, b.size)
        num = np.max(np.abs(full[:m] - (a[:m] + b[:m])))
        assert num <= 1e-10 * max(1.0, np.max(np.abs(full)))

    def test_rejects_empty_input(self, filt, room_5x6x4, mic_std):
        tr = static_traj([2.0, 3.0, 2.0], 100)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        with pytest.raises(ValueError):
            synthesize(np.array([]), streams, filt, cfg)

    def test_rejects_nonfinite_input(self, filt, room_5x6x4, mic_std):
        tr = static_traj([2.0, 3.0, 2.0], 100)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        x = np.ones(100)
        x[5] = np.inf
        with pytest.raises(ValueError):
            synthesize(x, streams, filt, cfg)

    def test_rate_mismatch_raises(self, filt, room_5x6x4, mic_std):
        tr = Trajectory(rate=8000.0, positions=np.tile([2.0, 3.0, 2.0], (100, 1)))
        cfg = SynthesisConfig(max_order=0, decimation=1)
        with pytest.raises(ValueError):
            prepare_streams(tr, room_5x6x4, mic_std, cfg)

    def test_mic_outside_raises(self, filt, room_5x6x4):
        tr = static_traj([2.0, 3.0, 2.0], 100)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        mic = MicPosition(pos=np.array([7.0, 3.0, 2.0]))
        with pytest.raises(ValueError):
            prepare_streams(tr, room_5x6x4, mic, cfg)


class TestDeterminism:
    def test_workers_do_not_change_bits(self, filt, room_5x6x4, mic_std):
        n = 8000
        tr = moving_traj(n, duration=0.5)
        cfg = SynthesisConfig(max_order=3, decimation=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        y1 = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        for workers in (2, 5, 8):
            yw = render(
                x, tr, room_5x6x4, mic_std, filt, replace(cfg, workers=workers)
            )
            assert np.array_equal(y1, yw), f"workers={workers} changed the output"

    def test_repeat_runs_identical(self, filt, room_5x6x4, mic_std):
        n = 4000
        tr = moving_traj(n, duration=0.25)
        cfg = SynthesisConfig(max_order=2, decimation=3200)
        x = sine(640.0, n / RATE, RATE)
        a = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        b = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        assert np.array_equal(a, b)


def edge_padded(row, out_len):
    return np.pad(row[:out_len], (0, max(0, out_len - row.size)), mode="edge")


def exact_row(streams, i, cfg):
    """An exact row as synthesize forms it: (delay, gain).

    tau = d * (rate / c) and A = (beta / 4 pi) / max(d, d_min) from the
    distance to the mirrored mic.
    """
    d = streams.row(i)
    tau = d * (cfg.audio_rate / cfg.sound_speed)
    gain = streams.specs[i].beta / (4.0 * np.pi) / np.maximum(d, cfg.d_min)
    return tau, gain


def unmirrored_exact_row(streams, i, cfg, room, mic):
    """An exact row formed as before mirrored mics: (delay, gain).

    d = |offset + sign * p - mic|, tau = rate d / c and
    A = beta / (4 pi max(d, d_min)).
    """
    offset, sign, _, _ = as_arrays(streams.specs, room)
    path = streams.parts[0].positions  # exact rows come first, on the path
    d = unmirrored_distance_streams(
        offset[i : i + 1], sign[i : i + 1], mic.pos, path
    )[0]
    tau = cfg.audio_rate * d / cfg.sound_speed
    gain = streams.specs[i].beta / (4.0 * np.pi * np.maximum(d, cfg.d_min))
    return tau, gain


def restored_row(streams, i, part, j, cfg):
    """A far row as synthesize forms it: (delay, gain).

    Row i is row j of part. Its delay d (rate / c) and its gain
    (beta / 4 pi) / max(d, d_min) are formed at the grid nodes, as exact
    rows form them per sample, and restored whole with
    bandlimited_upsample.
    """
    nodes = part.distances(slice(j, j + 1))[0]
    step = part.table.shape[1]
    delay = nodes * (cfg.audio_rate / cfg.sound_speed)
    gain = streams.specs[i].beta / (4.0 * np.pi) / np.maximum(nodes, cfg.d_min)
    tau = bandlimited_upsample(delay, step, streams.length)
    gain = bandlimited_upsample(gain, step, streams.length)
    return tau, gain


def whole_array_render(s, streams, f, cfg, exact=exact_row):
    """A render with every stream held whole.

    The arithmetic synthesize must reproduce bit for bit. Exact rows form
    their delay and gain from whole distance rows (exact), far rows at the
    grid nodes (restored_row). Past the path's end every row holds its
    last values. Every row is accumulated over the full output into one
    buffer, in row order, read at the bank's latency D0.
    """
    rows = []  # (delay row, gain row)
    parts = [(p, j) for p in streams.parts for j in range(p.q.shape[0])]
    for i, (part, j) in enumerate(parts):
        if part.table is None:
            rows.append(exact(streams, i, cfg))
        else:
            rows.append(restored_row(streams, i, part, j, cfg))
    tau_max = max(tau.max() for tau, _ in rows)
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    branch = farrow.branch_filter(s, f)
    out = np.zeros(out_len)
    for tau, g in rows:
        tau, g = edge_padded(tau, out_len), edge_padded(g, out_len)
        reference_accumulate_delayed(out, branch, tau, g, f.nominal_delay)
    return out


def distance_row_render(s, streams, f, cfg):
    """Every row's delay and gain formed per sample from its distance.

    The arithmetic of the engine before far rows restored their delay and
    gain at the grid nodes: distances restored whole, then
    tau = rate d / c and A = beta / (4 pi max(d, d_min)) at every sample.
    """
    d = streams.d
    tau_max = cfg.audio_rate * float(d.max()) / cfg.sound_speed
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    d = np.pad(d, ((0, 0), (0, max(0, out_len - d.shape[1]))), mode="edge")
    d = d[:, :out_len]
    tau = cfg.audio_rate * d / cfg.sound_speed
    beta = np.array([sp.beta for sp in streams.specs])
    amp = beta[:, None] / (4.0 * np.pi * np.maximum(d, cfg.d_min))
    branch = farrow.branch_filter(s, f)
    out = np.zeros(out_len)
    for tau_i, amp_i in zip(tau, amp):
        reference_accumulate_delayed(out, branch, tau_i, amp_i, f.nominal_delay)
    return out


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestChunkedWalk:
    # chunk lengths are rounded up to whole restoration tiles of 64 h
    # samples: 25600 at N=3200 (h=400), 128 at N=2 and 1 at N=1, so these
    # give 3, 2 and 1 chunks over 3.5 s at N=3200 and many more at N=2
    CHUNKS = (700, 30000, 10**9)

    @pytest.mark.parametrize("factor", [3200, 2, 1])
    @pytest.mark.parametrize("path", ["shorter", "same", "longer"])
    def test_bits_do_not_depend_on_chunk_length(
        self, factor, path, filt, room_5x6x4, mic_std, monkeypatch
    ):
        n = 56000
        t_len = {"shorter": 33600, "same": n, "longer": 84000}[path]
        tr = moving_traj(t_len, duration=t_len / RATE, seed=5)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        x = np.random.default_rng(factor).standard_normal(n)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        want = whole_array_render(x, streams, filt, cfg)
        if path == "longer":
            assert want.size < t_len  # the walk must cut the path's tail
        for chunk in self.CHUNKS:
            monkeypatch.setattr(synth, "CHUNK_SAMPLES", chunk)
            got = synthesize(x, streams, filt, cfg)
            assert np.array_equal(got, want), f"chunk {chunk} changed the output"

    def test_workers_do_not_change_bits_with_small_chunks(
        self, filt, room_5x6x4, mic_std, monkeypatch
    ):
        monkeypatch.setattr(synth, "CHUNK_SAMPLES", 1000)
        n = 8000
        tr = moving_traj(n, duration=0.5, seed=6)
        cfg = SynthesisConfig(max_order=3, decimation=1)
        x = np.random.default_rng(7).standard_normal(n)
        want = whole_array_render(
            x, prepare_streams(tr, room_5x6x4, mic_std, cfg), filt, cfg
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the jobs' threads often
        try:
            for workers in (1, 2, 8):
                got = render(
                    x, tr, room_5x6x4, mic_std, filt, replace(cfg, workers=workers)
                )
                assert np.array_equal(got, want), f"workers={workers} changed bits"
        finally:
            sys.setswitchinterval(interval)

    def test_output_length_when_every_distance_is_clamped(
        self, filt, room_5x6x4, mic_std
    ):
        # source on the mic: the gain floor must not leak into the length
        n = 500
        tr = static_traj(mic_std.pos, n)
        cfg = SynthesisConfig(max_order=0, decimation=1)
        y = render(np.ones(n), tr, room_5x6x4, mic_std, filt, cfg)
        assert y.size == n + filt.branch_len

    def test_order3_ten_second_peak_memory(self, filt, room_5x6x4, mic_std):
        n = 10 * 16000
        tr = moving_traj(n, duration=10.0)
        x = np.random.default_rng(9).standard_normal(n)
        cfg = SynthesisConfig(max_order=3)
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n
        # whole-array streams took 405 MB here: four (63, 160k) float64 arrays
        assert peak < 50.0, f"peak {peak:.1f} MB"

    def test_order3_ten_second_exact_render_peak_memory(
        self, filt, room_5x6x4, mic_std
    ):
        # every row exact: each job adds into its slice of the output from
        # one set of chunk-long scratch rows, never a group of per-row arrays
        n = 10 * 16000
        tr = moving_traj(n, duration=10.0)
        x = np.random.default_rng(9).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, decimation=1)
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n
        assert peak < 5.0, f"peak {peak:.2f} MB"

    def test_peak_beyond_the_output_does_not_grow_with_the_clip(
        self, filt, room_5x6x4, mic_std
    ):
        # each job convolves only the input its reads reach, and the output
        # is allocated once, so past the output itself a render holds
        # O(workers x (chunk + delay span)) at any clip length
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        beyond = {}
        for seconds in (5, 20):
            n = seconds * 16000
            tr = moving_traj(n, duration=float(seconds))
            x = np.random.default_rng(23).standard_normal(n)
            render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
            y, peak = traced_peak_mb(
                lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
            )
            beyond[seconds] = peak - y.nbytes / 1e6
        assert abs(beyond[20] - beyond[5]) < 0.5, beyond

    def test_order8_far_rows_hold_no_grid_node_arrays(
        self, filt, room_5x6x4, mic_std
    ):
        # 826 far rows: each job forms the node delays and gains it reads,
        # so no (far rows x grid nodes) array lives through the render
        n = 4 * 16000
        tr = moving_traj(n, duration=4.0)
        x = np.random.default_rng(16).standard_normal(n)
        cfg = SynthesisConfig(max_order=8)
        render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n
        assert peak < 6.0, f"peak {peak:.2f} MB"

    def test_five_thousand_images_render(self, filt, room_5x6x4, mic_std):
        n = 800  # 0.05 s
        tr = moving_traj(n, duration=n / RATE)
        x = np.random.default_rng(10).standard_normal(n)
        cfg = SynthesisConfig(max_order=16)
        assert len(select_images(room_5x6x4, tr, mic_std, cfg)) >= 5000
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n and np.all(np.isfinite(y))
        assert peak < 50.0, f"peak {peak:.1f} MB"

    def test_dense_render_peak_is_bounded_with_two_workers(
        self, filt, room_5x6x4, mic_std
    ):
        # a 1 s path is one chunk, which renders on the calling thread at
        # any worker count, so the peak is fixed: one job's scratch rows
        n = 16000
        tr = moving_traj(n, duration=1.0, seed=12)
        x = np.random.default_rng(13).standard_normal(n)
        cfg = SynthesisConfig(max_order=8, order_split=2, t60=0.07, workers=2)
        assert len(select_images(room_5x6x4, tr, mic_std, cfg)) > 400
        render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
        peaks = {}
        for workers in (1, 2):
            _, peaks[workers] = traced_peak_mb(
                lambda: render(
                    x, tr, room_5x6x4, mic_std, filt, replace(cfg, workers=workers)
                )
            )
            assert peaks[workers] < 25.0, f"peak {peaks[workers]:.1f} MB"
        assert abs(peaks[2] - peaks[1]) <= 0.01 * peaks[1], peaks

    def test_one_chunk_render_builds_no_thread_pool(
        self, filt, room_5x6x4, mic_std, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk render built a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        n = 8000
        tr = moving_traj(n, duration=0.5, seed=14)
        x = np.random.default_rng(15).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, decimation=1, workers=2)
        assert render(x, tr, room_5x6x4, mic_std, filt, cfg).size > n


class TestDelayBounds:
    """Each job's branch window is cut from delay bounds formed before the walk."""

    @pytest.mark.parametrize("seed", range(30))
    def test_every_row_lies_within_the_bounds(self, seed):
        # random rows on a wandering path: exact at its samples, or restored
        # from grid nodes whose steps are large enough for the cubic to
        # overshoot; the first row's mirrored mic lies on the path
        rng = np.random.default_rng(1300 + seed)
        rows = int(rng.integers(1, 8))
        scale = float(rng.uniform(5.0, 50.0))
        restored = seed % 2 == 1
        step = int(rng.choice([2, 5, 16, 400])) if restored else 1
        k = int(rng.integers(4, 40)) if restored else int(rng.integers(1, 3000))
        walk = rng.uniform(-0.5, 0.5, size=(k, 3)) * (step**0.5 if restored else 0.01)
        positions = rng.uniform(0.0, 6.0, size=3) + np.cumsum(walk, axis=0)
        q = rng.uniform(-20.0, 26.0, size=(rows, 3))
        q[0] = positions[int(rng.integers(0, k))]
        coef = rng.uniform(0.0, 0.1, size=rows)
        table = lagrange_table(step) if restored else None
        part = synth._Rows(q, coef, positions, table)
        length = (k - 3) * step if restored else k
        streams = DelayStreams(list(range(rows)), max(length, 1), (part,))
        lower, upper = synth._delay_bounds((part,), scale)
        for i in range(rows):
            tau, _ = streams.terms(i, scale, 0.05)
            assert lower <= tau.min() and tau.max() <= upper, (i, lower, upper)

    def test_the_restored_bounds_are_reached(self):
        # node delays lo, hi, hi, lo peak at hi + (hi - lo) / 8 at the middle
        # interval's midpoint, and hi, lo, lo, hi dip to lo - (hi - lo) / 8:
        # the cubic's weights at phase 1/2 are -1/16, 9/16, 9/16, -1/16
        step, scale = 400, 16000.0 / 343.0
        x = np.array([0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0, 0.0])
        positions = np.column_stack([1.0 + x, np.full(8, 2.0), np.full(8, 1.5)])
        q = np.array([[-3.0, 2.0, 1.5]])  # on the path's line, 4 to 6 m away
        part = synth._Rows(q, np.array([0.01]), positions, lagrange_table(step))
        streams = DelayStreams([0], 5 * step, (part,))
        lower, upper = synth._delay_bounds((part,), scale)
        tau, _ = streams.terms(0, scale, 0.05)
        assert tau.max() == pytest.approx(6.25 * scale, rel=1e-12)
        assert tau.min() == pytest.approx(3.75 * scale, rel=1e-12)
        assert 0.0 <= upper - tau.max() < 1e-6
        assert 0.0 <= tau.min() - lower < 1e-6

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_a_bound_that_misses_a_delay_raises(
        self, side, filt, room_5x6x4, mic_std, monkeypatch
    ):
        # a delay outside the bounds would read outside the job's window
        n = 8000
        tr = moving_traj(n, duration=0.5, seed=24)
        x = np.random.default_rng(25).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, decimation=1)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        true_bounds = synth._delay_bounds

        def missed(parts, scale):
            lower, upper = true_bounds(parts, scale)
            return (lower, upper - 20.0) if side == "upper" else (lower + 60.0, upper)

        monkeypatch.setattr(synth, "_delay_bounds", missed)
        with pytest.raises(RuntimeError, match="bounds"):
            synthesize(x, streams, filt, cfg)


def snr_whole_db(got, want):
    return 10.0 * np.log10(np.sum(want**2) / np.sum((got - want) ** 2))


class TestFarRowsMatchDistanceRows:
    """Far rows restore delay and gain where distance rows restored d.

    The cubic is linear, so the restored delay equals rate / c times the
    restored distance up to rounding, and the restored gain differs from
    the gain of the restored distance by the cubic's error on a 1 / d
    curve. The tail past a short path holds each row's last values.
    """

    @pytest.mark.parametrize("factor", [3200, 2])
    @pytest.mark.parametrize("t_len", [33600, 84000])
    def test_render_matches_per_sample_delay_and_gain(
        self, factor, t_len, filt, room_5x6x4, mic_std
    ):
        n = 56000
        tr = moving_traj(t_len, duration=t_len / RATE, seed=20)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        x = np.random.default_rng(21).standard_normal(n)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        got = synthesize(x, streams, filt, cfg)
        want = distance_row_render(x, streams, filt, cfg)
        assert got.size == want.size
        assert snr_whole_db(got, want) >= 120.0
        if want.size > t_len:
            tail = slice(t_len, None)
            assert snr_whole_db(got[tail], want[tail]) >= 120.0


class TestExactRowsMatchUnmirroredArithmetic:
    """Exact rows against per-sample tau and gain from |o + s p - m|.

    Mirrored mics, the delay d (rate / c) and the gain
    (beta / 4 pi) / max(d, d_min) change only the rounding of exact rows;
    far rows keep their arithmetic.
    """

    @pytest.mark.parametrize("factor", [1, 3200])
    def test_render_matches_to_rounding(self, factor, filt, room_5x6x4, mic_std):
        n, t_len = 56000, 33600
        tr = moving_traj(t_len, duration=t_len / RATE, seed=20)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        x = np.random.default_rng(21).standard_normal(n)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        got = synthesize(x, streams, filt, cfg)
        exact = partial(unmirrored_exact_row, room=room_5x6x4, mic=mic_std)
        want = whole_array_render(x, streams, filt, cfg, exact=exact)
        assert got.size == want.size > t_len
        assert snr_whole_db(got, want) >= 240.0
        tail = slice(t_len, None)
        assert snr_whole_db(got[tail], want[tail]) >= 240.0


class TestRowTerms:
    @pytest.mark.parametrize(
        "factor, tables", [(3200, [False, True]), (1, [False, False])]
    )
    def test_terms_are_the_rows_the_render_forms(
        self, factor, tables, filt, room_5x6x4, mic_std
    ):
        # an exact part and a restored part, or two exact parts; every
        # row's terms have the bits of the whole-array render's row
        tr = moving_traj(8000, duration=0.5, seed=9)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        assert [p.table is not None for p in streams.parts] == tables
        scale = cfg.audio_rate / cfg.sound_speed
        parts = [(p, j) for p in streams.parts for j in range(p.q.shape[0])]
        assert len(parts) == streams.image_count() == 63
        for i, (part, j) in enumerate(parts):
            tau, gain = streams.terms(i, scale, cfg.d_min)
            if part.table is None:
                want_tau, want_gain = exact_row(streams, i, cfg)
            else:
                want_tau, want_gain = restored_row(streams, i, part, j, cfg)
            assert same_bits(tau, want_tau), f"row {i} delay"
            assert same_bits(gain, want_gain), f"row {i} gain"

    @pytest.mark.parametrize("factor", [1, 3200])
    def test_each_row_renders_as_its_delay_stream(
        self, factor, filt, room_5x6x4, mic_std
    ):
        # a render of one row is farrow.delay_stream at the row's delay
        # times its gain, bit for bit, exact and restored rows alike, and
        # past the path's end, where the row holds its last values
        n = 32000
        tr = moving_traj(n, duration=2.0, seed=9)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        x = np.random.default_rng(22).standard_normal(n)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        scale = cfg.audio_rate / cfg.sound_speed
        parts = [(p, j) for p in streams.parts for j in range(p.q.shape[0])]
        assert len(parts) == 63
        for i, (part, j) in enumerate(parts):
            one = replace(part, q=part.q[j : j + 1], coef=part.coef[j : j + 1])
            row = DelayStreams([streams.specs[i]], streams.length, (one,))
            got = synthesize(x, row, filt, cfg)
            tau, gain = streams.terms(i, scale, cfg.d_min)
            tau, gain = edge_padded(tau, got.size), edge_padded(gain, got.size)
            want = farrow.delay_stream(x, filt, tau) * gain
            assert same_bits(got, want), f"row {i}"


class TestShortClips:
    def test_clip_of_n_samples_or_less_renders_far_rows_exactly(
        self, filt, room_5x6x4, mic_std
    ):
        # one coarse sample would hold every far image at its first distance
        n = 800  # 0.05 s
        tr = moving_traj(n, duration=n / RATE, seed=14)
        x = np.random.default_rng(15).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, decimation=3200)
        got = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=1))
        assert np.array_equal(got, want)

    def test_cost_report_counts_short_clip_far_rows_at_full_rate(self, room_5x6x4):
        cfg = SynthesisConfig(max_order=3, decimation=3200)
        images = enumerate_images(room_5x6x4, 3)
        short = cost_report(cfg, images, 0.05)
        assert short["hierarchical_evals"] == short["naive_evals"]
        longer = cost_report(cfg, images, 0.5)
        assert longer["hierarchical_evals"] < longer["naive_evals"]


class TestWholeClipFidelity:
    """Hierarchical render against decimation=1 over the whole clip.

    Only the L-sample filter edge is trimmed, so the first and last grid
    intervals, restored through the ghost nodes, count in full.
    """

    @pytest.mark.parametrize("duration", [0.5, 1.0, 4.0, 4.125, 16.0])
    def test_matches_the_exact_render(self, duration, filt, room_5x6x4, mic_std):
        # 4.125 s of a 2 Hz sine ends at a displacement peak, where the
        # path's acceleration is largest
        n = int(round(duration * RATE))
        tr = moving_traj(n, duration=duration, seed=16)
        x = np.random.default_rng(17).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        got = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=1))
        interior = (filt.branch_len + 0.5) / min(got.size, want.size)
        rep = compare(got, want, rate=RATE, interior=interior)
        assert rep.snr_db >= 40.0, f"{rep.snr_db:.1f} dB"

    @pytest.mark.parametrize("decimation", [15, 19])
    def test_renders_at_a_step_whose_node_rate_does_not_round_trip(
        self, decimation, filt, room_5x6x4, mic_std
    ):
        # the grid nodes' rate times the step is not the audio rate here;
        # the rows' rate is the audio rate all the same
        assert (RATE / decimation) * decimation != RATE
        n = 8000
        tr = moving_traj(n, duration=0.5, seed=16)
        x = np.random.default_rng(17).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=decimation)
        got = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=1))
        interior = (filt.branch_len + 0.5) / min(got.size, want.size)
        rep = compare(got, want, rate=RATE, interior=interior)
        assert rep.snr_db >= 40.0, f"{rep.snr_db:.1f} dB"


class TestDelayErrorGuard:
    def fast_path(self, room):
        # an 8 Hz, 1 m/s sine: the cubic's error grows as f^3 at a fixed
        # speed, about 64 x the 1e-3 samples of the 2 Hz paths
        spec = TrajectorySpec(
            kind="sine", duration=0.5, bandwidth_limit=8.0, speed_max=1.0, seed=18
        )
        return generate(spec, RATE, room)

    def test_fast_path_raises_at_the_default_decimation(self, room_5x6x4, mic_std):
        tr = self.fast_path(room_5x6x4)
        cfg = SynthesisConfig(max_order=3, decimation=3200)
        with pytest.raises(ValueError, match="grid step 400; lower decimation"):
            prepare_streams(tr, room_5x6x4, mic_std, cfg)

    def test_checks_every_far_row(self, room_5x6x4, mic_std, monkeypatch):
        # the path drifts over 3 s from mid-room to near a corner, with a
        # 5 Hz wobble on x and z that grows to 0.022 m; the worst far row is
        # one of order 3, not one of the far images nearest the path's start
        t = np.arange(4 * int(RATE)) / RATE
        r = np.where(t < 3.0, 0.5 - 0.5 * np.cos(np.pi * t / 3.0), 1.0)
        a, b = np.array([2.5, 3.0, 2.0]), np.array([0.35, 2.6, 3.65])
        pos = a + r[:, None] * (b - a)
        wobble = 0.022 * r * np.sin(2.0 * np.pi * 5.0 * t)
        pos[:, 0] += wobble
        pos[:, 2] += wobble
        tr = Trajectory(rate=RATE, positions=pos)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        with monkeypatch.context() as patch:
            patch.setattr(synth, "DELAY_ERROR_BUDGET", 1.0)
            streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        e = sum(p.q.shape[0] for p in streams.parts if p.table is None)
        offset, sign, _, _ = as_arrays(streams.specs[e:], room_5x6x4)
        worst = 0.0
        for i in range(streams.image_count() - e):
            got = streams.row(e + i)
            want = _kernels.distance_streams(
                offset[i : i + 1], sign[i : i + 1], mic_std.pos, pos
            )[0]
            worst = max(worst, float(np.abs(got - want).max()))
        worst *= RATE / cfg.sound_speed
        assert worst > synth.DELAY_ERROR_BUDGET  # 0.01136 samples
        # the check reads the true worst over every sample
        with pytest.raises(ValueError, match=f"delay error {worst:.3g} samples"):
            prepare_streams(tr, room_5x6x4, mic_std, cfg)

    @pytest.mark.parametrize("block", [1, 500])
    def test_blocks_of_rows_report_the_same_error(
        self, room_5x6x4, mic_std, monkeypatch, block
    ):
        # one row, or a few, per block against the default blocks
        tr = self.fast_path(room_5x6x4)
        cfg = SynthesisConfig(max_order=3, decimation=3200)
        with pytest.raises(ValueError) as whole:
            prepare_streams(tr, room_5x6x4, mic_std, cfg)
        monkeypatch.setattr(_kernels, "DISTANCE_BLOCK", block)
        with pytest.raises(ValueError) as blocked:
            prepare_streams(tr, room_5x6x4, mic_std, cfg)
        assert str(blocked.value) == str(whole.value)

    def test_check_holds_no_whole_clip_arrays(self, room_5x6x4, mic_std):
        # 826 far rows over 20 s: the (rows x grid nodes) and (rows x
        # intervals) arrays of one pass would take about 20 MB
        tr = moving_traj(20 * 16000, duration=20.0)
        cfg = SynthesisConfig(max_order=8)
        prepare_streams(tr, room_5x6x4, mic_std, cfg)  # warm-up
        streams, peak = traced_peak_mb(
            lambda: prepare_streams(tr, room_5x6x4, mic_std, cfg)
        )
        assert any(p.table is not None for p in streams.parts)
        assert peak < 2.0, f"peak {peak:.2f} MB"

    def test_fast_path_renders_at_a_lower_decimation(
        self, filt, room_5x6x4, mic_std
    ):
        tr = self.fast_path(room_5x6x4)
        x = np.random.default_rng(19).standard_normal(len(tr))
        cfg = SynthesisConfig(max_order=3, decimation=200)
        got = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=1))
        interior = (filt.branch_len + 0.5) / min(got.size, want.size)
        assert compare(got, want, rate=RATE, interior=interior).snr_db >= 40.0


def small_render_case(seed, n, factor):
    tr = moving_traj(n, duration=n / RATE, seed=seed)
    x = np.random.default_rng(seed).standard_normal(n)
    return x, tr, SynthesisConfig(max_order=2, order_split=1, decimation=factor)


class TestRenderProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(200, 6000),
        factor=st.sampled_from([1, 2, 7, 400]),
        chunk=st.integers(1, 20000),
        workers=st.sampled_from([1, 2, 3]),
    )
    def test_bits_do_not_depend_on_chunk_or_workers(
        self, filt, room_5x6x4, mic_std, seed, n, factor, chunk, workers
    ):
        x, tr, cfg = small_render_case(seed, n, factor)
        want = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        with mock.patch.object(synth, "CHUNK_SAMPLES", chunk):
            got = render(
                x, tr, room_5x6x4, mic_std, filt, replace(cfg, workers=workers)
            )
        assert np.array_equal(got, want)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(200, 6000),
        factor=st.sampled_from([1, 7, 3200]),
        k=st.integers(-8, 8),
    )
    def test_power_of_two_input_scaling_is_exact(
        self, filt, room_5x6x4, mic_std, seed, n, factor, k
    ):
        # scaling by 2^k is exact in every multiply and add of the render
        x, tr, cfg = small_render_case(seed, n, factor)
        y = render(x, tr, room_5x6x4, mic_std, filt, cfg)
        scaled = render(np.ldexp(x, k), tr, room_5x6x4, mic_std, filt, cfg)
        assert np.array_equal(scaled, np.ldexp(y, k))


class TestSelectImages:
    def test_t60_cull_reduces_set(self, room_5x6x4, mic_std):
        tr = static_traj([2.0, 3.0, 2.0], 100)
        all_cfg = SynthesisConfig(max_order=3, decimation=1)
        cut_cfg = SynthesisConfig(max_order=3, decimation=1, t60=0.02)
        full = select_images(room_5x6x4, tr, mic_std, all_cfg)
        cut = select_images(room_5x6x4, tr, mic_std, cut_cfg)
        assert len(cut) < len(full)
        reach = 343.0 * 0.02
        for sp in cut:
            assert image_distance(sp, tr.positions[0], mic_std, room_5x6x4) <= reach

    @staticmethod
    def culled_one_by_one(room, traj, mic, cfg):
        reach = cfg.sound_speed * cfg.t60
        start = traj.positions[0]
        return [
            sp
            for sp in enumerate_images(room, cfg.max_order)
            if image_distance(sp, start, mic, room) <= reach
        ]

    @pytest.mark.parametrize(
        "max_order, t60",
        # the benchmark scenes: far_field and brute_force, dense_images
        [(3, None), (8, 0.07)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_scenes_keep_what_a_per_image_cull_keeps(
        self, max_order, t60, seed, room_5x6x4, mic_std
    ):
        direction = np.random.default_rng(seed).normal(size=3)
        spec = TrajectorySpec(
            kind="sine",
            duration=1.0,
            bandwidth_limit=2.0,
            speed_max=1.0,
            direction=tuple(direction),
        )
        tr = generate(spec, RATE, room_5x6x4)
        cfg = SynthesisConfig(max_order=max_order, order_split=1, t60=t60)
        got = select_images(room_5x6x4, tr, mic_std, cfg)
        if t60 is None:
            assert got == enumerate_images(room_5x6x4, max_order)
        else:
            assert got == self.culled_one_by_one(room_5x6x4, tr, mic_std, cfg)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(*[st.floats(1.0, 12.0)] * 3),
        mic_at=st.tuples(*[st.floats(0.01, 0.99)] * 3),
        start_at=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        max_order=st.integers(0, 7),
        t60=st.floats(0.001, 0.2),
    )
    def test_keeps_what_a_per_image_cull_keeps(
        self, dims, mic_at, start_at, max_order, t60
    ):
        room = Room(dims=np.array(dims), wall_reflection=0.8)
        mic = MicPosition(pos=np.array(mic_at) * room.dims)
        tr = static_traj(np.array(start_at) * room.dims, 2)
        cfg = SynthesisConfig(max_order=max_order, t60=t60)
        got = select_images(room, tr, mic, cfg)
        assert got == self.culled_one_by_one(room, tr, mic, cfg)


class TestCostReport:
    def test_naive_count_medium_room(self):
        cfg = SynthesisConfig(audio_rate=16000.0, order_split=1, decimation=3200)
        rep = cost_report(cfg, 45000, 1.0)
        assert rep["naive_evals"] == 45000 * 16000
        assert rep["naive_evals"] == pytest.approx(7.2e8)

    def test_reduction_factor_for_high_orders(self):
        cfg = SynthesisConfig(audio_rate=16000.0, order_split=1, decimation=3200)
        rep = cost_report(cfg, 45000, 1.0)
        assert rep["high_order_reduction"] >= 100.0
        assert rep["images_low"] == 7  # direct + six first-order mirrors
        assert rep["images_high"] == 45000 - 7

    def test_accepts_spec_list(self, room_5x6x4):
        cfg = SynthesisConfig(order_split=1, decimation=3200, max_order=2)
        images = enumerate_images(room_5x6x4, 2)
        rep = cost_report(cfg, images, 2.0)
        assert rep["images_total"] == len(images)
        assert rep["images_low"] == 7
        assert rep["samples"] == 32000
        assert rep["grid_step"] == 400
        nodes = -(-32000 // 400) + 3  # grid nodes, ghosts included
        want = 7 * 32000 + (len(images) - 7) * nodes
        assert rep["hierarchical_evals"] == want
        assert rep["restored_samples"] == 2 * (len(images) - 7) * 32000
        assert rep["accumulated_samples"] == len(images) * 32000

    def test_n1_has_no_reduction(self):
        cfg = SynthesisConfig(order_split=1, decimation=1)
        rep = cost_report(cfg, 1000, 1.0)
        assert rep["hierarchical_evals"] == rep["naive_evals"]
        assert rep["restored_samples"] == 0
        assert rep["accumulated_samples"] == 1000 * 16000
