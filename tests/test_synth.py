import concurrent.futures
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moverb import _kernels, farrow, synth, trajectory
from moverb.reference import compare, full_rate_moving_oracle, static_rir
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


def reference_farthest_corner(q, positions):
    """q's largest distance to the eight corners of the positions' box, frozen here."""
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    x, y, z = zip(lo, hi)
    corners = np.array([[a, b, c] for a in x for b in y for c in z])
    return reference_distance_row(q, corners).max()


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
    """Samples start .. start + n - 1 of a node row, frozen here.

    One plain product per 64-interval tile from node 0, then sliced to
    the range.
    """
    step = table.shape[1]
    window = np.arange(64)[:, None] + np.arange(4)
    tiles = []
    for a in range(0, start + n, 64 * step):
        frames = nodes[np.minimum(window + a // step, nodes.size - 1)]
        tiles.append((frames @ table).ravel())
    return np.concatenate(tiles)[start : start + n]


def reference_accumulate_restored(out, streams, delay, gain, table, d0, start, length):
    """The far-row kernel as plain whole-row expressions, frozen here.

    Each row is restored over the path's length samples and holds its
    value at sample length - 1 past them. Returns the largest restored
    delay in the range and each row's delay and gain at sample length - 1.
    """
    n = out.shape[0]
    top, last = -np.inf, np.empty((delay.shape[0], 2))
    for i in range(delay.shape[0]):
        tau = reference_restore(delay[i], table, 0, length)
        g = reference_restore(gain[i], table, 0, length)
        last[i] = tau[-1], g[-1]
        tau, g = edge_padded(tau, start + n)[start:], edge_padded(g, start + n)[start:]
        top = max(top, tau.max())
        reference_accumulate_delayed(out, streams, tau, g, d0, start)
    return top, last


def row_by_row(terms):
    """row_terms' blocks of rows, one image row at a time."""
    for taus, gains in terms:
        yield from zip(taus, gains)


def assert_held(part, scale, d_min, start, n, length, last):
    """Row terms from sample length - 1 on hold last's delay and gain, bit for bit."""
    held = slice(max(length - 1 - start, 0), None)
    terms = row_by_row(_kernels.row_terms(part, scale, d_min, start, start + n, length))
    for (tau, g), (x, a) in zip(terms, last):
        assert same_bits(tau[held], np.full(n, x)[held])
        assert same_bits(g[held], np.full(n, a)[held])


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
            branches=rng.standard_normal((order + 1, taps)), passband=0.8
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
        n_branches = int(rng.integers(2, 6))
        stream_len = int(rng.integers(40, 2500))
        n = int(rng.integers(1, 2000))
        rows = int(rng.integers(1, 6))
        streams = rng.standard_normal((n_branches, stream_len))
        start = step * int(rng.integers(0, 4 * 64))  # any grid interval
        d0 = int(rng.integers(0, 20))
        scale = float(rng.uniform(5.0, 50.0))  # samples per meter
        d_min = float(rng.uniform(0.01, 0.3))
        # the path ends at or past the range's end, inside the range, or
        # before it starts; past its end a row holds its last value
        ends = seed // 3 % 3
        if ends == 0:
            length = start + n + int(rng.integers(0, 3 * step))
        elif (ends == 1 and n > 1) or start == 0:
            length = start + int(rng.integers(1, max(n, 2)))
        else:
            length = int(rng.integers(1, start + 1))
        # the range's last sample on the path, counted from start (< 0 when
        # the path ends before it); the samples after it hold its delay
        t_h = min(n, length - start) - 1
        # as many nodes as the path's grid has, or fewer (the last one holds)
        k = int(rng.integers((length - 1) // step + 2, -(-length // step) + 4))
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
            tau0 = start + d0 - read - slope * min(t_h, 0)
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
            tau0 = start + n - 1 + d0 - read - slope * t_h
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
            want, streams, delay, gain, table, d0, start, length
        )
        got = init.copy()
        part = _kernels.Rows(q, coef, path, table)
        top = _kernels.accumulate_rows(
            got, guarded(streams), start + d0 + 1, part, scale, d_min, start,
            length, (0.0, np.inf),
        )
        assert same_bits(got, want)
        assert top == want_top
        assert_held(part, scale, d_min, start, n, length, want_last)

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
        # a straight path over the range; its first `on` samples lie on the
        # path, which ends with the range, inside it, or (ends == 2) before
        # it starts, and the rest hold the path's last sample
        t = np.arange(n)[:, None]
        pos = rng.uniform(0.0, 6.0, size=3) + rng.uniform(-1e-3, 1e-3, size=3) * t
        ends = seed // 4 % 3
        on = n if ends == 0 else 1
        if ends == 1 and n > 1:
            on = int(rng.integers(1, n))
        pos[on:] = pos[on - 1]
        # the first row's mirrored mic lies on the path, so its distance
        # passes through 0 and inside d_min (at the last sample when
        # kind == 1); the second starts over 5 m away
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
        # the path runs from sample 0; a read of its samples ahead of start,
        # or (ends == 2) ahead of its last one, would carry their NaNs into
        # the sum
        if ends == 2 and start > 0:
            length = int(rng.integers(1, start + 1))
        else:
            length = start + on
        path = np.concatenate([np.full((length - on, 3), np.nan), pos[:on]])
        got = init.copy()
        part = _kernels.Rows(q, coef, path)
        top = _kernels.accumulate_rows(
            got, guarded(streams), start + d0 + 1, part, scale, d_min, start,
            length, (0.0, np.inf),
        )
        assert same_bits(got, want)
        # rounding is monotone, so the largest delay is the largest distance's
        assert top == want_top * scale
        assert_held(part, scale, d_min, start, n, length, want_last)

    @pytest.mark.parametrize("block", [1, 3000, 2**14])
    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_hold_each_rows_terms_alone(self, block, seed, monkeypatch):
        # a part's 7 rows go in blocks of ROW_BLOCK // n rows: one at a
        # time, a few that do not divide 7, or all of them; each block row
        # holds the terms of its row formed alone, on the path or past
        # its end, exact or restored
        rng = np.random.default_rng(600 + seed)
        step = (1, 5)[seed % 2]
        length = int(rng.integers(1, 800))
        path = rng.uniform(0.0, 6.0, size=3) + rng.uniform(-1e-3, 1e-3, size=(length, 3))
        positions = path if step == 1 else decimate(Trajectory(RATE, path), step).positions
        table = None if step == 1 else lagrange_table(step)
        q = rng.uniform(-20.0, 20.0, size=(7, 3))
        coef = rng.uniform(0.01, 0.1, size=7)
        part = _kernels.Rows(q, coef, positions, table)
        start = (step * int(rng.integers(0, -(-length // step))), length + 37)[seed // 2 % 2]
        n = int(rng.integers(1, 1000))
        monkeypatch.setattr(_kernels, "ROW_BLOCK", block)
        size = max(1, min(block // max(n, 2 * step), 7))
        i = 0
        for taus, gains in _kernels.row_terms(part, 20.0, 0.05, start, start + n, length):
            assert taus.shape == gains.shape == (min(size, 7 - i), n)
            for tau, g in zip(taus, gains):
                row = _kernels.Rows(q[i : i + 1], coef[i : i + 1], positions, table)
                alone = next(_kernels.row_terms(row, 20.0, 0.05, start, start + n, length))
                assert same_bits(tau, alone[0][0]) and same_bits(g, alone[1][0]), i
                i += 1
        assert i == 7

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
        start = int(rng.integers(0, n + 300))
        stop = max(start, n) + int(rng.integers(1, 300))
        part = _kernels.Rows(q, attenuation(beta, 1.0), pos)
        d = np.array([reference_distance_row(qi, pos[-1:])[0] for qi in q])
        want = attenuation(beta, np.maximum(d, d_min))
        assert want[0] == attenuation(beta[0], d_min)
        held = max(n - 1 - start, 0)
        terms = row_by_row(_kernels.row_terms(part, 20.0, d_min, start, stop, n))
        for (_, g), a in zip(terms, want):
            assert same_bits(g[held:], np.full(stop - start - held, a))


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
            # a NaN d_min would render all-NaN audio, a NaN t60 would cull
            # every image, and a NaN budget would lift the oracle's cap
            *(
                {name: value}
                for name in ("audio_rate", "sound_speed", "d_min", "t60")
                for value in (float("nan"), float("inf"))
            ),
            {"eval_budget": float("nan")},
            # counts are whole numbers: a fractional max_order reached
            # enumerate_images and raised TypeError there
            {"max_order": 2.5},
            {"order_split": 1.5},
            {"workers": 1.5},
            *({name: float("inf")} for name in ("decimation", "max_order", "workers")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("decimation", "3"),
            ("eval_budget", "1e9"),
            ("audio_rate", "16000"),
            ("t60", "0.5"),
            ("max_order", None),
            ("workers", True),
            ("max_order", True),
            ("order_split", False),
            ("d_min", np.bool_(True)),
        ],
    )
    def test_refuses_what_is_not_a_real_number(self, name, value):
        # a string ended in TypeError from a comparison, and a bool count
        # was taken for 1 or 0
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            SynthesisConfig(**{name: value})

    def test_numpy_reals_pass(self):
        cfg = SynthesisConfig(
            audio_rate=np.float64(8000.0), max_order=np.int64(2), t60=np.float32(0.5),
            eval_budget=np.int64(10**9),
        )
        assert (cfg.audio_rate, cfg.max_order) == (8000.0, 2)

    def test_infinite_budget_means_no_cap(self):
        assert SynthesisConfig(eval_budget=float("inf")).eval_budget == float("inf")

    @pytest.mark.parametrize("kind", [float, np.int64])
    @pytest.mark.parametrize("name", ["decimation", "order_split", "max_order", "workers"])
    def test_whole_counts_are_stored_as_int(self, name, kind, filt, room_5x6x4, mic_std):
        # a whole float max_order passed the check, then raised TypeError
        # in enumerate_images, and a float order_split in cost_report
        base = SynthesisConfig(max_order=2, order_split=1, decimation=200, workers=2)
        cfg = replace(base, **{name: kind(getattr(base, name))})
        assert type(getattr(cfg, name)) is int
        assert cfg == base
        tr = moving_traj(4000, duration=0.25)
        x = np.random.default_rng(4).standard_normal(len(tr))
        for run in (render, full_rate_moving_oracle):
            got = run(x, tr, room_5x6x4, mic_std, filt, cfg)
            assert same_bits(got, run(x, tr, room_5x6x4, mic_std, filt, base))
        at = tr.positions[0]
        got = static_rir(room_5x6x4, at, mic_std, cfg)
        assert same_bits(got, static_rir(room_5x6x4, at, mic_std, base))
        images = enumerate_images(room_5x6x4, 2)
        for count in (100, images):
            assert cost_report(cfg, count, 0.25) == cost_report(base, count, 0.25)


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
    nodes = _kernels.mic_distances(part.q[j : j + 1], part.positions)[0]
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
    # chunk lengths are rounded up to whole grid intervals: 800, 30000
    # and 10**9 at N=3200 (h=400), so these give 70, 2 and 1 chunks
    # over 3.5 s, each starting at a grid interval; at N=2 and N=1 they
    # stay 700, 30000 and 10**9
    CHUNKS = (700, 30000, 10**9)
    # (TILE_SAMPLES, ROW_BLOCK) pairs: at h = 400, tiles of one grid
    # interval in blocks of 20 restored rows, which do not divide the 56
    # of max_order 3 past order 1; tiles of 12 intervals in blocks of 3
    # rows, which divide neither part's row count (7 and 56); tiles of 3
    # intervals in one-row blocks; one tile per chunk. At N=2 and N=1 the
    # tiles stay 300, 5000, 1300 and 10**9 samples long.
    TILINGS = ((300, 2**14), (5000, 2**14), (1300, 1), (10**9, 2**14))

    def tilings(self, monkeypatch):
        """Each tiling in turn, set for the walk."""
        for tile, block in self.TILINGS:
            monkeypatch.setattr(synth, "TILE_SAMPLES", tile)
            monkeypatch.setattr(_kernels, "ROW_BLOCK", block)
            yield tile, block

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
            for tiling in self.tilings(monkeypatch):
                got = synthesize(x, streams, filt, cfg)
                assert np.array_equal(got, want), f"chunk {chunk}, {tiling} changed bits"

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

    # (path samples, input samples, CHUNK_SAMPLES) of walks whose pieces
    # meet the path's end in different ways; every chunk is whole grid
    # intervals at N=3200 (h=400), and the delay span is about 900 samples
    WALKS = {
        # pieces from 2400 on lie wholly past the path's end
        "pieces_past_the_end": (2000, 8000, 1200),
        # the last piece, 8800 .. ~8940, is shorter than the delay span
        "short_last_piece": (8000, 8000, 4400),
        # the path ends inside 2400 .. 3200; its tail crosses 3200 and 4000
        "tail_across_chunks": (3000, 4000, 800),
        "one_sample_path": (1, 3000, 800),
        "path_longer_than_the_output": (12000, 6000, 1600),
    }

    @pytest.mark.parametrize("factor", [3200, 2, 1])
    @pytest.mark.parametrize("case", WALKS)
    def test_the_walk_covers_the_whole_output(
        self, case, factor, filt, room_5x6x4, mic_std, monkeypatch
    ):
        t_len, n, chunk = self.WALKS[case]
        tr = moving_traj(t_len, duration=t_len / RATE, seed=21)
        cfg = SynthesisConfig(max_order=3, decimation=factor)
        x = np.random.default_rng(22).standard_normal(n)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        lower, upper = synth._delay_bounds(streams.parts, RATE / cfg.sound_speed)
        size = max(t_len, n + math.ceil(upper) + filt.branch_len)  # the walk's span
        if case == "pieces_past_the_end":
            assert size - t_len > 2 * chunk
        if case == "short_last_piece":
            assert 0 < size % chunk < upper - lower and size > chunk
        if case == "tail_across_chunks":
            assert t_len % chunk and size > (t_len // chunk + 2) * chunk
        want = whole_array_render(x, streams, filt, cfg)
        assert (want.size < t_len) == (case == "path_longer_than_the_output")
        for samples in (chunk, 10**9):
            monkeypatch.setattr(synth, "CHUNK_SAMPLES", samples)
            for tiling in self.tilings(monkeypatch):
                for workers in (1, 2, 3):
                    got = synthesize(x, streams, filt, replace(cfg, workers=workers))
                    assert np.array_equal(got, want), (samples, tiling, workers)

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
        render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n
        # whole-array streams took 405 MB here: four (63, 160k) float64 arrays;
        # a job that copied its path window or restored whole last tiles
        # took 4.04 MB, one that restored in 64-interval tiles of chunks
        # of 25600 samples 3.40 MB, one that read its whole chunk's branch
        # window one row at a time 2.66 MB; half-chunk tiles and blocks of
        # rows take 2.32 MB
        assert peak < 2.45, f"peak {peak:.2f} MB"

    def test_short_path_under_long_audio_peaks_as_a_whole_path(
        self, filt, room_5x6x4, mic_std
    ):
        # past the path's end rows hold their last values in the same
        # chunk-long scratch as on it, so a 1 s path under 10 s of audio
        # holds no tail-long array (11.74 MB against 2.66 MB for a 10 s path
        # when the tail was rendered in one pass)
        n = 10 * 16000
        x = np.random.default_rng(24).standard_normal(n)
        cfg = SynthesisConfig(max_order=3)
        peaks = {}
        for seconds in (1.0, 10.0):
            tr = moving_traj(int(seconds * RATE), duration=seconds)
            render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
            y, peaks[seconds] = traced_peak_mb(
                lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
            )
            assert y.size > n
        assert peaks[1.0] <= 1.1 * peaks[10.0], peaks
        assert peaks[1.0] < 3.0, peaks

    def test_order3_ten_second_exact_render_peak_memory(
        self, filt, room_5x6x4, mic_std
    ):
        # every row exact: each job adds into its slice of the output from
        # one block of scratch rows, never a group of per-row arrays,
        # reading the path's axes where they lie (3.04 MB with a copy of
        # each chunk's path window, 2.64 MB with chunk-long windows and
        # rows, 2.31 MB with half-chunk tiles and blocks of rows)
        n = 10 * 16000
        tr = moving_traj(n, duration=10.0)
        x = np.random.default_rng(9).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, decimation=1)
        render(x, tr, room_5x6x4, mic_std, filt, cfg)  # warm-up
        y, peak = traced_peak_mb(
            lambda: render(x, tr, room_5x6x4, mic_std, filt, cfg)
        )
        assert y.size > n
        assert peak < 2.45, f"peak {peak:.2f} MB"

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
        # 2.82 MB with chunks of 25600 samples, whole 64-interval tiles
        assert peak < 2.4, f"peak {peak:.2f} MB"

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
        self, room_5x6x4, mic_std
    ):
        # the walk covers the whole output: a 1 s path and its tail, 17129
        # samples here, are one piece, which renders on the calling thread
        # at any worker count, so the peak is fixed (about 1.19 MB): one
        # tile's branch window, 8000 samples plus the delay span, and one
        # block of scratch rows, about 16k row-samples (1.57 MB when the
        # job read its whole piece's window one row at a time).
        # Each peak is taken in a fresh process, where tracemalloc sees no
        # thread left behind by another test.
        tr = moving_traj(16000, duration=1.0, seed=12)
        cfg = SynthesisConfig(max_order=8, order_split=2, t60=0.07)
        assert len(select_images(room_5x6x4, tr, mic_std, cfg)) > 400
        code = textwrap.dedent(
            """
            import sys
            import tracemalloc

            import numpy as np
            from moverb import farrow
            from moverb.room import MicPosition, Room
            from moverb.synth import SynthesisConfig, render
            from moverb.trajectory import TrajectorySpec, generate

            room = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.9))
            mic = MicPosition(pos=np.array([1.25, 2.6, 2.75]))
            spec = TrajectorySpec(
                kind="sine", duration=1.0, bandwidth_limit=2.0, speed_max=1.0, seed=12
            )
            tr = generate(spec, 16000.0, room)
            x = np.random.default_rng(13).standard_normal(16000)
            cfg = SynthesisConfig(
                max_order=8, order_split=2, t60=0.07, workers=int(sys.argv[1])
            )
            filt = farrow.design(3, 8, 0.8)
            render(x, tr, room, mic, filt, cfg)  # warm-up
            tracemalloc.start()
            render(x, tr, room, mic, filt, cfg)
            print(tracemalloc.get_traced_memory()[1] / 1e6)
            """
        )
        src = str(pathlib.Path(_kernels.__file__).parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        peaks = {}
        for workers in (1, 2):
            done = subprocess.run(
                [sys.executable, "-c", code, str(workers)], capture_output=True,
                text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            peaks[workers] = float(done.stdout)
            assert peaks[workers] < 1.4, f"peak {peaks[workers]:.2f} MB"
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

    def test_a_last_piece_shorter_than_the_delay_span_builds_no_thread_pool(
        self, filt, room_5x6x4, mic_std, monkeypatch
    ):
        # a 1 s input's output runs a few hundred samples past one chunk
        # (16400 samples at h = 400); those join the chunk, so the render
        # is one job on the calling thread
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk render built a thread pool")

        n = 16000
        tr = moving_traj(n, duration=1.0, seed=25)
        x = np.random.default_rng(26).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, workers=2)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        lower, upper = synth._delay_bounds(streams.parts, RATE / cfg.sound_speed)
        size = n + math.ceil(upper) + filt.branch_len
        assert 16400 < size < 16400 + upper - lower
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert synthesize(x, streams, filt, cfg).size > n


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
        part = _kernels.Rows(q, coef, positions, table)
        length = (k - 3) * step if restored else k
        streams = DelayStreams(list(range(rows)), max(length, 1), (part,))
        lower, upper = synth._delay_bounds((part,), scale)
        for i in range(rows):
            tau, _ = streams.terms(i, scale, 0.05)
            assert lower <= tau.min() and tau.max() <= upper, (i, lower, upper)

    @pytest.mark.parametrize("seed", range(20))
    def test_upper_bound_is_the_farthest_corner(self, seed):
        # the farther face on each axis gives the largest of the box's eight
        # corner distances, bit for bit; on a quarter-meter grid (even
        # seeds) a mirrored mic often lies as far from both faces
        rng = np.random.default_rng(1350 + seed)
        k = int(rng.integers(1, 50))
        if seed % 2 == 0:
            positions = rng.integers(0, 24, size=(k, 3)) / 4.0
            q = rng.integers(-40, 64, size=(40, 3)) / 4.0
        else:
            positions = rng.uniform(0.0, 6.0, size=3) + rng.uniform(-1.0, 1.0, (k, 3))
            q = rng.uniform(-20.0, 26.0, size=(40, 3))
        scale = float(rng.uniform(5.0, 50.0))
        for qi in q:
            part = _kernels.Rows(qi[None], np.array([0.01]), positions)
            _, upper = synth._delay_bounds((part,), scale)
            assert upper == reference_farthest_corner(qi, positions) * scale, qi

    def test_the_restored_bounds_are_reached(self):
        # node delays lo, hi, hi, lo peak at hi + (hi - lo) / 8 at the middle
        # interval's midpoint, and hi, lo, lo, hi dip to lo - (hi - lo) / 8:
        # the cubic's weights at phase 1/2 are -1/16, 9/16, 9/16, -1/16
        step, scale = 400, 16000.0 / 343.0
        x = np.array([0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0, 0.0])
        positions = np.column_stack([1.0 + x, np.full(8, 2.0), np.full(8, 1.5)])
        q = np.array([[-3.0, 2.0, 1.5]])  # on the path's line, 4 to 6 m away
        part = _kernels.Rows(q, np.array([0.01]), positions, lagrange_table(step))
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

    def test_the_first_row_out_of_bounds_raises_before_its_block_is_read(
        self, monkeypatch
    ):
        # rows in blocks of two: the fourth row lies far beyond the upper
        # bound, so the second block raises naming its delays, after the
        # first block is added and before the second is read
        rng = np.random.default_rng(26)
        n = 500
        path = rng.uniform(2.0, 3.0, size=3) + rng.uniform(-1e-3, 1e-3, size=(n, 3))
        q = path[0] + rng.uniform(-1.0, 1.0, size=(5, 3))
        q[3] += 40.0
        coef = np.full(5, 0.1)
        part = _kernels.Rows(q, coef, path)
        monkeypatch.setattr(_kernels, "ROW_BLOCK", 2 * n)
        scale = 20.0
        tau = [_kernels.Rows(q[i : i + 1], coef[:1], path) for i in range(5)]
        tau = [next(_kernels.row_terms(r, scale, 0.05, 0, n, n))[0][0] for r in tau]
        bounds = (0.0, max(t.max() for t in tau[:3]) + 1.0)
        window = np.zeros((4, 2 * n + 200))
        window[0, 1:-1] = 1.0  # reads 1 at any fraction
        out = np.zeros(n)
        message = (
            f"delays {tau[3].min()} .. {float(tau[3].max())} leave the bounds "
            f"{bounds[0]} .. {bounds[1]} the branch window was cut for"
        )
        with pytest.raises(RuntimeError, match=re.escape(message)):
            _kernels.accumulate_rows(out, window, n + 100, part, scale, 0.05, 0, n, bounds)
        # the first block's two rows, at gain coef / d, were added
        first = sum(0.1 / (t / scale) for t in tau[:2])
        assert np.allclose(out, first, rtol=1e-12)


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
    """N sets only the grid step: far rows are restored at any clip length."""

    @pytest.mark.parametrize("n", [16000, 1600])
    def test_decimation_past_the_grid_step_changes_no_bits(
        self, n, filt, room_5x6x4, mic_std
    ):
        # every N >= 400 is h = 400, on a clip longer or shorter than N
        tr = moving_traj(n, duration=n / RATE, seed=14)
        x = np.random.default_rng(15).standard_normal(n)
        cfg = SynthesisConfig(max_order=3)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=400))
        for factor in (3200, 10**6):
            got = render(
                x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=factor)
            )
            assert got.tobytes() == want.tobytes(), f"decimation {factor}"

    @pytest.mark.parametrize("kind", ["sine", "line", "circle"])
    @pytest.mark.parametrize("n", [1, 10, 100, 399, 400, 800, 3200])
    def test_short_clip_is_restored_and_matches_the_exact_render(
        self, n, kind, filt, room_5x6x4, mic_std
    ):
        # a clip shorter than one grid interval is restored through the
        # ghost nodes, measured as TestWholeClipFidelity measures
        spec = TrajectorySpec(
            kind=kind, duration=n / RATE, bandwidth_limit=2.0, speed_max=1.0, seed=n
        )
        tr = generate(spec, RATE, room_5x6x4)
        x = np.random.default_rng(n).standard_normal(n)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        assert any(p.table is not None for p in streams.parts)
        got = synthesize(x, streams, filt, cfg)
        want = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, decimation=1))
        assert got.size == want.size
        interior = (filt.branch_len + 0.5) / min(got.size, want.size)
        rep = compare(got, want, rate=RATE, interior=interior)
        assert rep.snr_db >= 40.0, f"{rep.snr_db:.1f} dB"

    def test_cost_report_counts_short_clip_far_rows_at_grid_nodes(self, room_5x6x4):
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        images = enumerate_images(room_5x6x4, 3)
        short = cost_report(cfg, images, 0.05)  # 800 samples, 2 grid intervals
        assert short["grid_step"] == 400
        far = short["images_high"]
        assert short["hierarchical_evals"] == 7 * 800 + far * (2 + 3)
        assert short["restored_samples"] == 2 * far * 800


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

    @pytest.mark.parametrize("amplitude", [0.2e-3, 0.45e-3])
    def test_motion_at_the_node_rate_is_refused(self, amplitude, monkeypatch):
        # a 40 Hz wobble on a 0.15 m/s line crosses zero at every grid node
        # (40 Hz at h = 400) and at every interval midpoint; the quarter
        # points see its peaks
        room = Room(dims=np.array([6.0, 5.0, 3.0]), wall_reflection=np.full(6, 0.9))
        mic = MicPosition(pos=np.array([1.5, 2.0, 1.4]))
        t = np.arange(2 * int(RATE)) / RATE
        pos = np.empty((t.size, 3))
        pos[:, 0] = 2.0 + 0.15 * t + amplitude * np.sin(2.0 * np.pi * 40.0 * t)
        pos[:, 1], pos[:, 2] = 2.5, 1.5
        tr = Trajectory(rate=RATE, positions=pos)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        with monkeypatch.context() as patch:
            patch.setattr(synth, "DELAY_ERROR_BUDGET", 1.0)
            streams = prepare_streams(tr, room, mic, cfg)
        e = sum(p.q.shape[0] for p in streams.parts if p.table is None)
        offset, sign, _, _ = as_arrays(streams.specs[e:], room)
        exact = _kernels.distance_streams(offset, sign, mic.pos, pos)
        worst = max(
            float(np.abs(streams.row(e + i) - exact[i]).max())
            for i in range(exact.shape[0])
        )
        worst *= RATE / cfg.sound_speed
        assert worst > synth.DELAY_ERROR_BUDGET  # 0.0119 and 0.0269 samples
        with pytest.raises(ValueError, match="lower decimation below 400") as refused:
            prepare_streams(tr, room, mic, cfg)
        # the probed worst, printed to 3 digits, within 2% of the true worst
        reported = float(str(refused.value).split()[3])
        assert 0.98 * worst <= reported <= 1.005 * worst, (reported, worst)

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

    @pytest.mark.parametrize("n", [100, 800, 16000, 24123, 32000])
    def test_counts_what_the_engine_restores(
        self, n, filt, room_5x6x4, mic_std, monkeypatch
    ):
        # every restore_cubic call of a render, summed: chunks are whole
        # grid intervals, so each row and signal restores ceil(n / h) of
        # them at any chunk length, the last one whole
        restore, sizes = trajectory.restore_cubic, []

        def counted(nodes, table, out):
            sizes.append(out.size)
            return restore(nodes, table, out)

        monkeypatch.setattr(trajectory, "restore_cubic", counted)
        tr = moving_traj(n, duration=n / RATE)
        cfg = SynthesisConfig(max_order=3, order_split=1, decimation=3200)
        images = select_images(room_5x6x4, tr, mic_std, cfg)
        render(np.ones(n), tr, room_5x6x4, mic_std, filt, cfg)
        rep = cost_report(cfg, images, n / RATE)
        intervals = -(-n // rep["grid_step"])
        want = 2 * rep["images_high"] * intervals * rep["grid_step"]
        assert rep["restored_samples"] == want
        assert sum(sizes) == want

    @pytest.mark.parametrize("images", [100, [], None])
    def test_rejects_out_of_range_duration(self, room_5x6x4, images):
        cfg = SynthesisConfig()
        images = enumerate_images(room_5x6x4, 1) if images is None else images
        for duration in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duration"):
                cost_report(cfg, images, duration)

    def test_rejects_negative_image_count(self):
        with pytest.raises(ValueError, match="image count"):
            cost_report(SynthesisConfig(), -5, 1.0)
        assert cost_report(SynthesisConfig(), 0, 1.0)["naive_evals"] == 0

    def test_n1_has_no_reduction(self):
        cfg = SynthesisConfig(order_split=1, decimation=1)
        rep = cost_report(cfg, 1000, 1.0)
        assert rep["hierarchical_evals"] == rep["naive_evals"]
        assert rep["restored_samples"] == 0
        assert rep["accumulated_samples"] == 1000 * 16000

    @pytest.mark.parametrize("kind", [np.int64, np.int32])
    def test_a_numpy_integer_is_a_count(self, kind):
        # a numpy integer was taken for a spec list: len() raised TypeError
        for cfg in (SynthesisConfig(), SynthesisConfig(decimation=1, order_split=0)):
            rep = cost_report(cfg, kind(100), 1.0)
            assert rep == cost_report(cfg, 100, 1.0)
            assert type(rep["images_total"]) is int
        with pytest.raises(ValueError, match="image count"):
            cost_report(SynthesisConfig(), kind(-5), 1.0)

    @pytest.mark.parametrize(
        "max_order, order_split, decimation, seconds, t60",
        # the benchmark scenes: far_field, brute_force, dense_images
        [(3, 1, 3200, 10.0, None), (3, 1, 1, 10.0, None), (8, 2, 3200, 1.0, 0.07)],
    )
    def test_hierarchical_evals_is_the_streams_eval_count(
        self, max_order, order_split, decimation, seconds, t60, room_5x6x4, mic_std
    ):
        # the count the budget is checked against, before any stream is
        # built, is the count the streams stand for
        spec = TrajectorySpec(
            kind="sine", duration=seconds, bandwidth_limit=2.0, speed_max=1.0,
            direction=(0.3, -0.8, 0.5),
        )
        tr = generate(spec, RATE, room_5x6x4)
        cfg = SynthesisConfig(
            max_order=max_order, order_split=order_split, decimation=decimation, t60=t60
        )
        images = select_images(room_5x6x4, tr, mic_std, cfg)
        # with no cull select_images counts the images without listing them
        count = len(images) if t60 is None else images
        streams = prepare_streams(tr, room_5x6x4, mic_std, cfg)
        rep = cost_report(cfg, count, len(tr) / RATE)
        assert rep["hierarchical_evals"] == streams.eval_count


class TestBudget:
    @pytest.mark.parametrize(
        "max_order, order_split, t60", [(3, 1, None), (8, 2, 0.07)]
    )
    def test_a_render_refuses_above_its_eval_count_and_renders_at_it(
        self, max_order, order_split, t60, filt, room_5x6x4, mic_std
    ):
        # a hierarchical render ran unchecked whatever eval_budget was
        tr = moving_traj(4000, seed=5)
        x = np.random.default_rng(6).standard_normal(len(tr))
        cfg = SynthesisConfig(max_order=max_order, order_split=order_split, t60=t60)
        evals = prepare_streams(tr, room_5x6x4, mic_std, cfg).eval_count
        y = render(x, tr, room_5x6x4, mic_std, filt, replace(cfg, eval_budget=evals))
        assert np.array_equal(y, render(x, tr, room_5x6x4, mic_std, filt, cfg))
        over = replace(cfg, eval_budget=evals - 1)
        with pytest.raises(synth.BudgetError, match=re.escape(f"needs {evals:.3g} distance")):
            render(x, tr, room_5x6x4, mic_std, filt, over)
        with pytest.raises(synth.BudgetError):
            prepare_streams(tr, room_5x6x4, mic_std, over)

    def test_the_static_references_are_held_to_it(self, room_5x6x4, mic_std):
        # a static response is a render over a one-sample path
        src = np.array([0.8, 4.1, 2.75])
        cfg = SynthesisConfig(max_order=3, decimation=1, eval_budget=62)
        with pytest.raises(synth.BudgetError, match="needs 63 distance"):
            static_rir(room_5x6x4, src, mic_std, cfg)
        static_rir(room_5x6x4, src, mic_std, replace(cfg, eval_budget=63))
