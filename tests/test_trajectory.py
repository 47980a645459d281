import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moverb import _kernels, io_formats, trajectory
from moverb._kernels import distance_streams
from moverb.room import Room, as_arrays, enumerate_images
from moverb.synth import high_order_distances
from moverb.trajectory import (
    Trajectory,
    TrajectorySpec,
    bandlimited_upsample,
    bandwidth_estimate,
    decimate,
    generate,
    grid_step,
    lagrange_table,
    restore_cubic,
    speed_max,
)

RATE = 16000.0


def make_room(dims=(5.0, 6.0, 4.0)):
    return Room(dims=np.array(dims, dtype=float), wall_reflection=np.full(6, 0.9))


def direct_tap_sum(nodes, factor, out_len):
    """Reference restoration: the Lagrange cubic, one pass per tap.

    Output m at phase x = (m % h) / h of grid interval m // h takes the
    four nodes m // h .. m // h + 3 (node k sits at sample (k - 1) * h),
    clamped to the last node, each weighted by its Lagrange basis
    polynomial over the tap offsets -1, 0, 1, 2.
    """
    h = grid_step(factor)
    m = np.arange(out_len)
    base, x = m // h, (m % h) / h
    taps = (-1.0, 0.0, 1.0, 2.0)
    out = np.zeros(out_len)
    for k, tk in enumerate(taps):
        weight = np.ones(out_len)
        for ti in taps:
            if ti != tk:
                weight *= (x - ti) / (tk - ti)
        out += weight * nodes[np.minimum(base + k, nodes.size - 1)]
    return out


def grid_nodes(fn, n, h):
    """Values of fn at the grid nodes that cover n samples at step h."""
    return fn(np.arange(-1, -(-n // h) + 2) * float(h))


class TestTrajectoryContainer:
    def test_basic_properties(self):
        pos = np.zeros((100, 3))
        tr = Trajectory(rate=100.0, positions=pos)
        assert len(tr) == 100
        assert tr.duration == pytest.approx(1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Trajectory(rate=100.0, positions=np.zeros((10, 2)))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Trajectory(rate=0.0, positions=np.zeros((10, 3)))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="rate"):
            Trajectory(rate=rate, positions=np.zeros((10, 3)))


ALL_KINDS = ["line", "circle", "sine", "filtered-noise", "waypoint-spline"]


class TestPathLayout:
    # a Trajectory copies its input once into axis-major storage: a
    # (3, T) array of contiguous axis rows, of which positions is the
    # read-only (T, 3) transposed view

    @pytest.fixture
    def built_from(self, monkeypatch):
        """Every positions argument a Trajectory is built from, as passed."""
        seen = []

        def record(rate, positions):
            seen.append(positions)
            return Trajectory(rate=rate, positions=positions)

        monkeypatch.setattr(trajectory, "Trajectory", record)
        monkeypatch.setattr(io_formats, "Trajectory", record)
        return seen

    @staticmethod
    def check(traj, source):
        want = np.array(source, dtype=np.float64)
        pos = traj.positions
        assert pos.shape == want.shape and np.array_equal(pos, want)
        assert not pos.flags.writeable
        with pytest.raises(ValueError):
            pos[0, 0] = 1.0
        if isinstance(source, list):
            source[0][0] += 1.0
        else:
            source[...] += 1.0
        assert np.array_equal(traj.positions, want)
        assert all(axis.flags.c_contiguous for axis in pos.T)

    def inputs(self):
        rows = np.random.default_rng(4).standard_normal((50, 3))
        wide = np.random.default_rng(5).standard_normal((100, 6))
        return {
            "list": rows.tolist(),
            "C-ordered": rows.copy(),
            "F-ordered": np.asfortranarray(rows),
            "strided slice": wide[::2, 1:4],
        }

    @pytest.mark.parametrize("kind", ["list", "C-ordered", "F-ordered", "strided slice"])
    def test_given_positions(self, kind):
        source = self.inputs()[kind]
        self.check(Trajectory(rate=RATE, positions=source), source)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_generated_positions(self, kind, built_from):
        spec = TrajectorySpec(kind, 0.5, 2.0, 1.0, seed=3)
        self.check(generate(spec, RATE, make_room()), built_from[-1])

    @pytest.mark.parametrize("factor", [2, 7, 3200])
    def test_decimated_nodes(self, factor, built_from):
        tr = generate(TrajectorySpec("sine", 0.5, 2.0, 1.0), RATE, make_room())
        self.check(decimate(tr, factor), built_from[-1])

    def test_read_trajectory(self, built_from, tmp_path):
        tr = generate(TrajectorySpec("circle", 0.1, 2.0, 1.0), RATE, make_room())
        io_formats.write_trajectory(tmp_path / "path.txt", tr)
        self.check(io_formats.read_trajectory(tmp_path / "path.txt"), built_from[-1])


class TestGenerate:
    @pytest.mark.parametrize("margin", [0.3, 0.6])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stays_inside_with_margin(self, kind, margin):
        room = make_room()
        spec = TrajectorySpec(
            kind=kind, duration=3.0, bandwidth_limit=2.0, speed_max=1.0, seed=5,
            margin=margin,
        )
        tr = generate(spec, RATE, room)
        assert len(tr) == int(3.0 * RATE)
        assert np.all(tr.positions > margin - 1e-9)
        assert np.all(tr.positions < np.array([5.0, 6.0, 4.0]) - margin + 1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_respects_speed_cap(self, kind):
        room = make_room()
        spec = TrajectorySpec(
            kind=kind, duration=3.0, bandwidth_limit=2.0, speed_max=1.0, seed=5
        )
        tr = generate(spec, RATE, room)
        assert speed_max(tr) <= 1.0 + 1e-6

    @pytest.mark.parametrize("kind", ["sine", "circle", "filtered-noise"])
    def test_respects_bandwidth(self, kind):
        room = make_room()
        spec = TrajectorySpec(
            kind=kind, duration=4.0, bandwidth_limit=2.0, speed_max=1.0, seed=5
        )
        tr = generate(spec, RATE, room)
        assert bandwidth_estimate(tr) <= 2.0 + 0.1

    def test_seed_reproducible(self):
        room = make_room()
        spec = TrajectorySpec(
            kind="filtered-noise",
            duration=2.0,
            bandwidth_limit=2.0,
            speed_max=1.0,
            seed=9,
        )
        a = generate(spec, RATE, room)
        b = generate(spec, RATE, room)
        assert np.array_equal(a.positions, b.positions)

    def test_seeds_differ(self):
        room = make_room()
        mk = lambda s: TrajectorySpec(
            kind="filtered-noise",
            duration=2.0,
            bandwidth_limit=2.0,
            speed_max=1.0,
            seed=s,
        )
        a = generate(mk(1), RATE, room)
        b = generate(mk(2), RATE, room)
        assert not np.array_equal(a.positions, b.positions)

    def test_line_is_straight_constant_speed(self):
        room = make_room()
        spec = TrajectorySpec(
            kind="line", duration=2.0, bandwidth_limit=2.0, speed_max=0.5, seed=0
        )
        tr = generate(spec, RATE, room)
        v = np.gradient(tr.positions, 1.0 / tr.rate, axis=0)
        speeds = np.linalg.norm(v, axis=1)
        inner = speeds[10:-10]
        assert np.max(inner) - np.min(inner) < 1e-6

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            TrajectorySpec(
                kind="zigzag", duration=1.0, bandwidth_limit=2.0, speed_max=1.0
            )

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            TrajectorySpec(
                kind="line", duration=0.0, bandwidth_limit=2.0, speed_max=1.0
            )

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "field", ["duration", "bandwidth_limit", "speed_max", "margin"]
    )
    def test_rejects_non_finite_values(self, field, value):
        # an infinite duration overflowed in generate, a NaN one failed
        # there converting NaN to an integer; a NaN margin passed every
        # wall test and wrote a path
        kwargs = dict(kind="line", duration=1.0, bandwidth_limit=2.0, speed_max=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrajectorySpec(**{**kwargs, field: value})

    def test_margin_too_large_raises(self):
        room = make_room(dims=(1.0, 1.0, 1.0))
        spec = TrajectorySpec(
            kind="line", duration=1.0, bandwidth_limit=2.0, speed_max=1.0, margin=0.6
        )
        with pytest.raises(ValueError, match="^margin must leave interior space"):
            generate(spec, RATE, room)

    def test_rejects_a_negative_margin(self):
        with pytest.raises(ValueError, match="^margin must be finite and >= 0"):
            TrajectorySpec("sine", 1.0, 2.0, 1.0, margin=-0.1)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), 0.0, -16000.0])
    def test_rejects_a_rate_that_is_not_finite_and_positive(self, rate):
        # an infinite rate overflowed converting the sample count to an
        # integer, a NaN one failed there; at zero bandwidth a zero or
        # negative rate passes the Nyquist check too
        spec = TrajectorySpec("sine", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="^rate must be finite and > 0"):
            generate(spec, rate, make_room())

    @pytest.mark.parametrize("bandwidth, speed", [(0.0, 1.0), (2.0, 0.0)])
    def test_a_zero_sine_direction_raises_without_motion(self, bandwidth, speed):
        # refused with the spec, before a path without motion skips it
        with pytest.raises(ValueError, match="^direction must be nonzero"):
            TrajectorySpec("sine", 1.0, bandwidth, speed, direction=(0, 0, 0))

    @pytest.mark.parametrize("field", ["direction", "start"])
    @pytest.mark.parametrize(
        "value",
        [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ((1.0, 2.0, 3.0),), (float("nan"), 0.0, 1.0),
         (float("inf"), 0.0, 0.0), ("a", "b", "c"), ((1.0,), 2.0, 3.0)],
    )
    def test_rejects_a_pin_that_is_not_three_finite_numbers(self, field, value):
        # a 2-vector ended in numpy's broadcast error, a NaN direction in
        # "line does not fit inside the room"
        with pytest.raises(ValueError, match=f"^{field} must be three finite numbers"):
            TrajectorySpec("line", 1.0, **{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, 2.0, "3", None, (1, 2)])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_0(self, seed):
        # -1 reached numpy's "expected non-negative integer", 1.5 a TypeError
        # inside generate, and True was taken for 1
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            TrajectorySpec("sine", 1.0, seed=seed)

    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    def test_a_numpy_integer_seed_is_its_int(self, kind):
        room = make_room()
        got = generate(TrajectorySpec("filtered-noise", 0.5, seed=kind(7)), RATE, room)
        want = generate(TrajectorySpec("filtered-noise", 0.5, seed=7), RATE, room)
        assert got.positions.tobytes() == want.positions.tobytes()

    def test_rejects_a_zero_line_direction(self):
        with pytest.raises(ValueError, match="^direction must be nonzero"):
            TrajectorySpec("line", 1.0, direction=(0.0, -0.0, 0.0))

    @pytest.mark.parametrize("kind", trajectory._KINDS)
    @pytest.mark.parametrize("field", ["direction", "start"])
    def test_a_pin_is_read_or_refused_by_the_kind(self, kind, field):
        # a pin the kind ignored gave the unpinned path's bytes, so a sine
        # config with traj.start = 9 9 9 rendered
        pin = {"direction": (0.0, 0.0, 1.0), "start": (2.0, 2.0, 2.0)}[field]
        if kind not in trajectory._PINNED_BY[field]:
            with pytest.raises(ValueError, match=f"^{field} is not read by a {kind} path"):
                TrajectorySpec(kind, 1.0, **{field: pin})
            return
        room = make_room()
        pinned = generate(TrajectorySpec(kind, 1.0, **{field: pin}), RATE, room)
        free = generate(TrajectorySpec(kind, 1.0), RATE, room)
        assert pinned.positions.tobytes() != free.positions.tobytes()

    @pytest.mark.parametrize("kind", ["sine", "circle", "filtered-noise"])
    @pytest.mark.parametrize("bandwidth, speed", [(0.0, 1.0), (2.0, 0.0)])
    def test_no_motion_stays_at_the_center(self, kind, bandwidth, speed):
        room = make_room()
        tr = generate(TrajectorySpec(kind, 1.0, bandwidth, speed), RATE, room)
        assert np.array_equal(tr.positions, np.tile(room.dims / 2.0, (len(tr), 1)))


def fit_displacement_by_norm(disp, center, room, margin, speed_max, rate, fired):
    """Frozen copy of the displacement fit with per-sample norm speeds.

    Adds "margin" or "speed" to `fired` when that scale applies.
    """
    span = np.max(np.abs(disp), axis=0)
    if np.any(center - span < margin) or np.any(center + span > room.dims - margin):
        allowed = np.minimum(center - margin, room.dims - margin - center)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_axis = np.where(span > 0, allowed / np.maximum(span, 1e-300), np.inf)
        scale = float(np.min(per_axis))
        if scale <= 0:
            raise ValueError("margin leaves no room for motion around the center")
        if scale < 1.0:
            fired.add("margin")
        disp = disp * min(1.0, scale)
    if len(disp) >= 2:
        speeds = np.linalg.norm(np.diff(disp, axis=0), axis=1) * rate
        vmax = float(speeds.max()) if speeds.size else 0.0
        if vmax > speed_max:
            fired.add("speed")
            if speed_max == 0:
                disp = np.zeros_like(disp)
            else:
                disp = disp * (0.999 * speed_max / vmax)
    return disp


def top_speed_by_norm(cols, rate):
    """Frozen per-sample norm form of the top speed of a (3, T) path."""
    return float((np.linalg.norm(np.diff(cols.T, axis=0), axis=1) * rate).max())


def generated(spec, room):
    """generate()'s positions, or its error message."""
    try:
        return generate(spec, RATE, room).positions
    except ValueError as err:
        return str(err)


class TestGenerateMatchesNormSpeeds:
    # (bandwidth, speed) pairs: a mild path, a wide slow one that the wall
    # margins shrink, and a fast narrow one that the speed cap slows
    SHAPES = ((2.0, 1.0), (0.5, 10.0), (4.0, 0.2))
    FIRED = {
        "line": set(),
        "circle": {"margin"},
        "sine": {"margin"},
        "filtered-noise": {"margin"},
        "waypoint-spline": {"speed"},
    }

    def test_fit_displacement_bit_identical(self):
        # random three-axis sines, wide enough that the margins often
        # shrink them and fast enough that the cap then may or may not bite
        room = make_room()
        center = room.dims / 2.0
        rng = np.random.default_rng(20)
        t = np.arange(4000) / RATE
        fired = set()
        for _ in range(40):
            amp = rng.uniform(0.1, 4.0, 3)
            freq = rng.uniform(0.5, 20.0, 3)
            disp = amp * np.sin(2 * np.pi * freq * t[:, None] + rng.uniform(0, 6, 3))
            speed = rng.uniform(1.0, 200.0)
            want = fit_displacement_by_norm(disp, center, room, 0.3, speed, RATE, fired)
            got = trajectory._fit_displacement(disp, center, room, 0.3, speed, RATE)
            assert np.array_equal(got, want)
        assert fired == {"margin", "speed"}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bit_identical(self, kind, monkeypatch):
        room = make_room()
        specs = [
            TrajectorySpec(kind, duration, bw, speed, seed)
            for duration in (0.05, 1.0, 3.0)
            for bw, speed in self.SHAPES
            for seed in (0, 1, 2)
        ]
        got = [generated(spec, room) for spec in specs]
        for pos in got:
            if not isinstance(pos, str):
                norm_top = np.linalg.norm(np.diff(pos, axis=0), axis=1).max() * RATE
                assert speed_max(Trajectory(RATE, pos)) == float(norm_top)
        fired = set()
        fit = partial(fit_displacement_by_norm, fired=fired)
        monkeypatch.setattr(trajectory, "_fit_displacement", fit)
        monkeypatch.setattr(trajectory, "_top_speed", top_speed_by_norm)
        want = [generated(spec, room) for spec in specs]
        for spec, a, b in zip(specs, got, want):
            assert type(a) is type(b), spec
            assert np.array_equal(a, b) if not isinstance(a, str) else a == b, spec
        assert fired == self.FIRED[kind]


class TestUpsample:
    def test_exact_on_constants(self):
        coarse = np.full(7, 3.25)
        out = bandlimited_upsample(coarse, 100, 650)
        assert np.allclose(out, 3.25, atol=1e-9)

    def test_identity_at_factor_one(self):
        coarse = np.arange(10.0)
        out = bandlimited_upsample(coarse, 1, 10)
        assert np.array_equal(out, coarse)

    def test_factor_one_pads_with_edge_hold(self):
        coarse = np.arange(5.0)
        out = bandlimited_upsample(coarse, 1, 8)
        assert np.array_equal(out[:5], coarse)
        assert np.all(out[5:] == coarse[-1])

    def test_reconstructs_slow_sine_interior(self):
        # a 0.25 Hz sine on the 40 Hz grid of N=3200, restored to 16 kHz
        # over the whole clip, ends included
        factor, rate, out_len = 3200, 16000.0, 256000
        wave = lambda t: np.sin(2 * np.pi * 0.25 * t / rate)  # noqa: E731
        nodes = grid_nodes(wave, out_len, grid_step(factor))
        out = bandlimited_upsample(nodes, factor, out_len)
        # cubic error bound: (h w)^4 * 3/128 = 5.6e-8 at w = 2 pi 0.25 / 16000
        assert np.max(np.abs(out - wave(np.arange(out_len)))) < 1e-7

    def test_linear_phase_no_lag(self):
        # a ramp comes back as the same ramp at every sample: the cubic
        # passes through its nodes, so no shift is introduced
        factor = 16
        ramp = lambda t: 1.0 + t / 1600.0  # noqa: E731
        out = bandlimited_upsample(grid_nodes(ramp, 1600, factor), factor, 1600)
        assert np.max(np.abs(out - ramp(np.arange(1600.0)))) < 1e-12

    @pytest.mark.parametrize("h", [2, 7, 400])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reproduces_cubic_polynomials(self, h, seed):
        n = 37 * h + 5
        c = np.random.default_rng(seed).standard_normal(4)
        poly = lambda t: np.polyval(c, t / n)  # noqa: E731
        out = bandlimited_upsample(grid_nodes(poly, n, h), h, n)
        want = poly(np.arange(n, dtype=np.float64))
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.sampled_from([2, 7, 400]),
        first=st.integers(0, 300),
        out_len=st.integers(1, 4 * 64 * 400),
        seed=st.integers(0, 2**16),
    )
    def test_interval_aligned_ranges_give_the_same_bits(self, h, first, out_len, seed):
        # a range from any grid interval; lengths reach past 64 intervals at every h
        table = lagrange_table(h)
        start = first * h
        nodes = np.random.default_rng(seed).standard_normal(-(-(start + out_len) // h) + 3)
        whole = restore_cubic(nodes, table, np.empty(start + out_len + 3 * h))
        part = restore_cubic(nodes[first:], table, np.empty(out_len))
        assert np.array_equal(part, whole[start : start + out_len])

    @pytest.mark.parametrize("h", [2, 7, 400])
    @pytest.mark.parametrize("k", [1, 2, 3, 63, 64, 65, 400])
    @pytest.mark.parametrize("short", [0, 1])
    def test_a_range_of_k_intervals_gives_the_whole_rows_bits(self, h, k, short):
        # a range that reaches k grid intervals, ending on the last one's
        # end or one sample before it, restored on its own from an interval
        # off any multiple of 64 and as part of a longer row: a range of
        # one interval still multiplies two frame rows, since a one-row
        # product rounds differently
        table = lagrange_table(h)
        nodes = np.random.default_rng(h * k).standard_normal(600)
        whole = restore_cubic(nodes, table, np.empty(597 * h))
        out_len = k * h - short
        for first in (0, 1, 37, 101, 130):
            part = restore_cubic(nodes[first:], table, np.empty(out_len))
            assert np.array_equal(part, whole[first * h : first * h + out_len]), first

    @pytest.mark.parametrize("h", [2, 7, 400])
    @pytest.mark.parametrize("k", [1, 2, 3, 20, 41])
    @pytest.mark.parametrize("short", [0, 1])
    def test_stacked_rows_give_each_rows_bits(self, h, k, short):
        # r node rows restored in one product, into rows of a wider array
        # as the row kernel's scratch is, give each row's bits restored
        # alone, at a range of one interval (two frame rows per row) and
        # of many
        rng = np.random.default_rng(h * k + short)
        table = lagrange_table(h)
        out_len = k * h - short
        for r in (1, 2, 5):
            nodes = rng.standard_normal((r, k + 3 + int(rng.integers(0, 3))))
            wide = np.full((r, out_len + 11), np.nan)
            got = restore_cubic(nodes, table, wide[:, :out_len])
            assert np.shares_memory(got, wide)
            for row, got_row in zip(nodes, wide):
                want = restore_cubic(row, table, np.empty(out_len))
                assert np.array_equal(got_row[:out_len], want)
                assert np.all(np.isnan(got_row[out_len:]))

    def test_rejects_rows_that_are_not_contiguous(self):
        table = lagrange_table(7)
        with pytest.raises(ValueError, match="contiguous"):
            restore_cubic(np.ones(5), table, np.empty(28)[::2])

    def test_ranges_match_the_whole_row_threaded_and_on_one_thread(self):
        # a 960000-sample row at h = 400 is a 2400-row product, above
        # OpenBLAS's threading threshold; restored whole and in 41-interval
        # ranges (the engine's chunks) it must give the same bits, with
        # BLAS threads left to their default and pinned to one, and so
        # must three such rows stacked in 20-interval ranges (the engine's
        # tiles), each range one product over the three rows
        code = textwrap.dedent(
            """
            import numpy as np
            from moverb.trajectory import lagrange_table, restore_cubic

            h, n, size, tile = 400, 960000, 41 * 400, 20 * 400
            table = lagrange_table(h)
            nodes = np.random.default_rng(5).standard_normal(n // h + 3)
            whole = restore_cubic(nodes, table, np.empty(n))
            parts = [
                restore_cubic(nodes[a // h :], table, np.empty(min(size, n - a)))
                for a in range(0, n, size)
            ]
            rows = np.random.default_rng(6).standard_normal((3, n // h + 3))
            rows[0] = nodes
            alone = [restore_cubic(row, table, np.empty(n)) for row in rows]
            tiles = [
                restore_cubic(rows[:, a // h :], table, np.empty((3, min(tile, n - a))))
                for a in range(0, n, tile)
            ]
            print(
                np.array_equal(np.concatenate(parts), whole)
                and np.array_equal(np.concatenate(tiles, axis=1), np.stack(alone))
            )
            """
        )
        src = str(pathlib.Path(_kernels.__file__).parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for threads in (None, "1"):
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == "True", f"OPENBLAS_NUM_THREADS={threads}"

    def test_a_short_range_allocates_less_than_eight_intervals(self):
        # 4000 samples at h = 400 are 10 grid intervals, restored in place
        table = lagrange_table(400)
        nodes = np.random.default_rng(3).standard_normal(13)
        out = np.empty(4000)
        restore_cubic(nodes, table, out)  # warm-up
        tracemalloc.start()
        try:
            restore_cubic(nodes, table, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 400, f"{peak} bytes"

    def test_frame_index_is_shared_per_shape_and_read_only(self):
        # restore_cubic builds one node index per (rows, node count) shape
        index = trajectory._frame_index(5, 6)
        assert trajectory._frame_index(5, 6) is index
        assert not index.flags.writeable
        assert np.array_equal(index, np.minimum(np.arange(5)[:, None] + np.arange(4), 5))

    def test_rejects_unaligned_start(self):
        # grid rows restore whole grid intervals, so their range starts on one
        table = lagrange_table(7)
        rows = _kernels.Rows(np.ones((1, 3)), np.ones(1), np.zeros((9, 3)), table)
        with pytest.raises(ValueError, match="grid interval"):
            _kernels.accumulate_rows(
                np.zeros(10), np.ones((2, 40)), 4, rows, 1.0, 0.1, start=3,
                length=40, bounds=(0.0, np.inf),
            )

    @pytest.mark.parametrize("factor", [2, 16, 100, 3200])
    @pytest.mark.parametrize("n_coarse", [1, 2, 9])
    @pytest.mark.parametrize("length", ["multiple", "partial", "short"])
    def test_matches_direct_tap_sum(self, factor, n_coarse, length):
        out_len = {
            "multiple": n_coarse * factor,
            "partial": n_coarse * factor + factor // 2 + 1,
            "short": max(1, factor // 2),
        }[length]
        coarse = np.random.default_rng(factor + n_coarse).standard_normal(n_coarse)
        out = bandlimited_upsample(coarse, factor, out_len)
        assert out.shape == (out_len,)
        assert np.max(np.abs(out - direct_tap_sum(coarse, factor, out_len))) <= 1e-12

    @pytest.mark.parametrize("factor", [2, 100, 1009, 3200])
    def test_samples_do_not_depend_on_out_len(self, factor):
        coarse = np.random.default_rng(factor).standard_normal(40)
        full = bandlimited_upsample(coarse, factor, 37 * factor + 5)
        for out_len in (1, factor - 1, 4 * factor + 3, 9 * factor, 30 * factor + 1):
            part = bandlimited_upsample(coarse, factor, out_len)
            assert np.array_equal(part, full[:out_len])

    def test_far_streams_equal_per_row_restoration(self, room_5x6x4, mic_std):
        spec = TrajectorySpec(
            kind="sine", duration=1.3, bandwidth_limit=2.0, speed_max=1.0, seed=2
        )
        tr = generate(spec, RATE, room_5x6x4)
        factor = 800
        coarse = decimate(tr, factor)
        images = [sp for sp in enumerate_images(room_5x6x4, 2) if sp.order == 2]
        far = high_order_distances(images, coarse, mic_std, room_5x6x4, len(tr), factor)
        offset, sign, _, _ = as_arrays(images, room_5x6x4)
        coarse_d = distance_streams(offset, sign, mic_std.pos, coarse.positions)
        for row, coarse_row in zip(far.d, coarse_d):
            assert np.array_equal(row, bandlimited_upsample(coarse_row, factor, len(tr)))


class TestDecimate:
    def test_factor_one_is_same_object(self):
        tr = Trajectory(rate=RATE, positions=np.zeros((100, 3)))
        assert decimate(tr, 1) is tr

    def test_length_and_rate(self):
        # N=3200 caps at a 400-sample grid: 80 path nodes and 3 ghosts
        tr = Trajectory(rate=RATE, positions=np.zeros((32000, 3)))
        d = decimate(tr, 3200)
        assert d.rate == pytest.approx(40.0)
        assert len(d) == 83

    @pytest.mark.parametrize("factor", [2, 7, 400, 3200])
    @pytest.mark.parametrize("n", [3, 401, 1000, 8000])
    def test_nodes_follow_the_path_and_its_constant_acceleration_extension(
        self, factor, n
    ):
        h = grid_step(factor)
        t = np.arange(n, dtype=np.float64)[:, None]
        path = lambda t: np.array([1.0, 2.0, 1.5]) + t * np.array(  # noqa: E731
            [3e-5, -1e-5, 2e-5]
        ) + t * t * np.array([2e-9, 1e-9, -3e-9])
        d = decimate(Trajectory(rate=RATE, positions=path(t)), factor)
        blocks = -(-n // h)
        assert len(d) == blocks + 3
        assert np.array_equal(d.positions[1 : blocks + 1], path(t)[::h])
        ghosts = np.array([-1, blocks, blocks + 1], dtype=np.float64)[:, None] * h
        got = d.positions[[0, blocks + 1, blocks + 2]]
        # rounding of the end samples' second difference, which the
        # extension scales by up to (2 h)^2 / 2
        tol = 8 * np.finfo(float).eps * 2.0 * (2 * h) ** 2
        assert np.max(np.abs(got - path(ghosts))) <= tol

    def test_roundtrip_preserves_smooth_path(self):
        # decimate by 3200 then upsample: a 1 Hz path survives the cubic
        # on a 400-sample grid
        n = 16 * 16000
        t = np.arange(n) / RATE
        pos = np.stack(
            [
                2.5 + 0.5 * np.sin(2 * np.pi * 1.0 * t),
                3.0 + 0.4 * np.cos(2 * np.pi * 0.5 * t),
                2.0 + 0.0 * t,
            ],
            axis=1,
        )
        tr = Trajectory(rate=RATE, positions=pos)
        d = decimate(tr, 3200)
        back = np.stack(
            [bandlimited_upsample(d.positions[:, k], 3200, n) for k in range(3)],
            axis=1,
        )
        guard = 33 * 3200
        err = np.max(np.abs(back[guard:-guard] - pos[guard:-guard]))
        assert err < 1e-3

    def test_rejects_bad_factor(self):
        tr = Trajectory(rate=RATE, positions=np.zeros((100, 3)))
        with pytest.raises(ValueError):
            decimate(tr, 0)


class TestKinematics:
    def test_speed_of_uniform_motion(self):
        n = 200
        t = np.arange(n) / 100.0
        pos = np.stack([1.0 + 0.25 * t, np.full(n, 2.0), np.full(n, 1.5)], axis=1)
        tr = Trajectory(rate=100.0, positions=pos)
        assert speed_max(tr) == pytest.approx(0.25, rel=1e-6)

    def test_bandwidth_of_pure_tone_path(self):
        n = 8 * 16000
        t = np.arange(n) / RATE
        pos = np.stack(
            [2.5 + 0.3 * np.sin(2 * np.pi * 1.5 * t), np.full(n, 3.0), np.full(n, 2.0)],
            axis=1,
        )
        tr = Trajectory(rate=RATE, positions=pos)
        bw = bandwidth_estimate(tr)
        assert 1.0 <= bw <= 2.0

    def test_static_trajectory_zero_speed_and_bandwidth(self):
        tr = Trajectory(rate=RATE, positions=np.tile([1.0, 2.0, 3.0], (1000, 1)))
        assert speed_max(tr) == 0.0
        assert bandwidth_estimate(tr) == 0.0


@given(
    factor=st.sampled_from([2, 5, 16, 64]),
    n_coarse=st.integers(40, 90),
    level=st.floats(-4.0, 4.0),
)
@settings(max_examples=20, deadline=None)
def test_upsample_constant_property(factor, n_coarse, level):
    coarse = np.full(n_coarse, level)
    out = bandlimited_upsample(coarse, factor, n_coarse * factor)
    assert np.allclose(out, level, atol=1e-9)
