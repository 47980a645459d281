import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from moverb import farrow, io_formats
from moverb.io_formats import (
    CONFIG_KEYS,
    engine_config_from_table,
    parse_config_text,
    read_filter,
    read_trajectory,
    read_wav,
    write_filter,
    write_trajectory,
    write_wav,
)
from moverb._kernels import distance_streams, mic_distances
from moverb.room import Room, as_arrays, estimate_image_count
from moverb.synth import SynthesisConfig, cost_report, prepare_streams
from moverb.trajectory import Trajectory, TrajectorySpec, generate, restore_cubic

from conftest import sine

RATE = 16000.0


SRC = str(pathlib.Path(io_formats.__file__).parents[1])
README = pathlib.Path(__file__).parents[1] / "README.md"


def box(*dims):
    """A room the CLI builds from --room: only its box is read."""
    return Room(dims=np.array(dims, dtype=float), wall_reflection=1.0)


def assert_same_path(got, want):
    assert got.rate == want.rate
    assert got.positions.tobytes() == want.positions.tobytes()


def assert_same_bank(got, want):
    assert got.passband == want.passband
    assert got.branches.tobytes() == want.branches.tobytes()


def run_cli(*args, cwd=None):
    """The CLI in a fresh interpreter that imports moverb from this tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "moverb.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def modules_loaded_by_import(names):
    """The given modules that a fresh `import moverb` leaves in sys.modules."""
    code = (
        "import sys, moverb; "
        f"print(sorted(m for m in {names!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestColdStart:
    def test_import_leaves_scipy_submodules_unloaded(self):
        # scipy's signal, interpolate and io load on first use, not at import
        names = ("scipy.signal", "scipy.interpolate", "scipy.io")
        assert modules_loaded_by_import(names) == "[]"

    def test_import_leaves_thread_pool_unloaded(self):
        # concurrent.futures (which pulls in logging) loads only when a
        # render runs on more than one worker
        assert modules_loaded_by_import(("concurrent.futures", "logging")) == "[]"


class TestWavRoundTrip:
    def test_float_round_trip(self, tmp_path):
        x = sine(440.0, 0.1, RATE) * 0.8
        path = tmp_path / "a.wav"
        write_wav(path, RATE, x)
        rate, y = read_wav(path)
        assert rate == RATE
        assert y.shape == x.shape
        assert np.max(np.abs(y - x)) < 1e-6  # float32 quantization

    def test_rejects_non_1d(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(tmp_path / "b.wav", RATE, np.zeros((10, 2)))

    @pytest.mark.parametrize(
        "dtype, low, high",
        [
            (np.uint8, 0, 255),
            (np.int16, -(2**15), 2**15 - 1),
            (np.int32, -(2**31), 2**31 - 1),
            (np.float32, -1.0, np.nextafter(np.float32(1.0), np.float32(0.0))),
        ],
    )
    def test_extreme_codes_read_inside_unit_range(self, tmp_path, dtype, low, high):
        path = tmp_path / "x.wav"
        wavfile.write(path, int(RATE), np.array([low, high, low], dtype=dtype))
        rate, y = read_wav(path)
        assert rate == RATE and y.dtype == np.float64
        assert y[0] == -1.0 and y[2] == -1.0
        assert -1.0 < y[1] < 1.0
        assert y[1] >= 1.0 - 2.0 ** -7  # one step below full scale, 8 bits or more


class TestTrajectoryFile:
    def test_round_trip(self, tmp_path):
        pos = np.random.default_rng(0).uniform(0.5, 3.5, size=(50, 3))
        tr = Trajectory(rate=250.0, positions=pos)
        path = tmp_path / "t.txt"
        write_trajectory(path, tr)
        back = read_trajectory(path)
        assert back.rate == 250.0
        assert np.allclose(back.positions, pos, atol=1e-12)

    def test_header_format(self, tmp_path):
        tr = Trajectory(rate=125.0, positions=np.zeros((3, 3)))
        path = tmp_path / "t.txt"
        write_trajectory(path, tr)
        first = path.read_text().splitlines()[0]
        assert first == "rate_hz=125"

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            read_trajectory(path)

    def test_nan_rate_raises(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("rate_hz=nan\n1 2 3\n")
        with pytest.raises(ValueError, match="rate"):
            read_trajectory(path)


class TestFilterFile:
    def test_round_trip_preserves_response(self, tmp_path, filt):
        path = tmp_path / "f.txt"
        write_filter(path, filt)
        back = read_filter(path)
        assert back.poly_order == filt.poly_order
        assert back.branch_len == filt.branch_len
        assert back.nominal_delay == filt.nominal_delay
        assert np.allclose(back.branches, filt.branches, atol=1e-15)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_round_trip_keeps_every_designed_shape(self, tmp_path, order):
        for taps in range(order + 1, 13):
            f = farrow.design(order, taps, 0.7)
            write_filter(tmp_path / "f.txt", f)
            back = read_filter(tmp_path / "f.txt")
            want = (order, taps, (taps - 1) // 2, 0.7)
            for bank in (f, back):
                got = (bank.poly_order, bank.branch_len, bank.nominal_delay)
                assert (*got, bank.passband) == want
            assert back.branches.tobytes() == f.branches.tobytes()

    @pytest.mark.parametrize("alpha", ["5.0", "nan"])
    def test_passband_outside_the_band_raises(self, tmp_path, filt, alpha):
        # a passband past Nyquist would make quality_summary read past it
        path = tmp_path / "f.txt"
        write_filter(path, filt)
        lines = path.read_text().splitlines()
        lines[0] = f"3 8 {alpha}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="passband"):
            read_filter(path)

    def test_significant_digits(self, tmp_path, filt):
        path = tmp_path / "f.txt"
        write_filter(path, filt)
        rows = path.read_text().splitlines()[1:]
        for row in rows:
            for token in row.split():
                digits = token.replace("-", "").replace(".", "").split("e")[0]
                # small exact values may print short; real coefficients must
                # carry at least 12 significant digits
                if abs(float(token)) > 1e-8:
                    assert len(digits.lstrip("0")) >= 12, token

    def test_header_line(self, tmp_path, filt):
        path = tmp_path / "f.txt"
        write_filter(path, filt)
        head = path.read_text().splitlines()[0].split()
        assert head[0] == "3" and head[1] == "8"
        assert float(head[2]) == 0.8

    def test_shape_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 8 0.8\n1 2 3\n")
        with pytest.raises(ValueError):
            read_filter(path)


class TestConfigParsing:
    def test_comments_and_whitespace(self):
        table = parse_config_text(
            """
            # a comment
            room.dims = 5 6 4

            mic.pos=1.25 2.6 2.75   # trailing note
            synth.rate = 16000
            """
        )
        assert table["room.dims"] == "5 6 4"
        assert table["mic.pos"] == "1.25 2.6 2.75"

    def test_engine_config_requires_room_and_mic(self):
        with pytest.raises(ValueError):
            engine_config_from_table({"synth.rate": "16000"})

    def test_engine_config_full(self):
        table = parse_config_text(
            """
            room.dims = 5 6 4
            room.reflection = 0.9
            mic.pos = 1.25 2.6 2.75
            traj.kind = sine
            traj.duration = 2
            traj.bandwidth = 2
            traj.speed = 1
            synth.rate = 16000
            synth.N = 3200
            synth.K = 1
            synth.max_order = 2
            farrow.M = 3
            farrow.L = 8
            farrow.alpha = 0.8
            """
        )
        cfg = engine_config_from_table(table)
        assert cfg.synth.decimation == 3200
        assert cfg.synth.order_split == 1
        assert cfg.room.dims[1] == 6.0
        spec = TrajectorySpec("sine", 2.0, 2.0, 1.0)
        assert_same_path(cfg.traj, generate(spec, RATE, cfg.room))
        assert_same_bank(cfg.filt, farrow.design(3, 8, 0.8))

    def test_traj_margin_fills_the_spec(self):
        # the spline's knots keep the margin from the walls, so it moves
        base = "room.dims = 5 6 4\nmic.pos = 1 2 2\ntraj.kind = waypoint-spline\n"
        cfg = engine_config_from_table(parse_config_text(base + "traj.margin = 0.5\n"))
        want = generate(TrajectorySpec("waypoint-spline", margin=0.5), RATE, cfg.room)
        assert_same_path(cfg.traj, want)
        default = engine_config_from_table(parse_config_text(base)).traj
        assert default.positions.tobytes() != want.positions.tobytes()
        with pytest.raises(ValueError, match="^margin must be finite"):
            engine_config_from_table(parse_config_text(base + "traj.margin = nan\n"))

    def test_synth_defaults_are_the_engine_defaults(self):
        table = parse_config_text("room.dims = 5 6 4\nmic.pos = 1 2 2\n")
        cfg = engine_config_from_table(table)
        assert cfg.synth == SynthesisConfig()
        want = generate(TrajectorySpec(), SynthesisConfig().audio_rate, cfg.room)
        assert_same_path(cfg.traj, want)
        assert_same_bank(cfg.filt, farrow.design())

    def test_traj_file_resolves_to_the_files_path(self, tmp_path, room_5x6x4):
        traj = generate(TrajectorySpec("circle", 0.25, seed=5), RATE, room_5x6x4)
        write_trajectory(tmp_path / "t.txt", traj)
        base = f"room.dims = 5 6 4\nmic.pos = 1 2 2\ntraj.file = {tmp_path / 't.txt'}\n"
        # the file wins over recipe keys, but every key is still checked
        cfg = engine_config_from_table(parse_config_text(base + "traj.kind = sine\n"))
        assert_same_path(cfg.traj, read_trajectory(tmp_path / "t.txt"))
        with pytest.raises(ValueError, match="^margin must be finite"):
            engine_config_from_table(parse_config_text(base + "traj.margin = nan\n"))

    def test_farrow_file_resolves_to_the_files_bank(self, tmp_path):
        write_filter(tmp_path / "f.txt", farrow.design(2, 6, 0.7, grid=32))
        table = parse_config_text(
            f"room.dims = 5 6 4\nmic.pos = 1 2 2\nfarrow.file = {tmp_path / 'f.txt'}\n"
            "farrow.M = 9\n"  # a recipe key the file overrides
        )
        assert_same_bank(engine_config_from_table(table).filt, read_filter(tmp_path / "f.txt"))

    def test_empty_file_keys_fall_back_to_the_recipe(self):
        table = parse_config_text(
            "room.dims = 5 6 4\nmic.pos = 1 2 2\ntraj.file =\nfarrow.file =\n"
        )
        cfg = engine_config_from_table(table)
        assert_same_path(cfg.traj, generate(TrajectorySpec(), RATE, cfg.room))
        assert_same_bank(cfg.filt, farrow.design())

    def test_readme_config_parses(self):
        # the README's config section: its example block resolves, and every
        # key its prose names is one the parser reads
        text = README.read_text()
        section = text[text.index("Config files are flat") :]
        section = section[: section.index("\n## ")]
        block = section.split("```")[1]
        assert "room.dims" in block
        engine_config_from_table(parse_config_text(block))
        named = set(re.findall(r"`((?:room|mic|traj|synth|farrow)\.\w+)`", section))
        assert named and named <= CONFIG_KEYS

    def test_six_wall_reflections(self):
        table = parse_config_text(
            "room.dims = 5 6 4\n"
            "room.reflection = 0.5 0.6 0.7 0.8 0.9 0.95\n"
            "mic.pos = 1 2 2\n"
        )
        cfg = engine_config_from_table(table)
        assert np.allclose(
            cfg.room.wall_reflection, [0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        )

    @pytest.mark.parametrize(
        "line", ["synth.modulate = source", "synth.n = 1"], ids=["removed", "typo"]
    )
    def test_unknown_key_raises_naming_it(self, line):
        table = parse_config_text(f"room.dims = 5 6 4\nmic.pos = 1 2 2\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"unknown config key.*{key}"):
            engine_config_from_table(table)

    def test_wrong_reflection_count_raises(self):
        table = parse_config_text(
            "room.dims = 5 6 4\nroom.reflection = 0.9 0.8\nmic.pos = 1 2 2\n"
        )
        with pytest.raises(ValueError):
            engine_config_from_table(table)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a config, an input wav and a trajectory file."""
    d = tmp_path_factory.mktemp("cli")
    x = sine(440.0, 1.0, RATE) * 0.5
    write_wav(d / "in.wav", RATE, x)
    (d / "engine.cfg").write_text(
        "room.dims = 5 6 4\n"
        "room.reflection = 0.9\n"
        "mic.pos = 1.25 2.6 2.75\n"
        "traj.kind = sine\n"
        "traj.duration = 1\n"
        "traj.bandwidth = 2\n"
        "traj.speed = 1\n"
        "synth.rate = 16000\n"
        "synth.N = 3200\n"
        "synth.K = 1\n"
        "synth.max_order = 1\n"
        "farrow.M = 3\n"
        "farrow.L = 8\n"
        "farrow.alpha = 0.8\n"
    )
    return d


class TestCliDesign:
    def test_design_writes_and_reports(self, tmp_path):
        out = tmp_path / "filt.txt"
        r = run_cli("design", "--M", 3, "--L", 8, "--alpha", 0.8, "--out", out)
        assert r.returncode == 0, r.stderr
        assert "ripple" in r.stdout
        f = read_filter(out)
        assert f.branches.shape == (4, 8)

    def test_design_bad_order_exits_2(self, tmp_path):
        r = run_cli("design", "--M", 9, "--L", 8, "--alpha", 0.8, "--out", tmp_path / "f.txt")
        assert r.returncode == 2
        assert "invalid" in r.stderr.lower()

    def test_default_is_the_library_default(self, tmp_path):
        r = run_cli("design", "--out", tmp_path / "cli.txt")
        assert r.returncode == 0, r.stderr
        write_filter(tmp_path / "lib.txt", farrow.design())
        assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()

    def test_linear_interpolator(self, tmp_path):
        out = tmp_path / "lin.txt"
        r = run_cli("design", "--M", 1, "--L", 2, "--alpha", 0.01, "--out", out)
        assert r.returncode == 0
        f = read_filter(out)
        assert np.allclose(f.branches, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-6)


class TestCliTrajectory:
    def test_generates_and_reports(self, tmp_path):
        out = tmp_path / "traj.txt"
        r = run_cli(
            "trajectory",
            "--kind", "sine", "--duration", 0.5, "--bandwidth", 2,
            "--speed", 1, "--rate", 16000, "--room", "5 6 4", "--out", out,
        )
        assert r.returncode == 0, r.stderr
        assert "bandwidth_hz=" in r.stdout
        assert "max_speed=" in r.stdout
        tr = read_trajectory(out)
        assert len(tr) == 8000

    def test_default_is_the_library_default(self, tmp_path):
        r = run_cli("trajectory", "--out", tmp_path / "cli.txt")
        assert r.returncode == 0, r.stderr
        rate = SynthesisConfig().audio_rate
        write_trajectory(tmp_path / "lib.txt", generate(TrajectorySpec(), rate, box(5, 6, 4)))
        assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()

    @pytest.mark.parametrize(
        "option, value", [("--rate", "inf"), ("--rate", "nan"), ("--margin", "nan")]
    )
    def test_non_finite_input_exits_2_without_writing(self, tmp_path, option, value):
        # --rate inf ended in an OverflowError traceback, --rate nan failed
        # converting NaN to an integer, and --margin nan wrote a path
        out = tmp_path / "traj.txt"
        r = run_cli("trajectory", "--kind", "sine", option, value, "--out", out)
        assert r.returncode == 2, r.stderr
        assert f"{option[2:]} must be finite" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["trajectory", "cost"])
    @pytest.mark.parametrize("room", ["5 x 4", "5 6", "5 6 nan"])
    def test_a_bad_room_exits_2_naming_it(self, tmp_path, command, room):
        # "5 x 4" ended with float()'s message alone, "5 6" with Room's
        # "dims must be a 3-vector": neither named --room
        out = tmp_path / "traj.txt"
        args = ("--out", out) if command == "trajectory" else ()
        r = run_cli(command, "--room", room, *args)
        assert r.returncode == 2, r.stderr
        assert f"--room {room!r}" in r.stderr
        assert r.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_a_negative_seed_exits_2_naming_it(self, tmp_path):
        # numpy refused it with "expected non-negative integer"
        out = tmp_path / "traj.txt"
        r = run_cli("trajectory", "--seed", -1, "--out", out)
        assert r.returncode == 2, r.stderr
        assert "seed must be an integer >= 0" in r.stderr
        assert not out.exists()

    def test_has_no_reflection_option(self, tmp_path):
        # generate reads only the room's box, so wall reflections change nothing
        out = tmp_path / "traj.txt"
        r = run_cli("trajectory", "--reflection", 0.2, "--out", out)
        assert r.returncode == 2
        assert "--reflection" in r.stderr
        assert not out.exists()


class TestCliSimulate:
    @pytest.mark.parametrize("mode", ["hierarchical", "oracle", "splice", "static"])
    def test_modes_run(self, workdir, mode):
        out = workdir / f"out_{mode}.wav"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", workdir / "in.wav", "--out", out, "--mode", mode,
        )
        assert r.returncode == 0, r.stderr
        rate, y = read_wav(out)
        assert rate == RATE
        assert y.size > 16000
        assert np.max(np.abs(y)) > 0

    def test_missing_config_exits_3(self, workdir):
        r = run_cli(
            "simulate", "--config", workdir / "nope.cfg",
            "--in", workdir / "in.wav", "--out", workdir / "x.wav",
        )
        assert r.returncode == 3

    def test_missing_input_exits_3(self, workdir):
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", workdir / "nope.wav", "--out", workdir / "x.wav",
        )
        assert r.returncode == 3

    def test_unknown_config_key_exits_2(self, workdir):
        cfg = workdir / "typo.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + "synth.n = 1\n")
        r = run_cli(
            "simulate", "--config", cfg,
            "--in", workdir / "in.wav", "--out", workdir / "x.wav",
        )
        assert r.returncode == 2
        assert "synth.n" in r.stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("room.reflection", "0.9 x"),
            ("mic.pos", "1.25 2.6 y"),
            ("traj.seed", "abc"),
            ("traj.direction", "1 a 2"),
            ("synth.N", "2.5"),
            ("farrow.M", "x"),
        ],
    )
    def test_unparsed_value_exits_2_naming_its_key(self, workdir, key, value):
        # each ended with Python's message alone, naming neither
        cfg = workdir / f"unparsed_{key}.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + f"{key} = {value}\n")
        out = workdir / f"unparsed_{key}.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2, r.stderr
        assert f"{key} = {value!r}" in r.stderr
        assert not out.exists()

    def test_nan_d_min_exits_2_without_writing(self, workdir):
        cfg = workdir / "nan.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + "synth.d_min = nan\n")
        out = workdir / "nan.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2
        assert "d_min" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_duration_exits_2_without_writing(self, workdir, value):
        cfg = workdir / f"duration_{value}.cfg"
        text = (workdir / "engine.cfg").read_text()
        cfg.write_text(text.replace("traj.duration = 1", f"traj.duration = {value}"))
        out = workdir / f"duration_{value}.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2, r.stderr
        assert "duration" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, key", [("traj.direction = 1 2", "direction"), ("traj.start = 9 9 9", "start")]
    )
    def test_a_bad_pin_exits_2_naming_it(self, workdir, line, key):
        # a 2-vector direction ended in numpy's broadcast error, and a sine
        # path rendered with exit 0 ignoring its start
        cfg = workdir / f"pin_{key}.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + line + "\n")
        out = workdir / f"pin_{key}.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2, r.stderr
        assert key in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["static", "splice"])
    def test_nan_input_exits_2_without_writing(self, workdir, mode):
        # both modes wrote a WAV with a run of NaN samples
        x = sine(440.0, 0.125, RATE) * 0.5
        x[1000] = np.nan
        dry = workdir / f"nan_in_{mode}.wav"
        write_wav(dry, RATE, x)
        out = workdir / f"nan_out_{mode}.wav"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", dry, "--out", out, "--mode", mode,
        )
        assert r.returncode == 2, r.stderr
        assert "input must be finite" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5", "nan"])
    def test_bad_hop_rate_exits_2_naming_it(self, workdir, value):
        # 0 divided by zero, -5 rendered 1-sample blocks, nan failed
        # converting NaN to an integer
        out = workdir / f"hop_{value}.wav"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg", "--in", workdir / "in.wav",
            "--out", out, "--mode", "splice", "--hop-hz", value,
        )
        assert r.returncode == 2, r.stderr
        assert "--hop-hz must be finite and > 0" in r.stderr
        assert not out.exists()

    def test_subnormal_hop_rate_exits_2_naming_it(self, workdir):
        # its hop, audio_rate / hop_hz, overflowed to inf and ended in an
        # OverflowError traceback
        out = workdir / "hop_subnormal.wav"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg", "--in", workdir / "in.wav",
            "--out", out, "--mode", "splice", "--hop-hz", "5e-324",
        )
        assert r.returncode == 2, r.stderr
        assert "--hop-hz" in r.stderr
        assert not out.exists()

    def test_filter_file_past_nyquist_exits_2(self, workdir, filt):
        bank = workdir / "wide.txt"
        write_filter(bank, filt)
        lines = bank.read_text().splitlines()
        bank.write_text("\n".join(["3 8 5.0", *lines[1:]]) + "\n")
        cfg = workdir / "wide.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + f"farrow.file = {bank}\n")
        out = workdir / "wide.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2
        assert "passband" in r.stderr
        assert not out.exists()

    def test_budget_refusal_exits_4(self, workdir):
        cfg = workdir / "huge.cfg"
        cfg.write_text(
            "room.dims = 9 10 9\n"
            "room.reflection = 0.9\n"
            "mic.pos = 1.25 2.6 2.75\n"
            "traj.kind = sine\n"
            "traj.duration = 1\n"
            "traj.bandwidth = 2\n"
            "traj.speed = 1\n"
            "synth.rate = 16000\n"
            "synth.N = 1\n"
            "synth.max_order = 30\n"
            "synth.budget = 1e6\n"
            "farrow.M = 3\n"
            "farrow.L = 8\n"
            "farrow.alpha = 0.8\n"
        )
        r = run_cli(
            "simulate", "--config", cfg, "--mode", "oracle",
            "--in", workdir / "in.wav", "--out", workdir / "x.wav",
        )
        assert r.returncode == 4
        assert "budget" in r.stderr.lower()

    @pytest.mark.parametrize("budget, code", [("111999", 4), ("112000", 0)])
    @pytest.mark.parametrize("dump", [False, True])
    def test_every_render_is_held_to_the_budget(self, workdir, budget, code, dump):
        # 7 images x 16000 samples at N = 1 is 112000 evaluations; the
        # hierarchical mode rendered and wrote its WAV whatever the budget
        cfg = workdir / f"budget_{budget}.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + f"synth.budget = {budget}\n")
        out, csv = (workdir / f"budget_{budget}_{dump}.{ext}" for ext in ("wav", "csv"))
        extra = ("--dump-image", 1, "--dump-csv", csv) if dump else ()
        r = run_cli(
            "simulate", "--config", cfg, "--mode", "hierarchical", "--N", 1,
            "--in", workdir / "in.wav", "--out", out, *extra,
        )
        assert r.returncode == code, r.stderr
        if code == 4:
            assert "render needs 1.12e+05 distance evaluations" in r.stderr
            assert r.stdout == ""
        assert out.exists() == (code == 0)
        assert csv.exists() == (code == 0 and dump)

    def test_a_negative_seed_exits_2_naming_it(self, workdir):
        cfg = workdir / "seed.cfg"
        cfg.write_text((workdir / "engine.cfg").read_text() + "traj.seed = -1\n")
        out = workdir / "seed.wav"
        r = run_cli(
            "simulate", "--config", cfg, "--in", workdir / "in.wav", "--out", out,
        )
        assert r.returncode == 2, r.stderr
        assert "seed must be an integer >= 0" in r.stderr
        assert not out.exists()

    def test_image_debug_dump(self, workdir):
        csv = workdir / "img.csv"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", workdir / "in.wav", "--out", workdir / "y.wav",
            "--dump-image", 2, "--dump-csv", csv,
        )
        assert r.returncode == 0, r.stderr
        lines = csv.read_text().splitlines()
        assert lines[0] == "n,d_i,tau_i,A_i"
        assert len(lines) == 16001
        row = lines[1].split(",")
        assert len(row) == 4
        d = float(row[1])
        tau = float(row[2])
        assert tau == pytest.approx(RATE * d / 343.0, rel=1e-9)

    def test_oracle_dump_holds_exact_far_distances(self, workdir, room_5x6x4, mic_std):
        # the oracle renders every row exactly, so its dump of a far row is
        # the exact distance, not one restored from grid nodes
        traj = generate(TrajectorySpec("sine", 0.5, 2.0, 1.0, seed=3), RATE, room_5x6x4)
        write_trajectory(workdir / "oracle_traj.txt", traj)
        cfg = workdir / "oracle.cfg"
        cfg.write_text(
            "room.dims = 5 6 4\n"
            "room.reflection = 0.9\n"
            f"mic.pos = {' '.join(map(str, mic_std.pos))}\n"
            f"traj.file = {workdir / 'oracle_traj.txt'}\n"
            "synth.rate = 16000\n"
            "synth.N = 3200\n"
            "synth.K = 1\n"
            "synth.max_order = 2\n"
        )
        csv = workdir / "oracle_img.csv"
        r = run_cli(
            "simulate", "--config", cfg, "--mode", "oracle",
            "--in", workdir / "in.wav", "--out", workdir / "oracle.wav",
            "--dump-image", 20, "--dump-csv", csv,
        )
        assert r.returncode == 0, r.stderr
        streams = prepare_streams(
            traj, room_5x6x4, mic_std, SynthesisConfig(max_order=2, decimation=1)
        )
        spec = streams.specs[20]
        assert spec.order == 2  # a far image
        offset, sign, _, _ = as_arrays([spec], room_5x6x4)
        want = distance_streams(offset, sign, mic_std.pos, traj.positions)[0]
        got = [line.split(",")[1] for line in csv.read_text().splitlines()[1:]]
        assert got == [f"{v:.12g}" for v in want]

    @pytest.mark.parametrize("index", [999, -1])
    def test_dump_of_a_missing_image_exits_2_without_writing(self, workdir, index):
        # the WAV was rendered and written before the index was checked
        out, csv = workdir / f"missing_{index}.wav", workdir / f"missing_{index}.csv"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", workdir / "in.wav", "--out", out,
            "--dump-image", index, "--dump-csv", csv,
        )
        assert r.returncode == 2, r.stderr
        assert "image index out of range" in r.stderr
        assert r.stdout == ""
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("mode", ["splice", "static"])
    def test_dump_of_a_frozen_source_exits_2(self, workdir, mode):
        out = workdir / f"frozen_{mode}.wav"
        r = run_cli(
            "simulate", "--config", workdir / "engine.cfg",
            "--in", workdir / "in.wav", "--out", out, "--mode", mode,
            "--dump-image", 0, "--dump-csv", workdir / "frozen.csv",
        )
        assert r.returncode == 2
        assert "freezes the source" in r.stderr
        assert not out.exists()


class TestImageDebugDump:
    def test_far_row_gain_is_the_restored_gain_nodes(
        self, tmp_path, room_5x6x4, mic_std
    ):
        # the engine restores a far row's gain from its gain nodes; the gain
        # of the restored distance differs from that by the cubic's error
        # on a 1 / d curve
        cfg = SynthesisConfig(max_order=3, decimation=3200)
        spec = TrajectorySpec("sine", 2.0, 2.0, 1.0, seed=7)
        traj = generate(spec, RATE, room_5x6x4)
        streams = prepare_streams(traj, room_5x6x4, mic_std, cfg)
        *exact, rows = streams.parts
        n_exact = sum(p.q.shape[0] for p in exact)
        assert rows.table is not None and streams.image_count() > n_exact
        csv = tmp_path / "img.csv"
        for i in (n_exact, streams.image_count() - 1):
            io_formats.write_image_debug_csv(csv, streams, i, cfg)
            got = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 3]
            j = i - n_exact
            nodes = mic_distances(rows.q[j : j + 1], rows.positions)[0]
            gain = streams.specs[i].beta / (4.0 * np.pi) / np.maximum(nodes, cfg.d_min)
            want = restore_cubic(gain, rows.table, np.empty(streams.length))
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)


class TestCliCompareAndCost:
    def test_compare_report(self, workdir):
        a = workdir / "out_hierarchical.wav"
        b = workdir / "out_oracle.wav"
        if not (a.exists() and b.exists()):
            pytest.skip("simulate outputs missing")
        rep_path = workdir / "rep.txt"
        csv_path = workdir / "cmp.csv"
        r = run_cli(
            "compare", a, b, "--report", rep_path, "--csv", csv_path,
        )
        assert r.returncode == 0, r.stderr
        assert "snr_db=" in r.stdout
        table = io_formats.read_config(rep_path)
        assert "snr_db" in table
        assert "envelope_max_jump" in table
        header = csv_path.read_text().splitlines()[0]
        assert header == "n,envelope,inst_freq"

    @pytest.mark.parametrize("bad", ["a", "b"])
    def test_compare_refuses_a_nan_sample(self, workdir, bad):
        # it printed snr_db=200.000 and exited 0
        x = sine(440.0, 0.25, RATE) * 0.5
        clean, dirty = workdir / "cmp_clean.wav", workdir / "cmp_nan.wav"
        write_wav(clean, RATE, x)
        x[1000] = np.nan
        write_wav(dirty, RATE, x)
        r = run_cli("compare", *((dirty, clean) if bad == "a" else (clean, dirty)))
        assert r.returncode == 2, r.stderr
        assert "signals must be finite" in r.stderr
        assert r.stdout == ""

    def test_compare_missing_file_exits_3(self, workdir):
        r = run_cli("compare", workdir / "in.wav", workdir / "missing.wav")
        assert r.returncode == 3

    def test_cost_prints_counts(self):
        r = run_cli("cost", "--t60", 0.6, "--room", "9 10 9")
        assert r.returncode == 0, r.stderr
        lines = dict(
            line.split("=", 1) for line in r.stdout.splitlines() if "=" in line
        )
        naive = float(lines["naive_evals"])
        assert naive == pytest.approx(7.2e8, rel=0.15)
        assert float(lines["images_total"]) == pytest.approx(45000, rel=0.5)
        assert float(lines["high_order_reduction"]) >= 100.0

    def test_cost_default_is_the_library_default(self):
        r = run_cli("cost")
        assert r.returncode == 0, r.stderr
        cfg = SynthesisConfig()
        images = estimate_image_count(box(9, 10, 9), 0.6, c=cfg.sound_speed)
        report = cost_report(cfg, images, 1.0)
        assert r.stdout == "".join(f"{k}={v}\n" for k, v in report.items())

    @pytest.mark.parametrize(
        "args",
        [("--duration", -1, "--images", 100), ("--duration", "inf"), ("--images", -5)],
    )
    def test_cost_refuses_out_of_range_inputs(self, args):
        r = run_cli("cost", *args)
        assert r.returncode == 2
        assert "invalid" in r.stderr.lower()
        assert r.stdout == ""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_cost_refuses_non_finite_t60_naming_it(self, value):
        r = run_cli("cost", "--t60", value)
        assert r.returncode == 2
        assert "t60" in r.stderr
        assert r.stdout == ""

    def test_cost_with_explicit_image_count(self):
        r = run_cli("cost", "--images", 45000, "--duration", 1.0)
        assert r.returncode == 0
        lines = dict(
            line.split("=", 1) for line in r.stdout.splitlines() if "=" in line
        )
        assert int(lines["naive_evals"]) == 45000 * 16000
        assert int(lines["grid_step"]) == 400
        # delay and gain restored per far image and sample; all accumulated
        assert int(lines["restored_samples"]) == 2 * (45000 - 7) * 16000
        assert int(lines["accumulated_samples"]) == 45000 * 16000


class TestCliUsage:
    def test_no_args_exits_2(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_subcommand_exits_2(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2
