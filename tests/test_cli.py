import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from moverb import farrow, io_formats
from moverb.io_formats import (
    engine_config_from_table,
    parse_config_text,
    read_filter,
    read_trajectory,
    read_wav,
    write_filter,
    write_trajectory,
    write_wav,
)
from moverb._kernels import distance_streams, restore_cubic
from moverb.room import as_arrays
from moverb.synth import SynthesisConfig, prepare_streams
from moverb.trajectory import Trajectory, TrajectorySpec, generate

from conftest import sine

RATE = 16000.0


SRC = str(pathlib.Path(io_formats.__file__).parents[1])


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


class TestFilterFile:
    def test_round_trip_preserves_response(self, tmp_path, filt):
        path = tmp_path / "f.txt"
        write_filter(path, filt)
        back = read_filter(path)
        assert back.poly_order == filt.poly_order
        assert back.branch_len == filt.branch_len
        assert back.nominal_delay == filt.nominal_delay
        assert np.allclose(back.branches, filt.branches, atol=1e-15)

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
        assert cfg.trajectory_spec.kind == "sine"

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
            nodes = rows.distances(slice(i - n_exact, i - n_exact + 1))[0]
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
        table = io_formats.read_report(rep_path)
        assert "snr_db" in table
        assert "envelope_max_jump" in table
        header = csv_path.read_text().splitlines()[0]
        assert header == "n,envelope,inst_freq"

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
