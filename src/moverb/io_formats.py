"""File formats: WAV audio, trajectory tables, filter matrices, flat
key-value configs, comparison reports, and debug CSV dumps.

All text formats are plain ASCII, diff-friendly, and round-trip exactly at
the stated precision.
"""

from dataclasses import dataclass

import numpy as np

from .farrow import FarrowFilter
from .reference import analytic_tracks
from .room import MicPosition, Room
from .synth import SynthesisConfig
from .trajectory import Trajectory, TrajectorySpec


# ---------------------------------------------------------------------------
# audio


def write_wav(path, rate, samples):
    """Mono 32-bit float RIFF/WAVE; float keeps quiet errors measurable."""
    x = np.asarray(samples, dtype=np.float32)
    if x.ndim != 1:
        raise ValueError("audio must be mono (1-D)")
    from scipy.io import wavfile

    wavfile.write(path, int(rate), x)


def read_wav(path):
    """Returns (rate, float64 samples in [-1, 1)); rejects multichannel files.

    Integer codes map onto [-1, 1) by the full-scale step 2^(bits - 1):
    signed formats read x / 2^(bits - 1), 8-bit (unsigned, offset 128)
    reads (x - 128) / 128. Float files pass through unscaled.
    """
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError("expected mono audio")
    if data.dtype.kind not in "iu":
        return float(rate), data.astype(np.float64)
    full_scale = 2.0 ** (8 * data.dtype.itemsize - 1)
    offset = full_scale if data.dtype.kind == "u" else 0.0
    return float(rate), (data.astype(np.float64) - offset) / full_scale


# ---------------------------------------------------------------------------
# trajectory tables


def write_trajectory(path, traj):
    """Header line rate_hz=<value>, then one x y z row per sample."""
    with open(path, "w") as fh:
        fh.write(f"rate_hz={float(traj.rate):.17g}\n")
        for row in traj.positions:
            fh.write(
                f"{float(row[0]):.17g} {float(row[1]):.17g} {float(row[2]):.17g}\n"
            )


def read_trajectory(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("rate_hz="):
            raise ValueError("trajectory file must start with rate_hz=<value>")
        rate = float(header.split("=", 1)[1])
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("trajectory rows must hold exactly x y z")
            rows.append([float(p) for p in parts])
    return Trajectory(rate=rate, positions=np.array(rows))


# ---------------------------------------------------------------------------
# filter matrices


def write_filter(path, f):
    """First line `M L alpha`, then M+1 rows of L coefficients (17 digits)."""
    with open(path, "w") as fh:
        fh.write(f"{f.poly_order} {f.branch_len} {float(f.passband):.17g}\n")
        for row in f.branches:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_filter(path):
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise ValueError("filter file must start with `M L alpha`")
        m, l_taps, alpha = int(head[0]), int(head[1]), float(head[2])
        rows = [[float(v) for v in fh.readline().split()] for _ in range(m + 1)]
    branches = np.array(rows)
    if branches.shape != (m + 1, l_taps):
        raise ValueError("filter file has the wrong coefficient shape")
    return FarrowFilter(
        poly_order=m,
        branch_len=l_taps,
        branches=branches,
        nominal_delay=(l_taps - 1) // 2,
        passband=alpha,
    )


# ---------------------------------------------------------------------------
# flat key = value config


def parse_config_text(text):
    """Flat `key = value` lines with dotted keys; # starts a comment."""
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        table[key.strip()] = value.strip()
    return table


def read_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def _floats(value):
    return [float(v) for v in value.split()]


@dataclass(frozen=True)
class EngineConfig:
    """Aggregated run description built from a config table."""

    room: Room
    mic: MicPosition
    synth: SynthesisConfig
    trajectory_spec: TrajectorySpec
    trajectory_file: str
    farrow_m: int
    farrow_l: int
    farrow_alpha: float
    farrow_grid: int
    farrow_file: str
    margin: float


# every key engine_config_from_table reads
CONFIG_KEYS = frozenset(
    """
    room.dims room.reflection mic.pos
    traj.kind traj.duration traj.bandwidth traj.speed traj.seed
    traj.direction traj.start traj.file traj.margin
    synth.rate synth.N synth.K synth.max_order synth.t60 synth.c
    synth.d_min synth.workers synth.budget
    farrow.M farrow.L farrow.alpha farrow.grid farrow.file
    """.split()
)


def engine_config_from_table(table):
    """Build typed run values from a flat config table.

    Recognized keys (CONFIG_KEYS, all optional unless noted): room.dims
    (required, three numbers), room.reflection (one or six numbers),
    mic.pos (required), traj.kind/duration/bandwidth/speed/seed/direction/
    start, traj.file, traj.margin, synth.rate/N/K/max_order/t60/c/d_min/
    workers/budget, farrow.M/L/alpha/grid, farrow.file. Any other key
    raises ValueError naming it, so a typo never falls back to a default.
    """
    unknown = sorted(set(table) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if "room.dims" not in table or "mic.pos" not in table:
        raise ValueError("config requires room.dims and mic.pos")
    reflection = _floats(table.get("room.reflection", "0.9"))
    if len(reflection) == 1:
        reflection = reflection * 6
    if len(reflection) != 6:
        raise ValueError("room.reflection needs 1 or 6 values")
    room = Room(
        dims=np.array(_floats(table["room.dims"])),
        wall_reflection=np.array(reflection),
    )
    mic = MicPosition(pos=np.array(_floats(table["mic.pos"])))
    synth = SynthesisConfig(
        audio_rate=float(table.get("synth.rate", 16000)),
        order_split=int(table.get("synth.K", 1)),
        decimation=int(table.get("synth.N", 3200)),
        max_order=int(table.get("synth.max_order", 3)),
        t60=float(table["synth.t60"]) if "synth.t60" in table else None,
        sound_speed=float(table.get("synth.c", 343.0)),
        d_min=float(table.get("synth.d_min", 0.05)),
        workers=int(table.get("synth.workers", 1)),
        eval_budget=float(table.get("synth.budget", 2.0e9)),
    )
    spec = TrajectorySpec(
        kind=table.get("traj.kind", "line"),
        duration=float(table.get("traj.duration", 2.0)),
        bandwidth_limit=float(table.get("traj.bandwidth", 2.0)),
        speed_max=float(table.get("traj.speed", 1.0)),
        seed=int(table.get("traj.seed", 0)),
        direction=tuple(_floats(table["traj.direction"]))
        if "traj.direction" in table
        else None,
        start=tuple(_floats(table["traj.start"])) if "traj.start" in table else None,
    )
    return EngineConfig(
        room=room,
        mic=mic,
        synth=synth,
        trajectory_spec=spec,
        trajectory_file=table.get("traj.file", ""),
        farrow_m=int(table.get("farrow.M", 3)),
        farrow_l=int(table.get("farrow.L", 8)),
        farrow_alpha=float(table.get("farrow.alpha", 0.8)),
        farrow_grid=int(table.get("farrow.grid", 64)),
        farrow_file=table.get("farrow.file", ""),
        margin=float(table.get("traj.margin", 0.3)),
    )


# ---------------------------------------------------------------------------
# reports and debug dumps


def write_report(path, report):
    """Flat key=value record of a ComparisonReport."""
    with open(path, "w") as fh:
        fh.write(f"snr_db={report.snr_db:.6f}\n")
        fh.write(f"envelope_max_jump={float(report.envelope_max_jump):.17g}\n")
        track = report.inst_freq_track
        if track.size:
            fh.write(f"inst_freq_mean={float(np.mean(track)):.6f}\n")
            fh.write(f"inst_freq_min={float(np.min(track)):.6f}\n")
            fh.write(f"inst_freq_max={float(np.max(track)):.6f}\n")


def read_report(path):
    with open(path) as fh:
        return parse_config_text(fh.read())


def write_compare_csv(path, a, rate):
    """Per-sample envelope and (unsmoothed, 0 at n = 0) frequency columns of a."""
    envelope, inst = analytic_tracks(np.asarray(a, dtype=np.float64), rate)
    inst = np.concatenate([[0.0], inst])
    with open(path, "w") as fh:
        fh.write("n,envelope,inst_freq\n")
        for n in range(envelope.size):
            fh.write(f"{n},{envelope[n]:.9g},{inst[n]:.9g}\n")


def write_image_debug_csv(path, streams, image_index, cfg):
    """Columns n, d_i, tau_i, A_i for one image of a stream set.

    tau_i and A_i are the delay in samples and the gain synthesize forms
    for the row (streams.terms, the row kernel's own terms):
    per sample for an exact row, restored from its grid nodes for a far
    one. d_i is the row's distance (streams.row).
    """
    if not 0 <= image_index < streams.image_count():
        raise ValueError("image index out of range")
    d = streams.row(image_index)
    tau, amp = streams.terms(image_index, cfg.audio_rate / cfg.sound_speed, cfg.d_min)
    with open(path, "w") as fh:
        fh.write("n,d_i,tau_i,A_i\n")
        for n in range(d.size):
            fh.write(f"{n},{d[n]:.12g},{tau[n]:.12g},{amp[n]:.12g}\n")
