"""File formats: WAV audio, trajectory tables, filter matrices, flat
key-value configs, comparison reports, and debug CSV dumps.

All text formats are plain ASCII, diff-friendly, and round-trip exactly at
the stated precision.
"""

from dataclasses import dataclass

import numpy as np

from .farrow import FarrowFilter, design
from .reference import analytic_tracks
from .room import MicPosition, Room
from .synth import SynthesisConfig
from .trajectory import Trajectory, TrajectorySpec, generate


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
    """The bank write_filter wrote; FarrowFilter checks what it holds."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise ValueError("filter file must start with `M L alpha`")
        m, l_taps, alpha = int(head[0]), int(head[1]), float(head[2])
        rows = [[float(v) for v in fh.readline().split()] for _ in range(m + 1)]
    branches = np.array(rows)
    if branches.shape != (m + 1, l_taps):
        raise ValueError("filter file has the wrong coefficient shape")
    return FarrowFilter(branches=branches, passband=alpha)


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
    return tuple(float(v) for v in value.split())


@dataclass(frozen=True)
class EngineConfig:
    """A run resolved from a config table, its path and bank included."""

    room: Room
    mic: MicPosition
    synth: SynthesisConfig
    traj: Trajectory
    filt: FarrowFilter


# each key's field in the type it fills, and its parser; an absent key
# keeps the field's default
_SYNTH_FIELDS = {
    "synth.rate": ("audio_rate", float),
    "synth.N": ("decimation", int),
    "synth.K": ("order_split", int),
    "synth.max_order": ("max_order", int),
    "synth.t60": ("t60", float),
    "synth.c": ("sound_speed", float),
    "synth.d_min": ("d_min", float),
    "synth.workers": ("workers", int),
    "synth.budget": ("eval_budget", float),
}
_TRAJ_FIELDS = {
    "traj.kind": ("kind", str),
    "traj.duration": ("duration", float),
    "traj.bandwidth": ("bandwidth_limit", float),
    "traj.speed": ("speed_max", float),
    "traj.seed": ("seed", int),
    "traj.direction": ("direction", _floats),
    "traj.start": ("start", _floats),
    "traj.margin": ("margin", float),
}
_FARROW_FIELDS = {
    "farrow.M": ("M", int),
    "farrow.L": ("L", int),
    "farrow.alpha": ("alpha", float),
    "farrow.grid": ("grid", int),
}

# every key engine_config_from_table reads
CONFIG_KEYS = frozenset(
    "room.dims room.reflection mic.pos traj.file farrow.file".split()
).union(_SYNTH_FIELDS, _TRAJ_FIELDS, _FARROW_FIELDS)


def _parse(key, value, parse):
    """parse(value), or a ValueError that names the key and its value."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"config {key} = {value!r}: {exc}") from None


def _fill(table, fields):
    """The table's values for fields, parsed, by field name."""
    return {
        f: _parse(k, table[k], parse) for k, (f, parse) in fields.items() if k in table
    }


def engine_config_from_table(table):
    """Resolve a flat config table into a run.

    Recognized keys (CONFIG_KEYS, all optional unless noted): room.dims
    (required, three numbers), room.reflection (one or six numbers,
    default 0.9), mic.pos (required), traj.kind/duration/bandwidth/speed/
    seed/direction/start/margin (TrajectorySpec's fields), synth.rate/N/K/
    max_order/t60/c/d_min/workers/budget (SynthesisConfig's), farrow.M/L/
    alpha/grid (design's), traj.file, farrow.file. An absent key keeps its
    field's default. Every key is parsed, a value that does not parse
    raising ValueError that names its key, and the spec checked; then a
    nonempty traj.file or farrow.file is read, else the path is generated
    at synth.rate and the bank designed. Any other key raises ValueError
    naming it, so a typo never falls back to a default.
    """
    unknown = sorted(set(table) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if "room.dims" not in table or "mic.pos" not in table:
        raise ValueError("config requires room.dims and mic.pos")
    reflection = _parse("room.reflection", table.get("room.reflection", "0.9"), _floats)
    if len(reflection) == 1:
        reflection = reflection * 6
    if len(reflection) != 6:
        raise ValueError("room.reflection needs 1 or 6 values")
    room = Room(
        dims=np.array(_parse("room.dims", table["room.dims"], _floats)),
        wall_reflection=np.array(reflection),
    )
    mic = MicPosition(pos=np.array(_parse("mic.pos", table["mic.pos"], _floats)))
    synth = SynthesisConfig(**_fill(table, _SYNTH_FIELDS))
    spec = TrajectorySpec(**_fill(table, _TRAJ_FIELDS))
    bank = _fill(table, _FARROW_FIELDS)
    path, bank_file = table.get("traj.file"), table.get("farrow.file")
    traj = read_trajectory(path) if path else generate(spec, synth.audio_rate, room)
    filt = read_filter(bank_file) if bank_file else design(**bank)
    return EngineConfig(room=room, mic=mic, synth=synth, traj=traj, filt=filt)


# ---------------------------------------------------------------------------
# reports and debug dumps


def write_report(path, report):
    """Flat key=value record of a ComparisonReport; read_config reads it back."""
    with open(path, "w") as fh:
        fh.write(f"snr_db={report.snr_db:.6f}\n")
        fh.write(f"envelope_max_jump={float(report.envelope_max_jump):.17g}\n")
        track = report.inst_freq_track
        if track.size:
            fh.write(f"inst_freq_mean={float(np.mean(track)):.6f}\n")
            fh.write(f"inst_freq_min={float(np.min(track)):.6f}\n")
            fh.write(f"inst_freq_max={float(np.max(track)):.6f}\n")


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
