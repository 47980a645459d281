"""Band-limited source-motion trajectories.

Generation (analytic lines/circles/sines, shaped noise, smoothed waypoint
splines), rate changes, finite-difference kinematics, and an empirical
spectral bandwidth estimator.

This module is the one home of the grid on which the synthesis engine
evaluates slowly varying image distances, every h = min(N, GRID_STEP)
audio samples: decimate places its nodes, node_span names the nodes a
range of samples is restored from, and the 4-tap Lagrange cubic restores
the samples in between, over whole grid intervals (restore_cubic,
bandlimited_upsample) or at given samples (restore_at).

Edge policy: decimate adds one grid node before the path and two past its
end, placed on a constant-acceleration extension of the path, so the
cubic has its four nodes in every grid interval, the first and last
included. Restoration needs no guard band at either end.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# largest grid step of far-image distances, in audio samples; the cubic's
# delay error grows as h^4 and is about 1e-3 samples at h = 400 on a
# 2 Hz, 1 m/s path
GRID_STEP = 400

_KINDS = ("line", "circle", "sine", "filtered-noise", "waypoint-spline")
# the kinds that read each optional pin
_PINNED_BY = {"direction": ("line", "sine"), "start": ("line",)}


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled 3-D source path.

    rate: positions per second. positions: (T, 3) meters, given as any
    array-like and copied once into axis-major storage: a C-ordered
    (3, T) array whose rows are the x, y and z axes, of which positions
    is the read-only (T, 3) transposed view. So positions.T[ax] is a
    contiguous row, which the distance kernels read without a copy.
    """

    rate: float
    positions: np.ndarray

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ValueError("trajectory rate must be finite and > 0")
        p = np.asarray(self.positions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ValueError("positions must be a (T, 3) array with T >= 1")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        axes = np.array(p.T, order="C")
        axes.flags.writeable = False
        object.__setattr__(self, "positions", axes.T)
        object.__setattr__(self, "rate", float(self.rate))

    def __len__(self):
        return self.positions.shape[0]

    @property
    def duration(self):
        return len(self) / self.rate


@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for generate(): the whole path but its rate and room.

    kind: one of line, circle, sine, filtered-noise, waypoint-spline.
    duration: seconds. bandwidth_limit: Hz, target upper edge of the
    displacement spectrum. speed_max: m/s cap on the path speed. seed:
    RNG seed for every random choice, an integer >= 0 (a bool or a float
    is refused). Optional direction and start pin a
    path to exact geometry instead of seeded random choices: direction,
    a nonzero 3-vector, is read by line and sine, start, a 3-vector, by
    line alone. The spline kind has 6 random knots. margin: meters the
    path keeps from every wall. duration must be finite and > 0, the two
    rates and margin finite and >= 0, and a given direction or start
    three finite numbers of a kind that reads it (ValueError naming the
    field otherwise). The defaults are the path of a config file or CLI
    call that leaves the field out.
    """

    kind: str = "line"
    duration: float = 2.0
    bandwidth_limit: float = 2.0
    speed_max: float = 1.0
    seed: int = 0
    direction: tuple = None
    start: tuple = None
    margin: float = 0.3

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        # each check states what passes, so NaN fails it
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be finite and > 0")
        for name in ("bandwidth_limit", "speed_max", "margin"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, not {seed!r}")
        for name, kinds in _PINNED_BY.items():
            value = getattr(self, name)
            if value is None:
                continue
            if self.kind not in kinds:
                raise ValueError(f"{name} is not read by a {self.kind} path")
            try:
                v = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                v = None
            if v is None or v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be three finite numbers")
            if name == "direction" and np.linalg.norm(v) == 0:
                raise ValueError("direction must be nonzero")


def _unit_direction(rng, pinned):
    if pinned is not None:
        d = np.asarray(pinned, dtype=np.float64)
        return d / np.linalg.norm(d)
    while True:
        d = rng.normal(size=3)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm


def _fit_displacement(disp, center, room, margin, speed_max, rate):
    """Scale a zero-centered (T, 3) displacement to honor speed and wall margins.

    Elementwise, so a transposed view of axis-major rows stays one.
    """
    span = np.abs(disp).max(axis=0)
    if np.any(center - span < margin) or np.any(center + span > room.dims - margin):
        allowed = np.minimum(center - margin, room.dims - margin - center)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_axis = np.where(span > 0, allowed / np.maximum(span, 1e-300), np.inf)
        scale = float(np.min(per_axis))
        if scale <= 0:
            raise ValueError("margin leaves no room for motion around the center")
        disp = disp * min(1.0, scale)
    if len(disp) >= 2:
        vmax = _top_speed(disp.T, rate)
        if vmax > speed_max:
            if speed_max == 0:
                disp = np.zeros_like(disp)
            else:
                disp = disp * (0.999 * speed_max / vmax)
    return disp


def _top_speed(cols, rate):
    """Largest finite-difference speed of a (3, T) path, T >= 2.

    sqrt((dx^2 + dy^2) + dz^2) * rate is monotone in the sum, so the
    maximum is taken before the root; the sum runs in np.linalg.norm's
    order, so the result matches its per-sample speeds bit for bit.
    """
    step = np.diff(cols, axis=1)
    sq = step[0] * step[0]
    sq += step[1] * step[1]
    sq += step[2] * step[2]
    return float(np.sqrt(sq.max())) * rate


def _placed(center, disp, rate):
    """The trajectory center + disp, formed axis by axis."""
    return Trajectory(rate=rate, positions=(center[:, None] + disp.T).T)


def generate(spec, rate, room):
    """Build a band-limited trajectory inside the room, reading only its box.

    rate must be finite, > 0 and at least twice spec.bandwidth_limit. The
    path keeps at least spec.margin meters from every wall, its
    finite-difference speed stays within speed_max * (1 + 1e-3), and for
    the oscillatory kinds at least 99% of the displacement spectral energy
    lies below bandwidth_limit (a constant-velocity line has an unbounded
    window spectrum and carries no such guarantee). Deterministic per seed.
    A line that leaves the margins raises; every other kind is built as a
    displacement about a center, axis-major as Trajectory stores it, which
    one fit scales into the margins and under the speed cap.
    """
    # each check states what passes, so NaN fails it
    if not 0 < rate < math.inf:
        raise ValueError("rate must be finite and > 0")
    if rate < 2 * spec.bandwidth_limit:
        raise ValueError("rate must be at least twice the bandwidth limit")
    margin = spec.margin
    if np.any(2 * margin >= room.dims):
        raise ValueError("margin must leave interior space")
    rng = np.random.default_rng(spec.seed)
    n = max(2, int(round(spec.duration * rate)))
    t = np.arange(n) / rate
    center = room.dims / 2.0
    f = spec.bandwidth_limit

    if spec.kind == "line":
        direction = _unit_direction(rng, spec.direction)
        travel = spec.speed_max * spec.duration
        if spec.start is not None:
            start = np.asarray(spec.start, dtype=np.float64)
        else:
            start = center - direction * travel / 2.0
        axes = start[:, None] + direction[:, None] * (spec.speed_max * t)
        if not (np.all(axes > margin) and np.all(axes < (room.dims - margin)[:, None])):
            raise ValueError("line does not fit inside the room with this margin")
        return Trajectory(rate=rate, positions=axes.T)

    if spec.kind == "waypoint-spline":
        # 6 random knots in the middle 60% of the usable box so spline
        # overshoot and low-pass ringing stay inside before rescaling
        usable = room.dims - 2 * margin
        waypoints = margin + (0.2 + 0.6 * rng.random((6, 3))) * usable
        if spec.speed_max == 0 and not np.allclose(waypoints, waypoints[0]):
            raise ValueError("speed_max = 0 cannot visit distinct waypoints")
        from scipy.interpolate import CubicSpline

        times = np.linspace(0.0, spec.duration, len(waypoints))
        pos = CubicSpline(times, waypoints, axis=0)(np.clip(t, 0.0, times[-1]))
        if f > 0:
            pos = _lowpass_columns(pos, rate, f)
        center = pos.mean(axis=0)
        axes = (pos - center).T
    elif f == 0 or spec.speed_max == 0:
        axes = np.zeros((3, n))
    elif spec.kind == "sine":
        amp = spec.speed_max / (2 * np.pi * f)
        direction = _unit_direction(rng, spec.direction)
        axes = direction[:, None] * (amp * np.sin(2 * np.pi * f * t))
    elif spec.kind == "circle":
        radius = spec.speed_max / (2 * np.pi * f)
        phase = 2 * np.pi * f * t
        axes = np.stack([radius * np.cos(phase), radius * np.sin(phase), np.zeros(n)])
    else:  # filtered-noise
        axes = np.zeros((3, n))
        k_max = int(np.floor(0.95 * f * n / rate))
        if k_max >= 1:
            for axis in range(3):
                spectrum = np.zeros(n // 2 + 1, dtype=complex)
                live = rng.normal(size=k_max) + 1j * rng.normal(size=k_max)
                spectrum[1 : k_max + 1] = live
                axes[axis] = np.fft.irfft(spectrum, n)
            vmax = _top_speed(axes, rate)
            if vmax > 0:
                axes = axes * (0.999 * spec.speed_max / vmax)
    disp = _fit_displacement(axes.T, center, room, margin, spec.speed_max, rate)
    return _placed(center, disp, rate)


def _lowpass_columns(x, rate, cutoff):
    """Brickwall-with-taper FFT low-pass, reflect-padded against edge ringing."""
    n = x.shape[0]
    pad = min(n - 1, max(16, n // 4))
    out = np.empty_like(x)
    for axis in range(x.shape[1]):
        col = x[:, axis]
        ext = np.concatenate(
            [2 * col[0] - col[pad:0:-1], col, 2 * col[-1] - col[-2 : -pad - 2 : -1]]
        )
        spec = np.fft.rfft(ext)
        freqs = np.fft.rfftfreq(ext.size, 1.0 / rate)
        gain = np.ones_like(freqs)
        lo, hi = 0.8 * cutoff, cutoff
        ramp = (freqs > lo) & (freqs <= hi)
        gain[ramp] = 0.5 * (1 + np.cos(np.pi * (freqs[ramp] - lo) / (hi - lo)))
        gain[freqs > hi] = 0.0
        out[:, axis] = np.fft.irfft(spec * gain, ext.size)[pad : pad + n]
    return out


def grid_step(factor):
    """Grid step h of far-image distances for decimation factor N."""
    return min(int(factor), GRID_STEP)


@lru_cache(maxsize=8)
def lagrange_table(step):
    """(4, step) Lagrange cubic weights, one column per phase.

    Column p weighs the nodes at -1, 0, 1 and 2 grid steps for the point
    x = p / step of the way from node 0 to node 1. Read-only and shared.
    """
    x = np.arange(step) / step
    table = np.stack(
        [
            -x * (x - 1.0) * (x - 2.0) / 6.0,
            (x + 1.0) * (x - 1.0) * (x - 2.0) / 2.0,
            -(x + 1.0) * x * (x - 2.0) / 2.0,
            (x + 1.0) * x * (x - 1.0) / 6.0,
        ]
    )
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Lagrange cubic restoration of a grid-node row onto the audio-rate grid
#
# Node k of a row sits at sample (k - 1) * h. Output sample m = j * h + p
# lies in grid interval j, between nodes j + 1 and j + 2, and is the cubic
# through nodes j .. j + 3 at phase p: the four node values dotted with
# column p of a (4, h) weight table. Seen as (intervals, h), the output is
# the matrix product frames @ table, where frames[j] holds nodes j .. j + 3.
# A range is one product over the k grid intervals it reaches, never
# fewer than two. Each row of a k-row product with k >= 2 holds the same
# bits at any k and any first interval, so a range restored on its own
# from a grid-interval boundary gives the whole row's bits there (checked
# on OpenBLAS for k up to 3000, at h from 2 to 400, on one thread and
# threaded). A one-row product takes BLAS's matrix-vector path and rounds
# differently, hence the second row. Node indices past the row's end
# clamp to its last node.


def node_span(first, end, step):
    """The grid nodes samples first .. end - 1 of a path are restored from.

    A slice of the node layout decimate places at grid step h = step:
    nodes first // h up to ceil(end / h) + 3, the frames of every grid
    interval the samples reach. node_span(0, T, h).stop is a T-sample
    path's node count.
    """
    return slice(first // step, -(-end // step) + 3)


@lru_cache(maxsize=8)
def _frame_index(rows, count):
    """(rows, 4) node indices of the frames over count nodes; read-only, shared."""
    index = np.minimum(np.arange(rows)[:, None] + np.arange(4), count - 1)
    index.flags.writeable = False
    return index


def restore_cubic(nodes, table, out):
    """Fill out with samples 0 .. out.size - 1 of a node row.

    nodes: (K,) grid values, table: (4, h) weights, out: C-contiguous
    (T,) float64. One product of max(2, ceil(T / h)) frame rows, written
    in place when T is that many whole intervals, through a product of
    that size otherwise. A range of a longer row that starts on a grid
    interval boundary, j * h, is restored from the row's nodes from j on,
    with the bits of the whole row. Returns out.
    """
    step = table.shape[1]
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    rows = max(2, -(-out.shape[0] // step))
    frames = nodes[_frame_index(rows, nodes.shape[0])]
    if out.shape[0] == rows * step:
        np.matmul(frames, table, out=out.reshape(rows, step))
    else:
        out[:] = (frames @ table).ravel()[: out.shape[0]]
    return out


def restore_at(nodes, table, samples):
    """Node rows restored at the given samples, by restore_cubic's frames.

    nodes: (R, K) rows of grid values, table: (4, h) weights, samples:
    (P,) sample indices on the path. Each sample is the cubic through its
    grid interval's four nodes at its phase, summed term by term in node
    order. Returns (R, P) float64.
    """
    frame, phase = np.divmod(samples, table.shape[1])
    out = np.zeros((nodes.shape[0], samples.shape[0]))
    term = np.empty_like(out)
    for k in range(4):
        nodes.take(np.minimum(frame + k, nodes.shape[1] - 1), axis=1, out=term)
        term *= table[k, phase]
        out += term
    return out


def bandlimited_upsample(samples, factor, out_len):
    """Restore out_len audio-rate samples from grid nodes by decimation N.

    samples are node values as decimate lays them out: node k at sample
    (k - 1) * h, h = grid_step(factor). Sample m is the Lagrange cubic
    through the four nodes around it; nodes missing past the end hold the
    last one. Exact on cubic polynomials. The cubic restores whole grid
    intervals in one product (restore_cubic), of which the first
    out_len samples are returned, so no second row-length array is made;
    a sample's value depends neither on what else is being restored nor
    on out_len. At factor 1 the samples are the path's own, edge-padded
    to out_len.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a nonempty 1-D sequence")
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    step = grid_step(factor)
    if step == 1:
        if out_len <= x.size:
            return x[:out_len].copy()
        return np.concatenate([x, np.full(out_len - x.size, x[-1])])
    out = np.empty(-(-out_len // step) * step)
    return restore_cubic(x, lagrange_table(step), out)[:out_len]


def _extend(pos, steps):
    """The path continued past pos[0] at constant acceleration.

    pos runs from the end inward, one sample apart; steps are how many
    samples past pos[0] to place each point. Velocity and acceleration
    come from the three end samples (fewer on a shorter path), so a path
    of constant acceleration continues exactly.
    """
    s = np.asarray(steps, dtype=np.float64)[:, None]
    if len(pos) == 1:
        return np.repeat(pos[:1], len(s), axis=0)
    if len(pos) == 2:
        return pos[0] + s * (pos[0] - pos[1])
    vel = 1.5 * pos[0] - 2.0 * pos[1] + 0.5 * pos[2]
    acc = pos[0] - 2.0 * pos[1] + pos[2]
    return pos[0] + s * vel + (0.5 * s * s) * acc


def decimate(traj, factor):
    """Grid nodes of a path for decimation factor N.

    With h = grid_step(N), node k sits at sample (k - 1) * h for every
    node of node_span(0, len(traj), h): the path at every h-th sample,
    one ghost node before the start and two past the end, on the path
    extended at constant acceleration. The nodes' rate is the path's
    divided by h. factor = 1 returns the trajectory unchanged.
    """
    if int(factor) != factor or factor < 1:
        raise ValueError("decimation factor must be a positive integer")
    step = grid_step(factor)
    if step == 1:
        return traj
    pos = traj.positions
    n = len(traj)
    # axis-major, as Trajectory stores it
    nodes = np.empty((3, node_span(0, n, step).stop)).T
    nodes[0] = _extend(pos[:3], [step])[0]
    nodes[1:-2] = pos[::step]
    past = step - (n - 1) % step  # samples from the last one to the next node
    nodes[-2:] = _extend(pos[: -4 : -1], [past, past + step])
    return Trajectory(rate=traj.rate / step, positions=nodes)


def speed_max(traj):
    """Largest finite-difference speed along the path, m/s."""
    if len(traj) < 2:
        return 0.0
    return _top_speed(traj.positions.T, traj.rate)


def bandwidth_estimate(traj):
    """Smallest frequency below which 99% of the path's energy lies, Hz.

    Mean-removed displacement periodogram per axis; returns the largest of
    the three per-axis results. A constant trajectory reports 0 Hz.
    """
    pos = traj.positions
    n = pos.shape[0]
    if n < 2:
        return 0.0
    freqs = np.fft.rfftfreq(n, 1.0 / traj.rate)
    worst = 0.0
    for axis in range(3):
        x = pos[:, axis] - pos[:, axis].mean()
        power = np.abs(np.fft.rfft(x)) ** 2
        total = power.sum()
        if total <= 0:
            continue
        cum = np.cumsum(power) / total
        idx = int(np.searchsorted(cum, 0.99))
        worst = max(worst, float(freqs[min(idx, freqs.size - 1)]))
    return worst
