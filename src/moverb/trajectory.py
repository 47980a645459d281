"""Band-limited source-motion trajectories.

Generation (analytic lines/circles/sines, shaped noise, smoothed waypoint
splines), rate changes, finite-difference kinematics, and an empirical
spectral bandwidth estimator. decimate places the grid nodes on which the
synthesis engine evaluates slowly varying image distances, every
h = min(N, GRID_STEP) audio samples; bandlimited_upsample restores the
samples in between with a 4-tap Lagrange cubic.

Edge policy: decimate adds one grid node before the path and two past its
end, placed on a constant-acceleration extension of the path, so the
cubic has its four nodes in every grid interval, the first and last
included. Restoration needs no guard band at either end.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels

# largest grid step of far-image distances, in audio samples; the cubic's
# delay error grows as h^4 and is about 1e-3 samples at h = 400 on a
# 2 Hz, 1 m/s path
GRID_STEP = 400

_KINDS = ("line", "circle", "sine", "filtered-noise", "waypoint-spline")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled 3-D source path.

    rate: positions per second. positions: (T, 3) meters.
    """

    rate: float
    positions: np.ndarray

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("trajectory rate must be > 0")
        p = np.asarray(self.positions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] < 1:
            raise ValueError("positions must be a (T, 3) array with T >= 1")
        if not np.all(np.isfinite(p)):
            raise ValueError("positions must be finite")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "rate", float(self.rate))

    def __len__(self):
        return self.positions.shape[0]

    @property
    def duration(self):
        return len(self) / self.rate


@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for generate().

    kind: one of line, circle, sine, filtered-noise, waypoint-spline.
    duration: seconds. bandwidth_limit: Hz, target upper edge of the
    displacement spectrum. speed_max: m/s cap on the path speed. seed:
    RNG seed for every random choice. Optional direction/start pin the
    analytic kinds to exact geometry instead of seeded random choices;
    waypoint_count sizes the spline kind.
    """

    kind: str
    duration: float
    bandwidth_limit: float
    speed_max: float
    seed: int = 0
    direction: tuple = None
    start: tuple = None
    waypoint_count: int = 6

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.bandwidth_limit < 0 or self.speed_max < 0:
            raise ValueError("bandwidth_limit and speed_max must be >= 0")


def _unit_direction(rng, pinned):
    if pinned is not None:
        d = np.asarray(pinned, dtype=np.float64)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        return d / norm
    while True:
        d = rng.normal(size=3)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm


def _fit_displacement(disp, center, room, margin, speed_max, rate):
    """Scale a zero-centered displacement to honor speed and wall margins."""
    cols = np.ascontiguousarray(disp.T)
    span = np.abs(cols).max(axis=1)
    if np.any(center - span < margin) or np.any(center + span > room.dims - margin):
        allowed = np.minimum(center - margin, room.dims - margin - center)
        with np.errstate(divide="ignore", invalid="ignore"):
            per_axis = np.where(span > 0, allowed / np.maximum(span, 1e-300), np.inf)
        scale = float(np.min(per_axis))
        if scale <= 0:
            raise ValueError("margin leaves no room for motion around the center")
        disp = disp * min(1.0, scale)
        cols = cols * min(1.0, scale)
    if len(disp) >= 2:
        vmax = _top_speed(cols, rate)
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


def generate(spec, rate, room, margin=0.3):
    """Build a band-limited trajectory inside the room.

    The path keeps at least `margin` meters from every wall, its
    finite-difference speed stays within speed_max * (1 + 1e-3), and for
    the oscillatory kinds at least 99% of the displacement spectral energy
    lies below bandwidth_limit (a constant-velocity line has an unbounded
    window spectrum and carries no such guarantee). Deterministic per seed.
    """
    if rate < 2 * spec.bandwidth_limit:
        raise ValueError("rate must be at least twice the bandwidth limit")
    if margin < 0 or np.any(2 * margin >= room.dims):
        raise ValueError("margin must be >= 0 and leave interior space")
    rng = np.random.default_rng(spec.seed)
    n = max(2, int(round(spec.duration * rate)))
    t = np.arange(n) / rate
    center = room.dims / 2.0

    if spec.kind == "line":
        direction = _unit_direction(rng, spec.direction)
        travel = spec.speed_max * spec.duration
        if spec.start is not None:
            start = np.asarray(spec.start, dtype=np.float64)
        else:
            start = center - direction * travel / 2.0
        pos = start[None, :] + direction[None, :] * (spec.speed_max * t)[:, None]
        inside = np.all(pos > margin) and np.all(pos < room.dims - margin)
        if not inside:
            raise ValueError("line does not fit inside the room with this margin")
        return Trajectory(rate=rate, positions=pos)

    if spec.kind == "sine":
        direction = _unit_direction(rng, spec.direction)
        f = spec.bandwidth_limit
        if f == 0 or spec.speed_max == 0:
            disp = np.zeros((n, 3))
        else:
            amp = spec.speed_max / (2 * np.pi * f)
            disp = amp * np.sin(2 * np.pi * f * t)[:, None] * direction[None, :]
        disp = _fit_displacement(disp, center, room, margin, spec.speed_max, rate)
        return Trajectory(rate=rate, positions=center + disp)

    if spec.kind == "circle":
        f = spec.bandwidth_limit
        if f == 0 or spec.speed_max == 0:
            disp = np.zeros((n, 3))
        else:
            radius = spec.speed_max / (2 * np.pi * f)
            phase = 2 * np.pi * f * t
            disp = np.stack(
                [radius * np.cos(phase), radius * np.sin(phase), np.zeros(n)], axis=1
            )
        disp = _fit_displacement(disp, center, room, margin, spec.speed_max, rate)
        return Trajectory(rate=rate, positions=center + disp)

    if spec.kind == "filtered-noise":
        disp = np.zeros((n, 3))
        k_max = int(np.floor(0.95 * spec.bandwidth_limit * n / rate))
        if k_max >= 1 and spec.speed_max > 0:
            for axis in range(3):
                spectrum = np.zeros(n // 2 + 1, dtype=complex)
                live = rng.normal(size=k_max) + 1j * rng.normal(size=k_max)
                spectrum[1 : k_max + 1] = live
                disp[:, axis] = np.fft.irfft(spectrum, n)
            vmax = _top_speed(np.ascontiguousarray(disp.T), rate)
            if vmax > 0:
                disp = disp * (0.999 * spec.speed_max / vmax)
        disp = _fit_displacement(disp, center, room, margin, spec.speed_max, rate)
        return Trajectory(rate=rate, positions=center + disp)

    # waypoint-spline: random knots in the middle 60% of the usable box so
    # spline overshoot and low-pass ringing stay inside before rescaling
    count = max(2, spec.waypoint_count)
    usable = room.dims - 2 * margin
    waypoints = margin + (0.2 + 0.6 * rng.random((count, 3))) * usable
    if spec.speed_max == 0 and not np.allclose(waypoints, waypoints[0]):
        raise ValueError("speed_max = 0 cannot visit distinct waypoints")
    from scipy.interpolate import CubicSpline

    times = np.linspace(0.0, spec.duration, count)
    spline = CubicSpline(times, waypoints, axis=0)
    pos = spline(np.clip(t, 0.0, times[-1]))
    if spec.bandwidth_limit > 0:
        pos = _lowpass_columns(pos, rate, spec.bandwidth_limit)
    mean = pos.mean(axis=0)
    disp = _fit_displacement(pos - mean, mean, room, margin, spec.speed_max, rate)
    return Trajectory(rate=rate, positions=mean + disp)


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


def bandlimited_upsample(samples, factor, out_len):
    """Restore out_len audio-rate samples from grid nodes by decimation N.

    samples are node values as decimate lays them out: node k at sample
    (k - 1) * h, h = grid_step(factor). Sample m is the Lagrange cubic
    through the four nodes around it; nodes missing past the end hold the
    last one. Exact on cubic polynomials. The cubic runs in tiles whose
    shape depends only on h, so a sample's value depends neither on what
    else is being restored nor on out_len. At factor 1 the samples are
    the path's own, edge-padded to out_len.
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
    return _kernels.restore_cubic(x, lagrange_table(step), np.empty(out_len))


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

    With h = grid_step(N) and J = ceil(len(traj) / h), node k sits at
    sample (k - 1) * h for k = 0 .. J + 2: the path at every h-th sample,
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
    blocks = -(-n // step)
    nodes = np.empty((blocks + 3, 3))
    nodes[0] = _extend(pos[:3], [step])[0]
    nodes[1 : blocks + 1] = pos[::step]
    past = blocks * step - (n - 1)
    nodes[blocks + 1 :] = _extend(pos[: -4 : -1], [past, past + step])
    return Trajectory(rate=traj.rate / step, positions=nodes)


def velocity(traj):
    """Central-difference velocity (one-sided at the ends), m/s."""
    if len(traj) < 2:
        raise ValueError("velocity needs at least 2 positions")
    return np.gradient(traj.positions, 1.0 / traj.rate, axis=0)


def speed_max(traj):
    """Largest finite-difference speed along the path, m/s."""
    if len(traj) < 2:
        return 0.0
    return _top_speed(np.ascontiguousarray(traj.positions.T), traj.rate)


def bandwidth_estimate(traj, energy_fraction=0.99):
    """Smallest frequency containing the requested energy fraction.

    Mean-removed displacement periodogram per axis; returns the largest of
    the three per-axis results. A constant trajectory reports 0 Hz.
    """
    if not 0.0 < energy_fraction < 1.0:
        raise ValueError("energy_fraction must be in (0, 1)")
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
        idx = int(np.searchsorted(cum, energy_fraction))
        worst = max(worst, float(freqs[min(idx, freqs.size - 1)]))
    return worst
