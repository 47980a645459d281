"""Hierarchical moving-image-source synthesis.

Signal flow for one render:

    trajectory p(n) ----------------------> per-image distances d_i(n)
        |                low orders: every audio sample
        |                high orders: every N-th sample, then
        |                             windowed-sinc upsampled back
        v
    d_i(n) -> delay tau_i(n) = fs d_i(n) / c   and   gain A_i(n) = b_i/(4 pi d_i)
        |
    input s -> branch filters (one shared pass) -> per-image fractional
    delay taps, gain-modulated and summed in a fixed block/pairwise order

Motion changes image distances at the trajectory bandwidth (a few Hz),
orders of magnitude below the audio rate, so distances of far (high-order)
images can be sampled at fs / N and reconstructed. Near images keep the
full rate: their distance curves carry the strongest nonlinearity.

Summation is deterministic by construction: images are partitioned into
fixed blocks of 32 in enumeration order, each block accumulates
sequentially, and block results merge in a fixed pairwise tree. Worker
count changes scheduling only, never the arithmetic, so outputs are
bit-identical for any number of workers.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels, farrow
from .room import as_arrays, as_mic, enumerate_images, image_distance
from .trajectory import bandlimited_upsample, decimate

SUMMATION_BLOCK = 32


class BudgetError(RuntimeError):
    """Raised when a requested render exceeds the configured evaluation cap."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Engine knobs.

    audio_rate: output sample rate. order_split: images with order <= K
    stay at full rate. decimation: N, the high-order distance sampling
    divisor. max_order: image enumeration bound. t60: optional cull of
    images whose initial path length exceeds c * t60. d_min: distance
    floor for the gain (never for the delay). modulate: "receiver" scales
    the delayed signal by the gain at arrival time; "source" scales at
    emission time (validation switch, costs one branch pass per image).
    eval_budget: cap on brute-force distance evaluations.
    """

    audio_rate: float = 16000.0
    order_split: int = 1
    decimation: int = 3200
    max_order: int = 3
    t60: float = None
    sound_speed: float = 343.0
    d_min: float = 0.05
    modulate: str = "receiver"
    workers: int = 1
    eval_budget: float = 2.0e9

    def __post_init__(self):
        if self.audio_rate <= 0:
            raise ValueError("audio_rate must be > 0")
        if self.decimation < 1 or int(self.decimation) != self.decimation:
            raise ValueError("decimation must be a positive integer")
        if self.order_split < 0:
            raise ValueError("order_split must be >= 0")
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        if self.t60 is not None and self.t60 <= 0:
            raise ValueError("t60 must be > 0 when set")
        if self.sound_speed <= 0:
            raise ValueError("sound_speed must be > 0")
        if self.d_min <= 0:
            raise ValueError("d_min must be > 0")
        if self.modulate not in ("receiver", "source"):
            raise ValueError("modulate must be 'receiver' or 'source'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.eval_budget <= 0:
            raise ValueError("eval_budget must be > 0")


@dataclass(frozen=True)
class DelayStreams:
    """Per-image distance streams plus the specs they belong to.

    d holds meters, shape (S, T) at `rate` samples per second, rows in the
    same order as `specs`. eval_count tallies how many distance
    evaluations produced the streams (coarse evaluations for decimated
    images), for cost reporting.
    """

    rate: float
    specs: list
    d: np.ndarray
    eval_count: int = 0

    def image_count(self):
        return len(self.specs)


def low_order_distances(images, traj, mic, room):
    """Exact per-sample distances for the near (low-order) image set."""
    if not images:
        return DelayStreams(rate=traj.rate, specs=[], d=np.zeros((0, len(traj))))
    offset, sign, _, _ = as_arrays(images, room)
    d = _kernels.distance_streams(offset, sign, mic.pos, traj.positions)
    return DelayStreams(
        rate=traj.rate, specs=list(images), d=d, eval_count=d.size
    )


def high_order_distances(images, traj_coarse, mic, room, out_len, factor):
    """Distances sampled on the coarse trajectory, upsampled to out_len.

    Per image the number of distance evaluations is the coarse length,
    ceil(out_len / factor) plus edge holds, instead of out_len.
    """
    if not images:
        return DelayStreams(
            rate=traj_coarse.rate * factor, specs=[], d=np.zeros((0, out_len))
        )
    offset, sign, _, _ = as_arrays(images, room)
    coarse = _kernels.distance_streams(offset, sign, mic.pos, traj_coarse.positions)
    if factor == 1:
        d = coarse[:, :out_len]
        if d.shape[1] < out_len:
            d = np.pad(d, ((0, 0), (0, out_len - d.shape[1])), mode="edge")
    else:
        d = np.empty((coarse.shape[0], out_len))
        for i in range(coarse.shape[0]):
            d[i] = bandlimited_upsample(coarse[i], factor, out_len)
    return DelayStreams(
        rate=traj_coarse.rate * factor,
        specs=list(images),
        d=d,
        eval_count=coarse.size,
    )


def merge_streams(low, high):
    """Union of the two stream sets, rows restored to enumeration order."""
    if low.image_count() == 0:
        return high
    if high.image_count() == 0:
        return low
    if low.rate != high.rate:
        raise ValueError("stream rates differ")
    if low.d.shape[1] != high.d.shape[1]:
        raise ValueError("stream lengths differ")
    specs = list(low.specs) + list(high.specs)
    order = sorted(range(len(specs)), key=specs.__getitem__)
    dest = np.argsort(order)
    n_low = low.image_count()
    d = np.empty((len(specs), low.d.shape[1]))
    d[dest[:n_low]] = low.d
    d[dest[n_low:]] = high.d
    return DelayStreams(
        rate=low.rate,
        specs=[specs[i] for i in order],
        d=d,
        eval_count=low.eval_count + high.eval_count,
    )


def _pairwise_merge(buffers):
    """Fixed-topology pairwise tree sum; independent of evaluation order."""
    while len(buffers) > 1:
        merged = []
        for i in range(0, len(buffers) - 1, 2):
            merged.append(buffers[i] + buffers[i + 1])
        if len(buffers) % 2:
            merged.append(buffers[-1])
        buffers = merged
    return buffers[0]


def synthesize(s, streams, f, cfg):
    """Render the moving-image mixture of s at the receiver.

    Output length is len(s) + ceil(max delay) + L. Distance streams
    shorter than that are hold-extended (the tail rings with the final
    geometry). The delay request is shifted by L samples and the branch
    stream read index shifted back by the same amount, which keeps every
    request above the filter latency without physically padding the input.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("input must be a nonempty 1-D signal")
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    n_images = streams.image_count()
    if n_images == 0:
        return np.zeros(s.size + f.branch_len)
    tau_max = streams.rate * float(streams.d.max()) / cfg.sound_speed
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    if streams.d.shape[1] < out_len:
        pad = out_len - streams.d.shape[1]
        d_ext = np.pad(streams.d, ((0, 0), (0, pad)), mode="edge")
    else:
        d_ext = streams.d[:, :out_len]
    tau = streams.rate * d_ext / cfg.sound_speed
    beta = np.array([sp.beta for sp in streams.specs])
    amp = beta[:, None] / (4.0 * np.pi * np.maximum(d_ext, cfg.d_min))

    shift = f.branch_len  # keeps tau + shift >= D0 for every physical delay
    blocks = [
        slice(i, min(i + SUMMATION_BLOCK, n_images))
        for i in range(0, n_images, SUMMATION_BLOCK)
    ]

    if cfg.modulate == "source":
        # gain applied at emission time: delay the pre-modulated signal,
        # one branch pass per image (validation path)
        ones = np.ones((1, out_len))
        buffers = []
        for blk in blocks:
            buf = np.zeros(out_len)
            for i in range(blk.start, blk.stop):
                gain = amp[i, : s.size]
                branch = farrow.branch_filter(s * gain, f)
                _kernels.accumulate_images(
                    buf, branch, tau[i : i + 1], ones, shift, f.nominal_delay
                )
            buffers.append(buf)
        return _pairwise_merge(buffers)

    branch = farrow.branch_filter(s, f)

    def run_block(blk):
        buf = np.zeros(out_len)
        _kernels.accumulate_images(
            buf, branch, tau[blk], amp[blk], shift, f.nominal_delay
        )
        return buf

    if cfg.workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            buffers = list(pool.map(run_block, blocks))
    else:
        buffers = [run_block(blk) for blk in blocks]
    return _pairwise_merge(buffers)


def select_images(room, traj, mic, cfg):
    """Enumerate and optionally cull the image set for a render."""
    images = enumerate_images(room, cfg.max_order)
    if cfg.t60 is not None:
        reach = cfg.sound_speed * cfg.t60
        start = traj.positions[0]
        images = [
            sp for sp in images if image_distance(sp, start, mic, room) <= reach
        ]
    return images


def prepare_streams(traj, room, mic, cfg, images=None):
    """Split the image set at order K and build merged distance streams."""
    if traj.rate != cfg.audio_rate:
        raise ValueError("trajectory rate must equal the audio rate")
    mic = as_mic(mic)
    mic.require_inside(room)
    if images is None:
        images = select_images(room, traj, mic, cfg)
    low = [sp for sp in images if sp.order <= cfg.order_split]
    high = [sp for sp in images if sp.order > cfg.order_split]
    low_streams = low_order_distances(low, traj, mic, room)
    coarse = decimate(traj, cfg.decimation)
    high_streams = high_order_distances(
        high, coarse, mic, room, len(traj), cfg.decimation
    )
    return merge_streams(low_streams, high_streams)


def render(s, traj, room, mic, f, cfg):
    """End-to-end: trajectory in, reverberant moving-source audio out."""
    streams = prepare_streams(traj, room, mic, cfg)
    return synthesize(s, streams, f, cfg)


def _count_order_leq(k):
    """Images with total reflection order <= k (order o has 4o^2+2 of them)."""
    return 1 + sum(4 * o * o + 2 for o in range(1, k + 1))


def cost_report(cfg, images, duration):
    """Distance-evaluation counts: brute force vs hierarchical.

    images: either the enumerated spec list or a plain image count (for
    budget arithmetic beyond enumerable sizes). Returns a dict with naive
    and hierarchical totals, their ratio, and the high-order-only ratio.
    """
    n_samples = int(round(duration * cfg.audio_rate))
    if isinstance(images, int):
        total = images
        low = min(total, _count_order_leq(cfg.order_split))
    else:
        total = len(images)
        low = sum(1 for sp in images if sp.order <= cfg.order_split)
    high = total - low
    coarse_len = -(-n_samples // cfg.decimation)  # ceil
    naive = total * n_samples
    hierarchical = low * n_samples + high * coarse_len
    high_naive = high * n_samples
    high_hier = high * coarse_len
    return {
        "images_total": total,
        "images_low": low,
        "images_high": high,
        "samples": n_samples,
        "naive_evals": naive,
        "hierarchical_evals": hierarchical,
        "reduction_ratio": naive / hierarchical if hierarchical else float("inf"),
        "high_order_reduction": (high_naive / high_hier) if high_hier else float("inf"),
    }
