"""Hierarchical moving-image-source synthesis.

Signal flow for one render:

    trajectory p(n) --+--> near images: distance d_i(n) = |p(n) - q_i| to
        |             |    the mirrored mic q_i at every sample
        |             |        -> delay tau_i(n) = d_i(n) (fs / c) samples,
        |             |           gain A_i(n) = (b_i / 4 pi) / max(d_i, d_min)
        |             |
        |             +--> far images: exact distances at grid nodes every
        |                  h-th sample, h = min(N, 400)
        |                      -> node delay tau_k and node gain A_k
        |                      -> Lagrange cubic restores both in between
        v
    input s -> branch window (farrow.branch_window, one shared pass per
    tile) -> per-image fractional delay taps (farrow.horner_add, Horner
    in tau's fraction), scaled by the gain at arrival and summed in row
    order

Motion changes image distances at the trajectory bandwidth (a few Hz),
orders of magnitude below the audio rate, so a far (high-order) image
needs only two slow signals, its delay and its gain. Both are formed at
grid nodes every h samples and restored by a local cubic, on the grid
whose one home is trajectory: it places the nodes (decimate), names the
nodes a range reads (node_span) and restores them (restore_cubic,
restore_at). Only the restoration and the Horner evaluation run at the
audio rate. Near images keep exact per-sample distances: their distance
curves carry the strongest nonlinearity. The cubic's error grows as h^4
times the fourth derivative of the distance; prepare_streams measures it
on every far image at 1/4, 1/2 and 3/4 of every grid interval and
refuses a render whose delay error exceeds DELAY_ERROR_BUDGET samples.

No per-image stream is ever held at full length. A DelayStreams value
is a plain record of its rows in parts, in row order: each part is the
row kernel's input (_kernels.Rows), its rows' mirrored mics and
spreading coefficients and a path, the path's samples for exact rows,
its grid nodes and the cubic's table for restored ones. A render's
record has an exact part, then a restored one (two exact parts at
N = 1). Every row holds meters at the audio rate, cfg.audio_rate.
synthesize never asks the record for a distance; terms(i), row(i) and d
form whole rows for dumps and checks, through the kernel's own
row_terms.

synthesize walks the whole output in fixed time chunks of
CHUNK_SAMPLES, rounded up to whole grid intervals (16400 samples at
h = 400), so every chunk starts on a grid interval of each restored
part; a last piece shorter than the delay span joins the one before.
Chunks are the pool's unit of work: they run on a pool of `workers`
threads, and an output of one chunk renders on the calling thread.
One job per chunk walks it in tiles of TILE_SAMPLES, rounded down to
whole grid intervals (8000 samples at h = 400), cut from the chunk's
start and again from the grid interval that holds the path's last
sample, so the tile that reaches the path's end starts on that interval
rather than past it, where it would restore the interval again.
Each tile reads one branch window and adds every row, in row order,
straight into the tile's slice of the output, through one kernel, which
takes the whole part and cuts the positions the tile is formed from:
near and far rows differ only in the path it reads. The kernel takes a
part's rows in blocks of r with r x tile about ROW_BLOCK (16384)
row-samples, so every numpy call still covers about 16k row-samples
while the window is one tile long, and a range shorter than a tile (a
short clip, the tail past the path) takes more rows per call. An exact
row's distance, delay and gain are formed in the block's scratch rows
from the path's samples in the tile; a far row's are formed at the grid
nodes the tile is restored from, and its delay and gain are restored in
the block's scratch rows, so it never holds a per-sample distance. Past
the path's end the kernel holds every row at its delay and gain at the
path's last sample, so a tile there is the same kind of work, and no job
shares state with another.

Before the walk, every row's delay is bounded from the parts alone
(_delay_bounds), and the output is allocated once, at its longest.
Each tile reads only the branch window it reaches at delays in those
bounds (farrow.branch_window), convolved from the input it needs: tile +
delay span + L samples of the branch streams. A row whose delay leaves
the bounds would read outside its window, so it raises RuntimeError
before its block is read. A job reads the path's axes where the
Trajectory stores them, contiguous rows of a (3, T) array, so it copies
no path window, and it restores a far row's delay and gain by one
product over only the ceil(n / h) grid intervals its n samples reach.
Beyond the input, the output and the path, a job holds about ROW_BLOCK
row-samples of scratch rows (delay, gain, and the Horner pass's index,
sum and term) plus (M + 1) x (tile + delay span) samples of branch
window: memory is O(workers x (ROW_BLOCK + (M + 1) x (tile + delay
span))) whatever the image count, the clip length or the path's length.
The streaming renderer's ring of branch samples would be one tile's
window.

Summation order is fixed per output sample: ((0 + r_0) + r_1) + ... over
the rows in enumeration order, as a loop over the images adds them; a
block adds its rows one at a time. Every per-sample step is
elementwise, restoration gives a sample the same bits whatever run of
grid intervals or stack of rows it is restored in, and tiles write
disjoint slices of the output. Chunk and tile length, row block and
worker count change only the scheduling, never the arithmetic, so they
never change the output bits.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, farrow
from .room import as_arrays, as_mic, attenuation, enumerate_images
from .trajectory import decimate, grid_step, lagrange_table, node_span, restore_at

# output samples per job, rounded up to whole grid intervals
CHUNK_SAMPLES = 16384
# output samples per branch window, rounded down to whole grid intervals
TILE_SAMPLES = CHUNK_SAMPLES // 2
# largest far-image delay error a render accepts, in samples
DELAY_ERROR_BUDGET = 0.01


class BudgetError(RuntimeError):
    """Raised when a requested render exceeds the configured evaluation cap."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Engine knobs.

    audio_rate: output sample rate. order_split: images with order <= K
    stay at full rate. decimation: N, which sets only the grid step of
    high-order distances: they are exact every h = min(N, 400) samples
    and restored by a Lagrange cubic in between; N = 1 keeps every
    distance exact. max_order: image enumeration bound. t60: optional
    cull of images whose initial path length exceeds c * t60. d_min:
    distance floor for the gain (never for the delay). The gain scales
    the delayed signal at arrival time. workers: threads that walk the
    output's time chunks (CHUNK_SAMPLES rounded up to whole grid
    intervals: 16400 samples, 41 intervals, when h = 400); an output of
    one chunk renders on the calling thread whatever workers is. eval_budget:
    cap on the distance evaluations any render performs (select_images
    checks it), which at N = 1 is the brute-force count, images x
    samples. Every field but an unset t60 must be a real number, not a
    bool or a string; decimation, order_split, max_order and workers
    must be whole numbers (2.0 passes, 2.5 does not), stored as int;
    audio_rate, sound_speed, d_min and a set t60 finite and > 0
    (ValueError naming the field otherwise).
    """

    audio_rate: float = 16000.0
    order_split: int = 1
    decimation: int = 3200
    max_order: int = 3
    t60: float = None
    sound_speed: float = 343.0
    d_min: float = 0.05
    workers: int = 1
    eval_budget: float = 2.0e9

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                if value is not None or name != "t60":
                    raise ValueError(f"{name} must be a real number, not {value!r}")
        # each check states what passes, so NaN fails it
        for name in ("audio_rate", "sound_speed", "d_min", "t60"):
            value = getattr(self, name)
            if not (value is None and name == "t60" or 0 < value < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        counts = (("decimation", 1), ("order_split", 0), ("max_order", 0), ("workers", 1))
        for name, least in counts:
            value = getattr(self, name)
            # a whole number's float is_integer; NaN's and inf's are not
            if not float(value).is_integer() or not value >= least:
                raise ValueError(f"{name} must be >= {least} and whole")
            object.__setattr__(self, name, int(value))
        if not self.eval_budget > 0:
            raise ValueError("eval_budget must be > 0 (inf: no cap)")


def _part(images, room, mic, positions, table=None):
    """The part of a record that holds images' rows on positions."""
    offset, sign, beta, _ = as_arrays(images, room)
    q = _kernels.mirrored_mics(offset, sign, mic.pos)
    return _kernels.Rows(q, attenuation(beta, 1.0), positions, table)


@dataclass(frozen=True)
class DelayStreams:
    """Per-image distance streams, described rather than stored.

    Row i belongs to specs[i] and holds meters at the audio rate for
    `length` samples. parts holds the rows in row order, each part the
    row kernel's input, a _kernels.Rows. terms(i, ...) forms one whole
    row's delay and gain as a render does, row(i) its distance, d the
    whole (S, length) distance array. eval_count tallies the distance
    evaluations the streams stand for (grid-node evaluations for
    decimated images): cost_report's hierarchical_evals, which
    select_images holds to cfg.eval_budget before any stream is built.
    """

    specs: list
    length: int
    parts: tuple = ()

    def image_count(self):
        return len(self.specs)

    @property
    def eval_count(self):
        return sum(p.q.shape[0] * p.positions.shape[0] for p in self.parts)

    def terms(self, i, scale, d_min):
        """Delay d * scale and gain of row i, whole length.

        The row the render forms (_kernels.row_terms), restored for a far
        row. Returns (x, gain).
        """
        for part in self.parts:
            if i < part.q.shape[0]:
                row = replace(part, q=part.q[i : i + 1], coef=part.coef[i : i + 1])
                terms = _kernels.row_terms(row, scale, d_min, 0, self.length, self.length)
                tau, gain = next(terms)
                return tau[0], gain[0]
            i -= part.q.shape[0]
        raise IndexError("row index out of range")

    def row(self, i):
        """Distances of row i over the whole length: terms at scale 1."""
        return self.terms(i, 1.0, 1.0)[0]

    @property
    def d(self):
        """The whole (S, length) distance array, built on demand."""
        out = np.empty((self.image_count(), self.length))
        for i in range(self.image_count()):
            out[i] = self.row(i)
        return out


def low_order_distances(images, traj, mic, room):
    """Exact per-sample distances for the near (low-order) image set.

    One part: the images' rows on the path's every sample.
    """
    rows = _part(images, room, mic, traj.positions)
    return DelayStreams(specs=list(images), length=len(traj), parts=(rows,))


def high_order_distances(images, nodes, mic, room, out_len, factor):
    """Distances on the grid nodes, restored to out_len samples.

    nodes is decimate(traj, factor). Per image the number of distance
    evaluations is the node count, node_span(0, out_len, h).stop with
    h = grid_step(factor), instead of out_len. Nothing is evaluated here:
    the rows hold the node positions and the cubic's table, synthesize
    forms each tile's node delays and gains from the nodes it reads, and
    row() restores a distance row. At factor 1 nodes is the path itself
    and the rows are exact (no table), so out_len must equal its length:
    raises ValueError otherwise.
    """
    step = grid_step(factor)
    if step == 1 and out_len != len(nodes):
        raise ValueError("at factor 1 out_len must equal the path length")
    table = None if step == 1 else lagrange_table(step)
    rows = _part(images, room, mic, nodes.positions, table)
    return DelayStreams(specs=list(images), length=out_len, parts=(rows,))


def merge_streams(low, high):
    """low's rows, then high's: a checked concatenation of specs and parts.

    Every low spec must precede every high spec, so rows sorted within
    each side stay in enumeration order, and every exact part must lie on
    one path. Raises ValueError when these do not hold or when the
    lengths differ.
    """
    if low.image_count() == 0:
        return high
    if high.image_count() == 0:
        return low
    if low.length != high.length:
        raise ValueError("stream lengths differ")
    if max(low.specs) > min(high.specs):
        raise ValueError("every low image must precede every high image")
    parts = low.parts + high.parts
    paths = [p.positions for p in parts if p.table is None]
    if not all(np.array_equal(p, paths[0]) for p in paths[1:]):
        raise ValueError("exact rows on different paths")
    return DelayStreams(
        specs=list(low.specs) + list(high.specs), length=low.length, parts=parts
    )


def _run(job, tasks, workers):
    """[job(*task) for task in tasks], on a pool of workers threads.

    One task, or one worker, runs on the calling thread.
    """
    if workers == 1 or len(tasks) == 1:
        return [job(*task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, *zip(*tasks)))


def _delay_bounds(parts, scale):
    """A lower and an upper bound on every row's delay, in samples.

    Formed from the parts alone, before any row is. A distance rises with
    each coordinate's distance to the mirrored mic, and rounding keeps
    that order, so on the box the positions span an exact row's distance
    lies between its distances to the box's nearest point and to its
    farthest corner, the farther face on each axis, formed with the
    kernel's arithmetic. A restored row mixes its node delays with cubic
    weights whose absolute values sum to at most w (1.25), so it stays
    within w times the nodes' half-range of their mid-range, widened here
    by a margin for rounding.
    """
    lows, highs = [], []
    for part in parts:
        if part.q.shape[0] == 0:
            continue
        axes = part.positions.T  # (3, P), contiguous axis rows
        lo, hi = axes.min(axis=1), axes.max(axis=1)
        near, far, tmp = (np.empty(part.q.shape[0]) for _ in range(3))
        nearest = np.clip(part.q, lo, hi)
        farthest = np.where(np.abs(lo - part.q) >= np.abs(hi - part.q), lo, hi)
        _kernels.distance_rows(part.q.T, nearest.T, near, tmp)
        _kernels.distance_rows(part.q.T, farthest.T, far, tmp)
        low, high = near * scale, far * scale
        if part.table is not None:
            w = np.abs(part.table).sum(axis=0).max()
            mid, half = (low + high) / 2.0, (high - low) / 2.0
            reach = w * half + 1e-9 * (1.0 + high)
            low, high = mid - reach, mid + reach
        lows.append(float(low.min()))
        highs.append(float(high.max()))
    return min(lows), max(highs)


def synthesize(s, streams, f, cfg):
    """Render the moving-image mixture of s at the receiver.

    Output length is len(s) + ceil(max delay) + L, the maximum taken over
    the whole streams. Past the end of the streams every row holds its
    last value (the tail rings with the final geometry); streams that run
    past the output are evaluated to their end for the maximum, then cut.
    A row's delay d (rate / c) is read as farrow.delay_stream reads it,
    so a read outside the input adds nothing.

    Every row's delay is bounded first (_delay_bounds), and the output is
    allocated once, at max(len(streams), len(s) + ceil(upper) + L); the
    render is its first output-length samples. The walk cuts that whole
    allocation into time chunks, a last piece shorter than the delay span
    upper - lower joining the one before, and one job per chunk cuts it
    into tiles. Per tile it cuts the branch window the tile's reads reach
    at delays in the bounds (farrow.branch_window), and adds every row,
    in row order, into the tile's slice of the output through
    accumulate_rows, part by part, which reads the window and each part
    on the positions the tile is formed from: an exact part's path
    samples, a restored part's grid nodes. Each block of rows' distances
    to their mirrored mics, delays and gains are formed there
    (_kernels.row_terms), in the kernel's scratch rows, held at the
    path's last sample past its end; a far row's are formed at its nodes
    and restored, so it never holds a per-sample distance. Raises
    RuntimeError if a row's delay leaves the bounds, before its block is
    read.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("input must be a nonempty 1-D signal")
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    n_images = streams.image_count()
    if n_images == 0:
        return np.zeros(s.size + f.branch_len)
    scale = cfg.audio_rate / cfg.sound_speed
    length = streams.length
    parts = streams.parts
    bounds = _delay_bounds(parts, scale)
    out = np.zeros(max(length, s.size + math.ceil(bounds[1]) + f.branch_len))

    # whole grid intervals of every restored part
    unit = math.lcm(*(p.table.shape[1] for p in parts if p.table is not None))
    chunk = unit * -(-CHUNK_SAMPLES // unit)
    tile = unit * max(1, TILE_SAMPLES // unit)
    # the start of the grid interval that holds the path's last sample:
    # a tile that began past it would restore that interval again
    last = (length - 1) // unit * unit

    def add_tile(start, stop):
        window, base = farrow.branch_window(s, f, start, stop, *bounds)
        return max(
            _kernels.accumulate_rows(
                out[start:stop], window, base, part, scale, cfg.d_min, start,
                length, bounds,
            )
            for part in parts
        )

    def job(start, stop):
        # tiles from the chunk's start, and again from the path's last
        # interval on
        cuts = [*range(start, min(last, stop), tile)]
        cuts += range(max(last, start), stop, tile)
        return max(add_tile(a, b) for a, b in zip(cuts, cuts[1:] + [stop]))

    starts = list(range(0, out.size, chunk))
    if len(starts) > 1 and out.size - starts[-1] < bounds[1] - bounds[0]:
        del starts[-1]  # a last piece shorter than the delay span joins the one before
    pieces = list(zip(starts, starts[1:] + [out.size]))
    tau_max = max(_run(job, pieces, cfg.workers))
    return out[: s.size + math.ceil(tau_max) + f.branch_len]


def select_images(room, traj, mic, cfg):
    """The images a render over traj uses: every renderer's one image set.

    Every image up to cfg.max_order, in enumeration order; when cfg.t60 is
    set, only those within c * t60 of the mic at the path's first sample.
    The engine, the oracle (render at N = 1) and the static references (a
    one-sample path) all choose their images here. Raises BudgetError
    when the distance evaluations a render over traj makes with them,
    cost_report's hierarchical_evals, which is the eval_count of its
    streams, exceed cfg.eval_budget. With no cull the count is known
    before enumeration, so an oversized render is refused without it.
    """
    # the images, or their number until a cull lists them: cost_report
    # counts either
    images = _count_order_leq(cfg.max_order)
    if cfg.t60 is not None:
        specs = enumerate_images(room, cfg.max_order)
        offset, sign, _, _ = as_arrays(specs, room)
        d = _kernels.distance_streams(offset, sign, mic.pos, traj.positions[:1])[:, 0]
        images = [sp for sp, di in zip(specs, d) if di <= cfg.sound_speed * cfg.t60]
    evals = cost_report(cfg, images, len(traj) / cfg.audio_rate)["hierarchical_evals"]
    if evals > cfg.eval_budget:
        raise BudgetError(
            f"render needs {evals:.3g} distance evaluations, "
            f"budget is {cfg.eval_budget:.3g}"
        )
    return enumerate_images(room, cfg.max_order) if cfg.t60 is None else images


def _check_delay_error(rows, traj, cfg):
    """Refuse restored far rows whose delay misses the exact one too far.

    rows: the restored part of a path's streams. Every row is checked at
    1/4, 1/2 and 3/4 of every grid interval the path reaches (clamped to
    its last sample): its node distances restored there
    (trajectory.restore_at) against the exact distance. The cubic's error
    peaks at the midpoint; the quarter points catch motion that is zero at
    the nodes and midpoints. Rows go in blocks of about DISTANCE_BLOCK
    node or probe distances, whichever are more. Raises ValueError when
    the worst error exceeds DELAY_ERROR_BUDGET.
    """
    step = rows.table.shape[1]
    starts = np.arange(0, len(traj), step)[:, None]
    probes = np.minimum(starts + np.arange(1, 4) * step // 4, len(traj) - 1).ravel()
    at = traj.positions[probes]
    size = max(1, _kernels.DISTANCE_BLOCK // max(rows.positions.shape[0], probes.size))
    worst = 0.0
    for a in range(0, rows.q.shape[0], size):
        pick = slice(a, a + size)
        nodes = _kernels.mic_distances(rows.q[pick], rows.positions)
        miss = _kernels.mic_distances(rows.q[pick], at)
        miss -= restore_at(nodes, rows.table, probes)
        worst = max(worst, float(np.abs(miss, out=miss).max()))
    err = worst * (traj.rate / cfg.sound_speed)
    if err > DELAY_ERROR_BUDGET:
        raise ValueError(
            f"far-image delay error {err:.3g} samples exceeds the "
            f"{DELAY_ERROR_BUDGET} sample budget at grid step {step}; "
            f"lower decimation below {step}"
        )


def prepare_streams(traj, room, mic, cfg, images=None):
    """Split the image set at order K and build merged distance streams.

    images, if given, are sorted into enumeration order first, so the
    rows and their summation order do not depend on the order of the
    list; if not, select_images chooses them, which raises BudgetError
    for a render over cfg.eval_budget before any stream is built. Far
    rows are restored from grid nodes at any clip length when N > 1;
    raises ValueError when one's delay error is over budget.
    """
    if traj.rate != cfg.audio_rate:
        raise ValueError("trajectory rate must equal the audio rate")
    mic = as_mic(mic)
    mic.require_inside(room)
    if images is None:
        images = select_images(room, traj, mic, cfg)
    images = sorted(images)
    low = [sp for sp in images if sp.order <= cfg.order_split]
    high = [sp for sp in images if sp.order > cfg.order_split]
    low_streams = low_order_distances(low, traj, mic, room)
    nodes = decimate(traj, cfg.decimation)
    high_streams = high_order_distances(high, nodes, mic, room, len(traj), cfg.decimation)
    for part in high_streams.parts:
        if part.table is not None:
            _check_delay_error(part, traj, cfg)
    return merge_streams(low_streams, high_streams)


def render(s, traj, room, mic, f, cfg):
    """End-to-end: trajectory in, reverberant moving-source audio out."""
    return synthesize(s, prepare_streams(traj, room, mic, cfg), f, cfg)


def _count_order_leq(k):
    """Images with total reflection order <= k (order o has 4o^2+2 of them)."""
    return 1 + sum(4 * o * o + 2 for o in range(1, k + 1))


def cost_report(cfg, images, duration):
    """Work counts of a render: distance evaluations and per-sample work.

    images: either the enumerated spec list or an image count, a numpy
    integer included (for budget arithmetic beyond enumerable sizes).
    select_images checks a render's budget against this report. Returns
    a dict with naive and hierarchical distance-evaluation totals, their
    ratio, the high-order-only ratio and the far images' grid step. Far
    images count as render evaluates them: a T-sample path's grid nodes
    each (node_span), or every sample at grid step 1, so
    hierarchical_evals is the eval_count of a render's streams. The
    per-sample work that dominates a render is counted too:
    restored_samples, the delay and gain samples the engine restores (2
    per far image and sample of ceil(T / h) whole grid intervals, none at
    grid step 1), and accumulated_samples, the image samples the Horner
    pass accumulates (images x samples). Raises ValueError for a negative
    or non-finite duration and a negative image count.
    """
    if not 0 <= duration < math.inf:
        raise ValueError("duration must be finite and >= 0")
    n_samples = int(round(duration * cfg.audio_rate))
    if isinstance(images, numbers.Integral):
        if images < 0:
            raise ValueError("image count must be >= 0")
        total = int(images)
        low = min(total, _count_order_leq(cfg.order_split))
    else:
        total = len(images)
        low = sum(1 for sp in images if sp.order <= cfg.order_split)
    high = total - low
    step = grid_step(cfg.decimation)
    nodes = n_samples if step == 1 else node_span(0, n_samples, step).stop
    whole = 0 if step == 1 else -(-n_samples // step) * step
    naive = total * n_samples
    hierarchical = low * n_samples + high * nodes
    return {
        "images_total": total,
        "images_low": low,
        "images_high": high,
        "samples": n_samples,
        "grid_step": step,
        "naive_evals": naive,
        "hierarchical_evals": hierarchical,
        "reduction_ratio": naive / hierarchical if hierarchical else float("inf"),
        "high_order_reduction": n_samples / nodes if high * nodes else float("inf"),
        "restored_samples": 2 * high * whole,
        "accumulated_samples": naive,
    }
