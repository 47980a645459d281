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
    input s -> branch filters (one shared pass) -> per-image fractional
    delay taps (farrow.delay_stream's read, Horner in tau's fraction),
    scaled by the gain at arrival and summed in row order

Motion changes image distances at the trajectory bandwidth (a few Hz),
orders of magnitude below the audio rate, so a far (high-order) image
needs only two slow signals, its delay and its gain. Both are formed at
grid nodes every h samples and restored by a local cubic; only the
restoration and the Horner evaluation run at the audio rate. Near images
keep exact per-sample distances: their distance curves carry the
strongest nonlinearity. The cubic's error grows as h^4 times the fourth
derivative of the distance; prepare_streams measures it on every far
image at the midpoint of every grid interval and refuses a render whose
delay error exceeds DELAY_ERROR_BUDGET samples.

No per-image stream is ever held at full length. A DelayStreams value
is a plain record of its rows in parts, in row order: each part holds
exactly what the row kernel reads, its rows' mirrored mics and spreading
coefficients and a path, the path's samples for exact rows, its grid
nodes and the cubic's table for restored ones. A render's record has an
exact part, then a restored one (two exact parts on a clip of N samples
or less). Every row holds meters at the audio rate, cfg.audio_rate.
synthesize never asks the record for a distance; terms(i), row(i) and d
form whole rows for dumps and checks, through the kernel's own
row_terms.

synthesize walks the output in fixed time chunks of CHUNK_SAMPLES,
rounded up to whole restoration tiles. One job per chunk adds every
row, one at a time in row order, straight into the chunk's slice of the
output, through one kernel: near and far rows differ only in the path
it reads. An exact row's distance, delay and gain are formed in
chunk-long scratch rows from the path's samples in the chunk; a far
row's are formed at the grid nodes the chunk is restored from, and its
delay and gain are restored in chunk-long scratch rows, so it never
holds a per-sample distance. Past the path's end every row holds its
delay and gain at the path's last sample; the tail adds them
on the calling thread. Chunks run on a pool of `workers` threads; a
path of one chunk renders on the calling thread. A clip of N samples or
less restores nothing: its far rows are exact, as at decimation 1.

Before the walk, every row's delay is bounded from the parts alone
(_delay_bounds), and the output is allocated once, at its longest.
Each job convolves only the window of the input that its chunk's reads
can reach, chunk + delay span + L samples of the branch streams
(farrow.guarded_branches over a range); the tail cuts one window of its
own. A row whose delay leaves the bounds would read outside its window,
so it raises RuntimeError before it is read. Beyond the input, the
output and the path, no array longer than a chunk plus the delay span
is held: memory is O(workers x (chunk + delay span)) whatever the image
count or the clip length.

Summation order is fixed per output sample: ((0 + r_0) + r_1) + ... over
the rows in enumeration order, as a loop over the images adds them.
Every per-sample step is elementwise, restoration computes whole tiles
whose shape does not depend on the chunk, and chunks write disjoint
slices of the output. Chunk length and worker count change only the
scheduling, never the arithmetic, so they never change the output bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, farrow
from .room import as_arrays, as_mic, attenuation, enumerate_images
from .trajectory import decimate, grid_step, lagrange_table

# output samples per job, rounded up to whole restoration tiles
CHUNK_SAMPLES = 16384
# largest far-image delay error a render accepts, in samples
DELAY_ERROR_BUDGET = 0.01


class BudgetError(RuntimeError):
    """Raised when a requested render exceeds the configured evaluation cap."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Engine knobs.

    audio_rate: output sample rate. order_split: images with order <= K
    stay at full rate. decimation: N, which caps the grid step of
    high-order distances: they are exact every h = min(N, 400) samples
    and restored by a Lagrange cubic in between; N = 1 keeps every
    distance exact. max_order: image enumeration bound. t60: optional cull of
    images whose initial path length exceeds c * t60. d_min: distance
    floor for the gain (never for the delay). The gain scales the delayed
    signal at arrival time. workers: threads that walk the output's time
    chunks (CHUNK_SAMPLES rounded up to whole restoration tiles of 64 h
    samples: 25600, 1.6 s at 16 kHz, when h = 400); a path of one chunk
    renders on the calling thread whatever workers is.
    eval_budget: cap on brute-force distance evaluations.
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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.eval_budget <= 0:
            raise ValueError("eval_budget must be > 0")


@dataclass(frozen=True)
class _Rows:
    """Image rows on one path, exact at its samples or restored from its nodes.

    What the row kernel reads (_kernels.row_terms): q, (S, 3) mirrored
    mics, coef, (S,) spreading coefficients attenuation(beta, 1), and
    positions, (P, 3). With table None, positions is the path at every
    sample; with table, the (4, h) cubic weights, it is the path at the
    grid nodes (decimate's layout) and a row is the cubic restoration of
    its node values.
    """

    q: np.ndarray
    coef: np.ndarray
    positions: np.ndarray
    table: np.ndarray = None

    def window(self, start, stop):
        """The positions output samples start .. stop - 1 are formed from.

        The path's samples in the range, or the grid nodes it is restored
        from.
        """
        if self.table is None:
            return self.positions[start:stop]
        step = self.table.shape[1]
        return self.positions[start // step : -(-stop // step) + 3]

    def distances(self, rows=slice(None)):
        """Distances of the picked rows at every position, (S', P)."""
        return _kernels.mic_distances(self.q[rows], self.positions)


def _part(images, room, mic, positions, table=None):
    """The part of a record that holds images' rows on positions."""
    offset, sign, beta, _ = as_arrays(images, room)
    q = _kernels.mirrored_mics(offset, sign, mic.pos)
    return _Rows(q, attenuation(beta, 1.0), positions, table)


@dataclass(frozen=True)
class DelayStreams:
    """Per-image distance streams, described rather than stored.

    Row i belongs to specs[i] and holds meters at the audio rate for
    `length` samples. parts holds the rows in row order, each part a
    _Rows record of the row kernel's inputs. terms(i, ...) forms one
    whole row's delay and gain as a render does, row(i) its
    distance, d the whole (S, length) distance array. eval_count tallies
    the distance evaluations the streams stand for (grid-node evaluations
    for decimated images), for cost reporting.
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
                pick = slice(i, i + 1)
                path = part.window(0, self.length)
                return next(
                    _kernels.row_terms(
                        part.q[pick], path, part.coef[pick], scale, d_min,
                        self.length, 0, part.table,
                    )
                )
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
    evaluations is the node count, ceil(out_len / h) + 3 with
    h = grid_step(factor), instead of out_len. Nothing is evaluated here:
    the rows hold the node positions and the cubic's table, synthesize
    forms each chunk's node delays and gains from the nodes it reads, and
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
    farthest corner, formed with the kernel's arithmetic. A restored row
    mixes its node delays with cubic weights whose absolute values sum to
    at most w (1.25), so it stays within w times the nodes' half-range of
    their mid-range, widened here by a margin for rounding.
    """
    lows, highs = [], []
    for part in parts:
        if part.q.shape[0] == 0:
            continue
        axes = part.positions.T  # (3, P): a column at a time reduces fastest
        box = np.array([[a.min() for a in axes], [a.max() for a in axes]])
        corners = np.stack(np.meshgrid(*box.T, indexing="ij"), axis=-1).reshape(-1, 3)
        far = _kernels.mic_distances(part.q, corners).max(axis=1)
        near = np.empty_like(far)
        nearest = np.clip(part.q, box[0], box[1])
        _kernels._distance_rows(part.q.T, nearest.T, near, np.empty_like(far))
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
    A row's delay d (rate / c) is read as farrow.delay_stream reads it.
    The branch streams carry a zero guard at each end
    (farrow.guarded_branches), so a read outside the input adds nothing.

    Every row's delay is bounded first (_delay_bounds), and the output is
    allocated once, at max(len(streams), len(s) + ceil(upper) + L); the
    render is its first output-length samples. One job per time chunk
    convolves the window of the branch streams its reads can reach,
    guarded indices start + D0 + 1 - floor(upper) up to
    stop + D0 + 1 - floor(lower), clipped to the streams and at least one
    sample long, and adds every row, in row order, into its slice of the
    output through accumulate_rows, part by part, each on the positions
    its window gives for the chunk: an exact part's path samples, a
    restored part's grid nodes. Each row's distance to its mirrored mic,
    delay and gain are formed there (_kernels.row_terms), in the kernel's
    scratch rows; a far row's are formed at its nodes and restored, so it
    never holds a per-sample distance. The tail holds every row at its
    delay and gain at the path's end, and one accumulate_held call on the
    calling thread adds it from a window of its own. Raises RuntimeError
    if a row's delay leaves the bounds, before that row is read.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("input must be a nonempty 1-D signal")
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    n_images = streams.image_count()
    if n_images == 0:
        return np.zeros(s.size + f.branch_len)
    d0 = f.nominal_delay
    scale = cfg.audio_rate / cfg.sound_speed
    length = streams.length
    parts = streams.parts
    bounds = _delay_bounds(parts, scale)
    held = np.empty((n_images, 2))  # delay and gain at the path's end
    held_parts = np.split(held, np.cumsum([p.q.shape[0] for p in parts])[:-1])
    out = np.zeros(max(length, s.size + math.ceil(bounds[1]) + f.branch_len))
    size = s.size + f.branch_len + 1  # guarded branch stream samples

    def window(start, stop):
        """The branch streams outputs start .. stop - 1 read, and its first index.

        Output n reads guarded index n + D0 + 1 - floor(tau). Clipped to
        the streams, a window keeps a zero guard where reads leave them.
        """
        first = min(max(start + d0 + 1 - math.floor(bounds[1]), 0), size - 1)
        end = max(min(stop + d0 + 1 - math.floor(bounds[0]), size), first + 1)
        return farrow.guarded_branches(s, f, first, end), first

    def path_job(start, stop):
        branch, first = window(start, stop)
        top = -np.inf  # the chunk's largest delay
        for part, last in zip(parts, held_parts):
            peak = _kernels.accumulate_rows(
                out[start:stop], branch, part.q, part.window(start, stop),
                part.coef, scale, cfg.d_min, d0 - first, start,
                last if stop == length else None, part.table, bounds,
            )
            top = max(top, peak)
        return top

    # whole restoration tiles of every restored part
    chunk = math.lcm(
        *(_kernels.TILE_BLOCKS * p.table.shape[1] for p in parts if p.table is not None)
    )
    chunk *= -(-CHUNK_SAMPLES // chunk)
    pieces = [(t, min(t + chunk, length)) for t in range(0, length, chunk)]
    tau_max = max(_run(path_job, pieces, cfg.workers))
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    if out_len > length:
        branch, first = window(length, out_len)
        _kernels.accumulate_held(
            out[length:out_len], branch, held[:, 0], held[:, 1], d0 - first, length
        )
    return out[:out_len]


def select_images(room, traj, mic, cfg):
    """Enumerate and optionally cull the image set for a render."""
    images = enumerate_images(room, cfg.max_order)
    if cfg.t60 is not None:
        reach = cfg.sound_speed * cfg.t60
        offset, sign, _, _ = as_arrays(images, room)
        d = _kernels.distance_streams(offset, sign, mic.pos, traj.positions[:1])
        images = [sp for sp, di in zip(images, d[:, 0]) if di <= reach]
    return images


def _far_factor(cfg, n_samples):
    """Decimation of the far rows: N, or 1 when the clip is N samples or less.

    A clip that short renders exactly, as at decimation 1.
    """
    return cfg.decimation if n_samples > cfg.decimation else 1


def _check_delay_error(rows, traj, cfg):
    """Refuse restored far rows whose delay misses the exact one too far.

    rows: the restored part of a path's streams. Every row is checked at
    the midpoint of every grid interval the path reaches, where the
    cubic's error kernel peaks (at the path's last sample if it ends
    sooner): the cubic through the interval's four node distances against
    the exact distance there. Rows are checked in blocks of about
    DISTANCE_BLOCK node distances, keeping the running maximum. Raises
    ValueError when the worst error exceeds DELAY_ERROR_BUDGET.
    """
    step = rows.table.shape[1]
    n = len(traj)
    probes = np.minimum(np.arange(-(-n // step)) * step + step // 2, n - 1)
    block, phase = np.divmod(probes, step)
    at = traj.positions[probes]
    size = max(1, _kernels.DISTANCE_BLOCK // rows.positions.shape[0])
    worst = 0.0
    for a in range(0, rows.q.shape[0], size):
        pick = slice(a, a + size)
        nodes = rows.distances(pick)
        miss = _kernels.mic_distances(rows.q[pick], at)
        for k in range(4):
            miss -= nodes[:, block + k] * rows.table[k, phase]
        worst = max(worst, float(np.abs(miss).max()))
    err = worst * (traj.rate / cfg.sound_speed)
    if err > DELAY_ERROR_BUDGET:
        raise ValueError(
            f"far-image delay error {err:.3g} samples exceeds the "
            f"{DELAY_ERROR_BUDGET} sample budget at grid step {step}; "
            "lower decimation"
        )


def prepare_streams(traj, room, mic, cfg, images=None):
    """Split the image set at order K and build merged distance streams.

    images, if given, are sorted into enumeration order first, so the
    rows and their summation order do not depend on the order of the
    list. Far rows are restored from grid nodes (see decimate), except on
    a clip of N samples or less, where they are exact (see _far_factor).
    Raises ValueError when any far row's delay error, checked at the
    midpoint of every grid interval, exceeds DELAY_ERROR_BUDGET.
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
    factor = _far_factor(cfg, len(traj))
    nodes = decimate(traj, factor)
    high_streams = high_order_distances(high, nodes, mic, room, len(traj), factor)
    for part in high_streams.parts:
        if part.table is not None:
            _check_delay_error(part, traj, cfg)
    return merge_streams(low_streams, high_streams)


def render(s, traj, room, mic, f, cfg):
    """End-to-end: trajectory in, reverberant moving-source audio out."""
    streams = prepare_streams(traj, room, mic, cfg)
    return synthesize(s, streams, f, cfg)


def _count_order_leq(k):
    """Images with total reflection order <= k (order o has 4o^2+2 of them)."""
    return 1 + sum(4 * o * o + 2 for o in range(1, k + 1))


def cost_report(cfg, images, duration):
    """Work counts of a render: distance evaluations and per-sample work.

    images: either the enumerated spec list or a plain image count (for
    budget arithmetic beyond enumerable sizes). Returns a dict with naive
    and hierarchical distance-evaluation totals, their ratio, the
    high-order-only ratio and the far images' grid step. Far images count
    as render evaluates them: ceil(T / h) + 3 grid nodes each, or every
    sample on a clip of N samples or less (grid step 1). The per-sample
    work that dominates a render is counted too: restored_samples, the
    delay and gain samples the cubic restores (2 per far image and
    sample, none at grid step 1), and accumulated_samples, the image
    samples the Horner pass accumulates (images x samples).
    """
    n_samples = int(round(duration * cfg.audio_rate))
    if isinstance(images, int):
        total = images
        low = min(total, _count_order_leq(cfg.order_split))
    else:
        total = len(images)
        low = sum(1 for sp in images if sp.order <= cfg.order_split)
    high = total - low
    step = grid_step(_far_factor(cfg, n_samples))
    nodes = n_samples if step == 1 else -(-n_samples // step) + 3
    naive = total * n_samples
    hierarchical = low * n_samples + high * nodes
    high_naive = high * n_samples
    high_hier = high * nodes
    return {
        "images_total": total,
        "images_low": low,
        "images_high": high,
        "samples": n_samples,
        "grid_step": step,
        "naive_evals": naive,
        "hierarchical_evals": hierarchical,
        "reduction_ratio": naive / hierarchical if hierarchical else float("inf"),
        "high_order_reduction": (high_naive / high_hier) if high_hier else float("inf"),
        "restored_samples": 0 if step == 1 else 2 * high * n_samples,
        "accumulated_samples": total * n_samples,
    }
