"""Hierarchical moving-image-source synthesis.

Signal flow for one render:

    trajectory p(n) --+--> near images: distance d_i(n) = |p(n) - q_i| to
        |             |    the mirrored mic q_i at every sample
        |             |        -> folded delay d_i(n) (fs / c) + L - D0,
        |             |           gain A_i(n) = (b_i / 4 pi) / max(d_i, d_min)
        |             |
        |             +--> far images: exact distances at grid nodes every
        |                  h-th sample, h = min(N, 400)
        |                      -> node delay tau_k + L - D0 and node gain A_k
        |                      -> Lagrange cubic restores both in between
        v
    input s -> branch filters (one shared pass) -> per-image fractional
    delay taps (Horner in the delay's fraction), scaled by the gain at
    arrival and summed in row order

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
is a plain record of its rows in two parts, in enumeration order: first
the exact rows, then the restored rows. Both parts are one record of
image geometry and a path: the path's samples for exact rows, its grid
nodes and the cubic's table for restored ones. Every row holds meters
at the audio rate, cfg.audio_rate. synthesize never asks the record for
a distance; row(i) and d form whole rows for dumps and checks.

synthesize walks the output in fixed time chunks of CHUNK_SAMPLES,
rounded up to whole restoration tiles. One job per chunk adds every
row, one at a time in row order, straight into the chunk's slice of the
output, through one kernel: near and far rows differ only in the path
it reads. An exact row's distance, folded delay and gain are formed in
chunk-long scratch rows from the path's samples in the chunk; a far
row's are formed at the grid nodes the chunk is restored from, and its
folded delay and gain are restored in chunk-long scratch rows, so it
never holds a per-sample distance. Past the path's end every row holds
its folded delay and gain at the path's last sample; the tail adds them
on the calling thread. Beyond the input, the output and the path, no
per-image array longer than a chunk is held: memory is
O(workers x chunk) whatever the image count or the clip length. Chunks
run on a pool of `workers` threads; a path of one chunk renders on the
calling thread. A clip of N samples or less restores nothing: its far
rows are exact, as at decimation 1.

Summation order is fixed per output sample: ((0 + r_0) + r_1) + ... over
the rows in enumeration order, as a loop over the images adds them.
Every per-sample step is elementwise, restoration computes whole tiles
whose shape does not depend on the chunk, and chunks write disjoint
slices of the output. Chunk length and worker count change only the
scheduling, never the arithmetic, so they never change the output bits.
"""

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
    """Image rows on one path: exact at its samples or restored from its nodes.

    offset, sign: (S, 3) image geometry, mic: (3,), positions: (P, 3). With
    table None, positions is the path at every sample; with table, the
    (4, h) cubic weights, it is the path at the grid nodes (decimate's
    layout) and a row is the cubic restoration of its node values.
    """

    offset: np.ndarray
    sign: np.ndarray
    mic: np.ndarray
    positions: np.ndarray
    table: np.ndarray = None

    def distances(self, rows=slice(None)):
        """Distances of the picked rows at every position, (S', P)."""
        return _kernels.distance_streams(
            self.offset[rows], self.sign[rows], self.mic, self.positions
        )


@dataclass(frozen=True)
class DelayStreams:
    """Per-image distance streams, described rather than stored.

    Row i belongs to specs[i] and holds meters at the audio rate for
    `length` samples. Rows 0..E-1 are the exact part, rows E..S-1 the
    restored part (rows on the grid nodes and the cubic's table),
    E = exact_count(); a part with no rows may be None. row(i) computes
    one whole row; d builds the whole (S, length) array. eval_count
    tallies the distance evaluations the streams stand for (grid-node
    evaluations for decimated images), for cost reporting.
    """

    specs: list
    length: int
    exact: _Rows = None
    restored: _Rows = None
    eval_count: int = 0

    def image_count(self):
        return len(self.specs)

    def exact_count(self):
        return 0 if self.exact is None else self.exact.offset.shape[0]

    def row(self, i):
        """Distances of row i over the whole length."""
        e = self.exact_count()
        part, j = (self.exact, i) if i < e else (self.restored, i - e)
        d = part.distances(slice(j, j + 1))[0]
        if part.table is None:
            return d
        return _kernels.restore_cubic(d, part.table, np.empty(self.length))

    @property
    def d(self):
        """The whole (S, length) distance array, built on demand."""
        out = np.empty((self.image_count(), self.length))
        for i in range(self.image_count()):
            out[i] = self.row(i)
        return out


def low_order_distances(images, traj, mic, room):
    """Exact per-sample distances for the near (low-order) image set."""
    offset, sign, _, _ = as_arrays(images, room)
    return DelayStreams(
        specs=list(images),
        length=len(traj),
        exact=_Rows(offset, sign, mic.pos, traj.positions),
        eval_count=len(images) * len(traj),
    )


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
    offset, sign, _, _ = as_arrays(images, room)
    step = grid_step(factor)
    if step == 1 and out_len != len(nodes):
        raise ValueError("at factor 1 out_len must equal the path length")
    table = None if step == 1 else lagrange_table(step)
    rows = _Rows(offset, sign, mic.pos, nodes.positions, table)
    return DelayStreams(
        specs=list(images),
        length=out_len,
        exact=rows if table is None else None,
        restored=None if table is None else rows,
        eval_count=len(images) * len(nodes),
    )


def merge_streams(low, high):
    """low's rows, then high's: a checked concatenation.

    low must be exact, and every low spec must precede every high spec, so
    rows sorted within each side stay in enumeration order. Two exact
    parts on the same path and mic fold into one. Raises ValueError when
    these do not hold or when the lengths differ.
    """
    if low.image_count() == 0:
        return high
    if high.image_count() == 0:
        return low
    if low.length != high.length:
        raise ValueError("stream lengths differ")
    if low.restored is not None:
        raise ValueError("the low side must be exact")
    if max(low.specs) > min(high.specs):
        raise ValueError("every low image must precede every high image")
    exact = low.exact
    if high.exact is not None:
        other = high.exact
        if not (
            np.array_equal(other.mic, exact.mic)
            and np.array_equal(other.positions, exact.positions)
        ):
            raise ValueError("exact rows on different paths")
        exact = _Rows(
            np.concatenate([exact.offset, other.offset]),
            np.concatenate([exact.sign, other.sign]),
            exact.mic,
            exact.positions,
        )
    return DelayStreams(
        specs=list(low.specs) + list(high.specs),
        length=low.length,
        exact=exact,
        restored=high.restored,
        eval_count=low.eval_count + high.eval_count,
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


def far_gain_nodes(streams, i, d_min):
    """Gain of restored row i at its grid nodes, (K,).

    attenuation(beta, max(d, d_min)) of the row's node distances, as
    synthesize forms them before restoring the gain.
    """
    j = i - streams.exact_count()
    d = streams.restored.distances(slice(j, j + 1))[0]
    return attenuation(streams.specs[i].beta, np.maximum(d, d_min))


def synthesize(s, streams, f, cfg):
    """Render the moving-image mixture of s at the receiver.

    Output length is len(s) + ceil(max delay) + L, the maximum taken over
    the whole streams. Past the end of the streams every row holds its
    last value (the tail rings with the final geometry); streams that run
    past the output are evaluated to their end for the maximum, then cut.
    The delay request is shifted by L samples and the branch stream read
    index shifted back by the same amount, which keeps every request above
    the filter latency without physically padding the input.

    One job per time chunk adds every row, in row order, into its slice
    of the output through accumulate_rows: the exact part on the path's
    samples in the chunk, then the restored part on the grid nodes the
    chunk is restored from. Each row's distance to its mirrored mic,
    folded delay tau + L - D0 and gain are formed there, in the kernel's
    scratch rows; a far row's are formed at its nodes and restored, so it
    never holds a per-sample distance. The tail holds every row at its
    folded delay and gain at the path's end, and one accumulate_held call
    on the calling thread adds it.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("input must be a nonempty 1-D signal")
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    n_images = streams.image_count()
    if n_images == 0:
        return np.zeros(s.size + f.branch_len)
    branch = farrow.branch_filter(s, f)
    shift = f.branch_len  # keeps tau + shift >= D0 for every physical delay
    fold = shift - f.nominal_delay
    scale = cfg.audio_rate / cfg.sound_speed
    length = streams.length
    n_exact = streams.exact_count()
    held = np.empty((n_images, 2))  # folded delay and gain at the path's end
    # each part with its mirrored mics, spreading coefficients
    # attenuation(beta, 1) and rows of held
    parts = []
    for rows, pick in (
        (streams.exact, slice(0, n_exact)),
        (streams.restored, slice(n_exact, None)),
    ):
        if rows is not None:
            q = _kernels.mirrored_mics(rows.offset, rows.sign, rows.mic)
            beta = np.array([sp.beta for sp in streams.specs[pick]])
            parts.append((rows, q, attenuation(beta, 1.0), held[pick]))
    path = np.zeros(length)

    def path_job(start, stop):
        top = -np.inf
        for rows, q, coef, last in parts:
            # the path's samples in the chunk, or the nodes it is restored from
            window = slice(start, stop)
            if rows.table is not None:
                step = rows.table.shape[1]
                window = slice(start // step, -(-stop // step) + 3)
            x_max = _kernels.accumulate_rows(
                path[start:stop], branch, q, rows.positions[window], coef, scale,
                fold, cfg.d_min, shift, start, last if stop == length else None,
                rows.table,
            )
            top = max(top, x_max)
        return top - fold  # the chunk's largest delay

    restored = streams.restored
    chunk = 1 if restored is None else _kernels.TILE_BLOCKS * restored.table.shape[1]
    chunk *= -(-CHUNK_SAMPLES // chunk)
    pieces = [(t, min(t + chunk, length)) for t in range(0, length, chunk)]
    tau_max = max(_run(path_job, pieces, cfg.workers))
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    if out_len <= length:
        return path[:out_len]
    tail = np.zeros(out_len - length)
    _kernels.accumulate_held(tail, branch, held[:, 0], held[:, 1], shift, length)
    return np.concatenate([path, tail])


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
    the exact distance there. Raises ValueError when the worst error
    exceeds DELAY_ERROR_BUDGET.
    """
    step = rows.table.shape[1]
    n = len(traj)
    probes = np.minimum(np.arange(-(-n // step)) * step + step // 2, n - 1)
    block, phase = np.divmod(probes, step)
    nodes = rows.distances()
    miss = _kernels.distance_streams(
        rows.offset, rows.sign, rows.mic, traj.positions[probes]
    )
    for k in range(4):
        miss -= nodes[:, block + k] * rows.table[k, phase]
    err = float(np.abs(miss).max()) * (traj.rate / cfg.sound_speed)
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
    if high and high_streams.restored is not None:
        _check_delay_error(high_streams.restored, traj, cfg)
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
