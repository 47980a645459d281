"""Hierarchical moving-image-source synthesis.

Signal flow for one render:

    trajectory p(n) --+--> near images: distance d_i(n) = |p(n) - q_i| to
        |             |    the mirrored mic q_i at every sample
        |             |        -> folded delay fs d_i(n) / c + L - D0,
        |             |           gain A_i(n) = (b_i / 4 pi) / max(d_i, d_min)
        |             |
        |             +--> far images: exact distances at grid nodes every
        |                  h-th sample, h = min(N, 400)
        |                      -> node delay tau_k + L - D0 and node gain A_k
        |                      -> Lagrange cubic restores both in between
        v
    input s -> branch filters (one shared pass) -> per-image fractional
    delay taps (Horner in the delay's fraction), scaled by the gain at
    arrival and summed in a fixed block/pairwise order

Motion changes image distances at the trajectory bandwidth (a few Hz),
orders of magnitude below the audio rate, so a far (high-order) image
needs only two slow signals, its delay and its gain. Both are formed at
grid nodes every h samples and restored by a local cubic; only the
restoration and the Horner evaluation run at the audio rate. Near images
keep exact per-sample distances: their distance curves carry the
strongest nonlinearity. The cubic's error grows as h^4 times the fourth
derivative of the distance; prepare_streams measures it on the far images
nearest the path's start and refuses a render whose delay error exceeds
DELAY_ERROR_BUDGET samples.

No per-image stream is ever held at full length. A DelayStreams value
describes its rows in two parts, in enumeration order: first the exact
rows (image geometry and path), then the restored rows (grid-node
distances). synthesize walks the output in fixed time chunks of
CHUNK_SAMPLES, rounded up to whole restoration tiles. One job per
(chunk, block of 32 images) walks its block in row order. Every row goes
on its own through one kernel that fills chunk-long scratch rows and
accumulates the row into a buffer one chunk long. An exact row's kernel
forms its distance, folded delay and gain there; a far row's kernel
restores its folded delay and gain there, so it never holds a
per-sample distance. Past the path's end every row holds its folded
delay and gain at the path's last sample; the tail adds them on the
calling thread. Beyond the input, the output and the grid nodes, memory
is O(workers x chunk) whatever the image count or the clip length. The
thread pool runs distances, restoration and accumulation. A clip of N
samples or less restores nothing: its far rows are exact, as at
decimation 1.

Summation order is fixed per output sample: images are partitioned into
fixed blocks of 32 in enumeration order, each block accumulates its images
in sequence, and a chunk's block buffers merge in a fixed pairwise tree.
Every per-sample step is elementwise, and restoration computes whole tiles
whose shape does not depend on the chunk. Chunk length and worker count
change only the scheduling, never the arithmetic, so they never change the
output bits.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels, farrow
from .room import as_arrays, as_mic, attenuation, enumerate_images
from .trajectory import decimate, grid_step, lagrange_table

SUMMATION_BLOCK = 32
# output samples per job, rounded up to whole restoration tiles
CHUNK_SAMPLES = 16384
# largest far-image delay error a render accepts, in samples
DELAY_ERROR_BUDGET = 0.01
# far images, nearest the path's start first, whose delay error is probed
PROBE_IMAGES = 4


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
    signal at arrival time. workers: threads that walk the output.
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
class _ExactRows:
    """Rows evaluated exactly on a path; past its end they hold the last value."""

    offset: np.ndarray
    sign: np.ndarray
    mic: np.ndarray
    positions: np.ndarray

    def evaluate(self, rows, start, stop):
        last = self.positions.shape[0] - 1
        pos = self.positions[min(start, last) : min(stop, last + 1)]
        d = _kernels.distance_streams(self.offset[rows], self.sign[rows], self.mic, pos)
        if d.shape[1] < stop - start:
            d = np.pad(d, ((0, 0), (0, stop - start - d.shape[1])), mode="edge")
        return d


@dataclass(frozen=True)
class _RestoredRows:
    """Rows restored from grid nodes, as bandlimited_upsample does.

    nodes: (S, K) distances at the grid nodes, table: the (4, h) cubic
    weights. Restoration computes whole tiles, so a range is computed from
    the tile boundary at or before its start and then sliced. synthesize
    does not evaluate these rows: it restores delay and gain from the
    nodes instead.
    """

    nodes: np.ndarray
    table: np.ndarray

    @property
    def tile(self):
        return _kernels.TILE_BLOCKS * self.table.shape[1]

    def evaluate(self, rows, start, stop):
        first = start - start % self.tile
        nodes = self.nodes[rows]
        out = np.empty((nodes.shape[0], stop - first))
        for row, node_row in zip(out, nodes):
            _kernels.restore_cubic(node_row, self.table, row, first)
        return out[:, start - first :]


@dataclass(frozen=True)
class DelayStreams:
    """Per-image distance streams, described rather than stored.

    Row i belongs to specs[i] and holds meters at `rate` samples per
    second for `length` samples. Rows 0..E-1 are the exact part (image
    geometry and path), rows E..S-1 the restored part (grid-node
    distances and the cubic's table), E = exact_count(); a part with no
    rows may be None. evaluate() computes any range of rows and samples;
    d builds the whole (S, length) array. eval_count tallies the distance
    evaluations the streams stand for (grid-node evaluations for
    decimated images), for cost reporting.
    """

    rate: float
    specs: list
    length: int
    exact: _ExactRows = None
    restored: _RestoredRows = None
    eval_count: int = 0

    def image_count(self):
        return len(self.specs)

    def exact_count(self):
        return 0 if self.exact is None else self.exact.offset.shape[0]

    def evaluate(self, a, b, start, stop):
        """Distances of rows a..b-1 over samples [start, stop).

        Rows of one part come back as that part computes them, without a
        copy; rows of both parts are concatenated.
        """
        if not 0 <= start <= stop <= self.length:
            raise ValueError("sample range outside the streams")
        e = self.exact_count()
        m = min(max(a, e), b)  # the first restored row asked for
        parts = []
        if a < m:
            parts.append(self.exact.evaluate(slice(a, m), start, stop))
        if m < b:
            parts.append(self.restored.evaluate(slice(m - e, b - e), start, stop))
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty((0, stop - start))

    @property
    def d(self):
        """The whole (S, length) distance array, built on demand."""
        return self.evaluate(0, self.image_count(), 0, self.length)


def low_order_distances(images, traj, mic, room):
    """Exact per-sample distances for the near (low-order) image set."""
    offset, sign, _, _ = as_arrays(images, room)
    return DelayStreams(
        rate=traj.rate,
        specs=list(images),
        length=len(traj),
        exact=_ExactRows(offset, sign, mic.pos, traj.positions),
        eval_count=len(images) * len(traj),
    )


def high_order_distances(images, nodes, mic, room, out_len, factor):
    """Distances evaluated at the grid nodes, restored to out_len samples.

    nodes is decimate(traj, factor). Per image the number of distance
    evaluations is the node count, ceil(out_len / h) + 3 with
    h = grid_step(factor), instead of out_len. The node distances are
    computed here; restoration runs when the streams are evaluated. At
    factor 1 the rows are exact distances on the path.
    """
    offset, sign, _, _ = as_arrays(images, room)
    step = grid_step(factor)
    exact = restored = None
    if step == 1:
        exact = _ExactRows(offset, sign, mic.pos, nodes.positions)
    else:
        d = _kernels.distance_streams(offset, sign, mic.pos, nodes.positions)
        restored = _RestoredRows(d, lagrange_table(step))
    return DelayStreams(
        rate=nodes.rate * step,
        specs=list(images),
        length=out_len,
        exact=exact,
        restored=restored,
        eval_count=len(images) * len(nodes),
    )


def merge_streams(low, high):
    """low's rows, then high's: a checked concatenation.

    low must be exact, and every low spec must precede every high spec, so
    rows sorted within each side stay in enumeration order. Two exact
    parts on the same path and mic fold into one. Raises ValueError when
    these do not hold or when the rates or lengths differ.
    """
    if low.image_count() == 0:
        return high
    if high.image_count() == 0:
        return low
    if low.rate != high.rate:
        raise ValueError("stream rates differ")
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
        exact = _ExactRows(
            np.concatenate([exact.offset, other.offset]),
            np.concatenate([exact.sign, other.sign]),
            exact.mic,
            exact.positions,
        )
    return DelayStreams(
        rate=low.rate,
        specs=list(low.specs) + list(high.specs),
        length=low.length,
        exact=exact,
        restored=high.restored,
        eval_count=low.eval_count + high.eval_count,
    )


class _PairwiseSum:
    """Sum of buffers added in order, in a fixed pairwise tree.

    The tree adds buffers 2k and 2k + 1 level by level and carries an odd
    last one up: ((b0 + b1) + (b2 + b3)) + b4 for five. It is kept as a
    stack of complete subtrees, so O(log n) buffers are alive at once.
    """

    def __init__(self):
        self._stack = []  # (leaf count, partial sum)

    def add(self, buf):
        leaves = 1
        while self._stack and self._stack[-1][0] == leaves:
            left = self._stack.pop()[1]
            left += buf
            buf = left
            leaves *= 2
        self._stack.append((leaves, buf))

    def total(self):
        acc = self._stack.pop()[1]
        while self._stack:
            left = self._stack.pop()[1]
            left += acc
            acc = left
        return acc


def _in_order(job, tasks, workers):
    """Yield job(*task) for each task in order, at most 2 x workers queued."""
    if workers == 1 or len(tasks) == 1:
        for task in tasks:
            yield job(*task)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.submit(job, *task))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _walk(job, pieces, blocks, workers):
    """Run job(a, b, start, stop) for every piece and block.

    job returns (buffer, peak). Returns the pieces' buffers, each summed
    over the blocks in the pairwise tree, and the largest peak.
    """
    tasks = [(*blk, *piece) for piece in pieces for blk in blocks]
    results = _in_order(job, tasks, workers)
    out, top = [], -np.inf
    for _ in pieces:
        tree = _PairwiseSum()
        for _ in blocks:
            buf, peak = next(results)
            tree.add(buf)
            top = max(top, peak)
        out.append(tree.total())
    return out, top


def synthesize(s, streams, f, cfg):
    """Render the moving-image mixture of s at the receiver.

    Output length is len(s) + ceil(max delay) + L, the maximum taken over
    the whole streams. Past the end of the streams every row holds its
    last value (the tail rings with the final geometry); streams that run
    past the output are evaluated to their end for the maximum, then cut.
    The delay request is shifted by L samples and the branch stream read
    index shifted back by the same amount, which keeps every request above
    the filter latency without physically padding the input.

    Rows are accumulated one at a time, in row order within each block: a
    job over rows [a, b) passes its exact rows [a, min(b, E)) to
    accumulate_exact and the rest to accumulate_restored, as slices.
    Exact rows form their distance to the mirrored mic, their folded
    delay tau + L - D0 and their gain per sample, in the kernel's scratch
    rows. Restored (far) rows never hold a per-sample distance: their
    folded delay and gain are formed once per grid node and restored
    inside the accumulation kernel. The tail holds every row at its
    folded delay and gain at the path's end.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("input must be a nonempty 1-D signal")
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    n_images = streams.image_count()
    if n_images == 0:
        return np.zeros(s.size + f.branch_len)
    beta = np.array([sp.beta for sp in streams.specs])
    blocks = [
        (a, min(a + SUMMATION_BLOCK, n_images))
        for a in range(0, n_images, SUMMATION_BLOCK)
    ]
    branch = farrow.branch_filter(s, f)
    shift = f.branch_len  # keeps tau + shift >= D0 for every physical delay
    fold = shift - f.nominal_delay
    scale = streams.rate / cfg.sound_speed
    length = streams.length
    exact, restored = streams.exact, streams.restored
    n_exact = streams.exact_count()
    if exact is not None:
        # mirrored mics and spreading coefficients attenuation(beta, 1)
        q = _kernels.mirrored_mics(exact.offset, exact.sign, exact.mic)
        coef = attenuation(beta[:n_exact], 1.0)
    if restored is not None:
        # folded delay and gain at every grid node, d_min applied there
        delay = streams.rate * restored.nodes / cfg.sound_speed + fold
        gain = attenuation(
            beta[n_exact:, None], np.maximum(restored.nodes, cfg.d_min)
        )
    held = np.empty((n_images, 2))  # folded delay and gain at the path's end

    def path_job(a, b, start, stop):
        buf, peak, top = np.zeros(stop - start), -np.inf, -np.inf
        ends = stop == length
        m = min(max(a, n_exact), b)  # the job's first restored row
        if a < m:
            peak = _kernels.accumulate_exact(
                buf, branch, q[a:m], exact.positions[start:stop], coef[a:m],
                scale, fold, cfg.d_min, shift, start, held[a:m] if ends else None,
            )
        if m < b:
            rows = slice(m - n_exact, b - n_exact)
            top = _kernels.accumulate_restored(
                buf, branch, delay[rows], gain[rows], restored.table, shift,
                start, held[m:b] if ends else None,
            )
        return buf, max(streams.rate * peak / cfg.sound_speed, top - fold)

    def tail_job(a, b, start, stop):
        buf = np.zeros(stop - start)
        _kernels.accumulate_held(buf, branch, held[a:b, 0], held[a:b, 1], shift, start)
        return buf, -np.inf

    chunk = 1 if restored is None else restored.tile
    chunk *= -(-CHUNK_SAMPLES // chunk)
    pieces = [(t, min(t + chunk, length)) for t in range(0, length, chunk)]
    out, tau_max = _walk(path_job, pieces, blocks, cfg.workers)
    out_len = s.size + int(np.ceil(tau_max)) + f.branch_len
    if out_len > length:
        first = length - length % chunk
        tail = [
            (max(t, length), min(t + chunk, out_len))
            for t in range(first, out_len, chunk)
        ]
        # tail jobs are short: a thread pool costs more than it saves
        out += _walk(tail_job, tail, blocks, 1)[0]
    return np.concatenate(out)[:out_len]


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


def _check_delay_error(rows, images, traj, mic, room, cfg):
    """Refuse restored far rows whose delay misses the exact one too far.

    rows: the restored part of images' streams. Probes the PROBE_IMAGES images
    nearest the path's start, whose distance curves bend most, at the
    midpoint of every grid interval the path reaches, where the cubic's
    error kernel peaks (at the path's last sample if it ends sooner).
    Raises ValueError when the worst error exceeds DELAY_ERROR_BUDGET.
    """
    near = np.argsort(rows.nodes[:, 1], kind="stable")[:PROBE_IMAGES]
    offset, sign, _, _ = as_arrays([images[i] for i in near], room)
    step = rows.table.shape[1]
    n = len(traj)
    probes = np.minimum(np.arange(-(-n // step)) * step + step // 2, n - 1)
    block, phase = np.divmod(probes, step)
    frames = rows.nodes[near][:, block[:, None] + np.arange(4)]
    restored = np.einsum("ijk,kj->ij", frames, rows.table[:, phase])
    exact = _kernels.distance_streams(offset, sign, mic.pos, traj.positions[probes])
    err = float(np.abs(restored - exact).max()) * traj.rate / cfg.sound_speed
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
    Raises ValueError when the far rows' delay error, probed on the
    PROBE_IMAGES far images nearest the path's start, exceeds
    DELAY_ERROR_BUDGET.
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
        _check_delay_error(high_streams.restored, high, traj, mic, room, cfg)
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
