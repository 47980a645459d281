"""Hot inner loops, in numpy.

Every kernel is elementwise along time or works on tiles whose shape does
not depend on where a render's time chunks fall, so evaluating a range of
samples gives the same bits as evaluating the whole stream and slicing it.
That is what lets the synthesis engine walk the output in chunks.

The per-sample kernels work in scratch rows allocated once per call, with
in-place ufuncs that keep each element's operands and operation order, so
they allocate nothing per step and give the bits of the plain expressions.
Distances are built in blocks of rows of at most DISTANCE_BLOCK elements.
Accumulation runs one image row at a time. Exact (near) rows arrive as
per-sample delay and gain (accumulate_images). Far rows arrive as grid
nodes of their folded delay and their gain, and are restored tile by tile
and accumulated in one pass, without any per-sample distance, delay or
gain array (accumulate_restored).
"""

import numpy as np


def using_numba():
    """Always False: every kernel runs on numpy.

    Kept so that records stamped with the kernel path stay comparable.
    """
    return False


# ---------------------------------------------------------------------------
# per-image distance streams

# elements per block of distance rows: short rows (grid nodes, a path's
# first sample) go many rows per step, chunk-long rows one at a time
DISTANCE_BLOCK = 2**14


def distance_streams(offset, sign, mic, pos):
    """Euclidean distance from each mirrored source to the mic, per sample.

    offset: (S, 3) lattice translation in meters, sign: (S, 3) +-1 per axis,
    mic: (3,), pos: (T, 3) source path. Returns (S, T) float64.

    Rows are built in blocks of max(1, DISTANCE_BLOCK // T), in place in a
    (3, rows, T) scratch array, axis by axis: (offset + sign * p) - mic,
    squared, summed as (dx^2 + dy^2) + dz^2 and square-rooted into the
    output rows.
    """
    offset = np.ascontiguousarray(offset, dtype=np.float64)
    sign = np.ascontiguousarray(sign, dtype=np.float64)
    mic = np.ascontiguousarray(mic, dtype=np.float64)
    pos_t = np.array(np.asarray(pos, dtype=np.float64).T, order="C")
    n_rows, n = offset.shape[0], pos_t.shape[1]
    out = np.empty((n_rows, n), dtype=np.float64)
    step = max(1, DISTANCE_BLOCK // max(n, 1))
    scratch = np.empty((3, min(step, n_rows), n))
    for a in range(0, n_rows, step):
        # one-row blocks index by integer: numpy loops 1-D operands faster
        blk = a if step == 1 else slice(a, a + step)
        rows = out[blk]
        delta = scratch[:, 0] if step == 1 else scratch[:, : rows.shape[0]]
        for ax in range(3):
            t = delta[ax]
            np.multiply(sign[blk, ax, None], pos_t[ax], out=t)
            np.add(offset[blk, ax, None], t, out=t)
            t -= mic[ax]
        np.multiply(delta, delta, out=delta)
        np.add(delta[0], delta[1], out=rows)
        rows += delta[2]
        np.sqrt(rows, out=rows)
    return out


# ---------------------------------------------------------------------------
# fractional-delay accumulation
#
# For output index n an image's folded delay x = tau + offset - D0 puts its
# read on the branch streams at n + offset - floor(x), at fraction
# x - floor(x); offset cancels in the resolved signal time and keeps every
# read above the filter latency. Horner evaluation of the branch values in
# the fraction, scaled by the image's gain, is accumulated into out. Rows
# are added in the order given, which is the summation order.


def _scratch(n):
    """The per-call scratch rows of _horner_row: floor(x), read index, sum, term."""
    return np.empty(n), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)


def _horner_row(out, streams, x, gain, base, scratch, inside=False):
    """Add gain times the streams read at base - floor(x), in x's fraction.

    x is overwritten with the fraction. Reads gather with mode="clip"; a
    read index outside the streams contributes +0.0. The mask that zeroes
    those entries is built only for rows that have one, and the scan for
    them is skipped when the caller has proven that inside holds.
    """
    n_branches, stream_len = streams.shape
    d_int, idx, acc, tmp = scratch
    np.floor(x, out=d_int)
    x -= d_int
    np.copyto(idx, d_int, casting="unsafe")
    np.subtract(base, idx, out=idx)
    streams[n_branches - 1].take(idx, out=acc, mode="clip")
    for k in range(n_branches - 2, -1, -1):
        streams[k].take(idx, out=tmp, mode="clip")
        acc *= x
        acc += tmp
    acc *= gain
    if not inside and (idx.min() < 0 or idx.max() >= stream_len):
        acc[(idx < 0) | (idx >= stream_len)] = 0.0
    out += acc


def accumulate_images(out, streams, tau, amp, offset, d0, start=0):
    """Sum amp-weighted fractionally delayed signal copies into out.

    out: (T,) accumulator for output indices start .. start + T - 1,
    streams: (M+1, Ls) branch streams shared by all images, tau/amp: (S, T)
    per-image delay (samples) and gain at those indices, offset: integer
    shift applied to both the delay and the read index (cancels in the
    resolved signal time), d0: nominal branch delay. start only moves the
    read index, so a range of output samples gets the same bits as the
    whole stream does. Each row's folded delay is (tau + offset) - d0.
    """
    n = out.shape[0]
    if n == 0:
        return out
    base = np.arange(start + offset, start + offset + n, dtype=np.int64)
    x = np.empty(n)
    scratch = _scratch(n)
    for i in range(tau.shape[0]):
        np.add(tau[i], offset, out=x)
        x -= d0
        _horner_row(out, streams, x, amp[i], base, scratch)
    return out


def accumulate_restored(out, streams, delay, gain, table, offset, start=0, last=None):
    """Sum far rows, restored from their grid nodes, into out.

    delay, gain: (S, K) grid nodes of each row's folded delay
    x = tau + offset - D0 (samples) and of its gain, laid out as decimate
    lays out its nodes; table: the (4, h) cubic weights. out, streams,
    offset and start are as in accumulate_images; start must be a tile
    boundary of restore_cubic. Per row, restore_cubic fills two
    tile-aligned scratch rows with x and the gain, then one Horner pass
    reads the streams. The out-of-stream scan is skipped when the restored
    delay range keeps every read inside the streams. last, if given, is an
    (S, 2) array that receives each row's restored x and gain at the
    range's final sample. Returns the largest restored x (-inf when there
    is nothing to restore).
    """
    n = out.shape[0]
    if n == 0 or delay.shape[0] == 0:
        return -np.inf
    stream_len = streams.shape[1]
    step = table.shape[1]
    size = TILE_BLOCKS * step
    xs = np.empty(-(-n // size) * size)
    gs = np.empty_like(xs)
    x, g = xs[:n], gs[:n]
    base = np.arange(start + offset, start + offset + n, dtype=np.int64)
    scratch = _scratch(n)
    # the grid nodes the range's samples are restored from
    nodes = slice(min(start // step, delay.shape[1] - 1), (start + n - 1) // step + 4)
    top = -np.inf
    for i in range(delay.shape[0]):
        restore_cubic(delay[i], table, xs, start)
        restore_cubic(gain[i], table, gs, start)
        if last is not None:
            last[i] = x[-1], g[-1]
        hi = float(x.max())
        top = max(top, hi)
        # the cubic's negative weights sum to at most 1/8, so a restored
        # value lies at most 1/8 of its nodes' span below their minimum
        # (one sample more covers rounding)
        span = delay[i, nodes]
        lo = span.min() - 0.125 * (span.max() - span.min()) - 1.0
        inside = base[0] - np.floor(hi) >= 0 and base[-1] - np.floor(lo) < stream_len
        _horner_row(out, streams, x, g, base, scratch, inside)
    return top


def accumulate_held(out, streams, delay, gain, offset, start=0):
    """Sum far rows held at one folded delay and gain into out.

    delay, gain: (S,) per-row folded delay x = tau + offset - D0 and gain,
    constant over the range; the rest is as in accumulate_restored. This is
    the tail past a path's end, where each row keeps its last values.
    """
    n = out.shape[0]
    if n == 0:
        return out
    base = np.arange(start + offset, start + offset + n, dtype=np.int64)
    x = np.empty(n)
    scratch = _scratch(n)
    for i in range(delay.shape[0]):
        x.fill(delay[i])
        _horner_row(out, streams, x, gain[i], base, scratch)
    return out


# ---------------------------------------------------------------------------
# Lagrange cubic restoration of a grid-node row onto the audio-rate grid
#
# Node k of a row sits at sample (k - 1) * h. Output sample m = j * h + p
# lies in grid interval j, between nodes j + 1 and j + 2, and is the cubic
# through nodes j .. j + 3 at phase p: the four node values dotted with
# column p of a (4, h) weight table. Seen as (intervals, h), the output is
# the matrix product frames @ table, where frames[j] holds nodes j .. j + 3.
# It is computed in tiles of TILE_BLOCKS intervals, a (TILE_BLOCKS x 4) @
# (4 x h) product whose shape depends only on h, aligned to multiples of
# TILE_BLOCKS * h samples, so a sample's value does not depend on which
# range is asked for (OpenBLAS sums in an order that varies with the
# operand shapes). At h <= 400 a tile is 64 * 4 * 400 < 2^18 multiply-adds,
# under OpenBLAS's threading threshold, so it runs on the calling thread.
# Node indices past the row's end clamp to its last node.

TILE_BLOCKS = 64


def restore_cubic(nodes, table, out, start=0):
    """Fill out with samples start .. start + out.size - 1 of a node row.

    nodes: (K,) grid values, table: (4, h) weights, out: C-contiguous
    (T,) float64. start must be a multiple of TILE_BLOCKS * h. Returns out.
    """
    step = table.shape[1]
    size = TILE_BLOCKS * step
    if start % size or start < 0:
        raise ValueError("start must be a tile boundary")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    window = np.arange(TILE_BLOCKS)[:, None] + np.arange(4)
    last = nodes.shape[0] - 1
    for a in range(0, out.shape[0], size):
        frames = nodes[np.minimum(window + (start + a) // step, last)]
        dest = out[a : a + size]
        if dest.shape[0] == size:
            np.matmul(frames, table, out=dest.reshape(TILE_BLOCKS, step))
        else:
            dest[:] = (frames @ table).ravel()[: dest.shape[0]]
    return out
