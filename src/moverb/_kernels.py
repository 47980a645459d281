"""Hot inner loops, in numpy.

Every kernel is elementwise along time or works on tiles whose shape does
not depend on where a render's time chunks fall, so evaluating a range of
samples gives the same bits as evaluating the whole stream and slicing it.
That is what lets the synthesis engine walk the output in chunks.

The per-sample kernels (distances and Horner accumulation) work one image
row at a time in scratch rows allocated once per call, with in-place
ufuncs that keep each element's operands and operation order, so they
allocate nothing per step and give the bits of the plain expressions.
"""

import numpy as np


def using_numba():
    """Always False: every kernel runs on numpy.

    Kept so that records stamped with the kernel path stay comparable.
    """
    return False


# ---------------------------------------------------------------------------
# per-image distance streams


def distance_streams(offset, sign, mic, pos):
    """Euclidean distance from each mirrored source to the mic, per sample.

    offset: (S, 3) lattice translation in meters, sign: (S, 3) +-1 per axis,
    mic: (3,), pos: (T, 3) source path. Returns (S, T) float64.

    Each row is built in place in a (3, T) scratch array, axis by axis:
    (offset + sign * p) - mic, squared, summed as (dx^2 + dy^2) + dz^2 and
    square-rooted into the output row.
    """
    offset = np.ascontiguousarray(offset, dtype=np.float64)
    sign = np.ascontiguousarray(sign, dtype=np.float64)
    mic = np.ascontiguousarray(mic, dtype=np.float64)
    pos_t = np.array(np.asarray(pos, dtype=np.float64).T, order="C")
    out = np.empty((offset.shape[0], pos_t.shape[1]), dtype=np.float64)
    delta = np.empty_like(pos_t)
    for i, row in enumerate(out):
        for ax in range(3):
            t = delta[ax]
            np.multiply(sign[i, ax], pos_t[ax], out=t)
            np.add(offset[i, ax], t, out=t)
            t -= mic[ax]
        np.multiply(delta, delta, out=delta)
        np.add(delta[0], delta[1], out=row)
        row += delta[2]
        np.sqrt(row, out=row)
    return out


# ---------------------------------------------------------------------------
# fractional-delay accumulation over a block of images
#
# For output index n and image i the requested delay is tau[i, n] + offset
# samples; the integer part lands on the branch streams at n + offset - D.
# Horner evaluation of the branch values in mu, scaled by amp[i, n], is
# accumulated into out. Image order inside the block is the summation order.


def accumulate_images(out, streams, tau, amp, offset, d0, start=0):
    """Sum amp-weighted fractionally delayed signal copies into out.

    out: (T,) accumulator for output indices start .. start + T - 1,
    streams: (M+1, Ls) branch streams shared by all images, tau/amp: (S, T)
    per-image delay (samples) and gain at those indices, offset: integer
    shift applied to both the delay and the read index (cancels in the
    resolved signal time), d0: nominal branch delay. start only moves the
    read index, so a range of output samples gets the same bits as the
    whole stream does.

    Each image row runs in place in five (T,) scratch rows allocated once
    per call. Reads gather with mode="clip"; a read index outside the
    streams contributes +0.0, and the mask that zeroes those entries is
    built only for rows that have one.
    """
    n_branches, stream_len = streams.shape
    n = out.shape[0]
    if n == 0:
        return out
    base = np.arange(start + offset, start + offset + n, dtype=np.int64)
    x = np.empty(n)  # shifted - d0, then the fraction mu
    d_int = np.empty(n)
    idx = np.empty(n, dtype=np.int64)
    acc = np.empty(n)
    tmp = np.empty(n)
    for i in range(tau.shape[0]):
        np.add(tau[i], offset, out=x)
        x -= d0
        np.floor(x, out=d_int)
        x -= d_int
        np.copyto(idx, d_int, casting="unsafe")
        np.subtract(base, idx, out=idx)
        streams[n_branches - 1].take(idx, out=acc, mode="clip")
        for k in range(n_branches - 2, -1, -1):
            streams[k].take(idx, out=tmp, mode="clip")
            acc *= x
            acc += tmp
        acc *= amp[i]
        if idx.min() < 0 or idx.max() >= stream_len:
            acc[(idx < 0) | (idx >= stream_len)] = 0.0
        out += acc
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
