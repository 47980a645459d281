"""Hot inner loops, in numpy.

Every kernel is elementwise along time or works on tiles whose shape does
not depend on where a render's time chunks fall, so evaluating a range of
samples gives the same bits as evaluating the whole stream and slicing it.
That is what lets the synthesis engine walk the output in chunks.

The per-sample kernels work in scratch rows allocated once per call, with
in-place ufuncs that keep each element's operands and operation order, so
they allocate nothing per step and give the bits of the plain expressions.
A distance is the path's distance to the image's mirrored mic
(mirrored_mics), one shared row expression (_distance_rows); distance
tables are built in blocks of rows of at most DISTANCE_BLOCK elements.
Accumulation runs one image row at a time through one Horner pass
(_horner_row), in one kernel (accumulate_rows). Every row arrives as its
mirrored mic and spreading coefficient, and its distance, folded delay
and gain are formed from a path: the path's samples for an exact (near)
row, its grid nodes for a far row, whose delay and gain are then
restored tile by tile. No row holds an array longer than the range.
Rows held at one delay and gain past the path's end read contiguous
runs of the streams (accumulate_held). farrow.delay_stream
reads its one per-sample delay through _horner_row too.
"""

import math

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


def mirrored_mics(offset, sign, mic):
    """Each image's mic mirrored into the path's frame, sign * (mic - offset).

    sign is +-1 per axis, so |offset + sign * p - mic| = |p - q| with
    q = sign * (mic - offset): an image's distance is the path's distance
    to its mirrored mic. offset, sign: (S, 3), mic: (3,). Returns (S, 3).
    """
    return sign * (mic - offset)


def _distance_rows(q, pos_t, out, tmp):
    """Fill out with |p - q|: (dx^2 + dy^2) + dz^2 with dx = p_x - q_x, rooted.

    pos_t: (3, T) path, axis by axis; q[ax] broadcasts against pos_t[ax]
    to out's shape (a scalar for one row, an (R, 1) column for R rows).
    tmp is scratch of out's shape.
    """
    np.subtract(pos_t[0], q[0], out=out)
    np.multiply(out, out, out=out)
    for ax in (1, 2):
        np.subtract(pos_t[ax], q[ax], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        out += tmp
    np.sqrt(out, out=out)


def distance_streams(offset, sign, mic, pos):
    """Euclidean distance from each mirrored source to the mic, per sample.

    offset: (S, 3) lattice translation in meters, sign: (S, 3) +-1 per axis,
    mic: (3,), pos: (T, 3) source path. Returns (S, T) float64: each row is
    the path's distance to the image's mirrored mic (mirrored_mics).

    Rows are built in blocks of max(1, DISTANCE_BLOCK // T), in place in
    the output with one block of scratch, by the same row arithmetic the
    row kernel uses (accumulate_rows).
    """
    q = mirrored_mics(
        np.asarray(offset, dtype=np.float64),
        np.asarray(sign, dtype=np.float64),
        np.asarray(mic, dtype=np.float64),
    )
    pos_t = np.array(np.asarray(pos, dtype=np.float64).T, order="C")
    n_rows, n = q.shape[0], pos_t.shape[1]
    out = np.empty((n_rows, n), dtype=np.float64)
    step = max(1, DISTANCE_BLOCK // max(n, 1))
    tmp = np.empty((min(step, n_rows), n))
    q_cols = q.T[:, :, None]
    for a in range(0, n_rows, step):
        rows = out[a : a + step]
        _distance_rows(q_cols[:, a : a + step], pos_t, rows, tmp[: rows.shape[0]])
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


def accumulate_rows(
    out, streams, q, path, coef, scale, fold, d_min, offset, start=0, last=None,
    table=None,
):
    """Sum image rows, formed from the path, into out.

    out: (T,) accumulator for output indices start .. start + T - 1,
    streams: (M+1, Ls) branch streams shared by all rows, q: (S, 3)
    mirrored mics (mirrored_mics), coef: (S,) spreading coefficients
    attenuation(beta, 1) = beta / (4 pi), scale: rate / c in samples per
    meter, fold: L - D0, offset: the read index shift L, which fold
    carries in the delay. start only moves the read index, so a range of
    output samples gets the same bits as the whole stream does.

    Per row, scratch rows as long as path receive the distance
    d = |p - q| (the arithmetic of distance_streams), the folded delay
    x = d * scale + fold and the gain coef / max(d, d_min), which is
    attenuation(beta, max(d, d_min)) bit for bit. With table None, path
    is (T, 3), the path at the range's samples, and those rows are read
    as they are. With table, the (4, h) cubic weights, path holds the
    grid nodes the range is restored from, nodes start // h up to
    ceil((start + T) / h) + 3 (fewer at the path's end), and restore_cubic
    fills range-long rows of x and gain from them; start must then be a
    tile boundary, a multiple of TILE_BLOCKS * h (ValueError otherwise).
    One Horner pass per row reads the streams. Reads are bounded by the
    row's largest x and by x >= fold for sample rows, or by the span of
    the node delays for grid rows; the out-of-stream scan is skipped when
    both bounds lie inside the streams.

    last, if given, is an (S, 2) array that receives each row's x and
    gain at the range's final sample. Returns the largest x (-inf when
    there is nothing to add).
    """
    n = out.shape[0]
    if n == 0 or q.shape[0] == 0:
        return -np.inf
    pos_t = np.array(path.T, order="C")
    m = pos_t.shape[1]
    x, g = np.empty(m), np.empty(m)
    scratch = _scratch(n)
    # the Horner pass's term row doubles as the distance's scratch
    tmp = scratch[3][:m] if m <= n else np.empty(m)
    if table is not None:
        size = TILE_BLOCKS * table.shape[1]
        if start % size or start < 0:
            raise ValueError("start must be a tile boundary")
        xs = np.empty(-(-n // size) * size)
        gs = np.empty_like(xs)
    base = np.arange(start + offset, start + offset + n, dtype=np.int64)
    stream_len = streams.shape[1]
    top = -np.inf
    for i in range(q.shape[0]):
        # g holds the distance until it becomes the gain
        _distance_rows(q[i], pos_t, g, tmp)
        np.multiply(g, scale, out=x)
        x += fold
        np.maximum(g, d_min, out=g)
        np.divide(coef[i], g, out=g)
        if table is None:
            lo, xr, gr = fold, x, g  # d >= 0 gives x >= fold
        else:
            # the cubic's negative weights sum to at most 1/8, so a restored
            # value lies at most 1/8 of its nodes' span below their minimum
            # (one sample more covers rounding)
            lo = x.min() - 0.125 * (x.max() - x.min()) - 1.0
            xr = restore_cubic(x, table, xs)[:n]
            gr = restore_cubic(g, table, gs)[:n]
        if last is not None:
            last[i] = xr[-1], gr[-1]
        hi = float(xr.max())
        top = max(top, hi)
        inside = base[0] - math.floor(hi) >= 0
        inside = inside and base[-1] - math.floor(lo) < stream_len
        _horner_row(out, streams, xr, gr, base, scratch, inside)
    return top


def accumulate_held(out, streams, delay, gain, offset, start=0):
    """Sum rows held at one folded delay and gain into out.

    delay, gain: (S,) per-row folded delay x = tau + offset - D0 and gain,
    constant over the range; the rest is as in accumulate_rows. This is
    the tail past a path's end, where each row keeps its last values.

    A held row reads one contiguous run of the streams, at one fraction:
    floor(x) and the fraction are taken once, and only the part of the run
    that lies inside the streams is read and added. Outside it the row
    contributes nothing, as the masked reads of _horner_row do.
    """
    n = out.shape[0]
    n_branches, stream_len = streams.shape
    acc = np.empty(n)
    for x, g in zip(delay.tolist(), gain.tolist()):
        d_int = math.floor(x)
        mu = x - d_int
        first = start + offset - d_int
        lo, hi = max(0, -first), min(n, stream_len - first)
        if lo >= hi:
            continue
        reads = slice(first + lo, first + hi)
        a = acc[: hi - lo]
        np.copyto(a, streams[n_branches - 1, reads])
        for k in range(n_branches - 2, -1, -1):
            a *= mu
            a += streams[k, reads]
        a *= g
        out[lo:hi] += a


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


def restore_cubic(nodes, table, out):
    """Fill out with samples 0 .. out.size - 1 of a node row.

    nodes: (K,) grid values, table: (4, h) weights, out: C-contiguous
    (T,) float64. A range of a longer row that starts on a tile boundary,
    a multiple of TILE_BLOCKS * h, is restored from the row's nodes from
    start // h on, in the tiles, and so with the bits, of the whole row.
    Returns out.
    """
    step = table.shape[1]
    size = TILE_BLOCKS * step
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    window = np.arange(TILE_BLOCKS)[:, None] + np.arange(4)
    last = nodes.shape[0] - 1
    for a in range(0, out.shape[0], size):
        frames = nodes[np.minimum(window + a // step, last)]
        dest = out[a : a + size]
        if dest.shape[0] == size:
            np.matmul(frames, table, out=dest.reshape(TILE_BLOCKS, step))
        else:
            dest[:] = (frames @ table).ravel()[: dest.shape[0]]
    return out
