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
tables (mic_distances) are built in blocks of rows of at most
DISTANCE_BLOCK elements. A row's delay and gain have one home,
row_terms, which the render and the stream record's rows read: it forms
them from the row's mirrored mic and spreading coefficient on a path,
the path's samples for an exact (near) row, its grid nodes for a far
row, whose delay and gain are then restored tile by tile. No row holds
an array longer than the range. Accumulation runs one image row at a
time through one Horner pass (_horner_row), in one kernel
(accumulate_rows).
Rows held at one delay and gain past the path's end take the same pass
(accumulate_held), as farrow.delay_stream's one per-sample delay does.
The pass reads guarded branch streams (farrow.guarded_branches): a
clipped read outside the input lands on a zero guard, so no caller
masks a read. A render's jobs read windows of the streams, cut for
bounds on the delays, which accumulate_rows checks before each row's
read.
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


def mic_distances(q, pos):
    """Euclidean distance from the path to each mirrored mic, per sample.

    q: (S, 3) mirrored mics (mirrored_mics), pos: (T, 3) source path.
    Returns (S, T) float64. Rows are built in blocks of
    max(1, DISTANCE_BLOCK // T), in place in the output with one block of
    scratch, by the same row arithmetic the row kernel uses (row_terms).
    """
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


def distance_streams(offset, sign, mic, pos):
    """Euclidean distance from each mirrored source to the mic, per sample.

    offset: (S, 3) lattice translation in meters, sign: (S, 3) +-1 per axis,
    mic: (3,), pos: (T, 3) source path. Returns (S, T) float64: each row is
    the path's distance to the image's mirrored mic (mic_distances).
    """
    q = mirrored_mics(
        np.asarray(offset, dtype=np.float64),
        np.asarray(sign, dtype=np.float64),
        np.asarray(mic, dtype=np.float64),
    )
    return mic_distances(q, pos)


# ---------------------------------------------------------------------------
# fractional-delay accumulation
#
# For output index n an image's delay tau, in samples, reads the branch
# streams at input time n + D0 - floor(tau), guarded index one more, at
# fraction tau - floor(tau): farrow.split_delay's split, with the bank's
# latency D0 the one integer offset of the read base. Horner evaluation in
# the fraction, scaled by the image's gain, is added into out, rows in the
# order given, which is the summation order.


def _scratch(n, first):
    """The per-call scratch rows of _horner_row.

    Read index, sum and term, then the read base: the guarded index
    first + 1 .. first + n of each output sample at zero delay.
    """
    base = np.arange(first + 1, first + 1 + n, dtype=np.int64)
    return np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), base


def _horner_row(out, streams, x, gain, scratch):
    """Add gain times the guarded streams read at base - floor(x), in x's fraction.

    streams: guarded branch streams (farrow.guarded_branches), index
    n + 1 holding input time n. x is overwritten with the fraction. Reads
    gather with mode="clip", so a read outside the input lands on a zero
    guard and adds a signed zero, which leaves every sum but -0.0 as it
    was (a sum that starts at +0.0 never becomes -0.0).
    """
    n_branches = streams.shape[0]
    idx, acc, tmp, base = scratch
    # acc holds floor(x) until the first gather overwrites it
    np.floor(x, out=acc)
    x -= acc
    np.copyto(idx, acc, casting="unsafe")
    np.subtract(base, idx, out=idx)
    streams[n_branches - 1].take(idx, out=acc, mode="clip")
    for k in range(n_branches - 2, -1, -1):
        streams[k].take(idx, out=tmp, mode="clip")
        acc *= x
        acc += tmp
    acc *= gain
    out += acc


def row_terms(q, path, coef, scale, d_min, n, start=0, table=None):
    """Each row's delay and gain over n output samples, in row order.

    q: (S, 3) mirrored mics (mirrored_mics), coef: (S,) spreading
    coefficients attenuation(beta, 1) = beta / (4 pi), scale: rate / c
    in samples per meter.

    Per row, scratch rows as long as path receive the distance
    d = |p - q| (the arithmetic of mic_distances), the delay
    tau = d * scale and the gain coef / max(d, d_min), which is
    attenuation(beta, max(d, d_min)) bit for bit. With table None, path
    is (n, 3), the path at the range's samples, and those rows are
    yielded as they are. With table, the (4, h) cubic weights, path holds
    the grid nodes output samples start .. start + n - 1 are restored
    from, nodes start // h up to ceil((start + n) / h) + 3 (fewer at the
    path's end), and restore_cubic fills n-long rows of tau and gain from
    them; start must then be a tile boundary, a multiple of
    TILE_BLOCKS * h (ValueError otherwise).

    Yields (tau, gain) per row, in scratch that the next row overwrites; a
    caller may overwrite it too.
    """
    pos_t = np.array(path.T, order="C")
    m = pos_t.shape[1]
    x, g = np.empty(m), np.empty(m)
    if table is not None:
        size = TILE_BLOCKS * table.shape[1]
        if start % size or start < 0:
            raise ValueError("start must be a tile boundary")
        xs = np.empty(-(-n // size) * size)
        gs = np.empty_like(xs)
    for i in range(q.shape[0]):
        # g holds the distance until it becomes the gain; x is its scratch
        _distance_rows(q[i], pos_t, g, x)
        np.multiply(g, scale, out=x)
        np.maximum(g, d_min, out=g)
        np.divide(coef[i], g, out=g)
        if table is None:
            yield x, g
        else:
            yield restore_cubic(x, table, xs)[:n], restore_cubic(g, table, gs)[:n]


def accumulate_rows(
    out, streams, q, path, coef, scale, d_min, d0, start=0, last=None, table=None,
    bounds=None,
):
    """Sum image rows, formed from the path, into out.

    out: (T,) accumulator for output indices start .. start + T - 1,
    streams: (M+1, Ls) guarded branch streams shared by all rows
    (farrow.guarded_branches), scale: rate / c in samples per meter,
    d0: the bank's latency D0, less the first guarded index streams
    holds when they are a window of the whole streams. start only moves
    the read index, so a range of output samples gets the same bits as
    the whole stream does. q, path, coef, d_min and table form each row's
    delay and gain over the range as in row_terms; one Horner pass per
    row reads the streams.

    last, if given, is an (S, 2) array that receives each row's delay and
    gain at the range's final sample. bounds, if given, is the (lower,
    upper) delay range a window of streams was cut for: a row whose delay
    leaves it raises RuntimeError before it is read. Returns the largest
    delay (-inf when there is nothing to add).
    """
    n = out.shape[0]
    if n == 0 or q.shape[0] == 0:
        return -np.inf
    scratch = _scratch(n, start + d0)
    terms = row_terms(q, path, coef, scale, d_min, n, start, table)
    top = -np.inf
    for i, (tau, g) in enumerate(terms):
        if last is not None:
            last[i] = tau[-1], g[-1]
        peak = float(tau.max())
        if bounds is not None and not bounds[0] <= tau.min() <= peak <= bounds[1]:
            raise RuntimeError(
                f"delays {tau.min()} .. {peak} leave the bounds {bounds[0]} .. "
                f"{bounds[1]} the branch window was cut for"
            )
        top = max(top, peak)
        _horner_row(out, streams, tau, g, scratch)
    return top


def accumulate_held(out, streams, delay, gain, d0, start=0):
    """Sum rows held at one delay and gain into out.

    delay, gain: (S,) per-row delay in samples and gain, constant over
    the range; the rest is as in accumulate_rows. This is the tail past a
    path's end, where each row keeps its last values: a row filled with
    its delay goes through the one Horner pass.
    """
    n = out.shape[0]
    x = np.empty(n)
    scratch = _scratch(n, start + d0)
    for tau, g in zip(delay.tolist(), gain.tolist()):
        x.fill(tau)
        _horner_row(out, streams, x, g, scratch)


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
