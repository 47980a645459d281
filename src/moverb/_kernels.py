"""Hot inner loops, in numpy.

Every kernel is elementwise along time or restores grid intervals whose
bits do not depend on which of them a product covers, so evaluating a
range of samples gives the same bits as evaluating the whole stream and
slicing it. That is what lets the synthesis engine walk the output in
chunks.

The per-sample kernels work in scratch rows allocated once per call,
with in-place ufuncs that keep each element's operands and operation
order, so they allocate nothing per step and give the bits of the plain
expressions. A distance is the path's distance to the image's mirrored
mic (mirrored_mics), one shared row expression (distance_rows);
distance tables (mic_distances) are built in blocks of rows of at most
DISTANCE_BLOCK elements. Both read a path axis by axis, from the rows of
its (3, T) transpose, which trajectory.Trajectory stores contiguous, so
neither copies the path. A row's delay and gain have one home,
row_terms, which the render and the stream record's rows read. It takes
a part of the record (Rows): mirrored mics and spreading coefficients on
a path, the path's samples for exact (near) rows, its grid nodes for far
rows, whose delay and gain are then restored by one product over the
grid intervals the range reaches, never fewer than two. The grid is
trajectory's: it names the nodes a range is restored from
(trajectory.node_span) and restores them (trajectory.restore_cubic), so
no kernel here computes a node index. row_terms cuts the positions a
range of output samples is formed from itself, so no row holds an array
longer than the range's whole grid intervals, and a range may start at
any grid interval. Accumulation runs one image row at a time, in one
kernel (accumulate_rows), through the bank's Horner pass
(farrow.horner_add). Past the path's end a row holds its delay and gain
at the path's last sample, so a range may lie anywhere in the output. A
range reads the branch window farrow.branch_window cut for bounds on its
delays, which accumulate_rows checks before each row's read; the window
states where a delay reads, so no kernel here computes a branch-stream
index.
"""

from dataclasses import dataclass

import numpy as np

from . import farrow, trajectory


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


def distance_rows(q, pos_t, out, tmp):
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

    q: (S, 3) mirrored mics (mirrored_mics), pos: (T, 3) source path,
    read axis by axis from pos.T, which is copied only when it is not
    C-contiguous (a Trajectory's positions.T is). Returns (S, T)
    float64. Rows are built in blocks of
    max(1, DISTANCE_BLOCK // T), in place in the output with one block of
    scratch, by the same row arithmetic the row kernel uses (row_terms).
    """
    pos_t = np.ascontiguousarray(np.asarray(pos, dtype=np.float64).T)
    n_rows, n = q.shape[0], pos_t.shape[1]
    out = np.empty((n_rows, n), dtype=np.float64)
    step = max(1, DISTANCE_BLOCK // max(n, 1))
    tmp = np.empty((min(step, n_rows), n))
    q_cols = q.T[:, :, None]
    for a in range(0, n_rows, step):
        rows = out[a : a + step]
        distance_rows(q_cols[:, a : a + step], pos_t, rows, tmp[: rows.shape[0]])
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


@dataclass(frozen=True)
class Rows:
    """Image rows on one path, exact at its samples or restored from its nodes.

    The row kernel's one input: q, (S, 3) mirrored mics (mirrored_mics),
    coef, (S,) spreading coefficients attenuation(beta, 1), and
    positions, (P, 3). With table None, positions is the path at every
    sample; with table, the (4, h) cubic weights, it is the path at the
    grid nodes (trajectory.decimate's layout) and a row is the cubic
    restoration of its node values.
    """

    q: np.ndarray
    coef: np.ndarray
    positions: np.ndarray
    table: np.ndarray = None


def row_terms(rows, scale, d_min, start, stop, length):
    """Each row's delay and gain at output samples start .. stop - 1, in order.

    rows: a Rows part on a path of length samples, scale: rate / c in
    samples per meter. Per row, scratch rows receive the distance
    d = |p - q| (the arithmetic of mic_distances), the delay
    tau = d * scale and the gain coef / max(d, d_min), which is
    attenuation(beta, max(d, d_min)) bit for bit. The positions are cut
    here and read axis by axis, with no copy (a Trajectory's axes are
    contiguous). An exact part's rows are formed on the path's samples in
    the range. A restored part's are formed on the grid nodes the range
    is restored from (trajectory.node_span), and trajectory.restore_cubic
    fills rows of tau and gain over the grid intervals the range reaches
    on the path; a range that starts on the path must begin a grid
    interval, a multiple of h (ValueError otherwise). From sample
    length - 1 on a row holds its delay and gain there, so a range that
    starts past the path forms that one sample, or restores the grid
    interval that holds it.

    Yields (tau, gain) per row, in scratch that the next row overwrites; a
    caller may overwrite it too.
    """
    table = rows.table
    step = 1 if table is None else table.shape[1]
    if start < 0 or (start < length and start % step):
        raise ValueError(f"start {start} does not begin a grid interval (h = {step})")
    # past the path's end a row holds its values at sample length - 1
    at = min(start, length - 1)
    first, end = at - at % step, min(stop, length)  # the samples formed
    n, formed, off = stop - start, end - first, at - first
    if table is None:
        pos_t = rows.positions[first:end].T
        xs, gs = np.empty(n), np.empty(n)
        x, g = xs[:formed], gs[:formed]
    else:
        pos_t = rows.positions[trajectory.node_span(first, end, step)].T
        x, g = np.empty(pos_t.shape[1]), np.empty(pos_t.shape[1])
        whole = -(-formed // step) * step
        xs = np.empty(max(whole, off + n))
        gs = np.empty_like(xs)
    for q, coef in zip(rows.q, rows.coef):
        # g holds the distance until it becomes the gain; x is its scratch
        distance_rows(q, pos_t, g, x)
        np.multiply(g, scale, out=x)
        np.maximum(g, d_min, out=g)
        np.divide(coef, g, out=g)
        if table is not None:
            trajectory.restore_cubic(x, table, xs[:whole])
            trajectory.restore_cubic(g, table, gs[:whole])
        xs[formed : off + n] = xs[formed - 1]
        gs[formed : off + n] = gs[formed - 1]
        yield xs[off : off + n], gs[off : off + n]


def accumulate_rows(out, window, base, rows, scale, d_min, start, length, bounds):
    """Sum a part's image rows into out.

    out: (T,) accumulator for output indices start .. start + T - 1,
    window and base: the branch window these outputs read for delays in
    bounds, the (lower, upper) pair it was cut for, and its read base
    (farrow.branch_window), shared by all rows. rows: a Rows part on a
    path of length samples, scale: rate / c in samples per meter. Each
    row's delay and gain over the range are formed as in row_terms, which
    cuts the part's positions for the range and holds a row past the
    path's end, and one Horner pass per row (farrow.horner_add) reads the
    window, so a range of output samples gets the same bits as the whole
    stream does.

    A row whose delay leaves bounds raises RuntimeError before it is
    read. Returns the largest delay (-inf when there is nothing to add).
    """
    n = out.shape[0]
    if n == 0 or rows.q.shape[0] == 0:
        return -np.inf
    scratch = farrow.horner_scratch(n, base)
    top = -np.inf
    for tau, g in row_terms(rows, scale, d_min, start, start + n, length):
        peak = float(tau.max())
        if not bounds[0] <= tau.min() <= peak <= bounds[1]:
            raise RuntimeError(
                f"delays {tau.min()} .. {peak} leave the bounds {bounds[0]} .. "
                f"{bounds[1]} the branch window was cut for"
            )
        top = max(top, peak)
        farrow.horner_add(out, window, tau, g, scratch)
    return top
