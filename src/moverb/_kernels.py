"""Hot inner loops with optional numba acceleration.

The distance and accumulation kernels have two implementations: an @njit
version and a pure-numpy version that executes the same arithmetic in the
same order, so results agree bit for bit. Selection order:

  * numba missing            -> numpy path
  * MOVERB_PURE_NUMPY=1      -> numpy path (set before import)
  * otherwise                -> numba path

Trajectory restoration (upsample_stream) runs as numpy/BLAS matrix
products on every path. fastmath stays off: reassociation would break the
deterministic summation contract that makes renders worker-count invariant.
"""

import math
import os

import numpy as np

_FORCE_NUMPY = os.environ.get("MOVERB_PURE_NUMPY", "") == "1"

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and not _FORCE_NUMPY


def using_numba():
    """True when the accelerated path is active for this process."""
    return USE_NUMBA


# ---------------------------------------------------------------------------
# per-image distance streams


def _distance_numpy(offset, sign, mic, pos, out):
    for i in range(offset.shape[0]):
        dx = offset[i, 0] + sign[i, 0] * pos[:, 0] - mic[0]
        dy = offset[i, 1] + sign[i, 1] * pos[:, 1] - mic[1]
        dz = offset[i, 2] + sign[i, 2] * pos[:, 2] - mic[2]
        out[i] = np.sqrt(dx * dx + dy * dy + dz * dz)
    return out


if HAS_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _distance_numba(offset, sign, mic, pos, out):  # pragma: no cover - jit
        for i in range(offset.shape[0]):
            for t in range(pos.shape[0]):
                dx = offset[i, 0] + sign[i, 0] * pos[t, 0] - mic[0]
                dy = offset[i, 1] + sign[i, 1] * pos[t, 1] - mic[1]
                dz = offset[i, 2] + sign[i, 2] * pos[t, 2] - mic[2]
                out[i, t] = math.sqrt(dx * dx + dy * dy + dz * dz)
        return out


def distance_streams(offset, sign, mic, pos):
    """Euclidean distance from each mirrored source to the mic, per sample.

    offset: (S, 3) lattice translation in meters, sign: (S, 3) +-1 per axis,
    mic: (3,), pos: (T, 3) source path. Returns (S, T) float64.
    """
    offset = np.ascontiguousarray(offset, dtype=np.float64)
    sign = np.ascontiguousarray(sign, dtype=np.float64)
    mic = np.ascontiguousarray(mic, dtype=np.float64)
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    out = np.empty((offset.shape[0], pos.shape[0]), dtype=np.float64)
    if USE_NUMBA:
        return _distance_numba(offset, sign, mic, pos, out)
    return _distance_numpy(offset, sign, mic, pos, out)


# ---------------------------------------------------------------------------
# fractional-delay accumulation over a block of images
#
# For output index n and image i the requested delay is tau[i, n] + offset
# samples; the integer part lands on the branch streams at n + offset - D.
# Horner evaluation of the branch values in mu, scaled by amp[i, n], is
# accumulated into out. Image order inside the block is the summation order.


def _accumulate_numpy(out, streams, tau, amp, offset, d0):
    n_branches, stream_len = streams.shape
    t_idx = np.arange(out.shape[0], dtype=np.int64)
    for i in range(tau.shape[0]):
        shifted = tau[i] + offset
        d_int = np.floor(shifted - d0)
        mu = shifted - d0 - d_int
        idx = t_idx + offset - d_int.astype(np.int64)
        valid = (idx >= 0) & (idx < stream_len)
        idx_c = np.clip(idx, 0, stream_len - 1)
        acc = streams[n_branches - 1].take(idx_c)
        for k in range(n_branches - 2, -1, -1):
            acc = acc * mu + streams[k].take(idx_c)
        out += np.where(valid, amp[i] * acc, 0.0)
    return out


if HAS_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _accumulate_numba(out, streams, tau, amp, offset, d0):  # pragma: no cover - jit
        n_branches, stream_len = streams.shape
        for i in range(tau.shape[0]):
            for n in range(out.shape[0]):
                shifted = tau[i, n] + offset
                d_int = math.floor(shifted - d0)
                mu = shifted - d0 - d_int
                idx = n + offset - int(d_int)
                if 0 <= idx < stream_len:
                    acc = streams[n_branches - 1, idx]
                    for k in range(n_branches - 2, -1, -1):
                        acc = acc * mu + streams[k, idx]
                    out[n] += amp[i, n] * acc
        return out


def accumulate_images(out, streams, tau, amp, offset, d0):
    """Sum amp-weighted fractionally delayed signal copies into out.

    out: (T,) accumulator, streams: (M+1, Ls) branch streams shared by all
    images, tau/amp: (S, T) per-image delay (samples) and gain, offset:
    integer shift applied to both the delay and the read index (cancels in
    the resolved signal time), d0: nominal branch delay.
    """
    if USE_NUMBA:
        return _accumulate_numba(out, streams, tau, amp, offset, d0)
    return _accumulate_numpy(out, streams, tau, amp, offset, d0)


# ---------------------------------------------------------------------------
# windowed-sinc interpolation of a coarse stream onto a dense grid
#
# Output sample m = b * factor + p sits at coarse time b + p / factor. Only
# `factor` distinct fractional phases exist, so the kernel values live in a
# precomputed (factor, 2*halfwidth + 1) table whose rows are normalized to
# sum to one (constants interpolate exactly). Out-of-range taps clamp to the
# edge sample, which hold-extrapolates the stream.
#
# Polyphase form: block b of the output is the 2*halfwidth + 1 coarse
# samples around b dotted with every table row, so the output, seen as
# (blocks, factor), is the matrix product frames @ table.T. It is computed in
# tiles of a shape fixed by `factor`, aligned to multiples of the tile's row
# count, so a sample's value does not depend on out_len (OpenBLAS sums in an
# order that varies with the operand shapes). Each tile product stays under
# OpenBLAS's threading threshold, so it runs on the calling thread, and the
# working set is one tile whatever the factor. A column-major table (as
# trajectory._phase_table returns) makes each slice of table.T a row-major
# operand, which runs faster than a transposed one. Numpy only: the BLAS
# summation order is not a loop a jit twin could reproduce bit for bit.

# OpenBLAS computes a gemm of at most this many multiply-adds on one thread
_BLAS_SERIAL_MACS = 1 << 18
_TILE_MIN_ROWS = 8


def upsample_stream(coarse, table, factor, out_len):
    """Interpolate a coarse sequence to out_len samples at `factor` x rate."""
    coarse = np.ascontiguousarray(coarse, dtype=np.float64)
    span = table.shape[1]
    halfspan = (span - 1) // 2
    cols = min(factor, _BLAS_SERIAL_MACS // (_TILE_MIN_ROWS * span))
    rows = _BLAS_SERIAL_MACS // (cols * span)
    window = np.arange(rows)[:, None] + np.arange(-halfspan, halfspan + 1)
    tile = np.empty((rows, factor))
    out = np.empty(out_len, dtype=np.float64)
    for start in range(0, out_len, tile.size):
        frames = coarse[np.clip(window + start // factor, 0, coarse.shape[0] - 1)]
        for p0 in range(0, factor, cols):
            np.matmul(frames, table[p0 : p0 + cols].T, out=tile[:, p0 : p0 + cols])
        out[start : start + tile.size] = tile.ravel()[: out_len - start]
    return out
