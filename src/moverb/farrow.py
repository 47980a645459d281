"""Polynomial-coefficient (Farrow) time-varying fractional delay.

A bank of M+1 fixed FIR branch filters c_k(n) realizes the delay-dependent
impulse response h(n, mu) = sum_k c_k(n) mu^k. The input is convolved with
each branch once; after that, any per-sample delay costs only a Horner
evaluation of the M+1 stream values, so thousands of simultaneous delay
taps share a single set of convolutions.

Delays are split as total = D + D0 + mu with integer D, nominal branch
delay D0 = (L-1)//2, and mu in [0, 1): the polynomial only ever has to
cover a one-sample range centered on the branch bank's natural latency.

Design: complex least squares fit of H(omega; mu) to exp(-j omega (D0+mu))
on a dense (omega, mu) grid over the passband [0, alpha*pi], with

  * two-level frequency weighting (low band weighted 1000x, smooth tanh
    transition at 0.45 of the passband) so low-frequency accuracy lands
    around -70 dB where the synthesis tolerances need it;
  * exact moment constraints sum_n n^p c_k(n) = C(p,k) D0^(p-k) for k <= p
    (zero for k > p), p = 0..M, which make h(., mu) exact on polynomial
    inputs up to degree M and pin the DC gain and delay;
  * a mu grid symmetric about 0.5, which forces reflection-symmetric
    coefficients and hence exactly linear phase at mu = 0.5.

The weight depends on omega alone and mu^k is real, so the real-stacked
design matrix is the Kronecker product of an (omega x tap) factor and an
(mu x power) factor. The fit is solved on the thin QR factors of those two
small matrices, an (M+1)L-square system; the full (omega, mu) design
matrix is never formed.

For M = 1, L = 2 the constraints alone already force h = [1-mu, mu],
plain linear interpolation, for any passband.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from . import _kernels

_N_OMEGA = 512
_W_LOW = 1000.0
_W_SPLIT = 0.45
_W_SHARPNESS = 12.0


@dataclass(frozen=True)
class FarrowFilter:
    """Immutable branch-filter bank.

    poly_order: M, branch_len: L taps per branch, branches: (M+1, L)
    coefficients, nominal_delay: integer D0 = (L-1)//2, passband: fraction
    of Nyquist the design covers.
    """

    poly_order: int
    branch_len: int
    branches: np.ndarray
    nominal_delay: int
    passband: float

    def __post_init__(self):
        b = np.asarray(self.branches, dtype=np.float64)
        if b.shape != (self.poly_order + 1, self.branch_len):
            raise ValueError("branches must have shape (M+1, L)")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "branches", b)


@dataclass(frozen=True)
class DelaySplit:
    """total = integer_part + fractional_part + D0, exactly."""

    integer_part: int
    fractional_part: float


def design(M, L, alpha, grid=64):
    """Least-squares branch-filter design over the (omega, mu) grid.

    M: polynomial order in [1, 4]. L: taps per branch, L >= M+1.
    alpha: passband as a fraction of Nyquist, in (0, 1). grid: number of
    mu points; the omega grid is fixed at 512 points. Deterministic.

    The fit is solved on the Kronecker factors of the design matrix, whose
    (512 * grid) x (M+1)L form is never built; the rank check uses that
    form's tolerance.
    """
    if not 1 <= M <= 4:
        raise ValueError("poly order M must be in [1, 4]")
    if L < M + 1:
        raise ValueError("branch length L must be at least M+1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("passband alpha must be in (0, 1)")
    if grid < M + 2:
        raise ValueError("mu grid too small for the polynomial order")

    d0 = (L - 1) // 2
    omega = np.linspace(0.0, alpha * np.pi, _N_OMEGA)
    mu = np.linspace(0.0, 1.0, grid)
    n = np.arange(L)

    x = omega / (alpha * np.pi)
    weight = 1.0 + (_W_LOW - 1.0) * 0.5 * (1.0 - np.tanh((x - _W_SPLIT) * _W_SHARPNESS))

    # Kronecker form of the weighted, real-stacked fit: with thin QRs
    # phi = q_phi r_phi and powers = q_p r_p, ||phi C^T powers^T - target||^2
    # is, up to a constant, the squared residual of the (M+1)L-square
    # system (r_p (x) r_phi) c = vec(q_p^T target^T q_phi), c = C.reshape(-1).
    sw = np.sqrt(weight)[:, None]
    wn = omega[:, None] * n[None, :]
    phi = np.concatenate([sw * np.cos(wn), -sw * np.sin(wn)])
    powers = mu[:, None] ** np.arange(M + 1)[None, :]
    wd = omega[:, None] * (d0 + mu[None, :])
    target = np.concatenate([sw * np.cos(wd), -sw * np.sin(wd)])
    q_phi, r_phi = np.linalg.qr(phi)
    q_p, r_p = np.linalg.qr(powers)
    kron = np.kron(r_p, r_phi)
    rhs = (q_p.T @ target.T @ q_phi).reshape(-1)
    # rank tolerance of the stacked system the factors stand for
    rcond = np.finfo(np.float64).eps * 2 * _N_OMEGA * grid

    # moment constraints: sum_n n^p c_k(n) = C(p, k) d0^(p-k) for k <= p
    n_con = (M + 1) * (M + 1)
    e_mat = np.zeros((n_con, (M + 1) * L))
    f_vec = np.zeros(n_con)
    row = 0
    for p in range(M + 1):
        for k in range(M + 1):
            e_mat[row, k * L : (k + 1) * L] = n**p
            if k <= p:
                f_vec[row] = comb(p, k) * float(d0) ** (p - k)
            row += 1

    c_part, *_ = np.linalg.lstsq(e_mat, f_vec, rcond=None)
    _, sing, vt = np.linalg.svd(e_mat)
    rank = int(np.sum(sing > sing[0] * 1e-12))
    null_basis = vt[rank:].T
    reduced = kron @ null_basis
    y, _, reduced_rank, _ = np.linalg.lstsq(reduced, rhs - kron @ c_part, rcond=rcond)
    if reduced_rank < null_basis.shape[1]:
        raise ValueError("degenerate design grid: singular least-squares system")
    coeffs = (c_part + null_basis @ y).reshape(M + 1, L)
    return FarrowFilter(
        poly_order=M,
        branch_len=L,
        branches=coeffs,
        nominal_delay=d0,
        passband=float(alpha),
    )


def response_at(f, omegas, mu):
    """Complex frequency response H(omega; mu) of the composed filter."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=np.float64))
    h = impulse_response(f, mu)
    return np.exp(-1j * np.outer(omegas, np.arange(f.branch_len))) @ h


def impulse_response(f, mu):
    """h(n, mu) = sum_k c_k(n) mu^k for a fixed fractional delay mu."""
    powers = float(mu) ** np.arange(f.poly_order + 1)
    return powers @ f.branches


def group_delay(f, omegas, mu):
    """Group delay in samples from the phase derivative on a dense grid."""
    omegas = np.asarray(omegas, dtype=np.float64)
    h = response_at(f, omegas, mu)
    phase = np.unwrap(np.angle(h))
    return -np.gradient(phase, omegas)


def quality_summary(f, n_points=1024):
    """Passband quality numbers used by tests and the design command.

    Measures over omega in (0, passband*pi] and a dense mu grid:
    magnitude ripple (dB) and group-delay error (samples) at mu = 0,
    group-delay error at mu = 0.5, and the worst ripple and group-delay
    error over the whole mu grid.
    """
    omegas = np.linspace(1e-4, f.passband * np.pi, n_points)
    mus = [i / 100.0 for i in range(101)]
    worst_rip = 0.0
    worst_gd = 0.0
    mu0_rip = mu0_gd = mu5_gd = 0.0
    for i, mu in enumerate(mus):
        h = response_at(f, omegas, mu)
        rip = float(np.max(np.abs(20.0 * np.log10(np.maximum(np.abs(h), 1e-12)))))
        gd = float(np.max(np.abs(group_delay(f, omegas, mu) - (f.nominal_delay + mu))))
        worst_rip = max(worst_rip, rip)
        worst_gd = max(worst_gd, gd)
        if i == 0:
            mu0_rip, mu0_gd = rip, gd
        if i == 50:
            mu5_gd = gd
    return {
        "mu0_ripple_db": mu0_rip,
        "mu0_group_delay_err": mu0_gd,
        "mu05_group_delay_err": mu5_gd,
        "worst_ripple_db": worst_rip,
        "worst_group_delay_err": worst_gd,
    }


def split_delay(total_delay, f):
    """Split a total delay in samples into (integer, fractional) parts.

    D = floor(total - D0), mu = total - D0 - D in [0, 1). Delays below the
    filter's nominal latency D0 cannot be realized causally. The render
    reads the same split: index n + D0 - floor(total) = n - D, fraction mu.
    """
    total = float(total_delay)
    if not np.isfinite(total):
        raise ValueError("delay must be finite")
    if total < f.nominal_delay:
        raise ValueError(
            f"total delay {total} is below the filter latency {f.nominal_delay}"
        )
    # (total - D0) - floor(total - D0) is exact (Sterbenz), so mu < 1
    d_int = int(np.floor(total - f.nominal_delay))
    mu = total - f.nominal_delay - d_int
    return DelaySplit(integer_part=d_int, fractional_part=mu)


def guarded_branches(x, f, start=0, stop=None):
    """Convolve the input with every branch once, between two zero guards.

    The whole streams are (M+1, len(x) + L + 1), index n + 1 holding input
    time n, with +0.0 at index 0 and at the last index. A kernel that
    clips its read index to them reads a zero for any time outside the
    input. This single pass is shared by all delay taps.

    Returns indices start .. stop - 1 of the whole streams (stop None: to
    their end), bit for bit, from a convolution of only the input slice
    they reach: index j + 1 reads inputs j - L + 1 .. j. The slice is at
    least L samples long, or the whole input, since np.convolve swaps
    its operands on a shorter one and that changes the bits. Raises
    ValueError unless 0 <= start <= stop <= len(x) + L + 1, or when the
    slice is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("input must be 1-D")
    taps = f.branch_len
    size = x.size + taps + 1
    stop = size if stop is None else stop
    if not 0 <= start <= stop <= size:
        raise ValueError(f"range {start} .. {stop} outside the {size} stream samples")
    out = np.zeros((f.poly_order + 1, stop - start))
    # convolution indices j0 .. j1 - 1 sit between the guards
    j0, j1 = max(start - 1, 0), min(stop - 1, size - 2)
    if j0 >= j1:
        return out
    hi = max(min(j1, x.size), min(j0 + taps, x.size))
    lo = max(min(j0 - taps + 1, hi - taps), 0)
    if not np.all(np.isfinite(x[lo:hi])):
        raise ValueError("input must be finite")
    for k in range(f.poly_order + 1):
        conv = np.convolve(x[lo:hi], f.branches[k])
        out[k, j0 + 1 - start : j1 + 1 - start] = conv[j0 - lo : j1 - lo]
    return out


def branch_filter(x, f):
    """Convolve the input with every branch once.

    Returns (M+1, len(x) + L - 1) streams aligned so index n corresponds to
    input time n: the interior view of the whole guarded_branches. The
    bank's nominal delay D0 is handled by split_delay, not here.
    """
    return guarded_branches(x, f)[:, 1:-1]


def evaluate_power_sum(streams, n, split):
    """Reference evaluation as an explicit power sum (for cross-checks)."""
    idx = n - split.integer_part
    if idx < 0 or idx >= streams.shape[1]:
        return 0.0
    mu = split.fractional_part
    return float(sum(streams[k, idx] * mu**k for k in range(streams.shape[0])))


def delay_stream(x, f, tau):
    """Apply a per-sample time-varying delay to x.

    tau gives the requested delay in samples for each output index; all
    values must be >= the filter latency D0. One shared branch-filter pass
    serves every output sample, read by the render's Horner pass
    (_kernels._horner_row): a render's row is delay_stream times its gain.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim != 1:
        raise ValueError("tau must be 1-D")
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    if np.any(tau < f.nominal_delay):
        raise ValueError("tau below the filter latency; pad the input first")
    out = np.zeros(tau.size)
    scratch = _kernels._scratch(tau.size, f.nominal_delay)
    _kernels._horner_row(out, guarded_branches(x, f), tau.copy(), 1.0, scratch)
    return out
