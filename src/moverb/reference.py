"""Ground-truth renderers, the splice baseline, and comparison metrics.

The static impulse-response path and the brute-force full-rate render are
the references the fast engine is validated against. The splice baseline
reproduces the classic artifact of updating a static room response block
by block while the source moves: phase jumps and a gain sawtooth at every
block boundary.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import distance_streams
from .room import as_arrays, as_mic, attenuation
from .synth import render, select_images
from .trajectory import Trajectory

_DIRECT_CONV_LIMIT = 5_000_000  # ops bound below which exact O(n m) is used
SINC_HALFWIDTH = 32
# Kaiser shape for >= 80 dB stopband rejection: 0.1102 * (80 - 8.7)
SINC_KAISER_BETA = 7.857


@dataclass(frozen=True)
class ComparisonReport:
    """Numeric proxies for amplitude and phase fidelity.

    snr_db: band-limited interior signal-to-error ratio, capped at 200.
    envelope_max_jump: largest per-sample change of the test signal's
    analytic-signal envelope over the interior. inst_freq_track: smoothed
    instantaneous-frequency estimate, Hz, over the interior.
    """

    snr_db: float
    envelope_max_jump: float
    inst_freq_track: np.ndarray


def kaiser_sinc(arg):
    """Kaiser-windowed sinc at arg samples from its center, elementwise.

    The window spans SINC_HALFWIDTH samples each side; the kernel is zero
    beyond it. The static impulse response's fractional taps.
    """
    hw = SINC_HALFWIDTH
    u = np.clip(arg / hw, -1.0, 1.0)
    window = np.i0(SINC_KAISER_BETA * np.sqrt(1.0 - u**2)) / np.i0(SINC_KAISER_BETA)
    window[np.abs(arg) > hw] = 0.0
    return np.sinc(arg) * window


def static_rir(room, source_pos, mic, cfg):
    """Taps of the frozen configuration at cfg.audio_rate, as an array.

    cfg is the render's SynthesisConfig: its audio_rate, max_order, t60,
    sound_speed c, d_min and eval_budget. The images are those a render
    chooses at source_pos, select_images on a one-sample path, so a set
    t60 culls them by the render's rule (and BudgetError is raised as it
    raises it). Each image contributes amplitude
    attenuation(beta, max(d, d_min)) at delay d * (rate / c) samples,
    spread over a windowed-sinc kernel rather than rounded to the nearest
    sample (rounding would inject up to half a sample of delay error and
    mask fine delay accuracy downstream). The distances are the engine's
    (distance_streams); the kernels are added image by image in
    enumeration order.
    """
    source_pos = np.asarray(source_pos, dtype=np.float64)
    if not room.contains(source_pos):
        raise ValueError("source position must be inside the room")
    mic = as_mic(mic)
    mic.require_inside(room)
    path = Trajectory(rate=cfg.audio_rate, positions=source_pos[None])
    offset, sign, beta, _ = as_arrays(select_images(room, path, mic, cfg), room)
    d = distance_streams(offset, sign, mic.pos, source_pos[None])[:, 0]
    taus = d * (cfg.audio_rate / cfg.sound_speed)
    amp = attenuation(beta, np.maximum(d, cfg.d_min))
    base = np.floor(taus)
    hw = SINC_HALFWIDTH
    # entry (i, k) is image i's kernel at tap base_i + k - hw
    reach = np.arange(-hw, hw + 1)
    kernels = amp[:, None] * kaiser_sinc(reach - (taus - base)[:, None])
    idx = base.astype(np.int64)[:, None] + reach
    n_taps = int(np.ceil(taus.max())) + hw + 2
    taps = np.zeros(n_taps)
    # unbuffered and in index order, so each tap sums its images in order
    inside = idx >= 0
    np.add.at(taps, idx[inside], kernels[inside])
    return taps


def static_render(s, taps):
    """Plain convolution of s with static impulse-response taps.

    Output length is len(s) + len(taps) - 1. Small products use exact
    direct convolution; larger ones switch to FFT convolution (equal to
    direct within roundoff). A non-finite s raises ValueError with
    synthesize's message, rather than spreading NaN through the output.
    """
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("input must be finite")
    taps = np.asarray(taps, dtype=np.float64)
    if s.size * taps.size <= _DIRECT_CONV_LIMIT:
        return np.convolve(s, taps)
    from scipy.signal import fftconvolve

    return fftconvolve(s, taps)


def full_rate_moving_oracle(s, traj, room, mic, f, cfg):
    """Brute force: render at N = 1, every image's distance exact at every sample.

    render(s, traj, room, mic, f, replace(cfg, decimation=1)), so the
    engine at N = 1 matches this bit for bit. Its images are the ones
    select_images chooses, culled when cfg.t60 is set, and it refuses a
    job whose distance-evaluation count, the path's samples times those
    images, exceeds cfg.eval_budget (BudgetError), as every render does.
    """
    return render(s, traj, room, mic, f, replace(cfg, decimation=1))


def splice_baseline(s, traj, room, mic, block_hop, crossfade, cfg):
    """Block-frozen render: static response per block, overlap-added.

    Each block's response is static_rir under cfg, with the source frozen
    at the block's start, so a set cfg.t60 culls each block's images at
    its frozen position. crossfade = 0 butt-joins the blocks (the pure
    splice, with its phase discontinuities and gain sawtooth); crossfade
    > 0 linearly fades between neighbors with windows that sum to one.
    Each block convolves only its support, from its start to the end of
    its fade-out, into one output buffer, so memory grows with the clip,
    not with blocks x clip.
    """
    s = np.asarray(s, dtype=np.float64)
    if block_hop < 1 or int(block_hop) != block_hop:
        raise ValueError("block_hop must be a positive integer")
    block_hop = int(block_hop)
    crossfade = int(crossfade)
    if crossfade < 0 or crossfade > block_hop:
        raise ValueError("crossfade must lie in [0, block_hop]")
    if traj.rate != cfg.audio_rate:
        raise ValueError("trajectory rate must equal the audio rate")
    n = s.size
    n_blocks = max(1, -(-n // block_hop))
    ramp = (np.arange(crossfade) + 0.5) / crossfade
    blocks = []
    for b in range(n_blocks):
        start = b * block_hop
        stop = min(n, (b + 1) * block_hop)
        # the block's support: the block, then its fade into the next one
        end = min(n, stop + crossfade) if b < n_blocks - 1 else stop
        window = np.ones(end - start)
        if b > 0:
            head = min(crossfade, stop - start)
            window[:head] = ramp[:head]
        window[stop - start :] = 1.0 - ramp[: end - stop]
        taps = static_rir(room, traj.positions[min(start, len(traj) - 1)], mic, cfg)
        blocks.append((start, end, window, taps))
    out = np.zeros(n + max(taps.size for *_, taps in blocks) - 1)
    for start, end, window, taps in blocks:
        piece = static_render(s[start:end] * window, taps)
        out[start : start + piece.size] += piece
    return out


def _brickwall(x, rate, cutoff_hz):
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / rate)
    spec[freqs > cutoff_hz] = 0.0
    return np.fft.irfft(spec, x.size)


def analytic_tracks(a, rate):
    """Hilbert envelope of a, (n,), and its instantaneous frequency in Hz
    over each step between neighbouring samples, (n - 1,)."""
    from scipy.signal import hilbert

    analytic = hilbert(a)
    phase_step = np.angle(analytic[1:] * np.conj(analytic[:-1]))
    return np.abs(analytic), phase_step * rate / (2.0 * np.pi)


def compare(a, b, passband=0.8, rate=16000.0, interior=0.05):
    """Measure a against reference b.

    Signals are trimmed to their common length. The SNR is computed after
    band-limiting both to passband * Nyquist and discarding an `interior`
    fraction at each end (edge transients and hold-extrapolated regions are
    excluded by construction there). Envelope and instantaneous frequency
    come from the analytic signal of the raw trimmed a; the frequency track
    is smoothed over 10 ms. SNR is capped at 200 dB. A non-finite sample
    in a or b raises ValueError (the cap would read a NaN error as 200 dB),
    as does a rate that is not finite and > 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("signals must be finite")
    n = min(a.size, b.size)
    if n < 16:
        raise ValueError("signals too short to compare")
    if not 0.0 < passband <= 1.0:
        raise ValueError("passband must be in (0, 1]")
    if not 0.0 <= interior < 0.5:
        raise ValueError("interior must be in [0, 0.5)")
    if not 0.0 < rate < np.inf:
        raise ValueError(f"rate must be finite and > 0, not {rate}")
    a = a[:n]
    b = b[:n]
    lo = int(np.floor(interior * n))
    hi = n - lo
    if passband < 1.0:
        a_band = _brickwall(a, rate, passband * rate / 2.0)
        b_band = _brickwall(b, rate, passband * rate / 2.0)
    else:
        a_band, b_band = a, b
    ref_energy = float(np.sum(b_band[lo:hi] ** 2))
    if ref_energy <= 0.0:
        raise ValueError("reference has no energy on the interior")
    err_energy = float(np.sum((a_band[lo:hi] - b_band[lo:hi]) ** 2))
    if err_energy == 0.0:
        snr = 200.0
    else:
        snr = min(200.0, 10.0 * np.log10(ref_energy / err_energy))

    envelope, inst_freq = analytic_tracks(a, rate)
    env_interior = envelope[lo:hi]
    env_jump = float(np.max(np.abs(np.diff(env_interior)))) if env_interior.size > 1 else 0.0

    smooth = max(1, int(round(0.010 * rate)))
    kernel = np.full(smooth, 1.0 / smooth)
    inst_freq = np.convolve(inst_freq, kernel, mode="same")
    track = inst_freq[lo : max(lo + 1, hi - 1)]

    return ComparisonReport(
        snr_db=float(snr),
        envelope_max_jump=env_jump,
        inst_freq_track=track,
    )
