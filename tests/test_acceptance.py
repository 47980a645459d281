"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v`; the verdict lines print
unbuffered past pytest's capture so the full record appears in any log.
Criterion 5's whole-grid clause is expected to fail: eight taps cannot
hold the phase delay to a hundredth of a sample across 80% of the band at
every fractional offset (see that test's docstring for the bound).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from moverb import farrow, reference, synth
from moverb.reference import compare, full_rate_moving_oracle, splice_baseline
from moverb.room import MicPosition, Room, enumerate_images, estimate_image_count
from moverb.synth import SynthesisConfig
from moverb.trajectory import Trajectory, TrajectorySpec, generate

RATE = 16000.0
ROOM = Room(dims=np.array([5.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.9))
MIC = MicPosition(pos=np.array([1.25, 2.6, 2.75]))
SRC = np.array([0.8, 4.1, 2.75])

# long room for the receding-source scenarios (criteria 2 and 6)
HALL = Room(dims=np.array([20.0, 6.0, 4.0]), wall_reflection=np.full(6, 0.9))
HALL_MIC = MicPosition(pos=np.array([1.0, 3.0, 2.0]))


def sine(freq, duration, rate=RATE):
    t = np.arange(int(round(duration * rate))) / rate
    return np.sin(2.0 * np.pi * freq * t)


def receding_traj(duration, speed=1.0):
    n = int(duration * RATE)
    t = np.arange(n) / RATE
    pos = np.stack(
        [3.0 + speed * t, np.full(n, 3.0), np.full(n, 2.0)], axis=1
    )
    return Trajectory(rate=RATE, positions=pos)


@pytest.fixture(scope="module")
def filt():
    return farrow.design(3, 8, 0.8)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(filt):
    # one render before criterion 1's timed render: first calls into numpy
    # and BLAS pay one-time set-up costs
    tr = Trajectory(rate=RATE, positions=np.tile(SRC, (1000, 1)))
    cfg = SynthesisConfig(max_order=1, decimation=1)
    synth.render(np.ones(1000), tr, ROOM, MIC, filt, cfg)


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[criterion {num}] {name}: {verdict} ({detail})")

    return _announce


def test_criterion_1_static_limit(filt, announce):
    """Zero-velocity trajectory collapses to the static-room convolution."""
    n = int(1.0 * RATE)
    x = sine(1000.0, 1.0)
    traj = Trajectory(rate=RATE, positions=np.tile(SRC, (n, 1)))
    cfg = SynthesisConfig(max_order=3, decimation=3200, order_split=1)

    t0 = time.perf_counter()
    y = synth.render(x, traj, ROOM, MIC, filt, cfg)
    runtime = time.perf_counter() - t0

    rir = reference.static_rir(ROOM, SRC, MIC, RATE, 3)
    ref = reference.static_render(x, rir)
    rep = compare(y, ref, passband=0.8, rate=RATE, interior=0.05)

    ok = rep.snr_db >= 60.0 and runtime <= 10.0
    announce(
        1,
        "static limit",
        ok,
        f"interior SNR {rep.snr_db:.1f} dB >= 60, engine runtime {runtime:.2f} s <= 10",
    )
    assert rep.snr_db >= 60.0
    assert runtime <= 10.0


def test_criterion_2_doppler_law(filt, announce):
    """Constant 1 m/s recession shifts a 1 kHz tone to 1000*(1 - 1/343) Hz."""
    duration = 2.0
    x = sine(1000.0, duration)
    traj = receding_traj(duration)
    cfg = SynthesisConfig(max_order=0, decimation=1)
    y = synth.render(x, traj, HALL, HALL_MIC, filt, cfg)

    rep = compare(y, y, passband=1.0, rate=RATE, interior=0.1)
    track = rep.inst_freq_track
    expected = 1000.0 * (1.0 - 1.0 / 343.0)
    worst = float(np.max(np.abs(track - expected)))
    mean = float(np.mean(track))

    ok = abs(mean - expected) <= 0.5 and worst <= 0.5
    announce(
        2,
        "doppler law",
        ok,
        f"mean {mean:.4f} Hz vs {expected:.4f} Hz, worst deviation {worst:.4f} <= 0.5",
    )
    assert abs(mean - expected) <= 0.5
    assert worst <= 0.5


def test_criterion_3_hierarchical_fidelity(filt, announce):
    """Decimated high orders match the full-rate oracle on a slow path."""
    duration = 16.0
    spec = TrajectorySpec(
        kind="sine", duration=duration, bandwidth_limit=2.0, speed_max=1.0, seed=3
    )
    traj = generate(spec, RATE, ROOM)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(len(traj)) * 0.25
    cfg = SynthesisConfig(
        max_order=2, order_split=1, decimation=3200, eval_budget=5e9
    )

    y = synth.render(x, traj, ROOM, MIC, filt, cfg)
    y_ref = full_rate_moving_oracle(x, traj, ROOM, MIC, filt, cfg)

    # the whole clip: only the L-sample filter edge is trimmed, so the
    # first and last grid intervals count in full
    interior = (filt.branch_len + 0.5) / min(y.size, y_ref.size)
    rep = compare(y, y_ref, passband=0.8, rate=RATE, interior=interior)

    images = enumerate_images(ROOM, 2)
    cost = synth.cost_report(cfg, images, duration)
    reduction = cost["high_order_reduction"]

    ok = rep.snr_db >= 40.0 and reduction >= 100.0
    announce(
        3,
        "hierarchical fidelity",
        ok,
        f"SNR {rep.snr_db:.1f} dB >= 40, high-order eval reduction "
        f"{reduction:.0f}x >= 100x",
    )
    assert rep.snr_db >= 40.0
    assert reduction >= 100.0


def test_criterion_4_image_count_budget(announce):
    """Medium-room image budget and the brute-force evaluation count."""
    room = Room(dims=np.array([9.0, 10.0, 9.0]), wall_reflection=np.full(6, 0.9))
    est = estimate_image_count(room, 0.6)
    within = 45000 / 2 <= est <= 45000 * 2

    cfg = SynthesisConfig(audio_rate=16000.0, order_split=1, decimation=3200)
    cost = synth.cost_report(cfg, 45000, 1.0)
    naive = cost["naive_evals"]
    naive_ok = naive == 45000 * 16000 and abs(naive - 7.2e8) < 1e-3

    ok = within and naive_ok
    announce(
        4,
        "image count budget",
        ok,
        f"estimate {est} in [22500, 90000], naive evals/s {naive:.3g} == 7.2e8",
    )
    assert within
    assert naive_ok


def test_criterion_5_interpolator_accuracy(filt, announce):
    """The feasible interpolator clauses: evaluation identity and delay SNR."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(512)
    v = farrow.branch_filter(x, filt)
    worst_rel = 0.0
    for total in (5.3, 11.75, 40.0, 99.99):
        sp = farrow.split_delay(total, filt)
        # the engine's Horner pass, at one constant delay
        y = farrow.delay_stream(x, filt, np.full(x.size, total))
        for n in range(120, 180):
            a = y[n]
            b = farrow.evaluate_power_sum(v, n, sp)
            worst_rel = max(worst_rel, abs(a - b) / max(1.0, abs(b)))

    n = 4000
    tone = sine(1000.0, n / RATE)
    tau = np.full(n, 20.37)
    y = farrow.delay_stream(tone, filt, tau)
    t = np.arange(n) / RATE
    ref = np.sin(2 * np.pi * 1000.0 * (t - 20.37 / RATE))
    err = y[100 : n - 100] - ref[100 : n - 100]
    snr = 10 * np.log10(np.sum(ref[100 : n - 100] ** 2) / np.sum(err**2))

    q = farrow.quality_summary(filt)
    ok = worst_rel <= 1e-12 and snr >= 60.0
    announce(
        5,
        "interpolator accuracy (evaluation identity, delay SNR)",
        ok,
        f"horner vs power-sum {worst_rel:.2e} <= 1e-12, 1 kHz delay SNR "
        f"{snr:.1f} dB >= 60; mu=0.5 group delay {q['mu05_group_delay_err']:.2e}",
    )
    assert worst_rel <= 1e-12
    assert snr >= 60.0


@pytest.mark.xfail(
    strict=True,
    reason="eight taps cannot hold phase delay to 0.01 samples over the whole "
    "(omega <= 0.8*pi, mu) grid; the minimax complex error floor at mu=0.5 "
    "is ~0.048, above what the bound implies (~0.037). Measured worst corner "
    "sits near 0.46 samples at the band edge.",
)
def test_criterion_5_interpolator_whole_grid(filt, announce):
    """The whole-grid delay/ripple clause, kept honest: it cannot be met."""
    omegas = np.linspace(1e-3, 0.8 * np.pi, 256)
    worst_gd = 0.0
    worst_rip = 0.0
    for mu in np.linspace(0.0, 0.99, 34):
        h = farrow.response_at(filt, omegas, mu)
        gd = farrow.group_delay(filt, omegas, mu)
        worst_gd = max(worst_gd, float(np.max(np.abs(gd - (filt.nominal_delay + mu)))))
        worst_rip = max(worst_rip, float(np.max(np.abs(20 * np.log10(np.abs(h))))))

    ok = worst_gd <= 0.01 and worst_rip <= 0.1
    announce(
        5,
        "interpolator accuracy (whole-grid delay/ripple clause)",
        ok,
        f"worst group-delay error {worst_gd:.3f} samples (bound 0.01), worst "
        f"ripple {worst_rip:.2f} dB (bound 0.1); unreachable with 8 taps",
    )
    assert worst_gd <= 0.01
    assert worst_rip <= 0.1


def test_criterion_6_splice_artifacts(filt, announce):
    """The block-frozen baseline shows the artifacts the engine avoids."""
    duration = 2.0
    x = sine(1000.0, duration)
    traj = receding_traj(duration)
    cfg = SynthesisConfig(max_order=0, decimation=1)

    y_engine = synth.render(x, traj, HALL, HALL_MIC, filt, cfg)
    hop = int(RATE / 25.0)  # RIR refresh at 25 Hz
    y_splice = splice_baseline(x, traj, HALL, HALL_MIC, hop, 0, cfg)

    r_engine = compare(y_engine, y_engine, passband=1.0, rate=RATE, interior=0.1)
    r_splice = compare(y_splice, y_splice, passband=1.0, rate=RATE, interior=0.1)

    jump_ratio = r_splice.envelope_max_jump / max(r_engine.envelope_max_jump, 1e-300)
    expected = 1000.0 * (1.0 - 1.0 / 343.0)
    engine_dev = float(np.max(np.abs(r_engine.inst_freq_track - expected)))
    splice_dev = float(np.max(np.abs(r_splice.inst_freq_track - expected)))

    ok = jump_ratio >= 10.0 and splice_dev > 5.0 and engine_dev <= 5.0
    announce(
        6,
        "splice artifacts",
        ok,
        f"envelope-jump ratio {jump_ratio:.0f}x >= 10x, baseline freq "
        f"excursion {splice_dev:.1f} Hz > 5, engine {engine_dev:.3f} Hz <= 5",
    )
    assert jump_ratio >= 10.0
    assert splice_dev > 5.0
    assert engine_dev <= 5.0


def test_criterion_7_parallel_determinism(filt, announce):
    """Worker count must never change a single output bit."""
    runs = []

    # criterion 1 configuration
    n1 = int(1.0 * RATE)
    runs.append(
        (
            sine(1000.0, 1.0),
            Trajectory(rate=RATE, positions=np.tile(SRC, (n1, 1))),
            ROOM,
            MIC,
            SynthesisConfig(max_order=3, decimation=3200, order_split=1),
        )
    )
    # criterion 2 configuration
    runs.append(
        (
            sine(1000.0, 2.0),
            receding_traj(2.0),
            HALL,
            HALL_MIC,
            SynthesisConfig(max_order=0, decimation=1),
        )
    )
    # criterion 3 configuration
    spec = TrajectorySpec(
        kind="sine", duration=16.0, bandwidth_limit=2.0, speed_max=1.0, seed=3
    )
    traj3 = generate(spec, RATE, ROOM)
    rng = np.random.default_rng(11)
    runs.append(
        (
            rng.standard_normal(len(traj3)) * 0.25,
            traj3,
            ROOM,
            MIC,
            SynthesisConfig(max_order=2, order_split=1, decimation=3200),
        )
    )

    all_equal = True
    for x, traj, room, mic, cfg in runs:
        base = synth.render(x, traj, room, mic, filt, replace(cfg, workers=1))
        for w in (2, 8):
            other = synth.render(x, traj, room, mic, filt, replace(cfg, workers=w))
            if not np.array_equal(base, other):
                all_equal = False

    announce(
        7,
        "parallel determinism",
        all_equal,
        "bit-for-bit identical at 1, 2 and 8 workers on the three scenario configs",
    )
    assert all_equal


def test_criterion_8_superposition_and_linearity(filt, announce):
    """The render is linear in the input and additive over the image set."""
    spec = TrajectorySpec(
        kind="sine", duration=0.5, bandwidth_limit=2.0, speed_max=1.0, seed=8
    )
    traj = generate(spec, RATE, ROOM)
    rng = np.random.default_rng(21)
    x = rng.standard_normal(len(traj))
    cfg = SynthesisConfig(max_order=2, decimation=1)

    images = enumerate_images(ROOM, 2)
    half = len(images) // 2
    full = synth.synthesize(
        x, synth.prepare_streams(traj, ROOM, MIC, cfg, images=images), filt, cfg
    )
    part_a = synth.synthesize(
        x, synth.prepare_streams(traj, ROOM, MIC, cfg, images=images[:half]), filt, cfg
    )
    part_b = synth.synthesize(
        x, synth.prepare_streams(traj, ROOM, MIC, cfg, images=images[half:]), filt, cfg
    )
    m = min(full.size, part_a.size, part_b.size)
    additive_rel = float(
        np.max(np.abs(full[:m] - (part_a[:m] + part_b[:m])))
        / np.max(np.abs(full))
    )

    y1 = synth.render(x, traj, ROOM, MIC, filt, cfg)
    y2 = synth.render(4.0 * x, traj, ROOM, MIC, filt, cfg)
    scale_rel = float(np.max(np.abs(y2 - 4.0 * y1)) / np.max(np.abs(y2)))

    ok = additive_rel <= 1e-10 and scale_rel <= 1e-12
    announce(
        8,
        "superposition and linearity",
        ok,
        f"image additivity {additive_rel:.2e} <= 1e-10, input scaling "
        f"{scale_rel:.2e} (rounding only)",
    )
    assert additive_rel <= 1e-10
    assert scale_rel <= 1e-12
