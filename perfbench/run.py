"""Render benchmark: end-to-end speed, memory and fidelity of moverb.

Usage (from the repository root):

    python3 perfbench/run.py --workload far_field --seed 0 --seconds 15 --trace 0

--trace 0 times renders through the public API and prints the end-to-end
metrics; --trace 1 runs the render stage by stage (see staged.py) and
prints the per-layer metrics. --smoke shrinks the clip to 0.5 s for the
benchmark's own test. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the full record, stamped
with commit, cores and library versions, goes to perfbench/results/.

The load is a closed loop: one client renders clips back to back on the
numpy path. The only threads are the engine's own `workers`.

Exit codes: 0 success, 1 a correctness check failed (the result line is
still printed, with correct false), 2 the benchmark could not run.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import staged  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_TIMED_RENDERS = 3
# Restored far-image delays differ from exact ones by up to ~2.2 samples
# at the clip ends, and the engine sizes its output from the restored
# delays; the exact-geometry length check allows that much on hierarchical
# renders. The traced run checks the engine's own length rule exactly.
RESTORED_LENGTH_SLACK = 3

END_TO_END = {
    "setup_s": "s",
    "render_s": "s",
    "rtf": "x",
    "peak_mb": "MB",
    "snr_db": "dB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "room.select_s": "s",
    "room.images": "count",
    "room.images_culled": "count",
    "synth.near_dist_s": "s",
    "synth.near_evals": "count",
    "trajectory.decimate_s": "s",
    "synth.far_streams_s": "s",
    "synth.far_dist_s": "s",
    "synth.far_evals": "count",
    "trajectory.restore_s": "s",
    "trajectory.restore_samples": "count",
    "trajectory.restore_ns_per_sample": "ns",
    "trajectory.delay_err_max_samples": "samples",
    "trajectory.delay_err_interior_samples": "samples",
    "synth.merge_s": "s",
    "synth.synthesize_s": "s",
    "farrow.branch_s": "s",
    "synth.accumulate_s": "s",
    "synth.accumulate_taps": "count",
    "synth.accumulate_ns_per_tap": "ns",
    "synth.stream_mb": "MB",
    "synth.render_self_s": "s",
    "farrow.design_s": "s",
    "reference.oracle_s": "s",
    "reference.compare_s": "s",
    "trace.render_s": "s",
    "trace.stage_sum_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.staged_runs": "count",
    "kernels.distance_ns_per_eval": "ns",
    "kernels.distance_evals": "count",
    "kernels.distance_mb_computed": "MB",
    "kernels.accumulate_ns_per_tap": "ns",
    "kernels.accumulate_taps": "count",
    "kernels.accumulate_mb_computed": "MB",
    "kernels.upsample_ns_per_tap": "ns",
    "kernels.upsample_taps": "count",
    "kernels.upsample_mb_computed": "MB",
}


def commit_id(root):
    """HEAD's commit hash read from .git, or "unknown" outside a checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def stamp(root, moverb, args):
    import scipy

    return {
        "commit": commit_id(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "using_numba": bool(moverb.using_numba()),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def measure_setup(root, args):
    """Median cold set-up time over fresh interpreters."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def expected_length(moverb, scene, dry, hierarchical):
    """len(s) + ceil(tau_max) + L with tau_max from exact geometry.

    Returns (length, slack): restored far delays may move the engine's
    length by up to `slack` samples from the exact-geometry one.
    """
    from moverb.room import as_arrays, as_mic, image_distance

    cfg, room, pos = scene.cfg, scene.room, scene.traj.positions
    mic = as_mic(scene.mic)
    images = moverb.enumerate_images(room, cfg.max_order)
    if cfg.t60 is not None:
        reach = cfg.sound_speed * cfg.t60
        images = [sp for sp in images if image_distance(sp, pos[0], mic, room) <= reach]
    offset, sign, _, _ = as_arrays(images, room)
    d_max = max(
        float(np.sqrt((((o + g * pos) - mic.pos) ** 2).sum(axis=1)).max())
        for o, g in zip(offset, sign)
    )
    tau_max = scene.traj.rate * d_max / cfg.sound_speed
    length = dry.size + math.ceil(tau_max) + scene.filt.branch_len
    return length, (RESTORED_LENGTH_SLACK if hierarchical else 0)


def end_to_end(moverb, workload, scene, dry, args):
    """Timed renders plus the untimed memory, fidelity and equality checks."""
    entry = workloads.entry_point(moverb, workload)
    call = lambda cfg=scene.cfg: entry(  # noqa: E731
        dry, scene.traj, scene.room, scene.mic, scene.filt, cfg
    )
    hierarchical = workload.entry == "render" and workload.decimation > 1
    length, slack = expected_length(moverb, scene, dry, hierarchical)
    checks = {}

    tracemalloc.start()
    reference = call()
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    checks["reference_finite"] = bool(np.all(np.isfinite(reference)))
    checks["reference_length"] = abs(reference.size - length) <= slack

    times, failed, mismatched, errors = [], 0, 0, []
    start = time.perf_counter()
    while len(times) < MIN_TIMED_RENDERS or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising render counts as failed, run goes on
            times.append(time.perf_counter() - t0)
            failed += 1
            errors.append(repr(exc))
            continue
        times.append(time.perf_counter() - t0)
        if out.size != reference.size or not np.all(np.isfinite(out)):
            failed += 1
        elif not np.array_equal(out, reference):
            mismatched += 1
    checks["timed_renders_equal_reference"] = mismatched == 0

    if workload.entry == "oracle":
        brute = moverb.render(
            dry, scene.traj, scene.room, scene.mic, scene.filt,
            replace(scene.cfg, decimation=1),
        )
        checks["brute_force_equals_decimation_1"] = bool(np.array_equal(reference, brute))
        oracle = brute
    else:
        oracle = moverb.full_rate_moving_oracle(
            dry, scene.traj, scene.room, scene.mic, scene.filt, scene.cfg
        )
    if workload.workers > 1:
        single = call(replace(scene.cfg, workers=1))
        checks["workers_bit_identical"] = bool(np.array_equal(reference, single))
        del single

    # trim only the L-sample filter edge at each end of the clip
    interior = (scene.filt.branch_len + 0.5) / min(reference.size, oracle.size)
    snr_db = moverb.compare(reference, oracle, rate=workloads.RATE, interior=interior).snr_db

    render_s = statistics.median(times)
    attempted = len(times)
    metrics = {
        "render_s": render_s,
        "rtf": (dry.size / workloads.RATE) / render_s,
        "peak_mb": peak_mb,
        "snr_db": snr_db,
        "ok_frac": (attempted - failed) / attempted,
    }
    extra = {"render_times_s": times, "render_n": attempted, "errors": errors}
    return metrics, checks, attempted, failed, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="0.5 s clip, one set-up")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    workload = workloads.WORKLOADS[args.workload]
    clip_s = workloads.clip_seconds(workload, args.smoke)
    direction, dry = workloads.make_inputs(args.seed, clip_s)

    try:
        if args.trace == 0:
            setup_s, setup_times = measure_setup(root, args)
        moverb = workloads.import_moverb(root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    record = {"stamp": stamp(root, moverb, args)}
    print("stamp", json.dumps(record["stamp"]))
    scene = workloads.build_scene(moverb, workload, direction, clip_s)
    entry = workloads.entry_point(moverb, workload)
    warm_s, warm_traj = workloads.head(moverb, scene, dry, workloads.WARMUP_S)
    entry(warm_s, warm_traj, scene.room, scene.mic, scene.filt, scene.cfg)

    if args.trace == 0:
        metrics, checks, attempted, failed, extra = end_to_end(
            moverb, workload, scene, dry, args
        )
        metrics["setup_s"] = setup_s
        extra["setup_times_s"] = setup_times
        units = END_TO_END
        print(f"render_s is the median of {extra['render_n']} timed renders")
    else:
        if workload.entry == "oracle":
            # the staged chain must run what the oracle runs
            staged_scene = replace(scene, cfg=replace(scene.cfg, decimation=1))
        else:
            staged_scene = scene
        metrics, checks, missing, spans = staged.traced_run(
            moverb, staged_scene, dry, args.seed, args.seconds, args.smoke, entry
        )
        attempted, failed = metrics["trace.staged_runs"] or 1, 0
        units = PER_LAYER
        extra = {"missing": missing, "spans": spans}
        for name in missing:
            print(f"missing stage function {name}: its metrics read 0")

    record.update(checks=checks, extra=extra)
    record["metrics"] = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, ok in checks.items():
        print(f"check {name}: {'skipped' if ok is None else 'ok' if ok else 'FAILED'}")

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    correct = all(ok is not False for ok in checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": record["metrics"],
    }))
    if not correct:
        bad = [name for name, ok in checks.items() if ok is False]
        print(f"correctness check failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
