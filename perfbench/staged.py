"""Traced, stage-by-stage render and numpy kernel timings.

The traced run calls the render stages one by one through their public
functions, in the order `render` runs them, and times each call from
outside. Where a stage has no public seam for its parts, the parts are
replayed on the same inputs after the stage: `_kernels.distance_streams`
on the coarse path and `bandlimited_upsample` per far image split
`high_order_distances`, and `farrow.branch_filter` splits `synthesize`.
Replayed spans name the stage as parent but lie outside its interval, so
a stage's self time is its duration minus its children's durations.

A stage function that a later change removes is reported as missing; the
run then skips what depends on it and carries on.
"""

import importlib
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

import workloads

CHAIN = {
    "select_images": "synth",
    "low_order_distances": "synth",
    "decimate": "trajectory",
    "high_order_distances": "synth",
    "merge_streams": "synth",
    "synthesize": "synth",
}
SPLITS = {
    "distance_streams": "_kernels",
    "bandlimited_upsample": "trajectory",
    "branch_filter": "farrow",
}
HELPERS = {"as_mic": "room", "as_arrays": "room"}
KERNELS = {
    "accumulate_images": "_kernels",
    "upsample_stream": "_kernels",
    "_phase_table": "trajectory",
}


def resolve(table):
    """Look up moverb.<module>.<name> for each entry; return (found, missing)."""
    found, missing = {}, []
    for name, module in table.items():
        try:
            found[name] = getattr(importlib.import_module(f"moverb.{module}"), name)
        except (ImportError, AttributeError):
            missing.append(f"moverb.{module}.{name}")
    return found, missing


class Tracer:
    """In-memory spans (name, start, end, parent, run id, replay flag)."""

    def __init__(self):
        self.spans = []
        self.run_id = 0

    def next_run(self):
        self.run_id += 1

    @contextmanager
    def span(self, name, parent=None, replay=False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "run": self.run_id,
            "replay": replay,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        try:
            yield rec["id"]
        finally:
            rec["end"] = time.perf_counter()

    def durations(self, name):
        """Per-run total duration of the spans called `name`."""
        per_run = {}
        for sp in self.spans:
            if sp["name"] == name:
                per_run[sp["run"]] = per_run.get(sp["run"], 0.0) + sp["end"] - sp["start"]
        return list(per_run.values())

    def self_times(self, name):
        """Per-run duration of `name` minus the durations of its children."""
        out = []
        for sp in self.spans:
            if sp["name"] != name:
                continue
            children = sum(
                c["end"] - c["start"] for c in self.spans if c["parent"] == sp["id"]
            )
            out.append(sp["end"] - sp["start"] - children)
        return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def staged_render(fn, scene, dry, tracer):
    """Run the render chain stage by stage; return the output and the pieces."""
    cfg, room = scene.cfg, scene.room
    with tracer.span("synth.render") as root:
        mic = fn["as_mic"](scene.mic)
        with tracer.span("room.select", root):
            images = fn["select_images"](room, scene.traj, mic, cfg)
        low = [sp for sp in images if sp.order <= cfg.order_split]
        high = [sp for sp in images if sp.order > cfg.order_split]
        with tracer.span("synth.near_dist", root):
            near = fn["low_order_distances"](low, scene.traj, mic, room)
        with tracer.span("trajectory.decimate", root):
            coarse = fn["decimate"](scene.traj, cfg.decimation)
        with tracer.span("synth.far_streams", root) as far_id:
            far = fn["high_order_distances"](
                high, coarse, mic, room, len(scene.traj), cfg.decimation
            )
        with tracer.span("synth.merge", root):
            streams = fn["merge_streams"](near, far)
        with tracer.span("synth.synthesize", root) as syn_id:
            out = fn["synthesize"](dry, streams, scene.filt, cfg)

    split_ok = None
    if high:
        offset, sign, _, _ = fn["as_arrays"](high, room)
        with tracer.span("synth.far_dist", far_id, replay=True):
            coarse_d = fn["distance_streams"](offset, sign, mic.pos, coarse.positions)
        with tracer.span("trajectory.restore", far_id, replay=True):
            restored = [
                fn["bandlimited_upsample"](row, cfg.decimation, len(scene.traj))
                for row in coarse_d
            ]
        split_ok = bool(np.array_equal(np.stack(restored), far.d))
        del restored
    with tracer.span("farrow.branch", syn_id, replay=True):
        fn["branch_filter"](dry, scene.filt)
    return out, {
        "images": images,
        "high": high,
        "near": near,
        "far": far,
        "streams": streams,
        "mic": mic,
        "split_ok": split_ok,
    }


def delay_errors(fn, scene, high, far, mic):
    """Restored far-image delay against exact full-rate delay, in samples.

    Returns the max over the whole clip and the max without one decimation
    step at each end.
    """
    if not high:
        return 0.0, 0.0
    offset, sign, _, _ = fn["as_arrays"](high, scene.room)
    exact = fn["distance_streams"](offset, sign, mic.pos, scene.traj.positions)
    err = np.abs(far.d - exact) * (scene.traj.rate / scene.cfg.sound_speed)
    n = scene.cfg.decimation
    interior = err[:, n:-n] if err.shape[1] > 2 * n else err
    return float(err.max()), float(interior.max())


def stage_checks(scene, dry, out, reference, parts):
    """The staged output equals render's, with the engine's own length rule."""
    tau_max = scene.traj.rate * float(parts["streams"].d.max()) / scene.cfg.sound_speed
    expected = dry.size + math.ceil(tau_max) + scene.filt.branch_len
    return {
        "staged_equals_render": bool(np.array_equal(out, reference)),
        "staged_length": out.size == expected,
        "restore_split_matches": parts["split_ok"],
    }


def stage_counts(moverb, fn, scene, reference, parts):
    """Work counts, computed stream bytes and far-image delay error."""
    images, high = parts["images"], parts["high"]
    n_images, t_len = len(images), len(scene.traj)
    enumerated = moverb.enumerate_images(scene.room, scene.cfg.max_order)
    err_max, err_interior = delay_errors(fn, scene, high, parts["far"], parts["mic"])
    return {
        "room.images": n_images,
        "room.images_culled": len(enumerated) - n_images,
        "synth.near_evals": parts["near"].eval_count,
        "synth.far_evals": parts["far"].eval_count,
        "trajectory.restore_samples": len(high) * t_len,
        "synth.accumulate_taps": n_images * reference.size,
        # distances (S, T), then extended distance, delay and gain (S, out_len)
        "synth.stream_mb": (n_images * t_len + 3 * n_images * reference.size) * 8 / 1e6,
        "trajectory.delay_err_max_samples": err_max,
        "trajectory.delay_err_interior_samples": err_interior,
    }


def timed_median(call, repeats=3, prepare=None):
    times = []
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(moverb, seed, smoke):
    """numpy-path kernel timings at far_field sizes.

    Byte counts are computed from array shapes (inputs read plus outputs
    written once), not measured; cache misses are not in them.
    """
    fn, missing = resolve({**SPLITS, **HELPERS, **KERNELS})
    m = {}
    if missing:
        return m, missing
    wl = workloads.WORKLOADS["far_field"]
    clip_s = workloads.clip_seconds(wl, smoke)
    direction, dry = workloads.make_inputs(seed, clip_s)
    scene = workloads.build_scene(moverb, wl, direction, clip_s)
    pos = scene.traj.positions
    images = moverb.enumerate_images(scene.room, wl.max_order)
    offset, sign, beta, _ = fn["as_arrays"](images, scene.room)
    mic = scene.mic

    d = fn["distance_streams"](offset, sign, mic, pos)
    evals = d.size
    t = timed_median(lambda: fn["distance_streams"](offset, sign, mic, pos))
    m["kernels.distance_ns_per_eval"] = t / evals * 1e9
    m["kernels.distance_evals"] = evals
    m["kernels.distance_mb_computed"] = evals * (3 * 8 + 8) / 1e6

    f = scene.filt
    branch = fn["branch_filter"](dry, f)
    tau = scene.traj.rate * d / scene.cfg.sound_speed
    amp = beta[:, None] / (4.0 * np.pi * np.maximum(d, scene.cfg.d_min))
    del d
    acc = np.zeros(pos.shape[0])
    t = timed_median(
        lambda: fn["accumulate_images"](
            acc, branch, tau, amp, f.branch_len, f.nominal_delay
        ),
        prepare=lambda: acc.fill(0.0),
    )
    taps = tau.size
    m["kernels.accumulate_ns_per_tap"] = t / taps * 1e9
    m["kernels.accumulate_taps"] = taps
    # per tap: tau, amp and M+1 branch values read, out read and written
    m["kernels.accumulate_mb_computed"] = taps * (8 * (f.poly_order + 1) + 32) / 1e6
    del tau, amp

    n = wl.decimation
    coarse = fn["distance_streams"](offset[-1:], sign[-1:], mic, pos[::n])[0]
    table = fn["_phase_table"](n)
    t = timed_median(lambda: fn["upsample_stream"](coarse, table, n, pos.shape[0]))
    taps = pos.shape[0] * table.shape[1]
    m["kernels.upsample_ns_per_tap"] = t / taps * 1e9
    m["kernels.upsample_taps"] = taps
    # per tap: one table weight and one coarse sample read; one output write per sample
    m["kernels.upsample_mb_computed"] = (taps * 16 + pos.shape[0] * 8) / 1e6
    return m, missing


def traced_run(moverb, scene, dry, seed, seconds, smoke, entry):
    """Per-layer metrics, checks and spans for one workload.

    Returns (metrics, checks, missing, spans). checks maps a check name to
    True, False, or None when it could not run.
    """
    chain, missing = resolve(CHAIN)
    splits, missing_splits = resolve({**SPLITS, **HELPERS})
    missing += missing_splits
    fn = {**chain, **splits}
    tracer = Tracer()
    checks = {}
    m = {}

    m["farrow.design_s"] = timed_median(
        lambda: moverb.design(
            workloads.FARROW["M"], workloads.FARROW["L"], workloads.FARROW["alpha"]
        )
    )

    def plain_render():
        t0 = time.perf_counter()
        out = entry(dry, scene.traj, scene.room, scene.mic, scene.filt, scene.cfg)
        plain_times.append(time.perf_counter() - t0)
        return out

    # plain and staged renders alternate, so the tracing overhead compares
    # medians taken under the same conditions
    plain_times = []
    reference = plain_render()
    staged_ok = len(chain) == len(CHAIN) and not missing_splits
    if not staged_ok:
        checks["staged_equals_render"] = None
    start = time.perf_counter()
    while staged_ok:
        tracer.next_run()
        out, parts = staged_render(fn, scene, dry, tracer)
        if tracer.run_id == 1:
            checks.update(stage_checks(scene, dry, out, reference, parts))
            m.update(stage_counts(moverb, fn, scene, reference, parts))
        del out, parts
        if time.perf_counter() - start >= seconds:
            break
        plain_render()
    render_s = statistics.median(plain_times)
    m["trace.render_s"] = render_s

    t0 = time.perf_counter()
    oracle = moverb.full_rate_moving_oracle(
        dry, scene.traj, scene.room, scene.mic, scene.filt, scene.cfg
    )
    m["reference.oracle_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    moverb.compare(reference, oracle, rate=workloads.RATE)
    m["reference.compare_s"] = time.perf_counter() - t0
    del oracle

    for metric, span in (
        ("room.select_s", "room.select"),
        ("synth.near_dist_s", "synth.near_dist"),
        ("trajectory.decimate_s", "trajectory.decimate"),
        ("synth.far_streams_s", "synth.far_streams"),
        ("synth.far_dist_s", "synth.far_dist"),
        ("trajectory.restore_s", "trajectory.restore"),
        ("synth.merge_s", "synth.merge"),
        ("synth.synthesize_s", "synth.synthesize"),
        ("farrow.branch_s", "farrow.branch"),
        ("trace.stage_sum_s", "synth.render"),
    ):
        m[metric] = median_or_zero(tracer.durations(span))
    m["synth.accumulate_s"] = median_or_zero(tracer.self_times("synth.synthesize"))
    m["synth.render_self_s"] = median_or_zero(tracer.self_times("synth.render"))
    if staged_ok:
        m["trace.overhead_frac"] = m["trace.stage_sum_s"] / render_s - 1.0
    if m.get("trajectory.restore_samples"):
        m["trajectory.restore_ns_per_sample"] = (
            m["trajectory.restore_s"] / m["trajectory.restore_samples"] * 1e9
        )
    if m.get("synth.accumulate_taps"):
        m["synth.accumulate_ns_per_tap"] = (
            m["synth.accumulate_s"] / m["synth.accumulate_taps"] * 1e9
        )
    m["trace.staged_runs"] = tracer.run_id

    kernels, missing_kernels = kernel_metrics(moverb, seed, smoke)
    m.update(kernels)
    missing += missing_kernels
    return m, checks, sorted(set(missing)), tracer.spans
