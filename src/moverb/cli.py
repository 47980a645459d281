"""Command-line front end.

Subcommands: design (branch-filter design), trajectory (path generation),
simulate (render audio through one of four engines), compare (fidelity
metrics between two renders), cost (distance evaluations and per-sample work).

Exit codes: 0 success, 2 usage or invalid parameters, 3 I/O failure,
4 budget refusal.
"""

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import farrow, io_formats, reference, synth, trajectory
from .room import Room, estimate_image_count
from .synth import BudgetError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _given(args, *names):
    """The named options the command line set, by name."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _box(dims):
    """A room of quoted dims; generate and estimate_image_count read only its box.

    Raises ValueError naming --room and its value unless dims is three
    finite numbers > 0.
    """
    try:
        return Room(dims=np.array(dims.split(), dtype=float), wall_reflection=1.0)
    except ValueError as exc:
        raise ValueError(f"--room {dims!r}: {exc}") from None


def _cmd_design(args):
    filt = farrow.design(**_given(args, "M", "L", "alpha", "grid"))
    io_formats.write_filter(args.out, filt)
    q = farrow.quality_summary(filt)
    print(f"wrote {args.out}")
    print(
        "mu=0: ripple {:.4f} dB, group-delay err {:.5f} samples".format(
            q["mu0_ripple_db"], q["mu0_group_delay_err"]
        )
    )
    print("mu=0.5: group-delay err {:.2e} samples".format(q["mu05_group_delay_err"]))
    print(
        "worst over mu grid: ripple {:.3f} dB, group-delay err {:.4f} samples".format(
            q["worst_ripple_db"], q["worst_group_delay_err"]
        )
    )
    return EXIT_OK


def _cmd_trajectory(args):
    fields = "kind", "duration", "bandwidth_limit", "speed_max", "seed", "margin"
    spec = trajectory.TrajectorySpec(**_given(args, *fields))
    traj = trajectory.generate(spec, args.rate, _box(args.room))
    io_formats.write_trajectory(args.out, traj)
    print(f"wrote {args.out} ({len(traj)} samples at {traj.rate} Hz)")
    print(f"bandwidth_hz={trajectory.bandwidth_estimate(traj):.4f}")
    print(f"max_speed={trajectory.speed_max(traj):.4f}")
    return EXIT_OK


def _load_engine(args):
    cfg = io_formats.engine_config_from_table(io_formats.read_config(args.config))
    overrides = _given(args, "decimation", "order_split", "workers")
    return replace(cfg, synth=replace(cfg.synth, **overrides))


def _cmd_simulate(args):
    if args.dump_image is not None and args.mode in ("splice", "static"):
        raise ValueError(
            f"--dump-image describes a moving render; mode {args.mode} "
            "freezes the source"
        )
    # states what passes, so NaN fails it
    if args.mode == "splice" and not 0 < args.hop_hz < math.inf:
        raise ValueError("--hop-hz must be finite and > 0")
    cfg = _load_engine(args)
    # a subnormal rate passes the check above, but its hop overflows
    if args.mode == "splice" and not cfg.synth.audio_rate / args.hop_hz < math.inf:
        raise ValueError("--hop-hz is so small that audio_rate / hop_hz is inf")
    rate, s = io_formats.read_wav(args.infile)
    if rate != cfg.synth.audio_rate:
        raise ValueError(
            f"input rate {rate} does not match configured rate {cfg.synth.audio_rate}"
        )
    if args.dump_image is not None:
        # the streams the render used: the oracle's are all exact; checked
        # before anything is rendered or written
        dumped = replace(cfg.synth, decimation=1) if args.mode == "oracle" else cfg.synth
        streams = synth.prepare_streams(cfg.traj, cfg.room, cfg.mic, dumped)
        if not 0 <= args.dump_image < streams.image_count():
            raise ValueError("image index out of range")
    if args.mode == "hierarchical":
        out = synth.render(s, cfg.traj, cfg.room, cfg.mic, cfg.filt, cfg.synth)
    elif args.mode == "oracle":
        out = reference.full_rate_moving_oracle(
            s, cfg.traj, cfg.room, cfg.mic, cfg.filt, cfg.synth
        )
    elif args.mode == "splice":
        hop = max(1, int(round(cfg.synth.audio_rate / args.hop_hz)))
        out = reference.splice_baseline(
            s, cfg.traj, cfg.room, cfg.mic, hop, args.crossfade, cfg.synth
        )
    else:  # static: freeze the trajectory start position
        taps = reference.static_rir(cfg.room, cfg.traj.positions[0], cfg.mic, cfg.synth)
        out = reference.static_render(s, taps)
    io_formats.write_wav(args.out, cfg.synth.audio_rate, out)
    print(f"wrote {args.out} ({out.size} samples, mode {args.mode})")
    if args.dump_image is not None:
        io_formats.write_image_debug_csv(
            args.dump_csv, streams, args.dump_image, dumped
        )
        print(f"wrote {args.dump_csv}")
    return EXIT_OK


def _cmd_compare(args):
    rate_a, a = io_formats.read_wav(args.file_a)
    rate_b, b = io_formats.read_wav(args.file_b)
    if rate_a != rate_b:
        raise ValueError("sample rates differ")
    report = reference.compare(
        a, b, rate=rate_a, **_given(args, "passband", "interior")
    )
    print(f"snr_db={report.snr_db:.3f}")
    print(f"envelope_max_jump={report.envelope_max_jump:.6g}")
    if report.inst_freq_track.size:
        print(f"inst_freq_mean={float(np.mean(report.inst_freq_track)):.3f}")
    if args.report:
        io_formats.write_report(args.report, report)
        print(f"wrote {args.report}")
    if args.csv:
        io_formats.write_compare_csv(args.csv, a, rate_a)
        print(f"wrote {args.csv}")
    return EXIT_OK


def _cmd_cost(args):
    cfg = synth.SynthesisConfig(**_given(args, "audio_rate", "order_split", "decimation"))
    images = args.images
    if images is None:
        images = estimate_image_count(_box(args.room), args.t60, c=cfg.sound_speed)
    for key, value in synth.cost_report(cfg, images, args.duration).items():
        print(f"{key}={value}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moverb", description="moving-sound-source reverberation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        # an option with no default of its own is absent from args when
        # left out, so the library type it fills keeps its own default
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = add("design", "design and export a branch-filter bank")
    p.add_argument("--M", type=int, help="polynomial order (1..4)")
    p.add_argument("--L", type=int, help="taps per branch")
    p.add_argument("--alpha", type=float, help="passband fraction")
    p.add_argument("--grid", type=int, help="mu grid points")
    p.add_argument("--out", required=True, help="output filter file")
    p.set_defaults(func=_cmd_design)

    p = add("trajectory", "generate a source path file")
    p.add_argument("--kind", help="line|circle|sine|filtered-noise|waypoint-spline")
    p.add_argument("--duration", type=float)
    p.add_argument(
        "--bandwidth", type=float, dest="bandwidth_limit", metavar="BANDWIDTH", help="Hz"
    )
    p.add_argument("--speed", type=float, dest="speed_max", metavar="SPEED", help="m/s cap")
    p.add_argument("--seed", type=int)
    p.add_argument("--rate", type=float, default=synth.SynthesisConfig.audio_rate)
    p.add_argument("--room", default="5 6 4", help="dims in meters, quoted")
    p.add_argument("--margin", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)

    p = add("simulate", "render audio through an engine")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument(
        "--mode",
        default="hierarchical",
        choices=["hierarchical", "oracle", "splice", "static"],
    )
    p.add_argument("--in", dest="infile", required=True, help="input mono wav")
    p.add_argument("--out", required=True, help="output wav")
    p.add_argument(
        "--N", type=int, dest="decimation", metavar="N", help="override decimation"
    )
    p.add_argument(
        "--K", type=int, dest="order_split", metavar="K", help="override order split"
    )
    p.add_argument("--workers", type=int)
    p.add_argument("--hop-hz", type=float, default=25.0, help="splice update rate")
    p.add_argument("--crossfade", type=int, default=0, help="splice fade samples")
    p.add_argument("--dump-image", type=int, default=None, help="image index to dump")
    p.add_argument("--dump-csv", default="image_debug.csv")
    p.set_defaults(func=_cmd_simulate)

    p = add("compare", "fidelity metrics between two renders")
    p.add_argument("file_a", help="signal under test")
    p.add_argument("file_b", help="reference signal")
    p.add_argument("--passband", type=float)
    p.add_argument("--interior", type=float)
    p.add_argument("--report", default="", help="write key=value record here")
    p.add_argument("--csv", default="", help="write per-sample csv here")
    p.set_defaults(func=_cmd_compare)

    p = add("cost", "distance evaluations and per-sample work")
    p.add_argument("--images", type=int, default=None, help="image count override")
    p.add_argument("--room", default="9 10 9", help="dims for the count estimate")
    p.add_argument("--t60", type=float, default=0.6)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--rate", type=float, dest="audio_rate", metavar="RATE")
    p.add_argument("--N", type=int, dest="decimation", metavar="N")
    p.add_argument("--K", type=int, dest="order_split", metavar="K")
    p.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, FileNotFoundError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
