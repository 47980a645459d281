"""Command-line front end.

Subcommands: design (branch-filter design), trajectory (path generation),
simulate (render audio through one of four engines), compare (fidelity
metrics between two renders), cost (distance evaluations and per-sample work).

Exit codes: 0 success, 2 usage or invalid parameters, 3 I/O failure,
4 budget refusal.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import farrow, io_formats, reference, synth, trajectory
from .synth import BudgetError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _cmd_design(args):
    filt = farrow.design(args.M, args.L, args.alpha, grid=args.grid)
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


def _room_from_args(args):
    from .room import Room

    dims = np.array([float(v) for v in args.room.split()])
    return Room(dims=dims, wall_reflection=np.full(6, args.reflection))


def _cmd_trajectory(args):
    room = _room_from_args(args)
    spec = trajectory.TrajectorySpec(
        kind=args.kind,
        duration=args.duration,
        bandwidth_limit=args.bandwidth,
        speed_max=args.speed,
        seed=args.seed,
    )
    traj = trajectory.generate(spec, args.rate, room, margin=args.margin)
    io_formats.write_trajectory(args.out, traj)
    print(f"wrote {args.out} ({len(traj)} samples at {traj.rate} Hz)")
    print(f"bandwidth_hz={trajectory.bandwidth_estimate(traj):.4f}")
    print(f"max_speed={trajectory.speed_max(traj):.4f}")
    return EXIT_OK


def _load_engine(args):
    table = io_formats.read_config(args.config)
    cfg = io_formats.engine_config_from_table(table)
    overrides = {}
    if args.N is not None:
        overrides["decimation"] = args.N
    if args.K is not None:
        overrides["order_split"] = args.K
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = replace(cfg, synth=replace(cfg.synth, **overrides))
    if cfg.trajectory_file:
        traj = io_formats.read_trajectory(cfg.trajectory_file)
    else:
        traj = trajectory.generate(
            cfg.trajectory_spec, cfg.synth.audio_rate, cfg.room, margin=cfg.margin
        )
    if cfg.farrow_file:
        filt = io_formats.read_filter(cfg.farrow_file)
    else:
        filt = farrow.design(
            cfg.farrow_m, cfg.farrow_l, cfg.farrow_alpha, grid=cfg.farrow_grid
        )
    return cfg, traj, filt


def _cmd_simulate(args):
    if args.dump_image is not None and args.mode in ("splice", "static"):
        raise ValueError(
            f"--dump-image describes a moving render; mode {args.mode} "
            "freezes the source"
        )
    cfg, traj, filt = _load_engine(args)
    rate, s = io_formats.read_wav(args.infile)
    if rate != cfg.synth.audio_rate:
        raise ValueError(
            f"input rate {rate} does not match configured rate {cfg.synth.audio_rate}"
        )
    if args.mode == "hierarchical":
        out = synth.render(s, traj, cfg.room, cfg.mic, filt, cfg.synth)
    elif args.mode == "oracle":
        out = reference.full_rate_moving_oracle(
            s, traj, cfg.room, cfg.mic, filt, cfg.synth
        )
    elif args.mode == "splice":
        hop = max(1, int(round(cfg.synth.audio_rate / args.hop_hz)))
        out = reference.splice_baseline(
            s, traj, cfg.room, cfg.mic, hop, args.crossfade, cfg.synth
        )
    else:  # static: freeze the trajectory start position
        rir = reference.static_rir(
            cfg.room,
            traj.positions[0],
            cfg.mic,
            cfg.synth.audio_rate,
            cfg.synth.max_order,
            c=cfg.synth.sound_speed,
            d_min=cfg.synth.d_min,
        )
        out = reference.static_render(s, rir)
    io_formats.write_wav(args.out, cfg.synth.audio_rate, out)
    print(f"wrote {args.out} ({out.size} samples, mode {args.mode})")
    if args.dump_image is not None:
        # the streams the render used: the oracle's are all exact
        dumped = cfg.synth
        if args.mode == "oracle":
            dumped = replace(dumped, decimation=1)
        streams = synth.prepare_streams(traj, cfg.room, cfg.mic, dumped)
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
        a, b, passband=args.passband, rate=rate_a, interior=args.interior
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
    from .room import Room, estimate_image_count

    cfg = synth.SynthesisConfig(
        audio_rate=args.rate,
        order_split=args.K,
        decimation=args.N,
    )
    if args.images is not None:
        images = args.images
    else:
        dims = np.array([float(v) for v in args.room.split()])
        room = Room(dims=dims, wall_reflection=np.full(6, 0.9))
        images = estimate_image_count(room, args.t60, c=343.0)
    for key, value in synth.cost_report(cfg, images, args.duration).items():
        print(f"{key}={value}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="moverb", description="moving-sound-source reverberation engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design and export a branch-filter bank")
    p.add_argument("--M", type=int, default=3, help="polynomial order (1..4)")
    p.add_argument("--L", type=int, default=8, help="taps per branch")
    p.add_argument("--alpha", type=float, default=0.8, help="passband fraction")
    p.add_argument("--grid", type=int, default=64, help="mu grid points")
    p.add_argument("--out", required=True, help="output filter file")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("trajectory", help="generate a source path file")
    p.add_argument("--kind", default="line", help="line|circle|sine|filtered-noise|waypoint-spline")
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--bandwidth", type=float, default=2.0, help="Hz")
    p.add_argument("--speed", type=float, default=1.0, help="m/s cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=16000.0)
    p.add_argument("--room", default="5 6 4", help="dims in meters, quoted")
    p.add_argument("--reflection", type=float, default=0.9)
    p.add_argument("--margin", type=float, default=0.3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("simulate", help="render audio through an engine")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument(
        "--mode",
        default="hierarchical",
        choices=["hierarchical", "oracle", "splice", "static"],
    )
    p.add_argument("--in", dest="infile", required=True, help="input mono wav")
    p.add_argument("--out", required=True, help="output wav")
    p.add_argument("--N", type=int, default=None, help="override decimation")
    p.add_argument("--K", type=int, default=None, help="override order split")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--hop-hz", type=float, default=25.0, help="splice update rate")
    p.add_argument("--crossfade", type=int, default=0, help="splice fade samples")
    p.add_argument("--dump-image", type=int, default=None, help="image index to dump")
    p.add_argument("--dump-csv", default="image_debug.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="fidelity metrics between two renders")
    p.add_argument("file_a", help="signal under test")
    p.add_argument("file_b", help="reference signal")
    p.add_argument("--passband", type=float, default=0.8)
    p.add_argument("--interior", type=float, default=0.05)
    p.add_argument("--report", default="", help="write key=value record here")
    p.add_argument("--csv", default="", help="write per-sample csv here")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("cost", help="distance evaluations and per-sample work")
    p.add_argument("--images", type=int, default=None, help="image count override")
    p.add_argument("--room", default="9 10 9", help="dims for the count estimate")
    p.add_argument("--t60", type=float, default=0.6)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=16000.0)
    p.add_argument("--N", type=int, default=3200)
    p.add_argument("--K", type=int, default=1)
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
