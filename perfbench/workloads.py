"""Workload definitions shared by the benchmark and its set-up probe.

This module imports only numpy, so the set-up probe can make its inputs
before it starts the clock and imports moverb.

Every workload renders the same scene: a 5 x 6 x 4 m room with wall
reflection 0.9, the mic at (1.25, 2.6, 2.75), 16 kHz audio, a Farrow bank
with M=3, L=8, alpha=0.8, and a sine path at 2 Hz and 1 m/s. The seed sets
the path direction and the dry white-noise input.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np

RATE = 16000.0
ROOM_DIMS = (5.0, 6.0, 4.0)
REFLECTION = 0.9
MIC = (1.25, 2.6, 2.75)
FARROW = {"M": 3, "L": 8, "alpha": 0.8}
PATH = {"kind": "sine", "bandwidth_limit": 2.0, "speed_max": 1.0}
WARMUP_S = 0.25
SMOKE_CLIP_S = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    entry: "render" calls moverb.render, "oracle" calls
    moverb.full_rate_moving_oracle. The remaining fields feed
    SynthesisConfig, except clip_s, the clip length in seconds.
    """

    name: str
    entry: str
    max_order: int
    order_split: int
    decimation: int
    clip_s: float
    workers: int
    t60: float = None

    def config_kwargs(self):
        return dict(
            audio_rate=RATE,
            max_order=self.max_order,
            order_split=self.order_split,
            decimation=self.decimation,
            workers=self.workers,
            t60=self.t60,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("far_field", "render", 3, 1, 3200, 10.0, 1),
        Workload("brute_force", "oracle", 3, 1, 3200, 10.0, 1),
        Workload("dense_images", "render", 8, 2, 3200, 1.0, 2, t60=0.07),
    )
}


def clip_seconds(workload, smoke):
    return SMOKE_CLIP_S if smoke else workload.clip_s


def make_inputs(seed, clip_s):
    """Seeded path direction (unit 3-vector) and dry white noise."""
    rng = np.random.default_rng(seed)
    while True:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
        if norm > 1e-6:
            break
    dry = rng.standard_normal(int(round(clip_s * RATE)))
    return tuple(float(v) for v in direction / norm), dry


def import_moverb(root):
    """Import moverb from root/src and refuse any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "moverb", "__init__.py")):
        raise RuntimeError(f"no moverb package under {src}")
    sys.path.insert(0, src)
    import moverb

    if not os.path.abspath(moverb.__file__).startswith(src + os.sep):
        raise RuntimeError(f"moverb imported from {moverb.__file__}, not {src}")
    return moverb


@dataclass(frozen=True)
class Scene:
    room: object
    mic: np.ndarray
    traj: object
    filt: object
    cfg: object


def build_scene(moverb, workload, direction, clip_s):
    """Design the filter, build the room and generate the path."""
    filt = moverb.design(FARROW["M"], FARROW["L"], FARROW["alpha"])
    room = moverb.Room(dims=np.array(ROOM_DIMS), wall_reflection=REFLECTION)
    spec = moverb.TrajectorySpec(duration=clip_s, direction=direction, **PATH)
    traj = moverb.generate(spec, RATE, room)
    cfg = moverb.SynthesisConfig(**workload.config_kwargs())
    return Scene(room=room, mic=np.array(MIC), traj=traj, filt=filt, cfg=cfg)


def entry_point(moverb, workload):
    """The public call a workload times."""
    if workload.entry == "oracle":
        return moverb.full_rate_moving_oracle
    return moverb.render


def head(moverb, scene, dry, seconds):
    """The first `seconds` of the clip, as (dry, trajectory)."""
    n = min(len(dry), int(round(seconds * RATE)))
    traj = moverb.Trajectory(rate=scene.traj.rate, positions=scene.traj.positions[:n])
    return dry[:n], traj
